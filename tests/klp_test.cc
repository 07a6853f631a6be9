// Tests for Algorithm 1 (k-LP) and its variants. The central property: the
// pruned, memoized search returns exactly the same k-step bound as the
// unpruned exhaustive reference (Lemma 4.4 safety), and with k >= n it
// matches the exact optimal tree cost (§4.4.1).

#include <gtest/gtest.h>

#include <tuple>

#include "core/bounds.h"
#include "core/decision_tree.h"
#include "core/klp.h"
#include "core/weighted_klp.h"
#include "test_util.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

// ---------------------------------------------------------------------------
// Golden decisions: every node of every tree that Algorithm 3 builds over a
// seeded sweep, for every lookahead configuration, folded into one digest.
// The bound tests below only check values, so a change to which entity wins
// a tie would pass them; this one fails on any change to a decision, to a
// reported bound, or to the unweighted pruning counters.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a over 64-bit words.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

/// Hands DecisionTree::Build the entity of SelectWithBound and folds each
/// node's (entity, bound) into the digest.
template <class Selector>
class RecordingSelector : public EntitySelector {
 public:
  RecordingSelector(Selector* inner, Fnv* digest)
      : inner_(inner), digest_(digest) {}
  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded) override {
    auto sel = inner_->SelectWithBound(sub, kInfiniteCost, excluded);
    digest_->Add(sel.entity);
    digest_->Add(static_cast<uint64_t>(sel.bound));
    return sel.entity;
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  Selector* inner_;
  Fnv* digest_;
};

void AddStats(const KlpStats& s, Fnv* digest) {
  for (uint64_t v :
       {s.totals.candidates, s.totals.fully_evaluated, s.totals.pruned_by_break,
        s.totals.pruned_by_child, s.totals.excluded_by_beam, s.recursive_calls,
        s.cache_hits, s.cache_misses, s.entities_evaluated_deep}) {
    digest->Add(v);
  }
}

TEST(Klp, GoldenDecisionDigest) {
  const std::vector<KlpOptions> unweighted = {
      KlpOptions::MakeKlp(2, CostMetric::kAvgDepth),
      KlpOptions::MakeKlp(2, CostMetric::kHeight),
      KlpOptions::MakeKlp(3, CostMetric::kAvgDepth),
      KlpOptions::MakeKlp(3, CostMetric::kHeight),
      KlpOptions::MakeKlple(3, 3, CostMetric::kAvgDepth),
      KlpOptions::MakeKlplve(3, 3, CostMetric::kAvgDepth),
      KlpOptions::MakeGainK(2, CostMetric::kAvgDepth),
  };
  std::vector<WeightedKlpOptions> weighted(4);
  for (int k = 1; k <= 3; ++k) weighted[k - 1].k = k;
  weighted[3].beam_width = 3;

  Fnv digest;
  for (uint32_t n : {6u, 9u, 13u, 18u, 24u, 32u, 40u}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      SetCollection c = RandomCollection(seed * 1009 + n, n, 2 * n, 0.35);
      SubCollection full = SubCollection::Full(&c);
      std::vector<KlpOptions> configs = unweighted;
      if (n <= 13) {
        configs.push_back(KlpOptions::MakeOptimal(CostMetric::kAvgDepth));
        configs.push_back(KlpOptions::MakeOptimal(CostMetric::kHeight));
      }
      for (const KlpOptions& options : configs) {
        KlpSelector klp(options);
        RecordingSelector<KlpSelector> recorder(&klp, &digest);
        DecisionTree::Build(full, recorder);
        AddStats(klp.stats(), &digest);
      }
      Rng rng(seed * 31 + n);
      std::vector<double> prior(c.num_sets());
      for (double& w : prior) w = 0.05 + rng.UniformDouble();
      for (const WeightedKlpOptions& options : weighted) {
        WeightedKlpSelector wklp(&prior, options);
        RecordingSelector<WeightedKlpSelector> recorder(&wklp, &digest);
        DecisionTree::Build(full, recorder);
      }
    }
  }
  EXPECT_EQ(digest.h, 0x256a8facd3ad63cdULL) << std::hex << "0x" << digest.h;
}

TEST(KlpOptions, PresetsAndNames) {
  KlpSelector klp(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
  EXPECT_EQ(klp.name(), "2-LP(AD)");
  KlpSelector klple(KlpOptions::MakeKlple(3, 10, CostMetric::kAvgDepth));
  EXPECT_EQ(klple.name(), "3-LPLE(q=10,AD)");
  KlpSelector klplve(KlpOptions::MakeKlplve(3, 10, CostMetric::kHeight));
  EXPECT_EQ(klplve.name(), "3-LPLVE(q=10,H)");
  KlpSelector gaink(KlpOptions::MakeGainK(2, CostMetric::kHeight));
  EXPECT_EQ(gaink.name(), "Gain-2(H)");
  KlpSelector opt(KlpOptions::MakeOptimal(CostMetric::kAvgDepth));
  EXPECT_EQ(opt.name(), "Optimal(AD)");
}

TEST(Klp, SingletonCollectionNeedsNoQuestion) {
  SetCollection c = MakePaperCollection();
  SubCollection one(&c, {4});
  KlpSelector klp(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
  EXPECT_EQ(klp.Select(one), kNoEntity);
}

TEST(Klp, PaperCollectionHeightMetricSelectsPruningPivot) {
  // §4.3: with metric H and k = 3, d reaches LB_H3 = 3; c ties at the
  // 1-step level but k-LP must return an entity achieving bound 3.
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kHeight));
  KlpSelection sel = klp.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(sel.entity, kNoEntity);
  EXPECT_EQ(sel.bound, 3);
  EntityCounter counter;
  EXPECT_EQ(LbKForEntity(full, sel.entity, 3, CostMetric::kHeight, counter),
            3);
}

TEST(Klp, SelectionBoundMatchesReferenceBoundForThatEntity) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    for (int k = 1; k <= 4; ++k) {
      KlpSelector klp(KlpOptions::MakeKlp(k, metric));
      KlpSelection sel = klp.SelectWithBound(full, kInfiniteCost);
      ASSERT_NE(sel.entity, kNoEntity);
      EXPECT_EQ(sel.bound, LbKForEntity(full, sel.entity, k, metric, counter))
          << "k=" << k;
    }
  }
}

TEST(Klp, UpperLimitAtOrBelowBestBoundReturnsNoEntity) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kHeight));
  // Best achievable is 3; a limit of 3 (exclusive) admits nothing.
  KlpSelection sel = klp.SelectWithBound(full, 3);
  EXPECT_EQ(sel.entity, kNoEntity);
  // A limit of 4 admits the bound-3 entity.
  KlpSelection sel2 = klp.SelectWithBound(full, 4);
  EXPECT_NE(sel2.entity, kNoEntity);
  EXPECT_EQ(sel2.bound, 3);
}

TEST(Klp, MemoizationIsConsistentAcrossRepeatedCalls) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kAvgDepth));
  KlpSelection first = klp.SelectWithBound(full, kInfiniteCost);
  EXPECT_GT(klp.cache_size(), 0u);
  KlpSelection second = klp.SelectWithBound(full, kInfiniteCost);
  EXPECT_EQ(first.entity, second.entity);
  EXPECT_EQ(first.bound, second.bound);
  uint64_t hits = klp.stats().cache_hits;
  EXPECT_GT(hits, 0u);
  klp.ClearCache();
  EXPECT_EQ(klp.cache_size(), 0u);
  KlpSelection third = klp.SelectWithBound(full, kInfiniteCost);
  EXPECT_EQ(first.entity, third.entity);
  EXPECT_EQ(first.bound, third.bound);
}

TEST(Klp, TightThenLooseLimitRecomputesCorrectly) {
  // A pruned (entity = null) cache entry must not satisfy a later call with
  // a laxer limit (Algorithm 1 lines 3-6).
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(3, CostMetric::kHeight));
  KlpSelection tight = klp.SelectWithBound(full, 2);  // nothing below 2
  EXPECT_EQ(tight.entity, kNoEntity);
  KlpSelection loose = klp.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(loose.entity, kNoEntity);
  EXPECT_EQ(loose.bound, 3);
}

TEST(Klp, ExclusionsBypassCacheAndAvoidEntities) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpSelector klp(KlpOptions::MakeKlp(2, CostMetric::kHeight));
  EntityId unrestricted = klp.Select(full);
  ASSERT_NE(unrestricted, kNoEntity);
  EntityExclusion excluded(c.universe_size(), false);
  excluded[unrestricted] = true;
  EntityId other = klp.Select(full, &excluded);
  EXPECT_NE(other, unrestricted);
  EXPECT_NE(other, kNoEntity);

  // A lookahead child with nothing left to ask counts at its LB_0 instead
  // of pruning the candidate, so every variant still asks a or x.
  SetCollection three = MakeDeadEndCollection();
  SubCollection all = SubCollection::Full(&three);
  EntityExclusion no_b(three.universe_size(), false);
  no_b[kDeadEndB] = true;
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    for (const KlpOptions& options :
         {KlpOptions::MakeKlp(2, metric), KlpOptions::MakeKlp(3, metric),
          KlpOptions::MakeKlple(3, 1, metric),
          KlpOptions::MakeKlplve(3, 1, metric),
          KlpOptions::MakeGainK(2, metric), KlpOptions::MakeOptimal(metric)}) {
      KlpSelector sel(options);
      EntityId e = sel.Select(all, &no_b);
      EXPECT_TRUE(e == kDeadEndA || e == kDeadEndX) << sel.name() << ": " << e;
    }
  }
}

TEST(Klp, StatsAccumulateAndReset) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  KlpOptions opts = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
  opts.record_per_node_stats = true;
  KlpSelector klp(opts);
  klp.Select(full);
  EXPECT_EQ(klp.stats().per_node.size(), 1u);
  EXPECT_EQ(klp.stats().per_node[0].candidates, 10u);  // b..k informative
  EXPECT_GT(klp.stats().recursive_calls, 0u);
  klp.ResetStats();
  EXPECT_EQ(klp.stats().per_node.size(), 0u);
  EXPECT_EQ(klp.stats().recursive_calls, 0u);
}

TEST(Klp, PruningActuallyPrunes) {
  // On a collection with many entities, most candidates should never be
  // fully evaluated (this is the paper's headline §5.3.3 claim).
  SetCollection c = RandomCollection(99, 40, 120, 0.3);
  SubCollection full = SubCollection::Full(&c);
  KlpOptions opts = KlpOptions::MakeKlp(2, CostMetric::kAvgDepth);
  opts.record_per_node_stats = true;
  KlpSelector klp(opts);
  klp.Select(full);
  const NodeStats& node = klp.stats().per_node.at(0);
  EXPECT_GT(node.candidates, 50u);
  EXPECT_GT(node.PrunedFraction(), 0.5);
}

TEST(GainK, EvaluatesEveryCandidate) {
  SetCollection c = RandomCollection(99, 20, 40, 0.3);
  SubCollection full = SubCollection::Full(&c);
  KlpOptions opts = KlpOptions::MakeGainK(2, CostMetric::kAvgDepth);
  opts.record_per_node_stats = true;
  KlpSelector gaink(opts);
  gaink.Select(full);
  const NodeStats& node = gaink.stats().per_node.at(0);
  EXPECT_EQ(node.fully_evaluated, node.candidates);
  EXPECT_EQ(node.pruned_by_break, 0u);
  EXPECT_EQ(node.pruned_by_child, 0u);
}

// ---------------------------------------------------------------------------
// Lemma 4.4 safety sweep: pruned k-LP == unpruned exhaustive lookahead, on
// random collections, for both metrics and several k. This is the core
// correctness property of the whole paper.
// ---------------------------------------------------------------------------

class PruningSoundnessSweep
    : public ::testing::TestWithParam<std::tuple<int, int, double, int>> {};

TEST_P(PruningSoundnessSweep, KlpBoundEqualsExhaustiveBound) {
  auto [n, m, density, k] = GetParam();
  SetCollection c = RandomCollection(/*seed=*/n * 7919 + m * 13 + k, n, m,
                                     density);
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    KlpSelector klp(KlpOptions::MakeKlp(k, metric));
    KlpSelection pruned = klp.SelectWithBound(full, kInfiniteCost);
    Cost reference = LbKAllEntities(full, k, metric, counter);
    ASSERT_NE(pruned.entity, kNoEntity);
    EXPECT_EQ(pruned.bound, reference)
        << "metric=" << static_cast<int>(metric) << " k=" << k << " n=" << n
        << " m=" << m;
    // The winning entity's own reference bound must equal the reported one.
    EXPECT_EQ(LbKForEntity(full, pruned.entity, k, metric, counter),
              pruned.bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCollections, PruningSoundnessSweep,
    ::testing::Combine(::testing::Values(5, 9, 14, 22),
                       ::testing::Values(10, 24, 48),
                       ::testing::Values(0.3, 0.5),
                       ::testing::Values(1, 2, 3)));

// Each pruning ingredient can be disabled independently without changing
// the result (ablation correctness).
class AblationSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(AblationSoundnessSweep, DisabledIngredientsPreserveTheBound) {
  int variant = GetParam();
  SetCollection c = RandomCollection(1234, 16, 30, 0.4);
  SubCollection full = SubCollection::Full(&c);
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    KlpOptions opts = KlpOptions::MakeKlp(3, metric);
    switch (variant) {
      case 0: opts.enable_early_break = false; break;
      case 1: opts.enable_upper_limits = false; break;
      case 2: opts.enable_memoization = false; break;
      case 3:
        opts.sort_candidates = false;
        opts.enable_early_break = false;
        break;
      default: break;
    }
    KlpSelector ablated(opts);
    KlpSelector reference(KlpOptions::MakeKlp(3, metric));
    EXPECT_EQ(ablated.SelectWithBound(full, kInfiniteCost).bound,
              reference.SelectWithBound(full, kInfiniteCost).bound)
        << "variant=" << variant;
  }
}

INSTANTIATE_TEST_SUITE_P(Variants, AblationSoundnessSweep,
                         ::testing::Values(0, 1, 2, 3, 4));

// §4.4.1: with k at least the optimal height, k-LP is exact.
class OptimalitySweep : public ::testing::TestWithParam<int> {};

TEST_P(OptimalitySweep, LargeKMatchesExhaustiveOptimal) {
  int seed = GetParam();
  SetCollection c = RandomCollection(seed, 10, 16, 0.45);
  SubCollection full = SubCollection::Full(&c);
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    Cost optimal = OptimalTreeCost(full, metric);
    KlpSelector opt(KlpOptions::MakeOptimal(metric));
    EXPECT_EQ(opt.SelectWithBound(full, kInfiniteCost).bound, optimal);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimalitySweep,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

// Beam variants return valid informative entities and never beat plain k-LP.
class BeamSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BeamSweep, BeamsAreValidAndNoBetterThanFullSearch) {
  auto [q, seed] = GetParam();
  SetCollection c = RandomCollection(seed, 18, 36, 0.4);
  SubCollection full = SubCollection::Full(&c);
  for (CostMetric metric : {CostMetric::kAvgDepth, CostMetric::kHeight}) {
    KlpSelector klp(KlpOptions::MakeKlp(3, metric));
    KlpSelector klple(KlpOptions::MakeKlple(3, q, metric));
    KlpSelector klplve(KlpOptions::MakeKlplve(3, q, metric));
    Cost full_bound = klp.SelectWithBound(full, kInfiniteCost).bound;
    for (KlpSelector* beam : {&klple, &klplve}) {
      KlpSelection sel = beam->SelectWithBound(full, kInfiniteCost);
      ASSERT_NE(sel.entity, kNoEntity);
      auto [in, out] = full.Partition(sel.entity);
      ASSERT_FALSE(in.empty());
      ASSERT_FALSE(out.empty());
      // A beam search explores a subset of candidates, so its reported
      // bound cannot be lower than the full search's.
      EXPECT_GE(sel.bound, full_bound);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, BeamSweep,
                         ::testing::Combine(::testing::Values(1, 3, 10),
                                            ::testing::Values(31, 32, 33)));

}  // namespace
}  // namespace setdisc
