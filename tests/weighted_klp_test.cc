// Tests for the weighted k-LP extension (§7 "sets not equally likely"):
// quantization, Shannon bounds, pruning soundness against the unpruned
// reference, and end-to-end expected-question improvements under skewed
// priors.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/decision_tree.h"
#include "core/klp.h"
#include "core/selectors.h"
#include "core/weighted.h"
#include "core/weighted_klp.h"
#include "test_util.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

std::vector<double> UniformWeights(size_t n) {
  return std::vector<double>(n, 1.0);
}

TEST(WeightedKlp, QuantizationKeepsEverySetAlive) {
  std::vector<double> weights = {1e-9, 0.5, 1.0, 0.0};
  WeightedKlpSelector sel(&weights, {});
  for (SetId s = 0; s < 4; ++s) EXPECT_GE(sel.QuantizedWeight(s), 1);
  // The largest weight maps to the configured resolution.
  EXPECT_EQ(sel.QuantizedWeight(2), Cost{1} << 20);
  EXPECT_EQ(sel.QuantizedWeight(1), Cost{1} << 19);
}

TEST(WeightedKlp, ShannonLb0Matches) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  // Uniform prior over 7 sets: H = log2(7) = 2.807...; LB0 in weighted TD
  // units = floor(7 * resolution * 2.807).
  double expected = 7.0 * static_cast<double>(Cost{1} << 20) * std::log2(7.0);
  EXPECT_NEAR(static_cast<double>(sel.WeightedLb0(full)), expected, 2.0);
  // Singletons cost nothing.
  SubCollection one(&c, {0});
  EXPECT_EQ(sel.WeightedLb0(one), 0);
}

TEST(WeightedKlp, SelectsInformativeEntity) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  EntityId e = sel.Select(full);
  ASSERT_NE(e, kNoEntity);
  auto [in, out] = full.Partition(e);
  EXPECT_FALSE(in.empty());
  EXPECT_FALSE(out.empty());
  // Uniform weights: the most weight-even splits are c and d (3/4). The
  // real-valued Shannon bounds of the k=2 search separate them where the
  // integer algebra ties: d — the root of the paper's optimal Fig. 2a
  // tree — scores strictly better.
  EXPECT_EQ(e, kD);
}

TEST(WeightedKlp, SingletonNeedsNoQuestion) {
  SetCollection c = MakePaperCollection();
  SubCollection one(&c, {1});
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  EXPECT_EQ(sel.Select(one), kNoEntity);
}

TEST(WeightedKlp, RespectsExclusions) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpSelector sel(&weights, {});
  EntityId first = sel.Select(full);
  EntityExclusion excluded(c.universe_size(), false);
  excluded[first] = true;
  EntityId second = sel.Select(full, &excluded);
  EXPECT_NE(second, first);
  EXPECT_NE(second, kNoEntity);

  // A child with nothing left to ask counts at its Shannon floor instead of
  // pruning the candidate, with upper limits on or off.
  SetCollection three = MakeDeadEndCollection();
  SubCollection all = SubCollection::Full(&three);
  EntityExclusion no_b(three.universe_size(), false);
  no_b[kDeadEndB] = true;
  std::vector<double> three_weights = UniformWeights(3);
  for (bool upper_limits : {true, false}) {
    WeightedKlpOptions opts;
    opts.enable_upper_limits = upper_limits;
    WeightedKlpSelector dead_end(&three_weights, opts);
    EntityId e = dead_end.Select(all, &no_b);
    EXPECT_TRUE(e == kDeadEndA || e == kDeadEndX)
        << "upper limits " << upper_limits << ": " << e;
  }
}

// Pruning soundness: the pruned weighted search returns the same bound as
// the exhaustive reference, across random collections, priors, and k.
class WeightedPruningSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(WeightedPruningSweep, PrunedEqualsExhaustive) {
  auto [n, k, weight_seed] = GetParam();
  SetCollection c = RandomCollection(500 + n * 31 + weight_seed, n, 2 * n,
                                     0.4);
  SubCollection full = SubCollection::Full(&c);
  Rng rng(weight_seed);
  std::vector<double> weights(c.num_sets());
  for (double& w : weights) w = 0.05 + rng.UniformDouble();

  WeightedKlpOptions opts;
  opts.k = k;
  WeightedKlpSelector pruned(&weights, opts);
  WeightedSelection sel = pruned.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(sel.entity, kNoEntity);
  Cost reference = WeightedLbKReference(full, &weights, opts);
  EXPECT_EQ(sel.bound, reference) << "n=" << n << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    RandomCollections, WeightedPruningSweep,
    ::testing::Combine(::testing::Values(6, 10, 14),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(1, 2)));

TEST(WeightedKlp, UniformPriorAgreesWithUnweightedSelectionQuality) {
  // With a uniform prior the weighted tree should be as good (in AD) as the
  // unweighted 2-LP tree, up to quantization-tie noise.
  for (int seed : {61, 62, 63}) {
    SetCollection c = RandomCollection(seed, 16, 30, 0.4);
    SubCollection full = SubCollection::Full(&c);
    std::vector<double> weights = UniformWeights(c.num_sets());
    WeightedKlpOptions opts;
    opts.k = 2;
    WeightedKlpSelector wsel(&weights, opts);
    DecisionTree wtree = DecisionTree::Build(full, wsel);
    KlpSelector usel(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
    DecisionTree utree = DecisionTree::Build(full, usel);
    EXPECT_TRUE(wtree.Validate(full).ok());
    EXPECT_NEAR(wtree.avg_depth(), utree.avg_depth(), 0.35) << "seed=" << seed;
  }
}

TEST(WeightedKlp, SkewedPriorBeatsUniformTreeOnExpectedQuestions) {
  // The whole point of §7: when one set is overwhelmingly likely, a
  // weight-aware tree answers in fewer expected questions.
  for (int seed : {71, 72, 73, 74}) {
    SetCollection c = RandomCollection(seed, 20, 36, 0.4);
    SubCollection full = SubCollection::Full(&c);
    Rng rng(seed);
    std::vector<double> weights(c.num_sets(), 0.02);
    weights[rng.Uniform(c.num_sets())] = 5.0;
    weights[rng.Uniform(c.num_sets())] = 2.0;

    WeightedKlpOptions opts;
    opts.k = 2;
    WeightedKlpSelector wsel(&weights, opts);
    DecisionTree wtree = DecisionTree::Build(full, wsel);
    KlpSelector usel(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
    DecisionTree utree = DecisionTree::Build(full, usel);

    double w_expected = ExpectedQuestions(wtree, weights);
    double u_expected = ExpectedQuestions(utree, weights);
    EXPECT_LE(w_expected, u_expected + 1e-9) << "seed=" << seed;
    // And never below the Shannon entropy of the prior.
    std::vector<SetId> ids(full.ids().begin(), full.ids().end());
    EXPECT_GE(w_expected + 1e-9, WeightedEntropyLowerBound(weights, ids));
  }
}

TEST(WeightedKlp, BeamLimitsCandidates) {
  SetCollection c = RandomCollection(81, 20, 40, 0.4);
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(c.num_sets());
  WeightedKlpOptions narrow;
  narrow.k = 2;
  narrow.beam_width = 2;
  WeightedKlpSelector beam(&weights, narrow);
  WeightedKlpOptions wide;
  wide.k = 2;
  WeightedKlpSelector fullsearch(&weights, wide);
  WeightedSelection b = beam.SelectWithBound(full, kInfiniteCost);
  WeightedSelection f = fullsearch.SelectWithBound(full, kInfiniteCost);
  ASSERT_NE(b.entity, kNoEntity);
  EXPECT_GE(b.bound, f.bound);  // subset search can't do better
}

TEST(WeightedKlp, UpperLimitReturnsNoEntityWhenUnreachable) {
  SetCollection c = MakePaperCollection();
  SubCollection full = SubCollection::Full(&c);
  std::vector<double> weights = UniformWeights(7);
  WeightedKlpOptions opts;
  opts.k = 2;
  WeightedKlpSelector sel(&weights, opts);
  // Nothing beats the Shannon floor.
  WeightedSelection r = sel.SelectWithBound(full, sel.WeightedLb0(full));
  EXPECT_EQ(r.entity, kNoEntity);
}

TEST(WeightedKlp, Name) {
  std::vector<double> weights = UniformWeights(3);
  WeightedKlpOptions opts;
  opts.k = 3;
  WeightedKlpSelector sel(&weights, opts);
  EXPECT_EQ(sel.name(), "Weighted-3-LP");
}

}  // namespace
}  // namespace setdisc
