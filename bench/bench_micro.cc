// Micro-benchmarks (google-benchmark) for the hot paths underneath every
// experiment: informative-entity counting, partitioning, bound evaluation,
// inverted-index construction, root selection, and full tree construction.

#include <benchmark/benchmark.h>

#include <algorithm>

#include "collection/count_kernels.h"
#include "collection/entity_counter.h"
#include "collection/inverted_index.h"
#include "core/decision_tree.h"
#include "core/klp.h"
#include "core/selectors.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace setdisc {
namespace {

SetCollection MakeCollection(uint32_t n) {
  SyntheticConfig cfg;
  cfg.num_sets = n;
  cfg.min_set_size = 50;
  cfg.max_set_size = 60;
  cfg.overlap = 0.9;
  cfg.seed = 900;
  return GenerateSynthetic(cfg);
}

void BM_CountInformative(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  std::vector<EntityCount> counts;
  for (auto _ : state) {
    counter.CountInformative(full, &counts);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.total_elements()));
}
BENCHMARK(BM_CountInformative)->Arg(500)->Arg(2000)->Arg(8000);

// Calibrates EntityCounter::kDenseSweepDivisor: emitting in ascending
// entity order costs either a sort of the touched list or an in-order sweep
// of the dense array, and the crossover sits where touched ≈ universe /
// divisor. Arg(d) forces views whose touched fraction is universe/d, so
// sweeping the reported times across d ∈ {4..64} brackets the best divisor
// (pick the d where the per-item cost of the two regimes meet; see
// entity_counter.h). The counting pass itself is held constant by keeping
// element counts comparable across args.
void BM_EmitCrossover(benchmark::State& state) {
  const uint32_t divisor = static_cast<uint32_t>(state.range(0));
  const EntityId universe = 1 << 16;
  const uint32_t touched = universe / divisor;
  // The view touches exactly `touched` entities: window ids stride
  // [0, window_range), each set carries one distinct salt id from
  // [window_range, touched - 1) (distinct salts keep sets unique through
  // the builder's dedup), and the sentinel set contributes entity
  // universe - 1 — pinning universe_size so the divisor alone decides the
  // emit regime — as the final touched id.
  SetCollectionBuilder b;
  const uint32_t set_size = 64;
  const uint32_t sets = 512;
  const uint32_t window_range = touched - sets - 1;
  for (uint32_t s = 0; s < sets; ++s) {
    std::vector<EntityId> elems(set_size);
    for (uint32_t i = 0; i < set_size; ++i) {
      elems[i] = (s * set_size + i) % window_range;
    }
    elems.push_back(window_range + s);
    b.AddSet(elems, "");
  }
  b.AddSet({universe - 1}, "");
  SetCollection c = b.Build();
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  std::vector<EntityCount> counts;
  for (auto _ : state) {
    counter.CountInformative(full, &counts);
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetLabel(EntityCounter::DenseSweepIsCheaper(touched, universe)
                     ? "sweep"
                     : "sort");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.total_elements()));
}
BENCHMARK(BM_EmitCrossover)->Arg(4)->Arg(8)->Arg(12)->Arg(16)->Arg(24)->Arg(32)->Arg(64);

// --------------------------------------------------------------- kernels
// The three flat loops of collection/count_kernels.h, measured in isolation
// so regressions in the vectorizable hot paths show up without workload
// noise (and so a SETDISC_KERNEL_MULTIARCH build can be compared against
// the portable one on the same machine).

void BM_KernelAccumulateCounts(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  std::vector<uint32_t> counts(c.universe_size(), 0);
  std::vector<EntityId> touched(c.universe_size() + 1, 0);
  for (auto _ : state) {
    size_t t = kernels::AccumulateCounts(full, counts.data(), touched.data());
    benchmark::DoNotOptimize(t);
    for (size_t i = 0; i < t; ++i) counts[touched[i]] = 0;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.total_elements()));
}
BENCHMARK(BM_KernelAccumulateCounts)->Arg(2000)->Arg(8000);

struct KernelDeriveCase {
  std::vector<EntityCount> parent;
  std::vector<uint32_t> dense;
  std::vector<EntityCount> out;
};

KernelDeriveCase MakeDeriveCase(size_t m) {
  Rng rng(7);
  KernelDeriveCase kc;
  kc.dense.assign(2 * m, 0);
  for (EntityId e = 0; e < 2 * m; e += 2) {
    uint32_t pc = 2 + static_cast<uint32_t>(rng.Uniform(60));
    kc.parent.push_back(EntityCount{e, pc});
    kc.dense[e] = static_cast<uint32_t>(rng.Uniform(pc + 1));
  }
  kc.out.resize(kc.parent.size());
  return kc;
}

void BM_KernelGatherChild(benchmark::State& state) {
  KernelDeriveCase kc = MakeDeriveCase(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    size_t w = kernels::GatherChild(kc.parent.data(), kc.parent.size(),
                                    kc.dense.data(), kc.dense.size(), 64, true,
                                    kc.out.data());
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kc.parent.size()));
}
BENCHMARK(BM_KernelGatherChild)->Arg(4096)->Arg(65536);

void BM_KernelSubtractChild(benchmark::State& state) {
  KernelDeriveCase kc = MakeDeriveCase(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    size_t w = kernels::SubtractChild(kc.parent.data(), kc.parent.size(),
                                      kc.dense.data(), kc.dense.size(), 64,
                                      true, kc.out.data());
    benchmark::DoNotOptimize(w);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kc.parent.size()));
}
BENCHMARK(BM_KernelSubtractChild)->Arg(4096)->Arg(65536);

// k-LP's line-11 candidate order: the counting sort
// (kernels::OrderByImbalance) vs the comparison sort it replaces, on the
// root count list of the collection.
void BM_OrderedEmit(benchmark::State& state) {
  const bool counting = state.range(1) != 0;
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  const uint64_t n = full.size();
  EntityCounter counter;
  std::vector<EntityCount> counts, ordered;
  counter.CountInformative(full, &counts, nullptr);
  std::vector<uint32_t> bucket(n + 1);
  for (auto _ : state) {
    if (counting) {
      ordered.resize(counts.size());
      kernels::OrderByImbalance(counts.data(), counts.size(),
                                static_cast<uint32_t>(n), bucket.data(),
                                ordered.data());
    } else {
      ordered = counts;
      std::sort(ordered.begin(), ordered.end(),
                [n](const EntityCount& a, const EntityCount& b) {
                  uint64_t ca = a.count, cb = b.count;
                  uint64_t ia = ca > n - ca ? 2 * ca - n : n - 2 * ca;
                  uint64_t ib = cb > n - cb ? 2 * cb - n : n - 2 * cb;
                  if (ia != ib) return ia < ib;
                  return a.entity < b.entity;
                });
    }
    benchmark::DoNotOptimize(ordered.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(counting ? "counting" : "std::sort");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(counts.size()));
}
BENCHMARK(BM_OrderedEmit)
    ->Args({2000, 0})
    ->Args({2000, 1})
    ->Args({8000, 0})
    ->Args({8000, 1});

void BM_Partition(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  EntityCounter counter;
  std::vector<EntityCount> counts;
  counter.CountInformative(full, &counts);
  EntityId pivot = counts[counts.size() / 2].entity;
  for (auto _ : state) {
    auto parts = full.Partition(pivot);
    benchmark::DoNotOptimize(parts.first.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(full.size()));
}
BENCHMARK(BM_Partition)->Arg(500)->Arg(2000)->Arg(8000);

void BM_Lb0AvgDepth(benchmark::State& state) {
  uint64_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Lb0(CostMetric::kAvgDepth, n));
    n = n % 100000 + 1;
  }
}
BENCHMARK(BM_Lb0AvgDepth);

void BM_InvertedIndexBuild(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    InvertedIndex idx(c);
    benchmark::DoNotOptimize(idx.num_entities());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.total_elements()));
}
BENCHMARK(BM_InvertedIndexBuild)->Arg(2000)->Arg(8000);

void BM_RootSelection2LP(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  for (auto _ : state) {
    KlpSelector sel(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
    benchmark::DoNotOptimize(sel.Select(full));
  }
}
BENCHMARK(BM_RootSelection2LP)->Arg(500)->Arg(2000);

void BM_RootSelectionInfoGain(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  InfoGainSelector sel;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sel.Select(full));
  }
}
BENCHMARK(BM_RootSelectionInfoGain)->Arg(500)->Arg(2000);

void BM_TreeBuildInfoGain(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  for (auto _ : state) {
    InfoGainSelector sel;
    DecisionTree tree = DecisionTree::Build(full, sel);
    benchmark::DoNotOptimize(tree.height());
  }
}
BENCHMARK(BM_TreeBuildInfoGain)->Arg(500)->Arg(2000);

void BM_TreeBuild2LP(benchmark::State& state) {
  SetCollection c = MakeCollection(static_cast<uint32_t>(state.range(0)));
  SubCollection full = SubCollection::Full(&c);
  for (auto _ : state) {
    KlpSelector sel(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
    DecisionTree tree = DecisionTree::Build(full, sel);
    benchmark::DoNotOptimize(tree.height());
  }
}
BENCHMARK(BM_TreeBuild2LP)->Arg(500)->Arg(2000);

}  // namespace
}  // namespace setdisc
