#pragma once

/// \file klp.h
/// k-LP (Algorithm 1, lookahead.h) under the paper's cost model, and its
/// beam-limited variants k-LPLE and k-LPLVE (§4.4), plus the unpruned
/// exhaustive lookahead ("gain-k", Esmeir & Markovitch style) used as the
/// Fig. 4 comparator. One implementation, options-controlled, so ablations
/// isolate exactly the paper's pruning contributions.
///
/// DepthCost: a split is known by its set counts alone. Costs are the exact
/// integers of cost.h (total leaf depth for AD, height for H); the line-11
/// order is the count imbalance ||C1| - |C2||, in which LB_1 is
/// non-decreasing for both metrics — so the early break is a sorted break.

#include <vector>

#include "core/lookahead.h"

namespace setdisc {

/// The §3 cost model over set counts.
class DepthCost {
 public:
  using Candidate = EntityCount;
  struct Node {
    uint64_t n;
  };
  static constexpr bool kLb1MonotoneInOrder = true;

  explicit DepthCost(CostMetric metric) : metric_(metric) {}

  Node Prepare(const SubCollection& sub) const { return {sub.size()}; }
  /// The counts are the candidates.
  std::vector<EntityCount>& Weigh(const SubCollection&, const Node&,
                                  std::vector<EntityCount>& counts,
                                  std::vector<EntityCount>&) {
    return counts;
  }
  Cost Lb0(const Node& node) const { return setdisc::Lb0(metric_, node.n); }
  Cost Lb1(const Node& node, const EntityCount& c) const {
    return setdisc::Lb1(metric_, c.count, node.n - c.count);
  }
  Cost Combine(const Node& node, Cost l_in, Cost l_out) const {
    return setdisc::Combine(metric_, l_in, l_out, node.n);
  }
  Cost UpperLimitFirst(const Node& node, const EntityCount& c,
                       Cost best) const {
    return setdisc::UpperLimitFirst(metric_, best, node.n,
                                    setdisc::Lb0(metric_, node.n - c.count));
  }
  Cost UpperLimitSecond(const Node& node, Cost best, Cost l_in) const {
    return setdisc::UpperLimitSecond(metric_, best, node.n, l_in);
  }
  uint64_t OrderKey(const Node& node, const EntityCount& c) const {
    const uint64_t other = node.n - c.count;
    return c.count > other ? c.count - other : other - c.count;
  }
  void Release() {}

 private:
  CostMetric metric_;
};

/// The k-LP selector family.
class KlpSelector : public LookaheadSelector<DepthCost> {
 public:
  explicit KlpSelector(KlpOptions options);
};

}  // namespace setdisc
