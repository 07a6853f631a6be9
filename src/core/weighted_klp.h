#pragma once

/// \file weighted_klp.h
/// Weighted k-LP — the §7 future-work extension "scenarios where the sets to
/// be discovered are not equally likely" — is Algorithm 1 (lookahead.h)
/// under the Shannon cost model below.
///
/// ShannonCost: each set s has prior weight w_s; the cost of a tree is the
/// expected number of questions under the prior. Costs are
/// weighted-total-depth integers over quantized weights qw_s, so pruning
/// comparisons stay exact:
///
///   WTD(T) = Σ_s qw_s · depth(s),   expected questions = WTD / W.
///
/// LB_0 is Shannon's noiseless-coding bound (leaf depths form a prefix
/// code, so E[depth] >= H(p)):
///
///   LB0_w(C) = floor( Σ_s qw_s · log2(W(C)/qw_s) ),
///
/// and the §4.1 recurrences carry over in weighted units: Combine_w(c1, c2)
/// = c1 + c2 + W, with the upper limits analogous to Eqs. 11-14. A split is
/// known by its contained count, mass and Σ qw·log2(qw), from one pass over
/// the node's sets. The line-11 order is the weight imbalance |2·W1 - W|.
/// By the entropy chain rule LB_1 = W·H(C) − W·h2(W1/W) + W falls as the
/// split gets more even, but the per-half floors can order near-ties
/// otherwise, so the early break skips candidates one by one.

#include <cstdlib>
#include <vector>

#include "core/lookahead.h"

namespace setdisc {

/// Options for the weighted search (a subset of KlpOptions).
struct WeightedKlpOptions {
  int k = 2;
  int beam_width = -1;          ///< q; <= 0 unlimited
  bool enable_early_break = true;
  bool enable_upper_limits = true;
  bool enable_memoization = true;

  /// Differential counting at the root across steps and for every lookahead
  /// child, as KlpOptions::enable_delta_counting. Decision-neutral — counts
  /// are exact on every path.
  bool enable_delta_counting = true;
};

/// A weighted selection: entity plus its weighted k-step bound (divide by
/// the sub-collection's total weight for expected questions).
using WeightedSelection = KlpSelection;

/// The Shannon cost model over a fixed set prior.
class ShannonCost {
 public:
  /// The largest weight quantizes to this many integer units.
  static constexpr uint64_t kWeightResolution = 1 << 20;

  struct Candidate {
    EntityId entity;
    uint32_t count;  ///< contained sets
    Cost weight_in;  ///< contained quantized mass
    Cost lb0_in;     ///< Shannon floors of the two halves
    Cost lb0_out;
  };
  struct Node {
    uint64_t n;
    Cost weight;
    double qlog;
  };
  static constexpr bool kLb1MonotoneInOrder = false;

  explicit ShannonCost(const std::vector<double>* weights);

  /// Quantized weight of one set (>= 1, so every set stays discoverable;
  /// out-of-range ids quantize as weight zero, i.e. one unit).
  Cost QuantizedWeight(SetId s) const {
    return s < quantized_.size() ? quantized_[s] : 1;
  }

  Node Prepare(const SubCollection& sub) const;
  /// One dense pass over the node's sets sums each candidate's contained
  /// mass and Σ qw·log2(qw) (doubles, so the pass is fresh per node rather
  /// than derived from the parent's); the other half's sums follow by
  /// subtraction from the node's, and both halves' floors from the sums.
  std::vector<Candidate>& Weigh(const SubCollection& sub, const Node& node,
                                const std::vector<EntityCount>& counts,
                                std::vector<Candidate>& out);
  Cost Lb0(const Node& node) const {
    return node.n <= 1 ? 0 : Lb0FromSums(node.weight, node.qlog);
  }
  Cost Lb1(const Node& node, const Candidate& c) const {
    return c.lb0_in + c.lb0_out + node.weight;
  }
  Cost Combine(const Node& node, Cost l_in, Cost l_out) const {
    return l_in + l_out + node.weight;
  }
  Cost UpperLimitFirst(const Node& node, const Candidate& c,
                       Cost best) const {
    return best - node.weight - c.lb0_out;
  }
  Cost UpperLimitSecond(const Node& node, Cost best, Cost l_in) const {
    return best - node.weight - l_in;
  }
  Cost OrderKey(const Node& node, const Candidate& c) const {
    return std::llabs(2 * c.weight_in - node.weight);
  }
  void Release();

 private:
  /// Σ qw·log2(W/qw) = log2(W)·W − Σ qw·log2(qw), floored so the bound
  /// stays a lower bound after quantizing.
  static Cost Lb0FromSums(Cost weight, double qlog);

  /// Per-set qw and qw·log2(qw), fixed at construction.
  std::vector<Cost> quantized_;
  std::vector<double> weight_log_;
  /// Weigh()'s dense per-entity accumulators.
  std::vector<uint64_t> mass_acc_;
  std::vector<double> qlog_acc_;
};

/// Entity selection minimizing the k-step lower bound on expected questions
/// under a set prior.
class WeightedKlpSelector : public LookaheadSelector<ShannonCost> {
 public:
  /// `weights` is indexed by SetId over the parent collection and must
  /// outlive the selector; entries must be positive where used.
  WeightedKlpSelector(const std::vector<double>* weights,
                      WeightedKlpOptions options);

  /// The name encodes k but not the prior; the decisions depend on both.
  uint64_t DecisionFingerprint() const override;

  /// Quantized weight of one set (>= 1).
  Cost QuantizedWeight(SetId s) const { return model_.QuantizedWeight(s); }
  /// Total quantized weight of a sub-collection.
  Cost TotalWeight(const SubCollection& sub) const {
    return model_.Prepare(sub).weight;
  }
  /// Shannon lower bound LB0_w in weighted-total-depth units.
  Cost WeightedLb0(const SubCollection& sub) const {
    return model_.Lb0(model_.Prepare(sub));
  }

 private:
  const std::vector<double>* weights_;
};

/// Unpruned exhaustive weighted k-step bound — the test reference for the
/// pruned search (analogous to bounds.h's LbKAllEntities). Use on small
/// inputs only.
Cost WeightedLbKReference(const SubCollection& sub,
                          const std::vector<double>* weights,
                          WeightedKlpOptions options);

}  // namespace setdisc
