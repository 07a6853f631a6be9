#include "core/weighted_klp.h"

#include <algorithm>
#include <cmath>

#include "core/weighted.h"
#include "util/table_printer.h"

namespace setdisc {

ShannonCost::ShannonCost(const std::vector<double>* weights) {
  SETDISC_CHECK(weights != nullptr);
  double max_w = 0.0;
  for (double w : *weights) max_w = std::max(max_w, w);
  const double scale =
      max_w > 0.0 ? static_cast<double>(kWeightResolution) / max_w : 1.0;
  quantized_.reserve(weights->size());
  weight_log_.reserve(weights->size());
  for (double w : *weights) {
    const Cost q = std::max<Cost>(1, std::llround(w * scale));
    quantized_.push_back(q);
    weight_log_.push_back(static_cast<double>(q) *
                          std::log2(static_cast<double>(q)));
  }
}

void ShannonCost::Release() {
  mass_acc_ = {};
  qlog_acc_ = {};
}

Cost ShannonCost::Lb0FromSums(Cost weight, double qlog) {
  const double total = static_cast<double>(weight);
  return static_cast<Cost>(std::floor(std::log2(total) * total - qlog));
}

ShannonCost::Node ShannonCost::Prepare(const SubCollection& sub) const {
  Node node{sub.size(), 0, 0.0};
  for (SetId s : sub.ids()) {
    node.weight += QuantizedWeight(s);
    if (s < weight_log_.size()) node.qlog += weight_log_[s];
  }
  return node;
}

std::vector<ShannonCost::Candidate>& ShannonCost::Weigh(
    const SubCollection& sub, const Node& node,
    const std::vector<EntityCount>& counts, std::vector<Candidate>& out) {
  // Zeroing the candidates' slots first lets the pass add without checks:
  // other entities collect garbage that nothing reads (the mass is
  // unsigned, so it wraps harmlessly).
  const SetCollection& collection = sub.collection();
  if (mass_acc_.size() < collection.universe_size()) {
    mass_acc_.resize(collection.universe_size());
    qlog_acc_.resize(collection.universe_size());
  }
  for (const EntityCount& ec : counts) {
    mass_acc_[ec.entity] = 0;
    qlog_acc_[ec.entity] = 0.0;
  }
  for (SetId s : sub.ids()) {
    const uint64_t w = static_cast<uint64_t>(QuantizedWeight(s));
    const double wl = s < weight_log_.size() ? weight_log_[s] : 0.0;
    for (EntityId e : collection.set(s)) {
      mass_acc_[e] += w;
      qlog_acc_[e] += wl;
    }
  }
  out.clear();
  for (const EntityCount& ec : counts) {
    const Cost w_in = static_cast<Cost>(mass_acc_[ec.entity]);
    const double q_in = qlog_acc_[ec.entity];
    const uint64_t n_out = node.n - ec.count;
    out.push_back(
        {ec.entity, ec.count, w_in,
         ec.count <= 1 ? 0 : Lb0FromSums(w_in, q_in),
         n_out <= 1 ? 0 : Lb0FromSums(node.weight - w_in, node.qlog - q_in)});
  }
  return out;
}

namespace {

KlpOptions SearchOptions(const WeightedKlpOptions& w) {
  return {.k = w.k,
          .beam_width = w.beam_width,
          .enable_early_break = w.enable_early_break,
          .enable_upper_limits = w.enable_upper_limits,
          .enable_memoization = w.enable_memoization,
          .enable_delta_counting = w.enable_delta_counting};
}

}  // namespace

WeightedKlpSelector::WeightedKlpSelector(const std::vector<double>* weights,
                                         WeightedKlpOptions options)
    : LookaheadSelector(SearchOptions(options), ShannonCost(weights),
                        Format("Weighted-%d-LP", options.k)),
      weights_(weights) {}

uint64_t WeightedKlpSelector::DecisionFingerprint() const {
  return FingerprintWeights(LookaheadSelector::DecisionFingerprint(),
                            *weights_);
}

Cost WeightedLbKReference(const SubCollection& sub,
                          const std::vector<double>* weights,
                          WeightedKlpOptions options) {
  options.enable_early_break = false;
  options.enable_upper_limits = false;
  options.enable_memoization = false;
  options.beam_width = -1;
  WeightedKlpSelector reference(weights, options);
  return reference.SelectWithBound(sub, kInfiniteCost).bound;
}

}  // namespace setdisc
