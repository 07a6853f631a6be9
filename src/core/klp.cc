#include "core/klp.h"

#include "obs/registry.h"
#include "util/table_printer.h"

namespace setdisc {

void PublishKlpNodeStats(const NodeStats& node) {
  static obs::Counter* const candidates =
      obs::MetricsRegistry::Default().GetCounter(
          "setdisc_klp_candidates_total");
  static obs::Counter* const fully_evaluated =
      obs::MetricsRegistry::Default().GetCounter(
          "setdisc_klp_fully_evaluated_total");
  static obs::Counter* const pruned_break =
      obs::MetricsRegistry::Default().GetCounter("setdisc_klp_pruned_total",
                                                 {{"reason", "break"}});
  static obs::Counter* const pruned_child =
      obs::MetricsRegistry::Default().GetCounter("setdisc_klp_pruned_total",
                                                 {{"reason", "child"}});
  static obs::Counter* const pruned_beam =
      obs::MetricsRegistry::Default().GetCounter("setdisc_klp_pruned_total",
                                                 {{"reason", "beam"}});
  candidates->Add(node.candidates);
  fully_evaluated->Add(node.fully_evaluated);
  pruned_break->Add(node.pruned_by_break);
  pruned_child->Add(node.pruned_by_child);
  pruned_beam->Add(node.excluded_by_beam);
}

KlpOptions KlpOptions::MakeKlp(int k, CostMetric metric) {
  KlpOptions o;
  o.k = k;
  o.metric = metric;
  return o;
}

KlpOptions KlpOptions::MakeKlple(int k, int q, CostMetric metric) {
  KlpOptions o = MakeKlp(k, metric);
  o.beam_width = q;
  return o;
}

KlpOptions KlpOptions::MakeKlplve(int k, int q, CostMetric metric) {
  KlpOptions o = MakeKlple(k, q, metric);
  o.variable_beam = true;
  return o;
}

KlpOptions KlpOptions::MakeGainK(int k, CostMetric metric) {
  KlpOptions o = MakeKlp(k, metric);
  o.enable_early_break = false;
  o.enable_upper_limits = false;
  o.enable_memoization = false;
  return o;
}

KlpOptions KlpOptions::MakeOptimal(CostMetric metric) {
  // k is clamped to the sub-collection size inside the search; any tree over
  // n sets has height <= n - 1, so this lookahead is exact (§4.4.1).
  return MakeKlp(INT32_MAX / 2, metric);
}

namespace {

std::string KlpName(const KlpOptions& o) {
  const char* metric = o.metric == CostMetric::kAvgDepth ? "AD" : "H";
  if (o.k >= INT32_MAX / 4) return Format("Optimal(%s)", metric);
  if (!o.enable_early_break && !o.enable_upper_limits &&
      !o.enable_memoization) {
    return Format("Gain-%d(%s)", o.k, metric);
  }
  if (o.variable_beam) {
    return Format("%d-LPLVE(q=%d,%s)", o.k, o.beam_width, metric);
  }
  if (o.beam_width > 0) {
    return Format("%d-LPLE(q=%d,%s)", o.k, o.beam_width, metric);
  }
  return Format("%d-LP(%s)", o.k, metric);
}

}  // namespace

KlpSelector::KlpSelector(KlpOptions options)
    : LookaheadSelector(options, DepthCost(options.metric), KlpName(options)) {}

}  // namespace setdisc
