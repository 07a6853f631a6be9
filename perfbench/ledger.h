#pragma once

/// \file ledger.h
/// The arithmetic the benchmark's figures rest on, kept apart from the
/// workloads so the self-tests can check it on hand-made inputs:
///
///  * the percentile rule: a tail percentile is reported only when at least
///    ten samples lie beyond it, so p99 needs 1000 samples;
///  * span self time: a span's duration minus the part of its interval its
///    children cover;
///  * the ledger sum check: the self times of one request's span tree add up
///    to the root span (the client round trip) only when the spans nest
///    properly, so a misjoined or overlapping span shows up as a sum error.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

/// Nearest-rank index of quantile `q` (0 < q < 1) among `n` sorted samples.
size_t QuantileRank(size_t n, double q);

/// True when at least ten of `n` samples lie beyond the q-quantile.
bool SupportsQuantile(size_t n, double q);

/// A percentile with the sample count it came from. `supported` is false
/// (and `value` 0) when the percentile rule forbids reporting it.
struct Percentile {
  double value = 0.0;
  size_t samples = 0;
  bool supported = false;
};

/// Nearest-rank q-quantile of `xs` under the percentile rule. The median is
/// always supported for a non-empty sample.
Percentile Quantile(std::vector<double> xs, double q);

double Median(std::vector<double> xs);

/// Samples of one timing (or counts of one event) taken over a run
/// [t0, t1) that is cut into equal windows. A short burst of interference
/// from outside the program spoils one window rather than the run, so the
/// figures are medians over windows. Samples are kept as floats, split by
/// window as they arrive, to keep the benchmark's own memory small.
class WindowedSamples {
 public:
  WindowedSamples() = default;
  /// `reserve` samples per window are reserved up front. Untouched capacity
  /// costs no resident memory, and a vector that never grows never holds two
  /// copies, so the benchmark's own share of peak RSS stays proportional to
  /// the samples taken.
  WindowedSamples(uint64_t t0, uint64_t t1, int windows, size_t reserve = 0);

  /// Records `value` taken at `t_ns`; ignored outside [t0, t1).
  void Add(uint64_t t_ns, double value);

  /// Appends another recorder's samples (same run and windows).
  void Merge(const WindowedSamples& other);

  /// Median over windows of each window's q-quantile. When some window has
  /// too few samples for `q`, the quantile of the whole run is used instead
  /// (itself under the percentile rule). `samples` counts every sample.
  Percentile Quantile(double q) const;

  /// Median over windows of the window's sum of values per second: events
  /// per second when each event is recorded with value 1.
  double RatePerSecond() const;

  size_t size() const;

 private:
  uint64_t t0_ = 0, t1_ = 0;
  std::vector<std::vector<float>> samples_;
  std::vector<double> sums_;
};

double Mean(const std::vector<double>& xs);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One timed interval of a request. `kind` names the layer boundary it was
/// recorded at (see SpanKind); times are steady-clock nanoseconds.
struct Span {
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  int kind = 0;

  uint64_t end_ns() const { return start_ns + dur_ns; }
};

/// Nests the spans of one request by containment: parent[i] is the
/// innermost other span whose interval contains span i (ties go to the
/// longer span, then to the earlier index), or -1 for a root.
std::vector<int> NestByContainment(const std::vector<Span>& spans);

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, clipped to its own interval.
std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans,
                                const std::vector<int>& parent);

/// The ledger sum check: `layer_sum` is the sum of the layers' self times
/// and `reference` the client-measured total they should add up to.
struct SumCheck {
  double layer_sum = 0.0;
  double reference = 0.0;
  double ratio = 0.0;  ///< layer_sum / reference
  bool ok = false;     ///< |ratio - 1| <= tolerance
};
SumCheck CheckLedgerSum(const std::vector<double>& layer_self,
                        double reference, double tolerance);

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

/// One named metric value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders a double with every significant digit (round-trip precision), or
/// 0 for a non-finite value.
std::string JsonNumber(double v);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// FNV-1a over 64-bit words; the transcript digest's hash.
uint64_t Fnv1a(const std::vector<uint64_t>& words);

}  // namespace perfbench
