#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>

namespace perfbench {

size_t QuantileRank(size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q * static_cast<double>(n));
  size_t r = rank < 1.0 ? 1 : static_cast<size_t>(rank);
  if (r > n) r = n;
  return r - 1;
}

bool SupportsQuantile(size_t n, double q) {
  if (n == 0) return false;
  return n - 1 - QuantileRank(n, q) >= 10;
}

Percentile Quantile(std::vector<double> xs, double q) {
  Percentile p;
  p.samples = xs.size();
  if (xs.empty()) return p;
  p.supported = q <= 0.5 || SupportsQuantile(xs.size(), q);
  if (!p.supported) return p;
  const size_t rank = QuantileRank(xs.size(), q);
  std::nth_element(xs.begin(), xs.begin() + static_cast<long>(rank), xs.end());
  p.value = xs[rank];
  return p;
}

double Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5).value;
}

WindowedSamples::WindowedSamples(uint64_t t0, uint64_t t1, int windows,
                                 size_t reserve)
    : t0_(t0),
      t1_(t1),
      samples_(static_cast<size_t>(windows < 1 ? 1 : windows)),
      sums_(samples_.size(), 0.0) {
  for (std::vector<float>& v : samples_) v.reserve(reserve);
}

void WindowedSamples::Add(uint64_t t_ns, double value) {
  if (t_ns < t0_ || t_ns >= t1_) return;
  const size_t w =
      static_cast<size_t>((t_ns - t0_) * samples_.size() / (t1_ - t0_));
  samples_[w].push_back(static_cast<float>(value));
  sums_[w] += value;
}

void WindowedSamples::Merge(const WindowedSamples& other) {
  for (size_t w = 0; w < samples_.size() && w < other.samples_.size(); ++w) {
    samples_[w].insert(samples_[w].end(), other.samples_[w].begin(),
                       other.samples_[w].end());
    sums_[w] += other.sums_[w];
  }
}

Percentile WindowedSamples::Quantile(double q) const {
  std::vector<double> per_window, all;
  bool every_window = true;
  for (const std::vector<float>& v : samples_) {
    std::vector<double> xs(v.begin(), v.end());
    all.insert(all.end(), xs.begin(), xs.end());
    const Percentile p = perfbench::Quantile(std::move(xs), q);
    every_window = every_window && p.supported;
    per_window.push_back(p.value);
  }
  if (!every_window) return perfbench::Quantile(std::move(all), q);
  Percentile out;
  out.samples = all.size();
  out.supported = true;
  out.value = Median(std::move(per_window));
  return out;
}

double WindowedSamples::RatePerSecond() const {
  if (t1_ <= t0_) return 0.0;
  const double window_s = (t1_ - t0_) / 1e9 / static_cast<double>(sums_.size());
  std::vector<double> rates;
  for (double sum : sums_) rates.push_back(sum / window_s);
  return Median(std::move(rates));
}

size_t WindowedSamples::size() const {
  size_t n = 0;
  for (const auto& v : samples_) n += v.size();
  return n;
}

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

std::vector<int> NestByContainment(const std::vector<Span>& spans) {
  const int n = static_cast<int>(spans.size());
  std::vector<int> parent(spans.size(), -1);
  // `a` encloses `b` when b's interval lies inside a's; between identical
  // intervals the earlier index is the outer one.
  auto encloses = [&](int a, int b) {
    const Span& sa = spans[a];
    const Span& sb = spans[b];
    if (sa.start_ns > sb.start_ns || sa.end_ns() < sb.end_ns()) return false;
    if (sa.dur_ns != sb.dur_ns) return true;
    return a < b;
  };
  for (int i = 0; i < n; ++i) {
    int best = -1;
    for (int j = 0; j < n; ++j) {
      if (j == i || !encloses(j, i)) continue;
      if (best < 0 || encloses(best, j)) best = j;  // j is inside best
    }
    parent[i] = best;
  }
  return parent;
}

std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans,
                                const std::vector<int>& parent) {
  using Interval = std::pair<uint64_t, uint64_t>;
  std::vector<std::vector<Interval>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int p = parent[i];
    if (p < 0) continue;
    const Span& ps = spans[p];
    const uint64_t lo = std::max(spans[i].start_ns, ps.start_ns);
    const uint64_t hi = std::min(spans[i].end_ns(), ps.end_ns());
    if (lo < hi) children[p].emplace_back(lo, hi);
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].dur_ns - std::min(covered, spans[i].dur_ns);
  }
  return self;
}

SumCheck CheckLedgerSum(const std::vector<double>& layer_self, double reference,
                        double tolerance) {
  SumCheck c;
  c.layer_sum = std::accumulate(layer_self.begin(), layer_self.end(), 0.0);
  c.reference = reference;
  c.ratio = reference > 0.0 ? c.layer_sum / reference : 0.0;
  c.ok = reference > 0.0 && std::fabs(c.ratio - 1.0) <= tolerance;
  return c;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << '"' << metrics[i].name << "\": {\"value\": "
       << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

uint64_t Fnv1a(const std::vector<uint64_t>& words) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace perfbench
