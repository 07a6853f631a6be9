// Self-tests of the benchmark's own arithmetic (ledger.h): the percentile
// rule, span self times, and the ledger sum check. Exit code 0 iff every
// check passes; run with `python3 perfbench/run.py --self-test`.

#include <cstdio>
#include <string>
#include <vector>

#include "ledger.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

std::vector<double> Iota(size_t n) {
  std::vector<double> xs(n);
  // Reversed, so the quantile code has to sort.
  for (size_t i = 0; i < n; ++i) xs[i] = static_cast<double>(n - i);
  return xs;
}

void TestPercentileRule() {
  // p99 needs ten samples beyond it: 1000 samples is the smallest sample.
  Expect(!SupportsQuantile(999, 0.99), "p99 of 999 is unsupported");
  Expect(SupportsQuantile(1000, 0.99), "p99 of 1000 is supported");
  const Percentile p99 = Quantile(Iota(1000), 0.99);
  Expect(p99.supported && p99.value == 990.0 && p99.samples == 1000,
         "nearest-rank p99 of 1..1000 is 990 with 10 samples beyond");
  const Percentile few = Quantile(Iota(500), 0.99);
  Expect(!few.supported && few.value == 0.0 && few.samples == 500,
         "p99 of 500 samples is withheld and its count kept");
  Expect(Quantile(Iota(5), 0.5).supported && Median(Iota(5)) == 3.0,
         "median of 1..5 is 3");
  Expect(Median({2.0, 1.0}) == 1.0, "lower median of two samples");
  Expect(!Quantile({}, 0.5).supported, "empty sample has no median");

  // Five windows of 1000 samples each support a windowed p99; one window
  // of slow samples moves the median of the windows' p99s not at all.
  WindowedSamples w(0, 5000, 5);
  for (uint64_t t = 0; t < 5000; ++t) {
    const double v = static_cast<double>(t % 1000);
    w.Add(t, t < 1000 ? 1000.0 + v : v + 1.0);
  }
  w.Add(5000, 1e9);  // outside the run: ignored
  const Percentile wp = w.Quantile(0.99);
  Expect(wp.supported && wp.value == 990.0 && wp.samples == 5000,
         "windowed p99 is the median of per-window p99s");
  Expect(w.size() == 5000, "samples outside the run are dropped");

  // Too few samples per window for p99: the whole run's p99 is used.
  WindowedSamples sparse(0, 5000, 5);
  for (uint64_t t = 0; t < 5000; t += 4) sparse.Add(t, static_cast<double>(t));
  const Percentile fp = sparse.Quantile(0.99);
  Expect(fp.supported && fp.samples == 1250 && fp.value == 4948.0,
         "whole-run p99 when a window cannot support it");

  // Events per second: one event per millisecond over a 5-second run.
  WindowedSamples events(0, 5'000'000'000, 5);
  for (uint64_t t = 0; t < 5'000'000'000; t += 1'000'000) events.Add(t, 1.0);
  Expect(events.RatePerSecond() == 1000.0, "windowed rate of 1000 events/s");
}

void TestSelfTimes() {
  // rpc [0,100) > req [10,90) > {queue [10,20), step [30,80) > select [40,60)}
  const std::vector<Span> spans = {
      {0, 100, 0}, {10, 80, 1}, {10, 10, 2}, {30, 50, 3}, {40, 20, 4}};
  const std::vector<int> parent = NestByContainment(spans);
  Expect(parent == std::vector<int>({-1, 0, 1, 1, 3}), "containment nesting");
  const std::vector<uint64_t> self = SelfTimes(spans, parent);
  Expect(self == std::vector<uint64_t>({20, 20, 10, 30, 20}), "self times");

  // Overlapping children are counted once in the parent's coverage.
  const std::vector<Span> overlap = {{0, 100, 0}, {10, 40, 1}, {30, 40, 2}};
  const std::vector<uint64_t> oself =
      SelfTimes(overlap, {-1, 0, 0});
  Expect(oself[0] == 40, "parent self time subtracts the union of children");

  // A child sticking out of its parent is clipped to the parent.
  const std::vector<Span> out = {{0, 50, 0}, {40, 30, 1}};
  Expect(SelfTimes(out, {-1, 0})[0] == 40, "child clipped to parent");

  // Identical intervals: the earlier span is the outer one.
  const std::vector<Span> same = {{5, 10, 0}, {5, 10, 1}};
  Expect(NestByContainment(same) == std::vector<int>({-1, 0}),
         "identical intervals nest by order");
}

/// Self times of `spans` nested by containment, as ledger entries.
std::vector<double> Layers(const std::vector<Span>& spans) {
  std::vector<double> out;
  for (uint64_t s : SelfTimes(spans, NestByContainment(spans))) {
    out.push_back(static_cast<double>(s));
  }
  return out;
}

void TestLedgerSum() {
  // A properly nested tree: self times add up to the root exactly.
  const std::vector<Span> good = {
      {0, 100, 0}, {10, 80, 1}, {10, 10, 2}, {30, 50, 3}, {40, 20, 4}};
  const SumCheck ok = CheckLedgerSum(Layers(good), 100.0, 0.10);
  Expect(ok.ok && ok.layer_sum == 100.0 && ok.ratio == 1.0,
         "nested tree sums to root");

  // Two siblings overlapping by 30 double-count their overlap: the sum
  // exceeds the root and the check fails at a 10% tolerance.
  const std::vector<Span> bad = {{0, 100, 0}, {10, 50, 1}, {30, 50, 2}};
  const SumCheck off = CheckLedgerSum(Layers(bad), 100.0, 0.10);
  Expect(!off.ok && off.layer_sum == 130.0,
         "overlapping spans fail the sum check");

  Expect(CheckLedgerSum({45.0, 50.0}, 100.0, 0.10).ok, "5% off passes");
  Expect(!CheckLedgerSum({40.0, 45.0}, 100.0, 0.10).ok, "15% off fails");
  Expect(!CheckLedgerSum({1.0}, 0.0, 0.10).ok, "no reference fails");
}

void TestOutput() {
  Expect(JsonNumber(0.1) == "0.10000000000000001", "all digits kept");
  const std::string line = ResultJson(true, 3, 0, {{"x_ms", 1.5, "ms"}});
  Expect(line ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": "
             "{\"x_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}",
         "result line shape");
  Expect(Fnv1a({}) == 0xcbf29ce484222325ULL, "FNV offset basis");
  Expect(Fnv1a({1}) != Fnv1a({2}), "FNV separates words");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestSelfTimes();
  TestLedgerSum();
  TestOutput();
  if (g_failures == 0) std::printf("perfbench self-tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
