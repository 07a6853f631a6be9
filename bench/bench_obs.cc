// Observability overhead (src/obs): steps/sec through full simulated
// conversations with metrics disabled (SetEnabled(false) — the
// instrumented binary's kill-switch fast path), metrics enabled (the
// shipping default), and metrics + request-journey tracing (every step run
// under a JourneyContext, emitting request/step/phase spans into the
// lock-free journey ring — the --slow-ms / --trace-export serve path).
//
// The instrumentation contract is that the default-on path costs a few
// clock reads and relaxed atomics per step — invisible next to a counting
// pass. This bench makes that claim falsifiable: every conversation is
// run in all three modes back to back (so cache/turbo drift hits each
// equally), the median of the paired per-conversation time ratios is
// compared, and `--assert` turns a >2% steps/sec regression into a
// nonzero exit.
//
// --json prints the machine-readable document to stdout (tables go to
// stderr); the committed BENCH_obs.json is this bench's output at paper
// scale, the baseline future PRs trend against.

#include <algorithm>
#include <array>
#include <cstdlib>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "obs/journey.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "service/discovery_session.h"
#include "service/session_manager.h"
#include "util/rng.h"

namespace setdisc::bench {
namespace {

/// A dense-enough random collection that a step's counting pass dwarfs the
/// per-step instrumentation (the regime the <2% bound is about; on a
/// seven-set toy collection the clock reads would be the workload).
SetCollection RandomCollection(uint64_t seed, uint32_t n, uint32_t m,
                               double density) {
  Rng rng(seed);
  SetCollectionBuilder builder;
  for (uint32_t s = 0; s < n; ++s) {
    std::vector<EntityId> elems;
    // Two always-distinct low entities keep every set unique without
    // changing the counting cost profile.
    elems.push_back(static_cast<EntityId>(m + (s % 64)));
    elems.push_back(static_cast<EntityId>(m + 64 + (s / 64) % 64));
    for (EntityId e = 0; e < m; ++e) {
      if (rng.Bernoulli(density)) elems.push_back(e);
    }
    builder.AddSet(std::move(elems));
  }
  return builder.Build();
}

enum class Mode { kOff, kOn, kOnJourney };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kOn: return "on";
    case Mode::kOnJourney: return "on+journey";
  }
  return "?";
}

struct ModeResult {
  double steps_per_sec = 0.0;
  uint64_t steps = 0;
  double seconds = 0.0;
};

/// Times `conversations` full sessions in `mode` through `manager`,
/// answered by clean simulated oracles; conversation k of every mode uses
/// the same target, so transcripts (and steps) are identical across modes.
ModeResult RunConversations(const SetCollection& c, SessionManager& manager,
                            Mode mode, int first, int conversations) {
  obs::SetEnabled(mode != Mode::kOff);
  const bool journey = mode == Mode::kOnJourney;
  obs::SetJourneyEnabled(journey);
  uint64_t steps = 0;
  WallTimer timer;
  for (int i = first; i < first + conversations; ++i) {
    const SetId target = static_cast<SetId>((i * 7919 + 13) % c.num_sets());
    SimulatedOracle oracle(&c, target);
    // With journeys on, what a server pool job does per request: a context
    // with a trace id and a request span, installed for the duration of the
    // conversation, so every step pays the full span-emission path into the
    // ring.
    obs::JourneyContext jc;
    if (journey) {
      jc.trace = obs::MakeTraceId();
      jc.request_span = obs::NextSpanId();
    }
    obs::JourneyScope scope(journey ? &jc : nullptr);
    SessionView view = manager.Create({}, jc.trace);
    view = manager.Drive(view, oracle);
    steps += view.result.questions;
    manager.Close(view.id);
  }
  const double seconds = timer.Seconds();
  obs::SetJourneyEnabled(false);
  obs::SetEnabled(true);
  return {static_cast<double>(steps) / seconds, steps, seconds};
}

}  // namespace
}  // namespace setdisc::bench

int main(int argc, char** argv) {
  using namespace setdisc;
  using namespace setdisc::bench;

  JsonReport report("obs", HasFlag(argc, argv, "--json"));
  const bool assert_bound = HasFlag(argc, argv, "--assert");
  std::ostream& out = report.text();
  Banner("obs", "metrics + tracing overhead on the serving hot path", out);

  const uint32_t num_sets = ScalePick<uint32_t>(4000, 10000, 24000);
  const uint32_t num_entities = ScalePick<uint32_t>(200, 320, 500);
  const int conversations = ScalePick<int>(60, 100, 200);
  const int rounds = ScalePick<int>(11, 9, 9);

  SetCollection c = RandomCollection(/*seed=*/97, num_sets, num_entities,
                                     /*density=*/0.28);
  InvertedIndex idx(c);
  out << "collection: " << c.num_sets() << " sets, "
      << c.num_distinct_entities() << " entities, " << c.total_elements()
      << " incidences; " << conversations * rounds
      << " MostEven conversations per mode, interleaved per conversation\n"
         "with rotating mode order (aggregate rates reported)\n\n";

  const Mode modes[] = {Mode::kOff, Mode::kOn, Mode::kOnJourney};
  constexpr int kNumModes = 3;
  SessionManager* managers[kNumModes];
  SessionManagerOptions options;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  options.num_threads = 2;
  SessionManager manager_off(c, idx, options);
  SessionManager manager_on(c, idx, options);
  SessionManager manager_journey(c, idx, options);
  managers[0] = &manager_off;
  managers[1] = &manager_on;
  managers[2] = &manager_journey;

  // Warmup (untimed): faults the collection in and spins the pools up so
  // the first slice isn't measuring first-touch costs.
  for (int m = 0; m < kNumModes; ++m) {
    RunConversations(c, *managers[m], modes[m], 0,
                     std::max(1, conversations / 8));
  }

  // Fine-grained interleave: each conversation runs in all three modes back
  // to back, mode order rotating per slice. Scheduler preemption and
  // frequency drift land on all three modes evenly, so the paired ratios
  // isolate the instrumentation cost instead of the machine's mood;
  // per-block medians were ±2% on a busy host, worse than the effect being
  // measured.
  const int kSlice = 1;
  const int slices = std::max(1, (conversations * rounds) / kSlice);
  double seconds_total[kNumModes] = {};
  uint64_t steps_total[kNumModes] = {};
  std::vector<std::array<double, kNumModes>> slice_seconds(slices);
  for (int s = 0; s < slices; ++s) {
    for (int k = 0; k < kNumModes; ++k) {
      const int m = (s + k) % kNumModes;
      ModeResult r = RunConversations(c, *managers[m], modes[m], s * kSlice,
                                      kSlice);
      seconds_total[m] += r.seconds;
      steps_total[m] += r.steps;
      slice_seconds[s][m] = r.seconds;
    }
  }

  // Each slice runs the *same* conversation in all three modes, so the
  // per-slice time ratio is a paired sample of the instrumentation cost.
  // The median over slices shrugs off bursty interference (a steal burst
  // lands in one slice's one mode and becomes a single outlier ratio),
  // where aggregate totals absorb it in full.
  double median_ratio[kNumModes] = {1.0, 1.0, 1.0};
  for (int m = 1; m < kNumModes; ++m) {
    std::vector<double> ratios(slices);
    for (int s = 0; s < slices; ++s) {
      ratios[s] = slice_seconds[s][0] / slice_seconds[s][m];
    }
    std::nth_element(ratios.begin(), ratios.begin() + slices / 2,
                     ratios.end());
    median_ratio[m] = ratios[slices / 2];
  }

  TablePrinter table(
      {"metrics", "steps/sec", "us/step", "vs off", "steps"});
  for (int m = 0; m < kNumModes; ++m) {
    const double rate = static_cast<double>(steps_total[m]) / seconds_total[m];
    table.AddRow({ModeName(modes[m]), Format("%.0f", rate),
                  Format("%.2f", 1e6 / rate),
                  Format("%+.2f%%", (median_ratio[m] - 1.0) * 100.0),
                  Format("%llu", static_cast<unsigned long long>(steps_total[m]))});
    report.Add(JsonReport::Row()
                   .Str("mode", ModeName(modes[m]))
                   .Num("steps_per_sec", rate)
                   .Num("us_per_step", 1e6 / rate)
                   .Num("ratio_vs_off", median_ratio[m])
                   .Int("steps", static_cast<int64_t>(steps_total[m])));
  }
  table.Print(out);
  out << "\nsteps counts only answered questions; transcripts are identical\n"
         "across modes (instrumentation must not steer selection).\n";

  // The shipped-default claim: metrics on costs < 2% steps/sec vs the kill
  // switch. Journey tracing adds a handful of seqlock ring pushes per step
  // and is allowed the same bound; every mode is reported, only --assert
  // enforces.
  const double kMaxRegression = 0.02;
  bool ok = true;
  for (int m = 1; m < kNumModes; ++m) {
    const double regression = 1.0 - median_ratio[m];
    if (regression > kMaxRegression) {
      ok = false;
      out << "REGRESSION: mode '" << ModeName(modes[m]) << "' is "
          << Format("%.2f%%", regression * 100.0)
          << " slower than metrics-off (bound: 2%)\n";
    }
  }
  if (ok) out << "overhead bound holds: every mode within 2% of off.\n";

  report.Print();
  if (assert_bound && !ok) return 1;
  return 0;
}
