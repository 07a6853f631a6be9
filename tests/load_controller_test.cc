// Deterministic tests for the load-adaptive feedback controller
// (service/load_controller.h): every hysteresis transition driven by a
// FakeClock and scripted sensor feeds — degrade after sustained pressure,
// recover with hysteresis, the dead band that prevents oscillation, the
// admission watermark with its resume depth, pressure-only idle reaping,
// and the effort ladder's interaction with the k-LP selector (a degraded
// selector never drops below a 1-step decision). No sleeps anywhere.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/klp.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "service/load_controller.h"
#include "util/clock.h"
#include "test_util.h"

namespace setdisc {
namespace {

using std::chrono::milliseconds;

/// Scripted sensors: tests record latencies into `hist` (cumulative, like a
/// registry histogram) and set `depth` between ticks.
struct Sensors {
  obs::Histogram hist;
  size_t depth = 0;

  LoadController::MetricsSource source() {
    return [this] {
      LoadSample s;
      s.step_latency = hist.Snapshot();
      s.queue_depth = depth;
      return s;
    };
  }
  LoadController::DepthSource depth_source() {
    return [this] { return depth; };
  }

  /// One window's traffic: `n` samples at `value_ns`.
  void Feed(uint64_t value_ns, int n = 32) {
    for (int i = 0; i < n; ++i) hist.Record(value_ns);
  }
};

LoadControllerOptions DegradeOptions() {
  LoadControllerOptions o;
  o.tick_interval = milliseconds(10);
  o.target_p99_ns = 1'000'000;  // 1ms
  o.recover_fraction = 0.5;
  o.degrade_after_ticks = 3;
  o.recover_after_ticks = 2;
  o.max_effort_level = 3;
  o.min_window_count = 8;
  return o;
}

TEST(LoadController, DegradesAfterSustainedPressureOnly) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);

  // Two over-target windows: not sustained yet.
  for (int i = 0; i < 2; ++i) {
    sensors.Feed(5'000'000);
    c.Tick();
    EXPECT_EQ(c.effort_level(), 0);
  }
  // Third consecutive one crosses degrade_after_ticks.
  sensors.Feed(5'000'000);
  c.Tick();
  EXPECT_EQ(c.effort_level(), 1);
  EXPECT_EQ(c.degrade_total(), 1u);
  EXPECT_GT(c.last_window_p99_ns(), 1'000'000u);
}

TEST(LoadController, LadderClimbsOneLevelPerSustainedRun) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);
  // 20 relentless over-target windows: the ladder climbs one level per
  // 3-tick run and parks at max_effort_level, never beyond.
  for (int i = 0; i < 20; ++i) {
    sensors.Feed(5'000'000);
    c.Tick();
  }
  EXPECT_EQ(c.effort_level(), 3);
  EXPECT_EQ(c.degrade_total(), 3u);
}

TEST(LoadController, RecoversWithHysteresisAndStepsDownOneAtATime) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);
  std::vector<int> sink_levels;
  c.set_effort_sink([&](int level) { sink_levels.push_back(level); });

  for (int i = 0; i < 6; ++i) {  // two full degrade runs -> level 2
    sensors.Feed(5'000'000);
    c.Tick();
  }
  ASSERT_EQ(c.effort_level(), 2);

  // Healthy windows (p99 well under recover_fraction * target). One is not
  // enough; the second crosses recover_after_ticks.
  sensors.Feed(100'000);
  c.Tick();
  EXPECT_EQ(c.effort_level(), 2);
  sensors.Feed(100'000);
  c.Tick();
  EXPECT_EQ(c.effort_level(), 1);
  EXPECT_EQ(c.recover_total(), 1u);

  // And again down to zero — one level per run, sink saw every transition.
  sensors.Feed(100'000);
  c.Tick();
  sensors.Feed(100'000);
  c.Tick();
  EXPECT_EQ(c.effort_level(), 0);
  EXPECT_EQ(sink_levels, (std::vector<int>{1, 2, 1, 0}));
}

TEST(LoadController, DeadBandHoldsTheLadderStill) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);
  for (int i = 0; i < 3; ++i) {
    sensors.Feed(5'000'000);
    c.Tick();
  }
  ASSERT_EQ(c.effort_level(), 1);

  // p99 hovering between recover_fraction * target (0.5ms) and target
  // (1ms): neither counter accumulates, the level never moves — the
  // no-oscillation property.
  for (int i = 0; i < 50; ++i) {
    sensors.Feed(700'000);
    c.Tick();
    EXPECT_EQ(c.effort_level(), 1) << "oscillated at tick " << i;
  }
  EXPECT_EQ(c.degrade_total(), 1u);
  EXPECT_EQ(c.recover_total(), 0u);
}

TEST(LoadController, IdleWindowsCountTowardRecovery) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);
  for (int i = 0; i < 3; ++i) {
    sensors.Feed(5'000'000);
    c.Tick();
  }
  ASSERT_EQ(c.effort_level(), 1);

  // No traffic at all (window count below min_window_count): an idle server
  // re-widens on the same hysteresis schedule.
  c.Tick();
  c.Tick();
  EXPECT_EQ(c.effort_level(), 0);
  EXPECT_EQ(c.last_window_p99_ns(), 0u);
}

TEST(LoadController, SparseWindowCarriesNoDegradeSignal) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);
  // Seven huge outliers per window — under min_window_count=8, so they must
  // never degrade anyone.
  for (int i = 0; i < 10; ++i) {
    sensors.Feed(100'000'000, /*n=*/7);
    c.Tick();
  }
  EXPECT_EQ(c.effort_level(), 0);
  EXPECT_EQ(c.degrade_total(), 0u);
}

TEST(LoadController, WindowsAreDeltasNotCumulative) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);
  // A slow past must not haunt the present: one bad window, then every
  // later window is all-fast. Cumulatively the histogram p99 stays slow
  // forever; windowed, the controller sees fast traffic and recovers.
  sensors.Feed(5'000'000, /*n=*/1000);
  c.Tick();
  for (int i = 0; i < 4; ++i) {
    sensors.Feed(100'000);
    c.Tick();
  }
  EXPECT_EQ(c.effort_level(), 0);
  EXPECT_EQ(c.degrade_total(), 0u);
  EXPECT_LT(c.last_window_p99_ns(), 1'000'000u);
}

TEST(LoadController, AdmissionWatermarkAndResumeDepth) {
  Sensors sensors;
  FakeClock clock;
  LoadControllerOptions o;
  o.admit_queue_watermark = 8;
  o.admit_resume_depth = 2;
  o.retry_after_ms = 40;
  LoadController c(o, sensors.source(), sensors.depth_source(), &clock);

  sensors.depth = 7;
  EXPECT_TRUE(c.AdmitCreate(nullptr));

  sensors.depth = 8;  // at the watermark: refused, hint filled
  uint32_t retry = 0;
  EXPECT_FALSE(c.AdmitCreate(&retry));
  EXPECT_EQ(retry, 40u);
  EXPECT_FALSE(c.admitting());

  // Hysteresis: below the watermark but above resume depth stays closed.
  sensors.depth = 5;
  EXPECT_FALSE(c.AdmitCreate(nullptr));

  // Drained to the resume depth: admission re-opens on the same call.
  sensors.depth = 2;
  EXPECT_TRUE(c.AdmitCreate(nullptr));
  EXPECT_TRUE(c.admitting());
  EXPECT_EQ(c.rejected_total(), 2u);
}

TEST(LoadController, AdmissionFlipsAreRecordedAsEvents) {
  using setdisc::testing::EventsSince;
  Sensors sensors;
  FakeClock clock;
  LoadControllerOptions o;
  o.admit_queue_watermark = 8;
  o.admit_resume_depth = 2;
  LoadController c(o, sensors.source(), sensors.depth_source(), &clock);

  uint64_t first = obs::Events().total();
  sensors.depth = 9;
  EXPECT_FALSE(c.AdmitCreate(nullptr));
  std::vector<obs::Span> closed =
      EventsSince(first, obs::FlightEventKind::kAdmitClosed);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_STREQ(closed[0].ann_value[0], "9");  // a = depth
  EXPECT_STREQ(closed[0].ann_value[1], "8");  // b = watermark
  EXPECT_EQ(EventsSince(first, obs::FlightEventKind::kAdmitReject).size(), 1u);

  first = obs::Events().total();
  sensors.depth = 1;
  EXPECT_TRUE(c.AdmitCreate(nullptr));
  std::vector<obs::Span> resumed =
      EventsSince(first, obs::FlightEventKind::kAdmitResumed);
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_STREQ(resumed[0].ann_value[0], "1");
  EXPECT_STREQ(resumed[0].ann_value[1], "2");
  EXPECT_TRUE(EventsSince(first, obs::FlightEventKind::kAdmitClosed).empty());
}

TEST(LoadController, AdmissionDisabledAdmitsEverything) {
  Sensors sensors;
  FakeClock clock;
  LoadControllerOptions o;  // watermark 0 = off
  LoadController c(o, sensors.source(), sensors.depth_source(), &clock);
  sensors.depth = 1'000'000;
  EXPECT_TRUE(c.AdmitCreate(nullptr));
  EXPECT_EQ(c.rejected_total(), 0u);
}

TEST(LoadController, ResumeDepthDefaultsToHalfTheWatermark) {
  Sensors sensors;
  FakeClock clock;
  LoadControllerOptions o;
  o.admit_queue_watermark = 10;
  LoadController c(o, sensors.source(), sensors.depth_source(), &clock);
  EXPECT_EQ(c.options().admit_resume_depth, 5u);
}

TEST(LoadController, MaybeTickFollowsTheInjectedClock) {
  Sensors sensors;
  FakeClock clock;
  LoadController c(DegradeOptions(), sensors.source(), sensors.depth_source(),
                   &clock);
  EXPECT_TRUE(c.MaybeTick());   // first tick always runs
  EXPECT_FALSE(c.MaybeTick());  // no time passed
  clock.Advance(milliseconds(9));
  EXPECT_FALSE(c.MaybeTick());  // still inside the interval
  clock.Advance(milliseconds(1));
  EXPECT_TRUE(c.MaybeTick());
}

TEST(LoadController, ReapsIdleSessionsOnlyUnderPressure) {
  Sensors sensors;
  FakeClock clock;
  LoadControllerOptions o = DegradeOptions();
  o.pressure_idle_ttl = milliseconds(50);
  LoadController c(o, sensors.source(), sensors.depth_source(), &clock);
  int reap_calls = 0;
  c.set_idle_reaper([&](milliseconds leash) {
    EXPECT_EQ(leash, milliseconds(50));
    ++reap_calls;
    return size_t{3};
  });

  // Healthy ticks: the short leash must never apply.
  sensors.Feed(100'000);
  c.Tick();
  EXPECT_EQ(reap_calls, 0);

  // Degrade, then every pressured tick reaps.
  for (int i = 0; i < 3; ++i) {
    sensors.Feed(5'000'000);
    c.Tick();
  }
  ASSERT_EQ(c.effort_level(), 1);
  EXPECT_GT(reap_calls, 0);
  EXPECT_EQ(c.pressure_reaped_total(), static_cast<uint64_t>(3 * reap_calls));
}

TEST(LoadController, DegradationDisabledNeverTouchesEffort) {
  Sensors sensors;
  FakeClock clock;
  LoadControllerOptions o;  // target_p99_ns = 0: degradation off
  o.admit_queue_watermark = 4;
  LoadController c(o, sensors.source(), sensors.depth_source(), &clock);
  for (int i = 0; i < 10; ++i) {
    sensors.Feed(100'000'000);
    c.Tick();
  }
  EXPECT_EQ(c.effort_level(), 0);
  EXPECT_EQ(c.degrade_total(), 0u);
}

// ---------------------------------------------------------------------------
// The effort ladder as the selector sees it
// ---------------------------------------------------------------------------

TEST(KlpEffort, NeverDropsBelowOneStepLookahead) {
  KlpSelector selector(KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
  EXPECT_EQ(selector.effective_k(), 2);
  selector.SetEffort(1);
  EXPECT_EQ(selector.effective_k(), 1);
  selector.SetEffort(100);  // far past the ladder: clamps, never 0
  EXPECT_EQ(selector.effective_k(), 1);
  selector.SetEffort(-5);  // defensive: negative means full effort
  EXPECT_EQ(selector.effective_k(), 2);
}

TEST(KlpEffort, FingerprintMovesWithEffectiveDepthOnly) {
  KlpSelector a(KlpOptions::MakeKlp(3, CostMetric::kAvgDepth));
  const uint64_t full = a.DecisionFingerprint();
  a.SetEffort(1);
  EXPECT_NE(a.DecisionFingerprint(), full);
  a.SetEffort(0);
  EXPECT_EQ(a.DecisionFingerprint(), full);

  // A 1-LP selector cannot degrade (already at the floor), so its
  // fingerprint — and with it every cache key — must never move.
  KlpSelector one(KlpOptions::MakeKlp(1, CostMetric::kAvgDepth));
  const uint64_t one_fp = one.DecisionFingerprint();
  one.SetEffort(4);
  EXPECT_EQ(one.DecisionFingerprint(), one_fp);
}

}  // namespace
}  // namespace setdisc
