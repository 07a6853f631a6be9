#include "service/load_controller.h"

#include <utility>

#include "obs/event_log.h"

namespace setdisc {

LoadController::LoadController(LoadControllerOptions options,
                               MetricsSource source, DepthSource depth,
                               const Clock* clock)
    : options_(options),
      source_(std::move(source)),
      depth_(std::move(depth)),
      clock_(clock != nullptr ? clock : Clock::Real()) {
  if (options_.admit_queue_watermark > 0 && options_.admit_resume_depth == 0) {
    options_.admit_resume_depth = options_.admit_queue_watermark / 2;
  }
  if (options_.metrics != nullptr) {
    // The probe reads only this object's atomics — never back into the
    // registry — per the AddProbe contract. probe_ releases (blocking on
    // in-flight snapshots) before the atomics die.
    probe_ = options_.metrics->AddProbe([this](obs::SampleSink& sink) {
      sink.Gauge("setdisc_load_effort_level", effort_level());
      sink.Gauge("setdisc_load_admitting", admitting() ? 1 : 0);
      sink.Counter("setdisc_load_rejected_total", rejected_total());
      sink.Counter("setdisc_load_degrade_total", degrade_total());
      sink.Counter("setdisc_load_recover_total", recover_total());
      sink.Counter("setdisc_load_pressure_reaped_total",
                   pressure_reaped_total());
    });
  }
}

LoadController::~LoadController() {
  Stop();
  probe_.Release();
}

void LoadController::Start() {
  std::lock_guard<std::mutex> lock(run_mu_);
  if (running_) return;
  stop_ = false;
  running_ = true;
  thread_ = std::thread([this] { RunLoop(); });
}

void LoadController::Stop() {
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    if (!running_) return;
    stop_ = true;
  }
  run_cv_.notify_all();
  thread_.join();
  {
    std::lock_guard<std::mutex> lock(run_mu_);
    running_ = false;
  }
}

void LoadController::RunLoop() {
  std::unique_lock<std::mutex> lock(run_mu_);
  while (!stop_) {
    // Real-time cadence for the production thread; the injected clock still
    // gates MaybeTick so a FakeClock test never races this loop (it simply
    // never advances the clock, so the loop's ticks all no-op).
    run_cv_.wait_for(lock, options_.tick_interval, [this] { return stop_; });
    if (stop_) break;
    lock.unlock();
    MaybeTick();
    lock.lock();
  }
}

bool LoadController::MaybeTick() {
  {
    std::lock_guard<std::mutex> lock(tick_mu_);
    if (have_last_tick_ &&
        clock_->Now() - last_tick_ < options_.tick_interval) {
      return false;
    }
  }
  Tick();
  return true;
}

obs::HistogramSnapshot LoadController::WindowDelta(
    const obs::HistogramSnapshot& cur, const obs::HistogramSnapshot& prev) {
  obs::HistogramSnapshot out;
  out.count = cur.count >= prev.count ? cur.count - prev.count : 0;
  out.sum = cur.sum >= prev.sum ? cur.sum - prev.sum : 0;
  out.buckets.resize(cur.buckets.size(), 0);
  for (size_t i = 0; i < cur.buckets.size(); ++i) {
    uint64_t p = i < prev.buckets.size() ? prev.buckets[i] : 0;
    out.buckets[i] = cur.buckets[i] >= p ? cur.buckets[i] - p : 0;
  }
  return out;
}

void LoadController::Tick() {
  LoadSample sample = source_ ? source_() : LoadSample{};

  std::lock_guard<std::mutex> lock(tick_mu_);
  last_tick_ = clock_->Now();
  have_last_tick_ = true;

  bool under_pressure =
      !admitting_.load(std::memory_order_relaxed) ||
      effort_level_.load(std::memory_order_relaxed) > 0;

  if (options_.target_p99_ns > 0) {
    obs::HistogramSnapshot window =
        have_prev_ ? WindowDelta(sample.step_latency, prev_latency_)
                   : sample.step_latency;
    prev_latency_ = std::move(sample.step_latency);
    have_prev_ = true;

    if (window.count >= options_.min_window_count) {
      const uint64_t p99 = window.ValueAtQuantile(0.99);
      last_p99_.store(p99, std::memory_order_relaxed);
      if (p99 > options_.target_p99_ns) {
        ++over_ticks_;
        under_ticks_ = 0;
      } else if (static_cast<double>(p99) <
                 options_.recover_fraction *
                     static_cast<double>(options_.target_p99_ns)) {
        ++under_ticks_;
        over_ticks_ = 0;
      } else {
        // Dead band: noisy p99 hovering near the target moves neither
        // counter, so the ladder holds still instead of oscillating.
        over_ticks_ = 0;
        under_ticks_ = 0;
      }
    } else {
      // No traffic, no signal — an idle window argues for re-widening.
      last_p99_.store(0, std::memory_order_relaxed);
      ++under_ticks_;
      over_ticks_ = 0;
    }

    int level = effort_level_.load(std::memory_order_relaxed);
    if (over_ticks_ >= options_.degrade_after_ticks &&
        level < options_.max_effort_level) {
      effort_level_.store(level + 1, std::memory_order_relaxed);
      degrades_.fetch_add(1, std::memory_order_relaxed);
      over_ticks_ = 0;
      under_pressure = true;
      obs::RecordEvent(obs::FlightEventKind::kEffortDegrade, level, level + 1);
      if (effort_sink_) effort_sink_(level + 1);
    } else if (under_ticks_ >= options_.recover_after_ticks && level > 0) {
      effort_level_.store(level - 1, std::memory_order_relaxed);
      recovers_.fetch_add(1, std::memory_order_relaxed);
      under_ticks_ = 0;
      obs::RecordEvent(obs::FlightEventKind::kEffortRecover, level, level - 1);
      if (effort_sink_) effort_sink_(level - 1);
    }
  }

  // Queue standing above the watermark is pressure even before any refusal
  // has flipped the admission gate (the gate flips lazily, on the next
  // AdmitCreate).
  if (options_.admit_queue_watermark > 0 &&
      sample.queue_depth >= options_.admit_queue_watermark) {
    under_pressure = true;
  }

  if (under_pressure && options_.pressure_idle_ttl.count() > 0 && reaper_) {
    size_t reaped = reaper_(options_.pressure_idle_ttl);
    if (reaped > 0) {
      pressure_reaped_.fetch_add(reaped, std::memory_order_relaxed);
      obs::RecordEvent(obs::FlightEventKind::kPressureReap, reaped,
                       options_.pressure_idle_ttl.count());
    }
  }
}

bool LoadController::AdmitCreate(uint32_t* retry_after_ms) {
  if (options_.admit_queue_watermark == 0 || !depth_) return true;
  const size_t depth = depth_();
  bool open;
  {
    std::lock_guard<std::mutex> lock(admit_mu_);
    open = admitting_.load(std::memory_order_relaxed);
    if (open) {
      if (depth >= options_.admit_queue_watermark) {
        open = false;
        admitting_.store(false, std::memory_order_relaxed);
        obs::RecordEvent(obs::FlightEventKind::kAdmitClosed, depth,
                         options_.admit_queue_watermark);
      }
    } else if (depth <= options_.admit_resume_depth) {
      open = true;
      admitting_.store(true, std::memory_order_relaxed);
      obs::RecordEvent(obs::FlightEventKind::kAdmitResumed, depth,
                       options_.admit_resume_depth);
    }
  }
  if (!open) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    obs::RecordEvent(obs::FlightEventKind::kAdmitReject, depth);
    if (retry_after_ms != nullptr) *retry_after_ms = options_.retry_after_ms;
    return false;
  }
  return true;
}

}  // namespace setdisc
