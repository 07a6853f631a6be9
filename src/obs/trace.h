#pragma once

/// \file trace.h
/// Per-step phase attribution.
///
/// The question "why was this step slow?" needs latencies attributed to the
/// stages of a step — counting, candidate ordering, the partition/emit on
/// answer, the selection-cache lookup — but those stages
/// live deep inside selectors, counters, and cache decorators whose APIs
/// should not grow a context parameter. Instead the session installs a
/// thread-local PhaseAccum around each step (PhaseScope), and instrumented
/// code records into it through PhaseTimer / NoteServePath. When no scope
/// is installed (metrics disabled, or code driven outside a session step),
/// a PhaseTimer is a thread-local load and a branch — no clock read.
///
/// A finished step's PhaseAccum feeds the per-phase histograms
/// (RecordStepPhases) and, under a JourneyContext, the step span and its
/// phase children (obs/journey.h). Those spans are the one per-step record:
/// a session's trace is the journey spans carrying its trace id.

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace setdisc::obs {

/// The step stages a PhaseTimer can charge. The values index the phase
/// arrays (PhaseAccum and the slow-step exemplar's wire encoding). Slot 3 is
/// reserved and never charged: the wire encodes phases by position, and
/// emit and select keep positions 4 and 5 for peers built against them.
enum class Phase : uint8_t {
  kCacheLookup = 0,  ///< selection-cache probe (and insert on miss)
  kCount = 1,        ///< counting pass (full, delta-derived, or re-emit)
  kOrder = 2,        ///< candidate ordering / scoring pass
  kEmit = 4,         ///< partition-on-answer + counting-state handoff
  kSelect = 5,       ///< the whole selector Select() call (spans 0-2)
};
inline constexpr size_t kNumPhases = 6;

/// The phase's label value; nullptr for the reserved slot.
const char* PhaseName(Phase phase);

/// How the step's top-level counting pass was served (mirrors
/// DeltaCounterStats plus the cache short-circuit).
enum class ServePath : uint8_t {
  kUnknown = 0,
  kFull = 1,      ///< full recount
  kDelta = 2,     ///< derived from the parent's counts
  kReemit = 3,    ///< identical view re-served from retained counts
  kCacheHit = 4,  ///< selection cache hit — no counting at all
};

const char* ServePathName(ServePath path);

/// Per-step scratch the timers accumulate into.
struct PhaseAccum {
  uint64_t ns[kNumPhases] = {};
  uint8_t serve_path = 0;  // ServePath
};

namespace internal {
inline thread_local PhaseAccum* t_phase_accum = nullptr;
}  // namespace internal

/// Installs `accum` as this thread's active step context for the scope
/// (nullptr = leave instrumentation dormant). Nests correctly.
class PhaseScope {
 public:
  explicit PhaseScope(PhaseAccum* accum)
      : prev_(internal::t_phase_accum) {
    internal::t_phase_accum = accum;
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;
  ~PhaseScope() { internal::t_phase_accum = prev_; }

 private:
  PhaseAccum* prev_;
};

/// Charges the scope's wall time to `phase` of the active step context.
/// `armed = false` (e.g. a non-top-level recursion) or no active context
/// skips the clock reads entirely.
class PhaseTimer {
 public:
  explicit PhaseTimer(Phase phase, bool armed = true)
      : phase_(phase),
        start_(armed && internal::t_phase_accum != nullptr ? NowNanos() : 0) {}
  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;
  ~PhaseTimer() {
    if (start_ != 0) {
      internal::t_phase_accum->ns[static_cast<size_t>(phase_)] +=
          NowNanos() - start_;
    }
  }

 private:
  Phase phase_;
  uint64_t start_;
};

/// Tags the active step with how its counting pass was served. Later calls
/// win only when the current tag is kUnknown — the first decisive path
/// (cache hit, delta, full) describes the step.
inline void NoteServePath(ServePath path) {
  PhaseAccum* accum = internal::t_phase_accum;
  if (accum != nullptr && accum->serve_path == 0) {
    accum->serve_path = static_cast<uint8_t>(path);
  }
}

/// Records each nonzero phase of `accum` into the process-wide
/// `setdisc_step_phase_ns{phase=...}` histograms (no-op when metrics are
/// disabled).
void RecordStepPhases(const PhaseAccum& accum);

}  // namespace setdisc::obs
