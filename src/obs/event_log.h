#pragma once

/// \file event_log.h
/// The diagnostic side of request-journey tracing (journey.h):
///
///  * Events — the server's state transitions (admission flips, effort-
///    ladder moves, evictions, spills, protocol errors, server lifecycle),
///    each a zero-duration Span named by its kind in Events(), a second
///    JourneyRing beside the journey ring. Always on: events are rare and
///    the ring is fixed memory. The fatal-signal handler renders the newest
///    ones through JourneyRing::Read with nothing but write(2); SIGUSR1
///    dumps them with the same Chrome exporter as the journey.
///
///  * ExemplarStore — a bounded ring of slow-step exemplars: the full
///    journey of any step whose service time (queue wait + execution)
///    crossed the --slow-ms threshold, kept for the Stats reply and
///    appended as JSONL to the --event-log file.
///
///  * Signal plumbing — SIGUSR1 sets a flag a serving loop polls
///    (ConsumeFlightDumpRequest); fatal signals write the event tail to
///    stderr and re-raise.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/journey.h"
#include "obs/trace.h"

namespace setdisc::obs {

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

enum class FlightEventKind : uint8_t {
  kServerStart = 0,
  kServerDrain,
  kServerStop,
  kProtocolError,
  kAdmitReject,
  kAdmitClosed,
  kAdmitResumed,
  kEffortDegrade,
  kEffortRecover,
  kPressureReap,
  kSessionEvicted,
  kSessionError,
  kSlowStep,
  kSessionSpilled,   ///< evicted/reaped with its store record retained
  kSessionResumed,   ///< rehydrated from the store (a=id, b=events replayed)
  kStoreDegraded,    ///< session store hit an I/O error and stopped logging
};

/// Stable lowercase span name ("admit_reject", ...), at most
/// kMaxSpanName - 1 characters; never nullptr.
const char* FlightEventKindName(FlightEventKind kind);

/// The process-wide event ring (capacity 1024). Independent of
/// JourneyEnabled(), and separate from Journey() so that per-step spans,
/// which wrap the journey ring in under a second at full load, cannot push
/// a transition out before a crash tail prints it.
JourneyRing& Events();

/// Pushes one zero-duration span into Events(): name FlightEventKindName
/// (kind), annotations "a" and "b" (kind-specific: queue depth, old level,
/// port, ...) and "detail" when not empty (truncated to
/// kMaxAnnotationValue - 1 characters).
void RecordEvent(FlightEventKind kind, uint64_t a = 0, uint64_t b = 0,
                 std::string_view detail = {});

// ---------------------------------------------------------------------------
// EventLog — JSONL sink
// ---------------------------------------------------------------------------

/// Append-only JSONL file (--event-log). Thread-safe; each Append is one
/// line, flushed so a crash loses at most the line being written.
class EventLog {
 public:
  static EventLog& Global();

  /// Opens (truncating) `path`; false if the file can't be created.
  bool Open(const std::string& path);
  void Close();
  bool is_open() const;

  /// Writes `json` (one object, no trailing newline) as one line. No-op
  /// when closed.
  void Append(std::string_view json);

 private:
  mutable std::mutex mu_;
  std::FILE* file_ = nullptr;
};

// ---------------------------------------------------------------------------
// Slow-step exemplars
// ---------------------------------------------------------------------------

struct StepExemplar {
  TraceId trace;
  uint64_t session_id = 0;
  uint64_t ts_ns = 0;  ///< completion time (NowNanos timebase)
  uint32_t step = 0;
  uint8_t kind = 0;        ///< 0 = answer, 1 = verify, 2 = create
  uint8_t serve_path = 0;  ///< ServePath
  uint64_t total_ns = 0;   ///< step execution time
  uint64_t queue_wait_ns = 0;
  uint64_t phase_ns[kNumPhases] = {};
  char request[16] = {};  ///< wire request name ("answer", ...)
};

/// One exemplar as a single-line JSON object (the --event-log format).
std::string ExemplarJson(const StepExemplar& ex);

class ExemplarStore {
 public:
  static constexpr size_t kCapacity = 64;

  /// The process-wide store.
  static ExemplarStore& Global();

  /// Keeps the most recent kCapacity exemplars and appends each to
  /// EventLog::Global() when that is open.
  void Add(const StepExemplar& ex);

  /// Oldest first.
  std::vector<StepExemplar> Snapshot() const;

  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mu_;
  std::vector<StepExemplar> ring_;
  std::atomic<uint64_t> total_{0};
};

// ---------------------------------------------------------------------------
// Request-journey completion
// ---------------------------------------------------------------------------

/// Closes out one request's journey after its pool job ran under `ctx`
/// (JourneyScope): emits the request span (decode_ns .. now) and its
/// queue-wait child (decode_ns .. start_ns) into Journey(), and — when
/// `slow_ns` > 0 and the step's service time (queue wait + execution)
/// reached it — captures a StepExemplar. `name` is the wire request name.
void FinishRequestJourney(JourneyContext& ctx, const char* name,
                          uint64_t decode_ns, uint64_t start_ns,
                          uint64_t slow_ns);

// ---------------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------------

/// SIGUSR1 handler that just sets a flag; a serving loop polls
/// ConsumeFlightDumpRequest() and performs the (non-signal-safe) JSON dump
/// itself.
void InstallFlightDumpSignalHandler();
bool ConsumeFlightDumpRequest();

/// SIGSEGV/SIGBUS/SIGFPE/SIGABRT handler: writes the newest 32 events to
/// stderr, one "+<s>.<ms>s <kind> a=<a> b=<b> <detail>" line each, with
/// Read, integer formatting into a stack buffer and write(2) only; then
/// restores the default handler and re-raises so the process still dies
/// (and dumps core) normally.
void InstallFatalTailHandler();

}  // namespace setdisc::obs
