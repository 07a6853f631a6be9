// Tests for per-step tracing: the thread-local phase attribution machinery
// (PhaseScope / PhaseTimer / NoteServePath), and a session's trace end to
// end through the SessionManager — the journey step spans carrying its
// trace id, including the phase-hierarchy invariant that a step's phase
// latencies decompose its measured step latency.

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <thread>
#include <vector>

#include "core/selectors.h"
#include "obs/journey.h"
#include "obs/trace.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;
using obs::Phase;
using obs::PhaseAccum;
using obs::PhaseScope;
using obs::PhaseTimer;

// ---------------------------------------------------------------------------
// Phase attribution
// ---------------------------------------------------------------------------

void SpinFor(uint64_t ns) {
  const uint64_t start = obs::NowNanos();
  while (obs::NowNanos() - start < ns) {
  }
}

TEST(PhaseTimer, ChargesOnlyTheActivePhase) {
  PhaseAccum accum;
  {
    PhaseScope scope(&accum);
    {
      PhaseTimer t(Phase::kCount);
      SpinFor(50000);
    }
    {
      PhaseTimer t(Phase::kOrder);
      SpinFor(20000);
    }
  }
  EXPECT_GE(accum.ns[static_cast<size_t>(Phase::kCount)], 50000u);
  EXPECT_GE(accum.ns[static_cast<size_t>(Phase::kOrder)], 20000u);
  EXPECT_EQ(accum.ns[static_cast<size_t>(Phase::kEmit)], 0u);
  EXPECT_EQ(accum.ns[static_cast<size_t>(Phase::kSelect)], 0u);
}

TEST(PhaseTimer, DormantWithoutScopeOrWhenDisarmed) {
  PhaseAccum accum;
  {
    // No scope installed: the timer must not touch anything.
    PhaseTimer t(Phase::kCount);
    SpinFor(1000);
  }
  {
    PhaseScope scope(&accum);
    PhaseTimer t(Phase::kCount, /*armed=*/false);
    SpinFor(1000);
  }
  for (size_t i = 0; i < obs::kNumPhases; ++i) EXPECT_EQ(accum.ns[i], 0u);
}

TEST(PhaseScope, NestsAndRestores) {
  PhaseAccum outer;
  PhaseAccum inner;
  {
    PhaseScope a(&outer);
    {
      PhaseScope b(&inner);
      PhaseTimer t(Phase::kEmit);
      SpinFor(10000);
    }
    {
      PhaseTimer t(Phase::kCount);
      SpinFor(10000);
    }
  }
  EXPECT_GE(inner.ns[static_cast<size_t>(Phase::kEmit)], 10000u);
  EXPECT_EQ(inner.ns[static_cast<size_t>(Phase::kCount)], 0u);
  EXPECT_GE(outer.ns[static_cast<size_t>(Phase::kCount)], 10000u);
  EXPECT_EQ(outer.ns[static_cast<size_t>(Phase::kEmit)], 0u);
}

TEST(PhaseScope, IsPerThread) {
  PhaseAccum accum;
  PhaseScope scope(&accum);
  std::thread other([] {
    // The installing thread's scope must not leak here.
    PhaseTimer t(Phase::kCount);
    SpinFor(1000);
  });
  other.join();
  EXPECT_EQ(accum.ns[static_cast<size_t>(Phase::kCount)], 0u);
}

TEST(NoteServePath, FirstDecisivePathWins) {
  PhaseAccum accum;
  PhaseScope scope(&accum);
  obs::NoteServePath(obs::ServePath::kDelta);
  obs::NoteServePath(obs::ServePath::kFull);  // ignored: already tagged
  EXPECT_EQ(accum.serve_path,
            static_cast<uint8_t>(obs::ServePath::kDelta));
}

TEST(PhaseNames, AreStableStrings) {
  EXPECT_STREQ(obs::PhaseName(Phase::kSelect), "select");
  EXPECT_STREQ(obs::PhaseName(Phase::kEmit), "emit");
  EXPECT_STREQ(obs::ServePathName(obs::ServePath::kCacheHit), "cache_hit");
  EXPECT_STREQ(obs::ServePathName(obs::ServePath::kUnknown), "unknown");
}

TEST(PhaseNames, ReservedSlotKeepsWirePositions) {
  // Phase values index the wire's positional phase arrays.
  EXPECT_EQ(static_cast<size_t>(Phase::kEmit), 4u);
  EXPECT_EQ(static_cast<size_t>(Phase::kSelect), 5u);
  EXPECT_EQ(obs::kNumPhases, 6u);
  EXPECT_EQ(obs::PhaseName(static_cast<Phase>(3)), nullptr);
}

// ---------------------------------------------------------------------------
// A session's trace end to end: the journey spans carrying its trace id
// ---------------------------------------------------------------------------

SessionManagerOptions TracedOptions() {
  SessionManagerOptions options;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  options.num_threads = 2;
  return options;
}

/// Takes one step of `view` the way a server pool job runs a request: under
/// a fresh JourneyContext carrying no trace id, so the step inherits the id
/// stored with the session.
SessionStatus StepAsRequest(SessionManager& manager, Oracle& oracle,
                            SessionView* view) {
  obs::JourneyContext jc;
  jc.request_span = obs::NextSpanId();
  obs::JourneyScope scope(&jc);
  if (view->state == SessionState::kAwaitingAnswer) {
    return manager.SubmitAnswer(view->id, oracle.AskMembership(view->question),
                                view);
  }
  return manager.Verify(view->id, oracle.ConfirmTarget(view->verify_set),
                        view);
}

TEST(SessionTrace, RecordsEveryStepWithConsistentBookkeeping) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, TracedOptions());

  for (SetId target = 0; target < c.num_sets(); ++target) {
    const obs::TraceId trace = obs::MakeTraceId();
    SessionView view = manager.Create({}, trace);
    // The creation select is not a step: nothing is recorded yet.
    EXPECT_TRUE(RecordedSteps(trace).empty());
    SimulatedOracle oracle(&c, target);
    size_t steps = 0;
    while (view.state == SessionState::kAwaitingAnswer) {
      ASSERT_EQ(StepAsRequest(manager, oracle, &view), SessionStatus::kOk);
      ++steps;

      const std::vector<RecordedStep> recorded = RecordedSteps(trace);
      ASSERT_EQ(recorded.size(), steps);
      const obs::Span& last = recorded.back().span;
      EXPECT_STREQ(last.name, "step:answer");
      EXPECT_EQ(SpanAnnotationU64(last, "step"), steps - 1);
      if (view.state == SessionState::kAwaitingAnswer) {
        // A next question was selected, so a counting pass ran and tagged
        // the step. (The final step may skip counting entirely.)
        EXPECT_NE(SpanAnnotation(last, "path"), "unknown");
      }
      EXPECT_GT(last.duration_ns, 0u);
    }
    ASSERT_EQ(view.state, SessionState::kFinished);
    ASSERT_TRUE(view.result.found());
    EXPECT_EQ(view.result.discovered(), target);
  }
}

TEST(SessionTrace, VerifyStepsContinueTheNumbering) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManagerOptions options = TracedOptions();
  options.discovery.verify_and_backtrack = true;
  SessionManager manager(c, idx, options);

  const obs::TraceId trace = obs::MakeTraceId();
  SessionView view = manager.Create({}, trace);
  SimulatedOracle oracle(&c, /*target=*/4);
  size_t steps = 0;
  while (view.state != SessionState::kFinished && steps < 50) {
    ASSERT_EQ(StepAsRequest(manager, oracle, &view), SessionStatus::kOk);
    ++steps;
  }
  ASSERT_TRUE(view.result.confirmed);

  const std::vector<RecordedStep> recorded = RecordedSteps(trace);
  ASSERT_EQ(recorded.size(), steps);
  for (size_t i = 0; i < steps; ++i) {
    EXPECT_EQ(SpanAnnotationU64(recorded[i].span, "step"), i);
  }
  // The last step confirmed the set: a verify span, which names no entity.
  EXPECT_STREQ(recorded.back().span.name, "step:verify");
  EXPECT_EQ(SpanAnnotation(recorded.back().span, "entity"), "");
}

// The acceptance invariant: a traced step's phase latencies decompose its
// step latency. Phases form a hierarchy — cache-lookup/count/order nest
// inside the selector's Select() (the step span's select_ns), and select
// plus emit are disjoint spans inside the step — so nested sums never
// exceed their parent span, and select+emit covers the bulk of the step.
TEST(SessionTrace, PhaseLatenciesDecomposeStepLatency) {
  JourneyOn journey;
  SetCollection c = RandomCollection(/*seed=*/3, /*n=*/200, /*m=*/48, 0.3);
  InvertedIndex idx(c);
  SessionManager manager(c, idx, TracedOptions());

  uint64_t covered = 0;
  uint64_t total = 0;
  size_t answer_steps = 0;
  for (SetId target = 0; target < 8; ++target) {
    const obs::TraceId trace = obs::MakeTraceId();
    SessionView view = manager.Create({}, trace);
    SimulatedOracle oracle(&c, target);
    while (view.state != SessionState::kFinished) {
      ASSERT_EQ(StepAsRequest(manager, oracle, &view), SessionStatus::kOk);
    }

    const std::vector<RecordedStep> recorded = RecordedSteps(trace);
    ASSERT_EQ(recorded.size(), view.result.questions);
    for (const RecordedStep& step : recorded) {
      const uint64_t select = SpanAnnotationU64(step.span, "select_ns");
      const uint64_t emit = PhaseNanos(step, Phase::kEmit);
      const uint64_t inner = PhaseNanos(step, Phase::kCacheLookup) +
                             PhaseNanos(step, Phase::kCount) +
                             PhaseNanos(step, Phase::kOrder);
      const uint64_t index = SpanAnnotationU64(step.span, "step");
      // Nested timers never exceed their enclosing span.
      EXPECT_LE(inner, select) << "step " << index;
      EXPECT_LE(select + emit, step.span.duration_ns) << "step " << index;
      if (std::string_view(step.span.name) == "step:answer") {
        ++answer_steps;
        covered += select + emit;
        total += step.span.duration_ns;
      }
    }
  }
  ASSERT_GT(answer_steps, 0u);
  // In aggregate the instrumented phases account for most of the measured
  // step time; the remainder is transcript/bookkeeping outside any phase.
  EXPECT_GE(covered * 2, total)
      << "phases cover " << covered << "ns of " << total << "ns";
}

}  // namespace
}  // namespace setdisc
