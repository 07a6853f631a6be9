#pragma once

/// Shared fixtures for the test suite: the paper's running example (Fig. 1),
/// random-collection generators for property tests, a reader of one
/// session's steps from the journey ring, and a reader of the event ring.

#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "collection/set_collection.h"
#include "collection/sub_collection.h"
#include "obs/event_log.h"
#include "obs/journey.h"
#include "util/rng.h"

namespace setdisc::testing {

// Entity ids for the Fig. 1 example: a=0, b=1, ..., k=10.
inline constexpr EntityId kA = 0, kB = 1, kC = 2, kD = 3, kE = 4, kF = 5,
                          kG = 6, kH = 7, kI = 8, kJ = 9, kK = 10;

/// The collection of Fig. 1:
///   S1={a,b,c,d} S2={a,d,e} S3={a,b,c,d,f} S4={a,b,c,g,h}
///   S5={a,b,h,i} S6={a,b,j,k} S7={a,b,g}
inline SetCollection MakePaperCollection() {
  SetCollectionBuilder b;
  b.AddSet({kA, kB, kC, kD}, "S1");
  b.AddSet({kA, kD, kE}, "S2");
  b.AddSet({kA, kB, kC, kD, kF}, "S3");
  b.AddSet({kA, kB, kC, kG, kH}, "S4");
  b.AddSet({kA, kB, kH, kI}, "S5");
  b.AddSet({kA, kB, kJ, kK}, "S6");
  b.AddSet({kA, kB, kG}, "S7");
  return b.Build();
}

/// The §4.3 variant collection C2: same as Fig. 1 except S1={a,b,c} and
/// S4={a,b,c,d,g,h}.
inline SetCollection MakePaperCollectionC2() {
  SetCollectionBuilder b;
  b.AddSet({kA, kB, kC}, "S1");
  b.AddSet({kA, kD, kE}, "S2");
  b.AddSet({kA, kB, kC, kD, kF}, "S3");
  b.AddSet({kA, kB, kC, kD, kG, kH}, "S4");
  b.AddSet({kA, kB, kH, kI}, "S5");
  b.AddSet({kA, kB, kJ, kK}, "S6");
  b.AddSet({kA, kB, kG}, "S7");
  return b.Build();
}

/// The §6 dead end: sets {x}, {a,b}, {a} with b = 0, a = 1, x = 2, so the
/// root's most-even tie goes to b. Once b is excluded (a don't-know), the
/// half {a,b},{a} has no entity left to ask, yet a and x still split the
/// three sets.
inline constexpr EntityId kDeadEndB = 0, kDeadEndA = 1, kDeadEndX = 2;
inline SetCollection MakeDeadEndCollection() {
  SetCollectionBuilder b;
  b.AddSet({kDeadEndX});
  b.AddSet({kDeadEndB, kDeadEndA});
  b.AddSet({kDeadEndA});
  return b.Build();
}

/// A random collection of `n` unique sets over `m` entities where each
/// entity joins each set with probability `density`. Sets are regenerated
/// until unique and non-empty, so the result always has exactly n sets.
inline SetCollection RandomCollection(uint64_t seed, uint32_t n, uint32_t m,
                                      double density) {
  Rng rng(seed);
  SetCollectionBuilder builder;
  uint32_t added = 0;
  int guard = 0;
  while (added < n && guard < 100000) {
    ++guard;
    std::vector<EntityId> elems;
    for (EntityId e = 0; e < m; ++e) {
      if (rng.Bernoulli(density)) elems.push_back(e);
    }
    if (elems.empty()) continue;
    builder.AddSet(std::move(elems));
    // Optimistically count; Build() dedups, so verify at the end.
    ++added;
  }
  std::vector<SetId> mapping;
  SetCollection c = builder.Build(&mapping);
  if (c.num_sets() == n) return c;
  // Duplicates collapsed: top up with sets carrying fresh distinguishing
  // entities (keeps exactly n unique sets).
  SetCollectionBuilder again;
  for (SetId s = 0; s < c.num_sets(); ++s) {
    again.AddSet({c.set(s).begin(), c.set(s).end()});
  }
  EntityId fresh = m;
  while (again.num_pending() < n) {
    std::vector<EntityId> elems = {fresh++};
    for (EntityId e = 0; e < m; ++e) {
      if (rng.Bernoulli(density)) elems.push_back(e);
    }
    again.AddSet(std::move(elems));
  }
  return again.Build();
}

/// Turns journey tracing on for one test and restores the default after.
struct JourneyOn {
  JourneyOn() { obs::SetJourneyEnabled(true); }
  ~JourneyOn() { obs::SetJourneyEnabled(false); }
};

/// One recorded step of a session: its `step:answer` / `step:verify` span
/// and that span's phase children.
struct RecordedStep {
  obs::Span span;
  std::vector<obs::Span> phases;
};

/// The steps of trace `trace` in the process journey ring, oldest first —
/// a session's per-step record, read by filtering on its trace id.
inline std::vector<RecordedStep> RecordedSteps(obs::TraceId trace) {
  std::vector<RecordedStep> steps;
  for (const obs::Span& s : obs::Journey().Snapshot()) {
    if (s.trace_hi != trace.hi || s.trace_lo != trace.lo) continue;
    if (std::string_view(s.name).starts_with("step:")) {
      steps.push_back({s, {}});
    } else if (!steps.empty() && s.parent_id == steps.back().span.span_id) {
      steps.back().phases.push_back(s);  // pushed right after their step
    }
  }
  return steps;
}

/// The value of annotation `key` on `span`, or "" when it has none.
inline std::string SpanAnnotation(const obs::Span& span, std::string_view key) {
  for (uint8_t i = 0; i < span.num_annotations; ++i) {
    if (key == span.ann_key[i]) return span.ann_value[i];
  }
  return "";
}

/// A numeric annotation (AnnotateU64) of `span`; 0 when it has none.
inline uint64_t SpanAnnotationU64(const obs::Span& span, std::string_view key) {
  return std::strtoull(SpanAnnotation(span, key).c_str(), nullptr, 10);
}

/// The summed duration of the phase children named `phase`.
inline uint64_t PhaseNanos(const RecordedStep& step, obs::Phase phase) {
  uint64_t ns = 0;
  for (const obs::Span& child : step.phases) {
    if (std::string_view(child.name) == obs::PhaseName(phase)) {
      ns += child.duration_ns;
    }
  }
  return ns;
}

/// The events of kind `kind` recorded from ticket `first` on (read
/// obs::Events().total() before the action under test), oldest first.
inline std::vector<obs::Span> EventsSince(uint64_t first,
                                          obs::FlightEventKind kind) {
  const obs::JourneyRing& events = obs::Events();
  std::vector<obs::Span> out;
  obs::Span span;
  for (uint64_t t = first; t < events.total(); ++t) {
    if (events.Read(t, &span) &&
        std::string_view(span.name) == obs::FlightEventKindName(kind)) {
      out.push_back(span);
    }
  }
  return out;
}

}  // namespace setdisc::testing
