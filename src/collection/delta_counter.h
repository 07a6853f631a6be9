#pragma once

/// \file delta_counter.h
/// Differential counting: derive a child's entity counts from its parent's
/// instead of recounting.
///
/// The paper's cost model makes the per-step counting pass over the
/// candidate sub-collection the dominant cost of every selector. But the
/// steps of a session are not independent scans: `Partition(e)` splits C
/// into (C1, C2) with counts(C2) = counts(C) - counts(C1) exactly, and the
/// parent's counts were just computed. A DeltaCounter therefore retains the
/// counts of the last view it counted, and when told that the next view is
/// one half of a partition of that view, produces the child's counts by
/// dense-counting only the *smaller* half of the partition — the kept view
/// itself or the dropped sibling, whichever has fewer elements — and
/// deriving the rest with one sequential pass over the parent's list
/// (collection/count_kernels.h: GatherChild when the kept half was scanned,
/// SubtractChild when the sibling was). Either way the derivation skips the
/// touched-list sort and separate emission a recount pays, which is why it
/// serves even for the ~even splits the 1-step selectors produce.
///
/// Four paths, chosen per call by the view's fingerprint and a cost check:
///
///   * full     — the view is unknown: count it, retain, emit;
///   * delta    — the view is the expected child of the retained parent and
///                scanning the smaller half plus one derivation pass is
///                cheaper than rescanning the view: do that;
///   * seeded   — the caller already counted one half of the partition
///                (k-LP's lookahead counts both halves of the candidate it
///                chooses) and handed it to SeedChild, which derives the
///                child's list at partition time: the next count of that
///                child is then a re-emit;
///   * re-emit  — the view IS the retained view: no counting at all, just
///                re-filter the retained list (also the §6 don't-know loop:
///                exclusion added, re-select on the same candidates).
///
/// Representation: the retained state is the *informative* count list of
/// the view — exactly what CountInformative emits, entities with
/// 0 < c < |view| in ascending order, filtered by the exclusion mask in
/// force when it was computed — plus a snapshot of which entities that mask
/// excluded. That closure is what makes derivation sound: an entity
/// uninformative at any ancestor (present in all or none of its sets) is
/// uninformative in every descendant, and an entity masked out at retention
/// time can only be re-admitted by *removing* it from the mask — which the
/// serve gate detects: retained state is served only while every
/// snapshotted exclusion is still excluded (O(snapshot) per check; §6 masks
/// are small and only grow, so in sessions the gate always passes), any
/// other mask falls back to a full recount. Every emit path additionally
/// re-applies the current mask, so output stays byte-identical to
/// EntityCounter::CountInformative on the same (view, mask) for ARBITRARY
/// mask sequences — not just growing ones — the invariant the randomized
/// delta parity suite pins.
///
/// Who arms it: the discovery session reports each answer's partition via
/// EntitySelector::NotePartition (service/discovery_session.cc), handing
/// over the dropped half it would otherwise free. Anything that breaks the
/// parent chain — a backtrack, a cache hit that skipped counting, a fresh
/// session on other candidates — just fails the fingerprint check and falls
/// back to a full count, which re-seeds the state. Single-thread confinement
/// like every counting scratch: one DeltaCounter per selector per session.

#include <cstdint>
#include <vector>

#include "collection/entity_counter.h"
#include "collection/sub_collection.h"
#include "collection/types.h"

namespace setdisc {

/// Where each counting call was served. `full` seeds the state, `delta`
/// covers the sibling-count derivations (including SeedChild handoffs),
/// `reemits` are the count-free paths; invalidations count explicit resets
/// (backtracks) plus chain breaks detected by the fingerprint check.
struct DeltaCounterStats {
  uint64_t full = 0;
  uint64_t delta = 0;
  uint64_t reemits = 0;
  uint64_t invalidations = 0;

  uint64_t total() const { return full + delta + reemits; }
};

/// A counting workspace that retains the last result for derivation.
/// Drop-in for EntityCounter::CountInformative; not thread-safe.
class DeltaCounter {
 public:
  DeltaCounter() = default;

  /// When disabled, every call recounts from scratch with no retention —
  /// the full-recount baseline bench_counting compares against.
  void set_enabled(bool enabled) {
    enabled_ = enabled;
    if (!enabled_) Release();
  }
  bool enabled() const { return enabled_; }

  /// Appends to `out` every informative entity of `sub` with its count, in
  /// ascending entity-id order, skipping entities marked in `excluded` —
  /// byte-identical to EntityCounter::CountInformative — via whichever of
  /// the paths above is valid and cheapest.
  void CountInformative(const SubCollection& sub, std::vector<EntityCount>* out,
                        const EntityExclusion* excluded = nullptr);

  /// Declares that `kept` and `dropped` are the two halves of a partition of
  /// `parent`. If the retained counts describe `parent`, arms the delta path
  /// for the next CountInformative(kept); otherwise invalidates. Takes
  /// ownership of `dropped` (the caller was about to free it anyway).
  void NotePartition(const SubCollection& parent, const SubCollection& kept,
                     SubCollection dropped);

  /// NotePartition for a caller that already counted one half of the
  /// partition. `half_counts` are that half's counts restricted to the
  /// parent's retained list (which is how k-LP's lookahead derives them):
  /// ascending, every entity of the parent list whose count in the half is
  /// non-zero, uninformative-within-the-half entries included. If the
  /// retained counts describe `parent`, the kept child's list is derived
  /// right here — filtering `half_counts` if `half_is_kept`, subtracting it
  /// from the parent list otherwise — and the next CountInformative(kept)
  /// is a count-free re-emit; otherwise invalidates.
  void SeedChild(const SubCollection& parent, const SubCollection& kept,
                 const std::vector<EntityCount>& half_counts,
                 bool half_is_kept);

  /// Forgets the retained counts and any armed partition; the next count is
  /// full. Called on backtracks and verify failures, where the candidate
  /// view jumps to an ancestor state.
  void Invalidate();

  /// Invalidate() plus freeing all retained memory, including the inner
  /// counter's dense scratch — the shrink-on-idle hook SessionManager calls
  /// on parked sessions.
  void Release();

  const DeltaCounterStats& stats() const { return stats_; }

 private:
  /// Serve gate: every entity the retention-time mask excluded must still be
  /// excluded, or the retained list may be missing candidates the current
  /// mask would admit. (Entities the current mask excludes *beyond* the
  /// snapshot are the emit filter's job.)
  bool MaskStillCovers(const EntityExclusion* excluded) const;

  /// out = retained_, minus entities the (current) mask excludes. The
  /// retained list is informative by construction, so this is the whole
  /// emit filter.
  void EmitFiltered(const EntityExclusion* excluded,
                    std::vector<EntityCount>* out) const;

  EntityCounter counter_;
  bool enabled_ = true;

  /// Retained state: the informative count list of the view with
  /// fingerprint counted_fp_, filtered by the mask snapshot retained_mask_;
  /// emits re-apply the current mask. Meaningful only while valid_.
  std::vector<EntityCount> retained_;
  std::vector<EntityId> retained_mask_;
  uint64_t counted_fp_ = 0;
  bool valid_ = false;
  /// Armed derivation: the dropped half of a partition of the retained
  /// view, whose kept half (fingerprint expected_fp_) is counted next.
  bool pending_ = false;
  uint64_t expected_fp_ = 0;
  SubCollection sibling_;
  /// The mask the last CountInformative emitted under: what a
  /// SeedChild list (derived from that emitted output) is filtered by.
  std::vector<EntityId> last_emit_mask_;

  DeltaCounterStats stats_;
  std::vector<EntityCount> scratch_;
  std::vector<EntityId> mask_scratch_;
};

}  // namespace setdisc
