#include "collection/delta_counter.h"

#include <algorithm>
#include <span>
#include <utility>

#include "collection/count_kernels.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace setdisc {

namespace {

/// Process-wide serve-path mix {full, delta, reemit}: the per-instance
/// DeltaCounterStats die with their selector, the registry counters are
/// what live monitoring reads.
obs::Counter* ServeCounter(obs::ServePath path) {
  static obs::Counter* const full = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_delta_serves_total", {{"path", "full"}});
  static obs::Counter* const delta = obs::MetricsRegistry::Default().GetCounter(
      "setdisc_delta_serves_total", {{"path", "delta"}});
  static obs::Counter* const reemit =
      obs::MetricsRegistry::Default().GetCounter("setdisc_delta_serves_total",
                                                 {{"path", "reemit"}});
  switch (path) {
    case obs::ServePath::kDelta: return delta;
    case obs::ServePath::kReemit: return reemit;
    default: return full;
  }
}

void NoteServe(obs::ServePath path) {
  obs::NoteServePath(path);
  if (obs::Enabled()) ServeCounter(path)->Add(1);
}

void CopyMaskIds(const EntityExclusion* excluded, std::vector<EntityId>* out) {
  if (excluded == nullptr) {
    out->clear();
  } else {
    std::span<const EntityId> ids = excluded->excluded_ids();
    out->assign(ids.begin(), ids.end());
  }
}

}  // namespace

bool DeltaCounter::MaskStillCovers(const EntityExclusion* excluded) const {
  for (EntityId e : retained_mask_) {
    if (excluded == nullptr || !excluded->Test(e)) return false;
  }
  return true;
}

void DeltaCounter::EmitFiltered(const EntityExclusion* excluded,
                                std::vector<EntityCount>* out) const {
  out->clear();
  out->reserve(retained_.size());
  for (const EntityCount& ec : retained_) {
    if (excluded != nullptr && excluded->Test(ec.entity)) continue;
    out->push_back(ec);
  }
}

void DeltaCounter::CountInformative(const SubCollection& sub,
                                    std::vector<EntityCount>* out,
                                    const EntityExclusion* excluded) {
  obs::PhaseTimer timer(obs::Phase::kCount);
  if (!enabled_) {
    NoteServe(obs::ServePath::kFull);
    counter_.CountInformative(sub, out, excluded);
    return;
  }
  const uint32_t n = static_cast<uint32_t>(sub.size());
  const uint64_t fp = sub.Fingerprint();
  const bool servable = valid_ && MaskStillCovers(excluded);

  if (servable && pending_ && fp == expected_fp_) {
    // Derivation armed and the view is the expected child. Deriving scans
    // the SMALLER half of the partition dense (its elements) plus one pass
    // over the parent list; recounting scans the kept view's own elements
    // and then pays roughly twice the touched set again for the
    // sort-or-sweep emission and the scratch clear — min(kept, m) is the
    // stand-in for that touched volume. The margin this widens over the
    // old "sibling + m < kept" check is exactly what lets ~even splits
    // (every 1-step selector's steady state) serve differentially.
    const size_t m = retained_.size();
    const size_t kept_cost = sub.TotalElements();
    const size_t sib_cost = sibling_.TotalElements();
    const size_t derive_cost = std::min(kept_cost, sib_cost) + m;
    const size_t full_cost = kept_cost + 2 * std::min(kept_cost, m);
    pending_ = false;
    if (derive_cost < full_cost) {
      // Dropped sibling the smaller half: subtract it out of the parent
      // list (every child entity appears there — closure, see header).
      // Kept view the smaller half: read the child's own counts off while
      // walking the parent list, which skips the recount's touched-sort.
      const bool subtract = sib_cost < kept_cost;
      counter_.CountDense(subtract ? sibling_ : sub);
      const std::span<const uint32_t> dense = counter_.dense();
      const auto derive = subtract ? kernels::SubtractChild
                                   : kernels::GatherChild;
      retained_.resize(derive(retained_.data(), m, dense.data(), dense.size(),
                              n, /*drop_full=*/true, retained_.data()));
      sibling_ = SubCollection();
      counted_fp_ = fp;
      ++stats_.delta;
      NoteServe(obs::ServePath::kDelta);
      EmitFiltered(excluded, out);
      CopyMaskIds(excluded, &last_emit_mask_);
      return;
    }
    // Recounting is cheaper (e.g. the parent list far outgrew the kept
    // view): not a chain break — the full path re-seeds the state as usual.
  } else if (servable && !pending_ && fp == counted_fp_) {
    // Same view again — a SeedChild handoff, the §6 don't-know loop
    // (exclusion grew, candidates did not), or a repeated root Select. No
    // counting: re-filter under the current mask.
    ++stats_.reemits;
    NoteServe(obs::ServePath::kReemit);
    EmitFiltered(excluded, out);
    CopyMaskIds(excluded, &last_emit_mask_);
    return;
  } else if (pending_) {
    // Unknown view with a derivation armed: the chain broke (cache hit
    // skipped a count, backtrack, different collection).
    ++stats_.invalidations;
    pending_ = false;
  }

  sibling_ = SubCollection();
  counter_.CountInformative(sub, &retained_, excluded);
  CopyMaskIds(excluded, &retained_mask_);
  counted_fp_ = fp;
  valid_ = true;
  ++stats_.full;
  NoteServe(obs::ServePath::kFull);
  out->assign(retained_.begin(), retained_.end());
  CopyMaskIds(excluded, &last_emit_mask_);
}

void DeltaCounter::NotePartition(const SubCollection& parent,
                                 const SubCollection& kept,
                                 SubCollection dropped) {
  if (!enabled_) return;
  if (!valid_ || parent.Fingerprint() != counted_fp_) {
    // We never counted this parent (a cache hit answered the last step, or
    // the session started elsewhere): nothing to derive from.
    Invalidate();
    return;
  }
  expected_fp_ = kept.Fingerprint();
  pending_ = true;
  sibling_ = std::move(dropped);
}

void DeltaCounter::SeedChild(const SubCollection& parent,
                             const SubCollection& kept,
                             const std::vector<EntityCount>& half_counts,
                             bool half_is_kept) {
  if (!enabled_) return;
  if (!valid_ || parent.Fingerprint() != counted_fp_) {
    Invalidate();
    return;
  }
  const uint32_t n = static_cast<uint32_t>(kept.size());
  if (half_is_kept) {
    // The counted half IS the next view: keep its informative entries.
    scratch_.clear();
    scratch_.reserve(half_counts.size());
    for (const EntityCount& ec : half_counts) {
      if (ec.count != n) scratch_.push_back(ec);
    }
    retained_.swap(scratch_);
  } else {
    // kept = parent - half: subtract with a two-pointer merge (half_counts
    // is restricted to the parent list, so every entry lines up). Entities
    // masked at the parent's emit are absent from half_counts — subtracting
    // nothing would leave them with a stale parent count, possibly past the
    // child's size. The snapshot gate keeps them masked for as long as this
    // state serves, so dropping them outright loses no candidate, and it
    // keeps every retained count a true child count in [1, n - 1].
    mask_scratch_.assign(last_emit_mask_.begin(), last_emit_mask_.end());
    std::sort(mask_scratch_.begin(), mask_scratch_.end());
    size_t write = 0;
    size_t hi = 0;
    size_t mi = 0;
    for (const EntityCount& pc : retained_) {
      while (mi < mask_scratch_.size() && mask_scratch_[mi] < pc.entity) ++mi;
      if (mi < mask_scratch_.size() && mask_scratch_[mi] == pc.entity) continue;
      uint32_t c = pc.count;
      if (hi < half_counts.size() && half_counts[hi].entity == pc.entity) {
        c -= half_counts[hi].count;
        ++hi;
      }
      if (c != 0 && c != n) retained_[write++] = EntityCount{pc.entity, c};
    }
    retained_.resize(write);
  }
  // The seeded list derives from the last emitted output, so it carries
  // that emit's mask filtering — snapshot accordingly.
  retained_mask_ = last_emit_mask_;
  sibling_ = SubCollection();
  counted_fp_ = kept.Fingerprint();
  pending_ = false;
  ++stats_.delta;
  // A seeded derivation is a delta serve in the registry mix too; the
  // step's own serve path stays whatever its CountInformative reports
  // (typically a re-emit of this list).
  if (obs::Enabled()) ServeCounter(obs::ServePath::kDelta)->Add(1);
}

void DeltaCounter::Invalidate() {
  if (valid_ || pending_) ++stats_.invalidations;
  valid_ = false;
  pending_ = false;
  sibling_ = SubCollection();
}

void DeltaCounter::Release() {
  Invalidate();
  retained_ = {};
  retained_mask_ = {};
  last_emit_mask_ = {};
  scratch_ = {};
  mask_scratch_ = {};
  counter_.Release();
}

}  // namespace setdisc
