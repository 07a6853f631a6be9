#pragma once

/// \file klp.h
/// Algorithm 1 of the paper — K-Lookahead with Pruning (k-LP) — and its
/// beam-limited variants k-LPLE and k-LPLVE (§4.4), plus the unpruned
/// exhaustive lookahead ("gain-k", Esmeir & Markovitch style) used as the
/// Fig. 4 comparator. One implementation, options-controlled, so ablations
/// isolate exactly the paper's pruning contributions:
///
///  * sorted candidate order + early break         (Algorithm 1, lines 11/14)
///  * upper limits passed to recursive calls        (Eqs. 11–14, lines 22/29)
///  * memoization of (sub-collection, k) results    (lines 1–6, 9, 37)
///  * beam limits q (k-LPLE) / variable beam (k-LPLVE)
///
/// Cost bookkeeping is exact-integer (see cost.h), which Lemma 4.4's safety
/// argument requires.

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "collection/delta_counter.h"
#include "collection/entity_counter.h"
#include "collection/sub_collection.h"
#include "core/cost.h"
#include "core/instrumentation.h"
#include "core/selector.h"

namespace setdisc {

/// Configuration of the lookahead family.
struct KlpOptions {
  /// Lookahead depth k (>= 1). k = 1 degenerates to MostEven / InfoGain
  /// (Lemma 4.3). Use MakeOptimal() for the exact search.
  int k = 2;

  CostMetric metric = CostMetric::kAvgDepth;

  /// Beam width q: number of candidate entities considered per step, in
  /// most-even order. <= 0 means unlimited (plain k-LP).
  int beam_width = -1;

  /// k-LPLVE: beam_width applies to the top-level call only; recursive
  /// lower-bound steps greedily consider a single entity.
  bool variable_beam = false;

  /// Master switches for the ablation study; production defaults are all on.
  bool enable_early_break = true;   ///< sorted early break (line 14)
  bool enable_upper_limits = true;  ///< child ULs, Eqs. 11–14
  bool enable_memoization = true;   ///< Cache[(C, k)]
  /// When false, candidates are scanned in entity-id order instead of
  /// most-even order (disables the line-11 sort; forces early break off
  /// since the break is only sound on sorted candidates).
  bool sort_candidates = true;

  /// Differential counting (collection/delta_counter.h). Inside the
  /// lookahead, both children of a candidate partition are counted by
  /// scanning only the smaller half and deriving the larger from the node's
  /// own counts by subtraction — the dominant saving, since k-LP counts at
  /// every lookahead child; across steps, the top-level counts are derived
  /// from the previous step's via the NotePartition chain. Decisions are
  /// byte-identical either way (the delta parity suite pins it); off is the
  /// full-recount baseline for bench_counting and ablations.
  bool enable_delta_counting = true;

  /// Record per-node pruning stats (Table 4) in stats().per_node.
  bool record_per_node_stats = false;

  /// Safety valve for the memo cache (entries), cleared when exceeded.
  size_t max_cache_entries = 1 << 22;

  /// Named presets matching the paper's configurations.
  static KlpOptions MakeKlp(int k, CostMetric metric);
  static KlpOptions MakeKlple(int k, int q, CostMetric metric);
  static KlpOptions MakeKlplve(int k, int q, CostMetric metric);
  /// Unpruned exhaustive k-step lookahead (the paper's gain-k comparator).
  static KlpOptions MakeGainK(int k, CostMetric metric);
  /// Exact optimal search: k-LP with k >= height of any tree (§4.4.1).
  static KlpOptions MakeOptimal(CostMetric metric);
};

/// Result of one lookahead selection.
struct KlpSelection {
  EntityId entity = kNoEntity;  ///< kNoEntity if everything was pruned
  Cost bound = kInfiniteCost;   ///< the k-step lower bound of `entity`
};

/// The k-LP selector family (Algorithm 1 wrapped in the Υ interface).
class KlpSelector : public EntitySelector {
 public:
  explicit KlpSelector(KlpOptions options);
  ~KlpSelector() override;

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override;

  /// Full Algorithm 1 entry point: selection plus its k-step bound, with a
  /// caller-supplied upper limit (kInfiniteCost for unconstrained).
  KlpSelection SelectWithBound(const SubCollection& sub, Cost upper_limit,
                               const EntityExclusion* excluded = nullptr);

  std::string_view name() const override { return name_; }
  const KlpOptions& options() const { return options_; }

  /// Load-adaptive degradation: each effort level shaves one step off the
  /// lookahead depth, clamped so even a saturated controller still gets a
  /// 1-step (MostEven-equivalent, Lemma 4.3) decision — degraded answers
  /// are worse questions, never wrong ones. Level 0 is byte-identical to a
  /// selector without the knob: the same k reaches SelectImpl and the
  /// fingerprint below is untouched. The memo cache needs no flush on
  /// transition because k is part of MemoKey.
  void SetEffort(int level) override { effort_ = level < 0 ? 0 : level; }
  int effort() const { return effort_; }

  /// Effective lookahead depth under the current effort level.
  int effective_k() const {
    int k = options_.k - effort_;
    return k < 1 ? 1 : k;
  }

  /// Mixes the effective depth in whenever degradation actually changes it,
  /// so shared SelectionCache entries written by a degraded session are
  /// never served to a full-effort one (or vice versa). When effort leaves
  /// the depth unchanged (level 0, or k == 1 already), the fingerprint is
  /// bit-equal to the undegraded one and cache hits keep flowing.
  uint64_t DecisionFingerprint() const override {
    uint64_t fp = FingerprintString(name_);
    if (effective_k() != options_.k) {
      fp ^= 0x9E3779B97F4A7C15ULL *
            (static_cast<uint64_t>(effective_k()) + 0x51ED2701);
    }
    return fp;
  }

  const KlpStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Drops all memoized results (e.g. between unrelated collections).
  void ClearCache();
  size_t cache_size() const;

  /// Differential-counting hooks: the top-level counting pass of each
  /// Select() chains across session steps through delta_counter_ — and when
  /// the answered entity is the one this selector just chose, its lookahead
  /// already counted both partition halves, so the next step's top counts
  /// are seeded outright (SeedChild) and that count becomes a free re-emit.
  /// Memo hits skip the chain, and the fingerprint check falls back to a
  /// full count whenever it broke.
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override;
  void InvalidateCountState() override;
  void ReleaseMemory() override;

  /// Full/delta/re-emit breakdown of the top-level (cross-step) counting.
  const DeltaCounterStats& counting_stats() const {
    return delta_counter_.stats();
  }

 private:
  struct MemoKey {
    std::vector<SetId> ids;
    int32_t k;
    int32_t beam;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const;
  };
  struct MemoEntry {
    EntityId entity;
    Cost bound;
  };

  /// Ingredients for deriving a lookahead child's counts from its parent
  /// node's instead of recounting (Algorithm 1's recursion counts BOTH
  /// halves of every candidate partition — this collapses that to one
  /// dense scan of the smaller half per candidate, shared by the two
  /// children, with no sort and no list emission). Built per candidate in
  /// the parent's loop; materialized lazily so a child that memo-hits never
  /// triggers the scan.
  struct DeltaHint {
    /// The parent node's candidate list in ascending entity order (the
    /// pre-sort copy) — informative for the parent, exclusion-filtered.
    const std::vector<EntityCount>* parent_asc;
    /// The smaller partition half by set count (ties: the containing half).
    const SubCollection* small;
    /// The parent level's counter; lazily holds CountDense(*small), which
    /// both children read by O(1) dense lookup while walking parent_asc.
    EntityCounter* counter;
    bool* dense_valid;
  };

  KlpSelection SelectImpl(const SubCollection& sub, int k, Cost upper_limit,
                          bool top, const EntityExclusion* excluded,
                          NodeStats* node_stats, const DeltaHint* hint);

  /// Fills `counts` with what CountInformative(sub, excluded) would emit,
  /// using the hint: count the smaller half once (lazily), then either
  /// filter it (we are the smaller half) or subtract it from the parent's
  /// list (we are the larger).
  void MaterializeFromHint(const SubCollection& sub, const DeltaHint& hint,
                           const EntityExclusion* excluded,
                           std::vector<EntityCount>* counts);

  KlpOptions options_;
  std::string name_;
  /// Current degradation level (0 = full effort); see SetEffort().
  int effort_ = 0;
  EntityCounter counter_;
  /// Top-level cross-step counting state; recursion levels use the
  /// DeltaHint scheme instead (their parent's counts are on the stack).
  DeltaCounter delta_counter_;
  KlpStats stats_;
  std::unordered_map<MemoKey, MemoEntry, MemoKeyHash> cache_;
  /// Reusable per-recursion-level scratch. Each level owns a counter so a
  /// node's dense smaller-half counts stay live while its children (which
  /// dense-count on their own level) derive from them.
  struct LevelScratch {
    std::vector<EntityCount> counts;  ///< candidate list (sorted in place)
    std::vector<EntityCount> asc;     ///< ascending copy for child hints
    EntityCounter counter;            ///< smaller-half dense counts
  };
  std::vector<std::unique_ptr<LevelScratch>> scratch_;
  int depth_ = 0;

  /// Lookahead reuse: the smaller-half counts (restricted to the top node's
  /// candidate list) of the candidate currently winning the loop,
  /// snapshotted each time `best` improves. If the session then partitions
  /// on exactly that entity, NotePartition seeds the child's counts from it
  /// — the dominant cross-step saving for k-LP, since the winning candidate
  /// is precisely the one whose halves the lookahead counted.
  std::vector<EntityCount> best_small_counts_;
  EntityId best_small_entity_ = kNoEntity;
  bool best_small_is_in_ = false;  ///< smaller half == containing half?
  bool best_small_valid_ = false;
};

}  // namespace setdisc
