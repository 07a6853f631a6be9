#pragma once

/// \file lookahead.h
/// Algorithm 1 of the paper — K-Lookahead with Pruning (k-LP) — written
/// once and parameterised at compile time by a cost model. k-LP
/// (klp.h: the paper's AD/H costs) and weighted k-LP (weighted_klp.h: the
/// §7 Shannon cost under a prior) are this search with different models.
///
/// The search, per node C with lookahead depth k:
///
///  * exactness clamp k <= |C| (no tree over n sets is taller than n - 1),
///    then a fast reject when the upper limit is at or below LB_0(C);
///  * memo lookup on (C, k, beam) (lines 1-6, 9, 37), skipped under
///    exclusions since those change the candidates;
///  * counting of the informative, non-excluded entities: the session-facing
///    root chains across steps through a DeltaCounter, and every lookahead
///    child derives its counts from its parent's (one dense scan of the
///    smaller partition half serves both children);
///  * k <= 1: the candidate minimising LB_1 (lines 7-10);
///  * otherwise the line-11 order (the model's order key, then entity id),
///    the k-LPLE beam q (or k-LPLVE's variable beam: q at the top, 1 below),
///    the line-14 early break on LB_1, and the two children under the upper
///    limits of Eqs. 11-14, whose bounds Combine into the candidate's. The
///    strict minimum wins, so ties resolve to the earlier candidate.
///
/// A child with >= 2 sets and no informative, non-excluded entity (only
/// possible under §6 exclusions) cannot be narrowed: it contributes its
/// LB_0 to Combine instead of pruning the candidate. kNoEntity comes back
/// only when the node itself has nothing to ask, or nothing beats the limit.
///
/// A cost model supplies, with no virtual calls:
///
///   Candidate                  per-entity record (EntityCount or richer)
///   Node Prepare(sub)          per-node sums the bounds below need
///   Weigh(sub, node, counts, scratch) -> std::vector<Candidate>&
///                              candidates of the node, from its counts
///   Lb0(node), Lb1(node, c), Combine(node, l_in, l_out)
///   UpperLimitFirst(node, c, best), UpperLimitSecond(node, best, l_in)
///   OrderKey(node, c)          the line-11 evenness key, smaller first
///   kLb1MonotoneInOrder        LB_1 is non-decreasing in OrderKey, and
///                              OrderKey is the set-count imbalance of
///                              EntityCount candidates. Then the early break
///                              is a sorted `break` (otherwise a
///                              per-candidate `continue`), the k <= 1 case
///                              is the OrderKey minimum (the beam cannot
///                              cut it), and line 11 is a counting sort
///                              (kernels::OrderByImbalance, O(m + n)) rather
///                              than std::sort.
///   Release()                  frees the model's scratch
///
/// Bound comparisons are exact-integer (cost.h), which Lemma 4.4's safety
/// argument requires.

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "collection/count_kernels.h"
#include "collection/delta_counter.h"
#include "collection/entity_counter.h"
#include "collection/fingerprint.h"
#include "collection/sub_collection.h"
#include "core/cost.h"
#include "core/instrumentation.h"
#include "core/selector.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace setdisc {

/// Configuration of the lookahead family.
struct KlpOptions {
  /// Lookahead depth k (>= 1). k = 1 degenerates to MostEven / InfoGain
  /// (Lemma 4.3). Use MakeOptimal() for the exact search.
  int k = 2;

  /// The paper's metric, for k-LP's cost model (the weighted model has its
  /// own cost and ignores it).
  CostMetric metric = CostMetric::kAvgDepth;

  /// Beam width q: number of candidate entities considered per step, in
  /// line-11 order. <= 0 means unlimited (plain k-LP).
  int beam_width = -1;

  /// k-LPLVE: beam_width applies to the top-level call only; recursive
  /// lower-bound steps greedily consider a single entity.
  bool variable_beam = false;

  /// Master switches for the ablation study; production defaults are all on.
  bool enable_early_break = true;   ///< early break (line 14)
  bool enable_upper_limits = true;  ///< child ULs, Eqs. 11–14
  bool enable_memoization = true;   ///< Cache[(C, k)]
  /// When false, candidates are scanned in entity-id order instead of
  /// line-11 order (the early break then skips candidates one by one).
  bool sort_candidates = true;

  /// Differential counting (collection/delta_counter.h) at the root across
  /// steps and for every lookahead child. Decisions are byte-identical
  /// either way (the delta parity suite pins it); off is the full-recount
  /// baseline for bench_counting and ablations.
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

/// Adds one top-level selection's pruning counters to the process registry
/// (the per-instance KlpStats die with their session's selector).
void PublishKlpNodeStats(const NodeStats& node);

/// Algorithm 1 behind the Υ interface, for the cost model `CostModel`.
template <class CostModel>
class LookaheadSelector : public EntitySelector {
 public:
  using Candidate = typename CostModel::Candidate;

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override {
    return SelectWithBound(sub, kInfiniteCost, excluded).entity;
  }

  /// Full Algorithm 1 entry point: selection plus its k-step bound, with a
  /// caller-supplied upper limit (kInfiniteCost for unconstrained).
  KlpSelection SelectWithBound(const SubCollection& sub, Cost upper_limit,
                               const EntityExclusion* excluded = nullptr) {
    if (sub.size() < 2) return {kNoEntity, 0};
    if (cache_.size() > options_.max_cache_entries) ClearCache();
    NodeStats node;
    depth_ = 0;
    // The winner snapshot of the last search described the previous view.
    best_small_valid_ = false;
    const Outcome r = Search(sub, effective_k(), upper_limit, /*top=*/true,
                             excluded, &node, /*small=*/nullptr);
    stats_.totals.candidates += node.candidates;
    stats_.totals.fully_evaluated += node.fully_evaluated;
    stats_.totals.pruned_by_break += node.pruned_by_break;
    stats_.totals.pruned_by_child += node.pruned_by_child;
    stats_.totals.excluded_by_beam += node.excluded_by_beam;
    if (options_.record_per_node_stats) stats_.per_node.push_back(node);
    if (obs::Enabled()) PublishKlpNodeStats(node);
    if (r.dead_end) return {kNoEntity, upper_limit};
    return {r.entity, r.bound};
  }

  std::string_view name() const override { return name_; }

  /// Load-adaptive degradation: each effort level shaves one step off the
  /// lookahead depth, down to 1 (MostEven-equivalent, Lemma 4.3) — worse
  /// questions, never wrong ones. Level 0 is byte-identical to a selector
  /// without the knob, and the memo needs no flush since k is in its key.
  void SetEffort(int level) override { effort_ = level < 0 ? 0 : level; }
  int effective_k() const {
    const int k = options_.k - effort_;
    return k < 1 ? 1 : k;
  }

  /// Mixes the effective depth in whenever degradation changes it, so
  /// shared SelectionCache entries of a degraded session are never served
  /// to a full-effort one (or vice versa); otherwise it is the name's hash.
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
  void ClearCache() { cache_.clear(); }
  size_t cache_size() const { return cache_.size(); }

  /// Cross-step counting: the root count of each Select() chains through
  /// the DeltaCounter. When the answered entity is the one just chosen, the
  /// lookahead already counted a half of exactly this partition, so the
  /// next root count is seeded outright (SeedChild) and becomes a re-emit.
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override {
    if (best_small_valid_ && e == best_small_entity_) {
      delta_counter_.SeedChild(parent, kept, best_small_counts_,
                               /*half_is_kept=*/best_small_is_in_ ==
                                   kept_contains);
    } else {
      delta_counter_.NotePartition(parent, kept, std::move(dropped));
    }
    best_small_valid_ = false;
  }
  void InvalidateCountState() override {
    delta_counter_.Invalidate();
    best_small_valid_ = false;
  }
  void ReleaseMemory() override {
    delta_counter_.Release();
    cache_.clear();
    cache_.rehash(0);
    scratch_.clear();
    best_small_counts_ = {};
    best_small_valid_ = false;
    model_.Release();
  }

  /// Full/delta/re-emit breakdown of the root (cross-step) counting.
  const DeltaCounterStats& counting_stats() const {
    return delta_counter_.stats();
  }

 protected:
  LookaheadSelector(KlpOptions options, CostModel model, std::string name)
      : model_(std::move(model)), options_(options), name_(std::move(name)) {
    SETDISC_CHECK(options_.k >= 1);
    delta_counter_.set_enabled(options_.enable_delta_counting);
  }

  CostModel model_;

 private:
  struct MemoKey {
    std::vector<SetId> ids;
    int32_t k;
    int32_t beam;
    bool operator==(const MemoKey&) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey& key) const {
      uint64_t h = 1469598103934665603ULL;
      for (SetId s : key.ids) {
        h ^= s;
        h *= 1099511628211ULL;
        h ^= h >> 29;
      }
      h ^= static_cast<uint64_t>(key.k) * 0x9E3779B97F4A7C15ULL;
      h ^= static_cast<uint64_t>(static_cast<uint32_t>(key.beam)) *
           0xC2B2AE3D27D4EB4FULL;
      return static_cast<size_t>(h);
    }
  };

  /// What a node's search found. `dead_end`: the node has >= 2 sets but no
  /// entity to ask, and `bound` is its LB_0.
  struct Outcome {
    EntityId entity;
    Cost bound;
    bool dead_end;
  };

  /// Per-recursion-level scratch. Each level owns a counter so a node's
  /// dense smaller-half counts stay live while its children derive from
  /// them on their own levels.
  struct Level {
    /// Informative counts, ascending; the line-11 order is written
    /// elsewhere, so the children derive from this list.
    std::vector<EntityCount> counts;
    std::vector<Candidate> cands;   ///< model scratch for Weigh()
    std::vector<Candidate> sorted;  ///< counting-sorted line-11 order
    std::vector<uint32_t> bucket;   ///< counting-sort scratch
    EntityCounter counter;          ///< own counts, then smaller-half ones
    bool dense_valid = false;  ///< counter holds the current smaller half
  };

  /// Fills a lookahead child's `counts` from its parent level's, which
  /// would emit the same as CountInformative(sub, excluded): the smaller
  /// half `small` is dense-counted once, lazily (so a child that memo-hits
  /// never scans), then filtered if we are it or subtracted from the
  /// parent's list if we are the larger half. The parent's list already
  /// carries the exclusion mask, and an entity uninformative at the parent
  /// is uninformative in both children; the drop_full filter is the child's
  /// own informative test.
  void CountFromParent(const SubCollection& sub, const SubCollection& small,
                       Level& parent, std::vector<EntityCount>* counts) {
    if (!parent.dense_valid) {
      parent.counter.CountDense(small);
      parent.dense_valid = true;
    }
    const std::span<const uint32_t> dense = parent.counter.dense();
    const size_t m = parent.counts.size();
    const uint32_t n = static_cast<uint32_t>(sub.size());
    counts->resize(m);
    counts->resize(
        &sub == &small
            ? kernels::GatherChild(parent.counts.data(), m, dense.data(),
                                   dense.size(), n, /*drop_full=*/true,
                                   counts->data())
            : kernels::SubtractChild(parent.counts.data(), m, dense.data(),
                                     dense.size(), n, /*drop_full=*/true,
                                     counts->data()));
  }

  /// `small`: the smaller half of the parent's partition, when this node
  /// derives its counts from the parent level's; nullptr to count afresh.
  Outcome Search(const SubCollection& sub, int k, Cost upper_limit, bool top,
                 const EntityExclusion* excluded, NodeStats* node_stats,
                 const SubCollection* small) {
    ++stats_.recursive_calls;
    const uint64_t n = sub.size();
    SETDISC_CHECK(n >= 2);
    // Clamping also canonicalizes memo keys, which makes "Optimal" a proper
    // dynamic program.
    if (k > static_cast<int>(n)) k = static_cast<int>(n);

    const typename CostModel::Node node = model_.Prepare(sub);
    if (options_.enable_upper_limits && upper_limit <= model_.Lb0(node)) {
      return {kNoEntity, upper_limit, false};
    }

    const int beam = top || !options_.variable_beam ? options_.beam_width : 1;
    const bool use_memo = options_.enable_memoization && excluded == nullptr;
    MemoKey memo_key;
    if (use_memo) {
      memo_key.ids.assign(sub.ids().begin(), sub.ids().end());
      memo_key.k = k;
      memo_key.beam = beam;
      auto it = cache_.find(memo_key);
      if (it != cache_.end()) {
        ++stats_.cache_hits;
        if (upper_limit <= it->second.bound) {
          return {kNoEntity, it->second.bound, false};
        }
        if (it->second.entity != kNoEntity) {
          return {it->second.entity, it->second.bound, false};
        }
        // "Nothing below a laxer limit than ours": recompute and overwrite.
      } else {
        ++stats_.cache_misses;
      }
    }

    if (depth_ >= static_cast<int>(scratch_.size())) {
      scratch_.emplace_back(std::make_unique<Level>());
    }
    Level& level = *scratch_[depth_];
    std::vector<EntityCount>& counts = level.counts;
    if (small != nullptr) {
      CountFromParent(sub, *small, *scratch_[depth_ - 1], &counts);
    } else if (top) {
      delta_counter_.CountInformative(sub, &counts, excluded);
    } else {
      level.counter.CountInformative(sub, &counts, excluded);
    }
    if (counts.empty()) return {kNoEntity, model_.Lb0(node), true};
    if (node_stats != nullptr) node_stats->candidates = counts.size();
    std::vector<Candidate>& cands =
        model_.Weigh(sub, node, counts, level.cands);

    // Line-11 order: evenness key, then entity id.
    const auto before = [&](const Candidate& a, const Candidate& b) {
      const auto ka = model_.OrderKey(node, a);
      const auto kb = model_.OrderKey(node, b);
      if (ka != kb) return ka < kb;
      return a.entity < b.entity;
    };

    // Base case (lines 7-10): the LB_1 minimum, ties in line-11 order.
    if (k <= 1) {
      const Candidate* win = &cands[0];
      if constexpr (CostModel::kLb1MonotoneInOrder) {
        // The first least key (`cands` ascends by entity) is the LB_1
        // minimum, and no beam can cut it.
        auto win_key = model_.OrderKey(node, *win);
        for (const Candidate& c : cands) {
          const auto key = model_.OrderKey(node, c);
          if (key < win_key) {
            win = &c;
            win_key = key;
          }
        }
      } else {
        if (beam > 0 && static_cast<size_t>(beam) < cands.size()) {
          std::nth_element(cands.begin(), cands.begin() + beam, cands.end(),
                           before);
          cands.resize(static_cast<size_t>(beam));
        }
        Cost win_lb1 = model_.Lb1(node, *win);
        for (const Candidate& c : cands) {
          const Cost l = model_.Lb1(node, c);
          if (l < win_lb1 || (l == win_lb1 && before(c, *win))) {
            win = &c;
            win_lb1 = l;
          }
        }
      }
      const Cost bound = model_.Lb1(node, *win);
      if (use_memo) cache_[memo_key] = {win->entity, bound};
      if (node_stats != nullptr) node_stats->fully_evaluated = cands.size();
      return {win->entity, bound, false};
    }

    // Line 11. Neither branch writes `counts`, which stays ascending for
    // the children to derive from.
    const std::vector<Candidate>* order = &cands;
    if (options_.sort_candidates) {
      // Only the top-level sort is charged to the order phase: timing each
      // recursion node would put clock reads on every lookahead node.
      obs::PhaseTimer order_timer(obs::Phase::kOrder, /*armed=*/top);
      if constexpr (CostModel::kLb1MonotoneInOrder) {
        level.sorted.resize(counts.size());
        level.bucket.resize(n + 1);
        kernels::OrderByImbalance(counts.data(), counts.size(),
                                  static_cast<uint32_t>(n),
                                  level.bucket.data(), level.sorted.data());
        order = &level.sorted;
      } else {
        std::sort(cands.begin(), cands.end(), before);
      }
    }

    size_t limit = order->size();
    if (beam > 0 && static_cast<size_t>(beam) < limit) {
      if (node_stats != nullptr) node_stats->excluded_by_beam = limit - beam;
      limit = static_cast<size_t>(beam);
    }
    const bool sorted_break =
        CostModel::kLb1MonotoneInOrder && options_.sort_candidates;
    const bool delta_children = options_.enable_delta_counting;

    Cost best = upper_limit;  // AFLV; exclusive — candidates must go below it
    EntityId best_entity = kNoEntity;
    for (size_t i = 0; i < limit; ++i) {
      const Candidate& cand = (*order)[i];
      // Line 14: prune by the 1-step bound (Lemma 4.4 with l = 1).
      if (options_.enable_early_break && model_.Lb1(node, cand) >= best) {
        if (sorted_break) {
          if (node_stats != nullptr) node_stats->pruned_by_break += limit - i;
          break;
        }
        if (node_stats != nullptr) ++node_stats->pruned_by_break;
        continue;
      }

      auto [c_in, c_out] = sub.Partition(cand.entity);
      const SubCollection* small = c_in.size() <= c_out.size() ? &c_in : &c_out;
      level.dense_valid = false;
      // Lines 18-32: C+ under the limit of Eqs. 11-12, then C- under the
      // tighter limit of Eqs. 13-14 now that l_in is known. A pruned child
      // (nothing below its limit) abandons the candidate.
      Cost l_in = 0, l_out = 0;
      const auto child = [&](const SubCollection& half, bool first,
                             Cost* bound) {
        if (half.size() <= 1) return true;
        Cost limit_for_half = kInfiniteCost;
        if (options_.enable_upper_limits) {
          limit_for_half = first ? model_.UpperLimitFirst(node, cand, best)
                                 : model_.UpperLimitSecond(node, best, l_in);
        }
        ++depth_;
        const Outcome r = Search(half, k - 1, limit_for_half, /*top=*/false,
                                 excluded, nullptr,
                                 delta_children ? small : nullptr);
        --depth_;
        *bound = r.bound;
        return r.entity != kNoEntity || r.dead_end;
      };
      if (!child(c_in, /*first=*/true, &l_in) ||
          !child(c_out, /*first=*/false, &l_out)) {
        if (node_stats != nullptr) ++node_stats->pruned_by_child;
        continue;
      }

      // Lines 33-36: keep the strict minimum.
      const Cost l = model_.Combine(node, l_in, l_out);
      ++stats_.entities_evaluated_deep;
      if (node_stats != nullptr) ++node_stats->fully_evaluated;
      if (l < best) {
        best = l;
        best_entity = cand.entity;
        // If the session partitions on this entity — it returns as the
        // selection — NotePartition seeds the child's counts from these.
        if (top) best_small_valid_ = delta_children && level.dense_valid;
        if (top && best_small_valid_) {
          const std::span<const uint32_t> dense = level.counter.dense();
          best_small_counts_.resize(level.counts.size());
          best_small_counts_.resize(kernels::GatherChild(
              level.counts.data(), level.counts.size(), dense.data(),
              dense.size(), /*n=*/0, /*drop_full=*/false,
              best_small_counts_.data()));
          best_small_entity_ = cand.entity;
          best_small_is_in_ = small == &c_in;
        }
      }
    }

    // Line 37: entity may be kNoEntity, "nothing achieves a bound below best".
    if (use_memo) cache_[memo_key] = {best_entity, best};
    return {best_entity, best, false};
  }

  KlpOptions options_;
  std::string name_;
  int effort_ = 0;
  DeltaCounter delta_counter_;
  KlpStats stats_;
  std::unordered_map<MemoKey, KlpSelection, MemoKeyHash> cache_;
  std::vector<std::unique_ptr<Level>> scratch_;
  int depth_ = 0;

  /// The root winner's smaller-half counts (restricted to the root's list,
  /// the shape SeedChild wants), snapshotted whenever the lead changes.
  std::vector<EntityCount> best_small_counts_;
  EntityId best_small_entity_ = kNoEntity;
  bool best_small_is_in_ = false;  ///< smaller half == containing half?
  bool best_small_valid_ = false;
};

}  // namespace setdisc
