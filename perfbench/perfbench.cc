// The repository benchmark: one program that runs one of two workloads
// against the setdisc library, checks every result, and prints one JSON
// result line (see README.md for the metrics and why each workload exists).
//
//   perfbench --workload shared_root|tree_build --seed N
//             --seconds S --trace 0|1 --data-dir DIR [--rev REV]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the time untraced, then up to four seconds traced, and prints
// the per-layer ledger: spans recorded by this file around calls into the
// net, service, core and collection modules, joined with the server's own
// journey spans, plus counters read through MetricsRegistry::Snapshot().
//
// Every input (corpus, targets, seed pairs, priors) comes
// from --seed; the program under test only sees the generated corpus file
// and the requests.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "collection/inverted_index.h"
#include "collection/serialization.h"
#include "collection/set_collection.h"
#include "collection/sub_collection.h"
#include "core/decision_tree.h"
#include "core/klp.h"
#include "core/selectors.h"
#include "core/weighted.h"
#include "core/weighted_klp.h"
#include "data/synthetic.h"
#include "data/webtables.h"
#include "ledger.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/journey.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "service/selection_cache.h"
#include "service/session_manager.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace perfbench {
namespace {

using namespace setdisc;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Fixed workload parameters. Sizes are chosen so one run of each workload
// measures tens of thousands of requests (or thousands of tree builds) in
// forty seconds on a 4-core box, which is what keeps the medians steady.
// ---------------------------------------------------------------------------

constexpr uint32_t kSyntheticSets = 2000;
/// Copy-add overlap of the synthetic generator: at 0.9 the MostEven tree is
/// near balanced, so its depth (and with it the work per conversation)
/// barely moves between seeds.
constexpr double kSyntheticOverlap = 0.9;
constexpr double kTargetZipf = 0.6;
constexpr uint32_t kWebTablesSets = 20000;
/// Seed pairs whose sub-collections hold kMinSeedPairSets (the paper's 100)
/// to kTreeMaxSets sets. tree_build cycles over its builds in passes; 320
/// sub-collections make a pass of 480 builds, about four seconds, so a run
/// times several passes.
constexpr size_t kMinSeedPairSets = 100;
constexpr size_t kTreeSeedPairs = 320;
constexpr size_t kTreeMaxSets = 160;
constexpr double kPriorZipf = 1.0;
/// Set-ups per run (at least kMinSetups and until kSetupBudgetS is spent,
/// at most kMaxSetups); setup_s is their median.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr double kSetupBudgetS = 1.0;
/// Conversations (or tree builds) whose answers feed avg_questions and the
/// transcript digest: a fixed prefix of the seeded stream, always finished.
constexpr uint64_t kQualityConversations = 2000;
/// The journey ring holds 8192 spans; drain it well before it wraps.
constexpr uint64_t kDrainEvery = 4096;
/// Serving timings and rates are medians over this many equal windows of a
/// run (tree_build's are medians over its passes).
constexpr int kWindows = 20;
/// Samples reserved per window and connection (see WindowedSamples).
constexpr size_t kReservePerWindow = size_t{1} << 20;
/// A traced phase runs at most this long: the ledger needs thousands of
/// requests, not the hundreds of thousands a full half-run would keep.
constexpr double kMaxTracedSeconds = 4.0;
/// The ledger's sum check tolerance.
constexpr double kLedgerTolerance = 0.10;

// ---------------------------------------------------------------------------
// Arguments and the run header
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;
  std::string rev = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* out) {
  bool have_workload = false, have_data = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      out->workload = v;
      have_workload = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      out->seconds = std::atof(v);
    } else if (key == "--trace") {
      out->trace = std::string(v) == "1";
    } else if (key == "--data-dir") {
      out->data_dir = v;
      have_data = true;
    } else if (key == "--rev") {
      out->rev = v;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return have_workload && have_data && out->seconds > 0.0;
}

/// Client connections, and pool threads. One of each keeps the load to about
/// one busy thread at a time. On a 4-vCPU VM with two other busy processes,
/// two of each (plus the event loop) spread a served 2-LP workload's
/// sessions/s by 25% between runs, one of each by 6-11%.
constexpr int kConnections = 1;

void PrintHeader(const Args& a) {
  std::printf(
      "{\"header\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %u, \"build_type\": \"%s\", \"compiler\": "
      "\"%s\", \"rev\": \"%s\", \"connections\": %d, \"pool_threads\": %d}}\n",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed), a.seconds,
      a.trace ? 1 : 0, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, a.rev.c_str(), kConnections,
      kConnections);
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// num / den, or 0 when there is nothing to divide by.
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

uint64_t Mix(uint64_t seed, uint64_t stream) {
  Rng r(seed ^ (stream * 0x9E3779B97F4A7C15ULL));
  return r();
}

double SecondsSince(uint64_t t0) { return (obs::NowNanos() - t0) / 1e9; }

// ---------------------------------------------------------------------------
// Span recording. Kinds name the layer boundary a span was taken at.
// ---------------------------------------------------------------------------

enum Kind : int {
  kRpcCreate,   // client CreateSession round trip (net)
  kRpcAnswer,   // client Answer/Verify round trip (net)
  kReq,         // server request span: decode to reply (service)
  kQueueWait,   // server pool queue wait (service)
  kStep,        // server session step (service)
  kSelect,      // EntitySelector::Select through the decorator (core)
  kTreeBuild,   // DecisionTree::Build (core.tree)
  kNumKinds
};

struct Rec {
  uint64_t id = 0;      ///< span id (0 when nothing points at it)
  uint64_t parent = 0;  ///< enclosing request (or tree build) span id
  uint64_t session = 0;
  uint64_t start_ns = 0;
  uint64_t dur_ns = 0;
  int kind = 0;
};

std::atomic<bool> g_tracing{false};

/// Thread-safe in-memory span store: one buffer per recording thread, each
/// behind its own (uncontended) mutex, written out when a phase ends.
class Recorder {
 public:
  static Recorder& Get() {
    static Recorder r;
    return r;
  }

  void Add(const Rec& rec) {
    thread_local Buffer* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      local = buffers_.back().get();
    }
    std::lock_guard<std::mutex> lock(local->mu);
    local->recs.push_back(rec);
  }

  std::vector<Rec> Take() {
    std::vector<Rec> out;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& b : buffers_) {
      std::lock_guard<std::mutex> block(b->mu);
      out.insert(out.end(), b->recs.begin(), b->recs.end());
      b->recs.clear();
    }
    return out;
  }

 private:
  struct Buffer {
    std::mutex mu;
    std::vector<Rec> recs;
  };
  std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// The request span the calling thread works for: the server's pool-job
/// wrapper (or the tree build loop below) installs a JourneyContext.
uint64_t CurrentRequest() {
  const obs::JourneyContext* jc = obs::CurrentJourney();
  return jc != nullptr ? jc->request_span : 0;
}

/// Copies the server's req / queue_wait / step spans out of the journey
/// ring before it wraps. Phase children are not kept: their durations come
/// from the step-phase histograms, which are exact.
class RingDrain {
 public:
  void MaybeDrain() {
    if (obs::Journey().total() - drained_.load(std::memory_order_relaxed) <
        kDrainEvery) {
      return;
    }
    std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
    if (lock.owns_lock()) DrainLocked();
  }

  void Drain() {
    std::lock_guard<std::mutex> lock(mu_);
    DrainLocked();
  }

  std::vector<Rec> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(kept_);
  }

  uint64_t lost() const { return lost_; }

 private:
  void DrainLocked() {
    obs::JourneyRing& ring = obs::Journey();
    const uint64_t total = ring.total();
    const uint64_t since = total - drained_.load(std::memory_order_relaxed);
    if (since > ring.capacity()) lost_ += since - ring.capacity();
    std::unordered_set<uint64_t> ids;
    for (const obs::Span& s : ring.Snapshot()) {
      ids.insert(s.span_id);
      if (last_ids_.count(s.span_id) != 0) continue;
      Rec r;
      if (std::strncmp(s.name, "req:", 4) == 0) {
        r.kind = kReq;
      } else if (std::strcmp(s.name, "queue_wait") == 0) {
        r.kind = kQueueWait;
      } else if (std::strncmp(s.name, "step:", 5) == 0) {
        r.kind = kStep;
      } else {
        continue;
      }
      r.id = s.span_id;
      r.parent = s.parent_id;
      r.start_ns = s.start_ns;
      r.dur_ns = s.duration_ns;
      for (int a = 0; a < s.num_annotations; ++a) {
        if (std::strcmp(s.ann_key[a], "session") == 0) {
          r.session = std::strtoull(s.ann_value[a], nullptr, 10);
        }
      }
      kept_.push_back(r);
    }
    last_ids_ = std::move(ids);
    drained_.store(total, std::memory_order_relaxed);
  }

  std::mutex mu_;
  std::atomic<uint64_t> drained_{obs::Journey().total()};
  std::unordered_set<uint64_t> last_ids_;
  std::vector<Rec> kept_;
  uint64_t lost_ = 0;
};

// ---------------------------------------------------------------------------
// Decorator: the benchmark's own view into core
// ---------------------------------------------------------------------------

/// Times every Select that actually runs (a shared-cache hit never reaches
/// it: SessionManager wraps the cache decorator around this one).
class TimedSelector final : public EntitySelector {
 public:
  explicit TimedSelector(std::unique_ptr<EntitySelector> inner,
                         std::vector<double>* samples_us = nullptr)
      : inner_(std::move(inner)), samples_us_(samples_us) {}

  EntityId Select(const SubCollection& sub,
                  const EntityExclusion* excluded = nullptr) override {
    const uint64_t t0 = obs::NowNanos();
    const EntityId e = inner_->Select(sub, excluded);
    const uint64_t dur = obs::NowNanos() - t0;
    if (samples_us_ != nullptr) samples_us_->push_back(dur / 1e3);
    if (g_tracing.load(std::memory_order_relaxed)) {
      Recorder::Get().Add({0, CurrentRequest(), 0, t0, dur, kSelect});
    }
    return e;
  }

  std::string_view name() const override { return inner_->name(); }
  uint64_t DecisionFingerprint() const override {
    return inner_->DecisionFingerprint();
  }
  void NotePartition(const SubCollection& parent, EntityId e,
                     bool kept_contains, const SubCollection& kept,
                     SubCollection dropped) override {
    inner_->NotePartition(parent, e, kept_contains, kept, std::move(dropped));
  }
  void InvalidateCountState() override { inner_->InvalidateCountState(); }
  void ReleaseMemory() override { inner_->ReleaseMemory(); }
  void SetEffort(int level) override { inner_->SetEffort(level); }

 private:
  std::unique_ptr<EntitySelector> inner_;
  std::vector<double>* samples_us_;
};

// ---------------------------------------------------------------------------
// Program counters, read through MetricsRegistry::Snapshot()
// ---------------------------------------------------------------------------

struct ProgramCounters {
  std::map<std::string, double> counters;  ///< summed over label sets
  std::map<std::string, obs::HistogramSnapshot> phases;  ///< by phase label

  static ProgramCounters Read() {
    ProgramCounters out;
    const obs::RegistrySnapshot snap =
        obs::MetricsRegistry::Default().Snapshot();
    for (const obs::MetricSample& s : snap.samples) {
      std::string key = s.name;
      for (const auto& [k, v] : s.labels) key += ":" + v;
      out.counters[s.name] += static_cast<double>(s.value);
      if (!s.labels.empty()) out.counters[key] += static_cast<double>(s.value);
    }
    for (const obs::HistogramSample& h : snap.histograms) {
      if (h.name != "setdisc_step_phase_ns") continue;
      for (const auto& [k, v] : h.labels) {
        if (k == "phase") out.phases[v] = h.snapshot;
      }
    }
    return out;
  }

  double Counter(const std::string& key) const {
    auto it = counters.find(key);
    return it == counters.end() ? 0.0 : it->second;
  }
  /// Nanoseconds recorded into one phase histogram.
  double PhaseSum(const std::string& phase) const {
    auto it = phases.find(phase);
    return it == phases.end() ? 0.0 : static_cast<double>(it->second.sum);
  }

  ProgramCounters Since(const ProgramCounters& before) const {
    ProgramCounters d;
    for (const auto& [k, v] : counters) d.counters[k] = v - before.Counter(k);
    for (const auto& [k, h] : phases) {
      obs::HistogramSnapshot diff;
      diff.sum = h.sum - (before.phases.count(k) ? before.phases.at(k).sum : 0);
      diff.count =
          h.count - (before.phases.count(k) ? before.phases.at(k).count : 0);
      d.phases[k] = diff;
    }
    return d;
  }
};

// ---------------------------------------------------------------------------
// Inputs, all derived from the seed
// ---------------------------------------------------------------------------

struct Conversation {
  uint64_t index = 0;
  SetId target = kNoSet;
};

struct Inputs {
  std::string corpus_path;
  SetCollection corpus;  ///< the generator's copy: the simulated users' truth
  std::vector<SeedPairEntry> pairs;  ///< tree_build
  std::vector<SetId> zipf_order;  ///< shared_root: set of each Zipf rank
  std::unique_ptr<ZipfDistribution> zipf;
  std::vector<double> priors;  ///< tree_build: Zipf prior per set
  uint64_t seed = 0;

  Conversation Conv(uint64_t index) const {
    Conversation c;
    c.index = index;
    Rng r(Mix(seed, index + 1));
    c.target = zipf_order[zipf->Sample(r)];
    return c;
  }
};

WebTablesConfig WebTablesFor(uint64_t seed) {
  WebTablesConfig cfg;
  cfg.num_sets = kWebTablesSets;
  cfg.num_domains = 400;
  cfg.max_set_size = 120;
  cfg.value_zipf = 1.05;
  cfg.ambiguous_fraction = 0.12;
  cfg.noise_rate = 0.05;
  cfg.seed = Mix(seed, 11);
  return cfg;
}

bool MakeInputs(const Args& a, Inputs* in) {
  in->seed = a.seed;
  std::error_code ec;
  fs::create_directories(a.data_dir, ec);
  in->corpus_path =
      a.data_dir + "/" + a.workload + "-" + std::to_string(a.seed) + ".bin";
  if (a.workload == "shared_root") {
    SyntheticConfig cfg;
    cfg.num_sets = kSyntheticSets;
    cfg.min_set_size = 20;
    cfg.max_set_size = 40;
    cfg.overlap = kSyntheticOverlap;
    cfg.seed = Mix(a.seed, 12);
    in->corpus = GenerateSynthetic(cfg);
    const size_t n = in->corpus.num_sets();
    in->zipf_order.resize(n);
    for (size_t i = 0; i < n; ++i) in->zipf_order[i] = static_cast<SetId>(i);
    Rng perm(Mix(a.seed, 13));
    for (size_t i = n; i > 1; --i) {
      std::swap(in->zipf_order[i - 1], in->zipf_order[perm.Uniform(i)]);
    }
    in->zipf = std::make_unique<ZipfDistribution>(n, kTargetZipf);
  } else {
    in->corpus = GenerateWebTables(WebTablesFor(a.seed));
    InvertedIndex index(in->corpus);
    in->pairs = ExtractSeedPairSubCollections(in->corpus, index,
                                              kMinSeedPairSets,
                                              kTreeSeedPairs * 4,
                                              Mix(a.seed, 14));
    std::erase_if(in->pairs, [&](const SeedPairEntry& p) {
      return p.set_ids.size() > kTreeMaxSets;
    });
    if (in->pairs.size() > kTreeSeedPairs) in->pairs.resize(kTreeSeedPairs);
    const size_t n = in->corpus.num_sets();
    in->priors.resize(n);
    Rng prior(Mix(a.seed, 15));
    for (size_t s = 0; s < n; ++s) {
      const double rank = static_cast<double>(1 + prior.Uniform(n));
      in->priors[s] = 1.0 / std::pow(rank, kPriorZipf);
    }
    if (in->pairs.empty()) {
      std::fprintf(stderr, "no seed-pair sub-collections for seed %llu\n",
                   static_cast<unsigned long long>(a.seed));
      return false;
    }
  }
  Status s = SaveCollectionBinary(in->corpus, in->corpus_path);
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", in->corpus_path.c_str(),
                 s.message().c_str());
    return false;
  }
  return true;
}

/// The program's own copy of the corpus: loaded and indexed at set-up.
struct Loaded {
  SetCollection collection;
  std::unique_ptr<InvertedIndex> index;
  double load_s = 0.0;
  double index_s = 0.0;

  bool Load(const std::string& path) {
    uint64_t t0 = obs::NowNanos();
    Status s = LoadCollectionBinary(path, &collection);
    load_s = SecondsSince(t0);
    if (!s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.message().c_str());
      return false;
    }
    t0 = obs::NowNanos();
    index = std::make_unique<InvertedIndex>(collection);
    index_s = SecondsSince(t0);
    return true;
  }
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Quality {
  std::map<uint64_t, std::pair<double, uint64_t>> by_index;  ///< cost, digest

  double AvgQuestions() const {
    double sum = 0.0;
    for (const auto& [i, v] : by_index) sum += v.first;
    return by_index.empty() ? 0.0 : sum / static_cast<double>(by_index.size());
  }
  /// Hash over the conversations in stream order, kept to 52 bits so JSON
  /// carries it exactly.
  double Digest() const {
    std::vector<uint64_t> words;
    for (const auto& [i, v] : by_index) words.push_back(v.second);
    return static_cast<double>(Fnv1a(words) >> 12);
  }
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable lines before the result
};

/// True while the run still owes set-ups (see kMinSetups).
bool MoreSetups(const std::vector<double>& setup_s) {
  const int n = static_cast<int>(setup_s.size());
  if (n < kMinSetups) return true;
  double spent = 0.0;
  for (double s : setup_s) spent += s;
  return n < kMaxSetups && spent < kSetupBudgetS;
}

void AddMetric(Outcome* o, const std::string& name, double value,
               const std::string& unit) {
  o->metrics.push_back({name, value, unit});
}

/// Adds a percentile under the percentile rule; an unsupported one is
/// reported as 0 with a note giving the sample count.
void AddPercentile(Outcome* o, const std::string& name, const Percentile& p,
                   const std::string& unit) {
  o->notes.push_back(name + " from " + std::to_string(p.samples) + " samples" +
                     (p.supported ? "" : ", too few for this percentile"));
  AddMetric(o, name, p.value, unit);
}

void AddTail(Outcome* o, const std::string& name, const std::vector<double>& xs,
             double q, const std::string& unit) {
  AddPercentile(o, name, Quantile(xs, q), unit);
}

void AddP99s(Outcome* o, const WindowedSamples& first,
             const WindowedSamples& next) {
  AddPercentile(o, "first_question_p99_us", first.Quantile(0.99), "us");
  AddPercentile(o, "next_question_p99_us", next.Quantile(0.99), "us");
}

/// The p99s as metrics only (their notes are already in the run's notes).
void AddP99Metrics(Outcome* o, const WindowedSamples& first,
                   const WindowedSamples& next) {
  Outcome p99;
  AddP99s(&p99, first, next);
  o->metrics.insert(o->metrics.end(), p99.metrics.begin(), p99.metrics.end());
}

/// The end-to-end timings of one untraced phase, windowed. The bounded tail
/// is p90: between runs on a shared 4-vCPU host the p99 moved by up to 2x,
/// more than any bound can hold (README.md). The p99 is still reported: in a
/// note here, and as an unbounded metric of the traced run (AddP99s).
void AddTimings(Outcome* o, const WindowedSamples& first,
                const WindowedSamples& next) {
  AddMetric(o, "first_question_p50_us", first.Quantile(0.5).value, "us");
  AddPercentile(o, "first_question_p90_us", first.Quantile(0.9), "us");
  AddMetric(o, "next_question_p50_us", next.Quantile(0.5).value, "us");
  AddPercentile(o, "next_question_p90_us", next.Quantile(0.9), "us");
  Outcome p99;
  AddP99s(&p99, first, next);
  for (const Metric& m : p99.metrics) {
    o->notes.push_back(m.name + " " + JsonNumber(m.value));
  }
  o->notes.insert(o->notes.end(), p99.notes.begin(), p99.notes.end());
}

// ---------------------------------------------------------------------------
// The serving workload: shared_root
// ---------------------------------------------------------------------------

/// One set-up of the serving stack. Members are declared in construction
/// order so destruction tears the server down first.
struct ServingStack {
  Loaded loaded;
  std::unique_ptr<SelectionCache> cache;
  std::unique_ptr<SessionManager> manager;
  std::unique_ptr<net::DiscoveryServer> server;
  double setup_s = 0.0;
};

std::unique_ptr<ServingStack> SetUpServing(const Inputs& in) {
  auto st = std::make_unique<ServingStack>();
  const uint64_t t0 = obs::NowNanos();
  if (!st->loaded.Load(in.corpus_path)) return nullptr;
  SessionManagerOptions opts;
  opts.num_threads = static_cast<size_t>(kConnections);
  opts.selector_factory = [] {
    return std::make_unique<TimedSelector>(
        std::make_unique<MostEvenSelector>());
  };
  st->cache = std::make_unique<SelectionCache>();
  opts.selection_cache = st->cache.get();
  st->manager = std::make_unique<SessionManager>(
      st->loaded.collection, *st->loaded.index, std::move(opts));
  st->server = std::make_unique<net::DiscoveryServer>(*st->manager);
  Status s = st->server->Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.message().c_str());
    return nullptr;
  }
  // Cache warm-up: one conversation per set, in process, so every question
  // any target can be asked is already cached.
  for (SetId target = 0; target < in.corpus.num_sets(); ++target) {
    SimulatedOracle oracle(&in.corpus, target);
    SessionView v = st->manager->Create({});
    v = st->manager->Drive(v, oracle);
    st->manager->Close(v.id);
  }
  st->setup_s = SecondsSince(t0);
  return st;
}

struct ConnectionLog {
  ConnectionLog(uint64_t t0, uint64_t t1, size_t reserve)
      : create_us(t0, t1, kWindows, reserve),
        answer_us(t0, t1, kWindows, reserve),
        finished(t0, t1, kWindows) {}

  WindowedSamples create_us;
  WindowedSamples answer_us;
  WindowedSamples finished;  ///< one count per correct conversation
  std::vector<std::pair<uint64_t, std::pair<double, uint64_t>>> quality;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rpcs = 0;           ///< every RPC, Close included
  uint64_t question_rpcs = 0;  ///< Create + Answer/Verify
};

struct PhaseResult {
  PhaseResult(uint64_t t0, uint64_t t1) : log(t0, t1, 0) {}

  double sessions_per_s = 0.0;
  double peak_rss_mb = 0.0;  ///< taken before any post-processing
  ConnectionLog log;  ///< merged
  ProgramCounters program;
  net::ServerStats server_before, server_after;
  SelectionCacheStats cache_before, cache_after;
  std::vector<Rec> spans;  ///< this file's spans (traced phase)
  std::vector<Rec> ring;   ///< server journey spans (traced phase)
  uint64_t spans_lost = 0;
};

/// Claims conversation indices from one seeded stream: until the deadline,
/// and in any case until the first `quality` indices are claimed.
struct Stream {
  std::atomic<uint64_t> next{0};
  uint64_t base = 0;
  uint64_t quality = 0;
  uint64_t deadline_ns = 0;

  bool Claim(uint64_t* index) {
    const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= quality && obs::NowNanos() >= deadline_ns) return false;
    *index = base + i;
    return true;
  }
};

/// One closed-loop user: a conversation at a time, each answer sent as soon
/// as its question arrives.
void RunConnection(const Inputs& in, uint16_t port, bool traced,
                   Stream* stream, RingDrain* drain, ConnectionLog* log) {
  net::DiscoveryClient client;
  client.set_no_retry();
  if (traced) client.set_auto_trace(true);
  if (!client.Connect("127.0.0.1", port).ok()) {
    ++log->attempted;
    ++log->failed;
    return;
  }
  auto timed = [&](int kind, uint64_t session, uint64_t t0) {
    const uint64_t dur = obs::NowNanos() - t0;
    ++log->rpcs;
    ++log->question_rpcs;
    WindowedSamples& samples =
        kind == kRpcCreate ? log->create_us : log->answer_us;
    samples.Add(t0 + dur, dur / 1e3);
    if (traced) {
      Recorder::Get().Add({0, 0, session, t0, dur, kind});
      drain->MaybeDrain();
    }
  };
  uint64_t index = 0;
  while (stream->Claim(&index)) {
    const Conversation conv = in.Conv(index);
    SimulatedOracle oracle(&in.corpus, conv.target);
    std::vector<uint64_t> questions;
    net::SessionStateMsg state;
    ++log->attempted;
    uint64_t t0 = obs::NowNanos();
    bool ok = client.CreateSession({}, &state).ok();
    timed(kRpcCreate, state.session_id, t0);
    const bool opened = ok;
    while (ok && state.state != SessionState::kFinished) {
      t0 = obs::NowNanos();
      if (state.state == SessionState::kAwaitingAnswer) {
        questions.push_back(state.question);
        ok = client
                 .Answer(state.session_id,
                         oracle.AskMembership(state.question), &state)
                 .ok();
      } else {
        ok = client
                 .Verify(state.session_id,
                         oracle.ConfirmTarget(state.verify_set), &state)
                 .ok();
      }
      timed(kRpcAnswer, state.session_id, t0);
    }
    const auto& r = state.result;
    const bool correct =
        ok && r.candidates.size() == 1 && r.candidates[0] == conv.target;
    if (correct) {
      log->finished.Add(obs::NowNanos(), 1.0);
    } else {
      ++log->failed;
    }
    if (conv.index - stream->base < stream->quality) {
      std::vector<uint64_t> words = {conv.index, conv.target,
                                     correct ? 1u : 0u};
      words.insert(words.end(), questions.begin(), questions.end());
      log->quality.push_back(
          {conv.index, {static_cast<double>(r.questions), Fnv1a(words)}});
    }
    if (opened) {
      (void)client.CloseSession(state.session_id);
      ++log->rpcs;
    }
    if (!client.connected() && !client.Connect("127.0.0.1", port).ok()) break;
  }
}

PhaseResult RunServingPhase(const Inputs& in, ServingStack& st,
                            double seconds, bool traced, uint64_t stream_base,
                            uint64_t quality) {
  Stream stream;
  stream.base = stream_base;
  stream.quality = quality;
  RingDrain drain;
  (void)Recorder::Get().Take();
  if (traced) {
    obs::SetJourneyEnabled(true);
    g_tracing.store(true);
  }
  const ProgramCounters program_before = ProgramCounters::Read();
  const uint64_t t0 = obs::NowNanos();
  stream.deadline_ns = t0 + static_cast<uint64_t>(seconds * 1e9);
  PhaseResult pr(t0, stream.deadline_ns);
  std::vector<ConnectionLog> logs;
  for (int c = 0; c < kConnections; ++c) {
    logs.emplace_back(t0, stream.deadline_ns, kReservePerWindow);
  }
  pr.server_before = st.server->stats();
  pr.cache_before = st.cache->stats();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      RunConnection(in, st.server->port(), traced, &stream, &drain,
                    &logs[static_cast<size_t>(c)]);
    });
  }
  for (auto& t : threads) t.join();
  pr.peak_rss_mb = PeakRssMb();
  if (traced) {
    drain.Drain();
    obs::SetJourneyEnabled(false);
    g_tracing.store(false);
    pr.spans = Recorder::Get().Take();
    pr.ring = drain.Take();
    pr.spans_lost = drain.lost();
  }
  pr.program = ProgramCounters::Read().Since(program_before);
  pr.server_after = st.server->stats();
  pr.cache_after = st.cache->stats();
  for (ConnectionLog& l : logs) {
    auto& m = pr.log;
    m.create_us.Merge(l.create_us);
    m.answer_us.Merge(l.answer_us);
    m.finished.Merge(l.finished);
    m.quality.insert(m.quality.end(), l.quality.begin(), l.quality.end());
    m.attempted += l.attempted;
    m.failed += l.failed;
    m.rpcs += l.rpcs;
    m.question_rpcs += l.question_rpcs;
  }
  pr.sessions_per_s = pr.log.finished.RatePerSecond();
  return pr;
}

/// The per-layer ledger of a traced serving phase: every client RPC joined
/// with its server request span (by session id and order), nested by
/// containment with the request's children, and its self times summed per
/// layer.
void AddServingLedger(const PhaseResult& pr, double untraced_sessions_per_s,
                      Outcome* o) {
  std::unordered_map<uint64_t, std::vector<const Rec*>> reqs_by_session;
  std::unordered_map<uint64_t, std::vector<const Rec*>> children;
  std::unordered_map<uint64_t, std::vector<const Rec*>> rpcs_by_session;
  for (const Rec& r : pr.ring) {
    if (r.kind == kReq) {
      reqs_by_session[r.session].push_back(&r);
    } else {
      children[r.parent].push_back(&r);
    }
  }
  std::vector<double> select_us;
  for (const Rec& r : pr.spans) {
    if (r.kind == kRpcCreate || r.kind == kRpcAnswer) {
      rpcs_by_session[r.session].push_back(&r);
    } else if (r.parent != 0) {
      children[r.parent].push_back(&r);
    }
    if (r.kind == kSelect) select_us.push_back(r.dur_ns / 1e3);
  }
  auto by_start = [](const Rec* a, const Rec* b) {
    return a->start_ns < b->start_ns;
  };

  std::vector<double> self_ns(kNumKinds, 0.0);
  std::vector<double> queue_wait_us, create_job_us, step_job_us;
  uint64_t rpcs = 0, joined = 0;
  double rtt_ns = 0.0;
  for (auto& [session, rpc_list] : rpcs_by_session) {
    std::sort(rpc_list.begin(), rpc_list.end(), by_start);
    std::vector<const Rec*>& reqs = reqs_by_session[session];
    std::sort(reqs.begin(), reqs.end(), by_start);
    size_t q = 0;
    for (const Rec* rpc : rpc_list) {
      ++rpcs;
      rtt_ns += static_cast<double>(rpc->dur_ns);
      while (q < reqs.size() && reqs[q]->start_ns < rpc->start_ns) ++q;
      if (q == reqs.size() || reqs[q]->start_ns + reqs[q]->dur_ns >
                                  rpc->start_ns + rpc->dur_ns) {
        continue;
      }
      const Rec* req = reqs[q++];
      ++joined;
      std::vector<Span> spans = {{rpc->start_ns, rpc->dur_ns, rpc->kind},
                                 {req->start_ns, req->dur_ns, kReq}};
      double queue_ns = 0.0;
      for (const Rec* c : children[req->id]) {
        spans.push_back({c->start_ns, c->dur_ns, c->kind});
        if (c->kind == kQueueWait) queue_ns = static_cast<double>(c->dur_ns);
      }
      const std::vector<uint64_t> self =
          SelfTimes(spans, NestByContainment(spans));
      for (size_t i = 0; i < spans.size(); ++i) {
        const int k = spans[i].kind == kRpcCreate ? kRpcAnswer : spans[i].kind;
        self_ns[k] += static_cast<double>(self[i]);
      }
      queue_wait_us.push_back(queue_ns / 1e3);
      const double job_us = (static_cast<double>(req->dur_ns) - queue_ns) / 1e3;
      (rpc->kind == kRpcCreate ? create_job_us : step_job_us).push_back(job_us);
    }
  }
  const double n = joined > 0 ? static_cast<double>(joined) : 1.0;
  const double all = pr.log.question_rpcs > 0 ? pr.log.question_rpcs : 1.0;
  const ProgramCounters& pc = pr.program;
  // Phase time per question RPC: count/order run inside Select, emit and
  // the cache lookup inside the step but outside Select.
  const double count_us = pc.PhaseSum("count") / 1e3 / all;
  const double order_us = pc.PhaseSum("order") / 1e3 / all;
  const double emit_us = pc.PhaseSum("emit") / 1e3 / all;
  const double cache_us = pc.PhaseSum("cache_lookup") / 1e3 / all;
  const double net_us = self_ns[kRpcAnswer] / 1e3 / n;
  const double service_self_us =
      (self_ns[kReq] + self_ns[kStep]) / 1e3 / n - emit_us - cache_us;
  const double queue_us = self_ns[kQueueWait] / 1e3 / n;
  const double core_us = self_ns[kSelect] / 1e3 / n - count_us - order_us;
  const double collection_us = count_us + order_us + emit_us;
  const double service_us = service_self_us + queue_us + cache_us;
  const double rtt_us = rtt_ns / 1e3 / (rpcs > 0 ? rpcs : 1);
  const SumCheck check =
      CheckLedgerSum({net_us, service_us, core_us, collection_us}, rtt_us,
                     kLedgerTolerance);
  if (!check.ok || pr.spans_lost != 0) o->correct = false;
  o->notes.push_back("ledger: " + std::to_string(joined) + " of " +
                     std::to_string(rpcs) + " RPCs joined, layer sum / RTT = " +
                     JsonNumber(check.ratio));

  const double rpc_all = pr.log.rpcs > 0 ? pr.log.rpcs : 1.0;
  const double read = pc.Counter("setdisc_net_bytes_read_total");
  const double written = pc.Counter("setdisc_net_bytes_written_total");
  const double frames = static_cast<double>(pr.server_after.frames_received -
                                            pr.server_before.frames_received);
  AddMetric(o, "net.self_us", net_us, "us");
  AddMetric(o, "net.bytes_per_rpc", (read + written) / rpc_all, "bytes");
  AddMetric(o, "net.frames_per_rpc", frames / rpc_all, "count");
  AddMetric(o, "service.queue_wait_p50_us", Median(queue_wait_us), "us");
  AddTail(o, "service.queue_wait_p99_us", queue_wait_us, 0.99, "us");
  AddMetric(o, "service.self_us", service_self_us, "us");
  AddMetric(o, "service.create_us", Mean(create_job_us), "us");
  AddMetric(o, "service.step_us", Mean(step_job_us), "us");
  const double lookups =
      static_cast<double>(pr.cache_after.lookups - pr.cache_before.lookups);
  const double hits =
      static_cast<double>(pr.cache_after.hits - pr.cache_before.hits);
  AddMetric(o, "service.cache.hit_ratio", Ratio(hits, lookups), "ratio");
  AddMetric(o, "service.cache.lookup_us",
            Ratio(pc.PhaseSum("cache_lookup") / 1e3, lookups), "us");
  AddMetric(o, "core.self_us", core_us, "us");
  AddMetric(o, "core.select_us", Mean(select_us), "us");
  AddTail(o, "core.select_p99_us", select_us, 0.99, "us");
  AddMetric(o, "collection.count_us", count_us, "us");
  AddMetric(o, "collection.order_us", order_us, "us");
  AddMetric(o, "collection.emit_us", emit_us, "us");
  AddMetric(o, "ledger.rtt_us", rtt_us, "us");
  AddMetric(o, "ledger.net_us", net_us, "us");
  AddMetric(o, "ledger.service_us", service_us, "us");
  AddMetric(o, "ledger.core_us", core_us, "us");
  AddMetric(o, "ledger.collection_us", collection_us, "us");
  AddMetric(o, "ledger.sum_ratio", check.ratio, "ratio");
  AddMetric(o, "ledger.joined_ratio", Ratio(joined, rpcs), "ratio");
  AddMetric(o, "obs.trace_overhead",
            Ratio(pr.sessions_per_s, untraced_sessions_per_s), "ratio");
  AddMetric(o, "obs.spans_lost", static_cast<double>(pr.spans_lost), "count");
}

/// The k-LP pruning ratio, from the program's own counters.
void AddCoreCounters(const ProgramCounters& pc, Outcome* o) {
  const double candidates = pc.Counter("setdisc_klp_candidates_total");
  AddMetric(o, "core.klp.pruned_ratio",
            Ratio(pc.Counter("setdisc_klp_pruned_total"), candidates), "ratio");
}

void AddQualityAndSetup(const Quality& quality,
                        const std::vector<double>& load_s,
                        const std::vector<double>& index_s, const Outcome& e2e,
                        Outcome* o) {
  AddMetric(o, "collection.load_s", Median(load_s), "s");
  AddMetric(o, "collection.index_s", Median(index_s), "s");
  AddMetric(o, "quality.transcript_digest", quality.Digest(), "count");
  AddMetric(o, "quality.error_rate", Ratio(e2e.failed, e2e.attempted), "ratio");
}

/// The notes every untraced phase ends with.
void AddRunNotes(Outcome* o, const Quality& quality, const std::string& what) {
  o->notes.push_back("error_rate " +
                     JsonNumber(Ratio(o->failed, o->attempted)) + " (" +
                     std::to_string(o->failed) + " of " +
                     std::to_string(o->attempted) + " " + what + " failed)");
  o->notes.push_back("transcript_digest " + JsonNumber(quality.Digest()) +
                     " over " + std::to_string(quality.by_index.size()) + " " +
                     what);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"first_question_p99_us", "us"},
      {"next_question_p99_us", "us"},
      {"net.self_us", "us"},
      {"net.bytes_per_rpc", "bytes"},
      {"net.frames_per_rpc", "count"},
      {"service.queue_wait_p50_us", "us"},
      {"service.queue_wait_p99_us", "us"},
      {"service.self_us", "us"},
      {"service.create_us", "us"},
      {"service.step_us", "us"},
      {"service.cache.hit_ratio", "ratio"},
      {"service.cache.lookup_us", "us"},
      {"core.self_us", "us"},
      {"core.select_us", "us"},
      {"core.select_p99_us", "us"},
      {"core.klp.pruned_ratio", "ratio"},
      {"core.tree.klp_build_ms", "ms"},
      {"core.tree.weighted_klp_build_ms", "ms"},
      {"core.tree.select_share", "ratio"},
      {"core.tree.trees_per_s", "1/s"},
      {"collection.count_us", "us"},
      {"collection.order_us", "us"},
      {"collection.emit_us", "us"},
      {"collection.load_s", "s"},
      {"collection.index_s", "s"},
      {"ledger.rtt_us", "us"},
      {"ledger.net_us", "us"},
      {"ledger.service_us", "us"},
      {"ledger.core_us", "us"},
      {"ledger.collection_us", "us"},
      {"ledger.sum_ratio", "ratio"},
      {"ledger.joined_ratio", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"obs.spans_lost", "count"},
      {"quality.transcript_digest", "count"},
      {"quality.error_rate", "ratio"},
  };
  return names;
}

/// Puts `o->metrics` into the per-layer list's order, adding a 0 for every
/// metric the workload has no layer for, so each prints the full list.
void OrderPerLayer(Outcome* o) {
  std::vector<Metric> ordered;
  for (const auto& [name, unit] : PerLayerNames()) {
    auto it = std::find_if(o->metrics.begin(), o->metrics.end(),
                           [&](const Metric& m) { return m.name == name; });
    ordered.push_back(it != o->metrics.end() ? *it : Metric{name, 0.0, unit});
  }
  o->metrics = std::move(ordered);
}

Outcome RunServing(const Args& a, const Inputs& in) {
  Outcome o;
  std::vector<double> setup_s, load_s, index_s;
  std::unique_ptr<ServingStack> st;
  while (MoreSetups(setup_s)) {
    st.reset();
    st = SetUpServing(in);
    if (st == nullptr) {
      o.correct = false;
      ++o.attempted;
      ++o.failed;
      return o;
    }
    setup_s.push_back(st->setup_s);
    load_s.push_back(st->loaded.load_s);
    index_s.push_back(st->loaded.index_s);
  }

  const double untraced_s = a.trace ? a.seconds / 2 : a.seconds;
  const PhaseResult u =
      RunServingPhase(in, *st, untraced_s, false, 0, kQualityConversations);
  Quality quality;
  for (const auto& [i, v] : u.log.quality) quality.by_index[i] = v;
  o.attempted = u.log.attempted;
  o.failed = u.log.failed;
  if (o.failed != 0 || quality.by_index.size() != kQualityConversations) {
    o.correct = false;
  }
  const double sessions_per_s = u.sessions_per_s;
  AddMetric(&o, "setup_s", Median(setup_s), "s");
  AddMetric(&o, "sessions_per_s", sessions_per_s, "1/s");
  AddTimings(&o, u.log.create_us, u.log.answer_us);
  AddMetric(&o, "avg_questions", quality.AvgQuestions(), "count");
  AddMetric(&o, "peak_rss_mb", u.peak_rss_mb, "MB");
  AddRunNotes(&o, quality, "conversations");
  if (!a.trace) return o;

  Outcome layers;
  layers.notes = o.notes;
  const PhaseResult t =
      RunServingPhase(in, *st, std::min(a.seconds / 2, kMaxTracedSeconds),
                      true, uint64_t{1} << 40, 0);
  layers.attempted = o.attempted + t.log.attempted;
  layers.failed = o.failed + t.log.failed;
  layers.correct = o.correct && t.log.failed == 0;
  AddServingLedger(t, sessions_per_s, &layers);
  AddP99Metrics(&layers, u.log.create_us, u.log.answer_us);
  AddCoreCounters(u.program, &layers);
  AddQualityAndSetup(quality, load_s, index_s, o, &layers);
  OrderPerLayer(&layers);
  return layers;
}

// ---------------------------------------------------------------------------
// tree_build: offline, single-threaded Algorithm 3 with 2-LP and W-2LP
// ---------------------------------------------------------------------------

Outcome RunTreeBuild(const Args& a, const Inputs& in) {
  Outcome o;
  std::vector<double> setup_s, load_s, index_s;
  std::unique_ptr<Loaded> loaded;
  std::vector<SubCollection> subs;
  while (MoreSetups(setup_s)) {
    subs.clear();
    loaded = std::make_unique<Loaded>();
    const uint64_t t0 = obs::NowNanos();
    if (!loaded->Load(in.corpus_path)) {
      o.correct = false;
      ++o.attempted;
      ++o.failed;
      return o;
    }
    for (const SeedPairEntry& p : in.pairs) {
      const EntityId seeds[2] = {p.a, p.b};
      subs.emplace_back(&loaded->collection,
                        loaded->index->SetsContainingAll(seeds));
    }
    setup_s.push_back(SecondsSince(t0));
    load_s.push_back(loaded->load_s);
    index_s.push_back(loaded->index_s);
  }

  // One pass of builds: every pass builds the same trees, so passes differ
  // only by noise, and the timings and rates are medians over the complete
  // passes of a run. The first pass warms up and is timed only when it is
  // the only complete one.
  struct Pass {
    std::vector<double> build_us, next_us;
    uint64_t builds = 0, leaves = 0, start_ns = 0, end_ns = 0;
  };
  struct TreePhase {
    double seconds = 0.0;
    double peak_rss_mb = 0.0;
    uint64_t trees = 0, leaves = 0;
    std::vector<Pass> passes;
    /// One window per timed pass: the pass index stands in for the clock.
    WindowedSamples build_us, next_us;
    std::vector<double> klp_ms, wklp_ms;
    double select_ns = 0.0, build_ns = 0.0;
    std::vector<Rec> spans;
    obs::PhaseAccum phases;
    ProgramCounters program;
  };
  // One pass: every sub-collection with 2-LP, every other one also with
  // Weighted-2-LP. Two builds of every sub-collection would split the root
  // selections 50/50 between two latency modes an order of magnitude apart,
  // which puts their median in the gap between the modes, where it jumps.
  std::vector<std::pair<size_t, bool>> pass;
  for (size_t j = 0; j < subs.size(); ++j) {
    pass.push_back({j, false});
    if (j % 2 == 1) pass.push_back({j, true});
  }
  Quality quality;
  auto run = [&](double seconds, bool traced) {
    TreePhase tp;
    tp.program = ProgramCounters::Read();
    g_tracing.store(traced);
    (void)Recorder::Get().Take();
    const uint64_t t0 = obs::NowNanos();
    const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t b = 0;; ++b) {
      const bool quality_build = !traced && b < pass.size();
      if (!quality_build && obs::NowNanos() >= deadline) break;
      if (b % pass.size() == 0) {
        tp.passes.emplace_back();
        tp.passes.back().start_ns = obs::NowNanos();
      }
      const auto [j, weighted] = pass[b % pass.size()];
      const SubCollection& sub = subs[j];
      std::unique_ptr<EntitySelector> inner;
      if (weighted) {
        inner = std::make_unique<WeightedKlpSelector>(&in.priors,
                                                      WeightedKlpOptions{});
      } else {
        inner = std::make_unique<KlpSelector>(
            KlpOptions::MakeKlp(2, CostMetric::kAvgDepth));
      }
      std::vector<double> select_us;
      TimedSelector sel(std::move(inner), &select_us);
      obs::JourneyContext jc;
      jc.request_span = obs::NextSpanId();
      const uint64_t start = obs::NowNanos();
      DecisionTree tree;
      {
        obs::JourneyScope scope(&jc);
        obs::PhaseScope phase_scope(traced ? &tp.phases : nullptr);
        tree = DecisionTree::Build(sub, sel);
      }
      const uint64_t dur = obs::NowNanos() - start;
      if (traced) {
        Recorder::Get().Add({jc.request_span, 0, 0, start, dur, kTreeBuild});
      }
      ++o.attempted;
      const bool valid = tree.Validate(sub).ok();
      if (!valid) ++o.failed;
      ++tp.trees;
      tp.leaves += tree.num_leaves();
      Pass& cur = tp.passes.back();
      ++cur.builds;
      if (valid) cur.leaves += tree.num_leaves();
      cur.end_ns = start + dur;
      tp.build_ns += static_cast<double>(dur);
      (weighted ? tp.wklp_ms : tp.klp_ms).push_back(dur / 1e6);
      cur.build_us.push_back(dur / 1e3);
      if (!select_us.empty()) {
        cur.next_us.insert(cur.next_us.end(), select_us.begin() + 1,
                           select_us.end());
      }
      for (double us : select_us) tp.select_ns += us * 1e3;
      if (quality_build) {
        const double cost =
            weighted ? ExpectedQuestions(tree, in.priors) : tree.avg_depth();
        std::vector<uint64_t> words = {b, valid ? 1u : 0u};
        for (size_t i = 0; i < tree.num_nodes(); ++i) {
          words.push_back(tree.node(i).entity);
        }
        quality.by_index[b] = {cost, Fnv1a(words)};
      }
    }
    tp.seconds = SecondsSince(t0);
    tp.peak_rss_mb = PeakRssMb();
    std::erase_if(tp.passes,
                  [&](const Pass& p) { return p.builds < pass.size(); });
    if (tp.passes.size() > 1) tp.passes.erase(tp.passes.begin());
    const uint64_t n = tp.passes.size();
    tp.build_us = WindowedSamples(0, n, static_cast<int>(n));
    tp.next_us = WindowedSamples(0, n, static_cast<int>(n));
    for (uint64_t i = 0; i < n; ++i) {
      for (double us : tp.passes[i].build_us) tp.build_us.Add(i, us);
      for (double us : tp.passes[i].next_us) tp.next_us.Add(i, us);
    }
    g_tracing.store(false);
    tp.spans = Recorder::Get().Take();
    tp.program = ProgramCounters::Read().Since(tp.program);
    return tp;
  };

  const TreePhase u = run(a.trace ? a.seconds / 2 : a.seconds, false);
  if (o.failed != 0) o.correct = false;
  std::vector<double> pass_rates;
  for (const Pass& p : u.passes) {
    pass_rates.push_back(p.leaves / ((p.end_ns - p.start_ns) / 1e9));
  }
  const double sessions_per_s = Median(pass_rates);
  AddMetric(&o, "setup_s", Median(setup_s), "s");
  AddMetric(&o, "sessions_per_s", sessions_per_s, "1/s");
  AddTimings(&o, u.build_us, u.next_us);
  AddMetric(&o, "avg_questions", quality.AvgQuestions(), "count");
  AddMetric(&o, "peak_rss_mb", u.peak_rss_mb, "MB");
  o.notes.push_back(std::to_string(u.trees) + " trees over " +
                    std::to_string(subs.size()) +
                    " seed-pair sub-collections, " +
                    JsonNumber(u.trees / u.seconds) + " trees/s, " +
                    std::to_string(u.passes.size()) + " timed passes");
  AddRunNotes(&o, quality, "trees");
  if (!a.trace) return o;

  Outcome layers;
  layers.notes = o.notes;
  const uint64_t failed_before = o.failed;
  const TreePhase t = run(std::min(a.seconds / 2, kMaxTracedSeconds), true);
  layers.attempted = o.attempted;
  layers.failed = o.failed;
  layers.correct = o.correct && o.failed == failed_before;
  AddP99Metrics(&layers, u.build_us, u.next_us);

  // Ledger: each build span with its Select spans nested inside it.
  std::unordered_map<uint64_t, std::vector<const Rec*>> selects;
  std::vector<const Rec*> builds;
  std::vector<double> select_us;
  for (const Rec& r : t.spans) {
    if (r.kind == kTreeBuild) builds.push_back(&r);
    if (r.kind == kSelect) {
      selects[r.parent].push_back(&r);
      select_us.push_back(r.dur_ns / 1e3);
    }
  }
  double build_self = 0.0, select_self = 0.0, total = 0.0;
  for (const Rec* b : builds) {
    std::vector<Span> spans = {{b->start_ns, b->dur_ns, kTreeBuild}};
    for (const Rec* s : selects[b->id]) {
      spans.push_back({s->start_ns, s->dur_ns, kSelect});
    }
    const std::vector<uint64_t> self =
        SelfTimes(spans, NestByContainment(spans));
    build_self += static_cast<double>(self[0]);
    for (size_t i = 1; i < spans.size(); ++i) {
      select_self += static_cast<double>(self[i]);
    }
    total += static_cast<double>(b->dur_ns);
  }
  const double nb = builds.empty() ? 1.0 : static_cast<double>(builds.size());
  const double count_us =
      t.phases.ns[static_cast<size_t>(obs::Phase::kCount)] / 1e3 / nb;
  const double order_us =
      t.phases.ns[static_cast<size_t>(obs::Phase::kOrder)] / 1e3 / nb;
  const double core_us =
      (build_self + select_self) / 1e3 / nb - count_us - order_us;
  const double collection_us = count_us + order_us;
  const double build_us = total / 1e3 / nb;
  const SumCheck check =
      CheckLedgerSum({core_us, collection_us}, build_us, kLedgerTolerance);
  if (!check.ok) layers.correct = false;
  AddMetric(&layers, "core.self_us", core_us, "us");
  AddMetric(&layers, "core.select_us", Mean(select_us), "us");
  AddTail(&layers, "core.select_p99_us", select_us, 0.99, "us");
  AddMetric(&layers, "core.tree.klp_build_ms", Mean(u.klp_ms), "ms");
  AddMetric(&layers, "core.tree.weighted_klp_build_ms", Mean(u.wklp_ms), "ms");
  AddMetric(&layers, "core.tree.select_share",
            u.build_ns > 0 ? u.select_ns / u.build_ns : 0.0, "ratio");
  AddMetric(&layers, "core.tree.trees_per_s", u.trees / u.seconds, "1/s");
  AddMetric(&layers, "collection.count_us", count_us, "us");
  AddMetric(&layers, "collection.order_us", order_us, "us");
  AddMetric(&layers, "ledger.rtt_us", build_us, "us");
  AddMetric(&layers, "ledger.core_us", core_us, "us");
  AddMetric(&layers, "ledger.collection_us", collection_us, "us");
  AddMetric(&layers, "ledger.sum_ratio", check.ratio, "ratio");
  AddMetric(&layers, "ledger.joined_ratio", 1.0, "ratio");
  AddMetric(&layers, "obs.trace_overhead",
            Ratio(t.leaves / t.seconds, u.leaves / u.seconds), "ratio");
  AddCoreCounters(u.program, &layers);
  AddQualityAndSetup(quality, load_s, index_s, o, &layers);
  OrderPerLayer(&layers);
  return layers;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.workload != "shared_root" && args.workload != "tree_build")) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "shared_root|tree_build --seed N --seconds S "
                 "--trace 0|1 --data-dir DIR [--rev REV]\n");
    return 2;
  }
  PrintHeader(args);
  Inputs inputs;
  if (!MakeInputs(args, &inputs)) return 1;
  Outcome o = args.workload == "tree_build"
                  ? RunTreeBuild(args, inputs)
                  : RunServing(args, inputs);
  std::error_code ec;
  std::filesystem::remove_all(args.data_dir, ec);
  for (const std::string& note : o.notes) std::printf("# %s\n", note.c_str());
  const std::string result =
      ResultJson(o.correct, o.attempted, o.failed, o.metrics);
  std::printf("%s\n", result.c_str());
  return 0;
}
