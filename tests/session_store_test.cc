// Tests for the durability tier: the CRC record framing and SessionRecord
// codec, SessionStore WAL/checkpoint semantics under fault injection
// (FaultFs), spill-to-disk + rehydration byte-parity against never-evicted
// sessions across selectors, §6 configs, and shard counts, resume across a
// simulated restart (store reopened from disk), and the reaper/evictor vs.
// resume race under a tiny capacity and millisecond reap ticks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/selectors.h"
#include "obs/journey.h"
#include "obs/registry.h"
#include "service/durability.h"
#include "service/session_manager.h"
#include "service/session_store.h"
#include "test_util.h"
#include "util/clock.h"

namespace setdisc {
namespace {

using namespace setdisc::testing;

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "setdisc_store_" + tag + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

SessionRecord MakeRecord(uint64_t id) {
  SessionRecord rec;
  rec.id = id;
  rec.token = 0x1234567890abcdefULL + id;
  rec.collection_fingerprint = 42;
  rec.selector = "MostEven";
  rec.options.verify_and_backtrack = true;
  rec.options.handle_dont_know = true;
  rec.options.max_questions = 17;
  rec.options.max_backtracks = 3;
  rec.trace = {0x1111222233334444ULL, 0x5555666677778888ULL + id};
  rec.create_effort = 2;
  rec.initial = {kA, kB, kC};
  rec.events = {{kEventAnswer, 0, 0},
                {kEventAnswer, 2, 1},
                {kEventVerify, 1, 0}};
  return rec;
}

// ---------------------------------------------------------------------------
// SessionRecord codec
// ---------------------------------------------------------------------------

TEST(SessionRecordCodec, Roundtrip) {
  SessionRecord rec = MakeRecord(7);
  std::string buf;
  EncodeSessionRecord(rec, &buf);

  SessionRecord back;
  ASSERT_TRUE(DecodeSessionRecord(buf, &back));
  EXPECT_EQ(back.id, rec.id);
  EXPECT_EQ(back.token, rec.token);
  EXPECT_EQ(back.collection_fingerprint, rec.collection_fingerprint);
  EXPECT_EQ(back.selector, rec.selector);
  EXPECT_EQ(back.options.verify_and_backtrack, rec.options.verify_and_backtrack);
  EXPECT_EQ(back.options.handle_dont_know, rec.options.handle_dont_know);
  EXPECT_EQ(back.options.max_questions, rec.options.max_questions);
  EXPECT_EQ(back.options.max_backtracks, rec.options.max_backtracks);
  EXPECT_EQ(back.trace, rec.trace);
  EXPECT_EQ(back.create_effort, rec.create_effort);
  EXPECT_EQ(back.initial, rec.initial);
  ASSERT_EQ(back.events.size(), rec.events.size());
  for (size_t i = 0; i < rec.events.size(); ++i) {
    EXPECT_EQ(back.events[i].kind, rec.events[i].kind) << i;
    EXPECT_EQ(back.events[i].value, rec.events[i].value) << i;
    EXPECT_EQ(back.events[i].effort, rec.events[i].effort) << i;
  }
}

TEST(SessionRecordCodec, RejectsEveryTruncation) {
  std::string buf;
  EncodeSessionRecord(MakeRecord(9), &buf);
  SessionRecord out;
  for (size_t len = 0; len < buf.size(); ++len) {
    EXPECT_FALSE(DecodeSessionRecord(std::string_view(buf).substr(0, len), &out))
        << "accepted a " << len << "-byte prefix of a " << buf.size()
        << "-byte record";
  }
  ASSERT_TRUE(DecodeSessionRecord(buf, &out));
}

TEST(SessionRecordCodec, RejectsTrailingGarbageAndBadVersion) {
  std::string buf;
  EncodeSessionRecord(MakeRecord(3), &buf);
  SessionRecord out;
  std::string longer = buf + '\0';
  EXPECT_FALSE(DecodeSessionRecord(longer, &out));

  std::string wrong_version = buf;
  wrong_version[0] = static_cast<char>(0x7f);
  EXPECT_FALSE(DecodeSessionRecord(wrong_version, &out));
}

// The version-1 layout, written the way its encoder did: a flags byte (bit
// 0 = the retired per-session trace ring) where version 2 keeps the trace id.
std::string EncodeV1Record(const SessionRecord& rec, uint8_t flags) {
  std::string out;
  ByteWriter w(&out);
  w.PutU8(1);
  w.PutU64(rec.id);
  w.PutU64(rec.token);
  w.PutU64(rec.collection_fingerprint);
  w.PutString(rec.selector);
  w.PutU32(static_cast<uint32_t>(rec.options.max_questions));
  w.PutU8(rec.options.handle_dont_know ? 1 : 0);
  w.PutU8(rec.options.verify_and_backtrack ? 1 : 0);
  w.PutU32(static_cast<uint32_t>(rec.options.max_backtracks));
  w.PutU8(flags);
  w.PutU8(rec.create_effort);
  w.PutU32(static_cast<uint32_t>(rec.initial.size()));
  for (EntityId e : rec.initial) w.PutU32(e);
  w.PutU32(static_cast<uint32_t>(rec.events.size()));
  for (const SessionEvent& ev : rec.events) {
    w.PutU8(ev.kind);
    w.PutU8(ev.value);
    w.PutU8(ev.effort);
  }
  return out;
}

TEST(SessionRecordCodec, DecodesVersionOneRecords) {
  // Records written before the trace id replaced the flags byte are crash
  // recovery state: they still decode, with no trace id, whatever the
  // retired trace bit said.
  const SessionRecord rec = MakeRecord(11);
  for (uint8_t flags : {uint8_t{0}, uint8_t{1}}) {
    const std::string v1 = EncodeV1Record(rec, flags);
    SessionRecord back;
    ASSERT_TRUE(DecodeSessionRecord(v1, &back)) << "flags " << int{flags};
    EXPECT_FALSE(back.trace.valid());
    EXPECT_EQ(back.id, rec.id);
    EXPECT_EQ(back.token, rec.token);
    EXPECT_EQ(back.selector, rec.selector);
    EXPECT_EQ(back.options.max_questions, rec.options.max_questions);
    EXPECT_EQ(back.create_effort, rec.create_effort);
    EXPECT_EQ(back.initial, rec.initial);
    ASSERT_EQ(back.events.size(), rec.events.size());
    for (size_t len = 0; len < v1.size(); ++len) {
      EXPECT_FALSE(
          DecodeSessionRecord(std::string_view(v1).substr(0, len), &back))
          << "accepted a " << len << "-byte prefix";
    }
  }
  // The version-2 encoding is the version-1 one with 15 more bytes.
  std::string v2;
  EncodeSessionRecord(rec, &v2);
  EXPECT_EQ(v2.size(), EncodeV1Record(rec, 0).size() + 15);
}

// ---------------------------------------------------------------------------
// CRC record framing
// ---------------------------------------------------------------------------

TEST(RecordFraming, ScanStopsAtEveryTornBoundary) {
  std::string file;
  std::vector<std::string> payloads = {"alpha", "bee", "the third payload"};
  for (const auto& p : payloads) AppendRecord(&file, p);

  // Record boundaries (end offsets) within the file.
  std::vector<size_t> ends;
  {
    size_t off = 0;
    for (const auto& p : payloads) {
      off += 8 + p.size();
      ends.push_back(off);
    }
  }
  ASSERT_EQ(ends.back(), file.size());

  for (size_t cut = 0; cut <= file.size(); ++cut) {
    std::vector<std::string> seen;
    RecordScan scan =
        ScanRecords(std::string_view(file).substr(0, cut),
                    [&seen](std::string_view p) { seen.emplace_back(p); });
    size_t expect = 0;
    while (expect < ends.size() && ends[expect] <= cut) ++expect;
    ASSERT_EQ(seen.size(), expect) << "cut at byte " << cut;
    for (size_t i = 0; i < expect; ++i) EXPECT_EQ(seen[i], payloads[i]);
    EXPECT_EQ(scan.records, expect);
    EXPECT_EQ(scan.torn_tail, cut != (expect == 0 ? 0 : ends[expect - 1]))
        << "cut at byte " << cut;
  }
}

TEST(RecordFraming, ScanStopsAtCorruptInterior) {
  std::string file;
  AppendRecord(&file, "first");
  size_t second_at = file.size();
  AppendRecord(&file, "second");
  AppendRecord(&file, "third");

  // Flip one payload byte of the middle record: the scan must deliver only
  // the first record and flag the rest as torn.
  file[second_at + 8] ^= 0x01;
  std::vector<std::string> seen;
  RecordScan scan = ScanRecords(
      file, [&seen](std::string_view p) { seen.emplace_back(p); });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "first");
  EXPECT_TRUE(scan.torn_tail);
}

TEST(RecordFraming, ScanRefusesGiantLength) {
  std::string file;
  ByteWriter w(&file);
  w.PutU32(0x7fffffff);  // length far past max_payload
  w.PutU32(0);
  file.append(64, 'x');
  RecordScan scan = ScanRecords(file, [](std::string_view) {});
  EXPECT_EQ(scan.records, 0u);
  EXPECT_TRUE(scan.torn_tail);
}

// ---------------------------------------------------------------------------
// SessionStore: persistence across reopen, torn tails, compaction
// ---------------------------------------------------------------------------

TEST(SessionStore, PersistsAcrossReopen) {
  const std::string dir = FreshDir("reopen");
  constexpr uint64_t kFp = 42;
  {
    SessionStoreOptions opt;
    opt.dir = dir;
    SessionStore store(opt);
    ASSERT_TRUE(store.Open(kFp).ok());
    for (uint64_t id = 1; id <= 5; ++id) EXPECT_TRUE(store.Put(MakeRecord(id)));
    store.Erase(3);
    ASSERT_TRUE(store.Flush().ok());
  }
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(kFp).ok());
  EXPECT_EQ(store.size(), 4u);
  EXPECT_FALSE(store.Contains(3));
  EXPECT_GE(store.max_id(), 5u);
  SessionRecord rec;
  ASSERT_TRUE(store.Get(4, &rec));
  EXPECT_EQ(rec.token, MakeRecord(4).token);
  EXPECT_EQ(rec.events.size(), 3u);
}

TEST(SessionStore, TornWalTailDiscardedOnReplay) {
  const std::string dir = FreshDir("torn");
  constexpr uint64_t kFp = 42;
  {
    SessionStoreOptions opt;
    opt.dir = dir;
    SessionStore store(opt);
    ASSERT_TRUE(store.Open(kFp).ok());
    for (uint64_t id = 1; id <= 3; ++id) EXPECT_TRUE(store.Put(MakeRecord(id)));
    ASSERT_TRUE(store.Flush().ok());
  }
  const std::string wal = dir + "/sessions.wal";
  std::string bytes = Slurp(wal);
  ASSERT_FALSE(bytes.empty());
  // Simulate a crash mid-append: a half-written frame at the WAL tail.
  {
    std::ofstream f(wal, std::ios::binary | std::ios::app);
    f.write("\x40\x00\x00\x00\xde\xad\xbe\xef\x01half", 12);
  }
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(kFp).ok());
  EXPECT_EQ(store.size(), 3u);
  EXPECT_GT(store.stats().torn_bytes, 0u);
  // Open compacts: the rebuilt files replay clean a second time.
  SessionStore again(opt);
  ASSERT_TRUE(again.Open(kFp).ok());
  EXPECT_EQ(again.size(), 3u);
  EXPECT_EQ(again.stats().torn_bytes, 0u);
}

TEST(SessionStore, CheckpointCompactsWalAndTombstones) {
  const std::string dir = FreshDir("compact");
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(1).ok());
  for (uint64_t id = 1; id <= 20; ++id) {
    SessionRecord rec = MakeRecord(id);
    rec.collection_fingerprint = 1;
    EXPECT_TRUE(store.Put(rec));
  }
  for (uint64_t id = 1; id <= 20; id += 2) store.Erase(id);
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_GT(std::filesystem::file_size(store.WalPath()), 0u);

  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_EQ(std::filesystem::file_size(store.WalPath()), 0u);

  // The checkpoint holds exactly the 10 survivors, no tombstones.
  size_t records = 0;
  ScanRecords(Slurp(store.CheckpointPath()),
              [&records](std::string_view) { ++records; });
  EXPECT_EQ(records, 10u);

  SessionStore again(opt);
  ASSERT_TRUE(again.Open(1).ok());
  EXPECT_EQ(again.size(), 10u);
  EXPECT_FALSE(again.Contains(1));
  EXPECT_TRUE(again.Contains(2));
}

TEST(SessionStore, FingerprintMismatchDropsRecords) {
  const std::string dir = FreshDir("fp");
  {
    SessionStoreOptions opt;
    opt.dir = dir;
    SessionStore store(opt);
    ASSERT_TRUE(store.Open(42).ok());
    EXPECT_TRUE(store.Put(MakeRecord(1)));  // fingerprint 42
    ASSERT_TRUE(store.Flush().ok());
  }
  SessionStoreOptions opt;
  opt.dir = dir;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(43).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_GT(store.stats().dropped, 0u);
  // The id is still reserved: a restarted manager must not reissue it even
  // when the record itself was dropped.
  EXPECT_GE(store.max_id(), 1u);
}

TEST(SessionStore, GroupCommitBatchesAppends) {
  const std::string dir = FreshDir("batch");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.wal_batch_records = 4;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  const uint64_t appends_after_open = fs.appends();

  for (uint64_t id = 1; id <= 3; ++id) EXPECT_TRUE(store.Put(MakeRecord(id)));
  EXPECT_EQ(fs.appends(), appends_after_open) << "flushed before the batch bound";
  EXPECT_TRUE(store.Put(MakeRecord(4)));
  EXPECT_EQ(fs.appends(), appends_after_open + 1)
      << "the 4th record must flush the batch in one append";
  EXPECT_EQ(store.stats().wal_flushes, 1u);

  // An explicit Flush drains a partial batch.
  EXPECT_TRUE(store.Put(MakeRecord(5)));
  ASSERT_TRUE(store.Flush().ok());
  EXPECT_EQ(fs.appends(), appends_after_open + 2);
}

TEST(SessionStore, FsyncPolicyHonored) {
  const std::string dir = FreshDir("fsync");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fsync = true;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  EXPECT_TRUE(store.Put(MakeRecord(1)));
  EXPECT_GT(fs.syncs(), 0u);
}

// ---------------------------------------------------------------------------
// SessionStore: fault injection and degraded mode
// ---------------------------------------------------------------------------

TEST(SessionStore, EnospcDegradesThenCheckpointHeals) {
  const std::string dir = FreshDir("enospc");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  EXPECT_TRUE(store.Put(MakeRecord(1)));
  ASSERT_FALSE(store.degraded());

  // Disk full: the next WAL flush tears mid-record and fails. The store must
  // keep serving from memory, flagged degraded.
  fs.FailAppendsAfterBytes(10);
  EXPECT_FALSE(store.Put(MakeRecord(2)));
  EXPECT_TRUE(store.degraded());
  EXPECT_GT(store.stats().io_errors, 0u);
  SessionRecord rec;
  EXPECT_TRUE(store.Get(2, &rec)) << "degraded store must still serve memory";

  // While degraded, appends stop — no point tearing more records.
  const uint64_t appends_before = fs.appends();
  EXPECT_FALSE(store.Put(MakeRecord(3)));
  EXPECT_EQ(fs.appends(), appends_before);

  // Space returns: one successful checkpoint rewrites everything the WAL
  // missed and clears the flag.
  fs.FailAppendsAfterBytes(-1);
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_FALSE(store.degraded());
  EXPECT_TRUE(store.Put(MakeRecord(4)));

  SessionStoreOptions plain;
  plain.dir = dir;
  SessionStore again(plain);
  ASSERT_TRUE(again.Open(42).ok());
  EXPECT_EQ(again.size(), 4u) << "healed store must have persisted 1..4";
  // The torn bytes written before the failure must not confuse replay.
  EXPECT_TRUE(again.Contains(2));
  EXPECT_TRUE(again.Contains(3));
}

TEST(SessionStore, EnteringDegradedModeRecordsOneEvent) {
  const std::string dir = FreshDir("degraded_event");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  const uint64_t first = obs::Events().total();

  // The first failed append flips the store degraded: one event, a = the
  // I/O errors so far.
  fs.FailAppendsAfterBytes(0);
  EXPECT_FALSE(store.Put(MakeRecord(1)));
  ASSERT_TRUE(store.degraded());
  std::vector<obs::Span> events =
      EventsSince(first, obs::FlightEventKind::kStoreDegraded);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(SpanAnnotationU64(events[0], "a"), 1u);

  // A second failure while degraded counts, but records nothing new.
  fs.set_fail_atomic_write(true);
  EXPECT_FALSE(store.Checkpoint().ok());
  EXPECT_EQ(store.stats().io_errors, 2u);
  EXPECT_EQ(EventsSince(first, obs::FlightEventKind::kStoreDegraded).size(),
            1u);
}

TEST(SessionStore, UnreadableFileAtOpenCountsInStatsAndRegistry) {
  const std::string dir = FreshDir("readfail");
  {
    SessionStoreOptions plain;
    plain.dir = dir;
    SessionStore store(plain);
    ASSERT_TRUE(store.Open(42).ok());
    EXPECT_TRUE(store.Put(MakeRecord(1)));
    ASSERT_TRUE(store.Flush().ok());
  }
  ASSERT_TRUE(std::filesystem::exists(dir + "/sessions.wal"));
  ASSERT_TRUE(std::filesystem::exists(dir + "/sessions.ckpt"));

  // Both files exist and neither can be read: two I/O errors, each counted
  // in the store's stats and in the process registry alike, so the
  // shutdown report and the Prometheus counter agree.
  obs::Counter* io_errors =
      obs::MetricsRegistry::Default().GetCounter("setdisc_store_io_errors_total");
  const uint64_t before = io_errors->Value();
  FaultFs fs;
  fs.set_fail_read(true);
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.stats().io_errors, 2u);
  EXPECT_EQ(io_errors->Value() - before, store.stats().io_errors);
}

TEST(SessionStore, FailedCheckpointStaysDegradedAndKeepsOldFile) {
  const std::string dir = FreshDir("ckptfail");
  FaultFs fs;
  SessionStoreOptions opt;
  opt.dir = dir;
  opt.fs = &fs;
  SessionStore store(opt);
  ASSERT_TRUE(store.Open(42).ok());
  EXPECT_TRUE(store.Put(MakeRecord(1)));
  ASSERT_TRUE(store.Checkpoint().ok());
  const std::string ckpt_before = Slurp(store.CheckpointPath());

  EXPECT_TRUE(store.Put(MakeRecord(2)));
  fs.set_fail_atomic_write(true);
  EXPECT_FALSE(store.Checkpoint().ok());
  EXPECT_TRUE(store.degraded());
  // Atomic write: the failed rewrite must not have touched the target.
  EXPECT_EQ(Slurp(store.CheckpointPath()), ckpt_before);

  fs.set_fail_atomic_write(false);
  ASSERT_TRUE(store.Checkpoint().ok());
  EXPECT_FALSE(store.degraded());
}

TEST(SessionStore, CrashHookProducesRecoverablePrefix) {
  const std::string dir = FreshDir("crashpt");
  constexpr uint64_t kFp = 42;
  // Kill the WAL at every append ordinal in turn; whatever was appended
  // before the "crash" must replay, and never anything after it.
  for (uint64_t crash_at = 1; crash_at <= 4; ++crash_at) {
    std::filesystem::remove_all(dir);
    FaultFs fs;
    SessionStoreOptions opt;
    opt.dir = dir;
    opt.fs = &fs;
    uint64_t survived = 0;
    {
      SessionStore store(opt);
      ASSERT_TRUE(store.Open(kFp).ok());
      fs.set_crash_hook([crash_at](uint64_t ordinal) {
        return ordinal < crash_at;
      });
      for (uint64_t id = 1; id <= 6; ++id) {
        if (store.Put(MakeRecord(id))) survived = id;
      }
    }
    SessionStoreOptions plain;
    plain.dir = dir;
    SessionStore again(plain);
    ASSERT_TRUE(again.Open(kFp).ok());
    EXPECT_EQ(again.size(), survived) << "crash at append " << crash_at;
    for (uint64_t id = 1; id <= survived; ++id) {
      EXPECT_TRUE(again.Contains(id)) << "crash at append " << crash_at;
    }
  }
}

// ---------------------------------------------------------------------------
// Manager integration: spill + rehydrate byte-parity
// ---------------------------------------------------------------------------

struct LiveSession {
  SessionView view;
  // Kept aside: the token is delivered exactly once, in the Create view, and
  // later step views carry 0.
  uint64_t token = 0;
  std::unique_ptr<SimulatedOracle> oracle;
};

// One step of a conversation against a manager; returns false once finished.
bool StepOnce(SessionManager& manager, LiveSession& s) {
  if (s.view.state == SessionState::kFinished) return false;
  SessionStatus st;
  if (s.view.state == SessionState::kAwaitingAnswer) {
    st = manager.SubmitAnswer(s.view.id,
                              s.oracle->AskMembership(s.view.question),
                              &s.view, s.token);
  } else {
    st = manager.Verify(s.view.id, s.oracle->ConfirmTarget(s.view.verify_set),
                        &s.view, s.token);
  }
  EXPECT_EQ(st, SessionStatus::kOk) << "session " << s.view.id;
  return st == SessionStatus::kOk && s.view.state != SessionState::kFinished;
}

void ExpectSameOutcome(const SessionView& a, const SessionView& b,
                       const char* what) {
  EXPECT_EQ(a.state, b.state) << what;
  EXPECT_EQ(a.result.candidates, b.result.candidates) << what;
  EXPECT_EQ(a.result.questions, b.result.questions) << what;
  EXPECT_EQ(a.result.backtracks, b.result.backtracks) << what;
  EXPECT_EQ(a.result.confirmed, b.result.confirmed) << what;
  ASSERT_EQ(a.result.transcript.size(), b.result.transcript.size()) << what;
  for (size_t i = 0; i < a.result.transcript.size(); ++i) {
    EXPECT_EQ(a.result.transcript[i], b.result.transcript[i])
        << what << " step " << i;
  }
}

// Drives every target of the paper collection round-robin through two
// managers — a RAM-only reference and a store-backed one whose capacity of 2
// forces constant spilling, so nearly every step rehydrates — and asserts
// byte-identical transcripts. The spilled side issues tokens, so the test
// also proves rehydration preserves token checks.
void CheckSpillParity(const DiscoveryOptions& discovery,
                      std::function<std::unique_ptr<EntitySelector>()> factory,
                      double dont_know_rate, const char* tag) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);

  SessionManagerOptions ram;
  ram.discovery = discovery;
  ram.selector_factory = factory;
  ram.background_reap = false;

  const std::string dir = FreshDir(std::string("parity_") + tag);
  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());

  SessionManagerOptions spill = ram;
  spill.max_sessions = 2;
  spill.session_store = &store;

  SessionManager ref(c, idx, ram);
  SessionManager spilly(c, idx, spill);

  std::vector<LiveSession> ref_s, spill_s;
  for (SetId target = 0; target < c.num_sets(); ++target) {
    for (auto* vec : {&ref_s, &spill_s}) {
      LiveSession s;
      s.oracle = std::make_unique<SimulatedOracle>(
          &c, target, /*error_rate=*/discovery.verify_and_backtrack ? 0.2 : 0.0,
          dont_know_rate, /*seed=*/100 + target);
      vec->push_back(std::move(s));
    }
    ref_s[target].view = ref.Create({});
    spill_s[target].view =
        spilly.Create({}, /*journey_trace=*/{}, /*issue_token=*/true);
    spill_s[target].token = spill_s[target].view.token;
    EXPECT_NE(spill_s[target].token, 0u);
  }

  // Round-robin stepping: with capacity 2 and 7 live conversations, the
  // store-backed manager rehydrates almost every touched session.
  bool any = true;
  int guard = 0;
  while (any) {
    ASSERT_LT(guard++, 100000) << "sessions failed to terminate";
    any = false;
    for (size_t i = 0; i < ref_s.size(); ++i) {
      bool more_ref = StepOnce(ref, ref_s[i]);
      bool more_spill = StepOnce(spilly, spill_s[i]);
      ASSERT_EQ(more_ref, more_spill) << "session " << i << " diverged";
      any = any || more_ref;
    }
  }
  for (size_t i = 0; i < ref_s.size(); ++i) {
    ExpectSameOutcome(ref_s[i].view, spill_s[i].view, tag);
    // Only clean conversations are guaranteed to converge to their target;
    // with don't-knows the exclusions can leave sets indistinguishable, and
    // with errors the budgeted backtracking can end elsewhere. Parity above
    // is the property under test either way.
    if (dont_know_rate == 0.0 && !discovery.verify_and_backtrack) {
      EXPECT_TRUE(ref_s[i].view.result.found()) << tag;
      EXPECT_EQ(ref_s[i].view.result.discovered(), static_cast<SetId>(i))
          << tag;
    }
  }
}

TEST(SpillParity, MostEvenClean) {
  CheckSpillParity(DiscoveryOptions{},
                   [] { return std::make_unique<MostEvenSelector>(); }, 0.0,
                   "mosteven");
}

TEST(SpillParity, InfoGainClean) {
  CheckSpillParity(DiscoveryOptions{},
                   [] { return std::make_unique<InfoGainSelector>(); }, 0.0,
                   "infogain");
}

TEST(SpillParity, DontKnowAnswers) {
  DiscoveryOptions options;
  options.handle_dont_know = true;
  CheckSpillParity(options, [] { return std::make_unique<MostEvenSelector>(); },
                   0.3, "dontknow");
}

TEST(SpillParity, VerifyAndBacktrack) {
  DiscoveryOptions options;
  options.verify_and_backtrack = true;
  CheckSpillParity(options, [] { return std::make_unique<MostEvenSelector>(); },
                   0.1, "backtrack");
}

// ---------------------------------------------------------------------------
// Manager integration: resume across a restart
// ---------------------------------------------------------------------------

// Partially drives sessions under one manager, tears the whole stack down,
// reopens the store from disk under a fresh manager, and finishes the
// conversations — outcomes must match an uninterrupted reference run.
// Deterministic oracles (no errors, no don't-knows) so the continuation is a
// pure function of the questions.
TEST(RestartResume, Unsharded) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  const std::string dir = FreshDir("restart");

  auto make_options = [] {
    SessionManagerOptions o;
    o.background_reap = false;
    o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
    return o;
  };

  // Uninterrupted reference.
  std::vector<DiscoveryResult> want;
  {
    SessionManagerOptions o = make_options();
    SessionManager ref(c, idx, o);
    for (SetId target = 0; target < c.num_sets(); ++target) {
      SimulatedOracle oracle(&c, target, 0.0, 0.0, 1);
      SessionView view = ref.Drive(ref.Create({}), oracle);
      ASSERT_EQ(view.state, SessionState::kFinished);
      want.push_back(view.result);
    }
  }

  struct Handle {
    uint64_t id;
    uint64_t token;
    int asked_before_crash;
  };
  std::vector<Handle> handles;
  {
    SessionStoreOptions sopt;
    sopt.dir = dir;
    SessionStore store(sopt);
    ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
    SessionManagerOptions o = make_options();
    o.session_store = &store;
    SessionManager manager(c, idx, o);
    for (SetId target = 0; target < c.num_sets(); ++target) {
      LiveSession s;
      s.oracle = std::make_unique<SimulatedOracle>(&c, target, 0.0, 0.0, 1);
      s.view = manager.Create({}, {}, /*issue_token=*/true);
      s.token = s.view.token;
      // Answer (target % 3) questions, then "crash".
      for (SetId step = 0; step < target % 3; ++step) {
        if (s.view.state == SessionState::kFinished) break;
        StepOnce(manager, s);
      }
      handles.push_back({s.view.id, s.token, s.view.questions_asked});
    }
    ASSERT_TRUE(store.Flush().ok());
    // Managers and store destroyed here: the only surviving state is disk.
  }

  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  EXPECT_EQ(store.size(), handles.size());
  SessionManagerOptions o = make_options();
  o.session_store = &store;
  SessionManager manager(c, idx, o);

  // A restarted manager must never reissue a persisted id.
  SessionView fresh = manager.Create({});
  EXPECT_GT(fresh.id, handles.back().id);

  for (SetId target = 0; target < c.num_sets(); ++target) {
    LiveSession s;
    s.oracle = std::make_unique<SimulatedOracle>(&c, target, 0.0, 0.0, 1);
    // Wrong token: same answer as an unknown id.
    SessionView probe;
    EXPECT_EQ(manager.Get(handles[target].id, &probe,
                          handles[target].token ^ 1),
              SessionStatus::kNotFound);
    ASSERT_EQ(manager.Get(handles[target].id, &s.view, handles[target].token),
              SessionStatus::kOk)
        << "session " << handles[target].id << " did not survive the restart";
    s.token = handles[target].token;
    EXPECT_EQ(s.view.questions_asked, handles[target].asked_before_crash)
        << "resumed session lost or replayed steps";
    int guard = 0;
    while (StepOnce(manager, s)) ASSERT_LT(guard++, 10000);
    ASSERT_EQ(s.view.state, SessionState::kFinished);
    EXPECT_EQ(s.view.result.candidates, want[target].candidates);
    EXPECT_EQ(s.view.result.questions, want[target].questions);
    ASSERT_EQ(s.view.result.transcript.size(), want[target].transcript.size());
    for (size_t i = 0; i < want[target].transcript.size(); ++i) {
      EXPECT_EQ(s.view.result.transcript[i], want[target].transcript[i])
          << "target " << target << " step " << i;
    }
  }
}

TEST(RestartResume, CloseErasesTheRecord) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  const std::string dir = FreshDir("close");
  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  SessionManagerOptions o;
  o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  o.background_reap = false;
  o.session_store = &store;
  SessionManager manager(c, idx, o);

  SessionView view = manager.Create({});
  ASSERT_TRUE(store.Contains(view.id));
  EXPECT_EQ(manager.Close(view.id), SessionStatus::kOk);
  EXPECT_FALSE(store.Contains(view.id))
      << "a closed conversation must not be resumable";
  SessionView again;
  EXPECT_EQ(manager.Get(view.id, &again), SessionStatus::kNotFound);
}

// ---------------------------------------------------------------------------
// What a resume records: nothing for the replay, and the stored trace id
// ---------------------------------------------------------------------------

/// A store-backed MostEven manager holding one live session at a time, so
/// every Create spills the previous conversation.
SessionManagerOptions OneLiveSession(SessionStore* store) {
  SessionManagerOptions o;
  o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  o.background_reap = false;
  o.max_sessions = 1;
  o.session_store = store;
  return o;
}

TEST(SpillResume, ReplayRecordsNoStepsOrSpans) {
  JourneyOn journey;
  SetCollection c = RandomCollection(/*seed=*/5, /*n=*/64, /*m=*/24, 0.3);
  InvertedIndex idx(c);
  SessionStoreOptions sopt;
  sopt.dir = FreshDir("replay_quiet");
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  SessionManager manager(c, idx, OneLiveSession(&store));

  SessionView view = manager.Create({});
  SimulatedOracle oracle(&c, /*target=*/3);
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
    ASSERT_EQ(manager.SubmitAnswer(view.id,
                                   oracle.AskMembership(view.question), &view),
              SessionStatus::kOk);
  }
  ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
  manager.Create({});  // spills the answered session

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  obs::Counter* answers =
      reg.GetCounter("setdisc_steps_total", {{"kind", "answer"}});
  obs::Histogram* step_hist =
      reg.GetHistogram("setdisc_step_latency_ns", {{"selector", "MostEven"}});
  obs::Histogram* create_hist =
      reg.GetHistogram("setdisc_create_latency_ns", {{"selector", "MostEven"}});
  const uint64_t answers_before = answers->Value();
  const uint64_t steps_before = step_hist->Snapshot().count;
  const uint64_t creates_before = create_hist->Snapshot().count;

  // Resume it the way a server pool job would, under a request context.
  obs::JourneyContext jc;
  jc.trace = obs::MakeTraceId();
  jc.request_span = obs::NextSpanId();
  SessionView resumed;
  {
    obs::JourneyScope scope(&jc);
    ASSERT_EQ(manager.Get(view.id, &resumed), SessionStatus::kOk);
  }
  EXPECT_EQ(resumed.questions_asked, 2);

  // Two replayed answers, and no step was served.
  EXPECT_EQ(answers->Value() - answers_before, 0u);
  EXPECT_EQ(step_hist->Snapshot().count - steps_before, 0u);
  EXPECT_EQ(create_hist->Snapshot().count - creates_before, 0u);
  EXPECT_FALSE(jc.have_step) << "replay overwrote the request's step fields";
  EXPECT_TRUE(RecordedSteps(jc.trace).empty());
  for (const obs::Span& span : obs::Journey().Snapshot()) {
    EXPECT_NE(span.parent_id, jc.request_span)
        << "replay emitted " << span.name << " under the resuming request";
  }

  // The resumed session records its next step like any other.
  ASSERT_EQ(manager.SubmitAnswer(view.id, oracle.AskMembership(resumed.question),
                                 &resumed),
            SessionStatus::kOk);
  EXPECT_EQ(answers->Value() - answers_before, 1u);
  EXPECT_EQ(step_hist->Snapshot().count - steps_before, 1u);
}

TEST(SpillResume, ResumedConversationKeepsItsTraceId) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionStoreOptions sopt;
  sopt.dir = FreshDir("resume_trace");
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  SessionManager manager(c, idx, OneLiveSession(&store));

  // Every step runs as its own request, whose context carries no id.
  auto answer = [&](SessionView* view, Oracle& oracle) {
    obs::JourneyContext jc;
    jc.request_span = obs::NextSpanId();
    obs::JourneyScope scope(&jc);
    return manager.SubmitAnswer(view->id, oracle.AskMembership(view->question),
                                view);
  };

  const obs::TraceId trace = obs::MakeTraceId();
  SessionView view = manager.Create({}, trace);
  SimulatedOracle oracle(&c, /*target=*/5);
  ASSERT_EQ(answer(&view, oracle), SessionStatus::kOk);
  ASSERT_EQ(view.state, SessionState::kAwaitingAnswer);
  manager.Create({});  // spills it: only the store record remains

  // The resume request itself (kResumeSession is a Get) joins the trace,
  // so the replay it pays for is in the conversation's record too.
  obs::JourneyContext resume;
  {
    obs::JourneyScope scope(&resume);
    ASSERT_EQ(manager.Get(view.id, &view), SessionStatus::kOk);
  }
  EXPECT_EQ(resume.session_id, view.id);
  EXPECT_TRUE(resume.trace == trace);

  manager.Create({});  // spills it again
  ASSERT_EQ(answer(&view, oracle), SessionStatus::kOk);  // rehydrates
  const std::vector<RecordedStep> steps = RecordedSteps(trace);
  ASSERT_EQ(steps.size(), 2u) << "the resumed step left the trace";
  EXPECT_EQ(SpanAnnotationU64(steps[0].span, "step"), 0u);
  EXPECT_EQ(SpanAnnotationU64(steps[1].span, "step"), 1u);
}

TEST(SpillResume, VersionOneRecordRehydratesWithoutATraceId) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);

  // Reference: a fresh session after one yes answer.
  SessionManagerOptions ram;
  ram.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  ram.background_reap = false;
  SessionManager ref(c, idx, ram);
  SessionView want = ref.Create({});
  ASSERT_EQ(ref.SubmitAnswer(want.id, Oracle::Answer::kYes, &want),
            SessionStatus::kOk);
  ASSERT_EQ(want.state, SessionState::kAwaitingAnswer);

  // The same conversation as a version-1 WAL record, trace bit set.
  SessionRecord rec;
  rec.id = 5;
  rec.token = 9;
  rec.collection_fingerprint = c.Fingerprint();
  rec.selector = "MostEven";
  rec.events = {{kEventAnswer, static_cast<uint8_t>(Oracle::Answer::kYes), 0}};
  const std::string dir = FreshDir("v1_record");
  std::filesystem::create_directories(dir);
  std::string wal;
  AppendRecord(&wal, std::string(1, '\x01') + EncodeV1Record(rec, 1));
  std::ofstream(dir + "/sessions.wal", std::ios::binary) << wal;

  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());
  SessionManagerOptions o = ram;
  o.session_store = &store;
  SessionManager manager(c, idx, o);
  SessionView view;
  ASSERT_EQ(manager.Get(rec.id, &view, rec.token), SessionStatus::kOk);
  EXPECT_EQ(view.questions_asked, 1);
  EXPECT_EQ(view.question, want.question);

  // With no stored id, the next step's request gets a fresh trace, and the
  // step numbering continues after the replayed answer.
  obs::JourneyContext jc;
  {
    obs::JourneyScope scope(&jc);
    ASSERT_EQ(manager.SubmitAnswer(rec.id, Oracle::Answer::kNo, &view,
                                   rec.token),
              SessionStatus::kOk);
  }
  const std::vector<RecordedStep> steps = RecordedSteps(jc.trace);
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(SpanAnnotationU64(steps[0].span, "step"), 1u);
}

// ---------------------------------------------------------------------------
// Reaper / evictor vs. resume: the spill race under a tiny capacity
// ---------------------------------------------------------------------------

// Hammers a store-backed manager whose reaper ticks every millisecond with a
// 5 ms TTL and a capacity of 3: every conversation is spilled out from under
// its driver over and over, and every touch races the evictor. Run under
// ASan/TSan this is the locking proof; functionally every conversation must
// still converge to its target with zero wrong answers.
TEST(SpillRace, ReaperAndEvictorVsResume) {
  SetCollection c = RandomCollection(/*seed=*/99, /*n=*/32, /*m=*/24, 0.3);
  InvertedIndex idx(c);
  const std::string dir = FreshDir("race");
  SessionStoreOptions sopt;
  sopt.dir = dir;
  SessionStore store(sopt);
  ASSERT_TRUE(store.Open(c.Fingerprint()).ok());

  SessionManagerOptions o;
  o.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  o.session_store = &store;
  o.max_sessions = 3;
  o.session_ttl = std::chrono::milliseconds(5);
  o.background_reap = true;
  o.reap_interval = std::chrono::milliseconds(1);
  o.num_threads = 4;
  SessionManager manager(c, idx, o);

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kSessionsPerThread; ++i) {
        SetId target =
            static_cast<SetId>((t * kSessionsPerThread + i) % c.num_sets());
        SimulatedOracle oracle(&c, target, 0.0, 0.0, /*seed=*/t * 100 + i);
        SessionView view = manager.Create({}, {}, /*issue_token=*/true);
        const uint64_t token = view.token;
        int guard = 0;
        while (view.state != SessionState::kFinished && guard++ < 10000) {
          // Loiter occasionally so the TTL reaper gets a real shot at
          // spilling this session mid-conversation.
          if (guard % 3 == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(7));
          }
          SessionStatus st;
          if (view.state == SessionState::kAwaitingAnswer) {
            st = manager.SubmitAnswer(
                view.id, oracle.AskMembership(view.question), &view, token);
          } else {
            st = manager.Verify(view.id,
                                oracle.ConfirmTarget(view.verify_set), &view,
                                token);
          }
          if (st != SessionStatus::kOk) {
            ++failures;
            break;
          }
        }
        if (view.state != SessionState::kFinished ||
            !view.result.found() || view.result.discovered() != target) {
          ++failures;
        }
        manager.Close(view.id, token);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0)
      << "conversations lost or diverted by the spill/resume race";
}

}  // namespace
}  // namespace setdisc
