// Wire-protocol framing and message-codec tests: roundtrips for every
// message, partial/fragmented delivery, garbage and truncated frames,
// oversized-length and version-mismatch rejection, and malformed-payload
// decoding — the pure (no-socket) half of the net subsystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <tuple>
#include <vector>

#include "net/protocol.h"
#include "util/rng.h"

namespace setdisc::net {
namespace {

// Feeds `bytes` and expects exactly one well-formed frame and nothing else.
Frame DecodeOne(FrameDecoder& decoder, std::string_view bytes) {
  decoder.Feed(bytes);
  Frame frame;
  WireStatus error = WireStatus::kOk;
  EXPECT_EQ(decoder.Pop(&frame, &error), FrameDecoder::Next::kFrame)
      << WireStatusName(error);
  Frame extra;
  EXPECT_EQ(decoder.Pop(&extra, &error), FrameDecoder::Next::kNeedMore);
  return frame;
}

// ---------------------------------------------------------------------------
// Message roundtrips
// ---------------------------------------------------------------------------

TEST(ProtocolRoundtrip, CreateSession) {
  CreateSessionMsg msg;
  msg.initial = {3, 0, 4294967294u};
  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(msg));
  EXPECT_EQ(frame.type, MsgType::kCreateSession);
  CreateSessionMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.initial, msg.initial);

  // Empty initial set is legal (all sets are candidates).
  msg.initial.clear();
  frame = DecodeOne(decoder, Encode(msg));
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_TRUE(decoded.initial.empty());
}

TEST(ProtocolRoundtrip, AnswerAllThreeValues) {
  for (Oracle::Answer answer :
       {Oracle::Answer::kYes, Oracle::Answer::kNo, Oracle::Answer::kDontKnow}) {
    FrameDecoder decoder;
    Frame frame = DecodeOne(decoder, Encode(AnswerMsg{0x1122334455667788ull, answer}));
    EXPECT_EQ(frame.type, MsgType::kAnswer);
    AnswerMsg decoded;
    ASSERT_TRUE(Decode(frame.body, &decoded));
    EXPECT_EQ(decoded.session_id, 0x1122334455667788ull);
    EXPECT_EQ(decoded.answer, answer);
  }
}

TEST(ProtocolRoundtrip, VerifyAndSessionRefAndStats) {
  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(VerifyMsg{42, true}));
  VerifyMsg verify;
  ASSERT_TRUE(Decode(frame.body, &verify));
  EXPECT_EQ(verify.session_id, 42u);
  EXPECT_TRUE(verify.confirmed);

  frame = DecodeOne(decoder, Encode(MsgType::kCloseSession, SessionRefMsg{7}));
  EXPECT_EQ(frame.type, MsgType::kCloseSession);
  SessionRefMsg ref;
  ASSERT_TRUE(Decode(frame.body, &ref));
  EXPECT_EQ(ref.session_id, 7u);

  frame = DecodeOne(decoder, EncodeStatsRequest());
  EXPECT_EQ(frame.type, MsgType::kStats);
  EXPECT_TRUE(frame.body.empty());

  StatsReplyMsg stats;
  stats.active_sessions = 5;
  stats.created_sessions = 1000;
  stats.connections_open = 3;
  stats.connections_total = 9;
  stats.frames_received = 123456789;
  stats.frames_sent = 987654321;
  frame = DecodeOne(decoder, Encode(stats));
  StatsReplyMsg decoded_stats;
  ASSERT_TRUE(Decode(frame.body, &decoded_stats));
  EXPECT_EQ(decoded_stats.created_sessions, 1000u);
  EXPECT_EQ(decoded_stats.frames_sent, 987654321u);
}

TEST(ProtocolRoundtrip, ErrorFrame) {
  FrameDecoder decoder;
  Frame frame =
      DecodeOne(decoder, Encode(ErrorMsg{WireStatus::kWrongState, "nope"}));
  EXPECT_EQ(frame.type, MsgType::kError);
  ErrorMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.status, WireStatus::kWrongState);
  EXPECT_EQ(decoded.message, "nope");
}

TEST(ProtocolRoundtrip, SessionStatePendingQuestion) {
  SessionStateMsg msg;
  msg.session_id = 77;
  msg.state = SessionState::kAwaitingAnswer;
  msg.question = 13;
  msg.verify_set = kNoSet;
  msg.questions_asked = 4;
  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(msg));
  SessionStateMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.session_id, 77u);
  EXPECT_EQ(decoded.state, SessionState::kAwaitingAnswer);
  EXPECT_EQ(decoded.question, 13u);
  EXPECT_EQ(decoded.verify_set, kNoSet);
  EXPECT_EQ(decoded.questions_asked, 4u);
  EXPECT_TRUE(decoded.result.transcript.empty());
}

TEST(ProtocolRoundtrip, FinishedSessionCarriesFullResult) {
  // Server-side view -> wire -> client-side DiscoveryResult must preserve
  // every field the parity tests compare.
  SessionView view;
  view.id = 9;
  view.state = SessionState::kFinished;
  view.questions_asked = 3;
  view.result.questions = 3;
  view.result.backtracks = 1;
  view.result.confirmed = true;
  view.result.halted = false;
  view.result.candidates = {17};
  view.result.transcript = {{2, Oracle::Answer::kYes},
                            {5, Oracle::Answer::kDontKnow},
                            {8, Oracle::Answer::kNo}};

  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(ToWire(view)));
  SessionStateMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.state, SessionState::kFinished);
  DiscoveryResult result = ToDiscoveryResult(decoded.result);
  EXPECT_EQ(result.questions, view.result.questions);
  EXPECT_EQ(result.backtracks, view.result.backtracks);
  EXPECT_EQ(result.confirmed, view.result.confirmed);
  EXPECT_EQ(result.halted, view.result.halted);
  EXPECT_EQ(result.candidates, view.result.candidates);
  ASSERT_EQ(result.transcript.size(), view.result.transcript.size());
  for (size_t i = 0; i < result.transcript.size(); ++i) {
    EXPECT_EQ(result.transcript[i], view.result.transcript[i]);
  }
}

TEST(ProtocolRoundtrip, HugeCandidateListsAreCappedWithTrueTotal) {
  // A halted session over a big collection can leave more candidates than a
  // frame should carry; the reply keeps the real count and the first
  // kMaxWireCandidates ids instead of overflowing the frame-size limit.
  SessionView view;
  view.id = 1;
  view.state = SessionState::kFinished;
  view.result.halted = true;
  view.result.candidates.resize(kMaxWireCandidates + 10);
  for (uint32_t i = 0; i < view.result.candidates.size(); ++i) {
    view.result.candidates[i] = i;
  }
  // Same for a pathological transcript (the other variable-length section).
  view.result.transcript.assign(kMaxWireTranscript + 7,
                                {3, Oracle::Answer::kYes});

  SessionStateMsg wire = ToWire(view);
  EXPECT_EQ(wire.result.total_candidates, kMaxWireCandidates + 10);
  EXPECT_EQ(wire.result.candidates.size(), kMaxWireCandidates);
  EXPECT_EQ(wire.result.total_transcript, kMaxWireTranscript + 7);
  EXPECT_EQ(wire.result.transcript.size(), kMaxWireTranscript);

  // Even this worst case stays under the default frame bound: the client's
  // decoder can never be poisoned by a legitimate reply.
  std::string encoded = Encode(wire);
  EXPECT_LE(encoded.size() - kFrameHeaderBytes, kDefaultMaxBody);

  FrameDecoder decoder(/*max_body=*/kDefaultMaxBody);
  Frame frame = DecodeOne(decoder, encoded);
  SessionStateMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.result.total_candidates, kMaxWireCandidates + 10);
  ASSERT_EQ(decoded.result.candidates.size(), kMaxWireCandidates);
  EXPECT_EQ(decoded.result.candidates.back(), kMaxWireCandidates - 1);
  EXPECT_EQ(decoded.result.total_transcript, kMaxWireTranscript + 7);
  EXPECT_EQ(decoded.result.transcript.size(), kMaxWireTranscript);
}

// ---------------------------------------------------------------------------
// Fragmentation
// ---------------------------------------------------------------------------

TEST(Framing, OneByteAtATime) {
  std::string frame = Encode(AnswerMsg{123, Oracle::Answer::kNo});
  FrameDecoder decoder;
  Frame out;
  WireStatus error;
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    decoder.Feed(frame.data() + i, 1);
    ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kNeedMore)
        << "byte " << i;
  }
  decoder.Feed(frame.data() + frame.size() - 1, 1);
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kFrame);
  AnswerMsg msg;
  ASSERT_TRUE(Decode(out.body, &msg));
  EXPECT_EQ(msg.session_id, 123u);
}

TEST(Framing, SplitAtEveryBoundary) {
  CreateSessionMsg create;
  create.initial = {1, 2, 3, 4, 5};
  std::string frame = Encode(create);
  for (size_t split = 1; split < frame.size(); ++split) {
    FrameDecoder decoder;
    decoder.Feed(frame.data(), split);
    Frame out;
    WireStatus error;
    ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kNeedMore)
        << "split " << split;
    decoder.Feed(frame.data() + split, frame.size() - split);
    ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kFrame)
        << "split " << split;
    CreateSessionMsg decoded;
    ASSERT_TRUE(Decode(out.body, &decoded)) << "split " << split;
    EXPECT_EQ(decoded.initial, create.initial);
  }
}

TEST(Framing, PipelinedFramesInOneFeed) {
  std::string bytes = Encode(AnswerMsg{1, Oracle::Answer::kYes}) +
                      Encode(VerifyMsg{2, false}) + EncodeStatsRequest();
  FrameDecoder decoder;
  decoder.Feed(bytes);
  Frame out;
  WireStatus error;
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kFrame);
  EXPECT_EQ(out.type, MsgType::kAnswer);
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kFrame);
  EXPECT_EQ(out.type, MsgType::kVerify);
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kFrame);
  EXPECT_EQ(out.type, MsgType::kStats);
  EXPECT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Framing, TruncatedFrameStaysPendingForever) {
  std::string frame = Encode(AnswerMsg{1, Oracle::Answer::kYes});
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size() - 1);  // one byte short
  Frame out;
  WireStatus error;
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kNeedMore);
  }
  EXPECT_EQ(decoder.buffered(), frame.size() - 1);
}

TEST(Framing, RandomizedFragmentationPreservesEveryFrame) {
  Rng rng(20240731);
  for (int round = 0; round < 50; ++round) {
    std::vector<uint64_t> ids;
    std::string bytes;
    int num_frames = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < num_frames; ++i) {
      uint64_t id = rng();
      ids.push_back(id);
      bytes += Encode(AnswerMsg{id, Oracle::Answer::kDontKnow});
    }
    FrameDecoder decoder;
    std::vector<uint64_t> seen;
    size_t pos = 0;
    while (pos < bytes.size()) {
      size_t chunk = 1 + static_cast<size_t>(rng.Uniform(23));
      chunk = std::min(chunk, bytes.size() - pos);
      decoder.Feed(bytes.data() + pos, chunk);
      pos += chunk;
      for (;;) {
        Frame out;
        WireStatus error;
        if (decoder.Pop(&out, &error) != FrameDecoder::Next::kFrame) break;
        AnswerMsg msg;
        ASSERT_TRUE(Decode(out.body, &msg));
        seen.push_back(msg.session_id);
      }
    }
    EXPECT_EQ(seen, ids) << "round " << round;
  }
}

// ---------------------------------------------------------------------------
// Rejection paths
// ---------------------------------------------------------------------------

TEST(Framing, VersionMismatchIsRejectedAndSticky) {
  std::string frame = Encode(AnswerMsg{1, Oracle::Answer::kYes});
  frame[4] = static_cast<char>(kProtocolVersion + 1);
  FrameDecoder decoder;
  decoder.Feed(frame);
  Frame out;
  WireStatus error = WireStatus::kOk;
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kError);
  EXPECT_EQ(error, WireStatus::kBadVersion);
  // Poisoned: more (valid) bytes change nothing.
  decoder.Feed(EncodeStatsRequest());
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kError);
  EXPECT_EQ(error, WireStatus::kBadVersion);
}

TEST(Framing, NonzeroReservedFieldIsMalformed) {
  std::string frame = EncodeStatsRequest();
  frame[6] = 1;  // reserved low byte
  FrameDecoder decoder;
  decoder.Feed(frame);
  Frame out;
  WireStatus error = WireStatus::kOk;
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kError);
  EXPECT_EQ(error, WireStatus::kMalformed);
}

TEST(Framing, GarbageBytesAreRejected) {
  std::string garbage = "GET / HTTP/1.1\r\nHost: nope\r\n\r\n";
  FrameDecoder decoder;
  decoder.Feed(garbage);
  Frame out;
  WireStatus error = WireStatus::kOk;
  EXPECT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kError);
}

TEST(Framing, OversizedLengthIsRejectedFromTheHeaderAlone) {
  FrameDecoder decoder(/*max_body=*/64);
  // Hand-build a header announcing a 65-byte body; feed ONLY the header —
  // rejection must not wait for (or buffer) the body.
  std::string header;
  PayloadWriter w(&header);
  w.PutU32(65);
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(MsgType::kStats));
  w.PutU16(0);
  decoder.Feed(header);
  Frame out;
  WireStatus error = WireStatus::kOk;
  ASSERT_EQ(decoder.Pop(&out, &error), FrameDecoder::Next::kError);
  EXPECT_EQ(error, WireStatus::kOversized);

  // The same length under a permissive decoder is fine.
  FrameDecoder big(/*max_body=*/65);
  big.Feed(header);
  big.Feed(std::string(65, 'x'));
  ASSERT_EQ(big.Pop(&out, &error), FrameDecoder::Next::kFrame);
  EXPECT_EQ(out.body.size(), 65u);
}

TEST(PayloadDecoding, MalformedBodiesAreRejected) {
  // Count/length mismatches.
  {
    CreateSessionMsg msg;
    msg.initial = {1, 2, 3};
    FrameDecoder decoder;
    Frame frame = DecodeOne(decoder, Encode(msg));
    frame.body[0] = 2;  // claim 2 entities, carry 3
    CreateSessionMsg decoded;
    EXPECT_FALSE(Decode(frame.body, &decoded));
    frame.body[0] = 4;  // claim 4, carry 3
    EXPECT_FALSE(Decode(frame.body, &decoded));
  }
  // Bad enum values.
  {
    FrameDecoder decoder;
    Frame frame = DecodeOne(decoder, Encode(AnswerMsg{1, Oracle::Answer::kYes}));
    frame.body[8] = 3;  // not a WireAnswer
    AnswerMsg decoded;
    EXPECT_FALSE(Decode(frame.body, &decoded));
  }
  {
    FrameDecoder decoder;
    Frame frame = DecodeOne(decoder, Encode(VerifyMsg{1, true}));
    frame.body[8] = 9;  // not a bool
    VerifyMsg decoded;
    EXPECT_FALSE(Decode(frame.body, &decoded));
  }
  // Truncated and padded bodies.
  {
    FrameDecoder decoder;
    Frame frame =
        DecodeOne(decoder, Encode(MsgType::kGetSession, SessionRefMsg{1}));
    SessionRefMsg decoded;
    EXPECT_FALSE(Decode(frame.body.substr(0, 7), &decoded));
    EXPECT_FALSE(Decode(frame.body + "x", &decoded));
    EXPECT_TRUE(Decode(frame.body, &decoded));
  }
}

TEST(PayloadPrimitives, ReaderIsBoundsCheckedAndExact) {
  std::string bytes;
  PayloadWriter w(&bytes);
  w.PutU8(0xAB);
  w.PutU16(0xCDEF);
  w.PutU32(0x01234567);
  w.PutU64(0x89ABCDEF01234567ull);

  PayloadReader r(bytes);
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  ASSERT_TRUE(r.GetU8(&u8));
  ASSERT_TRUE(r.GetU16(&u16));
  ASSERT_TRUE(r.GetU32(&u32));
  ASSERT_TRUE(r.GetU64(&u64));
  EXPECT_EQ(u8, 0xAB);
  EXPECT_EQ(u16, 0xCDEF);
  EXPECT_EQ(u32, 0x01234567u);
  EXPECT_EQ(u64, 0x89ABCDEF01234567ull);
  EXPECT_TRUE(r.Exhausted());
  // Reading past the end trips ok() permanently.
  EXPECT_FALSE(r.GetU8(&u8));
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.Exhausted());
}

// ---------------------------------------------------------------------------
// StatsReply extensibility (the version-0 / rich-v1 compatibility matrix)
// ---------------------------------------------------------------------------

StatsReplyMsg RichStats() {
  StatsReplyMsg msg;
  msg.active_sessions = 5;
  msg.created_sessions = 1000;
  msg.connections_open = 3;
  msg.connections_total = 9;
  msg.frames_received = 123;
  msg.frames_sent = 456;
  msg.has_rich = true;
  msg.step_latency = {1000, 5000000, 4000, 4800, 4990, 4999};
  msg.pool_queue_wait = {200, 80000, 300, 700, 900, 950};
  msg.pool_queue_depth = 4;
  msg.cache_lookups = 5000;
  msg.cache_hits = 4100;
  msg.delta_full = 70;
  msg.delta_delta = 800;
  msg.delta_reemit = 130;
  msg.klp_candidates = 90000;
  msg.klp_evaluated = 20000;
  msg.klp_pruned = 70000;
  msg.registry = {
      {"setdisc_sessions_active", 5},
      {"setdisc_steps_total{kind=\"answer\"}", 940},
      {"setdisc_net_bytes_read_total", 1u << 20},
  };
  return msg;
}

std::string BodyOf(const std::string& frame_bytes) {
  return frame_bytes.substr(kFrameHeaderBytes);
}

TEST(StatsReplyCompat, RichSectionRoundTrips) {
  const std::string body = BodyOf(Encode(RichStats()));
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(body, &decoded));
  ASSERT_TRUE(decoded.has_rich);
  EXPECT_EQ(decoded.rich_version, 1);
  EXPECT_EQ(decoded.active_sessions, 5u);
  EXPECT_EQ(decoded.step_latency.count, 1000u);
  EXPECT_EQ(decoded.step_latency.sum, 5000000u);
  EXPECT_EQ(decoded.step_latency.p50, 4000u);
  EXPECT_EQ(decoded.step_latency.p999, 4999u);
  EXPECT_EQ(decoded.pool_queue_wait.p99, 900u);
  EXPECT_EQ(decoded.pool_queue_depth, 4u);
  EXPECT_EQ(decoded.cache_lookups, 5000u);
  EXPECT_EQ(decoded.cache_hits, 4100u);
  EXPECT_EQ(decoded.delta_full, 70u);
  EXPECT_EQ(decoded.delta_delta, 800u);
  EXPECT_EQ(decoded.delta_reemit, 130u);
  EXPECT_EQ(decoded.klp_candidates, 90000u);
  EXPECT_EQ(decoded.klp_evaluated, 20000u);
  EXPECT_EQ(decoded.klp_pruned, 70000u);
  ASSERT_EQ(decoded.registry.size(), 3u);
  EXPECT_EQ(decoded.registry[1].first,
            "setdisc_steps_total{kind=\"answer\"}");
  EXPECT_EQ(decoded.registry[1].second, 940u);
}

TEST(StatsReplyCompat, LegacyBodyIsExactAndDecodes) {
  // An old server's reply is exactly the six u64s. A new client must see
  // has_rich == false; and the has_rich=false encoding must be byte-exact
  // legacy so old clients keep accepting new untraced servers.
  StatsReplyMsg legacy = RichStats();
  legacy.has_rich = false;
  const std::string body = BodyOf(Encode(legacy));
  EXPECT_EQ(body.size(), 6 * sizeof(uint64_t));

  StatsReplyMsg decoded;
  decoded.has_rich = true;  // must be overwritten
  ASSERT_TRUE(Decode(body, &decoded));
  EXPECT_FALSE(decoded.has_rich);
  EXPECT_EQ(decoded.created_sessions, 1000u);
  EXPECT_EQ(decoded.frames_sent, 456u);
  EXPECT_TRUE(decoded.registry.empty());
}

TEST(StatsReplyCompat, LongerThanKnownBodiesAreTolerated) {
  // A future server appends bytes after the v1 layout; this build must
  // parse what it knows and ignore the rest.
  std::string body = BodyOf(Encode(RichStats()));
  body += std::string("\x01\x02\x03\x04\x05", 5);
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(body, &decoded));
  EXPECT_TRUE(decoded.has_rich);
  EXPECT_EQ(decoded.step_latency.p99, 4990u);
  ASSERT_EQ(decoded.registry.size(), 3u);
}

TEST(StatsReplyCompat, TruncationAnywhereInsideIsRejected) {
  const std::string full = BodyOf(Encode(RichStats()));
  StatsReplyMsg decoded;
  // Shorter than even the legacy prefix.
  EXPECT_FALSE(Decode(full.substr(0, 47), &decoded));
  // Cut inside the rich section at several depths: right after the version
  // byte, inside the histograms, inside the scalar block, and inside the
  // registry dump. All must reject, not silently degrade.
  for (size_t cut : {49ul, 60ul, 100ul, 160ul, full.size() - 1}) {
    ASSERT_LT(cut, full.size());
    EXPECT_FALSE(Decode(full.substr(0, cut), &decoded)) << "cut=" << cut;
  }
}

TEST(StatsReplyCompat, RichVersionZeroIsRejected) {
  std::string body = BodyOf(Encode(RichStats()));
  body[6 * sizeof(uint64_t)] = '\x00';  // version byte
  StatsReplyMsg decoded;
  EXPECT_FALSE(Decode(body, &decoded));
}

TEST(StatsReplyCompat, RegistryDumpIsCappedAtEncode) {
  StatsReplyMsg msg = RichStats();
  msg.registry.clear();
  for (uint32_t i = 0; i < kMaxWireRegistryEntries + 50; ++i) {
    msg.registry.emplace_back("metric_" + std::to_string(i), i);
  }
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(BodyOf(Encode(msg)), &decoded));
  EXPECT_EQ(decoded.registry.size(), size_t{kMaxWireRegistryEntries});
  EXPECT_EQ(decoded.registry[0].first, "metric_0");
}

// ---------------------------------------------------------------------------
// StatsReply v2: the slow-step exemplar section
// ---------------------------------------------------------------------------

StatsReplyMsg RichStatsV2() {
  StatsReplyMsg msg = RichStats();
  msg.rich_version = 2;
  msg.has_exemplars = true;
  WireExemplar ex;
  ex.trace_hi = 0x1111222233334444ull;
  ex.trace_lo = 0x5555666677778888ull;
  ex.session_id = 42;
  ex.ts_ns = 123456789;
  ex.step = 7;
  ex.kind = 0;
  ex.serve_path = 2;
  ex.total_ns = 9000000;
  ex.queue_wait_ns = 4000000;
  for (size_t ph = 0; ph < obs::kNumPhases; ++ph) {
    ex.phase_ns[ph] = (ph + 1) * 1000;
  }
  msg.exemplars.push_back(ex);
  ex.session_id = 43;
  ex.kind = 1;
  msg.exemplars.push_back(ex);
  return msg;
}

TEST(StatsReplyCompat, ExemplarSectionRoundTrips) {
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(BodyOf(Encode(RichStatsV2())), &decoded));
  ASSERT_TRUE(decoded.has_rich);
  EXPECT_EQ(decoded.rich_version, 2);
  ASSERT_TRUE(decoded.has_exemplars);
  ASSERT_EQ(decoded.exemplars.size(), 2u);
  const WireExemplar& ex = decoded.exemplars[0];
  EXPECT_EQ(ex.trace_hi, 0x1111222233334444ull);
  EXPECT_EQ(ex.trace_lo, 0x5555666677778888ull);
  EXPECT_EQ(ex.session_id, 42u);
  EXPECT_EQ(ex.ts_ns, 123456789u);
  EXPECT_EQ(ex.step, 7u);
  EXPECT_EQ(ex.kind, 0);
  EXPECT_EQ(ex.serve_path, 2);
  EXPECT_EQ(ex.total_ns, 9000000u);
  EXPECT_EQ(ex.queue_wait_ns, 4000000u);
  for (size_t ph = 0; ph < obs::kNumPhases; ++ph) {
    EXPECT_EQ(ex.phase_ns[ph], (ph + 1) * 1000) << "phase " << ph;
  }
  EXPECT_EQ(decoded.exemplars[1].session_id, 43u);
  EXPECT_EQ(decoded.exemplars[1].kind, 1);
  // The v1 prefix still decodes intact underneath.
  EXPECT_EQ(decoded.step_latency.count, 1000u);
  ASSERT_EQ(decoded.registry.size(), 3u);
}

TEST(StatsReplyCompat, V1BodyYieldsNoExemplars) {
  // A v1 server's reply (no section): the decoder must not invent one.
  StatsReplyMsg decoded;
  decoded.has_exemplars = true;  // must be overwritten
  decoded.exemplars.resize(3);
  ASSERT_TRUE(Decode(BodyOf(Encode(RichStats())), &decoded));
  EXPECT_EQ(decoded.rich_version, 1);
  EXPECT_FALSE(decoded.has_exemplars);
  EXPECT_TRUE(decoded.exemplars.empty());
}

TEST(StatsReplyCompat, EmptyExemplarSectionRoundTrips) {
  StatsReplyMsg msg = RichStatsV2();
  msg.exemplars.clear();
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(BodyOf(Encode(msg)), &decoded));
  EXPECT_TRUE(decoded.has_exemplars);  // section present, just empty
  EXPECT_TRUE(decoded.exemplars.empty());
}

TEST(StatsReplyCompat, TruncationInsideExemplarSectionIsRejected) {
  const std::string full = BodyOf(Encode(RichStatsV2()));
  const std::string v1 = BodyOf(Encode(RichStats()));
  ASSERT_GT(full.size(), v1.size());
  StatsReplyMsg decoded;
  // Cut at several depths inside the section: in the header, inside entry
  // 0, inside entry 1's phase array, one byte short of complete.
  for (size_t cut : {v1.size() + 1, v1.size() + 20, full.size() - 30,
                     full.size() - 1}) {
    EXPECT_FALSE(Decode(full.substr(0, cut), &decoded)) << "cut=" << cut;
  }
  ASSERT_TRUE(Decode(full, &decoded));
}

TEST(StatsReplyCompat, BytesAfterExemplarSectionAreTolerated) {
  // The same forward-compat contract v1 gave us: a v3 server may append
  // more after the section and a v2 decoder keeps working.
  std::string body = BodyOf(Encode(RichStatsV2()));
  body.append(9, '\x5a');
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(body, &decoded));
  ASSERT_TRUE(decoded.has_exemplars);
  EXPECT_EQ(decoded.exemplars.size(), 2u);
}

TEST(StatsReplyCompat, ExemplarCountIsCappedAtEncode) {
  StatsReplyMsg msg = RichStatsV2();
  msg.exemplars.clear();
  for (uint32_t i = 0; i < kMaxWireExemplars + 10; ++i) {
    WireExemplar ex;
    ex.session_id = i;
    msg.exemplars.push_back(ex);
  }
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(BodyOf(Encode(msg)), &decoded));
  ASSERT_EQ(decoded.exemplars.size(), size_t{kMaxWireExemplars});
  // The most recent ones survive the cap.
  EXPECT_EQ(decoded.exemplars.front().session_id, 10u);
  EXPECT_EQ(decoded.exemplars.back().session_id, kMaxWireExemplars + 9u);
}

// ---------------------------------------------------------------------------
// CreateSession flags byte (optional-trailing-byte compatibility)
// ---------------------------------------------------------------------------

TEST(CreateSessionCompat, RetiredTraceBitIsIgnored) {
  CreateSessionMsg msg;
  msg.initial = {1, 2, 3};

  // Every flag off: the encoding is the exact pre-flags layout (u32 n +
  // ids), so old servers accept frames from new clients.
  const std::string off_body = BodyOf(Encode(msg));
  EXPECT_EQ(off_body.size(), sizeof(uint32_t) * 4);

  // Bit 0 once asked for a per-session trace ring. An old client still
  // sending it gets a Create that decodes exactly like the flagless one.
  CreateSessionMsg decoded;
  decoded.busy_capable = true;  // must be overwritten
  decoded.want_token = true;
  ASSERT_TRUE(Decode(off_body + '\x01', &decoded));
  EXPECT_EQ(decoded.initial, msg.initial);
  EXPECT_FALSE(decoded.busy_capable);
  EXPECT_FALSE(decoded.has_trace_id);
  EXPECT_FALSE(decoded.want_token);
  EXPECT_EQ(BodyOf(Encode(decoded)), off_body);

  // Alongside known bits it changes nothing either.
  ASSERT_TRUE(Decode(off_body + '\x0b', &decoded));  // bits 0, 1, 3
  EXPECT_TRUE(decoded.busy_capable);
  EXPECT_TRUE(decoded.want_token);
  EXPECT_FALSE(decoded.has_trace_id);
  EXPECT_EQ(BodyOf(Encode(decoded)), off_body + '\x0a');
}

TEST(CreateSessionCompat, UnknownFlagBitsAreIgnored) {
  // 0x04 became the trace-context bit and 0x08 the token request, so the
  // "future" bit moved up to 0x10 — the evolution this test exists to keep
  // possible.
  CreateSessionMsg msg;
  msg.initial = {7};
  std::string body = BodyOf(Encode(msg));
  CreateSessionMsg decoded;

  body.push_back('\x10');  // future flag only: decodes, known bits off
  ASSERT_TRUE(Decode(body, &decoded));
  EXPECT_FALSE(decoded.busy_capable);
  EXPECT_FALSE(decoded.has_trace_id);
  EXPECT_FALSE(decoded.want_token);

  body.back() = '\x11';  // future flag + the retired bit 0
  ASSERT_TRUE(Decode(body, &decoded));
  EXPECT_FALSE(decoded.busy_capable);
  EXPECT_FALSE(decoded.want_token);

  body.push_back('\x00');  // two trailing bytes is malformed
  EXPECT_FALSE(Decode(body, &decoded));
}

TEST(CreateSessionCompat, BusyCapableFlagMatrix) {
  // The flags byte appears iff a bit is set (so a flagless client's bytes
  // are untouched), and the bit decodes as sent.
  for (bool busy : {false, true}) {
    CreateSessionMsg msg;
    msg.initial = {1, 2};
    msg.busy_capable = busy;
    std::string body = BodyOf(Encode(msg));
    const size_t base = sizeof(uint32_t) * 3;
    EXPECT_EQ(body.size(), busy ? base + 1 : base) << "busy=" << busy;
    CreateSessionMsg decoded;
    decoded.busy_capable = !busy;  // must be overwritten
    ASSERT_TRUE(Decode(body, &decoded));
    EXPECT_EQ(decoded.busy_capable, busy);
    EXPECT_EQ(decoded.initial, msg.initial);
  }
}

// ---------------------------------------------------------------------------
// Trace-context trailer (flag bit 0x04 + 16 trailing bytes)
// ---------------------------------------------------------------------------

TEST(CreateSessionCompat, TraceContextRoundTripsAndStaysOptional) {
  CreateSessionMsg msg;
  msg.initial = {4, 9};
  const std::string flagless = BodyOf(Encode(msg));

  msg.has_trace_id = true;
  msg.trace_hi = 0x1122334455667788ull;
  msg.trace_lo = 0x99aabbccddeeff01ull;
  const std::string traced = BodyOf(Encode(msg));
  // Flags byte + 16 id bytes, nothing else moved.
  EXPECT_EQ(traced.size(), flagless.size() + 1 + 16);
  EXPECT_EQ(traced.substr(0, flagless.size()), flagless);

  CreateSessionMsg decoded;
  ASSERT_TRUE(Decode(traced, &decoded));
  EXPECT_TRUE(decoded.has_trace_id);
  EXPECT_EQ(decoded.trace_hi, msg.trace_hi);
  EXPECT_EQ(decoded.trace_lo, msg.trace_lo);
  EXPECT_FALSE(decoded.busy_capable);
  EXPECT_EQ(decoded.initial, msg.initial);

  // Without the id the encoding stays byte-exact legacy: a trace-capable
  // client that doesn't set one is indistinguishable from an old client.
  msg.has_trace_id = false;
  EXPECT_EQ(BodyOf(Encode(msg)), flagless);
}

TEST(CreateSessionCompat, TraceContextComposesWithOtherFlags) {
  CreateSessionMsg msg;
  msg.initial = {1};
  msg.busy_capable = true;
  msg.has_trace_id = true;
  msg.trace_hi = 7;
  msg.trace_lo = 11;
  CreateSessionMsg decoded;
  ASSERT_TRUE(Decode(BodyOf(Encode(msg)), &decoded));
  EXPECT_TRUE(decoded.busy_capable);
  ASSERT_TRUE(decoded.has_trace_id);
  EXPECT_EQ(decoded.trace_hi, 7u);
  EXPECT_EQ(decoded.trace_lo, 11u);
}

TEST(CreateSessionCompat, TraceBitWithoutBytesIsMalformed) {
  CreateSessionMsg msg;
  msg.initial = {2};
  std::string body = BodyOf(Encode(msg));
  body.push_back('\x04');  // trace bit announced, no id follows
  CreateSessionMsg decoded;
  EXPECT_FALSE(Decode(body, &decoded));
}

TEST(CreateSessionCompat, TraceBytesWithoutBitAreMalformed) {
  CreateSessionMsg msg;
  msg.initial = {2};
  msg.busy_capable = true;  // flags byte present, trace bit clear
  std::string body = BodyOf(Encode(msg));
  body.append(16, '\x00');
  CreateSessionMsg decoded;
  EXPECT_FALSE(Decode(body, &decoded));
}

TEST(CreateSessionCompat, TraceTruncationAnywhereInsideIsRejected) {
  CreateSessionMsg msg;
  msg.initial = {2};
  msg.has_trace_id = true;
  msg.trace_hi = 0xdeadbeefcafef00dull;
  msg.trace_lo = 0x0123456789abcdefull;
  const std::string full = BodyOf(Encode(msg));
  CreateSessionMsg decoded;
  for (size_t cut = 1; cut <= 16; ++cut) {
    EXPECT_FALSE(Decode(full.substr(0, full.size() - cut), &decoded))
        << "cut=" << cut;
  }
  ASSERT_TRUE(Decode(full, &decoded));
  EXPECT_TRUE(decoded.has_trace_id);
}

// ---------------------------------------------------------------------------
// Error retry-after trailer (optional-trailing-u32 compatibility)
// ---------------------------------------------------------------------------

TEST(ErrorCompat, RetryAfterRoundTripsAndStaysOptional) {
  ErrorMsg msg{WireStatus::kBusy, "server busy"};

  // Without the trailer the encoding is the exact legacy layout — what a
  // server sends to a client that never declared busy_capable.
  std::string legacy_body = BodyOf(Encode(msg));
  EXPECT_EQ(legacy_body.size(), 1 + sizeof(uint32_t) + msg.message.size());
  ErrorMsg decoded;
  decoded.has_retry_after = true;  // must be overwritten
  decoded.retry_after_ms = 99;
  ASSERT_TRUE(Decode(legacy_body, &decoded));
  EXPECT_EQ(decoded.status, WireStatus::kBusy);
  EXPECT_EQ(decoded.message, "server busy");
  EXPECT_FALSE(decoded.has_retry_after);
  EXPECT_EQ(decoded.retry_after_ms, 0u);

  // With the trailer: four more bytes, value round-trips — zero included
  // (has_retry_after carries the presence, not the value).
  for (uint32_t hint : {0u, 50u, 0xFFFFFFFFu}) {
    msg.retry_after_ms = hint;
    msg.has_retry_after = true;
    std::string body = BodyOf(Encode(msg));
    EXPECT_EQ(body.size(), legacy_body.size() + sizeof(uint32_t));
    ASSERT_TRUE(Decode(body, &decoded));
    EXPECT_TRUE(decoded.has_retry_after);
    EXPECT_EQ(decoded.retry_after_ms, hint);
  }
}

TEST(ErrorCompat, TruncationAnywhereInsideIsRejected) {
  ErrorMsg msg{WireStatus::kBusy, "busy"};
  msg.retry_after_ms = 125;
  msg.has_retry_after = true;
  const std::string body = BodyOf(Encode(msg));
  const size_t legacy_size = body.size() - sizeof(uint32_t);

  // Every strict prefix is rejected EXCEPT the one that drops exactly the
  // four trailer bytes — that is the legacy message, and must decode.
  for (size_t len = 0; len < body.size(); ++len) {
    ErrorMsg decoded;
    if (len == legacy_size) {
      EXPECT_TRUE(Decode(body.substr(0, len), &decoded));
      EXPECT_FALSE(decoded.has_retry_after);
    } else {
      EXPECT_FALSE(Decode(body.substr(0, len), &decoded))
          << "prefix of " << len << " bytes decoded";
    }
  }

  // Trailing garbage that is not exactly a u32 is malformed, not a future
  // extension (1-3 extra bytes, or 5+).
  for (size_t extra : {1u, 2u, 3u, 5u, 8u}) {
    ErrorMsg decoded;
    EXPECT_FALSE(Decode(body + std::string(extra, '\0'), &decoded))
        << extra << " garbage bytes decoded";
  }
}

TEST(ErrorCompat, BusyStatusHasAName) {
  // kBusy must render for logs and legacy clients that print message text.
  EXPECT_STRNE(WireStatusName(WireStatus::kBusy), "");
  EXPECT_NE(std::string(WireStatusName(WireStatus::kBusy)),
            std::string(WireStatusName(WireStatus::kShuttingDown)));
}

// ---------------------------------------------------------------------------
// Session auth token trailer (flag bit 0x01 + u64, on every session op) and
// the kResumeSession message
// ---------------------------------------------------------------------------

TEST(TokenCompat, TokenlessEncodingsAreByteIdenticalToLegacy) {
  // The compat contract of the whole token feature: a client that never
  // asks for tokens emits the exact pre-token bytes on every message. Each
  // expectation pins the historical body size.
  EXPECT_EQ(BodyOf(Encode(AnswerMsg{9, Oracle::Answer::kYes})).size(),
            sizeof(uint64_t) + 1);
  EXPECT_EQ(BodyOf(Encode(VerifyMsg{9, true})).size(), sizeof(uint64_t) + 1);
  EXPECT_EQ(BodyOf(Encode(MsgType::kGetSession, SessionRefMsg{9})).size(),
            sizeof(uint64_t));

  CreateSessionMsg create;
  create.initial = {1, 2};
  EXPECT_EQ(BodyOf(Encode(create)).size(), sizeof(uint32_t) * 3)
      << "want_token off must not grow CreateSession";

  SessionStateMsg state;
  state.session_id = 9;
  state.state = SessionState::kAwaitingAnswer;
  state.question = 3;
  state.questions_asked = 2;
  const size_t tokenless = BodyOf(Encode(state)).size();
  state.has_token = true;
  state.token = 0x1111111111111111ull;
  EXPECT_EQ(BodyOf(Encode(state)).size(), tokenless + 1 + sizeof(uint64_t));
}

TEST(TokenCompat, AnswerVerifyAndRefRoundTripTheToken) {
  constexpr uint64_t kToken = 0xfeedfacecafef00dull;

  AnswerMsg answer{77, Oracle::Answer::kNo};
  answer.has_token = true;
  answer.token = kToken;
  AnswerMsg answer_back;
  ASSERT_TRUE(Decode(BodyOf(Encode(answer)), &answer_back));
  EXPECT_EQ(answer_back.session_id, 77u);
  EXPECT_EQ(answer_back.answer, Oracle::Answer::kNo);
  EXPECT_TRUE(answer_back.has_token);
  EXPECT_EQ(answer_back.token, kToken);

  VerifyMsg verify{77, false};
  verify.has_token = true;
  verify.token = kToken;
  VerifyMsg verify_back;
  ASSERT_TRUE(Decode(BodyOf(Encode(verify)), &verify_back));
  EXPECT_FALSE(verify_back.confirmed);
  EXPECT_TRUE(verify_back.has_token);
  EXPECT_EQ(verify_back.token, kToken);

  SessionRefMsg ref{77};
  ref.has_token = true;
  ref.token = kToken;
  SessionRefMsg ref_back;
  ASSERT_TRUE(Decode(BodyOf(Encode(MsgType::kGetSession, ref)), &ref_back));
  EXPECT_EQ(ref_back.session_id, 77u);
  EXPECT_TRUE(ref_back.has_token);
  EXPECT_EQ(ref_back.token, kToken);

  // Tokenless bodies decode with has_token reset.
  answer_back.has_token = true;
  ASSERT_TRUE(
      Decode(BodyOf(Encode(AnswerMsg{77, Oracle::Answer::kNo})), &answer_back));
  EXPECT_FALSE(answer_back.has_token);
  EXPECT_EQ(answer_back.token, 0u);
}

TEST(TokenCompat, SessionStateCarriesTokenOnlyWhenAsked) {
  SessionStateMsg state;
  state.session_id = 5;
  state.state = SessionState::kAwaitingVerify;
  state.verify_set = 2;
  state.questions_asked = 4;
  state.has_token = true;
  state.token = 0xabcdef0123456789ull;
  SessionStateMsg back;
  ASSERT_TRUE(Decode(BodyOf(Encode(state)), &back));
  EXPECT_TRUE(back.has_token);
  EXPECT_EQ(back.token, state.token);
  EXPECT_EQ(back.verify_set, state.verify_set);

  // A finished state (the conditional result section) composes with the
  // trailer — the layout a Create reply for a finished-at-birth session with
  // want_token uses.
  SessionStateMsg done;
  done.session_id = 6;
  done.state = SessionState::kFinished;
  done.result.questions = 3;
  done.result.total_candidates = 1;
  done.result.candidates = {4};
  done.result.total_transcript = 1;
  done.result.transcript = {{2, kWireYes}};
  done.has_token = true;
  done.token = 0x42ull;
  ASSERT_TRUE(Decode(BodyOf(Encode(done)), &back));
  EXPECT_TRUE(back.has_token);
  EXPECT_EQ(back.token, 0x42ull);
  ASSERT_EQ(back.result.candidates.size(), 1u);
  EXPECT_EQ(back.result.candidates[0], 4u);
  ASSERT_EQ(back.result.transcript.size(), 1u);
}

TEST(TokenCompat, MalformedTrailersAreRejected) {
  AnswerMsg msg{1, Oracle::Answer::kYes};
  msg.has_token = true;
  msg.token = 7;
  std::string good = BodyOf(Encode(msg));
  AnswerMsg out;
  ASSERT_TRUE(Decode(good, &out));

  // Flag bit without the token bytes: truncation, not "no token".
  std::string bit_only = good.substr(0, good.size() - sizeof(uint64_t));
  EXPECT_FALSE(Decode(bit_only, &out));

  // Token bytes without the flag bit: garbage, not a token.
  std::string bytes_only = good;
  bytes_only[sizeof(uint64_t) + 1] = '\x00';  // clear the flags byte
  EXPECT_FALSE(Decode(bytes_only, &out));

  // Truncation anywhere inside the trailer is rejected.
  for (size_t len = good.size() - sizeof(uint64_t); len < good.size(); ++len) {
    EXPECT_FALSE(Decode(good.substr(0, len), &out)) << "length " << len;
  }

  // Extra bytes after a complete trailer are rejected.
  EXPECT_FALSE(Decode(good + '\x00', &out));
}

TEST(TokenCompat, CreateSessionWantTokenFlagMatrix) {
  // want_token rides in the Create flags byte and stays optional.
  for (bool want : {false, true}) {
    CreateSessionMsg msg;
    msg.initial = {3};
    msg.want_token = want;
    std::string body = BodyOf(Encode(msg));
    const size_t base = sizeof(uint32_t) * 2;
    EXPECT_EQ(body.size(), want ? base + 1 : base);
    CreateSessionMsg decoded;
    decoded.want_token = !want;  // must be overwritten
    ASSERT_TRUE(Decode(body, &decoded));
    EXPECT_EQ(decoded.want_token, want);
  }
}

TEST(TokenCompat, ResumeSessionRoundTripsAndIsExact) {
  ResumeSessionMsg msg;
  msg.session_id = 0x1020304050607080ull;
  msg.token = 0x0807060504030201ull;
  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(msg));
  EXPECT_EQ(frame.type, MsgType::kResumeSession);
  ResumeSessionMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.session_id, msg.session_id);
  EXPECT_EQ(decoded.token, msg.token);

  // The body is exactly two u64s: any truncation or padding is malformed.
  std::string body = BodyOf(Encode(msg));
  ASSERT_EQ(body.size(), 2 * sizeof(uint64_t));
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(Decode(body.substr(0, len), &decoded)) << "length " << len;
  }
  EXPECT_FALSE(Decode(body + '\x00', &decoded));
}


// ---------------------------------------------------------------------------
// Seeded mutation fuzz of every message decoder
// ---------------------------------------------------------------------------
//
// Each corpus body is a valid encoding; fixed-seed rounds of truncation,
// bit flips, insertions and appends mutate it. A decoder may reject the
// result, but whatever it accepts must re-encode to a body that decodes to
// the same message: no field is half-read, and no accepted input carries
// state the encoder cannot express.

auto Fields(const CreateSessionMsg& m) {
  return std::make_tuple(m.initial, m.busy_capable, m.has_trace_id,
                         m.trace_hi, m.trace_lo, m.want_token);
}
auto Fields(const AnswerMsg& m) {
  return std::make_tuple(m.session_id, m.answer, m.has_token, m.token);
}
auto Fields(const VerifyMsg& m) {
  return std::make_tuple(m.session_id, m.confirmed, m.has_token, m.token);
}
auto Fields(const SessionRefMsg& m) {
  return std::make_tuple(m.session_id, m.has_token, m.token);
}
auto Fields(const ResumeSessionMsg& m) {
  return std::make_tuple(m.session_id, m.token);
}
auto Fields(const ErrorMsg& m) {
  return std::make_tuple(m.status, m.message, m.retry_after_ms,
                         m.has_retry_after);
}
auto Fields(const SessionStateMsg& m) {
  const WireResult& r = m.result;
  return std::make_tuple(m.session_id, m.state, m.question, m.verify_set,
                         m.questions_asked, r.questions, r.backtracks,
                         r.confirmed, r.halted, r.total_candidates,
                         r.candidates, r.total_transcript, r.transcript,
                         m.has_token, m.token);
}
auto Fields(const HistogramSummary& h) {
  return std::make_tuple(h.count, h.sum, h.p50, h.p90, h.p99, h.p999);
}
auto Fields(const WireExemplar& e) {
  return std::make_tuple(
      e.trace_hi, e.trace_lo, e.session_id, e.ts_ns, e.step, e.kind,
      e.serve_path, e.total_ns, e.queue_wait_ns,
      std::vector<uint64_t>(std::begin(e.phase_ns), std::end(e.phase_ns)));
}
auto Fields(const StatsReplyMsg& m) {
  std::vector<decltype(Fields(WireExemplar{}))> exemplars;
  for (const WireExemplar& e : m.exemplars) exemplars.push_back(Fields(e));
  return std::make_tuple(
      std::make_tuple(m.active_sessions, m.created_sessions,
                      m.connections_open, m.connections_total,
                      m.frames_received, m.frames_sent),
      m.has_rich, m.rich_version, Fields(m.step_latency),
      Fields(m.pool_queue_wait),
      std::make_tuple(m.pool_queue_depth, m.cache_lookups, m.cache_hits,
                      m.delta_full, m.delta_delta, m.delta_reemit,
                      m.klp_candidates, m.klp_evaluated, m.klp_pruned),
      m.registry, m.has_exemplars, exemplars);
}

std::string EncodeBody(const SessionRefMsg& m) {
  return BodyOf(Encode(MsgType::kGetSession, m));
}
template <typename Msg>
std::string EncodeBody(const Msg& m) {
  return BodyOf(Encode(m));
}

std::string Mutate(std::string body, Rng& rng) {
  const int ops = 1 + static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < ops; ++i) {
    switch (rng.Uniform(4)) {
      case 0:  // truncate
        if (!body.empty()) body.resize(rng.Uniform(body.size()));
        break;
      case 1:  // flip one bit
        if (!body.empty()) {
          body[rng.Uniform(body.size())] ^=
              static_cast<char>(1u << rng.Uniform(8));
        }
        break;
      case 2:  // insert one byte
        body.insert(body.begin() + rng.Uniform(body.size() + 1),
                    static_cast<char>(rng.Uniform(256)));
        break;
      default:  // append up to 17 bytes (one trace id plus a flags byte)
        for (uint64_t n = 1 + rng.Uniform(17); n > 0; --n) {
          body.push_back(static_cast<char>(rng.Uniform(256)));
        }
    }
  }
  return body;
}

/// Decodes `body`; when that succeeds, the re-encoding must decode to the
/// same message. Returns whether `body` was accepted.
template <typename Msg>
bool AcceptsOnlyRoundTrippable(const std::string& body) {
  Msg first;
  if (!Decode(body, &first)) return false;
  const std::string again = EncodeBody(first);
  Msg second;
  EXPECT_TRUE(Decode(again, &second)) << "re-encoding of an accepted body "
                                      << "does not decode";
  EXPECT_TRUE(Fields(first) == Fields(second))
      << "accepted body does not round-trip (" << body.size() << " bytes)";
  return true;
}

template <typename Msg>
void FuzzDecoder(const std::vector<std::string>& corpus, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(AcceptsOnlyRoundTrippable<Msg>(corpus[i]))
        << "corpus entry " << i << " is not a valid encoding";
    for (int round = 0; round < 400; ++round) {
      AcceptsOnlyRoundTrippable<Msg>(Mutate(corpus[i], rng));
      if (::testing::Test::HasFailure()) {
        FAIL() << "corpus entry " << i << ", round " << round;
      }
    }
  }
}

TEST(DecoderFuzz, CreateSession) {
  std::vector<std::string> corpus;
  const std::vector<std::vector<EntityId>> initials = {{}, {5}, {1, 2, 3}};
  for (const std::vector<EntityId>& initial : initials) {
    for (int flags = 0; flags < 8; ++flags) {  // busy x trace id x token
      CreateSessionMsg msg;
      msg.initial = initial;
      msg.busy_capable = (flags & 1) != 0;
      msg.has_trace_id = (flags & 2) != 0;
      msg.trace_hi = msg.has_trace_id ? 0x0123456789abcdefull : 0;
      msg.trace_lo = msg.has_trace_id ? 0xfedcba9876543210ull : 0;
      msg.want_token = (flags & 4) != 0;
      corpus.push_back(EncodeBody(msg));
    }
    // The retired bit 0, alone and beside every known bit.
    CreateSessionMsg plain;
    plain.initial = initial;
    corpus.push_back(EncodeBody(plain) + '\x01');
    corpus.push_back(EncodeBody(plain) + '\x0f' + std::string(16, '\x07'));
  }
  FuzzDecoder<CreateSessionMsg>(corpus, 101);
}

TEST(DecoderFuzz, SessionOps) {
  std::vector<std::string> answers, verifies, refs, resumes;
  for (bool token : {false, true}) {
    for (Oracle::Answer a : {Oracle::Answer::kYes, Oracle::Answer::kNo,
                             Oracle::Answer::kDontKnow}) {
      answers.push_back(EncodeBody(AnswerMsg{77, a, token, token ? 9u : 0u}));
    }
    for (bool confirmed : {false, true}) {
      verifies.push_back(
          EncodeBody(VerifyMsg{78, confirmed, token, token ? 9u : 0u}));
    }
    refs.push_back(EncodeBody(SessionRefMsg{79, token, token ? 9u : 0u}));
  }
  resumes.push_back(EncodeBody(ResumeSessionMsg{80, 0x5151515151515151ull}));
  FuzzDecoder<AnswerMsg>(answers, 102);
  FuzzDecoder<VerifyMsg>(verifies, 103);
  FuzzDecoder<SessionRefMsg>(refs, 104);
  FuzzDecoder<ResumeSessionMsg>(resumes, 105);
}

TEST(DecoderFuzz, Error) {
  std::vector<std::string> corpus;
  corpus.push_back(EncodeBody(ErrorMsg{WireStatus::kNotFound, "gone"}));
  corpus.push_back(EncodeBody(ErrorMsg{WireStatus::kInternal, ""}));
  for (uint32_t retry : {0u, 250u}) {
    ErrorMsg busy{WireStatus::kBusy, "server busy"};
    busy.retry_after_ms = retry;
    busy.has_retry_after = true;
    corpus.push_back(EncodeBody(busy));
  }
  FuzzDecoder<ErrorMsg>(corpus, 106);
}

TEST(DecoderFuzz, SessionState) {
  std::vector<std::string> corpus;
  for (bool token : {false, true}) {
    SessionStateMsg question;
    question.session_id = 3;
    question.state = SessionState::kAwaitingAnswer;
    question.question = 11;
    question.questions_asked = 2;
    question.has_token = token;
    question.token = token ? 0x42 : 0;
    corpus.push_back(EncodeBody(question));

    SessionStateMsg verify = question;
    verify.state = SessionState::kAwaitingVerify;
    verify.question = kNoEntity;
    verify.verify_set = 4;
    corpus.push_back(EncodeBody(verify));

    SessionStateMsg done = question;
    done.state = SessionState::kFinished;
    done.question = kNoEntity;
    done.result.questions = 3;
    done.result.backtracks = 1;
    done.result.confirmed = true;
    done.result.total_candidates = 3;
    done.result.candidates = {4, 5};
    done.result.total_transcript = 3;
    done.result.transcript = {{2, kWireYes}, {7, kWireNo}, {9, kWireDontKnow}};
    corpus.push_back(EncodeBody(done));

    SessionStateMsg empty = question;
    empty.state = SessionState::kFinished;
    empty.result = WireResult{};
    corpus.push_back(EncodeBody(empty));
  }
  FuzzDecoder<SessionStateMsg>(corpus, 107);
}

TEST(DecoderFuzz, StatsReply) {
  std::vector<std::string> corpus;
  StatsReplyMsg legacy = RichStats();
  legacy.has_rich = false;
  corpus.push_back(EncodeBody(legacy));
  corpus.push_back(EncodeBody(RichStats()));
  corpus.push_back(EncodeBody(RichStatsV2()));
  StatsReplyMsg none = RichStatsV2();
  none.exemplars.clear();
  corpus.push_back(EncodeBody(none));
  // A newer server's body: a later rich version with bytes appended.
  StatsReplyMsg newer = RichStatsV2();
  newer.rich_version = 3;
  corpus.push_back(EncodeBody(newer) + std::string(5, '\x33'));
  FuzzDecoder<StatsReplyMsg>(corpus, 108);
}

}  // namespace
}  // namespace setdisc::net
