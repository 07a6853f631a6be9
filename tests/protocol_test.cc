// Wire-protocol framing and message-codec tests: roundtrips for every
// message, partial/fragmented delivery, garbage and truncated frames,
// oversized-length and version-mismatch rejection, and malformed-payload
// decoding — the pure (no-socket) half of the net subsystem.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
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
  msg.want_token = true;
  msg.trace_hi = 0x1122334455667788ull;
  msg.trace_lo = 0x99aabbccddeeff01ull;
  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(msg));
  EXPECT_EQ(frame.type, MsgType::kCreateSession);
  // u32 n, n ids, u8 want_token, two u64 trace halves: one fixed layout.
  EXPECT_EQ(frame.body.size(), 4 + 3 * 4 + 1 + 16u);
  CreateSessionMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.initial, msg.initial);
  EXPECT_TRUE(decoded.want_token);
  EXPECT_EQ(decoded.trace_hi, msg.trace_hi);
  EXPECT_EQ(decoded.trace_lo, msg.trace_lo);

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
    Frame frame = DecodeOne(
        decoder, Encode(AnswerMsg{0x1122334455667788ull, answer, 0xfeed}));
    EXPECT_EQ(frame.type, MsgType::kAnswer);
    AnswerMsg decoded;
    ASSERT_TRUE(Decode(frame.body, &decoded));
    EXPECT_EQ(decoded.session_id, 0x1122334455667788ull);
    EXPECT_EQ(decoded.answer, answer);
    EXPECT_EQ(decoded.token, 0xfeedu);
  }
}

TEST(ProtocolRoundtrip, VerifyAndSessionRefAndStats) {
  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(VerifyMsg{42, true, 5}));
  VerifyMsg verify;
  ASSERT_TRUE(Decode(frame.body, &verify));
  EXPECT_EQ(verify.session_id, 42u);
  EXPECT_TRUE(verify.confirmed);
  EXPECT_EQ(verify.token, 5u);

  for (MsgType type : {MsgType::kGetSession, MsgType::kCloseSession,
                       MsgType::kResumeSession, MsgType::kClosed}) {
    frame = DecodeOne(decoder, Encode(type, SessionRefMsg{7, 0x0807060504}));
    EXPECT_EQ(frame.type, type);
    SessionRefMsg ref;
    ASSERT_TRUE(Decode(frame.body, &ref));
    EXPECT_EQ(ref.session_id, 7u);
    EXPECT_EQ(ref.token, 0x0807060504u);
  }

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
  for (uint32_t hint : {0u, 50u, 0xFFFFFFFFu}) {
    Frame frame =
        DecodeOne(decoder, Encode(ErrorMsg{WireStatus::kBusy, "nope", hint}));
    EXPECT_EQ(frame.type, MsgType::kError);
    EXPECT_EQ(frame.body.size(), 1 + 4 + 4 + 4u);  // the hint is always there
    ErrorMsg decoded;
    ASSERT_TRUE(Decode(frame.body, &decoded));
    EXPECT_EQ(decoded.status, WireStatus::kBusy);
    EXPECT_EQ(decoded.message, "nope");
    EXPECT_EQ(decoded.retry_after_ms, hint);
  }
  // kBusy must render for logs and clients that print message text.
  EXPECT_STRNE(WireStatusName(WireStatus::kBusy), "");
  EXPECT_NE(std::string(WireStatusName(WireStatus::kBusy)),
            std::string(WireStatusName(WireStatus::kShuttingDown)));
}

TEST(ProtocolRoundtrip, SessionStatePendingQuestion) {
  SessionStateMsg msg;
  msg.session_id = 77;
  msg.state = SessionState::kAwaitingAnswer;
  msg.question = 13;
  msg.verify_set = kNoSet;
  msg.questions_asked = 4;
  msg.token = 0xabcdef0123456789ull;
  FrameDecoder decoder;
  Frame frame = DecodeOne(decoder, Encode(msg));
  SessionStateMsg decoded;
  ASSERT_TRUE(Decode(frame.body, &decoded));
  EXPECT_EQ(decoded.token, msg.token);
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
  {
    FrameDecoder decoder;
    Frame frame = DecodeOne(decoder, Encode(CreateSessionMsg{}));
    frame.body[4] = 2;  // want_token is a bool byte
    CreateSessionMsg decoded;
    EXPECT_FALSE(Decode(frame.body, &decoded));
  }
  // Truncated and padded bodies.
  {
    FrameDecoder decoder;
    Frame frame =
        DecodeOne(decoder, Encode(MsgType::kGetSession, SessionRefMsg{1}));
    SessionRefMsg decoded;
    EXPECT_FALSE(Decode(frame.body.substr(0, 15), &decoded));
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
// StatsReply: one layout — counters, histograms, scalars, registry, exemplars
// ---------------------------------------------------------------------------

StatsReplyMsg SampleStats() {
  StatsReplyMsg msg;
  msg.active_sessions = 5;
  msg.created_sessions = 1000;
  msg.connections_open = 3;
  msg.connections_total = 9;
  msg.frames_received = 123;
  msg.frames_sent = 456;
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

std::string BodyOf(const std::string& frame_bytes) {
  return frame_bytes.substr(kFrameHeaderBytes);
}

TEST(StatsReply, EveryFieldRoundTrips) {
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(BodyOf(Encode(SampleStats())), &decoded));
  EXPECT_EQ(decoded.active_sessions, 5u);
  EXPECT_EQ(decoded.created_sessions, 1000u);
  EXPECT_EQ(decoded.frames_sent, 456u);
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

  // An empty section is still present: nothing slow yet.
  StatsReplyMsg quiet = SampleStats();
  quiet.exemplars.clear();
  decoded.exemplars.resize(3);  // must be overwritten
  ASSERT_TRUE(Decode(BodyOf(Encode(quiet)), &decoded));
  EXPECT_TRUE(decoded.exemplars.empty());
}

TEST(StatsReply, ForeignPhaseCountIsRejected) {
  // The phase count sits right after the registry dump; a peer built with
  // another phase set must be refused, not half-read.
  StatsReplyMsg msg = SampleStats();
  msg.exemplars.clear();
  std::string body = BodyOf(Encode(msg));
  const size_t phase_byte = body.size() - 1 - sizeof(uint32_t);
  ASSERT_EQ(static_cast<size_t>(body[phase_byte]), obs::kNumPhases);
  StatsReplyMsg decoded;
  for (int phases : {0, static_cast<int>(obs::kNumPhases) + 1}) {
    body[phase_byte] = static_cast<char>(phases);
    EXPECT_FALSE(Decode(body, &decoded)) << phases << " phases";
  }
}

TEST(StatsReply, RegistryAndExemplarsAreCappedAtEncode) {
  StatsReplyMsg msg = SampleStats();
  msg.registry.clear();
  for (uint32_t i = 0; i < kMaxWireRegistryEntries + 50; ++i) {
    msg.registry.emplace_back("metric_" + std::to_string(i), i);
  }
  msg.exemplars.clear();
  for (uint32_t i = 0; i < kMaxWireExemplars + 10; ++i) {
    WireExemplar ex;
    ex.session_id = i;
    msg.exemplars.push_back(ex);
  }
  StatsReplyMsg decoded;
  ASSERT_TRUE(Decode(BodyOf(Encode(msg)), &decoded));
  EXPECT_EQ(decoded.registry.size(), size_t{kMaxWireRegistryEntries});
  EXPECT_EQ(decoded.registry[0].first, "metric_0");
  ASSERT_EQ(decoded.exemplars.size(), size_t{kMaxWireExemplars});
  // The most recent exemplars survive the cap.
  EXPECT_EQ(decoded.exemplars.front().session_id, 10u);
  EXPECT_EQ(decoded.exemplars.back().session_id, kMaxWireExemplars + 9u);
}

// ---------------------------------------------------------------------------
// Fixed layouts: every message is exact, tokens and hints always present
// ---------------------------------------------------------------------------

std::string EncodeBody(const SessionRefMsg& m) {
  return BodyOf(Encode(MsgType::kGetSession, m));
}
template <typename Msg>
std::string EncodeBody(const Msg& m) {
  return BodyOf(Encode(m));
}

/// `body` decodes, and so does no strict prefix of it and no padding of it.
template <typename Msg>
void ExpectExact(const std::string& body) {
  Msg decoded;
  ASSERT_TRUE(Decode(body, &decoded));
  for (size_t len = 0; len < body.size(); ++len) {
    EXPECT_FALSE(Decode(body.substr(0, len), &decoded))
        << "prefix of " << len << " of " << body.size() << " bytes decoded";
  }
  EXPECT_FALSE(Decode(body + '\0', &decoded)) << "padding decoded";
}

TEST(FixedLayout, TokensTrailEverySessionMessage) {
  // A tokenless message carries a zero token: the layout never changes.
  EXPECT_EQ(EncodeBody(AnswerMsg{9, Oracle::Answer::kYes}).size(), 8 + 1 + 8u);
  EXPECT_EQ(EncodeBody(VerifyMsg{9, true}).size(), 8 + 1 + 8u);
  EXPECT_EQ(EncodeBody(SessionRefMsg{9}).size(), 8 + 8u);
  EXPECT_EQ(EncodeBody(CreateSessionMsg{}).size(), 4 + 1 + 16u);

  SessionStateMsg state;
  state.session_id = 9;
  state.state = SessionState::kAwaitingAnswer;
  state.question = 3;
  state.questions_asked = 2;
  EXPECT_EQ(EncodeBody(state).size(), 8 + 1 + 4 + 4 + 4 + 8u);
  const std::string tokenless = EncodeBody(state);
  state.token = 0x1111111111111111ull;
  const std::string tokened = EncodeBody(state);
  EXPECT_EQ(tokened.size(), tokenless.size());
  EXPECT_EQ(tokened.substr(0, tokened.size() - 8),
            tokenless.substr(0, tokenless.size() - 8));
}

TEST(FixedLayout, EveryMessageRejectsTruncationAndPadding) {
  CreateSessionMsg create;
  create.initial = {2, 7};
  create.want_token = true;
  create.trace_hi = 0xdeadbeefcafef00dull;
  create.trace_lo = 0x0123456789abcdefull;
  ExpectExact<CreateSessionMsg>(EncodeBody(create));
  ExpectExact<AnswerMsg>(EncodeBody(AnswerMsg{1, Oracle::Answer::kNo, 7}));
  ExpectExact<VerifyMsg>(EncodeBody(VerifyMsg{1, false, 7}));
  ExpectExact<SessionRefMsg>(EncodeBody(SessionRefMsg{1, 7}));
  ExpectExact<ErrorMsg>(EncodeBody(ErrorMsg{WireStatus::kBusy, "busy", 125}));

  SessionStateMsg done;
  done.session_id = 6;
  done.state = SessionState::kFinished;
  done.result.questions = 3;
  done.result.total_candidates = 1;
  done.result.candidates = {4};
  done.result.total_transcript = 1;
  done.result.transcript = {{2, kWireYes}};
  done.token = 0x42;
  ExpectExact<SessionStateMsg>(EncodeBody(done));
  ExpectExact<StatsReplyMsg>(EncodeBody(SampleStats()));
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzz of every message decoder and of the frame decoder
// ---------------------------------------------------------------------------
//
// Each corpus body is a valid encoding; fixed-seed rounds of truncation,
// bit flips, insertions and appends mutate it. A decoder may reject the
// result, but whatever it accepts must re-encode to the very same bytes: no
// field is half-read, no byte is ignored, and no accepted input carries
// state the encoder cannot express.

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
      default:  // append up to 17 bytes
        for (uint64_t n = 1 + rng.Uniform(17); n > 0; --n) {
          body.push_back(static_cast<char>(rng.Uniform(256)));
        }
    }
  }
  return body;
}

/// Decodes `body`; when that succeeds, the re-encoding must be `body` itself.
/// Returns whether `body` was accepted.
template <typename Msg>
bool AcceptsOnlyCanonical(const std::string& body) {
  Msg decoded;
  if (!Decode(body, &decoded)) return false;
  EXPECT_EQ(EncodeBody(decoded), body)
      << "accepted body does not re-encode to itself (" << body.size()
      << " bytes)";
  return true;
}

template <typename Msg>
void FuzzDecoder(const std::vector<std::string>& corpus, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < corpus.size(); ++i) {
    ASSERT_TRUE(AcceptsOnlyCanonical<Msg>(corpus[i]))
        << "corpus entry " << i << " is not a valid encoding";
    for (int round = 0; round < 400; ++round) {
      AcceptsOnlyCanonical<Msg>(Mutate(corpus[i], rng));
      if (::testing::Test::HasFailure()) {
        FAIL() << "corpus entry " << i << ", round " << round;
      }
    }
  }
}

TEST(DecoderFuzz, CreateSession) {
  std::vector<std::string> corpus;
  for (const std::vector<EntityId>& initial :
       std::vector<std::vector<EntityId>>{{}, {5}, {1, 2, 3}}) {
    for (bool want_token : {false, true}) {
      for (uint64_t trace : {uint64_t{0}, uint64_t{0x0123456789abcdefull}}) {
        corpus.push_back(
            EncodeBody(CreateSessionMsg{initial, want_token, trace, ~trace}));
      }
    }
  }
  FuzzDecoder<CreateSessionMsg>(corpus, 101);
}

TEST(DecoderFuzz, SessionOps) {
  std::vector<std::string> answers, verifies, refs;
  for (uint64_t token : {uint64_t{0}, uint64_t{0x5151515151515151ull}}) {
    for (Oracle::Answer a : {Oracle::Answer::kYes, Oracle::Answer::kNo,
                             Oracle::Answer::kDontKnow}) {
      answers.push_back(EncodeBody(AnswerMsg{77, a, token}));
    }
    for (bool confirmed : {false, true}) {
      verifies.push_back(EncodeBody(VerifyMsg{78, confirmed, token}));
    }
    refs.push_back(EncodeBody(SessionRefMsg{79, token}));
  }
  FuzzDecoder<AnswerMsg>(answers, 102);
  FuzzDecoder<VerifyMsg>(verifies, 103);
  FuzzDecoder<SessionRefMsg>(refs, 104);
}

TEST(DecoderFuzz, Error) {
  FuzzDecoder<ErrorMsg>(
      {EncodeBody(ErrorMsg{WireStatus::kNotFound, "gone"}),
       EncodeBody(ErrorMsg{WireStatus::kInternal, ""}),
       EncodeBody(ErrorMsg{WireStatus::kBusy, "server busy", 250})},
      106);
}

TEST(DecoderFuzz, SessionState) {
  std::vector<std::string> corpus;
  for (uint64_t token : {uint64_t{0}, uint64_t{0x42}}) {
    SessionStateMsg question;
    question.session_id = 3;
    question.state = SessionState::kAwaitingAnswer;
    question.question = 11;
    question.questions_asked = 2;
    question.token = token;
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
  StatsReplyMsg quiet = SampleStats();
  quiet.exemplars.clear();
  quiet.registry.clear();
  FuzzDecoder<StatsReplyMsg>({EncodeBody(SampleStats()), EncodeBody(quiet),
                              EncodeBody(StatsReplyMsg{})},
                             108);
}

TEST(DecoderFuzz, FrameHeaders) {
  // A stream of valid frames whose 8-byte headers are mutated, fed at random
  // fragmentation. The decoder must pop exactly the bytes each header
  // announces — every frame before the first mutation unchanged — never a
  // body over max_body, and poison itself on the first header it must refuse.
  constexpr size_t kMaxBody = 64;
  CreateSessionMsg create;
  create.initial = {1, 2};
  const std::vector<std::string> frames = {
      Encode(create),
      Encode(AnswerMsg{1, Oracle::Answer::kYes, 2}),
      EncodeStatsRequest(),
      Encode(ErrorMsg{WireStatus::kBusy, "busy", 9}),
      Encode(MsgType::kCloseSession, SessionRefMsg{3, 4}),
      Encode(VerifyMsg{5, true, 6}),
  };
  std::string clean;
  std::vector<size_t> starts;
  for (const std::string& f : frames) {
    ASSERT_LE(f.size() - kFrameHeaderBytes, kMaxBody);
    starts.push_back(clean.size());
    clean += f;
  }
  Rng rng(109);
  for (int round = 0; round < 2000; ++round) {
    std::string stream = clean;
    size_t first_mutation = stream.size();
    for (int m = 1 + static_cast<int>(rng.Uniform(3)); m > 0; --m) {
      const size_t at =
          starts[rng.Uniform(starts.size())] + rng.Uniform(kFrameHeaderBytes);
      stream[at] = rng.Bernoulli(0.5)
                       ? static_cast<char>(stream[at] ^ (1u << rng.Uniform(8)))
                       : static_cast<char>(rng.Uniform(256));
      first_mutation = std::min(first_mutation, at);
    }
    FrameDecoder decoder(kMaxBody);
    size_t consumed = 0;
    bool poisoned = false;
    WireStatus poison = WireStatus::kOk;
    for (size_t pos = 0; pos < stream.size() && !poisoned;) {
      const size_t chunk =
          std::min<size_t>(1 + rng.Uniform(23), stream.size() - pos);
      decoder.Feed(stream.data() + pos, chunk);
      pos += chunk;
      Frame out;
      WireStatus error = WireStatus::kOk;
      FrameDecoder::Next next;
      while ((next = decoder.Pop(&out, &error)) == FrameDecoder::Next::kFrame) {
        ASSERT_LE(out.body.size(), kMaxBody) << "round " << round;
        const std::string again = EncodeFrame(out.type, out.body);
        ASSERT_EQ(again, stream.substr(consumed, again.size()))
            << "round " << round << ": popped bytes differ from the stream";
        consumed += again.size();
      }
      if (next == FrameDecoder::Next::kError) {
        poisoned = true;
        poison = error;
        ASSERT_TRUE(error == WireStatus::kBadVersion ||
                    error == WireStatus::kMalformed ||
                    error == WireStatus::kOversized)
            << "round " << round << ": " << WireStatusName(error);
        // The refused header really is bad: the decoder did not reject a
        // frame it should have delivered.
        ASSERT_LE(consumed + kFrameHeaderBytes, stream.size());
        ASSERT_GE(consumed + kFrameHeaderBytes, first_mutation + 1)
            << "round " << round << ": refused an untouched header";
      }
    }
    // Every frame that lies wholly before the first mutated byte came out.
    for (size_t i = 0; i < starts.size(); ++i) {
      if (starts[i] + frames[i].size() <= first_mutation) {
        EXPECT_GE(consumed, starts[i] + frames[i].size()) << "round " << round;
      }
    }
    if (poisoned) {
      const size_t held = decoder.buffered();
      decoder.Feed(clean);
      ASSERT_EQ(decoder.buffered(), held) << "round " << round;
      Frame out;
      WireStatus again = WireStatus::kOk;
      ASSERT_EQ(decoder.Pop(&out, &again), FrameDecoder::Next::kError);
      ASSERT_EQ(again, poison) << "round " << round;
    }
    if (::testing::Test::HasFailure()) FAIL() << "round " << round;
  }
}

}  // namespace
}  // namespace setdisc::net
