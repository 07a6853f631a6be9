#include "net/protocol.h"

#include <algorithm>

namespace setdisc::net {

const char* WireStatusName(WireStatus status) {
  switch (status) {
    case WireStatus::kOk: return "ok";
    case WireStatus::kNotFound: return "not found";
    case WireStatus::kWrongState: return "wrong state";
    case WireStatus::kMalformed: return "malformed frame";
    case WireStatus::kOversized: return "oversized frame";
    case WireStatus::kBadVersion: return "protocol version mismatch";
    case WireStatus::kBadType: return "unknown message type";
    case WireStatus::kShuttingDown: return "server shutting down";
    case WireStatus::kInternal: return "internal error";
    case WireStatus::kBusy: return "server busy";
  }
  return "unknown status";
}

uint8_t AnswerToWire(Oracle::Answer answer) {
  switch (answer) {
    case Oracle::Answer::kYes: return kWireYes;
    case Oracle::Answer::kNo: return kWireNo;
    case Oracle::Answer::kDontKnow: return kWireDontKnow;
  }
  return kWireDontKnow;
}

bool AnswerFromWire(uint8_t wire, Oracle::Answer* out) {
  switch (wire) {
    case kWireYes: *out = Oracle::Answer::kYes; return true;
    case kWireNo: *out = Oracle::Answer::kNo; return true;
    case kWireDontKnow: *out = Oracle::Answer::kDontKnow; return true;
  }
  return false;
}

uint8_t SessionStateToWire(SessionState state) {
  switch (state) {
    case SessionState::kAwaitingAnswer: return 0;
    case SessionState::kAwaitingVerify: return 1;
    case SessionState::kFinished: return 2;
  }
  return 2;
}

bool SessionStateFromWire(uint8_t wire, SessionState* out) {
  switch (wire) {
    case 0: *out = SessionState::kAwaitingAnswer; return true;
    case 1: *out = SessionState::kAwaitingVerify; return true;
    case 2: *out = SessionState::kFinished; return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

std::string EncodeFrame(MsgType type, std::string_view body) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  PayloadWriter w(&frame);
  w.PutU32(static_cast<uint32_t>(body.size()));
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(type));
  w.PutU16(0);  // reserved
  w.PutBytes(body);
  return frame;
}

void FrameDecoder::Feed(const char* data, size_t n) {
  if (poisoned_) return;  // the stream is unrecoverable; drop further input
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

FrameDecoder::Next FrameDecoder::Pop(Frame* out, WireStatus* error) {
  if (poisoned_) {
    if (error != nullptr) *error = poison_status_;
    return Next::kError;
  }
  if (buf_.size() - pos_ < kFrameHeaderBytes) return Next::kNeedMore;

  PayloadReader header(std::string_view(buf_).substr(pos_, kFrameHeaderBytes));
  uint32_t body_len = 0;
  uint8_t version = 0, type = 0;
  uint16_t reserved = 0;
  header.GetU32(&body_len);
  header.GetU8(&version);
  header.GetU8(&type);
  header.GetU16(&reserved);

  // Header-only validation: a bad length is rejected before any body bytes
  // are buffered, so a garbage length cannot balloon memory.
  WireStatus bad = WireStatus::kOk;
  if (version != kProtocolVersion) {
    bad = WireStatus::kBadVersion;
  } else if (reserved != 0) {
    bad = WireStatus::kMalformed;
  } else if (body_len > max_body_) {
    bad = WireStatus::kOversized;
  }
  if (bad != WireStatus::kOk) {
    poisoned_ = true;
    poison_status_ = bad;
    if (error != nullptr) *error = bad;
    return Next::kError;
  }

  if (buf_.size() - pos_ < kFrameHeaderBytes + body_len) return Next::kNeedMore;
  out->type = static_cast<MsgType>(type);
  out->body.assign(buf_, pos_ + kFrameHeaderBytes, body_len);
  pos_ += kFrameHeaderBytes + body_len;
  if (pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  }
  return Next::kFrame;
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

namespace {

// Bools travel as one byte that must be 0 or 1, so every accepted body
// re-encodes to the same bytes.
bool GetBool(PayloadReader& r, bool* out) {
  uint8_t b = 0;
  if (!r.GetU8(&b) || b > 1) return false;
  *out = b != 0;
  return true;
}

void PutHistogramSummary(PayloadWriter& w, const HistogramSummary& h) {
  w.PutU64(h.count);
  w.PutU64(h.sum);
  w.PutU64(h.p50);
  w.PutU64(h.p90);
  w.PutU64(h.p99);
  w.PutU64(h.p999);
}

bool GetHistogramSummary(PayloadReader& r, HistogramSummary* h) {
  return r.GetU64(&h->count) && r.GetU64(&h->sum) && r.GetU64(&h->p50) &&
         r.GetU64(&h->p90) && r.GetU64(&h->p99) && r.GetU64(&h->p999);
}

// Bytes per exemplar on the wire: six u64s, u32 step, u8 kind, u8 path,
// then one u64 per phase.
constexpr size_t kWireExemplarBytes = 8 * 6 + 4 + 1 + 1 + 8 * obs::kNumPhases;

}  // namespace

std::string Encode(const CreateSessionMsg& msg) {
  std::string body;
  PayloadWriter w(&body);
  w.PutU32(static_cast<uint32_t>(msg.initial.size()));
  for (EntityId e : msg.initial) w.PutU32(e);
  w.PutU8(msg.want_token ? 1 : 0);
  w.PutU64(msg.trace_hi);
  w.PutU64(msg.trace_lo);
  return EncodeFrame(MsgType::kCreateSession, body);
}

bool Decode(std::string_view body, CreateSessionMsg* out) {
  PayloadReader r(body);
  uint32_t n = 0;
  if (!r.GetU32(&n)) return false;
  // Bound the count by the bytes present before reserving anything.
  if (r.remaining() < size_t{n} * sizeof(uint32_t)) return false;
  out->initial.clear();
  out->initial.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t e = 0;
    if (!r.GetU32(&e)) return false;
    out->initial.push_back(e);
  }
  return GetBool(r, &out->want_token) && r.GetU64(&out->trace_hi) &&
         r.GetU64(&out->trace_lo) && r.Exhausted();
}

std::string Encode(const AnswerMsg& msg) {
  std::string body;
  PayloadWriter w(&body);
  w.PutU64(msg.session_id);
  w.PutU8(AnswerToWire(msg.answer));
  w.PutU64(msg.token);
  return EncodeFrame(MsgType::kAnswer, body);
}

bool Decode(std::string_view body, AnswerMsg* out) {
  PayloadReader r(body);
  uint8_t answer = 0;
  return r.GetU64(&out->session_id) && r.GetU8(&answer) &&
         AnswerFromWire(answer, &out->answer) && r.GetU64(&out->token) &&
         r.Exhausted();
}

std::string Encode(const VerifyMsg& msg) {
  std::string body;
  PayloadWriter w(&body);
  w.PutU64(msg.session_id);
  w.PutU8(msg.confirmed ? 1 : 0);
  w.PutU64(msg.token);
  return EncodeFrame(MsgType::kVerify, body);
}

bool Decode(std::string_view body, VerifyMsg* out) {
  PayloadReader r(body);
  return r.GetU64(&out->session_id) && GetBool(r, &out->confirmed) &&
         r.GetU64(&out->token) && r.Exhausted();
}

std::string Encode(MsgType type, const SessionRefMsg& msg) {
  std::string body;
  PayloadWriter w(&body);
  w.PutU64(msg.session_id);
  w.PutU64(msg.token);
  return EncodeFrame(type, body);
}

bool Decode(std::string_view body, SessionRefMsg* out) {
  PayloadReader r(body);
  return r.GetU64(&out->session_id) && r.GetU64(&out->token) && r.Exhausted();
}

std::string EncodeStatsRequest() {
  return EncodeFrame(MsgType::kStats, {});
}

std::string Encode(const ErrorMsg& msg) {
  std::string body;
  PayloadWriter w(&body);
  w.PutU8(static_cast<uint8_t>(msg.status));
  w.PutU32(static_cast<uint32_t>(msg.message.size()));
  w.PutBytes(msg.message);
  w.PutU32(msg.retry_after_ms);
  return EncodeFrame(MsgType::kError, body);
}

bool Decode(std::string_view body, ErrorMsg* out) {
  PayloadReader r(body);
  uint8_t status = 0;
  uint32_t len = 0;
  std::string_view text;
  if (!r.GetU8(&status) || !r.GetU32(&len) || !r.GetBytes(len, &text) ||
      !r.GetU32(&out->retry_after_ms)) {
    return false;
  }
  out->status = static_cast<WireStatus>(status);
  out->message.assign(text);
  return r.Exhausted();
}

std::string Encode(const SessionStateMsg& msg) {
  std::string body;
  PayloadWriter w(&body);
  w.PutU64(msg.session_id);
  w.PutU8(SessionStateToWire(msg.state));
  w.PutU32(msg.question);
  w.PutU32(msg.verify_set);
  w.PutU32(msg.questions_asked);
  if (msg.state == SessionState::kFinished) {
    const WireResult& res = msg.result;
    w.PutU32(res.questions);
    w.PutU32(res.backtracks);
    w.PutU8(res.confirmed ? 1 : 0);
    w.PutU8(res.halted ? 1 : 0);
    w.PutU32(res.total_candidates);
    w.PutU32(static_cast<uint32_t>(res.candidates.size()));
    for (SetId s : res.candidates) w.PutU32(s);
    w.PutU32(res.total_transcript);
    w.PutU32(static_cast<uint32_t>(res.transcript.size()));
    for (const auto& [entity, answer] : res.transcript) {
      w.PutU32(entity);
      w.PutU8(answer);
    }
  }
  w.PutU64(msg.token);
  return EncodeFrame(MsgType::kSessionState, body);
}

bool Decode(std::string_view body, SessionStateMsg* out) {
  PayloadReader r(body);
  uint8_t state = 0;
  if (!r.GetU64(&out->session_id) || !r.GetU8(&state) ||
      !r.GetU32(&out->question) || !r.GetU32(&out->verify_set) ||
      !r.GetU32(&out->questions_asked)) {
    return false;
  }
  if (!SessionStateFromWire(state, &out->state)) return false;
  out->result = WireResult{};
  if (out->state == SessionState::kFinished) {
    WireResult& res = out->result;
    uint32_t num_candidates = 0;
    if (!r.GetU32(&res.questions) || !r.GetU32(&res.backtracks) ||
        !GetBool(r, &res.confirmed) || !GetBool(r, &res.halted) ||
        !r.GetU32(&res.total_candidates) || !r.GetU32(&num_candidates)) {
      return false;
    }
    if (num_candidates > kMaxWireCandidates ||
        num_candidates > res.total_candidates ||
        r.remaining() < size_t{num_candidates} * sizeof(uint32_t)) {
      return false;
    }
    res.candidates.reserve(num_candidates);
    for (uint32_t i = 0; i < num_candidates; ++i) {
      uint32_t s = 0;
      if (!r.GetU32(&s)) return false;
      res.candidates.push_back(s);
    }
    uint32_t transcript_len = 0;
    if (!r.GetU32(&res.total_transcript) || !r.GetU32(&transcript_len)) {
      return false;
    }
    if (transcript_len > kMaxWireTranscript ||
        transcript_len > res.total_transcript ||
        r.remaining() < size_t{transcript_len} * 5) {
      return false;
    }
    res.transcript.reserve(transcript_len);
    for (uint32_t i = 0; i < transcript_len; ++i) {
      uint32_t entity = 0;
      uint8_t answer = 0;
      if (!r.GetU32(&entity) || !r.GetU8(&answer)) return false;
      if (answer > kWireDontKnow) return false;
      res.transcript.emplace_back(entity, answer);
    }
  }
  return r.GetU64(&out->token) && r.Exhausted();
}

std::string Encode(const StatsReplyMsg& msg) {
  std::string body;
  PayloadWriter w(&body);
  w.PutU64(msg.active_sessions);
  w.PutU64(msg.created_sessions);
  w.PutU64(msg.connections_open);
  w.PutU64(msg.connections_total);
  w.PutU64(msg.frames_received);
  w.PutU64(msg.frames_sent);
  PutHistogramSummary(w, msg.step_latency);
  PutHistogramSummary(w, msg.pool_queue_wait);
  w.PutU64(msg.pool_queue_depth);
  w.PutU64(msg.cache_lookups);
  w.PutU64(msg.cache_hits);
  w.PutU64(msg.delta_full);
  w.PutU64(msg.delta_delta);
  w.PutU64(msg.delta_reemit);
  w.PutU64(msg.klp_candidates);
  w.PutU64(msg.klp_evaluated);
  w.PutU64(msg.klp_pruned);
  const uint32_t n = static_cast<uint32_t>(
      std::min<size_t>(msg.registry.size(), kMaxWireRegistryEntries));
  w.PutU32(n);
  for (uint32_t i = 0; i < n; ++i) {
    const auto& [name, value] = msg.registry[i];
    const uint16_t len = static_cast<uint16_t>(
        std::min<size_t>(name.size(), UINT16_MAX));
    w.PutU16(len);
    w.PutBytes(std::string_view(name).substr(0, len));
    w.PutU64(value);
  }
  // The phase count lets a decoder reject a peer built with another phase
  // set instead of misreading its exemplars.
  w.PutU8(static_cast<uint8_t>(obs::kNumPhases));
  const size_t first = msg.exemplars.size() > kMaxWireExemplars
                           ? msg.exemplars.size() - kMaxWireExemplars
                           : 0;
  w.PutU32(static_cast<uint32_t>(msg.exemplars.size() - first));
  for (size_t i = first; i < msg.exemplars.size(); ++i) {
    const WireExemplar& ex = msg.exemplars[i];
    w.PutU64(ex.trace_hi);
    w.PutU64(ex.trace_lo);
    w.PutU64(ex.session_id);
    w.PutU64(ex.ts_ns);
    w.PutU32(ex.step);
    w.PutU8(ex.kind);
    w.PutU8(ex.serve_path);
    w.PutU64(ex.total_ns);
    w.PutU64(ex.queue_wait_ns);
    for (size_t ph = 0; ph < obs::kNumPhases; ++ph) w.PutU64(ex.phase_ns[ph]);
  }
  return EncodeFrame(MsgType::kStatsReply, body);
}

bool Decode(std::string_view body, StatsReplyMsg* out) {
  PayloadReader r(body);
  if (!r.GetU64(&out->active_sessions) || !r.GetU64(&out->created_sessions) ||
      !r.GetU64(&out->connections_open) ||
      !r.GetU64(&out->connections_total) || !r.GetU64(&out->frames_received) ||
      !r.GetU64(&out->frames_sent) ||
      !GetHistogramSummary(r, &out->step_latency) ||
      !GetHistogramSummary(r, &out->pool_queue_wait) ||
      !r.GetU64(&out->pool_queue_depth) || !r.GetU64(&out->cache_lookups) ||
      !r.GetU64(&out->cache_hits) || !r.GetU64(&out->delta_full) ||
      !r.GetU64(&out->delta_delta) || !r.GetU64(&out->delta_reemit) ||
      !r.GetU64(&out->klp_candidates) || !r.GetU64(&out->klp_evaluated) ||
      !r.GetU64(&out->klp_pruned)) {
    return false;
  }
  uint32_t n = 0;
  if (!r.GetU32(&n) || n > kMaxWireRegistryEntries) return false;
  // Cheapest-possible-entry bound before reserving anything.
  if (r.remaining() < size_t{n} * (sizeof(uint16_t) + sizeof(uint64_t))) {
    return false;
  }
  out->registry.clear();
  out->registry.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint16_t len = 0;
    std::string_view name;
    uint64_t value = 0;
    if (!r.GetU16(&len) || !r.GetBytes(len, &name) || !r.GetU64(&value)) {
      return false;
    }
    out->registry.emplace_back(std::string(name), value);
  }
  uint8_t num_phases = 0;
  uint32_t ex_n = 0;
  if (!r.GetU8(&num_phases) || num_phases != obs::kNumPhases ||
      !r.GetU32(&ex_n) || ex_n > kMaxWireExemplars ||
      r.remaining() < size_t{ex_n} * kWireExemplarBytes) {
    return false;
  }
  out->exemplars.assign(ex_n, WireExemplar{});
  for (WireExemplar& ex : out->exemplars) {
    if (!r.GetU64(&ex.trace_hi) || !r.GetU64(&ex.trace_lo) ||
        !r.GetU64(&ex.session_id) || !r.GetU64(&ex.ts_ns) ||
        !r.GetU32(&ex.step) || !r.GetU8(&ex.kind) ||
        !r.GetU8(&ex.serve_path) || !r.GetU64(&ex.total_ns) ||
        !r.GetU64(&ex.queue_wait_ns)) {
      return false;
    }
    for (uint64_t& ns : ex.phase_ns) {
      if (!r.GetU64(&ns)) return false;
    }
  }
  return r.Exhausted();
}

SessionStateMsg ToWire(const SessionView& view) {
  SessionStateMsg msg;
  msg.session_id = view.id;
  msg.state = view.state;
  msg.question = view.question;
  msg.verify_set = view.verify_set;
  msg.questions_asked = static_cast<uint32_t>(view.questions_asked);
  if (view.state == SessionState::kFinished) {
    const DiscoveryResult& res = view.result;
    msg.result.questions = static_cast<uint32_t>(res.questions);
    msg.result.backtracks = static_cast<uint32_t>(res.backtracks);
    msg.result.confirmed = res.confirmed;
    msg.result.halted = res.halted;
    msg.result.total_candidates = static_cast<uint32_t>(res.candidates.size());
    if (res.candidates.size() > kMaxWireCandidates) {
      msg.result.candidates.assign(res.candidates.begin(),
                                   res.candidates.begin() + kMaxWireCandidates);
    } else {
      msg.result.candidates = res.candidates;
    }
    msg.result.total_transcript = static_cast<uint32_t>(res.transcript.size());
    size_t wire_len = std::min<size_t>(res.transcript.size(), kMaxWireTranscript);
    msg.result.transcript.reserve(wire_len);
    for (size_t i = 0; i < wire_len; ++i) {
      msg.result.transcript.emplace_back(res.transcript[i].first,
                                         AnswerToWire(res.transcript[i].second));
    }
  }
  return msg;
}

DiscoveryResult ToDiscoveryResult(const WireResult& wire) {
  DiscoveryResult res;
  res.questions = static_cast<int>(wire.questions);
  res.backtracks = static_cast<int>(wire.backtracks);
  res.confirmed = wire.confirmed;
  res.halted = wire.halted;
  res.candidates = wire.candidates;
  res.transcript.reserve(wire.transcript.size());
  for (const auto& [entity, answer] : wire.transcript) {
    Oracle::Answer a = Oracle::Answer::kDontKnow;
    AnswerFromWire(answer, &a);
    res.transcript.emplace_back(entity, a);
  }
  return res;
}

}  // namespace setdisc::net
