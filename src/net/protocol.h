#pragma once

/// \file protocol.h
/// The setdisc binary wire protocol (version 2): length-prefixed frames that
/// carry a discovery conversation between a client and a DiscoveryServer
/// multiplexing sessions onto a SessionManager.
///
/// Frame layout (all integers little-endian, independent of host order):
///
///   offset 0  uint32  body length in bytes (header excluded)
///   offset 4  uint8   protocol version (kProtocolVersion)
///   offset 5  uint8   message type (MsgType)
///   offset 6  uint16  reserved, must be zero
///   offset 8  body[length]
///
/// Requests (client -> server) and replies (server -> client) flow in strict
/// order per connection: the n-th reply answers the n-th request, so no
/// request-id correlation is needed (requests may still be pipelined — the
/// server queues them and answers in order). Every session-stepping request
/// (CreateSession / Answer / Verify / GetSession) is answered with one
/// SessionState frame — the "Question" / "Verify" / "Finished" surface of the
/// conversation — or with an Error frame carrying a WireStatus.
///
/// Robustness rules, enforced by FrameDecoder before any body is parsed:
///  * a header whose version differs is rejected (kBadVersion);
///  * a nonzero reserved field is rejected (kMalformed);
///  * a length beyond the configured maximum is rejected without buffering
///    the body (kOversized).
/// A decode error poisons the stream (TCP gives no way to resync); the
/// server replies with an Error frame and closes the connection.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "collection/types.h"
#include "core/discovery.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/session_manager.h"

namespace setdisc::net {

inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 8;

/// Default upper bound on a frame body. Large enough for any realistic
/// finished-session result (candidates + transcript), small enough that a
/// garbage length field cannot make the server buffer gigabytes.
inline constexpr size_t kDefaultMaxBody = size_t{1} << 20;

/// Message types. Requests have the high bit clear, replies have it set.
enum class MsgType : uint8_t {
  // client -> server
  kCreateSession = 0x01,  ///< body: CreateSessionMsg — u32 n, n * u32 ids,
                          ///< u8 want_token, u64 trace hi, u64 trace lo
  kAnswer = 0x02,         ///< body: u64 session, u8 WireAnswer, u64 token
  kVerify = 0x03,         ///< body: u64 session, u8 confirmed, u64 token
  kGetSession = 0x04,     ///< body: u64 session, u64 token
  kCloseSession = 0x05,   ///< body: u64 session, u64 token
  kStats = 0x06,          ///< body: empty
  kResumeSession = 0x08,  ///< body: u64 session, u64 token

  // server -> client
  kSessionState = 0x81,  ///< body: SessionStateMsg
  kStatsReply = 0x82,    ///< body: StatsReplyMsg
  kClosed = 0x83,        ///< body: u64 session, u64 token (always 0)
  kError = 0xFF,         ///< body: u8 WireStatus, u32 len, message bytes,
                         ///< u32 retry_after_ms
};

/// Status codes carried by Error frames (and surfaced by the client).
enum class WireStatus : uint8_t {
  kOk = 0,
  kNotFound = 1,      ///< unknown / expired / evicted session id
  kWrongState = 2,    ///< e.g. Answer while the session awaits Verify
  kMalformed = 3,     ///< undecodable payload or reserved-field violation
  kOversized = 4,     ///< frame length exceeds the negotiated maximum
  kBadVersion = 5,    ///< protocol version mismatch
  kBadType = 6,       ///< unknown or misdirected message type
  kShuttingDown = 7,  ///< server is draining; no new work accepted
  kInternal = 8,      ///< server-side failure processing a valid request
  kBusy = 9,          ///< over the admission watermark; retry later. Unlike
                      ///< kShuttingDown the connection stays open — the
                      ///< client should back off (see ErrorMsg.retry_after_ms)
                      ///< and retry the Create on the same connection.
};

const char* WireStatusName(WireStatus status);

/// Wire encoding of Oracle::Answer.
enum WireAnswer : uint8_t {
  kWireYes = 0,
  kWireNo = 1,
  kWireDontKnow = 2,
};

uint8_t AnswerToWire(Oracle::Answer answer);
bool AnswerFromWire(uint8_t wire, Oracle::Answer* out);

/// Wire encoding of SessionState.
uint8_t SessionStateToWire(SessionState state);
bool SessionStateFromWire(uint8_t wire, SessionState* out);

// ---------------------------------------------------------------------------
// Payload primitives
// ---------------------------------------------------------------------------

/// Appends little-endian primitives to a byte buffer (std::string doubles as
/// the byte buffer throughout the net layer so frames concatenate cheaply
/// into connection write buffers).
class PayloadWriter {
 public:
  explicit PayloadWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void PutU16(uint16_t v) {
    PutU8(static_cast<uint8_t>(v));
    PutU8(static_cast<uint8_t>(v >> 8));
  }
  void PutU32(uint32_t v) {
    PutU16(static_cast<uint16_t>(v));
    PutU16(static_cast<uint16_t>(v >> 16));
  }
  void PutU64(uint64_t v) {
    PutU32(static_cast<uint32_t>(v));
    PutU32(static_cast<uint32_t>(v >> 32));
  }
  void PutBytes(std::string_view bytes) { out_->append(bytes); }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian reads over a frame body. Any out-of-bounds
/// read trips ok() permanently; callers check once at the end, so decoding a
/// truncated body is safe and branch-light.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) {
    if (!Ensure(1)) return false;
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool GetU16(uint16_t* v) {
    uint8_t lo, hi;
    if (!GetU8(&lo) || !GetU8(&hi)) return false;
    *v = static_cast<uint16_t>(lo | (uint16_t{hi} << 8));
    return true;
  }
  bool GetU32(uint32_t* v) {
    uint16_t lo, hi;
    if (!GetU16(&lo) || !GetU16(&hi)) return false;
    *v = lo | (uint32_t{hi} << 16);
    return true;
  }
  bool GetU64(uint64_t* v) {
    uint32_t lo, hi;
    if (!GetU32(&lo) || !GetU32(&hi)) return false;
    *v = lo | (uint64_t{hi} << 32);
    return true;
  }
  bool GetBytes(size_t n, std::string_view* out) {
    if (!Ensure(n)) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return data_.size() - pos_; }

  /// True iff every byte was consumed and no read ran out of bounds — the
  /// "exactly this message, nothing more" check every decoder ends with.
  bool Exhausted() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Ensure(size_t n) {
    if (!ok_ || data_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// One complete decoded frame.
struct Frame {
  MsgType type = MsgType::kError;
  std::string body;
};

/// Wraps `body` in a frame header of kProtocolVersion.
std::string EncodeFrame(MsgType type, std::string_view body);

/// Incremental frame decoder for a TCP byte stream. Feed() whatever the
/// socket produced — any fragmentation, including one byte at a time — and
/// Pop() complete frames as they materialize. Decode errors are sticky: the
/// stream cannot be resynchronized, so after the first error every Pop()
/// reports it again and Feed() becomes a no-op.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_body = kDefaultMaxBody)
      : max_body_(max_body) {}

  void Feed(const char* data, size_t n);
  void Feed(std::string_view data) { Feed(data.data(), data.size()); }

  enum class Next {
    kFrame,     ///< *out holds the next frame
    kNeedMore,  ///< no complete frame buffered yet
    kError,     ///< stream poisoned; *error holds the reason
  };

  Next Pop(Frame* out, WireStatus* error);

  /// Bytes buffered but not yet consumed by Pop().
  size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  size_t pos_ = 0;
  size_t max_body_;
  bool poisoned_ = false;
  WireStatus poison_status_ = WireStatus::kOk;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Every message has one fixed layout; a zero token or trace id means
/// "absent", so no field is optional on the wire.
struct CreateSessionMsg {
  std::vector<EntityId> initial;
  /// Ask the server to mint a session auth token and return it in the
  /// SessionState reply. Later requests on the session must present it; a
  /// durability-enabled server accepts kResumeSession only with the matching
  /// token. Encoded as a u8 that must be 0 or 1.
  bool want_token = false;
  /// The request-journey id the server stamps on every span of this session
  /// (obs/journey.h); both halves zero lets the server pick one.
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
};

/// Every request on an existing session ends in the session's auth token,
/// 0 for a tokenless session. The Closed reply always carries 0.
struct AnswerMsg {
  uint64_t session_id = 0;
  Oracle::Answer answer = Oracle::Answer::kDontKnow;
  uint64_t token = 0;
};

struct VerifyMsg {
  uint64_t session_id = 0;
  bool confirmed = false;
  uint64_t token = 0;
};

/// GetSession / CloseSession / Closed / ResumeSession: the session id and
/// the token. ResumeSession rebinds a (possibly spilled or restart-survived)
/// session to this connection and fetches its current state; its token must
/// match the one minted at Create, and a mismatch is answered kNotFound —
/// indistinguishable from an unknown id, so the id space leaks nothing.
struct SessionRefMsg {
  uint64_t session_id = 0;
  uint64_t token = 0;
};

struct ErrorMsg {
  WireStatus status = WireStatus::kOk;
  std::string message;
  /// Back-off hint for kBusy refusals; 0 = no hint.
  uint32_t retry_after_ms = 0;
};

/// Upper bound on candidate ids embedded in a finished-session reply. A
/// halted or exclusion-saturated session over a huge collection can leave
/// hundreds of thousands of candidates; shipping them all would overflow
/// the frame-size limit and poison the client's decoder. The reply carries
/// the true total plus the first kMaxWireCandidates ids (success — a
/// singleton — is never truncated).
inline constexpr uint32_t kMaxWireCandidates = 65536;

/// Same bound for transcript entries (5 bytes each). With both
/// variable-length sections capped, the largest possible finished-session
/// reply is ~600 KiB — always under kDefaultMaxBody, so a reply can never
/// poison the client's decoder. (The client saw the conversation live; the
/// embedded transcript is a parity/convenience artifact, and real sessions
/// are orders of magnitude shorter than the cap.)
inline constexpr uint32_t kMaxWireTranscript = 65536;

/// Serialized DiscoveryResult, attached to a finished SessionState. The
/// transcript rides along so a socket-driven client can reconstruct the
/// conversation byte-for-byte (the parity tests compare it against the
/// in-process DiscoverySession).
struct WireResult {
  uint32_t questions = 0;
  uint32_t backtracks = 0;
  bool confirmed = false;
  bool halted = false;
  /// Full remaining-candidate count; `candidates` holds min(total,
  /// kMaxWireCandidates) of them.
  uint32_t total_candidates = 0;
  std::vector<SetId> candidates;
  /// Full question count of the conversation; `transcript` holds the first
  /// min(total, kMaxWireTranscript) entries.
  uint32_t total_transcript = 0;
  std::vector<std::pair<EntityId, uint8_t>> transcript;  // (entity, WireAnswer)
};

/// The per-step reply: mirrors SessionView.
struct SessionStateMsg {
  uint64_t session_id = 0;
  SessionState state = SessionState::kFinished;
  EntityId question = kNoEntity;   ///< valid in kAwaitingAnswer
  SetId verify_set = kNoSet;       ///< valid in kAwaitingVerify
  uint32_t questions_asked = 0;
  WireResult result;               ///< populated iff state == kFinished
  /// Auth token: nonzero only in the reply to a want_token Create, the one
  /// time the client learns it.
  uint64_t token = 0;
};

/// Wire digest of one latency histogram: count, sum, and the standard
/// quantiles, each a u64 of nanoseconds (count is a plain count).
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t p999 = 0;
};

/// Cap on registry-dump entries in a StatsReply; keeps a hostile reply from
/// forcing a huge allocation and the frame under kDefaultMaxBody.
inline constexpr uint32_t kMaxWireRegistryEntries = 4096;

/// Cap on slow-step exemplars in a StatsReply (matches the server-side
/// ExemplarStore capacity; ~100 bytes each keeps the section tiny).
inline constexpr uint32_t kMaxWireExemplars = 64;

/// One slow-step exemplar in a StatsReply: which request (by
/// trace id) was slow, where its time went, and how long it queued. The
/// full span tree stays in the server's journey ring; this is the summary a
/// remote operator can pull without shell access.
struct WireExemplar {
  uint64_t trace_hi = 0;
  uint64_t trace_lo = 0;
  uint64_t session_id = 0;
  uint64_t ts_ns = 0;
  uint32_t step = 0;
  uint8_t kind = 0;        ///< 0 = answer, 1 = verify
  uint8_t serve_path = 0;  ///< obs::ServePath
  uint64_t total_ns = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t phase_ns[obs::kNumPhases] = {};
};

/// The kStats reply: counters, histograms, scalars, registry, exemplars.
struct StatsReplyMsg {
  uint64_t active_sessions = 0;
  uint64_t created_sessions = 0;
  uint64_t connections_open = 0;
  uint64_t connections_total = 0;
  uint64_t frames_received = 0;
  uint64_t frames_sent = 0;

  HistogramSummary step_latency;      ///< setdisc_step_latency_ns, all labels
  HistogramSummary pool_queue_wait;   ///< setdisc_pool_queue_wait_ns
  uint64_t pool_queue_depth = 0;      ///< setdisc_pool_queue_depth gauge
  uint64_t cache_lookups = 0;         ///< selection-cache lookups
  uint64_t cache_hits = 0;            ///< selection-cache hits
  uint64_t delta_full = 0;            ///< serve-path mix: full recounts
  uint64_t delta_delta = 0;           ///< serve-path mix: delta derivations
  uint64_t delta_reemit = 0;          ///< serve-path mix: re-emits
  uint64_t klp_candidates = 0;        ///< k-LP candidates considered
  uint64_t klp_evaluated = 0;         ///< k-LP candidates fully evaluated
  uint64_t klp_pruned = 0;            ///< k-LP candidates pruned (all reasons)
  /// Name -> value dump of every counter/gauge in the server's registry
  /// (first kMaxWireRegistryEntries, sorted by name). Labeled families
  /// appear as name{label="v",...}.
  std::vector<std::pair<std::string, uint64_t>> registry;

  /// Slow-step exemplars, oldest first (most recent kMaxWireExemplars).
  std::vector<WireExemplar> exemplars;
};

// Encoders return a complete frame (header + body).
std::string Encode(const CreateSessionMsg& msg);
std::string Encode(const AnswerMsg& msg);
std::string Encode(const VerifyMsg& msg);
std::string Encode(MsgType type, const SessionRefMsg& msg);
std::string EncodeStatsRequest();
std::string Encode(const ErrorMsg& msg);
std::string Encode(const SessionStateMsg& msg);
std::string Encode(const StatsReplyMsg& msg);

// Decoders parse a frame body; false = malformed (wrong size, bad enum
// value, a bool byte above 1, trailing bytes). Whatever a decoder accepts
// re-encodes to the same bytes.
bool Decode(std::string_view body, CreateSessionMsg* out);
bool Decode(std::string_view body, AnswerMsg* out);
bool Decode(std::string_view body, VerifyMsg* out);
bool Decode(std::string_view body, SessionRefMsg* out);
bool Decode(std::string_view body, ErrorMsg* out);
bool Decode(std::string_view body, SessionStateMsg* out);
bool Decode(std::string_view body, StatsReplyMsg* out);

/// SessionView -> wire reply (server side).
SessionStateMsg ToWire(const SessionView& view);

/// Wire reply -> DiscoveryResult (client side; valid when state==kFinished).
DiscoveryResult ToDiscoveryResult(const WireResult& wire);

}  // namespace setdisc::net
