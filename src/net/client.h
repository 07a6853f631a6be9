#pragma once

/// \file client.h
/// DiscoveryClient: a blocking TCP client for the setdisc wire protocol —
/// the library behind `setdisc_cli --connect` and bench_server, and the
/// reference for anyone writing a client in another language.
///
/// One client drives one connection; requests are synchronous (send one
/// frame, read one reply). The protocol itself allows pipelining, but an
/// interactive conversation is inherently turn-based, so the client keeps
/// the simple shape. A client is not thread-safe; use one per thread.
///
/// Error model: every RPC returns the transport-level Status (socket died,
/// undecodable reply, unexpected frame type). Server-side refusals arrive
/// as Error frames; those also fail the Status, and the machine-readable
/// code is kept in last_status() — so e.g. a WrongState answer is
/// distinguishable from a torn connection without parsing message text.
///
/// Fault tolerance: by default the client retries kBusy refusals with
/// exponential backoff (honoring the server's retry-after hint) and, when a
/// session carries an auth token, transparently reconnects after a transport
/// error and RESUMES the conversation — it asks the server for the session's
/// current state (kResumeSession) and decides from the step counter whether
/// the lost request already applied (the resumed state IS the missing reply)
/// or must be resent. Tokenless steps are never blindly resent: without the
/// resume probe there is no way to know whether the answer landed, and
/// double-applying one would corrupt the conversation. set_no_retry()
/// restores the strict one-shot behavior for tests and latency benches.

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"
#include "util/rng.h"
#include "util/status.h"

namespace setdisc::net {

class DiscoveryClient {
 public:
  DiscoveryClient() = default;
  ~DiscoveryClient() { Disconnect(); }

  DiscoveryClient(const DiscoveryClient&) = delete;
  DiscoveryClient& operator=(const DiscoveryClient&) = delete;

  /// Connects to a numeric address ("127.0.0.1") and port.
  Status Connect(const std::string& address, uint16_t port);

  void Disconnect();
  bool connected() const { return fd_.valid(); }

  /// Opens a session; *out is the first step (a question, a verification,
  /// or — for sessions finished at birth — the final result).
  Status CreateSession(std::span<const EntityId> initial, SessionStateMsg* out);

  /// Answers the pending question of `session_id`.
  Status Answer(uint64_t session_id, Oracle::Answer answer, SessionStateMsg* out);

  /// Resolves the pending verification of `session_id`.
  Status Verify(uint64_t session_id, bool confirmed, SessionStateMsg* out);

  /// Snapshot of a live session.
  Status GetSession(uint64_t session_id, SessionStateMsg* out);

  /// Rebinds a (possibly spilled or restart-survived) session and fetches
  /// its current state. `token` 0 means "use the token remembered from this
  /// session's Create"; pass the real token explicitly to resume a session
  /// another client (or a previous process) created. The retry machinery
  /// calls this internally after every reconnect.
  Status ResumeSession(uint64_t session_id, SessionStateMsg* out,
                       uint64_t token = 0);

  /// Closes a server-side session (the connection stays up).
  Status CloseSession(uint64_t session_id);

  /// Server-side counters, latency summaries, registry dump and slow-step
  /// exemplars.
  Status GetStats(StatsReplyMsg* out);

  /// WireStatus of the last completed RPC: kOk on success, the server's
  /// code when it answered with an Error frame.
  WireStatus last_status() const { return last_status_; }

  /// Server message text accompanying the last Error frame ("" otherwise).
  const std::string& last_error_message() const { return last_error_message_; }

  /// Back-off hint from the last kBusy refusal, in milliseconds (0 when the
  /// last error carried none). Only servers with admission control set it.
  uint32_t last_retry_after_ms() const { return last_retry_after_ms_; }

  /// Propagate this 128-bit trace id with every subsequent CreateSession.
  /// Both halves zero clears it.
  void set_trace_id(uint64_t hi, uint64_t lo) {
    trace_hi_ = hi;
    trace_lo_ = lo;
  }

  /// Mint a fresh random trace id per CreateSession instead of a pinned one
  /// (set_trace_id wins when both are configured and the pinned id is valid).
  void set_auto_trace(bool on) { auto_trace_ = on; }

  /// Ask the server for a session auth token on every CreateSession. The
  /// token is remembered per session and attached to every later request on
  /// it — and it is what makes transparent reconnect-resume possible; a
  /// tokenless session cannot be resumed. On by default.
  void set_want_token(bool on) { want_token_ = on; }

  /// Disable ALL automatic retry: busy refusals, reconnects, and resume
  /// probes surface as errors immediately. For tests that assert one-shot
  /// semantics and benches that must not hide latency in sleeps.
  void set_no_retry() { no_retry_ = true; }

  /// Retry envelope: at most `max_attempts` tries per RPC, exponential
  /// backoff from `base_ms` capped at `max_ms` (the server's retry-after
  /// hint, when present, overrides the computed delay). Jitter of ±half the
  /// delay is always applied so a herd of clients does not resynchronize.
  void set_retry_policy(int max_attempts, uint64_t base_ms, uint64_t max_ms) {
    max_attempts_ = max_attempts < 1 ? 1 : max_attempts;
    backoff_base_ms_ = base_ms;
    backoff_max_ms_ = max_ms;
  }

  /// The token remembered for `session_id` (0 when none — tokenless session
  /// or unknown id). What a caller persists to resume after ITS OWN restart.
  uint64_t session_token(uint64_t session_id) const;

  /// Retry observability for tests: total busy/transport retries, completed
  /// reconnects, and steps whose reply was recovered via a resume probe
  /// instead of a resend.
  uint64_t retries() const { return retries_; }
  uint64_t reconnects() const { return reconnects_; }
  uint64_t resumed_replies() const { return resumed_replies_; }

  /// The trace id actually sent with the most recent CreateSession (both
  /// zero when none was sent) — what a caller correlates against the
  /// server's journey ring / trace export.
  uint64_t sent_trace_hi() const { return sent_trace_hi_; }
  uint64_t sent_trace_lo() const { return sent_trace_lo_; }

 private:
  /// What the client remembers about a session, keyed by id: the auth token
  /// and the last state it saw. The state is the resume-probe baseline — if
  /// a reconnected session still shows the same step counter and question,
  /// the lost request never applied and is safe to resend.
  struct SessionCtx {
    uint64_t token = 0;
    SessionState state = SessionState::kFinished;
    EntityId question = kNoEntity;
    uint32_t questions_asked = 0;
    bool known = false;
  };

  /// Sends `frame` and reads exactly one reply frame, expecting `expected`
  /// (Error frames are decoded into last_status_/last_error_message_).
  Status Call(std::string frame, MsgType expected, Frame* reply);

  /// Call + decode for the session-stepping RPCs, with the retry envelope:
  /// busy-backoff, reconnect, resume-probe, resend-or-adopt. `resend_safe`
  /// marks requests that are idempotent even without a resume probe (Get /
  /// Resume / Create); Answer and Verify are only resent when a probe proved
  /// they did not apply.
  Status SessionCall(uint64_t session_id, bool resend_safe,
                     const std::string& frame, SessionStateMsg* out);

  void NoteState(const SessionStateMsg& state);
  void SleepBackoff(int attempt, uint32_t hint_ms);
  Status Reconnect();

  Status SendAll(const std::string& frame);
  Status ReadFrame(Frame* out);

  UniqueFd fd_;
  FrameDecoder decoder_;
  WireStatus last_status_ = WireStatus::kOk;
  std::string last_error_message_;
  uint32_t last_retry_after_ms_ = 0;
  bool auto_trace_ = false;
  uint64_t trace_hi_ = 0;
  uint64_t trace_lo_ = 0;
  uint64_t sent_trace_hi_ = 0;
  uint64_t sent_trace_lo_ = 0;

  std::string address_;
  uint16_t port_ = 0;
  bool want_token_ = true;
  bool no_retry_ = false;
  int max_attempts_ = 5;
  uint64_t backoff_base_ms_ = 10;
  uint64_t backoff_max_ms_ = 2000;
  Rng jitter_rng_{0x5eed5eedc11e47u};
  std::unordered_map<uint64_t, SessionCtx> sessions_;
  uint64_t retries_ = 0;
  uint64_t reconnects_ = 0;
  uint64_t resumed_replies_ = 0;
};

/// Drives one full remote conversation: opens a session seeded with
/// `initial` and answers every step from `oracle` until it finishes — the
/// client-side mirror of SessionManager::Drive, shared by the CLI, the
/// benches, and the tests so the conversation loop exists once. *out ends
/// in the final state (kFinished on success). When `step_micros` is given,
/// the wall time of every RPC round-trip (Create included) is appended to
/// it — what the latency benches measure.
Status DriveSession(DiscoveryClient& client, std::span<const EntityId> initial,
                    Oracle& oracle, SessionStateMsg* out,
                    std::vector<double>* step_micros = nullptr);

}  // namespace setdisc::net
