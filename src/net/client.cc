#include "net/client.h"

#include <algorithm>
#include <chrono>
#include <random>
#include <thread>
#include <utility>

#include "obs/journey.h"
#include "util/timer.h"

namespace setdisc::net {

Status DiscoveryClient::Connect(const std::string& address, uint16_t port) {
  if (connected()) return Status::Error("already connected");
  Result<UniqueFd> fd = TcpConnect(address, port);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(fd.value());
  decoder_ = FrameDecoder();  // fresh stream
  last_status_ = WireStatus::kOk;
  last_error_message_.clear();
  address_ = address;
  port_ = port;
  // Per-client jitter stream: clients started together must not back off in
  // lockstep, or the retry herd re-arrives as one.
  jitter_rng_ = Rng((uint64_t{std::random_device{}()} << 32) ^
                    std::random_device{}());
  return Status::OK();
}

void DiscoveryClient::Disconnect() { fd_.Reset(); }

Status DiscoveryClient::Reconnect() {
  Disconnect();
  Result<UniqueFd> fd = TcpConnect(address_, port_);
  if (!fd.ok()) return fd.status();
  fd_ = std::move(fd.value());
  decoder_ = FrameDecoder();
  ++reconnects_;
  return Status::OK();
}

void DiscoveryClient::SleepBackoff(int attempt, uint32_t hint_ms) {
  // The server's hint, when present, IS the delay; otherwise exponential
  // from the base. Either way jitter spreads the herd over [delay/2, delay].
  uint64_t delay = hint_ms > 0
                       ? hint_ms
                       : backoff_base_ms_ << std::min(attempt, 16);
  delay = std::min(delay, backoff_max_ms_);
  if (delay == 0) return;
  const uint64_t half = delay / 2;
  delay = half + jitter_rng_() % (delay - half + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(delay));
}

void DiscoveryClient::NoteState(const SessionStateMsg& state) {
  SessionCtx& ctx = sessions_[state.session_id];
  if (state.token != 0) ctx.token = state.token;
  ctx.state = state.state;
  ctx.question = state.question;
  ctx.questions_asked = state.questions_asked;
  ctx.known = true;
}

uint64_t DiscoveryClient::session_token(uint64_t session_id) const {
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? 0 : it->second.token;
}

Status DiscoveryClient::SendAll(const std::string& frame) {
  size_t sent = 0;
  while (sent < frame.size()) {
    ssize_t n = SendSome(fd_.get(), frame.data() + sent, frame.size() - sent);
    if (n < 0) {
      Disconnect();
      return Status::IoError("connection lost while sending");
    }
    // The socket is blocking, so n == 0 (EAGAIN) cannot happen; treat it
    // defensively as progress-less retry.
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status DiscoveryClient::ReadFrame(Frame* out) {
  for (;;) {
    WireStatus error = WireStatus::kOk;
    FrameDecoder::Next next = decoder_.Pop(out, &error);
    if (next == FrameDecoder::Next::kFrame) return Status::OK();
    if (next == FrameDecoder::Next::kError) {
      Disconnect();
      return Status::Corruption(std::string("reply stream: ") +
                                WireStatusName(error));
    }
    char buf[16384];
    ssize_t got = RecvSome(fd_.get(), buf, sizeof(buf));
    if (got == kRecvEof || got < 0) {
      Disconnect();
      return Status::IoError("connection closed by server");
    }
    decoder_.Feed(buf, static_cast<size_t>(got));
  }
}

Status DiscoveryClient::Call(std::string frame, MsgType expected, Frame* reply) {
  if (!connected()) return Status::Error("not connected");
  last_status_ = WireStatus::kOk;
  last_error_message_.clear();
  last_retry_after_ms_ = 0;
  Status status = SendAll(frame);
  if (!status.ok()) return status;
  status = ReadFrame(reply);
  if (!status.ok()) return status;
  if (reply->type == MsgType::kError) {
    ErrorMsg error;
    if (!Decode(reply->body, &error)) {
      Disconnect();
      return Status::Corruption("undecodable error frame");
    }
    last_status_ = error.status;
    last_error_message_ = error.message;
    last_retry_after_ms_ = error.retry_after_ms;
    return Status::Error("server: " + error.message);
  }
  if (reply->type != expected) {
    Disconnect();
    return Status::Corruption("unexpected reply type");
  }
  return Status::OK();
}

namespace {

Status DecodeState(const Frame& reply, SessionStateMsg* out) {
  if (!Decode(reply.body, out)) {
    return Status::Corruption("undecodable session state");
  }
  return Status::OK();
}

}  // namespace

Status DiscoveryClient::SessionCall(uint64_t session_id, bool resend_safe,
                                    const std::string& frame,
                                    SessionStateMsg* out) {
  Status status = Status::Error("not connected");
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    SessionCtx before;
    if (auto it = sessions_.find(session_id); it != sessions_.end()) {
      before = it->second;
    }
    Frame reply;
    status = Call(frame, MsgType::kSessionState, &reply);
    if (status.ok()) {
      status = DecodeState(reply, out);
      if (status.ok()) NoteState(*out);
      return status;
    }
    if (no_retry_ || attempt + 1 >= max_attempts_) return status;
    if (last_status_ != WireStatus::kOk) {
      // A server refusal: the connection is healthy and the answer is
      // definitive for everything except kBusy, which asks us to wait.
      if (last_status_ != WireStatus::kBusy) return status;
      ++retries_;
      SleepBackoff(attempt, last_retry_after_ms_);
      continue;
    }
    // Transport error: the connection is gone and — crucially — we do not
    // know whether the request reached the server before it died.
    if (address_.empty()) return status;
    ++retries_;
    SleepBackoff(attempt, 0);
    Status rc = Reconnect();
    if (!rc.ok()) {
      status = rc;
      continue;  // next attempt backs off longer and re-dials
    }
    if (before.token != 0) {
      // Resume probe: fetch the session's current state and compare against
      // what we saw before sending. An advanced step counter (or changed
      // state/question) means the lost request applied — the probe result IS
      // its reply. An identical state proves it never landed: resend.
      SessionStateMsg resumed;
      Frame probe;
      Status rs = Call(Encode(MsgType::kResumeSession,
                              SessionRefMsg{session_id, before.token}),
                       MsgType::kSessionState, &probe);
      if (rs.ok()) rs = DecodeState(probe, &resumed);
      if (rs.ok()) {
        NoteState(resumed);
        const bool applied =
            !before.known ||
            resumed.questions_asked != before.questions_asked ||
            resumed.state != before.state ||
            (resumed.state == SessionState::kAwaitingAnswer &&
             resumed.question != before.question);
        if (applied && !resend_safe) {
          *out = resumed;
          ++resumed_replies_;
          return Status::OK();
        }
        continue;  // provably not applied (or read-only): resend
      }
      if (last_status_ != WireStatus::kOk) return rs;  // session truly gone
      status = rs;
      continue;  // probe hit another transport error: full cycle again
    }
    // Tokenless session: without a probe there is no way to tell whether a
    // mutating request applied, and resending one could double-apply it.
    if (!resend_safe) return status;
  }
  return status;
}

Status DiscoveryClient::CreateSession(std::span<const EntityId> initial,
                                      SessionStateMsg* out) {
  CreateSessionMsg msg;
  msg.initial.assign(initial.begin(), initial.end());
  // The auth token is what later makes reconnect-resume possible.
  msg.want_token = want_token_;
  msg.trace_hi = trace_hi_;
  msg.trace_lo = trace_lo_;
  if ((msg.trace_hi | msg.trace_lo) == 0 && auto_trace_) {
    const obs::TraceId fresh = obs::MakeTraceId();
    msg.trace_hi = fresh.hi;
    msg.trace_lo = fresh.lo;
  }
  sent_trace_hi_ = msg.trace_hi;
  sent_trace_lo_ = msg.trace_lo;
  // Create rides its own retry loop: there is no session to probe yet, and
  // a resend after a lost reply simply starts a fresh conversation (the
  // orphan, if any, is reaped server-side).
  const std::string frame = Encode(msg);
  Status status = Status::Error("not connected");
  for (int attempt = 0; attempt < max_attempts_; ++attempt) {
    Frame reply;
    status = Call(frame, MsgType::kSessionState, &reply);
    if (status.ok()) {
      status = DecodeState(reply, out);
      if (status.ok()) NoteState(*out);
      return status;
    }
    if (no_retry_ || attempt + 1 >= max_attempts_) return status;
    if (last_status_ != WireStatus::kOk) {
      if (last_status_ != WireStatus::kBusy) return status;
      ++retries_;
      SleepBackoff(attempt, last_retry_after_ms_);
      continue;
    }
    if (address_.empty()) return status;
    ++retries_;
    SleepBackoff(attempt, 0);
    Status rc = Reconnect();
    if (!rc.ok()) status = rc;
  }
  return status;
}

Status DiscoveryClient::Answer(uint64_t session_id, Oracle::Answer answer,
                               SessionStateMsg* out) {
  AnswerMsg msg;
  msg.session_id = session_id;
  msg.answer = answer;
  msg.token = session_token(session_id);
  return SessionCall(session_id, /*resend_safe=*/false, Encode(msg), out);
}

Status DiscoveryClient::Verify(uint64_t session_id, bool confirmed,
                               SessionStateMsg* out) {
  VerifyMsg msg;
  msg.session_id = session_id;
  msg.confirmed = confirmed;
  msg.token = session_token(session_id);
  return SessionCall(session_id, /*resend_safe=*/false, Encode(msg), out);
}

Status DiscoveryClient::GetSession(uint64_t session_id, SessionStateMsg* out) {
  return SessionCall(
      session_id, /*resend_safe=*/true,
      Encode(MsgType::kGetSession,
             SessionRefMsg{session_id, session_token(session_id)}),
      out);
}

Status DiscoveryClient::ResumeSession(uint64_t session_id, SessionStateMsg* out,
                                      uint64_t token) {
  if (token == 0) token = session_token(session_id);
  // Remember an explicitly supplied token (e.g. one persisted across a
  // client restart) so every follow-up request attaches it.
  if (token != 0) sessions_[session_id].token = token;
  return SessionCall(
      session_id, /*resend_safe=*/true,
      Encode(MsgType::kResumeSession, SessionRefMsg{session_id, token}), out);
}

Status DiscoveryClient::CloseSession(uint64_t session_id) {
  const SessionRefMsg msg{session_id, session_token(session_id)};
  Frame reply;
  Status status =
      Call(Encode(MsgType::kCloseSession, msg), MsgType::kClosed, &reply);
  if (!status.ok()) return status;
  SessionRefMsg closed;
  if (!Decode(reply.body, &closed) || closed.session_id != session_id) {
    return Status::Corruption("close acknowledged the wrong session");
  }
  sessions_.erase(session_id);
  return Status::OK();
}

Status DiscoveryClient::GetStats(StatsReplyMsg* out) {
  Frame reply;
  Status status = Call(EncodeStatsRequest(), MsgType::kStatsReply, &reply);
  if (!status.ok()) return status;
  if (!Decode(reply.body, out)) {
    return Status::Corruption("undecodable stats reply");
  }
  return Status::OK();
}

Status DriveSession(DiscoveryClient& client, std::span<const EntityId> initial,
                    Oracle& oracle, SessionStateMsg* out,
                    std::vector<double>* step_micros) {
  WallTimer timer;
  Status status = client.CreateSession(initial, out);
  if (step_micros != nullptr) step_micros->push_back(timer.Micros());
  // Bounded by the entity count per narrowing pass and the flip budget per
  // backtrack (same contract as SessionManager::Drive); the guard only
  // catches protocol bugs.
  int guard = 0;
  while (status.ok() && out->state != SessionState::kFinished &&
         guard++ < 1000000) {
    timer.Reset();
    if (out->state == SessionState::kAwaitingAnswer) {
      status = client.Answer(out->session_id,
                             oracle.AskMembership(out->question), out);
    } else {
      status = client.Verify(out->session_id,
                             oracle.ConfirmTarget(out->verify_set), out);
    }
    if (step_micros != nullptr) step_micros->push_back(timer.Micros());
  }
  return status;
}

}  // namespace setdisc::net
