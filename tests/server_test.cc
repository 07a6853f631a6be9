// End-to-end tests for the network subsystem: a real DiscoveryServer on a
// loopback socket, driven by DiscoveryClient (and by raw sockets for the
// malformed-stream cases). Covers full discovery conversations, transcript
// parity against the in-process DiscoverySession, session-level and
// protocol-level error paths, pipelined requests, idle timeouts, graceful
// shutdown, concurrent clients, and the poll(2) fallback backend.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <algorithm>
#include <thread>
#include <vector>

#include "core/selectors.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/event_log.h"
#include "obs/journey.h"
#include "service/discovery_session.h"
#include "service/session_manager.h"
#include "test_util.h"

namespace setdisc::net {
namespace {

using namespace setdisc::testing;

SessionManagerOptions ManagerOptions(bool verify = false) {
  SessionManagerOptions options;
  options.selector_factory = [] { return std::make_unique<MostEvenSelector>(); };
  options.num_threads = 4;
  options.discovery.verify_and_backtrack = verify;
  return options;
}

/// A server over `manager` on an ephemeral loopback port, started or the
/// test dies.
std::unique_ptr<DiscoveryServer> StartServer(SessionManager& manager,
                                             ServerOptions options = {}) {
  auto server = std::make_unique<DiscoveryServer>(manager, options);
  Status status = server->Start();
  EXPECT_TRUE(status.ok()) << status.message();
  EXPECT_NE(server->port(), 0);
  return server;
}

/// Drives one remote conversation to completion, answering from `oracle`.
/// Returns the transport status; *out gets the final state. (Thin wrapper
/// over the library's DriveSession so the tests exercise the shared loop.)
Status DriveRemote(DiscoveryClient& client, std::span<const EntityId> initial,
                   Oracle& oracle, SessionStateMsg* out) {
  return DriveSession(client, initial, oracle, out);
}

/// The in-process reference: the same conversation through DiscoverySession
/// directly (the engine the server multiplexes).
DiscoveryResult DriveInProcess(const SetCollection& c, const InvertedIndex& idx,
                               std::span<const EntityId> initial, Oracle& oracle,
                               const DiscoveryOptions& options) {
  MostEvenSelector selector;
  DiscoverySession session(c, idx, initial, selector, options);
  int guard = 0;
  while (!session.done() && guard++ < 100000) {
    if (session.state() == SessionState::kAwaitingAnswer) {
      session.SubmitAnswer(oracle.AskMembership(session.NextQuestion()));
    } else {
      session.Verify(oracle.ConfirmTarget(session.PendingVerify()));
    }
  }
  return session.TakeResult();
}

void ExpectSameResult(const DiscoveryResult& a, const DiscoveryResult& b) {
  EXPECT_EQ(a.candidates, b.candidates);
  EXPECT_EQ(a.questions, b.questions);
  EXPECT_EQ(a.backtracks, b.backtracks);
  EXPECT_EQ(a.confirmed, b.confirmed);
  EXPECT_EQ(a.halted, b.halted);
  ASSERT_EQ(a.transcript.size(), b.transcript.size());
  for (size_t i = 0; i < a.transcript.size(); ++i) {
    EXPECT_EQ(a.transcript[i].first, b.transcript[i].first) << "question " << i;
    EXPECT_EQ(a.transcript[i].second, b.transcript[i].second) << "answer " << i;
  }
}

// ---------------------------------------------------------------------------
// Full conversations
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, FullSessionOverTcpDiscoversEveryTarget) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
    ASSERT_EQ(state.state, SessionState::kFinished);
    DiscoveryResult result = ToDiscoveryResult(state.result);
    ASSERT_TRUE(result.found());
    EXPECT_EQ(result.discovered(), target);
    EXPECT_TRUE(client.CloseSession(state.session_id).ok());
  }
  EXPECT_EQ(manager.num_active(), 0u);
}

// The acceptance bar: the transcript of a socket-driven session is
// byte-identical to the in-process engine, across all targets and the §6
// configurations (don't-know exclusion, verification with backtracking).
TEST(DiscoveryServer, SocketTranscriptsMatchInProcessSessionsExactly) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  struct Config {
    bool verify;
    double error_rate;
    double dont_know_rate;
    uint64_t seed;
  };
  for (const Config& config :
       {Config{false, 0.0, 0.0, 31}, Config{false, 0.0, 0.3, 32},
        Config{true, 0.2, 0.0, 33}, Config{true, 0.15, 0.15, 34}}) {
    SessionManagerOptions options = ManagerOptions(config.verify);
    SessionManager manager(c, idx, options);
    auto server = StartServer(manager);
    DiscoveryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

    for (SetId target = 0; target < c.num_sets(); ++target) {
      SimulatedOracle remote_oracle(&c, target, config.error_rate,
                                    config.dont_know_rate, config.seed);
      SessionStateMsg state;
      ASSERT_TRUE(DriveRemote(client, {}, remote_oracle, &state).ok());
      ASSERT_EQ(state.state, SessionState::kFinished);
      DiscoveryResult remote = ToDiscoveryResult(state.result);
      client.CloseSession(state.session_id);

      SimulatedOracle local_oracle(&c, target, config.error_rate,
                                   config.dont_know_rate, config.seed);
      DiscoveryResult local =
          DriveInProcess(c, idx, {}, local_oracle, options.discovery);
      ExpectSameResult(local, remote);
    }
  }
}

TEST(DiscoveryServer, InitialExamplesTravelTheWire) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);
  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  // {d, e} uniquely identifies S2: finished at birth, result in the reply.
  std::vector<EntityId> initial = {kD, kE};
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession(initial, &state).ok());
  EXPECT_EQ(state.state, SessionState::kFinished);
  DiscoveryResult result = ToDiscoveryResult(state.result);
  ASSERT_TRUE(result.found());
  EXPECT_EQ(c.label(result.discovered()), "S2");
  EXPECT_EQ(result.questions, 0);
  // Finished-at-birth sessions are never registered server-side.
  EXPECT_FALSE(client.CloseSession(state.session_id).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);
}

TEST(DiscoveryServer, SessionsAreAddressableAcrossConnections) {
  // The session id in each frame is the address: a conversation opened on
  // one connection can continue on another (reconnect, load-balanced
  // clients...).
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient first;
  // Tokenless session: this test is about raw addressability by id across
  // connections. Token-protected handoff (present the token or get
  // kNotFound) is covered by the crash-recovery and session-store tests.
  first.set_want_token(false);
  ASSERT_TRUE(first.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(first.CreateSession({}, &state).ok());
  ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);
  first.Disconnect();

  DiscoveryClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server->port()).ok());
  SimulatedOracle oracle(&c, /*target=*/3);
  int guard = 0;
  Status s = Status::OK();
  while (s.ok() && state.state == SessionState::kAwaitingAnswer &&
         guard++ < 1000) {
    s = second.Answer(state.session_id, oracle.AskMembership(state.question),
                      &state);
  }
  ASSERT_TRUE(s.ok());
  ASSERT_EQ(state.state, SessionState::kFinished);
  EXPECT_EQ(ToDiscoveryResult(state.result).discovered(), 3u);
}

// ---------------------------------------------------------------------------
// Session-level errors (connection survives)
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, SessionErrorsAreReportedAndConnectionSurvives) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions(/*verify=*/true));
  auto server = StartServer(manager);
  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());

  SessionStateMsg state;
  // Unknown session.
  EXPECT_FALSE(client.Answer(999999, Oracle::Answer::kYes, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);
  EXPECT_FALSE(client.GetSession(999999, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);

  // Wrong state: Verify while a question is pending.
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);
  EXPECT_FALSE(client.Verify(state.session_id, true, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kWrongState);

  // The connection is still healthy: the session steps normally.
  SessionStateMsg probe;
  ASSERT_TRUE(client.GetSession(state.session_id, &probe).ok());
  EXPECT_EQ(probe.state, SessionState::kAwaitingAnswer);
  EXPECT_EQ(probe.question, state.question);

  // Close, then the id is gone.
  ASSERT_TRUE(client.CloseSession(state.session_id).ok());
  EXPECT_FALSE(client.Answer(state.session_id, Oracle::Answer::kYes, &state).ok());
  EXPECT_EQ(client.last_status(), WireStatus::kNotFound);
}

// ---------------------------------------------------------------------------
// Protocol-level errors (connection is poisoned and closed)
// ---------------------------------------------------------------------------

/// Raw-socket helper: reads frames with a poll() deadline so a misbehaving
/// server fails the test instead of hanging it.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    Result<UniqueFd> fd = TcpConnect("127.0.0.1", port);
    EXPECT_TRUE(fd.ok());
    if (fd.ok()) fd_ = std::move(fd.value());
  }

  void Send(std::string_view bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      ssize_t n = SendSome(fd_.get(), bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// kFrame, kNeedMore (deadline hit), or kError; EOF sets eof().
  FrameDecoder::Next ReadFrame(Frame* out, int deadline_ms = 2000) {
    for (int waited = 0; waited <= deadline_ms;) {
      WireStatus error;
      FrameDecoder::Next next = decoder_.Pop(out, &error);
      if (next != FrameDecoder::Next::kNeedMore) return next;
      pollfd pfd{fd_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 50) <= 0) {
        waited += 50;
        continue;
      }
      char buf[4096];
      ssize_t got = RecvSome(fd_.get(), buf, sizeof(buf));
      if (got == kRecvEof || got < 0) {
        eof_ = true;
        return FrameDecoder::Next::kNeedMore;
      }
      decoder_.Feed(buf, static_cast<size_t>(got));
    }
    return FrameDecoder::Next::kNeedMore;
  }

  /// True once the server has closed the connection (after draining input).
  bool WaitForEof(int deadline_ms = 2000) {
    Frame scratch;
    ReadFrame(&scratch, deadline_ms);
    return eof_;
  }

  /// Closes our write side (send-then-shutdown idiom); reads keep working.
  void HalfClose() { ::shutdown(fd_.get(), SHUT_WR); }

  bool eof() const { return eof_; }

 private:
  UniqueFd fd_;
  FrameDecoder decoder_;
  bool eof_ = false;
};

TEST(DiscoveryServer, GarbageBytesGetAnErrorFrameThenClose) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  // A version-1 CreateSession (empty initial set) is as foreign as HTTP: the
  // header's version byte alone refuses it, whatever its body says.
  std::string v1_create;
  PayloadWriter w(&v1_create);
  w.PutU32(sizeof(uint32_t));
  w.PutU8(1);
  w.PutU8(static_cast<uint8_t>(MsgType::kCreateSession));
  w.PutU16(0);
  w.PutU32(0);
  const std::string inputs[] = {
      "GET / HTTP/1.1\r\nHost: wrong-protocol\r\n\r\n",  // 'G' = 0x47
      v1_create,
  };
  uint64_t errors = 0;
  for (const std::string& input : inputs) {
    RawConn conn(server->port());
    conn.Send(input);
    Frame frame;
    ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
    ASSERT_EQ(frame.type, MsgType::kError);
    ErrorMsg error;
    ASSERT_TRUE(Decode(frame.body, &error));
    EXPECT_EQ(error.status, WireStatus::kBadVersion);
    EXPECT_TRUE(conn.WaitForEof());
    EXPECT_EQ(server->stats().protocol_errors, ++errors);
  }
  EXPECT_EQ(manager.num_created(), 0u);
}

TEST(DiscoveryServer, OversizedFrameIsRefusedBeforeItsBodyArrives) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.max_frame_body = 1024;
  auto server = StartServer(manager, options);

  RawConn conn(server->port());
  std::string header;
  PayloadWriter w(&header);
  w.PutU32(1 << 30);  // a gigabyte body, never sent
  w.PutU8(kProtocolVersion);
  w.PutU8(static_cast<uint8_t>(MsgType::kCreateSession));
  w.PutU16(0);
  conn.Send(header);
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  ASSERT_EQ(frame.type, MsgType::kError);
  ErrorMsg error;
  ASSERT_TRUE(Decode(frame.body, &error));
  EXPECT_EQ(error.status, WireStatus::kOversized);
  EXPECT_TRUE(conn.WaitForEof());
}

TEST(DiscoveryServer, MalformedPayloadAndUnknownTypeCloseTheConnection) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  {
    // Well-framed kAnswer with an out-of-range answer value.
    RawConn conn(server->port());
    std::string body(9, '\0');
    body[8] = 7;  // not a WireAnswer
    conn.Send(EncodeFrame(MsgType::kAnswer, body));
    Frame frame;
    ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
    ASSERT_EQ(frame.type, MsgType::kError);
    ErrorMsg error;
    ASSERT_TRUE(Decode(frame.body, &error));
    EXPECT_EQ(error.status, WireStatus::kMalformed);
    EXPECT_TRUE(conn.WaitForEof());
  }
  // Unknown message types, including 0x07: the retired GetTrace request
  // (body: u64 session) is now as unknown as any other.
  for (uint8_t type : {uint8_t{0x55}, uint8_t{0x07}}) {
    RawConn conn(server->port());
    conn.Send(EncodeFrame(static_cast<MsgType>(type),
                          type == 0x07 ? std::string(8, '\x01') : ""));
    Frame frame;
    ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
    ASSERT_EQ(frame.type, MsgType::kError);
    ErrorMsg error;
    ASSERT_TRUE(Decode(frame.body, &error));
    EXPECT_EQ(error.status, WireStatus::kBadType) << "type " << int{type};
    EXPECT_TRUE(conn.WaitForEof());
  }
}

TEST(DiscoveryServer, HalfClosingClientStillGetsItsReplies) {
  // Send-then-shutdown(SHUT_WR): the EOF often arrives in the same read
  // batch as the final request. The server must answer what arrived before
  // the EOF, flush, and only then close.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  conn.Send(Encode(CreateSessionMsg{}) + EncodeStatsRequest());
  conn.HalfClose();
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatsReply);
  EXPECT_TRUE(conn.WaitForEof());
  EXPECT_EQ(server->stats().protocol_errors, 0u);
}

TEST(DiscoveryServer, RequestsQueuedBehindAMalformedPayloadAreDropped) {
  // [malformed Answer, Stats] pipelined in one write: the Stats arrived
  // AFTER the poisoned request, so it must NOT be answered — the client
  // would misattribute its reply to the malformed request. Expect exactly
  // one Error frame, then close.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  std::string bad_answer(9, '\0');
  bad_answer[8] = 7;  // not a WireAnswer
  conn.Send(EncodeFrame(MsgType::kAnswer, bad_answer) + EncodeStatsRequest());
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kError);
  ErrorMsg error;
  ASSERT_TRUE(Decode(frame.body, &error));
  EXPECT_EQ(error.status, WireStatus::kMalformed);
  // Nothing else: the Stats frame was dropped, the connection closes.
  Frame extra;
  EXPECT_NE(conn.ReadFrame(&extra, /*deadline_ms=*/500),
            FrameDecoder::Next::kFrame);
  EXPECT_TRUE(conn.eof());
}

TEST(DiscoveryServer, PoisonAfterValidRequestKeepsReplyOrder) {
  // A valid (offloaded) request followed by garbage on the same connection:
  // the request's reply must still come FIRST, then the Error frame, then
  // close — the n-th reply answers the n-th request even on a dying stream.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  conn.Send(Encode(CreateSessionMsg{}) + "\xde\xad\xbe\xef garbage");
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  SessionStateMsg state;
  ASSERT_TRUE(Decode(frame.body, &state));
  EXPECT_EQ(state.state, SessionState::kAwaitingAnswer);
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kError);
  EXPECT_TRUE(conn.WaitForEof());
}

TEST(DiscoveryServer, ShutdownWithQueuedPipelinedRequestsIsFast) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.drain_timeout = std::chrono::seconds(10);
  auto server = StartServer(manager, options);

  // Pipeline a pile of requests and never read: some are queued (or still
  // in the socket) when the drain starts. Shutdown must refuse/flush and
  // return in far less than the drain deadline, not stall on them.
  RawConn conn(server->port());
  std::string blast;
  for (int i = 0; i < 50; ++i) blast += Encode(CreateSessionMsg{});
  conn.Send(blast);
  auto start = std::chrono::steady_clock::now();
  server->Shutdown();
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "drain stalled on backlog";
}

TEST(DiscoveryServer, PipelinedRequestsAreAnsweredInOrder) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  RawConn conn(server->port());
  // One write, three requests: Create with a token (pool-offloaded), Stats
  // (inline), tokenless Create. Replies must come back in exactly this order.
  CreateSessionMsg create;
  create.want_token = true;
  conn.Send(Encode(create) + EncodeStatsRequest() +
            Encode(CreateSessionMsg{}));
  Frame frame;
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  SessionStateMsg first;
  ASSERT_TRUE(Decode(frame.body, &first));
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kStatsReply);
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  EXPECT_EQ(frame.type, MsgType::kSessionState);
  SessionStateMsg second;
  ASSERT_TRUE(Decode(frame.body, &second));
  EXPECT_LT(first.session_id, second.session_id);

  // The token is on the wire exactly once: in the reply to the want_token
  // Create. Answer, Get and Resume replies, the Closed ack, and every reply
  // on the tokenless session carry 0.
  ASSERT_NE(first.token, 0u);
  EXPECT_EQ(second.token, 0u);
  ASSERT_EQ(first.state, SessionState::kAwaitingAnswer);
  ASSERT_EQ(second.state, SessionState::kAwaitingAnswer);
  const uint64_t token = first.token;
  const SessionRefMsg ref{first.session_id, token};
  conn.Send(Encode(AnswerMsg{first.session_id, Oracle::Answer::kYes, token}) +
            Encode(MsgType::kGetSession, ref) +
            Encode(MsgType::kResumeSession, ref) +
            Encode(AnswerMsg{second.session_id, Oracle::Answer::kNo}) +
            Encode(MsgType::kGetSession, SessionRefMsg{second.session_id}));
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame) << i;
    ASSERT_EQ(frame.type, MsgType::kSessionState) << i;
    SessionStateMsg reply;
    ASSERT_TRUE(Decode(frame.body, &reply)) << i;
    EXPECT_EQ(reply.session_id, i < 3 ? first.session_id : second.session_id);
    EXPECT_EQ(reply.token, 0u) << "reply " << i;
  }
  conn.Send(Encode(MsgType::kCloseSession, ref));
  ASSERT_EQ(conn.ReadFrame(&frame), FrameDecoder::Next::kFrame);
  ASSERT_EQ(frame.type, MsgType::kClosed);
  SessionRefMsg closed;
  ASSERT_TRUE(Decode(frame.body, &closed));
  EXPECT_EQ(closed.session_id, first.session_id);
  EXPECT_EQ(closed.token, 0u);
}

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, IdleConnectionsAreSweptAfterTheTimeout) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.idle_timeout = std::chrono::milliseconds(100);
  auto server = StartServer(manager, options);

  DiscoveryClient client;
  // Observe the raw sweep: with the retry envelope on, the client would
  // transparently reconnect and the post-sweep RPC would succeed.
  client.set_no_retry();
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());  // activity
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  // The sweep has closed us; the next RPC dies on transport.
  Status s = client.CreateSession({}, &state);
  EXPECT_FALSE(s.ok());
  EXPECT_GE(server->stats().idle_closed, 1u);
  EXPECT_EQ(server->stats().connections_open, 0u);

  // A fresh connection is welcome — the server itself is healthy.
  DiscoveryClient again;
  ASSERT_TRUE(again.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(again.CreateSession({}, &state).ok());
}

TEST(DiscoveryServer, GracefulShutdownFlushesAndCloses) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  // Tokenless + no retry: the point below is that the bare manager keeps the
  // session after the frontend dies, checked via an id-only in-process Get;
  // a token-protected session would (correctly) refuse that Get, and the
  // retry envelope would spin reconnecting to a server that is gone.
  client.set_want_token(false);
  client.set_no_retry();
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  ASSERT_EQ(state.state, SessionState::kAwaitingAnswer);

  server->Shutdown();
  EXPECT_FALSE(server->running());
  // The conversation is cut...
  EXPECT_FALSE(client.Answer(state.session_id, Oracle::Answer::kYes, &state).ok());
  // ...but the engine (and the session) survive the frontend: the manager
  // can keep serving in-process or behind a new server.
  EXPECT_EQ(manager.num_active(), 1u);
  SessionView view;
  EXPECT_EQ(manager.Get(state.session_id, &view), SessionStatus::kOk);
}

TEST(DiscoveryServer, ShutdownWithNoClientsIsImmediateAndIdempotent) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);
  server->Shutdown();
  server->Shutdown();  // idempotent
  EXPECT_FALSE(server->running());
  // Destruction after shutdown is clean too (covered by the dtor).
}

TEST(DiscoveryServer, StartAndStopAreRecordedAsEvents) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  const uint64_t first = obs::Events().total();
  auto server = StartServer(manager);
  std::vector<obs::Span> started =
      EventsSince(first, obs::FlightEventKind::kServerStart);
  ASSERT_EQ(started.size(), 1u);
  EXPECT_EQ(SpanAnnotationU64(started[0], "a"), server->port());
  EXPECT_EQ(started[0].duration_ns, 0u);
  server->Shutdown();
  std::vector<obs::Span> stopped =
      EventsSince(first, obs::FlightEventKind::kServerStop);
  ASSERT_EQ(stopped.size(), 1u);
  EXPECT_EQ(SpanAnnotationU64(stopped[0], "a"), server->port());
}

TEST(DiscoveryServer, RestartAfterShutdownServesAgain) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  DiscoveryServer server(manager, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  uint16_t first_port = server.port();
  {
    DiscoveryClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", first_port).ok());
    SessionStateMsg state;
    ASSERT_TRUE(client.CreateSession({}, &state).ok());
  }
  server.Shutdown();

  // The same object must come back up cleanly (fresh listener, no stale
  // drain state) and serve full sessions again.
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  SimulatedOracle oracle(&c, /*target=*/2);
  SessionStateMsg state;
  ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
  ASSERT_EQ(state.state, SessionState::kFinished);
  EXPECT_EQ(ToDiscoveryResult(state.result).discovered(), 2u);
  server.Shutdown();
}

TEST(DiscoveryServer, PipelinedFloodIsBackpressuredNotUnbounded) {
  // Blast far more pipelined requests than the per-connection backlog bound
  // without reading a single reply. The server must pause reading (TCP
  // backpressure) instead of queuing without limit, then answer everything
  // in order as the client drains.
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  constexpr int kRequests = 500;  // well past the 128-frame pending bound
  std::string blast;
  for (int i = 0; i < kRequests; ++i) blast += EncodeStatsRequest();

  RawConn conn(server->port());
  // The raw send may itself block once server-side reading pauses and the
  // socket buffers fill; send from a helper thread while this thread reads
  // replies (which is what unblocks everything).
  std::thread sender([&] { conn.Send(blast); });
  int got = 0;
  for (; got < kRequests; ++got) {
    Frame frame;
    if (conn.ReadFrame(&frame, /*deadline_ms=*/10000) !=
        FrameDecoder::Next::kFrame) {
      break;
    }
    ASSERT_EQ(frame.type, MsgType::kStatsReply) << "reply " << got;
  }
  sender.join();
  EXPECT_EQ(got, kRequests);
  EXPECT_EQ(server->stats().protocol_errors, 0u);
}

TEST(DiscoveryServer, ManyConcurrentClientsAllConverge) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  constexpr int kClients = 8;
  constexpr int kSessionsEach = 8;
  std::vector<int> failures(kClients, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; ++t) {
      threads.emplace_back([&, t] {
        DiscoveryClient client;
        if (!client.Connect("127.0.0.1", server->port()).ok()) {
          failures[t] = kSessionsEach;
          return;
        }
        for (int i = 0; i < kSessionsEach; ++i) {
          SetId target = static_cast<SetId>((t * kSessionsEach + i) %
                                            c.num_sets());
          SimulatedOracle oracle(&c, target);
          SessionStateMsg state;
          Status s = DriveRemote(client, {}, oracle, &state);
          bool ok = s.ok() && state.state == SessionState::kFinished &&
                    ToDiscoveryResult(state.result).discovered() == target;
          if (!ok) ++failures[t];
          client.CloseSession(state.session_id);
        }
      });
    }
    for (auto& thread : threads) thread.join();
  }
  for (int t = 0; t < kClients; ++t) {
    EXPECT_EQ(failures[t], 0) << "client " << t;
  }
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.connections_total, static_cast<uint64_t>(kClients));
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(manager.num_created(),
            static_cast<uint64_t>(kClients * kSessionsEach));
}

TEST(DiscoveryServer, PollFallbackBackendServesIdentically) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.use_epoll = false;  // force the poll(2) backend
  auto server = StartServer(manager, options);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  for (SetId target = 0; target < c.num_sets(); ++target) {
    SimulatedOracle remote_oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(DriveRemote(client, {}, remote_oracle, &state).ok());
    DiscoveryResult remote = ToDiscoveryResult(state.result);
    client.CloseSession(state.session_id);

    SimulatedOracle local_oracle(&c, target);
    DiscoveryResult local = DriveInProcess(c, idx, {}, local_oracle, {});
    ExpectSameResult(local, remote);
  }
}

TEST(DiscoveryServer, StatsReplyTracksTraffic) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  StatsReplyMsg stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  EXPECT_EQ(stats.active_sessions, 1u);
  EXPECT_EQ(stats.created_sessions, 1u);
  EXPECT_EQ(stats.connections_open, 1u);
  EXPECT_EQ(stats.connections_total, 1u);
  EXPECT_GE(stats.frames_received, 2u);  // the create + this stats request
  EXPECT_GE(stats.frames_sent, 1u);      // the create reply
}

// ---------------------------------------------------------------------------
// Stats over the wire
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, OneStatsRoundTripCarriesTheWholeServingPicture) {
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SelectionCacheOptions cache_options;
  cache_options.capacity = 1024;
  SelectionCache cache(cache_options);
  SessionManagerOptions options = ManagerOptions();
  options.selection_cache = &cache;
  options.metrics = &obs::MetricsRegistry::Default();
  SessionManager manager(c, idx, options);
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // Repeat targets so the shared selection cache serves hits too.
  for (SetId target : {SetId{0}, SetId{1}, SetId{2}, SetId{0}, SetId{1}}) {
    SimulatedOracle oracle(&c, target);
    SessionStateMsg state;
    ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
    ASSERT_EQ(state.state, SessionState::kFinished);
    ASSERT_TRUE(client.CloseSession(state.session_id).ok());
  }

  // The acceptance shape: one kStats reply carries step-latency quantiles,
  // the cache hit rate, the delta serve-path mix, and the pool queue depth.
  StatsReplyMsg stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  EXPECT_GT(stats.step_latency.count, 0u);
  EXPECT_GT(stats.step_latency.p50, 0u);
  EXPECT_GE(stats.step_latency.p99, stats.step_latency.p50);
  EXPECT_GT(stats.step_latency.sum, 0u);
  EXPECT_GT(stats.cache_lookups, 0u);
  EXPECT_GT(stats.cache_hits, 0u);  // the repeated targets hit
  EXPECT_LE(stats.cache_hits, stats.cache_lookups);
  EXPECT_GT(stats.delta_full + stats.delta_delta + stats.delta_reemit, 0u);

  // The registry dump rides along, including the manager's adopted gauges.
  ASSERT_FALSE(stats.registry.empty());
  bool saw_sessions_created = false;
  for (const auto& [name, value] : stats.registry) {
    if (name == "setdisc_sessions_created_total") {
      saw_sessions_created = true;
      EXPECT_GE(value, 5u);
    }
  }
  EXPECT_TRUE(saw_sessions_created);
}

// ---------------------------------------------------------------------------
// Request-journey tracing end to end
// ---------------------------------------------------------------------------

TEST(DiscoveryServer, JourneySpansReconstructTheRequestTree) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  auto server = StartServer(manager);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  // The client pins the trace id; the server threads it through the pool
  // job, the session, and every step.
  const obs::TraceId trace = obs::MakeTraceId();
  client.set_trace_id(trace.hi, trace.lo);

  SessionStateMsg state;
  ASSERT_TRUE(client.CreateSession({}, &state).ok());
  EXPECT_EQ(client.sent_trace_hi(), trace.hi);
  EXPECT_EQ(client.sent_trace_lo(), trace.lo);
  SimulatedOracle oracle(&c, /*target=*/2);
  uint32_t steps = 0;
  while (state.state == SessionState::kAwaitingAnswer) {
    ASSERT_TRUE(client
                    .Answer(state.session_id,
                            oracle.AskMembership(state.question), &state)
                    .ok());
    ++steps;
    ASSERT_LT(steps, 100u);
  }
  ASSERT_EQ(state.state, SessionState::kFinished);
  ASSERT_GT(steps, 0u);

  // Reconstruct the span tree for our trace id from the process ring.
  std::vector<obs::Span> ours;
  for (const obs::Span& s : obs::Journey().Snapshot()) {
    if (s.trace_hi == trace.hi && s.trace_lo == trace.lo) ours.push_back(s);
  }
  size_t create_reqs = 0, answer_reqs = 0, queue_waits = 0, step_spans = 0;
  std::vector<uint64_t> request_ids;
  for (const obs::Span& s : ours) {
    const std::string name(s.name);
    if (name == "req:create" || name == "req:answer") {
      EXPECT_EQ(s.parent_id, 0u) << name << " must be a root span";
      request_ids.push_back(s.span_id);
      (name == "req:create" ? create_reqs : answer_reqs)++;
    }
  }
  EXPECT_EQ(create_reqs, 1u);
  EXPECT_EQ(answer_reqs, static_cast<size_t>(steps));
  auto is_request = [&](uint64_t id) {
    return std::find(request_ids.begin(), request_ids.end(), id) !=
           request_ids.end();
  };
  for (const obs::Span& s : ours) {
    const std::string name(s.name);
    if (name == "queue_wait") {
      EXPECT_TRUE(is_request(s.parent_id)) << "queue_wait outside a request";
      ++queue_waits;
    } else if (name == "step:answer") {
      // Every step span hangs off the request that ran it and carries its
      // phase breakdown (step index + serve path annotations at minimum).
      EXPECT_TRUE(is_request(s.parent_id)) << "step outside a request";
      EXPECT_GT(s.duration_ns, 0u);
      ASSERT_GE(s.num_annotations, 2);
      EXPECT_STREQ(s.ann_key[0], "step");
      ++step_spans;
    }
  }
  EXPECT_EQ(queue_waits, request_ids.size());  // one wait child per request
  EXPECT_EQ(step_spans, static_cast<size_t>(steps));

  // The step spans are the session's per-step record: numbered
  // contiguously, with the phase breakdown inside each step's duration.
  const std::vector<RecordedStep> recorded = RecordedSteps(trace);
  ASSERT_EQ(recorded.size(), static_cast<size_t>(steps));
  for (uint32_t i = 0; i < steps; ++i) {
    const obs::Span& span = recorded[i].span;
    EXPECT_EQ(SpanAnnotationU64(span, "step"), i);
    const uint64_t select = SpanAnnotationU64(span, "select_ns");
    const uint64_t emit = PhaseNanos(recorded[i], obs::Phase::kEmit);
    EXPECT_LE(select + emit, span.duration_ns);
  }

  // The same spans render as loadable Chrome trace JSON.
  const std::string json = obs::SpansToChromeJson(ours);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("req:create"), std::string::npos);
  EXPECT_NE(json.find("step:answer"), std::string::npos);
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));

  // A client that pins no id still gets a journey: the server mints one.
  client.set_trace_id(0, 0);
  SessionStateMsg untagged;
  ASSERT_TRUE(client.CreateSession({}, &untagged).ok());
  EXPECT_EQ(client.sent_trace_hi(), 0u);
  bool minted = false;
  for (const obs::Span& s : obs::Journey().Snapshot()) {
    if (std::string(s.name) == "req:create" &&
        !(s.trace_hi == trace.hi && s.trace_lo == trace.lo) &&
        (s.trace_hi | s.trace_lo) != 0) {
      minted = true;
    }
  }
  EXPECT_TRUE(minted);
}

TEST(DiscoveryServer, SlowStepThresholdShipsExemplarsInStats) {
  JourneyOn journey;
  SetCollection c = MakePaperCollection();
  InvertedIndex idx(c);
  SessionManager manager(c, idx, ManagerOptions());
  ServerOptions options;
  options.slow_step_ns = 1;  // every step is "slow": deterministic capture
  auto server = StartServer(manager, options);

  DiscoveryClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  client.set_auto_trace(true);
  SimulatedOracle oracle(&c, /*target=*/1);
  SessionStateMsg state;
  ASSERT_TRUE(DriveRemote(client, {}, oracle, &state).ok());
  ASSERT_EQ(state.state, SessionState::kFinished);
  ASSERT_NE(client.sent_trace_hi() | client.sent_trace_lo(), 0u);

  StatsReplyMsg stats;
  ASSERT_TRUE(client.GetStats(&stats).ok());
  ASSERT_FALSE(stats.exemplars.empty());
  // At least one exemplar belongs to this conversation's auto-minted trace.
  bool found = false;
  for (const WireExemplar& ex : stats.exemplars) {
    if (ex.trace_hi == client.sent_trace_hi() &&
        ex.trace_lo == client.sent_trace_lo()) {
      found = true;
      EXPECT_EQ(ex.session_id, state.session_id);
      EXPECT_GT(ex.total_ns, 0u);
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace setdisc::net
