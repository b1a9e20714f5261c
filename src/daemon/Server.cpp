//===- Server.cpp - gemmd: the multi-client GEMM-as-a-service daemon ------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "daemon/Server.h"

#include "exo/jit/Jit.h"
#include "exo/support/Env.h"
#include "ipc/Ring.h"
#include "ipc/Shm.h"
#include "ipc/Socket.h"
#include "ipc/Spin.h"
#include "obs/Obs.h"
#include "ukr/KernelRegistry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace exo;

namespace gemmd {

namespace {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One admitted client session. The poller owns Fd (and is the only
/// closer); executors reach the response ring and doorbell only through
/// WriteMu, where Dead is checked — so a reaped session can never see a
/// write to a recycled fd.
struct Session {
  uint32_t Id = 0;
  int Fd = -1;
  ipc::ShmRegion Shm;
  ipc::SessionLayout Layout;
  ipc::RingView Req, Resp;

  std::mutex WriteMu;
  std::atomic<bool> Dead{false};

  std::atomic<uint64_t> Requests{0}, Ok{0}, Errors{0}, Busy{0};
  std::atomic<int64_t> LastM{0}, LastN{0}, LastK{0};

  ClientStat snapshot(bool Active) const {
    ClientStat C;
    C.Id = Id;
    C.Active = Active;
    C.Requests = Requests.load(std::memory_order_relaxed);
    C.Ok = Ok.load(std::memory_order_relaxed);
    C.Errors = Errors.load(std::memory_order_relaxed);
    C.Busy = Busy.load(std::memory_order_relaxed);
    C.LastM = LastM.load(std::memory_order_relaxed);
    C.LastN = LastN.load(std::memory_order_relaxed);
    C.LastK = LastK.load(std::memory_order_relaxed);
    return C;
  }
};

/// One admitted GEMM, normalized: a GemmRequest is a batch of one with
/// zero strides. Kind is the packet type it arrived as, which picks the
/// reply type and the Engine entry.
struct Work {
  std::shared_ptr<Session> S;
  ipc::PacketType Kind = ipc::PacketType::GemmRequest;
  uint32_t Seq = 0;
  uint8_t TA = 0, TB = 0, DTy = 0;
  float Alpha = 1.0f, Beta = 0.0f;
  int64_t M = 0, N = 0, K = 0;
  uint64_t OffA = 0, OffB = 0, OffC = 0;
  int64_t Lda = 0, Ldb = 0, Ldc = 0;
  int64_t StrideA = 0, StrideB = 0, StrideC = 0;
  int64_t Count = 1;

  /// The governor gives this request a multi-thread team
  /// (Engine::teamWidthFor): nobody spins while it is in flight.
  bool Team = false;

  bool batched() const { return Kind == ipc::PacketType::GemmBatchRequest; }
  ipc::PacketType replyType() const {
    return batched() ? ipc::PacketType::GemmBatchReply
                     : ipc::PacketType::GemmReply;
  }
};

/// Normalizes the GemmRequest or GemmBatchRequest in \p Slot into \p W;
/// false when the header's Bytes does not cover the packet.
bool readGemm(const void *Slot, const ipc::PacketHeader &PH, Work &W) {
  auto Common = [&](const auto &Q) {
    W.Kind = static_cast<ipc::PacketType>(PH.Type);
    W.Seq = PH.Seq;
    W.TA = Q.TA;
    W.TB = Q.TB;
    W.DTy = Q.DTy;
    W.Alpha = Q.Alpha;
    W.Beta = Q.Beta;
    W.M = Q.M;
    W.N = Q.N;
    W.K = Q.K;
    W.OffA = Q.OffA;
    W.OffB = Q.OffB;
    W.OffC = Q.OffC;
    W.Lda = Q.Lda;
    W.Ldb = Q.Ldb;
    W.Ldc = Q.Ldc;
  };
  if (PH.Type == static_cast<uint16_t>(ipc::PacketType::GemmRequest)) {
    ipc::GemmRequestMsg Q;
    if (!ipc::readPacket(Slot, PH.Bytes, Q))
      return false;
    Common(Q);
    return true;
  }
  ipc::GemmBatchRequestMsg Q;
  if (!ipc::readPacket(Slot, PH.Bytes, Q))
    return false;
  Common(Q);
  W.StrideA = Q.StrideA;
  W.StrideB = Q.StrideB;
  W.StrideC = Q.StrideC;
  W.Count = Q.BatchCount;
  return true;
}

} // namespace

struct Server::Impl {
  ServerOptions Opts;
  gemm::Engine Eng;
  ipc::Socket Listen;
  int WakeR = -1, WakeW = -1;

  std::thread Poller;
  std::vector<std::thread> Executors;

  std::mutex QMu;
  std::condition_variable QCv;
  std::deque<Work> Queue;
  /// Queue.size(), published for executors spinning outside QMu; written
  /// under QMu.
  std::atomic<size_t> QDepth{0};
  bool Stopping = false;
  bool Running = false;
  /// Poller and executors spin before parking (ipc/Spin.h); decided at
  /// start() from the starting thread's affinity, which they inherit.
  bool Spin = false;
  /// Admitted team requests (Work::Team) not yet handled. While one is
  /// in flight nobody spins: a spinner on a team member's CPU stalls the
  /// whole team at its barriers.
  std::atomic<int> TeamsInFlight{0};
  /// Whether a thread idle since before \p Idle ends keeps spinning.
  bool spinning(ipc::SpinClock::time_point Idle) const {
    return Spin && TeamsInFlight.load(std::memory_order_relaxed) == 0 &&
           ipc::SpinClock::now() < Idle;
  }

  mutable std::mutex SessMu;
  std::map<int, std::shared_ptr<Session>> Sessions; ///< by fd
  std::vector<ClientStat> Closed; ///< ledgers of departed sessions

  std::atomic<uint64_t> TotalClients{0}, Reaped{0}, ReqTotal{0}, OkTotal{0},
      ErrTotal{0}, BusyTotal{0};
  std::atomic<uint32_t> NextId{1};
  uint64_t StartNs = 0;

  /// The daemon's Engine defaults governed dispatch ON (Governor.h): its
  /// executors are exactly the N-concurrent-callers case the governor
  /// exists for — without it, one large request and a flood of small ones
  /// each claim a full fixed-width team and oversubscribe the machine. An
  /// explicit EngineConfig::Governor or any EXO_GEMM_GOVERNOR setting
  /// (including 0) still wins; library Engines keep the paper's fixed-team
  /// default. See docs/CONCURRENCY.md.
  static gemm::EngineConfig daemonEngineConfig(gemm::EngineConfig C) {
    if (C.Governor < 0 && !std::getenv("EXO_GEMM_GOVERNOR"))
      C.Governor = 1;
    return C;
  }

  explicit Impl(const ServerOptions &O)
      : Opts(O), Eng(daemonEngineConfig(O.Engine)) {
    if (Opts.SocketPath.empty())
      Opts.SocketPath = ipc::defaultSocketPath();
    if (Opts.MaxClients <= 0)
      Opts.MaxClients = static_cast<int>(exo::envInt(
          "EXO_GEMMD_MAX_CLIENTS", std::getenv("EXO_GEMMD_MAX_CLIENTS"), 64,
          1, 4096));
    if (Opts.Workers == 0)
      Opts.Workers = static_cast<unsigned>(exo::envInt(
          "EXO_GEMMD_WORKERS", std::getenv("EXO_GEMMD_WORKERS"), 1, 1, 256));
    if (Opts.QueueMax == 0)
      Opts.QueueMax = static_cast<size_t>(
          exo::envInt("EXO_GEMMD_QUEUE_MAX",
                      std::getenv("EXO_GEMMD_QUEUE_MAX"), 64, 1, 1 << 20));
  }

  void pollLoop();
  void executorLoop();
  void handshake(ipc::Socket Conn);
  void drainSession(const std::shared_ptr<Session> &S);
  void handleGemm(const Work &W);
  void reapSession(const std::shared_ptr<Session> &S, const char *Why);
  bool sendReply(const std::shared_ptr<Session> &S, const void *Packet,
                 uint32_t Bytes);
  void fillWireStats(ipc::StatsReplyMsg &W) const;
  void wake() {
    char B = 'w';
    if (WakeW >= 0)
      (void)!::write(WakeW, &B, 1);
  }
};

//===----------------------------------------------------------------------===//
// Reply paths
//===----------------------------------------------------------------------===//

bool Server::Impl::sendReply(const std::shared_ptr<Session> &S,
                             const void *Packet, uint32_t Bytes) {
  // The synchronous client always has ring space; a full ring here means
  // the client stopped draining (dead, or flooding without reading).
  // Bounded retries, then give the session up rather than block a worker.
  for (int Try = 0; Try != 200; ++Try) {
    {
      std::lock_guard<std::mutex> Lock(S->WriteMu);
      if (S->Dead.load(std::memory_order_relaxed) || S->Fd < 0)
        return false;
      if (S->Resp.push(Packet, Bytes)) {
        uint8_t Bell = ipc::DoorbellReply;
        // A failed doorbell means the peer is gone; the poller will see
        // the hangup and reap. Losing the byte is fine — the client
        // polls its ring on every doorbell it does receive.
        (void)!::send(S->Fd, &Bell, 1, MSG_NOSIGNAL);
        return true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  S->Dead.store(true, std::memory_order_relaxed);
  wake(); // let the poller close it out
  return false;
}

static void fillReplyError(ipc::GemmReplyMsg &R, ipc::ReqStatus St,
                           const std::string &Msg) {
  R.Status = static_cast<int32_t>(St);
  std::snprintf(R.Err, sizeof(R.Err), "%s", Msg.c_str());
}

//===----------------------------------------------------------------------===//
// Poller: accept, handshake, doorbells, reaping
//===----------------------------------------------------------------------===//

void Server::Impl::handshake(ipc::Socket Conn) {
  ipc::HelloMsg Hello;
  // A connected-but-silent peer must not wedge the accept loop.
  if (Error E = Conn.recvAllTimed(&Hello, sizeof(Hello), 5000))
    return; // nothing to answer — the peer is gone or stuck
  ipc::HelloAck Ack;
  auto Reject = [&](ipc::HelloStatus St, const char *Why) {
    Ack.Status = static_cast<uint16_t>(St);
    std::snprintf(Ack.Err, sizeof(Ack.Err), "%s", Why);
    (void)Conn.sendAll(&Ack, sizeof(Ack));
  };
  if (Hello.Magic != ipc::WireMagic || Hello.Version != ipc::WireVersion)
    return Reject(ipc::HelloStatus::BadVersion,
                  "protocol version mismatch (rebuild the client)");
  if (Stopping)
    return Reject(ipc::HelloStatus::ShuttingDown, "server is shutting down");
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    if (Sessions.size() >= static_cast<size_t>(Opts.MaxClients))
      return Reject(ipc::HelloStatus::Full, "server at --max-clients");
  }
  Hello.ShmName[sizeof(Hello.ShmName) - 1] = 0;
  Expected<ipc::SessionLayout> L =
      ipc::SessionLayout::derive(Hello.ShmBytes, Hello.RingSlots);
  if (!L)
    return Reject(ipc::HelloStatus::BadRegion, L.message().c_str());
  Expected<ipc::ShmRegion> R =
      ipc::ShmRegion::open(Hello.ShmName, Hello.ShmBytes);
  if (!R)
    return Reject(ipc::HelloStatus::BadRegion, R.message().c_str());

  // Never trust the client's copy of the geometry: the header it wrote
  // must agree with what we derived ourselves.
  ipc::ShmSessionHeader H;
  std::memcpy(&H, R->base(), sizeof(H));
  if (H.Magic != ipc::WireMagic || H.Version != ipc::WireVersion ||
      H.TotalBytes != Hello.ShmBytes || H.RingSlots != Hello.RingSlots ||
      H.ArenaOff != L->ArenaOff || H.ArenaBytes != L->ArenaBytes)
    return Reject(ipc::HelloStatus::BadRegion,
                  "shm session header disagrees with the announced layout");

  auto S = std::make_shared<Session>();
  S->Id = NextId.fetch_add(1, std::memory_order_relaxed);
  S->Shm = R.take();
  S->Layout = *L;
  S->Req.attach(S->Shm.at(L->ReqRingOff), L->RingSlots);
  S->Resp.attach(S->Shm.at(L->RespRingOff), L->RingSlots);

  Ack.Status = static_cast<uint16_t>(ipc::HelloStatus::Ok);
  Ack.ClientId = S->Id;
  Ack.MaxInflight = L->RingSlots - 1;
  if (Error E = Conn.sendAll(&Ack, sizeof(Ack)))
    return;

  int Fd = Conn.release();
  ::fcntl(Fd, F_SETFL, ::fcntl(Fd, F_GETFL, 0) | O_NONBLOCK);
  S->Fd = Fd;
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    Sessions[Fd] = S;
  }
  TotalClients.fetch_add(1, std::memory_order_relaxed);
}

void Server::Impl::reapSession(const std::shared_ptr<Session> &S,
                               const char *Why) {
  {
    std::lock_guard<std::mutex> Lock(S->WriteMu);
    if (S->Fd < 0)
      return; // already reaped
    ::close(S->Fd);
    S->Fd = -1;
    S->Dead.store(true, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    for (auto It = Sessions.begin(); It != Sessions.end(); ++It)
      if (It->second == S) {
        Sessions.erase(It);
        break;
      }
    if (Closed.size() >= 256)
      Closed.erase(Closed.begin());
    Closed.push_back(S->snapshot(false));
  }
  Reaped.fetch_add(1, std::memory_order_relaxed);
  obs::mark("gemmd.reap");
  (void)Why;
}

void Server::Impl::drainSession(const std::shared_ptr<Session> &S) {
  alignas(8) unsigned char Slot[ipc::SlotBytes];
  while (S->Req.pop(Slot)) {
    ipc::PacketHeader PH;
    std::memcpy(&PH, Slot, sizeof(PH));
    // The header is client-written memory: validate every field before
    // dispatching on it. A violation costs the client its session — and
    // nothing else.
    if (PH.Magic != ipc::WireMagic || PH.Version != ipc::WireVersion ||
        PH.Bytes < sizeof(ipc::PacketHeader) || PH.Bytes > ipc::SlotBytes) {
      reapSession(S, "malformed packet header");
      return;
    }
    switch (static_cast<ipc::PacketType>(PH.Type)) {
    case ipc::PacketType::GemmRequest:
    case ipc::PacketType::GemmBatchRequest: {
      Work W;
      if (!readGemm(Slot, PH, W)) {
        reapSession(S, "truncated GEMM request");
        return;
      }
      W.S = S;
      W.Team =
          Eng.teamWidthFor(ipc::requestFlops(W.M, W.N, W.K, W.Count)) > 1;
      S->Requests.fetch_add(1, std::memory_order_relaxed);
      ReqTotal.fetch_add(1, std::memory_order_relaxed);
      S->LastM.store(W.M, std::memory_order_relaxed);
      S->LastN.store(W.N, std::memory_order_relaxed);
      S->LastK.store(W.K, std::memory_order_relaxed);
      const ipc::PacketType ReplyType = W.replyType();
      bool Admitted = false;
      {
        std::lock_guard<std::mutex> Lock(QMu);
        if (!Stopping && Queue.size() < Opts.QueueMax) {
          if (W.Team)
            TeamsInFlight.fetch_add(1, std::memory_order_relaxed);
          Queue.push_back(std::move(W));
          QDepth.store(Queue.size(), std::memory_order_relaxed);
          Admitted = true;
        }
      }
      if (Admitted) {
        QCv.notify_one();
      } else {
        obs::mark("gemmd.busy");
        S->Busy.fetch_add(1, std::memory_order_relaxed);
        BusyTotal.fetch_add(1, std::memory_order_relaxed);
        ipc::GemmReplyMsg Rep;
        Rep.H.Type = static_cast<uint16_t>(ReplyType);
        Rep.H.Seq = PH.Seq;
        Rep.H.Bytes = sizeof(Rep);
        fillReplyError(Rep, ipc::ReqStatus::Busy,
                       "admission queue full, request dropped");
        sendReply(S, &Rep, sizeof(Rep));
      }
      break;
    }
    case ipc::PacketType::Ping: {
      ipc::PacketHeader Rep;
      Rep.Type = static_cast<uint16_t>(ipc::PacketType::PingReply);
      Rep.Seq = PH.Seq;
      Rep.Bytes = sizeof(Rep);
      sendReply(S, &Rep, sizeof(Rep));
      break;
    }
    case ipc::PacketType::StatsRequest: {
      ipc::StatsReplyMsg Rep;
      fillWireStats(Rep);
      Rep.H.Seq = PH.Seq;
      sendReply(S, &Rep, sizeof(Rep));
      break;
    }
    default:
      reapSession(S, "unexpected packet type");
      return;
    }
  }
}

void Server::Impl::pollLoop() {
  std::vector<pollfd> Pfds;
  std::vector<std::shared_ptr<Session>> Polled;
  // End of the busy-poll window; each handled event extends it.
  ipc::SpinClock::time_point Idle = ipc::SpinClock::now() + ipc::ServerSpin;
  for (;;) {
    // Close out sessions executors marked dead (full ring / flood).
    {
      std::vector<std::shared_ptr<Session>> ToReap;
      {
        std::lock_guard<std::mutex> Lock(SessMu);
        for (auto &KV : Sessions)
          if (KV.second->Dead.load(std::memory_order_relaxed))
            ToReap.push_back(KV.second);
      }
      for (auto &S : ToReap)
        reapSession(S, "executor marked dead");
    }

    Pfds.clear();
    Polled.clear();
    Pfds.push_back(pollfd{Listen.fd(), POLLIN, 0});
    Pfds.push_back(pollfd{WakeR, POLLIN, 0});
    {
      std::lock_guard<std::mutex> Lock(SessMu);
      for (auto &KV : Sessions) {
        Pfds.push_back(pollfd{KV.first, POLLIN, 0});
        Polled.push_back(KV.second);
      }
    }
    // Busy-poll the same set until the window closes, then block. Rings
    // are still drained only after their session's doorbell: a ring read
    // ahead of it could reap a session its client has not finished using.
    int Rc = 0;
    while (Rc == 0 && spinning(Idle)) {
      Rc = ::poll(Pfds.data(), Pfds.size(), 0);
      if (Rc == 0)
        ipc::spinPause();
    }
    if (Rc == 0)
      Rc = ::poll(Pfds.data(), Pfds.size(), -1);
    if (Rc < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    {
      std::lock_guard<std::mutex> Lock(QMu);
      if (Stopping)
        break;
    }
    if (Pfds[1].revents & POLLIN) {
      char Buf[64];
      while (::read(WakeR, Buf, sizeof(Buf)) > 0) {
      }
    }
    if (Pfds[0].revents & POLLIN) {
      if (Expected<ipc::Socket> Conn = Listen.accept())
        handshake(Conn.take());
    }
    for (size_t I = 2; I < Pfds.size(); ++I) {
      const std::shared_ptr<Session> &S = Polled[I - 2];
      if (Pfds[I].revents & (POLLERR | POLLNVAL)) {
        reapSession(S, "socket error");
        continue;
      }
      if (Pfds[I].revents & POLLIN) {
        char Bells[256];
        ssize_t R = ::read(Pfds[I].fd, Bells, sizeof(Bells));
        if (R == 0) {
          // EOF: the client exited or was killed — possibly mid-request.
          // Its queued work is skipped or completed into the still-mapped
          // region; either way nothing here can block another stream.
          reapSession(S, "client hangup");
          continue;
        }
        if (R < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR) {
          reapSession(S, "socket read error");
          continue;
        }
        if (R > 0)
          drainSession(S);
      } else if (Pfds[I].revents & POLLHUP) {
        reapSession(S, "client hangup");
      }
    }
    Idle = ipc::SpinClock::now() + ipc::ServerSpin;
  }
}

//===----------------------------------------------------------------------===//
// Executors: validate, run the engine, reply
//===----------------------------------------------------------------------===//

void Server::Impl::handleGemm(const Work &W) {
  const std::shared_ptr<Session> &S = W.S;
  if (S->Dead.load(std::memory_order_relaxed))
    return; // no one left to read the result

  ipc::GemmReplyMsg Rep;
  Rep.H.Type = static_cast<uint16_t>(W.replyType());
  Rep.H.Seq = W.Seq;
  Rep.H.Bytes = sizeof(Rep);
  auto Reject = [&](const char *Why) {
    S->Errors.fetch_add(1, std::memory_order_relaxed);
    ErrTotal.fetch_add(1, std::memory_order_relaxed);
    fillReplyError(Rep, ipc::ReqStatus::Bad, Why);
    sendReply(S, &Rep, sizeof(Rep));
  };

  // Never trust the dtype byte. Batches are f32-only in wire v3 (Wire.h):
  // the batched engine path has no typed counterpart yet, so any non-zero
  // dtype byte on one is a client bug.
  if (W.DTy >= gemm::DTypeCount)
    return Reject("unknown request dtype");
  if (W.batched() && W.DTy != 0)
    return Reject("batched requests are f32-only in wire v3");

  // Geometry validation against the arena: every byte the engine will
  // touch must land inside this client's region, at the request dtype's
  // element sizes (A/B at dtypeInBytes, C at dtypeOutBytes — an i8 span is
  // a quarter of the f32 span the same dims imply, and its C is still 4
  // bytes wide). Strides are required non-negative, so the furthest byte
  // belongs to the last item; a single request (count 1, stride 0) is
  // just its one item's span. Offsets/extents are attacker-controlled: do
  // the arithmetic wide.
  const gemm::DType Ty = static_cast<gemm::DType>(W.DTy);
  const uint64_t InB = gemm::dtypeInBytes(Ty);
  const uint64_t OutB = gemm::dtypeOutBytes(Ty);
  const uint64_t Arena = S->Layout.ArenaBytes;
  auto SpanOk = [&](uint64_t Off, int64_t Ld, int64_t Cols, int64_t Stride,
                    uint64_t Elem) {
    if (Ld <= 0 || Cols <= 0 || Stride < 0 || Off % Elem != 0 || Off > Arena)
      return false;
    unsigned __int128 End =
        static_cast<unsigned __int128>(static_cast<uint64_t>(Stride)) *
            static_cast<uint64_t>(W.Count - 1) * Elem +
        static_cast<unsigned __int128>(Ld) * static_cast<uint64_t>(Cols) *
            Elem;
    return End <= static_cast<unsigned __int128>(Arena - Off);
  };
  const int64_t ARows = W.TA ? W.K : W.M;
  const int64_t ACols = W.TA ? W.M : W.K;
  const int64_t BRows = W.TB ? W.N : W.K;
  const int64_t BCols = W.TB ? W.K : W.N;
  const bool Valid =
      W.Count > 0 && W.M > 0 && W.N > 0 && W.K > 0 && W.TA <= 1 &&
      W.TB <= 1 && W.Lda >= ARows && W.Ldb >= BRows && W.Ldc >= W.M &&
      (W.Count == 1 || static_cast<__int128>(W.StrideC) >=
                           static_cast<__int128>(W.Ldc) * W.N) &&
      SpanOk(W.OffA, W.Lda, ACols, W.StrideA, InB) &&
      SpanOk(W.OffB, W.Ldb, BCols, W.StrideB, InB) &&
      SpanOk(W.OffC, W.Ldc, W.N, W.StrideC, OutB);
  if (!Valid)
    return Reject("request geometry escapes the session arena");

  unsigned char *Arena0 = S->Shm.at(S->Layout.ArenaOff);
  const void *A = Arena0 + W.OffA;
  const void *B = Arena0 + W.OffB;
  void *C = Arena0 + W.OffC;
  const gemm::Trans TA = W.TA ? gemm::Trans::Transpose : gemm::Trans::None;
  const gemm::Trans TB = W.TB ? gemm::Trans::Transpose : gemm::Trans::None;

  // Cache-attribution flags ride on global counter deltas around the
  // call; with several executors they can misattribute a neighbor's
  // build, but daemon-level stats (what the warm-cache contract is
  // verified by) stay exact. Only the three counters the flags need are
  // read: no plan-cache scan, one JIT-counter lock.
  const gemm::EngineStats EB = Eng.counters();
  const uint64_t CompilesB = exo::jitStats().Compiles;
  uint64_t T0 = nowNs();
  Error E = [&] {
    EXO_OBS_SPAN("gemmd.request");
    // Batches keep their own Engine entry so EngineStats' batch counters
    // mean what they say. For I8I32 the engine itself rejects fractional
    // alpha/beta, which surfaces to the client as ReqStatus::Error with
    // the message intact.
    if (W.batched())
      return Eng.sgemmStridedBatched(
          TA, TB, W.M, W.N, W.K, W.Alpha, static_cast<const float *>(A),
          W.Lda, W.StrideA, static_cast<const float *>(B), W.Ldb, W.StrideB,
          W.Beta, static_cast<float *>(C), W.Ldc, W.StrideC, W.Count);
    return Eng.gemm(Ty, TA, TB, W.M, W.N, W.K, static_cast<double>(W.Alpha),
                    A, W.Lda, B, W.Ldb, static_cast<double>(W.Beta), C,
                    W.Ldc);
  }();
  Rep.ServerNs = nowNs() - T0;
  const gemm::EngineStats EA = Eng.counters();
  if (EA.Hits > EB.Hits)
    Rep.Flags |= ipc::ReplyPlanHit;
  if (EA.Builds > EB.Builds)
    Rep.Flags |= ipc::ReplyPlanBuilt;
  if (exo::jitStats().Compiles > CompilesB)
    Rep.Flags |= ipc::ReplyJitCompiled;

  if (E) {
    S->Errors.fetch_add(1, std::memory_order_relaxed);
    ErrTotal.fetch_add(1, std::memory_order_relaxed);
    fillReplyError(Rep, ipc::ReqStatus::Error, E.message());
  } else {
    S->Ok.fetch_add(1, std::memory_order_relaxed);
    OkTotal.fetch_add(1, std::memory_order_relaxed);
    Rep.Status = static_cast<int32_t>(ipc::ReqStatus::Ok);
  }
  sendReply(S, &Rep, sizeof(Rep));
}

void Server::Impl::executorLoop() {
  // Spin on the published queue depth until ServerSpin after the last
  // request, then park on QCv.
  ipc::SpinClock::time_point Idle = ipc::SpinClock::now() + ipc::ServerSpin;
  for (;;) {
    if (Spin)
      ipc::spinUntil(
          [&] {
            return QDepth.load(std::memory_order_relaxed) != 0 ||
                   TeamsInFlight.load(std::memory_order_relaxed) != 0;
          },
          Idle);
    Work W;
    {
      std::unique_lock<std::mutex> Lock(QMu);
      // Another executor took the item this one saw: spin out the window.
      if (Queue.empty() && !Stopping && spinning(Idle))
        continue;
      QCv.wait(Lock, [&] { return Stopping || !Queue.empty(); });
      if (Queue.empty()) {
        if (Stopping)
          return; // graceful: the queue drained first
        continue;
      }
      W = std::move(Queue.front());
      Queue.pop_front();
      QDepth.store(Queue.size(), std::memory_order_relaxed);
    }
    handleGemm(W);
    if (W.Team)
      TeamsInFlight.fetch_sub(1, std::memory_order_relaxed);
    Idle = ipc::SpinClock::now() + ipc::ServerSpin;
  }
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

void Server::Impl::fillWireStats(ipc::StatsReplyMsg &W) const {
  W = ipc::StatsReplyMsg{};
  W.H.Type = static_cast<uint16_t>(ipc::PacketType::StatsReply);
  W.H.Bytes = sizeof(W);
  {
    std::lock_guard<std::mutex> Lock(SessMu);
    W.ActiveClients = Sessions.size();
  }
  W.TotalClients = TotalClients.load(std::memory_order_relaxed);
  W.Requests = ReqTotal.load(std::memory_order_relaxed);
  W.Ok = OkTotal.load(std::memory_order_relaxed);
  W.Errors = ErrTotal.load(std::memory_order_relaxed);
  W.Busy = BusyTotal.load(std::memory_order_relaxed);
  W.Reaped = Reaped.load(std::memory_order_relaxed);
  gemm::EngineStats ES = Eng.stats();
  W.PlanHits = ES.Hits;
  W.PlanMisses = ES.Misses;
  W.PlanBuilds = ES.Builds;
  W.PlanEvictions = ES.Evictions;
  W.PlanStickyErrors = ES.StickyErrors;
  ukr::CacheStats US = ukr::globalCacheStats();
  W.UkrDiskHits = US.DiskHits;
  W.UkrCompiles = US.Compiles;
  W.UkrFallbacks = US.Fallbacks;
  W.UptimeNs = nowNs() - StartNs;
}

//===----------------------------------------------------------------------===//
// Public surface
//===----------------------------------------------------------------------===//

Server::Server(const ServerOptions &Opts) : I(new Impl(Opts)) {}

Server::~Server() {
  stop();
  delete I;
}

Error Server::start() {
  if (I->Running)
    return errorf("gemmd: server already running");
  Expected<ipc::Socket> L = ipc::Socket::listen(I->Opts.SocketPath, 64);
  if (!L)
    return L.takeError();
  I->Listen = L.take();
  int Pipe[2];
  if (::pipe2(Pipe, O_CLOEXEC | O_NONBLOCK) != 0)
    return errorf("gemmd: pipe2 failed: %s", std::strerror(errno));
  I->WakeR = Pipe[0];
  I->WakeW = Pipe[1];
  I->StartNs = nowNs();
  I->Spin = ipc::spinAllowed();
  I->Stopping = false;
  I->Running = true;
  I->Poller = std::thread([this] { I->pollLoop(); });
  for (unsigned W = 0; W != I->Opts.Workers; ++W)
    I->Executors.emplace_back([this] { I->executorLoop(); });
  return Error::success();
}

void Server::stop() {
  if (!I->Running)
    return;
  {
    std::lock_guard<std::mutex> Lock(I->QMu);
    I->Stopping = true;
  }
  I->QCv.notify_all();
  I->wake();
  if (I->Poller.joinable())
    I->Poller.join();
  // Executors drain what the poller already admitted, reply, then exit.
  for (std::thread &T : I->Executors)
    if (T.joinable())
      T.join();
  I->Executors.clear();
  // Now nothing can touch the sessions: close them out (clients see EOF).
  std::vector<std::shared_ptr<Session>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(I->SessMu);
    for (auto &KV : I->Sessions)
      Remaining.push_back(KV.second);
  }
  for (auto &S : Remaining)
    I->reapSession(S, "server shutdown");
  I->Listen.close();
  ::unlink(I->Opts.SocketPath.c_str());
  if (I->WakeR >= 0)
    ::close(I->WakeR);
  if (I->WakeW >= 0)
    ::close(I->WakeW);
  I->WakeR = I->WakeW = -1;
  I->Running = false;
}

bool Server::running() const { return I->Running; }

const std::string &Server::socketPath() const { return I->Opts.SocketPath; }

gemm::Engine &Server::engine() { return I->Eng; }

ServerStats Server::stats() const {
  ServerStats St;
  I->fillWireStats(St.Wire);
  std::lock_guard<std::mutex> Lock(I->SessMu);
  St.PerClient = I->Closed;
  for (const auto &KV : I->Sessions)
    St.PerClient.push_back(KV.second->snapshot(true));
  return St;
}

} // namespace gemmd
