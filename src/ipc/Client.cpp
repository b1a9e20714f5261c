//===- Client.cpp - gemm::Client, the remote Engine front door ------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "ipc/Client.h"

#include "exo/support/Env.h"
#include "gemm/Governor.h"
#include "ipc/Spin.h"
#include "obs/Obs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace exo;

namespace gemm {

namespace {

uint64_t resolveShmBytes(uint64_t Configured) {
  if (Configured)
    return Configured;
  return static_cast<uint64_t>(
      exo::envInt("EXO_GEMMD_SHM_BYTES", std::getenv("EXO_GEMMD_SHM_BYTES"),
                  /*Default=*/64ll << 20, /*Min=*/1,
                  /*Max=*/int64_t(1) << 40));
}

int resolveTimeoutMs(int Configured) {
  if (Configured)
    return Configured;
  return static_cast<int>(
      exo::envInt("EXO_GEMMD_TIMEOUT_MS", std::getenv("EXO_GEMMD_TIMEOUT_MS"),
                  /*Default=*/-1, /*Min=*/-1, /*Max=*/1 << 30));
}

/// Exact f32 representability, the wire's alpha/beta format. NaN crosses
/// as NaN, so it counts as representable.
bool fitsF32(double X) {
  return std::isnan(X) || static_cast<double>(static_cast<float>(X)) == X;
}

/// One operand's footprint: Items column-major Rows x Cols items of Elem
/// bytes. In the caller's buffer the items sit Stride elements apart with
/// leading dimension Ld; in the arena they are compact and back to back
/// from Off.
struct Operand {
  int64_t Rows, Cols, Ld, Stride, Items;
  uint64_t Elem;
  uint64_t Off = 0;

  uint64_t itemBytes() const {
    return static_cast<uint64_t>(Rows) * static_cast<uint64_t>(Cols) * Elem;
  }
  uint64_t bytes() const {
    return itemBytes() * static_cast<uint64_t>(Items);
  }
  /// Byte offsets of item I's column J: in the caller's buffer and in the
  /// arena.
  uint64_t user(int64_t I, int64_t J) const {
    return static_cast<uint64_t>(I * Stride + J * Ld) * Elem;
  }
  uint64_t arena(int64_t I, int64_t J) const {
    return Off + static_cast<uint64_t>(I) * itemBytes() +
           static_cast<uint64_t>(J * Rows) * Elem;
  }

  void stage(unsigned char *Arena, const void *Src) const {
    for (int64_t I = 0; I != Items; ++I)
      for (int64_t J = 0; J != Cols; ++J)
        std::memcpy(Arena + arena(I, J),
                    static_cast<const unsigned char *>(Src) + user(I, J),
                    static_cast<size_t>(Rows) * Elem);
  }
  void collect(const unsigned char *Arena, void *Dst) const {
    for (int64_t I = 0; I != Items; ++I)
      for (int64_t J = 0; J != Cols; ++J)
        std::memcpy(static_cast<unsigned char *>(Dst) + user(I, J),
                    Arena + arena(I, J), static_cast<size_t>(Rows) * Elem);
  }
};

} // namespace

Client::Client() : Client(Options{}) {}

Client::Client(const Options &O) : Opts(O) {
  if (Opts.SocketPath.empty())
    Opts.SocketPath = ipc::defaultSocketPath();
  Opts.ShmBytes = resolveShmBytes(Opts.ShmBytes);
  Opts.TimeoutMs = resolveTimeoutMs(Opts.TimeoutMs);
}

Client::~Client() = default;

bool Client::connected() const { return Connected; }

void Client::disconnect() {
  std::lock_guard<std::mutex> Lock(Mu);
  dropSessionLocked();
}

void Client::dropSessionLocked() {
  Sock.close();
  Shm = ipc::ShmRegion();
  Connected = false;
  BellsOwed = false;
}

Error Client::connect() {
  std::lock_guard<std::mutex> Lock(Mu);
  return ensureConnectedLocked();
}

Error Client::ensureConnectedLocked() {
  if (Connected)
    return Error::success();
  constexpr uint32_t Slots = 64;
  Expected<ipc::SessionLayout> L =
      ipc::SessionLayout::derive(Opts.ShmBytes, Slots);
  if (!L)
    return L.takeError();
  Expected<ipc::ShmRegion> R = ipc::ShmRegion::create(Opts.ShmBytes);
  if (!R)
    return R.takeError();
  Layout = *L;
  Shm = R.take();

  // Format the region before announcing it: header, then both rings.
  auto *H = reinterpret_cast<ipc::ShmSessionHeader *>(Shm.base());
  *H = ipc::ShmSessionHeader{};
  H->TotalBytes = Opts.ShmBytes;
  H->RingSlots = Slots;
  H->ArenaOff = Layout.ArenaOff;
  H->ArenaBytes = Layout.ArenaBytes;
  ReqRing.init(Shm.at(Layout.ReqRingOff), Slots);
  RespRing.init(Shm.at(Layout.RespRingOff), Slots);

  Expected<ipc::Socket> S = ipc::Socket::connect(Opts.SocketPath);
  if (!S) {
    Shm = ipc::ShmRegion();
    return S.takeError();
  }
  Sock = S.take();

  ipc::HelloMsg Hello;
  Hello.ShmBytes = Opts.ShmBytes;
  Hello.RingSlots = Slots;
  Hello.NameLen = static_cast<uint32_t>(Shm.name().size());
  std::snprintf(Hello.ShmName, sizeof(Hello.ShmName), "%s",
                Shm.name().c_str());
  if (Error E = Sock.sendAll(&Hello, sizeof(Hello))) {
    dropSessionLocked();
    return E;
  }
  ipc::HelloAck Ack;
  if (Error E = Sock.recvAllTimed(&Ack, sizeof(Ack), Opts.TimeoutMs)) {
    dropSessionLocked();
    return E;
  }
  if (Ack.Magic != ipc::WireMagic ||
      Ack.Status != static_cast<uint16_t>(ipc::HelloStatus::Ok)) {
    Error E = errorf("gemmd: server rejected session: %.*s",
                     static_cast<int>(sizeof(Ack.Err)), Ack.Err[0]
                         ? Ack.Err
                         : "(unspecified)");
    dropSessionLocked();
    return E;
  }
  // The server holds a mapping now; drop the name so a crash on either
  // side can never leak a /dev/shm entry.
  Shm.unlinkName();
  Spin = ipc::spinAllowed();
  Connected = true;
  return Error::success();
}

Error Client::transactLocked(const void *Packet, uint32_t Bytes, void *Reply,
                             ipc::PacketType WantType, uint32_t WantSeq,
                             double Flops) {
  if (!ReqRing.push(Packet, Bytes)) {
    // Synchronous protocol: a full request ring means the server stopped
    // draining — treat as a dead session.
    dropSessionLocked();
    return errorf("gemmd: request ring full (server stalled)");
  }
  if (Error E = Sock.ring(ipc::DoorbellRequest)) {
    dropSessionLocked();
    return E;
  }
  // Pops the response ring: 1 when the wanted reply is in Reply, 0 when
  // it has not arrived, -1 on a malformed packet. Stale replies (for
  // abandoned requests) are skipped.
  auto Take = [&]() -> int {
    alignas(8) unsigned char Slot[ipc::SlotBytes];
    while (RespRing.pop(Slot)) {
      ipc::PacketHeader PH;
      std::memcpy(&PH, Slot, sizeof(PH));
      if (PH.Magic != ipc::WireMagic || PH.Version != ipc::WireVersion ||
          PH.Bytes < sizeof(ipc::PacketHeader) || PH.Bytes > ipc::SlotBytes)
        return -1;
      if (PH.Type == static_cast<uint16_t>(WantType) && PH.Seq == WantSeq) {
        std::memcpy(Reply, Slot, ipc::SlotBytes);
        return 1;
      }
    }
    return 0;
  };
  auto Finish = [&](int Got) -> Error {
    if (Got > 0)
      return Error::success();
    dropSessionLocked();
    return errorf("gemmd: malformed reply packet from server");
  };
  const ipc::SpinClock::time_point Start = ipc::SpinClock::now();
  const ipc::SpinClock::time_point Deadline =
      Opts.TimeoutMs < 0 ? ipc::SpinClock::time_point::max()
                         : Start + std::chrono::milliseconds(Opts.TimeoutMs);
  // Spin first: a small request's reply lands within the budget, and
  // polling the ring saves the wake-up out of a blocking read. Not for a
  // request the governor runs on a multi-thread team (asked of this
  // process's governor, which sees the daemon's default unless the two
  // run with different EXO_GEMM_GOVERNOR_* settings): its reply comes
  // after the budget anyway, and the spinner would take a CPU from the
  // team. The reply doorbell still comes; drop it (and any earlier one
  // that arrived late) so the socket never builds a backlog.
  const gemm::Governor &Gov = gemm::Governor::global();
  int Got = 0;
  if (Spin && Gov.widthForWork(Flops, Gov.ceiling()) <= 1 &&
      ipc::spinUntil([&] { return (Got = Take()) != 0; },
                     std::min(Start + ipc::ClientSpin, Deadline))) {
    if (Got > 0) {
      Sock.drainBells();
      BellsOwed = true; // the bell may land after the drain
    }
    return Finish(Got);
  }
  // Park. Drop the bells of earlier spin-served replies, then re-check the
  // ring: a reply pushed before the drain shows now, so every byte read
  // below belongs to a reply still to come. Coalesced bells are fine — the
  // ring is re-checked after each one.
  if (BellsOwed) {
    Sock.drainBells();
    BellsOwed = false;
  }
  for (;;) {
    if ((Got = Take()) != 0)
      return Finish(Got);
    int LeftMs = -1;
    if (Opts.TimeoutMs >= 0) {
      const auto Left = std::chrono::ceil<std::chrono::milliseconds>(
          Deadline - ipc::SpinClock::now());
      LeftMs = static_cast<int>(std::max<int64_t>(0, Left.count()));
    }
    uint8_t Bell;
    if (Error E = Sock.recvAllTimed(&Bell, 1, LeftMs)) {
      dropSessionLocked();
      // The socket reports the part of the budget it was handed; the
      // caller set the whole of it.
      if (Opts.TimeoutMs >= 0 && ipc::SpinClock::now() >= Deadline)
        return errorf("gemmd: timed out after %d ms waiting for the server",
                      Opts.TimeoutMs);
      return E;
    }
  }
}

/// One remote call after its door's own argument checks. A single GEMM is
/// a batch of one with zero strides; Batched picks the packet type (and so
/// the server Engine entry: gemm, or sgemmStridedBatched).
struct Client::Call {
  DType Ty;
  Trans TA, TB;
  int64_t M, N, K;
  float Alpha;
  const void *A;
  int64_t Lda, StrideA;
  const void *B;
  int64_t Ldb, StrideB;
  float Beta;
  void *C;
  int64_t Ldc, StrideC;
  int64_t Count;
  bool Batched;
};

Error Client::sgemm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                    float Alpha, const float *A, int64_t Lda, const float *B,
                    int64_t Ldb, float Beta, float *C, int64_t Ldc) {
  return gemm(DType::F32, TA, TB, M, N, K, Alpha, A, Lda, B, Ldb, Beta, C,
              Ldc);
}

Error Client::gemm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                   int64_t K, double Alpha, const void *A, int64_t Lda,
                   const void *B, int64_t Ldb, double Beta, void *C,
                   int64_t Ldc) {
  if (M < 0 || N < 0 || K < 0)
    return errorf("gemmd client: negative dimension");
  // The wire carries alpha/beta as f32; refuse anything that would be
  // silently rounded in transit. For I8I32 the engine additionally
  // requires exact integers — check here too so the diagnostic names the
  // caller instead of costing a round trip.
  if (!fitsF32(Alpha) || !fitsF32(Beta))
    return errorf("gemmd client: alpha/beta must be exactly representable "
                  "as f32 (the wire carries them as f32)");
  if (Ty == DType::I8I32 &&
      (Alpha != std::nearbyint(Alpha) || Beta != std::nearbyint(Beta)))
    return errorf("gemmd client: i8 gemm requires integer alpha/beta");
  return run({Ty, TA, TB, M, N, K, static_cast<float>(Alpha), A, Lda, 0, B,
              Ldb, 0, static_cast<float>(Beta), C, Ldc, 0, 1,
              /*Batched=*/false});
}

Error Client::sgemmStridedBatched(Trans TA, Trans TB, int64_t M, int64_t N,
                                  int64_t K, float Alpha, const float *A,
                                  int64_t Lda, int64_t StrideA,
                                  const float *B, int64_t Ldb,
                                  int64_t StrideB, float Beta, float *C,
                                  int64_t Ldc, int64_t StrideC,
                                  int64_t BatchCount) {
  if (M < 0 || N < 0 || K < 0)
    return errorf("gemmd client: negative dimension");
  if (BatchCount < 0)
    return errorf("gemmd client: negative batch count");
  if (StrideA < 0 || StrideB < 0 || StrideC < 0)
    return errorf("gemmd client: negative batch stride");
  // Checked ahead of the degenerate returns, like the Engine: an
  // overlapping batch is an error even when it would only scale C.
  if (BatchCount > 1 && M > 0 && N > 0 && StrideC < Ldc * N)
    return errorf("gemmd client: StrideC (%lld) overlaps C items "
                  "(need >= Ldc * N = %lld)",
                  static_cast<long long>(StrideC),
                  static_cast<long long>(Ldc * N));
  if (BatchCount == 0)
    return Error::success();
  return run({DType::F32, TA, TB, M, N, K, Alpha, A, Lda, StrideA, B, Ldb,
              StrideB, Beta, C, Ldc, StrideC, BatchCount, /*Batched=*/true});
}

Error Client::run(const Call &Q) {
  const uint64_t InB = dtypeInBytes(Q.Ty);
  const uint64_t OutB = dtypeOutBytes(Q.Ty);
  // Degenerate calls stay local, item by item, through the Engine's own
  // scaleByBeta path, so results are bitwise identical to it.
  if (Q.M == 0 || Q.N == 0)
    return Error::success();
  if (Q.K == 0 || Q.Alpha == 0.0f) {
    for (int64_t I = 0; I < Q.Count; ++I)
      detail::scaleByBeta(Q.Ty, Q.M, Q.N, Q.Beta,
                          static_cast<unsigned char *>(Q.C) +
                              static_cast<uint64_t>(I * Q.StrideC) * OutB,
                          Q.Ldc);
    return Error::success();
  }
  const int64_t ARows = Q.TA == Trans::None ? Q.M : Q.K;
  const int64_t ACols = Q.TA == Trans::None ? Q.K : Q.M;
  const int64_t BRows = Q.TB == Trans::None ? Q.K : Q.N;
  const int64_t BCols = Q.TB == Trans::None ? Q.N : Q.K;
  if (Q.Lda < ARows || Q.Ldb < BRows || Q.Ldc < Q.M)
    return errorf("gemmd client: leading dimension smaller than rows");

  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;

  // Stage compactly at the dtype's element sizes, each operand an array of
  // back-to-back items, 64-byte aligned. A zero input stride ships the
  // shared operand once and keeps stride 0 on the wire.
  auto Align = [](uint64_t X) { return (X + 63) & ~uint64_t{63}; };
  Operand SA{ARows, ACols, Q.Lda, Q.StrideA, Q.StrideA ? Q.Count : 1, InB};
  Operand SB{BRows, BCols, Q.Ldb, Q.StrideB, Q.StrideB ? Q.Count : 1, InB};
  Operand SC{Q.M, Q.N, Q.Ldc, Q.StrideC, Q.Count, OutB};
  SB.Off = Align(SA.bytes());
  SC.Off = Align(SB.Off + SB.bytes());
  const uint64_t Need = SC.Off + SC.bytes();
  if (Need > Layout.ArenaBytes)
    return errorf("gemmd client: %lld %s %lldx%lldx%lld item(s) need %llu "
                  "arena bytes but the session has %llu — raise "
                  "EXO_GEMMD_SHM_BYTES%s",
                  static_cast<long long>(Q.Count), dtypeName(Q.Ty),
                  static_cast<long long>(Q.M), static_cast<long long>(Q.N),
                  static_cast<long long>(Q.K),
                  static_cast<unsigned long long>(Need),
                  static_cast<unsigned long long>(Layout.ArenaBytes),
                  Q.Batched ? " or split the batch" : "");

  EXO_OBS_SPAN("gemmd.client.call");
  unsigned char *Arena = Shm.at(Layout.ArenaOff);
  {
    EXO_OBS_SPAN("gemmd.client.stage");
    SA.stage(Arena, Q.A);
    SB.stage(Arena, Q.B);
    if (Q.Beta != 0.0f)
      SC.stage(Arena, Q.C);
  }

  // Both packet types share the single request's fields; a batch adds
  // its compact wire strides and count.
  alignas(8) unsigned char ReplyBuf[ipc::SlotBytes];
  auto Transact = [&](auto Req, ipc::PacketType Type,
                      ipc::PacketType ReplyType) {
    Req.H.Type = static_cast<uint16_t>(Type);
    Req.H.Seq = ++Seq;
    Req.H.Bytes = sizeof(Req);
    Req.TA = Q.TA == Trans::Transpose;
    Req.TB = Q.TB == Trans::Transpose;
    Req.DTy = static_cast<uint8_t>(Q.Ty);
    Req.Alpha = Q.Alpha;
    Req.Beta = Q.Beta;
    Req.M = Q.M;
    Req.N = Q.N;
    Req.K = Q.K;
    Req.OffA = SA.Off;
    Req.OffB = SB.Off;
    Req.OffC = SC.Off;
    Req.Lda = ARows;
    Req.Ldb = BRows;
    Req.Ldc = Q.M;
    return transactLocked(&Req, sizeof(Req), ReplyBuf, ReplyType, Req.H.Seq,
                          ipc::requestFlops(Q.M, Q.N, Q.K, Q.Count));
  };
  ipc::GemmBatchRequestMsg Batch;
  Batch.StrideA = Q.StrideA ? ARows * ACols : 0;
  Batch.StrideB = Q.StrideB ? BRows * BCols : 0;
  Batch.StrideC = Q.M * Q.N;
  Batch.BatchCount = Q.Count;
  if (Error E = Q.Batched ? Transact(Batch, ipc::PacketType::GemmBatchRequest,
                                     ipc::PacketType::GemmBatchReply)
                          : Transact(ipc::GemmRequestMsg{},
                                     ipc::PacketType::GemmRequest,
                                     ipc::PacketType::GemmReply))
    return E;
  ipc::GemmReplyMsg Reply;
  std::memcpy(&Reply, ReplyBuf, sizeof(Reply));
  LastFlags = Reply.Flags;
  switch (static_cast<ipc::ReqStatus>(Reply.Status)) {
  case ipc::ReqStatus::Ok:
    break;
  case ipc::ReqStatus::Busy:
    return errorf("gemmd: server busy (admission queue full)");
  default:
    return errorf("gemmd: %.*s", static_cast<int>(sizeof(Reply.Err)),
                  Reply.Err[0] ? Reply.Err : "request failed");
  }
  {
    EXO_OBS_SPAN("gemmd.client.collect");
    SC.collect(Arena, Q.C);
  }
  ++RequestsOk;
  return Error::success();
}

Error Client::ping() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;
  ipc::PacketHeader P;
  P.Type = static_cast<uint16_t>(ipc::PacketType::Ping);
  P.Seq = ++Seq;
  P.Bytes = sizeof(P);
  alignas(8) unsigned char Reply[ipc::SlotBytes];
  return transactLocked(&P, sizeof(P), Reply, ipc::PacketType::PingReply,
                        P.Seq);
}

Error Client::serverStats(ipc::StatsReplyMsg &Out) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Error E = ensureConnectedLocked())
    return E;
  ipc::PacketHeader P;
  P.Type = static_cast<uint16_t>(ipc::PacketType::StatsRequest);
  P.Seq = ++Seq;
  P.Bytes = sizeof(P);
  alignas(8) unsigned char Reply[ipc::SlotBytes];
  if (Error E = transactLocked(&P, sizeof(P), Reply,
                               ipc::PacketType::StatsReply, P.Seq))
    return E;
  std::memcpy(&Out, Reply, sizeof(Out));
  return Error::success();
}

} // namespace gemm
