//===- GemmdSmall.cpp - Workload gemmd_small ------------------------------===//
//
// An in-process gemmd::Server (2 executor workers, governed engine, team
// ceiling 2) on a per-pid socket. Two client threads, each with its own
// gemm::Client, issue f32 requests closed-loop, drawn uniformly from a
// seeded pool of 64 distinct (m, n, k, transA, transB) keys with dims in
// 16..128 -- fewer keys than the plan-cache cap, so plans hit.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "daemon/Server.h"
#include "gemm/RefGemm.h"
#include "ipc/Client.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <tuple>
#include <unistd.h>

namespace perfbench {
namespace {

constexpr int PoolSize = 64, Clients = 2;

struct Req {
  int64_t M = 0, N = 0, K = 0, Lda = 0, Ldb = 0;
  gemm::Trans TA = gemm::Trans::None, TB = gemm::Trans::None;
  std::vector<float> A, B, Ref;
  double flops() const { return 2.0 * double(M) * double(N) * double(K); }
};

class GemmdSmall final : public Workload {
public:
  explicit GemmdSmall(uint64_t Seed);
  SetupResult setUp() override;
  void tearDown() override;
  Window measure(double Seconds, SpanTotals *Spans) override;
  uint64_t verifyTimed() override;
  int callers() const override { return Clients; }
  double gflops(const Window &W) const override;
  gemm::Engine &engine() override { return Srv->engine(); }
  void layerMetrics(const Window &Plain, double PeakGflops,
                    Metrics &Out) override;

private:
  exo::Error call(gemm::Client &Cl, const Req &R, float *C) {
    return Cl.sgemm(R.TA, R.TB, R.M, R.N, R.K, 1.0f, R.A.data(), R.Lda,
                    R.B.data(), R.Ldb, 0.0f, C, R.M);
  }
  uint64_t verify(const Req &R, const float *C, const char *When) const;

  uint64_t Seed;
  uint64_t Windows = 0; ///< measure() calls so far; salts request order
  std::vector<Req> Pool;
  /// Output buffer per (client, key): the last timed result of each.
  std::vector<std::vector<float>> Out[Clients];
  std::string Socket;
  std::unique_ptr<gemmd::Server> Srv;
  std::unique_ptr<gemm::Client> Cls[Clients];
};

GemmdSmall::GemmdSmall(uint64_t SeedIn) : Seed(SeedIn) {
  // The team ceiling the governed engine keys its plans at.
  setenv("EXO_GEMM_GOVERNOR_MAX", "2", 1);
  // Base triples: a fixed low-discrepancy (Halton 2, 3, 5) set in
  // [16, 128]^3. The seed permutes each triple's (m, n, k) roles and draws
  // its transposes, so each seed gets its own keys while the multiset of
  // per-key work m*n*k -- and with it the throughput -- stays the same.
  auto Halton = [](int I, int Base) {
    double F = 1, V = 0;
    for (; I > 0; I /= Base) {
      F /= Base;
      V += F * (I % Base);
    }
    return int64_t(16 + V * 113);
  };
  Rng R(Seed);
  std::set<std::tuple<int64_t, int64_t, int64_t, int, int>> Seen;
  for (int I = 1; Pool.size() < PoolSize; ++I) {
    int64_t Dims[3] = {Halton(I, 2), Halton(I, 3), Halton(I, 5)};
    for (int J = 2; J > 0; --J)
      std::swap(Dims[J], Dims[R.next() % uint64_t(J + 1)]);
    Req Q;
    Q.M = Dims[0];
    Q.N = Dims[1];
    Q.K = Dims[2];
    Q.TA = (R.next() & 1) ? gemm::Trans::Transpose : gemm::Trans::None;
    Q.TB = (R.next() & 1) ? gemm::Trans::Transpose : gemm::Trans::None;
    if (!Seen.insert({Q.M, Q.N, Q.K, int(Q.TA), int(Q.TB)}).second)
      continue;
    Q.Lda = Q.TA == gemm::Trans::None ? Q.M : Q.K;
    Q.Ldb = Q.TB == gemm::Trans::None ? Q.K : Q.N;
    Q.A.resize(size_t(Q.M * Q.K));
    Q.B.resize(size_t(Q.K * Q.N));
    for (float &V : Q.A)
      V = R.unit();
    for (float &V : Q.B)
      V = R.unit();
    Q.Ref.assign(size_t(Q.M * Q.N), 0.0f);
    gemm::refGemmT(gemm::DType::F32, Q.TA, Q.TB, Q.M, Q.N, Q.K, 1.0,
                   Q.A.data(), Q.Lda, Q.B.data(), Q.Ldb, 0.0, Q.Ref.data(),
                   Q.M);
    Pool.push_back(std::move(Q));
  }
  for (auto &PerClient : Out)
    for (const Req &Q : Pool)
      PerClient.emplace_back(Q.Ref.size(), 0.0f);
}

uint64_t GemmdSmall::verify(const Req &R, const float *C,
                            const char *When) const {
  // PrecisionTest's f32 tolerance against the double-accumulating oracle.
  const float Tol = 1e-4f * float(R.K) + 1e-5f;
  for (size_t X = 0; X != R.Ref.size(); ++X)
    if (!(std::fabs(C[X] - R.Ref[X]) <= Tol)) {
      reportMiss("gemmd_small %s %lldx%lldx%lld: element %zu is %g, "
                 "refGemmT gives %g",
                 When, (long long)R.M, (long long)R.N, (long long)R.K, X,
                 C[X], R.Ref[X]);
      return 1;
    }
  return 0;
}

SetupResult GemmdSmall::setUp() {
  SetupResult R;
  R.FirstMs.assign(Pool.size(), 0.0);
  // Per-pid socket, relative to the run directory (sun_path is short).
  Socket = "gemmd-" + std::to_string(getpid()) + ".sock";
  const Clock::time_point T0 = Clock::now();
  gemmd::ServerOptions SO;
  SO.SocketPath = Socket;
  SO.Workers = 2;
  SO.Engine.Governor = 1;
  Srv = std::make_unique<gemmd::Server>(SO);
  if (exo::Error E = Srv->start()) {
    std::fprintf(stderr, "perfbench: gemmd start: %s\n", E.message().c_str());
    std::exit(2);
  }
  gemm::Client::Options CO;
  CO.SocketPath = Socket;
  gemm::Client Cl(CO);
  std::vector<float> C;
  for (size_t I = 0; I != Pool.size(); ++I) {
    const Req &Q = Pool[I];
    C.assign(Q.Ref.size(), 0.0f);
    const Clock::time_point T1 = Clock::now();
    exo::Error E = call(Cl, Q, C.data());
    R.FirstMs[I] = msSince(T1);
    ++R.Attempted;
    if (E) {
      reportMiss("gemmd_small set-up %lldx%lldx%lld: %s", (long long)Q.M,
                 (long long)Q.N, (long long)Q.K, E.message().c_str());
      ++R.Failed;
    } else {
      R.Failed += verify(Q, C.data(), "set-up");
    }
  }
  R.Seconds = msSince(T0) * 1e-3;
  return R;
}

void GemmdSmall::tearDown() {
  for (auto &Cl : Cls)
    Cl.reset();
  if (Srv)
    Srv->stop();
  Srv.reset();
}

Window GemmdSmall::measure(double Seconds, SpanTotals *Spans) {
  for (int T = 0; T != Clients; ++T)
    if (!Cls[T]) {
      gemm::Client::Options CO;
      CO.SocketPath = Socket;
      Cls[T] = std::make_unique<gemm::Client>(CO);
      if (exo::Error E = Cls[T]->connect()) {
        std::fprintf(stderr, "perfbench: gemmd connect: %s\n",
                     E.message().c_str());
        std::exit(2);
      }
    }
  struct PerThread {
    std::vector<double> OpMs;
    std::vector<std::vector<double>> KeyMs;
    uint64_t Attempted = 0, Failed = 0;
  } Res[Clients];
  std::atomic<bool> Stop{false};
  const uint64_t Salt = ++Windows;
  auto Loop = [&](int T) {
    PerThread &P = Res[T];
    P.KeyMs.resize(Pool.size());
    Rng R(Seed * 31 + Salt * 7 + uint64_t(T));
    while (!Stop.load(std::memory_order_relaxed)) {
      const size_t I = size_t(R.range(0, PoolSize - 1));
      const Clock::time_point T0 = Clock::now();
      exo::Error E = call(*Cls[T], Pool[I], Out[T][I].data());
      const double Ms = msSince(T0);
      ++P.Attempted;
      if (E) {
        reportMiss("gemmd_small request: %s", E.message().c_str());
        ++P.Failed;
        continue;
      }
      P.OpMs.push_back(Ms);
      P.KeyMs[I].push_back(Ms);
    }
  };
  const Clock::time_point Start = Clock::now();
  std::vector<std::thread> Threads;
  for (int T = 0; T != Clients; ++T)
    Threads.emplace_back(Loop, T);
  while (msSince(Start) < Seconds * 1e3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (Spans)
      Spans->harvest(); // bounds trace memory at ~25k requests/s
  }
  Stop = true;
  for (std::thread &Th : Threads)
    Th.join();
  Window W;
  W.BusySeconds = msSince(Start) * 1e-3;
  if (Spans)
    Spans->harvest();
  W.KeyMs.resize(Pool.size());
  for (PerThread &P : Res) {
    W.OpMs.insert(W.OpMs.end(), P.OpMs.begin(), P.OpMs.end());
    for (size_t I = 0; I != Pool.size(); ++I)
      W.KeyMs[I].insert(W.KeyMs[I].end(), P.KeyMs[I].begin(),
                        P.KeyMs[I].end());
    W.Attempted += P.Attempted;
    W.Failed += P.Failed;
  }
  W.KindMs = W.KeyMs; // a request's kind is its key
  return W;
}

double GemmdSmall::gflops(const Window &W) const {
  // Closed loop: the callers' requests in flight over the mean quiet
  // latency give the request rate.
  double Flops = 0, Ms = 0;
  for (size_t I = 0; I != Pool.size(); ++I)
    if (!W.KindMs[I].empty()) {
      const double N = double(W.KindMs[I].size());
      Flops += N * Pool[I].flops();
      Ms += N * quietMs(W.KindMs[I]);
    }
  return Clients * Flops / Ms * 1e-6;
}

uint64_t GemmdSmall::verifyTimed() {
  uint64_t Miss = 0;
  for (int T = 0; T != Clients; ++T)
    for (size_t I = 0; I != Pool.size(); ++I)
      Miss += verify(Pool[I], Out[T][I].data(), "timed");
  return Miss;
}

void GemmdSmall::layerMetrics(const Window &Plain, double, Metrics &Out) {
  // The same pool on the server's engine directly, one caller, after the
  // load windows: the floor under the client round trip.
  Rng R(Seed * 131 + 1);
  std::vector<double> LocalUs;
  std::vector<float> C;
  const Clock::time_point Start = Clock::now();
  while (msSince(Start) < 500) {
    const Req &Q = Pool[size_t(R.range(0, PoolSize - 1))];
    C.assign(Q.Ref.size(), 0.0f);
    const Clock::time_point T0 = Clock::now();
    exo::Error E = Srv->engine().sgemm(Q.TA, Q.TB, Q.M, Q.N, Q.K, 1.0f,
                                       Q.A.data(), Q.Lda, Q.B.data(), Q.Ldb,
                                       0.0f, C.data(), Q.M);
    LocalUs.push_back(msSince(T0) * 1e3);
    if (E)
      reportMiss("gemmd_small local: %s", E.message().c_str());
  }
  Out.set("daemon.local_us_p50", median(LocalUs), "us");
  Out.set("ipc.call_us_p99", percentile(Plain.OpMs, 99) * 1e3, "us");
  const gemmd::ServerStats St = Srv->stats();
  Out.set("daemon.busy", double(St.Wire.Busy), "count");
  Out.set("daemon.errors", double(St.Wire.Errors), "count");
}

} // namespace

std::unique_ptr<Workload> makeGemmdSmall(uint64_t Seed) {
  return std::make_unique<GemmdSmall>(Seed);
}

} // namespace perfbench
