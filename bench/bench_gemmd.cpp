//===- bench_gemmd.cpp - gemmd saturation: req/s vs client count ----------===//
//
// What the daemon transport costs and how it scales: an in-process
// gemmd::Server on a private socket, then 1/2/4/8 concurrent client
// sessions (one thread + one gemm::Client each) hammering the same GEMM
// shape for the time budget. Three shapes by default:
//
//   256^3   rows clients1/2/4 — governed multi-thread teams (33.5 MFLOP)
//   144^3   rows s144_clients1/2 — about 6 MFLOP, just above the
//           governor's 2-member floor: a 2-wide team per request
//   32^3    rows s32_clients1/2/4/8 — tiny requests, where transport and
//           wake-ups dominate; 8 clients oversubscribe a 4-CPU host
//
// (--smoke: 64^3 at 1 and 2 clients only; --big: 512^3 at 1/2/4/8 in
// place of 256^3). Rows per client count:
//
//   gemmd  req_per_s (better=higher)  — aggregate completed requests/s,
//          with aggregate GFLOPS and the per-call mean riding along as
//          extras
//   gemmd  lat_us_p50, lat_us_p99 (better=lower) — round-trip latency of
//          one completed request (client call to return), over every
//          request of every client
//
// plus one "local" baseline row: the first shape through an in-process
// Engine::sgemm on one thread — the ceiling the IPC round trip (staging
// copies + doorbells + scheduling) is measured against.
//
// The first remote call is verified bitwise against the local Engine
// before anything is timed (the gemmd correctness contract; the real
// gate lives in daemon_test).
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "daemon/Server.h"
#include "ipc/Client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <unistd.h>

using namespace gemm;

namespace {

std::string uniqueSocketPath() {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "/tmp/exo-gemmd-bench-%ld.sock",
                static_cast<long>(::getpid()));
  return Buf;
}

struct LoadPoint {
  uint64_t Requests = 0;
  double Seconds = 0;
  std::vector<double> LatUs; ///< per completed request, sorted
  double reqPerS() const { return Requests / Seconds; }
  /// Nearest-rank percentile of LatUs (0 when empty).
  double latUs(double Pct) const {
    if (LatUs.empty())
      return 0.0;
    size_t Rank = static_cast<size_t>(Pct / 100.0 * LatUs.size());
    return LatUs[std::min(Rank, LatUs.size() - 1)];
  }
};

/// \p Clients sessions flat-out for \p Budget seconds. Sessions connect
/// and warm up before the clock starts, so this measures the steady
/// state, not handshakes.
LoadPoint runLoad(const std::string &Socket, int Clients, int64_t S,
                  double Budget) {
  std::vector<std::unique_ptr<Client>> Cs;
  std::vector<std::vector<float>> As(Clients), Bs(Clients), Ccs(Clients);
  for (int I = 0; I != Clients; ++I) {
    Client::Options O;
    O.SocketPath = Socket;
    Cs.push_back(std::make_unique<Client>(O));
    As[I].resize(S * S);
    Bs[I].resize(S * S);
    Ccs[I].resize(S * S);
    benchutil::fillRandom(As[I].data(), As[I].size(), 11 + I);
    benchutil::fillRandom(Bs[I].data(), Bs[I].size(), 22 + I);
    // Warm-up call: connect + plan-cache hit path established.
    Cs[I]->sgemm(S, S, S, 1.f, As[I].data(), S, Bs[I].data(), S, 0.f,
                 Ccs[I].data(), S);
  }
  std::atomic<bool> Stop{false};
  std::vector<std::vector<double>> Lat(Clients); ///< per thread, us
  std::vector<std::thread> Ts;
  for (int I = 0; I != Clients; ++I)
    Ts.emplace_back([&, I] {
      while (!Stop.load(std::memory_order_relaxed)) {
        auto T0 = std::chrono::steady_clock::now();
        if (!Cs[I]->sgemm(S, S, S, 1.f, As[I].data(), S, Bs[I].data(), S,
                          0.f, Ccs[I].data(), S))
          Lat[I].push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - T0)
                               .count());
      }
    });
  auto Start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(Budget));
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &T : Ts)
    T.join();
  LoadPoint P;
  P.Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  for (const std::vector<double> &L : Lat)
    P.LatUs.insert(P.LatUs.end(), L.begin(), L.end());
  std::sort(P.LatUs.begin(), P.LatUs.end());
  P.Requests = P.LatUs.size();
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("gemmd", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::printf("gemmd saturation: req/s and aggregate GFLOPS vs concurrent "
              "clients (one shared daemon engine)\n");

  // One load per shape; the first one's rows keep the bare "clientsN"
  // labels and it is the shape the local row and the probe use.
  struct Load {
    int64_t S;
    std::vector<int> ClientCounts;
    std::string Prefix;
  };
  std::vector<Load> Loads;
  if (Opt.Smoke)
    Loads = {{64, {1, 2}, ""}};
  else
    Loads = {{Opt.Big ? 512 : 256,
              Opt.Big ? std::vector<int>{1, 2, 4, 8}
                      : std::vector<int>{1, 2, 4},
              ""},
             {144, {1, 2}, "s144_"},
             {32, {1, 2, 4, 8}, "s32_"}};
  const int64_t S = Loads.front().S;
  const double Flops = 2.0 * S * S * S;

  gemmd::ServerOptions SO;
  SO.SocketPath = uniqueSocketPath();
  gemmd::Server Server(SO);
  if (exo::Error E = Server.start()) {
    std::fprintf(stderr, "gemmd server: %s\n", E.message().c_str());
    return 1;
  }

  // Correctness first: the remote result must equal the local Engine's
  // bitwise before any number is reported.
  Engine Local;
  {
    std::vector<float> A(S * S), B(S * S), CR(S * S, 1.f), CL(S * S, 1.f);
    benchutil::fillRandom(A.data(), A.size(), 11);
    benchutil::fillRandom(B.data(), B.size(), 22);
    Client::Options CO;
    CO.SocketPath = SO.SocketPath;
    Client Probe(CO);
    exo::Error E1 =
        Probe.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, CR.data(), S);
    exo::Error E2 =
        Local.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, CL.data(), S);
    if (E1 || E2) {
      std::fprintf(stderr, "gemm failed: %s\n",
                   (E1 ? E1 : E2).message().c_str());
      return 1;
    }
    if (std::memcmp(CR.data(), CL.data(), CR.size() * sizeof(float)) != 0) {
      std::fprintf(stderr, "WRONG RESULT: remote differs from local Engine "
                           "at %lld\n",
                   static_cast<long long>(S));
      return 1;
    }
  }

  benchutil::Table T("gemmd_saturation",
                     {"load", "req_per_s", "agg_gflops", "ms_per_req",
                      "p50_us", "p99_us"},
                     Opt.Csv);

  // The local ceiling: one thread, no transport.
  benchutil::Measurement MLocal;
  {
    std::vector<float> A(S * S), B(S * S), C(S * S);
    benchutil::fillRandom(A.data(), A.size(), 11);
    benchutil::fillRandom(B.data(), B.size(), 22);
    MLocal = benchutil::measure(
        [&] {
          Local.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 0.f, C.data(),
                      S);
        },
        Opt.Seconds);
  }
  double LocalReqPerS = 1.0 / MLocal.SecondsPerCall;
  {
    // Timed as a mean over repetitions: no per-call percentiles.
    char Cells[3][32];
    std::snprintf(Cells[0], sizeof(Cells[0]), "%.2f", LocalReqPerS);
    std::snprintf(Cells[1], sizeof(Cells[1]), "%.2f",
                  benchutil::gflops(Flops, MLocal.SecondsPerCall));
    std::snprintf(Cells[2], sizeof(Cells[2]), "%.2f",
                  MLocal.SecondsPerCall * 1e3);
    T.addRow({"local", Cells[0], Cells[1], Cells[2], "-", "-"});
  }
  {
    benchutil::ReportRow Row;
    Row.Label = "local";
    Row.Series = "local";
    Row.Metric = "req_per_s";
    Row.Better = "higher";
    Row.Value = LocalReqPerS;
    Row.SecondsPerCall = MLocal.SecondsPerCall;
    Row.Reps = MLocal.Reps;
    Row.Threads = resolveGemmThreads(0);
    Row.M = Row.N = Row.K = S;
    Row.Extra["clients"] = 0;
    Row.Extra["agg_gflops"] =
        benchutil::gflops(Flops, MLocal.SecondsPerCall);
    Ctx.Rep.addRow(std::move(Row));
  }

  for (const Load &L : Loads) {
    const double LoadFlops = 2.0 * L.S * L.S * L.S;
    for (int Clients : L.ClientCounts) {
      LoadPoint P = runLoad(SO.SocketPath, Clients, L.S, Opt.Seconds);
      double AggGflops =
          benchutil::gflops(LoadFlops * P.Requests, P.Seconds);
      double MsPerReq =
          P.Requests ? P.Seconds / P.Requests * 1e3 * Clients : 0.0;
      const std::string Label =
          L.Prefix + "clients" + std::to_string(Clients);
      T.addRow(Label, {P.reqPerS(), AggGflops, MsPerReq, P.latUs(50),
                       P.latUs(99)});

      benchutil::ReportRow Row;
      Row.Label = Label;
      Row.Series = "gemmd";
      Row.Metric = "req_per_s";
      Row.Better = "higher";
      Row.Value = P.reqPerS();
      Row.SecondsPerCall = P.Requests ? P.Seconds / P.Requests : 0.0;
      Row.Reps = static_cast<int64_t>(P.Requests);
      Row.Threads = resolveGemmThreads(0);
      Row.M = Row.N = Row.K = L.S;
      Row.Extra["clients"] = Clients;
      Row.Extra["agg_gflops"] = AggGflops;
      for (auto [Metric, Pct] :
           {std::pair<const char *, double>{"lat_us_p50", 50},
            {"lat_us_p99", 99}}) {
        benchutil::ReportRow LatRow = Row;
        LatRow.Metric = Metric;
        LatRow.Better = "lower";
        LatRow.Value = P.latUs(Pct);
        LatRow.Extra.erase("agg_gflops");
        Ctx.Rep.addRow(std::move(LatRow));
      }
      Ctx.Rep.addRow(std::move(Row));
    }
  }
  T.print();

  gemmd::ServerStats St = Server.stats();
  std::printf("daemon: %llu request(s), %llu ok, %llu busy, %llu client(s); "
              "plan %llu hit / %llu built; jit %llu compile(s)\n",
              static_cast<unsigned long long>(St.Wire.Requests),
              static_cast<unsigned long long>(St.Wire.Ok),
              static_cast<unsigned long long>(St.Wire.Busy),
              static_cast<unsigned long long>(St.Wire.TotalClients),
              static_cast<unsigned long long>(St.Wire.PlanHits),
              static_cast<unsigned long long>(St.Wire.PlanBuilds),
              static_cast<unsigned long long>(St.Wire.UkrCompiles));
  Server.stop();
  return Ctx.finish();
}
