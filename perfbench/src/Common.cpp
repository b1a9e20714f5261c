//===- Common.cpp - Shared pieces of the perfbench binary -----------------===//

#include "Common.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sys/wait.h>
#include <unistd.h>

namespace perfbench {

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = P / 100.0 * double(V.size() - 1);
  const size_t Lo = size_t(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

void Metrics::set(const std::string &Name, double Value,
                  const std::string &Unit) {
  // JSON has no NaN/Inf; a ratio over an empty window reads 0.
  if (!std::isfinite(Value))
    Value = 0;
  for (Entry &E : Entries)
    if (E.Name == Name) {
      E.Value = Value;
      E.Unit = Unit;
      return;
    }
  Entries.push_back({Name, Unit, Value});
}

std::string Metrics::json() const {
  std::string S = "{";
  char Buf[96];
  for (size_t I = 0; I != Entries.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.12g", Entries[I].Value);
    S += (I ? ", \"" : "\"") + Entries[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Entries[I].Unit + "\"}";
  }
  return S + "}";
}

std::string Metrics::table() const {
  std::string S;
  char Buf[160];
  for (const Entry &E : Entries) {
    std::snprintf(Buf, sizeof(Buf), "  %-28s %14.6g %s\n", E.Name.c_str(),
                  E.Value, E.Unit.c_str());
    S += Buf;
  }
  return S;
}

void reportMiss(const char *Fmt, ...) {
  std::va_list Args;
  va_start(Args, Fmt);
  std::fputs("perfbench: verification miss: ", stderr);
  std::vfprintf(stderr, Fmt, Args);
  std::fputc('\n', stderr);
  va_end(Args);
}

//===----------------------------------------------------------------------===//
// Freivalds probe
//===----------------------------------------------------------------------===//

void Freivalds::prepare(int64_t MIn, int64_t NIn, int64_t KIn,
                        const float *A, const float *B, uint64_t Seed) {
  M = MIn;
  N = NIn;
  K = KIn;
  Rng R(Seed);
  X.assign(size_t(N), 0);
  for (double &V : X)
    V = (R.next() & 1) ? 1.0 : -1.0;
  std::vector<double> Bx(size_t(K), 0), AbsBx(size_t(K), 0);
  for (int64_t J = 0; J < N; ++J)
    for (int64_t P = 0; P < K; ++P) {
      const double V = B[P + J * K];
      Bx[size_t(P)] += V * X[size_t(J)];
      AbsBx[size_t(P)] += std::fabs(V);
    }
  Y.assign(size_t(M), 0);
  Bound.assign(size_t(M), 0);
  for (int64_t P = 0; P < K; ++P)
    for (int64_t I = 0; I < M; ++I) {
      const double V = A[I + P * M];
      Y[size_t(I)] += V * Bx[size_t(P)];
      Bound[size_t(I)] += std::fabs(V) * AbsBx[size_t(P)];
    }
}

uint64_t Freivalds::check(const float *C, const std::string &What) const {
  // Rounding error of an f32 dot product of depth K grows like
  // u * sqrt(K) * |terms|, and the N per-column errors enter C x with
  // random signs. Bound[i] / sqrt(N) is the matching scale of one row's
  // terms, and the factor 8 leaves two orders of magnitude of headroom
  // while one wrong element of C (error ~ |c|) still shows.
  const double U = 0x1p-24;
  const double Scale = 8 * U * std::sqrt(double(K)) / std::sqrt(double(N));
  std::vector<double> Cx(size_t(M), 0);
  for (int64_t J = 0; J < N; ++J)
    for (int64_t I = 0; I < M; ++I)
      Cx[size_t(I)] += double(C[I + J * M]) * X[size_t(J)];
  uint64_t Misses = 0;
  for (int64_t I = 0; I < M; ++I) {
    const double Diff = std::fabs(Cx[size_t(I)] - Y[size_t(I)]);
    if (!(Diff <= Scale * Bound[size_t(I)] + 1e-6)) {
      if (Misses < 3)
        reportMiss("%s: row %lld of C x is off by %g (bound %g)",
                   What.c_str(), (long long)I, Diff,
                   Scale * Bound[size_t(I)]);
      ++Misses;
    }
  }
  return Misses ? 1 : 0;
}

void Window::append(const Window &O) {
  OpMs.insert(OpMs.end(), O.OpMs.begin(), O.OpMs.end());
  BusySeconds += O.BusySeconds;
  Attempted += O.Attempted;
  Failed += O.Failed;
  for (auto [Dst, Src] : {std::pair{&KindMs, &O.KindMs}, {&KeyMs, &O.KeyMs}}) {
    if (Dst->size() < Src->size())
      Dst->resize(Src->size());
    for (size_t K = 0; K != Src->size(); ++K)
      (*Dst)[K].insert((*Dst)[K].end(), (*Src)[K].begin(), (*Src)[K].end());
  }
  for (auto &[Name, V] : O.Series)
    Series[Name].insert(Series[Name].end(), V.begin(), V.end());
}

QuietMix quietMix(const std::vector<std::vector<double>> &KindMs) {
  std::vector<std::pair<double, double>> Kinds; // (quiet ms, op count)
  double Ops = 0, Sum = 0;
  for (const std::vector<double> &V : KindMs)
    if (!V.empty()) {
      Kinds.push_back({quietMs(V), double(V.size())});
      Ops += double(V.size());
      Sum += Kinds.back().first * double(V.size());
    }
  QuietMix Mix;
  if (Kinds.empty())
    return Mix;
  std::sort(Kinds.begin(), Kinds.end());
  auto At = [&](double P) {
    double Seen = 0;
    for (auto &[Ms, N] : Kinds)
      if ((Seen += N) >= P / 100 * Ops)
        return Ms;
    return Kinds.back().first;
  };
  Mix.P50 = At(50);
  Mix.P90 = At(90);
  Mix.MeanMs = Sum / Ops;
  return Mix;
}

//===----------------------------------------------------------------------===//
// Span harvesting
//===----------------------------------------------------------------------===//

void SpanTotals::harvest() {
  std::map<std::string, obs::StageStat> Now = obs::stageTotals();
  if (!Written && !Now.empty() && !TracePath.empty()) {
    if (exo::Error E = obs::writeChromeTrace(TracePath))
      std::fprintf(stderr, "perfbench: chrome trace: %s\n",
                   E.message().c_str());
    Written = true;
  }
  obs::clear();
  for (auto &[Name, St] : Now) {
    obs::StageStat &Dst = Sum[Name];
    Dst.Seconds += St.Seconds;
    Dst.Count += St.Count;
  }
}

void SpanTotals::add(const SpanTotals &O) {
  for (auto &[Name, St] : O.Sum) {
    obs::StageStat &Dst = Sum[Name];
    Dst.Seconds += St.Seconds;
    Dst.Count += St.Count;
  }
}

double SpanTotals::ms(const std::string &Name) const {
  auto It = Sum.find(Name);
  return It == Sum.end() ? 0 : It->second.Seconds * 1e3;
}

uint64_t SpanTotals::count(const std::string &Name) const {
  auto It = Sum.find(Name);
  return It == Sum.end() ? 0 : It->second.Count;
}

double SpanTotals::meanUs(const std::string &Name) const {
  const uint64_t N = count(Name);
  return N ? ms(Name) * 1e3 / double(N) : 0;
}

//===----------------------------------------------------------------------===//
// Private state and cold set-up in children
//===----------------------------------------------------------------------===//

void usePrivateState(const std::string &Dir) {
  namespace fs = std::filesystem;
  const std::string Abs = fs::absolute(Dir).string();
  for (const char *Sub : {"jit", "prior", "tmp"})
    fs::create_directories(Abs + "/" + Sub);
  setenv("EXO_JIT_CACHE_DIR", (Abs + "/jit").c_str(), 1);
  setenv("EXO_GEMM_PRIOR_DB", (Abs + "/prior").c_str(), 1);
  setenv("EXO_JIT_DIR", (Abs + "/tmp").c_str(), 1);
  setenv("TMPDIR", (Abs + "/tmp").c_str(), 1);
}

void setupInChildren(Workload &W, int Reps, const std::string &Base,
                     std::vector<double> &Seconds, uint64_t &Attempted,
                     uint64_t &Failed) {
  for (int Rep = 0; Rep < Reps; ++Rep) {
    const std::string Dir = Base + "/setup-" + std::to_string(Rep);
    int Fds[2];
    if (pipe(Fds) != 0) {
      std::perror("perfbench: pipe");
      std::exit(2);
    }
    std::fflush(nullptr);
    const pid_t Pid = fork();
    if (Pid < 0) {
      std::perror("perfbench: fork");
      std::exit(2);
    }
    if (Pid == 0) {
      close(Fds[0]);
      usePrivateState(Dir);
      SetupResult R = W.setUp();
      W.tearDown();
      double Msg[3] = {R.Seconds, double(R.Attempted), double(R.Failed)};
      const bool Sent = write(Fds[1], Msg, sizeof(Msg)) == sizeof(Msg);
      close(Fds[1]);
      std::fflush(nullptr);
      _exit(Sent ? 0 : 1);
    }
    close(Fds[1]);
    double Msg[3] = {0, 0, 0};
    const bool Got = read(Fds[0], Msg, sizeof(Msg)) == sizeof(Msg);
    close(Fds[0]);
    int Status = 0;
    waitpid(Pid, &Status, 0);
    std::error_code Ec;
    std::filesystem::remove_all(Dir, Ec);
    if (!Got || !WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
      std::fprintf(stderr, "perfbench: set-up child %d failed\n", Rep);
      ++Attempted;
      ++Failed;
      continue;
    }
    Seconds.push_back(Msg[0]);
    Attempted += uint64_t(Msg[1]);
    Failed += uint64_t(Msg[2]);
  }
}

} // namespace perfbench
