//===- LowpMix.cpp - Workload lowp_mix ------------------------------------===//
//
// One op is one Engine::gemm call. The calls cover the ResNet-50 stage-4/5
// rows of Table I (ids 12-20, m in {196, 49}, 28 layer instances), each in
// f16, bf16 and i8->i32: 84 calls per round, in a seeded shuffle that is
// drawn again every round. One caller, engine team width 1. The loop runs
// whole rounds, so every window holds the same multiset of calls.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "dnn/Models.h"
#include "gemm/RefGemm.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

constexpr gemm::DType Types[3] = {gemm::DType::F16, gemm::DType::BF16,
                                  gemm::DType::I8I32};
constexpr const char *TypeTag[3] = {"f16", "bf16", "i8"};
constexpr size_t FirstRow = 11, LastRow = 19; // Table I ids 12..20
constexpr int SampledCols = 16;

/// One distinct (shape, dtype).
struct Key {
  int Row = 0; ///< Table I index (id - 1)
  int Ty = 0;  ///< index into Types
  int64_t M = 0, N = 0, K = 0;
  std::vector<unsigned char> A, B, C;
  /// refGemmT of a seeded sample of output columns, M x Cols.size().
  std::vector<int64_t> Cols;
  std::vector<unsigned char> Ref;
  /// Halves: ||A(i,:)|| per row and ||B(:,j)|| per sampled column.
  std::vector<float> RowNorm, ColNorm;
  /// i8: exact Freivalds probe, Y = A (B X) for X in {-1, +1}^N.
  std::vector<int64_t> X, Y;
  double flops() const { return 2.0 * double(M) * double(N) * double(K); }
};

float load(gemm::DType D, const unsigned char *P, int64_t X) {
  uint16_t H;
  std::memcpy(&H, P + X * 2, 2);
  return D == gemm::DType::F16 ? gemm::f16ToF32(H) : gemm::bf16ToF32(H);
}

/// Row norms of a half-precision A and the sampled columns' norms of B.
void norms(Key &Kc) {
  const gemm::DType D = Types[Kc.Ty];
  std::vector<double> Row(size_t(Kc.M), 0);
  for (int64_t P = 0; P < Kc.K; ++P)
    for (int64_t I = 0; I < Kc.M; ++I) {
      const double V = load(D, Kc.A.data(), I + P * Kc.M);
      Row[size_t(I)] += V * V;
    }
  for (double V : Row)
    Kc.RowNorm.push_back(float(std::sqrt(V)));
  for (int64_t J : Kc.Cols) {
    double Sum = 0;
    for (int64_t P = 0; P < Kc.K; ++P) {
      const double V = load(D, Kc.B.data(), P + J * Kc.K);
      Sum += V * V;
    }
    Kc.ColNorm.push_back(float(std::sqrt(Sum)));
  }
}

/// Prepares the exact i8 -> i32 Freivalds probe.
void probeI8(Key &Kc, Rng &R) {
  const int8_t *A = reinterpret_cast<const int8_t *>(Kc.A.data());
  const int8_t *B = reinterpret_cast<const int8_t *>(Kc.B.data());
  Kc.X.resize(size_t(Kc.N));
  for (int64_t &V : Kc.X)
    V = (R.next() & 1) ? 1 : -1;
  std::vector<int64_t> Bx(size_t(Kc.K), 0);
  for (int64_t J = 0; J < Kc.N; ++J)
    for (int64_t P = 0; P < Kc.K; ++P)
      Bx[size_t(P)] += int64_t(B[P + J * Kc.K]) * Kc.X[size_t(J)];
  Kc.Y.assign(size_t(Kc.M), 0);
  for (int64_t P = 0; P < Kc.K; ++P)
    for (int64_t I = 0; I < Kc.M; ++I)
      Kc.Y[size_t(I)] += int64_t(A[I + P * Kc.M]) * Bx[size_t(P)];
}

class LowpMix final : public Workload {
public:
  explicit LowpMix(uint64_t Seed);
  SetupResult setUp() override;
  void tearDown() override { Eng.reset(); }
  Window measure(double Seconds, SpanTotals *Spans) override;
  uint64_t verifyTimed() override;
  double gflops(const Window &W) const override;
  gemm::Engine &engine() override { return *Eng; }
  void layerMetrics(const Window &Plain, double PeakGflops,
                    Metrics &Out) override;

private:
  exo::Error call(Key &Kc);
  /// One dtype's flops over its calls' quiet latencies, in GFLOP/s.
  double typeGflops(const Window &W, int Ty) const;
  uint64_t verify(const Key &Kc, const char *When) const;

  std::vector<Key> Keys;
  std::vector<int> Round; ///< key index per call of one round
  Rng Order;
  SpanTotals ByType[3]; ///< spans of the traced windows, per dtype
  uint64_t TracedOps[3] = {0, 0, 0};
  std::unique_ptr<gemm::Engine> Eng;
};

LowpMix::LowpMix(uint64_t Seed) : Order(Seed ^ 0x5eed) {
  Rng R(Seed);
  const std::vector<dnn::LayerGemm> &Table = dnn::resnet50Layers();
  for (size_t Row = FirstRow; Row <= LastRow; ++Row) {
    const dnn::LayerGemm &L = Table[Row];
    for (int Ty = 0; Ty != 3; ++Ty) {
      Key Kc;
      Kc.Row = int(Row);
      Kc.Ty = Ty;
      Kc.M = L.M;
      Kc.N = L.N;
      Kc.K = L.K;
      const gemm::DType D = Types[Ty];
      const size_t In = gemm::dtypeInBytes(D), Out = gemm::dtypeOutBytes(D);
      Kc.A.resize(size_t(L.M * L.K) * In);
      Kc.B.resize(size_t(L.K * L.N) * In);
      Kc.C.assign(size_t(L.M * L.N) * Out, 0);
      // The dtype's comfortable range: [-1, 1) rounded to storage for the
      // halves, [-128, 127] for i8 (as in PrecisionTest).
      for (std::vector<unsigned char> *V : {&Kc.A, &Kc.B}) {
        const size_t Elems = V->size() / In;
        for (size_t X = 0; X != Elems; ++X) {
          if (D == gemm::DType::I8I32) {
            (*V)[X] = static_cast<unsigned char>(int8_t(R.range(-128, 127)));
            continue;
          }
          const uint16_t H = D == gemm::DType::F16 ? gemm::f32ToF16(R.unit())
                                                   : gemm::f32ToBf16(R.unit());
          std::memcpy(V->data() + X * 2, &H, 2);
        }
      }
      // References: refGemmT on a seeded sample of output columns (the
      // full oracle is O(MNK) per key), plus an exact whole-matrix
      // Freivalds probe for i8.
      for (int S = 0; S != SampledCols; ++S)
        Kc.Cols.push_back(R.range(0, L.N - 1));
      Kc.Ref.assign(size_t(L.M) * Kc.Cols.size() * Out, 0);
      for (size_t S = 0; S != Kc.Cols.size(); ++S)
        gemm::refGemmT(D, gemm::Trans::None, gemm::Trans::None, L.M, 1, L.K,
                       1.0, Kc.A.data(), L.M,
                       Kc.B.data() + size_t(Kc.Cols[S] * L.K) * In, L.K, 0.0,
                       Kc.Ref.data() + S * size_t(L.M) * Out, L.M);
      if (D == gemm::DType::I8I32)
        probeI8(Kc, R);
      else
        norms(Kc);
      const int Idx = int(Keys.size());
      Keys.push_back(std::move(Kc));
      for (int I = 0; I != L.Count; ++I)
        Round.push_back(Idx);
    }
  }
}

exo::Error LowpMix::call(Key &Kc) {
  return Eng->gemm(Types[Kc.Ty], gemm::Trans::None, gemm::Trans::None, Kc.M,
                   Kc.N, Kc.K, 1.0, Kc.A.data(), Kc.M, Kc.B.data(), Kc.K, 0.0,
                   Kc.C.data(), Kc.M);
}

uint64_t LowpMix::verify(const Key &Kc, const char *When) const {
  const gemm::DType D = Types[Kc.Ty];
  char What[80];
  std::snprintf(What, sizeof(What), "lowp_mix %s L%02d %s", When, Kc.Row + 1,
                TypeTag[Kc.Ty]);
  const int64_t M = Kc.M;
  if (D == gemm::DType::I8I32) {
    // i8 -> i32 is exact: the sampled columns bit for bit, and C X == Y in
    // integer arithmetic over the whole matrix.
    const int32_t *C = reinterpret_cast<const int32_t *>(Kc.C.data());
    const int32_t *Ref = reinterpret_cast<const int32_t *>(Kc.Ref.data());
    for (size_t S = 0; S != Kc.Cols.size(); ++S)
      if (std::memcmp(C + Kc.Cols[S] * M, Ref + S * size_t(M),
                      size_t(M) * sizeof(int32_t)) != 0) {
        reportMiss("%s: column %lld differs from refGemmT", What,
                   (long long)Kc.Cols[S]);
        return 1;
      }
    std::vector<int64_t> Cx(size_t(M), 0);
    for (int64_t J = 0; J < Kc.N; ++J)
      for (int64_t I = 0; I < M; ++I)
        Cx[size_t(I)] += int64_t(C[I + J * M]) * Kc.X[size_t(J)];
    if (Cx != Kc.Y) {
      reportMiss("%s: C x differs from A (B x)", What);
      return 1;
    }
    return 0;
  }
  // PrecisionTest's bound is four storage ULPs relative to 1 + |want|.
  // The engine rounds C to storage once per Kc depth block, so each
  // rounding is relative to a partial sum, not to the final value; at
  // PrecisionTest's depths the two agree, but at K = 512..4608 a partial
  // sum is typically ||a_i|| ||b_j|| / sqrt(K) and can far exceed |want|.
  // The bound therefore also counts that scale.
  const float Eps = D == gemm::DType::F16 ? 0x1p-10f : 0x1p-7f;
  const float RootK = std::sqrt(float(Kc.K));
  for (size_t S = 0; S != Kc.Cols.size(); ++S)
    for (int64_t I = 0; I != M; ++I) {
      const float Gf = load(D, Kc.C.data(), I + Kc.Cols[S] * M);
      const float Wf = load(D, Kc.Ref.data(), I + int64_t(S) * M);
      const float Partial = Kc.RowNorm[size_t(I)] * Kc.ColNorm[S] / RootK;
      if (!(std::fabs(Gf - Wf) <=
            4.0f * Eps * (1.0f + std::fabs(Wf) + Partial))) {
        reportMiss("%s: element (%lld, %lld) is %g, refGemmT gives %g", What,
                   (long long)I, (long long)Kc.Cols[S], Gf, Wf);
        return 1;
      }
    }
  return 0;
}

SetupResult LowpMix::setUp() {
  SetupResult R;
  R.FirstMs.assign(Keys.size(), 0.0);
  const Clock::time_point T0 = Clock::now();
  gemm::EngineConfig Cfg;
  Cfg.Threads = 1;
  Eng = std::make_unique<gemm::Engine>(Cfg);
  for (size_t I = 0; I != Keys.size(); ++I) {
    const Clock::time_point T1 = Clock::now();
    exo::Error E = call(Keys[I]);
    R.FirstMs[I] = msSince(T1);
    ++R.Attempted;
    if (E) {
      reportMiss("lowp_mix set-up L%02d %s: %s", Keys[I].Row + 1,
                 TypeTag[Keys[I].Ty], E.message().c_str());
      ++R.Failed;
    } else {
      R.Failed += verify(Keys[I], "set-up");
    }
  }
  R.Seconds = msSince(T0) * 1e-3;
  return R;
}

Window LowpMix::measure(double Seconds, SpanTotals *Spans) {
  Window W;
  W.KeyMs.resize(Keys.size());
  const Clock::time_point Start = Clock::now();
  std::vector<int> Calls = Round;
  do {
    Order.shuffle(Calls);
    for (int Idx : Calls) {
      Key &Kc = Keys[size_t(Idx)];
      const Clock::time_point T0 = Clock::now();
      exo::Error E = call(Kc);
      const double Ms = msSince(T0);
      ++W.Attempted;
      if (E) {
        reportMiss("lowp_mix L%02d %s: %s", Kc.Row + 1, TypeTag[Kc.Ty],
                   E.message().c_str());
        ++W.Failed;
      }
      W.OpMs.push_back(Ms);
      W.BusySeconds += Ms * 1e-3;
      W.KeyMs[size_t(Idx)].push_back(Ms);
      if (Spans) {
        // Harvest per call to split the spans by dtype; the chrome trace
        // shows the first traced call.
        SpanTotals Call;
        if (TracedOps[0] + TracedOps[1] + TracedOps[2] == 0)
          Call.TracePath = Spans->TracePath;
        Call.harvest();
        ByType[Kc.Ty].add(Call);
        Spans->add(Call);
        ++TracedOps[Kc.Ty];
      }
    }
  } while (msSince(Start) < Seconds * 1e3);
  W.KindMs = W.KeyMs; // a call's kind is its (shape, dtype)
  return W;
}

double LowpMix::typeGflops(const Window &W, int Ty) const {
  double Flops = 0, Ms = 0;
  for (size_t I = 0; I != Keys.size(); ++I)
    if (Keys[I].Ty == Ty && !W.KindMs[I].empty()) {
      const double N = double(W.KindMs[I].size());
      Flops += N * Keys[I].flops();
      Ms += N * quietMs(W.KindMs[I]);
    }
  return Flops / Ms * 1e-6;
}

double LowpMix::gflops(const Window &W) const {
  // The geometric mean of the per-dtype throughputs: a loss in one dtype
  // moves it by its cube root however slow that dtype is against the
  // others, where flops over total time would be all i8.
  double LogSum = 0;
  for (int Ty = 0; Ty != 3; ++Ty)
    LogSum += std::log(typeGflops(W, Ty));
  return std::exp(LogSum / 3);
}

uint64_t LowpMix::verifyTimed() {
  // Each key's output buffer holds its last timed result.
  uint64_t Miss = 0;
  for (const Key &Kc : Keys)
    Miss += verify(Kc, "timed");
  return Miss;
}

void LowpMix::layerMetrics(const Window &Plain, double, Metrics &Out) {
  Out.set("gemm.f16.gflops", typeGflops(Plain, 0), "GFLOP/s");
  Out.set("gemm.bf16.gflops", typeGflops(Plain, 1), "GFLOP/s");
  Out.set("gemm.i8.gops", typeGflops(Plain, 2), "GOP/s");
  for (int Ty = 0; Ty != 3; ++Ty) {
    const SpanTotals &S = ByType[Ty];
    const double Ops = double(TracedOps[Ty]);
    const std::string Pre = std::string("gemm.") + TypeTag[Ty];
    Out.set(Pre + ".pack_ms", (S.ms("gemm.packA") + S.ms("gemm.packB")) / Ops,
            "ms");
    Out.set(Pre + ".ukr_ms", S.ms("gemm.ukr") / Ops, "ms");
  }
}

} // namespace

std::unique_ptr<Workload> makeLowpMix(uint64_t Seed) {
  return std::make_unique<LowpMix>(Seed);
}

} // namespace perfbench
