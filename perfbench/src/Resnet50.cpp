//===- Resnet50.cpp - Workload resnet50_f32 -------------------------------===//
//
// One op is one ResNet-50 v1.5 batch-1 forward pass: the 53 conv layer
// instances of the paper's Table I in model order, each dnn::im2row on a
// seeded HWC activation followed by Engine::sgemm against weights that
// dnn::weightsToMatrix reshaped once while the inputs were built. One
// caller, engine team width 1 (the paper's single-core method).
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "dnn/Conv.h"
#include "dnn/Models.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {
namespace {

/// Conv parameters of one Table I row, as ResNet-50 v1.5 runs it: square
/// kernels and inputs, the stride on the 3x3 of a stage's first block.
struct RowConv {
  int64_t InC, OutC, InHW, Kk, Stride, Pad;
  /// The row's first-listed layer is its stage's first 3x3 and reads the
  /// previous stage's twice-as-large map at stride 2; same (M, N, K).
  bool FirstDownsamples;
};

// Indexed by Table I id - 1 (dnn::resnet50Layers() order).
constexpr RowConv Rows[20] = {
    {3, 64, 224, 7, 2, 3, false},      // 1: conv1
    {64, 64, 56, 1, 1, 0, false},      // 2
    {64, 64, 56, 3, 1, 1, false},      // 3
    {64, 256, 56, 1, 1, 0, false},     // 4 (expansions + projection)
    {256, 64, 56, 1, 1, 0, false},     // 5
    {256, 128, 56, 1, 1, 0, false},    // 6
    {128, 128, 28, 3, 1, 1, true},     // 7
    {128, 512, 28, 1, 1, 0, false},    // 8
    {256, 512, 56, 1, 2, 0, false},    // 9: stride-2 projection
    {512, 128, 28, 1, 1, 0, false},    // 10
    {512, 256, 28, 1, 1, 0, false},    // 11
    {256, 256, 14, 3, 1, 1, true},     // 12
    {256, 1024, 14, 1, 1, 0, false},   // 13
    {512, 1024, 28, 1, 2, 0, false},   // 14: stride-2 projection
    {1024, 256, 14, 1, 1, 0, false},   // 15
    {1024, 512, 14, 1, 1, 0, false},   // 16
    {512, 512, 7, 3, 1, 1, true},      // 17
    {512, 2048, 7, 1, 1, 0, false},    // 18
    {1024, 2048, 14, 1, 2, 0, false},  // 19: stride-2 projection
    {2048, 512, 7, 1, 1, 0, false},    // 20
};

dnn::ConvParams convOf(const RowConv &R, bool Downsample) {
  dnn::ConvParams P;
  P.InC = R.InC;
  P.OutC = R.OutC;
  P.InH = P.InW = Downsample ? 2 * R.InHW : R.InHW;
  P.Kh = P.Kw = R.Kk;
  P.Stride = Downsample ? 2 : R.Stride;
  P.Pad = R.Pad;
  return P;
}

/// Parses "009/021/031" into layer numbers.
std::vector<int> layerNumbers(const std::string &S) {
  std::vector<int> Out;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t End = S.find('/', Pos);
    if (End == std::string::npos)
      End = S.size();
    Out.push_back(std::atoi(S.substr(Pos, End - Pos).c_str()));
    Pos = End + 1;
  }
  return Out;
}

/// A sampled output point checked against a direct convolution.
struct Sample {
  int64_t Row, Oc;
  double Ref, Mag;
};

/// One distinct conv (a row, or a row's downsampling first layer).
struct Conv {
  int Row = 0; ///< Table I index (id - 1)
  bool Down = false;
  dnn::ConvParams P;
  std::vector<float> In; ///< seeded HWC activation
  std::vector<float> C;  ///< column-major (pixel, oc) output
  Freivalds Probe;
  std::vector<Sample> Samples;
};

class Resnet50 final : public Workload {
public:
  explicit Resnet50(uint64_t Seed);
  SetupResult setUp() override;
  void tearDown() override { Eng.reset(); }
  Window measure(double Seconds, SpanTotals *Spans) override;
  uint64_t verifyTimed() override;
  QuietMix quiet(const Window &W) const override;
  double gflops(const Window &W) const override {
    return PassFlops / quiet(W).P50 * 1e-6;
  }
  gemm::Engine &engine() override { return *Eng; }
  void layerMetrics(const Window &Plain, double PeakGflops,
                    Metrics &Out) override;

private:
  exo::Error runConv(Conv &Cv);
  uint64_t verify(const Conv &Cv, const char *When) const;

  std::vector<std::vector<float>> Weights; ///< per row, K x N
  std::vector<Conv> Convs;
  std::vector<int> PassOrder; ///< conv index per layer instance
  std::vector<float> A;       ///< im2row scratch
  double PassFlops = 0;
  std::unique_ptr<gemm::Engine> Eng;
};

Resnet50::Resnet50(uint64_t Seed) {
  Rng R(Seed);
  const std::vector<dnn::LayerGemm> &Table = dnn::resnet50Layers();
  // (layer number, conv index) for every instance, then model order.
  std::vector<std::pair<int, int>> Instances;
  size_t MaxA = 0;
  for (size_t Row = 0; Row != Table.size(); ++Row) {
    const RowConv &RC = Rows[Row];
    const dnn::ConvParams P = convOf(RC, false);
    std::vector<float> W(size_t(P.Kh * P.Kw * P.InC * P.OutC));
    for (float &V : W)
      V = R.unit();
    Weights.emplace_back(size_t(P.gemmK() * P.gemmN()));
    dnn::weightsToMatrix(P, W.data(), Weights.back().data());

    const std::vector<int> Layers = layerNumbers(Table[Row].Layers);
    int Plain = -1;
    for (size_t I = 0; I != Layers.size(); ++I) {
      const bool Down = RC.FirstDownsamples && I == 0;
      if (!Down && Plain >= 0) {
        Instances.push_back({Layers[I], Plain});
        continue;
      }
      Conv Cv;
      Cv.Row = int(Row);
      Cv.Down = Down;
      Cv.P = convOf(RC, Down);
      Cv.In.resize(size_t(Cv.P.InH * Cv.P.InW * Cv.P.InC));
      for (float &V : Cv.In)
        V = R.unit();
      Cv.C.assign(size_t(Cv.P.gemmM() * Cv.P.gemmN()), 0.0f);
      // References: a Freivalds probe of the GEMM and a few output points
      // by direct convolution from the raw activation and weights.
      const int64_t M = Cv.P.gemmM(), N = Cv.P.gemmN(), K = Cv.P.gemmK();
      A.resize(size_t(M * K));
      dnn::im2row(Cv.P, Cv.In.data(), A.data());
      Cv.Probe.prepare(M, N, K, A.data(), Weights.back().data(), R.next());
      for (int S = 0; S != 8; ++S) {
        Sample Sm{R.range(0, M - 1), R.range(0, N - 1), 0, 0};
        const int64_t Oh = Sm.Row / Cv.P.outW(), Ow = Sm.Row % Cv.P.outW();
        for (int64_t Kh = 0; Kh < Cv.P.Kh; ++Kh)
          for (int64_t Kw = 0; Kw < Cv.P.Kw; ++Kw) {
            const int64_t Ih = Oh * Cv.P.Stride - Cv.P.Pad + Kh;
            const int64_t Iw = Ow * Cv.P.Stride - Cv.P.Pad + Kw;
            if (Ih < 0 || Ih >= Cv.P.InH || Iw < 0 || Iw >= Cv.P.InW)
              continue;
            for (int64_t Ch = 0; Ch < Cv.P.InC; ++Ch) {
              const double X = Cv.In[size_t((Ih * Cv.P.InW + Iw) * Cv.P.InC +
                                            Ch)];
              const double Wt = W[size_t(
                  ((Kh * Cv.P.Kw + Kw) * Cv.P.InC + Ch) * Cv.P.OutC + Sm.Oc)];
              Sm.Ref += X * Wt;
              Sm.Mag += std::fabs(X * Wt);
            }
          }
        Cv.Samples.push_back(Sm);
      }
      MaxA = std::max(MaxA, A.size());
      Instances.push_back({Layers[I], int(Convs.size())});
      if (!Down)
        Plain = int(Convs.size());
      Convs.push_back(std::move(Cv));
    }
  }
  std::sort(Instances.begin(), Instances.end());
  for (auto &[Layer, Idx] : Instances) {
    PassOrder.push_back(Idx);
    const dnn::ConvParams &P = Convs[size_t(Idx)].P;
    PassFlops += 2.0 * double(P.gemmM()) * double(P.gemmN()) *
                 double(P.gemmK());
  }
  A.assign(MaxA, 0.0f);
}

exo::Error Resnet50::runConv(Conv &Cv) {
  const int64_t M = Cv.P.gemmM(), N = Cv.P.gemmN(), K = Cv.P.gemmK();
  return Eng->sgemm(M, N, K, 1.0f, A.data(), M,
                    Weights[size_t(Cv.Row)].data(), K, 0.0f, Cv.C.data(), M);
}

uint64_t Resnet50::verify(const Conv &Cv, const char *When) const {
  char What[64];
  std::snprintf(What, sizeof(What), "resnet50 %s L%02d%s", When, Cv.Row + 1,
                Cv.Down ? " (stride 2)" : "");
  uint64_t Miss = Cv.Probe.check(Cv.C.data(), What);
  const int64_t M = Cv.P.gemmM(), K = Cv.P.gemmK();
  for (const Sample &S : Cv.Samples) {
    const double Got = Cv.C[size_t(S.Row + S.Oc * M)];
    const double Tol = 8 * 0x1p-24 * std::sqrt(double(K)) * S.Mag + 1e-6;
    if (!(std::fabs(Got - S.Ref) <= Tol)) {
      reportMiss("%s: output (%lld, %lld) is %g, direct conv gives %g", What,
                 (long long)S.Row, (long long)S.Oc, Got, S.Ref);
      Miss = 1;
    }
  }
  return Miss;
}

SetupResult Resnet50::setUp() {
  SetupResult R;
  R.FirstMs.assign(20, -1.0);
  std::vector<bool> Done(Convs.size(), false);
  const Clock::time_point T0 = Clock::now();
  gemm::EngineConfig Cfg;
  Cfg.Threads = 1;
  Eng = std::make_unique<gemm::Engine>(Cfg);
  for (int Idx : PassOrder) {
    if (Done[size_t(Idx)])
      continue;
    Done[size_t(Idx)] = true;
    Conv &Cv = Convs[size_t(Idx)];
    dnn::im2row(Cv.P, Cv.In.data(), A.data());
    const Clock::time_point T1 = Clock::now();
    exo::Error E = runConv(Cv);
    if (R.FirstMs[size_t(Cv.Row)] < 0)
      R.FirstMs[size_t(Cv.Row)] = msSince(T1);
    ++R.Attempted;
    if (E) {
      reportMiss("resnet50 set-up L%02d: %s", Cv.Row + 1,
                 E.message().c_str());
      ++R.Failed;
    } else {
      R.Failed += verify(Cv, "set-up");
    }
  }
  R.Seconds = msSince(T0) * 1e-3;
  return R;
}

Window Resnet50::measure(double Seconds, SpanTotals *Spans) {
  Window W;
  W.KindMs.resize(2 * PassOrder.size()); // (im2row, sgemm) per instance
  W.KeyMs.resize(20);
  std::vector<double> &Im2row = W.Series["im2row_ms"];
  std::vector<double> &Sgemm = W.Series["sgemm_ms"];
  const Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  do {
    double PassIm2row = 0, PassSgemm = 0;
    bool Ok = true;
    const Clock::time_point T0 = Clock::now();
    for (size_t Slot = 0; Slot != PassOrder.size(); ++Slot) {
      Conv &Cv = Convs[size_t(PassOrder[Slot])];
      const Clock::time_point T1 = Clock::now();
      dnn::im2row(Cv.P, Cv.In.data(), A.data());
      const Clock::time_point T2 = Clock::now();
      exo::Error E = runConv(Cv);
      const Clock::time_point T3 = Clock::now();
      if (E) {
        reportMiss("resnet50 L%02d: %s", Cv.Row + 1, E.message().c_str());
        Ok = false;
      }
      const double RowMs =
          std::chrono::duration<double, std::milli>(T2 - T1).count();
      const double GemmMs =
          std::chrono::duration<double, std::milli>(T3 - T2).count();
      PassIm2row += RowMs;
      PassSgemm += GemmMs;
      W.KindMs[2 * Slot].push_back(RowMs);
      W.KindMs[2 * Slot + 1].push_back(GemmMs);
      W.KeyMs[size_t(Cv.Row)].push_back(GemmMs);
    }
    const double PassMs = msSince(T0);
    W.OpMs.push_back(PassMs);
    W.BusySeconds += PassMs * 1e-3;
    Im2row.push_back(PassIm2row);
    Sgemm.push_back(PassSgemm);
    ++W.Attempted;
    W.Failed += Ok ? 0 : 1;
    if (Spans)
      Spans->harvest();
  } while (Clock::now() < End);
  return W;
}

QuietMix Resnet50::quiet(const Window &W) const {
  // A 250 ms pass spans several co-tenant bursts, so few whole passes run
  // quiet; each of its 106 timed calls does often. The quiet pass is the
  // sum of the calls' quiet latencies (the untimed rest is ~0.02 %).
  double Ms = 0;
  for (const std::vector<double> &Slot : W.KindMs)
    Ms += quietMs(Slot);
  QuietMix Mix;
  Mix.P50 = Mix.P90 = Mix.MeanMs = Ms;
  return Mix;
}

uint64_t Resnet50::verifyTimed() {
  // Each distinct conv's output buffer holds its last timed result.
  uint64_t Miss = 0;
  for (const Conv &Cv : Convs)
    Miss += verify(Cv, "timed");
  return Miss;
}

void Resnet50::layerMetrics(const Window &Plain, double PeakGflops,
                            Metrics &Out) {
  const std::vector<double> &Im2row = Plain.Series.at("im2row_ms");
  const std::vector<double> &Sgemm = Plain.Series.at("sgemm_ms");
  std::vector<double> Residue;
  for (size_t I = 0; I != Plain.OpMs.size(); ++I)
    Residue.push_back((Plain.OpMs[I] - Im2row[I] - Sgemm[I]) /
                      Plain.OpMs[I] * 100);
  double QuietIm2row = 0, QuietSgemm = 0;
  for (size_t Slot = 0; Slot != Plain.KindMs.size(); Slot += 2) {
    QuietIm2row += quietMs(Plain.KindMs[Slot]);
    QuietSgemm += quietMs(Plain.KindMs[Slot + 1]);
  }
  Out.set("dnn.im2row_ms", QuietIm2row, "ms");
  Out.set("gemm.sgemm_ms", QuietSgemm, "ms");
  Out.set("dnn.pass_unattributed_pct", median(Residue), "%");
  for (size_t Row = 0; Row != 20; ++Row) {
    char Name[32];
    std::snprintf(Name, sizeof(Name), "gemm.resnet50.L%02zu_ms", Row + 1);
    Out.set(Name, quietMs(Plain.KeyMs[Row]), "ms");
  }
  Out.set("gemm.pct_peak", gflops(Plain) / PeakGflops * 100, "%");
}

} // namespace

void assertResnetConvTable() {
  const std::vector<dnn::LayerGemm> &Table = dnn::resnet50Layers();
  bool Ok = Table.size() == 20;
  for (size_t Row = 0; Ok && Row != Table.size(); ++Row) {
    const dnn::LayerGemm &T = Table[Row];
    for (bool Down : {false, true}) {
      if (Down && !Rows[Row].FirstDownsamples)
        continue;
      const dnn::ConvParams P = convOf(Rows[Row], Down);
      const dnn::LayerGemm G = dnn::im2rowGemm(
          T.Id, P.InC, P.OutC, P.InH, P.InW, P.Kh, P.Kw, P.Stride, P.Pad);
      if (G.M != T.M || G.N != T.N || G.K != T.K) {
        std::fprintf(stderr,
                     "perfbench: Table I row %d is %lldx%lldx%lld but its "
                     "conv parameters give %lldx%lldx%lld\n",
                     T.Id, (long long)T.M, (long long)T.N, (long long)T.K,
                     (long long)G.M, (long long)G.N, (long long)G.K);
        Ok = false;
      }
    }
  }
  if (!Ok) {
    std::fprintf(stderr, "perfbench: the ResNet-50 conv table disagrees with "
                         "dnn::resnet50Layers()\n");
    std::exit(2);
  }
}

std::unique_ptr<Workload> makeResnet50(uint64_t Seed) {
  return std::make_unique<Resnet50>(Seed);
}

} // namespace perfbench
