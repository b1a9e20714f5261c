//===- bench_ablate_packing.cpp - Packing cost ablation -------------------===//
//
// §III-B discusses skipping the A packing when data is already packed or
// the problem is too small to amortize it. This ablation measures the
// packing share of total GEMM time as k shrinks, and the raw cost of the
// two packing routines: pack_gbps rows give packA and packB throughput for
// NN operands (A packs by straight copies, B by 4x4 transposes) and TT
// operands (the other way round).
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "gemm/Pack.h"

#include <cstdio>
#include <vector>

using namespace gemm;

int main(int Argc, char **Argv) {
  fig::Context Ctx("ablate_packing", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::printf("Ablation: packing overhead vs problem depth (m = n = %d)\n",
              Opt.Smoke ? 96 : 512);

  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Exo;
  Cfg.ForceMR = 8;
  Cfg.ForceNR = 12;
  Engine E(Cfg);
  // The standalone packing loop below reproduces the blocking the Engine's
  // plan resolves (analytical model for an 8x12 tile).
  BlockSizes Blocks =
      analyticalBlockSizes(CacheConfig::host(), 8, 12, sizeof(float));
  const int64_t M = Opt.Smoke ? 96 : 512, N = M;
  std::vector<int64_t> Depths = {8, 32, 128, 512, 2048};
  if (Opt.Smoke)
    Depths = {8, 64};

  benchutil::Table T("ablate_packing",
                     {"k", "gemm_gflops", "pack_share_pct"}, Opt.Csv);
  for (int64_t K : Depths) {
    std::vector<float> A(M * K), B(K * N), C(M * N, 0.f);
    benchutil::fillRandom(A.data(), A.size(), 1);
    benchutil::fillRandom(B.data(), B.size(), 2);
    benchutil::Measurement GemmM = benchutil::measure(
        [&] {
          E.sgemm(M, N, K, 1.f, A.data(), M, B.data(), K, 1.f, C.data(), M);
        },
        Opt.Seconds);

    // Standalone packing cost for the same operand volume (one pass over A
    // in mc x kc blocks and B in kc x nc blocks).
    int64_t Kc = std::min<int64_t>(Blocks.KC, K);
    int64_t Mc = std::min<int64_t>(Blocks.MC, M);
    int64_t Nc = std::min<int64_t>(Blocks.NC, N);
    std::vector<float> ABuf(((Mc + 7) / 8) * Kc * 8);
    std::vector<float> BBuf(((Nc + 11) / 12) * Kc * 12);
    benchutil::Measurement PackM = benchutil::measure(
        [&] {
          for (int64_t Pc = 0; Pc < K; Pc += Kc) {
            int64_t KcEff = std::min(Kc, K - Pc);
            for (int64_t Jc = 0; Jc < N; Jc += Nc)
              packB(B.data() + Pc + Jc * K, K, KcEff,
                    std::min(Nc, N - Jc), 12, 1.0f, EdgePack::Tight,
                    BBuf.data());
            for (int64_t Ic = 0; Ic < M; Ic += Mc)
              packA(A.data() + Ic + Pc * M, M, std::min(Mc, M - Ic), KcEff,
                    8, 1.0f, EdgePack::Tight, ABuf.data());
          }
        },
        Opt.Seconds);

    double PackSharePct =
        100.0 * PackM.SecondsPerCall / GemmM.SecondsPerCall;
    T.addRow(std::to_string(K),
             {benchutil::gflops(2.0 * M * N * K, GemmM.SecondsPerCall),
              PackSharePct});
    fig::addGemmRow(Ctx, "k" + std::to_string(K), "gemm", M, N, K, GemmM,
                    2.0 * M * N * K);
    benchutil::ReportRow Share;
    Share.Label = "k" + std::to_string(K);
    Share.Series = "pack_share";
    Share.Metric = "pack_share_pct";
    Share.Better = "info";
    Share.Value = PackSharePct;
    Share.SecondsPerCall = PackM.SecondsPerCall;
    Share.Reps = PackM.Reps;
    Share.M = M;
    Share.N = N;
    Share.K = K;
    Ctx.Rep.addRow(std::move(Share));
  }
  T.print();

  // Pack throughput over whole operands in the executor's blocking: source
  // bytes packed per second. A panels zero-pad (as the executor packs
  // them), B panels are tight (the Exo plans' edge mode).
  const int64_t K = Depths.back();
  const int64_t Kc = std::min<int64_t>(Blocks.KC, K);
  const int64_t Mc = std::min<int64_t>(Blocks.MC, M);
  const int64_t Nc = std::min<int64_t>(Blocks.NC, N);
  std::vector<float> A(M * K), B(K * N);
  benchutil::fillRandom(A.data(), A.size(), 3);
  benchutil::fillRandom(B.data(), B.size(), 4);
  std::vector<float> ABuf(((Mc + 7) / 8) * Kc * 8);
  std::vector<float> BBuf(((Nc + 11) / 12) * Kc * 12);
  benchutil::Table PT("ablate_packing_gbps", {"pack", "gbps"}, Opt.Csv);
  auto PackRow = [&](const std::string &Label, bool IsA, bool Trans) {
    benchutil::Measurement PM = benchutil::measure(
        [&] {
          for (int64_t Pc = 0; Pc < K; Pc += Kc) {
            const int64_t KcEff = std::min(Kc, K - Pc);
            if (IsA)
              for (int64_t Ic = 0; Ic < M; Ic += Mc) {
                // NN: A is M x K column-major; TT: A is stored K x M.
                const int64_t McEff = std::min(Mc, M - Ic);
                if (Trans)
                  packAStrided(A.data() + Pc + Ic * K, K, 1, McEff, KcEff, 8,
                               1.0f, EdgePack::ZeroPad, ABuf.data());
                else
                  packA(A.data() + Ic + Pc * M, M, McEff, KcEff, 8, 1.0f,
                        EdgePack::ZeroPad, ABuf.data());
              }
            else
              for (int64_t Jc = 0; Jc < N; Jc += Nc) {
                // NN: B is K x N column-major; TT: B is stored N x K.
                const int64_t NcEff = std::min(Nc, N - Jc);
                if (Trans)
                  packBStrided(B.data() + Jc + Pc * N, N, 1, KcEff, NcEff, 12,
                               1.0f, EdgePack::Tight, BBuf.data());
                else
                  packB(B.data() + Pc + Jc * K, K, KcEff, NcEff, 12, 1.0f,
                        EdgePack::Tight, BBuf.data());
              }
          }
        },
        Opt.Seconds);
    const double Bytes = double(IsA ? M : N) * K * sizeof(float);
    benchutil::ReportRow Row;
    Row.Label = Label;
    Row.Series = "pack";
    Row.Metric = "pack_gbps";
    Row.Value = Bytes / PM.SecondsPerCall * 1e-9;
    Row.SecondsPerCall = PM.SecondsPerCall;
    Row.Reps = PM.Reps;
    Row.M = M;
    Row.N = N;
    Row.K = K;
    PT.addRow(Label, {Row.Value});
    Ctx.Rep.addRow(std::move(Row));
  };
  PackRow("packA_nn", /*IsA=*/true, /*Trans=*/false);
  PackRow("packA_tt", /*IsA=*/true, /*Trans=*/true);
  PackRow("packB_nn", /*IsA=*/false, /*Trans=*/false);
  PackRow("packB_tt", /*IsA=*/false, /*Trans=*/true);
  PT.print();
  std::printf("Small-k problems spend a large share of time packing — the "
              "motivation for the paper's non-packed kernel variant.\n");
  return Ctx.finish();
}
