//===- bench_dispatch.cpp - Engine dispatch overhead ----------------------===//
//
// What the plan-once/execute-many front door costs per call, at each size:
//
//   legacy_direct — blisGemm with a pre-built GemmPlan and provider (no
//                   dispatch layer at all; the floor)
//   hot_plan      — Engine::sgemm with the shape already cached: the
//                   steady state. The acceptance bar is hot_plan within a
//                   few percent of legacy_direct — the plan cache, pooled
//                   workspaces, and raw-callback team dispatch exist to
//                   make the front door free once warm.
//   cold_plan     — Engine::sgemm with the plan cache cleared before every
//                   call, so each rep re-plans (blocking clamp, team
//                   factorization, edge resolution). Kernels still come
//                   from the in-process memo, so this isolates planning
//                   cost, not JIT compilation.
//
// All three run the identical fixed BLIS-style 8x12 kernel, so the spread
// is pure dispatch-layer cost. Rows report seconds per call (better =
// lower) plus an info overhead row; hot_plan additionally emits a GFLOPS
// row carrying the tile it ran as mr/nr counters.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include <cstring>

using namespace gemm;

namespace {

void addDispatchRow(fig::Context &Ctx, const std::string &Label,
                    const std::string &Series, int64_t S,
                    const benchutil::Measurement &Meas, int64_t Mr,
                    int64_t Nr) {
  benchutil::ReportRow Row;
  Row.Label = Label;
  Row.Series = Series;
  Row.Metric = "seconds";
  Row.Better = "lower";
  Row.Value = Meas.SecondsPerCall;
  Row.SecondsPerCall = Meas.SecondsPerCall;
  Row.Reps = Meas.Reps;
  Row.Threads = resolveGemmThreads(0);
  Row.M = S;
  Row.N = S;
  Row.K = S;
  Row.Stages = Meas.Stages;
  Row.Extra["mr"] = static_cast<double>(Mr);
  Row.Extra["nr"] = static_cast<double>(Nr);
  Ctx.Rep.addRow(std::move(Row));
}

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("dispatch", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::printf("Dispatch overhead: Engine front door vs direct macro-kernel "
              "call (same fixed 8x12 kernel)\n");

  std::vector<int64_t> Sizes = Opt.Big ? std::vector<int64_t>{256, 512}
                                       : std::vector<int64_t>{64, 256};
  if (Opt.Smoke)
    Sizes = {48};

  // The floor: plan derived once here, provider called directly.
  FixedProvider Direct(blisKernel(), "ALG+BLIS");
  GemmPlan Plan = GemmPlan::standard(Direct);

  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine Hot(Cfg), Cold(Cfg);

  benchutil::Table T("dispatch_us_per_call",
                     {"size", "legacy_direct", "hot_plan", "cold_plan",
                      "hot_overhead_pct"},
                     Opt.Csv);
  for (int64_t S : Sizes) {
    std::vector<float> A(S * S), B(S * S), C(S * S);
    benchutil::fillRandom(A.data(), A.size(), 11);
    benchutil::fillRandom(B.data(), B.size(), 22);
    std::string Label = std::to_string(S);

    // Bitwise agreement between the two front doors before timing.
    {
      std::vector<float> CDir(S * S, 1.0f), CEng(S * S, 1.0f);
      exo::Error E1 = blisGemm(Plan, Direct, S, S, S, 1.f, A.data(), S,
                               B.data(), S, 1.f, CDir.data(), S);
      exo::Error E2 = Hot.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f,
                                CEng.data(), S);
      if (E1 || E2) {
        std::fprintf(stderr, "gemm failed: %s\n",
                     (E1 ? E1 : E2).message().c_str());
        return 1;
      }
      if (std::memcmp(CDir.data(), CEng.data(),
                      CDir.size() * sizeof(float)) != 0) {
        std::fprintf(stderr,
                     "WRONG RESULT: Engine output differs from direct "
                     "blisGemm at %lld\n",
                     static_cast<long long>(S));
        return 1;
      }
    }

    exo::Expected<PlanChoice> Choice =
        Hot.planFor(Trans::None, Trans::None, S, S, S);
    if (!Choice) {
      std::fprintf(stderr, "planFor failed: %s\n",
                   Choice.takeError().message().c_str());
      return 1;
    }

    benchutil::Measurement MDir = benchutil::measure(
        [&] {
          blisGemm(Plan, Direct, S, S, S, 1.f, A.data(), S, B.data(), S,
                   1.f, C.data(), S);
        },
        Opt.Seconds);
    benchutil::Measurement MHot = benchutil::measure(
        [&] {
          Hot.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, C.data(),
                    S);
        },
        Opt.Seconds);
    benchutil::Measurement MCold = benchutil::measure(
        [&] {
          Cold.clearPlanCache();
          Cold.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 1.f, C.data(),
                     S);
        },
        Opt.Seconds);

    double OverheadPct = 100.0 *
                         (MHot.SecondsPerCall - MDir.SecondsPerCall) /
                         MDir.SecondsPerCall;
    T.addRow(Label, {MDir.SecondsPerCall * 1e6, MHot.SecondsPerCall * 1e6,
                     MCold.SecondsPerCall * 1e6, OverheadPct});

    addDispatchRow(Ctx, Label, "legacy_direct", S, MDir, Choice->MR,
                   Choice->NR);
    addDispatchRow(Ctx, Label, "hot_plan", S, MHot, Choice->MR, Choice->NR);
    addDispatchRow(Ctx, Label, "cold_plan", S, MCold, Choice->MR,
                   Choice->NR);

    // Info row: the headline number. Not gated by bench_check ("info"
    // direction) because it is a ratio of two noisy measurements.
    benchutil::ReportRow Over;
    Over.Label = Label;
    Over.Series = "dispatch_overhead";
    Over.Metric = "hot_overhead_pct";
    Over.Better = "info";
    Over.Value = OverheadPct;
    Over.SecondsPerCall = MHot.SecondsPerCall;
    Over.Reps = MHot.Reps;
    Over.M = S;
    Over.N = S;
    Over.K = S;
    Ctx.Rep.addRow(std::move(Over));

    // Throughput row: higher-is-better, with the tile as mr/nr counters
    // for this exact (m, n, k).
    benchutil::ReportRow Rate;
    Rate.Label = Label;
    Rate.Series = "hot_plan";
    Rate.Metric = "gflops";
    Rate.Better = "higher";
    Rate.Value = benchutil::gflops(2.0 * S * S * S, MHot.SecondsPerCall);
    Rate.SecondsPerCall = MHot.SecondsPerCall;
    Rate.Reps = MHot.Reps;
    Rate.M = S;
    Rate.N = S;
    Rate.K = S;
    Rate.Extra["mr"] = static_cast<double>(Choice->MR);
    Rate.Extra["nr"] = static_cast<double>(Choice->NR);
    Ctx.Rep.addRow(std::move(Rate));
  }
  T.print();

  EngineStats St = Hot.stats();
  std::printf("hot engine: %llu hits / %llu misses / %llu builds; cold "
              "engine rebuilt %llu plans\n",
              static_cast<unsigned long long>(St.Hits),
              static_cast<unsigned long long>(St.Misses),
              static_cast<unsigned long long>(St.Builds),
              static_cast<unsigned long long>(Cold.stats().Builds));
  return Ctx.finish();
}
