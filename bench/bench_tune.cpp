//===- bench_tune.cpp - Tuned-prior vs analytical-model ablation ----------===//
//
// The autotuner's value proposition, measured end to end: each shape is
// tuned into a throwaway prior database (gemm::tuneShape), then served by
// two Engines that differ only in EngineConfig::TunedPriors — the "model"
// arm plans from the analytical model alone, the "tuned" arm consults the
// freshly written database first. The never-lose gate is asserted here as
// well as in the planner: a tuned arm measurably below the model arm
// (beyond a generous noise floor) fails the bench, because the planner's
// margin check should have fallen back to the model plan instead. The arms
// are timed in interleaved paired rounds and the gate reads the median
// per-round ratio, so host load that hits one arm's rounds does not count
// as a loss.
//
//===----------------------------------------------------------------------===//

#include "FigCommon.h"

#include "exo/support/Str.h"
#include "gemm/PriorDb.h"
#include "gemm/Tuner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unistd.h>
#include <vector>

using namespace gemm;

namespace {

/// Tuned may trail model by measurement noise on a quiet plan (the planner
/// guarantees plan equality in the worst case, not timer equality).
constexpr double NeverLoseFloor = 0.85;

std::string makeTempDb() {
  const char *Tmp = std::getenv("TMPDIR");
  std::string Templ =
      std::string(Tmp && *Tmp ? Tmp : "/tmp") + "/bench-tune-priors-XXXXXX";
  std::vector<char> Buf(Templ.begin(), Templ.end());
  Buf.push_back('\0');
  const char *Dir = mkdtemp(Buf.data());
  return Dir ? Dir : "";
}

/// Paired rounds per comparison. The arms alternate in ABBA order, so a
/// load spike or a host speed flip lands on both arms and neither always
/// runs second.
constexpr int MeasureRounds = 20;

struct ArmsResult {
  /// Each arm's median round.
  benchutil::Measurement Model, Tuned;
  /// Median over rounds of tuned GFLOPS / model GFLOPS in the same round.
  double Ratio = 0;
};

benchutil::Measurement medianRound(std::vector<benchutil::Measurement> V) {
  auto Mid = V.begin() + V.size() / 2;
  std::nth_element(V.begin(), Mid, V.end(),
                   [](const benchutil::Measurement &X,
                      const benchutil::Measurement &Y) {
                     return X.SecondsPerCall < Y.SecondsPerCall;
                   });
  return *Mid;
}

/// Times \p ModelE and \p TunedE on the same operands in MeasureRounds
/// paired rounds of Seconds / MeasureRounds per arm.
ArmsResult measureArms(Engine &ModelE, Engine &TunedE, int64_t M, int64_t N,
                       int64_t K, double Seconds) {
  std::vector<float> A(M * K), B(K * N), C(M * N, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 11);
  benchutil::fillRandom(B.data(), B.size(), 22);
  auto Round = [&](Engine &E) {
    return benchutil::measure(
        [&] {
          E.sgemm(M, N, K, 1.f, A.data(), M, B.data(), K, 0.f, C.data(),
                  M);
        },
        Seconds / MeasureRounds);
  };
  // One untimed call per arm plans the shape; the timed reps ride the
  // plan cache.
  for (Engine *E : {&ModelE, &TunedE})
    E->sgemm(M, N, K, 1.f, A.data(), M, B.data(), K, 0.f, C.data(), M);
  std::vector<benchutil::Measurement> Ms, Ts;
  std::vector<double> Ratios;
  for (int R = 0; R < MeasureRounds; ++R) {
    benchutil::Measurement Mm, Mt;
    if (R % 4 == 0 || R % 4 == 3) {
      Mm = Round(ModelE);
      Mt = Round(TunedE);
    } else {
      Mt = Round(TunedE);
      Mm = Round(ModelE);
    }
    Ratios.push_back(Mm.SecondsPerCall / Mt.SecondsPerCall);
    Ms.push_back(std::move(Mm));
    Ts.push_back(std::move(Mt));
  }
  auto Mid = Ratios.begin() + Ratios.size() / 2;
  std::nth_element(Ratios.begin(), Mid, Ratios.end());
  return {medianRound(std::move(Ms)), medianRound(std::move(Ts)), *Mid};
}

struct Shape {
  int64_t M, N, K;
};

} // namespace

int main(int Argc, char **Argv) {
  fig::Context Ctx("tune", Argc, Argv);
  benchutil::BenchOptions &Opt = Ctx.Opt;
  std::printf("Ablation: tuned priors vs analytical model (Auto series)\n");

  std::string Db = makeTempDb();
  if (Db.empty()) {
    std::fprintf(stderr, "cannot create a temp prior database\n");
    return 1;
  }
  PriorDb::setGlobalRoot(Db);
  Ctx.Rep.setField("prior_db", Db);

  std::vector<Shape> Shapes = Opt.Big
                                  ? std::vector<Shape>{{512, 512, 512},
                                                       {1024, 1024, 1024},
                                                       {3136, 64, 576},
                                                       {196, 512, 1152}}
                                  : std::vector<Shape>{{128, 128, 128},
                                                       {256, 256, 256},
                                                       {392, 64, 576},
                                                       {24, 24, 2048}};
  if (Opt.Smoke)
    Shapes = {{64, 64, 64}};

  TuneOptions TO = tuneOptionsFromEnv();
  if (Opt.Smoke) {
    TO.Budget = std::min<int64_t>(TO.Budget, 4);
    TO.Seconds = std::min(TO.Seconds, 0.01);
  }

  benchutil::Table T("tune_gflops", {"shape", "model", "tuned", "source"},
                     Opt.Csv);
  int Rc = 0;
  size_t Stored = 0;
  uint64_t TunedPlans = 0;
  for (const Shape &S : Shapes) {
    std::string Label = std::to_string(S.M) + "x" + std::to_string(S.N) +
                        "x" + std::to_string(S.K);
    exo::Expected<TuneResult> R = tuneShape(S.M, S.N, S.K, TO);
    if (!R) {
      std::fprintf(stderr, "tune %s: %s\n", Label.c_str(),
                   R.message().c_str());
      Rc = 1;
      continue;
    }
    Stored += R->Stored;

    EngineConfig ModelCfg;
    ModelCfg.Series = EngineSeries::Auto;
    ModelCfg.TunedPriors = false;
    Engine ModelE(ModelCfg);
    EngineConfig TunedCfg;
    TunedCfg.Series = EngineSeries::Auto;
    Engine TunedE(TunedCfg);

    ArmsResult Arms =
        measureArms(ModelE, TunedE, S.M, S.N, S.K, Opt.Seconds);
    const double Flops = 2.0 * S.M * S.N * S.K;
    double GModel = benchutil::gflops(Flops, Arms.Model.SecondsPerCall);
    double GTuned = benchutil::gflops(Flops, Arms.Tuned.SecondsPerCall);
    exo::Expected<PlanChoice> TunedPlan =
        TunedE.planFor(Trans::None, Trans::None, S.M, S.N, S.K);
    const char *Source = TunedPlan ? TunedPlan->Source : "?";
    TunedPlans += TunedE.stats().PlansFromTuned;

    fig::addGemmRow(Ctx, Label, "model", S.M, S.N, S.K, Arms.Model, Flops);
    fig::addGemmRow(Ctx, Label, "tuned", S.M, S.N, S.K, Arms.Tuned, Flops);
    T.addRow({Label, exo::strf("%.2f", GModel), exo::strf("%.2f", GTuned),
              Source});

    if (Arms.Ratio < NeverLoseFloor) {
      std::fprintf(stderr,
                   "NEVER-LOSE VIOLATION %s: tuned/model %.2f (tuned %.2f, "
                   "model %.2f GFLOPS; floor %.0f%%)\n",
                   Label.c_str(), Arms.Ratio, GTuned, GModel,
                   NeverLoseFloor * 100);
      Rc = 1;
    }
  }
  T.print();
  std::printf("tuned records stored: %zu/%zu; plans from tuned priors: "
              "%llu\n",
              Stored, Shapes.size(),
              static_cast<unsigned long long>(TunedPlans));
  return Rc ? Rc : Ctx.finish();
}
