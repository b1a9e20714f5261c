//===- main.cpp - perfbench: one workload run -----------------------------===//
//
//   perfbench --workload resnet50_f32|lowp_mix|gemmd_small --seed N
//             --seconds S --trace 0|1 [--setup-reps R] [--out DIR]
//
// Builds the workload's seeded inputs and references, times R cold
// set-ups (R - 1 in forked children, then this process's own), runs the
// closed loop and verifies what it left behind. The last stdout line is
// the result object: end-to-end metrics with --trace 0; with --trace 1 the
// window is split into an untraced half and a traced half and the line
// carries the per-layer metrics, which are also written with a chrome
// trace of the first traced op to DIR. Run it from a scratch directory:
// set-up state and the gemmd socket go under the working directory.
// run.py does all of that; see README.md.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "exo/jit/Jit.h"
#include "ukr/KernelService.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

extern char **environ;

using namespace perfbench;

namespace {

/// Every per-layer metric with its unit, in output order; a layer a
/// workload does not exercise reports 0.
const struct {
  const char *Name, *Unit;
} Layers[] = {
    {"exo.jit.compiles", "count"},
    {"exo.jit.compile_ms", "ms"},
    {"exo.jit.disk_hits", "count"},
    {"ukr.kernel_builds", "count"},
    {"ukr.fallbacks", "count"},
    {"gemm.plan.builds", "count"},
    {"gemm.first_call_ms", "ms"},
    {"dnn.im2row_ms", "ms"},
    {"gemm.sgemm_ms", "ms"},
    {"dnn.pass_unattributed_pct", "%"},
    {"gemm.resnet50.L01_ms", "ms"},
    {"gemm.resnet50.L02_ms", "ms"},
    {"gemm.resnet50.L03_ms", "ms"},
    {"gemm.resnet50.L04_ms", "ms"},
    {"gemm.resnet50.L05_ms", "ms"},
    {"gemm.resnet50.L06_ms", "ms"},
    {"gemm.resnet50.L07_ms", "ms"},
    {"gemm.resnet50.L08_ms", "ms"},
    {"gemm.resnet50.L09_ms", "ms"},
    {"gemm.resnet50.L10_ms", "ms"},
    {"gemm.resnet50.L11_ms", "ms"},
    {"gemm.resnet50.L12_ms", "ms"},
    {"gemm.resnet50.L13_ms", "ms"},
    {"gemm.resnet50.L14_ms", "ms"},
    {"gemm.resnet50.L15_ms", "ms"},
    {"gemm.resnet50.L16_ms", "ms"},
    {"gemm.resnet50.L17_ms", "ms"},
    {"gemm.resnet50.L18_ms", "ms"},
    {"gemm.resnet50.L19_ms", "ms"},
    {"gemm.resnet50.L20_ms", "ms"},
    {"gemm.packA_ms", "ms"},
    {"gemm.packB_ms", "ms"},
    {"gemm.ukr_ms", "ms"},
    {"gemm.barrier_ms", "ms"},
    {"gemm.unattributed_pct", "%"},
    {"gemm.f16.pack_ms", "ms"},
    {"gemm.f16.ukr_ms", "ms"},
    {"gemm.bf16.pack_ms", "ms"},
    {"gemm.bf16.ukr_ms", "ms"},
    {"gemm.i8.pack_ms", "ms"},
    {"gemm.i8.ukr_ms", "ms"},
    {"gemm.f16.gflops", "GFLOP/s"},
    {"gemm.bf16.gflops", "GFLOP/s"},
    {"gemm.i8.gops", "GOP/s"},
    {"gemm.pct_peak", "%"},
    {"machine.peak_gflops", "GFLOP/s"},
    {"gemm.plan.hit_ratio", "ratio"},
    {"gemm.plan.lookup_us", "us"},
    {"gemm.gov.width_avg", "threads"},
    {"gemm.gov.clamped", "count"},
    {"ipc.stage_us", "us"},
    {"ipc.collect_us", "us"},
    {"daemon.request_us", "us"},
    {"ipc.transport_us", "us"},
    {"ipc.call_us_p99", "us"},
    {"daemon.local_us_p50", "us"},
    {"daemon.busy", "count"},
    {"daemon.errors", "count"},
    {"obs.overhead_pct", "%"},
    {"host.op_ms_p50", "ms"},
    {"host.op_ms_p90", "ms"},
    {"host.ops_per_s", "1/s"},
};

void scrubExoEnv() {
  std::vector<std::string> Names;
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "EXO_", 4) == 0)
      Names.emplace_back(*E, std::strchr(*E, '=') - *E);
  for (const std::string &N : Names)
    unsetenv(N.c_str());
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "resnet50_f32|lowp_mix|gemmd_small --seed N --seconds S "
               "--trace 0|1 [--setup-reps R] [--out DIR]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Name, OutDir = ".";
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1, SetupReps = 3;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      Name = V;
    else if (A == "--seed")
      Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      Seconds = std::atof(V);
    else if (A == "--trace")
      Trace = std::atoi(V);
    else if (A == "--setup-reps")
      SetupReps = std::atoi(V);
    else if (A == "--out")
      OutDir = V;
    else
      usage(("unknown option " + A).c_str());
  }
  if (Seconds <= 0 || (Trace != 0 && Trace != 1) || SetupReps < 1)
    usage("--seconds > 0, --trace 0|1 and --setup-reps >= 1 are required");

  // Hermetic: no inherited tuning knob reaches the program.
  scrubExoEnv();
  assertResnetConvTable();

  std::string PeakIsa;
  const double Peak = measurePeakGflops(PeakIsa);
  const Clock::time_point Prep = Clock::now();
  std::unique_ptr<Workload> W;
  if (Name == "resnet50_f32")
    W = makeResnet50(Seed);
  else if (Name == "lowp_mix")
    W = makeLowpMix(Seed);
  else if (Name == "gemmd_small")
    W = makeGemmdSmall(Seed);
  else
    usage(("unknown workload '" + Name + "'").c_str());
  std::fprintf(stderr, "perfbench: inputs and references built in %.2f s\n",
               msSince(Prep) * 1e-3);

  // Cold set-ups: children first (this process must not have started the
  // engine when it forks), then this process's own on fresh state.
  std::vector<double> SetupSec;
  uint64_t Attempted = 0, Failed = 0;
  setupInChildren(*W, SetupReps - 1, ".", SetupSec, Attempted, Failed);
  usePrivateState("main");
  const exo::JitStats Jit0 = exo::jitStats();
  const ukr::CacheStats Ukr0 = ukr::globalCacheStats();
  const size_t Registry0 = ukr::KernelCache::global().size();
  const SetupResult S = W->setUp();
  SetupSec.push_back(S.Seconds);
  Attempted += S.Attempted;
  Failed += S.Failed;

  const gemm::EngineStats E0 = W->engine().stats();
  Window Plain, Traced;
  SpanTotals Spans;
  if (Trace) {
    // Untraced and traced quarters alternate, so drift over the run lands
    // on both sides of obs.overhead_pct.
    Spans.TracePath = OutDir + "/trace.json";
    for (int Quarter = 0; Quarter != 4; ++Quarter) {
      const bool On = Quarter % 2;
      obs::clear();
      obs::setEnabled(On);
      Window Part = W->measure(Seconds / 4, On ? &Spans : nullptr);
      obs::setEnabled(false);
      (On ? Traced : Plain).append(Part);
    }
    obs::clear();
  } else {
    Plain = W->measure(Seconds, nullptr);
  }
  const gemm::EngineStats E1 = W->engine().stats();
  Attempted += Plain.Attempted + Traced.Attempted;
  Failed += Plain.Failed + Traced.Failed + W->verifyTimed();
  Failed = std::min(Failed, Attempted);

  Metrics Out;
  if (!Trace) {
    Out.set("setup_s", median(SetupSec), "s");
    Out.set("ok_ratio", double(Attempted - Failed) / double(Attempted),
            "ratio");
    const QuietMix Mix = W->quiet(Plain);
    Out.set("op_ms_p50", Mix.P50, "ms");
    Out.set("op_ms_p90", Mix.P90, "ms");
    Out.set("ops_per_s", W->callers() * 1e3 / Mix.MeanMs, "1/s");
    Out.set("gflops", W->gflops(Plain), "GFLOP/s");
  } else {
    for (const auto &L : Layers)
      Out.set(L.Name, 0, L.Unit);
    const exo::JitStats Jit1 = exo::jitStats();
    const ukr::CacheStats Ukr1 = ukr::globalCacheStats();
    Out.set("exo.jit.compiles", double(Jit1.Compiles - Jit0.Compiles),
            "count");
    Out.set("exo.jit.compile_ms", Jit1.CompileMs - Jit0.CompileMs, "ms");
    Out.set("exo.jit.disk_hits", double(Jit1.DiskHits - Jit0.DiskHits),
            "count");
    // Kernels built by the async service plus those the synchronous
    // registry built (the engine's default path).
    Out.set("ukr.kernel_builds",
            double(Ukr1.Builds - Ukr0.Builds) +
                double(ukr::KernelCache::global().size() - Registry0),
            "count");
    Out.set("ukr.fallbacks", double(Ukr1.Fallbacks - Ukr0.Fallbacks),
            "count");
    Out.set("gemm.plan.builds", double(E1.Builds), "count");
    double FirstCall = 0;
    for (size_t K = 0; K != S.FirstMs.size(); ++K)
      if (K < Plain.KeyMs.size() && !Plain.KeyMs[K].empty())
        FirstCall += S.FirstMs[K] - quietMs(Plain.KeyMs[K]);
    Out.set("gemm.first_call_ms", FirstCall, "ms");

    // Engine phases per op, and the share of gemm.call its children miss.
    const double Ops = double(Traced.OpMs.size());
    const double Call = Spans.ms("gemm.call");
    double Children = Spans.ms("gemm.beta");
    for (const char *Ph : {"packA", "packB", "ukr", "barrier"}) {
      const std::string Span = std::string("gemm.") + Ph;
      Out.set(Span + "_ms", Spans.ms(Span) / Ops, "ms");
      Children += Spans.ms(Span);
    }
    Out.set("gemm.unattributed_pct",
            Call > 0 ? (Call - Children) / Call * 100 : 0, "%");
    Out.set("machine.peak_gflops", Peak, "GFLOP/s");
    const double Lookups =
        double((E1.Hits - E0.Hits) + (E1.Misses - E0.Misses));
    Out.set("gemm.plan.hit_ratio", double(E1.Hits - E0.Hits) / Lookups,
            "ratio");
    Out.set("gemm.plan.lookup_us", Spans.meanUs("plan.lookup"), "us");
    const double Grants = double(E1.GovGrants - E0.GovGrants);
    Out.set("gemm.gov.width_avg",
            Grants > 0 ? double(E1.GovWidthSum - E0.GovWidthSum) / Grants : 0,
            "threads");
    Out.set("gemm.gov.clamped",
            double((E1.GovShapeClamped - E0.GovShapeClamped) +
                   (E1.GovOccClamped - E0.GovOccClamped)),
            "count");
    // Client round trip = stage + collect + server request + the residue,
    // which is transport and queueing.
    const double Stage = Spans.meanUs("gemmd.client.stage");
    const double Collect = Spans.meanUs("gemmd.client.collect");
    const double Request = Spans.meanUs("gemmd.request");
    const double ClientCall = Spans.meanUs("gemmd.client.call");
    Out.set("ipc.stage_us", Stage, "us");
    Out.set("ipc.collect_us", Collect, "us");
    Out.set("daemon.request_us", Request, "us");
    Out.set("ipc.transport_us",
            ClientCall > 0 ? ClientCall - Stage - Collect - Request : 0, "us");
    const double P = W->quiet(Plain).P50;
    Out.set("obs.overhead_pct", (W->quiet(Traced).P50 - P) / P * 100, "%");
    // The same ops as the host ran them, co-tenant slowdowns included.
    Out.set("host.op_ms_p50", percentile(Plain.OpMs, 50), "ms");
    Out.set("host.op_ms_p90", percentile(Plain.OpMs, 90), "ms");
    Out.set("host.ops_per_s", double(Plain.OpMs.size()) / Plain.BusySeconds,
            "1/s");
    W->layerMetrics(Plain, Peak, Out);

    const std::string Table = Out.table();
    std::printf("per-layer metrics (%s, seed %llu; %zu traced ops):\n%s",
                Name.c_str(), (unsigned long long)Seed, Traced.OpMs.size(),
                Table.c_str());
    std::ofstream(OutDir + "/layers.txt") << Table;
  }
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu set-ups (median %.3f s), %llu "
               "ops attempted, %llu failed, peak %.1f GFLOP/s (%s)\n",
               Name.c_str(), (unsigned long long)Seed, SetupSec.size(),
               median(SetupSec), (unsigned long long)Attempted,
               (unsigned long long)Failed, Peak, PeakIsa.c_str());
  W->tearDown();
  std::error_code Ec;
  std::filesystem::remove_all("main", Ec);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Failed == 0 ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)Failed, Out.json().c_str());
  return 0;
}
