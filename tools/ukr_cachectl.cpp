//===- ukr_cachectl.cpp - Persistent kernel-cache administration ----------===//
//
// Operator CLI over the persistent JIT artifact cache:
//
//   ukr_cachectl list                 show cached artifacts (key, symbol,
//                                     size, age)
//   ukr_cachectl warm                 precompile the standard shape family
//                                     (full tile + edge family) into the
//                                     cache — the AOT warmup path; run it
//                                     once before benching so timed runs
//                                     never invoke the compiler. With
//                                     --shape/--model, warms the kernels the
//                                     Engine planner selects per problem
//                                     instead of the fixed family.
//   ukr_cachectl prune                evict LRU entries over the size bound
//   ukr_cachectl verify               dlopen-check every artifact; --fix
//                                     removes corrupt ones
//   ukr_cachectl stats                one-shot counter dump: the global
//                                     Engine plan cache (hits, misses,
//                                     builds, evictions, sticky errors),
//                                     the kernel cache's JIT counters, and
//                                     the disk cache footprint; --json
//                                     emits a machine-readable object
//   ukr_cachectl tune                 search the schedule space for each
//                                     --shape/--model problem and persist
//                                     winners into the tuning-prior
//                                     database (see docs/TUNING.md)
//   ukr_cachectl priors ACTION        administer the prior database:
//                                     list, verify (quarantine corrupt
//                                     records), prune (drop quarantined /
//                                     foreign / overflow records)
//   ukr_cachectl plan                 print the planner's decision and its
//                                     provenance (model/prior/tuned) for
//                                     each --shape problem
//
// Common flags:
//   --dir PATH        operate on this cache root (default:
//                     $EXO_JIT_CACHE_DIR, else ~/.cache/exo-ukr)
//   --db PATH         operate on this prior-database root (default:
//                     $EXO_GEMM_PRIOR_DB, else ~/.cache/exo-ukr/priors)
//   warm:  --mr N --nr N (family base tile, default 8x12), --full (every
//          pickShape candidate tile), --jobs N (compile workers),
//          --shape MxNxK (repeatable: warm the planner's kernel family for
//          that GEMM problem), --model resnet|vgg (every layer shape of
//          the model's table, the §IV-C workloads)
//   prune: --max-bytes N (default $EXO_JIT_CACHE_MAX_BYTES or 256 MiB)
//   tune:  --shape/--model as warm, --budget N (candidates per shape),
//          --seconds S (per-candidate time), --threads N, --min-margin F
//          (relative improvement required to store a winner)
//   plan/tune/warm: --dtype f32|f16|bf16|i8 (default f32) — plan and warm
//          the typed engine path / store dtype-keyed tuning records
//          (docs/PRECISION.md). i8 tune is rejected (fixed scalar tile);
//          non-f32 family warm needs --shape/--model (the fixed family is
//          an f32 notion).
//   priors prune: --keep-foreign (keep other machines' records),
//          --max-records N (cap record count)
//
//===----------------------------------------------------------------------===//

#include "benchutil/Json.h"
#include "dnn/Models.h"
#include "exo/jit/DiskCache.h"
#include "gemm/Engine.h"
#include "gemm/Governor.h"
#include "gemm/Planner.h"
#include "gemm/PriorDb.h"
#include "gemm/Tuner.h"
#include "ukr/KernelRegistry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dlfcn.h>
#include <set>
#include <string>
#include <vector>

using namespace exo;

namespace {

void usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--dir PATH] list\n"
               "       %s [--dir PATH] warm [--mr N] [--nr N] [--full] "
               "[--jobs N] [--shape MxNxK]... [--model resnet|vgg] "
               "[--dtype f32|f16|bf16|i8]\n"
               "       %s [--dir PATH] prune [--max-bytes N]\n"
               "       %s [--dir PATH] verify [--fix]\n"
               "       %s [--dir PATH] stats [--json]\n"
               "       %s [--db PATH] tune [--shape MxNxK]... "
               "[--model resnet|vgg] [--budget N] [--seconds S] "
               "[--threads N] [--min-margin F] [--dtype f32|f16|bf16]\n"
               "       %s [--db PATH] priors list|verify|prune "
               "[--keep-foreign] [--max-records N]\n"
               "       %s [--db PATH] plan [--shape MxNxK]... "
               "[--dtype f32|f16|bf16|i8]\n",
               Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0, Argv0);
}

int cmdList() {
  JitDiskCache &DC = JitDiskCache::global();
  if (!DC.enabled()) {
    std::fprintf(stderr, "cache disabled (root: %s)\n", DC.root().c_str());
    return 1;
  }
  std::vector<JitDiskCache::Entry> Entries = DC.list();
  uint64_t Total = 0;
  std::printf("%-18s %-40s %10s %8s  %s\n", "key", "symbol", "bytes",
              "age(s)", "flags");
  time_t Now = time(nullptr);
  for (const auto &E : Entries) {
    Total += E.Bytes;
    std::printf("k%016llx %-40s %10llu %8lld  %s\n",
                static_cast<unsigned long long>(E.Key),
                E.Meta.Symbol.empty() ? "?" : E.Meta.Symbol.c_str(),
                static_cast<unsigned long long>(E.Bytes),
                static_cast<long long>(Now - E.Mtime),
                E.Meta.Flags.c_str());
  }
  std::printf("%zu artifact(s), %llu bytes, root %s\n", Entries.size(),
              static_cast<unsigned long long>(Total), DC.root().c_str());
  return 0;
}

/// One GEMM problem named on the command line (--shape) or drawn from a
/// model's layer table (--model).
struct Problem {
  int64_t M = 0, N = 0, K = 0;
};

int cmdWarm(int64_t MR, int64_t NR, bool Full, unsigned Jobs,
            const std::vector<Problem> &Problems, gemm::DType Ty) {
  if (MR < 1 || NR < 1) {
    std::fprintf(stderr, "warm: --mr/--nr must be positive (got %lldx%lld)\n",
                 static_cast<long long>(MR), static_cast<long long>(NR));
    return 2;
  }
  if (Ty != gemm::DType::F32 && Problems.empty()) {
    std::fprintf(stderr, "warm: --dtype %s needs --shape/--model (the fixed "
                         "shape family is an f32 notion)\n",
                 gemm::dtypeName(Ty));
    return 2;
  }
  JitDiskCache &DC = JitDiskCache::global();
  if (!DC.enabled()) {
    std::fprintf(stderr, "cache disabled (root: %s)\n", DC.root().c_str());
    return 1;
  }
  if (!jitAvailable()) {
    std::fprintf(stderr, "no working C compiler (EXO_CC/cc)\n");
    return 1;
  }
  std::vector<ukr::UkrConfig> Family;
  if (Problems.empty()) {
    Family = ukr::standardShapeFamily(MR, NR, Full);
  } else {
    // Planner-driven warm-up: the kernels Engine::sgemm would select for
    // each problem, deduplicated across problems that share tiles.
    std::set<std::string> Seen;
    for (const Problem &P : Problems) {
      std::printf("plan %lldx%lldx%lld:", static_cast<long long>(P.M),
                  static_cast<long long>(P.N), static_cast<long long>(P.K));
      for (const ukr::UkrConfig &Cfg :
           gemm::planKernelFamily(P.M, P.N, P.K, Ty)) {
        std::printf(" %lldx%lld", static_cast<long long>(Cfg.MR),
                    static_cast<long long>(Cfg.NR));
        if (Seen.insert(Cfg.kernelName()).second)
          Family.push_back(Cfg);
      }
      std::printf("\n");
    }
  }
  std::printf("warming %zu kernel(s) into %s with %u worker(s)...\n",
              Family.size(), DC.root().c_str(), Jobs ? Jobs : 2u);
  ukr::KernelCache Cache(Jobs);
  Error Err = Cache.warm(Family);
  ukr::printCacheStats(Cache.stats(), stdout);
  if (Err) {
    std::fprintf(stderr, "%s\n", Err.message().c_str());
    return 1;
  }
  std::printf("warm ok: %zu kernel(s) ready\n", Cache.size());
  return 0;
}

int cmdPrune(uint64_t MaxBytes) {
  JitDiskCache &DC = JitDiskCache::global();
  size_t Evicted = DC.prune(MaxBytes);
  std::printf("evicted %zu artifact(s); %zu remain under %s\n", Evicted,
              DC.list().size(), DC.root().c_str());
  return 0;
}

int cmdVerify(bool Fix) {
  JitDiskCache &DC = JitDiskCache::global();
  size_t Bad = 0;
  for (const auto &E : DC.list()) {
    bool Ok = false;
    // An unparsable sidecar is corruption in its own right (the recorded
    // ABI cannot be trusted), even when the .so itself still loads.
    if (!E.MetaCorrupt) {
      if (void *H = dlopen(E.SoPath.c_str(), RTLD_NOW | RTLD_LOCAL)) {
        Ok = E.Meta.Symbol.empty() ||
             dlsym(H, E.Meta.Symbol.c_str()) != nullptr;
        dlclose(H);
      }
    }
    if (Ok)
      continue;
    ++Bad;
    std::printf("corrupt: k%016llx (%s)%s\n",
                static_cast<unsigned long long>(E.Key),
                E.MetaCorrupt ? "unparsable meta" : E.Meta.Symbol.c_str(),
                Fix ? " — removed" : "");
    if (Fix)
      DC.remove(E.Key);
  }
  std::printf("%zu corrupt artifact(s)%s\n", Bad,
              Bad && !Fix ? " (re-run with --fix to remove)" : "");
  return Bad && !Fix ? 1 : 0;
}

int cmdStats(bool JsonOut) {
  // The process-global caches this CLI can observe directly: the shared
  // Engine plan cache, the global kernel cache's JIT counters, and the
  // on-disk artifact store. (A running gemmd's live counters travel over
  // the wire instead — see docs/GEMMD.md.)
  gemm::EngineStats ES = gemm::Engine::global().stats();
  ukr::CacheStats US = ukr::globalCacheStats();
  JitDiskCache &DC = JitDiskCache::global();
  std::vector<JitDiskCache::Entry> Entries = DC.list();
  uint64_t DiskBytes = 0;
  for (const auto &E : Entries)
    DiskBytes += E.Bytes;

  if (JsonOut) {
    benchutil::Json Plan = benchutil::Json::object();
    Plan.set("hits", static_cast<int64_t>(ES.Hits));
    Plan.set("misses", static_cast<int64_t>(ES.Misses));
    Plan.set("builds", static_cast<int64_t>(ES.Builds));
    Plan.set("evictions", static_cast<int64_t>(ES.Evictions));
    Plan.set("degenerate", static_cast<int64_t>(ES.Degenerate));
    Plan.set("sticky_errors", static_cast<int64_t>(ES.StickyErrors));
    Plan.set("plans_model", static_cast<int64_t>(ES.PlansFromModel));
    Plan.set("plans_tuned", static_cast<int64_t>(ES.PlansFromTuned));
    Plan.set("prior_rejected", static_cast<int64_t>(ES.PriorRejected));
    // Live cache composition by dtype (a gauge, not a counter): how many
    // of the currently cached plans belong to each precision.
    benchutil::Json ByDtype = benchutil::Json::object();
    for (unsigned D = 0; D != gemm::DTypeCount; ++D)
      ByDtype.set(gemm::dtypeName(static_cast<gemm::DType>(D)),
                  static_cast<int64_t>(ES.PlansByDtype[D]));
    Plan.set("plans_by_dtype", std::move(ByDtype));
    benchutil::Json Jit = benchutil::Json::object();
    Jit.set("hits", static_cast<int64_t>(US.Hits));
    Jit.set("misses", static_cast<int64_t>(US.Misses));
    Jit.set("fallbacks", static_cast<int64_t>(US.Fallbacks));
    Jit.set("builds", static_cast<int64_t>(US.Builds));
    Jit.set("failures", static_cast<int64_t>(US.Failures));
    Jit.set("disk_hits", static_cast<int64_t>(US.DiskHits));
    Jit.set("compiles", static_cast<int64_t>(US.Compiles));
    Jit.set("compile_ms", US.CompileMs);
    benchutil::Json Disk = benchutil::Json::object();
    Disk.set("enabled", DC.enabled());
    Disk.set("root", DC.root());
    Disk.set("artifacts", static_cast<int64_t>(Entries.size()));
    Disk.set("bytes", static_cast<int64_t>(DiskBytes));
    gemm::PriorDb::Stats PS = gemm::PriorDb::stats();
    benchutil::Json Priors = benchutil::Json::object();
    Priors.set("enabled", gemm::PriorDb::global().enabled());
    Priors.set("root", gemm::PriorDb::global().root());
    Priors.set("lookups", static_cast<int64_t>(PS.Lookups));
    Priors.set("hits", static_cast<int64_t>(PS.Hits));
    Priors.set("class_hits", static_cast<int64_t>(PS.ClassHits));
    Priors.set("machine_mismatch", static_cast<int64_t>(PS.MachineMismatch));
    Priors.set("corrupt_seen", static_cast<int64_t>(PS.CorruptSeen));
    Priors.set("quarantined", static_cast<int64_t>(PS.Quarantined));
    gemm::Governor &Gov = gemm::Governor::global();
    gemm::GovernorStats GS = Gov.stats();
    benchutil::Json Governor = benchutil::Json::object();
    Governor.set("enabled", gemm::Governor::enabledByEnv());
    Governor.set("ceiling", Gov.ceiling());
    Governor.set("min_work_flops", Gov.minWorkFlops());
    Governor.set("curve_stored",
                 gemm::PriorDb::global().lookupCurve().has_value());
    Governor.set("grants", static_cast<int64_t>(GS.Grants));
    Governor.set("shape_clamped", static_cast<int64_t>(GS.ShapeClamped));
    Governor.set("occupancy_clamped",
                 static_cast<int64_t>(GS.OccupancyClamped));
    Governor.set("full_width", static_cast<int64_t>(GS.FullWidth));
    Governor.set("width_sum", static_cast<int64_t>(GS.WidthSum));
    benchutil::Json Root = benchutil::Json::object();
    Root.set("schema", "ukr_cachectl.stats/v1");
    Root.set("plan_cache", std::move(Plan));
    Root.set("jit_cache", std::move(Jit));
    Root.set("disk_cache", std::move(Disk));
    Root.set("prior_db", std::move(Priors));
    Root.set("governor", std::move(Governor));
    std::printf("%s\n", Root.dump().c_str());
    return 0;
  }

  std::printf("plan cache:  %llu hit / %llu miss, %llu built, "
              "%llu evicted, %llu degenerate, %llu sticky error(s)\n",
              static_cast<unsigned long long>(ES.Hits),
              static_cast<unsigned long long>(ES.Misses),
              static_cast<unsigned long long>(ES.Builds),
              static_cast<unsigned long long>(ES.Evictions),
              static_cast<unsigned long long>(ES.Degenerate),
              static_cast<unsigned long long>(ES.StickyErrors));
  std::printf("jit cache:   %llu hit / %llu miss, %llu fallback(s), %llu "
              "build(s) (%llu failed), %llu disk hit(s), %llu compile(s) "
              "(%.1f ms)\n",
              static_cast<unsigned long long>(US.Hits),
              static_cast<unsigned long long>(US.Misses),
              static_cast<unsigned long long>(US.Fallbacks),
              static_cast<unsigned long long>(US.Builds),
              static_cast<unsigned long long>(US.Failures),
              static_cast<unsigned long long>(US.DiskHits),
              static_cast<unsigned long long>(US.Compiles), US.CompileMs);
  std::printf("disk cache:  %zu artifact(s), %llu bytes, root %s%s\n",
              Entries.size(), static_cast<unsigned long long>(DiskBytes),
              DC.root().c_str(), DC.enabled() ? "" : " (disabled)");
  std::printf("plan source: %llu model, %llu tuned, %llu rejected prior "
              "record(s)\n",
              static_cast<unsigned long long>(ES.PlansFromModel),
              static_cast<unsigned long long>(ES.PlansFromTuned),
              static_cast<unsigned long long>(ES.PriorRejected));
  std::printf("plans live:  ");
  for (unsigned D = 0; D != gemm::DTypeCount; ++D)
    std::printf("%s%llu %s", D ? ", " : "",
                static_cast<unsigned long long>(ES.PlansByDtype[D]),
                gemm::dtypeName(static_cast<gemm::DType>(D)));
  std::printf("\n");
  gemm::PriorDb::Stats PS = gemm::PriorDb::stats();
  std::printf("prior db:    %llu lookup(s), %llu exact / %llu class hit(s), "
              "%llu machine mismatch(es), %llu corrupt seen, root %s%s\n",
              static_cast<unsigned long long>(PS.Lookups),
              static_cast<unsigned long long>(PS.Hits),
              static_cast<unsigned long long>(PS.ClassHits),
              static_cast<unsigned long long>(PS.MachineMismatch),
              static_cast<unsigned long long>(PS.CorruptSeen),
              gemm::PriorDb::global().root().c_str(),
              gemm::PriorDb::global().enabled() ? "" : " (disabled)");
  // Why a call got fewer threads than EXO_GEMM_GOVERNOR_MAX: shape-clamped
  // grants hit the work floor / scaling curve, occupancy-clamped grants
  // found the budget or pool already claimed by concurrent callers.
  gemm::Governor &Gov = gemm::Governor::global();
  gemm::GovernorStats GS = Gov.stats();
  std::printf("governor:    %s, ceiling %lld, min work %lld flops, curve %s; "
              "%llu grant(s), %llu shape-clamped, %llu occupancy-clamped, "
              "%llu full-width, avg width %.2f\n",
              gemm::Governor::enabledByEnv() ? "on (EXO_GEMM_GOVERNOR)"
                                             : "off by default",
              static_cast<long long>(Gov.ceiling()),
              static_cast<long long>(Gov.minWorkFlops()),
              gemm::PriorDb::global().lookupCurve() ? "stored" : "none",
              static_cast<unsigned long long>(GS.Grants),
              static_cast<unsigned long long>(GS.ShapeClamped),
              static_cast<unsigned long long>(GS.OccupancyClamped),
              static_cast<unsigned long long>(GS.FullWidth),
              GS.Grants ? static_cast<double>(GS.WidthSum) /
                              static_cast<double>(GS.Grants)
                        : 0.0);
  return 0;
}

int cmdTune(const std::vector<Problem> &Problems, const gemm::TuneOptions &O) {
  if (Problems.empty()) {
    std::fprintf(stderr, "tune: name at least one --shape or --model\n");
    return 2;
  }
  gemm::PriorDb &Db = gemm::PriorDb::global();
  if (!Db.enabled()) {
    std::fprintf(stderr, "prior db disabled (root: %s)\n", Db.root().c_str());
    return 1;
  }
  std::printf("tuning %zu shape(s), budget %lld, %.3gs per candidate, into "
              "%s\n",
              Problems.size(), static_cast<long long>(O.Budget), O.Seconds,
              Db.root().c_str());
  int Failures = 0;
  size_t Stored = 0;
  for (const Problem &P : Problems) {
    Expected<gemm::TuneResult> R = gemm::tuneShape(P.M, P.N, P.K, O, &Db);
    if (!R) {
      std::fprintf(stderr, "tune %lldx%lldx%lld: %s\n",
                   static_cast<long long>(P.M), static_cast<long long>(P.N),
                   static_cast<long long>(P.K), R.message().c_str());
      ++Failures;
      continue;
    }
    if (R->Stored) {
      ++Stored;
      std::printf("tune %lldx%lldx%lld: stored %lldx%lld (%.2f GFLOPS, "
                  "model %lldx%lld %.2f, +%.1f%%), %zu candidate(s)\n",
                  static_cast<long long>(P.M), static_cast<long long>(P.N),
                  static_cast<long long>(P.K),
                  static_cast<long long>(R->Best.MR),
                  static_cast<long long>(R->Best.NR), R->Best.Gflops,
                  static_cast<long long>(R->ModelMR),
                  static_cast<long long>(R->ModelNR), R->ModelGflops,
                  100.0 * (R->Best.Gflops / R->ModelGflops - 1.0),
                  R->Samples.size());
    } else {
      std::printf("tune %lldx%lldx%lld: model %lldx%lld holds (%.2f GFLOPS, "
                  "best candidate %.2f), nothing stored, %zu candidate(s)\n",
                  static_cast<long long>(P.M), static_cast<long long>(P.N),
                  static_cast<long long>(P.K),
                  static_cast<long long>(R->ModelMR),
                  static_cast<long long>(R->ModelNR), R->ModelGflops,
                  R->Best.Gflops, R->Samples.size());
    }
  }
  std::printf("tune done: %zu record(s) stored, %d failure(s)\n", Stored,
              Failures);
  return Failures ? 1 : 0;
}

int cmdPriors(const std::string &Action, bool KeepForeign,
              int64_t MaxRecords) {
  gemm::PriorDb &Db = gemm::PriorDb::global();
  if (!Db.enabled()) {
    std::fprintf(stderr, "prior db disabled (root: %s)\n", Db.root().c_str());
    return 1;
  }
  if (Action == "list") {
    std::vector<gemm::PriorDb::Entry> Entries = Db.list();
    std::printf("%-20s %-7s %-9s %9s %9s  %s\n", "shape", "tile", "gflops",
                "margin", "bytes", "flags");
    for (const auto &E : Entries) {
      if (E.Corrupt) {
        std::printf("%-20s corrupt: %s\n", "?", E.Path.c_str());
        continue;
      }
      std::printf("%5lldx%-5lldx%-7lld %lldx%-5lld %-9.2f %+9.2f %9llu  "
                  "%s%s%s\n",
                  static_cast<long long>(E.Rec.M),
                  static_cast<long long>(E.Rec.N),
                  static_cast<long long>(E.Rec.K),
                  static_cast<long long>(E.Rec.MR),
                  static_cast<long long>(E.Rec.NR), E.Rec.TunedGflops,
                  E.Rec.margin(), static_cast<unsigned long long>(E.Bytes),
                  E.ClassEntry ? "class " : "exact ",
                  E.MachineMatch ? "" : "foreign ",
                  E.Rec.UnrollCompute ? "unroll" : "");
    }
    std::printf("%zu record(s), root %s\n", Entries.size(),
                Db.root().c_str());
    return 0;
  }
  if (Action == "verify") {
    size_t Corrupt = 0;
    for (const auto &E : Db.list())
      if (E.Corrupt) {
        ++Corrupt;
        std::printf("corrupt: %s\n", E.Path.c_str());
      }
    size_t Quarantined = Db.quarantine();
    std::printf("%zu corrupt record(s), %zu quarantined\n", Corrupt,
                Quarantined);
    return 0;
  }
  if (Action == "prune") {
    size_t Removed = Db.prune(!KeepForeign, MaxRecords);
    std::printf("pruned %zu file(s); %zu record(s) remain under %s\n",
                Removed, Db.list().size(), Db.root().c_str());
    return 0;
  }
  std::fprintf(stderr, "priors: '%s' is not list|verify|prune\n",
               Action.c_str());
  return 2;
}

int cmdPlan(const std::vector<Problem> &Problems, gemm::DType Ty) {
  if (Problems.empty()) {
    std::fprintf(stderr, "plan: name at least one --shape\n");
    return 2;
  }
  for (const Problem &P : Problems) {
    gemm::PlanOutcome Out;
    gemm::PlanChoice C =
        gemm::choosePlan(P.M, P.N, P.K, nullptr, &Out, Ty);
    std::printf("plan %lldx%lldx%lld (%s): tile %lldx%lld source %s",
                static_cast<long long>(P.M), static_cast<long long>(P.N),
                static_cast<long long>(P.K), gemm::dtypeName(Ty),
                static_cast<long long>(C.MR), static_cast<long long>(C.NR),
                C.Source);
    if (C.Blocks)
      std::printf(" blocks %s", C.Blocks->describe().c_str());
    if (C.UnrollCompute)
      std::printf(" unroll");
    if (Out.TunedRejected)
      std::printf(" (%llu prior record(s) rejected)",
                  static_cast<unsigned long long>(Out.TunedRejected));
    std::printf("\n");
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cmd, Sub;
  int64_t MR = 8, NR = 12;
  bool Full = false, Fix = false, JsonOut = false, KeepForeign = false;
  unsigned Jobs = 0;
  uint64_t MaxBytes = JitDiskCache::configuredMaxBytes();
  int64_t MaxRecords = 0;
  std::vector<Problem> Problems;
  gemm::DType Dtype = gemm::DType::F32;
  gemm::TuneOptions Tune = gemm::tuneOptionsFromEnv();

  for (int I = 1; I < Argc; ++I) {
    auto Value = [&](const char *Flag) -> const char * {
      if (std::strcmp(Argv[I], Flag) != 0)
        return nullptr;
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "%s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (const char *V = Value("--dir")) {
      JitDiskCache::setGlobalRoot(V);
    } else if (const char *V = Value("--db")) {
      gemm::PriorDb::setGlobalRoot(V);
    } else if (const char *V = Value("--budget")) {
      Tune.Budget = std::atoll(V);
      if (Tune.Budget < 1) {
        std::fprintf(stderr, "--budget: '%s' is not a positive count\n", V);
        return 2;
      }
    } else if (const char *V = Value("--seconds")) {
      Tune.Seconds = std::atof(V);
      if (!(Tune.Seconds > 0)) {
        std::fprintf(stderr, "--seconds: '%s' is not a positive number\n", V);
        return 2;
      }
    } else if (const char *V = Value("--threads")) {
      Tune.Threads = std::atoll(V);
      if (Tune.Threads < 1) {
        std::fprintf(stderr, "--threads: '%s' is not a positive count\n", V);
        return 2;
      }
    } else if (const char *V = Value("--min-margin")) {
      Tune.MinMargin = std::atof(V);
    } else if (const char *V = Value("--dtype")) {
      if (!gemm::parseDType(V, Dtype)) {
        std::fprintf(stderr, "--dtype: '%s' is not f32|f16|bf16|i8\n", V);
        return 2;
      }
    } else if (const char *V = Value("--max-records")) {
      MaxRecords = std::atoll(V);
      if (MaxRecords < 0) {
        std::fprintf(stderr, "--max-records: '%s' is not a count\n", V);
        return 2;
      }
    } else if (const char *V = Value("--mr")) {
      MR = std::atoll(V);
    } else if (const char *V = Value("--nr")) {
      NR = std::atoll(V);
    } else if (const char *V = Value("--jobs")) {
      Jobs = static_cast<unsigned>(std::atoi(V));
    } else if (const char *V = Value("--shape")) {
      Problem P;
      long long M = 0, N = 0, K = 0;
      char Trail = 0;
      if (std::sscanf(V, "%lldx%lldx%lld%c", &M, &N, &K, &Trail) != 3 ||
          M < 1 || N < 1 || K < 1) {
        std::fprintf(stderr, "--shape: '%s' is not MxNxK\n", V);
        return 2;
      }
      P.M = M;
      P.N = N;
      P.K = K;
      Problems.push_back(P);
    } else if (const char *V = Value("--model")) {
      const std::vector<dnn::LayerGemm> *Layers = nullptr;
      if (!std::strcmp(V, "resnet"))
        Layers = &dnn::resnet50Layers();
      else if (!std::strcmp(V, "vgg"))
        Layers = &dnn::vgg16Layers();
      else {
        std::fprintf(stderr, "--model: '%s' is not resnet|vgg\n", V);
        return 2;
      }
      for (const dnn::LayerGemm &L : *Layers)
        Problems.push_back(Problem{L.M, L.N, L.K});
    } else if (const char *V = Value("--max-bytes")) {
      char *End = nullptr;
      MaxBytes = std::strtoull(V, &End, 10);
      if (End == V || *End) {
        // A typo must not parse as 0 and evict the whole cache.
        std::fprintf(stderr, "--max-bytes: '%s' is not a byte count\n", V);
        return 2;
      }
    } else if (!std::strcmp(Argv[I], "--full")) {
      Full = true;
    } else if (!std::strcmp(Argv[I], "--fix")) {
      Fix = true;
    } else if (!std::strcmp(Argv[I], "--json")) {
      JsonOut = true;
    } else if (!std::strcmp(Argv[I], "--keep-foreign")) {
      KeepForeign = true;
    } else if (!std::strcmp(Argv[I], "--help") ||
               !std::strcmp(Argv[I], "-h")) {
      usage(Argv[0]);
      return 0;
    } else if (Argv[I][0] != '-' && Cmd.empty()) {
      Cmd = Argv[I];
    } else if (Argv[I][0] != '-' && Cmd == "priors" && Sub.empty()) {
      Sub = Argv[I];
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Argv[I]);
      usage(Argv[0]);
      return 2;
    }
  }

  Tune.Dtype = Dtype;
  if (Cmd == "list")
    return cmdList();
  if (Cmd == "warm")
    return cmdWarm(MR, NR, Full, Jobs, Problems, Dtype);
  if (Cmd == "prune")
    return cmdPrune(MaxBytes);
  if (Cmd == "verify")
    return cmdVerify(Fix);
  if (Cmd == "stats")
    return cmdStats(JsonOut);
  if (Cmd == "tune")
    return cmdTune(Problems, Tune);
  if (Cmd == "priors")
    return cmdPriors(Sub, KeepForeign, MaxRecords);
  if (Cmd == "plan")
    return cmdPlan(Problems, Dtype);
  usage(Argv[0]);
  return 2;
}
