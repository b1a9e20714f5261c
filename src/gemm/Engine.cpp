//===- Engine.cpp ---------------------------------------------------------===//

#include "gemm/Engine.h"

#include "exo/support/Env.h"
#include "gemm/ExoProvider.h"
#include "gemm/Governor.h"
#include "gemm/PriorDb.h"
#include "gemm/Kernels.h"
#include "gemm/ThreadPool.h"
#include "obs/Obs.h"

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <shared_mutex>
#include <tuple>

using namespace exo;
using namespace gemm;

namespace {

/// Everything that distinguishes one cached plan from another within an
/// Engine. Threads enter pre-resolved (EXO_GEMM_THREADS can change between
/// calls); the ISA pointer covers engines reconfigured per series.
struct PlanKey {
  uint8_t TA = 0, TB = 0;
  int64_t M = 0, N = 0, K = 0;
  int64_t T = 1;
  const exo::IsaLib *Isa = nullptr;
  uint8_t Ty = 0; ///< DType of the call

  bool operator<(const PlanKey &O) const {
    return std::tie(TA, TB, M, N, K, T, Isa, Ty) <
           std::tie(O.TA, O.TB, O.M, O.N, O.K, O.T, O.Isa, O.Ty);
  }
};

/// A resolved, immutable-after-publish execution plan plus its workspace
/// pool. Geometry and edge kernels are never mutated once the plan is
/// visible to other threads; an evicted plan stays alive for in-flight
/// executions through their shared_ptr.
struct ExecPlan {
  detail::GemmGeometry G;
  std::vector<std::optional<MicroKernel>> Edges;
  std::shared_ptr<KernelProvider> Provider;
  PlanChoice Choice;
  GemmPlan Legacy;

  /// Pooled workspaces, bounded by the reserved capacity so release()
  /// never reallocates the vector (zero-allocation steady state).
  std::mutex PoolMu;
  std::vector<std::unique_ptr<detail::GemmWorkspace>> Pool;

  /// A pooled workspace, or a freshly sized one when every pooled
  /// workspace is in use.
  std::unique_ptr<detail::GemmWorkspace> acquire() {
    {
      std::lock_guard<std::mutex> Lock(PoolMu);
      if (!Pool.empty()) {
        std::unique_ptr<detail::GemmWorkspace> W = std::move(Pool.back());
        Pool.pop_back();
        return W;
      }
    }
    auto W = std::make_unique<detail::GemmWorkspace>();
    W->ensure(G);
    return W;
  }
  void release(std::unique_ptr<detail::GemmWorkspace> W) {
    std::lock_guard<std::mutex> Lock(PoolMu);
    if (Pool.size() < Pool.capacity())
      Pool.push_back(std::move(W));
    // Past capacity the workspace is simply dropped: an unusual burst of
    // concurrent callers shrinks back to the bounded pool afterwards.
  }
};

constexpr size_t WorkspacePoolCap = 16;

struct CacheEntry {
  std::shared_ptr<ExecPlan> Plan; ///< null while building
  std::string BuildError;         ///< sticky failure (set once, final)
  bool Building = false;
  std::atomic<uint64_t> LastUse{0}; ///< approximate-LRU stamp
};

int64_t envPlanCacheCap() {
  return exo::envInt("EXO_GEMM_PLAN_CACHE_CAP",
                     std::getenv("EXO_GEMM_PLAN_CACHE_CAP"),
                     /*Default=*/256, /*Min=*/1, /*Max=*/1 << 30);
}

bool envPlanCacheOn() {
  return exo::envBool("EXO_GEMM_PLAN_CACHE",
                      std::getenv("EXO_GEMM_PLAN_CACHE"), true);
}

} // namespace

struct Engine::Impl {
  EngineConfig Cfg;
  bool CacheOn = true;
  int64_t Cap = 256;
  /// Resolved fixed-series / custom provider (null for Exo; Auto keeps it
  /// around as the degradation target).
  std::shared_ptr<KernelProvider> Fixed;
  const char *Name = "auto";

  std::shared_mutex Mu; ///< guards Cache
  std::condition_variable_any Cv;
  std::map<PlanKey, CacheEntry> Cache;

  std::mutex ProvMu; ///< guards ExoProvs (build path only)
  std::map<std::pair<int64_t, int64_t>, std::shared_ptr<ExoProvider>>
      ExoProvs;

  std::atomic<uint64_t> Tick{0};
  std::atomic<uint64_t> Hits{0}, Misses{0}, Builds{0}, Evictions{0},
      Degenerate{0}, StickyErrors{0};
  std::atomic<uint64_t> BatchedItems{0}, BatchedGroups{0},
      BatchedCrossItem{0};
  std::atomic<uint64_t> PlansFromModel{0}, PlansFromTuned{0},
      PriorRejected{0};
  std::atomic<uint64_t> GovGrants{0}, GovShapeClamped{0}, GovOccClamped{0},
      GovWidthSum{0};

  /// Governed dispatch for this Engine: explicit config, else the
  /// EXO_GEMM_GOVERNOR env default (read per call so tests can flip it).
  bool governorOn() const {
    return Cfg.Governor > 0 ||
           (Cfg.Governor < 0 && Governor::enabledByEnv());
  }

  /// The canonical per-shape plan width — the team-size component of every
  /// plan key. Fixed dispatch: the resolved thread count, as always. With
  /// the governor on and no fixed width requested (resolves to 1), plans
  /// are keyed and sized at the governor ceiling so grants can widen up to
  /// it; an explicit width (EngineConfig::Threads or EXO_GEMM_THREADS)
  /// stays the cap and the governor only ever narrows below it. Either
  /// way the key is invariant across calls — grants never re-key.
  int64_t plannedThreads() const {
    const int64_t T = resolveGemmThreads(Cfg.Threads);
    if (T > 1 || !governorOn())
      return T;
    return Governor::global().ceiling();
  }

  /// Folds one grant into the per-Engine counters.
  void countGrant(const Governor::Grant &G) {
    GovGrants.fetch_add(1, std::memory_order_relaxed);
    GovWidthSum.fetch_add(static_cast<uint64_t>(G.width()),
                          std::memory_order_relaxed);
    if (G.shapeClamped())
      GovShapeClamped.fetch_add(1, std::memory_order_relaxed);
    if (G.occupancyClamped())
      GovOccClamped.fetch_add(1, std::memory_order_relaxed);
  }

  std::shared_ptr<ExoProvider> exoProviderFor(int64_t MR, int64_t NR,
                                              bool UnrollCompute) {
    // UnrollCompute is part of the memo key: a tuned prior can request the
    // unrolled schedule for one shape while others keep the default.
    const int64_t UnrollTag = UnrollCompute ? (int64_t(1) << 62) : 0;
    std::lock_guard<std::mutex> Lock(ProvMu);
    auto It = ExoProvs.find({MR, NR | UnrollTag});
    if (It != ExoProvs.end())
      return It->second;
    auto P = std::make_shared<ExoProvider>(MR, NR, Cfg.Isa, UnrollCompute);
    P->setSpecializeEdges(Cfg.SpecializeEdges);
    ExoProvs.emplace(std::make_pair(MR, NR | UnrollTag), P);
    return P;
  }

  PlanKey key(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
              int64_t T) const {
    return PlanKey{static_cast<uint8_t>(TA), static_cast<uint8_t>(TB), M, N,
                   K, T, Cfg.Isa, static_cast<uint8_t>(Ty)};
  }

  /// The plan for \p Key: the cached one (built on first use), or — with
  /// the plan cache off — a fresh build, counted as a miss and a build.
  Expected<std::shared_ptr<ExecPlan>> plan(const PlanKey &Key);

  /// Runs \p Call on \p Plan's geometry: on a governor-granted team when
  /// \p Governed and the plan is wider than one, else at the plan width.
  void execute(const ExecPlan &Plan, const detail::GemmCall &Call,
               detail::GemmWorkspace &WS, bool Governed);

  Expected<std::shared_ptr<ExecPlan>> build(const PlanKey &Key);
  std::shared_ptr<ExecPlan> lookupOrBuild(const PlanKey &Key, Error &Err);
  void evictLocked(const PlanKey *Keep = nullptr);
};

Expected<std::shared_ptr<ExecPlan>> Engine::Impl::build(const PlanKey &Key) {
  EXO_OBS_SPAN("plan.build");
  // Every entry point (gemm, planFor, warm) funnels through here, so this
  // is the one place the misconfiguration must be caught before the
  // fixed-series branch dereferences a null provider.
  if (Cfg.Series == EngineSeries::Custom && !Fixed)
    return errorf("gemm engine: custom series without a provider");
  const DType Ty = static_cast<DType>(Key.Ty);

  auto P = std::make_shared<ExecPlan>();
  MicroKernel Main;
  if (Ty == DType::I8I32) {
    // No provider, no JIT — the executor's built-in K-grouped scalar dot
    // runs the plan's fixed tile (Planner.h); Main.Fn stays unused.
    P->Choice = choosePlanWithDb(Key.M, Key.N, Key.K, nullptr, nullptr,
                                 nullptr, Ty);
    Main.MR = P->Choice.MR;
    Main.NR = P->Choice.NR;
    P->Legacy.Blocks = analyticalBlockSizes(CacheConfig::host(), Main.MR,
                                            Main.NR, dtypePackBytes(Ty));
  } else {
    PlanChoice Choice;
    std::shared_ptr<KernelProvider> Provider;
    const bool WantExo = Cfg.Series == EngineSeries::Exo ||
                         Cfg.Series == EngineSeries::Auto;
    if (WantExo) {
      if (Cfg.ForceMR > 0 && Cfg.ForceNR > 0) {
        Choice =
            PlanChoice::make(Cfg.ForceMR, Cfg.ForceNR, PlanSource::Forced);
      } else {
        PlanOutcome Out;
        Choice = choosePlanWithDb(
            Key.M, Key.N, Key.K, Cfg.Isa,
            Cfg.TunedPriors ? &PriorDb::global() : nullptr, &Out, Ty);
        PriorRejected.fetch_add(Out.TunedRejected,
                                std::memory_order_relaxed);
      }
      Provider = exoProviderFor(Choice.MR, Choice.NR,
                                Cfg.UnrollCompute || Choice.UnrollCompute);
    } else {
      Provider = Fixed;
      MicroKernel Mk = Provider->main();
      Choice = PlanChoice::make(Mk.MR, Mk.NR, PlanSource::Fixed);
    }

    Main = Provider->main();
    if (!Main.Fn && Cfg.Series == EngineSeries::Auto) {
      // No generated kernel (JIT or compiler unavailable): degrade to the
      // portable BLIS-style kernel so Auto engines always serve.
      Provider = Fixed;
      Main = Provider->main();
      Choice = PlanChoice::make(Main.MR, Main.NR, PlanSource::Fallback);
    }
    if (!Main.Fn)
      return errorf("gemm engine (%s): provider '%s' has no runnable kernel "
                    "for %lldx%lldx%lld",
                    Name, Provider->name(), static_cast<long long>(Key.M),
                    static_cast<long long>(Key.N),
                    static_cast<long long>(Key.K));
    P->Provider = Provider;
    P->Choice = Choice;
    P->Legacy = GemmPlan::standard(*Provider);
    if (Choice.Blocks)
      P->Legacy.Blocks = *Choice.Blocks;
    if (Cfg.PackMode)
      P->Legacy.PackMode = *Cfg.PackMode;
  }
  if (Cfg.Blocks)
    P->Legacy.Blocks = *Cfg.Blocks;
  P->Legacy.Threads = Key.T;

  // Per-plan provenance: one count and one obs mark per plan built. Forced,
  // fixed-series, and fallback plans mark but do not count — the counters
  // answer "which selection stage chose the tile", and those plans never
  // ran selection.
  const PlanSource Src = P->Choice.Src;
  if (Src == PlanSource::Model)
    PlansFromModel.fetch_add(1, std::memory_order_relaxed);
  else if (Src == PlanSource::Tuned)
    PlansFromTuned.fetch_add(1, std::memory_order_relaxed);
  obs::mark(Src == PlanSource::Model   ? "plan.source.model"
            : Src == PlanSource::Tuned ? "plan.source.tuned"
                                       : "plan.source.other");

  P->G = detail::deriveGeometry(P->Legacy, Main, Key.M, Key.N, Key.K);
  P->G.Ty = Ty;
  if (Ty == DType::F32) {
    detail::resolveEdgeKernels(*P->Provider, P->G, Key.N, P->Edges);
  } else {
    // Non-f32 plans run through the scratch tile over always zero-padded
    // panels; specialized edge kernels never dispatch, so none are
    // resolved or JIT'd.
    P->G.PackMode = EdgePack::ZeroPad;
  }
  P->Pool.reserve(WorkspacePoolCap);
  P->Pool.push_back(P->acquire());
  return P;
}

void Engine::Impl::evictLocked(const PlanKey *Keep) {
  while (static_cast<int64_t>(Cache.size()) > Cap) {
    auto Victim = Cache.end();
    uint64_t Oldest = ~uint64_t{0};
    for (auto It = Cache.begin(); It != Cache.end(); ++It) {
      if (It->second.Building)
        continue;
      if (Keep && !(It->first < *Keep) && !(*Keep < It->first))
        continue; // never evict the entry the caller is about to return
      // Sticky build-error entries are eligible too (their LastUse stays 0,
      // so they go first); otherwise unbuildable-shape probes would pin the
      // cache over cap forever.
      if (!It->second.Plan && It->second.BuildError.empty())
        continue;
      uint64_t Use = It->second.LastUse.load(std::memory_order_relaxed);
      if (Use < Oldest) {
        Oldest = Use;
        Victim = It;
      }
    }
    if (Victim == Cache.end())
      return; // everything in flight; over-cap is transient
    Cache.erase(Victim);
    Evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<ExecPlan> Engine::Impl::lookupOrBuild(const PlanKey &Key,
                                                      Error &Err) {
  {
    EXO_OBS_SPAN("plan.lookup");
    std::shared_lock<std::shared_mutex> SL(Mu);
    auto It = Cache.find(Key);
    if (It != Cache.end() && It->second.Plan) {
      It->second.LastUse.store(
          Tick.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      Hits.fetch_add(1, std::memory_order_relaxed);
      obs::mark("plan.hit");
      return It->second.Plan;
    }
  }

  Misses.fetch_add(1, std::memory_order_relaxed);
  std::unique_lock<std::shared_mutex> UL(Mu);
  for (;;) {
    CacheEntry &E = Cache[Key];
    if (E.Plan) {
      // Built while we waited for the lock (or by the builder we waited
      // on) — a miss in the counters, but no duplicate work.
      E.LastUse.store(Tick.fetch_add(1, std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
      return E.Plan;
    }
    if (!E.BuildError.empty()) {
      Err = errorf("%s", E.BuildError.c_str());
      return nullptr;
    }
    if (!E.Building) {
      E.Building = true;
      break;
    }
    Cv.wait(UL);
  }
  UL.unlock();

  Expected<std::shared_ptr<ExecPlan>> Built = build(Key);

  UL.lock();
  CacheEntry &E = Cache[Key];
  E.Building = false;
  if (!Built) {
    // Failures are sticky: a shape with no runnable kernel fails the same
    // way on every retry, and re-planning per call would hide that behind
    // repeated JIT attempts.
    E.BuildError = Built.message();
    StickyErrors.fetch_add(1, std::memory_order_relaxed);
    Err = errorf("%s", E.BuildError.c_str());
    // Error entries occupy cache slots too; evict here as well so a
    // workload probing many unbuildable shapes cannot grow the map past
    // cap (successful builds are the only other eviction point).
    evictLocked(&Key);
    Cv.notify_all();
    return nullptr;
  }
  E.Plan = Built.take();
  E.LastUse.store(Tick.fetch_add(1, std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  Builds.fetch_add(1, std::memory_order_relaxed);
  // Copy out before evicting: even though evictLocked() spares Key itself,
  // returning through the map reference would read a destroyed node if a
  // future victim policy ever touched it.
  std::shared_ptr<ExecPlan> Ret = E.Plan;
  evictLocked(&Key);
  Cv.notify_all();
  return Ret;
}

Expected<std::shared_ptr<ExecPlan>> Engine::Impl::plan(const PlanKey &Key) {
  if (!CacheOn) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    Expected<std::shared_ptr<ExecPlan>> Built = build(Key);
    if (Built)
      Builds.fetch_add(1, std::memory_order_relaxed);
    return Built;
  }
  Error Err = Error::success();
  std::shared_ptr<ExecPlan> Plan = lookupOrBuild(Key, Err);
  if (!Plan)
    return Err;
  return Plan;
}

void Engine::Impl::execute(const ExecPlan &Plan, const detail::GemmCall &Call,
                           detail::GemmWorkspace &WS, bool Governed) {
  // Governed dispatch: the process-wide governor grants this call a team
  // width in [1, plan width] from the shape model and live occupancy;
  // results are bitwise identical at every width (Gemm.h), so this only
  // changes scheduling. Nested calls are never governed (a reservation
  // cannot form from inside a pool job) and take executeGemm's collapse
  // path instead.
  if (Governed && Plan.G.T > 1) {
    Governor::Grant Grant;
    Governor::global().acquire(Call.M, Call.N, Call.K, Plan.G.T, Grant);
    countGrant(Grant);
    detail::executeGemmReserved(Plan.G, Call, WS, Grant.reservation());
  } else {
    detail::executeGemm(Plan.G, Call, WS);
  }
}

Engine::Engine() : Engine(EngineConfig{}) {}

Engine::Engine(const EngineConfig &Cfg) : I(new Impl) {
  I->Cfg = Cfg;
  I->CacheOn = Cfg.PlanCache >= 0 ? Cfg.PlanCache != 0 : envPlanCacheOn();
  I->Cap = Cfg.PlanCacheCap >= 0 ? std::max<int64_t>(Cfg.PlanCacheCap, 1)
                                 : envPlanCacheCap();
  switch (Cfg.Series) {
  case EngineSeries::Auto:
    I->Name = "auto";
    I->Fixed = std::make_shared<FixedProvider>(blisKernel(), "blis");
    break;
  case EngineSeries::Exo:
    I->Name = "exo";
    break;
  case EngineSeries::HandVector:
    I->Name = "hand-vector";
    I->Fixed =
        std::make_shared<FixedProvider>(handVectorKernel(), "hand-vector");
    break;
  case EngineSeries::Blis:
    I->Name = "blis";
    I->Fixed = std::make_shared<FixedProvider>(blisKernel(), "blis");
    break;
  case EngineSeries::BlisPrefetch:
    I->Name = "blis-prefetch";
    I->Fixed = std::make_shared<FixedProvider>(blisKernelPrefetch(),
                                               "blis-prefetch");
    break;
  case EngineSeries::Custom:
    I->Name = Cfg.Provider ? Cfg.Provider->name() : "custom";
    I->Fixed = Cfg.Provider;
    break;
  }
}

Engine::~Engine() { delete I; }

Engine &Engine::global() {
  static Engine E;
  return E;
}

Error Engine::gemm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                   int64_t K, double Alpha, const void *A, int64_t Lda,
                   const void *B, int64_t Ldb, double Beta, void *C,
                   int64_t Ldc) {
  if (M < 0 || N < 0 || K < 0)
    return errorf("gemm engine: negative dimension");
  detail::GemmCall Call{TA, TB,  M, N,   K,
                        static_cast<float>(Alpha),
                        A,  Lda, B, Ldb,
                        static_cast<float>(Beta),
                        C,  Ldc};
  // Alpha == 0 as the executor would apply it: in f32 for the float
  // dtypes, as the exact integer for I8I32.
  bool AlphaZero = Call.Alpha == 0.0f;
  if (Ty == DType::I8I32) {
    // Integer alpha/beta only: they scale the i32 accumulator exactly.
    // A fractional scale is a quantization policy decision that belongs in
    // the caller, not a silently-rounded GEMM parameter (DType.h).
    constexpr double Lim = 9.0e18; // < 2^63, exactly representable
    if (Alpha != std::nearbyint(Alpha) || Beta != std::nearbyint(Beta) ||
        std::fabs(Alpha) > Lim || std::fabs(Beta) > Lim)
      return errorf("gemm engine: i8 alpha/beta must be exact integers "
                    "(got alpha=%g beta=%g)",
                    Alpha, Beta);
    Call.AlphaI = static_cast<int64_t>(Alpha);
    Call.BetaI = static_cast<int64_t>(Beta);
    AlphaZero = Call.AlphaI == 0;
  }
  // Degenerate quick returns, ahead of the plan cache: trivial calls never
  // plan, allocate, or read A/B (BLAS semantics; beta == 0 overwrites in
  // storage type).
  if (M == 0 || N == 0) {
    I->Degenerate.fetch_add(1, std::memory_order_relaxed);
    return Error::success();
  }
  if (K == 0 || AlphaZero) {
    I->Degenerate.fetch_add(1, std::memory_order_relaxed);
    detail::scaleByBeta(Ty, M, N, Beta, C, Ldc);
    return Error::success();
  }
  if (I->Cfg.Series == EngineSeries::Custom && !I->Fixed)
    return errorf("gemm engine: custom series without a provider");

  const PlanKey Key = I->key(Ty, TA, TB, M, N, K, I->plannedThreads());
  Expected<std::shared_ptr<ExecPlan>> Planned = I->plan(Key);
  if (!Planned)
    return Planned.takeError();
  ExecPlan &Plan = **Planned;
  std::unique_ptr<detail::GemmWorkspace> WS = Plan.acquire();
  I->execute(Plan, Call, *WS,
             I->governorOn() && !ThreadPool::global().inParallel());
  Plan.release(std::move(WS));
  return Error::success();
}

Error Engine::sgemm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                    float Alpha, const float *A, int64_t Lda, const float *B,
                    int64_t Ldb, float Beta, float *C, int64_t Ldc) {
  return gemm(DType::F32, TA, TB, M, N, K, Alpha, A, Lda, B, Ldb, Beta, C,
              Ldc);
}

namespace {

/// Pool-callback context for one cross-item chunk: worker Tid runs items
/// Tid, Tid + W, Tid + 2W, ... whole, each in its own workspace. The plan
/// was keyed with T == 1, so the inner executeGemm dispatches inline and
/// never re-enters the pool with a team.
struct BatchJob {
  const detail::GemmGeometry *G;
  const GemmBatchItem *Base;   ///< the caller's item array
  const int64_t *Idx;          ///< indices of this chunk's items
  int64_t NItems;              ///< chunk size
  int64_t W;                   ///< worker count (= stride)
  detail::GemmWorkspace *const *WSs; ///< one workspace per worker
};

void runBatchItems(void *Ctx, int64_t Tid) {
  const BatchJob &J = *static_cast<BatchJob *>(Ctx);
  for (int64_t I = Tid; I < J.NItems; I += J.W) {
    const GemmBatchItem &It = J.Base[J.Idx[I]];
    detail::executeGemm(*J.G,
                        detail::GemmCall{It.TA, It.TB, It.M, It.N, It.K,
                                         It.Alpha, It.A, It.Lda, It.B, It.Ldb,
                                         It.Beta, It.C, It.Ldc},
                        *J.WSs[Tid]);
  }
}

/// Max items per cross-item dispatch: chunking bounds the per-batch index
/// array.
int64_t batchGroupMax() {
  return exo::envInt("EXO_GEMM_BATCH_GROUP_MAX",
                     std::getenv("EXO_GEMM_BATCH_GROUP_MAX"),
                     /*Default=*/4096, /*Min=*/1, /*Max=*/1 << 30);
}

} // namespace

Error Engine::sgemmBatched(const GemmBatchItem *Items, int64_t Count) {
  if (Count < 0)
    return errorf("gemm engine: negative batch count");
  if (Count > 0 && !Items)
    return errorf("gemm engine: null batch item array");
  // Validate the whole batch before touching any C: a batch either starts
  // or fails — callers never see half-written output on a bad item.
  for (int64_t Ix = 0; Ix < Count; ++Ix)
    if (Items[Ix].M < 0 || Items[Ix].N < 0 || Items[Ix].K < 0)
      return errorf("gemm engine: negative dimension in batch item %lld",
                    static_cast<long long>(Ix));
  if (I->Cfg.Series == EngineSeries::Custom && !I->Fixed)
    return errorf("gemm engine: custom series without a provider");
  I->BatchedItems.fetch_add(static_cast<uint64_t>(Count),
                            std::memory_order_relaxed);
  if (Count == 0)
    return Error::success();

  // Degenerate items resolve inline (sgemm's quick-return semantics, in
  // batch order — they never group or plan); the rest group by shape so
  // each distinct (TA, TB, M, N, K) plans once.
  std::map<std::tuple<uint8_t, uint8_t, int64_t, int64_t, int64_t>,
           std::vector<int64_t>>
      Groups;
  for (int64_t Ix = 0; Ix < Count; ++Ix) {
    const GemmBatchItem &It = Items[Ix];
    if (It.M == 0 || It.N == 0) {
      I->Degenerate.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (It.K == 0 || It.Alpha == 0.0f) {
      I->Degenerate.fetch_add(1, std::memory_order_relaxed);
      detail::scaleByBeta(DType::F32, It.M, It.N, It.Beta, It.C, It.Ldc);
      continue;
    }
    Groups[{static_cast<uint8_t>(It.TA), static_cast<uint8_t>(It.TB), It.M,
            It.N, It.K}]
        .push_back(Ix);
  }

  const int64_t T = I->plannedThreads();
  const bool Governed = I->governorOn() && !ThreadPool::global().inParallel();
  for (const auto &[Shape, Idx] : Groups) {
    const auto &[TA, TB, M, N, K] = Shape;
    const int64_t GroupItems = static_cast<int64_t>(Idx.size());
    const bool Cross =
        batchPrefersCrossItem(M, N, K, T, GroupItems) &&
        !ThreadPool::global().inParallel();
    // Cross-item groups run every item single-threaded, so they want the
    // T == 1 plan — a distinct cache key from the intra-item plan, which
    // is exactly right: the two strategies use different geometry.
    const PlanKey Key = I->key(DType::F32, static_cast<Trans>(TA),
                               static_cast<Trans>(TB), M, N, K,
                               Cross ? 1 : T);
    Expected<std::shared_ptr<ExecPlan>> Planned = I->plan(Key);
    if (!Planned)
      return Planned.takeError();
    const std::shared_ptr<ExecPlan> &Plan = *Planned;
    I->BatchedGroups.fetch_add(1, std::memory_order_relaxed);

    if (!Cross) {
      // Intra-item slab parallelism: the gemm execution body, amortizing
      // one workspace acquisition over the group. Governed per item, like
      // gemm: each item's grant tracks occupancy as sibling callers come
      // and go over a long batch.
      std::unique_ptr<detail::GemmWorkspace> WS = Plan->acquire();
      for (int64_t Ix : Idx) {
        const GemmBatchItem &It = Items[Ix];
        I->execute(*Plan,
                   detail::GemmCall{It.TA, It.TB, It.M, It.N, It.K, It.Alpha,
                                    It.A, It.Lda, It.B, It.Ldb, It.Beta,
                                    It.C, It.Ldc},
                   *WS, Governed);
      }
      Plan->release(std::move(WS));
      continue;
    }

    // Cross-item scheduling: one whole item per pool worker, per-worker
    // workspaces from the plan's pool. Chunked so enormous batches bound
    // their index spans.
    I->BatchedCrossItem.fetch_add(static_cast<uint64_t>(GroupItems),
                                  std::memory_order_relaxed);
    const int64_t ChunkMax = batchGroupMax();
    for (int64_t At = 0; At < GroupItems; At += ChunkMax) {
      const int64_t NItems = std::min(ChunkMax, GroupItems - At);
      int64_t W = std::min<int64_t>(T, NItems);
      // Governed: the chunk's aggregate flops (not one small item's) drive
      // the width model — cross-item chunks are many small items, and it
      // is their sum that justifies workers.
      Governor::Grant Grant;
      if (Governed && W > 1) {
        Governor::global().acquireFlops(2.0 * static_cast<double>(M) *
                                            static_cast<double>(N) *
                                            static_cast<double>(K) *
                                            static_cast<double>(NItems),
                                        W, Grant);
        I->countGrant(Grant);
        W = Grant.width();
      }
      std::vector<std::unique_ptr<detail::GemmWorkspace>> Owned(
          static_cast<size_t>(W));
      std::vector<detail::GemmWorkspace *> WSs(static_cast<size_t>(W));
      for (int64_t WI = 0; WI < W; ++WI) {
        Owned[WI] = Plan->acquire();
        WSs[WI] = Owned[WI].get();
      }
      BatchJob Job{&Plan->G, Items, Idx.data() + At, NItems, W, WSs.data()};
      if (Grant.reservation().Count > 0)
        ThreadPool::global().runTeam(Grant.reservation(), &runBatchItems,
                                     &Job);
      else
        ThreadPool::global().parallel(W, &runBatchItems, &Job);
      for (int64_t WI = 0; WI < W; ++WI)
        Plan->release(std::move(Owned[WI]));
    }
  }
  return Error::success();
}

Error Engine::sgemmStridedBatched(Trans TA, Trans TB, int64_t M, int64_t N,
                                  int64_t K, float Alpha, const float *A,
                                  int64_t Lda, int64_t StrideA,
                                  const float *B, int64_t Ldb,
                                  int64_t StrideB, float Beta, float *C,
                                  int64_t Ldc, int64_t StrideC,
                                  int64_t BatchCount) {
  if (BatchCount < 0)
    return errorf("gemm engine: negative batch count");
  if (StrideA < 0 || StrideB < 0 || StrideC < 0)
    return errorf("gemm engine: negative batch stride");
  // Disjoint-C rule (same as cuBLAS): items may run concurrently, so
  // overlapping C regions would race — and would not match sequential
  // semantics anyway.
  if (BatchCount > 1 && M > 0 && N > 0 && StrideC < Ldc * N)
    return errorf("gemm engine: StrideC (%lld) overlaps C items "
                  "(need >= Ldc * N = %lld)",
                  static_cast<long long>(StrideC),
                  static_cast<long long>(Ldc * N));
  std::vector<GemmBatchItem> Items(static_cast<size_t>(BatchCount));
  for (int64_t Ix = 0; Ix < BatchCount; ++Ix)
    Items[Ix] = GemmBatchItem{TA,
                              TB,
                              M,
                              N,
                              K,
                              Alpha,
                              A + Ix * StrideA,
                              Lda,
                              B + Ix * StrideB,
                              Ldb,
                              Beta,
                              C + Ix * StrideC,
                              Ldc};
  return sgemmBatched(Items.data(), BatchCount);
}

Expected<PlanChoice> Engine::planFor(Trans TA, Trans TB, int64_t M,
                                     int64_t N, int64_t K) {
  if (M <= 0 || N <= 0 || K <= 0)
    return errorf("gemm engine: planFor needs positive dimensions");
  Expected<std::shared_ptr<ExecPlan>> Plan =
      I->plan(I->key(DType::F32, TA, TB, M, N, K, I->plannedThreads()));
  if (!Plan)
    return Plan.takeError();
  return (*Plan)->Choice;
}

Error Engine::warm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                   int64_t K) {
  if (M <= 0 || N <= 0 || K <= 0)
    return Error::success(); // degenerate shapes never plan
  // Building the plan resolves every kernel it dispatches (main tile plus
  // the edge widths this N needs) through ukr::KernelCache.
  Expected<std::shared_ptr<ExecPlan>> Plan =
      I->plan(I->key(Ty, TA, TB, M, N, K, I->plannedThreads()));
  return Plan ? Error::success() : Plan.takeError();
}

void Engine::clearPlanCache() {
  std::unique_lock<std::shared_mutex> UL(I->Mu);
  for (auto It = I->Cache.begin(); It != I->Cache.end();) {
    if (It->second.Building)
      ++It; // the in-flight builder still owns this entry
    else
      It = I->Cache.erase(It);
  }
}

size_t Engine::planCount() const {
  std::shared_lock<std::shared_mutex> SL(I->Mu);
  size_t N = 0;
  for (const auto &[Key, E] : I->Cache)
    if (E.Plan)
      ++N;
  return N;
}

EngineStats Engine::counters() const {
  EngineStats S;
  S.Hits = I->Hits.load(std::memory_order_relaxed);
  S.Misses = I->Misses.load(std::memory_order_relaxed);
  S.Builds = I->Builds.load(std::memory_order_relaxed);
  S.Evictions = I->Evictions.load(std::memory_order_relaxed);
  S.Degenerate = I->Degenerate.load(std::memory_order_relaxed);
  S.StickyErrors = I->StickyErrors.load(std::memory_order_relaxed);
  S.BatchedItems = I->BatchedItems.load(std::memory_order_relaxed);
  S.BatchedGroups = I->BatchedGroups.load(std::memory_order_relaxed);
  S.BatchedCrossItem = I->BatchedCrossItem.load(std::memory_order_relaxed);
  S.PlansFromModel = I->PlansFromModel.load(std::memory_order_relaxed);
  S.PlansFromTuned = I->PlansFromTuned.load(std::memory_order_relaxed);
  S.PriorRejected = I->PriorRejected.load(std::memory_order_relaxed);
  S.GovGrants = I->GovGrants.load(std::memory_order_relaxed);
  S.GovShapeClamped = I->GovShapeClamped.load(std::memory_order_relaxed);
  S.GovOccClamped = I->GovOccClamped.load(std::memory_order_relaxed);
  S.GovWidthSum = I->GovWidthSum.load(std::memory_order_relaxed);
  return S;
}

int64_t Engine::teamWidthFor(double Flops) const {
  const int64_t T = I->plannedThreads();
  if (!I->governorOn())
    return T;
  return Governor::global().widthForWork(Flops, T);
}

EngineStats Engine::stats() const {
  EngineStats S = counters();
  {
    // A gauge, not a counter: the cache's live per-dtype contents, read
    // under the shared lock like planCount().
    std::shared_lock<std::shared_mutex> SL(I->Mu);
    for (const auto &[Key, E] : I->Cache)
      if (E.Plan && Key.Ty < DTypeCount)
        ++S.PlansByDtype[Key.Ty];
  }
  return S;
}

void Engine::resetStats() {
  I->Hits.store(0);
  I->Misses.store(0);
  I->Builds.store(0);
  I->Evictions.store(0);
  I->Degenerate.store(0);
  I->StickyErrors.store(0);
  I->BatchedItems.store(0);
  I->BatchedGroups.store(0);
  I->BatchedCrossItem.store(0);
  I->PlansFromModel.store(0);
  I->PlansFromTuned.store(0);
  I->PriorRejected.store(0);
  I->GovGrants.store(0);
  I->GovShapeClamped.store(0);
  I->GovOccClamped.store(0);
  I->GovWidthSum.store(0);
}

const char *Engine::seriesName() const { return I->Name; }
