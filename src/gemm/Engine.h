//===- Engine.h - Plan-once/execute-many GEMM front door ------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-path entry point: `Engine::gemm` (and its f32 spelling
/// `Engine::sgemm`) looks like a BLAS call, but behind it every distinct
/// problem shape and dtype is planned once — micro-
/// kernel tile chosen by the planner (Planner.h), kernels resolved through
/// the provider, blocking clamped, team factorized, edge kernels probed —
/// and the resulting ExecPlan is cached and re-executed on every later
/// call. The paper's thesis (specialize the micro-kernel to the problem,
/// §IV) moves from bench-harness code into the dispatch layer.
///
/// Guarantees:
///   - Results are bitwise identical to the legacy blisGemm/blisGemmT path
///     for the same (provider, tile, plan): both front doors execute the
///     exact same detail::executeGemm (enforced by EngineTest's
///     differential sweep). Every dtype runs that one executor, and with
///     the governor on every dtype runs on granted teams.
///   - Degenerate calls (m/n/k == 0, alpha == 0) return before touching
///     the plan cache and never allocate or plan.
///   - The steady state performs zero heap allocations per call: plans are
///     cached, workspaces pooled per plan, and team dispatch uses the
///     ThreadPool's raw-callback form (asserted by engine_alloc_test).
///
/// Concurrency: one Engine may serve concurrent callers. Plan lookup takes
/// a shared lock; a miss builds the plan exactly once per key (concurrent
/// requesters for the same shape wait rather than duplicate the JIT work).
///
/// Knobs: EXO_GEMM_PLAN_CACHE (0 disables caching — plan per call),
/// EXO_GEMM_PLAN_CACHE_CAP (entry cap, approximate-LRU eviction past it);
/// see docs/KNOBS.md.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_ENGINE_H
#define GEMM_ENGINE_H

#include "gemm/Gemm.h"
#include "gemm/Planner.h"

#include <memory>

namespace gemm {

/// How an Engine sources micro-kernels. The fixed series mirror the
/// paper's baselines; Auto prefers generated kernels and degrades to the
/// portable BLIS-style kernel when the JIT cannot produce one.
enum class EngineSeries : uint8_t {
  Auto,         ///< Exo when the JIT delivers, Blis otherwise
  Exo,          ///< generated kernel per shape (ExoProvider)
  HandVector,   ///< the hand-written 8x12 vector kernel ("ALG+NEON")
  Blis,         ///< the BLIS-style C kernel ("ALG+BLIS")
  BlisPrefetch, ///< the prefetching variant ("BLIS")
  Custom,       ///< caller-supplied provider (EngineConfig::Provider)
};

struct EngineConfig {
  EngineSeries Series = EngineSeries::Auto;
  /// Provider for EngineSeries::Custom; shared so cached plans can hold
  /// the kernels alive past caller scope.
  std::shared_ptr<KernelProvider> Provider;
  /// Restricts planner tile candidates to this library's vector width
  /// (the figure benches keep every series at one width). Part of the
  /// plan key.
  const exo::IsaLib *Isa = nullptr;
  /// Pin the full tile instead of consulting the planner (> 0 both).
  int64_t ForceMR = 0, ForceNR = 0;
  /// GemmPlan::Threads semantics: 0 resolves EXO_GEMM_THREADS per call.
  int64_t Threads = 0;
  bool SpecializeEdges = true;
  bool UnrollCompute = false;
  /// Ablation overrides; unset uses the analytical model / edge probe
  /// (GemmPlan::standard).
  std::optional<BlockSizes> Blocks;
  std::optional<EdgePack> PackMode;
  /// Plan-cache controls; -1 defers to EXO_GEMM_PLAN_CACHE /
  /// EXO_GEMM_PLAN_CACHE_CAP (default: on, 256 entries).
  int PlanCache = -1;
  int64_t PlanCacheCap = -1;
  /// Consult the autotuner's persistent prior database (PriorDb::global(),
  /// rooted at EXO_GEMM_PRIOR_DB) before the analytical model.
  /// false is the ablation arm benches use to measure the model alone.
  bool TunedPriors = true;
  /// Governed dispatch (Governor.h, docs/CONCURRENCY.md): the per-call
  /// team width is granted by the process-wide governor — shape model plus
  /// live pool occupancy — instead of being fixed at the resolved thread
  /// count. Plans are keyed and sized at the fixed width; grants only
  /// narrow the executing team, so results stay bitwise identical.
  /// -1 defers to EXO_GEMM_GOVERNOR (default off — the paper's fixed-team
  /// methodology; gemmd enables it for its shared Engine), 0 off, 1 on.
  int Governor = -1;
};

/// Plan-cache counters (relaxed; exact under external synchronization).
struct EngineStats {
  uint64_t Hits = 0;       ///< calls served by a cached plan
  uint64_t Misses = 0;     ///< calls that had to build (or wait for) a plan
  uint64_t Builds = 0;     ///< plans built (exactly one per cached key)
  uint64_t Evictions = 0;  ///< plans dropped by the cache cap
  uint64_t Degenerate = 0; ///< calls answered by the quick return
  uint64_t StickyErrors = 0; ///< sticky build failures recorded in the cache
  uint64_t BatchedItems = 0;  ///< items seen by the batched entry points
  uint64_t BatchedGroups = 0; ///< distinct shape groups executed in batches
  uint64_t BatchedCrossItem = 0; ///< items run whole-item across the pool
  // Per-plan provenance (PlanSource), counted at build time.
  uint64_t PlansFromModel = 0; ///< analytical-model tiles
  uint64_t PlansFromTuned = 0; ///< autotuner prior-database tiles
  /// Tuned prior records rejected during selection (inadmissible tile, or
  /// failing the never-lose gate).
  uint64_t PriorRejected = 0;
  // Governed dispatch (EngineConfig::Governor; zeros when off).
  uint64_t GovGrants = 0;       ///< calls that went through the governor
  uint64_t GovShapeClamped = 0; ///< grants narrowed by the shape model
  uint64_t GovOccClamped = 0;   ///< grants narrowed by occupancy/budget
  uint64_t GovWidthSum = 0;     ///< sum of granted widths (avg = /GovGrants)
  /// Live plan-cache entries per dtype, indexed by DType (the
  /// `ukr_cachectl stats --json` per-dtype breakdown). Counted at build
  /// time, decremented on eviction — unlike the monotonic counters above,
  /// these describe the cache's current contents.
  uint64_t PlansByDtype[DTypeCount] = {};
};

/// One problem of a batch handed to Engine::sgemmBatched. Identical field
/// semantics to the corresponding sgemm arguments. Precondition: distinct
/// items' C regions must not overlap — small-item groups execute
/// concurrently, one item per pool worker, so an overlap would be a data
/// race (and would break the batched == N-sequential-calls equivalence).
/// A and B may be shared between items freely.
struct GemmBatchItem {
  Trans TA = Trans::None, TB = Trans::None;
  int64_t M = 0, N = 0, K = 0;
  float Alpha = 1.0f;
  const float *A = nullptr;
  int64_t Lda = 0;
  const float *B = nullptr;
  int64_t Ldb = 0;
  float Beta = 0.0f;
  float *C = nullptr;
  int64_t Ldc = 0;
};

/// See file comment.
class Engine {
public:
  Engine(); ///< EngineConfig defaults (Auto series).
  explicit Engine(const EngineConfig &Cfg);
  ~Engine();

  Engine(const Engine &) = delete;
  Engine &operator=(const Engine &) = delete;

  /// The process-wide default-configured Engine (examples, dnn drivers).
  static Engine &global();

  /// The front door: C = alpha * op(A) * op(B) + beta * C,
  /// column-major, with operand storage in \p Ty's element types
  /// (dtypeInBytes / dtypeOutBytes; docs/PRECISION.md):
  ///
  ///   F32    float storage; sgemm below is this door.
  ///   F16    A/B/C are IEEE binary16 (uint16_t storage); FMAs in f32 over
  ///   BF16   convert-packed panels (bf16 likewise), alpha/beta applied in
  ///          f32, C rounded to storage (RNE) once per Kc depth block.
  ///   I8I32  A/B are int8, C is int32; i32 accumulate with two's-
  ///          complement wraparound. Alpha and beta must be exact integers
  ///          (a fractional scale is rejected — quantization policy lives
  ///          in the caller).
  ///
  /// Degenerate calls (m/n/k == 0, alpha == 0) return before planning:
  /// beta == 0 overwrites in storage type and A/B are never read. Every
  /// dtype flows through the same plan cache, pooled workspaces, governor
  /// and five-loop executor; plans are keyed by dtype. Fails on negative
  /// dimensions or when no runnable kernel exists for the shape.
  exo::Error gemm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                  int64_t K, double Alpha, const void *A, int64_t Lda,
                  const void *B, int64_t Ldb, double Beta, void *C,
                  int64_t Ldc);

  /// gemm(DType::F32, ...): the BLAS-shaped f32 entry the rest of the stack
  /// calls. Identical semantics to blisGemmT.
  exo::Error sgemm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                   float Alpha, const float *A, int64_t Lda, const float *B,
                   int64_t Ldb, float Beta, float *C, int64_t Ldc);

  /// Non-transposed convenience form.
  exo::Error sgemm(int64_t M, int64_t N, int64_t K, float Alpha,
                   const float *A, int64_t Lda, const float *B, int64_t Ldb,
                   float Beta, float *C, int64_t Ldc) {
    return sgemm(Trans::None, Trans::None, M, N, K, Alpha, A, Lda, B, Ldb,
                 Beta, C, Ldc);
  }

  /// Executes \p Count independent GEMMs, result-equivalent (bitwise, for
  /// every thread count) to calling sgemm once per item in order. Items
  /// are grouped by (TA, TB, M, N, K) so each distinct shape hits the plan
  /// cache once, and each group picks its execution strategy via the
  /// planner's cache model (batchPrefersCrossItem): large items keep the
  /// intra-item team split, small items run whole — one item per pool
  /// worker with its own pooled packing workspace — so a batch of
  /// thousands of tiny GEMMs stops wasting the pool on shapes too small
  /// to split. Validates every item before any work: on error, no C is
  /// written. Degenerate items (M/N/K == 0, alpha == 0) follow sgemm's
  /// quick-return semantics wherever they sit in the batch.
  exo::Error sgemmBatched(const GemmBatchItem *Items, int64_t Count);

  /// Convenience overload.
  exo::Error sgemmBatched(const std::vector<GemmBatchItem> &Items) {
    return sgemmBatched(Items.data(), static_cast<int64_t>(Items.size()));
  }

  /// Strided-batched form (the cuBLAS-style layout): item i computes
  /// C + i*StrideC = alpha * op(A + i*StrideA) * op(B + i*StrideB) +
  /// beta * (C + i*StrideC), strides in elements. StrideA/StrideB may be 0
  /// (operand shared across items); StrideC must keep the C regions
  /// disjoint — with BatchCount > 1 it must be >= Ldc * N (checked), the
  /// same rule cuBLAS imposes, because items may execute concurrently.
  exo::Error sgemmStridedBatched(Trans TA, Trans TB, int64_t M, int64_t N,
                                 int64_t K, float Alpha, const float *A,
                                 int64_t Lda, int64_t StrideA, const float *B,
                                 int64_t Ldb, int64_t StrideB, float Beta,
                                 float *C, int64_t Ldc, int64_t StrideC,
                                 int64_t BatchCount);

  /// Builds and caches the plan for a shape ahead of traffic. The plan
  /// build resolves every kernel the plan dispatches (for f32 the main
  /// tile and the edge widths this shape needs; for f16/bf16 the main
  /// kernel; i8 compiles nothing) through ukr::KernelCache, so the next
  /// call on the shape builds neither a plan nor a kernel.
  exo::Error warm(DType Ty, Trans TA, Trans TB, int64_t M, int64_t N,
                  int64_t K);

  /// f32 warm-up.
  exo::Error warm(Trans TA, Trans TB, int64_t M, int64_t N, int64_t K) {
    return warm(DType::F32, TA, TB, M, N, K);
  }

  /// Tile + provider the cached (or freshly built) plan for this shape
  /// uses; builds the plan as a side effect. For tests and bench labels.
  exo::Expected<PlanChoice> planFor(Trans TA, Trans TB, int64_t M, int64_t N,
                                    int64_t K);

  /// Drops every cached plan (bench_dispatch's cold-plan series; tests).
  void clearPlanCache();

  /// Cached plan count.
  size_t planCount() const;

  EngineStats stats() const;
  void resetStats();

  /// The active series' display name ("exo", "blis", ...).
  const char *seriesName() const;

private:
  struct Impl;
  Impl *I;
};

} // namespace gemm

#endif // GEMM_ENGINE_H
