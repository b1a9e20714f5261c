//===- Planner.h - Shape-aware GEMM plan selection ------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The planning half of the Engine's plan-once/execute-many split: given an
/// (m, n, k) problem, choose the micro-kernel tile the paper's §IV-B
/// "matching the size of the micro-kernel to the problem" result calls for.
/// Selection runs in two stages:
///
///   1. Tuned prior (optional): the persistent autotuner database
///      (PriorDb.h) is consulted for a machine-matching record of this
///      shape (exact, else shape class). A record wins only when its tile
///      passes the same ISA/register screen as every other stage AND its
///      stored margin over the measured model baseline is positive — the
///      never-lose gate: a tuned prior can never beat the analytical
///      choice on paper but lose on its own shape.
///   2. Analytical score: every candidate tile the host can vectorize is
///      scored by estimated FMA throughput (flops per packed-panel load)
///      weighted by full-tile area coverage, with edge regions discounted,
///      register pressure enforced, and — when k is known — a small
///      penalty per extra L2 depth pass implied by the cache model's kc.
///
/// The candidate list, register-pressure rule, and ISA-per-shape choice
/// (ukr::shapeConfig) are shared with ExoProvider and `ukr_cachectl warm`,
/// so the planner, the provider's kernel memo, the tuner, and the fuzzer
/// agree on which kernel a shape maps to.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_PLANNER_H
#define GEMM_PLANNER_H

#include "gemm/CacheModel.h"
#include "gemm/DType.h"
#include "gemm/PriorDb.h"
#include "ukr/KernelRegistry.h"

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace gemm {

class PriorDb;

/// Where a plan's tile came from. Recorded per plan in EngineStats and as
/// an obs mark ("plan.source.<name>").
enum class PlanSource : uint8_t {
  Model,    ///< analytical cache-model score
  Tuned,    ///< autotuner record from the prior database
  Forced,   ///< caller pinned the tile (EngineConfig::ForceMR/NR)
  Fixed,    ///< fixed-series provider's native tile
  Fallback, ///< Auto series degraded to the portable kernel
};

/// Display name ("model", "tuned", ...).
const char *planSourceName(PlanSource S);

/// A planner decision: the full-tile shape plus where it came from, plus
/// the tuned execution overrides a prior-database record may carry.
struct PlanChoice {
  int64_t MR = 8, NR = 12;
  /// Always planSourceName(Src); kept as a field so bench labels and tests
  /// can read it without a lookup.
  const char *Source = "model";
  PlanSource Src = PlanSource::Model;
  /// Tuned blocking override (Src == Tuned only; unset = analytical).
  std::optional<BlockSizes> Blocks;
  /// Tuned compute-unroll override (Src == Tuned only).
  bool UnrollCompute = false;

  static PlanChoice make(int64_t Mr, int64_t Nr, PlanSource S) {
    PlanChoice C;
    C.MR = Mr;
    C.NR = Nr;
    C.Src = S;
    C.Source = planSourceName(S);
    return C;
  }
};

/// Selection accounting the Engine folds into EngineStats.
struct PlanOutcome {
  /// A tuned-database record existed for the shape but was rejected (tile
  /// inadmissible, or stored margin non-positive — the never-lose gate).
  uint64_t TunedRejected = 0;
};

/// The shared admissibility screen: \p Isa (or the widest host library
/// dividing \p Mr) must vectorize the tile within the 16-register budget
/// (C tile + one A register + one broadcast).
bool tileAdmissible(int64_t Mr, int64_t Nr,
                    const exo::IsaLib *ForceIsa = nullptr);

/// The planner's candidate full-tile shapes that pass tileAdmissible under
/// \p ForceIsa — the search space the tuner enumerates.
std::vector<std::pair<int64_t, int64_t>>
plannerTileCandidates(const exo::IsaLib *ForceIsa = nullptr);

/// Stage-2 selection only: the analytical tile score over the candidate
/// list. \p K == 0 skips the depth-pass penalty (the historical
/// ExoProvider::pickShape behavior, which delegates here); \p ForceIsa
/// restricts candidates to that library's vector width.
std::pair<int64_t, int64_t>
pickTileForProblem(int64_t M, int64_t N, int64_t K = 0,
                   const exo::IsaLib *ForceIsa = nullptr);

/// Full selection against the process-global prior database: tuned prior,
/// then the analytical score.
///
/// \p Ty threads the precision dimension through selection: f16/bf16 plans
/// run the same f32 kernels over convert-packed panels, so they share the
/// f32 analytical model, but their tuned priors are dtype-keyed (a winner
/// measured under one dtype never crosses over). I8I32 plans use the fixed
/// scalar-dot tile and never consult priors.
PlanChoice choosePlan(int64_t M, int64_t N, int64_t K,
                      const exo::IsaLib *ForceIsa = nullptr,
                      PlanOutcome *Outcome = nullptr,
                      DType Ty = DType::F32);

/// As choosePlan, but against an explicit database handle; \p Db == nullptr
/// skips the tuned stage entirely (EngineConfig::TunedPriors == false, the
/// bench_tune "model" arm).
PlanChoice choosePlanWithDb(int64_t M, int64_t N, int64_t K,
                            const exo::IsaLib *ForceIsa, PriorDb *Db,
                            PlanOutcome *Outcome = nullptr,
                            DType Ty = DType::F32);

/// The I8I32 full tile: the engine's K-grouped scalar dot has no vector
/// width to match, so every i8 plan uses this fixed shape (scratch tile
/// and panels stay small and L1-resident).
inline constexpr int64_t I8TileMR = 8, I8TileNR = 8;

/// Every kernel config a plan for (m, n, k) can dispatch: the chosen full
/// tile plus the specialized edge shapes the five-loop driver will request
/// for this problem's partial strips and short rows. What
/// `ukr_cachectl warm --shape/--model` precompiles.
///
/// Non-f32 dtypes never use specialized edge kernels, so their families
/// are a single config: f16/bf16 the f32 main tile actually executed over
/// convert-packed panels, i8 the typed widening-accumulator kernel config
/// (the ukr-layer artifact for the engine's scalar-dot tile).
std::vector<ukr::UkrConfig> planKernelFamily(int64_t M, int64_t N, int64_t K,
                                             DType Ty = DType::F32);

/// Working-set size below which a batch item counts as "small" for the
/// batched entry points' strategy choice: the host L2 capacity from the
/// cache model (an item whose A + B + C footprint fits in one core's
/// private L2 gains nothing from splitting loop 3 across cores, and
/// everything from running whole on one core while its siblings do the
/// same). Overridable via EXO_GEMM_BATCH_CROSSOVER (bytes; read per call
/// so tests can flip it).
int64_t batchCrossoverBytes();

/// Strategy choice for one shape group of a batch: true selects cross-item
/// scheduling (one whole item per pool worker), false the intra-item team
/// split Engine::sgemm uses. Cross-item requires real parallelism and more
/// than one item to spread; beyond that it is a pure working-set test
/// against batchCrossoverBytes().
bool batchPrefersCrossItem(int64_t M, int64_t N, int64_t K, int64_t Threads,
                           int64_t Items);

/// The governor's per-shape width model (docs/CONCURRENCY.md): how many
/// team members an (m, n, k) problem can productively use, before the
/// live-occupancy clamp. Two inputs compose:
///
///   1. Work floor: a problem below \p MinWorkFlops total flops (2mnk)
///      runs sequentially — its runtime is barrier/pack overhead, not
///      FMAs — and wider problems get at most one extra thread per
///      MinWorkFlops of work, so mid-sized shapes ramp up gradually.
///   2. Measured scaling curve (optional): when \p Curve is non-null,
///      widths whose measured marginal efficiency is poor are cut — the
///      result is the largest admissible width whose curve speedup is
///      within reach of linear (>= 50% parallel efficiency) and still
///      improving over the next narrower measured point.
///
/// The result is clamped to [1, MaxWidth]. MinWorkFlops <= 0 disables the
/// work floor (every shape may use MaxWidth; tests use this). Pure
/// function of its arguments — the env knobs are resolved by the Governor,
/// not here.
int64_t governorWidthForShape(int64_t M, int64_t N, int64_t K,
                              int64_t MinWorkFlops, int64_t MaxWidth,
                              const std::vector<GovernorCurvePoint> *Curve);

/// The same model for work already expressed as total flops — the batched
/// cross-item path, where a chunk of small items shares one team and it
/// is the chunk's aggregate work that justifies workers.
int64_t governorWidthForWork(double Flops, int64_t MinWorkFlops,
                             int64_t MaxWidth,
                             const std::vector<GovernorCurvePoint> *Curve);

} // namespace gemm

#endif // GEMM_PLANNER_H
