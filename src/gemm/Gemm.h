//===- Gemm.h - BLIS-like GEMM driver -------------------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The GotoBLAS/BLIS five-loop macro-kernel (paper Figs. 1-2): jc over nc
/// column blocks (Bc packed for L3), pc over kc depth blocks, ic over mc row
/// blocks (Ac packed for L2), then jr/ir micro-tile loops invoking the
/// micro-kernel. A problem with a single ic block never shares Bc, so it
/// packs each B panel at its jr strip instead, with no team barriers. Edge tiles either dispatch to a provider-specialized
/// kernel (EXO mode, tight packing) or run the monolithic kernel into a
/// zero-padded scratch tile (BLIS mode). One executor serves every dtype;
/// only packing and the micro-tile update depend on it (detail::executeGemm).
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_GEMM_H
#define GEMM_GEMM_H

#include "exo/support/Error.h"
#include "gemm/CacheModel.h"
#include "gemm/MicroKernel.h"
#include "gemm/Pack.h"
#include "gemm/ThreadPool.h"

#include <cstddef>
#include <new>
#include <optional>
#include <vector>

namespace gemm {

struct GemmPlan {
  BlockSizes Blocks;
  /// Tight for providers with per-edge kernels; ZeroPad for monolithic
  /// kernels routed through the scratch tile. Tight mode tolerates a
  /// *partial* edge family: a strip width without a specialized kernel
  /// degrades to the monolithic kernel over a re-padded panel copy.
  EdgePack PackMode = EdgePack::ZeroPad;
  /// Macro-kernel team size. 0 (the default) resolves through
  /// EXO_GEMM_THREADS — unset means 1, preserving the paper's single-core
  /// methodology; see resolveGemmThreads() in ThreadPool.h. Loop 3 (ic
  /// blocks) is parallelized first, loop 4 (jr strips) absorbs the
  /// remainder; results are bitwise identical for every thread count.
  int64_t Threads = 0;

  /// Standard plan for \p P: analytical blocking for the host caches and
  /// the packing mode implied by the provider's edge support.
  static GemmPlan standard(KernelProvider &P);
};

/// BLAS-style operand transposition. Packing absorbs the transpose (the
/// packed panels are identical either way), so transposed GEMM costs the
/// same as the plain case — the BLIS property.
enum class Trans : uint8_t { None, Transpose };

/// Column-major SGEMM, C = alpha*A*B + beta*C, through the macro-kernel.
/// Beta == 0 overwrites C without reading it (BLAS semantics: NaN/Inf in
/// an uninitialized C buffer never propagates). Fails on invalid shapes or
/// a provider with no runnable main kernel; missing *edge* kernels degrade
/// to the scratch-tile path instead of failing.
///
/// Deprecated: new code should call Engine::sgemm (Engine.h), which caches
/// the per-shape plan and workspace this entry re-derives on every call.
/// Kept as a thin shim over the shared executor; results are bitwise
/// identical between the two front doors.
exo::Error blisGemm(const GemmPlan &Plan, KernelProvider &Provider,
                    int64_t M, int64_t N, int64_t K, float Alpha,
                    const float *A, int64_t Lda, const float *B, int64_t Ldb,
                    float Beta, float *C, int64_t Ldc);

/// General form: C = alpha * op(A) * op(B) + beta * C with op per operand.
/// op(A) is m x k; with TA == Transpose, A is stored k x m (leading
/// dimension >= k), and symmetrically for B.
///
/// Deprecated: prefer Engine::sgemm (Engine.h); see blisGemm above.
exo::Error blisGemmT(const GemmPlan &Plan, KernelProvider &Provider,
                     Trans TA, Trans TB, int64_t M, int64_t N, int64_t K,
                     float Alpha, const float *A, int64_t Lda,
                     const float *B, int64_t Ldb, float Beta, float *C,
                     int64_t Ldc);

namespace detail {

/// One GEMM call's operands and scalars, bundled so the resolved executor
/// below can be shared verbatim between the legacy entry points and the
/// Engine's cached-plan path (bitwise identity between the two front doors
/// falls out of running the same code). The operand pointers are raw
/// storage in the geometry's element types (dtypeInBytes / dtypeOutBytes).
/// Alpha/Beta are the f32 scales of the float dtypes; AlphaI/BetaI the
/// exact integer scales of I8I32 (set from the same user-facing doubles by
/// the Engine front door).
struct GemmCall {
  Trans TA = Trans::None, TB = Trans::None;
  int64_t M = 0, N = 0, K = 0;
  float Alpha = 1.0f;
  const void *A = nullptr;
  int64_t Lda = 0;
  const void *B = nullptr;
  int64_t Ldb = 0;
  float Beta = 1.0f;
  void *C = nullptr;
  int64_t Ldc = 0;
  int64_t AlphaI = 1, BetaI = 1;
};

/// Everything the five-loop executor needs that does not depend on the
/// operand pointers or scalars: resolved kernels, problem-clamped blocking,
/// and the team factorization. Deriving this once per (shape, plan) is what
/// the Engine caches; blisGemmT derives it per call.
struct GemmGeometry {
  MicroKernel Main{};
  /// Element type this geometry executes; it selects the executor's
  /// element policy. F32 runs the kernels straight into C (edge kernels,
  /// re-padded strips); F16/BF16 run the f32 kernels over convert-packed
  /// panels with per-Kc-block rounding at copy-out; I8I32 runs the
  /// K-grouped scalar dot (Main.Fn unused). Non-f32 geometries are always
  /// ZeroPad with no edge kernels.
  DType Ty = DType::F32;
  EdgePack PackMode = EdgePack::ZeroPad;
  int64_t Mr = 0, Nr = 0;
  int64_t Mc = 0, Kc = 0, Nc = 0; ///< clamped to the problem
  int64_t NIc = 0;                ///< ic block count
  int64_t T = 1;                  ///< team size, clamped to available work
  int64_t Tic = 1, Tjr = 1;       ///< 2D team factorization (ic x jr)
  /// Strip-width-indexed edge kernels, Nr entries; a nullopt width takes
  /// the re-padded scratch path. Points into caller-owned storage (the
  /// resolveEdgeKernels Storage argument) which must outlive execution.
  const std::optional<MicroKernel> *EdgeKernels = nullptr;
  bool NeedBPad = false; ///< some Tight-mode width lacks its edge kernel
};

/// Cache-line alignment of the workspace's panels and scratch tiles.
inline constexpr size_t PanelAlign = 64;

/// std::allocator with PanelAlign alignment, so a panel's first element
/// starts a cache line whatever the heap's history (plain malloc gives 16).
template <typename T> struct PanelAllocator {
  using value_type = T;
  PanelAllocator() = default;
  template <typename U> PanelAllocator(const PanelAllocator<U> &) noexcept {}
  T *allocate(size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t{PanelAlign}));
  }
  void deallocate(T *P, size_t N) noexcept {
    ::operator delete(P, N * sizeof(T), std::align_val_t{PanelAlign});
  }
  template <typename U> bool operator==(const PanelAllocator<U> &) const {
    return true;
  }
};

template <typename T> using PanelVector = std::vector<T, PanelAllocator<T>>;

/// Pack buffers and per-thread scratch for one geometry. ensure() resizes
/// to fit and is idempotent: a second call with the same geometry performs
/// no allocation, which is what keeps the Engine's pooled steady state
/// allocation-free. Every buffer is PanelAlign-aligned.
struct GemmWorkspace {
  PanelVector<float> BBuf;
  std::vector<PanelVector<float>> ABufs, Scratches, BPads;
  /// I8I32 geometries pack into byte panels and accumulate into i32
  /// scratch tiles instead; the float vectors above stay empty for them
  /// (and vice versa), so a pooled workspace is sized for exactly one
  /// dtype — which is what the per-plan pools hold anyway.
  PanelVector<int8_t> BBufI8;
  std::vector<PanelVector<int8_t>> ABufsI8;
  std::vector<PanelVector<int32_t>> ScratchesI32;
  void ensure(const GemmGeometry &G);
};

/// Clamps the plan's blocking to the problem and factorizes the team —
/// everything in GemmGeometry except edge-kernel resolution (which needs
/// the provider; see resolveEdgeKernels).
GemmGeometry deriveGeometry(const GemmPlan &Plan, const MicroKernel &Main,
                            int64_t M, int64_t N, int64_t K);

/// Recomputes Tic / Tjr from G.T and G.NIc (the divisor rule: Tic is the
/// largest divisor of T fitting the ic block count). Shared by
/// deriveGeometry and reteamGeometry so a re-teamed copy factorizes
/// exactly like a freshly derived one.
void factorizeTeam(GemmGeometry &G);

/// Resolves the kernel for every partial strip width occurring in an N-wide
/// problem into \p Storage (resized to Nr) and points G.EdgeKernels at it;
/// sets G.NeedBPad when some width lacks a runnable specialized kernel.
/// Must run on a thread allowed to call into the provider (may JIT).
void resolveEdgeKernels(KernelProvider &Provider, GemmGeometry &G, int64_t N,
                        std::vector<std::optional<MicroKernel>> &Storage);

/// The five-loop macro-kernel over a fully resolved geometry, for every
/// dtype: only packing, the beta pre-scale and the micro-tile update with
/// its copy-out depend on G.Ty (paper Fig. 1). F16/BF16 convert-pack to
/// f32 panels, run G.Main.Fn into a zeroed f32 scratch tile and round the
/// C update to storage once per Kc block; I8I32 packs K-grouped byte
/// panels and runs the scalar dot into an i32 scratch with two's-complement
/// wraparound. Performs no validation, no heap allocation, and never calls
/// into the provider; the workspace must already satisfy WS.ensure(G).
void executeGemm(const GemmGeometry &G, const GemmCall &Call,
                 GemmWorkspace &WS);

/// Returns \p G re-factorized for a team of \p Width (1 <= Width <= G.T):
/// same blocking, same kernels, recomputed T / Tic / Tjr via the divisor
/// rule of deriveGeometry. Because results are bitwise invariant under the
/// team size (Gemm.h file comment), executing a plan's geometry at any
/// smaller width — which is what the governor does under contention —
/// changes scheduling only, never output; and since Width <= G.T, a
/// workspace ensured for G already fits the re-teamed copy.
GemmGeometry reteamGeometry(const GemmGeometry &G, int64_t Width);

/// executeGemm on a team granted by the governor: Tid 0 on the caller and
/// one Tid per worker of \p Res (consumed; see ThreadPool::runTeam). The
/// geometry is re-teamed to the granted width 1 + Res.Count. Must not be
/// called from inside a pool job — reserve-then-run is for top-level
/// callers; nested calls take the plain executeGemm collapse path.
void executeGemmReserved(const GemmGeometry &G, const GemmCall &Call,
                         GemmWorkspace &WS, ThreadPool::Reservation &Res);

/// The shared degenerate path (K == 0 or alpha == 0): C = beta * C in
/// storage type, with beta == 0 overwriting rather than scaling (NaN-safe).
/// F16/BF16 scale in f32 and round back to storage; I8I32 scales the i32 C
/// by the integer beta with wraparound. Allocation-free.
void scaleByBeta(DType Ty, int64_t M, int64_t N, double Beta, void *C,
                 int64_t Ldc);

} // namespace detail

} // namespace gemm

#endif // GEMM_GEMM_H
