//===- KernelRegistry.h - Generated-kernel cache and JIT handles ----------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns UkrConfig descriptions into callable kernels: runs the schedule,
/// emits C, JIT-compiles it with the system compiler, and caches the result
/// for the process lifetime. The GEMM framework asks this cache for the
/// specialized kernel of each (mr, nr) it encounters — the paper's "one
/// auto-generated micro-kernel per edge case" deployment model.
///
/// Built kernels flow through the two-level JIT cache (in-process map + the
/// persistent disk cache of DiskCache.h), so a process started over a warm
/// cache directory serves every kernel from disk with zero compiler
/// invocations — the AOT warmup path of `ukr_cachectl warm`.
///
/// Concurrency: each config is built once per cache. A miss builds outside
/// the cache lock, and concurrent requesters of the same config wait for
/// that one build instead of starting their own. get() builds on the
/// caller's thread; background workers (started on the first prefetch)
/// serve prefetch only. Kernel pointers handed out are stable for the
/// cache's lifetime.
///
/// Observability: every cache keeps a CacheStats ledger (hits, misses,
/// builds, failures, in-flight) and folds in the JIT-layer deltas (disk
/// hits, compiles, compile wall time) accumulated since its construction;
/// benches dump the global cache's snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef UKR_KERNELREGISTRY_H
#define UKR_KERNELREGISTRY_H

#include "exo/jit/Jit.h"
#include "ukr/UkrSchedule.h"

#include <cstdio>
#include <vector>

namespace ukr {

/// ABI of every generated f32 micro-kernel (parameter order follows the
/// reference spec after partial evaluation): C (NR x MR tile, row stride
/// ldc) += Ac (KC x MR panel) * Bc (KC x NR panel).
using MicroKernelF32 = void (*)(int64_t KC, int64_t Ldc, const float *Ac,
                                const float *Bc, float *C);

/// ABI of general alpha/beta kernels (UkrConfig::GeneralAlphaBeta, paper
/// Fig. 4): C = beta*C + Ac * (alpha*Bc).
using MicroKernelAxpbyF32 = void (*)(int64_t KC, int64_t Ldc,
                                     const float *Alpha, const float *Ac,
                                     const float *Bc, const float *Beta,
                                     float *C);

/// ABI of widened int8 kernels (UkrConfig::WidenAcc with Ty == i8): the C
/// tile is int32 and accumulation wraps around in two's complement.
using MicroKernelI8I32 = void (*)(int64_t KC, int64_t Ldc, const int8_t *Ac,
                                  const int8_t *Bc, int32_t *C);

/// A generated, compiled, callable kernel.
struct Kernel {
  UkrConfig Cfg;
  FmaStyle Style = FmaStyle::Scalar;
  exo::Proc Final;
  std::string CSource;
  exo::JitKernelPtr Jit;
  MicroKernelF32 Fn = nullptr;
  /// Set instead of Fn for GeneralAlphaBeta configurations.
  MicroKernelAxpbyF32 FnAxpby = nullptr;
  /// Set instead of Fn for widened int8 configurations.
  MicroKernelI8I32 FnI8 = nullptr;

  int64_t mr() const { return Cfg.MR; }
  int64_t nr() const { return Cfg.NR; }
};

/// Generates + compiles one kernel (uncached). Fn stays null when the
/// ISA is not executable on this host or no C compiler is available.
exo::Expected<Kernel>
buildKernel(const UkrConfig &Cfg,
            const exo::SchedOptions &Opts = exo::defaultSchedOptions());

/// Snapshot of one cache's counters (see file comment).
struct CacheStats {
  uint64_t Hits = 0;   ///< get() calls served a ready kernel
  uint64_t Misses = 0; ///< get() calls that built or waited for a build
  /// Always 0: no stand-in kernel is ever served. Kept only because the
  /// gemmd stats reply (ipc::StatsReplyMsg::UkrFallbacks) and the
  /// repository benchmark read it.
  uint64_t Fallbacks = 0;
  /// Builds run by the prefetch workers. Caller-thread builds are not
  /// counted here; every successful build, either way, shows in size().
  uint64_t Builds = 0;
  uint64_t Failures = 0; ///< builds (caller or worker) that ended in an error
  uint64_t InFlight = 0; ///< configs currently queued or building
  uint64_t DiskHits = 0; ///< JIT artifacts loaded from the disk cache
  uint64_t Compiles = 0; ///< compiler invocations
  double CompileMs = 0;  ///< wall time spent inside the compiler
  /// Disk-cache entries observed with an unparsable sidecar (process-wide,
  /// one per corrupt entry per directory scan; see
  /// exo::JitDiskCache::corruptMetaObserved).
  uint64_t CorruptMeta = 0;
};

/// See file comment. The disk cache it reads through is the global one;
/// repoint it with exo::JitDiskCache::setGlobalRoot.
class KernelCache {
public:
  /// \p Workers prefetch threads (0: EXO_KERNEL_WORKERS, else 2), started
  /// on the first prefetch. Tests construct private caches; everything
  /// else shares global().
  explicit KernelCache(unsigned Workers = 0);
  ~KernelCache(); ///< Drains nothing; joins the workers.

  KernelCache(const KernelCache &) = delete;
  KernelCache &operator=(const KernelCache &) = delete;

  /// The process-wide cache.
  static KernelCache &global();

  /// Returns the kernel for \p Cfg, building it on this thread on first
  /// use (or waiting for the build already running). A config whose
  /// earlier build failed is built again.
  exo::Expected<const Kernel *> get(const UkrConfig &Cfg);

  /// Queues a build for the prefetch workers without waiting.
  void prefetch(const UkrConfig &Cfg);

  /// Queues a batch of builds under one lock acquisition.
  void prefetchBatch(const std::vector<UkrConfig> &Cfgs);

  /// Prefetches every config and blocks until all have resolved. Returns
  /// an error naming the configs that failed (the rest are still cached).
  exo::Error warm(const std::vector<UkrConfig> &Cfgs);

  /// Blocks until no build is queued or running.
  void wait();

  /// Number of ready (successfully built) kernels.
  size_t size() const;

  CacheStats stats() const;

private:
  struct Impl;
  Impl *I;
};

/// The shape family `ukr_cachectl warm` precompiles: the paper's §IV-C
/// kernel family around a full tile (default 8x12) — the tile itself plus
/// its M/N edge sub-shapes — with the ISA re-picked per shape exactly as
/// ExoProvider does. \p AllCandidates adds every pickShape candidate tile
/// and its edges.
std::vector<UkrConfig> standardShapeFamily(int64_t MR = 8, int64_t NR = 12,
                                           bool AllCandidates = false);

/// Prints \p St (and the process-wide JIT counters) to \p Out — the bench
/// epilogue and `ukr_cachectl` reporting path.
void printCacheStats(const CacheStats &St, std::FILE *Out);

/// The global cache's ledger with the JIT-layer counters reported as
/// process-wide totals rather than per-cache deltas. What the benches and
/// gemmd's stats reply report.
CacheStats globalCacheStats();

/// Picks the widest host-executable ISA whose f32 vector width divides
/// \p MR; nullptr when none does (the scalar fallback case).
const exo::IsaLib *bestIsaForMr(int64_t MR);

/// The one ISA-per-shape selection rule: the UkrConfig for an Mr x Nr tile
/// of element kind \p Ty, with \p Preferred used unconditionally when
/// non-null and the widest dividing host ISA (bestIsaForMr) otherwise; a
/// shape no vector library divides degrades to the scalar FMA style. For
/// non-f32 kinds the preferred ISA is kept only when it supports the kind,
/// and i8/bf16 configs accumulate widened (WidenAcc, the dot-unit
/// contract). Every layer that turns a tile shape into a config —
/// ExoProvider's kernel memo, the Engine planner, `ukr_cachectl warm`'s
/// shape family, the ablation benches — must route through here so they
/// agree on the selection.
UkrConfig shapeConfig(int64_t Mr, int64_t Nr,
                      const exo::IsaLib *Preferred = nullptr,
                      bool UnrollCompute = false,
                      exo::ScalarKind Ty = exo::ScalarKind::F32);

} // namespace ukr

#endif // UKR_KERNELREGISTRY_H
