//===- ExoProvider.h - Generated-kernel provider --------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "EXO" series: the full tile runs a generated MR x NR kernel, and
/// every edge shape gets its own specialized generated kernel (paper §III-B
/// — "all we need to do is change the values for MR and NR"), built on
/// demand, on the calling thread, by ukr::KernelCache. The ISA per shape is
/// chosen as the widest host vector width dividing the tile's MR, falling
/// back to a scalar kernel (the paper's 1xNR cases).
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_EXOPROVIDER_H
#define GEMM_EXOPROVIDER_H

#include "gemm/MicroKernel.h"
#include "ukr/KernelRegistry.h"

#include <map>
#include <mutex>

namespace gemm {

class ExoProvider final : public KernelProvider {
public:
  /// Full-tile shape MR x NR. \p Isa picks the full-tile instruction
  /// library (default: widest host library dividing MR).
  ExoProvider(int64_t MR, int64_t NR, const exo::IsaLib *Isa = nullptr,
              bool UnrollCompute = false);

  MicroKernel main() override;
  std::optional<MicroKernel> edge(int64_t MrEff, int64_t NrEff) override;
  const char *name() const override { return "exo"; }

  /// Builds (or fetches) the kernel for an arbitrary shape; exposed for the
  /// solo-mode benches.
  std::optional<MicroKernel> shape(int64_t Mr, int64_t Nr);

  /// Ablation knob: with edge specialization off, edge() reports nothing
  /// and the macro-kernel falls back to the padded scratch tile, exactly
  /// like the monolithic baselines.
  void setSpecializeEdges(bool On) { SpecializeEdges = On; }

  /// Picks the micro-kernel shape for an (m, n) problem — the paper's
  /// "matching the size of the micro-kernel to the problem" (§IV-B uses
  /// 8x4 / 8x8 for different square sizes). The heuristic scores each
  /// candidate by estimated FMA throughput (flops per operand load) of the
  /// full tile, weighted by how much of the m x n area full tiles cover and
  /// discounting edge regions by their smaller tiles' throughput.
  ///
  /// With \p Isa set, candidates are restricted to that library's vector
  /// width — used by the figure benches to keep every series at the same
  /// width, as all of the paper's series were 128-bit Neon.
  static std::pair<int64_t, int64_t>
  pickShape(int64_t M, int64_t N, const exo::IsaLib *Isa = nullptr);

private:
  int64_t MR, NR;
  const exo::IsaLib *Isa;
  bool UnrollCompute;
  bool SpecializeEdges = true;
  /// Per-provider memo of resolved shapes: the macro-kernel asks for the
  /// same edge kernel once per tile, and the global registry lookup (name
  /// formatting + mutex) would otherwise dominate small tiles. Guarded by
  /// Mu: one provider may serve concurrent GEMM calls (the threaded
  /// macro-kernel pre-resolves on the calling thread, but callers also
  /// share providers across their own threads). KernelCache is internally
  /// locked; this memo was the remaining race.
  std::mutex Mu;
  std::map<std::pair<int64_t, int64_t>, std::optional<MicroKernel>>
      ShapeCache;
};

} // namespace gemm

#endif // GEMM_EXOPROVIDER_H
