//===- Pack.h - GotoBLAS packing routines ---------------------------------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two packing routines of the BLIS macro-kernel (paper Fig. 1/2). Both
/// produce panel-major buffers the micro-kernel reads with unit stride:
///
///   packA: an mc x kc block of column-major A becomes ceil(mc/mr) panels,
///          panel p holding rows [p*mr, p*mr + mr) as a kc x mr matrix
///          (k-major), scaled by alpha. Panel capacity is always kc*mr
///          elements; a short edge panel is either packed *tight* (kc x
///          mr_eff, for dispatch to a specialized edge kernel) or
///          zero-padded to full width (for a monolithic kernel + scratch
///          tile).
///   packB: symmetric, nr-wide panels of a kc x nc block of B.
///
/// One panel core does both. Named by panel coordinates, element (r, k) of
/// a rows x kc block sits at X[r*rs + k*cs] and lands in panel r / w; packA
/// is the core over (m, k), packB the core over (n, k), i.e. B's stride pair
/// swapped. Every executor call has one unit stride (a transposed operand
/// only swaps the pair), and the core picks one of two SSE2 kernels by
/// which one it is:
///
///   rs == 1 (A NoTrans, B Trans): panel rows are contiguous source runs.
///          Straight copies; source columns go in groups of eight, each
///          group walked front to back across every panel of the block,
///          so each column of the block is read once as contiguous runs
///          and each panel takes eight consecutive rows at a time.
///   cs == 1 (A Trans, B NoTrans): source rows run along k. Four rows at a
///          time, walked down k in 4x4 register transposes, so only four
///          source streams are live whatever the panel width.
///
/// Sources with neither unit stride, and non-x86 builds, take the generic
/// two-stride loop. No kernel reads past the block's last element.
///
/// Bitwise contract: every packed value is exactly one f32 multiply
/// alpha * x of the (exactly widened) source element, also when alpha is 1
/// (a signalling NaN is quieted either way) and never fused into an FMA;
/// edge padding is +0. Every kernel therefore yields the same bytes as the
/// generic loop, and results do not depend on which kernel ran.
///
/// Two dtype-specific families extend the layout (docs/PRECISION.md):
///
///   convert-pack: f16/bf16 storage upconverted to *f32 panels* with the
///          identical layout, so the existing f32 micro-kernels consume
///          half-precision operands unchanged (accumulation is f32 by
///          construction — the dot-unit contract). bf16 widens exactly
///          (uint32(h) << 16) and rides the same two vector kernels; f16
///          goes through the scalar decoder. The dtype is dispatched once
///          per call, not per element.
///   i8 K-grouped pack: the VNNI/sdot layout. Panels group the k dimension
///          in quads (I8KGroup): element (g, i, kk) of an A panel sits at
///          Panel[g*mr*4 + i*4 + kk], i.e. each micro-row contributes 4
///          consecutive k values — exactly one dot-instruction operand.
///          Short edges and the K remainder are always zero-padded (zeros
///          are exact in integer dot products), in their own passes after
///          the test-free interior copy.
///
//===----------------------------------------------------------------------===//

#ifndef GEMM_PACK_H
#define GEMM_PACK_H

#include "gemm/DType.h"

#include <cstdint>

namespace gemm {

/// How edge panels are laid out (see file comment).
enum class EdgePack : uint8_t { Tight, ZeroPad };

/// Packs A[ic:ic+mc, pc:pc+kc] (column-major, leading dimension lda) into
/// \p Buf. Caller sizes Buf as ceil(mc/mr)*kc*mr floats.
void packA(const float *A, int64_t Lda, int64_t Mc, int64_t Kc, int64_t Mr,
           float Alpha, EdgePack Mode, float *Buf);

/// Packs B[pc:pc+kc, jc:jc+nc] (column-major, leading dimension ldb) into
/// \p Buf. Caller sizes Buf as ceil(nc/nr)*kc*nr floats.
void packB(const float *B, int64_t Ldb, int64_t Kc, int64_t Nc, int64_t Nr,
           float Alpha, EdgePack Mode, float *Buf);

/// Generalized variants over arbitrary element strides: element (i, k) of
/// the logical mc x kc block sits at A[i*RowStride + k*ColStride]. These
/// implement the BLAS transpose cases — a transposed operand is just the
/// swapped stride pair, packed identically (packing absorbs the transpose,
/// as in BLIS).
void packAStrided(const float *A, int64_t RowStride, int64_t ColStride,
                  int64_t Mc, int64_t Kc, int64_t Mr, float Alpha,
                  EdgePack Mode, float *Buf);
void packBStrided(const float *B, int64_t RowStride, int64_t ColStride,
                  int64_t Kc, int64_t Nc, int64_t Nr, float Alpha,
                  EdgePack Mode, float *Buf);

/// Convert-packs for f16/bf16 storage (\p Ty selects the decoder): identical
/// panel layout to packAStrided/packBStrided but the source elements are
/// raw 16-bit halves upconverted to f32 (alpha applied in f32). Only the
/// ZeroPad layout is produced — half-precision plans have no specialized
/// edge kernels.
void packAConvStrided(DType Ty, const uint16_t *A, int64_t RowStride,
                      int64_t ColStride, int64_t Mc, int64_t Kc, int64_t Mr,
                      float Alpha, float *Buf);
void packBConvStrided(DType Ty, const uint16_t *B, int64_t RowStride,
                      int64_t ColStride, int64_t Kc, int64_t Nc, int64_t Nr,
                      float Alpha, float *Buf);

/// K-grouped int8 packs (see file comment). Caller sizes Buf as
/// ceil(mc/mr) * ceil(kc/4)*4 * mr bytes (resp. nc/nr). No alpha: integer
/// scaling happens exactly at i32 copy-out, not per-element at pack time.
void packAI8Strided(const int8_t *A, int64_t RowStride, int64_t ColStride,
                    int64_t Mc, int64_t Kc, int64_t Mr, int8_t *Buf);
void packBI8Strided(const int8_t *B, int64_t RowStride, int64_t ColStride,
                    int64_t Kc, int64_t Nc, int64_t Nr, int8_t *Buf);

} // namespace gemm

#endif // GEMM_PACK_H
