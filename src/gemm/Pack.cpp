//===- Pack.cpp -----------------------------------------------------------===//

#include "gemm/Pack.h"

#include <algorithm>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#define GEMM_PACK_SSE2 1
#endif

using namespace gemm;

namespace {

//===----------------------------------------------------------------------===//
// Source element types: how one stored element widens to f32, and (where a
// vector kernel exists) how four consecutive ones do. Every widening is
// exact, so the f32 value each kernel multiplies by alpha is the same.
//===----------------------------------------------------------------------===//

struct F32Src {
  using T = float;
  static constexpr bool Vec = true;
  static float load(const float *P) { return *P; }
#ifdef GEMM_PACK_SSE2
  static __m128 load4(const float *P) { return _mm_loadu_ps(P); }
#endif
};

struct Bf16Src {
  using T = uint16_t;
  static constexpr bool Vec = true;
  // bf16 is the top half of an f32: the exact widening is uint32(h) << 16
  // (bf16ToF32, inlined). Four lanes interleave zero low halves below four
  // halves, which is the same shift.
  static float load(const uint16_t *P) {
    const uint32_t Bits = uint32_t(*P) << 16;
    float F;
    std::memcpy(&F, &Bits, sizeof(F));
    return F;
  }
#ifdef GEMM_PACK_SSE2
  static __m128 load4(const uint16_t *P) {
    const __m128i H = _mm_loadl_epi64(reinterpret_cast<const __m128i *>(P));
    return _mm_castsi128_ps(_mm_unpacklo_epi16(_mm_setzero_si128(), H));
  }
#endif
};

struct F16Src {
  using T = uint16_t;
  static constexpr bool Vec = false; // scalar decode: no F16C path yet
  static float load(const uint16_t *P) { return f16ToF32(*P); }
};

//===----------------------------------------------------------------------===//
// The panel core. Both operands pack the same way once named by panel
// coordinates: element (r, k) of a Rows x Kc block sits at X[r*RS + k*CS],
// and row r lands in panel r / W at column r % W. Each panel is Kc x DW
// (k-major), DW being W, or the short edge's own width in Tight mode; ZeroPad
// edge columns are zero. Every element costs exactly one f32 Alpha * x.
//===----------------------------------------------------------------------===//

/// Destination row width of a panel with \p Eff valid rows.
inline int64_t rowWidth(int64_t Eff, int64_t W, EdgePack Mode) {
  return Mode == EdgePack::Tight ? Eff : W;
}

/// The generic two-stride loop: sources with no unit stride, and the
/// element types no vector kernel widens.
template <class S>
void packPanelsScalar(const typename S::T *X, int64_t RS, int64_t CS,
                      int64_t Rows, int64_t Kc, int64_t W, float Alpha,
                      EdgePack Mode, float *Buf) {
  for (int64_t P = 0, R0 = 0; R0 < Rows; ++P, R0 += W) {
    const int64_t Eff = std::min(W, Rows - R0);
    const int64_t DW = rowWidth(Eff, W, Mode);
    float *Panel = Buf + P * Kc * W;
    for (int64_t K = 0; K < Kc; ++K) {
      float *Row = Panel + K * DW;
      for (int64_t I = 0; I < Eff; ++I)
        Row[I] = Alpha * S::load(X + (R0 + I) * RS + K * CS);
      std::fill(Row + Eff, Row + DW, 0.0f);
    }
  }
}

#ifdef GEMM_PACK_SSE2

/// D[i] = Alpha * S[i] for i < N: four lanes at a time, then the tail.
template <class S>
inline void scaleRun(const typename S::T *Src, float *D, int64_t N,
                     float Alpha, __m128 VA) {
  int64_t I = 0;
  for (; I + 4 <= N; I += 4)
    _mm_storeu_ps(D + I, _mm_mul_ps(VA, S::load4(Src + I)));
  for (; I < N; ++I)
    D[I] = Alpha * S::load(Src + I);
}

/// RS == 1: each source column run is a panel row. Columns go in groups of
/// CopyKBlock, each group walked front to back across every panel of the
/// block, so the source is read as contiguous column runs and each panel
/// takes CopyKBlock consecutive rows at a time. (One row per panel per k
/// would keep a write stream open per panel, all in one cache set whenever
/// the panel stride is a multiple of 4 KiB.)
constexpr int64_t CopyKBlock = 8;

template <class S>
void packPanelsCopy(const typename S::T *X, int64_t CS, int64_t Rows,
                    int64_t Kc, int64_t W, float Alpha, EdgePack Mode,
                    float *Buf) {
  const __m128 VA = _mm_set1_ps(Alpha);
  const int64_t NFull = Rows / W, Eff = Rows - NFull * W;
  const int64_t DW = rowWidth(Eff, W, Mode);
  float *Edge = Buf + NFull * Kc * W;
  for (int64_t K0 = 0; K0 < Kc; K0 += CopyKBlock) {
    const int64_t K1 = std::min(Kc, K0 + CopyKBlock);
    for (int64_t P = 0; P < NFull; ++P)
      for (int64_t K = K0; K < K1; ++K)
        scaleRun<S>(X + K * CS + P * W, Buf + (P * Kc + K) * W, W, Alpha,
                    VA);
    if (Eff)
      for (int64_t K = K0; K < K1; ++K) {
        float *Row = Edge + K * DW;
        scaleRun<S>(X + K * CS + NFull * W, Row, Eff, Alpha, VA);
        std::fill(Row + Eff, Row + DW, 0.0f);
      }
  }
}

/// CS == 1: each source row is a k run, so a panel is a transpose. Four
/// rows at a time, walked down k in 4x4 blocks: only four source streams
/// are live at once, whatever the panel width.
template <class S>
void packPanelsTranspose(const typename S::T *X, int64_t RS, int64_t Rows,
                         int64_t Kc, int64_t W, float Alpha, EdgePack Mode,
                         float *Buf) {
  const __m128 VA = _mm_set1_ps(Alpha);
  const int64_t K4 = Kc & ~int64_t(3);
  for (int64_t P = 0, R0 = 0; R0 < Rows; ++P, R0 += W) {
    const int64_t Eff = std::min(W, Rows - R0);
    const int64_t DW = rowWidth(Eff, W, Mode);
    float *Panel = Buf + P * Kc * W;
    int64_t I = 0;
    for (; I + 4 <= Eff; I += 4) {
      const typename S::T *X0 = X + (R0 + I) * RS, *X1 = X0 + RS,
                          *X2 = X1 + RS, *X3 = X2 + RS;
      float *D = Panel + I;
      int64_t K = 0;
      for (; K < K4; K += 4) {
        __m128 V0 = _mm_mul_ps(VA, S::load4(X0 + K));
        __m128 V1 = _mm_mul_ps(VA, S::load4(X1 + K));
        __m128 V2 = _mm_mul_ps(VA, S::load4(X2 + K));
        __m128 V3 = _mm_mul_ps(VA, S::load4(X3 + K));
        _MM_TRANSPOSE4_PS(V0, V1, V2, V3);
        _mm_storeu_ps(D + K * DW, V0);
        _mm_storeu_ps(D + (K + 1) * DW, V1);
        _mm_storeu_ps(D + (K + 2) * DW, V2);
        _mm_storeu_ps(D + (K + 3) * DW, V3);
      }
      for (; K < Kc; ++K) {
        D[K * DW] = Alpha * S::load(X0 + K);
        D[K * DW + 1] = Alpha * S::load(X1 + K);
        D[K * DW + 2] = Alpha * S::load(X2 + K);
        D[K * DW + 3] = Alpha * S::load(X3 + K);
      }
    }
    for (; I < Eff; ++I) {
      const typename S::T *Xi = X + (R0 + I) * RS;
      for (int64_t K = 0; K < Kc; ++K)
        Panel[K * DW + I] = Alpha * S::load(Xi + K);
    }
    if (DW > Eff)
      for (int64_t K = 0; K < Kc; ++K)
        std::fill(Panel + K * DW + Eff, Panel + K * DW + DW, 0.0f);
  }
}

#endif // GEMM_PACK_SSE2

/// Picks the kernel by which stride is 1; opView gives every executor call
/// one, so the scalar loop runs only for hand-built strides.
template <class S>
void packPanels(const typename S::T *X, int64_t RS, int64_t CS, int64_t Rows,
                int64_t Kc, int64_t W, float Alpha, EdgePack Mode,
                float *Buf) {
#ifdef GEMM_PACK_SSE2
  if constexpr (S::Vec) {
    if (RS == 1)
      return packPanelsCopy<S>(X, CS, Rows, Kc, W, Alpha, Mode, Buf);
    if (CS == 1)
      return packPanelsTranspose<S>(X, RS, Rows, Kc, W, Alpha, Mode, Buf);
  }
#endif
  packPanelsScalar<S>(X, RS, CS, Rows, Kc, W, Alpha, Mode, Buf);
}

/// Half-precision convert-pack: one dtype switch per call, then a loop
/// specialized to the decoder. Always ZeroPad.
void packConv(DType Ty, const uint16_t *X, int64_t RS, int64_t CS,
              int64_t Rows, int64_t Kc, int64_t W, float Alpha, float *Buf) {
  if (Ty == DType::BF16)
    packPanels<Bf16Src>(X, RS, CS, Rows, Kc, W, Alpha, EdgePack::ZeroPad, Buf);
  else
    packPanels<F16Src>(X, RS, CS, Rows, Kc, W, Alpha, EdgePack::ZeroPad, Buf);
}

/// The K-grouped i8 core, in the same panel coordinates: the interior
/// (valid rows, whole k quads) copies with no test; the k remainder quad
/// and the short edge's rows are zero-filled in their own passes.
void packPanelsI8(const int8_t *X, int64_t RS, int64_t CS, int64_t Rows,
                  int64_t Kc, int64_t W, int8_t *Buf) {
  const int64_t KG = (Kc + I8KGroup - 1) / I8KGroup, KFull = Kc / I8KGroup;
  const int64_t KRem = Kc - KFull * I8KGroup;
  for (int64_t P = 0, R0 = 0; R0 < Rows; ++P, R0 += W) {
    const int64_t Eff = std::min(W, Rows - R0);
    int8_t *Panel = Buf + P * KG * I8KGroup * W;
    const int8_t *Xp = X + R0 * RS;
    for (int64_t G = 0; G < KFull; ++G)
      for (int64_t I = 0; I < Eff; ++I) {
        const int8_t *Xi = Xp + I * RS + G * I8KGroup * CS;
        int8_t *Q = Panel + (G * W + I) * I8KGroup;
        for (int64_t Kk = 0; Kk < I8KGroup; ++Kk)
          Q[Kk] = Xi[Kk * CS];
      }
    if (KRem)
      for (int64_t I = 0; I < Eff; ++I) {
        const int8_t *Xi = Xp + I * RS + KFull * I8KGroup * CS;
        int8_t *Q = Panel + (KFull * W + I) * I8KGroup;
        for (int64_t Kk = 0; Kk < KRem; ++Kk)
          Q[Kk] = Xi[Kk * CS];
        std::memset(Q + KRem, 0, I8KGroup - KRem);
      }
    if (Eff < W)
      for (int64_t G = 0; G < KG; ++G)
        std::memset(Panel + (G * W + Eff) * I8KGroup, 0,
                    (W - Eff) * I8KGroup);
  }
}

} // namespace

// Every A pack is the panel core over (rows = m, k); every B pack is the
// same core over (rows = n, k), i.e. B's stride pair swapped.

void gemm::packAStrided(const float *A, int64_t RowStride, int64_t ColStride,
                        int64_t Mc, int64_t Kc, int64_t Mr, float Alpha,
                        EdgePack Mode, float *Buf) {
  packPanels<F32Src>(A, RowStride, ColStride, Mc, Kc, Mr, Alpha, Mode, Buf);
}

void gemm::packBStrided(const float *B, int64_t RowStride, int64_t ColStride,
                        int64_t Kc, int64_t Nc, int64_t Nr, float Alpha,
                        EdgePack Mode, float *Buf) {
  packPanels<F32Src>(B, ColStride, RowStride, Nc, Kc, Nr, Alpha, Mode, Buf);
}

void gemm::packAConvStrided(DType Ty, const uint16_t *A, int64_t RowStride,
                            int64_t ColStride, int64_t Mc, int64_t Kc,
                            int64_t Mr, float Alpha, float *Buf) {
  packConv(Ty, A, RowStride, ColStride, Mc, Kc, Mr, Alpha, Buf);
}

void gemm::packBConvStrided(DType Ty, const uint16_t *B, int64_t RowStride,
                            int64_t ColStride, int64_t Kc, int64_t Nc,
                            int64_t Nr, float Alpha, float *Buf) {
  packConv(Ty, B, ColStride, RowStride, Nc, Kc, Nr, Alpha, Buf);
}

void gemm::packAI8Strided(const int8_t *A, int64_t RowStride,
                          int64_t ColStride, int64_t Mc, int64_t Kc,
                          int64_t Mr, int8_t *Buf) {
  packPanelsI8(A, RowStride, ColStride, Mc, Kc, Mr, Buf);
}

void gemm::packBI8Strided(const int8_t *B, int64_t RowStride,
                          int64_t ColStride, int64_t Kc, int64_t Nc,
                          int64_t Nr, int8_t *Buf) {
  packPanelsI8(B, ColStride, RowStride, Nc, Kc, Nr, Buf);
}

void gemm::packA(const float *A, int64_t Lda, int64_t Mc, int64_t Kc,
                 int64_t Mr, float Alpha, EdgePack Mode, float *Buf) {
  // Column-major A: element (i, k) at A[i + k*Lda].
  packAStrided(A, 1, Lda, Mc, Kc, Mr, Alpha, Mode, Buf);
}

void gemm::packB(const float *B, int64_t Ldb, int64_t Kc, int64_t Nc,
                 int64_t Nr, float Alpha, EdgePack Mode, float *Buf) {
  // Column-major B: element (k, j) at B[k + j*Ldb].
  packBStrided(B, 1, Ldb, Kc, Nc, Nr, Alpha, Mode, Buf);
}
