//===- Conv.cpp -----------------------------------------------------------===//

#include "dnn/Conv.h"

#include <algorithm>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

using namespace dnn;

namespace {

/// Channels moved per block by im2row and the convolution copy-out. Sixteen
/// floats are one 64-byte line of an HWC pixel, and sixteen column-major
/// destination streams stay in L1 while a row of pixels passes through.
constexpr int64_t ChanBlock = 16;

/// Transposes a Pixels x Chans block (Chans <= ChanBlock) between an HWC
/// layout, where pixel p's channels are contiguous at p * PixStride, and a
/// column-major one, where channel c of pixel p is at p + c * Ld. ToCols
/// copies HWC into columns (im2row); otherwise columns go back out to HWC
/// (the convViaGemm result).
template <bool ToCols>
void transposeBlock(const float *Src, float *Dst, int64_t PixStride,
                    int64_t Ld, int64_t Pixels, int64_t Chans) {
  int64_t Px0 = 0;
#if defined(__SSE2__)
  // im2row: four pixels x four channels per step through one 4x4 register
  // transpose (baseline x86-64 ISA, so no dispatch). The lanes are only
  // moved, never computed on, so the copy stays bit-exact; the scalar
  // loops below finish the channel and pixel remainders.
  if constexpr (ToCols) {
    for (; Px0 + 4 <= Pixels; Px0 += 4) {
      const float *S = Src + Px0 * PixStride;
      float *D = Dst + Px0;
      int64_t C = 0;
      for (; C + 4 <= Chans; C += 4) {
        __m128 R0 = _mm_loadu_ps(S + C);
        __m128 R1 = _mm_loadu_ps(S + PixStride + C);
        __m128 R2 = _mm_loadu_ps(S + 2 * PixStride + C);
        __m128 R3 = _mm_loadu_ps(S + 3 * PixStride + C);
        _MM_TRANSPOSE4_PS(R0, R1, R2, R3);
        _mm_storeu_ps(D + C * Ld, R0);
        _mm_storeu_ps(D + (C + 1) * Ld, R1);
        _mm_storeu_ps(D + (C + 2) * Ld, R2);
        _mm_storeu_ps(D + (C + 3) * Ld, R3);
      }
      for (; C < Chans; ++C)
        for (int64_t P = 0; P < 4; ++P)
          D[P + C * Ld] = S[P * PixStride + C];
    }
  }
#endif
  for (int64_t Px = Px0; Px < Pixels; ++Px)
    for (int64_t C = 0; C < Chans; ++C) {
      if constexpr (ToCols)
        Dst[Px + C * Ld] = Src[Px * PixStride + C];
      else
        Dst[Px * PixStride + C] = Src[Px + C * Ld];
    }
}

} // namespace

void dnn::im2row(const ConvParams &P, const float *In, float *A) {
  const int64_t M = P.gemmM(), OutH = P.outH(), OutW = P.outW();
  // A is column-major M x K: element (row, col) at A[row + col*M] where
  // row = oh*OutW + ow and col = (kh*Kw + kw)*InC + c.
  for (int64_t Kh = 0; Kh < P.Kh; ++Kh) {
    for (int64_t Kw = 0; Kw < P.Kw; ++Kw) {
      // Output columns [OwLo, OwHi) read in-image pixels for this tap:
      // 0 <= ow*Stride - Pad + Kw < InW. The rest are padding.
      const int64_t Lead = P.Pad - Kw, Last = P.InW - 1 + P.Pad - Kw;
      const int64_t OwLo =
          std::min(OutW, Lead > 0 ? (Lead + P.Stride - 1) / P.Stride : 0);
      const int64_t OwHi =
          std::max(OwLo, std::min(OutW, Last < 0 ? 0 : Last / P.Stride + 1));
      for (int64_t C0 = 0; C0 < P.InC; C0 += ChanBlock) {
        const int64_t Chans = std::min(ChanBlock, P.InC - C0);
        float *Blk = A + ((Kh * P.Kw + Kw) * P.InC + C0) * M;
        for (int64_t Oh = 0; Oh < OutH; ++Oh) {
          const int64_t Ih = Oh * P.Stride - P.Pad + Kh;
          // A padding row of the image pads the whole output row.
          const bool RowIn = Ih >= 0 && Ih < P.InH;
          const int64_t Lo = RowIn ? OwLo : OutW, Hi = RowIn ? OwHi : OutW;
          float *Row = Blk + Oh * OutW;
          for (int64_t C = 0; C < Chans; ++C) {
            std::fill(Row + C * M, Row + C * M + Lo, 0.0f);
            std::fill(Row + C * M + Hi, Row + C * M + OutW, 0.0f);
          }
          if (Hi > Lo)
            transposeBlock<true>(
                In + (Ih * P.InW + Lo * P.Stride - P.Pad + Kw) * P.InC + C0,
                Row + Lo, P.Stride * P.InC, M, Hi - Lo, Chans);
        }
      }
    }
  }
}

void dnn::weightsToMatrix(const ConvParams &P, const float *W, float *B) {
  const int64_t K = P.gemmK();
  // W is (kh, kw, ic, oc); B column-major K x OutC.
  for (int64_t Kh = 0; Kh < P.Kh; ++Kh)
    for (int64_t Kw = 0; Kw < P.Kw; ++Kw)
      for (int64_t C = 0; C < P.InC; ++C) {
        int64_t Row = (Kh * P.Kw + Kw) * P.InC + C;
        const float *WSrc = W + ((Kh * P.Kw + Kw) * P.InC + C) * P.OutC;
        for (int64_t Oc = 0; Oc < P.OutC; ++Oc)
          B[Row + Oc * K] = WSrc[Oc];
      }
}

void dnn::convDirect(const ConvParams &P, const float *In, const float *W,
                     float *Out) {
  const int64_t OutH = P.outH(), OutW = P.outW();
  for (int64_t Oh = 0; Oh < OutH; ++Oh) {
    for (int64_t Ow = 0; Ow < OutW; ++Ow) {
      for (int64_t Oc = 0; Oc < P.OutC; ++Oc) {
        double Acc = 0;
        for (int64_t Kh = 0; Kh < P.Kh; ++Kh) {
          for (int64_t Kw = 0; Kw < P.Kw; ++Kw) {
            int64_t Ih = Oh * P.Stride - P.Pad + Kh;
            int64_t Iw = Ow * P.Stride - P.Pad + Kw;
            if (Ih < 0 || Ih >= P.InH || Iw < 0 || Iw >= P.InW)
              continue;
            for (int64_t C = 0; C < P.InC; ++C)
              Acc += static_cast<double>(
                         In[(Ih * P.InW + Iw) * P.InC + C]) *
                     W[((Kh * P.Kw + Kw) * P.InC + C) * P.OutC + Oc];
          }
        }
        Out[(Oh * OutW + Ow) * P.OutC + Oc] = static_cast<float>(Acc);
      }
    }
  }
}

exo::Error dnn::convViaGemm(const ConvParams &P, gemm::Engine &Engine,
                            const float *In, const float *W, float *Out) {
  const int64_t M = P.gemmM(), N = P.gemmN(), K = P.gemmK();
  std::vector<float> A(M * K), B(K * N), C(M * N, 0.0f);
  im2row(P, In, A.data());
  weightsToMatrix(P, W, B.data());

  if (exo::Error Err = Engine.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K,
                                    0.0f, C.data(), M))
    return Err;

  // The GEMM result is column-major (pixel, oc); outputs are HWC.
  for (int64_t Oc0 = 0; Oc0 < N; Oc0 += ChanBlock)
    transposeBlock<false>(C.data() + Oc0 * M, Out + Oc0, N, M, M,
                          std::min(ChanBlock, N - Oc0));
  return exo::Error::success();
}
