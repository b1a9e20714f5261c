//===- Conv.cpp -----------------------------------------------------------===//

#include "dnn/Conv.h"

#include <vector>

using namespace dnn;

void dnn::im2row(const ConvParams &P, const float *In, float *A) {
  const int64_t M = P.gemmM();
  const int64_t OutW = P.outW();
  // A is column-major M x K: element (row, col) at A[row + col*M] where
  // col = (kh*Kw + kw)*InC + c.
  for (int64_t Kh = 0; Kh < P.Kh; ++Kh) {
    for (int64_t Kw = 0; Kw < P.Kw; ++Kw) {
      for (int64_t C = 0; C < P.InC; ++C) {
        int64_t Col = (Kh * P.Kw + Kw) * P.InC + C;
        float *ACol = A + Col * M;
        for (int64_t Row = 0; Row < M; ++Row) {
          int64_t Oh = Row / OutW, Ow = Row % OutW;
          int64_t Ih = Oh * P.Stride - P.Pad + Kh;
          int64_t Iw = Ow * P.Stride - P.Pad + Kw;
          bool Inside = Ih >= 0 && Ih < P.InH && Iw >= 0 && Iw < P.InW;
          ACol[Row] =
              Inside ? In[(Ih * P.InW + Iw) * P.InC + C] : 0.0f;
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
  for (int64_t Row = 0; Row < M; ++Row)
    for (int64_t Oc = 0; Oc < N; ++Oc)
      Out[Row * N + Oc] = C[Row + Oc * M];
  return exo::Error::success();
}
