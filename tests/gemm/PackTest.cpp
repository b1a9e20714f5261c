//===- PackTest.cpp - Packing routines ------------------------------------===//

#include "gemm/Pack.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

using namespace gemm;

namespace {

/// Column-major matrix filled with value(r, c) = 100*r + c.
std::vector<float> colMajor(int64_t Rows, int64_t Cols, int64_t Ld) {
  std::vector<float> M(Ld * Cols);
  for (int64_t C = 0; C < Cols; ++C)
    for (int64_t R = 0; R < Rows; ++R)
      M[R + C * Ld] = static_cast<float>(100 * R + C);
  return M;
}

} // namespace

TEST(PackTest, PackAFullPanels) {
  const int64_t Mc = 8, Kc = 3, Mr = 4, Lda = 10;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(2 * Kc * Mr, -1.0f);
  packA(A.data(), Lda, Mc, Kc, Mr, 1.0f, EdgePack::ZeroPad, Buf.data());

  // Panel 0 holds rows 0..3; element (k, i) at [k*Mr + i].
  for (int64_t K = 0; K < Kc; ++K)
    for (int64_t I = 0; I < Mr; ++I) {
      EXPECT_EQ(Buf[K * Mr + I], 100.0f * I + K);
      EXPECT_EQ(Buf[Kc * Mr + K * Mr + I], 100.0f * (I + 4) + K);
    }
}

TEST(PackTest, PackAAppliesAlpha) {
  const int64_t Mc = 4, Kc = 2, Mr = 4, Lda = 4;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(Kc * Mr);
  packA(A.data(), Lda, Mc, Kc, Mr, 2.0f, EdgePack::ZeroPad, Buf.data());
  EXPECT_EQ(Buf[0], 0.0f);
  EXPECT_EQ(Buf[1], 200.0f);
  EXPECT_EQ(Buf[Mr + 1], 2.0f * 101.0f);
}

TEST(PackTest, PackAEdgeZeroPad) {
  // Mc = 6 with Mr = 4: second panel has 2 valid rows + 2 zero rows.
  const int64_t Mc = 6, Kc = 2, Mr = 4, Lda = 6;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(2 * Kc * Mr, -1.0f);
  packA(A.data(), Lda, Mc, Kc, Mr, 1.0f, EdgePack::ZeroPad, Buf.data());
  float *Panel1 = Buf.data() + Kc * Mr;
  for (int64_t K = 0; K < Kc; ++K) {
    EXPECT_EQ(Panel1[K * Mr + 0], 100.0f * 4 + K);
    EXPECT_EQ(Panel1[K * Mr + 1], 100.0f * 5 + K);
    EXPECT_EQ(Panel1[K * Mr + 2], 0.0f);
    EXPECT_EQ(Panel1[K * Mr + 3], 0.0f);
  }
}

TEST(PackTest, PackAEdgeTight) {
  // Tight mode lays the short panel out as Kc x MrEff.
  const int64_t Mc = 6, Kc = 3, Mr = 4, Lda = 6;
  std::vector<float> A = colMajor(Mc, Kc, Lda);
  std::vector<float> Buf(2 * Kc * Mr, -1.0f);
  packA(A.data(), Lda, Mc, Kc, Mr, 1.0f, EdgePack::Tight, Buf.data());
  float *Panel1 = Buf.data() + Kc * Mr;
  for (int64_t K = 0; K < Kc; ++K)
    for (int64_t I = 0; I < 2; ++I)
      EXPECT_EQ(Panel1[K * 2 + I], 100.0f * (4 + I) + K);
}

TEST(PackTest, PackBFullAndEdge) {
  // B is Kc x Nc column-major (ldb >= Kc).
  const int64_t Kc = 3, Nc = 5, Nr = 4, Ldb = 8;
  std::vector<float> B = colMajor(Kc, Nc, Ldb);
  std::vector<float> Buf(2 * Kc * Nr, -1.0f);
  packB(B.data(), Ldb, Kc, Nc, Nr, 1.0f, EdgePack::ZeroPad, Buf.data());
  // Panel 0: element (k, j) = B[k + j*Ldb] = 100k + j.
  for (int64_t K = 0; K < Kc; ++K)
    for (int64_t J = 0; J < Nr; ++J)
      EXPECT_EQ(Buf[K * Nr + J], 100.0f * K + J);
  // Panel 1 zero-padded beyond column 4.
  float *Panel1 = Buf.data() + Kc * Nr;
  for (int64_t K = 0; K < Kc; ++K) {
    EXPECT_EQ(Panel1[K * Nr + 0], 100.0f * K + 4);
    EXPECT_EQ(Panel1[K * Nr + 1], 0.0f);
  }

  packB(B.data(), Ldb, Kc, Nc, Nr, 1.0f, EdgePack::Tight, Buf.data());
  Panel1 = Buf.data() + Kc * Nr;
  for (int64_t K = 0; K < Kc; ++K)
    EXPECT_EQ(Panel1[K * 1 + 0], 100.0f * K + 4);
}

//===----------------------------------------------------------------------===//
// Differential sweep: every pack against the loops it replaced, byte for
// byte. Sources are sized exactly to their last element, so a vector load
// past the block is an out-of-bounds read under ASan.
//===----------------------------------------------------------------------===//

namespace {

// The pre-vectorization loops, frozen: element (i, k) of the block at
// A[i*RowStride + k*ColStride], one f32 Alpha * x per element.
void packAStridedRef(const float *A, int64_t RowStride, int64_t ColStride,
                     int64_t Mc, int64_t Kc, int64_t Mr, float Alpha,
                     EdgePack Mode, float *Buf) {
  for (int64_t P = 0, Ir = 0; Ir < Mc; ++P, Ir += Mr) {
    int64_t MrEff = std::min(Mr, Mc - Ir);
    float *Panel = Buf + P * Kc * Mr;
    if (Mode == EdgePack::Tight || MrEff == Mr) {
      for (int64_t K = 0; K < Kc; ++K)
        for (int64_t I = 0; I < MrEff; ++I)
          Panel[K * MrEff + I] =
              Alpha * A[(Ir + I) * RowStride + K * ColStride];
      continue;
    }
    for (int64_t K = 0; K < Kc; ++K) {
      for (int64_t I = 0; I < MrEff; ++I)
        Panel[K * Mr + I] = Alpha * A[(Ir + I) * RowStride + K * ColStride];
      for (int64_t I = MrEff; I < Mr; ++I)
        Panel[K * Mr + I] = 0.0f;
    }
  }
}

void packBStridedRef(const float *B, int64_t RowStride, int64_t ColStride,
                     int64_t Kc, int64_t Nc, int64_t Nr, float Alpha,
                     EdgePack Mode, float *Buf) {
  for (int64_t P = 0, Jr = 0; Jr < Nc; ++P, Jr += Nr) {
    int64_t NrEff = std::min(Nr, Nc - Jr);
    float *Panel = Buf + P * Kc * Nr;
    if (Mode == EdgePack::Tight || NrEff == Nr) {
      for (int64_t K = 0; K < Kc; ++K)
        for (int64_t J = 0; J < NrEff; ++J)
          Panel[K * NrEff + J] =
              Alpha * B[K * RowStride + (Jr + J) * ColStride];
      continue;
    }
    for (int64_t K = 0; K < Kc; ++K) {
      for (int64_t J = 0; J < NrEff; ++J)
        Panel[K * Nr + J] = Alpha * B[K * RowStride + (Jr + J) * ColStride];
      for (int64_t J = NrEff; J < Nr; ++J)
        Panel[K * Nr + J] = 0.0f;
    }
  }
}

void packAConvRef(DType Ty, const uint16_t *A, int64_t RowStride,
                  int64_t ColStride, int64_t Mc, int64_t Kc, int64_t Mr,
                  float Alpha, float *Buf) {
  const bool Bf = Ty == DType::BF16;
  for (int64_t P = 0, Ir = 0; Ir < Mc; ++P, Ir += Mr) {
    int64_t MrEff = std::min(Mr, Mc - Ir);
    float *Panel = Buf + P * Kc * Mr;
    for (int64_t K = 0; K < Kc; ++K) {
      for (int64_t I = 0; I < MrEff; ++I) {
        uint16_t H = A[(Ir + I) * RowStride + K * ColStride];
        Panel[K * Mr + I] = Alpha * (Bf ? bf16ToF32(H) : f16ToF32(H));
      }
      for (int64_t I = MrEff; I < Mr; ++I)
        Panel[K * Mr + I] = 0.0f;
    }
  }
}

void packBConvRef(DType Ty, const uint16_t *B, int64_t RowStride,
                  int64_t ColStride, int64_t Kc, int64_t Nc, int64_t Nr,
                  float Alpha, float *Buf) {
  const bool Bf = Ty == DType::BF16;
  for (int64_t P = 0, Jr = 0; Jr < Nc; ++P, Jr += Nr) {
    int64_t NrEff = std::min(Nr, Nc - Jr);
    float *Panel = Buf + P * Kc * Nr;
    for (int64_t K = 0; K < Kc; ++K) {
      for (int64_t J = 0; J < NrEff; ++J) {
        uint16_t H = B[K * RowStride + (Jr + J) * ColStride];
        Panel[K * Nr + J] = Alpha * (Bf ? bf16ToF32(H) : f16ToF32(H));
      }
      for (int64_t J = NrEff; J < Nr; ++J)
        Panel[K * Nr + J] = 0.0f;
    }
  }
}

void packAI8Ref(const int8_t *A, int64_t RowStride, int64_t ColStride,
                int64_t Mc, int64_t Kc, int64_t Mr, int8_t *Buf) {
  const int64_t KG = (Kc + I8KGroup - 1) / I8KGroup;
  for (int64_t P = 0, Ir = 0; Ir < Mc; ++P, Ir += Mr) {
    int64_t MrEff = std::min(Mr, Mc - Ir);
    int8_t *Panel = Buf + P * KG * I8KGroup * Mr;
    for (int64_t G = 0; G < KG; ++G) {
      int8_t *Group = Panel + G * Mr * I8KGroup;
      for (int64_t I = 0; I < Mr; ++I)
        for (int64_t Kk = 0; Kk < I8KGroup; ++Kk) {
          int64_t K = G * I8KGroup + Kk;
          Group[I * I8KGroup + Kk] =
              I < MrEff && K < Kc ? A[(Ir + I) * RowStride + K * ColStride]
                                  : int8_t(0);
        }
    }
  }
}

void packBI8Ref(const int8_t *B, int64_t RowStride, int64_t ColStride,
                int64_t Kc, int64_t Nc, int64_t Nr, int8_t *Buf) {
  const int64_t KG = (Kc + I8KGroup - 1) / I8KGroup;
  for (int64_t P = 0, Jr = 0; Jr < Nc; ++P, Jr += Nr) {
    int64_t NrEff = std::min(Nr, Nc - Jr);
    int8_t *Panel = Buf + P * KG * I8KGroup * Nr;
    for (int64_t G = 0; G < KG; ++G) {
      int8_t *Group = Panel + G * Nr * I8KGroup;
      for (int64_t J = 0; J < Nr; ++J)
        for (int64_t Kk = 0; Kk < I8KGroup; ++Kk) {
          int64_t K = G * I8KGroup + Kk;
          Group[J * I8KGroup + Kk] =
              J < NrEff && K < Kc ? B[K * RowStride + (Jr + J) * ColStride]
                                  : int8_t(0);
        }
    }
  }
}

const int64_t SweepWidths[] = {4, 6, 8, 12, 14, 16, 24, 32};
// Every Kc % 4, below and above one 4x4 block.
const int64_t SweepDepths[] = {1, 2, 3, 4, 6, 9, 15, 36};
const float SweepAlphas[] = {1.0f, -0.0f, 1.5f};

/// Block widths for panel width \p W: one short panel, whole panels, and
/// two whole panels plus edges of 1, 2, 3 and W - 1 rows.
std::vector<int64_t> sweepRows(int64_t W) {
  std::vector<int64_t> Rows = {1, W, 3 * W};
  for (int64_t E : {int64_t(1), int64_t(2), int64_t(3), W - 1})
    if (E < W && std::find(Rows.begin(), Rows.end(), 2 * W + E) == Rows.end())
      Rows.push_back(2 * W + E);
  return Rows;
}

/// Where a logical R x C operand sits: unit stride down the rows
/// (column-major, the NoTrans view), unit stride along the columns (the
/// transposed view), or neither (the scalar fallback).
enum class Layout { UnitRows, UnitCols, Neither };
const Layout SweepLayouts[] = {Layout::UnitRows, Layout::UnitCols,
                               Layout::Neither};
const char *layoutName(Layout L) {
  return L == Layout::UnitRows ? "unit-rows"
         : L == Layout::UnitCols ? "unit-cols"
                                 : "neither";
}

struct Strides {
  int64_t RS, CS, Size;
};
Strides strides(Layout L, int64_t R, int64_t C, int64_t Slack) {
  int64_t RS = 1, CS = 1;
  switch (L) {
  case Layout::UnitRows: CS = R + Slack; break;
  case Layout::UnitCols: RS = C + Slack; break;
  case Layout::Neither: RS = 2; CS = 2 * R + Slack + 1; break;
  }
  // Exactly up to the last element: no slack after it.
  return {RS, CS, (R - 1) * RS + (C - 1) * CS + 1};
}

/// Values that expose any difference in the multiply: quiet and signalling
/// NaNs with payloads, signed zeros, denormals, infinities, random bit
/// patterns and ordinary numbers.
std::vector<float> specialFloats(int64_t N, uint32_t Seed) {
  static const uint32_t Specials[] = {
      0x7fc00001u, 0xffc12345u, 0x7f800001u, 0xff80abcdu, 0x80000000u,
      0x00000000u, 0x00000001u, 0x807fffffu, 0x7f800000u, 0xff800000u,
      0x7f7fffffu, 0x00800000u};
  std::vector<float> V(N);
  uint32_t S = Seed * 2654435761u + 1;
  for (float &F : V) {
    S = S * 1664525u + 1013904223u;
    uint32_t Bits = S;
    switch ((S >> 28) & 3) {
    case 0: Bits = Specials[(S >> 8) % std::size(Specials)]; break;
    case 1: break; // random bits
    default: {
      float X = static_cast<float>(int32_t(S >> 8) % 2001 - 1000) / 64.0f;
      std::memcpy(&Bits, &X, sizeof(Bits));
    }
    }
    std::memcpy(&F, &Bits, sizeof(F));
  }
  return V;
}

std::vector<uint16_t> randomHalves(int64_t N, uint32_t Seed) {
  std::vector<uint16_t> V(N);
  uint32_t S = Seed * 2654435761u + 7;
  for (uint16_t &H : V) {
    S = S * 1664525u + 1013904223u;
    H = uint16_t(S >> 16);
  }
  return V;
}

std::vector<float> nanFilled(int64_t N) {
  const uint32_t Bits = 0x7fc0deadu;
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return std::vector<float>(N, F);
}

} // namespace

TEST(PackTest, F32PanelsMatchScalarOracle) {
  // Operand A is Rows x Kc (panels along m); B is Kc x Rows (panels along
  // n). Both, in every layout, both edge modes, every sweep width/depth.
  int64_t Cases = 0;
  for (bool IsA : {true, false})
    for (Layout L : SweepLayouts)
      for (int64_t Slack : {0, 3})
        for (int64_t W : SweepWidths)
          for (int64_t Rows : sweepRows(W))
            for (int64_t Kc : SweepDepths) {
              const int64_t R = IsA ? Rows : Kc, C = IsA ? Kc : Rows;
              const Strides St = strides(L, R, C, Slack);
              const std::vector<float> X =
                  specialFloats(St.Size, uint32_t(Cases));
              const int64_t Cap = (Rows + W - 1) / W * Kc * W;
              for (EdgePack Mode : {EdgePack::Tight, EdgePack::ZeroPad})
                for (float Alpha : SweepAlphas) {
                  std::vector<float> Want = nanFilled(Cap), Got = Want;
                  if (IsA) {
                    packAStridedRef(X.data(), St.RS, St.CS, Rows, Kc, W,
                                    Alpha, Mode, Want.data());
                    packAStrided(X.data(), St.RS, St.CS, Rows, Kc, W, Alpha,
                                 Mode, Got.data());
                  } else {
                    packBStridedRef(X.data(), St.RS, St.CS, Kc, Rows, W,
                                    Alpha, Mode, Want.data());
                    packBStrided(X.data(), St.RS, St.CS, Kc, Rows, W, Alpha,
                                 Mode, Got.data());
                  }
                  ++Cases;
                  const std::string Desc =
                      std::string(IsA ? "A" : "B") + " " + layoutName(L) +
                      " slack=" + std::to_string(Slack) +
                      " w=" + std::to_string(W) +
                      " rows=" + std::to_string(Rows) +
                      " kc=" + std::to_string(Kc) +
                      (Mode == EdgePack::Tight ? " tight" : " zeropad") +
                      " alpha=" + std::to_string(Alpha);
                  ASSERT_EQ(0, std::memcmp(Want.data(), Got.data(),
                                           Cap * sizeof(float)))
                      << Desc;
                  if (L != Layout::UnitRows)
                    continue;
                  // The column-major wrappers are the unit-rows view.
                  std::vector<float> Plain = nanFilled(Cap);
                  if (IsA)
                    packA(X.data(), St.CS, Rows, Kc, W, Alpha, Mode,
                          Plain.data());
                  else
                    packB(X.data(), St.CS, Kc, Rows, W, Alpha, Mode,
                          Plain.data());
                  ASSERT_EQ(0, std::memcmp(Want.data(), Plain.data(),
                                           Cap * sizeof(float)))
                      << Desc << " (column-major wrapper)";
                }
            }
  EXPECT_GT(Cases, 20000);
}

TEST(PackTest, HalfPanelsMatchScalarOracle) {
  // Random 16-bit patterns cover NaN, sNaN, -0, denormals and infinities of
  // both formats. bf16 takes the vector kernels, f16 the scalar decoder.
  for (DType Ty : {DType::BF16, DType::F16})
    for (bool IsA : {true, false})
      for (Layout L : SweepLayouts)
        for (int64_t W : SweepWidths)
          for (int64_t Rows : sweepRows(W))
            for (int64_t Kc : SweepDepths) {
              const int64_t R = IsA ? Rows : Kc, C = IsA ? Kc : Rows;
              const Strides St = strides(L, R, C, /*Slack=*/1);
              const std::vector<uint16_t> X =
                  randomHalves(St.Size, uint32_t(W * 1000 + Rows * 50 + Kc));
              const int64_t Cap = (Rows + W - 1) / W * Kc * W;
              for (float Alpha : SweepAlphas) {
                std::vector<float> Want = nanFilled(Cap), Got = Want;
                if (IsA) {
                  packAConvRef(Ty, X.data(), St.RS, St.CS, Rows, Kc, W, Alpha,
                               Want.data());
                  packAConvStrided(Ty, X.data(), St.RS, St.CS, Rows, Kc, W,
                                   Alpha, Got.data());
                } else {
                  packBConvRef(Ty, X.data(), St.RS, St.CS, Kc, Rows, W, Alpha,
                               Want.data());
                  packBConvStrided(Ty, X.data(), St.RS, St.CS, Kc, Rows, W,
                                   Alpha, Got.data());
                }
                ASSERT_EQ(0, std::memcmp(Want.data(), Got.data(),
                                         Cap * sizeof(float)))
                    << dtypeName(Ty) << (IsA ? " A " : " B ") << layoutName(L)
                    << " w=" << W << " rows=" << Rows << " kc=" << Kc
                    << " alpha=" << Alpha;
              }
            }
}

TEST(PackTest, I8PanelsMatchScalarOracle) {
  for (bool IsA : {true, false})
    for (Layout L : SweepLayouts)
      for (int64_t W : SweepWidths)
        for (int64_t Rows : sweepRows(W))
          for (int64_t Kc : SweepDepths) {
            const int64_t R = IsA ? Rows : Kc, C = IsA ? Kc : Rows;
            const Strides St = strides(L, R, C, /*Slack=*/2);
            const std::vector<uint16_t> Bits =
                randomHalves(St.Size, uint32_t(W * 1000 + Rows * 50 + Kc));
            std::vector<int8_t> X(St.Size);
            for (int64_t I = 0; I < St.Size; ++I)
              X[I] = int8_t(Bits[I] >> 3);
            const int64_t KG = (Kc + I8KGroup - 1) / I8KGroup;
            const int64_t Cap = (Rows + W - 1) / W * KG * I8KGroup * W;
            std::vector<int8_t> Want(Cap, int8_t(0x5a)), Got = Want;
            if (IsA) {
              packAI8Ref(X.data(), St.RS, St.CS, Rows, Kc, W, Want.data());
              packAI8Strided(X.data(), St.RS, St.CS, Rows, Kc, W, Got.data());
            } else {
              packBI8Ref(X.data(), St.RS, St.CS, Kc, Rows, W, Want.data());
              packBI8Strided(X.data(), St.RS, St.CS, Kc, Rows, W, Got.data());
            }
            ASSERT_EQ(Want, Got) << (IsA ? "A " : "B ") << layoutName(L)
                                 << " w=" << W << " rows=" << Rows
                                 << " kc=" << Kc;
          }
}
