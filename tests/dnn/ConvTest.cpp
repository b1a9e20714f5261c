//===- ConvTest.cpp - IM2ROW convolution lowering --------------------------===//

#include "dnn/Conv.h"

#include "benchutil/Bench.h"
#include "exo/support/Str.h"
#include "gemm/ExoProvider.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

using namespace dnn;

namespace {

/// The per-element IM2ROW loop: one division and one bounds test per
/// output element. dnn::im2row must reproduce it bit for bit.
void im2rowRef(const ConvParams &P, const float *In, float *A) {
  const int64_t M = P.gemmM();
  const int64_t OutW = P.outW();
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
          ACol[Row] = Inside ? In[(Ih * P.InW + Iw) * P.InC + C] : 0.0f;
        }
      }
    }
  }
}

class ConvTest : public testing::TestWithParam<ConvParams> {};

std::string convName(const testing::TestParamInfo<ConvParams> &Info) {
  const ConvParams &P = Info.param;
  return exo::strf("c%lldto%lld_%lldx%lld_k%lldx%lld_s%lld_p%lld",
                   static_cast<long long>(P.InC),
                   static_cast<long long>(P.OutC),
                   static_cast<long long>(P.InH),
                   static_cast<long long>(P.InW),
                   static_cast<long long>(P.Kh),
                   static_cast<long long>(P.Kw),
                   static_cast<long long>(P.Stride),
                   static_cast<long long>(P.Pad));
}

} // namespace

TEST_P(ConvTest, GemmLoweringMatchesDirectConvolution) {
  const ConvParams &P = GetParam();
  std::vector<float> In(P.InH * P.InW * P.InC);
  std::vector<float> W(P.Kh * P.Kw * P.InC * P.OutC);
  benchutil::fillRandom(In.data(), In.size(), 5);
  benchutil::fillRandom(W.data(), W.size(), 6);

  std::vector<float> Direct(P.gemmM() * P.OutC), ViaGemm(Direct.size());
  convDirect(P, In.data(), W.data(), Direct.data());

  gemm::EngineConfig Cfg;
  Cfg.Series = gemm::EngineSeries::Custom;
  Cfg.Provider = std::make_shared<gemm::ExoProvider>(8, 12);
  gemm::Engine Engine(Cfg);
  exo::Error Err = convViaGemm(P, Engine, In.data(), W.data(),
                               ViaGemm.data());
  ASSERT_FALSE(Err) << Err.message();
  float Tol = 1e-4f * static_cast<float>(P.gemmK());
  for (size_t I = 0; I != Direct.size(); ++I)
    ASSERT_NEAR(ViaGemm[I], Direct[I], Tol) << I;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvTest,
    testing::Values(
        // 1x1 convolution (a pure GEMM).
        ConvParams{16, 32, 14, 14, 1, 1, 1, 0},
        // 3x3 stride 1, same padding (VGG-style).
        ConvParams{8, 16, 12, 12, 3, 3, 1, 1},
        // 7x7 stride 2 pad 3 (the ResNet50 stem, scaled down).
        ConvParams{3, 16, 28, 28, 7, 7, 2, 3},
        // 3x3 stride 2 (downsampling).
        ConvParams{8, 8, 15, 15, 3, 3, 2, 1},
        // Non-square image, asymmetric kernel.
        ConvParams{4, 12, 9, 17, 1, 3, 1, 1},
        // Single channel in and out.
        ConvParams{1, 1, 8, 8, 3, 3, 1, 0},
        // A full 16-channel block plus a remainder, in and out.
        ConvParams{40, 24, 10, 13, 3, 3, 1, 1},
        // Four full blocks in, two out, strided 1x1 (a ResNet projection).
        ConvParams{64, 32, 9, 9, 1, 1, 2, 0}),
    convName);

TEST(ConvShapeTest, GemmDimsMatchTableEntries) {
  // ResNet50 stem at full size reproduces Table I layer 1.
  ConvParams Stem{3, 64, 224, 224, 7, 7, 2, 3};
  EXPECT_EQ(Stem.gemmM(), resnet50Layers()[0].M);
  EXPECT_EQ(Stem.gemmN(), resnet50Layers()[0].N);
  EXPECT_EQ(Stem.gemmK(), resnet50Layers()[0].K);
  // VGG16 conv1_1 reproduces Table II layer 1.
  ConvParams Vgg{3, 64, 224, 224, 3, 3, 1, 1};
  EXPECT_EQ(Vgg.gemmM(), vgg16Layers()[0].M);
  EXPECT_EQ(Vgg.gemmK(), vgg16Layers()[0].K);
}

TEST(Im2RowTest, PaddingProducesZeroRows) {
  // A 1x1 image with a 3x3 same-padded kernel: the patch is mostly pad.
  ConvParams P{1, 1, 1, 1, 3, 3, 1, 1};
  std::vector<float> In{42.0f};
  std::vector<float> A(P.gemmM() * P.gemmK(), -1.0f);
  im2row(P, In.data(), A.data());
  ASSERT_EQ(P.gemmM(), 1);
  ASSERT_EQ(P.gemmK(), 9);
  for (int64_t Col = 0; Col != 9; ++Col)
    EXPECT_EQ(A[Col], Col == 4 ? 42.0f : 0.0f) << Col;
}

TEST(Im2RowTest, StrideSkipsPixels) {
  // 4x4 single-channel image, 1x1 kernel, stride 2: picks 4 corners of the
  // even grid.
  ConvParams P{1, 1, 4, 4, 1, 1, 2, 0};
  std::vector<float> In(16);
  for (int I = 0; I != 16; ++I)
    In[I] = static_cast<float>(I);
  std::vector<float> A(P.gemmM() * P.gemmK());
  im2row(P, In.data(), A.data());
  ASSERT_EQ(P.gemmM(), 4);
  EXPECT_EQ(A[0], 0.0f);
  EXPECT_EQ(A[1], 2.0f);
  EXPECT_EQ(A[2], 8.0f);
  EXPECT_EQ(A[3], 10.0f);
}

namespace {

/// Every distinct conv of the ResNet-50 v1.5 batch-1 pass at full size:
/// the 20 Table I rows plus the stride-2 first 3x3 of stages 2-4, which
/// read the previous stage's twice-as-large map.
std::vector<ConvParams> resnet50Convs() {
  return {
      {3, 64, 224, 224, 7, 7, 2, 3},     {64, 64, 56, 56, 1, 1, 1, 0},
      {64, 64, 56, 56, 3, 3, 1, 1},      {64, 256, 56, 56, 1, 1, 1, 0},
      {256, 64, 56, 56, 1, 1, 1, 0},     {256, 128, 56, 56, 1, 1, 1, 0},
      {128, 128, 28, 28, 3, 3, 1, 1},    {128, 512, 28, 28, 1, 1, 1, 0},
      {256, 512, 56, 56, 1, 1, 2, 0},    {512, 128, 28, 28, 1, 1, 1, 0},
      {512, 256, 28, 28, 1, 1, 1, 0},    {256, 256, 14, 14, 3, 3, 1, 1},
      {256, 1024, 14, 14, 1, 1, 1, 0},   {512, 1024, 28, 28, 1, 1, 2, 0},
      {1024, 256, 14, 14, 1, 1, 1, 0},   {1024, 512, 14, 14, 1, 1, 1, 0},
      {512, 512, 7, 7, 3, 3, 1, 1},      {512, 2048, 7, 7, 1, 1, 1, 0},
      {1024, 2048, 14, 14, 1, 1, 2, 0},  {2048, 512, 7, 7, 1, 1, 1, 0},
      {128, 128, 56, 56, 3, 3, 2, 1},    {256, 256, 28, 28, 3, 3, 2, 1},
      {512, 512, 14, 14, 3, 3, 2, 1},
  };
}

/// Runs dnn::im2row and the reference over a NaN-filled destination and
/// compares the bytes: an element the blocked loop skips stays NaN and
/// fails the comparison.
void expectIm2rowMatchesRef(const ConvParams &P) {
  std::vector<float> In(P.InH * P.InW * P.InC);
  benchutil::fillRandom(In.data(), In.size(), 11);
  const size_t Size = static_cast<size_t>(P.gemmM() * P.gemmK());
  const float NaN = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> Got(Size, NaN), Want(Size, NaN);
  im2row(P, In.data(), Got.data());
  im2rowRef(P, In.data(), Want.data());
  for (float V : Want)
    ASSERT_FALSE(std::isnan(V)) << "reference left an element unwritten";
  EXPECT_EQ(0, std::memcmp(Got.data(), Want.data(), Size * sizeof(float)))
      << "c" << P.InC << " " << P.InH << "x" << P.InW << " k" << P.Kh << "x"
      << P.Kw << " s" << P.Stride << " p" << P.Pad;
}

} // namespace

TEST(Im2RowTest, BitwiseEqualToPerElementLoopOnSweep) {
  const int64_t Kernels[][2] = {{1, 1}, {3, 3}, {7, 7}, {1, 3}};
  const int64_t Images[][2] = {{9, 13}, {16, 7}};
  for (int64_t InC : {1, 3, 16, 17, 40, 64})
    for (const auto &Kern : Kernels)
      for (const auto &Img : Images)
        for (int64_t Stride : {1, 2})
          for (int64_t Pad : {0, 1, 3})
            expectIm2rowMatchesRef(ConvParams{InC, 1, Img[0], Img[1],
                                              Kern[0], Kern[1], Stride, Pad});
}

TEST(Im2RowTest, BitwiseEqualToPerElementLoopOnResNet50) {
  const std::vector<ConvParams> Convs = resnet50Convs();
  ASSERT_EQ(Convs.size(), 23u);
  // The first 20 are Table I in order; the downsamples share the GEMM
  // shape of rows 7, 12 and 17.
  const std::vector<LayerGemm> &Table = resnet50Layers();
  for (size_t I = 0; I != Convs.size(); ++I) {
    const LayerGemm &L = Table[I < 20 ? I : 6 + 5 * (I - 20)];
    EXPECT_EQ(Convs[I].gemmM(), L.M) << I;
    EXPECT_EQ(Convs[I].gemmN(), L.N) << I;
    EXPECT_EQ(Convs[I].gemmK(), L.K) << I;
  }
  for (const ConvParams &P : Convs)
    expectIm2rowMatchesRef(P);
}
