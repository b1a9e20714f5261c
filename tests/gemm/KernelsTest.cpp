//===- KernelsTest.cpp - Hand-written baseline kernels --------------------===//

#include "gemm/Kernels.h"

#include "benchutil/Bench.h"

#include <gtest/gtest.h>

#include <vector>

using namespace gemm;

namespace {

struct BaselineCase {
  MicroKernel Kernel;
  const char *Label;
};

class BaselineKernelTest : public testing::TestWithParam<BaselineCase> {};

} // namespace

TEST_P(BaselineKernelTest, MatchesNaiveUpdate) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  MicroKernel K = GetParam().Kernel;
  ASSERT_EQ(K.MR, 8);
  ASSERT_EQ(K.NR, 12);

  const int64_t Kc = 23, Ldc = 11;
  std::vector<float> Ac(Kc * K.MR), Bc(Kc * K.NR);
  std::vector<float> C((K.NR - 1) * Ldc + K.MR, 0.25f);
  benchutil::fillRandom(Ac.data(), Ac.size(), 7);
  benchutil::fillRandom(Bc.data(), Bc.size(), 8);
  std::vector<float> Want = C;
  for (int64_t J = 0; J < K.NR; ++J)
    for (int64_t I = 0; I < K.MR; ++I)
      for (int64_t P = 0; P < Kc; ++P)
        Want[J * Ldc + I] += Ac[P * K.MR + I] * Bc[P * K.NR + J];

  K.Fn(Kc, Ldc, Ac.data(), Bc.data(), C.data());
  for (size_t I = 0; I != C.size(); ++I)
    EXPECT_NEAR(C[I], Want[I], 1e-4f) << K.Name << " @" << I;
}

TEST_P(BaselineKernelTest, KcZeroIsIdentity) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  MicroKernel K = GetParam().Kernel;
  std::vector<float> Ac(8), Bc(12), C(12 * 8, 3.0f), Want = C;
  K.Fn(0, 8, Ac.data(), Bc.data(), C.data());
  EXPECT_EQ(C, Want);
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineKernelTest,
    testing::Values(BaselineCase{handVectorKernel(), "hand_vector"},
                    BaselineCase{blisKernel(), "blis_style"},
                    BaselineCase{blisKernelPrefetch(), "blis_prefetch"}),
    [](const testing::TestParamInfo<BaselineCase> &I) {
      return std::string(I.param.Label);
    });
