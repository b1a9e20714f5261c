//===- GemmTest.cpp - Full macro-kernel GEMM vs reference -----------------===//

#include "gemm/Gemm.h"

#include "benchutil/Bench.h"
#include "exo/support/Str.h"
#include "gemm/ExoProvider.h"
#include "gemm/Kernels.h"
#include "gemm/RefGemm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

using namespace gemm;

namespace {

enum class ProviderKind { Hand, Blis, BlisPrefetch, Exo };

struct Case {
  ProviderKind Kind;
  int64_t M, N, K;
  float Alpha = 1.0f, Beta = 1.0f;
};

std::string caseName(const testing::TestParamInfo<Case> &Info) {
  const Case &C = Info.param;
  const char *P = C.Kind == ProviderKind::Hand           ? "hand"
                  : C.Kind == ProviderKind::Blis         ? "blis"
                  : C.Kind == ProviderKind::BlisPrefetch ? "blispf"
                                                         : "exo";
  std::string Name = exo::strf(
      "%s_%lldx%lldx%lld_a%d_b%d", P, static_cast<long long>(C.M),
      static_cast<long long>(C.N), static_cast<long long>(C.K),
      static_cast<int>(C.Alpha * 10), static_cast<int>(C.Beta * 10));
  return exo::replaceAll(std::move(Name), "-", "m");
}

std::unique_ptr<KernelProvider> makeProvider(ProviderKind Kind) {
  switch (Kind) {
  case ProviderKind::Hand:
    return std::make_unique<FixedProvider>(handVectorKernel(), "hand");
  case ProviderKind::Blis:
    return std::make_unique<FixedProvider>(blisKernel(), "blis");
  case ProviderKind::BlisPrefetch:
    return std::make_unique<FixedProvider>(blisKernelPrefetch(), "blispf");
  case ProviderKind::Exo:
    return std::make_unique<ExoProvider>(8, 12, &exo::avx2Isa());
  }
  return nullptr;
}

class GemmProviderTest : public testing::TestWithParam<Case> {};

} // namespace

TEST_P(GemmProviderTest, MatchesReference) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  const Case &TC = GetParam();
  auto Provider = makeProvider(TC.Kind);

  // Leading dimensions slightly larger than the extents to catch stride
  // bugs.
  int64_t Lda = TC.M + 3, Ldb = TC.K + 2, Ldc = TC.M + 1;
  std::vector<float> A(Lda * TC.K), B(Ldb * TC.N), C(Ldc * TC.N);
  benchutil::fillRandom(A.data(), A.size(), 101);
  benchutil::fillRandom(B.data(), B.size(), 102);
  benchutil::fillRandom(C.data(), C.size(), 103);
  std::vector<float> Want = C;
  refSgemm(TC.M, TC.N, TC.K, TC.Alpha, A.data(), Lda, B.data(), Ldb, TC.Beta,
           Want.data(), Ldc);

  GemmPlan Plan = GemmPlan::standard(*Provider);
  exo::Error Err =
      blisGemm(Plan, *Provider, TC.M, TC.N, TC.K, TC.Alpha, A.data(), Lda,
               B.data(), Ldb, TC.Beta, C.data(), Ldc);
  ASSERT_FALSE(Err) << Err.message();

  float Tol = 1e-5f * static_cast<float>(TC.K + 1);
  for (int64_t J = 0; J < TC.N; ++J)
    for (int64_t I = 0; I < TC.M; ++I)
      ASSERT_NEAR(C[I + J * Ldc], Want[I + J * Ldc], Tol)
          << "(" << I << ", " << J << ")";
  // Padding between columns is untouched.
  for (int64_t J = 0; J < TC.N; ++J)
    for (int64_t I = TC.M; I < Ldc; ++I)
      ASSERT_EQ(C[I + J * Ldc], Want[I + J * Ldc]);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmProviderTest,
    testing::Values(
        Case{ProviderKind::Hand, 64, 48, 32}, //
        Case{ProviderKind::Blis, 64, 48, 32},
        Case{ProviderKind::BlisPrefetch, 64, 48, 32},
        Case{ProviderKind::Exo, 64, 48, 32},
        // Edge-rich shapes (not multiples of 8/12).
        Case{ProviderKind::Hand, 123, 77, 55},
        Case{ProviderKind::Blis, 123, 77, 55},
        Case{ProviderKind::Exo, 123, 77, 55},
        Case{ProviderKind::Exo, 49, 50, 47},
        Case{ProviderKind::Hand, 49, 50, 47},
        // Tiny and degenerate.
        Case{ProviderKind::Exo, 1, 1, 1},
        Case{ProviderKind::Hand, 1, 1, 1},
        Case{ProviderKind::Exo, 8, 12, 1},
        Case{ProviderKind::Exo, 7, 11, 600},
        // Larger-than-block sizes exercise all five loops.
        Case{ProviderKind::Exo, 300, 530, 600},
        Case{ProviderKind::BlisPrefetch, 300, 530, 600},
        // Alpha/beta handling.
        Case{ProviderKind::Exo, 100, 90, 80, 2.0f, 0.5f},
        Case{ProviderKind::Hand, 100, 90, 80, -1.0f, 0.0f},
        Case{ProviderKind::Blis, 100, 90, 80, 0.5f, 2.0f}),
    caseName);

namespace {

/// Seeds \p C with the NaN/Inf garbage a pooled, uninitialized serving
/// buffer can contain.
void fillGarbage(std::vector<float> &C) {
  for (size_t I = 0; I < C.size(); ++I)
    C[I] = I % 3 == 0   ? std::numeric_limits<float>::quiet_NaN()
           : I % 3 == 1 ? std::numeric_limits<float>::infinity()
                        : -std::numeric_limits<float>::infinity();
}

} // namespace

// The classic BLAS beta-zero rule: beta == 0 overwrites C without reading
// it, so NaN/Inf in an uninitialized output buffer never propagates. Edge-
// rich shape (not multiples of 8/12), all four transpose combinations.
TEST(GemmDriverTest, BetaZeroOverwritesNaN) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  const int64_t M = 61, N = 45, K = 38;
  for (Trans TA : {Trans::None, Trans::Transpose}) {
    for (Trans TB : {Trans::None, Trans::Transpose}) {
      int64_t ARows = TA == Trans::None ? M : K;
      int64_t BRows = TB == Trans::None ? K : N;
      std::vector<float> A(M * K), B(K * N), C(M * N);
      benchutil::fillRandom(A.data(), A.size(), 7);
      benchutil::fillRandom(B.data(), B.size(), 8);
      fillGarbage(C);
      // The oracle runs over the same garbage-seeded C: it must agree
      // that beta == 0 never reads C, or it would mask the bug.
      std::vector<float> AEff(M * K), BEff(K * N), Want = C;
      for (int64_t P = 0; P < K; ++P)
        for (int64_t I = 0; I < M; ++I)
          AEff[I + P * M] =
              TA == Trans::None ? A[I + P * ARows] : A[P + I * ARows];
      for (int64_t J = 0; J < N; ++J)
        for (int64_t P = 0; P < K; ++P)
          BEff[P + J * K] =
              TB == Trans::None ? B[P + J * BRows] : B[J + P * BRows];
      refSgemm(M, N, K, 1.25f, AEff.data(), M, BEff.data(), K, 0.0f,
               Want.data(), M);

      ExoProvider P(8, 12, &exo::avx2Isa());
      GemmPlan Plan = GemmPlan::standard(P);
      exo::Error Err = blisGemmT(Plan, P, TA, TB, M, N, K, 1.25f, A.data(),
                                 ARows, B.data(), BRows, 0.0f, C.data(), M);
      ASSERT_FALSE(Err) << Err.message();
      for (int64_t I = 0; I < M * N; ++I) {
        ASSERT_TRUE(std::isfinite(C[I]))
            << "NaN/Inf leaked at " << I << " (TA=" << static_cast<int>(TA)
            << " TB=" << static_cast<int>(TB) << ")";
        ASSERT_NEAR(C[I], Want[I], 1e-4f * static_cast<float>(K));
      }
    }
  }
}

// Same rule on the monolithic-kernel (ZeroPad scratch) path.
TEST(GemmDriverTest, BetaZeroOverwritesNaNMonolithic) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  const int64_t M = 123, N = 77, K = 55;
  FixedProvider P(blisKernel(), "blis");
  std::vector<float> A(M * K), B(K * N), C(M * N);
  benchutil::fillRandom(A.data(), A.size(), 9);
  benchutil::fillRandom(B.data(), B.size(), 10);
  fillGarbage(C);
  std::vector<float> Want = C;
  refSgemm(M, N, K, -0.5f, A.data(), M, B.data(), K, 0.0f, Want.data(), M);
  GemmPlan Plan = GemmPlan::standard(P);
  exo::Error Err = blisGemm(Plan, P, M, N, K, -0.5f, A.data(), M, B.data(),
                            K, 0.0f, C.data(), M);
  ASSERT_FALSE(Err) << Err.message();
  for (int64_t I = 0; I < M * N; ++I) {
    ASSERT_TRUE(std::isfinite(C[I])) << "NaN/Inf leaked at " << I;
    ASSERT_NEAR(C[I], Want[I], 1e-4f * static_cast<float>(K));
  }
}

// The K == 0 degenerate path must obey the same overwrite rule.
TEST(GemmDriverTest, KZeroBetaZeroOverwritesNaN) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  FixedProvider P(blisKernel(), "blis");
  std::vector<float> C(6 * 5);
  fillGarbage(C);
  GemmPlan Plan = GemmPlan::standard(P);
  exo::Error Err = blisGemm(Plan, P, 6, 5, 0, 1.0f, nullptr, 6, nullptr, 1,
                            0.0f, C.data(), 6);
  ASSERT_FALSE(Err) << Err.message();
  for (float V : C)
    EXPECT_EQ(V, 0.0f);
}

TEST(GemmDriverTest, KZeroScalesByBeta) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  FixedProvider P(blisKernel(), "blis");
  std::vector<float> C(6 * 5, 2.0f);
  GemmPlan Plan = GemmPlan::standard(P);
  exo::Error Err = blisGemm(Plan, P, 6, 5, 0, 1.0f, nullptr, 6, nullptr, 1,
                            0.5f, C.data(), 6);
  ASSERT_FALSE(Err) << Err.message();
  for (float V : C)
    EXPECT_EQ(V, 1.0f);
}

TEST(GemmDriverTest, EmptyProblemsAreNoOps) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  FixedProvider P(blisKernel(), "blis");
  GemmPlan Plan = GemmPlan::standard(P);
  EXPECT_FALSE(blisGemm(Plan, P, 0, 5, 3, 1.0f, nullptr, 1, nullptr, 3, 1.0f,
                        nullptr, 1));
  EXPECT_FALSE(blisGemm(Plan, P, 5, 0, 3, 1.0f, nullptr, 5, nullptr, 3, 1.0f,
                        nullptr, 5));
  EXPECT_TRUE(blisGemm(Plan, P, -1, 5, 3, 1.0f, nullptr, 1, nullptr, 3, 1.0f,
                       nullptr, 1));
}

TEST(GemmDriverTest, StandardPlanMatchesProviderEdgeSupport) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  FixedProvider Fixed(blisKernel(), "blis");
  EXPECT_EQ(GemmPlan::standard(Fixed).PackMode, EdgePack::ZeroPad);
  ExoProvider Exo(8, 12, &exo::avx2Isa());
  EXPECT_EQ(GemmPlan::standard(Exo).PackMode, EdgePack::Tight);
}

namespace {

/// Wraps a provider but denies one edge width — a *partial* edge family,
/// as a provider whose kernel family was only partly warmed would present.
class PartialEdgeProvider final : public KernelProvider {
public:
  PartialEdgeProvider(KernelProvider &Inner, int64_t DenyNr)
      : Inner(Inner), DenyNr(DenyNr) {}
  MicroKernel main() override { return Inner.main(); }
  std::optional<MicroKernel> edge(int64_t MrEff, int64_t NrEff) override {
    if (NrEff == DenyNr)
      return std::nullopt;
    return Inner.edge(MrEff, NrEff);
  }
  const char *name() const override { return "partial-edge"; }

private:
  KernelProvider &Inner;
  int64_t DenyNr;
};

} // namespace

// A Tight-mode plan over a provider missing one edge width used to error
// mid-computation; now the affected strips degrade to the monolithic
// kernel over a re-padded panel and the result still matches the oracle.
TEST(GemmDriverTest, PartialEdgeFamilyDegradesGracefully) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  ExoProvider Exo(8, 12, &exo::avx2Isa());
  PartialEdgeProvider P(Exo, /*DenyNr=*/3);
  GemmPlan Plan = GemmPlan::standard(P);
  ASSERT_EQ(Plan.PackMode, EdgePack::Tight); // full-width probe succeeds

  const int64_t M = 20, N = 27, K = 33; // N % 12 == 3: the denied width
  std::vector<float> A(M * K), B(K * N), C(M * N, 0.5f);
  benchutil::fillRandom(A.data(), A.size(), 21);
  benchutil::fillRandom(B.data(), B.size(), 22);
  std::vector<float> Want = C;
  refSgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, Want.data(), M);
  exo::Error Err = blisGemm(Plan, P, M, N, K, 1.0f, A.data(), M, B.data(),
                            K, 1.0f, C.data(), M);
  ASSERT_FALSE(Err) << Err.message();
  float D = benchutil::maxAbsDiff(C.data(), Want.data(), C.size());
  EXPECT_LT(D, 1e-3f);
}

// The parallel macro-kernel partitions work but never reorders or splits
// any per-element accumulation chain, so every thread count must produce
// bitwise-identical output. Sweep shapes that exercise all five loops,
// edge tiles, and more threads than ic blocks (forcing jr-level teams).
TEST(GemmDriverTest, ThreadedMatchesSingleThreadBitwise) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  struct Shape {
    int64_t M, N, K;
  };
  const Shape Shapes[] = {
      {64, 48, 32}, {123, 77, 55}, {49, 50, 47}, {300, 530, 600}, {8, 12, 1},
  };
  for (ProviderKind Kind : {ProviderKind::Exo, ProviderKind::Blis}) {
    auto Provider = makeProvider(Kind);
    GemmPlan Plan = GemmPlan::standard(*Provider);
    for (const Shape &S : Shapes) {
      std::vector<float> A(S.M * S.K), B(S.K * S.N), CBase(S.M * S.N);
      benchutil::fillRandom(A.data(), A.size(), 31);
      benchutil::fillRandom(B.data(), B.size(), 32);
      benchutil::fillRandom(CBase.data(), CBase.size(), 33);

      std::vector<float> C1 = CBase;
      Plan.Threads = 1;
      ASSERT_FALSE(blisGemm(Plan, *Provider, S.M, S.N, S.K, 1.5f, A.data(),
                            S.M, B.data(), S.K, 0.5f, C1.data(), S.M));
      for (int64_t T : {2, 3, 8}) {
        std::vector<float> CT = CBase;
        Plan.Threads = T;
        ASSERT_FALSE(blisGemm(Plan, *Provider, S.M, S.N, S.K, 1.5f,
                              A.data(), S.M, B.data(), S.K, 0.5f, CT.data(),
                              S.M));
        EXPECT_EQ(0, std::memcmp(C1.data(), CT.data(),
                                 C1.size() * sizeof(float)))
            << "threads=" << T << " shape " << S.M << "x" << S.N << "x"
            << S.K << " provider " << Provider->name();
      }
      Plan.Threads = 0;
    }
  }
}

// Beta == 0 + garbage C stays clean on the threaded path too (the pre-
// scale is partitioned across the team).
TEST(GemmDriverTest, ThreadedBetaZeroOverwritesNaN) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  const int64_t M = 123, N = 77, K = 55;
  ExoProvider P(8, 12, &exo::avx2Isa());
  GemmPlan Plan = GemmPlan::standard(P);
  Plan.Threads = 4;
  std::vector<float> A(M * K), B(K * N), C(M * N);
  benchutil::fillRandom(A.data(), A.size(), 41);
  benchutil::fillRandom(B.data(), B.size(), 42);
  fillGarbage(C);
  std::vector<float> Want = C;
  refSgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f, Want.data(), M);
  ASSERT_FALSE(blisGemm(Plan, P, M, N, K, 1.0f, A.data(), M, B.data(), K,
                        0.0f, C.data(), M));
  for (int64_t I = 0; I < M * N; ++I) {
    ASSERT_TRUE(std::isfinite(C[I])) << "NaN/Inf leaked at " << I;
    ASSERT_NEAR(C[I], Want[I], 1e-4f * static_cast<float>(K));
  }
}

// One provider instance serving concurrent GEMM calls from independent
// caller threads: the provider's shape memo is locked, the kernel service
// is internally synchronized — no torn kernels, correct results.
TEST(GemmDriverTest, ProviderSharedAcrossCallerThreads) {
  if (!baselineKernelsUsable())
    GTEST_SKIP();
  const int64_t M = 49, N = 50, K = 47;
  ExoProvider P(8, 12, &exo::avx2Isa());
  GemmPlan Plan = GemmPlan::standard(P);
  std::vector<float> A(M * K), B(K * N), Want(M * N, 1.0f);
  benchutil::fillRandom(A.data(), A.size(), 51);
  benchutil::fillRandom(B.data(), B.size(), 52);
  refSgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 1.0f, Want.data(), M);

  constexpr int NCallers = 4;
  std::vector<std::vector<float>> Cs(NCallers);
  std::vector<exo::Error> Errs(NCallers);
  {
    std::vector<std::thread> Callers;
    for (int I = 0; I < NCallers; ++I)
      Callers.emplace_back([&, I] {
        Cs[I].assign(M * N, 1.0f);
        Errs[I] = blisGemm(Plan, P, M, N, K, 1.0f, A.data(), M, B.data(), K,
                           1.0f, Cs[I].data(), M);
      });
    for (std::thread &Th : Callers)
      Th.join();
  }
  for (int I = 0; I < NCallers; ++I) {
    ASSERT_FALSE(Errs[I]) << Errs[I].message();
    EXPECT_LT(benchutil::maxAbsDiff(Cs[I].data(), Want.data(), Want.size()),
              1e-3f);
  }
}

// Every pack panel and scratch tile starts a cache line, for the f32 panel
// set (with the re-padded B strip) and for the i8 byte/i32 set alike.
TEST(GemmWorkspaceTest, EnsureYieldsCacheLineAlignedPanels) {
  auto Aligned = [](const void *P) {
    return reinterpret_cast<uintptr_t>(P) % detail::PanelAlign == 0;
  };
  detail::GemmGeometry G;
  G.Mr = 8;
  G.Nr = 12;
  G.Mc = 37;
  G.Kc = 29;
  G.Nc = 53;
  G.T = 3;
  G.NeedBPad = true;
  detail::GemmWorkspace F32;
  F32.ensure(G);
  EXPECT_TRUE(Aligned(F32.BBuf.data()));
  for (int64_t I = 0; I < G.T; ++I) {
    EXPECT_TRUE(Aligned(F32.ABufs[I].data())) << I;
    EXPECT_TRUE(Aligned(F32.Scratches[I].data())) << I;
    EXPECT_TRUE(Aligned(F32.BPads[I].data())) << I;
  }

  G.Ty = DType::I8I32;
  G.NeedBPad = false;
  detail::GemmWorkspace I8;
  I8.ensure(G);
  EXPECT_TRUE(Aligned(I8.BBufI8.data()));
  for (int64_t I = 0; I < G.T; ++I) {
    EXPECT_TRUE(Aligned(I8.ABufsI8[I].data())) << I;
    EXPECT_TRUE(Aligned(I8.ScratchesI32[I].data())) << I;
  }
}
