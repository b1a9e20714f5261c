//===- EngineTest.cpp - Engine front door vs legacy GEMM ------------------===//
//
// The Engine's core guarantee: Engine::sgemm is a *dispatch* layer, not a
// different algorithm. For the same (provider, tile, plan) the result must
// be bitwise identical to the legacy blisGemmT front door — both run the
// shared detail::executeGemm, and the differential sweep here holds that
// across a broad shape set (edge-heavy shapes included), all four
// transpose combos, and team sizes 1 and 4. Also covers the plan cache's
// observable behavior (counters, cap eviction, cache-off mode), the
// planner's measured-prior path, and the barrier-free one-ic-block teams'
// width invariance for every dtype.
//
//===----------------------------------------------------------------------===//

#include "gemm/Engine.h"

#include "benchutil/Bench.h"
#include "exo/jit/Jit.h"
#include "gemm/DType.h"
#include "gemm/ExoProvider.h"
#include "gemm/Kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

using namespace gemm;

namespace {

constexpr Trans Combos[][2] = {{Trans::None, Trans::None},
                               {Trans::None, Trans::Transpose},
                               {Trans::Transpose, Trans::None},
                               {Trans::Transpose, Trans::Transpose}};

/// The differential sweep's shapes: full-tile multiples, edge-heavy
/// remainders around the 8x12 tile, degenerate-adjacent slivers, and a few
/// larger blocks that cross mc/nc boundaries.
constexpr int64_t Shapes[][3] = {
    {1, 1, 1},     {1, 12, 4},    {8, 1, 8},     {1, 8, 8},
    {2, 2, 2},     {3, 5, 2},     {7, 11, 5},    {8, 12, 1},
    {8, 12, 16},   {13, 13, 13},  {16, 24, 32},  {17, 23, 31},
    {24, 36, 48},  {25, 37, 49},  {31, 47, 29},  {33, 65, 17},
    {40, 60, 20},  {41, 61, 21},  {49, 50, 51},  {57, 3, 19},
    {3, 57, 19},   {64, 48, 32},  {5, 124, 77},  {124, 5, 77},
    {61, 67, 71},  {80, 84, 88},  {81, 85, 89},  {96, 96, 96},
    {100, 62, 64}, {128, 12, 128}, {12, 128, 12}, {160, 96, 64},
};

/// op(A) is M x K: storage extents for one operand given its transpose.
void operandExtents(Trans T, int64_t Rows, int64_t Cols, int64_t &StoreRows,
                    int64_t &StoreCols) {
  StoreRows = T == Trans::None ? Rows : Cols;
  StoreCols = T == Trans::None ? Cols : Rows;
}

bool sameBits(const std::vector<float> &X, const std::vector<float> &Y) {
  return X.size() == Y.size() &&
         std::memcmp(X.data(), Y.data(), X.size() * sizeof(float)) == 0;
}

/// Runs the legacy and Engine front doors on identical inputs and expects
/// bitwise-identical C.
void expectBitwiseEqual(Engine &E, const GemmPlan &Plan, KernelProvider &P,
                       Trans TA, Trans TB, int64_t M, int64_t N, int64_t K) {
  int64_t ARows, ACols, BRows, BCols;
  operandExtents(TA, M, K, ARows, ACols);
  operandExtents(TB, K, N, BRows, BCols);
  const int64_t Lda = ARows + 2, Ldb = BRows + 1, Ldc = M + 3;

  std::vector<float> A(Lda * ACols), B(Ldb * BCols), C(Ldc * N);
  benchutil::fillRandom(A.data(), A.size(), 7 * M + N);
  benchutil::fillRandom(B.data(), B.size(), 11 * N + K);
  benchutil::fillRandom(C.data(), C.size(), 13 * K + M);

  std::vector<float> CLegacy = C, CEngine = C;
  exo::Error ELeg =
      blisGemmT(Plan, P, TA, TB, M, N, K, 1.25f, A.data(), Lda, B.data(),
                Ldb, 0.5f, CLegacy.data(), Ldc);
  exo::Error EEng = E.sgemm(TA, TB, M, N, K, 1.25f, A.data(), Lda, B.data(),
                            Ldb, 0.5f, CEngine.data(), Ldc);
  ASSERT_FALSE(static_cast<bool>(ELeg)) << ELeg.message();
  ASSERT_FALSE(static_cast<bool>(EEng)) << EEng.message();
  EXPECT_TRUE(sameBits(CLegacy, CEngine))
      << M << "x" << N << "x" << K << " TA=" << (TA == Trans::Transpose)
      << " TB=" << (TB == Trans::Transpose);
}

} // namespace

TEST(EngineDifferential, BitwiseMatchesLegacyBlisSweep) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  for (int64_t Threads : {int64_t{1}, int64_t{4}}) {
    EngineConfig Cfg;
    Cfg.Series = EngineSeries::Blis;
    Cfg.Threads = Threads;
    Engine E(Cfg);
    FixedProvider P(blisKernel(), "blis");
    GemmPlan Plan = GemmPlan::standard(P);
    Plan.Threads = Threads;
    for (const auto &S : Shapes)
      for (auto [TA, TB] : Combos)
        expectBitwiseEqual(E, Plan, P, TA, TB, S[0], S[1], S[2]);
  }
}

TEST(EngineDifferential, BitwiseMatchesLegacyExoEdgeShapes) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  if (!exo::jitAvailable())
    GTEST_SKIP() << "no working C compiler";
  // Generated kernels with specialized edges: the pinned 8x12 tile keeps
  // the Engine's provider memo and the legacy ExoProvider on the same
  // kernel family.
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Exo;
  Cfg.Isa = &exo::avx2Isa();
  Cfg.ForceMR = 8;
  Cfg.ForceNR = 12;
  Engine E(Cfg);
  ExoProvider P(8, 12, &exo::avx2Isa());
  GemmPlan Plan = GemmPlan::standard(P);
  for (const auto &S : {std::array<int64_t, 3>{49, 50, 51},
                        {100, 62, 64},
                        {17, 23, 31},
                        {8, 12, 16}})
    for (auto [TA, TB] : Combos)
      expectBitwiseEqual(E, Plan, P, TA, TB, S[0], S[1], S[2]);
}

TEST(EnginePlanCache, CountsHitsMissesAndBuilds) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Engine E(Cfg);
  std::vector<float> A(32 * 32), B(32 * 32), C(32 * 32, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);

  for (int Rep = 0; Rep != 5; ++Rep)
    ASSERT_FALSE(static_cast<bool>(
        E.sgemm(32, 32, 32, 1.f, A.data(), 32, B.data(), 32, 0.f, C.data(),
                32)));
  ASSERT_FALSE(static_cast<bool>(
      E.sgemm(16, 16, 16, 1.f, A.data(), 16, B.data(), 16, 0.f, C.data(),
              16)));

  EngineStats St = E.stats();
  EXPECT_EQ(St.Builds, 2u); // one per distinct shape
  EXPECT_EQ(St.Misses, 2u);
  EXPECT_EQ(St.Hits, 4u);
  EXPECT_EQ(E.planCount(), 2u);

  E.clearPlanCache();
  EXPECT_EQ(E.planCount(), 0u);
}

TEST(EnginePlanCache, CapEvictsLeastRecentlyUsed) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.PlanCacheCap = 3;
  Engine E(Cfg);
  std::vector<float> A(64 * 64), B(64 * 64), C(64 * 64, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);

  for (int64_t S : {8, 16, 24, 32, 40, 48})
    ASSERT_FALSE(static_cast<bool>(
        E.sgemm(S, S, S, 1.f, A.data(), S, B.data(), S, 0.f, C.data(), S)));

  EXPECT_LE(E.planCount(), 3u);
  EXPECT_GE(E.stats().Evictions, 3u);
}

TEST(EnginePlanCache, CapOneChurnsWithoutInvalidatingReturnedPlans) {
  // cap=1 makes every new build the sole resident: each insertion evicts
  // the previous plan while the new entry must survive its own eviction
  // pass (a returned plan read through the map after self-eviction is a
  // use-after-free; ASan-visible).
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.PlanCacheCap = 1;
  Engine E(Cfg);
  std::vector<float> A(64 * 64), B(64 * 64), C(64 * 64, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);

  for (int Round = 0; Round != 2; ++Round)
    for (int64_t S : {8, 16, 24, 32})
      ASSERT_FALSE(static_cast<bool>(E.sgemm(
          S, S, S, 1.f, A.data(), S, B.data(), S, 0.f, C.data(), S)));

  EXPECT_LE(E.planCount(), 1u);
  EXPECT_GE(E.stats().Evictions, 7u); // every later build displaces one
}

TEST(EnginePlanCache, DisabledCachePlansPerCall) {
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.PlanCache = 0;
  Engine E(Cfg);
  std::vector<float> A(16 * 16), B(16 * 16), C(16 * 16, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);

  for (int Rep = 0; Rep != 3; ++Rep)
    ASSERT_FALSE(static_cast<bool>(
        E.sgemm(16, 16, 16, 1.f, A.data(), 16, B.data(), 16, 0.f, C.data(),
                16)));
  EXPECT_EQ(E.planCount(), 0u);
  EXPECT_EQ(E.stats().Builds, 3u); // every call re-plans
}

TEST(EnginePlanCache, WarmLeavesNothingToBuildForTheFirstCall) {
  if (!exo::jitAvailable())
    GTEST_SKIP();
  // N = 203 leaves a partial strip, so the plan dispatches an edge kernel
  // besides the main tile.
  const int64_t M = 200, N = 203, K = 64;
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Exo;
  Cfg.Threads = 1;
  Cfg.PlanCache = 1;
  Engine E(Cfg);
  ukr::KernelCache &Kernels = ukr::KernelCache::global();
  auto JitRequests = [] {
    const exo::JitStats S = exo::jitStats();
    return S.Compiles + S.DiskHits + S.MemHits;
  };

  const uint64_t Jit0 = JitRequests();
  const size_t Kernels0 = Kernels.size();
  exo::Error Err = E.warm(Trans::None, Trans::None, M, N, K);
  ASSERT_FALSE(static_cast<bool>(Err)) << Err.message();
  EXPECT_EQ(E.stats().Builds, 1u);
  // Every kernel warm asked the JIT for is a new entry of the one kernel
  // cache: no config was built twice.
  const uint64_t Jit1 = JitRequests();
  const size_t Kernels1 = Kernels.size();
  EXPECT_EQ(Jit1 - Jit0, Kernels1 - Kernels0);

  std::vector<float> A(M * K), B(K * N), C(M * N, 0.f);
  benchutil::fillRandom(A.data(), A.size(), 1);
  benchutil::fillRandom(B.data(), B.size(), 2);
  ASSERT_FALSE(static_cast<bool>(E.sgemm(M, N, K, 1.f, A.data(), M, B.data(),
                                         K, 0.f, C.data(), M)));
  EngineStats St = E.stats();
  EXPECT_EQ(St.Builds, 1u); // the warmed plan, no new one
  EXPECT_EQ(St.Hits, 1u);
  EXPECT_EQ(Kernels.size(), Kernels1);
  EXPECT_EQ(JitRequests(), Jit1);
}

TEST(EnginePlanner, ForcedTileWinsAndIsReported) {
  // Forcing only makes sense for planner-driven series (Exo/Auto); fixed
  // kernel series always report "fixed" because their kernel is the tile.
  if (!exo::jitAvailable())
    GTEST_SKIP() << "JIT unavailable";
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Exo;
  Cfg.Isa = &exo::avx2Isa();
  Cfg.ForceMR = 8;
  Cfg.ForceNR = 12;
  Engine E(Cfg);
  exo::Expected<PlanChoice> Choice =
      E.planFor(Trans::None, Trans::None, 64, 64, 64);
  ASSERT_TRUE(static_cast<bool>(Choice)) << Choice.takeError().message();
  EXPECT_EQ(Choice->MR, 8);
  EXPECT_EQ(Choice->NR, 12);
  EXPECT_STREQ(Choice->Source, "forced");

  // And the fixed-series counterpart: same tile, honestly labeled.
  EngineConfig BlisCfg;
  BlisCfg.Series = EngineSeries::Blis;
  Engine EB(BlisCfg);
  exo::Expected<PlanChoice> BlisChoice =
      EB.planFor(Trans::None, Trans::None, 64, 64, 64);
  ASSERT_TRUE(static_cast<bool>(BlisChoice))
      << BlisChoice.takeError().message();
  EXPECT_STREQ(BlisChoice->Source, "fixed");
}

TEST(EngineConfigTest, CustomSeriesRequiresProvider) {
  // Every entry point must report the misconfiguration as an Error; the
  // planFor/warm paths used to dereference the null provider in build().
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Engine E(Cfg);
  std::vector<float> C(4, 0.f);
  exo::Error Err =
      E.sgemm(2, 2, 2, 1.f, C.data(), 2, C.data(), 2, 0.f, C.data(), 2);
  EXPECT_TRUE(static_cast<bool>(Err));

  exo::Expected<PlanChoice> Choice =
      E.planFor(Trans::None, Trans::None, 4, 4, 4);
  ASSERT_FALSE(static_cast<bool>(Choice));
  EXPECT_TRUE(static_cast<bool>(Choice.takeError()));

  exo::Error WarmErr = E.warm(Trans::None, Trans::None, 4, 4, 4);
  EXPECT_TRUE(static_cast<bool>(WarmErr));
}

TEST(EngineConfigTest, StickyErrorEntriesStayBounded) {
  // Unbuildable shapes leave sticky error entries; those must count as
  // eviction victims, or probing many bad shapes pins the cache over cap
  // and disables eviction of real plans.
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom; // no provider: every build fails
  Cfg.PlanCacheCap = 2;
  Engine E(Cfg);
  for (int64_t S = 1; S <= 10; ++S) {
    exo::Expected<PlanChoice> Choice =
        E.planFor(Trans::None, Trans::None, S, S, S);
    ASSERT_FALSE(static_cast<bool>(Choice));
    (void)Choice.takeError();
  }
  EXPECT_GE(E.stats().Evictions, 8u); // 10 error entries, cap 2
}

TEST(EngineConfigTest, CustomProviderServes) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Custom;
  Cfg.Provider =
      std::make_shared<FixedProvider>(blisKernelPrefetch(), "custom-pf");
  Engine E(Cfg);
  FixedProvider P(blisKernelPrefetch(), "custom-pf");
  GemmPlan Plan = GemmPlan::standard(P);
  for (auto [TA, TB] : Combos)
    expectBitwiseEqual(E, Plan, P, TA, TB, 33, 29, 31);
}

namespace {

/// Random operand storage for \p Ty: [-1, 1) rounded to storage for the
/// float types, the full byte range for i8.
std::vector<unsigned char> randomStorage(DType Ty, int64_t Elems,
                                         unsigned Seed) {
  std::vector<unsigned char> V(Elems * dtypeInBytes(Ty));
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<float> D(-1.0f, 1.0f);
  for (int64_t X = 0; X != Elems; ++X) {
    const float F = D(Rng);
    if (Ty == DType::I8I32)
      reinterpret_cast<int8_t *>(V.data())[X] =
          static_cast<int8_t>(static_cast<int>(Rng() % 256) - 128);
    else if (Ty == DType::F32)
      reinterpret_cast<float *>(V.data())[X] = F;
    else
      reinterpret_cast<uint16_t *>(V.data())[X] =
          Ty == DType::F16 ? f32ToF16(F) : f32ToBf16(F);
  }
  return V;
}

/// C storage for \p Ty: random values, or, for beta == 0 (which must
/// overwrite C), NaN everywhere; i8's i32 C has no NaN, so a garbage word.
std::vector<unsigned char> seedC(DType Ty, int64_t Elems, bool Garbage,
                                 unsigned Seed) {
  if (Ty != DType::I8I32 && !Garbage)
    return randomStorage(Ty, Elems, Seed);
  std::vector<unsigned char> V(Elems * dtypeOutBytes(Ty));
  std::mt19937 Rng(Seed);
  for (int64_t X = 0; X != Elems; ++X) {
    if (Ty == DType::I8I32)
      reinterpret_cast<int32_t *>(V.data())[X] =
          Garbage ? 0x7fc0dead : static_cast<int32_t>(Rng() % 2001) - 1000;
    else if (Ty == DType::F32)
      reinterpret_cast<float *>(V.data())[X] =
          std::numeric_limits<float>::quiet_NaN();
    else
      reinterpret_cast<uint16_t *>(V.data())[X] = 0x7fff; // NaN in both
  }
  return V;
}

bool hasNaN(DType Ty, const std::vector<unsigned char> &C) {
  const int64_t Elems = C.size() / dtypeOutBytes(Ty);
  for (int64_t X = 0; X != Elems; ++X) {
    float F = 0;
    if (Ty == DType::F32)
      F = reinterpret_cast<const float *>(C.data())[X];
    else if (Ty != DType::I8I32) {
      const uint16_t H = reinterpret_cast<const uint16_t *>(C.data())[X];
      F = Ty == DType::F16 ? f16ToF32(H) : bf16ToF32(H);
    }
    if (std::isnan(F))
      return true;
  }
  return false;
}

} // namespace

// One ic block: each team member packs the B panels of its own strips and
// the team never meets at a barrier, so members drift across Kc blocks.
// Every width must still match width 1 bitwise, for every dtype, transpose
// pair and beta. K = 200 over Kc = 64 is three full depth blocks and a
// short last one (a panel slot sized by the block's own depth would let a
// member in the short block overwrite a teammate's panel); N leaves an
// edge strip, and the second shape also crosses nc blocks. Repeated,
// because a race shows only when members drift.
TEST(EngineInvariance, OneIcBlockTeamsMatchWidthOneBitwise) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";
  struct Case {
    int64_t M, N, K;
    BlockSizes Blocks;
  };
  const Case Cases[] = {{37, 67, 200, {256, 64, 4096}},
                        {64, 100, 200, {256, 64, 48}}};
  constexpr int Reps = 20;
  for (const Case &Cs : Cases) {
    std::vector<std::unique_ptr<Engine>> Engines;
    for (int64_t Width = 1; Width <= 4; ++Width) {
      EngineConfig Cfg;
      Cfg.Series = EngineSeries::Blis;
      Cfg.Threads = Width;
      Cfg.Blocks = Cs.Blocks;
      Engines.push_back(std::make_unique<Engine>(Cfg));
    }
    for (DType Ty : {DType::F32, DType::F16, DType::BF16, DType::I8I32}) {
      const bool Int = Ty == DType::I8I32;
      const double Alpha = Int ? 2.0 : 1.25;
      for (auto [TA, TB] : Combos)
        for (double Beta : {0.0, 1.0, Int ? -3.0 : 0.7}) {
          const int64_t Lda = TA == Trans::None ? Cs.M : Cs.K;
          const int64_t Ldb = TB == Trans::None ? Cs.K : Cs.N;
          const auto A = randomStorage(Ty, Cs.M * Cs.K, 17);
          const auto B = randomStorage(Ty, Cs.K * Cs.N, 19);
          const auto C0 = seedC(Ty, Cs.M * Cs.N, Beta == 0.0, 23);
          const std::string What =
              std::string(dtypeName(Ty)) + " " + std::to_string(Cs.M) + "x" +
              std::to_string(Cs.N) + "x" + std::to_string(Cs.K) +
              " TA=" + std::to_string(TA == Trans::Transpose) +
              " TB=" + std::to_string(TB == Trans::Transpose) +
              " beta=" + std::to_string(Beta);
          auto Run = [&](Engine &E) {
            std::vector<unsigned char> C = C0;
            exo::Error Err = E.gemm(Ty, TA, TB, Cs.M, Cs.N, Cs.K, Alpha,
                                    A.data(), Lda, B.data(), Ldb, Beta,
                                    C.data(), Cs.M);
            EXPECT_FALSE(bool(Err)) << Err.message();
            return C;
          };
          const std::vector<unsigned char> Want = Run(*Engines[0]);
          ASSERT_FALSE(hasNaN(Ty, Want)) << What;
          for (int Rep = 0; Rep < Reps; ++Rep)
            for (int64_t Width = 2; Width <= 4; ++Width)
              ASSERT_TRUE(Run(*Engines[Width - 1]) == Want)
                  << What << " width=" << Width << " rep=" << Rep;
        }
    }
  }
}
