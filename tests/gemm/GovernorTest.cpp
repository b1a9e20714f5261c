//===- GovernorTest.cpp - Governor budget, clamps and bitwise grants ------===//
//
// The governor's contract (Governor.h, docs/CONCURRENCY.md) in three
// testable pieces:
//
//   - the process-wide budget invariant — across racing acquirers the sum
//     of (granted width - 1) never exceeds ceiling - 1, and every unit is
//     returned when the grants die,
//   - the shape clamp — work under EXO_GEMM_GOVERNOR_MIN_WORK per extra
//     thread is granted width 1 (the sequential driver) no matter how idle
//     the pool is,
//   - the output contract — governed Engines racing from eight plain
//     threads produce results bitwise identical to the fixed 1-thread
//     plan, because a grant changes scheduling, never arithmetic.
//
// Rides in gemm_test, so the tsan_gemm_threads8 gate re-runs the racing
// cases under ThreadSanitizer.
//
//===----------------------------------------------------------------------===//

#include "gemm/Governor.h"

#include "benchutil/Bench.h"
#include "gemm/Engine.h"
#include "gemm/Kernels.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace gemm;

namespace {

/// Records the running and high-water sum of extra threads held by live
/// grants, so the budget invariant is checked at its tightest moment.
struct ExtraLedger {
  std::atomic<int64_t> Held{0};
  std::atomic<int64_t> Peak{0};

  void add(int64_t Extra) {
    int64_t Now = Held.fetch_add(Extra, std::memory_order_relaxed) + Extra;
    int64_t Seen = Peak.load(std::memory_order_relaxed);
    while (Now > Seen &&
           !Peak.compare_exchange_weak(Seen, Now, std::memory_order_relaxed))
      ;
  }
  void sub(int64_t Extra) {
    Held.fetch_sub(Extra, std::memory_order_relaxed);
  }
};

} // namespace

TEST(Governor, BudgetInvariantUnderRacingAcquirers) {
  const int64_t Ceiling = 4;
  Governor Gov(Ceiling, /*MinWorkFlops=*/0);

  ExtraLedger Ledger;
  std::atomic<bool> Bad{false};
  const int NThreads = 8, Iters = 200;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NThreads; ++T)
    Threads.emplace_back([&] {
      for (int I = 0; I != Iters; ++I) {
        Governor::Grant G;
        Gov.acquire(512, 512, 512, /*PlanWidth=*/Ceiling, G);
        if (G.width() < 1 || G.width() > Ceiling)
          Bad.store(true, std::memory_order_relaxed);
        Ledger.add(G.width() - 1);
        if (Gov.outstandingExtra() > Ceiling - 1)
          Bad.store(true, std::memory_order_relaxed);
        Ledger.sub(G.width() - 1);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_FALSE(Bad.load());
  EXPECT_LE(Ledger.Peak.load(), Ceiling - 1);
  EXPECT_EQ(Gov.outstandingExtra(), 0) << "grants leaked budget";
  GovernorStats S = Gov.stats();
  EXPECT_EQ(S.Grants, static_cast<uint64_t>(NThreads) * Iters);
  EXPECT_GE(S.WidthSum, S.Grants); // every grant is at least width 1
}

TEST(Governor, SmallShapeClampsToSequential) {
  Governor Gov(/*Ceiling=*/8, /*MinWorkFlops=*/int64_t(1) << 21);

  // 2*32^3 = 64K flops — far under the 2M-flop floor for even one extra
  // thread. Width 1 means no reservation at all: the sequential driver.
  {
    Governor::Grant G;
    Gov.acquire(32, 32, 32, /*PlanWidth=*/8, G);
    EXPECT_EQ(G.width(), 1);
    EXPECT_TRUE(G.shapeClamped());
    EXPECT_EQ(G.reservation().Count, 0);
    EXPECT_EQ(Gov.outstandingExtra(), 0);
  }

  // 2*512^3 = 268M flops clears the floor for the full plan width on an
  // idle pool.
  {
    Governor::Grant G;
    Gov.acquire(512, 512, 512, /*PlanWidth=*/4, G);
    EXPECT_EQ(G.width(), 4);
    EXPECT_FALSE(G.shapeClamped());
    EXPECT_EQ(G.reservation().Count, 3);
    EXPECT_EQ(Gov.outstandingExtra(), 3);
  }
  EXPECT_EQ(Gov.outstandingExtra(), 0);

  // The work floor scales per extra thread: ~2.5x the floor affords a
  // width-2 team but not more, whatever the plan width.
  {
    Governor::Grant G;
    Gov.acquireFlops(2.5 * (int64_t(1) << 21), /*PlanWidth=*/8, G);
    EXPECT_LE(G.width(), 2);
    EXPECT_TRUE(G.shapeClamped());
  }
}

TEST(Governor, WidthForWorkIsTheShapeModelAlone) {
  Governor Gov(/*Ceiling=*/8, /*MinWorkFlops=*/int64_t(1) << 21);
  const double Floor = double(int64_t(1) << 21);
  EXPECT_EQ(Gov.widthForWork(2.0 * 32 * 32 * 32, /*PlanWidth=*/8), 1);
  EXPECT_EQ(Gov.widthForWork(2.5 * Floor, /*PlanWidth=*/8), 2);
  EXPECT_EQ(Gov.widthForWork(2.0 * 512 * 512 * 512, /*PlanWidth=*/4), 4);
  EXPECT_EQ(Gov.widthForWork(2.0 * 512 * 512 * 512, /*PlanWidth=*/16), 8);
  // A question, not a grant: nothing reserved, nothing counted.
  EXPECT_EQ(Gov.outstandingExtra(), 0);
  EXPECT_EQ(Gov.stats().Grants, 0u);
}

TEST(Governor, EngineTeamWidthFollowsItsDispatchMode) {
  const double Small = 2.0 * 16 * 16 * 16, Big = 2.0 * 1024 * 1024 * 1024;
  EngineConfig Fixed;
  Fixed.Threads = 3;
  Fixed.Governor = 0;
  EXPECT_EQ(Engine(Fixed).teamWidthFor(Small), 3);
  EngineConfig Governed;
  Governed.Governor = 1;
  Engine E(Governed);
  EXPECT_EQ(E.teamWidthFor(Small), 1);
  const Governor &G = Governor::global();
  EXPECT_EQ(E.teamWidthFor(Big), G.widthForWork(Big, G.ceiling()));
}

namespace {

struct RacingCallerCtx {
  Engine *E;
  const float *A, *B;
  int64_t M, N, K;
  std::vector<float> *Cs;
  std::atomic<int> Failures{0};
};

} // namespace

TEST(Governor, RacingGovernedCallersMatchFixedPlanBitwise) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";

  const int64_t M = 96, N = 80, K = 112;
  std::vector<float> A(M * K), B(K * N);
  benchutil::fillRandom(A.data(), A.size(), 41);
  benchutil::fillRandom(B.data(), B.size(), 42);

  EngineConfig Fixed;
  Fixed.Series = EngineSeries::Blis;
  Fixed.Threads = 1;
  Fixed.Governor = 0;
  Engine ERef(Fixed);
  std::vector<float> CRef(M * N, 0.0f);
  ASSERT_FALSE(ERef.sgemm(M, N, K, 1.0f, A.data(), M, B.data(), K, 0.0f,
                          CRef.data(), M));

  // Governed engine planning at a 4-wide team: every racing caller gets
  // whatever width the governor grants at that instant (1..4 depending on
  // the interleaving) and all must match the sequential result bitwise.
  EngineConfig Gov;
  Gov.Series = EngineSeries::Blis;
  Gov.Threads = 4;
  Gov.Governor = 1;
  Engine EGov(Gov);

  const int Callers = 8, Rounds = 16;
  std::vector<std::vector<float>> Cs(Callers,
                                     std::vector<float>(M * N, 0.0f));
  RacingCallerCtx Ctx;
  Ctx.E = &EGov;
  Ctx.A = A.data();
  Ctx.B = B.data();
  Ctx.M = M;
  Ctx.N = N;
  Ctx.K = K;
  Ctx.Cs = Cs.data();

  std::vector<std::thread> Threads;
  for (int T = 0; T != Callers; ++T)
    Threads.emplace_back([&Ctx, T] {
      float *C = (Ctx.Cs + T)->data();
      for (int R = 0; R != Rounds; ++R)
        if (Ctx.E->sgemm(Ctx.M, Ctx.N, Ctx.K, 1.0f, Ctx.A, Ctx.M, Ctx.B,
                         Ctx.K, 0.0f, C, Ctx.M))
          Ctx.Failures.fetch_add(1, std::memory_order_relaxed);
    });
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_EQ(Ctx.Failures.load(), 0);
  for (int T = 0; T != Callers; ++T)
    EXPECT_EQ(0, std::memcmp(Cs[T].data(), CRef.data(),
                             CRef.size() * sizeof(float)))
        << "governed caller " << T << " differs from the 1-thread result";

  EngineStats S = EGov.stats();
  EXPECT_GE(S.GovGrants, static_cast<uint64_t>(Callers) * Rounds);
  EXPECT_GE(S.GovWidthSum, S.GovGrants);
}

namespace {

/// Storage for \p Elems elements of \p Ty's input type, filled from the
/// shared benchmark RNG: values in the float types' comfortable range, the
/// full signed byte range for i8.
std::vector<unsigned char> typedOperand(DType Ty, size_t Elems,
                                        unsigned Seed) {
  std::vector<float> F(Elems);
  benchutil::fillRandom(F.data(), F.size(), Seed);
  std::vector<unsigned char> Out(Elems * dtypeInBytes(Ty));
  for (size_t I = 0; I != Elems; ++I) {
    if (Ty == DType::I8I32) {
      Out[I] = static_cast<unsigned char>(static_cast<int8_t>(F[I] * 127.0f));
      continue;
    }
    const uint16_t H = Ty == DType::F16 ? f32ToF16(F[I]) : f32ToBf16(F[I]);
    std::memcpy(&Out[I * sizeof(H)], &H, sizeof(H));
  }
  return Out;
}

} // namespace

TEST(Governor, TypedCallsAreGovernedAndMatchFixedPlanBitwise) {
  if (!baselineKernelsUsable())
    GTEST_SKIP() << "host lacks AVX2+FMA";

  // 2*160*128*192 ~ 7.9 Mflop: above the default work floor for more than
  // one team member, so a grant can actually widen the team.
  const int64_t M = 160, N = 128, K = 192;

  EngineConfig Fixed;
  Fixed.Series = EngineSeries::Blis;
  Fixed.Threads = 1;
  Fixed.Governor = 0;
  Engine ERef(Fixed);

  EngineConfig Gov;
  Gov.Series = EngineSeries::Blis;
  Gov.Threads = 4;
  Gov.Governor = 1;
  Engine EGov(Gov);

  for (DType Ty : {DType::F16, DType::BF16, DType::I8I32}) {
    SCOPED_TRACE(dtypeName(Ty));
    const std::vector<unsigned char> A = typedOperand(Ty, M * K, 51);
    const std::vector<unsigned char> B = typedOperand(Ty, K * N, 52);
    // A non-trivial beta over a seeded C covers the pre-scale too.
    std::vector<unsigned char> CRef(M * N * dtypeOutBytes(Ty));
    std::vector<float> C0(M * N);
    benchutil::fillRandom(C0.data(), C0.size(), 53);
    for (size_t I = 0; I != C0.size(); ++I) {
      if (Ty == DType::I8I32) {
        const int32_t V = static_cast<int32_t>(C0[I] * 1000.0f);
        std::memcpy(&CRef[I * sizeof(V)], &V, sizeof(V));
      } else {
        const uint16_t H =
            Ty == DType::F16 ? f32ToF16(C0[I]) : f32ToBf16(C0[I]);
        std::memcpy(&CRef[I * sizeof(H)], &H, sizeof(H));
      }
    }
    std::vector<unsigned char> CGov = CRef;
    const double Alpha = Ty == DType::I8I32 ? 3.0 : 0.75;
    const double Beta = Ty == DType::I8I32 ? -2.0 : 0.5;

    ASSERT_FALSE(ERef.gemm(Ty, Trans::None, Trans::None, M, N, K, Alpha,
                           A.data(), M, B.data(), K, Beta, CRef.data(), M));
    const uint64_t GrantsBefore = EGov.stats().GovGrants;
    ASSERT_FALSE(EGov.gemm(Ty, Trans::None, Trans::None, M, N, K, Alpha,
                           A.data(), M, B.data(), K, Beta, CGov.data(), M));
    EXPECT_EQ(EGov.stats().GovGrants, GrantsBefore + 1)
        << "a governed typed call must take exactly one grant";
    EXPECT_EQ(0, std::memcmp(CGov.data(), CRef.data(), CRef.size()))
        << "governed typed result differs from the 1-thread result";
  }
}
