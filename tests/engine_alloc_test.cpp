//===- engine_alloc_test.cpp - Zero-allocation steady state ---------------===//
//
// Proves the Engine front door's "zero heap allocations per call once
// warm" guarantee (Engine.h): global operator new/delete are replaced with
// counting versions, the Engine is warmed on the workload's shapes, and
// then a batch of hot calls — cache hits, both transpose forms, plus a
// degenerate quick return — must leave the allocation counter untouched.
//
// Deliberately not a gtest: the framework allocates on every assertion, so
// the counted window must stay free of any harness code. Exit 0 on pass,
// 1 with a report on stderr otherwise.
//
// The Blis series keeps the JIT out of the picture; Threads=2 routes the
// hot calls through the ThreadPool's raw-callback dispatch, covering the
// claim that team fan-out does not box closures per call. A second window
// drives Engine::gemm in f16, bf16 and i8 on that engine and on a governed
// one (EngineConfig::Governor = 1), whose larger shape is granted a
// reserved team: every dtype, fixed or governed, must stay allocation-free.
//
//===----------------------------------------------------------------------===//

#include "gemm/Engine.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

namespace {
std::atomic<long long> LiveNews{0};
std::atomic<bool> Counting{false};
} // namespace

void *operator new(size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    LiveNews.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size) { return ::operator new(Size); }

// The Engine's pack panels come from the aligned overloads; count those
// too, or a panel regrown on the hot path would go unseen.
void *operator new(size_t Size, std::align_val_t Align) {
  if (Counting.load(std::memory_order_relaxed))
    LiveNews.fetch_add(1, std::memory_order_relaxed);
  const size_t A = static_cast<size_t>(Align);
  if (void *P = std::aligned_alloc(A, Size ? (Size + A - 1) / A * A : A))
    return P;
  throw std::bad_alloc();
}

void *operator new[](size_t Size, std::align_val_t Align) {
  return ::operator new(Size, Align);
}

void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, size_t) noexcept { std::free(P); }
void operator delete[](void *P, size_t) noexcept { std::free(P); }
void operator delete(void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete[](void *P, std::align_val_t) noexcept { std::free(P); }
void operator delete(void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}
void operator delete[](void *P, size_t, std::align_val_t) noexcept {
  std::free(P);
}

namespace {

struct Shape {
  int64_t M, N, K;
};

/// One round of typed hot calls on \p E: Engine::gemm in every non-f32
/// dtype plus f32 through sgemm, both transpose forms, over \p Shapes.
/// Operand buffers are raw storage large enough for every shape in every
/// dtype. Returns the number of failed calls.
int typedRound(gemm::Engine &E, const Shape *Shapes, size_t NShapes,
               const unsigned char *A, const unsigned char *B,
               unsigned char *C) {
  using namespace gemm;
  int Failures = 0;
  for (size_t I = 0; I != NShapes; ++I) {
    const Shape &S = Shapes[I];
    for (DType Ty : {DType::F16, DType::BF16, DType::I8I32}) {
      // Integer scales are legal for every dtype (i8 requires them).
      if (E.gemm(Ty, Trans::None, Trans::None, S.M, S.N, S.K, 1.0, A, S.M,
                 B, S.K, 2.0, C, S.M))
        ++Failures;
      if (E.gemm(Ty, Trans::Transpose, Trans::None, S.M, S.N, S.K, 1.0, A,
                 S.K, B, S.K, 0.0, C, S.M))
        ++Failures;
    }
    if (E.sgemm(S.M, S.N, S.K, 1.0f, reinterpret_cast<const float *>(A), S.M,
                reinterpret_cast<const float *>(B), S.K, 0.5f,
                reinterpret_cast<float *>(C), S.M))
      ++Failures;
  }
  // Typed degenerate quick return.
  if (E.gemm(DType::F16, Trans::None, Trans::None, 8, 8, 0, 1.0, nullptr, 8,
             nullptr, 1, 0.0, C, 8))
    ++Failures;
  return Failures;
}

/// Warms \p E on typedRound's calls, then requires a hot window of rounds
/// to perform zero heap allocations. Exit-code convention as run().
int checkTypedWindow(gemm::Engine &E, const char *Which) {
  using namespace gemm;
  // Shapes as in the f32 window, plus one large enough (2*128^3 flops,
  // twice the governor's default work floor) that a governed engine grants
  // it a reserved team.
  const Shape Shapes[] = {{64, 48, 32}, {33, 29, 31}, {128, 128, 128}};
  const size_t NShapes = sizeof(Shapes) / sizeof(Shapes[0]);
  std::vector<unsigned char> A(128 * 128 * 4), B(128 * 128 * 4),
      C(128 * 128 * 4);
  // Small values in every storage interpretation (f32/f16/bf16 bit
  // patterns stay finite, i8 bytes stay small).
  for (size_t I = 0; I != A.size(); ++I) {
    A[I] = static_cast<unsigned char>(I % 13);
    B[I] = static_cast<unsigned char>(I % 7);
  }

  for (int Round = 0; Round != 2; ++Round)
    if (int F = typedRound(E, Shapes, NShapes, A.data(), B.data(),
                           C.data())) {
      std::fprintf(stderr, "engine_alloc_test: %s typed warm-up: %d failed "
                           "calls\n",
                   Which, F);
      return 1;
    }
  EngineStats Warm = E.stats();

  LiveNews.store(0, std::memory_order_relaxed);
  Counting.store(true, std::memory_order_relaxed);
  int Failures = 0;
  for (int Rep = 0; Rep != 5; ++Rep)
    Failures += typedRound(E, Shapes, NShapes, A.data(), B.data(), C.data());
  Counting.store(false, std::memory_order_relaxed);
  long long Allocs = LiveNews.load(std::memory_order_relaxed);

  EngineStats Hot = E.stats();
  if (Failures != 0) {
    std::fprintf(stderr, "engine_alloc_test: %s: %d typed hot calls failed\n",
                 Which, Failures);
    return 1;
  }
  if (Hot.Misses != Warm.Misses || Hot.Builds != Warm.Builds) {
    std::fprintf(stderr,
                 "engine_alloc_test: %s typed window was not actually hot "
                 "(builds %llu -> %llu, misses %llu -> %llu)\n",
                 Which, static_cast<unsigned long long>(Warm.Builds),
                 static_cast<unsigned long long>(Hot.Builds),
                 static_cast<unsigned long long>(Warm.Misses),
                 static_cast<unsigned long long>(Hot.Misses));
    return 1;
  }
  if (Allocs != 0) {
    std::fprintf(stderr,
                 "engine_alloc_test: %s: %lld heap allocations in the typed "
                 "hot window (expected 0)\n",
                 Which, Allocs);
    return 1;
  }
  std::printf("engine_alloc_test: PASS (%s: 0 allocations across %d typed "
              "hot calls, %llu governed grants)\n",
              Which, 5 * static_cast<int>(NShapes * 7 + 1),
              static_cast<unsigned long long>(Hot.GovGrants -
                                              Warm.GovGrants));
  return 0;
}

int run() {
  using namespace gemm;

  // Edge-heavy and tile-aligned shapes, matching the differential sweep's
  // flavor but small enough to keep this binary fast.
  const Shape Shapes[] = {{64, 48, 32}, {33, 29, 31}, {17, 50, 23}};

  EngineConfig Cfg;
  Cfg.Series = EngineSeries::Blis;
  Cfg.Threads = 2;
  Engine E(Cfg);

  std::vector<float> A(64 * 50), B(50 * 50), C(64 * 50);
  for (size_t I = 0; I != A.size(); ++I)
    A[I] = static_cast<float>(I % 13) * 0.25f;
  for (size_t I = 0; I != B.size(); ++I)
    B[I] = static_cast<float>(I % 7) * 0.5f;

  // Warm-up: builds every plan, populates the workspace pool, spins up the
  // thread pool, and lets lazy library/runtime init happen outside the
  // counted window. Two rounds so pooled workspaces are recycled at least
  // once before counting starts.
  for (int Round = 0; Round != 2; ++Round)
    for (const Shape &S : Shapes) {
      if (exo::Error Err = E.sgemm(S.M, S.N, S.K, 1.0f, A.data(), S.M,
                                   B.data(), S.K, 0.5f, C.data(), S.M)) {
        std::fprintf(stderr, "engine_alloc_test: warm-up failed: %s\n",
                     Err.message().c_str());
        return 1;
      }
      if (exo::Error Err =
              E.sgemm(Trans::Transpose, Trans::None, S.M, S.N, S.K, 1.0f,
                      A.data(), S.K, B.data(), S.K, 0.5f, C.data(), S.M)) {
        std::fprintf(stderr, "engine_alloc_test: warm-up (T) failed: %s\n",
                     Err.message().c_str());
        return 1;
      }
    }

  EngineStats Warm = E.stats();

  LiveNews.store(0, std::memory_order_relaxed);
  Counting.store(true, std::memory_order_relaxed);
  int Failures = 0;
  for (int Rep = 0; Rep != 10; ++Rep) {
    for (const Shape &S : Shapes) {
      if (E.sgemm(S.M, S.N, S.K, 1.0f, A.data(), S.M, B.data(), S.K, 0.5f,
                  C.data(), S.M))
        ++Failures;
      if (E.sgemm(Trans::Transpose, Trans::None, S.M, S.N, S.K, 1.0f,
                  A.data(), S.K, B.data(), S.K, 0.5f, C.data(), S.M))
        ++Failures;
    }
    // Degenerate quick return: must also be allocation-free.
    if (E.sgemm(0, 8, 8, 1.0f, nullptr, 1, nullptr, 1, 0.0f, C.data(), 64))
      ++Failures;
  }
  Counting.store(false, std::memory_order_relaxed);
  long long Allocs = LiveNews.load(std::memory_order_relaxed);

  EngineStats Hot = E.stats();
  if (Failures != 0) {
    std::fprintf(stderr, "engine_alloc_test: %d hot calls failed\n",
                 Failures);
    return 1;
  }
  if (Hot.Misses != Warm.Misses || Hot.Builds != Warm.Builds) {
    std::fprintf(stderr,
                 "engine_alloc_test: hot window was not actually hot "
                 "(builds %llu -> %llu, misses %llu -> %llu)\n",
                 static_cast<unsigned long long>(Warm.Builds),
                 static_cast<unsigned long long>(Hot.Builds),
                 static_cast<unsigned long long>(Warm.Misses),
                 static_cast<unsigned long long>(Hot.Misses));
    return 1;
  }
  if (Allocs != 0) {
    std::fprintf(stderr,
                 "engine_alloc_test: %lld heap allocations in the hot "
                 "window (expected 0)\n",
                 Allocs);
    return 1;
  }
  std::printf("engine_alloc_test: PASS (0 allocations across %d hot calls, "
              "%llu cached plans)\n",
              10 * (2 * 3 + 1), static_cast<unsigned long long>(E.planCount()));

  EngineConfig GovCfg = Cfg;
  GovCfg.Governor = 1;
  Engine EGov(GovCfg);
  return checkTypedWindow(E, "fixed") || checkTypedWindow(EGov, "governed");
}

} // namespace

int main() { return run(); }
