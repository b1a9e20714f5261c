//===- KernelCacheTest.cpp - The process-wide kernel cache ----------------===//

#include "ukr/KernelRegistry.h"

#include "JitCacheTestEnv.h"
#include "benchutil/Bench.h"
#include "exo/jit/DiskCache.h"
#include "exo/jit/Jit.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

using namespace exo;
using namespace ukr;

namespace {

/// Points the global disk cache at a fresh private root for one test (on
/// top of the binary-wide ephemeral EXO_JIT_CACHE_DIR the shared
/// environment installs).
void usePrivateDiskCache() {
  JitDiskCache::setGlobalRoot(exotest::makeTempDir("exo-kctest"));
}

/// JIT requests of every kind (compiles, disk hits, in-process memo hits):
/// each kernel build reaches the JIT exactly once.
uint64_t jitRequests(const JitStats &S) {
  return S.Compiles + S.DiskHits + S.MemHits;
}

UkrConfig configFor(int64_t MR, int64_t NR) {
  UkrConfig Cfg;
  Cfg.MR = MR;
  Cfg.NR = NR;
  Cfg.Isa = bestIsaForMr(MR);
  if (!Cfg.Isa)
    Cfg.Style = FmaStyle::Scalar;
  return Cfg;
}

/// Runs \p Fn on random packed panels and checks it against the triple
/// loop (same harness as EdgeFamilyTest).
void checkNumerics(MicroKernelF32 Fn, int64_t MR, int64_t NR) {
  const int64_t KC = 13, Ldc = MR + 1;
  std::vector<float> Ac(KC * MR), Bc(KC * NR);
  std::vector<float> C((NR - 1) * Ldc + MR, 1.0f), Want;
  benchutil::fillRandom(Ac.data(), Ac.size(), 31);
  benchutil::fillRandom(Bc.data(), Bc.size(), 32);
  Want = C;
  for (int64_t J = 0; J < NR; ++J)
    for (int64_t I = 0; I < MR; ++I)
      for (int64_t P = 0; P < KC; ++P)
        Want[J * Ldc + I] += Ac[P * MR + I] * Bc[P * NR + J];
  Fn(KC, Ldc, Ac.data(), Bc.data(), C.data());
  for (size_t I = 0; I != C.size(); ++I)
    ASSERT_NEAR(C[I], Want[I], 1e-4f) << MR << "x" << NR << " @" << I;
}

} // namespace

TEST(StandardShapeFamilyTest, TilePlusEdgesNoDuplicates) {
  std::vector<UkrConfig> Family = standardShapeFamily(8, 12);
  ASSERT_GE(Family.size(), 5u);
  std::set<std::string> Names;
  bool HasFullTile = false;
  for (const UkrConfig &Cfg : Family) {
    EXPECT_TRUE(Names.insert(Cfg.kernelName()).second) << Cfg.kernelName();
    EXPECT_GE(Cfg.MR, 1);
    EXPECT_LE(Cfg.MR, 8);
    EXPECT_GE(Cfg.NR, 1);
    EXPECT_LE(Cfg.NR, 12);
    HasFullTile |= Cfg.MR == 8 && Cfg.NR == 12;
  }
  EXPECT_TRUE(HasFullTile);
}

TEST(KernelCacheTest, EightThreadHammerBuildsOncePerConfig) {
  if (!jitAvailable())
    GTEST_SKIP();
  usePrivateDiskCache();
  jitClearMemoryCache();
  KernelCache Cache(4);

  const std::vector<UkrConfig> Family = standardShapeFamily(8, 12);
  const size_t N = Family.size();
  constexpr int NumThreads = 8;
  // [thread][config] -> resolved function pointer, preallocated so worker
  // threads never touch shared containers (TSan-clean by construction).
  std::vector<std::vector<MicroKernelF32>> Got(
      NumThreads, std::vector<MicroKernelF32>(N, nullptr));
  std::vector<int> Errors(NumThreads, 0);

  const JitStats J0 = jitStats();
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      // Every thread starts at a different config and alternates the order
      // of prefetch and get, so caller-thread builds, queued prefetches
      // and worker builds of one config all meet.
      if (T == 0)
        Cache.prefetchBatch(Family);
      for (size_t Step = 0; Step < N; ++Step) {
        const size_t I = (Step + static_cast<size_t>(T)) % N;
        const bool PrefetchFirst = (Step + static_cast<size_t>(T)) % 2 == 0;
        if (PrefetchFirst)
          Cache.prefetch(Family[I]);
        auto K = Cache.get(Family[I]);
        if (!PrefetchFirst)
          Cache.prefetch(Family[I]);
        if (!K || !(*K)->Fn) {
          ++Errors[T];
          continue;
        }
        Got[T][I] = (*K)->Fn;
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Cache.wait();

  for (int T = 0; T < NumThreads; ++T) {
    EXPECT_EQ(Errors[T], 0) << "thread " << T;
    for (size_t I = 0; I < N; ++I) {
      // Every thread got the same function pointer...
      EXPECT_NE(Got[T][I], nullptr);
      EXPECT_EQ(Got[T][I], Got[0][I])
          << "thread " << T << " config " << Family[I].kernelName();
    }
  }
  // ...and each config was built once: one JIT request per config, from a
  // cold in-process map over an empty directory.
  const JitStats J1 = jitStats();
  EXPECT_EQ(jitRequests(J1) - jitRequests(J0), N);
  EXPECT_EQ(J1.Compiles - J0.Compiles, N);
  EXPECT_EQ(Cache.size(), N);
  CacheStats St = Cache.stats();
  EXPECT_LE(St.Builds, N);
  EXPECT_EQ(St.Hits + St.Misses, NumThreads * N);
  EXPECT_EQ(St.Fallbacks, 0u);
  EXPECT_EQ(St.Failures, 0u);
  EXPECT_EQ(St.InFlight, 0u);
}

TEST(KernelCacheTest, SecondCacheOverWarmDirSkipsTheCompiler) {
  if (!jitAvailable())
    GTEST_SKIP();
  usePrivateDiskCache();
  UkrConfig Cfg = configFor(6, 5);

  // First cache over a cold directory: must invoke the compiler.
  jitClearMemoryCache();
  {
    KernelCache C1(2);
    auto K1 = C1.get(Cfg);
    ASSERT_TRUE(static_cast<bool>(K1)) << K1.message();
    CacheStats St1 = C1.stats();
    EXPECT_EQ(St1.Compiles, 1u);
    EXPECT_EQ(St1.DiskHits, 0u);
  }

  // Fresh cache, same directory, empty in-process map: the kernel must
  // come back from disk with zero compiler invocations.
  jitClearMemoryCache();
  KernelCache C2(2);
  auto K2 = C2.get(Cfg);
  ASSERT_TRUE(static_cast<bool>(K2)) << K2.message();
  checkNumerics((*K2)->Fn, 6, 5);
  CacheStats St2 = C2.stats();
  EXPECT_EQ(St2.Compiles, 0u);
  EXPECT_EQ(St2.DiskHits, 1u);
  EXPECT_EQ(St2.Misses, 1u);
  EXPECT_EQ(C2.size(), 1u);
}

TEST(KernelCacheTest, CorruptedDiskEntryRecompilesCleanly) {
  if (!jitAvailable())
    GTEST_SKIP();
  usePrivateDiskCache();
  UkrConfig Cfg = configFor(7, 3);

  jitClearMemoryCache();
  {
    KernelCache C1(1);
    auto K1 = C1.get(Cfg);
    ASSERT_TRUE(static_cast<bool>(K1)) << K1.message();
  }

  // Replace every published artifact with garbage (a new inode, like a
  // torn write from another process — the kernel built above stays mapped
  // in this process, so truncating in place would be undefined).
  std::vector<JitDiskCache::Entry> Entries = JitDiskCache::global().list();
  ASSERT_FALSE(Entries.empty());
  for (const JitDiskCache::Entry &E : Entries) {
    std::string Tmp = E.SoPath + ".corrupt";
    std::ofstream(Tmp) << "not an object";
    ASSERT_EQ(::rename(Tmp.c_str(), E.SoPath.c_str()), 0) << E.SoPath;
  }

  // A fresh cache must notice the corruption, recompile, and still hand
  // out a working kernel — no crash, no error.
  jitClearMemoryCache();
  KernelCache C2(1);
  auto K2 = C2.get(Cfg);
  ASSERT_TRUE(static_cast<bool>(K2)) << K2.message();
  checkNumerics((*K2)->Fn, 7, 3);
  EXPECT_GE(C2.stats().Compiles, 1u);
}

TEST(KernelCacheTest, WarmResolvesTheWholeFamily) {
  if (!jitAvailable())
    GTEST_SKIP();
  usePrivateDiskCache();
  KernelCache Cache(4);

  std::vector<UkrConfig> Family = standardShapeFamily(8, 12);
  exo::Error Err = Cache.warm(Family);
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.message();
  EXPECT_EQ(Cache.size(), Family.size());
  CacheStats St = Cache.stats();
  EXPECT_EQ(St.InFlight, 0u);
  EXPECT_EQ(St.Builds, Family.size()); // all by the prefetch workers
  // After warm every get is a hit.
  for (const UkrConfig &Cfg : Family) {
    auto K = Cache.get(Cfg);
    ASSERT_TRUE(static_cast<bool>(K)) << K.message();
    EXPECT_NE((*K)->Fn, nullptr) << Cfg.kernelName();
  }
  St = Cache.stats();
  EXPECT_EQ(St.Hits, Family.size());
  EXPECT_EQ(St.Misses, 0u);
}
