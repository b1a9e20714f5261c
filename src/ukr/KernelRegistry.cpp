//===- KernelRegistry.cpp -------------------------------------------------===//

#include "ukr/KernelRegistry.h"

#include "exo/jit/DiskCache.h"
#include "exo/support/Env.h"
#include "exo/support/Str.h"
#include "obs/Obs.h"

#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <thread>

using namespace exo;
using namespace ukr;

Expected<Kernel> ukr::buildKernel(const UkrConfig &Cfg,
                                  const SchedOptions &Opts) {
  auto Res = generateUkernel(Cfg, Opts);
  if (!Res)
    return Res.takeError();

  Kernel K;
  K.Cfg = Cfg;
  K.Style = Res->Style;
  K.Final = Res->Final;
  K.CSource = std::move(Res->CSource);

  bool Executable = K.Style == FmaStyle::Scalar ||
                    (Cfg.Isa && Cfg.Isa->hostExecutable());
  // gcc 12 on x86 has no __bf16 type (storage or otherwise), so bf16
  // kernels stay textual/interpreter artifacts on this host rather than
  // turning into a hard JIT compile error.
#if !defined(__aarch64__)
  if (Cfg.Ty == ScalarKind::BF16 || Cfg.accKind() == ScalarKind::BF16)
    Executable = false;
#endif
  if (Executable && jitAvailable()) {
    std::string Flags = K.Style == FmaStyle::Scalar ? "-march=native"
                                                     : Cfg.Isa->jitFlags();
    auto Jit = jitCompile(K.CSource, Cfg.kernelName(), Flags);
    if (!Jit)
      return Jit.takeError();
    K.Jit = Jit.take();
    if (Cfg.Ty == ScalarKind::F32) {
      if (Cfg.GeneralAlphaBeta)
        K.FnAxpby = K.Jit->as<MicroKernelAxpbyF32>();
      else
        K.Fn = K.Jit->as<MicroKernelF32>();
    } else if (Cfg.Ty == ScalarKind::I8 &&
               Cfg.accKind() == ScalarKind::I32 && !Cfg.GeneralAlphaBeta) {
      K.FnI8 = K.Jit->as<MicroKernelI8I32>();
    }
  }
  return K;
}

struct KernelCache::Impl {
  struct Entry {
    /// New entries and failed ones are built again by the next get();
    /// prefetch queues only new ones, so warm() can report failures.
    enum class State { New, Queued, Building, Ready, Failed } S = State::New;
    UkrConfig Cfg;
    Kernel K;
    std::string Err;
  };

  unsigned NumWorkers = 2;
  mutable std::mutex Mu;
  std::condition_variable Cv;
  /// Nodes are never erased, so Entry references and Kernel pointers stay
  /// valid for the cache's lifetime.
  std::map<std::string, Entry> Entries;
  std::deque<Entry *> Queue;
  std::vector<std::thread> Workers; ///< started by the first prefetch
  bool Stop = false;
  uint64_t Ready = 0, InFlight = 0; ///< entries ready / queued or building

  // The JIT-layer fields of stats() are deltas against JitBase (taken at
  // construction).
  CacheStats St;
  JitStats JitBase;

  Entry &entryLocked(const UkrConfig &Cfg) {
    auto [It, Inserted] = Entries.try_emplace(Cfg.kernelName());
    if (Inserted)
      It->second.Cfg = Cfg;
    return It->second;
  }

  /// Moves \p E to \p S, keeping the Ready and InFlight counts. Lock held.
  void setLocked(Entry &E, Entry::State S) {
    auto Busy = [](Entry::State X) {
      return X == Entry::State::Queued || X == Entry::State::Building;
    };
    InFlight = InFlight + Busy(S) - Busy(E.S);
    Ready = Ready + (S == Entry::State::Ready) - (E.S == Entry::State::Ready);
    E.S = S;
  }

  /// Builds \p E outside the lock and publishes the outcome. Lock held on
  /// entry and exit; the Building state keeps every other thread off E.
  void buildLocked(std::unique_lock<std::mutex> &Lock, Entry &E) {
    setLocked(E, Entry::State::Building);
    Lock.unlock();
    Expected<Kernel> Built = [&] {
      // Spans the full build pipeline: codegen + (disk-cache probe or
      // compiler invocation) + dlopen. Disk hits show up as short
      // jit.build spans with zero jit compile time in CacheStats.
      obs::Span Span("jit.build");
      return buildKernel(E.Cfg);
    }();
    Lock.lock();
    if (Built) {
      E.K = Built.take();
      setLocked(E, Entry::State::Ready);
    } else {
      E.Err = Built.takeError().message();
      setLocked(E, Entry::State::Failed);
      ++St.Failures;
    }
    Cv.notify_all();
  }

  void workerLoop() {
    std::unique_lock<std::mutex> Lock(Mu);
    while (true) {
      Cv.wait(Lock, [&] { return Stop || !Queue.empty(); });
      if (Stop)
        return;
      Entry &E = *Queue.front();
      Queue.pop_front();
      if (E.S != Entry::State::Queued)
        continue; // a get() claimed it in the meantime
      buildLocked(Lock, E);
      ++St.Builds;
    }
  }
};

KernelCache::KernelCache(unsigned Workers) : I(new Impl) {
  if (Workers == 0)
    Workers = static_cast<unsigned>(
        envInt("EXO_KERNEL_WORKERS", std::getenv("EXO_KERNEL_WORKERS"),
               /*Default=*/2, /*Min=*/1, /*Max=*/256));
  I->NumWorkers = Workers;
  I->JitBase = jitStats();
}

KernelCache::~KernelCache() {
  {
    std::lock_guard<std::mutex> Lock(I->Mu);
    I->Stop = true;
  }
  I->Cv.notify_all();
  for (std::thread &T : I->Workers)
    T.join();
  delete I;
}

KernelCache &KernelCache::global() {
  static KernelCache C;
  return C;
}

Expected<const Kernel *> KernelCache::get(const UkrConfig &Cfg) {
  using State = Impl::Entry::State;
  std::unique_lock<std::mutex> Lock(I->Mu);
  Impl::Entry &E = I->entryLocked(Cfg);
  if (E.S == State::Ready) {
    ++I->St.Hits;
    obs::mark("ukr.cache.hit");
    return const_cast<const Kernel *>(&E.K);
  }
  ++I->St.Misses;
  obs::mark("ukr.cache.miss");
  if (E.S == State::Building)
    I->Cv.wait(Lock, [&] { return E.S != State::Building; });
  else // new, queued for a worker, or failed before: build it here
    I->buildLocked(Lock, E);
  if (E.S == State::Failed)
    return errorf("kernel cache: build of %s failed: %s",
                  Cfg.kernelName().c_str(), E.Err.c_str());
  return const_cast<const Kernel *>(&E.K);
}

void KernelCache::prefetch(const UkrConfig &Cfg) { prefetchBatch({Cfg}); }

void KernelCache::prefetchBatch(const std::vector<UkrConfig> &Cfgs) {
  std::lock_guard<std::mutex> Lock(I->Mu);
  while (I->Workers.size() < I->NumWorkers)
    I->Workers.emplace_back([this] { I->workerLoop(); });
  for (const UkrConfig &Cfg : Cfgs) {
    Impl::Entry &E = I->entryLocked(Cfg);
    if (E.S != Impl::Entry::State::New)
      continue;
    I->setLocked(E, Impl::Entry::State::Queued);
    I->Queue.push_back(&E);
  }
  I->Cv.notify_all();
}

Error KernelCache::warm(const std::vector<UkrConfig> &Cfgs) {
  prefetchBatch(Cfgs);
  wait();
  std::lock_guard<std::mutex> Lock(I->Mu);
  std::vector<std::string> Failed;
  for (const UkrConfig &Cfg : Cfgs) {
    const Impl::Entry &E = I->entryLocked(Cfg);
    if (E.S == Impl::Entry::State::Failed)
      Failed.push_back(Cfg.kernelName() + ": " + E.Err);
  }
  if (Failed.empty())
    return Error::success();
  return errorf("%zu kernel(s) failed to warm:\n%s", Failed.size(),
                join(Failed, "\n").c_str());
}

void KernelCache::wait() {
  std::unique_lock<std::mutex> Lock(I->Mu);
  I->Cv.wait(Lock, [&] { return I->InFlight == 0; });
}

size_t KernelCache::size() const {
  std::lock_guard<std::mutex> Lock(I->Mu);
  return I->Ready;
}

CacheStats KernelCache::stats() const {
  JitStats Jit = jitStats();
  std::lock_guard<std::mutex> Lock(I->Mu);
  CacheStats Out = I->St;
  Out.InFlight = I->InFlight;
  Out.DiskHits = Jit.DiskHits - I->JitBase.DiskHits;
  Out.Compiles = Jit.Compiles - I->JitBase.Compiles;
  Out.CompileMs = Jit.CompileMs - I->JitBase.CompileMs;
  return Out;
}

std::vector<UkrConfig> ukr::standardShapeFamily(int64_t MR, int64_t NR,
                                                bool AllCandidates) {
  // Tiles to expand: the requested full tile, plus (with AllCandidates)
  // every shape ExoProvider::pickShape can select on this host.
  std::vector<std::pair<int64_t, int64_t>> Tiles = {{MR, NR}};
  if (AllCandidates) {
    static const std::pair<int64_t, int64_t> Candidates[] = {
        {8, 12}, {8, 8}, {8, 6},  {8, 4},  {16, 12}, {16, 8},
        {16, 6}, {16, 4}, {4, 12}, {4, 8}, {4, 4},   {24, 4},
    };
    for (auto [M, N] : Candidates)
      if (bestIsaForMr(M))
        Tiles.emplace_back(M, N);
  }

  std::set<std::pair<int64_t, int64_t>> Shapes;
  for (auto [M, N] : Tiles) {
    // The §IV-C edge family around a full tile: the tile itself plus the
    // half-width and scalar M edges crossed with the common N edges.
    for (int64_t EdgeM : {M, std::min<int64_t>(M, 4), int64_t(1)})
      for (int64_t EdgeN : {N, std::min<int64_t>(N, 8),
                            std::min<int64_t>(N, 4)})
        Shapes.emplace(EdgeM, EdgeN);
  }

  std::vector<UkrConfig> Out;
  for (auto [M, N] : Shapes)
    Out.push_back(shapeConfig(M, N));
  return Out;
}

CacheStats ukr::globalCacheStats() {
  CacheStats St = KernelCache::global().stats();
  JitStats Jit = jitStats();
  St.DiskHits = Jit.DiskHits;
  St.Compiles = Jit.Compiles;
  St.CompileMs = Jit.CompileMs;
  St.CorruptMeta = JitDiskCache::corruptMetaObserved();
  return St;
}

void ukr::printCacheStats(const CacheStats &St, std::FILE *Out) {
  std::fprintf(Out,
               "kernel-cache: hits=%llu misses=%llu fallbacks=%llu "
               "builds=%llu failures=%llu in-flight=%llu\n"
               "jit: disk-hits=%llu compiles=%llu compile-ms=%.1f "
               "corrupt-meta=%llu (cache dir: %s%s)\n",
               static_cast<unsigned long long>(St.Hits),
               static_cast<unsigned long long>(St.Misses),
               static_cast<unsigned long long>(St.Fallbacks),
               static_cast<unsigned long long>(St.Builds),
               static_cast<unsigned long long>(St.Failures),
               static_cast<unsigned long long>(St.InFlight),
               static_cast<unsigned long long>(St.DiskHits),
               static_cast<unsigned long long>(St.Compiles), St.CompileMs,
               static_cast<unsigned long long>(St.CorruptMeta),
               JitDiskCache::global().root().c_str(),
               JitDiskCache::global().enabled() ? "" : ", disabled");
}

UkrConfig ukr::shapeConfig(int64_t Mr, int64_t Nr, const IsaLib *Preferred,
                           bool UnrollCompute, ScalarKind Ty) {
  UkrConfig Cfg;
  Cfg.MR = Mr;
  Cfg.NR = Nr;
  Cfg.Ty = Ty;
  Cfg.UnrollCompute = UnrollCompute;
  Cfg.Isa = Preferred ? Preferred : bestIsaForMr(Mr);
  if (Ty != ScalarKind::F32) {
    // Narrow kinds keep a vector library only when it actually has
    // instructions for them (e.g. Neon f16); otherwise the scalar schedule
    // is the correct degradation — same rule effectiveStyle applies, made
    // explicit here so kernelName reflects it.
    if (Cfg.Isa && !Cfg.Isa->supports(Ty))
      Cfg.Isa = nullptr;
    // i8 and bf16 compute is defined through widening dot units; their
    // kernels accumulate in i32/f32 (see UkrConfig::WidenAcc).
    if (Ty == ScalarKind::I8 || Ty == ScalarKind::BF16)
      Cfg.WidenAcc = true;
  }
  if (!Cfg.Isa)
    Cfg.Style = FmaStyle::Scalar;
  return Cfg;
}

const IsaLib *ukr::bestIsaForMr(int64_t MR) {
  const IsaLib *Best = nullptr;
  unsigned BestLanes = 0;
  for (const IsaLib *I : allIsas()) {
    if (!I->hostExecutable() || !I->supports(ScalarKind::F32))
      continue;
    unsigned L = I->lanes(ScalarKind::F32);
    if (MR % L == 0 && L > BestLanes) {
      Best = I;
      BestLanes = L;
    }
  }
  return Best;
}
