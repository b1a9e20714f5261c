//===- Jit.cpp ------------------------------------------------------------===//

#include "exo/jit/Jit.h"

#include "exo/jit/DiskCache.h"
#include "exo/support/Str.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <dirent.h>
#include <dlfcn.h>
#include <fstream>
#include <map>
#include <mutex>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

using namespace exo;

JitKernel::JitKernel(void *Handle, void *Sym, std::string SoPath)
    : Handle(Handle), Sym(Sym), SoPath(std::move(SoPath)) {}

JitKernel::~JitKernel() {
  if (Handle)
    dlclose(Handle);
}

namespace {

/// Process-wide compilation cache, scratch directory and counters.
struct JitState {
  std::mutex Mu;
  std::string Dir;
  std::map<uint64_t, JitKernelPtr> Cache;
  int Counter = 0;
  JitStats Stats;

  static JitState &get() {
    static JitState S;
    return S;
  }
};

/// Base directory for scratch dirs: EXO_JIT_DIR, else TMPDIR, else /tmp.
std::string scratchBase() {
  if (const char *D = std::getenv("EXO_JIT_DIR"))
    return D;
  if (const char *D = std::getenv("TMPDIR"))
    return D;
  return "/tmp";
}

/// Removes every regular file in \p Dir, then the directory itself.
void removeDirTree(const std::string &Dir) {
  if (DIR *D = opendir(Dir.c_str())) {
    while (struct dirent *E = readdir(D)) {
      if (!std::strcmp(E->d_name, ".") || !std::strcmp(E->d_name, ".."))
        continue;
      unlink((Dir + "/" + E->d_name).c_str());
    }
    closedir(D);
  }
  rmdir(Dir.c_str());
}

/// Sweeps sibling exo-ukr-jit-* scratch dirs abandoned by dead processes
/// (a crashed or killed run leaves its .c/.so litter behind). A dir whose
/// owner.pid process is gone is reclaimed; pid-less dirs are reclaimed only
/// once they are an hour old, so a racing process that has not yet written
/// its pid file is left alone.
void sweepOrphanScratchDirs(const std::string &Base) {
  DIR *D = opendir(Base.c_str());
  if (!D)
    return;
  while (struct dirent *E = readdir(D)) {
    std::string Name = E->d_name;
    if (!startsWith(Name, "exo-ukr-jit-"))
      continue;
    std::string Path = Base + "/" + Name;
    struct stat St;
    if (stat(Path.c_str(), &St) != 0 || !S_ISDIR(St.st_mode))
      continue;
    std::ifstream PidFile(Path + "/owner.pid");
    long Pid = 0;
    if (PidFile >> Pid) {
      if (Pid > 0 && (kill(static_cast<pid_t>(Pid), 0) == 0 ||
                      errno != ESRCH))
        continue; // Owner still alive (or unknowable): leave it.
    } else if (time(nullptr) - St.st_mtime < 3600) {
      continue;
    }
    removeDirTree(Path);
  }
  closedir(D);
}

/// Creates (once) the scratch directory for generated sources and reclaims
/// orphaned scratch from earlier runs.
Error ensureDir(JitState &S) {
  if (!S.Dir.empty())
    return Error::success();
  std::string Base = scratchBase();
  sweepOrphanScratchDirs(Base);
  std::string Tmpl = Base + "/exo-ukr-jit-XXXXXX";
  std::vector<char> Buf(Tmpl.begin(), Tmpl.end());
  Buf.push_back('\0');
  if (!mkdtemp(Buf.data()))
    return errorf("cannot create JIT scratch directory under %s",
                  Base.c_str());
  S.Dir.assign(Buf.data());
  std::ofstream(S.Dir + "/owner.pid") << getpid() << "\n";
  return Error::success();
}

/// dlopens \p SoPath and resolves \p SymbolName; null on any failure (the
/// caller decides whether that is fatal or a stale cache entry).
JitKernelPtr tryLoad(const std::string &SoPath,
                     const std::string &SymbolName) {
  void *Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle)
    return nullptr;
  void *Sym = dlsym(Handle, SymbolName.c_str());
  if (!Sym) {
    dlclose(Handle);
    return nullptr;
  }
  return std::make_shared<JitKernel>(Handle, Sym, SoPath);
}

} // namespace

Expected<JitKernelPtr> exo::jitCompile(const std::string &CSource,
                                       const std::string &SymbolName,
                                       const std::string &ExtraFlags) {
  JitState &S = JitState::get();
  uint64_t Key = jitArtifactKey(CSource, ExtraFlags, SymbolName);
  JitDiskCache &DC = JitDiskCache::global();

  std::string CPath, SoPath;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    if (auto It = S.Cache.find(Key); It != S.Cache.end()) {
      ++S.Stats.MemHits;
      return It->second;
    }

    // Second level: the persistent artifact cache.
    if (DC.enabled()) {
      std::string Cached = DC.lookup(Key);
      if (!Cached.empty()) {
        if (JitKernelPtr K = tryLoad(Cached, SymbolName)) {
          ++S.Stats.DiskHits;
          S.Cache.emplace(Key, K);
          return K;
        }
        // Truncated or ABI-stale artifact: evict and recompile.
        DC.remove(Key);
      }
    }

    if (Error Err = ensureDir(S))
      return Err;
    std::string Stem = strf("%s/k%04d_%016llx", S.Dir.c_str(), S.Counter++,
                            static_cast<unsigned long long>(Key));
    CPath = Stem + ".c";
    SoPath = Stem + ".so";
  }

  // The compiler runs unlocked so kernel-cache builds overlap distinct
  // compilations; the re-lock below re-checks the cache in case another
  // thread compiled the same key meanwhile.
  {
    std::ofstream OS(CPath);
    if (!OS)
      return errorf("cannot write %s", CPath.c_str());
    OS << CSource;
  }

  // -ffp-contract=fast restores FMA contraction that -std=c11 would turn
  // off; generated vector-extension arithmetic relies on it (intrinsics
  // are explicit FMAs either way).
  std::string Cmd = jitCompilerCommand() +
                    " -O3 -std=c11 -ffp-contract=fast " + ExtraFlags +
                    " -shared -fPIC -o " + SoPath + " " + CPath;
  std::string CcOut;
  auto T0 = std::chrono::steady_clock::now();
  int Rc = jitRunCommand(Cmd, CcOut);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();

  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Stats.CompileMs += Ms;
  if (Rc != 0) {
    ++S.Stats.CompileFailures;
    // Do not leave failed-compile litter in the scratch directory.
    unlink(CPath.c_str());
    unlink(SoPath.c_str());
    return errorf("JIT compilation failed (%s):\n%s", Cmd.c_str(),
                  CcOut.c_str());
  }
  ++S.Stats.Compiles;
  if (auto It = S.Cache.find(Key); It != S.Cache.end()) {
    // Lost a benign race: another thread published the same key.
    unlink(CPath.c_str());
    unlink(SoPath.c_str());
    return It->second;
  }

  // Publish to the persistent cache and load the published copy, so the
  // kernel survives scratch-directory cleanup and the next process gets a
  // disk hit. Publishing is best-effort: on failure we load from scratch.
  std::string LoadPath = SoPath;
  if (DC.enabled()) {
    ArtifactMeta Meta;
    Meta.Symbol = SymbolName;
    Meta.Flags = ExtraFlags;
    Meta.Compiler = replaceAll(jitCompilerIdentity(), "\x1f", " ");
    if (auto Published = DC.store(Key, SoPath, Meta))
      LoadPath = Published.take();
  }

  JitKernelPtr K = tryLoad(LoadPath, SymbolName);
  if (!K && LoadPath != SoPath)
    K = tryLoad(SoPath, SymbolName); // Cache dir raced away; use scratch.
  if (!K) {
    void *Handle = dlopen(LoadPath.c_str(), RTLD_NOW | RTLD_LOCAL);
    if (!Handle)
      return errorf("dlopen failed: %s", dlerror());
    dlclose(Handle);
    return errorf("symbol '%s' not found in generated object",
                  SymbolName.c_str());
  }
  S.Cache.emplace(Key, K);
  return K;
}

bool exo::jitAvailable() {
  static int Avail = -1;
  if (Avail < 0) {
    std::string Out;
    Avail = jitRunCommand(jitCompilerCommand() + " --version", Out) == 0 ? 1
                                                                         : 0;
  }
  return Avail == 1;
}

JitStats exo::jitStats() {
  JitState &S = JitState::get();
  std::lock_guard<std::mutex> Lock(S.Mu);
  return S.Stats;
}

void exo::jitResetStats() {
  JitState &S = JitState::get();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Stats = JitStats();
}

void exo::jitClearMemoryCache() {
  JitState &S = JitState::get();
  std::lock_guard<std::mutex> Lock(S.Mu);
  S.Cache.clear();
}
