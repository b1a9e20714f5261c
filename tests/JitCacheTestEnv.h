//===- JitCacheTestEnv.h - Ephemeral JIT-cache isolation for tests --------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test binaries that can reach the JIT (directly or through KernelCache /
/// ExoProvider) must never read or publish artifacts in the developer's real
/// cache (~/.cache/exo-ukr): a stale artifact there can mask a codegen
/// regression, and test runs would pollute it with throwaway kernels.
///
/// Linking JitCacheTestEnv.cpp into a test binary registers a gtest global
/// environment that, before any test runs, repoints both the process
/// environment (EXO_JIT_CACHE_DIR, inherited by any subprocess the tests
/// spawn) and the already-constructed JitDiskCache::global() at a fresh
/// directory under TMPDIR. Tests that want a *private* cache on top of the
/// shared ephemeral one (cold/warm-dir scenarios) call makeTempDir().
///
//===----------------------------------------------------------------------===//

#ifndef EXO_TESTS_JITCACHETESTENV_H
#define EXO_TESTS_JITCACHETESTENV_H

#include <string>

namespace exotest {

/// A fresh mkdtemp directory under $TMPDIR (default /tmp). Leaked on
/// purpose: loaded artifacts may stay dlopen-mapped for the process
/// lifetime, so tearing the directory down under them would be undefined.
/// Returns "" (and fails the current test) when creation fails.
std::string makeTempDir(const char *Prefix = "exo-test");

/// The ephemeral cache root the global environment installed, or "" when
/// JitCacheTestEnv.cpp is not linked into this binary.
const std::string &jitCacheTestRoot();

} // namespace exotest

#endif // EXO_TESTS_JITCACHETESTENV_H
