//===- KernelService.h - Forwarding header for the kernel cache -----------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel cache and its stats API (CacheStats, globalCacheStats,
/// printCacheStats) live in KernelRegistry.h. This header only forwards
/// there, for the repository benchmark (perfbench/src/main.cpp), which
/// still includes it by this name. Include KernelRegistry.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef UKR_KERNELSERVICE_H
#define UKR_KERNELSERVICE_H

#include "ukr/KernelRegistry.h"

#endif // UKR_KERNELSERVICE_H
