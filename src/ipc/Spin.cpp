//===- Spin.cpp - Bounded spin-then-park waits for the gemmd hot path -----===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//

#include "ipc/Spin.h"

#include <sched.h>

namespace ipc {

bool spinAllowed() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  return ::sched_getaffinity(0, sizeof(Set), &Set) == 0 &&
         CPU_COUNT(&Set) > 1;
}

void spinPause() { ::sched_yield(); }

} // namespace ipc
