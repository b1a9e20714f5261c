//===- Spin.h - Bounded spin-then-park waits for the gemmd hot path -------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A gemmd round trip has three waits: the poller for a request doorbell,
/// an executor for queued work, the client for its reply. Blocking in the
/// kernel at once would cost each a wake-up out of poll()/futex, about
/// 10 µs on a virtual machine — more than a small GEMM itself. So each
/// wait first polls its condition for a fixed budget and only then
/// parks; the doorbells and the queue's condition variable stay the
/// wake-up for a parked thread (and EOF on the socket the death signal),
/// so an idle daemon still parks and burns no CPU.
///
/// The budgets are fixed constants, not knobs: long enough to cover the
/// round trip of a small GEMM, short enough that an idle thread stops
/// spinning within a fraction of a millisecond. Three rules keep a spinner
/// from taking the CPU the awaited thread needs:
///
///   - every spin iteration yields the CPU (spinPause), so where spinners
///     outnumber the CPUs the thread with work runs next instead of
///     queuing behind them;
///   - nobody spins for a request the governor runs on a multi-thread team
///     (gemm::Engine::teamWidthFor > 1): a spinner on a member's CPU
///     stalls the whole team at its barriers;
///   - spinning is off when the caller's CPU affinity mask holds a single
///     CPU, where a spinning thread only delays the one it waits for.
///
//===----------------------------------------------------------------------===//

#ifndef IPC_SPIN_H
#define IPC_SPIN_H

#include <chrono>
#include <cstdint>

namespace ipc {

using SpinClock = std::chrono::steady_clock;

/// How long a client polls its response ring before blocking on the
/// reply doorbell. Counts toward Client::Options::TimeoutMs.
inline constexpr std::chrono::microseconds ClientSpin{200};
/// How long a server thread (poller, executor) keeps polling for work
/// after its last piece of work before it parks.
inline constexpr std::chrono::microseconds ServerSpin{100};

/// A request's work, 2mnk summed over a batch: what the governor sizes
/// its team by (gemm::Engine::teamWidthFor).
inline double requestFlops(int64_t M, int64_t N, int64_t K, int64_t Count) {
  return 2.0 * static_cast<double>(M) * static_cast<double>(N) *
         static_cast<double>(K) * static_cast<double>(Count);
}

/// False when the calling thread's CPU affinity mask holds one CPU (or
/// cannot be read); threads it starts inherit the mask.
bool spinAllowed();

/// Ends one spin-loop iteration by giving the CPU to any other runnable
/// thread on it. Where every spinner has a CPU of its own this returns at
/// once; where spinners outnumber the CPUs it hands the CPU to the thread
/// the spinner waits for, which would otherwise queue behind it.
void spinPause();

/// Polls \p Ready until it returns true or \p Deadline passes; returns
/// Ready's last answer. Ready is always called at least once.
template <typename Pred>
bool spinUntil(Pred &&Ready, SpinClock::time_point Deadline) {
  for (;;) {
    if (Ready())
      return true;
    if (SpinClock::now() >= Deadline)
      return false;
    spinPause();
  }
}

} // namespace ipc

#endif // IPC_SPIN_H
