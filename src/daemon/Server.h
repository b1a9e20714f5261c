//===- Server.h - gemmd: the multi-client GEMM-as-a-service daemon --------===//
//
// Part of the exo-ukr project. MIT license; see LICENSE.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived server behind `tools/gemmd`: ONE gemm::Engine (one warm
/// plan cache), ONE kernel/JIT cache, ONE thread pool — shared by
/// every client process, so the expensive last-mile work (planning, JIT
/// compiling, pool spin-up) is paid once per machine instead of once per
/// process. Transport is the src/ipc layer: a Unix-domain rendezvous
/// socket for handshake + doorbells, per-client shared-memory regions for
/// tensors and packet rings (docs/GEMMD.md).
///
/// Contracts, in priority order:
///
///   1. FAULT ISOLATION. A client dying mid-request (SIGKILL included) or
///      writing garbage into its rings costs exactly that client its
///      session; every other stream keeps completing with correct
///      results, and the server never blocks on a dead peer. (The control
///      socket's EOF is the death signal; shm stays valid server-side
///      because mappings outlive the client.)
///   2. ADMISSION CONTROL. A bounded request queue; when full, requests
///      are answered Busy immediately instead of queuing unboundedly.
///      --max-clients bounds sessions the same way.
///   3. OBSERVABILITY. Per-client and aggregate counters (requests, ok,
///      errors, busy, reaps) plus the Engine and kernel-cache counters,
///      all served over the wire (StatsRequest) and as JSON; gemmd.* obs
///      spans mark the request path.
///
/// Threading: one poller thread owns the listen socket, the session table
/// and all doorbell fds; Options::Workers executor threads own the
/// bounded queue and run Engine::gemm, the one typed door (batch packets:
/// Engine::sgemmStridedBatched). Single and batched requests share one
/// admission branch and one handler. Replies go back through the
/// session's response ring under a per-session write lock. stop() is
/// graceful: accepted work drains, sessions then close.
///
//===----------------------------------------------------------------------===//

#ifndef DAEMON_SERVER_H
#define DAEMON_SERVER_H

#include "gemm/Engine.h"
#include "ipc/Wire.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gemmd {

struct ServerOptions {
  /// Rendezvous socket path; empty resolves EXO_GEMMD_SOCKET, else
  /// /tmp/exo-gemmd-<uid>.sock.
  std::string SocketPath;
  /// Concurrent sessions admitted; 0 resolves EXO_GEMMD_MAX_CLIENTS,
  /// else 64.
  int MaxClients = 0;
  /// Executor threads running Engine::gemm; 0 resolves
  /// EXO_GEMMD_WORKERS, else 1 (the Engine's own team parallelism is the
  /// intended scaling axis; raise for many tiny concurrent requests).
  unsigned Workers = 0;
  /// Bounded request-queue depth; 0 resolves EXO_GEMMD_QUEUE_MAX, else 64.
  /// Past it, requests get an immediate Busy reply.
  size_t QueueMax = 0;
  /// The one shared Engine's configuration (default: Auto series).
  gemm::EngineConfig Engine;
};

/// One client's ledger, snapshotted by Server::stats().
struct ClientStat {
  uint32_t Id = 0;
  bool Active = false;
  uint64_t Requests = 0; ///< GEMM requests accepted off this session's ring
  uint64_t Ok = 0;
  uint64_t Errors = 0;
  uint64_t Busy = 0;
  int64_t LastM = 0, LastN = 0, LastK = 0;
};

/// Aggregate server snapshot; Wire is exactly what StatsRequest returns
/// over the rings (daemon-level counters including the Engine plan cache
/// and JIT cache), PerClient the per-session ledgers.
struct ServerStats {
  ipc::StatsReplyMsg Wire;
  std::vector<ClientStat> PerClient;
};

/// See file comment.
class Server {
public:
  explicit Server(const ServerOptions &Opts);
  ~Server(); ///< stops if still running

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and spawns the poller + executors. Fails (without
  /// threads) when the socket cannot be bound.
  exo::Error start();

  /// Graceful shutdown: stop accepting, drain accepted work, reply, close
  /// every session, join all threads, unlink the socket. Idempotent.
  void stop();

  bool running() const;
  const std::string &socketPath() const;

  /// The one shared engine (tests pre-warm shapes through it).
  gemm::Engine &engine();

  ServerStats stats() const;

private:
  struct Impl;
  Impl *I;
};

} // namespace gemmd

#endif // DAEMON_SERVER_H
