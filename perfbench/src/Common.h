//===- Common.h - Shared pieces of the perfbench binary -------------------===//
//
// Timing, order statistics, seeded inputs, the metric table, span
// harvesting and the cold set-up protocol shared by the three workloads
// (Resnet50.cpp, LowpMix.cpp, GemmdSmall.cpp). See ../README.md.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "gemm/Engine.h"
#include "obs/Obs.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Linear-interpolation percentile (P in [0, 100]); 0 for an empty set.
double percentile(std::vector<double> V, double P);
inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// --seed so the same seed gives the same inputs.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [-1, 1).
  float unit() { return float(next() >> 40) * (2.0f / 16777216.0f) - 1.0f; }
  /// Uniform in [Lo, Hi].
  int64_t range(int64_t Lo, int64_t Hi) {
    return Lo + int64_t(next() % uint64_t(Hi - Lo + 1));
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }

private:
  uint64_t S;
};

/// Ordered (name -> value, unit) table: the JSON "metrics" object.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  std::string json() const;
  /// One "name  value unit" line per metric.
  std::string table() const;

private:
  struct Entry {
    std::string Name, Unit;
    double Value;
  };
  std::vector<Entry> Entries;
};

/// Prints one verification miss to stderr (every miss is printed).
void reportMiss(const char *Fmt, ...) __attribute__((format(printf, 1, 2)));

/// Relative Freivalds probe of a column-major M x N f32 product C = A * B:
/// prepare() keeps y = A (B x) and the magnitude bound |A| (|B| |x|) for a
/// seeded x in {-1, +1}^N; check() compares C x against y within an f32
/// accumulation bound over depth K. O(MK + KN) to prepare, O(MN) to check.
class Freivalds {
public:
  void prepare(int64_t M, int64_t N, int64_t K, const float *A,
               const float *B, uint64_t Seed);
  /// Number of rows of C that miss; each miss is printed under \p What.
  uint64_t check(const float *C, const std::string &What) const;

private:
  int64_t M = 0, N = 0, K = 0;
  std::vector<double> X, Y, Bound;
};

/// Accumulates obs::stageTotals() across harvests. harvest() folds the
/// spans recorded so far into the sums and clears the in-memory trace,
/// which bounds trace memory on long windows; the first harvest that
/// finds events also writes them as a chrome trace to TracePath.
class SpanTotals {
public:
  std::string TracePath;
  void harvest();
  double ms(const std::string &Name) const;
  /// Mean span duration in microseconds; 0 when the span never ran.
  double meanUs(const std::string &Name) const;
  void add(const SpanTotals &O);

private:
  uint64_t count(const std::string &Name) const;
  std::map<std::string, obs::StageStat> Sum;
  bool Written = false;
};

/// One cold set-up: fresh engine/server until every distinct key returned
/// a first verified result.
struct SetupResult {
  double Seconds = 0;
  uint64_t Attempted = 0, Failed = 0;
  std::vector<double> FirstMs; ///< first-call time per key id
};

/// One closed-loop measurement window.
struct Window {
  std::vector<double> OpMs; ///< latency of every completed op
  double BusySeconds = 0;   ///< time the ops took (wall for >1 caller)
  uint64_t Attempted = 0, Failed = 0;
  /// Op latencies per op kind; the ops of one kind do the same work (one
  /// (shape, dtype) call, one gemmd key). For the ResNet pass: per call
  /// slot of the pass.
  std::vector<std::vector<double>> KindMs;
  std::vector<std::vector<double>> KeyMs; ///< per-key GEMM call times
  /// Workload-specific per-op series (e.g. im2row time per pass).
  std::map<std::string, std::vector<double>> Series;

  /// Folds another window of the same workload into this one.
  void append(const Window &O);
};

/// The percentile of repeated identical ops taken as their "quiet"
/// latency. Co-tenants on a shared host slow a core in bursts of 0.1-10 s
/// and never speed it up, so the low tail of repeated identical ops is the
/// code's own speed; the median of all ops tracks the host's load.
constexpr double QuietPct = 10;

inline double quietMs(const std::vector<double> &V) {
  return percentile(V, QuietPct);
}

/// Op-weighted statistics of the kinds' quiet latencies over the op mix.
struct QuietMix {
  double P50 = 0, P90 = 0; ///< percentiles over the ops run
  double MeanMs = 0;       ///< mean quiet latency per op
};
QuietMix quietMix(const std::vector<std::vector<double>> &KindMs);

/// A workload: inputs and references are built by its factory (untimed);
/// setUp() runs cold on fresh private state and may be repeated in forked
/// children; measure() runs the closed loop.
class Workload {
public:
  virtual ~Workload() = default;
  virtual SetupResult setUp() = 0;
  /// Releases what setUp() built (a forked child calls it before exit).
  virtual void tearDown() = 0;
  /// Closed loop for about \p Seconds. \p Spans is non-null in the traced
  /// window; the workload harvests into it between ops.
  virtual Window measure(double Seconds, SpanTotals *Spans) = 0;
  /// Verifies the outputs the timed ops left behind; returns the misses.
  virtual uint64_t verifyTimed() = 0;
  /// Callers that issue ops concurrently (closed loop).
  virtual int callers() const { return 1; }
  /// Quiet op latency over \p W; by default quietMix() of the op kinds.
  virtual QuietMix quiet(const Window &W) const { return quietMix(W.KindMs); }
  /// The workload's throughput figure over \p W from quiet latencies, in
  /// GFLOP/s.
  virtual double gflops(const Window &W) const = 0;
  /// The engine the per-layer plan/governor counters are read from.
  virtual gemm::Engine &engine() = 0;
  /// Adds the workload's own per-layer metrics.
  virtual void layerMetrics(const Window &Plain, double PeakGflops,
                            Metrics &Out) = 0;
};

std::unique_ptr<Workload> makeResnet50(uint64_t Seed);
std::unique_ptr<Workload> makeLowpMix(uint64_t Seed);
std::unique_ptr<Workload> makeGemmdSmall(uint64_t Seed);

/// Checks that every ResNet-50 Table I row's conv parameters reproduce the
/// row's GEMM (M, N, K) through dnn::im2rowGemm; aborts the run otherwise.
void assertResnetConvTable();

/// Points the JIT disk cache, the plan-prior database, JIT scratch and
/// TMPDIR at fresh directories under \p Dir (created here).
void usePrivateState(const std::string &Dir);

/// Runs setUp() cold in \p Reps forked children, one after another, each on
/// its own private state under \p Base; appends their set-up seconds and
/// adds their attempted/failed counts. Must be called before this process
/// starts any thread or touches the engine.
void setupInChildren(Workload &W, int Reps, const std::string &Base,
                     std::vector<double> &Seconds, uint64_t &Attempted,
                     uint64_t &Failed);

/// Single-core f32 FMA throughput of the widest vector ISA the CPU has, in
/// GFLOPS; \p IsaOut names it.
double measurePeakGflops(std::string &IsaOut);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
