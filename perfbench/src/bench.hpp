// levbench: the repository benchmark program (perfbench/README.md).
//
// One process runs one workload: it sets the workload's inputs up several
// times, runs timed passes of fixed work for the requested number of
// seconds, checks every output against its correctness gate, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics and the
// layer-share table (traced run). Layers are timed from outside: every
// span is recorded by this program around its own call into a module's
// public entry point; the simulator carries no timers of its own.
#pragma once
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "secure/policies.hpp"
#include "spans.hpp"

namespace levbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The seven policies of the paper's evaluation, in fig3 order.
using lev::secure::policyNames;

/// Command-line settings shared by every workload.
struct Settings {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  int threads = 1;       ///< worker threads, at most nproc and 4
  std::string root;      ///< repository checkout (reads bench/baselines/)
};

/// The seed the sampled_long reference cycle counts were recorded at.
inline constexpr std::uint64_t kDefaultSeed = 42;

/// What one timed pass yields.
struct PassResult {
  double wallSeconds = 0.0;
  std::uint64_t insts = 0;          ///< simulated instructions accounted for
  std::vector<double> runMillis;    ///< one latency sample per run
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// A named metric value as printed in the result.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One benchmark workload. main.cpp calls setup() several times, then
/// (traced runs only) retime(), then pass() until the time is used, then
/// (traced runs only) perLayer(), and finally verify().
class Workload {
public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Build, compile and predecode the inputs. Called several times; the
  /// last call's inputs feed the timed passes.
  virtual void setup(Tracer* tracer) = 0;
  /// One pass of fixed work. With a tracer, the pass's spans are recorded
  /// under `passSpan` (opened by main.cpp over all worker threads), and
  /// opaque calls are split into layers with Tracer::attribute().
  virtual PassResult pass(Tracer* tracer, int passSpan) = 0;
  /// Traced runs only, before the passes: re-time the sub-layers that a
  /// timed pass cannot see from outside (module copies, plain simulations,
  /// FuncSim).
  virtual void retime(Tracer& tracer) = 0;
  /// Traced runs only: per-layer metrics from the traced passes and the
  /// re-timings.
  virtual std::vector<Metric> perLayer() = 0;
  /// Check everything the passes produced. Returns the number of failed
  /// operations found here that pass() could not yet judge, and appends a
  /// line per failure to `problems`.
  virtual std::uint64_t verify(std::vector<std::string>& problems) = 0;
  /// Minimum passes before the pass loop may stop (keeps the latency sample
  /// count above 100 on every workload).
  virtual int minPasses() const { return 1; }
};

std::unique_ptr<Workload> makeFig3Grid(const Settings& s);
std::unique_ptr<Workload> makeSecurityFuzz(const Settings& s);
std::unique_ptr<Workload> makeSampledLong(const Settings& s);

/// Runs fn(i) for i in [0, n) on `threads` threads pulling indices from a
/// shared counter; joins all threads before returning and rethrows the
/// first exception a task threw.
void parallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)>& fn);

double median(std::vector<double> v);
/// Linear-interpolated percentile (p in [0,100]) of `v`.
double percentile(std::vector<double> v, double p);

/// Per-policy and per-run simulated-count metrics (core.stall_frac.<p>,
/// policy.delay_per_inst.<p>, core.fetch_useful_frac, ...) from summed
/// Simulation::stats() counters: `perPolicy` maps a policy to its counter
/// sums over the pass.
std::vector<Metric> countMetrics(
    const std::map<std::string, std::map<std::string, std::int64_t>>&
        perPolicy);

/// Adds `from` into `into` counter by counter.
void addCounters(std::map<std::string, std::int64_t>& into,
                 const std::map<std::string, std::int64_t>& from);

} // namespace levbench
