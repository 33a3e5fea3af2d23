// fig3_grid: the paper's headline grid, 16 kernels x 7 policies at scale 1
// and kernel seed 42, exact mode, through runner::Sweep with no result
// cache. Detailed O3 simulation is nearly all of its host time; compile is
// a fraction of a percent. Gate: every point's cycle count equals
// bench/baselines/fig3_overhead.json exactly.
#include "layers.hpp"
#include "runner/sweep.hpp"
#include "support/jsonparse.hpp"
#include "workloads/kernels.hpp"

namespace levbench {
namespace {

using lev::runner::JobSpec;
using lev::runner::Sweep;

class Fig3Grid final : public Workload {
public:
  explicit Fig3Grid(const Settings& s) : s_(s) {
    const lev::json::JsonValue base =
        lev::json::parseFile(s.root + "/bench/baselines/fig3_overhead.json");
    for (const lev::json::JsonValue& r : base.at("results").items)
      expected_[{r.at("kernel").str, r.at("policy").str}] =
          static_cast<std::uint64_t>(r.at("cycles").number);
    for (const std::string& k : lev::workloads::kernelNames())
      for (const std::string& p : policyNames()) {
        JobSpec spec;
        spec.kernel = k;
        spec.policy = p;
        specs_.push_back(spec);
        kernelOfCompileKey_[lev::runner::describeCompile(spec)] = k;
      }
  }

  void setup(Tracer* tracer) override {
    // The grid's inputs: every kernel built, compiled and predecoded once.
    // The sweep compiles its own copies inside the timed phase.
    compileTimes_.clear();
    for (const std::string& k : lev::workloads::kernelNames()) {
      CompileTimes t;
      prepare([&] { return lev::workloads::buildKernel(k, 1, 42); },
              "workloads::buildKernel", kWorkloads, tracer, t);
      compileTimes_[k] = t;
    }
  }

  PassResult pass(Tracer* tracer, int passSpan) override {
    Sweep::Options o;
    o.jobs = s_.threads;
    o.failPolicy = lev::runner::FailPolicy::KeepGoing;
    const std::int64_t epochNs = tracer ? tracer->nowNs() : 0;
    Sweep sweep(o);
    for (const JobSpec& spec : specs_) sweep.add(spec);

    PassResult r;
    int sweepSpan = -1;
    {
      ScopedSpan span(tracer, "runner::Sweep::run", kRunner, passSpan,
                      s_.threads);
      sweepSpan = span.id();
      const Clock::time_point t0 = Clock::now();
      sweep.run();
      r.wallSeconds = secondsSince(t0);
    }

    // Cycle gate, and one latency sample per simulated grid point.
    const auto& results = sweep.results();
    const auto& outcomes = sweep.outcomes();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      ++r.attempted;
      const JobSpec& spec = specs_[i];
      const auto want = expected_.find({spec.kernel, spec.policy});
      if (!outcomes[i].ok) {
        ++r.failed;
        problems_.push_back(spec.kernel + "/" + spec.policy +
                            " failed: " + outcomes[i].message);
        continue;
      }
      r.insts += results[i].summary.insts;
      if (want == expected_.end() ||
          results[i].summary.cycles != want->second) {
        ++r.failed;
        problems_.push_back(
            spec.kernel + "/" + spec.policy + " cycles " +
            std::to_string(results[i].summary.cycles) + " != baseline " +
            (want == expected_.end() ? std::string("(missing)")
                                     : std::to_string(want->second)));
      }
    }
    double busyMicros = 0;
    std::vector<double> queueWaits;
    for (const lev::trace::HostSpan& h : sweep.hostSpans()) {
      busyMicros += static_cast<double>(h.endMicros - h.startMicros);
      if (std::string(h.phase) == "simulate") {
        r.runMillis.push_back(
            static_cast<double>(h.endMicros - h.startMicros) / 1000.0);
        queueWaits.push_back(
            static_cast<double>(h.startMicros - h.queuedMicros) / 1000.0);
      }
    }
    if (tracer == nullptr) return r;

    // Traced: the runner's own per-job host spans become children of the
    // Sweep::run span; compile jobs are split into their layers by the
    // setup's per-kernel times.
    ++tracedPasses_;
    for (const lev::trace::HostSpan& h : sweep.hostSpans()) {
      const bool compile = std::string(h.phase) == "compile";
      const int id = tracer->add(
          compile ? "runner::compileJob" : "runner::simulateJob",
          compile ? kRunner : kSim, epochNs + h.startMicros * 1000,
          epochNs + h.endMicros * 1000, sweepSpan, 100 + h.worker);
      if (compile)
        compileTimes_.at(kernelOfCompileKey_.at(h.label))
            .attribute(*tracer, id, /*withBuild=*/true,
                       /*withPredecode=*/true);
    }
    parallelEff_.push_back(busyMicros * 1e-6 /
                           (r.wallSeconds * s_.threads));
    queueWaitP50_.push_back(median(queueWaits));
    simulated_ = sweep.counters().simulated;
    compiles_ = sweep.counters().compiles;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      if (!outcomes[i].ok) continue;
      const std::string& p = specs_[i].policy;
      simSeconds_[p] += static_cast<double>(results[i].wallMicros) * 1e-6;
      cycles_[p] += static_cast<double>(results[i].summary.cycles);
      insts_[p] += static_cast<double>(results[i].summary.insts);
      addCounters(counters_[p], results[i].stats);
    }
    return r;
  }

  void retime(Tracer& tracer) override {
    for (const std::string& k : lev::workloads::kernelNames())
      retimeSublayers(lev::workloads::buildKernel(k, 1, 42), &tracer,
                      compileTimes_[k]);
  }

  std::vector<Metric> perLayer() override {
    const double n = tracedPasses_ == 0 ? 1.0 : tracedPasses_;
    CompileTimes all;
    for (const auto& [k, t] : compileTimes_) all.add(t);
    std::vector<Metric> m = compileMetrics(all);
    m.push_back({"runner.parallel_eff", median(parallelEff_), "ratio"});
    m.push_back({"runner.queue_wait_p50_ms", median(queueWaitP50_), "ms"});
    m.push_back({"runner.simulated", static_cast<double>(simulated_),
                 "count"});
    m.push_back({"runner.compiles", static_cast<double>(compiles_), "count"});
    for (const std::string& p : policyNames()) {
      const double sec = simSeconds_[p] / n;
      m.push_back({"sim.run_s." + p, sec, "s"});
      m.push_back({"sim.ns_per_cycle." + p,
                   cycles_[p] == 0 ? 0.0 : simSeconds_[p] * 1e9 / cycles_[p],
                   "ns"});
      m.push_back({"sim.ns_per_inst." + p,
                   insts_[p] == 0 ? 0.0 : simSeconds_[p] * 1e9 / insts_[p],
                   "ns"});
    }
    for (Metric& c : countMetrics(counters_)) m.push_back(std::move(c));
    return m;
  }

  std::uint64_t verify(std::vector<std::string>& problems) override {
    problems.insert(problems.end(), problems_.begin(), problems_.end());
    return 0;
  }

private:
  Settings s_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> expected_;
  std::vector<JobSpec> specs_;
  std::map<std::string, std::string> kernelOfCompileKey_;
  std::map<std::string, CompileTimes> compileTimes_;
  std::vector<std::string> problems_;
  // Traced passes.
  int tracedPasses_ = 0;
  std::vector<double> parallelEff_;
  std::vector<double> queueWaitP50_;
  std::size_t simulated_ = 0;
  std::size_t compiles_ = 0;
  std::map<std::string, double> simSeconds_, cycles_, insts_;
  std::map<std::string, std::map<std::string, std::int64_t>> counters_;
};

} // namespace

std::unique_ptr<Workload> makeFig3Grid(const Settings& s) {
  return std::make_unique<Fig3Grid>(s);
}

} // namespace levbench
