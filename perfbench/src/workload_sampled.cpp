// sampled_long: mcf_chase, gcc_branchy and leela_search at scale 20 (6-8
// million instructions each), kernel data seed from the benchmark seed,
// under all seven policies through sim::runSampled with predictor and cache
// warming and about 1% of instructions in detail. It uses the simulation
// layer the other way round from fig3_grid: warmed functional fast-forward
// dominates, the detailed core runs only in short windows. Gates: every
// run's totalInsts equals FuncSim's instruction count, every pass repeats
// the first pass's estimates, and at the default seed the estimates equal
// the reference in perfbench/data/sampled_long_seed42.txt.
#include <fstream>
#include <iostream>

#include "layers.hpp"
#include "sim/sampling.hpp"
#include "uarch/funcsim.hpp"
#include "workloads/kernels.hpp"

namespace levbench {
namespace {

const std::vector<std::string>& kernels() {
  static const std::vector<std::string> kNames = {"mcf_chase", "gcc_branchy",
                                                  "leela_search"};
  return kNames;
}
std::size_t nPolicies() { return policyNames().size(); }
constexpr int kScale = 20;
constexpr std::uint64_t kPeriod = 1'000'000;
constexpr std::uint64_t kWindow = 10'000;

struct Estimate {
  std::uint64_t cycles = 0;
  std::uint64_t insts = 0;
  bool operator==(const Estimate&) const = default;
};

class SampledLong final : public Workload {
public:
  explicit SampledLong(const Settings& s) : s_(s) {}

  int minPasses() const override { return 5; }

  void setup(Tracer* tracer) override {
    times_ = CompileTimes{};
    programs_.clear();
    for (const std::string& k : kernels())
      programs_.push_back(prepare(
          [&] { return lev::workloads::buildKernel(k, kScale, s_.seed); },
          "workloads::buildKernel", kWorkloads, tracer, times_));
  }

  void retime(Tracer& tracer) override {
    for (const std::string& k : kernels())
      retimeSublayers(lev::workloads::buildKernel(k, kScale, s_.seed),
                      &tracer, times_);
    // Fast-forward cost per kernel: FuncSim over the whole program with the
    // same warming runSampled does (median of three), and without warming.
    ffwd_.assign(kernels().size(), 0.0);
    funcsim_.assign(kernels().size(), 0.0);
    ScopedSpan root(&tracer, "retime sampled_long", kIdle, -1, s_.threads);
    parallelFor(kernels().size(), s_.threads, [&](std::size_t k) {
      const lev::isa::Program& prog = programs_[k].predecoded->program();
      const lev::uarch::CoreConfig cfg;
      std::vector<double> warmed, plain;
      for (int rep = 0; rep < 3; ++rep) {
        lev::StatSet stats;
        lev::uarch::BranchPredictor bp(cfg.bp, stats);
        lev::uarch::MemHierarchy hier(cfg.mem, stats);
        lev::uarch::FuncSim fs(prog);
        fs.setPredictorWarming(&bp);
        fs.setCacheWarming(&hier);
        warmed.push_back(timed(&tracer, "uarch::FuncSim::run warmed",
                               kFuncsim, [&] { fs.run(); }));
        lev::uarch::FuncSim cold(prog);
        plain.push_back(timed(&tracer, "uarch::FuncSim::run", kFuncsim,
                              [&] { cold.run(); }));
      }
      ffwd_[k] = median(warmed);
      funcsim_[k] = median(plain);
    });
  }

  PassResult pass(Tracer* tracer, int passSpan) override {
    const std::size_t nK = kernels().size();
    const std::size_t nRuns = nK * nPolicies();
    std::vector<lev::sim::SampleResult> results(nRuns);
    std::vector<double> seconds(nRuns, 0.0);
    std::vector<int> spans(nRuns, -1);
    std::vector<std::string> errors(nRuns);

    PassResult r;
    const Clock::time_point t0 = Clock::now();
    parallelFor(nRuns, s_.threads, [&](std::size_t i) {
      lev::sim::SampleOptions opts;
      opts.periodInsts = kPeriod;
      opts.windowInsts = kWindow;
      ScopedSpan span(tracer, "sim::runSampled", kSampling, passSpan);
      spans[i] = span.id();
      const Clock::time_point s0 = Clock::now();
      try {
        results[i] = lev::sim::runSampled(
            *programs_[i / nPolicies()].predecoded, lev::uarch::CoreConfig{},
            policyNames()[i % nPolicies()], opts);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
      seconds[i] = secondsSince(s0);
    });
    r.wallSeconds = secondsSince(t0);

    std::vector<Estimate> estimates(nRuns);
    for (std::size_t i = 0; i < nRuns; ++i) {
      ++r.attempted;
      r.runMillis.push_back(seconds[i] * 1000.0);
      estimates[i] = {results[i].estimatedCycles, results[i].totalInsts};
      r.insts += results[i].totalInsts;
      if (!errors[i].empty()) {
        ++r.failed;
        problems_.push_back(runName(i) + " threw: " + errors[i]);
      } else if (!estimates_.empty() && estimates[i] != estimates_[i]) {
        ++r.failed;
        problems_.push_back(runName(i) + " differs from the first pass");
      }
    }
    if (estimates_.empty()) estimates_ = estimates;
    if (tracer == nullptr) return r;

    // Traced: each runSampled is split into warmed fast-forward (the
    // re-timed FuncSim cost of its kernel) and the rest (detailed windows
    // and checkpoint copies).
    ++tracedPasses_;
    for (std::size_t i = 0; i < nRuns; ++i) {
      const std::size_t k = i / nPolicies();
      const std::string& p = policyNames()[i % nPolicies()];
      tracer->attribute(spans[i], kFuncsim, ffwd_[k]);
      runSeconds_[p] += seconds[i];
      windows_ += static_cast<double>(results[i].windows);
      sampledInsts_ += static_cast<double>(results[i].sampledInsts);
      totalInsts_ += static_cast<double>(results[i].totalInsts);
      // The counters cover the detailed windows only; so does their cycle
      // base (sim.cycles holds the extrapolated whole-run estimate).
      std::map<std::string, std::int64_t> c = results[i].stats.all();
      c["sim.cycles"] = c["sample.detailedCycles"];
      addCounters(counters_[p], c);
    }
    return r;
  }

  std::vector<Metric> perLayer() override {
    const double n = tracedPasses_ == 0 ? 1.0 : tracedPasses_;
    std::vector<Metric> m = compileMetrics(times_);
    double ffwd = 0, plain = 0, run = 0;
    for (double f : ffwd_) ffwd += f * static_cast<double>(nPolicies());
    for (double f : funcsim_) plain += f;
    double funcsimInsts = 0;
    for (std::size_t k = 0; k < kernels().size(); ++k)
      funcsimInsts += static_cast<double>(estimates_[k * nPolicies()].insts);
    for (const std::string& p : policyNames()) {
      m.push_back({"sampling.run_s." + p, runSeconds_[p] / n, "s"});
      run += runSeconds_[p] / n;
    }
    m.push_back({"uarch.ffwd_s", ffwd, "s"});
    m.push_back({"uarch.funcsim_mips",
                 plain == 0 ? 0.0 : funcsimInsts / plain / 1e6, "Minst/s"});
    m.push_back({"sampling.window_s", run - ffwd, "s"});
    m.push_back({"sampling.detail_frac",
                 totalInsts_ == 0 ? 0.0 : sampledInsts_ / totalInsts_,
                 "ratio"});
    m.push_back({"sampling.windows", windows_ / n, "count"});
    for (Metric& c : countMetrics(counters_)) m.push_back(std::move(c));
    return m;
  }

  std::uint64_t verify(std::vector<std::string>& problems) override {
    problems.insert(problems.end(), problems_.begin(), problems_.end());
    if (estimates_.empty()) return 0;
    std::uint64_t failed = 0;
    // Every run's instruction count equals the functional simulator's.
    std::vector<std::uint64_t> counts(kernels().size(), 0);
    parallelFor(kernels().size(), s_.threads, [&](std::size_t k) {
      lev::uarch::FuncSim fs(programs_[k].predecoded->program());
      counts[k] = fs.run();
    });
    for (std::size_t i = 0; i < estimates_.size(); ++i)
      if (estimates_[i].insts != counts[i / nPolicies()]) {
        ++failed;
        problems.push_back(runName(i) + " totalInsts " +
                           std::to_string(estimates_[i].insts) +
                           " != FuncSim " +
                           std::to_string(counts[i / nPolicies()]));
      }
    // At the default seed, the estimates equal the recorded reference.
    if (s_.seed == kDefaultSeed) {
      const std::string path =
          s_.root + "/perfbench/data/sampled_long_seed42.txt";
      std::ifstream in(path);
      std::map<std::string, Estimate> want;
      std::string name;
      Estimate e;
      while (in >> name >> e.cycles >> e.insts) want[name] = e;
      for (std::size_t i = 0; i < estimates_.size(); ++i) {
        const auto it = want.find(runName(i));
        if (it == want.end() || it->second != estimates_[i]) {
          ++failed;
          problems.push_back(runName(i) + " estimatedCycles " +
                             std::to_string(estimates_[i].cycles) +
                             " differs from " + path);
        }
      }
    }
    // The lines a reference file is made of, after "estimate ".
    for (std::size_t i = 0; i < estimates_.size(); ++i)
      std::cout << "estimate " << runName(i) << ' ' << estimates_[i].cycles
                << ' ' << estimates_[i].insts << '\n';
    return failed;
  }

private:
  static std::string runName(std::size_t i) {
    return kernels()[i / nPolicies()] + "/" +
           policyNames()[i % nPolicies()];
  }

  Settings s_;
  CompileTimes times_;
  std::vector<Prepared> programs_;
  std::vector<double> ffwd_, funcsim_;
  std::vector<Estimate> estimates_; ///< first pass, per kernel x policy
  std::vector<std::string> problems_;
  int tracedPasses_ = 0;
  std::map<std::string, double> runSeconds_;
  double windows_ = 0, sampledInsts_ = 0, totalInsts_ = 0;
  std::map<std::string, std::map<std::string, std::int64_t>> counters_;
};

} // namespace

std::unique_ptr<Workload> makeSampledLong(const Settings& s) {
  return std::make_unique<SampledLong>(s);
}

} // namespace levbench
