// security_fuzz: progen programs (fresh ones every pass, seeds from the
// benchmark seed), each run through fuzz::checkProgram — all seven
// policies under the oracle, cross-checked against the IR interpreter —
// plus the 21-run attack matrix (3 gadgets x 7 policies). The compile
// layers do a large share of the work here and almost none in fig3_grid.
// Gates: every checked program is clean(), and the attack verdicts equal
// EXPERIMENTS.md T3.
#include "fuzz/oracle.hpp"
#include "fuzz/progen.hpp"
#include "ir/interp.hpp"
#include "layers.hpp"
#include "security/attack.hpp"
#include "sim/simulation.hpp"
#include "workloads/gadgets.hpp"

namespace levbench {
namespace {

/// Programs checked per pass.
constexpr std::size_t kPrograms = 400;

const std::vector<std::string>& gadgetNames() {
  static const std::vector<std::string> kNames = {
      "spectre_v1", "spectre_v2", "nonspec_secret"};
  return kNames;
}

/// EXPERIMENTS.md T3: unsafe leaks everywhere; the taint-based schemes
/// (stt, levioso-lite) also leak the committed secret of spectre_v2 and
/// nonspec_secret; everything else is blocked.
bool expectLeak(const std::string& gadget, const std::string& policy) {
  if (policy == "unsafe") return true;
  return gadget != "spectre_v1" &&
         (policy == "stt" || policy == "levioso-lite");
}

lev::security::AttackResult attack(const std::string& gadget,
                                   const std::string& policy,
                                   Tracer* tracer) {
  if (gadget == "spectre_v2") {
    std::unique_ptr<lev::workloads::GadgetBinary> g;
    timed(tracer, "workloads::buildSpectreV2", kWorkloads, [&] {
      g = std::make_unique<lev::workloads::GadgetBinary>(
          lev::workloads::buildSpectreV2(0));
    });
    ScopedSpan span(tracer, "security::runAttack", kSecurity);
    return lev::security::runAttack(*g, policy);
  }
  std::unique_ptr<lev::workloads::Gadget> g;
  timed(tracer, "workloads::build" + gadget, kWorkloads, [&] {
    g = std::make_unique<lev::workloads::Gadget>(
        gadget == "spectre_v1" ? lev::workloads::buildSpectreV1(0)
                               : lev::workloads::buildNonSpecSecret(0));
  });
  ScopedSpan span(tracer, "security::runAttack", kSecurity);
  return lev::security::runAttack(*g, policy);
}

/// What re-timing one program's checkProgram from outside measured.
struct ProgramRetime {
  double interp = 0;  ///< ir::Interpreter::run
  double sim = 0;     ///< plain Simulation construction + run, 7 policies
  CompileTimes compile; ///< 7 compiles, and their sub-layers on copies
  std::map<std::string, double> runSeconds;  ///< Simulation::run per policy
  std::map<std::string, std::uint64_t> cycles, insts;
  std::map<std::string, std::map<std::string, std::int64_t>> counters;
};

class SecurityFuzz final : public Workload {
public:
  explicit SecurityFuzz(const Settings& s) : s_(s) {
    retimes_.resize(kPrograms);
  }

  void setup(Tracer* tracer) override {
    // The inputs: every program generated, compiled and predecoded once,
    // and the three gadgets built.
    setupTimes_ = CompileTimes{};
    for (std::size_t i = 0; i < kPrograms; ++i)
      prepare([&] { return lev::fuzz::ProgramGen(seed(0, i)).generate(); },
              "fuzz::ProgramGen::generate", kFuzz, tracer, setupTimes_);
    // workloads.build_s is the gadgets' build; progen is the fuzz layer.
    setupTimes_.build =
        timed(tracer, "workloads::buildGadgets", kWorkloads, [] {
          lev::workloads::buildSpectreV1(0);
          lev::workloads::buildSpectreV2(0);
          lev::workloads::buildNonSpecSecret(0);
        });
  }

  void retime(Tracer& tracer) override {
    ScopedSpan root(&tracer, "retime security_fuzz", kIdle, -1, s_.threads);
    parallelFor(kPrograms, s_.threads, [&](std::size_t i) {
      ScopedSpan span(&tracer, "retime program", kIdle, root.id());
      retimeProgram(seed(0, i), &tracer, retimes_[i]);
    });
  }

  PassResult pass(Tracer* tracer, int passSpan) override {
    const std::size_t nPolicies = policyNames().size();
    const std::size_t nTasks = kPrograms + gadgetNames().size() * nPolicies;
    std::vector<double> checkMillis(kPrograms, 0.0);
    std::vector<double> genSeconds(kPrograms, 0.0);
    std::vector<std::uint64_t> insts(kPrograms, 0);
    std::vector<int> checkSpans(kPrograms, -1);
    std::vector<char> bad(nTasks, 0);
    std::vector<double> attackSeconds(nTasks, 0.0);
    std::vector<std::string> why(nTasks);

    // An untraced run checks fresh programs in every pass, so one run covers
    // thousands of distinct programs. A traced run repeats the first pass's
    // programs, the ones retime() measured.
    const std::size_t set = s_.trace ? 0 : passes_++;
    PassResult r;
    const Clock::time_point t0 = Clock::now();
    parallelFor(nTasks, s_.threads, [&](std::size_t i) {
      try {
        if (i < kPrograms) {
          const std::uint64_t progSeed = seed(set, i);
          double& gen = genSeconds[i];
          const auto factory = [progSeed, tracer, &gen] {
            lev::ir::Module m;
            gen += timed(tracer, "fuzz::ProgramGen::generate", kFuzz, [&] {
              m = lev::fuzz::ProgramGen(progSeed).generate();
            });
            return m;
          };
          ScopedSpan span(tracer, "fuzz::checkProgram", kFuzz,
                          passSpan);
          checkSpans[i] = span.id();
          const Clock::time_point c0 = Clock::now();
          const lev::fuzz::CheckResult res =
              lev::fuzz::checkProgram(factory, lev::fuzz::CheckOptions{});
          checkMillis[i] = secondsSince(c0) * 1000.0;
          for (const auto& run : res.runs) insts[i] += run.insts;
          if (!res.clean()) {
            bad[i] = 1;
            why[i] = "program seed " + std::to_string(progSeed) + ": " +
                     std::to_string(res.totalViolations()) +
                     " violations, " +
                     std::to_string(res.totalDivergences()) +
                     " divergences" +
                     (res.simFailed ? ", sim failed: " + res.simError : "");
          }
        } else {
          const std::size_t a = i - kPrograms;
          const std::string& gadget = gadgetNames()[a / nPolicies];
          const std::string& policy = policyNames()[a % nPolicies];
          ScopedSpan span(tracer, "attack " + gadget + "/" + policy, kIdle,
                          passSpan);
          const Clock::time_point a0 = Clock::now();
          const bool leaked = attack(gadget, policy, tracer).leaked;
          attackSeconds[i] = secondsSince(a0);
          if (leaked != expectLeak(gadget, policy)) {
            bad[i] = 1;
            why[i] = "attack " + gadget + "/" + policy +
                     (leaked ? " leaked" : " was blocked") +
                     ", EXPERIMENTS.md T3 says otherwise";
          }
        }
      } catch (const std::exception& e) {
        bad[i] = 1;
        why[i] = std::string("task threw: ") + e.what();
      }
    });
    r.wallSeconds = secondsSince(t0);

    for (std::size_t i = 0; i < nTasks; ++i) {
      ++r.attempted;
      if (bad[i] != 0) {
        ++r.failed;
        problems_.push_back(why[i]);
      }
    }
    for (std::size_t i = 0; i < kPrograms; ++i) {
      r.insts += insts[i];
      r.runMillis.push_back(checkMillis[i]);
    }
    if (tracer == nullptr) return r;

    // Traced: checkProgram is one opaque call; split each one into its
    // layers by the re-timed interpreter, compiles and plain simulations
    // of the same program. What remains is the oracle (fuzz layer).
    ++tracedPasses_;
    for (std::size_t i = 0; i < kPrograms; ++i) {
      const ProgramRetime& rt = retimes_[i];
      if (checkSpans[i] < 0) continue;
      tracer->attribute(checkSpans[i], kIr, rt.interp);
      rt.compile.attribute(*tracer, checkSpans[i], /*withBuild=*/false,
                           /*withPredecode=*/false);
      tracer->attribute(checkSpans[i], kSim, rt.sim);
      genSeconds_ += genSeconds[i];
      checkSeconds_ += checkMillis[i] / 1000.0;
    }
    for (const double a : attackSeconds) attackSeconds_ += a;
    return r;
  }

  std::vector<Metric> perLayer() override {
    const double n = tracedPasses_ == 0 ? 1.0 : tracedPasses_;
    ProgramRetime all;
    for (const ProgramRetime& rt : retimes_) {
      all.interp += rt.interp;
      all.sim += rt.sim;
      all.compile.add(rt.compile);
      for (const std::string& p : policyNames()) {
        all.runSeconds[p] += rt.runSeconds.at(p);
        all.cycles[p] += rt.cycles.at(p);
        all.insts[p] += rt.insts.at(p);
        addCounters(all.counters[p], rt.counters.at(p));
      }
    }
    // The timed phase's compiles (seven per checked program), with the
    // setup's gadget build and predecode.
    CompileTimes compile = all.compile;
    compile.build = setupTimes_.build;
    compile.predecode = setupTimes_.predecode;
    std::vector<Metric> m = compileMetrics(compile);
    const double check = checkSeconds_ / n;
    const double gen = genSeconds_ / n;
    m.push_back({"fuzz.gen_s", gen, "s"});
    m.push_back({"ir.interp_s", all.interp, "s"});
    m.push_back({"fuzz.check_s", check, "s"});
    m.push_back({"fuzz.sim_s", all.sim, "s"});
    m.push_back({"fuzz.oracle_s",
                 check - gen - all.compile.compile - all.interp - all.sim,
                 "s"});
    m.push_back({"security.attack_s", attackSeconds_ / n, "s"});
    for (const std::string& p : policyNames()) {
      const double sec = all.runSeconds[p];
      const auto cyc = static_cast<double>(all.cycles[p]);
      const auto ins = static_cast<double>(all.insts[p]);
      m.push_back({"sim.run_s." + p, sec, "s"});
      m.push_back({"sim.ns_per_cycle." + p, cyc == 0 ? 0.0 : sec * 1e9 / cyc,
                   "ns"});
      m.push_back({"sim.ns_per_inst." + p, ins == 0 ? 0.0 : sec * 1e9 / ins,
                   "ns"});
    }
    for (Metric& c : countMetrics(all.counters)) m.push_back(std::move(c));
    return m;
  }

  std::uint64_t verify(std::vector<std::string>& problems) override {
    problems.insert(problems.end(), problems_.begin(), problems_.end());
    return 0;
  }

private:
  /// Progen seed of program `i` of program set `set`, from the benchmark
  /// seed.
  std::uint64_t seed(std::size_t set, std::size_t i) const {
    return (s_.seed << 32) + set * kPrograms + i;
  }

  /// checkProgram's work, call by call, without the oracle: the reference
  /// interpreter, then per policy a fresh module, compile and a plain
  /// (undecorated) simulation; plus the compile's sub-layers on a copy.
  void retimeProgram(std::uint64_t progSeed, Tracer* tracer,
                     ProgramRetime& rt) {
    const auto gen = [progSeed] {
      return lev::fuzz::ProgramGen(progSeed).generate();
    };
    {
      const lev::ir::Module mod = gen();
      rt.interp = timed(tracer, "ir::Interpreter::run", kIr, [&] {
        lev::ir::Interpreter interp(mod);
        interp.run(lev::fuzz::CheckOptions{}.maxInterpInsts);
      });
    }
    for (const std::string& p : policyNames()) {
      lev::ir::Module mod = gen();
      std::unique_ptr<lev::backend::CompileResult> res;
      rt.compile.compile += timed(tracer, "backend::compile", kBackend, [&] {
        res = std::make_unique<lev::backend::CompileResult>(
            lev::backend::compile(mod));
      });
      rt.compile.textInsts += res->program.text.size();
      retimeSublayers(gen(), tracer, rt.compile);
      const lev::uarch::CoreConfig cfg;
      const Clock::time_point s0 = Clock::now();
      lev::sim::Simulation sim(res->program, cfg, p);
      rt.runSeconds[p] = timed(tracer, "sim::Simulation::run", kSim,
                               [&] { sim.run(); });
      rt.sim += secondsSince(s0);
      rt.cycles[p] = sim.core().cycle();
      rt.insts[p] = sim.core().committedInsts();
      rt.counters[p] = sim.stats().all();
    }
  }

  Settings s_;
  std::size_t passes_ = 0;
  CompileTimes setupTimes_;
  std::vector<ProgramRetime> retimes_;
  std::vector<std::string> problems_;
  int tracedPasses_ = 0;
  double genSeconds_ = 0, checkSeconds_ = 0, attackSeconds_ = 0;
};

} // namespace

std::unique_ptr<Workload> makeSecurityFuzz(const Settings& s) {
  return std::make_unique<SecurityFuzz>(s);
}

} // namespace levbench
