// levbench — run one benchmark workload and print its metrics.
//
//   levbench --workload fig3_grid|security_fuzz|sampled_long --seed N
//            --seconds S --trace 0|1 [--root DIR] [--revision REV]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it describe the
// run (host and build record, metric table, layer-share table). Exit codes:
// 0 ran (the JSON says whether the outputs were correct), 2 bad arguments,
// 3 not a Release build, 4 the workload could not run.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "layers.hpp"
#include "runner/job.hpp"

namespace levbench {
namespace {

constexpr int kSetupRepeats = 5;

/// Seconds attributed to each layer in one traced pass, and the thread
/// time the pass had (wall x threads); the shares are their ratio.
struct LayerTable {
  std::map<std::string, double> seconds;
  double capacity = 0.0;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "levbench: " << why << "\n"
            << "usage: levbench --workload fig3_grid|security_fuzz|"
               "sampled_long --seed N --seconds S --trace 0|1 [--root DIR] "
               "[--revision REV]\n";
  std::exit(2);
}

std::uint64_t parseUnsigned(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(v, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != v.size()) usage(flag + " wants a number");
  return n;
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it.
double tailPercentile(std::size_t n) {
  double best = 50.0;
  for (const double p : {90.0, 99.0, 99.9})
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) best = p;
  return best;
}

/// The run-latency tail of the untraced passes. When every pass has 100 or
/// more samples, each pass's own tail is taken and the median of those is
/// reported, so a host stall of a few hundred milliseconds moves one pass
/// and not the result. Otherwise the samples of all passes are pooled.
struct Tail {
  double ms = 0;
  double percentile = 50;
  std::size_t samples = 0; ///< per pass, or pooled
  bool perPass = false;
};

Tail runTail(const std::vector<PassResult>& passes) {
  Tail t;
  std::size_t fewest = std::numeric_limits<std::size_t>::max();
  std::vector<double> pooled;
  for (const PassResult& r : passes) {
    fewest = std::min(fewest, r.runMillis.size());
    pooled.insert(pooled.end(), r.runMillis.begin(), r.runMillis.end());
  }
  t.perPass = passes.size() > 1 && fewest >= 100;
  t.samples = t.perPass ? fewest : pooled.size();
  t.percentile = tailPercentile(t.samples);
  if (!t.perPass) {
    t.ms = percentile(pooled, t.percentile);
    return t;
  }
  std::vector<double> tails;
  for (const PassResult& r : passes)
    tails.push_back(percentile(r.runMillis, t.percentile));
  t.ms = median(tails);
  return t;
}

/// Every per-layer metric, in output order. A traced run prints all of
/// them; a layer its workload does not call reads 0.
std::vector<Metric> perLayerCatalog() {
  std::vector<Metric> m = compileMetrics(CompileTimes{});
  m.push_back({"runner.parallel_eff", 0, "ratio"});
  m.push_back({"runner.queue_wait_p50_ms", 0, "ms"});
  m.push_back({"runner.simulated", 0, "count"});
  m.push_back({"runner.compiles", 0, "count"});
  for (const std::string& p : policyNames()) {
    m.push_back({"sim.run_s." + p, 0, "s"});
    m.push_back({"sim.ns_per_cycle." + p, 0, "ns"});
    m.push_back({"sim.ns_per_inst." + p, 0, "ns"});
  }
  for (Metric& c : countMetrics({})) m.push_back(std::move(c));
  for (const char* name : {"fuzz.gen_s", "ir.interp_s", "fuzz.check_s",
                           "fuzz.sim_s", "fuzz.oracle_s", "security.attack_s"})
    m.push_back({name, 0, "s"});
  for (const std::string& p : policyNames())
    m.push_back({"sampling.run_s." + p, 0, "s"});
  m.push_back({"uarch.ffwd_s", 0, "s"});
  m.push_back({"uarch.funcsim_mips", 0, "Minst/s"});
  m.push_back({"sampling.window_s", 0, "s"});
  m.push_back({"sampling.detail_frac", 0, "ratio"});
  m.push_back({"sampling.windows", 0, "count"});
  for (const std::string& layer : layerNames())
    m.push_back({"share." + layer, 0, "ratio"});
  m.push_back({"share.idle", 0, "ratio"});
  m.push_back({"share.covered", 0, "ratio"});
  m.push_back({"trace.overhead_frac", 0, "ratio"});
  return m;
}

/// `measured` laid out in catalog order, zero where absent. Throws on a
/// metric missing from the catalog or measured in another unit.
std::vector<Metric> inCatalogOrder(const std::vector<Metric>& measured) {
  std::vector<Metric> out = perLayerCatalog();
  std::map<std::string, std::size_t> at;
  for (std::size_t i = 0; i < out.size(); ++i) at[out[i].name] = i;
  for (const Metric& m : measured) {
    const auto it = at.find(m.name);
    if (it == at.end() || out[it->second].unit != m.unit)
      throw std::logic_error("per-layer metric not in the catalog: " +
                             m.name + " [" + m.unit + "]");
    out[it->second].value = m.value;
  }
  return out;
}

void printLayerTable(const std::string& workload, const LayerTable& t,
                     std::vector<Metric>& metrics) {
  std::cout << "layer shares of " << workload
            << "'s traced pass (self time / wall x threads = "
            << number(t.capacity) << " s)\n";
  double covered = 0.0;
  const auto row = [&](const std::string& layer) {
    const auto it = t.seconds.find(layer);
    const double sec = it == t.seconds.end() ? 0.0 : it->second;
    const double share = t.capacity > 0 ? sec / t.capacity : 0.0;
    std::cout << "  " << std::left << std::setw(16) << layer << std::right
              << std::setw(12) << std::fixed << std::setprecision(4) << sec
              << " s " << std::setw(7) << std::setprecision(2)
              << share * 100.0 << " %\n"
              << std::defaultfloat;
    metrics.push_back({"share." + layer, share, "ratio"});
    return share;
  };
  for (const std::string& layer : layerNames()) covered += row(layer);
  row(kIdle);
  metrics.push_back({"share.covered", covered, "ratio"});
  std::cout << "  named layers cover " << std::fixed << std::setprecision(2)
            << covered * 100.0 << " % of wall x threads" << std::defaultfloat
            << (covered < 0.9 ? "  ** FLAG: below the 90 % bar **" : "")
            << "\n";
}

int run(int argc, char** argv) {
  Settings s;
  s.root = ".";
  std::string revision = "unknown";
  bool haveWorkload = false, haveSeed = false, haveSeconds = false,
       haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    if (a == "--workload") {
      s.workload = v;
      haveWorkload = true;
    } else if (a == "--seed") {
      s.seed = parseUnsigned(a, v);
      haveSeed = true;
    } else if (a == "--seconds") {
      s.seconds = static_cast<double>(parseUnsigned(a, v));
      haveSeconds = s.seconds >= 1;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace wants 0 or 1");
      s.trace = v == "1";
      haveTrace = true;
    } else if (a == "--root") {
      s.root = v;
    } else if (a == "--revision") {
      revision = v;
    } else {
      usage("unknown argument " + a);
    }
  }
  if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace)
    usage("--workload, --seed, --seconds (>= 1) and --trace are required");

  const std::string buildType = LEVBENCH_BUILD_TYPE;
  if (buildType != "Release") {
    std::cerr << "levbench: refusing to measure a " << buildType
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  s.threads = static_cast<int>(std::min(4u, nproc));

  std::unique_ptr<Workload> w;
  if (s.workload == "fig3_grid")
    w = makeFig3Grid(s);
  else if (s.workload == "security_fuzz")
    w = makeSecurityFuzz(s);
  else if (s.workload == "sampled_long")
    w = makeSampledLong(s);
  else
    usage("unknown workload " + s.workload);

  const std::uint64_t runId = lev::runner::fnv1a(
      s.workload + "/" + std::to_string(s.seed) + "/" +
      std::to_string(Clock::now().time_since_epoch().count()));
  std::unique_ptr<Tracer> tracer;
  if (s.trace) tracer = std::make_unique<Tracer>(runId);

  // Set-up, several times; the traced run traces the last one.
  std::vector<double> setupSeconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const bool last = i + 1 == kSetupRepeats;
    ScopedSpan span(last ? tracer.get() : nullptr, "setup", kIdle);
    const Clock::time_point t0 = Clock::now();
    w->setup(last ? tracer.get() : nullptr);
    setupSeconds.push_back(secondsSince(t0));
  }
  if (tracer) w->retime(*tracer);

  // Timed passes of fixed work until the next one would overrun the
  // budget. A traced run alternates untraced and traced passes.
  std::vector<PassResult> plain, traced;
  std::vector<double> walls;
  const Clock::time_point start = Clock::now();
  LayerTable table; // of the last traced pass
  for (int n = 0;; ++n) {
    const bool traceThis = tracer != nullptr && n % 2 == 1;
    PassResult r;
    if (traceThis) {
      const int passSpan =
          tracer->begin("pass " + s.workload, kIdle, -1, s.threads);
      r = w->pass(tracer.get(), passSpan);
      tracer->end(passSpan);
      table.seconds = tracer->layerSeconds(passSpan);
      table.capacity = tracer->durationSeconds(passSpan) * s.threads;
    } else {
      r = w->pass(nullptr, -1);
    }
    walls.push_back(r.wallSeconds);
    (traceThis ? traced : plain).push_back(std::move(r));
    const bool enough = static_cast<int>(plain.size()) >= w->minPasses() &&
                        (tracer == nullptr || !traced.empty());
    if (enough && secondsSince(start) + median(walls) > s.seconds) break;
  }

  std::vector<std::string> problems;
  std::uint64_t attempted = 0, failed = w->verify(problems);
  for (const auto* list : {&plain, &traced})
    for (const PassResult& r : *list) {
      attempted += r.attempted;
      failed += r.failed;
    }

  std::vector<double> passWalls, mips, runMillis;
  for (const PassResult& r : plain) {
    passWalls.push_back(r.wallSeconds);
    mips.push_back(static_cast<double>(r.insts) / r.wallSeconds / 1e6);
    runMillis.insert(runMillis.end(), r.runMillis.begin(), r.runMillis.end());
  }
  const Tail tail = runTail(plain);

  std::vector<Metric> metrics;
  if (!tracer) {
    metrics = {
        {"setup_s", median(setupSeconds), "s"},
        {"wall_s", median(passWalls), "s"},
        {"minsts_per_s", median(mips), "Minst/s"},
        {"run_p50_ms", percentile(runMillis, 50), "ms"},
        {"run_tail_ms", tail.ms, "ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_rate",
         attempted == 0 ? 0.0
                        : 1.0 - static_cast<double>(failed) /
                                    static_cast<double>(attempted),
         "ratio"},
    };
  } else {
    metrics = w->perLayer();
    printLayerTable(s.workload, table, metrics);
    std::vector<double> tracedWalls;
    for (const PassResult& r : traced) tracedWalls.push_back(r.wallSeconds);
    metrics.push_back({"trace.overhead_frac",
                       median(tracedWalls) / median(passWalls) - 1.0,
                       "ratio"});
    metrics = inCatalogOrder(metrics);
    const std::string dir = s.root + "/.bench_build/traces";
    const std::string path =
        dir + "/" + s.workload + "-seed" + std::to_string(s.seed) + ".json";
    std::ofstream out(path);
    if (out) {
      tracer->writeChromeTrace(out);
      std::cout << "chrome trace: " << path << "\n";
    }
  }

  for (const std::string& p : problems) std::cout << "FAILED " << p << "\n";
  for (const Metric& m : metrics)
    std::cout << "metric " << std::left << std::setw(34) << m.name
              << std::right << ' ' << number(m.value) << ' ' << m.unit
              << "\n";
  std::cout << "record {\"workload\":" << jsonString(s.workload)
            << ",\"seed\":" << s.seed << ",\"seconds\":" << s.seconds
            << ",\"trace\":" << (s.trace ? 1 : 0) << ",\"nproc\":" << nproc
            << ",\"threads\":" << s.threads
            << ",\"cpu\":" << jsonString(cpuModel())
            << ",\"compiler\":" << jsonString(LEVBENCH_COMPILER)
            << ",\"build_type\":" << jsonString(buildType)
            << ",\"ipo\":" << (LEVBENCH_IPO ? "true" : "false")
            << ",\"revision\":" << jsonString(revision)
            << ",\"passes\":" << plain.size()
            << ",\"traced_passes\":" << traced.size()
            << ",\"run_samples\":" << runMillis.size()
            << ",\"run_tail_percentile\":" << tail.percentile
            << ",\"run_tail_samples\":" << tail.samples
            << ",\"run_tail_per_pass\":" << (tail.perPass ? "true" : "false")
            << "}\n";

  std::cout << "{\"correct\":" << (failed == 0 ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? "," : "") << jsonString(metrics[i].name)
              << ":{\"value\":" << number(metrics[i].value)
              << ",\"unit\":" << jsonString(metrics[i].unit) << "}";
  std::cout << "}}" << std::endl;
  return 0;
}

} // namespace
} // namespace levbench

int main(int argc, char** argv) {
  try {
    return levbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "levbench: " << e.what() << "\n";
    return 4;
  }
}
