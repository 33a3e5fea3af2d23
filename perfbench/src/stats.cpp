#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "bench.hpp"

namespace levbench {

void parallelFor(std::size_t n, int threads,
                 const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex errMu;
  std::exception_ptr firstError; // guarded by errMu
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(errMu);
        if (!firstError) firstError = std::current_exception();
      }
    }
  };
  {
    std::vector<std::jthread> pool; // joined on scope exit
    for (int w = 1; w < threads; ++w) pool.emplace_back(worker);
    worker();
  }
  if (firstError) std::rethrow_exception(firstError);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void addCounters(std::map<std::string, std::int64_t>& into,
                 const std::map<std::string, std::int64_t>& from) {
  for (const auto& [name, value] : from) into[name] += value;
}

namespace {

double get(const std::map<std::string, std::int64_t>& c,
           const std::string& name) {
  const auto it = c.find(name);
  return it == c.end() ? 0.0 : static_cast<double>(it->second);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

} // namespace

std::vector<Metric> countMetrics(
    const std::map<std::string, std::map<std::string, std::int64_t>>&
        perPolicy) {
  std::vector<Metric> out;
  std::map<std::string, std::int64_t> all;
  for (const std::string& p : policyNames()) {
    const auto it = perPolicy.find(p);
    const std::map<std::string, std::int64_t> none;
    const auto& c = it == perPolicy.end() ? none : it->second;
    addCounters(all, c);
    out.push_back({"core.stall_frac." + p,
                   ratio(get(c, "commit.stallCycles"), get(c, "sim.cycles")),
                   "ratio"});
    out.push_back({"policy.delay_per_inst." + p,
                   ratio(get(c, "policy.loadDelayCycles") +
                             get(c, "policy.execDelayCycles"),
                         get(c, "commit.insts")),
                   "cycles/inst"});
  }
  out.push_back({"core.fetch_useful_frac",
                 ratio(get(all, "commit.insts"), get(all, "fetch.insts")),
                 "ratio"});
  out.push_back({"core.issue_useful_frac",
                 ratio(get(all, "commit.insts"), get(all, "issue.insts")),
                 "ratio"});
  out.push_back({"cache.l1d_miss_rate",
                 ratio(get(all, "l1d.misses"),
                       get(all, "l1d.hits") + get(all, "l1d.misses")),
                 "ratio"});
  out.push_back({"cache.l2_miss_rate",
                 ratio(get(all, "l2.misses"),
                       get(all, "l2.hits") + get(all, "l2.misses")),
                 "ratio"});
  out.push_back({"bp.mispredicts_per_kinst",
                 1000.0 * ratio(get(all, "bp.mispredicts"),
                                get(all, "commit.insts")),
                 "1/kinst"});
  return out;
}

} // namespace levbench
