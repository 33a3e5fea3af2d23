#include "spans.hpp"

#include <atomic>
#include <chrono>
#include <iomanip>
#include <iterator>

namespace levbench {

namespace {

std::int64_t steadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Small dense id of the calling thread (Chrome trace track).
int threadId() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

/// Open spans of the calling thread, innermost last.
std::vector<int>& openSpans() {
  thread_local std::vector<int> stack;
  return stack;
}

void writeEscaped(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

} // namespace

Tracer::Tracer(std::uint64_t runId) : runId_(runId), epochNs_(steadyNs()) {}

std::int64_t Tracer::nowNs() const { return steadyNs() - epochNs_; }

int Tracer::begin(std::string name, std::string layer, int parent,
                  int lanes) {
  std::vector<int>& open = openSpans();
  if (parent < 0 && !open.empty()) parent = open.back();
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.parent = parent;
  s.tid = threadId();
  s.lanes = lanes;
  s.startNs = nowNs();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  open.push_back(id);
  return id;
}

void Tracer::end(int id) {
  const std::int64_t t = nowNs();
  std::vector<int>& open = openSpans();
  for (auto it = open.rbegin(); it != open.rend(); ++it)
    if (*it == id) {
      open.erase(std::next(it).base());
      break;
    }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].endNs = t;
}

int Tracer::add(std::string name, std::string layer, std::int64_t startNs,
                std::int64_t endNs, int parent, int tid) {
  Span s;
  s.name = std::move(name);
  s.layer = std::move(layer);
  s.startNs = startNs;
  s.endNs = endNs;
  s.parent = parent;
  s.tid = tid;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::attribute(int id, const std::string& layer, double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].parts.emplace_back(layer, seconds);
}

double Tracer::durationSeconds(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.endNs - s.startNs) * 1e-9;
}

std::map<std::string, double> Tracer::layerSeconds(int root) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<int>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));

  std::map<std::string, double> out;
  std::vector<int> todo = {root};
  while (!todo.empty()) {
    const int id = todo.back();
    todo.pop_back();
    const Span& s = spans_[static_cast<std::size_t>(id)];
    double self = static_cast<double>(s.endNs - s.startNs) * 1e-9 * s.lanes;
    for (const int c : children[static_cast<std::size_t>(id)]) {
      const Span& cs = spans_[static_cast<std::size_t>(c)];
      self -= static_cast<double>(cs.endNs - cs.startNs) * 1e-9 * cs.lanes;
      todo.push_back(c);
    }
    for (const auto& [layer, seconds] : s.parts) {
      out[layer] += seconds;
      self -= seconds;
    }
    out[s.layer] += self;
  }
  return out;
}

void Tracer::writeChromeTrace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << std::fixed << std::setprecision(3);
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i != 0) os << ',';
    os << "\n{\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":"
       << static_cast<double>(s.startNs) / 1000.0
       << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1000.0
       << ",\"name\":";
    writeEscaped(os, s.name);
    os << ",\"cat\":";
    writeEscaped(os, s.layer);
    os << ",\"args\":{\"run\":\"" << std::hex << runId_ << std::dec
       << "\",\"id\":" << i << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

ScopedSpan::ScopedSpan(Tracer* tracer, std::string name, std::string layer,
                       int parent, int lanes)
    : tracer_(tracer) {
  if (tracer_ != nullptr)
    id_ = tracer_->begin(std::move(name), std::move(layer), parent, lanes);
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ != nullptr) tracer_->end(id_);
}

} // namespace levbench
