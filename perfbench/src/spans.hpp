// In-memory span recorder for levbench's traced runs.
//
// A span is one call the benchmark makes into a layer: a name, the layer it
// belongs to, a start, an end, its parent span and the id of the run it
// belongs to. Spans stay in memory and are written once, at the end of the
// run, as a Chrome trace (chrome://tracing, ui.perfetto.dev).
//
// Self time is a span's duration times its lanes (1, or the worker count
// for a span that fans out over threads) minus its children's durations
// (each times its own lanes), minus any time attribute() moved to another
// layer. attribute() exists for opaque calls such as fuzz::checkProgram,
// whose inner compile/interpreter/simulation share is measured by
// re-timing those calls separately.
#pragma once
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace levbench {

struct Span {
  std::string name;
  std::string layer;
  std::int64_t startNs = 0;
  std::int64_t endNs = -1;
  int parent = -1;
  int tid = 0;   ///< recording thread (trace track)
  int lanes = 1; ///< threads this span's interval stands for
  /// Time moved from this span's self time to other layers.
  std::vector<std::pair<std::string, double>> parts;
};

class Tracer {
public:
  explicit Tracer(std::uint64_t runId);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span; `parent` < 0 means the innermost open span of the
  /// calling thread (or none). Returns the span id.
  int begin(std::string name, std::string layer, int parent = -1,
            int lanes = 1);
  void end(int id);
  /// Records an already-finished span measured elsewhere (the runner's
  /// host spans), with times in nanoseconds on this tracer's clock.
  int add(std::string name, std::string layer, std::int64_t startNs,
          std::int64_t endNs, int parent, int tid);
  /// Moves `seconds` of span `id`'s self time to `layer`.
  void attribute(int id, const std::string& layer, double seconds);

  /// Nanoseconds since this tracer was created.
  std::int64_t nowNs() const;

  /// Seconds of self time per layer over the subtree rooted at `root`;
  /// the root's own self time lands on its layer too.
  std::map<std::string, double> layerSeconds(int root) const;
  double durationSeconds(int id) const;

  /// Chrome trace-event JSON of every span.
  void writeChromeTrace(std::ostream& os) const;

private:
  std::uint64_t runId_;
  std::int64_t epochNs_;
  mutable std::mutex mu_; ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
public:
  ScopedSpan(Tracer* tracer, std::string name, std::string layer,
             int parent = -1, int lanes = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

private:
  Tracer* tracer_;
  int id_ = -1;
};

} // namespace levbench
