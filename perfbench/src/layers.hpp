// The compile-side layers as the benchmark sees them: build a module,
// compile it, predecode it, each call timed from outside; and the
// sub-layer re-timing that calls the passes inside backend::compile one by
// one on an identical copy of the module.
#pragma once
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/compiler.hpp"
#include "bench.hpp"
#include "ir/ir.hpp"
#include "uarch/predecode.hpp"

namespace levbench {

// Layer names of the layer-share table (perfbench/README.md).
inline const std::string kWorkloads = "workloads";
inline const std::string kIr = "ir";
inline const std::string kLevioso = "levioso";
inline const std::string kBackend = "backend";
inline const std::string kPredecode = "uarch.predecode";
inline const std::string kSim = "sim";
inline const std::string kRunner = "runner";
inline const std::string kFuzz = "fuzz";
inline const std::string kSecurity = "security";
inline const std::string kSampling = "sampling";
inline const std::string kFuncsim = "uarch.funcsim";
inline const std::string kIdle = "idle";

/// The named layers, in table order (everything except kIdle).
const std::vector<std::string>& layerNames();

/// Seconds spent in each compile-side call, summed over modules.
struct CompileTimes {
  double build = 0;     ///< module construction (buildKernel, progen)
  double compile = 0;   ///< backend::compile
  double predecode = 0; ///< uarch::PredecodedProgram
  // Sub-layers of compile, re-timed on a copy of the module.
  double optimize = 0;  ///< ir::optimize
  double analysis = 0;  ///< levioso::BranchDepAnalysis (with CFG analyses)
  double encode = 0;    ///< levioso::encodeAnnotations
  double regalloc = 0;  ///< backend::allocateRegisters
  std::uint64_t textInsts = 0;

  void add(const CompileTimes& o);
  /// backend::compile minus the four re-timed sub-layers.
  double lower() const {
    return compile - optimize - analysis - encode - regalloc;
  }
  /// Moves a compile-job span's time into its layers: build to workloads,
  /// the sub-layers to ir/levioso/backend, predecode to uarch.predecode
  /// (each component only if `withBuild` / `withPredecode`).
  void attribute(Tracer& tracer, int span, bool withBuild,
                 bool withPredecode) const;
};

/// A compiled and predecoded module. The PredecodedProgram points into the
/// CompileResult, so both live on the heap together.
struct Prepared {
  std::unique_ptr<lev::backend::CompileResult> compiled;
  std::unique_ptr<lev::uarch::PredecodedProgram> predecoded;
};

/// Build (via `build`, traced as `buildSpan` in the workloads or fuzz
/// layer), compile and predecode one module, adding the times to `times`.
Prepared prepare(const std::function<lev::ir::Module()>& build,
                 const std::string& buildSpan, const std::string& buildLayer,
                 Tracer* tracer, CompileTimes& times);

/// Runs the passes of backend::compile one by one on `mod` (a fresh copy
/// of a module) with default options, adding their times to `times`.
void retimeSublayers(lev::ir::Module mod, Tracer* tracer,
                     CompileTimes& times);

/// workloads.build_s, backend.compile_s, the sub-layer times,
/// backend.lower_s, backend.text_insts and uarch.predecode_s.
std::vector<Metric> compileMetrics(const CompileTimes& t);

/// A seconds-valued timer around `fn`, recorded as a span when traced.
double timed(Tracer* tracer, const std::string& span,
             const std::string& layer, const std::function<void()>& fn);

} // namespace levbench
