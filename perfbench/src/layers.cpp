#include "layers.hpp"

#include "backend/regalloc.hpp"
#include "ir/passes.hpp"
#include "ir/verifier.hpp"
#include "levioso/annotation.hpp"
#include "levioso/branchdeps.hpp"

namespace levbench {

const std::vector<std::string>& layerNames() {
  static const std::vector<std::string> kNames = {
      kWorkloads, kIr,       kLevioso,  kBackend,  kPredecode, kSim,
      kRunner,    kFuzz,     kSecurity, kSampling, kFuncsim};
  return kNames;
}

void CompileTimes::add(const CompileTimes& o) {
  build += o.build;
  compile += o.compile;
  predecode += o.predecode;
  optimize += o.optimize;
  analysis += o.analysis;
  encode += o.encode;
  regalloc += o.regalloc;
  textInsts += o.textInsts;
}

void CompileTimes::attribute(Tracer& tracer, int span, bool withBuild,
                             bool withPredecode) const {
  if (withBuild) tracer.attribute(span, kWorkloads, build);
  tracer.attribute(span, kIr, optimize);
  tracer.attribute(span, kLevioso, analysis + encode);
  tracer.attribute(span, kBackend, regalloc + lower());
  if (withPredecode) tracer.attribute(span, kPredecode, predecode);
}

double timed(Tracer* tracer, const std::string& span,
             const std::string& layer, const std::function<void()>& fn) {
  ScopedSpan s(tracer, span, layer);
  const Clock::time_point t0 = Clock::now();
  fn();
  return secondsSince(t0);
}

Prepared prepare(const std::function<lev::ir::Module()>& build,
                 const std::string& buildSpan, const std::string& buildLayer,
                 Tracer* tracer, CompileTimes& times) {
  Prepared p;
  lev::ir::Module mod;
  times.build += timed(tracer, buildSpan, buildLayer, [&] { mod = build(); });
  times.compile += timed(tracer, "backend::compile", kBackend, [&] {
    p.compiled = std::make_unique<lev::backend::CompileResult>(
        lev::backend::compile(mod));
  });
  times.predecode +=
      timed(tracer, "uarch::PredecodedProgram", kPredecode, [&] {
        p.predecoded = std::make_unique<lev::uarch::PredecodedProgram>(
            p.compiled->program);
      });
  times.textInsts += p.compiled->program.text.size();
  return p;
}

void retimeSublayers(lev::ir::Module mod, Tracer* tracer,
                     CompileTimes& times) {
  const lev::backend::CompileOptions opts;
  times.optimize += timed(tracer, "ir::optimize", kIr,
                          [&] { lev::ir::optimize(mod); });
  for (const auto& fn : mod.functions()) fn->renumber();
  lev::ir::verify(mod);
  for (const auto& fn : mod.functions()) {
    std::unique_ptr<lev::levioso::BranchDepAnalysis> analysis;
    times.analysis +=
        timed(tracer, "levioso::BranchDepAnalysis", kLevioso, [&] {
          analysis = std::make_unique<lev::levioso::BranchDepAnalysis>(
              mod, *fn, opts.depOptions);
        });
    times.encode +=
        timed(tracer, "levioso::encodeAnnotations", kLevioso, [&] {
          lev::levioso::encodeAnnotations(*analysis, *fn,
                                          opts.annotationBudget);
        });
    times.regalloc +=
        timed(tracer, "backend::allocateRegisters", kBackend,
              [&] { lev::backend::allocateRegisters(*fn); });
  }
}

std::vector<Metric> compileMetrics(const CompileTimes& t) {
  return {
      {"workloads.build_s", t.build, "s"},
      {"backend.compile_s", t.compile, "s"},
      {"ir.optimize_s", t.optimize, "s"},
      {"levioso.analysis_s", t.analysis, "s"},
      {"levioso.encode_s", t.encode, "s"},
      {"backend.regalloc_s", t.regalloc, "s"},
      {"backend.lower_s", t.lower(), "s"},
      {"backend.text_insts", static_cast<double>(t.textInsts), "count"},
      {"uarch.predecode_s", t.predecode, "s"},
  };
}

} // namespace levbench
