//===- Pipeline.cpp - Full IGen compilation pipeline -------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "transform/Lowered.h"

using namespace igen;

InMemoryProgram::InMemoryProgram() = default;
InMemoryProgram::~InMemoryProgram() = default;

namespace {

/// The pipeline behind both entry points. \p KeepLowered: the program
/// keeps its lowered functions (the serve daemon runs them); otherwise
/// each is freed as soon as it is printed.
std::unique_ptr<InMemoryProgram>
compile(std::string_view Source, const TransformOptions &Opts,
        DiagnosticsEngine &Diags, ProfileSiteTable *SitesOut,
        PipelineStage *FailedStage, const PipelineCancelFn &Cancel,
        bool KeepLowered) {
  auto Fail = [&](PipelineStage S) {
    if (FailedStage)
      *FailedStage = S;
    return nullptr;
  };
  // Stage-boundary cancellation: abandoning the pipeline here is the
  // same rollback as a stage error — the partial AST dies with Prog.
  auto Cancelled = [&] { return Cancel && Cancel(); };
  if (FailedStage)
    *FailedStage = PipelineStage::None;
  if (Cancelled())
    return Fail(PipelineStage::Cancelled);
  auto Prog = std::make_unique<InMemoryProgram>();
  Prog->Ast = std::make_unique<ASTContext>();
  Prog->Opts = Opts;
  {
    // The tokens (views of Source) die with the parse, before sema and
    // transform allocate.
    Parser P(Source, *Prog->Ast, Diags);
    if (!P.parseTranslationUnit())
      return Fail(PipelineStage::Parse);
  }
  if (Cancelled())
    return Fail(PipelineStage::Cancelled);
  Sema S(*Prog->Ast, Diags);
  if (!S.run())
    return Fail(PipelineStage::Sema);
  if (Cancelled())
    return Fail(PipelineStage::Cancelled);
  if (KeepLowered)
    Prog->Lowered = std::make_unique<lowered::Program>();
  Prog->EmittedC = transformToIntervals(*Prog->Ast, Diags, Opts, SitesOut,
                                        Prog->Lowered.get());
  if (Diags.hasErrors())
    return Fail(PipelineStage::Transform);
  if (Cancelled())
    return Fail(PipelineStage::Cancelled);
  return Prog;
}

} // namespace

std::unique_ptr<InMemoryProgram>
igen::compileToProgram(std::string_view Source, const TransformOptions &Opts,
                       DiagnosticsEngine &Diags, ProfileSiteTable *SitesOut,
                       PipelineStage *FailedStage,
                       const PipelineCancelFn &Cancel) {
  return compile(Source, Opts, Diags, SitesOut, FailedStage, Cancel,
                 /*KeepLowered=*/true);
}

std::optional<std::string>
igen::compileToIntervals(std::string_view Source,
                         const TransformOptions &Opts,
                         DiagnosticsEngine &Diags,
                         ProfileSiteTable *SitesOut,
                         PipelineStage *FailedStage) {
  auto Prog = compile(Source, Opts, Diags, SitesOut, FailedStage, {},
                      /*KeepLowered=*/false);
  if (!Prog)
    return std::nullopt;
  return std::move(Prog->EmittedC);
}
