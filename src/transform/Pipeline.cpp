//===- Pipeline.cpp - Full IGen compilation pipeline -------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include "frontend/Parser.h"
#include "frontend/Sema.h"

using namespace igen;

InMemoryProgram::InMemoryProgram() = default;
InMemoryProgram::~InMemoryProgram() = default;

std::unique_ptr<InMemoryProgram>
igen::compileToProgram(std::string_view Source, const TransformOptions &Opts,
                       DiagnosticsEngine &Diags, ProfileSiteTable *SitesOut,
                       PipelineStage *FailedStage,
                       const PipelineCancelFn &Cancel) {
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
  Prog->EmittedC = transformToIntervals(*Prog->Ast, Diags, Opts, SitesOut);
  if (Diags.hasErrors())
    return Fail(PipelineStage::Transform);
  if (Cancelled())
    return Fail(PipelineStage::Cancelled);
  return Prog;
}

std::optional<std::string>
igen::compileToIntervals(std::string_view Source,
                         const TransformOptions &Opts,
                         DiagnosticsEngine &Diags,
                         ProfileSiteTable *SitesOut,
                         PipelineStage *FailedStage) {
  auto Prog = compileToProgram(Source, Opts, Diags, SitesOut, FailedStage);
  if (!Prog)
    return std::nullopt;
  return std::move(Prog->EmittedC);
}
