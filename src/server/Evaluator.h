//===- Evaluator.h - Serve back end of the lowered form ---------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve-mode execution tier: runs a cached program's lowered form
/// (transform/Lowered.h) in-process, with no C compiler round-trip. The
/// transformer lowers each function once and `igen` prints C from the
/// same nodes, so the evaluator re-derives nothing: each interval op
/// calls the runtime function the `--target=ss` artifact's `ia_*` call
/// runs, in the same order under FE_UPWARD. Eval results are therefore
/// bit-identical to the AOT `--target=ss` artifact of the same compile
/// options, at `-O0` and at `-O` alike (sign-specialized ops, FMA
/// fusion, CSE/hoist temps, `_fast` kernels, sign-versioned loops and
/// row kernels included); ExecServeCompareTest pins this. The branch
/// policy and the reduction transformation are compile options, fixed
/// in the lowered form. Lines that only exist in the emitted C are
/// skipped: the harden fenv checks (the daemon checks the environment
/// per request itself) and the --tier snapshot and escalation (a served
/// tier wrapper returns its f64i result and never escalates).
///
/// Anything outside the f64 scalar subset (double-double precision,
/// SIMD vectors, external calls, allocation) produces a *typed* error —
/// never an abort — so a hostile or unlucky request cannot take the
/// daemon down. Every memory access is bounds-checked (a row-kernel or
/// batch-loop call checks its whole rows before it runs). All state is
/// per-call; the evaluator is re-entrant and safe to run concurrently on
/// many threads against one shared program.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_SERVER_EVALUATOR_H
#define IGEN_SERVER_EVALUATOR_H

#include "interval/Interval.h"
#include "transform/Pipeline.h"

#include <chrono>
#include <string>
#include <vector>

namespace igen {

class FunctionDecl;

namespace server {

/// One evaluation argument. Scalars carry an interval (points are
/// degenerate intervals); integer parameters take \c IntValue; array and
/// pointer parameters take \c Elements (mutated in place, returned to
/// the caller as an output).
struct EvalArg {
  enum class Kind { Scalar, Int, Array, Tolerance };
  Kind K = Kind::Scalar;
  Interval Scalar = Interval::fromPoint(0.0);
  long long IntValue = 0;
  /// Tolerance parameters keep their scalar double in the signature;
  /// the evaluator applies the declared +-tol widening itself.
  double Point = 0.0;
  std::vector<Interval> Elements;
};

/// Typed evaluation failure. Codes are stable protocol vocabulary:
///   unsupported        construct outside the interpretable subset
///   unknown-branch     a branch condition evaluated to TBool::Unknown
///   bad-argument       argument count/shape does not match the signature
///   no-such-function   the cached program has no such defined function
///   out-of-bounds      an array access (or a row-kernel or batch-loop
///                      row) reaches outside its buffer
///   step-limit         runaway loop tripped the per-request step budget
///   recursion-limit    call depth exceeded the per-request bound
///   int-div-zero       integer division or remainder by zero
///   deadline-exceeded  the request's wall-clock deadline passed; checked
///                      cooperatively at loop back-edges and call entries,
///                      so the worker survives and keeps serving
struct EvalError {
  std::string Code;
  std::string Message;
};

struct EvalResult {
  bool Ok = false;
  EvalError Error; ///< set when !Ok

  bool HasReturn = false;
  bool ReturnIsInt = false;
  Interval Return = Interval::fromPoint(0.0);
  long long ReturnInt = 0;
  /// Post-call contents of every Array argument, in argument order.
  std::vector<std::vector<Interval>> ArrayOutputs;
  /// Units of work executed, as the step budget counts them: one per
  /// lowered expression and statement node, one per loop iteration and
  /// one per element a row-kernel or batch-loop call processes.
  unsigned long long OpsExecuted = 0;
};

/// Per-request knobs, mirroring the IGEN_* environment the AOT runtime
/// reads globally — isolated here so concurrent tenants cannot leak
/// options into each other. Lowering choices (branch policy, reductions,
/// optimization level) are not here: they are compile options, part of
/// the program.
struct EvalOptions {
  /// Harden prologue: poison (return whole line) instead of evaluating
  /// when the FP environment was found dirty on entry. The caller does
  /// the actual sentinel check; this just tells the evaluator the
  /// verdict.
  bool PoisonedEntry = false;
  /// Abort evaluation after this many executed operations.
  unsigned long long StepLimit = 50u * 1000u * 1000u;
  /// Maximum user-function call depth.
  unsigned MaxCallDepth = 128;
  /// Wall-clock deadline (monotonic). When HasDeadline, the evaluator
  /// polls the clock at call entries and (amortized, every few hundred
  /// ops) at loop back-edges, yielding a typed "deadline-exceeded"
  /// error. Disabled requests pay one integer compare per op, nothing
  /// more — measured in bench/serve_bench's deadline rows.
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline{};
};

/// Evaluates \p Function from \p Prog on \p Args. The caller must hold a
/// sound upward-rounding scope (RoundUpwardScope) for the duration of
/// the call; the serve layer pairs that with its fenv sentinel.
EvalResult evalFunction(const InMemoryProgram &Prog,
                        const std::string &Function,
                        const std::vector<EvalArg> &Args,
                        const EvalOptions &Opts);

/// Signature probe used for argument marshalling and error messages:
/// describes parameter kinds of \p Function ("interval", "int", "array",
/// "tolerance:<spelling>"), or empty + false if not defined.
bool describeFunction(const InMemoryProgram &Prog, const std::string &Function,
                      std::vector<std::string> &ParamKinds,
                      std::string &ReturnKind);

} // namespace server
} // namespace igen

#endif // IGEN_SERVER_EVALUATOR_H
