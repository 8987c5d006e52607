//===- OptAnalysis.h - Mid-end facts for interval lowering ------*- C++ -*-===//
//
// Conservative static analysis that runs between Sema and the interval
// transformer. It derives three kinds of information the transformer can
// exploit without ever weakening soundness:
//
//  * Value-range/sign facts per expression node: a ValueFact bounds the
//    endpoints of the runtime enclosure an expression will produce, so the
//    transformer may lower a multiply to the sign-specialized ia_mul_pp /
//    ia_mul_pn / ... variants (which themselves still fall back to the
//    generic op when the precondition does not hold at runtime).
//  * Loop-invariant pure subexpressions per for-statement, so their
//    ia_* call chains can be hoisted in front of the loop header.
//  * Repeated pure subexpressions per statement, so one enclosure can be
//    computed once into a temporary and reused (interval CSE).
//
// All facts are conservative: a missing fact means "unknown", and every
// recorded fact is an over-approximation of the runtime enclosure
// endpoints. Wrong code can never be emitted from a missing fact — only a
// generic (slower) call.
//
//===----------------------------------------------------------------------===//

#ifndef IGEN_OPT_OPTANALYSIS_H
#define IGEN_OPT_OPTANALYSIS_H

#include "frontend/AST.h"

#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace igen {

class WriteSets;

/// A sound bound on the runtime enclosure of a floating expression: every
/// non-NaN endpoint e of the enclosure satisfies Lo <= e <= Hi, and when
/// NoNaN is set the endpoints are additionally guaranteed not to be NaN.
/// The default-constructed fact is Top ("anything, possibly NaN").
struct ValueFact {
  double Lo = -std::numeric_limits<double>::infinity();
  double Hi = std::numeric_limits<double>::infinity();
  bool NoNaN = false;

  static ValueFact top() { return ValueFact(); }
  /// A NaN-free fact with the given endpoint bounds.
  static ValueFact range(double Lo, double Hi) {
    ValueFact F;
    F.Lo = Lo;
    F.Hi = Hi;
    F.NoNaN = true;
    return F;
  }

  bool isTop() const {
    return !NoNaN && Lo == -std::numeric_limits<double>::infinity() &&
           Hi == std::numeric_limits<double>::infinity();
  }

  /// Enclosure is certainly a subset of [0, +inf).
  bool provenNonNeg() const { return NoNaN && Lo >= 0.0; }
  /// Enclosure is certainly a subset of (-inf, 0].
  bool provenNonPos() const { return NoNaN && Hi <= 0.0; }
  /// Enclosure is certainly a subset of (0, +inf) — usable as a divisor.
  bool provenPos() const { return NoNaN && Lo > 0.0; }
  /// Enclosure is certainly a subset of (-inf, 0) — usable as a divisor.
  bool provenNeg() const { return NoNaN && Hi < 0.0; }
};

/// An innermost for-loop whose per-element -O lowering one row-kernel
/// call of igen_lib.h reproduces bit for bit:
///
///   axpy:   for (int j = L; j < U; j++) Y[ey + j] = Y[ey + j] + a * X[ex + j];
///           (or `+= a * X[ex + j]`; a the loop's version variable, so the
///           copies lower to ia_fma_pu/nu/plain(a, X, Y))
///   dot:    for (int j = L; j < U; j++) s = s + X[ex + j] * Z[ez + j];
///           (or `-`, `+=`, `-=`; s a scalar or an element at a fixed
///           location, so the update is an FMA hazard and lowers to
///           ia_add/sub_f64(s, ia_mul_f64(X, Z)))
///
/// j is an int or long declared in the for-init that steps by one; L, U
/// and the offsets are pure, load-free integer expressions the loop does
/// not write; the body is exactly that one statement.
struct RowKernelLoop {
  enum class Kind { Axpy, Dot, DotSub };
  /// `Base[Offset + j]`; Offset is null for `Base[j]`.
  struct Row {
    const DeclRefExpr *Base = nullptr;
    const Expr *Offset = nullptr;
  };
  Kind K = Kind::Axpy;
  /// The loop's only statement.
  const Stmt *Update = nullptr;
  /// The loop runs j = Lower, ..., Upper - 1.
  const Expr *Lower = nullptr;
  const Expr *Upper = nullptr;
  /// axpy: the multiplier a. dot: the accumulator lvalue.
  const Expr *Scalar = nullptr;
  /// axpy: Y (updated) and X. dot: the two factors in source order.
  Row First, Second;
  /// axpy spelled `Y[..] = a * X[..] + Y[..]`: the addition's operands
  /// come in the other order (a double-double add is not bitwise
  /// commutative).
  bool ProductFirst = false;
};

struct OptOptions {
  /// Derive facts from branch guards. Only sound under the Exception
  /// branch policy, where a then-branch runs iff the comparison is
  /// certainly true; under Join both sides execute unconditionally.
  bool GuardFacts = true;
};

/// Analysis results for one function, keyed by AST node identity.
struct OptFunctionInfo {
  /// Endpoint bounds for expression nodes. Sparse: absent means Top.
  std::unordered_map<const Expr *, ValueFact> Facts;

  /// Per for-statement: maximal pure, load-free, loop-invariant floating
  /// subexpressions worth hoisting ahead of the loop header. Ordered
  /// with subexpressions before the expressions containing them.
  std::map<const Stmt *, std::vector<const Expr *>> LoopInvariants;

  /// Per statement: pure floating subexpressions occurring at least
  /// twice (structurally) in that statement, ordered innermost-first so
  /// a temp's initializer can reuse earlier temps.
  std::map<const Stmt *, std::vector<const Expr *>> CommonSubexprs;

  /// Expression nodes where add/sub-of-mul FMA fusion must be skipped
  /// because the addend is the loop-carried accumulator itself (`y += a*b`
  /// or `y = y + a*b` inside a loop, with `y` the same location on every
  /// iteration of the innermost enclosing loop: a scalar, or an element
  /// whose base and index variables that loop does not write). Fusing
  /// there moves the multiply's full latency onto the recurrence and
  /// serializes the loop (the mvm regression); left unfused, the
  /// multiplies pipeline and only the add chains. A target that moves
  /// every iteration (`C[i*n+j]` in a j-loop) carries nothing and fuses.
  /// Contains the compound-assignment node for `y +=`/`y -=` and the
  /// Add/Sub node whose operand equals the assignment target for plain
  /// `y = y + ...` forms.
  std::unordered_set<const Expr *> FmaLoopHazards;

  /// Per innermost for-statement: the version variable, a floating
  /// scalar the loop multiplies by whose sign the range analysis leaves
  /// unknown. The transformer emits the loop three times, behind a
  /// run-time test of the variable's sign made once per loop entry, and
  /// lowers its multiplies as nonnegative, nonpositive and unknown
  /// operands in the three copies. The variable is declared outside the
  /// loop, written neither in the loop nor in its init, and never has
  /// its address taken, so the tested sign holds for the whole loop.
  /// Absent: the loop is emitted once.
  std::unordered_map<const ForStmt *, const VarDecl *> VersionVars;

  /// Innermost for-loops of axpy or dot shape (see RowKernelLoop). The
  /// transformer emits each as one row-kernel call instead of the loop.
  std::unordered_map<const ForStmt *, RowKernelLoop> RowKernels;

  ValueFact factFor(const Expr *E) const {
    auto It = Facts.find(E);
    return It == Facts.end() ? ValueFact::top() : It->second;
  }
};

/// Runs the value-range/sign analysis plus the CSE/LICM collectors over
/// one function body. Pure analysis: the AST is not modified.
OptFunctionInfo analyzeFunctionForOpt(const FunctionDecl &F,
                                      const OptOptions &Opts);

/// The same, reading the function's write sets \p Writes instead of
/// building them.
OptFunctionInfo analyzeFunctionForOpt(const FunctionDecl &F,
                                      const OptOptions &Opts,
                                      const WriteSets &Writes);

} // namespace igen

#endif // IGEN_OPT_OPTANALYSIS_H
