//===- Lowered.h - The lowered form of an IGen function ---------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one lowering of Section IV. The transformer lowers each function
/// once into typed nodes that carry every lowering decision: which
/// interval operation a C operation becomes (generic, sign-specialized,
/// fused, `_fast`, double-double or vector), the constant enclosures, the
/// CSE/hoist temps, the tolerance shadows, the join targets, the
/// reduction accumulators, the sign-versioned loop copies and the row
/// kernels. Two back ends consume the nodes:
///
///  * the C printer (printFunction) renders them as the interval C
///    that `igen` emits;
///  * the serve evaluator (server/Evaluator.cpp) executes them, calling
///    for each interval op the runtime function the `--target=ss`
///    artifact's `ia_*` call runs.
///
/// Nodes are allocated in a node store (one per kept program), variables
/// and temps are resolved to frame slots, and every interval op keeps the
/// source expression it came from (profile sites are numbered from it).
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_TRANSFORM_LOWERED_H
#define IGEN_TRANSFORM_LOWERED_H

#include "frontend/AST.h"
#include "frontend/Sema.h"
#include "interval/DdInterval.h"
#include "interval/Interval.h"

#include <forward_list>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace igen {
namespace lowered {

/// Category of a lowered expression.
enum class Cat : uint8_t {
  Plain,    ///< ordinary C value (integers, pointers, plain conditions)
  Interval, ///< an interval (f64i/ddi or a vector of intervals)
  TBool,    ///< three-valued boolean from an interval comparison
};

/// The interval-op table: every runtime operation the lowering can pick.
/// Ops with a function per interval type, printed `ia_<stem>_<suffix>`
/// (the f64 one is what the serve evaluator runs):
#define IGEN_LOWERED_IV_OPS(X)                                                 \
  X(Add, add, 2) X(Sub, sub, 2) X(Mul, mul, 2) X(Div, div, 2) X(Neg, neg, 1)   \
  X(MulPP, mul_pp, 2) X(MulPN, mul_pn, 2) X(MulNN, mul_nn, 2)                  \
  X(MulPU, mul_pu, 2) X(MulNU, mul_nu, 2) X(DivP, div_p, 2) X(DivN, div_n, 2)  \
  X(Fma, fma, 3) X(FmaPP, fma_pp, 3) X(FmaPN, fma_pn, 3) X(FmaNN, fma_nn, 3)   \
  X(FmaPU, fma_pu, 3) X(FmaNU, fma_nu, 3) X(Sqrt, sqrt, 1) X(Abs, abs, 1)      \
  X(Floor, floor, 1) X(Ceil, ceil, 1) X(Exp, exp, 1) X(Log, log, 1)            \
  X(Sin, sin, 1) X(Cos, cos, 1) X(Tan, tan, 1) X(Atan, atan, 1)                \
  X(Asin, asin, 1) X(Acos, acos, 1) X(ExpFast, exp_fast, 1)                    \
  X(LogFast, log_fast, 1) X(SinFast, sin_fast, 1) X(CosFast, cos_fast, 1)      \
  X(Min, min, 2) X(Max, max, 2) X(F32Cast, f32cast, 1)
/// Comparisons, the same way, yielding a tbool:
#define IGEN_LOWERED_CMP_OPS(X)                                                \
  X(CmpLT, cmplt, 2) X(CmpGT, cmpgt, 2) X(CmpLE, cmple, 2)                     \
  X(CmpGE, cmpge, 2) X(CmpEQ, cmpeq, 2) X(CmpNE, cmpne, 2)
/// Conversions and tbool logic, printed `ia_<stem>` (Cst: with a suffix;
/// CstOfDouble prints its operand as `(double)(x)`; Cvt2Bool signals on
/// unknown):
#define IGEN_LOWERED_AUX_OPS(X)                                                \
  X(Cst, cst, 1) X(CstOfDouble, cst, 1) X(NotTb, not_tb, 1)                    \
  X(AndTb, and_tb, 2) X(OrTb, or_tb, 2) X(Bool2Tb, bool2tb, 1)                 \
  X(Cvt2Bool, cvt2bool_tb, 1) X(Promote, promote_f64_dd, 1)                    \
  X(Narrow, narrow_dd_f64, 1) X(FenvGuard, fenv_guard, 1)

enum class Op : uint8_t {
#define IGEN_OP_ENUM(Name, Stem, Arity) Name,
  IGEN_LOWERED_IV_OPS(IGEN_OP_ENUM) IGEN_LOWERED_CMP_OPS(IGEN_OP_ENUM)
      IGEN_LOWERED_AUX_OPS(IGEN_OP_ENUM)
#undef IGEN_OP_ENUM
};

struct OpInfo {
  const char *Stem;
  unsigned Arity;
};
const OpInfo &opInfo(Op O);

/// Runtime suffix of an interval op: the type it operates on.
enum class Sfx : uint8_t {
  None, F64, Dd, M256di1, M256di2, M256di4, Ddi2, Ddi4, Ddi8,
};
const char *sfxName(Sfx S);

/// Source spellings of the C operators ("+", "+=", "++", ...).
const char *opSpelling(UnaryExpr::Op O);
const char *opSpelling(BinaryExpr::Op O);

/// Expression node kinds.
enum class EK : uint8_t {
  IntLit,  ///< Text: spelling; Int: value
  Const,   ///< constant enclosure K
  Var,     ///< frame slot Slot (-1: an undeclared name, Text)
  IOp,     ///< interval op O with suffix S over A[0..arity)
  Unary,   ///< plain unary UOp over A[0]
  Binary,  ///< plain binary BOp over A[0], A[1] (assignments too)
  Paren,   ///< "(" A[0] ")"
  Cond,    ///< "(" A[0] " ? " A[1] " : " A[2] ")"
  Index,   ///< A[0] "[" A[1] "]"
  Cast,    ///< "(" Text ")(" A[0] ")": pointer and integer casts
  IStore,  ///< A[0] " = " A[1]: store of an interval value
  Call,    ///< call of the defined function Text over Args
  Extern,  ///< emission-only call Text(Args): intrinsic, allocation or
           ///< external function (Callee says which)
};

/// A constant enclosure in both forms.
struct Constant {
  Interval F64;
  DdInterval Dd;
  /// The endpoints print under upward rounding (the decimal spelling
  /// follows the rounding mode the constant was folded under).
  bool PrintUp = false;
};

struct Expr {
  EK Kind = EK::IntLit;
  Cat C = Cat::Plain;
  Op O = Op::Add;      ///< IOp
  Sfx S = Sfx::None;   ///< IOp
  /// Unary Deref printed as an assignment target: "*" without the
  /// parentheses an rvalue operand gets.
  bool LvalueForm = false;
  UnaryExpr::Op UOp = UnaryExpr::Op::Neg;  ///< Unary
  BinaryExpr::Op BOp = BinaryExpr::Op::Add; ///< Binary
  CalleeKind Callee = CalleeKind::UserFunction; ///< Extern
  int Slot = -1;       ///< Var
  int Site = -1;       ///< IOp: profile site (-1: not instrumented)
  union {
    long long Int = 0;  ///< IntLit
    const Constant *K;  ///< Const
    const Type *To;     ///< Cast: the target type
  };
  const igen::Expr *Origin = nullptr; ///< source expression of an IOp
  /// A view of an AST spelling or of a string the node store owns.
  std::string_view Text;
  Expr *A[3] = {nullptr, nullptr, nullptr};
  std::vector<Expr *> *Args = nullptr; ///< Call/Extern (the store owns it)
};

/// Statement node kinds.
enum class SK : uint8_t {
  Block,      ///< "{" Body "}"
  Decl,       ///< Text [" = " E] ";" declaring Slot (Var: its source decl)
  ExprS,      ///< E ";"
  If,         ///< plain condition E: Then, Else
  IfTBool,    ///< interval condition E in tbool temp Slot. Exception
              ///< policy: unknown signals. Join policy (Join): Then/Else
              ///< on a decided condition; on unknown, Ext->Then2 and
              ///< Ext->Else2 run from the same state and Ext->Targets are
              ///< hulled.
  For,        ///< Body: Decl pieces or one ExprS; Cond E; Inc E2; Then is
              ///< the loop body
  While,      ///< Cond E; Then is the body
  Do,         ///< Then is the body; Cond E
  Versioned,  ///< E: the version variable; Then, Else and Ext->Then2 are
              ///< the copies for a proven nonnegative, nonpositive and
              ///< unknown sign
  RowKernel,  ///< if (E < E2) { ia_axpy/dot/dotsub_<S>(rows, count) }
  BatchLoop,  ///< ia_arr_<Text>_f64(E, X[0][, X[1]], count X[2]) (Ext)
  AccInit,    ///< acc Slot (number Slot2), initialized with E
  AccFeed,    ///< acc Slot += E
  AccReduce,  ///< E2 (lvalue) = reduce(acc Slot), narrowed when Narrow
  TolShadow,  ///< Slot = ia_set_tol(param Slot2, Tol)
  Return,     ///< E may be null
  TierReturn, ///< --tier wrapper return of E with escalation (Region)
  Break,
  Continue,
  Null,
  Emit,       ///< emission-only line Text (harden checks, tier snapshot)
};

struct Stmt;

/// The operands only some statements have.
struct StmtExt {
  /// IfTBool join: the branches run again on an unknown condition;
  /// Versioned: Then2 is the copy for an unknown sign.
  Stmt *Then2 = nullptr, *Else2 = nullptr;
  std::vector<int> Targets; ///< IfTBool join targets
  /// RowKernel: axpy's multiplier (an interval) or dot's accumulator.
  Expr *Scalar = nullptr;
  /// RowKernel: row 0 base and offset, row 1 base and offset.
  /// BatchLoop: the sources and the count.
  Expr *X[4] = {nullptr, nullptr, nullptr, nullptr};
};

struct Stmt {
  SK Kind = SK::Null;
  bool Join = false;     ///< IfTBool
  bool Narrow = false;   ///< AccReduce
  bool FromZero = false; ///< RowKernel: the loop starts at literal 0
  bool Movable = true;   ///< TierReturn
  enum class RowKind : uint8_t { Axpy, Dot, DotSub };
  RowKind Row = RowKind::Axpy;
  Sfx S = Sfx::None; ///< RowKernel: the interval type (F64 or Dd)
  int Slot = -1;
  int Slot2 = -1;
  union {
    double Tol = 0.0; ///< TolShadow
    int Region;       ///< TierReturn
  };
  Expr *E = nullptr;
  Expr *E2 = nullptr;
  const VarDecl *Var = nullptr; ///< Decl: the source declaration (or null
                                ///< for a temp, which is an interval)
  std::string_view Text;
  std::vector<Stmt *> Body;
  Stmt *Then = nullptr, *Else = nullptr;
  StmtExt *Ext = nullptr; ///< IfTBool join, Versioned, RowKernel, BatchLoop
};

/// The arenas lowered nodes live in: one per kept program, so the slack
/// of its chunks is paid once per program, not once per function.
class NodeStore {
public:
  Expr *newExpr(EK K, Cat C) {
    Expr *E = Exprs.make();
    E->Kind = K;
    E->C = C;
    return E;
  }
  Stmt *newStmt(SK K) {
    Stmt *S = Stmts.make();
    S->Kind = K;
    return S;
  }
  Constant *newConstant() { return Consts.make(); }
  StmtExt *newExt() { return Exts.make(); }
  std::vector<Expr *> *newArgs() { return &ArgLists.emplace_front(); }
  /// Keeps \p S alive as long as the store; returns a view of it.
  std::string_view own(std::string S) {
    return Strings.emplace_front(std::move(S));
  }

private:
  /// Bump allocation in small fixed chunks: a served program is a few
  /// dozen nodes, so a larger or growing chunk would mostly be slack.
  template <typename T, size_t ChunkSize> class Arena {
  public:
    T *make() {
      if (Used == ChunkSize) {
        Chunks.emplace_back(new T[ChunkSize]);
        Used = 0;
      }
      return &Chunks.back()[Used++];
    }

  private:
    std::vector<std::unique_ptr<T[]>> Chunks;
    size_t Used = ChunkSize;
  };
  Arena<Expr, 16> Exprs;
  Arena<Stmt, 16> Stmts;
  Arena<Constant, 8> Consts;
  Arena<StmtExt, 4> Exts;
  std::forward_list<std::string> Strings;
  std::forward_list<std::vector<Expr *>> ArgLists;
};

/// One lowered function (a --tier function lowers to two: the `__dd`
/// clone and the f64i wrapper). Its nodes live in Store.
struct Function {
  std::string Name; ///< emitted name
  const FunctionDecl *Decl = nullptr;
  std::string Header;
  bool Dd = false;        ///< double-double tier: constants, joins, temps
  bool TierClone = false; ///< the `__dd` clone (never an eval entry)
  /// Frame slot names: source variables, tolerance shadows and temps.
  std::vector<std::string> Slots;
  std::vector<int> ParamSlots;
  int NumAccs = 0;
  std::string TierCloneCall; ///< --tier wrapper: the escalation call
  Stmt *Body = nullptr;      ///< null for a prototype
  NodeStore *Store = nullptr;
};

/// The lowered translation unit the serve daemon keeps: every function
/// in emission order.
struct Program {
  NodeStore Store;
  std::vector<std::unique_ptr<Function>> Functions;

  /// The defined function \p Name can be evaluated as (the f64i wrapper
  /// of a --tier function, never its clone), or null.
  const Function *findEntry(std::string_view Name) const;
};

/// Renders \p F as interval C, appending to \p Out (one trailing newline
/// per line, two-space indentation).
void printFunction(const Function &F, std::string &Out);

/// Calls \p OnExpr on every expression node and \p OnStmt on every
/// statement node reachable from \p F's body (a node the body shares is
/// visited once per use, as the printer prints it).
void forEachNode(Function &F, const std::function<void(Expr &)> &OnExpr,
                 const std::function<void(Stmt &)> &OnStmt);

} // namespace lowered
} // namespace igen

#endif // IGEN_TRANSFORM_LOWERED_H
