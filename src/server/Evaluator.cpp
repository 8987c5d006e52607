//===- Evaluator.cpp - Serve back end of the lowered form --------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// Bit-identity contract: the evaluator makes no lowering decision. It runs
// the nodes the transformer lowered (transform/Lowered.h) and calls, for
// each interval op, the very runtime function the `--target=ss` artifact
// calls (interval/igen_lib.h in its scalar configuration), under the same
// FE_UPWARD mode, in the same order. Constants carry the enclosure the
// printed C reconstructs exactly, so served and AOT results agree bit for
// bit at every optimization level (ExecServeCompareTest pins this).
//
// What the evaluator adds is safety: memory accesses (and the whole row of
// a row-kernel or batch-loop call) are bounds-checked, a step budget and
// a deadline bound the work, and everything outside the f64 scalar subset
// is a typed error.
//
//===----------------------------------------------------------------------===//

#include "server/Evaluator.h"

#include "frontend/AST.h"
#include "transform/Lowered.h"

#define IGEN_F64I_SCALAR 1
#include "interval/igen_lib.h"

#include <algorithm>

using namespace igen;
using namespace igen::server;
namespace L = igen::lowered;
namespace rt = igen_cfg_scalar;

namespace {

/// Thrown to unwind out of any depth of evaluation; converted to a typed
/// EvalResult at the evalFunction boundary.
struct EvalAbort {
  EvalError E;
};

[[noreturn]] void fail(std::string Code, std::string Msg) {
  throw EvalAbort{{std::move(Code), std::move(Msg)}};
}

/// A pointer value: base buffer plus a signed offset, with the extent
/// carried along so every access can be bounds-checked. (Out-of-range
/// access is undefined behavior in the compiled artifact; in the daemon
/// it must be a typed error, not a memory-safety hole.)
struct PtrVal {
  Interval *Base = nullptr;
  long long Size = 0;
  long long Off = 0;
};

struct Value {
  enum class K { None, Int, Iv, TB, Ptr };
  K Kind = K::None;
  long long I = 0;
  Interval V = Interval::fromPoint(0.0);
  TBool B = TBool::False;
  PtrVal P;

  static Value makeInt(long long X) { return {K::Int, X, {}, {}, {}}; }
  static Value makeIv(const Interval &X) { return {K::Iv, 0, X, {}, {}}; }
  static Value makeTB(TBool X) { return {K::TB, 0, {}, X, {}}; }
  static Value makePtr(PtrVal X) { return {K::Ptr, 0, {}, {}, X}; }
};

/// How a statement ends; a returned value waits in Interp::Ret.
enum class Flow { Normal, Break, Continue, Return };

/// An addressable storage location: a frame slot or an array element.
struct LValue {
  Value *Slot = nullptr;
  Interval *Element = nullptr;
};

struct Frame {
  std::vector<Value> Slots;
  /// Local arrays; a reallocation moves the vectors, not their elements.
  std::vector<std::vector<Interval>> LocalArrays;
  std::vector<rt::acc_f64> Accs;
};

class Interp {
public:
  Interp(const L::Program &Prog, const EvalOptions &Opts)
      : Prog(Prog), Opts(Opts) {
    if (Opts.HasDeadline)
      NextDeadlineCheck = DeadlineCheckEvery;
  }

  EvalResult run(const std::string &Function,
                 const std::vector<EvalArg> &Args);

private:
  const L::Program &Prog;
  const EvalOptions &Opts;
  unsigned long long Steps = 0;
  unsigned Depth = 0;
  Value Ret; ///< the value of the last executed return (None: void)

  /// Amortization interval for wall-clock deadline polls: frequent
  /// enough that a hung loop is cancelled within microseconds of the
  /// deadline, rare enough that the clock read vanishes in the noise.
  static constexpr unsigned long long DeadlineCheckEvery = 512;
  /// Next Steps value at which to poll the clock; ~0 when no deadline
  /// is set, so disabled requests pay one always-false compare per op.
  unsigned long long NextDeadlineCheck = ~0ull;
  /// Call-entry polls are strided too: deep recursion that makes
  /// little Steps progress still reaches a cancellation point every
  /// DeadlineCheckCalls frames, while a short request's single
  /// top-level call never pays a clock read at all.
  static constexpr unsigned DeadlineCheckCalls = 64;
  unsigned CallsSincePoll = 0;

  void checkDeadlineNow() {
    NextDeadlineCheck = Steps + DeadlineCheckEvery;
    if (std::chrono::steady_clock::now() >= Opts.Deadline)
      fail("deadline-exceeded",
           "evaluation exceeded the request's wall-clock deadline");
  }

  /// Charges \p N units of work against the step budget; polls the
  /// deadline when due. A row or batch call charges one unit per element
  /// before it runs, so it cannot overrun the budget.
  void step(unsigned long long N = 1) {
    if (N > Opts.StepLimit - std::min(Steps, Opts.StepLimit))
      fail("step-limit", "evaluation exceeded the per-request step budget");
    Steps += N;
    if (Steps >= NextDeadlineCheck)
      checkDeadlineNow();
  }

  Interval asInterval(const Value &V) {
    switch (V.Kind) {
    case Value::K::Iv:
      return V.V;
    case Value::K::Int:
      return rt::ia_cst_f64(static_cast<double>(V.I));
    case Value::K::TB:
      fail("unsupported", "cannot use a comparison result as a value");
    default:
      fail("unsupported", "cannot use a pointer as a scalar value");
    }
  }

  TBool asTBool(const Value &V) {
    if (V.Kind == Value::K::TB)
      return V.B;
    if (V.Kind == Value::K::Int)
      return rt::ia_bool2tb(V.I != 0);
    fail("unsupported", "cannot use this value as a condition");
  }

  long long asInt(const Value &V, const char *What) {
    if (V.Kind != Value::K::Int)
      fail("unsupported", std::string("invalid ") + What);
    return V.I;
  }

  /// A plain condition; an interval one was converted by the lowering
  /// (ia_cvt2bool_tb), whose unknown case is a typed error here instead of
  /// the process-global UnknownBranchHandler (which a concurrent daemon
  /// cannot safely retarget per request).
  bool cvtCond(const Value &V, const char *Where) {
    if (V.Kind == Value::K::Int)
      return V.I != 0;
    if (V.Kind == Value::K::TB) {
      if (V.B == TBool::Unknown)
        fail("unknown-branch",
             std::string("interval condition is unknown at ") + Where);
      return V.B == TBool::True;
    }
    fail("unsupported", "invalid condition value");
  }

  /// The \p N elements starting at \p P, bounds-checked as a whole.
  Interval *row(const PtrVal &P, long long Idx, unsigned long long N) {
    long long At = P.Off + Idx;
    if (!P.Base || At < 0 || At > P.Size ||
        N > static_cast<unsigned long long>(P.Size - At))
      fail("out-of-bounds",
           "array access at index " + std::to_string(At) + " (+" +
               std::to_string(N) + ") outside buffer of " +
               std::to_string(P.Size));
    return P.Base + At;
  }
  Interval &element(const PtrVal &P, long long Idx) { return *row(P, Idx, 1); }

  PtrVal asPtr(const Value &V) {
    if (V.Kind != Value::K::Ptr)
      fail("unsupported", "expected an array");
    return V.P;
  }
  /// The double element an Index or Deref node designates.
  Interval &elementOf(const L::Expr *E, Frame &F) {
    PtrVal P = asPtr(expr(E->A[0], F));
    long long Idx =
        E->Kind == L::EK::Index ? asInt(expr(E->A[1], F), "array subscript")
                                : 0;
    if (E->C != L::Cat::Interval)
      fail("unsupported", "only double arrays are supported by eval");
    return element(P, Idx);
  }
  void store(const LValue &Lv, const Interval &V) {
    if (Lv.Element)
      *Lv.Element = V;
    else
      *Lv.Slot = Value::makeIv(V);
  }

  Value expr(const L::Expr *E, Frame &F);
  Value iop(const L::Expr *E, Frame &F);
  Value unary(const L::Expr *E, Frame &F);
  Value binary(const L::Expr *E, Frame &F);
  Value cast(const L::Expr *E, Frame &F);
  Interval iv(const L::Expr *E, Frame &F) { return asInterval(expr(E, F)); }
  LValue lvalue(const L::Expr *E, Frame &F);

  Flow stmt(const L::Stmt *S, Frame &F);
  Flow loop(const L::Stmt *S, Frame &F);
  void decl(const L::Stmt *S, Frame &F);
  void ifTBool(const L::Stmt *S, Frame &F);
  void rowKernel(const L::Stmt *S, Frame &F);
  void batchLoop(const L::Stmt *S, Frame &F);

  Value call(const L::Function &Fn, std::vector<Value> Args);
};

Value Interp::expr(const L::Expr *E, Frame &F) {
  step();
  switch (E->Kind) {
  case L::EK::IntLit:
    return Value::makeInt(E->Int);
  case L::EK::Const:
    return Value::makeIv(E->K->F64);
  case L::EK::Var: {
    if (E->Slot < 0)
      fail("unsupported",
           "reference to undeclared name '" + std::string(E->Text) + "'");
    const Value &V = F.Slots[E->Slot];
    if (V.Kind == Value::K::None)
      fail("unsupported", "read of uninitialized variable");
    return V;
  }
  case L::EK::IOp:
    return iop(E, F);
  case L::EK::Unary:
    return unary(E, F);
  case L::EK::Binary:
    return binary(E, F);
  case L::EK::Paren:
    return expr(E->A[0], F);
  case L::EK::Cond:
    // C evaluates only the taken side, and so does the emitted `(c ? a :
    // b)`; an interval condition here was rejected at compile time.
    return expr(cvtCond(expr(E->A[0], F), "?:") ? E->A[1] : E->A[2], F);
  case L::EK::Index:
    return Value::makeIv(elementOf(E, F));
  case L::EK::Cast:
    return cast(E, F);
  case L::EK::IStore: {
    Interval V = iv(E->A[1], F);
    store(lvalue(E->A[0], F), V);
    return Value::makeIv(V);
  }
  case L::EK::Call: {
    const L::Function *Callee = Prog.findEntry(E->Text);
    if (!Callee)
      fail("unsupported", "call to external function '" +
                              std::string(E->Text) +
                              "' cannot be evaluated in-process");
    if (Callee->ParamSlots.size() != E->Args->size())
      fail("bad-argument",
           "wrong number of arguments to '" + std::string(E->Text) + "'");
    std::vector<Value> Args;
    Args.reserve(E->Args->size());
    for (const L::Expr *A : *E->Args)
      Args.push_back(expr(A, F));
    return call(*Callee, std::move(Args));
  }
  case L::EK::Extern:
    switch (E->Callee) {
    case CalleeKind::Intrinsic:
      fail("unsupported", "SIMD intrinsics are not supported by the eval "
                          "tier; compile ahead of time for vector kernels");
    case CalleeKind::Allocation:
      fail("unsupported", "allocation calls are not supported by eval");
    default:
      fail("unsupported", "call to external function '" +
                              std::string(E->Text) +
                              "' cannot be evaluated in-process");
    }
  }
  fail("unsupported", "unsupported expression kind");
}

// The runtime functions behind the interval-op table, by signature.
Value apply(f64i (*Fn)(f64i), const Interval *A) {
  return Value::makeIv(Fn(A[0]));
}
Value apply(f64i (*Fn)(f64i, f64i), const Interval *A) {
  return Value::makeIv(Fn(A[0], A[1]));
}
Value apply(f64i (*Fn)(f64i, f64i, f64i), const Interval *A) {
  return Value::makeIv(Fn(A[0], A[1], A[2]));
}
Value apply(tbool (*Fn)(f64i, f64i), const Interval *A) {
  return Value::makeTB(Fn(A[0], A[1]));
}

Value Interp::iop(const L::Expr *E, Frame &F) {
  if (E->S != L::Sfx::F64 && E->S != L::Sfx::None)
    fail("unsupported",
         E->S == L::Sfx::Dd
             ? "double-double operations are not supported by the eval tier"
             : "SIMD vector operations are not supported by the eval tier; "
               "compile ahead of time for vector kernels");
  switch (E->O) {
  case L::Op::Cvt2Bool:
    return Value::makeInt(cvtCond(expr(E->A[0], F), "a loop condition"));
  case L::Op::NotTb:
    return Value::makeTB(rt::ia_not_tb(asTBool(expr(E->A[0], F))));
  case L::Op::AndTb:
  case L::Op::OrTb: {
    // ia_and_tb/ia_or_tb are plain calls: both operands evaluate.
    TBool A = asTBool(expr(E->A[0], F));
    TBool B = asTBool(expr(E->A[1], F));
    return Value::makeTB(E->O == L::Op::AndTb ? rt::ia_and_tb(A, B)
                                              : rt::ia_or_tb(A, B));
  }
  case L::Op::Bool2Tb:
    return Value::makeTB(asTBool(expr(E->A[0], F)));
  case L::Op::Cst:
  case L::Op::CstOfDouble:
    return Value::makeIv(rt::ia_cst_f64(
        static_cast<double>(asInt(expr(E->A[0], F), "interval operand"))));
  case L::Op::FenvGuard:
    // The daemon checks the FP environment itself, per request.
    return expr(E->A[0], F);
  case L::Op::Promote:
  case L::Op::Narrow:
    fail("unsupported",
         "double-double operations are not supported by the eval tier");
  default:
    break;
  }
  Interval A[3];
  const unsigned Arity = L::opInfo(E->O).Arity;
  for (unsigned I = 0; I < Arity; ++I)
    A[I] = iv(E->A[I], F);
  switch (E->O) {
#define IGEN_EVAL_OP(Name, Stem, Arity)                                        \
  case L::Op::Name:                                                            \
    return apply(rt::ia_##Stem##_f64, A);
    IGEN_LOWERED_IV_OPS(IGEN_EVAL_OP)
    IGEN_LOWERED_CMP_OPS(IGEN_EVAL_OP)
#undef IGEN_EVAL_OP
  default:
    fail("unsupported", "interval operation has no eval kernel");
  }
}

Value Interp::unary(const L::Expr *E, Frame &F) {
  using UOp = UnaryExpr::Op;
  switch (E->UOp) {
  case UOp::Neg:
    return Value::makeInt(-asInt(expr(E->A[0], F), "operand to unary '-'"));
  case UOp::LogicalNot:
    return Value::makeInt(asInt(expr(E->A[0], F), "operand to '!'") == 0);
  case UOp::BitNot:
    return Value::makeInt(~asInt(expr(E->A[0], F), "operand to '~'"));
  case UOp::PreInc:
  case UOp::PreDec:
  case UOp::PostInc:
  case UOp::PostDec: {
    LValue Lv = lvalue(E->A[0], F);
    if (!Lv.Slot || Lv.Slot->Kind != Value::K::Int)
      fail("unsupported", "++/-- on floating-point values is not "
                          "supported in the IGen C subset");
    bool Pre = E->UOp == UOp::PreInc || E->UOp == UOp::PreDec;
    bool Inc = E->UOp == UOp::PreInc || E->UOp == UOp::PostInc;
    long long Old = Lv.Slot->I;
    Lv.Slot->I = Inc ? Old + 1 : Old - 1;
    return Value::makeInt(Pre ? Lv.Slot->I : Old);
  }
  case UOp::Deref:
    return Value::makeIv(elementOf(E, F));
  case UOp::AddrOf: {
    LValue Lv = lvalue(E->A[0], F);
    PtrVal P;
    P.Size = 1; // a borrowed one-element view; AOT has the same UB edge
    if (Lv.Element) {
      P.Base = Lv.Element;
    } else {
      if (Lv.Slot->Kind != Value::K::Iv)
        fail("unsupported", "'&' is only supported on double variables");
      P.Base = &Lv.Slot->V;
    }
    return Value::makePtr(P);
  }
  default:
    fail("unsupported", "unsupported unary operator");
  }
}

Value Interp::binary(const L::Expr *E, Frame &F) {
  using BOp = BinaryExpr::Op;
  if (E->BOp >= BOp::Assign) {
    // Plain (integer) assignment: the right operand first, as C++17
    // sequences it in the emitted code.
    Value RHS = expr(E->A[1], F);
    LValue Lv = lvalue(E->A[0], F);
    if (!Lv.Slot || RHS.Kind == Value::K::Ptr)
      fail("unsupported", "pointer assignment is not supported by eval");
    long long B = asInt(RHS, "integer assignment");
    long long R = B;
    if (E->BOp != BOp::Assign) {
      if (Lv.Slot->Kind != Value::K::Int)
        fail("unsupported", "read of uninitialized variable");
      long long A = Lv.Slot->I;
      if (E->BOp == BOp::DivAssign && B == 0)
        fail("int-div-zero", "integer division by zero");
      R = E->BOp == BOp::AddAssign   ? A + B
          : E->BOp == BOp::SubAssign ? A - B
          : E->BOp == BOp::MulAssign ? A * B
                                     : A / B;
    }
    *Lv.Slot = Value::makeInt(R);
    return *Lv.Slot;
  }

  if (E->BOp == BOp::LAnd || E->BOp == BOp::LOr) {
    // Plain: C short-circuit semantics.
    bool LB = cvtCond(expr(E->A[0], F), "&&/||");
    if (LB == (E->BOp == BOp::LOr))
      return Value::makeInt(LB);
    return Value::makeInt(cvtCond(expr(E->A[1], F), "&&/||"));
  }

  Value Lhs = expr(E->A[0], F);
  Value Rhs = expr(E->A[1], F);
  // Pointer arithmetic stays plain C.
  if (Lhs.Kind == Value::K::Ptr && Rhs.Kind == Value::K::Int &&
      (E->BOp == BOp::Add || E->BOp == BOp::Sub)) {
    PtrVal P = Lhs.P;
    P.Off += E->BOp == BOp::Add ? Rhs.I : -Rhs.I;
    return Value::makePtr(P);
  }
  long long A = asInt(Lhs, "integer operands");
  long long B = asInt(Rhs, "integer operands");
  if ((E->BOp == BOp::Div || E->BOp == BOp::Rem) && B == 0)
    fail("int-div-zero", E->BOp == BOp::Div ? "integer division by zero"
                                            : "integer remainder by zero");
  switch (E->BOp) {
  case BOp::Add:
    return Value::makeInt(A + B);
  case BOp::Sub:
    return Value::makeInt(A - B);
  case BOp::Mul:
    return Value::makeInt(A * B);
  case BOp::Div:
    return Value::makeInt(A / B);
  case BOp::Rem:
    return Value::makeInt(A % B);
  case BOp::Shl:
    return Value::makeInt(A << (B & 63));
  case BOp::Shr:
    return Value::makeInt(A >> (B & 63));
  case BOp::BitAnd:
    return Value::makeInt(A & B);
  case BOp::BitOr:
    return Value::makeInt(A | B);
  case BOp::BitXor:
    return Value::makeInt(A ^ B);
  case BOp::LT:
    return Value::makeInt(A < B);
  case BOp::GT:
    return Value::makeInt(A > B);
  case BOp::LE:
    return Value::makeInt(A <= B);
  case BOp::GE:
    return Value::makeInt(A >= B);
  case BOp::EQ:
    return Value::makeInt(A == B);
  default: // NE
    return Value::makeInt(A != B);
  }
}

Value Interp::cast(const L::Expr *E, Frame &F) {
  Value Sub = expr(E->A[0], F);
  const Type *To = E->To;
  if (To && To->isPointer()) {
    if (Sub.Kind == Value::K::Ptr)
      return Sub;
    fail("unsupported", "pointer casts are not supported by eval");
  }
  // Integer casts: emitted C applies the target width.
  long long I = asInt(Sub, "integer cast (of an interval?)");
  if (To && To->kind() == Type::Kind::Int)
    return Value::makeInt(static_cast<int>(I));
  if (To && To->kind() == Type::Kind::UInt)
    return Value::makeInt(static_cast<long long>(static_cast<unsigned>(I)));
  return Sub;
}

LValue Interp::lvalue(const L::Expr *E, Frame &F) {
  LValue Lv;
  if (E->Kind == L::EK::Var && E->Slot >= 0)
    Lv.Slot = &F.Slots[E->Slot];
  else if (E->Kind == L::EK::Index ||
           (E->Kind == L::EK::Unary && E->UOp == UnaryExpr::Op::Deref))
    Lv.Element = &elementOf(E, F);
  else
    fail("unsupported", "unsupported assignment target");
  return Lv;
}

void Interp::decl(const L::Stmt *S, Frame &F) {
  Value &Slot = F.Slots[S->Slot];
  const VarDecl *D = S->Var;
  if (!D) { // a CSE or hoist temp
    Slot = Value::makeIv(iv(S->E, F));
    return;
  }
  if (D->Ty->isArray()) {
    const Type *Elem = D->Ty->element();
    if (!Elem->isFloating() || Elem->isArray())
      fail("unsupported", "only 1-D double local arrays are supported");
    if (S->E)
      fail("unsupported", "array initializers are not supported");
    F.LocalArrays.emplace_back(static_cast<size_t>(D->Ty->arraySize()),
                               Interval::fromPoint(0.0));
    PtrVal P;
    P.Base = F.LocalArrays.back().data();
    P.Size = static_cast<long long>(D->Ty->arraySize());
    Slot = Value::makePtr(P);
    return;
  }
  if (D->Ty->isSimdVector())
    fail("unsupported", "SIMD vector locals are not supported by eval");
  if (!S->E) {
    Slot = Value(); // uninitialized until first store
    return;
  }
  Value Init = expr(S->E, F);
  if (D->Ty->isFloatingOrVector()) {
    Slot = Value::makeIv(asInterval(Init));
  } else if (D->Ty->isPointer()) {
    if (Init.Kind != Value::K::Ptr)
      fail("unsupported", "invalid pointer initializer");
    Slot = Init;
  } else {
    asInt(Init, "integer initializer");
    Slot = Init;
  }
}

void Interp::ifTBool(const L::Stmt *S, Frame &F) {
  // Not reached for the exception policy: stmt() handles it.
  TBool Cond = asTBool(expr(S->E, F));
  if (Cond == TBool::True) {
    stmt(S->Then, F); // join-safe bodies cannot break or return
    return;
  }
  if (Cond == TBool::False) {
    if (S->Else)
      stmt(S->Else, F);
    return;
  }
  // Unknown: both branches from the same state, then the hull.
  std::vector<Interval> Saved, ThenRes;
  const L::StmtExt &X = *S->Ext;
  for (int V : X.Targets) {
    if (F.Slots[V].Kind != Value::K::Iv)
      fail("unsupported", "join target is not an initialized interval");
    Saved.push_back(F.Slots[V].V);
  }
  stmt(X.Then2, F);
  for (size_t I = 0; I < X.Targets.size(); ++I) {
    Value &Slot = F.Slots[X.Targets[I]];
    ThenRes.push_back(Slot.V);
    Slot = Value::makeIv(Saved[I]);
  }
  if (X.Else2)
    stmt(X.Else2, F);
  for (size_t I = 0; I < X.Targets.size(); ++I) {
    Value &Slot = F.Slots[X.Targets[I]];
    Slot = Value::makeIv(rt::ia_join_f64(asInterval(Slot), ThenRes[I]));
  }
}

void Interp::rowKernel(const L::Stmt *S, Frame &F) {
  if (S->S == L::Sfx::Dd)
    fail("unsupported",
         "double-double operations are not supported by the eval tier");
  long long Lo = asInt(expr(S->E, F), "row bound");
  long long Hi = asInt(expr(S->E2, F), "row bound");
  if (!(Lo < Hi))
    return;
  const unsigned long long N = static_cast<unsigned long long>(Hi) -
                               static_cast<unsigned long long>(Lo);
  // The whole row is checked before the kernel reads any of it.
  auto rowPtr = [&](int I) {
    PtrVal P = asPtr(expr(S->Ext->X[2 * I], F));
    const L::Expr *Offset = S->Ext->X[2 * I + 1];
    long long First = Offset ? asInt(expr(Offset, F), "row offset") : 0;
    if (!S->FromZero)
      First += Lo;
    return row(P, First, N);
  };
  step(N);
  if (S->Row == L::Stmt::RowKind::Axpy) {
    Interval *Y = rowPtr(0);
    Interval A = iv(S->Ext->Scalar, F);
    Interval *X = rowPtr(1);
    rt::ia_axpy_f64(Y, A, X, N);
    return;
  }
  LValue Acc = lvalue(S->Ext->Scalar, F);
  Interval *Sum = Acc.Element;
  if (!Sum) {
    if (Acc.Slot->Kind != Value::K::Iv)
      fail("unsupported", "read of uninitialized variable");
    Sum = &Acc.Slot->V;
  }
  Interval *X = rowPtr(0);
  Interval *Z = rowPtr(1);
  if (S->Row == L::Stmt::RowKind::Dot)
    rt::ia_dot_f64(Sum, X, Z, N);
  else
    rt::ia_dotsub_f64(Sum, X, Z, N);
}

void Interp::batchLoop(const L::Stmt *S, Frame &F) {
  PtrVal D = asPtr(expr(S->E, F));
  const L::StmtExt &X = *S->Ext;
  PtrVal A = asPtr(expr(X.X[0], F));
  PtrVal B;
  if (X.X[1])
    B = asPtr(expr(X.X[1], F));
  const unsigned long long N =
      static_cast<unsigned long>(asInt(expr(X.X[2], F), "trip count"));
  if (N == 0)
    return;
  Interval *Dp = row(D, 0, N), *Ap = row(A, 0, N);
  Interval *Bp = X.X[1] ? row(B, 0, N) : nullptr;
  step(N);
  if (S->Text == "add")
    rt::ia_arr_add_f64(Dp, Ap, Bp, N);
  else if (S->Text == "sub")
    rt::ia_arr_sub_f64(Dp, Ap, Bp, N);
  else if (S->Text == "mul")
    rt::ia_arr_mul_f64(Dp, Ap, Bp, N);
  else if (S->Text == "div")
    rt::ia_arr_div_f64(Dp, Ap, Bp, N);
  else
    rt::ia_arr_sqrt_f64(Dp, Ap, N);
}

Flow Interp::loop(const L::Stmt *S, Frame &F) {
  if (S->Kind == L::SK::For)
    for (const L::Stmt *Init : S->Body) {
      if (Init->Kind == L::SK::Decl)
        decl(Init, F);
      else
        expr(Init->E, F);
    }
  const char *Where = S->Kind == L::SK::For     ? "for"
                      : S->Kind == L::SK::While ? "while"
                                                : "do-while";
  bool First = true;
  while (true) {
    step();
    if (S->E && !(S->Kind == L::SK::Do && First) &&
        !cvtCond(expr(S->E, F), Where))
      break;
    First = false;
    Flow Fl = stmt(S->Then, F);
    if (Fl == Flow::Return)
      return Fl;
    if (Fl == Flow::Break)
      break;
    if (S->E2)
      expr(S->E2, F);
  }
  return Flow::Normal;
}

Flow Interp::stmt(const L::Stmt *S, Frame &F) {
  step();
  switch (S->Kind) {
  case L::SK::Block:
    for (const L::Stmt *C : S->Body) {
      Flow Fl = stmt(C, F);
      if (Fl != Flow::Normal)
        return Fl;
    }
    return Flow::Normal;
  case L::SK::Decl:
    decl(S, F);
    return Flow::Normal;
  case L::SK::ExprS:
    expr(S->E, F);
    return Flow::Normal;
  case L::SK::If:
    if (cvtCond(expr(S->E, F), "if"))
      return stmt(S->Then, F);
    return S->Else ? stmt(S->Else, F) : Flow::Normal;
  case L::SK::IfTBool: {
    if (S->Join) {
      ifTBool(S, F);
      return Flow::Normal;
    }
    // Exception policy: ia_cvt2bool_tb signals on unknown.
    TBool Cond = asTBool(expr(S->E, F));
    if (Cond == TBool::Unknown)
      fail("unknown-branch", "interval branch condition is unknown");
    if (Cond == TBool::True)
      return stmt(S->Then, F);
    return S->Else ? stmt(S->Else, F) : Flow::Normal;
  }
  case L::SK::For:
  case L::SK::While:
  case L::SK::Do:
    return loop(S, F);
  case L::SK::Versioned: {
    Interval V = iv(S->E, F);
    return stmt(rt::ia_inf_f64(V) >= 0.0   ? S->Then
                : rt::ia_sup_f64(V) <= 0.0 ? S->Else
                                           : S->Ext->Then2,
                F);
  }
  case L::SK::RowKernel:
    rowKernel(S, F);
    return Flow::Normal;
  case L::SK::BatchLoop:
    batchLoop(S, F);
    return Flow::Normal;
  case L::SK::AccInit:
    rt::isum_init_f64(&F.Accs[S->Slot2], iv(S->E, F));
    return Flow::Normal;
  case L::SK::AccFeed:
    rt::isum_accumulate_f64(&F.Accs[S->Slot2], iv(S->E, F));
    return Flow::Normal;
  case L::SK::AccReduce: {
    if (S->Narrow)
      fail("unsupported",
           "double-double operations are not supported by the eval tier");
    store(lvalue(S->E2, F), rt::isum_reduce_f64(&F.Accs[S->Slot2]));
    return Flow::Normal;
  }
  case L::SK::TolShadow:
    // _a = ia_set_tol_f64(a, tol); the parameter holds the point value.
    F.Slots[S->Slot] =
        Value::makeIv(rt::ia_set_tol_f64(F.Slots[S->Slot2].V.hi(), S->Tol));
    return Flow::Normal;
  case L::SK::Return:
  case L::SK::TierReturn: // a tier wrapper returns its f64i result
    Ret = S->E ? expr(S->E, F) : Value();
    return Flow::Return;
  case L::SK::Break:
    return Flow::Break;
  case L::SK::Continue:
    return Flow::Continue;
  case L::SK::Null:
  case L::SK::Emit: // harden checks and tier snapshots: emission only
    break;
  }
  return Flow::Normal;
}

Value Interp::call(const L::Function &Fn, std::vector<Value> Args) {
  if (++Depth > Opts.MaxCallDepth) {
    --Depth;
    fail("recursion-limit", "user-function call depth exceeded");
  }
  // Strided deadline poll at call entry: recursion that makes little
  // per-frame progress still hits a cancellation point every few
  // frames without taxing call-light requests with a clock read.
  if (Opts.HasDeadline && ++CallsSincePoll >= DeadlineCheckCalls) {
    CallsSincePoll = 0;
    checkDeadlineNow();
  }
  const FunctionDecl *Decl = Fn.Decl;
  // A dirty FP environment on entry poisons an interval-returning
  // function to the whole line. The serve layer already repaired the
  // environment; only the outermost frame honors the verdict (callees
  // run under the now-sound environment, like AOT code whose
  // igen_fenv_check repaired on the way in).
  if (Opts.PoisonedEntry && Depth == 1 && Decl->RetTy->isFloating()) {
    --Depth;
    return Value::makeIv(Interval::entire());
  }

  Frame F;
  F.Slots.resize(Fn.Slots.size());
  F.Accs.resize(static_cast<size_t>(Fn.NumAccs));
  for (size_t I = 0; I < Fn.ParamSlots.size(); ++I) {
    const VarDecl *P = Decl->Params[I];
    Value &A = Args[I];
    if (P->HasTolerance) {
      // The body reads the shadow (TolShadow); the slot keeps the point.
      if (A.Kind != Value::K::Iv || !A.V.isPoint())
        fail("bad-argument", "tolerance parameter '" + P->Name +
                                 "' takes a point value");
    } else if (P->Ty->isSimdVector()) {
      fail("unsupported", "SIMD vector parameters are not supported");
    } else if (P->Ty->isFloating()) {
      if (A.Kind != Value::K::Iv)
        fail("bad-argument", "parameter '" + P->Name + "' takes an interval");
    } else if (P->Ty->isInteger()) {
      if (A.Kind != Value::K::Int)
        fail("bad-argument", "parameter '" + P->Name + "' takes an integer");
    } else if (P->Ty->isPointer() || P->Ty->isArray()) {
      if (A.Kind != Value::K::Ptr)
        fail("bad-argument", "parameter '" + P->Name + "' takes an array");
    } else {
      fail("unsupported",
           "unsupported parameter type for '" + P->Name + "'");
    }
    F.Slots[Fn.ParamSlots[I]] = std::move(A);
  }

  Ret = Value();
  Flow Fl = stmt(Fn.Body, F);
  --Depth;
  if (Fl == Flow::Return && Ret.Kind != Value::K::None)
    return Ret;
  if (Decl->RetTy->isFloating())
    // Falling off the end of a value-returning function is UB in C;
    // surface it as a typed error instead of an indeterminate value.
    fail("unsupported",
         "function '" + Decl->Name + "' returned without a value");
  return Value();
}

EvalResult Interp::run(const std::string &Function,
                       const std::vector<EvalArg> &Args) {
  EvalResult R;
  try {
    const L::Function *Fn = Prog.findEntry(Function);
    if (!Fn)
      fail("no-such-function",
           "no defined function '" + Function + "' in this program");
    if (Fn->ParamSlots.size() != Args.size())
      fail("bad-argument",
           "function '" + Function + "' takes " +
               std::to_string(Fn->ParamSlots.size()) + " arguments, got " +
               std::to_string(Args.size()));

    // Marshal the wire arguments; array arguments are copied into the
    // result up front and mutated in place, so outputs fall out for
    // free and the caller's request object stays untouched.
    size_t NumArrays = 0;
    for (const EvalArg &A : Args)
      NumArrays += A.K == EvalArg::Kind::Array;
    R.ArrayOutputs.reserve(NumArrays); // no reallocation once aliased
    std::vector<Value> CallArgs;
    for (const EvalArg &A : Args) {
      switch (A.K) {
      case EvalArg::Kind::Scalar:
        CallArgs.push_back(Value::makeIv(A.Scalar));
        break;
      case EvalArg::Kind::Int:
        CallArgs.push_back(Value::makeInt(A.IntValue));
        break;
      case EvalArg::Kind::Tolerance:
        CallArgs.push_back(Value::makeIv(Interval::fromPoint(A.Point)));
        break;
      case EvalArg::Kind::Array: {
        R.ArrayOutputs.push_back(A.Elements);
        PtrVal P;
        P.Base = R.ArrayOutputs.back().data();
        P.Size = static_cast<long long>(R.ArrayOutputs.back().size());
        CallArgs.push_back(Value::makePtr(P));
        break;
      }
      }
    }

    Value Ret = call(*Fn, std::move(CallArgs));
    if (Ret.Kind == Value::K::Iv) {
      R.HasReturn = true;
      R.Return = Ret.V;
    } else if (Ret.Kind == Value::K::Int) {
      R.HasReturn = true;
      R.ReturnIsInt = true;
      R.ReturnInt = Ret.I;
    }
    R.Ok = true;
  } catch (const EvalAbort &A) {
    R.Ok = false;
    R.Error = A.E;
    R.ArrayOutputs.clear();
  }
  R.OpsExecuted = Steps;
  return R;
}

} // namespace

EvalResult igen::server::evalFunction(const InMemoryProgram &Prog,
                                      const std::string &Function,
                                      const std::vector<EvalArg> &Args,
                                      const EvalOptions &Opts) {
  if (!Prog.Lowered) {
    EvalResult R;
    R.Error = {"unsupported", "program has no retained lowered form"};
    return R;
  }
  if (Prog.Opts.Prec == TransformOptions::Precision::DoubleDouble) {
    EvalResult R;
    R.Error = {"unsupported",
               "double-double programs are not supported by the eval "
               "tier; use the emitted C artifact"};
    return R;
  }
  return Interp(*Prog.Lowered, Opts).run(Function, Args);
}

bool igen::server::describeFunction(const InMemoryProgram &Prog,
                                    const std::string &Function,
                                    std::vector<std::string> &ParamKinds,
                                    std::string &ReturnKind) {
  ParamKinds.clear();
  ReturnKind.clear();
  if (!Prog.Ast)
    return false;
  for (const TopLevelItem &Item : Prog.Ast->TU.Items) {
    if (!Item.Function || !Item.Function->Body ||
        Item.Function->Name != Function)
      continue;
    const FunctionDecl *Fn = Item.Function;
    for (const VarDecl *P : Fn->Params) {
      if (P->HasTolerance)
        ParamKinds.push_back("tolerance:" + P->ToleranceSpelling);
      else if (P->Ty->isFloating())
        ParamKinds.push_back("interval");
      else if (P->Ty->isInteger())
        ParamKinds.push_back("int");
      else if (P->Ty->isPointer() || P->Ty->isArray())
        ParamKinds.push_back("array");
      else
        ParamKinds.push_back("unsupported");
    }
    if (Fn->RetTy->isFloating())
      ReturnKind = "interval";
    else if (Fn->RetTy->isInteger())
      ReturnKind = "int";
    else
      ReturnKind = "void";
    return true;
  }
  return false;
}
