//===- Lowered.cpp - C printer for the lowered form -------------------------===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
//
// The C back end: renders lowered functions as the interval C that igen
// emits. Every spelling rule of the emitted text lives here: the
// parenthesization of plain operands (maybeParen), indentation, the
// `ia_*`/`iap_*` call names and the temp names.
//
//===----------------------------------------------------------------------===//

#include "transform/Lowered.h"

#include "interval/Rounding.h"
#include "support/StringExtras.h"

#include <cmath>

namespace igen {
namespace lowered {

const OpInfo &opInfo(Op O) {
  static const OpInfo Table[] = {
#define IGEN_OP_INFO(Name, Stem, Arity) {#Stem, Arity},
      IGEN_LOWERED_IV_OPS(IGEN_OP_INFO) IGEN_LOWERED_CMP_OPS(IGEN_OP_INFO)
          IGEN_LOWERED_AUX_OPS(IGEN_OP_INFO)
#undef IGEN_OP_INFO
  };
  return Table[static_cast<unsigned>(O)];
}

const char *sfxName(Sfx S) {
  static const char *const Names[] = {"",         "f64",      "dd",
                                      "m256di_1", "m256di_2", "m256di_4",
                                      "ddi_2",    "ddi_4",    "ddi_8"};
  return Names[static_cast<unsigned>(S)];
}

const char *opSpelling(UnaryExpr::Op O) {
  static const char *const Names[] = {"-",  "+",  "!",  "~", "++",
                                      "--", "++", "--", "*", "&"};
  return Names[static_cast<unsigned>(O)];
}

const char *opSpelling(BinaryExpr::Op O) {
  static const char *const Names[] = {
      "+",  "-",  "*",  "/",  "%",  "<<", ">>", "&",  "|",  "^",  "<",  ">",
      "<=", ">=", "==", "!=", "&&", "||", "=",  "+=", "-=", "*=", "/="};
  return Names[static_cast<unsigned>(O)];
}

const Function *Program::findEntry(std::string_view Name) const {
  for (const auto &F : Functions)
    if (F->Body && !F->TierClone && F->Name == Name)
      return F.get();
  return nullptr;
}

namespace {

/// Formats a double as a C expression reconstructing it exactly.
std::string num(double V) {
  if (std::isnan(V))
    return "__builtin_nan(\"\")";
  if (std::isinf(V))
    return V > 0 ? "__builtin_inf()" : "-__builtin_inf()";
  std::string Out;
  appendDouble17g(Out, V); // always round-trips IEEE doubles
  return Out;
}

class Printer {
public:
  Printer(const Function &F, std::string &Out) : F(F), Out(Out) {}

  void function() {
    if (!F.Body) {
      line(F.Header, ";");
      return;
    }
    line(F.Header);
    stmt(F.Body);
  }

private:
  const Function &F;
  std::string &Out;
  int Indent = 0;

  /// A plain operand embedded in a larger expression: parenthesized when
  /// its text is compound (contains a space).
  struct Operand {
    const Expr *E;
  };

  void part(std::string_view S) { Out += S; }
  void part(const Expr *E) { expr(E); }
  void part(Operand O) {
    size_t Pos = Out.size();
    expr(O.E);
    if (O.E->C == Cat::Plain && Out.find(' ', Pos) != std::string::npos)
      wrap(Pos);
  }
  template <typename... Ts> void put(const Ts &...Ps) { (part(Ps), ...); }
  void begin() { Out.append(static_cast<size_t>(Indent) * 2, ' '); }
  template <typename... Ts> void line(const Ts &...Ps) {
    begin();
    put(Ps...);
    Out += '\n';
  }
  void wrap(size_t Pos) {
    Out.insert(Pos, 1, '(');
    Out += ')';
  }

  std::string_view ivType() const { return F.Dd ? "ddi" : "f64i"; }
  std::string_view sfx() const { return F.Dd ? "dd" : "f64"; }
  const std::string &name(int Slot) const { return F.Slots[Slot]; }

  /// Constant endpoints print under the rounding mode the constant was
  /// folded under (the decimal digits follow it).
  void constant(const Expr *E) {
    if (E->K->PrintUp == isRoundUpward()) {
      constantDigits(E);
    } else if (E->K->PrintUp) {
      RoundUpwardScope Up;
      constantDigits(E);
    } else {
      RoundNearestScope Near;
      constantDigits(E);
    }
  }
  void constantDigits(const Expr *E) {
    if (!F.Dd) {
      const Interval &I = E->K->F64;
      if (I.isPoint())
        put("ia_cst_f64(", num(I.hi()), ")");
      else
        put("ia_set_f64(", num(I.lo()), ", ", num(I.hi()), ")");
      return;
    }
    const DdInterval &I = E->K->Dd;
    bool Point = I.NegLo.H == -I.Hi.H && I.NegLo.L == -I.Hi.L;
    if (Point && I.Hi.L == 0.0)
      put("ia_cst_dd(", num(I.Hi.H), ")");
    else
      put("ia_set_ddc(", num(-I.NegLo.H), ", ", num(-I.NegLo.L), ", ",
          num(I.Hi.H), ", ", num(I.Hi.L), ")");
  }

  void iop(const Expr *E) {
    const OpInfo &Info = opInfo(E->O);
    if (E->Site >= 0)
      put("iap_", Info.Stem, "_", sfxName(E->S), "(_igen_prof_base + ",
          std::to_string(E->Site), "u, ");
    else
      put("ia_", Info.Stem, E->S == Sfx::None ? "" : "_", sfxName(E->S),
          "(");
    if (E->O == Op::CstOfDouble) {
      put("(double)(", E->A[0], ")");
    } else {
      for (unsigned I = 0; I < Info.Arity; ++I)
        put(I ? ", " : "", E->A[I]);
    }
    Out += ')';
  }

  void unary(const Expr *E) {
    const char *Op = opSpelling(E->UOp);
    switch (E->UOp) {
    case UnaryExpr::Op::Neg: {
      Out += '-';
      size_t Pos = Out.size();
      expr(E->A[0]);
      if ((Pos < Out.size() && Out[Pos] == '-') ||
          (E->A[0]->C == Cat::Plain &&
           Out.find(' ', Pos) != std::string::npos))
        wrap(Pos);
      return;
    }
    case UnaryExpr::Op::PostInc:
    case UnaryExpr::Op::PostDec:
      return put(E->A[0], Op);
    case UnaryExpr::Op::PreInc:
    case UnaryExpr::Op::PreDec:
      return put(Op, E->A[0]);
    default:
      if (E->LvalueForm)
        return put(Op, E->A[0]);
      return put(Op, Operand{E->A[0]});
    }
  }

  void expr(const Expr *E) {
    switch (E->Kind) {
    case EK::IntLit:
      return put(E->Text);
    case EK::Const:
      return constant(E);
    case EK::Var:
      return put(E->Slot >= 0 ? name(E->Slot) : E->Text);
    case EK::IOp:
      return iop(E);
    case EK::Unary:
      return unary(E);
    case EK::Binary:
      if (E->BOp >= BinaryExpr::Op::Assign)
        return put(E->A[0], " ", opSpelling(E->BOp), " ", E->A[1]);
      return put(Operand{E->A[0]}, " ", opSpelling(E->BOp), " ",
                 Operand{E->A[1]});
    case EK::Paren:
      return put("(", E->A[0], ")");
    case EK::Cond:
      return put("(", E->A[0], " ? ", E->A[1], " : ", E->A[2], ")");
    case EK::Index:
      return put(E->A[0], "[", E->A[1], "]");
    case EK::Cast:
      return put("(", E->Text, ")(", E->A[0], ")");
    case EK::IStore:
      return put(E->A[0], " = ", E->A[1]);
    case EK::Call:
    case EK::Extern:
      put(E->Text, "(");
      for (size_t I = 0; I < E->Args->size(); ++I)
        put(I ? ", " : "", (*E->Args)[I]);
      Out += ')';
      return;
    }
  }

  /// A row of a row kernel: &Base[first index the loop touches].
  void row(const Stmt *S, int I) {
    const Expr *Offset = S->Ext->X[2 * I + 1];
    put("&", S->Ext->X[2 * I], "[");
    if (S->FromZero && Offset)
      put(Offset);
    else if (S->FromZero)
      put("0");
    else if (Offset)
      put(Operand{Offset}, " + ", Operand{S->E});
    else
      put(S->E);
    Out += ']';
  }

  void rowKernel(const Stmt *S) {
    line("if (", Operand{S->E}, " < ", Operand{S->E2}, ")");
    line("{");
    ++Indent;
    begin();
    if (S->Row == Stmt::RowKind::Axpy) {
      put("ia_axpy_", sfxName(S->S), "(");
      row(S, 0);
      put(", ", S->Ext->Scalar);
    } else {
      put(S->Row == Stmt::RowKind::Dot ? "ia_dot_" : "ia_dotsub_",
          sfxName(S->S), "(&", S->Ext->Scalar, ", ");
      row(S, 0);
    }
    put(", ");
    row(S, 1);
    // U - L > 0 as an unsigned long: exact, with no signed overflow.
    put(", (unsigned long)", Operand{S->E2});
    if (!S->FromZero)
      put(" - (unsigned long)", Operand{S->E});
    Out += ");\n";
    --Indent;
    line("}");
  }

  void forLoop(const Stmt *S) {
    begin();
    put("for (");
    for (size_t I = 0; I < S->Body.size(); ++I) {
      const Stmt *Init = S->Body[I];
      if (Init->Kind == SK::ExprS)
        put(Init->E);
      else if (Init->E)
        put(I ? ", " : "", Init->Text, " = ", Init->E);
      else
        put(I ? ", " : "", Init->Text);
    }
    put("; ");
    if (S->E)
      put(S->E);
    put("; ");
    if (S->E2)
      put(S->E2);
    Out += ")\n";
    stmt(S->Then);
  }

  void orEmpty(const Stmt *Body) {
    if (Body)
      stmt(Body);
    else
      line("{ ; }");
  }

  void ifTBool(const Stmt *S) {
    const std::string &T = name(S->Slot);
    line("tbool ", T, " = ", S->E, ";");
    if (!S->Join) {
      line("if (ia_cvt2bool_tb(", T, ")) /*may signal*/");
      stmt(S->Then);
      if (S->Else) {
        line("else");
        stmt(S->Else);
      }
      return;
    }
    line("if (ia_istrue_tb(", T, "))");
    stmt(S->Then);
    line("else if (ia_isfalse_tb(", T, "))");
    orEmpty(S->Else);
    line("else");
    line("{");
    ++Indent;
    for (int V : S->Ext->Targets)
      line(ivType(), " _sav_", name(V), " = ", name(V), ";");
    stmt(S->Ext->Then2);
    for (int V : S->Ext->Targets) {
      line(ivType(), " _res_", name(V), " = ", name(V), ";");
      line(name(V), " = _sav_", name(V), ";");
    }
    orEmpty(S->Ext->Else2);
    for (int V : S->Ext->Targets)
      line(name(V), " = ia_join_", sfx(), "(", name(V), ", _res_", name(V),
           ");");
    --Indent;
    line("}");
  }

  void tierReturn(const Stmt *S) {
    // Region exit: the blowup predicate and the ddi rerun from the entry
    // snapshot; the meet of both enclosures is returned.
    std::string Id = "_igen_tier_base + " + std::to_string(S->Region) + "u";
    line("{");
    ++Indent;
    line("f64i _tier_ret = ", S->E, ";");
    if (S->Movable) {
      line("if (igen_tier_escalate(_tier_ret, ", Id, "))");
      ++Indent;
      line("_tier_ret = ia_meet_f64(_tier_ret, ia_narrow_dd_f64(",
           F.TierCloneCall, "));");
      --Indent;
    } else {
      line("igen_tier_note_immovable(_tier_ret, ", Id, ");");
    }
    line("return _tier_ret;");
    --Indent;
    line("}");
  }

  void stmt(const Stmt *S) {
    switch (S->Kind) {
    case SK::Block:
      line("{");
      ++Indent;
      for (const Stmt *C : S->Body)
        stmt(C);
      --Indent;
      return line("}");
    case SK::Decl:
      if (S->E)
        return line(S->Text, " = ", S->E, ";");
      return line(S->Text, ";");
    case SK::ExprS:
      return line(S->E, ";");
    case SK::If:
      line("if (", S->E, ")");
      stmt(S->Then);
      if (S->Else) {
        line("else");
        stmt(S->Else);
      }
      return;
    case SK::IfTBool:
      return ifTBool(S);
    case SK::For:
      return forLoop(S);
    case SK::While:
      line("while (", S->E, ")");
      return stmt(S->Then);
    case SK::Do:
      line("do");
      stmt(S->Then);
      return line("while (", S->E, ");");
    case SK::Versioned:
      line("if (ia_inf_f64(", S->E, ") >= 0.0)");
      stmt(S->Then);
      line("else if (ia_sup_f64(", S->E, ") <= 0.0)");
      stmt(S->Else);
      line("else");
      return stmt(S->Ext->Then2);
    case SK::RowKernel:
      return rowKernel(S);
    case SK::BatchLoop:
      if (S->Ext->X[1])
        return line("ia_arr_", S->Text, "_f64(", S->E, ", ", S->Ext->X[0],
                    ", ", S->Ext->X[1], ", (unsigned long)(", S->Ext->X[2],
                    "));");
      return line("ia_arr_", S->Text, "_f64(", S->E, ", ", S->Ext->X[0],
                  ", (unsigned long)(", S->Ext->X[2], "));");
    case SK::AccInit:
      line("acc_", sfx(), " ", name(S->Slot), ";");
      return line("isum_init_", sfx(), "(&", name(S->Slot), ", ", S->E,
                  ");");
    case SK::AccFeed:
      return line("isum_accumulate_", sfx(), "(&", name(S->Slot), ", ", S->E,
                  ");");
    case SK::AccReduce:
      if (S->Narrow)
        return line(S->E2, " = ia_narrow_dd_f64(isum_reduce_", sfx(), "(&",
                    name(S->Slot), "));");
      return line(S->E2, " = isum_reduce_", sfx(), "(&", name(S->Slot),
                  ");");
    case SK::TolShadow: {
      std::string Tol;
      {
        RoundUpwardScope Up; // the widened tolerance prints upward
        Tol = num(S->Tol);
      }
      return line(ivType(), " ", name(S->Slot), " = ia_set_tol_", sfx(), "(",
                  name(S->Slot2), ", ", Tol, "); // ", name(S->Slot2),
                  " +- ", S->Text);
    }
    case SK::Return:
      if (S->E)
        return line("return ", S->E, ";");
      return line("return;");
    case SK::TierReturn:
      return tierReturn(S);
    case SK::Break:
      return line("break;");
    case SK::Continue:
      return line("continue;");
    case SK::Null:
      return line(";");
    case SK::Emit:
      return line(S->Text);
    }
  }
};

void visitExpr(Expr *E, const std::function<void(Expr &)> &Visit) {
  if (!E)
    return;
  Visit(*E);
  for (Expr *A : E->A)
    visitExpr(A, Visit);
  if (E->Args)
    for (Expr *A : *E->Args)
      visitExpr(A, Visit);
}

void visitStmt(Stmt *S, const std::function<void(Expr &)> &OnExpr,
               const std::function<void(Stmt &)> &OnStmt) {
  if (!S)
    return;
  OnStmt(*S);
  for (Expr *E : {S->E, S->E2})
    visitExpr(E, OnExpr);
  for (Stmt *C : S->Body)
    visitStmt(C, OnExpr, OnStmt);
  for (Stmt *C : {S->Then, S->Else})
    visitStmt(C, OnExpr, OnStmt);
  if (StmtExt *X = S->Ext) {
    for (Expr *E : {X->Scalar, X->X[0], X->X[1], X->X[2], X->X[3]})
      visitExpr(E, OnExpr);
    visitStmt(X->Then2, OnExpr, OnStmt);
    visitStmt(X->Else2, OnExpr, OnStmt);
  }
}

} // namespace

void printFunction(const Function &F, std::string &Out) {
  Printer(F, Out).function();
}

void forEachNode(Function &F, const std::function<void(Expr &)> &OnExpr,
                 const std::function<void(Stmt &)> &OnStmt) {
  visitStmt(F.Body, OnExpr, OnStmt);
}

} // namespace lowered
} // namespace igen
