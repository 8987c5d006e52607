//===- AST.h - Abstract syntax tree for the C subset ------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The AST of the supported C subset, following Clang's node taxonomy
/// (Section IV-B): declarations (Decl), statements (Stmt) and expressions
/// (Expr). Nodes carry kind tags for LLVM-style dispatch (no RTTI) and
/// are owned by an ASTContext arena.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_FRONTEND_AST_H
#define IGEN_FRONTEND_AST_H

#include "frontend/Type.h"
#include "support/SourceLoc.h"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

namespace igen {

class ASTContext;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class Kind {
    IntLiteral,
    FloatLiteral,
    DeclRef,
    Unary,
    Binary,
    Conditional,
    Call,
    Index,
    Cast,
    Paren,
  };

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

  /// The type computed by Sema (null before type checking).
  const Type *type() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

protected:
  Expr(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}
  ~Expr() = default;

private:
  Kind K;
  SourceLoc Loc;
  const Type *Ty = nullptr;
};

class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(SourceLoc Loc, long long Value, std::string Spelling)
      : Expr(Kind::IntLiteral, Loc), Value(Value),
        Spelling(std::move(Spelling)) {}

  long long Value;
  std::string Spelling;

  static bool classof(const Expr *E) { return E->kind() == Kind::IntLiteral; }
};

class FloatLiteralExpr : public Expr {
public:
  FloatLiteralExpr(SourceLoc Loc, double Value, std::string Spelling,
                   bool IsFloatSuffix, bool IsTolerance)
      : Expr(Kind::FloatLiteral, Loc), Value(Value),
        Spelling(std::move(Spelling)), IsFloatSuffix(IsFloatSuffix),
        IsTolerance(IsTolerance) {}

  double Value;
  std::string Spelling;
  bool IsFloatSuffix; ///< 1.0f
  bool IsTolerance;   ///< 0.25t: tolerance constant (Section IV-C)

  static bool classof(const Expr *E) {
    return E->kind() == Kind::FloatLiteral;
  }
};

class VarDecl;

class DeclRefExpr : public Expr {
public:
  DeclRefExpr(SourceLoc Loc, std::string Name)
      : Expr(Kind::DeclRef, Loc), Name(std::move(Name)) {}

  std::string Name;
  VarDecl *Decl = nullptr; ///< Resolved by Sema.

  static bool classof(const Expr *E) { return E->kind() == Kind::DeclRef; }
};

class UnaryExpr : public Expr {
public:
  enum class Op {
    Neg,
    Plus,
    LogicalNot,
    BitNot,
    PreInc,
    PreDec,
    PostInc,
    PostDec,
    Deref,
    AddrOf,
  };

  UnaryExpr(SourceLoc Loc, Op O, Expr *Sub)
      : Expr(Kind::Unary, Loc), O(O), Sub(Sub) {}

  Op O;
  Expr *Sub;

  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }
};

class BinaryExpr : public Expr {
public:
  enum class Op {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitOr,
    BitXor,
    LT,
    GT,
    LE,
    GE,
    EQ,
    NE,
    LAnd,
    LOr,
    Assign,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
  };

  BinaryExpr(SourceLoc Loc, Op O, Expr *LHS, Expr *RHS)
      : Expr(Kind::Binary, Loc), O(O), LHS(LHS), RHS(RHS) {}

  Op O;
  Expr *LHS;
  Expr *RHS;

  bool isAssignment() const {
    return O == Op::Assign || O == Op::AddAssign || O == Op::SubAssign ||
           O == Op::MulAssign || O == Op::DivAssign;
  }
  bool isComparison() const {
    return O == Op::LT || O == Op::GT || O == Op::LE || O == Op::GE ||
           O == Op::EQ || O == Op::NE;
  }

  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }
};

class ConditionalExpr : public Expr {
public:
  ConditionalExpr(SourceLoc Loc, Expr *Cond, Expr *Then, Expr *Else)
      : Expr(Kind::Conditional, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *Cond;
  Expr *Then;
  Expr *Else;

  static bool classof(const Expr *E) {
    return E->kind() == Kind::Conditional;
  }
};

class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, std::string Callee, std::vector<Expr *> Args)
      : Expr(Kind::Call, Loc), Callee(std::move(Callee)),
        Args(std::move(Args)) {}

  std::string Callee;
  std::vector<Expr *> Args;

  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }
};

class IndexExpr : public Expr {
public:
  IndexExpr(SourceLoc Loc, Expr *Base, Expr *Idx)
      : Expr(Kind::Index, Loc), Base(Base), Idx(Idx) {}

  Expr *Base;
  Expr *Idx;

  static bool classof(const Expr *E) { return E->kind() == Kind::Index; }
};

class CastExpr : public Expr {
public:
  CastExpr(SourceLoc Loc, const Type *To, Expr *Sub)
      : Expr(Kind::Cast, Loc), To(To), Sub(Sub) {}

  const Type *To;
  Expr *Sub;

  static bool classof(const Expr *E) { return E->kind() == Kind::Cast; }
};

class ParenExpr : public Expr {
public:
  ParenExpr(SourceLoc Loc, Expr *Sub) : Expr(Kind::Paren, Loc), Sub(Sub) {}

  Expr *Sub;

  static bool classof(const Expr *E) { return E->kind() == Kind::Paren; }
};

/// Strips parentheses.
inline const Expr *ignoreParens(const Expr *E) {
  while (const auto *P = (E->kind() == Expr::Kind::Paren
                              ? static_cast<const ParenExpr *>(E)
                              : nullptr))
    E = P->Sub;
  return E;
}
inline Expr *ignoreParens(Expr *E) {
  return const_cast<Expr *>(ignoreParens(static_cast<const Expr *>(E)));
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

class VarDecl {
public:
  VarDecl(SourceLoc Loc, const Type *Ty, std::string Name)
      : Loc(Loc), Ty(Ty), Name(std::move(Name)) {}

  SourceLoc Loc;
  const Type *Ty;
  std::string Name;
  Expr *Init = nullptr;
  bool IsParam = false;
  bool HasTolerance = false;
  double Tolerance = 0.0; ///< The ':0.125' annotation (Section IV-C).
  std::string ToleranceSpelling;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Compound,
    DeclStmt,
    ExprStmt,
    If,
    For,
    While,
    Do,
    Return,
    Break,
    Continue,
    Null,
  };

  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

protected:
  Stmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}
  ~Stmt() = default;

private:
  Kind K;
  SourceLoc Loc;
};

class CompoundStmt : public Stmt {
public:
  explicit CompoundStmt(SourceLoc Loc) : Stmt(Kind::Compound, Loc) {}

  std::vector<Stmt *> Body;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Compound; }
};

class DeclStmt : public Stmt {
public:
  explicit DeclStmt(SourceLoc Loc) : Stmt(Kind::DeclStmt, Loc) {}

  std::vector<VarDecl *> Decls;

  static bool classof(const Stmt *S) { return S->kind() == Kind::DeclStmt; }
};

class ExprStmt : public Stmt {
public:
  ExprStmt(SourceLoc Loc, Expr *E) : Stmt(Kind::ExprStmt, Loc), E(E) {}

  Expr *E;

  static bool classof(const Stmt *S) { return S->kind() == Kind::ExprStmt; }
};

class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, Expr *Cond, Stmt *Then, Stmt *Else)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}

  Expr *Cond;
  Stmt *Then;
  Stmt *Else; ///< may be null

  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }
};

class ForStmt : public Stmt {
public:
  explicit ForStmt(SourceLoc Loc) : Stmt(Kind::For, Loc) {}

  Stmt *Init = nullptr; ///< DeclStmt, ExprStmt or Null.
  Expr *Cond = nullptr;
  Expr *Inc = nullptr;
  Stmt *Body = nullptr;
  /// Variables named by a preceding `#pragma igen reduce` (Section VI-B).
  std::vector<std::string> ReduceVars;
  /// The declarations Sema resolved those names to, in the same order.
  std::vector<const VarDecl *> ReduceDecls;

  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }
};

class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, Expr *Cond, Stmt *Body)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}

  Expr *Cond;
  Stmt *Body;

  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }
};

class DoStmt : public Stmt {
public:
  DoStmt(SourceLoc Loc, Stmt *Body, Expr *Cond)
      : Stmt(Kind::Do, Loc), Body(Body), Cond(Cond) {}

  Stmt *Body;
  Expr *Cond;

  static bool classof(const Stmt *S) { return S->kind() == Kind::Do; }
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(SourceLoc Loc, Expr *Value)
      : Stmt(Kind::Return, Loc), Value(Value) {}

  Expr *Value; ///< may be null

  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Continue; }
};

class NullStmt : public Stmt {
public:
  explicit NullStmt(SourceLoc Loc) : Stmt(Kind::Null, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Null; }
};

//===----------------------------------------------------------------------===//
// Functions and the translation unit
//===----------------------------------------------------------------------===//

class FunctionDecl {
public:
  FunctionDecl(SourceLoc Loc, const Type *RetTy, std::string Name)
      : Loc(Loc), RetTy(RetTy), Name(std::move(Name)) {}

  SourceLoc Loc;
  const Type *RetTy;
  std::string Name;
  std::vector<VarDecl *> Params;
  CompoundStmt *Body = nullptr; ///< null: prototype only
  bool IsStatic = false;
};

/// One top-level item: a function or a verbatim directive line.
struct TopLevelItem {
  FunctionDecl *Function = nullptr;
  std::string Directive; ///< used when Function is null
};

class TranslationUnit {
public:
  std::vector<TopLevelItem> Items;

  FunctionDecl *findFunction(const std::string &Name) const {
    for (const TopLevelItem &I : Items)
      if (I.Function && I.Function->Name == Name && I.Function->Body)
        return I.Function;
    for (const TopLevelItem &I : Items)
      if (I.Function && I.Function->Name == Name)
        return I.Function;
    return nullptr;
  }
};

//===----------------------------------------------------------------------===//
// ASTContext: arena ownership for all nodes
//===----------------------------------------------------------------------===//

class ASTContext {
public:
  ASTContext() = default;
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;
  ~ASTContext() {
    for (const Owned &O : Destructors)
      O.Destroy(O.Node);
  }

  TypeContext Types;

  /// Constructs a node in the arena; it lives as long as the context.
  template <typename T, typename... Args> T *create(Args &&...A) {
    // A chunk from new[] is aligned for every fundamental type.
    static_assert(alignof(T) <= alignof(std::max_align_t));
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Ptr = new (Mem) T(std::forward<Args>(A)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      Destructors.push_back({Ptr, [](void *P) { static_cast<T *>(P)->~T(); }});
    return Ptr;
  }

  TranslationUnit TU;

private:
  /// Nodes are carved out of chunks, one malloc per chunk instead of one
  /// per node. Chunks double from 1 KiB up to this size, so a small
  /// program (the daemon caches many) wastes little of its last chunk.
  static constexpr size_t MaxChunkBytes = 64 * 1024;

  void *allocate(size_t Size, size_t NodeAlign) {
    size_t Pad = -reinterpret_cast<uintptr_t>(Next) & (NodeAlign - 1);
    if (Pad + Size <= Left) {
      Next += Pad;
      Left -= Pad;
    } else {
      Left = std::max(Size, ChunkBytes);
      ChunkBytes = std::min(2 * ChunkBytes, MaxChunkBytes);
      Chunks.push_back(std::make_unique_for_overwrite<char[]>(Left));
      Next = Chunks.back().get();
    }
    void *P = Next;
    Next += Size;
    Left -= Size;
    return P;
  }

  struct Owned {
    void *Node;
    void (*Destroy)(void *);
  };
  std::vector<std::unique_ptr<char[]>> Chunks;
  size_t ChunkBytes = 1024; ///< size of the next chunk
  char *Next = nullptr;
  size_t Left = 0;
  std::vector<Owned> Destructors; ///< nodes with a nontrivial destructor
};

/// LLVM-style dyn_cast for Expr/Stmt using the classof hooks.
template <typename T, typename U> T *dynCast(U *Node) {
  if (Node && T::classof(Node))
    return static_cast<T *>(Node);
  return nullptr;
}
template <typename T, typename U> const T *dynCast(const U *Node) {
  if (Node && T::classof(Node))
    return static_cast<const T *>(Node);
  return nullptr;
}
template <typename T, typename U> T *cast(U *Node) {
  assert(Node && T::classof(Node) && "bad cast");
  return static_cast<T *>(Node);
}
template <typename T, typename U> const T *cast(const U *Node) {
  assert(Node && T::classof(Node) && "bad cast");
  return static_cast<const T *>(Node);
}

} // namespace igen

#endif // IGEN_FRONTEND_AST_H
