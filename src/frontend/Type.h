//===- Type.h - Types for the C subset --------------------------*- C++ -*-===//
//
// Part of the IGen reproduction. BSD 3-Clause license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The type system of the supported C subset: scalar builtins, the Intel
/// SIMD vector types (Table II), pointers and constant-size arrays. Types
/// are interned in a TypeContext so they compare by pointer.
///
//===----------------------------------------------------------------------===//

#ifndef IGEN_FRONTEND_TYPE_H
#define IGEN_FRONTEND_TYPE_H

#include <cassert>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace igen {

class Type {
public:
  enum class Kind {
    Void,
    Char,
    Int,
    UInt,
    Long,
    ULong,
    Float,
    Double,
    M128,  ///< __m128: 4 floats
    M128D, ///< __m128d: 2 doubles
    M256,  ///< __m256: 8 floats
    M256D, ///< __m256d: 4 doubles
    Pointer,
    Array,
  };

  Kind kind() const { return K; }

  bool isVoid() const { return K == Kind::Void; }
  bool isInteger() const {
    return K == Kind::Char || K == Kind::Int || K == Kind::UInt ||
           K == Kind::Long || K == Kind::ULong;
  }
  bool isFloating() const {
    return K == Kind::Float || K == Kind::Double;
  }
  bool isSimdVector() const {
    return K == Kind::M128 || K == Kind::M128D || K == Kind::M256 ||
           K == Kind::M256D;
  }
  /// Anything IGen must promote to an interval representation.
  bool isFloatingOrVector() const { return isFloating() || isSimdVector(); }
  bool isPointer() const { return K == Kind::Pointer; }
  bool isArray() const { return K == Kind::Array; }

  /// Element type for pointers and arrays; null otherwise.
  const Type *element() const { return Elem; }
  /// Array size (elements); -1 for unsized.
  int64_t arraySize() const { return ArraySize; }

  /// Number of scalar lanes in a SIMD vector type (0 for non-vectors).
  int vectorLanes() const {
    switch (K) {
    case Kind::M128:
      return 4;
    case Kind::M128D:
      return 2;
    case Kind::M256:
      return 8;
    case Kind::M256D:
      return 4;
    default:
      return 0;
    }
  }

  /// Scalar lane kind of a SIMD vector type.
  Kind vectorElementKind() const {
    assert(isSimdVector());
    return (K == Kind::M128D || K == Kind::M256D) ? Kind::Double
                                                  : Kind::Float;
  }

  /// The C spelling of this type ("double", "__m256d", "double *").
  std::string cName() const;

private:
  friend class TypeContext;
  explicit Type(Kind K, const Type *Elem = nullptr, int64_t ArraySize = -1)
      : K(K), Elem(Elem), ArraySize(ArraySize) {}

  Kind K;
  const Type *Elem;
  int64_t ArraySize;
};

/// Owns and interns all types of a compilation.
class TypeContext {
public:
  const Type *get(Type::Kind K) {
    assert(K != Type::Kind::Pointer && K != Type::Kind::Array);
    auto &Slot = Builtins[static_cast<int>(K)];
    if (!Slot)
      Slot.reset(new Type(K));
    return Slot.get();
  }

  const Type *voidType() { return get(Type::Kind::Void); }
  const Type *intType() { return get(Type::Kind::Int); }
  const Type *floatType() { return get(Type::Kind::Float); }
  const Type *doubleType() { return get(Type::Kind::Double); }

  const Type *getPointer(const Type *Elem) {
    auto &Slot = Pointers[Elem];
    if (!Slot)
      Slot.reset(new Type(Type::Kind::Pointer, Elem));
    return Slot.get();
  }

  const Type *getArray(const Type *Elem, int64_t Size) {
    auto &Slot = Arrays[{Elem, Size}];
    if (!Slot)
      Slot.reset(new Type(Type::Kind::Array, Elem, Size));
    return Slot.get();
  }

  /// Resolves a SIMD type name ("__m256d") to its type, or null.
  const Type *getSimdTypeByName(std::string_view Name) {
    if (Name == "__m128")
      return get(Type::Kind::M128);
    if (Name == "__m128d")
      return get(Type::Kind::M128D);
    if (Name == "__m256")
      return get(Type::Kind::M256);
    if (Name == "__m256d")
      return get(Type::Kind::M256D);
    return nullptr;
  }

private:
  std::unique_ptr<Type> Builtins[16];
  std::map<const Type *, std::unique_ptr<Type>> Pointers;
  std::map<std::pair<const Type *, int64_t>, std::unique_ptr<Type>> Arrays;
};

inline std::string Type::cName() const {
  switch (K) {
  case Kind::Void:
    return "void";
  case Kind::Char:
    return "char";
  case Kind::Int:
    return "int";
  case Kind::UInt:
    return "unsigned int";
  case Kind::Long:
    return "long";
  case Kind::ULong:
    return "unsigned long";
  case Kind::Float:
    return "float";
  case Kind::Double:
    return "double";
  case Kind::M128:
    return "__m128";
  case Kind::M128D:
    return "__m128d";
  case Kind::M256:
    return "__m256";
  case Kind::M256D:
    return "__m256d";
  case Kind::Pointer:
    return Elem->cName() + " *";
  case Kind::Array:
    return Elem->cName() + " []";
  }
  return "?";
}

} // namespace igen

#endif // IGEN_FRONTEND_TYPE_H
