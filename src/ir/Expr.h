//===- Expr.h - expression nodes of the loop-nest IR ------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Immutable, reference-counted expression nodes. The IR deliberately stays
/// small: scalar arithmetic, comparisons, select, casts, variable references
/// and multi-dimensional buffer loads — exactly what the paper's benchmark
/// statements (PolyBench-style kernels, convolution, transposition) need.
///
/// Buffer loads keep their per-dimension index expressions unflattened so
/// that the access analysis in src/core can recover the affine index
/// structure (Section 3.1 of the paper) without reverse-engineering
/// linearized addressing.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_IR_EXPR_H
#define LTP_IR_EXPR_H

#include "ir/Type.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ltp {

struct RDomState;

namespace ir {

/// Discriminator for expression nodes.
enum class ExprKind {
  IntImm,
  FloatImm,
  VarRef,
  Load,
  Binary,
  Cast,
  Select,
};

/// Binary operators. Comparisons yield Bool; the rest yield the operand
/// type.
enum class BinOp {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Min,
  Max,
  BitAnd,
  BitOr,
  BitXor,
  LT,
  LE,
  GT,
  GE,
  EQ,
  NE,
  And,
  Or,
};

/// Returns true when \p Op is a comparison or logical operator.
bool isBooleanOp(BinOp Op);

/// Returns the C spelling of \p Op ("+", "&&", ...); Min/Max have none and
/// are expanded by the code generator.
const char *binOpSpelling(BinOp Op);

class BaseExprNode;

/// Shared handle to an immutable expression node.
using ExprPtr = std::shared_ptr<const BaseExprNode>;

/// Base class of all expression nodes.
class BaseExprNode {
public:
  BaseExprNode(ExprKind Kind, Type NodeType)
      : Kind(Kind), NodeType(NodeType) {}
  virtual ~BaseExprNode() = default;

  ExprKind kind() const { return Kind; }
  Type type() const { return NodeType; }

private:
  ExprKind Kind;
  Type NodeType;
};

/// Integer literal.
class IntImm : public BaseExprNode {
public:
  int64_t Value;

  static ExprPtr make(int64_t Value, Type T = Type::int32());

private:
  IntImm(int64_t Value, Type T)
      : BaseExprNode(ExprKind::IntImm, T), Value(Value) {}
};

/// Floating-point literal.
class FloatImm : public BaseExprNode {
public:
  double Value;

  static ExprPtr make(double Value, Type T = Type::float32());

private:
  FloatImm(double Value, Type T)
      : BaseExprNode(ExprKind::FloatImm, T), Value(Value) {}
};

/// Reference to a scalar variable (loop variable or let binding).
class VarRef : public BaseExprNode {
public:
  std::string Name;
  /// The reduction domain a front-end reduction variable belongs to
  /// (null for every other variable). Update definitions read it to
  /// create the reduction loops; the IR passes ignore it.
  std::shared_ptr<const RDomState> Domain;

  static ExprPtr make(const std::string &Name, Type T = Type::int32(),
                      std::shared_ptr<const RDomState> Domain = nullptr);

private:
  VarRef(const std::string &Name, Type T,
         std::shared_ptr<const RDomState> Domain)
      : BaseExprNode(ExprKind::VarRef, T), Name(Name),
        Domain(std::move(Domain)) {}
};

/// Multi-dimensional load from a named buffer. Index 0 addresses the
/// contiguous ("column") dimension, matching the Halide argument order used
/// throughout the paper.
class Load : public BaseExprNode {
public:
  std::string BufferName;
  std::vector<ExprPtr> Indices;

  static ExprPtr make(const std::string &BufferName,
                      std::vector<ExprPtr> Indices, Type T);

private:
  Load(const std::string &BufferName, std::vector<ExprPtr> Indices, Type T)
      : BaseExprNode(ExprKind::Load, T), BufferName(BufferName),
        Indices(std::move(Indices)) {}
};

/// Binary operation.
class Binary : public BaseExprNode {
public:
  BinOp Op;
  ExprPtr A;
  ExprPtr B;

  static ExprPtr make(BinOp Op, ExprPtr A, ExprPtr B);

private:
  Binary(BinOp Op, ExprPtr A, ExprPtr B, Type T)
      : BaseExprNode(ExprKind::Binary, T), Op(Op), A(std::move(A)),
        B(std::move(B)) {}
};

/// Value-preserving type conversion.
class Cast : public BaseExprNode {
public:
  ExprPtr Value;

  static ExprPtr make(Type T, ExprPtr Value);

private:
  Cast(Type T, ExprPtr Value)
      : BaseExprNode(ExprKind::Cast, T), Value(std::move(Value)) {}
};

/// Ternary select: Cond ? TrueValue : FalseValue.
class Select : public BaseExprNode {
public:
  ExprPtr Cond;
  ExprPtr TrueValue;
  ExprPtr FalseValue;

  static ExprPtr make(ExprPtr Cond, ExprPtr TrueValue, ExprPtr FalseValue);

private:
  Select(ExprPtr Cond, ExprPtr TrueValue, ExprPtr FalseValue, Type T)
      : BaseExprNode(ExprKind::Select, T), Cond(std::move(Cond)),
        TrueValue(std::move(TrueValue)), FalseValue(std::move(FalseValue)) {}
};

/// Convenience downcast with an assertion; the IR has no RTTI.
template <typename NodeT> const NodeT *exprAs(const ExprPtr &E) {
  return static_cast<const NodeT *>(E.get());
}

/// Checked downcast returning nullptr on kind mismatch.
template <typename NodeT> const NodeT *exprDynAs(const ExprPtr &E);

template <> inline const IntImm *exprDynAs<IntImm>(const ExprPtr &E) {
  return E && E->kind() == ExprKind::IntImm ? exprAs<IntImm>(E) : nullptr;
}
template <> inline const FloatImm *exprDynAs<FloatImm>(const ExprPtr &E) {
  return E && E->kind() == ExprKind::FloatImm ? exprAs<FloatImm>(E) : nullptr;
}
template <> inline const VarRef *exprDynAs<VarRef>(const ExprPtr &E) {
  return E && E->kind() == ExprKind::VarRef ? exprAs<VarRef>(E) : nullptr;
}
template <> inline const Load *exprDynAs<Load>(const ExprPtr &E) {
  return E && E->kind() == ExprKind::Load ? exprAs<Load>(E) : nullptr;
}
template <> inline const Binary *exprDynAs<Binary>(const ExprPtr &E) {
  return E && E->kind() == ExprKind::Binary ? exprAs<Binary>(E) : nullptr;
}
template <> inline const Cast *exprDynAs<Cast>(const ExprPtr &E) {
  return E && E->kind() == ExprKind::Cast ? exprAs<Cast>(E) : nullptr;
}
template <> inline const Select *exprDynAs<Select>(const ExprPtr &E) {
  return E && E->kind() == ExprKind::Select ? exprAs<Select>(E) : nullptr;
}

/// Returns true when \p E is an IntImm equal to \p Value.
bool isConstInt(const ExprPtr &E, int64_t Value);

/// If \p E is an IntImm, returns its value.
std::optional<int64_t> asConstInt(const ExprPtr &E);

} // namespace ir
} // namespace ltp

#endif // LTP_IR_EXPR_H
