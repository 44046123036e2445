//===- Expr.cpp - expression nodes of the loop-nest IR -------------------===//

#include "ir/Expr.h"

using namespace ltp;
using namespace ltp::ir;

bool ir::isBooleanOp(BinOp Op) {
  switch (Op) {
  case BinOp::LT:
  case BinOp::LE:
  case BinOp::GT:
  case BinOp::GE:
  case BinOp::EQ:
  case BinOp::NE:
  case BinOp::And:
  case BinOp::Or:
    return true;
  default:
    return false;
  }
}

const char *ir::binOpSpelling(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "+";
  case BinOp::Sub:
    return "-";
  case BinOp::Mul:
    return "*";
  case BinOp::Div:
    return "/";
  case BinOp::Mod:
    return "%";
  case BinOp::Min:
    return "min";
  case BinOp::Max:
    return "max";
  case BinOp::BitAnd:
    return "&";
  case BinOp::BitOr:
    return "|";
  case BinOp::BitXor:
    return "^";
  case BinOp::LT:
    return "<";
  case BinOp::LE:
    return "<=";
  case BinOp::GT:
    return ">";
  case BinOp::GE:
    return ">=";
  case BinOp::EQ:
    return "==";
  case BinOp::NE:
    return "!=";
  case BinOp::And:
    return "&&";
  case BinOp::Or:
    return "||";
  }
  assert(false && "unknown binary operator");
  return "";
}

ExprPtr IntImm::make(int64_t Value, Type T) {
  assert((T.isInt() || T.isBool()) &&
         "IntImm requires an integer or boolean type");
  return ExprPtr(new IntImm(Value, T));
}

ExprPtr FloatImm::make(double Value, Type T) {
  assert(T.isFloat() && "FloatImm requires a float type");
  return ExprPtr(new FloatImm(Value, T));
}

ExprPtr VarRef::make(const std::string &Name, Type T,
                     std::shared_ptr<const RDomState> Domain) {
  assert(!Name.empty() && "variable reference requires a name");
  return ExprPtr(new VarRef(Name, T, std::move(Domain)));
}

ExprPtr Load::make(const std::string &BufferName, std::vector<ExprPtr> Indices,
                   Type T) {
  assert(!BufferName.empty() && "load requires a buffer name");
  assert(!Indices.empty() && "load requires at least one index");
  return ExprPtr(new Load(BufferName, std::move(Indices), T));
}

ExprPtr Binary::make(BinOp Op, ExprPtr A, ExprPtr B) {
  assert(A && B && "binary operands must be non-null");
  assert(A->type() == B->type() && "binary operands must agree on type");
  Type ResultType = isBooleanOp(Op) ? Type::boolean() : A->type();
  return ExprPtr(new Binary(Op, std::move(A), std::move(B), ResultType));
}

ExprPtr Cast::make(Type T, ExprPtr Value) {
  assert(Value && "cast operand must be non-null");
  if (Value->type() == T)
    return Value;
  return ExprPtr(new Cast(T, std::move(Value)));
}

ExprPtr Select::make(ExprPtr Cond, ExprPtr TrueValue, ExprPtr FalseValue) {
  assert(Cond && TrueValue && FalseValue && "select operands non-null");
  assert(Cond->type().isBool() && "select condition must be boolean");
  assert(TrueValue->type() == FalseValue->type() &&
         "select arms must agree on type");
  Type T = TrueValue->type();
  return ExprPtr(new Select(std::move(Cond), std::move(TrueValue),
                            std::move(FalseValue), T));
}

bool ir::isConstInt(const ExprPtr &E, int64_t Value) {
  const IntImm *Imm = exprDynAs<IntImm>(E);
  return Imm && Imm->Value == Value;
}

std::optional<int64_t> ir::asConstInt(const ExprPtr &E) {
  if (const IntImm *Imm = exprDynAs<IntImm>(E))
    return Imm->Value;
  return std::nullopt;
}
