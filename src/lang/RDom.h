//===- RDom.h - reduction domains -------------------------------*- C++ -*-===//
//
// Part of the LTP project (CGO'18 prefetch-aware loop transformations).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduction domains for update definitions. A one-dimensional RDom is a
/// single reduction variable (matmul's `k`); multi-dimensional RDoms cover
/// convolution windows (`rx, ry, rc`). Bounds are expressions so that
/// triangular iteration spaces (trmm, syrk) can reference pure variables;
/// an optional `where` predicate restricts the domain further.
///
/// Reduction variables bind by value, as Halide's
/// `Variable::reduction_domain` does: an RVar turned into an Expr yields a
/// variable reference that carries its RDom's shared state, and an update
/// definition creates loops for exactly the domains its expressions
/// reference. Names only label the loops, so two live RDoms may share a
/// name. `where` predicates must be added before the update definition
/// that uses them.
///
//===----------------------------------------------------------------------===//

#ifndef LTP_LANG_RDOM_H
#define LTP_LANG_RDOM_H

#include "lang/Expr.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace ltp {

struct RDomState;

/// One reduction variable: a name plus min/extent expressions. The copy
/// an RDom holds also knows its domain (weakly: the domain owns its
/// variables).
class RVar {
public:
  RVar() = default;
  RVar(std::string Name, Expr Min, Expr Extent)
      : Name(std::move(Name)), MinExpr(std::move(Min)),
        ExtentExpr(std::move(Extent)) {}

  const std::string &name() const { return Name; }
  const Expr &minExpr() const { return MinExpr; }
  const Expr &extentExpr() const { return ExtentExpr; }

  /// Implicit conversion for use inside index expressions; the reference
  /// carries the domain.
  operator Expr() const {
    return Expr(ir::VarRef::make(Name, ir::Type::int32(), Domain.lock()));
  }

private:
  friend class RDom;

  std::string Name;
  Expr MinExpr;
  Expr ExtentExpr;
  std::weak_ptr<const RDomState> Domain;
};

/// Shared state of one reduction domain; reduction-variable references
/// point at it.
struct RDomState {
  std::vector<RVar> Vars;
  std::vector<Expr> Predicates;
};

/// A (possibly multi-dimensional) reduction domain.
class RDom {
public:
  /// One-dimensional domain [Min, Min+Extent).
  RDom(Expr Min, Expr Extent, std::string Name = "r")
      : State(std::make_shared<RDomState>()) {
    State->Vars.emplace_back(std::move(Name), std::move(Min),
                             std::move(Extent));
    bindVars();
  }

  /// Multi-dimensional domain from explicit RVars (dimension 0 varies
  /// fastest, i.e. becomes the innermost reduction loop by default).
  explicit RDom(std::vector<RVar> Vars)
      : State(std::make_shared<RDomState>()) {
    assert(!Vars.empty() && "RDom requires at least one variable");
    State->Vars = std::move(Vars);
    bindVars();
  }

  /// Restricts the domain to points satisfying \p Predicate. Must be
  /// called before the update definition that uses this domain.
  void where(Expr Predicate);

  size_t dims() const { return State->Vars.size(); }
  const RVar &operator[](size_t D) const {
    assert(D < State->Vars.size() && "RDom dimension out of range");
    return State->Vars[D];
  }

  /// Dimension 0 shorthand, matching Halide's use of a 1-D RDom directly
  /// inside expressions.
  operator Expr() const {
    assert(State->Vars.size() == 1 &&
           "implicit conversion requires a 1-D RDom");
    return static_cast<Expr>(State->Vars[0]);
  }

  const std::vector<RVar> &vars() const { return State->Vars; }
  const std::vector<Expr> &predicates() const { return State->Predicates; }

private:
  /// Points every variable at this domain.
  void bindVars() {
    for (RVar &V : State->Vars) {
      assert(!V.Name.empty() && "reduction variable requires a name");
      V.Domain = State;
    }
  }

  std::shared_ptr<RDomState> State;
};

} // namespace ltp

#endif // LTP_LANG_RDOM_H
