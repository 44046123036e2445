//===- Func.cpp - Halide-like function definitions and schedules ---------===//

#include "lang/Func.h"

#include "ir/IRMutator.h"
#include "ir/IRVisitor.h"

#include <algorithm>
#include <cassert>
#include <map>

using namespace ltp;

//===----------------------------------------------------------------------===//
// Reduction domains
//===----------------------------------------------------------------------===//

namespace {

/// Drops the domain from references to the variables of \p Self, so a
/// predicate stored in its own domain does not keep that domain alive.
class DropSelfReferences : public ir::IRMutator {
public:
  explicit DropSelfReferences(const RDomState *Self) : Self(Self) {}

protected:
  ir::ExprPtr mutate(const ir::VarRef *Node,
                     const ir::ExprPtr &Original) override {
    if (Node->Domain.get() != Self)
      return Original;
    return ir::VarRef::make(Node->Name, Node->type());
  }

private:
  const RDomState *Self;
};

} // namespace

void RDom::where(Expr Predicate) {
  assert(Predicate.defined() && "where predicate must be defined");
  assert(Predicate.type().isBool() && "where predicate must be boolean");
  State->Predicates.push_back(
      DropSelfReferences(State.get()).mutateExpr(Predicate.node()));
}

//===----------------------------------------------------------------------===//
// FuncContents
//===----------------------------------------------------------------------===//

namespace ltp {

/// Shared state of a Func handle.
struct FuncContents {
  std::string Name;
  ir::Type ElemType;
  bool TypeKnown = false;
  std::vector<std::string> Args;
  Definition Pure;
  bool HasPure = false;
  std::vector<Definition> Updates;
  bool NonTemporal = false;
};

} // namespace ltp

namespace {

/// Collects the variable names an expression tree references and, in
/// order of first reference, the reduction domains they belong to.
class VarCollector : public ir::IRVisitor {
public:
  std::vector<std::string> Names;
  std::vector<std::shared_ptr<const RDomState>> Domains;

  void collect(const Expr &E) { visitExpr(E.node()); }

protected:
  void visit(const ir::VarRef *Node) override {
    if (std::find(Names.begin(), Names.end(), Node->Name) == Names.end())
      Names.push_back(Node->Name);
    if (Node->Domain && std::find(Domains.begin(), Domains.end(),
                                  Node->Domain) == Domains.end())
      Domains.push_back(Node->Domain);
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Stage
//===----------------------------------------------------------------------===//

Definition &Stage::definition() {
  if (StageIndex < 0)
    return Contents->Pure;
  assert(StageIndex < static_cast<int>(Contents->Updates.size()) &&
         "stage index out of range");
  return Contents->Updates[StageIndex];
}

const StageSchedule &Stage::schedule() const {
  return const_cast<Stage *>(this)->definition().Schedule;
}

Stage &Stage::split(VarName Old, VarName Outer, VarName Inner,
                    int64_t Factor) {
  assert(Factor > 0 && "split factor must be positive");
  assert(Outer.str() != Inner.str() && "split names must differ");
  definition().Schedule.Directives.push_back(
      SplitDirective{Old.str(), Outer.str(), Inner.str(), Factor});
  return *this;
}

Stage &Stage::tile(VarName X, VarName Y, VarName XOuter, VarName YOuter,
                   VarName XInner, VarName YInner, int64_t XFactor,
                   int64_t YFactor) {
  split(X, XOuter, XInner, XFactor);
  split(Y, YOuter, YInner, YFactor);
  return reorder({XInner, YInner, XOuter, YOuter});
}

Stage &Stage::fuse(VarName Outer, VarName Inner, VarName Fused) {
  definition().Schedule.Directives.push_back(
      FuseDirective{Outer.str(), Inner.str(), Fused.str()});
  return *this;
}

Stage &Stage::reorder(std::vector<VarName> InnermostFirst) {
  ReorderDirective R;
  R.InnermostFirst.reserve(InnermostFirst.size());
  for (const VarName &Name : InnermostFirst)
    R.InnermostFirst.push_back(Name.str());
  definition().Schedule.Directives.push_back(std::move(R));
  return *this;
}

Stage &Stage::parallel(VarName Name) {
  definition().Schedule.Directives.push_back(
      MarkDirective{MarkDirective::Kind::Parallel, Name.str()});
  return *this;
}

Stage &Stage::vectorize(VarName Name) {
  definition().Schedule.Directives.push_back(
      MarkDirective{MarkDirective::Kind::Vectorize, Name.str()});
  return *this;
}

Stage &Stage::vectorize(VarName Name, int Width) {
  assert(Width > 1 && "vector width must exceed 1");
  // Halide semantics: split off an inner loop of the requested width, then
  // vectorize it. The outer loop inherits a derived name.
  split(Name, Name.str() + "_vo", Name.str() + "_vi", Width);
  return vectorize(Name.str() + "_vi");
}

Stage &Stage::unroll(VarName Name) {
  definition().Schedule.Directives.push_back(
      MarkDirective{MarkDirective::Kind::Unroll, Name.str()});
  return *this;
}

Stage &Stage::unrollJam(VarName Name, int64_t Factor) {
  assert(Factor > 1 && "unroll_jam factor must exceed 1");
  definition().Schedule.Directives.push_back(
      UnrollJamDirective{Name.str(), Factor});
  return *this;
}

//===----------------------------------------------------------------------===//
// FuncRef
//===----------------------------------------------------------------------===//

FuncRef::operator Expr() const {
  assert(Contents->TypeKnown &&
         "reading a Func that has no definition yet");
  std::vector<ir::ExprPtr> Idx;
  Idx.reserve(Indices.size());
  for (const Expr &E : Indices) {
    assert(E.defined() && "undefined index expression");
    Idx.push_back(E.node());
  }
  return Expr(ir::Load::make(Contents->Name, std::move(Idx),
                             Contents->ElemType));
}

Stage FuncRef::operator=(Expr Value) {
  assert(Value.defined() && "definition value must be defined");
  if (Contents->HasPure)
    return defineUpdate(std::move(Value));

  // First definition: the pure stage. Indices must be distinct pure vars.
  std::vector<std::string> Args;
  for (const Expr &E : Indices) {
    const ir::VarRef *V = ir::exprDynAs<ir::VarRef>(E.node());
    assert(V && "pure definition indices must be plain variables");
    assert(!V->Domain &&
           "pure definition indices must not be reduction variables");
    assert(std::find(Args.begin(), Args.end(), V->Name) == Args.end() &&
           "pure definition indices must be distinct variables");
    Args.push_back(V->Name);
  }
  Contents->Args = std::move(Args);
  Contents->ElemType = Value.type();
  Contents->TypeKnown = true;
  Contents->Pure.Indices = Indices;
  Contents->Pure.Value = std::move(Value);
  Contents->HasPure = true;
  return Stage(Contents, -1);
}

Stage FuncRef::operator+=(Expr Value) {
  return defineUpdate(Expr(*this) + Value);
}

Stage FuncRef::operator-=(Expr Value) {
  return defineUpdate(Expr(*this) - Value);
}

Stage FuncRef::operator*=(Expr Value) {
  return defineUpdate(Expr(*this) * Value);
}

Stage FuncRef::defineUpdate(Expr Value) {
  assert(Contents->HasPure &&
         "update definition requires a pure definition first");
  if (Value.type() != Contents->ElemType)
    Value = cast(Contents->ElemType, Value);

  Definition Def;
  Def.Indices = Indices;
  Def.Value = std::move(Value);

  // Create loops for the reduction domains the definition references, in
  // domain order (dimension 0 first => innermost reduction loop).
  VarCollector Referenced;
  for (const Expr &E : Indices)
    Referenced.collect(E);
  Referenced.collect(Def.Value);
  for (size_t D = 0; D != Referenced.Domains.size(); ++D) {
    // Copied: collecting a predicate may grow the list.
    std::shared_ptr<const RDomState> State = Referenced.Domains[D];
    // A predicate may reference domain variables the value itself does
    // not; they still need loops, or the lowered guard would read an
    // unbound variable.
    for (const Expr &Pred : State->Predicates)
      Referenced.collect(Pred);
    for (const RVar &V : State->Vars) {
      bool Used = std::find(Referenced.Names.begin(), Referenced.Names.end(),
                            V.name()) != Referenced.Names.end();
      if (Used)
        Def.RVars.push_back(
            ReductionVarInfo{V.name(), V.minExpr(), V.extentExpr()});
    }
    for (const Expr &Pred : State->Predicates)
      Def.Predicates.push_back(Pred);
  }

  Contents->Updates.push_back(std::move(Def));
  return Stage(Contents, static_cast<int>(Contents->Updates.size()) - 1);
}

//===----------------------------------------------------------------------===//
// Func
//===----------------------------------------------------------------------===//

Func::Func(std::string Name) : Contents(std::make_shared<FuncContents>()) {
  assert(!Name.empty() && "Func requires a name");
  Contents->Name = std::move(Name);
}

const std::string &Func::name() const { return Contents->Name; }

ir::Type Func::type() const {
  assert(Contents->TypeKnown && "Func type is fixed by its definition");
  return Contents->ElemType;
}

const std::vector<std::string> &Func::args() const { return Contents->Args; }

FuncRef Func::operator()(std::vector<Expr> Indices) {
  return FuncRef(Contents, std::move(Indices));
}

bool Func::defined() const { return Contents->HasPure; }

const Definition &Func::pureDefinition() const {
  assert(Contents->HasPure && "Func has no pure definition");
  return Contents->Pure;
}

int Func::numUpdates() const {
  return static_cast<int>(Contents->Updates.size());
}

int Func::computeStageIndex() const { return numUpdates() - 1; }

const Definition &Func::updateDefinition(int Index) const {
  assert(Index >= 0 && Index < numUpdates() && "update index out of range");
  return Contents->Updates[Index];
}

Stage Func::pureStage() {
  assert(Contents->HasPure && "Func has no pure definition");
  return Stage(Contents, -1);
}

Stage Func::update(int Index) {
  assert(Index >= 0 && Index < numUpdates() && "update index out of range");
  return Stage(Contents, Index);
}

Stage Func::split(VarName Old, VarName Outer, VarName Inner,
                  int64_t Factor) {
  return pureStage().split(Old, Outer, Inner, Factor);
}

Stage Func::reorder(std::vector<VarName> InnermostFirst) {
  return pureStage().reorder(std::move(InnermostFirst));
}

Stage Func::parallel(VarName Name) { return pureStage().parallel(Name); }

Stage Func::vectorize(VarName Name) { return pureStage().vectorize(Name); }

Stage Func::vectorize(VarName Name, int Width) {
  return pureStage().vectorize(Name, Width);
}

Func &Func::storeNonTemporal() {
  Contents->NonTemporal = true;
  return *this;
}

bool Func::isStoreNonTemporal() const { return Contents->NonTemporal; }

void Func::clearSchedules() {
  Contents->Pure.Schedule = StageSchedule();
  for (Definition &Def : Contents->Updates)
    Def.Schedule = StageSchedule();
  Contents->NonTemporal = false;
}

namespace {

/// Replaces loads of one producer by its substituted pure value.
class InlineMutator : public ir::IRMutator {
public:
  InlineMutator(const std::string &Name,
                const std::vector<std::string> &Args,
                const ir::ExprPtr &Value)
      : Name(Name), Args(Args), Value(Value) {}

protected:
  ir::ExprPtr mutate(const ir::Load *Node,
                     const ir::ExprPtr &Original) override {
    // Rewrite indices first (nested producer calls inside indices).
    ir::ExprPtr Rewritten = IRMutator::mutate(Node, Original);
    const ir::Load *L = ir::exprDynAs<ir::Load>(Rewritten);
    if (!L || L->BufferName != Name)
      return Rewritten;
    assert(L->Indices.size() == Args.size() &&
           "inlined call with wrong arity");
    std::map<std::string, ir::ExprPtr> Map;
    for (size_t D = 0; D != Args.size(); ++D)
      Map[Args[D]] = L->Indices[D];
    // Recurse into the substituted body: the producer may call itself
    // through other inlined functions, but direct self-recursion is
    // impossible for a pure definition.
    return mutateExpr(substitute(Value, Map));
  }

private:
  const std::string &Name;
  const std::vector<std::string> &Args;
  const ir::ExprPtr &Value;
};

} // namespace

void Func::inlineCalls(const Func &Producer) {
  assert(Producer.defined() && "cannot inline an undefined Func");
  assert(Producer.numUpdates() == 0 &&
         "only pure (update-free) producers can be inlined");
  assert(Producer.name() != name() && "a Func cannot inline itself");

  InlineMutator M(Producer.name(), Producer.args(),
                  Producer.pureDefinition().Value.node());
  auto RewriteDefinition = [&M](Definition &Def) {
    if (Def.Value.defined())
      Def.Value = Expr(M.mutateExpr(Def.Value.node()));
    for (Expr &Pred : Def.Predicates)
      Pred = Expr(M.mutateExpr(Pred.node()));
    for (Expr &Index : Def.Indices)
      Index = Expr(M.mutateExpr(Index.node()));
  };
  RewriteDefinition(Contents->Pure);
  for (Definition &Def : Contents->Updates)
    RewriteDefinition(Def);
}

//===----------------------------------------------------------------------===//
// InputBuffer
//===----------------------------------------------------------------------===//

Expr InputBuffer::load(const std::vector<Expr> &Indices) const {
  assert(static_cast<int>(Indices.size()) == Rank &&
         "input indexed with wrong rank");
  std::vector<ir::ExprPtr> Idx;
  Idx.reserve(Indices.size());
  for (const Expr &E : Indices) {
    assert(E.defined() && "undefined index expression");
    Idx.push_back(E.node());
  }
  return Expr(ir::Load::make(Name, std::move(Idx), ElemType));
}
