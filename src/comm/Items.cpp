//===- comm/Items.cpp - Dataflow universe of array sections -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "comm/Items.h"

using namespace gnt;

namespace {

/// Evaluates an affine expression under parameter bindings.
std::optional<long long>
evaluate(const AffineExpr &E, const std::map<std::string, long long> &Params) {
  if (!E.isAffine())
    return std::nullopt;
  long long V = E.getConstTerm();
  for (const auto &[Sym, C] : E.getTerms()) {
    auto It = Params.find(Sym);
    if (It == Params.end())
      return std::nullopt;
    V += C * It->second;
  }
  return V;
}

} // namespace

long long Item::size(const std::map<std::string, long long> &Params,
                     long long DefaultSize) const {
  std::optional<long long> Lo = evaluate(Sec.Lo, Params);
  std::optional<long long> Hi = evaluate(Sec.Hi, Params);
  if (!Lo || !Hi)
    return DefaultSize;
  if (*Hi < *Lo)
    return 0;
  return (*Hi - *Lo) / (Sec.Stride > 0 ? Sec.Stride : 1) + 1;
}

bool Item::mayOverlap(const Item &RHS) const {
  if (Array != RHS.Array)
    return false;
  // Volatile or indirect sections are opaque: assume overlap.
  if (Volatile || RHS.Volatile)
    return true;
  if (isIndirect() || RHS.isIndirect()) {
    // Two indirect items through the same indirection array with provably
    // disjoint indirection sections still may collide (the indirection
    // contents are unknown); stay conservative.
    return true;
  }
  return Sec.mayOverlap(RHS.Sec);
}

unsigned ItemTable::intern(Item I) {
  if (!I.Volatile) {
    auto It = ByKey.find(I.Key);
    if (It != ByKey.end())
      return It->second;
  }
  unsigned Id = static_cast<unsigned>(Items.size());
  if (!I.Volatile)
    ByKey.emplace(I.Key, Id);
  Items.push_back(std::move(I));
  SeenDef.push_back(false);
  return Id;
}

std::vector<std::string> ItemTable::names() const {
  std::vector<std::string> R;
  R.reserve(Items.size());
  for (const Item &I : Items)
    R.push_back(I.Key);
  return R;
}

void ItemTable::noteDefinitionKind(unsigned Id, char ReduceOp) {
  assert(Id < Items.size() && "bad item id");
  Item &I = Items[Id];
  if (SeenDef[Id]) {
    if (I.ReductionOp != ReduceOp)
      I.ReductionOp = 0; // Mixed definition kinds: fall back to plain.
    return;
  }
  SeenDef[Id] = true;
  I.ReductionOp = ReduceOp;
}

int ItemTable::lookup(const std::string &Key) const {
  auto It = ByKey.find(Key);
  return It == ByKey.end() ? -1 : static_cast<int>(It->second);
}
