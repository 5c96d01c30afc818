//===- dataflow/Lospre.cpp - Linear-time lospre on intervals ----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The elimination scheme. Every node's In value, restricted to one
/// interval, is a linear function of the enclosing header's In value X:
///
///   In(c) = (X n FT(c)) u FC(c)
///
/// Such pairs (T, C) form a closed algebra:
///
///   compose((Tp, Cp) then local (Tt, Ct)):
///       T = Tp n Tt,            C = (Cp n Tt) u Ct
///   meet((T1, C1), (T2, C2)):
///       T = (T1nT2) u (T1nC2) u (T2nC1),   C = C1 n C2
///
/// (both identities are per-bit boolean algebra: a value bit is
/// x = X*t + c, and (x1 AND x2) re-normalizes to the T/C form above).
///
/// Pass 1 (reverse preorder). At each header visit, sweep its children
/// in FORWARD order computing (FT, FC): the ENTRY predecessor
/// contributes the header's own local transfer, FORWARD predecessors
/// contribute their sibling's out-function (their in-function composed
/// with their through-function), and JUMP/SYNTHETIC predecessors
/// contribute constant bottom (conservative for a must problem). A
/// sibling's through-function is its local transfer for leaves and the
/// whole-loop summary (ST, SC) for headers. The loop closure is the
/// greatest fixed point of x = e * (x*t + c), which is x = e * (t + c):
///
///   X = E n ClosT(h),   ClosT(h) = T_latch-out u C_latch-out
///
/// and the loop summary seen by the next sibling folds the closure into
/// the header's local transfer: ST = ClosT n T(h), SC = C(h).
///
/// Pass 2 (preorder) concretizes: X(ROOT) = bottom, then per interval
/// E(c) = (X n FT(c)) u FC(c), In(c) = E(c) n ClosT(c) for headers and
/// E(c) otherwise, Out(c) = (In(c) n T(c)) u C(c).
///
//===----------------------------------------------------------------------===//

#include "dataflow/Lospre.h"

#include "support/DataflowMatrix.h"

#include <utility>

using namespace gnt;

namespace {

/// Row sections of the working arena: per-node function and summary
/// rows, one DataflowMatrix allocation for all of them.
enum Section : unsigned { FT, FC, ST, SC, ClosT, NumSections };

} // namespace

IntervalMustSolution
gnt::solveIntervalMust(const IntervalFlowGraph &Ifg,
                       const BitRows &Transp, const BitRows &Comp) {
  const unsigned N = Ifg.size();
  const unsigned U = Transp.bits();
  IntervalMustSolution R;
  R.In.assign(N, BitVector(U));
  R.Out.assign(N, BitVector(U));
  if (!N)
    return R;

  DataflowMatrix M(NumSections * N, U);
  auto row = [&](Section S, NodeId Node) {
    return std::as_const(M).bitRow(S * N + Node);
  };

  using ET = EdgeType;
  const std::vector<NodeId> &Pre = Ifg.preorder();

  // The through-function of a sibling: what flows out of it as a
  // function of the value flowing in from its own siblings.
  auto throughT = [&](NodeId P) {
    return Ifg.isHeader(P) ? row(ST, P) : Transp[P];
  };
  auto throughC = [&](NodeId P) {
    return Ifg.isHeader(P) ? row(SC, P) : Comp[P];
  };

  // Pass 1: bottom-up over headers; children functions + loop closure.
  for (auto It = Pre.rbegin(), E = Pre.rend(); It != E; ++It) {
    NodeId H = *It;
    if (!Ifg.isHeader(H))
      continue;
    for (NodeId C : Ifg.children(H)) {
      BitVector AccT(U), AccC(U);
      bool Any = false;
      for (const IfgEdge &Edge : Ifg.preds(C)) {
        if (Edge.Type == ET::Cycle)
          continue; // Folded into the loop closure below.
        BitVector PT(U), PC(U);
        if (Edge.Type == ET::Entry) {
          // The header's out as a function of its own in X.
          PT = Transp[H];
          PC = Comp[H];
        } else if (Edge.Type == ET::Forward) {
          // Sibling out-function: in-function composed with through,
          // composed in owned copies of the sibling's rows.
          NodeId P = Edge.Src;
          ConstBitRow ThT = throughT(P), ThC = throughC(P);
          PT = row(FT, P);
          PT &= ThT;
          PC = row(FC, P);
          PC &= ThT;
          PC |= ThC;
        }
        // JUMP/SYNTHETIC predecessors keep the constant-bottom (PT, PC):
        // a must value crossing an unstructured exit is conservatively
        // dropped.
        if (!Any) {
          AccT = std::move(PT);
          AccC = std::move(PC);
          Any = true;
          continue;
        }
        // meet: T = T1nT2 u T1nC2 u T2nC1; C = C1nC2.
        BitVector T = intersectionOf(AccT, PT);
        T |= intersectionOf(AccT, PC);
        T |= intersectionOf(PT, AccC);
        AccC &= PC;
        AccT = std::move(T);
      }
      M.assignRow(FT * N + C, AccT);
      M.assignRow(FC * N + C, AccC);
    }
    // Loop closure and whole-loop summary. The forward ROOT has no
    // CYCLE edge (its boundary in-value is bottom); the REVERSED root
    // does — the old program-entry ENTRY edge — and its closure row is
    // the boundary value Pass 2 reads back.
    // (The forward root's LASTCHILD is the exit node with no CYCLE edge
    // behind it; only the reversed root genuinely cycles.)
    NodeId Latch = Ifg.lastChild(H);
    if (Latch != InvalidNode && (H != Ifg.root() || Ifg.isReversed())) {
      BitVector OutT(row(FT, Latch));
      BitVector OutC(row(FC, Latch));
      ConstBitRow ThT = throughT(Latch), ThC = throughC(Latch);
      OutT &= ThT;
      OutC &= ThT;
      OutC |= ThC;
      OutT |= OutC; // ClosT = T_body u C_body.
      M.assignRow(ClosT * N + H, OutT);
      OutT &= Transp[H]; // ST = ClosT n T(h).
      M.assignRow(ST * N + H, OutT);
      M.assignRow(SC * N + H, Comp[H]);
    }
  }

  // Pass 2: top-down concretization.
  for (NodeId Node : Pre) {
    if (Node == Ifg.root()) {
      // Boundary. Forward root: nothing flows into the program. The
      // reversed root is entered only by its own CYCLE edge, so its
      // in-value is the pure closure x = out_latch(x), whose greatest
      // solution is ClosT (the latch chain starts from the boundary
      // constant, so the through-part is empty and this is exact).
      BitVector In(U);
      if (Ifg.isReversed() && Ifg.lastChild(Node) != InvalidNode)
        In = row(ClosT, Node);
      BitVector Out = In;
      Out &= Transp[Node];
      Out |= Comp[Node];
      R.In[Node] = std::move(In);
      R.Out[Node] = std::move(Out);
      continue;
    }
    BitVector E = R.In[Ifg.parent(Node)];
    E &= row(FT, Node);
    E |= row(FC, Node);
    if (Ifg.isHeader(Node))
      E &= row(ClosT, Node);
    BitVector Out = E;
    Out &= Transp[Node];
    Out |= Comp[Node];
    R.In[Node] = std::move(E);
    R.Out[Node] = std::move(Out);
  }
  return R;
}

LospreResult gnt::solveLospre(const Cfg &G, const IntervalFlowGraph &Ifg,
                              const GntProblem &Read) {
  const unsigned N = G.size();
  const unsigned U = Read.UniverseSize;

  // TRANSP, COMP and COMP n TRANSP as three fields of one matrix.
  DataflowMatrix Preds(3 * N, U);
  BitRows Transp = Preds.field(0, N);
  BitRows Comp = Preds.field(N, N);
  BitRows CompAv = Preds.field(2 * N, N);
  for (NodeId Id = 0; Id != N; ++Id) {
    Transp[Id].set();
    Transp[Id].reset(Read.StealInit[Id]);
    Comp[Id] = Read.TakeInit[Id];
    Comp[Id] |= Read.GiveInit[Id];
    CompAv[Id] = Comp[Id];
    CompAv[Id] &= Transp[Id];
  }

  LospreResult R;
  // Availability forward: Out = (In n TRANSP) u (COMP n TRANSP).
  {
    IntervalMustSolution Av = solveIntervalMust(Ifg, Transp, CompAv);
    R.AvIn = std::move(Av.In);
    R.AvOut = std::move(Av.Out);
  }
  // Anticipability backward: the same engine on the reversed graph,
  // with ANTLOC as the constant term. Solving-In of the reversed graph
  // is the program-order ANTOUT.
  {
    IntervalFlowGraph Rev = Ifg.reversed();
    IntervalMustSolution Ant =
        solveIntervalMust(Rev, Transp, Read.TakeInit);
    R.AntOut = std::move(Ant.In);
    R.AntIn = std::move(Ant.Out);
  }

  // Busy-code-motion EARLIEST per real CFG edge:
  //   EARLIEST(p,n) = ANTIN(n) n ~AVOUT(p) n ~(TRANSP(p) n ANTOUT(p))
  // (guard dropped for the entry node), mapped to the node point each
  // edge owns exactly like the LCM baseline. Earliest insertions cover
  // every occurrence, so no kept occurrences are emitted.
  R.InsertAtEntry.assign(N, BitVector(U));
  R.InsertAtExit.assign(N, BitVector(U));
  for (NodeId P = 0; P != N; ++P) {
    for (NodeId S : G.node(P).Succs) {
      BitVector E = R.AntIn[S];
      E.reset(R.AvOut[P]);
      if (P != G.entry()) {
        BitVector Guard(Transp[P]);
        Guard &= R.AntOut[P];
        E.reset(Guard);
      }
      if (E.none())
        continue;
      if (G.node(P).Succs.size() == 1 && P != G.entry())
        R.InsertAtExit[P] |= E;
      else
        R.InsertAtEntry[S] |= E;
    }
  }
  return R;
}
