//===- analysis/ReferenceSolver.cpp - Iterative Eq. 1-15 oracle -------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Every sweep re-evaluates every equation at every node from the
/// current variable values (starting at bottom everywhere) and repeats
/// until a sweep changes nothing. Because set difference against a
/// computed variable is not monotone, convergence relies on the
/// dependency DAG rather than lattice monotonicity: once a variable's
/// inputs have settled, one more evaluation settles the variable, so the
/// process stabilizes in at most depth-of-DAG sweeps. Sweeps visit nodes
/// in the Figure 15 orders (S1/S2 in reverse preorder, S3 in preorder),
/// which keeps that depth small, but unlike the elimination solver
/// nothing here *depends* on one pass sufficing — the fixed point is
/// verified, not assumed.
///
//===----------------------------------------------------------------------===//

#include "analysis/ReferenceSolver.h"

#include <cassert>
#include <initializer_list>
#include <utility>

using namespace gnt;

namespace {

class IterativeSolver {
public:
  IterativeSolver(const IntervalFlowGraph &Ifg, const GntProblem &P)
      : Ifg(Ifg), P(P), N(Ifg.size()), U(P.UniverseSize) {
    assert(P.numNodes() == N && "problem not sized to the graph");
    // Zeroed arena in the solver's own result shape.
    R = GntResult(std::make_shared<DataflowMatrix>(NumGntFields * N, U));
    NoHoist.assign(N, 0);
    for (NodeId H : P.NoHoistHeaders)
      NoHoist[H] = 1;

    // The elimination schedule evaluates Eq. 9/10 for the children of
    // each header, headers in reverse preorder. On a reversed graph,
    // JUMP and SYNTHETIC edges can point into deeper intervals, whose
    // children are scheduled earlier — the one-pass solver then reads
    // bottom for the pred's STEAL_loc/GIVE_loc. That read-before-write
    // behavior is part of the AFTER problem's specification (the header
    // poisoning keeps the result safe regardless), so the oracle
    // replicates it: Eq. 9/10 inputs from later schedule positions are
    // pinned to bottom. On forward graphs every pred is scheduled
    // earlier and the pin never fires.
    S2Pos.assign(N, 0);
    unsigned Counter = 0;
    const std::vector<NodeId> &Pre = Ifg.preorder();
    for (auto It = Pre.rbegin(), End = Pre.rend(); It != End; ++It)
      for (NodeId C : Ifg.children(*It))
        S2Pos[C] = ++Counter;
  }

  ReferenceResult run(unsigned MaxSweeps) {
    if (MaxSweeps == 0)
      MaxSweeps = 4 * N + 16; // Far above any converging instance's depth.
    ReferenceResult Out;
    while (Out.Sweeps < MaxSweeps) {
      ++Out.Sweeps;
      if (!sweep()) {
        Out.Converged = true;
        break;
      }
    }
    Out.Result = std::move(R);
    return Out;
  }

private:
  /// Union of \p Var over edges of the given types and direction.
  BitVector joinOver(std::span<const IfgEdge> Edges, bool UseDst,
                     const BitRows &Var,
                     std::initializer_list<EdgeType> Types) const {
    BitVector Acc(U);
    for (const IfgEdge &E : Edges)
      for (EdgeType T : Types)
        if (E.Type == T) {
          Acc |= Var[UseDst ? E.Dst : E.Src];
          break;
        }
    return Acc;
  }

  /// Intersection of \p Var over edges of the given types and direction;
  /// bottom when there are none (Section 4's convention).
  BitVector meetOver(std::span<const IfgEdge> Edges, bool UseDst,
                     const BitRows &Var,
                     std::initializer_list<EdgeType> Types) const {
    BitVector Acc(U);
    bool First = true;
    for (const IfgEdge &E : Edges)
      for (EdgeType T : Types)
        if (E.Type == T) {
          ConstBitRow V = Var[UseDst ? E.Dst : E.Src];
          if (First) {
            Acc = V;
            First = false;
          } else {
            Acc &= V;
          }
          break;
        }
    return Acc;
  }

  /// Stores \p New into Var[Node]; remembers whether anything changed.
  void set(BitRows &Var, NodeId Node, ConstBitRow New) {
    if (Var[Node] != New) {
      Var[Node] = New;
      Changed = true;
    }
  }

  bool sweep() {
    using ET = EdgeType;
    Changed = false;
    const std::vector<NodeId> &Pre = Ifg.preorder();

    // S1 + S2, reverse preorder.
    for (auto It = Pre.rbegin(), End = Pre.rend(); It != End; ++It) {
      NodeId Node = *It;

      if (Node != Ifg.root()) {
        // Eq. 9, with preds the elimination schedule has not evaluated
        // yet pinned to bottom (see the constructor): an empty meet
        // operand, so the whole meet term vanishes.
        BitVector GL(U);
        bool First = true;
        for (const IfgEdge &E : Ifg.preds(Node)) {
          if (E.Type != ET::Forward && E.Type != ET::Jump)
            continue;
          BitVector V(U);
          if (S2Pos[E.Src] < S2Pos[Node])
            V = R.GiveLoc[E.Src];
          if (First) {
            GL = std::move(V);
            First = false;
          } else {
            GL &= V;
          }
        }
        GL |= R.Give[Node];
        GL |= R.Take[Node];
        GL.reset(R.Steal[Node]);
        set(R.GiveLoc, Node, GL);

        // Eq. 10, same schedule pinning: a bottom input is an empty
        // union term, so the edge is skipped.
        BitVector SL(R.Steal[Node]);
        for (const IfgEdge &E : Ifg.preds(Node)) {
          if (S2Pos[E.Src] > S2Pos[Node])
            continue;
          if (E.Type == ET::Forward || E.Type == ET::Jump) {
            BitVector T(R.StealLoc[E.Src]);
            T.reset(R.GiveLoc[E.Src]);
            SL |= T;
          } else if (E.Type == ET::Synthetic) {
            SL |= R.StealLoc[E.Src];
          }
        }
        set(R.StealLoc, Node, SL);
      }

      // Eq. 1 / Eq. 2.
      {
        BitVector S(P.StealInit[Node]);
        BitVector G(P.GiveInit[Node]);
        if (Ifg.isHeader(Node) && Ifg.lastChild(Node) != InvalidNode) {
          S |= R.StealLoc[Ifg.lastChild(Node)];
          if (!NoHoist[Node])
            G |= R.GiveLoc[Ifg.lastChild(Node)];
        }
        set(R.Steal, Node, S);
        set(R.Give, Node, G);
      }

      // Eq. 3.
      {
        BitVector B = joinOver(Ifg.succs(Node), /*UseDst=*/true, R.BlockLoc,
                               {ET::Entry});
        B |= R.Steal[Node];
        B |= R.Give[Node];
        set(R.Block, Node, B);
      }

      // Eq. 4.
      set(R.TakenOut, Node,
          meetOver(Ifg.succs(Node), /*UseDst=*/true, R.TakenIn,
                   {ET::Forward, ET::Jump, ET::Synthetic}));

      // Eq. 5.
      {
        BitVector T(P.TakeInit[Node]);
        if (!NoHoist[Node]) {
          BitVector Hoisted = joinOver(Ifg.succs(Node), /*UseDst=*/true,
                                       R.TakenIn, {ET::Entry});
          Hoisted.reset(R.Steal[Node]);
          BitVector Maybe = joinOver(Ifg.succs(Node), /*UseDst=*/true,
                                     R.TakeLoc, {ET::Entry});
          Maybe &= R.TakenOut[Node];
          Maybe.reset(R.Block[Node]);
          T |= Hoisted;
          T |= Maybe;
        }
        set(R.Take, Node, T);
      }

      // Eq. 6.
      if (NoHoist[Node]) {
        set(R.TakenIn, Node, R.Take[Node]);
      } else {
        BitVector T(R.TakenOut[Node]);
        T.reset(R.Block[Node]);
        T |= R.Take[Node];
        set(R.TakenIn, Node, T);
      }

      // Eq. 7.
      {
        BitVector B = joinOver(Ifg.succs(Node), /*UseDst=*/true, R.BlockLoc,
                               {ET::Forward});
        B |= R.Block[Node];
        B.reset(R.Take[Node]);
        set(R.BlockLoc, Node, B);
      }

      // Eq. 8.
      {
        BitVector T = joinOver(Ifg.succs(Node), /*UseDst=*/true, R.TakeLoc,
                               {ET::Entry, ET::Forward});
        T.reset(R.Block[Node]);
        T |= R.Take[Node];
        set(R.TakeLoc, Node, T);
      }
    }

    // S3, preorder; ROOT's placement variables stay bottom.
    for (NodeId Node : Pre) {
      if (Node == Ifg.root())
        continue;
      for (Urgency Urg : {Urgency::Eager, Urgency::Lazy}) {
        GntPlacement &Pl = Urg == Urgency::Eager ? R.Eager : R.Lazy;

        // Eq. 11, with the implemented STEAL-summary refinement and
        // NoHoist opacity.
        BitVector In = meetOver(Ifg.preds(Node), /*UseDst=*/false,
                                Pl.GivenOut, {ET::Forward, ET::Jump});
        NodeId H = Ifg.headerOf(Node);
        if (H != InvalidNode && !NoHoist[H]) {
          BitVector FromHeader(Pl.Given[H]);
          FromHeader.reset(R.Steal[H]);
          In |= FromHeader;
        }
        {
          BitVector Some = joinOver(Ifg.preds(Node), /*UseDst=*/false,
                                    Pl.GivenOut, {ET::Forward, ET::Jump});
          Some &= R.TakenIn[Node];
          In |= Some;
        }
        set(Pl.GivenIn, Node, std::move(In));

        // Eq. 12.
        {
          BitVector G(Pl.GivenIn[Node]);
          G |= Urg == Urgency::Eager ? R.TakenIn[Node] : R.Take[Node];
          set(Pl.Given, Node, std::move(G));
        }

        // Eq. 13.
        {
          BitVector Out(R.Give[Node]);
          Out |= Pl.Given[Node];
          Out.reset(R.Steal[Node]);
          set(Pl.GivenOut, Node, std::move(Out));
        }
      }
    }

    // S4.
    for (NodeId Node : Pre) {
      for (GntPlacement *Pl : {&R.Eager, &R.Lazy}) {
        // Eq. 14.
        {
          BitVector In(Pl->Given[Node]);
          In.reset(Pl->GivenIn[Node]);
          set(Pl->ResIn, Node, std::move(In));
        }
        // Eq. 15.
        {
          BitVector Out = joinOver(Ifg.succs(Node), /*UseDst=*/true,
                                   Pl->GivenIn, {ET::Forward, ET::Jump});
          Out.reset(Pl->GivenOut[Node]);
          set(Pl->ResOut, Node, std::move(Out));
        }
      }
    }

    return Changed;
  }

  const IntervalFlowGraph &Ifg;
  const GntProblem &P;
  const unsigned N, U;
  std::vector<char> NoHoist;
  /// Eq. 9/10 evaluation position of each node in the elimination
  /// schedule (root stays 0: its locals are never evaluated).
  std::vector<unsigned> S2Pos;
  GntResult R;
  bool Changed = false;
};

} // namespace

ReferenceResult gnt::solveGiveNTakeIterative(const IntervalFlowGraph &Ifg,
                                             const GntProblem &P,
                                             unsigned MaxSweeps) {
  IterativeSolver S(Ifg, P);
  return S.run(MaxSweeps);
}
