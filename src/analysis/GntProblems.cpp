//===- analysis/GntProblems.cpp - Declarative GNT dataflow specs ------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Within one node the event order is: entry production (RES_in, fired
/// on non-CYCLE incoming edges only — Figure 14 prints header entry
/// production above the `do` line), consumption (TAKE_init), free
/// production (GIVE_init), voiding (STEAL_init), exit production
/// (RES_out). Every spec below is a projection of that little
/// operational model onto a gen/kill transfer plus a per-edge hook for
/// the entry production.
///
//===----------------------------------------------------------------------===//

#include "analysis/GntProblems.h"

using namespace gnt;

namespace {

const GntPlacement &placement(const GntRun &Run, Urgency U) {
  return U == Urgency::Eager ? Run.Result.Eager : Run.Result.Lazy;
}

/// Availability at \p X's exit: AvailBody[X] plus free and placed exit
/// production, minus steals.
BitVector availAtExit(const GntProblem &P, const GntPlacement &Pl,
                      const std::vector<BitVector> &AvailBody, NodeId X) {
  BitVector A = AvailBody[X];
  A |= P.GiveInit[X];
  A.reset(P.StealInit[X]);
  A |= Pl.ResOut[X];
  return A;
}

} // namespace

BitVector gnt::availabilityOverEdge(const GntRun &Run, Urgency U,
                                    const IfgEdge &E,
                                    const std::vector<BitVector> &AvailBody) {
  const IntervalFlowGraph &Ifg = Run.OrientedIfg;
  const GntProblem &P = Run.OrientedProblem;
  const GntPlacement &Pl = placement(Run, U);
  if (E.Type == EdgeType::Entry) {
    // GIVEN(h) semantics (Eq. 11): a header's STEAL applies at the loop
    // boundary, not to the in-flow into the body.
    BitVector A = AvailBody[E.Src];
    A |= P.GiveInit[E.Src];
    A |= Pl.ResOut[E.Src];
    return A;
  }
  if (Ifg.isHeader(E.Src) && E.Src != Ifg.root()) {
    // Loop-exit arm: under the at-least-one-trip assumption the last
    // arrival at the header came over the CYCLE edge, where the header's
    // entry production does not re-fire.
    for (const IfgEdge &PE : Ifg.preds(E.Src))
      if (PE.Type == EdgeType::Cycle) {
        BitVector A = availAtExit(P, Pl, AvailBody, PE.Src);
        A |= P.GiveInit[E.Src];
        A.reset(P.StealInit[E.Src]);
        A |= Pl.ResOut[E.Src];
        return A;
      }
  }
  return availAtExit(P, Pl, AvailBody, E.Src);
}

DataflowSpec gnt::makeAvailabilitySpec(const GntRun &Run, Urgency U) {
  const IntervalFlowGraph &Ifg = Run.OrientedIfg;
  const GntPlacement &Pl = placement(Run, U);
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Forward;
  Spec.Meet = Confluence::All;
  Spec.UniverseSize = Run.OrientedProblem.UniverseSize;
  // No per-node gen/kill: the whole transfer lives on the edges, so the
  // fixed-point Out value at a node is the availability right after its
  // entry production.
  for (NodeId Node = 0, N = Ifg.size(); Node != N; ++Node) {
    bool HasRealPred = false;
    for (const IfgEdge &E : Ifg.preds(Node))
      HasRealPred |= E.Type != EdgeType::Synthetic;
    if (!HasRealPred) {
      // The start node's availability is exactly its own entry
      // production (callers must ensure the start is unique).
      Spec.Boundary = Pl.ResIn[Node];
      break;
    }
  }
  // Pointer captures: the spec outlives this frame (Run outlives the
  // spec per the header contract).
  const GntRun *RunP = &Run;
  const GntPlacement *PlP = &Pl;
  Spec.EdgeTransfer = [RunP, U, PlP](const IfgEdge &E,
                                     const std::vector<BitVector> &NodeOut) {
    BitVector A = availabilityOverEdge(*RunP, U, E, NodeOut);
    if (E.Type != EdgeType::Cycle)
      A |= PlP->ResIn[E.Dst];
    return A;
  };
  return Spec;
}

DataflowSpec gnt::makeAnticipabilitySpec(const GntRun &Run) {
  const GntProblem &P = Run.OrientedProblem;
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Backward;
  Spec.Meet = Confluence::Any;
  Spec.UniverseSize = P.UniverseSize;
  Spec.Gen = toBitVectors(P.TakeInit);   // Consumption demands...
  Spec.Kill = toBitVectors(P.StealInit); // ...not across a steal.
  return Spec;
}

DataflowSpec gnt::makeProductionLivenessSpec(const GntRun &Run, Urgency U) {
  const GntProblem &P = Run.OrientedProblem;
  const GntPlacement &Pl = placement(Run, U);
  const unsigned N = Run.OrientedIfg.size();
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Backward;
  Spec.Meet = Confluence::Any;
  Spec.UniverseSize = P.UniverseSize;
  Spec.Gen = toBitVectors(P.TakeInit);
  // Crossing (backwards) a steal, a free production or a placed exit
  // production kills liveness: demand below those points cannot reach a
  // production above them (voided, or already resupplied).
  Spec.Kill.resize(N);
  for (NodeId Node = 0; Node != N; ++Node) {
    BitVector K(P.StealInit[Node]);
    K |= P.GiveInit[Node];
    K |= Pl.ResOut[Node];
    Spec.Kill[Node] = std::move(K);
  }
  // The destination's entry production resupplies on non-CYCLE arrivals.
  const GntPlacement *PlP = &Pl;
  Spec.EdgeTransfer = [PlP](const IfgEdge &E,
                            const std::vector<BitVector> &NodeOut) {
    BitVector V = NodeOut[E.Dst]; // Flow source of a backward problem.
    if (E.Type != EdgeType::Cycle)
      V.reset(PlP->ResIn[E.Dst]);
    return V;
  };
  return Spec;
}

DataflowSpec gnt::makeStealReachabilitySpec(const GntRun &Run, Urgency U) {
  const GntProblem &P = Run.OrientedProblem;
  const GntPlacement &Pl = placement(Run, U);
  const unsigned N = Run.OrientedIfg.size();
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Forward;
  Spec.Meet = Confluence::Any;
  Spec.UniverseSize = P.UniverseSize;
  Spec.Gen.resize(N);
  Spec.Kill.resize(N);
  for (NodeId Node = 0; Node != N; ++Node) {
    // Within the node, STEAL precedes RES_out, so a steal whose item is
    // re-produced at the exit does not escape the node.
    BitVector G(P.StealInit[Node]);
    G.reset(Pl.ResOut[Node]);
    Spec.Gen[Node] = std::move(G);
    BitVector K(P.GiveInit[Node]);
    K |= Pl.ResOut[Node];
    Spec.Kill[Node] = std::move(K);
  }
  // The destination's entry production un-voids on non-CYCLE arrivals.
  const GntPlacement *PlP = &Pl;
  Spec.EdgeTransfer = [PlP](const IfgEdge &E,
                            const std::vector<BitVector> &NodeOut) {
    BitVector V = NodeOut[E.Src];
    if (E.Type != EdgeType::Cycle)
      V.reset(PlP->ResIn[E.Dst]);
    return V;
  };
  return Spec;
}
