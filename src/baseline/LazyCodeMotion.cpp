//===- baseline/LazyCodeMotion.cpp - Classical PRE baseline -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Edge-based LCM after Knoop/Rüthing/Steffen (as presented by
/// Drechsler/Stadel and Muchnick §13.3):
///
///   ANTOUT(n) = meet_s ANTIN(s)            (bottom at exit)
///   ANTIN(n)  = ANTLOC(n) u (ANTOUT(n) n TRANSP(n))
///   AVIN(n)   = meet_p AVOUT(p)            (bottom at entry)
///   AVOUT(n)  = (AVIN(n) u COMP(n)) n TRANSP(n)
///   EARLIEST(p,n) = ANTIN(n) n ~AVOUT(p) n (~TRANSP(p) u ~ANTOUT(p))
///                   [p = entry: ANTIN(n) n ~AVOUT(p)]
///   LATERIN(n)  = meet_{(p,n)} LATER(p,n)  (bottom at entry)
///   LATER(p,n)  = EARLIEST(p,n) u (LATERIN(p) n ~ANTLOC(p))
///   INSERT(p,n) = LATER(p,n) n ~LATERIN(n)
///   DELETE(n)   = ANTLOC(n) n ~LATERIN(n)  (n != entry)
///
//===----------------------------------------------------------------------===//

#include "baseline/LazyCodeMotion.h"

#include <set>

using namespace gnt;

LcmResult gnt::lazyCodeMotion(const Cfg &G, unsigned U,
                              const BitRows &Antloc, const BitRows &Transp,
                              const BitRows &Comp) {
  unsigned N = G.size();
  LcmResult R;
  R.AntIn.assign(N, BitVector(U));
  R.AntOut.assign(N, BitVector(U));
  R.AvIn.assign(N, BitVector(U));
  R.AvOut.assign(N, BitVector(U));
  R.InsertAtEntry.assign(N, BitVector(U));
  R.InsertAtExit.assign(N, BitVector(U));
  R.KeptOccurrences.assign(N, BitVector(U));
  R.Deleted.assign(N, BitVector(U));

  // Anticipability (backward, must) — greatest fixed point.
  for (NodeId Id = 0; Id != N; ++Id) {
    R.AntIn[Id] = BitVector(U, true);
    R.AntOut[Id] = BitVector(U, true);
  }
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++R.Iterations;
    for (NodeId Id = N; Id-- != 0;) {
      BitVector Out(U);
      bool Any = false;
      for (NodeId S : G.node(Id).Succs) {
        if (!Any) {
          Out = R.AntIn[S];
          Any = true;
        } else {
          Out &= R.AntIn[S];
        }
      }
      BitVector In = Out;
      In &= Transp[Id];
      In |= Antloc[Id];
      if (Out != R.AntOut[Id] || In != R.AntIn[Id]) {
        R.AntOut[Id] = std::move(Out);
        R.AntIn[Id] = std::move(In);
        Changed = true;
      }
    }
  }

  // Availability (forward, must) — greatest fixed point.
  for (NodeId Id = 0; Id != N; ++Id) {
    R.AvIn[Id] = BitVector(U, Id != G.entry());
    R.AvOut[Id] = BitVector(U, true);
  }
  Changed = true;
  while (Changed) {
    Changed = false;
    ++R.Iterations;
    for (NodeId Id = 0; Id != N; ++Id) {
      BitVector In(U);
      if (Id != G.entry()) {
        bool Any = false;
        for (NodeId P : G.node(Id).Preds) {
          if (!Any) {
            In = R.AvOut[P];
            Any = true;
          } else {
            In &= R.AvOut[P];
          }
        }
      }
      BitVector Out = In;
      Out |= Comp[Id];
      Out &= Transp[Id];
      if (In != R.AvIn[Id] || Out != R.AvOut[Id]) {
        R.AvIn[Id] = std::move(In);
        R.AvOut[Id] = std::move(Out);
        Changed = true;
      }
    }
  }

  // EARLIEST per edge.
  auto earliest = [&](NodeId P, NodeId Node) {
    BitVector E = R.AntIn[Node];
    E.reset(R.AvOut[P]);
    if (P != G.entry()) {
      BitVector Guard(Transp[P]); // ~TRANSP u ~ANTOUT == ~(TRANSP n ANTOUT)
      Guard &= R.AntOut[P];
      E.reset(Guard);
    }
    return E;
  };

  // LATER (forward over edges, must at nodes) — greatest fixed point.
  std::vector<BitVector> LaterIn(N, BitVector(U, true));
  LaterIn[G.entry()] = BitVector(U);
  // Edge values are recomputed on the fly from LaterIn.
  auto later = [&](NodeId P, NodeId Node) {
    BitVector L = LaterIn[P];
    L.reset(Antloc[P]);
    L |= earliest(P, Node);
    return L;
  };
  Changed = true;
  while (Changed) {
    Changed = false;
    ++R.Iterations;
    for (NodeId Id = 0; Id != N; ++Id) {
      if (Id == G.entry())
        continue;
      BitVector In(U, true);
      bool Any = false;
      for (NodeId P : G.node(Id).Preds) {
        BitVector L = later(P, Id);
        if (!Any) {
          In = std::move(L);
          Any = true;
        } else {
          In &= L;
        }
      }
      if (Any && In != LaterIn[Id]) {
        LaterIn[Id] = std::move(In);
        Changed = true;
      }
    }
  }

  // INSERT per edge, mapped to the unique node-entry or node-exit this
  // edge owns (no critical edges: one endpoint is single-degree).
  for (NodeId P = 0; P != N; ++P) {
    for (NodeId S : G.node(P).Succs) {
      BitVector Ins = later(P, S);
      Ins.reset(LaterIn[S]);
      if (Ins.none())
        continue;
      // Map the edge insertion to the node point the edge owns. The
      // entry node has no print position, so its outgoing edge maps to
      // the successor's entry (that successor has no other predecessor).
      if (G.node(P).Succs.size() == 1 && P != G.entry())
        R.InsertAtExit[P] |= Ins;
      else
        R.InsertAtEntry[S] |= Ins;
    }
  }
  for (NodeId Id = 0; Id != N; ++Id) {
    if (Id == G.entry())
      continue;
    // DELETE = ANTLOC n ~LATERIN; kept occurrences (ANTLOC n LATERIN)
    // are their own placement points.
    BitVector Del(Antloc[Id]);
    Del.reset(LaterIn[Id]);
    R.Deleted[Id] = Del;
    BitVector Kept(Antloc[Id]);
    Kept.reset(Del);
    R.KeptOccurrences[Id] = Kept;
  }

  return R;
}

CommPlan gnt::lcmPlacement(const Program &P, const Cfg &G,
                           const IntervalFlowGraph &Ifg) {
  CommPlan Plan;
  Plan.Refs = analyzeReferences(P, G);
  buildCommProblems(Plan.Refs, G, Ifg, CommOptions(), Plan.ReadProblem,
                    Plan.WriteProblem);
  unsigned U = Plan.Refs.Items.size();
  unsigned N = G.size();

  // TRANSP and COMP as two fields of one matrix; ANTLOC is TAKE_init
  // read in place.
  DataflowMatrix Preds(2 * N, U);
  BitRows Transp = Preds.field(0, N);
  BitRows Comp = Preds.field(N, N);
  for (NodeId Id = 0; Id != N; ++Id) {
    Transp[Id].set();
    Transp[Id].reset(Plan.ReadProblem.StealInit[Id]);
    Comp[Id] = Plan.ReadProblem.TakeInit[Id];
    Comp[Id] |= Plan.ReadProblem.GiveInit[Id];
  }

  LcmResult L =
      lazyCodeMotion(G, U, Plan.ReadProblem.TakeInit, Transp, Comp);

  auto entryAnchor = [&](NodeId Id) {
    return AnchorKey{G.node(Id).EmitStmt, G.node(Id).Where};
  };
  auto exitAnchor = [&](NodeId Id) {
    const CfgNode &Node = G.node(Id);
    EmitWhere W = Node.Where == EmitWhere::Before ? EmitWhere::After
                                                  : Node.Where;
    return AnchorKey{Node.EmitStmt, W};
  };

  for (NodeId Id = 0; Id != N; ++Id) {
    const CfgNode &Node = G.node(Id);
    auto addReads = [&](const AnchorKey &Key, const BitVector &BV) {
      if (!Key.S)
        return;
      for (unsigned I : BV)
        Plan.Anchored[Key].push_back({CommOpKind::AtomicRead, I});
    };
    addReads(entryAnchor(Id), L.InsertAtEntry[Id]);
    // Kept occurrences read right before their statement.
    addReads(entryAnchor(Id), L.KeptOccurrences[Id]);
    addReads(exitAnchor(Id), L.InsertAtExit[Id]);

    // Writes: naive per-definition pairs (LCM has no AFTER problem).
    if (Node.EmitStmt) {
      std::set<unsigned> Seen;
      for (unsigned Def : Plan.Refs.PerNode[Id].Defs) {
        if (!Seen.insert(Def).second)
          continue;
        AnchorKey Key = exitAnchor(Id);
        Plan.Anchored[Key].push_back({CommOpKind::WriteSend, Def});
        Plan.Anchored[Key].push_back({CommOpKind::WriteRecv, Def});
      }
    }
  }
  return Plan;
}
