//===- dataflow/Verifier.cpp - C1/C3/O1 static checking ---------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// A subtlety shared by both checks: production assigned to RES_in of a
/// loop header textually precedes the loop (Figure 14 prints the
/// Read_Send above the `do` line), so it executes once on loop *entry*,
/// not per iteration. The dataflow below therefore applies a node's
/// RES_in effects on its non-CYCLE incoming edges only.
///
/// Zero-trip optimism: Equation 2 summarizes in-loop production (GIVE)
/// into the header and lets it flow across the loop, accepting the risk
/// that a zero-trip execution skips it — the paper's documented stance
/// (Section 2: non-execution of a loop usually means the data is not
/// needed either). The sufficiency check mirrors this: availability on a
/// loop-*exit* edge is taken from the latch side (as if the body ran at
/// least once), not from the entry/latch meet.
///
//===----------------------------------------------------------------------===//

#include "dataflow/Verifier.h"

#include "support/Support.h"

#include <set>

using namespace gnt;

namespace {

/// True for edge types that represent actual control flow (SYNTHETIC
/// edges are an analysis device, not paths).
bool isRealEdge(EdgeType T) { return T != EdgeType::Synthetic; }

std::string itemName(const std::vector<std::string> &Names, unsigned I) {
  if (I < Names.size())
    return Names[I];
  return "item" + itostr(I);
}

class Verifier {
public:
  Verifier(const GntRun &Run, const std::vector<std::string> &Names,
           GntVerifyResult &Out)
      : Ifg(Run.OrientedIfg), P(Run.OrientedProblem), R(Run.Result),
        Names(Names), Out(Out), N(Ifg.size()), U(P.UniverseSize) {
    Start = findStart();
  }

  void run() {
    if (Start == InvalidNode) {
      Diagnostic D;
      D.Check = CheckId::Ifg;
      D.Message = "oriented graph has no unique start node";
      Out.Diags.add(std::move(D));
      return;
    }
    checkSufficiency(R.Eager, "EAGER");
    checkSufficiency(R.Lazy, "LAZY");
    checkBalance();
  }

private:
  NodeId findStart() const {
    NodeId Found = InvalidNode;
    for (NodeId Node = 0; Node != N; ++Node) {
      bool HasRealPred = false;
      for (const IfgEdge &E : Ifg.preds(Node))
        HasRealPred |= isRealEdge(E.Type);
      if (!HasRealPred) {
        if (Found != InvalidNode)
          return InvalidNode;
        Found = Node;
      }
    }
    return Found;
  }

  void report(DiagSeverity Sev, CheckId Check, const char *Solution,
              NodeId Node, unsigned Item, std::string Msg,
              std::string Hint = "") {
    Diagnostic D;
    D.Severity = Sev;
    D.Check = Check;
    D.Solution = Solution ? Solution : "";
    D.Node = Node;
    D.Item = static_cast<int>(Item);
    D.ItemName = itemName(Names, Item);
    D.Message = std::move(Msg);
    D.FixHint = std::move(Hint);
    Out.Diags.add(std::move(D));
  }

  /// C3 and O1 for one solution: a must-availability forward dataflow
  /// using only the *_init sets (real program semantics) plus the
  /// solution's productions. Greatest fixed point: start from TOP.
  ///
  /// AvailBody[n] is the availability right after n's entry production
  /// (header entry production applied on non-CYCLE edges only).
  void checkSufficiency(const GntPlacement &Pl, const char *Tag) {
    std::vector<BitVector> AvailBody(N, BitVector(U, true));
    {
      BitVector S(Pl.ResIn[Start]);
      AvailBody[Start] = S;
    }

    auto availOut = [&](NodeId Node) {
      BitVector A = AvailBody[Node];
      A |= P.GiveInit[Node];
      A.reset(P.StealInit[Node]);
      A |= Pl.ResOut[Node];
      return A;
    };

    /// Availability on a header's loop-exit arm under the at-least-one-
    /// trip assumption: the last arrival at the header came over the
    /// CYCLE edge (header entry production does not re-fire there).
    auto availOutExitArm = [&](NodeId H) {
      BitVector A(U);
      bool Any = false;
      for (const IfgEdge &E : Ifg.preds(H))
        if (E.Type == EdgeType::Cycle) {
          A = availOut(E.Src);
          Any = true;
        }
      if (!Any)
        return availOut(H);
      A |= P.GiveInit[H];
      A.reset(P.StealInit[H]);
      A |= Pl.ResOut[H];
      return A;
    };

    /// Availability flowing over edge E: non-ENTRY edges leaving a loop
    /// header use the exit-arm (at-least-one-trip) variant; the ENTRY
    /// edge into a loop body carries GIVEN(h) semantics (Eq. 11) — a
    /// header's STEAL applies at the loop boundary, not to the in-flow.
    auto availOverEdge = [&](const IfgEdge &E) {
      if (E.Type == EdgeType::Entry) {
        BitVector A = AvailBody[E.Src];
        A |= P.GiveInit[E.Src];
        A |= Pl.ResOut[E.Src];
        return A;
      }
      if (Ifg.isHeader(E.Src) && E.Src != Ifg.root())
        return availOutExitArm(E.Src);
      return availOut(E.Src);
    };

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (NodeId Node : Ifg.preorder()) {
        if (Node == Start)
          continue;
        BitVector In(U, true);
        bool Any = false;
        for (const IfgEdge &E : Ifg.preds(Node)) {
          if (!isRealEdge(E.Type))
            continue;
          BitVector POut = availOverEdge(E);
          if (E.Type != EdgeType::Cycle)
            POut |= Pl.ResIn[Node];
          if (!Any) {
            In = std::move(POut);
            Any = true;
          } else {
            In &= POut;
          }
        }
        if (Any && In != AvailBody[Node]) {
          AvailBody[Node] = std::move(In);
          Changed = true;
        }
      }
    }

    for (NodeId Node = 0; Node != N; ++Node) {
      // C3: every consumption covered at its own node.
      BitVector Need(P.TakeInit[Node]);
      Need.reset(AvailBody[Node]);
      for (unsigned I : Need)
        report(DiagSeverity::Error, CheckId::C3, Tag, Node, I,
               "consumes " + itemName(Names, I) +
                   " which is not available on all incoming paths",
               "a production must dominate this consumer with no "
               "intervening steal");
      // O1: no production of an item that is must-available on every
      // incoming *entry* path (production on cycle paths is not applied,
      // so compare against entry-side availability).
      BitVector EntryAvail(U, true);
      bool Any = false;
      for (const IfgEdge &E : Ifg.preds(Node)) {
        if (!isRealEdge(E.Type) || E.Type == EdgeType::Cycle)
          continue;
        BitVector POut = availOverEdge(E);
        if (!Any) {
          EntryAvail = std::move(POut);
          Any = true;
        } else {
          EntryAvail &= POut;
        }
      }
      if (!Any)
        EntryAvail.reset();
      BitVector Re(Pl.ResIn[Node]);
      Re &= EntryAvail;
      for (unsigned I : Re)
        report(DiagSeverity::Note, CheckId::O1, Tag, Node, I,
               "re-produces " + itemName(Names, I),
               "drop the redundant production at the node entry");
      BitVector AfterSteal = AvailBody[Node];
      AfterSteal |= P.GiveInit[Node];
      AfterSteal.reset(P.StealInit[Node]);
      BitVector ReOut(Pl.ResOut[Node]);
      ReOut &= AfterSteal;
      for (unsigned I : ReOut)
        report(DiagSeverity::Note, CheckId::O1, Tag, Node, I,
               "re-produces " + itemName(Names, I) + " at its exit",
               "drop the redundant production at the node exit");
    }
  }

  /// C1: along every path the EAGER and LAZY productions of an item
  /// alternate send, receive, send, receive, ... and end matched. A
  /// may-analysis over a two-state machine per item. Entry productions of
  /// a header fire on non-CYCLE incoming edges only.
  void checkBalance() {
    // Per-node may-states *after* the entry (RES_in) events.
    std::vector<BitVector> Pend(N, BitVector(U));
    std::vector<BitVector> Clear(N, BitVector(U));

    std::set<std::pair<NodeId, std::string>> Reported;
    auto reportC1 = [&](NodeId Node, unsigned Item, const char *What) {
      std::string Msg = std::string(What) + " of " + itemName(Names, Item);
      if (Reported.insert({Node, Msg}).second)
        report(DiagSeverity::Error, CheckId::C1, nullptr, Node, Item,
               std::move(Msg),
               "eager and lazy productions must alternate on every path");
    };

    struct State {
      BitVector Pend, Clear;
    };

    auto applySend = [&](State &S, ConstBitRow Send, NodeId Node,
                         bool Final) {
      if (Final) {
        BitVector Bad(Send);
        Bad &= S.Pend;
        for (unsigned I : Bad)
          reportC1(Node, I, "unmatched second eager production (send)");
      }
      S.Pend |= Send;
      S.Clear.reset(Send);
    };
    auto applyRecv = [&](State &S, ConstBitRow Recv, NodeId Node,
                         bool Final) {
      if (Final) {
        BitVector Bad(Recv);
        Bad &= S.Clear;
        for (unsigned I : Bad)
          reportC1(Node, I, "lazy production (receive) without prior send");
      }
      S.Clear |= Recv;
      S.Pend.reset(Recv);
    };

    /// Entry events of \p Node applied to the state flowing in over a
    /// non-cycle edge.
    auto applyEntry = [&](State S, NodeId Node, bool Final) {
      applySend(S, R.Eager.ResIn[Node], Node, Final);
      applyRecv(S, R.Lazy.ResIn[Node], Node, Final);
      return S;
    };
    /// Exit events of \p Node (fire on every execution).
    auto applyExit = [&](State S, NodeId Node, bool Final) {
      applySend(S, R.Eager.ResOut[Node], Node, Final);
      applyRecv(S, R.Lazy.ResOut[Node], Node, Final);
      return S;
    };

    {
      State S{BitVector(U), BitVector(U, true)};
      S = applyEntry(std::move(S), Start, /*Final=*/false);
      Pend[Start] = S.Pend;
      Clear[Start] = S.Clear;
    }

    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (NodeId Node : Ifg.preorder()) {
        State Out_{Pend[Node], Clear[Node]};
        Out_ = applyExit(std::move(Out_), Node, /*Final=*/false);
        for (const IfgEdge &E : Ifg.succs(Node)) {
          if (!isRealEdge(E.Type))
            continue;
          State Arr = Out_;
          if (E.Type != EdgeType::Cycle)
            Arr = applyEntry(std::move(Arr), E.Dst, /*Final=*/false);
          BitVector NewPend = Pend[E.Dst];
          NewPend |= Arr.Pend;
          BitVector NewClear = Clear[E.Dst];
          NewClear |= Arr.Clear;
          if (NewPend != Pend[E.Dst] || NewClear != Clear[E.Dst]) {
            Pend[E.Dst] = std::move(NewPend);
            Clear[E.Dst] = std::move(NewClear);
            Changed = true;
          }
        }
      }
    }

    // Reporting pass at the fixed point.
    {
      State S0{BitVector(U), BitVector(U, true)};
      (void)applyEntry(std::move(S0), Start, /*Final=*/true);
    }
    for (NodeId Node = 0; Node != N; ++Node) {
      State Out_{Pend[Node], Clear[Node]};
      Out_ = applyExit(std::move(Out_), Node, /*Final=*/true);
      bool HasRealSucc = false;
      for (const IfgEdge &E : Ifg.succs(Node)) {
        if (!isRealEdge(E.Type))
          continue;
        HasRealSucc = true;
        if (E.Type != EdgeType::Cycle)
          (void)applyEntry(Out_, E.Dst, /*Final=*/true);
      }
      if (!HasRealSucc)
        for (unsigned I : Out_.Pend)
          reportC1(Node, I, "eager production (send) never matched at exit");
    }
  }

  const IntervalFlowGraph &Ifg;
  const GntProblem &P;
  const GntResult &R;
  const std::vector<std::string> &Names;
  GntVerifyResult &Out;
  unsigned N, U;
  NodeId Start = InvalidNode;
};

} // namespace

GntVerifyResult gnt::verifyGntRun(const GntRun &Run,
                                  const std::vector<std::string> &Names) {
  GntVerifyResult Out;
  Verifier V(Run, Names, Out);
  V.run();
  return Out;
}
