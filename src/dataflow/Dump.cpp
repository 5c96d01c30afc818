//===- dataflow/Dump.cpp - Human-readable solver state dumps -----------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "dataflow/Dump.h"

#include "cfg/Cfg.h"
#include "support/Support.h"

#include <sstream>

using namespace gnt;

namespace {

std::string setToString(ConstBitRow BV,
                        const std::vector<std::string> &Names) {
  std::vector<std::string> Parts;
  for (unsigned I : BV)
    Parts.push_back(I < Names.size() ? Names[I] : "item" + itostr(I));
  return "{" + join(Parts, ", ") + "}";
}

} // namespace

std::string gnt::dumpGntRun(const GntRun &Run, const Cfg &G,
                            const std::vector<std::string> &Names) {
  const IntervalFlowGraph &Ifg = Run.OrientedIfg;
  const GntProblem &P = Run.OrientedProblem;
  const GntResult &R = Run.Result;
  std::ostringstream OS;

  OS << "GIVE-N-TAKE run ("
     << (P.Dir == Direction::Before ? "BEFORE" : "AFTER") << " problem, "
     << (Ifg.isReversed() ? "reversed" : "forward") << " graph, "
     << P.UniverseSize << " items)\n";

  for (NodeId Node : Ifg.preorder()) {
    OS << "node " << describeNode(G, Node) << "  level "
       << Ifg.level(Node);
    if (Ifg.isHeader(Node))
      OS << "  header";
    OS << "\n";

    auto row = [&](const char *Name, ConstBitRow BV) {
      if (BV.none())
        return;
      OS << "  " << Name << " = " << setToString(BV, Names) << "\n";
    };
    row("TAKE_init ", P.TakeInit[Node]);
    row("GIVE_init ", P.GiveInit[Node]);
    row("STEAL_init", P.StealInit[Node]);
    row("STEAL     ", R.Steal[Node]);
    row("GIVE      ", R.Give[Node]);
    row("BLOCK     ", R.Block[Node]);
    row("TAKEN_out ", R.TakenOut[Node]);
    row("TAKE      ", R.Take[Node]);
    row("TAKEN_in  ", R.TakenIn[Node]);
    row("BLOCK_loc ", R.BlockLoc[Node]);
    row("TAKE_loc  ", R.TakeLoc[Node]);
    row("GIVE_loc  ", R.GiveLoc[Node]);
    row("STEAL_loc ", R.StealLoc[Node]);
    row("GIVEN^e   ", R.Eager.Given[Node]);
    row("GIVEN^l   ", R.Lazy.Given[Node]);
    row("RES_in^e  ", R.Eager.ResIn[Node]);
    row("RES_out^e ", R.Eager.ResOut[Node]);
    row("RES_in^l  ", R.Lazy.ResIn[Node]);
    row("RES_out^l ", R.Lazy.ResOut[Node]);
  }
  return OS.str();
}
