//===- tests/VerifierTest.cpp - Static checker negative tests ---------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The independent C1/C3/O1 verifier must actually *catch* broken
/// placements — these tests corrupt solver results in targeted ways and
/// check for the right diagnostic (guarding against a checker that
/// trivially accepts everything).
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dataflow/GiveNTake.h"
#include "dataflow/Verifier.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

constexpr unsigned ItemX = 0;

NodeId findAssign(const Cfg &G, const std::string &Var) {
  for (NodeId Id = 0; Id != G.size(); ++Id) {
    const auto *AS = dyn_cast_or_null<AssignStmt>(G.node(Id).S);
    if (G.node(Id).Kind == NodeKind::Stmt && AS)
      if (const auto *V = dyn_cast<VarExpr>(AS->getLHS()))
        if (V->getName() == Var)
          return Id;
  }
  ADD_FAILURE() << "no assignment to " << Var;
  return InvalidNode;
}

bool hasViolation(const GntVerifyResult &V, const std::string &Substr) {
  for (const Diagnostic &D : V.Diags.all())
    if (D.Severity == DiagSeverity::Error &&
        D.render().find(Substr) != std::string::npos)
      return true;
  return false;
}

} // namespace

TEST(Verifier, AcceptsCorrectRun) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[findAssign(P.G, "w")].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  EXPECT_TRUE(verifyGntRun(Run).ok());
}

TEST(Verifier, CatchesMissingProduction) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[findAssign(P.G, "w")].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // Remove every production of the EAGER solution.
  for (BitRow BV : Run.Result.Eager.ResIn)
    BV.reset();
  GntVerifyResult V = verifyGntRun(Run);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasViolation(V, "C3/EAGER"));
}

TEST(Verifier, CatchesProductionKilledBySteal) {
  Pipeline P = Pipeline::fromSource("v = 1\nu = 3\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  NodeId V1 = findAssign(P.G, "v"), U = findAssign(P.G, "u"),
         W = findAssign(P.G, "w");
  Prob.StealInit[U].set(ItemX);
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // Move the (lazy) production above the steal: now insufficient.
  Run.Result.Lazy.ResIn[W].reset();
  Run.Result.Lazy.ResIn[V1].set(ItemX);
  GntVerifyResult Res = verifyGntRun(Run);
  EXPECT_FALSE(Res.ok());
  EXPECT_TRUE(hasViolation(Res, "C3/LAZY"));
}

TEST(Verifier, CatchesUnmatchedSend) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[findAssign(P.G, "w")].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // Delete the LAZY (receive) production: the send never completes.
  for (BitRow BV : Run.Result.Lazy.ResIn)
    BV.reset();
  GntVerifyResult V = verifyGntRun(Run);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasViolation(V, "never matched"));
}

TEST(Verifier, CatchesDoubleSend) {
  Pipeline P = Pipeline::fromSource("v = 1\nu = 3\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  NodeId V1 = findAssign(P.G, "v"), U = findAssign(P.G, "u"),
         W = findAssign(P.G, "w");
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // Add a second eager production before the receive.
  Run.Result.Eager.ResIn[V1].set(ItemX);
  Run.Result.Eager.ResIn[U].set(ItemX);
  GntVerifyResult Res = verifyGntRun(Run);
  EXPECT_FALSE(Res.ok());
  EXPECT_TRUE(hasViolation(Res, "second eager production"));
}

TEST(Verifier, CatchesReceiveWithoutSend) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // A lazy receive with no eager send anywhere.
  Run.Result.Lazy.ResIn[findAssign(P.G, "w")].set(ItemX);
  GntVerifyResult V = verifyGntRun(Run);
  EXPECT_FALSE(V.ok());
  EXPECT_TRUE(hasViolation(V, "without prior send"));
}

TEST(Verifier, CatchesBranchImbalance) {
  // A send above a branch whose receive exists on one arm only.
  Pipeline P = Pipeline::fromSource(R"(
v = 1
if (c > 0) then
  w = 2
else
  u = 3
endif
)");
  GntProblem Prob(P.G.size(), 1);
  NodeId V1 = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  Run.Result.Eager.ResIn[V1].set(ItemX);
  Run.Result.Lazy.ResIn[W].set(ItemX); // Only the then arm receives.
  GntVerifyResult Res = verifyGntRun(Run);
  EXPECT_FALSE(Res.ok());
  EXPECT_TRUE(hasViolation(Res, "never matched"));
}

TEST(Verifier, ReportsRedundantProductionAsNote) {
  Pipeline P = Pipeline::fromSource("v = 1\nu = 3\nw = 2\n");
  GntProblem Prob(P.G.size(), 1);
  NodeId U = findAssign(P.G, "u"), W = findAssign(P.G, "w");
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);
  // Insert a pointless second lazy pair in the middle: still balanced
  // and sufficient, but O1-redundant.
  Run.Result.Eager.ResIn[U].reset();
  Run.Result.Lazy.ResIn[U].set(ItemX);
  Run.Result.Eager.ResOut[U].set(ItemX);
  // Sequence on the only path: send(v)... recv(u), send(u-exit), recv(w):
  // balanced, but u's receive re-produces an available item.
  GntVerifyResult Res = verifyGntRun(Run);
  EXPECT_TRUE(Res.ok()) << Res.firstViolation();
  ASSERT_TRUE(Res.hasNotes());
  EXPECT_NE(Res.firstNote().find("O1"), std::string::npos);
}

TEST(Verifier, SolverOutputsAlwaysPassOnPaperFigures) {
  for (const char *Src :
       {fig11Source(), "do i = 1, n\nv = i\nenddo\nw = 2\n",
        "if (c > 0) then\nv = 1\nendif\nw = 2\n"}) {
    Pipeline P = Pipeline::fromSource(Src);
    GntProblem Prob(P.G.size(), 2);
    for (NodeId Id = 0; Id != P.G.size(); ++Id)
      if (P.G.node(Id).Kind == NodeKind::Stmt) {
        Prob.TakeInit[Id].set(Id % 2);
        if (Id % 3 == 0)
          Prob.StealInit[Id].set((Id + 1) % 2);
      }
    for (Direction Dir : {Direction::Before, Direction::After}) {
      Prob.Dir = Dir;
      GntRun Run = runGiveNTake(*P.Ifg, Prob);
      GntVerifyResult V = verifyGntRun(Run);
      EXPECT_TRUE(V.ok()) << Src << ": " << V.firstViolation();
    }
  }
}
