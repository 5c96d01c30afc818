//===- tests/AnalysisTest.cpp - Dataflow engine + reference solver ----------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Unit tests for the generic monotone-framework engine (directions,
/// confluences, solve modes, statistics), the declarative GIVE-N-TAKE
/// problem specs built on top of it, and the iterative reference solver
/// that re-derives Equations 1-15 independently of the elimination
/// schedule.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/DataflowEngine.h"
#include "analysis/GntProblems.h"
#include "analysis/ReferenceSolver.h"
#include "dataflow/GiveNTake.h"
#include "gen/RandomProgram.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

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

/// The checkerboard problem the verifier property tests use: every
/// statement consumes one of two items, every third one steals the other.
GntProblem checkerProblem(const Cfg &G, Direction Dir) {
  GntProblem Prob(G.size(), 2, Dir);
  for (NodeId Id = 0; Id != G.size(); ++Id)
    if (G.node(Id).Kind == NodeKind::Stmt) {
      Prob.TakeInit[Id].set(Id % 2);
      if (Id % 3 == 0)
        Prob.StealInit[Id].set((Id + 1) % 2);
    }
  return Prob;
}

} // namespace

TEST(DataflowEngine, ForwardAnyPropagatesDownstream) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Forward;
  Spec.Meet = Confluence::Any;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[V].set(0u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(R.Out[V].test(0));
  EXPECT_TRUE(R.In[W].test(0)) << "fact did not flow V -> W";
  EXPECT_FALSE(R.In[V].test(0)) << "fact flowed upstream";
}

TEST(DataflowEngine, KillStopsPropagation) {
  Pipeline P = Pipeline::fromSource("v = 1\nu = 3\nw = 2\n");
  NodeId V = findAssign(P.G, "v"), U = findAssign(P.G, "u"),
         W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Kill.assign(P.G.size(), BitVector(1));
  Spec.Gen[V].set(0u);
  Spec.Kill[U].set(0u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(R.In[U].test(0));
  EXPECT_FALSE(R.Out[U].test(0));
  EXPECT_FALSE(R.In[W].test(0));
}

TEST(DataflowEngine, AnyVersusAllOnBranch) {
  Pipeline P = Pipeline::fromSource(R"(
if (c > 0) then
  v = 1
else
  u = 3
endif
w = 2
)");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[V].set(0u); // Generated on the then arm only.
  Spec.Meet = Confluence::Any;
  DataflowResult May = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(May.In[W].test(0)) << "some-path fact lost at the merge";
  Spec.Meet = Confluence::All;
  DataflowResult Must = solveDataflow(*P.Ifg, Spec);
  EXPECT_FALSE(Must.In[W].test(0)) << "one-armed fact survived an all-paths merge";
}

TEST(DataflowEngine, BackwardFlowsAgainstEdges) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.Direction = FlowDirection::Backward;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[W].set(0u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  // Backward flow orientation: Out is the value at the node's entry.
  EXPECT_TRUE(R.Out[W].test(0));
  EXPECT_TRUE(R.In[V].test(0)) << "demand did not flow W -> V";
  EXPECT_TRUE(R.Out[V].test(0));
}

TEST(DataflowEngine, BoundaryPinsNoInflowNodes) {
  Pipeline P = Pipeline::fromSource("v = 1\n");
  DataflowSpec Spec;
  Spec.UniverseSize = 2;
  Spec.Boundary = BitVector(2);
  Spec.Boundary.set(1u);
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_TRUE(R.In[P.Ifg->root()].test(1));
  EXPECT_TRUE(R.Out[findAssign(P.G, "v")].test(1))
      << "boundary value did not flow through";
}

TEST(DataflowEngine, StatsReflectTheSolve) {
  Pipeline P = Pipeline::fromSource(fig11Source());
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  DataflowResult R = solveDataflow(*P.Ifg, Spec);
  EXPECT_GE(R.Stats.Iterations, 1u);
  EXPECT_GE(R.Stats.NodeVisits, P.Ifg->size());
  EXPECT_GE(R.Stats.EdgeEvaluations, 1u);
}

TEST(DataflowEngine, WorklistPeakTracksPendingNodes) {
  Pipeline P = Pipeline::fromSource(fig11Source());
  DataflowSpec Spec;
  Spec.UniverseSize = 1;
  Spec.Gen.assign(P.G.size(), BitVector(1));
  Spec.Gen[P.Ifg->root()].set(0u);
  DataflowResult W = solveDataflow(*P.Ifg, Spec, SolveMode::Worklist);
  // The worklist is seeded with every node, so the peak is at least the
  // graph size; round-robin sweeps keep no worklist at all.
  EXPECT_GE(W.Stats.WorklistPeak, P.Ifg->size());
  DataflowResult R = solveDataflow(*P.Ifg, Spec, SolveMode::RoundRobin);
  EXPECT_EQ(R.Stats.WorklistPeak, 0u);
  EXPECT_EQ(W.In, R.In);
  EXPECT_EQ(W.Out, R.Out);
}

TEST(DataflowEngine, RoundRobinSupportsCrossNodeEdgeTransfers) {
  // An edge transfer that reads a node other than the edge source:
  // every edge value additionally carries U's out-value. Only
  // RoundRobin is documented to converge correctly for these.
  Pipeline P = Pipeline::fromSource("v = 1\nu = 3\nw = 2\n");
  NodeId V = findAssign(P.G, "v"), U = findAssign(P.G, "u"),
         W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.UniverseSize = 2;
  Spec.Gen.assign(P.G.size(), BitVector(2));
  Spec.Gen[V].set(0u);
  Spec.Gen[U].set(1u);
  Spec.EdgeTransfer = [U](const IfgEdge &E,
                          const std::vector<BitVector> &NodeOut) {
    BitVector Val = NodeOut[E.Src];
    Val |= NodeOut[U];
    return Val;
  };
  DataflowResult R = solveDataflow(*P.Ifg, Spec, SolveMode::RoundRobin);
  // U's fact rides every edge, including the ones upstream of U itself:
  // the edge into V already carries bit 1 even though U is not V's
  // predecessor.
  EXPECT_TRUE(R.In[V].test(1)) << "cross-node edge transfer not applied";
  EXPECT_TRUE(R.In[W].test(0));
  EXPECT_TRUE(R.In[W].test(1));
  // The fixed point satisfies the edge equation at every flow edge.
  for (NodeId N = 0; N != P.Ifg->size(); ++N) {
    for (const IfgEdge &E : P.Ifg->succs(N)) {
      if (E.Type == EdgeType::Synthetic)
        continue;
      BitVector Val = R.Out[E.Src];
      Val |= R.Out[U];
      BitVector Missing = Val;
      Missing.reset(R.In[E.Dst]);
      EXPECT_FALSE(Missing.any())
          << "edge " << E.Src << "->" << E.Dst << " value not merged";
    }
  }
}

TEST(DataflowEngine, AllConfluenceBoundaryDecidesMergePoints) {
  // All-paths confluence with a pinned boundary: the boundary fact
  // survives a branch merge only while no arm kills it, in both solve
  // modes identically.
  Pipeline P = Pipeline::fromSource(R"(
if (c > 0) then
  v = 1
else
  u = 3
endif
w = 2
)");
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");
  DataflowSpec Spec;
  Spec.Meet = Confluence::All;
  Spec.UniverseSize = 1;
  Spec.Boundary = BitVector(1, true);
  for (SolveMode Mode : {SolveMode::Worklist, SolveMode::RoundRobin}) {
    DataflowResult R = solveDataflow(*P.Ifg, Spec, Mode);
    EXPECT_TRUE(R.In[W].test(0))
        << "boundary fact lost on a kill-free all-paths merge";
  }
  Spec.Kill.assign(P.G.size(), BitVector(1));
  Spec.Kill[V].set(0u);
  for (SolveMode Mode : {SolveMode::Worklist, SolveMode::RoundRobin}) {
    DataflowResult R = solveDataflow(*P.Ifg, Spec, Mode);
    EXPECT_FALSE(R.In[W].test(0))
        << "fact killed on one arm survived an all-paths merge";
    EXPECT_TRUE(R.In[V].test(0)) << "boundary did not reach the arm";
  }
}

TEST(DataflowEngine, WorklistMatchesRoundRobinOnGntSpecs) {
  for (unsigned Seed = 1; Seed != 11; ++Seed) {
    GenConfig C;
    C.Seed = Seed;
    C.TargetStmts = 30;
    C.GotoProb = 0.1;
    Program Prog = generateRandomProgram(C);
    CfgBuildResult CR = buildCfg(Prog);
    ASSERT_TRUE(CR.success());
    auto IR = IntervalFlowGraph::build(CR.G);
    ASSERT_TRUE(IR.success());
    GntRun Run = runGiveNTake(*IR.Ifg, checkerProblem(CR.G, Direction::Before));
    for (Urgency U : {Urgency::Eager, Urgency::Lazy}) {
      for (DataflowSpec Spec :
           {makeAnticipabilitySpec(Run), makeProductionLivenessSpec(Run, U),
            makeStealReachabilitySpec(Run, U)}) {
        DataflowResult A = solveDataflow(Run.OrientedIfg, Spec,
                                         SolveMode::Worklist);
        DataflowResult B = solveDataflow(Run.OrientedIfg, Spec,
                                         SolveMode::RoundRobin);
        EXPECT_EQ(A.In, B.In) << "seed " << Seed;
        EXPECT_EQ(A.Out, B.Out) << "seed " << Seed;
      }
    }
  }
}

TEST(DataflowEngine, AvailabilityCoversEveryConsumer) {
  // C3 from the engine's side: with a valid placement, must-availability
  // at each node covers everything consumed there.
  Pipeline P = Pipeline::fromSource(fig11Source());
  GntRun Run = runGiveNTake(*P.Ifg, checkerProblem(P.G, Direction::Before));
  for (Urgency U : {Urgency::Eager, Urgency::Lazy}) {
    DataflowResult R = solveDataflow(
        Run.OrientedIfg, makeAvailabilitySpec(Run, U), SolveMode::RoundRobin);
    for (NodeId Node = 0; Node != Run.OrientedIfg.size(); ++Node) {
      BitVector Missing(Run.OrientedProblem.TakeInit[Node]);
      Missing.reset(R.Out[Node]);
      EXPECT_FALSE(Missing.any())
          << "node " << Node << " consumes an unavailable item";
    }
  }
}

TEST(ReferenceSolver, ConvergesAndMatchesEliminationOnPaperFigures) {
  for (const char *Src :
       {fig11Source(), "do i = 1, n\nv = i\nenddo\nw = 2\n",
        "if (c > 0) then\nv = 1\nendif\nw = 2\n"}) {
    Pipeline P = Pipeline::fromSource(Src);
    for (Direction Dir : {Direction::Before, Direction::After}) {
      GntRun Run = runGiveNTake(*P.Ifg, checkerProblem(P.G, Dir));
      ReferenceResult Ref =
          solveGiveNTakeIterative(Run.OrientedIfg, Run.OrientedProblem);
      ASSERT_TRUE(Ref.Converged) << Src;
      EXPECT_GE(Ref.Sweeps, 2u) << "fixed point cannot be verified in one sweep";
      EXPECT_EQ(Ref.Result.Take, Run.Result.Take) << Src;
      EXPECT_EQ(Ref.Result.TakenIn, Run.Result.TakenIn) << Src;
      EXPECT_EQ(Ref.Result.Steal, Run.Result.Steal) << Src;
      EXPECT_EQ(Ref.Result.Give, Run.Result.Give) << Src;
      EXPECT_EQ(Ref.Result.Eager.ResIn, Run.Result.Eager.ResIn) << Src;
      EXPECT_EQ(Ref.Result.Eager.ResOut, Run.Result.Eager.ResOut) << Src;
      EXPECT_EQ(Ref.Result.Lazy.ResIn, Run.Result.Lazy.ResIn) << Src;
      EXPECT_EQ(Ref.Result.Lazy.ResOut, Run.Result.Lazy.ResOut) << Src;
    }
  }
}

TEST(ReferenceSolver, RespectsSweepBudget) {
  Pipeline P = Pipeline::fromSource(fig11Source());
  GntRun Run = runGiveNTake(*P.Ifg, checkerProblem(P.G, Direction::Before));
  ReferenceResult Ref = solveGiveNTakeIterative(Run.OrientedIfg,
                                                Run.OrientedProblem,
                                                /*MaxSweeps=*/1);
  EXPECT_EQ(Ref.Sweeps, 1u);
  EXPECT_FALSE(Ref.Converged);
}
