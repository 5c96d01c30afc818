//===- tests/GntSolverTest.cpp - Solver behavior (paper Figs. 4-10) ---------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E7 of DESIGN.md: the correctness criteria C1-C3 and
/// optimality guidelines O1-O3' of Section 3.2, exercised on the small
/// schematic situations of the paper's Figures 4-10 expressed as FMini
/// programs. Every run is cross-checked with the independent static
/// verifier.
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

/// Asserts that \p BV holds exactly \p Items.
void expectItems(ConstBitRow BV, std::initializer_list<unsigned> Items,
                 const std::string &What) {
  BitVector Want(BV.size());
  for (unsigned I : Items)
    Want.set(I);
  EXPECT_EQ(BV, Want) << What;
}

/// Total number of production points of \p Pl for item \p Item.
unsigned productionCount(const GntPlacement &Pl, unsigned Item) {
  unsigned N = 0;
  for (ConstBitRow BV : Pl.ResIn)
    N += BV.test(Item);
  for (ConstBitRow BV : Pl.ResOut)
    N += BV.test(Item);
  return N;
}

void expectVerified(const GntRun &Run, const char *What) {
  GntVerifyResult V = verifyGntRun(Run);
  EXPECT_TRUE(V.ok()) << What << ": " << V.firstViolation();
  EXPECT_FALSE(V.hasNotes()) << What << ": " << V.firstNote();
}

/// Finds the single Stmt node assigning to scalar \p Var.
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

NodeId findHeader(const Cfg &G, const std::string &Idx) {
  for (NodeId Id = 0; Id != G.size(); ++Id)
    if (G.node(Id).Kind == NodeKind::LoopHeader &&
        cast<DoStmt>(G.node(Id).S)->getIndexVar() == Idx)
      return Id;
  ADD_FAILURE() << "no loop " << Idx;
  return InvalidNode;
}

} // namespace

// O3/O3': in a straight line, EAGER production is as early as possible
// (the first real node) and LAZY as late as possible (the consumer).
TEST(GntSolver, StraightLineEagerEarlyLazyLate) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\nu = 3\n");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId S1 = findAssign(P.G, "v"), S3 = findAssign(P.G, "u");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[S3].set(ItemX); // u = 3 consumes X.
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  expectItems(Run.Result.Eager.ResIn[S1], {ItemX}, "eager at first node");
  expectItems(Run.Result.Lazy.ResIn[S3], {ItemX}, "lazy at consumer");
  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 1u);
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 1u);
  expectVerified(Run, "straight line");
}

// C2 safety (Figure 5): consumption only inside one branch must not be
// produced above the branch.
TEST(GntSolver, SafetyNoProductionAboveBranch) {
  Pipeline P = Pipeline::fromSource(R"(
v = 1
if (c > 0) then
  w = 2
endif
u = 3
)");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId S1 = findAssign(P.G, "v"), W = findAssign(P.G, "w");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  // Nothing before or at the branch, for either urgency.
  EXPECT_TRUE(Run.Result.Eager.ResIn[S1].none());
  EXPECT_TRUE(Run.Result.Lazy.ResIn[S1].none());
  // Exactly one production each, inside the branch (at the consumer).
  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 1u);
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 1u);
  expectItems(Run.Result.Lazy.ResIn[W], {ItemX}, "lazy at guarded consumer");
  expectVerified(Run, "guarded consumer");
}

// O2 (Figure 8): both branches consume, so one producer above the branch
// beats one in each branch — at least for EAGER.
TEST(GntSolver, FewProducersAcrossDiamond) {
  Pipeline P = Pipeline::fromSource(R"(
v = 1
if (c > 0) then
  w = 2
else
  u = 3
endif
)");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId S1 = findAssign(P.G, "v");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[findAssign(P.G, "w")].set(ItemX);
  Prob.TakeInit[findAssign(P.G, "u")].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  // EAGER: hoisted to the very start, one producer.
  expectItems(Run.Result.Eager.ResIn[S1], {ItemX}, "eager above diamond");
  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 1u);
  // LAZY: one per branch (as late as possible), still balanced per path.
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 2u);
  expectVerified(Run, "diamond");
}

// O1 (Figure 7): a second consumption of an unstolen item is not
// re-produced.
TEST(GntSolver, NoReproduction) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId S1 = findAssign(P.G, "v"), S2 = findAssign(P.G, "w");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[S1].set(ItemX);
  Prob.TakeInit[S2].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 1u);
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 1u);
  expectItems(Run.Result.Lazy.ResIn[S1], {ItemX}, "lazy at first consumer");
  expectVerified(Run, "repeated consumption");
}

// The headline zero-trip behavior: consumption inside a DO loop is
// hoisted above the header, for both EAGER and LAZY.
TEST(GntSolver, HoistOutOfZeroTripLoop) {
  Pipeline P = Pipeline::fromSource("do i = 1, n\nv = i\nenddo\n");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId H = findHeader(P.G, "i"), Body = findAssign(P.G, "v");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[Body].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  expectItems(Run.Result.Eager.ResIn[H], {ItemX}, "eager above loop");
  expectItems(Run.Result.Lazy.ResIn[H], {ItemX}, "lazy above loop");
  EXPECT_TRUE(Run.Result.Lazy.ResIn[Body].none());
  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 1u);
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 1u);
  expectVerified(Run, "loop hoist");
}

// Nested loops: hoisting goes all the way out.
TEST(GntSolver, HoistOutOfNestedLoops) {
  Pipeline P = Pipeline::fromSource(R"(
do i = 1, n
  do j = 1, n
    v = i + j
  enddo
enddo
)");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId Hi = findHeader(P.G, "i"), Body = findAssign(P.G, "v");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[Body].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  expectItems(Run.Result.Eager.ResIn[Hi], {ItemX}, "eager above nest");
  expectItems(Run.Result.Lazy.ResIn[Hi], {ItemX}, "lazy above nest");
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 1u);
  expectVerified(Run, "nested hoist");
}

// Section 4.1: STEAL_init at the header is the per-case opt-out of
// zero-trip hoisting; production then stays inside the loop.
TEST(GntSolver, ZeroTripHoistingOptOut) {
  Pipeline P = Pipeline::fromSource("do i = 1, n\nv = i\nenddo\n");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId H = findHeader(P.G, "i"), Body = findAssign(P.G, "v");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[Body].set(ItemX);
  Prob.StealInit[H].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  EXPECT_TRUE(Run.Result.Eager.ResIn[H].none());
  EXPECT_TRUE(Run.Result.Lazy.ResIn[H].none());
  expectItems(Run.Result.Eager.ResIn[Body], {ItemX}, "eager inside loop");
  expectItems(Run.Result.Lazy.ResIn[Body], {ItemX}, "lazy inside loop");
  expectVerified(Run, "hoist opt-out");
}

// A steal inside the loop blocks hoisting a later consumer above it.
TEST(GntSolver, StealInLoopBlocksHoist) {
  Pipeline P = Pipeline::fromSource(R"(
do i = 1, n
  v = i
enddo
w = 2
)");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId H = findHeader(P.G, "i"), Body = findAssign(P.G, "v"),
         After = findAssign(P.G, "w");

  GntProblem Prob(P.G.size(), 1);
  Prob.StealInit[Body].set(ItemX); // The loop body destroys X...
  Prob.TakeInit[After].set(ItemX); // ...and X is consumed after the loop.
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  // No production before or inside the loop.
  EXPECT_TRUE(Run.Result.Eager.ResIn[H].none());
  EXPECT_TRUE(Run.Result.Eager.ResIn[Body].none());
  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 1u);
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 1u);
  expectItems(Run.Result.Lazy.ResIn[After], {ItemX}, "lazy at consumer");
  expectVerified(Run, "steal blocks hoist");
}

// Side effects come for free: a GIVE upstream covers the consumer with no
// production at all (the paper's "for free" behavior, Section 3.1).
TEST(GntSolver, FreeGiveNeedsNoProduction) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\n");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId S1 = findAssign(P.G, "v"), S2 = findAssign(P.G, "w");

  GntProblem Prob(P.G.size(), 1);
  Prob.GiveInit[S1].set(ItemX);
  Prob.TakeInit[S2].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 0u);
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 0u);
  expectVerified(Run, "free give");
}

// Balance across a partially consuming branch (Figure 4): when only the
// then-branch consumes early, the else path must still stop the pending
// eager production before the merge, via RES_out on the synthetic else.
TEST(GntSolver, BalanceAcrossBranch) {
  Pipeline P = Pipeline::fromSource(R"(
if (c > 0) then
  v = 1
endif
w = 2
)");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId V = findAssign(P.G, "v"), W = findAssign(P.G, "w");

  GntProblem Prob(P.G.size(), 1);
  Prob.TakeInit[V].set(ItemX);
  Prob.TakeInit[W].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  // Eager: one send above the branch (consumed on all paths eventually).
  EXPECT_EQ(productionCount(Run.Result.Eager, ItemX), 1u);
  // Lazy: received in the then branch at v, and on the else path before
  // the merge — two receives, one per path.
  expectItems(Run.Result.Lazy.ResIn[V], {ItemX}, "lazy at then consumer");
  EXPECT_EQ(productionCount(Run.Result.Lazy, ItemX), 2u);
  expectVerified(Run, "figure 4 balance");
}

// AFTER problems: production follows consumption. LAZY lands right after
// the consumer, EAGER as late as the last node.
TEST(GntSolver, AfterProblemStraightLine) {
  Pipeline P = Pipeline::fromSource("v = 1\nw = 2\nu = 3\n");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId S1 = findAssign(P.G, "v");

  GntProblem Prob(P.G.size(), 1, Direction::After);
  Prob.TakeInit[S1].set(ItemX); // v = 1 "defines" X; write it back after.
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  // LAZY (e.g. Write_Send): immediately after the definition.
  expectItems(Run.resAtExit(Urgency::Lazy, S1), {ItemX}, "send after def");
  // EAGER (e.g. Write_Recv): as late as possible — on the exit node.
  expectItems(Run.resAtExit(Urgency::Eager, P.G.exit()), {ItemX},
              "recv at end");
  expectVerified(Run, "after straight line");
}

// AFTER with a definition inside a loop: the write-back is placed once
// after the loop, not once per iteration.
TEST(GntSolver, AfterProblemLoopDefinition) {
  Pipeline P = Pipeline::fromSource(R"(
do i = 1, n
  v = i
enddo
w = 2
)");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId H = findHeader(P.G, "i"), Body = findAssign(P.G, "v");

  GntProblem Prob(P.G.size(), 1, Direction::After);
  Prob.TakeInit[Body].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  // Not inside the loop body.
  EXPECT_TRUE(Run.resAtExit(Urgency::Lazy, Body).none());
  EXPECT_TRUE(Run.resAtEntry(Urgency::Lazy, Body).none());
  // Hoisted to (the reversed view of) the header: placed once.
  unsigned Count = 0;
  for (NodeId Id = 0; Id != P.G.size(); ++Id)
    Count += Run.resAtEntry(Urgency::Lazy, Id).test(ItemX) +
             Run.resAtExit(Urgency::Lazy, Id).test(ItemX);
  EXPECT_EQ(Count, 1u);
  expectItems(Run.resAtExit(Urgency::Lazy, H), {ItemX},
              "write-back placed once after the loop");
  expectVerified(Run, "after loop def");
}

// AFTER + jump out of the loop (Figure 16 / Section 5.3): the reversed
// jump enters the loop mid-body, so the loop must not hoist; placement is
// conservative but safe.
TEST(GntSolver, AfterProblemWithJumpIsSafe) {
  Pipeline P = Pipeline::fromSource(R"(
do i = 1, n
  v = i
  if (t(i)) goto 9
enddo
9 w = 2
)");
  ASSERT_TRUE(P.Ifg.has_value());
  NodeId Body = findAssign(P.G, "v");

  GntProblem Prob(P.G.size(), 1, Direction::After);
  Prob.TakeInit[Body].set(ItemX);
  GntRun Run = runGiveNTake(*P.Ifg, Prob);

  // The poisoned loop keeps production next to the consumer.
  expectItems(Run.resAtExit(Urgency::Lazy, Body), {ItemX},
              "write-back stays at the def");
  expectVerified(Run, "after with jump");
}

// The solver's intermediate variables respect basic sanity invariants on
// an assortment of graphs (catches equation transcription typos).
TEST(GntSolver, VariableSanityInvariants) {
  const char *Sources[] = {
      "v = 1\n",
      "do i = 1, n\nv = i\nenddo\n",
      fig11Source(),
      "if (c > 0) then\nv = 1\nelse\nw = 2\nendif\nu = 3\n",
  };
  for (const char *Src : Sources) {
    Pipeline P = Pipeline::fromSource(Src);
    ASSERT_TRUE(P.Ifg.has_value());
    GntProblem Prob(P.G.size(), 3);
    // Scatter a few inits deterministically.
    for (NodeId Id = 0; Id != P.G.size(); ++Id) {
      if (P.G.node(Id).Kind == NodeKind::Stmt) {
        Prob.TakeInit[Id].set(Id % 3);
        if (Id % 2)
          Prob.StealInit[Id].set((Id + 1) % 3);
      }
    }
    GntRun Run = runGiveNTake(*P.Ifg, Prob);
    const GntResult &R = Run.Result;
    for (NodeId Id = 0; Id != P.G.size(); ++Id) {
      // TAKE subseteq TAKEN_in; BLOCK superseteq STEAL, GIVE.
      EXPECT_TRUE(R.Take[Id].isSubsetOf(R.TakenIn[Id]));
      EXPECT_TRUE(R.Steal[Id].isSubsetOf(R.Block[Id]));
      EXPECT_TRUE(R.Give[Id].isSubsetOf(R.Block[Id]));
      for (const GntPlacement *Pl : {&R.Eager, &R.Lazy}) {
        // GIVEN_in subseteq GIVEN; RES_in = GIVEN - GIVEN_in.
        EXPECT_TRUE(Pl->GivenIn[Id].isSubsetOf(Pl->Given[Id]));
        BitVector Expect(Pl->Given[Id]);
        Expect.reset(Pl->GivenIn[Id]);
        EXPECT_EQ(Pl->ResIn[Id], Expect);
      }
      // LAZY production is never earlier than EAGER availability misses:
      // anything the LAZY solution has available, EAGER has too.
      EXPECT_TRUE(R.Lazy.Given[Id].isSubsetOf(R.Eager.Given[Id]));
    }
  }
}
