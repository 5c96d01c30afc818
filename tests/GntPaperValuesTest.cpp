//===- tests/GntPaperValuesTest.cpp - Section 4 worked example gold test ----===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// Experiment E4 of DESIGN.md: the per-node dataflow variable values the
/// paper quotes throughout Section 4 for the READ instance of the
/// Figure 11/12 example. Items: x_k ~ x(k+10) = x(11:N+10), y_a ~ y(a(i))
/// = y(a(1:N)), y_b ~ y(b(k)) = y(b(1:N)).
///
/// Node mapping (paper -> this reproduction, see tests/TestUtil.h):
///   1 -> (folded into ROOT/Hi), 2 -> Hi, 3 -> {A, B}, 4 -> G, 5 -> Li,
///   6 -> SAfterI, 7 -> Hj, 8 -> JB, 9/11 -> SAfterJ, 10 -> Pad,
///   12 -> Hk, 13 -> KB, 14 -> Exit.
///
/// Our statement-granular CFG splits the paper's node 3 into the
/// assignment A and the branch B, and materializes latches Lj/Lk; the
/// quoted values map accordingly. One deliberate deviation from the
/// paper's quoted lists, derived by hand from the equations:
///
///  - y_b not in STEAL_loc(Exit): the paper's "14" in the STEAL_loc list
///    contradicts its own GIVE_loc list (y_b in GIVE_loc(12) forces
///    y_b's exclusion from STEAL_loc(14) by Eq. 10, whichever of 12/13
///    is 14's predecessor) — an erratum in the paper.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "dataflow/GiveNTake.h"
#include "dataflow/Verifier.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

constexpr unsigned Xk = 0, Ya = 1, Yb = 2;
const std::vector<std::string> Names = {"x_k", "y_a", "y_b"};

class PaperValues : public ::testing::Test {
protected:
  void SetUp() override {
    P = Pipeline::fromSource(fig11Source());
    ASSERT_TRUE(P.Ifg.has_value());
    N = locateFig11(P.G);

    GntProblem Prob(P.G.size(), 3);
    // Node A (paper 3): y(a(i)) = ... gives y_a for free and steals y_b
    // (a write through a(i) may touch sections referenced through b(k)).
    Prob.GiveInit[N.A].set(Ya);
    Prob.StealInit[N.A].set(Yb);
    // Node KB (paper 13): ... = x(k+10) + y(b(k)) consumes x_k and y_b.
    Prob.TakeInit[N.KB].set(Xk);
    Prob.TakeInit[N.KB].set(Yb);

    Run = runGiveNTake(*P.Ifg, Prob);
  }

  /// Asserts that, over all nodes, item \p Item is in variable \p Var
  /// exactly at \p Nodes.
  void expectExactly(const BitRows &Var, unsigned Item,
                     std::vector<NodeId> Nodes, const char *What) {
    std::vector<bool> Want(P.G.size(), false);
    for (NodeId Id : Nodes)
      Want[Id] = true;
    for (NodeId Id = 0; Id != P.G.size(); ++Id)
      EXPECT_EQ(Var[Id].test(Item), Want[Id])
          << What << " item " << Names[Item] << " at node " << Id << " ("
          << describeNode(P.G, Id) << ")";
  }

  Pipeline P;
  Fig11Nodes N;
  GntRun Run;
};

} // namespace

// "y_b in STEAL({2,3})" — our A carries the init, the header the summary.
TEST_F(PaperValues, Steal) {
  expectExactly(Run.Result.Steal, Yb, {N.Hi, N.A}, "STEAL");
  expectExactly(Run.Result.Steal, Xk, {}, "STEAL");
  expectExactly(Run.Result.Steal, Ya, {}, "STEAL");
}

// GIVE holds y_a at the defining node and (as the interval summary) the
// i-loop header; the k loop "gives" what it consumes.
TEST_F(PaperValues, Give) {
  // ROOT summarizes the whole program as one interval, so it also "gives"
  // everything that is given or taken somewhere inside.
  expectExactly(Run.Result.Give, Ya, {N.Hi, N.A, N.Root}, "GIVE");
  expectExactly(Run.Result.Give, Xk, {N.Hk, N.Root}, "GIVE");
  expectExactly(Run.Result.Give, Yb, {N.Hk, N.Root}, "GIVE");
}

// "y_a, y_b in BLOCK({2,3})".
TEST_F(PaperValues, Block) {
  expectExactly(Run.Result.Block, Ya, {N.Hi, N.A, N.Root}, "BLOCK");
  expectExactly(Run.Result.Block, Yb, {N.Hi, N.A, N.Hk, N.Root}, "BLOCK");
  expectExactly(Run.Result.Block, Xk, {N.Hk, N.Root}, "BLOCK");
}

// "x_k, y_b in TAKEN_out({2,6,7,9..11}); also x_k in TAKEN_out({1})."
// Paper node 1 is folded away; G belongs here too by Eq. 4 (the paper's
// example lists are illustrative, not exhaustive).
TEST_F(PaperValues, TakenOut) {
  expectExactly(Run.Result.TakenOut, Xk,
                {N.Hi, N.SAfterI, N.Hj, N.SAfterJ, N.Pad}, "TAKEN_out");
  expectExactly(Run.Result.TakenOut, Yb,
                {N.Hi, N.SAfterI, N.Hj, N.SAfterJ, N.Pad}, "TAKEN_out");
  expectExactly(Run.Result.TakenOut, Ya, {}, "TAKEN_out");
}

// "x_k, y_b in TAKE({12,13})" — and nowhere else: the k loop hoists its
// consumption into its header (zero-trip hoisting).
TEST_F(PaperValues, Take) {
  // ROOT hoists the unconditional, unstolen consumption of x_k to the
  // program level (its placement variables stay pinned, so this is
  // summary-only).
  expectExactly(Run.Result.Take, Xk, {N.Hk, N.KB, N.Root}, "TAKE");
  expectExactly(Run.Result.Take, Yb, {N.Hk, N.KB}, "TAKE");
  expectExactly(Run.Result.Take, Ya, {}, "TAKE");
}

// "x_k, y_b in TAKEN_in({6,7,9..13}); also x_k in TAKEN_in({1,2})."
TEST_F(PaperValues, TakenIn) {
  expectExactly(
      Run.Result.TakenIn, Xk,
      {N.Root, N.Hi, N.SAfterI, N.Hj, N.SAfterJ, N.Pad, N.Hk, N.KB},
      "TAKEN_in");
  expectExactly(Run.Result.TakenIn, Yb,
                {N.SAfterI, N.Hj, N.SAfterJ, N.Pad, N.Hk, N.KB},
                "TAKEN_in");
  expectExactly(Run.Result.TakenIn, Ya, {}, "TAKEN_in");
}

// "y_a, y_b in BLOCK_loc({1..3})": the blocking effects of the i loop
// reach back to the start of the program.
TEST_F(PaperValues, BlockLoc) {
  EXPECT_TRUE(Run.Result.BlockLoc[N.Hi].test(Ya));
  EXPECT_TRUE(Run.Result.BlockLoc[N.Hi].test(Yb));
  EXPECT_TRUE(Run.Result.BlockLoc[N.A].test(Ya));
  EXPECT_TRUE(Run.Result.BlockLoc[N.A].test(Yb));
  // Not blocked once past the loop.
  EXPECT_FALSE(Run.Result.BlockLoc[N.SAfterI].test(Yb));
}

// "y_a in GIVE_loc({2..7,9..11}); x_k, y_b in GIVE_loc({12..14})."
TEST_F(PaperValues, GiveLoc) {
  expectExactly(Run.Result.GiveLoc, Ya,
                {N.Hi, N.A, N.B, N.Li, N.SAfterI, N.Hj, N.SAfterJ,
                 N.Pad, N.Hk, N.Exit},
                "GIVE_loc");
  expectExactly(Run.Result.GiveLoc, Xk, {N.Hk, N.KB, N.Lk, N.Exit},
                "GIVE_loc");
  expectExactly(Run.Result.GiveLoc, Yb, {N.Hk, N.KB, N.Lk, N.Exit},
                "GIVE_loc");
}

// "y_b in STEAL_loc({2..7,9..12,14})" — see the file header for why the
// paper's "14" (Exit) is an erratum; Eq. 10 excludes it.
TEST_F(PaperValues, StealLoc) {
  expectExactly(Run.Result.StealLoc, Yb,
                {N.Hi, N.A, N.B, N.Li, N.SAfterI, N.Hj, N.SAfterJ,
                 N.Pad, N.Hk},
                "STEAL_loc");
  expectExactly(Run.Result.StealLoc, Xk, {}, "STEAL_loc");
  expectExactly(Run.Result.StealLoc, Ya, {}, "STEAL_loc");
}

// GIVEN^eager: x_k everywhere from the i header on; y_a from the def on;
// y_b from the first send point on (paper lists for nodes 1..14).
TEST_F(PaperValues, GivenEager) {
  const auto &G = Run.Result.Eager.Given;
  for (NodeId Id :
       {N.Hi, N.A, N.B, N.Li, N.SAfterI, N.Hj, N.JB, N.Lj, N.SAfterJ,
        N.Pad, N.Hk, N.KB, N.Lk, N.Exit})
    EXPECT_TRUE(G[Id].test(Xk)) << "GIVEN^eager x_k at " << Id;
  for (NodeId Id : {N.B, N.Li, N.SAfterI, N.Hj, N.SAfterJ, N.Pad, N.Hk,
                    N.KB, N.Lk, N.Exit})
    EXPECT_TRUE(G[Id].test(Ya)) << "GIVEN^eager y_a at " << Id;
  EXPECT_FALSE(G[N.Hi].test(Ya));
  // "y_b in GIVEN^eager({6..14})": from the send points on, not inside
  // the i loop.
  for (NodeId Id :
       {N.SAfterI, N.Hj, N.SAfterJ, N.Pad, N.Hk, N.KB, N.Lk, N.Exit})
    EXPECT_TRUE(G[Id].test(Yb)) << "GIVEN^eager y_b at " << Id;
  EXPECT_FALSE(G[N.A].test(Yb));
  EXPECT_FALSE(G[N.B].test(Yb));
  EXPECT_FALSE(G[N.Li].test(Yb));
}

// "x_k, y_b in GIVEN^lazy({12..14}); y_a in GIVEN^lazy({4..14})."
TEST_F(PaperValues, GivenLazy) {
  const auto &G = Run.Result.Lazy.Given;
  for (NodeId Id : {N.Hk, N.KB, N.Lk, N.Exit}) {
    EXPECT_TRUE(G[Id].test(Xk)) << "GIVEN^lazy x_k at " << Id;
    EXPECT_TRUE(G[Id].test(Yb)) << "GIVEN^lazy y_b at " << Id;
  }
  for (NodeId Id : {N.Hi, N.A, N.B, N.SAfterJ, N.Pad})
    EXPECT_FALSE(G[Id].test(Xk)) << "GIVEN^lazy x_k at " << Id;
  // y_a flows from the def onward (free give).
  for (NodeId Id : {N.B, N.SAfterI, N.Hj, N.SAfterJ, N.Pad, N.Hk})
    EXPECT_TRUE(G[Id].test(Ya)) << "GIVEN^lazy y_a at " << Id;
}

// The Read_Send placement: "x_k in RES_in^eager({1}), y_b in
// RES_in^eager({6,10})" — mapped to Hi (earliest real node; the paper's
// pre-loop node 1 is folded into ROOT), SAfterI (paper node 6, the
// fallthrough path) and Pad (paper node 10, the goto path; printed
// before the goto, i.e. inside `if test(i)` as in Figure 14).
TEST_F(PaperValues, ResEager) {
  expectExactly(Run.Result.Eager.ResIn, Xk, {N.Hi}, "RES_in^eager");
  expectExactly(Run.Result.Eager.ResIn, Yb, {N.SAfterI, N.Pad},
                "RES_in^eager");
  expectExactly(Run.Result.Eager.ResIn, Ya, {}, "RES_in^eager");
  // "There is no production needed on exit."
  for (NodeId Id = 0; Id != P.G.size(); ++Id)
    EXPECT_TRUE(Run.Result.Eager.ResOut[Id].none())
        << "RES_out^eager at " << Id;
}

// The Read_Recv placement: both items at the k header (label 77, just
// before the loop — Figure 14).
TEST_F(PaperValues, ResLazy) {
  expectExactly(Run.Result.Lazy.ResIn, Xk, {N.Hk}, "RES_in^lazy");
  expectExactly(Run.Result.Lazy.ResIn, Yb, {N.Hk}, "RES_in^lazy");
  expectExactly(Run.Result.Lazy.ResIn, Ya, {}, "RES_in^lazy");
  for (NodeId Id = 0; Id != P.G.size(); ++Id)
    EXPECT_TRUE(Run.Result.Lazy.ResOut[Id].none())
        << "RES_out^lazy at " << Id;
}

// The whole run satisfies C1/C3/O1 per the independent verifier.
TEST_F(PaperValues, VerifierAccepts) {
  GntVerifyResult V = verifyGntRun(Run, Names);
  EXPECT_TRUE(V.ok()) << V.firstViolation();
  EXPECT_FALSE(V.hasNotes()) << V.firstNote();
}
