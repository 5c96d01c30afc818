//===- tests/ExprPreTest.cpp - Expression PRE client tests ------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// The paper's generality claim (Sections 1/6): classical PRE as a LAZY
/// BEFORE problem — common subexpression elimination, partial redundancy
/// across joins, and loop-invariant code motion including the zero-trip
/// hoisting classical frameworks forgo.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "pre/ExprPre.h"

#include <gtest/gtest.h>

using namespace gnt;
using namespace gnt::test;

namespace {

ExprPreResult preFor(Pipeline &P) {
  EXPECT_TRUE(P.Ifg.has_value());
  return runExprPre(P.Prog, P.G, *P.Ifg);
}

int itemOf(const ExprPreResult &R, const std::string &Text) {
  for (unsigned I = 0; I != R.Exprs.size(); ++I)
    if (R.Exprs[I] == Text)
      return static_cast<int>(I);
  return -1;
}

unsigned insertionsOf(const ExprPreResult &R, int Item) {
  unsigned N = 0;
  for (const PreInsertion &Ins : R.Insertions)
    N += Ins.Item == static_cast<unsigned>(Item);
  return N;
}

} // namespace

TEST(ExprPre, CommonSubexpressionEliminated) {
  Pipeline P = Pipeline::fromSource(R"(
array u
u(1) = a * b
u(2) = a * b
)");
  ExprPreResult R = preFor(P);
  int Item = itemOf(R, "a * b");
  ASSERT_GE(Item, 0);
  EXPECT_EQ(R.Occurrences[Item], 2u);
  // One temporary, one redundant occurrence.
  EXPECT_EQ(insertionsOf(R, Item), 1u);
  unsigned Redundant = 0;
  for (const auto &[Node, I] : R.Redundant)
    Redundant += I == static_cast<unsigned>(Item);
  EXPECT_EQ(Redundant, 1u);
  EXPECT_TRUE(R.verify().ok());
}

TEST(ExprPre, KilledByOperandAssignment) {
  Pipeline P = Pipeline::fromSource(R"(
array u
u(1) = a * b
a = 5
u(2) = a * b
)");
  ExprPreResult R = preFor(P);
  int Item = itemOf(R, "a * b");
  ASSERT_GE(Item, 0);
  // Recomputed after the kill: two temporaries, nothing redundant.
  EXPECT_EQ(insertionsOf(R, Item), 2u);
  EXPECT_TRUE(R.verify().ok());
}

TEST(ExprPre, LoopInvariantHoistedOutOfZeroTripLoop) {
  Pipeline P = Pipeline::fromSource(R"(
array u
do i = 1, n
  u(i) = a * b + i
enddo
)");
  ExprPreResult R = preFor(P);
  int Inv = itemOf(R, "a * b + i");
  ASSERT_GE(Inv, 0);
  // `a * b + i` depends on i: stays inside, one insertion per iteration.
  ASSERT_EQ(insertionsOf(R, Inv), 1u);
  std::string Out = R.annotate(P.Prog);
  SCOPED_TRACE(Out);
  // The temporary for the index-dependent expression is inside the loop.
  EXPECT_GT(Out.find("= a * b + i"), Out.find("do i"));
  EXPECT_TRUE(R.verify().ok());
}

TEST(ExprPre, PureInvariantLeavesTheLoop) {
  Pipeline P = Pipeline::fromSource(R"(
array u
do i = 1, n
  u(i) = a * b
enddo
)");
  ExprPreResult R = preFor(P);
  int Inv = itemOf(R, "a * b");
  ASSERT_GE(Inv, 0);
  ASSERT_EQ(insertionsOf(R, Inv), 1u);
  std::string Out = R.annotate(P.Prog);
  SCOPED_TRACE(Out);
  // Zero-trip hoisting: the temporary precedes the do statement — the
  // placement classical LCM must forgo (paper Section 1).
  size_t Temp = Out.find("= a * b");
  size_t Loop = Out.find("do i");
  ASSERT_NE(Temp, std::string::npos);
  EXPECT_LT(Temp, Loop);
  EXPECT_TRUE(R.verify().ok());
}

TEST(ExprPre, PartialRedundancyAcrossJoin) {
  // Computed on one path, needed afterwards on both: the else path gets
  // the balancing computation (paper Figure 4 semantics).
  Pipeline P = Pipeline::fromSource(R"(
array u
if (t(n)) then
  u(1) = a * b
endif
u(2) = a * b
)");
  ExprPreResult R = preFor(P);
  int Item = itemOf(R, "a * b");
  ASSERT_GE(Item, 0);
  // One computation per path: the then occurrence doubles as the
  // insertion point, the else arm gets the balancing computation, and
  // the final occurrence becomes redundant.
  EXPECT_EQ(insertionsOf(R, Item), 2u);
  unsigned Redundant = 0;
  for (const auto &[Node, I] : R.Redundant)
    Redundant += I == static_cast<unsigned>(Item);
  EXPECT_EQ(Redundant, 1u);
  EXPECT_TRUE(R.verify().ok());
}

TEST(ExprPre, DivisionIsNeverSpeculated) {
  Pipeline P = Pipeline::fromSource(R"(
array u
do i = 1, n
  u(i) = a / b
enddo
)");
  ExprPreResult R = preFor(P);
  // `a / b` may fault; it must not become an item at all (the paper's
  // "introducing a division by zero" caveat).
  EXPECT_EQ(itemOf(R, "a / b"), -1);
}

TEST(ExprPre, IndexedArrayKilledByArrayStore) {
  Pipeline P = Pipeline::fromSource(R"(
array u, v
u(1) = v(k) + 1
v(2) = 9
u(2) = v(k) + 1
)");
  ExprPreResult R = preFor(P);
  int Item = itemOf(R, "v(k) + 1");
  ASSERT_GE(Item, 0);
  // The store to v kills the expression: recomputed.
  EXPECT_EQ(insertionsOf(R, Item), 2u);
  EXPECT_TRUE(R.verify().ok());
}

TEST(ExprPre, NestedLoopInvariantGoesAllTheWayOut) {
  Pipeline P = Pipeline::fromSource(R"(
array u
do i = 1, n
  do j = 1, n
    u(j) = c * d
  enddo
enddo
)");
  ExprPreResult R = preFor(P);
  int Item = itemOf(R, "c * d");
  ASSERT_GE(Item, 0);
  EXPECT_EQ(insertionsOf(R, Item), 1u);
  std::string Out = R.annotate(P.Prog);
  EXPECT_LT(Out.find("= c * d"), Out.find("do i"));
  EXPECT_TRUE(R.verify().ok());
}

TEST(ExprPre, SharedAcrossBranchArms) {
  Pipeline P = Pipeline::fromSource(R"(
array u
if (t(n)) then
  u(1) = p + q
else
  u(2) = p + q
endif
)");
  ExprPreResult R = preFor(P);
  int Item = itemOf(R, "p + q");
  ASSERT_GE(Item, 0);
  // The LAZY solution computes as late as possible: once per arm (one
  // evaluation on any executed path). The EAGER solution of the same run
  // shows the O2-minimal alternative: a single producer above the branch.
  EXPECT_EQ(insertionsOf(R, Item), 2u);
  unsigned EagerProductions = 0;
  for (ConstBitRow BV : R.Run.Result.Eager.ResIn)
    EagerProductions += BV.test(static_cast<unsigned>(Item));
  for (ConstBitRow BV : R.Run.Result.Eager.ResOut)
    EagerProductions += BV.test(static_cast<unsigned>(Item));
  EXPECT_EQ(EagerProductions, 1u);
  EXPECT_TRUE(R.verify().ok());
}
