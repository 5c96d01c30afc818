//===- tests/ParserTest.cpp - Lexer/parser/printer tests --------------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"
#include "ir/AstPrinter.h"

#include <gtest/gtest.h>

#include <climits>

using namespace gnt;

namespace {

/// The paper's Figure 11 program (with concrete statements where the
/// paper elides them).
const char *Fig11 = R"(
distribute x, y
array a, b, w, z
do i = 1, n
  y(a(i)) = 0
  if (test(i)) goto 77
enddo
do j = 1, n
  w(j) = 0
enddo
77 do k = 1, n
  z(k) = x(k + 10) + y(b(k))
enddo
)";

} // namespace

TEST(Parser, Fig11Parses) {
  ParseResult R = parseProgram(Fig11);
  ASSERT_TRUE(R.success()) << (R.Errors.empty() ? "" : R.Errors.front());
  ASSERT_EQ(R.Prog.getBody().size(), 3u);
  EXPECT_TRUE(R.Prog.isDistributed("x"));
  EXPECT_TRUE(R.Prog.isDistributed("y"));
  EXPECT_FALSE(R.Prog.isDistributed("a"));
  EXPECT_FALSE(R.Prog.isDistributed("test"));

  const auto *Loop1 = dyn_cast<DoStmt>(R.Prog.getBody()[0].get());
  ASSERT_NE(Loop1, nullptr);
  EXPECT_EQ(Loop1->getIndexVar(), "i");
  ASSERT_EQ(Loop1->getBody().size(), 2u);

  const auto *Loop3 = dyn_cast<DoStmt>(R.Prog.getBody()[2].get());
  ASSERT_NE(Loop3, nullptr);
  EXPECT_EQ(Loop3->getLabel(), 77u);
}

TEST(Parser, IndirectReferencesResolveToArrayRefs) {
  ParseResult R = parseProgram(Fig11);
  ASSERT_TRUE(R.success());

  // y(a(i)) on an assignment LHS: both y and a must be ArrayRefExpr.
  const auto *Loop1 = cast<DoStmt>(R.Prog.getBody()[0].get());
  const auto *A = cast<AssignStmt>(Loop1->getBody()[0].get());
  const auto *LHS = dyn_cast<ArrayRefExpr>(A->getLHS());
  ASSERT_NE(LHS, nullptr);
  EXPECT_EQ(LHS->getArray(), "y");
  const auto *Sub = dyn_cast<ArrayRefExpr>(LHS->getSubscript());
  ASSERT_NE(Sub, nullptr);
  EXPECT_EQ(Sub->getArray(), "a");

  // test(i) stays a CallExpr (undeclared name).
  const auto *If = cast<IfStmt>(Loop1->getBody()[1].get());
  EXPECT_EQ(If->getCond()->getKind(), Expr::Kind::Call);

  // x(k+10) and y(b(k)) in the k-loop RHS are array references.
  const auto *Loop3 = cast<DoStmt>(R.Prog.getBody()[2].get());
  const auto *KAssign = cast<AssignStmt>(Loop3->getBody()[0].get());
  const auto *RHS = dyn_cast<BinaryExpr>(KAssign->getRHS());
  ASSERT_NE(RHS, nullptr);
  EXPECT_EQ(RHS->getLHS()->getKind(), Expr::Kind::ArrayRef);
  EXPECT_EQ(RHS->getRHS()->getKind(), Expr::Kind::ArrayRef);
}

TEST(Parser, PrintRoundTrip) {
  ParseResult R = parseProgram(Fig11);
  ASSERT_TRUE(R.success());
  std::string Printed = AstPrinter().print(R.Prog);
  // Re-parsing the printed form must give the same printed form again.
  ParseResult R2 = parseProgram(Printed);
  ASSERT_TRUE(R2.success()) << (R2.Errors.empty() ? "" : R2.Errors.front());
  EXPECT_EQ(Printed, AstPrinter().print(R2.Prog));
  // Structure survived.
  EXPECT_NE(Printed.find("if (test(i)) goto 77"), std::string::npos);
  EXPECT_NE(Printed.find("77 do k = 1, n"), std::string::npos);
  EXPECT_NE(Printed.find("x(k + 10) + y(b(k))"), std::string::npos);
}

TEST(Parser, IfThenElse) {
  ParseResult R = parseProgram(R"(
array u
if (n > 0) then
  u(1) = 1
else
  u(2) = 2
endif
)");
  ASSERT_TRUE(R.success());
  const auto *If = dyn_cast<IfStmt>(R.Prog.getBody()[0].get());
  ASSERT_NE(If, nullptr);
  EXPECT_TRUE(If->hasElse());
  EXPECT_EQ(If->getThen().size(), 1u);
  EXPECT_EQ(If->getElse().size(), 1u);
  const auto *Cond = dyn_cast<BinaryExpr>(If->getCond());
  ASSERT_NE(Cond, nullptr);
  EXPECT_EQ(Cond->getOp(), BinaryExpr::Op::Gt);
}

TEST(Parser, OperatorsAndPrecedence) {
  ParseResult R = parseProgram("v = 1 + 2 * 3 - (4 + 5) / 3\n");
  ASSERT_TRUE(R.success());
  const auto *A = cast<AssignStmt>(R.Prog.getBody()[0].get());
  EXPECT_EQ(AstPrinter::printExpr(A->getRHS()), "1 + 2 * 3 - (4 + 5) / 3");
}

TEST(Parser, NotEqualOperator) {
  ParseResult R = parseProgram("if (i /= j) then\nv = 1\nendif\n");
  ASSERT_TRUE(R.success());
  const auto *If = cast<IfStmt>(R.Prog.getBody()[0].get());
  EXPECT_EQ(cast<BinaryExpr>(If->getCond())->getOp(), BinaryExpr::Op::Ne);
}

TEST(Parser, CommentsAndBlankLines) {
  ParseResult R = parseProgram(R"(
! leading comment
v = 1   ! trailing comment

! comment between statements

w = 2
)");
  ASSERT_TRUE(R.success());
  EXPECT_EQ(R.Prog.getBody().size(), 2u);
}

TEST(Parser, ErrorRecovery) {
  ParseResult R = parseProgram(R"(
v =
w = 2
)");
  EXPECT_FALSE(R.success());
  ASSERT_FALSE(R.Errors.empty());
  EXPECT_NE(R.Errors.front().find("line 2"), std::string::npos);
  // The parser recovered and still saw the next statement.
  EXPECT_EQ(R.Prog.getBody().size(), 1u);
}

TEST(Parser, MissingEnddo) {
  ParseResult R = parseProgram("do i = 1, n\nv = 1\n");
  EXPECT_FALSE(R.success());
}

TEST(Parser, UnexpectedCharacter) {
  ParseResult R = parseProgram("v = 1 @ 2\n");
  EXPECT_FALSE(R.success());
}

TEST(Parser, LargestIntegerLiteralIsAccepted) {
  ParseResult R = parseProgram("v = 9223372036854775807\n");
  ASSERT_TRUE(R.success()) << R.Errors.front();
  const auto *A = cast<AssignStmt>(R.Prog.getBody()[0].get());
  EXPECT_EQ(cast<IntLitExpr>(A->getRHS())->getValue(), LLONG_MAX);
}

TEST(Parser, OverflowingIntegerLiteralIsRejected) {
  for (const char *Literal : {"9223372036854775808", "99999999999999999999"}) {
    ParseResult R = parseProgram("array w, x\nw(1) = 0\nw(1) = x(" +
                                 std::string(Literal) + ")\n");
    EXPECT_FALSE(R.success()) << Literal;
    ASSERT_EQ(R.Errors.size(), 1u) << Literal;
    EXPECT_EQ(R.Errors.front(), "line 3, column 10: integer literal '" +
                                    std::string(Literal) +
                                    "' exceeds the largest value "
                                    "9223372036854775807");
  }
}

TEST(Parser, LhsSubscriptDeclaresArray) {
  // q is undeclared but subscripted on an LHS, so q(i) elsewhere is an
  // array reference, not a call.
  ParseResult R = parseProgram("do i = 1, n\nq(i) = 1\nv = q(i)\nenddo\n");
  ASSERT_TRUE(R.success());
  const auto *Loop = cast<DoStmt>(R.Prog.getBody()[0].get());
  const auto *Use = cast<AssignStmt>(Loop->getBody()[1].get());
  EXPECT_EQ(Use->getRHS()->getKind(), Expr::Kind::ArrayRef);
}
