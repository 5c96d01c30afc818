//===- tests/AffineTest.cpp - Affine expression and section tests -----------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Affine.h"
#include "ir/AstBuilder.h"
#include "support/Support.h"

#include <gtest/gtest.h>

#include <climits>
#include <optional>
#include <sstream>
#include <vector>

using namespace gnt;
using namespace gnt::build;

TEST(Affine, Constants) {
  AffineExpr C = AffineExpr::constant(42);
  EXPECT_TRUE(C.isAffine());
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.getConstant(), 42);
  EXPECT_EQ(C.toString(), "42");
}

TEST(Affine, SymbolsAndArithmetic) {
  AffineExpr I = AffineExpr::symbol("i");
  AffineExpr N = AffineExpr::symbol("n");
  AffineExpr E = I + N + AffineExpr::constant(5);
  EXPECT_EQ(E.coeffOf("i"), 1);
  EXPECT_EQ(E.coeffOf("n"), 1);
  EXPECT_EQ(E.getConstTerm(), 5);
  EXPECT_EQ(E.toString(), "i+n+5");

  AffineExpr D = E - I;
  EXPECT_EQ(D.coeffOf("i"), 0);
  EXPECT_FALSE(D.usesSymbol("i"));
  EXPECT_EQ(D.toString(), "n+5");

  AffineExpr M = I * AffineExpr::constant(3);
  EXPECT_EQ(M.coeffOf("i"), 3);
  EXPECT_EQ(M.toString(), "3*i");

  AffineExpr Neg = M.negate();
  EXPECT_EQ(Neg.coeffOf("i"), -3);
  EXPECT_EQ(Neg.toString(), "-3*i");
}

TEST(Affine, NonAffineProducts) {
  AffineExpr I = AffineExpr::symbol("i");
  AffineExpr N = AffineExpr::symbol("n");
  EXPECT_FALSE((I * N).isAffine());
  EXPECT_FALSE((AffineExpr() + I).isAffine());
}

TEST(Affine, FromExpr) {
  // k + 10
  ExprPtr E = add(var("k"), lit(10));
  AffineExpr A = AffineExpr::fromExpr(E.get());
  EXPECT_TRUE(A.isAffine());
  EXPECT_EQ(A.coeffOf("k"), 1);
  EXPECT_EQ(A.getConstTerm(), 10);

  // 2*i - 1
  ExprPtr E2 = sub(bin(BinaryExpr::Op::Mul, lit(2), var("i")), lit(1));
  AffineExpr A2 = AffineExpr::fromExpr(E2.get());
  EXPECT_EQ(A2.coeffOf("i"), 2);
  EXPECT_EQ(A2.getConstTerm(), -1);

  // Indirect subscripts are not affine.
  ExprPtr E3 = aref("a", var("k"));
  EXPECT_FALSE(AffineExpr::fromExpr(E3.get()).isAffine());

  // Calls are not affine.
  std::vector<ExprPtr> Args;
  Args.push_back(var("i"));
  ExprPtr E4 = call("test", std::move(Args));
  EXPECT_FALSE(AffineExpr::fromExpr(E4.get()).isAffine());
}

TEST(Affine, Substitute) {
  // i + 10 with i := [lo = 1] gives 11.
  AffineExpr E = AffineExpr::symbol("i") + AffineExpr::constant(10);
  AffineExpr S = E.substitute("i", AffineExpr::constant(1));
  EXPECT_TRUE(S.isConstant());
  EXPECT_EQ(S.getConstant(), 11);

  // 2*i + n with i := n + 1 gives 3n + 2.
  AffineExpr E2 = AffineExpr::symbol("i") * AffineExpr::constant(2) +
                  AffineExpr::symbol("n");
  AffineExpr S2 =
      E2.substitute("i", AffineExpr::symbol("n") + AffineExpr::constant(1));
  EXPECT_EQ(S2.coeffOf("n"), 3);
  EXPECT_EQ(S2.getConstTerm(), 2);
}

TEST(Affine, DifferenceFrom) {
  AffineExpr N5 = AffineExpr::symbol("n") + AffineExpr::constant(5);
  AffineExpr N2 = AffineExpr::symbol("n") + AffineExpr::constant(2);
  auto D = N5.differenceFrom(N2);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(*D, 3);

  AffineExpr M = AffineExpr::symbol("m");
  EXPECT_FALSE(N5.differenceFrom(M).has_value());
}

namespace {

/// A grid of affine values: constants, single and multiple symbols,
/// scaled and substituted terms, and the non-affine value.
std::vector<AffineExpr> differenceGrid() {
  AffineExpr N = AffineExpr::symbol("n");
  AffineExpr M = AffineExpr::symbol("m");
  AffineExpr I = AffineExpr::symbol("i");
  auto C = [](long long V) { return AffineExpr::constant(V); };
  std::vector<AffineExpr> Grid;
  for (long long V : {-7LL, -1LL, 0LL, 1LL, 3LL, 1000000LL}) {
    Grid.push_back(C(V));
    Grid.push_back(N + C(V));
    Grid.push_back(N * C(2) + C(V));
    Grid.push_back(N + M + C(V));
    Grid.push_back(M - N + C(V));
  }
  Grid.push_back((N + C(1)) - N); // Cancels to the constant 1.
  Grid.push_back(N - N);
  Grid.push_back(N.negate());
  Grid.push_back((I + C(10)).substitute("i", N + C(1)));
  Grid.push_back((I * C(2) + N).substitute("i", N.negate()));
  Grid.push_back((I + N).substitute("i", C(4)));
  Grid.push_back(I * C(0));
  Grid.push_back(AffineExpr());
  Grid.push_back(I * N);
  return Grid;
}

} // namespace

TEST(Affine, DifferenceFromMatchesSubtraction) {
  std::vector<AffineExpr> Grid = differenceGrid();
  for (const AffineExpr &A : Grid)
    for (const AffineExpr &B : Grid) {
      AffineExpr D = A - B;
      std::optional<long long> Want =
          D.isConstant() ? std::optional<long long>(D.getConstant())
                         : std::nullopt;
      EXPECT_EQ(A.differenceFrom(B), Want)
          << A.toString() << " - " << B.toString();
    }
}

TEST(Affine, TermsNeverHoldZeroCoefficient) {
  auto expectNoZero = [](const AffineExpr &E) {
    for (const auto &[Sym, C] : E.getTerms())
      EXPECT_NE(C, 0) << Sym << " in " << E.toString();
  };
  std::vector<AffineExpr> Grid = differenceGrid();
  AffineExpr N = AffineExpr::symbol("n");
  for (const AffineExpr &A : Grid) {
    expectNoZero(A);
    expectNoZero(A.negate());
    expectNoZero(A.substitute("n", N.negate()));
    expectNoZero(A.substitute("m", N + AffineExpr::constant(2)));
    for (long long K : {-2LL, 0LL, 1LL, 3LL})
      expectNoZero(A * AffineExpr::constant(K));
    for (const AffineExpr &B : Grid) {
      expectNoZero(A + B);
      expectNoZero(A - B);
      expectNoZero(A * B);
    }
  }
}

namespace {

/// The ostream rendering toString() and itostr() must reproduce byte for
/// byte: the printer's output, the item keys and the result payload all
/// depend on it.
std::string streamItostr(long long V) {
  std::ostringstream OS;
  OS << V;
  return OS.str();
}

std::string streamToString(const AffineExpr &E) {
  if (!E.isAffine())
    return "<nonaffine>";
  std::ostringstream OS;
  bool First = true;
  for (const auto &[Sym, C] : E.getTerms()) {
    if (C == 0)
      continue;
    if (First) {
      if (C == -1)
        OS << '-';
      else if (C != 1)
        OS << C << '*';
    } else {
      OS << (C > 0 ? "+" : "-");
      if (C != 1 && C != -1)
        OS << (C > 0 ? C : -C) << '*';
    }
    OS << Sym;
    First = false;
  }
  if (First)
    return streamItostr(E.getConstant());
  if (E.getConstant() > 0)
    OS << '+' << E.getConstant();
  else if (E.getConstant() < 0)
    OS << E.getConstant();
  return OS.str();
}

} // namespace

TEST(Affine, ToStringMatchesStreamReference) {
  for (long long V : {0LL, 1LL, -1LL, 7LL, -7LL, 10LL, -123456789LL,
                      LLONG_MAX, -LLONG_MAX, LLONG_MIN})
    EXPECT_EQ(itostr(V), streamItostr(V)) << V;

  AffineExpr I = AffineExpr::symbol("i");
  AffineExpr J = AffineExpr::symbol("j");
  AffineExpr N = AffineExpr::symbol("n");
  auto K = [](long long V) { return AffineExpr::constant(V); };
  std::vector<AffineExpr> Cases = {
      AffineExpr(),           // Non-affine.
      K(0), K(5), K(-5), K(LLONG_MAX), K(-LLONG_MAX), K(LLONG_MIN),
      I - I,                  // Cancelled term: constant-only.
      I - I + K(3),
      I + J * K(LLONG_MAX), I + J * K(-LLONG_MAX),
  };
  for (long long C : {1LL, -1LL, 2LL, -2LL, 17LL, -17LL, LLONG_MAX,
                      -LLONG_MAX}) {
    AffineExpr Lead = I * K(C);
    for (long long Const : {0LL, 1LL, -1LL, 10LL, -10LL, LLONG_MAX,
                            -LLONG_MAX, LLONG_MIN}) {
      Cases.push_back(Lead + K(Const));
      for (long long D : {1LL, -1LL, 3LL, -3LL})
        Cases.push_back(Lead + J * K(D) + N * K(-D) + K(Const));
    }
  }
  for (const AffineExpr &E : Cases)
    EXPECT_EQ(E.toString(), streamToString(E)) << streamToString(E);
  // Spot checks that pin the expected forms independently of the reference.
  EXPECT_EQ((I * K(-1) + J * K(2) + K(-4)).toString(), "-i+2*j-4");
  EXPECT_EQ((I * K(3) - N + K(1)).toString(), "3*i-n+1");
  EXPECT_EQ((I - I + K(-6)).toString(), "-6");
  EXPECT_EQ(itostr(LLONG_MIN), "-9223372036854775808");
}

TEST(Section, Printing) {
  AffineExpr N = AffineExpr::symbol("n");
  Section S(AffineExpr::constant(1), N);
  EXPECT_EQ(S.toString(), "(1:n)");
  Section El = Section::element(AffineExpr::constant(7));
  EXPECT_EQ(El.toString(), "(7)");
  Section Str(AffineExpr::constant(1), N, 2);
  EXPECT_EQ(Str.toString(), "(1:n:2)");
  EXPECT_EQ(Section::unknown().toString(), "(?)");
}

TEST(Section, EmptyAndOverlap) {
  AffineExpr N = AffineExpr::symbol("n");
  Section Empty(AffineExpr::constant(5), AffineExpr::constant(1));
  EXPECT_TRUE(Empty.isProvablyEmpty());

  // (1:n) and (n+1:2n) are provably disjoint: lo2 - hi1 = 1 > 0.
  Section A(AffineExpr::constant(1), N);
  Section B(N + AffineExpr::constant(1), N + N);
  EXPECT_FALSE(A.mayOverlap(B));
  EXPECT_FALSE(B.mayOverlap(A));

  // (1:n) and (6:n+5) may overlap (they do for n >= 6).
  Section C(AffineExpr::constant(6), N + AffineExpr::constant(5));
  EXPECT_TRUE(A.mayOverlap(C));

  // (1:n) vs (m:m) is unknown-relative: must assume overlap.
  Section D = Section::element(AffineExpr::symbol("m"));
  EXPECT_TRUE(A.mayOverlap(D));

  // Unknown sections overlap everything.
  EXPECT_TRUE(Section::unknown().mayOverlap(A));
  EXPECT_TRUE(A.mayOverlap(Section::unknown()));

  // Interleaved strides never touch: (1:n:2) vs (2:n:2).
  Section Odd(AffineExpr::constant(1), N, 2);
  Section Even(AffineExpr::constant(2), N, 2);
  EXPECT_FALSE(Odd.mayOverlap(Even));
  EXPECT_TRUE(Odd.mayOverlap(Odd));

  // Empty sections overlap nothing.
  EXPECT_FALSE(Empty.mayOverlap(A));
}
