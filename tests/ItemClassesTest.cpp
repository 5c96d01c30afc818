//===- tests/ItemClassesTest.cpp - Universe compression tests ---------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The compression layer's soundness rests on a chain of small exact
// claims: the partition groups precisely the items with identical init
// columns, the plans tile both universes without overlap, and the three
// bit-copy primitives agree with a naive per-bit model at every
// alignment. Each claim is tested on its own here; the end-to-end
// byte-identity of compressed solves is enforced by PropertyTest and
// the fuzzer's differential oracle on top.
//
//===----------------------------------------------------------------------===//

#include "support/ItemClasses.h"

#include "TestUtil.h"
#include "dataflow/GiveNTake.h"
#include "interval/IntervalFlowGraph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <random>

using namespace gnt;

namespace {

/// Init rows from a column-per-item spec: Spec[Item] is a 3x2-bit code
/// (take node, give node, steal node presence) — items with equal codes
/// must land in one class.
struct InitRows {
  std::vector<BitVector> Take, Give, Steal;
};

InitRows rowsFromColumns(unsigned Nodes, unsigned Universe,
                         const std::vector<std::array<int, 3>> &Spec) {
  InitRows R;
  R.Take.assign(Nodes, BitVector(Universe));
  R.Give.assign(Nodes, BitVector(Universe));
  R.Steal.assign(Nodes, BitVector(Universe));
  for (unsigned Item = 0; Item != Spec.size(); ++Item) {
    if (Spec[Item][0] >= 0)
      R.Take[Spec[Item][0]].set(Item);
    if (Spec[Item][1] >= 0)
      R.Give[Spec[Item][1]].set(Item);
    if (Spec[Item][2] >= 0)
      R.Steal[Spec[Item][2]].set(Item);
  }
  return R;
}

TEST(ItemClasses, PartitionGroupsIdenticalColumnsExactly) {
  // Items 0 and 3 share a column, 1 and 4 share a column, 2 is unique,
  // 5 is never referenced (trivially bottom).
  InitRows R = rowsFromColumns(3, 6,
                               {{0, 1, -1},
                                {1, -1, 2},
                                {0, 0, 0},
                                {0, 1, -1},
                                {1, -1, 2},
                                {-1, -1, -1}});
  ItemClasses C = computeItemClasses(6, R.Take, R.Give, R.Steal);
  EXPECT_FALSE(C.Aborted);
  EXPECT_EQ(C.Universe, 6u);
  EXPECT_EQ(C.NumClasses, 3u);
  EXPECT_EQ(C.elided(), 1u);
  // First-occurrence numbering: item order fixes class ids.
  EXPECT_EQ(C.ClassOf[0], 0u);
  EXPECT_EQ(C.ClassOf[1], 1u);
  EXPECT_EQ(C.ClassOf[2], 2u);
  EXPECT_EQ(C.ClassOf[3], 0u);
  EXPECT_EQ(C.ClassOf[4], 1u);
  EXPECT_EQ(C.ClassOf[5], ItemClasses::Bottom);
  ASSERT_EQ(C.Representative.size(), 3u);
  EXPECT_EQ(C.Representative[0], 0u);
  EXPECT_EQ(C.Representative[1], 1u);
  EXPECT_EQ(C.Representative[2], 2u);
}

TEST(ItemClasses, EmptyAndAllBottomUniverses) {
  ItemClasses Empty = computeItemClasses(0, {}, {}, {});
  EXPECT_EQ(Empty.NumClasses, 0u);
  EXPECT_FALSE(Empty.profitable());

  // A universe no row ever names: everything elides, zero classes.
  std::vector<BitVector> None(2, BitVector(128));
  ItemClasses C = computeItemClasses(128, None, None, None);
  EXPECT_EQ(C.NumClasses, 0u);
  EXPECT_EQ(C.elided(), 128u);
  EXPECT_TRUE(C.profitable());
  for (unsigned Item = 0; Item != 128; ++Item)
    EXPECT_EQ(C.ClassOf[Item], ItemClasses::Bottom);
}

TEST(ItemClasses, PartitionMatchesBruteForceOnRandomRows) {
  // Differential against the definition: two items are in one class iff
  // their (take, give, steal) columns are bit-identical.
  std::mt19937 Rng(7);
  for (unsigned Round = 0; Round != 20; ++Round) {
    unsigned Nodes = 3 + Rng() % 6;
    unsigned Universe = 1 + Rng() % 200;
    InitRows R = rowsFromColumns(Nodes, Universe, {});
    auto Scatter = [&](std::vector<BitVector> &Rows) {
      for (BitVector &Row : Rows)
        for (unsigned D = 0, E = Rng() % (Universe / 2 + 1); D != E; ++D)
          Row.set(Rng() % Universe);
    };
    Scatter(R.Take);
    Scatter(R.Give);
    Scatter(R.Steal);
    ItemClasses C = computeItemClasses(Universe, R.Take, R.Give, R.Steal);
    auto Column = [&](unsigned Item) {
      std::vector<bool> Col;
      for (const auto *Rows : {&R.Take, &R.Give, &R.Steal})
        for (const BitVector &Row : *Rows)
          Col.push_back(Row.test(Item));
      return Col;
    };
    for (unsigned A = 0; A != Universe; ++A) {
      std::vector<bool> ColA = Column(A);
      bool Bottom = std::none_of(ColA.begin(), ColA.end(),
                                 [](bool Set) { return Set; });
      EXPECT_EQ(C.ClassOf[A] == ItemClasses::Bottom, Bottom) << "item " << A;
      for (unsigned B = A + 1; B != Universe; ++B)
        EXPECT_EQ(C.ClassOf[A] == C.ClassOf[B], ColA == Column(B))
            << "items " << A << "," << B << " round " << Round;
    }
  }
}

TEST(ItemClasses, AbortFiresOnlyAboveThreshold) {
  // 64 items, all columns distinct -> 64 classes.
  InitRows R = rowsFromColumns(64, 64, {});
  for (unsigned Item = 0; Item != 64; ++Item)
    R.Take[Item].set(Item);
  // Threshold at or above the true class count: the monotone live count
  // never crosses it, so the partition must complete un-aborted.
  ItemClasses Full = computeItemClasses(64, R.Take, R.Give, R.Steal, 64);
  EXPECT_FALSE(Full.Aborted);
  EXPECT_EQ(Full.NumClasses, 64u);
  // Threshold below it: the refinement stops early; only the summary
  // fields are meaningful, and the gate reports unprofitable.
  ItemClasses Cut = computeItemClasses(64, R.Take, R.Give, R.Steal, 16);
  EXPECT_TRUE(Cut.Aborted);
  EXPECT_GT(Cut.NumClasses, 16u);
  EXPECT_FALSE(Cut.profitable());
  EXPECT_TRUE(Cut.ClassOf.empty());
  EXPECT_TRUE(Cut.Representative.empty());
}

TEST(ItemClasses, ProfitableGateIsQuarterUniverse) {
  ItemClasses C;
  C.Universe = 128;
  C.NumClasses = 32;
  EXPECT_TRUE(C.profitable());
  C.NumClasses = 33;
  EXPECT_FALSE(C.profitable());
  C.Aborted = true;
  C.NumClasses = 1;
  EXPECT_FALSE(C.profitable());
}

TEST(ItemClasses, ExpandPlanCoversBlockDuplicatedUniverse) {
  // Two identical 64-item blocks then 64 elided items: one class per
  // distinct item, one segment per block, nothing for the elided tail.
  InitRows R = rowsFromColumns(8, 192, {});
  for (unsigned Item = 0; Item != 64; ++Item) {
    R.Take[Item % 8].set(Item);
    R.Take[Item % 8].set(Item + 64);
    R.Give[(Item / 8) % 8].set(Item);
    R.Give[(Item / 8) % 8].set(Item + 64);
  }
  ItemClasses C = computeItemClasses(192, R.Take, R.Give, R.Steal);
  ASSERT_FALSE(C.Aborted);
  EXPECT_EQ(C.NumClasses, 64u); // 8x8 distinct (take, give) pairs.
  EXPECT_EQ(C.elided(), 64u);
  std::vector<ExpandSeg> Plan = buildExpandPlan(C);
  ASSERT_EQ(Plan.size(), 2u);
  EXPECT_EQ(Plan[0].DstBit, 0u);
  EXPECT_EQ(Plan[0].Len, 64u);
  EXPECT_EQ(Plan[1].DstBit, 64u);
  EXPECT_EQ(Plan[1].Len, 64u);
  EXPECT_EQ(Plan[0].SrcBit, Plan[1].SrcBit); // Duplicate blocks share classes.

  // The cover plan reads each class exactly once and tiles the
  // compressed universe contiguously.
  std::vector<ExpandSeg> Cover = buildCoverPlan(Plan);
  unsigned Next = 0;
  for (const ExpandSeg &S : Cover) {
    EXPECT_EQ(S.SrcBit, Next);
    Next += S.Len;
  }
  EXPECT_EQ(Next, C.NumClasses);
}

TEST(ItemClasses, CompressExpandRoundTripsInitRows) {
  // Compressing an init row through the cover plan and expanding it
  // back must reproduce the row exactly: items in one class carry equal
  // bits in every init row by construction.
  std::mt19937 Rng(11);
  for (unsigned Round = 0; Round != 10; ++Round) {
    unsigned Universe = 65 + Rng() % 300;
    InitRows R = rowsFromColumns(5, Universe, {});
    for (unsigned Item = 0; Item != Universe; ++Item) {
      if (Rng() % 4 == 0)
        continue; // Leave some items bottom.
      R.Take[Rng() % 3].set(Item);
      if (Rng() % 2)
        R.Give[Rng() % 5].set(Item);
    }
    ItemClasses C = computeItemClasses(Universe, R.Take, R.Give, R.Steal);
    ASSERT_FALSE(C.Aborted);
    std::vector<ExpandSeg> Plan = buildExpandPlan(C);
    std::vector<ExpandSeg> Cover = buildCoverPlan(Plan);
    unsigned DstWords = (Universe + BitVector::WordBits - 1) /
                        BitVector::WordBits;
    unsigned SrcWords =
        (C.NumClasses + BitVector::WordBits - 1) / BitVector::WordBits;
    for (const auto *Rows : {&R.Take, &R.Give, &R.Steal})
      for (const BitVector &Row : *Rows) {
        BitVector Narrow(std::max(C.NumClasses, 1u));
        for (const ExpandSeg &S : Cover)
          orCopyBits(Narrow.wordsData(), S.SrcBit, Row.words(), S.DstBit,
                     S.Len);
        std::vector<BitVector::Word> Out(DstWords, ~BitVector::Word(0));
        expandRow(Out.data(), DstWords, Narrow.words(),
                  std::max(SrcWords, 1u), Plan);
        EXPECT_EQ(BitVector::fromWords(Out.data(), Universe), Row)
            << "round " << Round;
      }
  }
}

//===----------------------------------------------------------------------===//
// Bit-copy primitives vs a per-bit model
//===----------------------------------------------------------------------===//

using Word = BitVector::Word;

std::vector<Word> randomWords(std::mt19937 &Rng, unsigned N) {
  std::vector<Word> W(N);
  for (Word &V : W)
    V = (Word(Rng()) << 32) | Rng();
  return W;
}

bool bitOf(const std::vector<Word> &W, unsigned Bit) {
  return (W[Bit / 64] >> (Bit % 64)) & 1;
}

TEST(ItemClasses, OrCopyBitsMatchesPerBitModel) {
  std::mt19937 Rng(3);
  for (unsigned Round = 0; Round != 200; ++Round) {
    unsigned SrcBit = Rng() % 150;
    unsigned DstBit = Rng() % 150;
    unsigned Len = Rng() % 150;
    std::vector<Word> Src = randomWords(Rng, 6);
    std::vector<Word> Dst = randomWords(Rng, 6);
    std::vector<Word> Want = Dst;
    for (unsigned K = 0; K != Len; ++K)
      if (bitOf(Src, SrcBit + K))
        Want[(DstBit + K) / 64] |= Word(1) << ((DstBit + K) % 64);
    orCopyBits(Dst.data(), DstBit, Src.data(), SrcBit, Len);
    EXPECT_EQ(Dst, Want) << "round " << Round << " src@" << SrcBit << " dst@"
                         << DstBit << " len " << Len;
  }
}

TEST(ItemClasses, CopyAndZeroBitsHonorTheTilingContract) {
  // copyBits/zeroBits promise: bits below DstBit survive, the target
  // range is exact, bits above it in the last touched word are
  // unspecified. Model that by comparing only bits < DstBit + Len and
  // the untouched whole words after.
  std::mt19937 Rng(5);
  for (unsigned Round = 0; Round != 200; ++Round) {
    unsigned SrcBit = Rng() % 150;
    unsigned DstBit = Rng() % 150;
    unsigned Len = 1 + Rng() % 150;
    std::vector<Word> Src = randomWords(Rng, 6);
    std::vector<Word> Dst = randomWords(Rng, 8);
    std::vector<Word> Before = Dst;
    copyBits(Dst.data(), DstBit, Src.data(), SrcBit, 6, Len);
    for (unsigned Bit = 0; Bit != DstBit; ++Bit)
      EXPECT_EQ(bitOf(Dst, Bit), bitOf(Before, Bit)) << Round << " bit " << Bit;
    for (unsigned K = 0; K != Len; ++K)
      EXPECT_EQ(bitOf(Dst, DstBit + K), bitOf(Src, SrcBit + K))
          << Round << " len-bit " << K;
    for (unsigned W = (DstBit + Len + 63) / 64; W != 8; ++W)
      EXPECT_EQ(Dst[W], Before[W]) << Round << " word " << W;

    Dst = randomWords(Rng, 8);
    Before = Dst;
    zeroBits(Dst.data(), DstBit, Len);
    for (unsigned Bit = 0; Bit != DstBit; ++Bit)
      EXPECT_EQ(bitOf(Dst, Bit), bitOf(Before, Bit)) << Round << " bit " << Bit;
    for (unsigned K = 0; K != Len; ++K)
      EXPECT_FALSE(bitOf(Dst, DstBit + K)) << Round << " len-bit " << K;
    for (unsigned W = (DstBit + Len + 63) / 64; W != 8; ++W)
      EXPECT_EQ(Dst[W], Before[W]) << Round << " word " << W;
  }
}

//===----------------------------------------------------------------------===//
// Compiled whole-word expansion program
//===----------------------------------------------------------------------===//

TEST(ItemClasses, WordPlanCompilesOnlyAlignedSegments) {
  // Aligned plan: ops must tile [0, DstWords) exactly once, in order.
  std::vector<ExpandSeg> Aligned = {{64, 0, 128}, {256, 0, 128}};
  std::vector<ExpandWordOp> Ops = compileExpandWordPlan(Aligned, 8);
  ASSERT_FALSE(Ops.empty());
  unsigned Cursor = 0;
  for (const ExpandWordOp &Op : Ops) {
    EXPECT_EQ(Op.DstWord, Cursor);
    Cursor += Op.NumWords;
  }
  EXPECT_EQ(Cursor, 8u);

  // Any unaligned boundary disables compilation (bit-granular fallback).
  for (std::vector<ExpandSeg> Bad :
       {std::vector<ExpandSeg>{{1, 0, 64}}, std::vector<ExpandSeg>{{0, 1, 64}},
        std::vector<ExpandSeg>{{0, 0, 63}}})
    EXPECT_TRUE(compileExpandWordPlan(Bad, 4).empty());
}

TEST(ItemClasses, ExpandRowWordsMatchesExpandRow) {
  std::mt19937 Rng(13);
  // Opaque to the optimizer: keeps GCC from "proving" the (unreachable
  // at these sizes) long-copy memcpy path out of bounds and warning.
  volatile unsigned EightWords = 8;
  const unsigned DW = EightWords;
  for (unsigned Round = 0; Round != 50; ++Round) {
    // Random word-aligned plan over a DW-word destination.
    std::vector<ExpandSeg> Plan;
    unsigned Dst = 0, Src = 0;
    while (Dst < DW) {
      if (Rng() % 3 == 0) {
        ++Dst; // Gap (elided words).
        continue;
      }
      unsigned Len = 1 + Rng() % (DW - Dst);
      unsigned From = Src ? Rng() % Src + 1 : 0;
      Plan.push_back({Dst * 64, (Src - From) * 64, Len * 64});
      Dst += Len;
      Src = std::max(Src, Src - From + Len);
    }
    std::vector<ExpandWordOp> Ops = compileExpandWordPlan(Plan, DW);
    ASSERT_FALSE(Ops.empty()) << "round " << Round;
    std::vector<Word> SrcRow = randomWords(Rng, std::max(Src, 1u));
    if (Round % 5 == 0)
      std::fill(SrcRow.begin(), SrcRow.end(), 0); // All-bottom fast path.
    std::vector<Word> A(DW, ~Word(0)), B(DW, Word(0xdeadbeef));
    expandRow(A.data(), DW, SrcRow.data(), std::max(Src, 1u), Plan);
    expandRowWords(B.data(), DW, SrcRow.data(), std::max(Src, 1u), Ops);
    EXPECT_EQ(A, B) << "round " << Round;
  }
}

//===----------------------------------------------------------------------===//
// Solver integration: the compressed entry point end to end
//===----------------------------------------------------------------------===//

/// Straight-line graph, enough to drive the solver.
IntervalFlowGraph lineGraph() {
  auto P = test::Pipeline::fromSource("continue\ncontinue\ncontinue\n");
  EXPECT_TRUE(P.Ifg.has_value());
  return std::move(*P.Ifg);
}

TEST(ItemClasses, CompressedSolveAppliesAndMatchesPlain) {
  IntervalFlowGraph Ifg = lineGraph();
  unsigned N = Ifg.size();
  ASSERT_GE(N, 5u);
  // 1024 items: the first 512 are a 64-item block of pairwise-distinct
  // columns duplicated 8 times (so classes stay consecutive and the
  // plan is one long segment per block); the last 512 never appear.
  GntProblem P(N, 1024);
  for (unsigned Item = 0; Item != 512; ++Item) {
    unsigned B = Item % 64; // Injective code for B < 125 over 5 nodes.
    P.TakeInit[B % 5].set(Item);
    P.GiveInit[(B / 5) % 5].set(Item);
    P.StealInit[(B / 25) % 5].set(Item);
  }
  GntResult Plain = solveGiveNTake(Ifg, P);
  GntResult Comp = solveGiveNTakeCompressed(Ifg, P);
  EXPECT_TRUE(Comp.Compression.Applied);
  EXPECT_EQ(Comp.Compression.Universe, 1024u);
  EXPECT_EQ(Comp.Compression.Classes, 64u);
  EXPECT_EQ(Comp.Compression.Elided, 512u);
  forEachGntField(Plain, [&](const char *Name,
                             const BitRows &Want) {
    forEachGntField(Comp, [&](const char *OtherName,
                              const BitRows &Got) {
      if (std::string(Name) != OtherName)
        return;
      ASSERT_EQ(Want.size(), Got.size()) << Name;
      for (unsigned Node = 0; Node != Want.size(); ++Node)
        EXPECT_TRUE(Want[Node] == Got[Node]) << Name << " node " << Node;
    });
  });
}

TEST(ItemClasses, IncompressibleSolveFallsBackWithStats) {
  IntervalFlowGraph Ifg = lineGraph();
  unsigned N = Ifg.size();
  GntProblem P(N, 256);
  // All columns distinct: the gate must reject and fall back, still
  // reporting the partition numbers with Applied == false.
  for (unsigned Item = 0; Item != 256; ++Item) {
    P.TakeInit[Item % N].set(Item);
    P.GiveInit[(Item / N) % N].set(Item);
  }
  GntResult Plain = solveGiveNTake(Ifg, P);
  GntResult Comp = solveGiveNTakeCompressed(Ifg, P);
  EXPECT_FALSE(Comp.Compression.Applied);
  EXPECT_EQ(Comp.Compression.Universe, 256u);
  forEachGntField(Plain, [&](const char *Name,
                             const BitRows &Want) {
    forEachGntField(Comp, [&](const char *OtherName,
                              const BitRows &Got) {
      if (std::string(Name) != OtherName)
        return;
      for (unsigned Node = 0; Node != Want.size(); ++Node)
        EXPECT_TRUE(Want[Node] == Got[Node]) << Name << " node " << Node;
    });
  });
}

TEST(ItemClasses, AllBottomUniverseSolvesWithoutWork) {
  IntervalFlowGraph Ifg = lineGraph();
  GntProblem P(Ifg.size(), 1024); // No init bit anywhere.
  GntResult R = solveGiveNTakeCompressed(Ifg, P);
  EXPECT_TRUE(R.Compression.Applied);
  EXPECT_EQ(R.Compression.Classes, 0u);
  EXPECT_EQ(R.Compression.Elided, 1024u);
  forEachGntField(R, [&](const char *Name, const BitRows &V) {
    for (unsigned Node = 0; Node != V.size(); ++Node)
      EXPECT_TRUE(V[Node].none()) << Name << " node " << Node;
  });
}

} // namespace
