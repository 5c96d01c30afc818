//===- tests/DataflowMatrixTest.cpp - Flat bit-set arena tests --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/DataflowMatrix.h"

#include "TestUtil.h"
#include "dataflow/GiveNTake.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>

using namespace gnt;

TEST(DataflowMatrix, EmptyAndShape) {
  DataflowMatrix Empty;
  EXPECT_EQ(Empty.rows(), 0u);
  EXPECT_EQ(Empty.bits(), 0u);
  EXPECT_EQ(Empty.wordsPerRow(), 0u);

  DataflowMatrix M(5, 130);
  EXPECT_EQ(M.rows(), 5u);
  EXPECT_EQ(M.bits(), 130u);
  EXPECT_EQ(M.wordsPerRow(), 3u);
  for (unsigned R = 0; R != 5; ++R)
    EXPECT_TRUE(M.rowNone(R)) << "row " << R;
}

TEST(DataflowMatrix, AssignExtractRoundTrip) {
  for (unsigned Bits : {1u, 63u, 64u, 65u, 200u}) {
    DataflowMatrix M(3, Bits);
    BitVector V(Bits);
    for (unsigned I = 0; I < Bits; I += 5)
      V.set(I);
    M.assignRow(1, V);
    EXPECT_EQ(M.extractRow(1), V) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(0)) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(2)) << "bits " << Bits;
    EXPECT_FALSE(M.rowNone(1)) << "bits " << Bits;
  }
}

TEST(DataflowMatrix, SetRowRespectsTailMask) {
  for (unsigned Bits : {1u, 63u, 64u, 65u, 130u}) {
    DataflowMatrix M(2, Bits);
    M.setRow(0);
    BitVector Row = M.extractRow(0);
    EXPECT_EQ(Row.count(), Bits) << "bits " << Bits;
    // The raw tail word must not carry bits past Bits: extractRow
    // masking would hide them, so check the words directly.
    const DataflowMatrix::Word *W = M.row(0);
    EXPECT_EQ(W[M.wordsPerRow() - 1] & ~M.tailMask(), 0u) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(1)) << "bits " << Bits;
  }
}

TEST(DataflowMatrix, TailMaskValues) {
  EXPECT_EQ(DataflowMatrix(1, 64).tailMask(), ~DataflowMatrix::Word(0));
  EXPECT_EQ(DataflowMatrix(1, 1).tailMask(), DataflowMatrix::Word(1));
  EXPECT_EQ(DataflowMatrix(1, 65).tailMask(), DataflowMatrix::Word(1));
  EXPECT_EQ(DataflowMatrix(1, 63).tailMask(),
            ~DataflowMatrix::Word(0) >> 1);
}

TEST(DataflowMatrix, ClearZeroesEverything) {
  DataflowMatrix M(4, 70);
  for (unsigned R = 0; R != 4; ++R)
    M.setRow(R);
  M.clear();
  for (unsigned R = 0; R != 4; ++R)
    EXPECT_TRUE(M.rowNone(R)) << "row " << R;
}

TEST(DataflowMatrix, UninitArenaIsUsableOnceEveryRowIsWritten) {
  // The Uninit tag's contract: rows hold garbage until assigned, and a
  // writer that assigns (or zeroes) every row gets a fully defined
  // matrix with the tail-word invariant intact. This is the pattern of
  // both the solver export and the compressed-expansion path.
  for (unsigned Bits : {1u, 63u, 64u, 65u, 130u, 200u}) {
    DataflowMatrix M(6, Bits, DataflowMatrix::Uninit);
    BitVector Odd(Bits);
    for (unsigned I = 1; I < Bits; I += 2)
      Odd.set(I);
    for (unsigned R = 0; R != 6; ++R) {
      if (R % 2)
        M.assignRow(R, Odd);
      else
        M.setRow(R);
    }
    for (unsigned R = 0; R != 6; ++R) {
      BitVector Row = M.extractRow(R);
      EXPECT_EQ(Row.count(), R % 2 ? Odd.count() : Bits)
          << "bits " << Bits << " row " << R;
      const DataflowMatrix::Word *W = M.row(R);
      EXPECT_EQ(W[M.wordsPerRow() - 1] & ~M.tailMask(), 0u)
          << "bits " << Bits << " row " << R;
    }
  }
}

TEST(DataflowMatrix, LazyZeroedReadsAsZeroAndAcceptsWrites) {
  // The lazily zeroed arena must be indistinguishable from an eagerly
  // cleared one: all-zero rows on first read (at widths exercising the
  // tail word both full and partial), and ordinary writes afterwards.
  for (unsigned Bits : {1u, 63u, 64u, 65u, 130u, 4096u}) {
    DataflowMatrix M(4, Bits, DataflowMatrix::LazyZeroed);
    for (unsigned R = 0; R != 4; ++R)
      EXPECT_TRUE(M.rowNone(R)) << "bits " << Bits << " row " << R;
    M.setRow(2);
    EXPECT_EQ(M.extractRow(2).count(), Bits) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(1)) << "bits " << Bits;
    EXPECT_TRUE(M.rowNone(3)) << "bits " << Bits;
  }
}

TEST(DataflowMatrix, MoveTransfersMappedStorage) {
  DataflowMatrix A(3, 4096, DataflowMatrix::LazyZeroed);
  A.setRow(1);
  DataflowMatrix B(std::move(A));
  EXPECT_EQ(B.extractRow(1).count(), 4096u);
  EXPECT_TRUE(B.rowNone(0));
  DataflowMatrix C;
  C = std::move(B);
  EXPECT_EQ(C.extractRow(1).count(), 4096u);
  EXPECT_TRUE(C.rowNone(2));
}

TEST(DataflowMatrix, GntResultCopyOutlivesItsArena) {
  // The solver's result fields are row views over the arena the
  // GntResult owns; copying a result must deep-copy the arena so the
  // copy survives the original (and its arena) being destroyed. A
  // use-after-free here is exactly what ASan builds of this test would
  // catch.
  auto P = test::Pipeline::fromSource("continue\ncontinue\n");
  ASSERT_TRUE(P.Ifg.has_value());
  unsigned N = P.Ifg->size();
  GntProblem Prob(N, 130); // Partial tail word.
  for (unsigned Item = 0; Item != 130; ++Item) {
    Prob.TakeInit[Item % N].set(Item);
    if (Item % 3 == 0)
      Prob.GiveInit[(Item / N) % N].set(Item);
  }
  GntResult Copy;
  BitVector TakeAtOne;
  {
    GntResult R = solveGiveNTake(*P.Ifg, Prob);
    ASSERT_NE(R.Arena, nullptr);
    TakeAtOne = BitVector::fromWords(R.Take[1].words(), R.Take[1].size());
    Copy = R; // Deep copy: the copy views an arena of its own.
    EXPECT_NE(Copy.Arena, R.Arena);
  }           // Original result and its arena die here.
  ASSERT_EQ(Copy.Take.size(), TakeAtOne.size() ? Copy.Take.size() : 0u);
  EXPECT_EQ(Copy.Take[1], TakeAtOne);
  forEachGntField(Copy, [&](const char *Name,
                            const BitRows &V) {
    for (ConstBitRow BV : V) {
      EXPECT_EQ(BV.size(), 130u) << Name;
      (void)BV.count(); // Touch every word: must be live storage.
    }
  });
}

TEST(DataflowMatrix, RowsAreContiguous) {
  // No padding between rows: the storage is exactly rows x words, and
  // each row starts where the previous one's last data word ends.
  for (unsigned Bits : {1u, 63u, 64u, 65u, 130u}) {
    DataflowMatrix M(5, Bits);
    EXPECT_EQ(M.storageWords(),
              static_cast<std::size_t>(M.rows()) * M.wordsPerRow())
        << "bits " << Bits;
    for (unsigned R = 0; R + 1 != M.rows(); ++R)
      EXPECT_EQ(M.row(R + 1) - M.row(R),
                static_cast<std::ptrdiff_t>(M.wordsPerRow()))
          << "bits " << Bits << " row " << R;
  }
}

#ifndef NDEBUG
TEST(DataflowMatrix, UninitPoisonTripsExportabilityCheck) {
  // Debug builds poison Uninit storage with 0xA5. For any universe that
  // is not a word multiple the poison puts bits past bits() in the tail
  // word, so a never-written row must fail rowsExportable() — this is
  // what makes the solver's export assert catch missed rows instead of
  // silently exporting leftover heap bytes.
  DataflowMatrix M(2, 65, DataflowMatrix::Uninit);
  EXPECT_FALSE(M.rowsExportable());
  M.setRow(0);
  EXPECT_FALSE(M.rowsExportable()); // Row 1 still poisoned.
  M.setRow(1);
  EXPECT_TRUE(M.rowsExportable());

  // Word-multiple universes have no out-of-range tail bits to poison;
  // the check is trivially true there (the poison still makes reads
  // loud, it just cannot be *detected* as an invariant violation).
  DataflowMatrix Full(2, 128, DataflowMatrix::Uninit);
  EXPECT_TRUE(Full.rowsExportable());
}
#endif

TEST(DataflowMatrix, RowsAreIndependent) {
  // Adjacent rows share the allocation; writes through row pointers
  // must stay within their own row.
  DataflowMatrix M(3, 65);
  M.setRow(1);
  DataflowMatrix::Word *Mid = M.row(1);
  Mid[0] = 0; // Partial clear through the raw pointer.
  EXPECT_TRUE(M.rowNone(0));
  EXPECT_TRUE(M.rowNone(2));
  EXPECT_EQ(M.extractRow(1).count(), 1u); // Only bit 64 survives.
  EXPECT_TRUE(M.extractRow(1).test(64));
}

TEST(DataflowMatrix, RowAssignmentWritesThrough) {
  // A BitRow is a reference: assigning to it (even a temporary one from
  // operator[]) copies bits into the matrix row and never rebinds.
  DataflowMatrix M(4, 70);
  BitRows F = M.field(1, 2);
  BitVector V(70);
  V.set(0);
  V.set(69);
  F[1] = V;
  EXPECT_EQ(M.extractRow(2), V);
  EXPECT_TRUE(M.rowNone(1));

  BitRow R = F[0];
  R = F[1]; // Row-to-row assignment copies bits, it does not alias.
  EXPECT_EQ(M.extractRow(1), V);
  F[1].reset();
  EXPECT_EQ(M.extractRow(1), V);
  EXPECT_TRUE(M.rowNone(2));

  GntProblem P(3, 70);
  P.TakeInit[2] = V;
  P.GiveInit[0] = P.TakeInit[2];
  P.StealInit[1].set(5);
  const DataflowMatrix &Init = P.initMatrix();
  EXPECT_EQ(Init.extractRow(2), V);     // TAKE_init[2].
  EXPECT_EQ(Init.extractRow(3), V);     // GIVE_init[0].
  EXPECT_TRUE(Init.bitRow(7).test(5));  // STEAL_init[1].
  EXPECT_EQ(Init.bitRow(7).count(), 1u);
}

TEST(DataflowMatrix, CopiedProblemResultAndRunOwnIndependentStorage) {
  auto Pipe = test::Pipeline::fromSource(test::fig11Source());
  ASSERT_TRUE(Pipe.Ifg.has_value());
  const unsigned N = Pipe.Ifg->size();
  std::optional<GntProblem> Orig(std::in_place, N, 67, Direction::After);
  for (unsigned Item = 0; Item != 67; ++Item) {
    Orig->TakeInit[(Item * 7) % N].set(Item);
    Orig->GiveInit[(Item * 3) % N].set(Item);
  }
  GntProblem Copy = *Orig;
  std::optional<GntRun> Run(runGiveNTake(*Pipe.Ifg, *Orig));
  GntRun RunCopy = *Run;
  GntResult ResultCopy = Run->Result;
  const std::vector<BitVector> Take = toBitVectors(Copy.TakeInit);
  const std::vector<BitVector> ResIn = toBitVectors(Run->Result.Eager.ResIn);

  // Mutating or destroying the originals leaves the copies untouched.
  Orig->TakeInit[0].set();
  Run->Result.Eager.ResIn[1].set();
  Run->OrientedProblem.GiveInit[2].set();
  Orig.reset();
  Run.reset();

  EXPECT_EQ(toBitVectors(Copy.TakeInit), Take);
  EXPECT_EQ(toBitVectors(RunCopy.Result.Eager.ResIn), ResIn);
  EXPECT_EQ(toBitVectors(ResultCopy.Eager.ResIn), ResIn);
  EXPECT_EQ(RunCopy.OrientedIfg.size(), N);
  EXPECT_TRUE(RunCopy.OrientedIfg.isReversed());
  // The copied run still solves to itself: re-running its own oriented
  // inputs reproduces every field.
  GntResult Again = solveGiveNTake(RunCopy.OrientedIfg,
                                   RunCopy.OrientedProblem);
  EXPECT_EQ(toBitVectors(Again.Steal), toBitVectors(RunCopy.Result.Steal));
  EXPECT_EQ(toBitVectors(Again.Lazy.ResOut),
            toBitVectors(RunCopy.Result.Lazy.ResOut));

  // Moved-from problems and results are empty, not dangling.
  GntProblem Moved = std::move(Copy);
  EXPECT_EQ(Copy.numNodes(), 0u);
  EXPECT_EQ(Moved.numNodes(), N);
  GntResult MovedResult = std::move(ResultCopy);
  EXPECT_EQ(ResultCopy.numNodes(), 0u);
  EXPECT_EQ(MovedResult.numNodes(), N);
}
