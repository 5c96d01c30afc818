//===- support/ItemClasses.h - Item equivalence classes --------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Universe compression for item-wise independent bit-vector dataflow
/// problems. Every GIVE-N-TAKE equation (Eq. 1-15) combines sets with
/// bitwise AND/OR/ANDNOT only — no operation crosses bit lanes — so the
/// solution column of an item is a pure function of its *initial*
/// column across (TAKE_init, GIVE_init, STEAL_init). Two items with
/// identical initial columns therefore have identical solutions in all
/// 20 dataflow variables, and an item whose column is empty everywhere
/// (never taken, given, or stolen) solves to bottom in every variable.
///
/// This header computes that partition exactly — no hashing, so no
/// collision can ever merge two distinct columns — with one sweep of
/// Hopcroft-style refinement over the set bits of the init rows:
/// every item starts in class 0; each row splits every class it
/// intersects into members-in-the-row vs members-outside. The cost is
/// O(total set bits), independent of the universe width, and items the
/// sweep never touches stay in class 0, the trivially-bottom class.
///
/// The companion plans keep both directions of the translation at word
/// granularity. The expansion plan maps a row over the compressed
/// universe (one bit per class) back to the full universe as a list of
/// (DstBit, SrcBit, Len) segments — maximal runs of items whose
/// classes are consecutive — and the cover plan is the subset of those
/// segments (trimmed to first occurrences) that reads each class
/// exactly once, which turns init-row compression into the same
/// handful of word copies instead of a per-bit scatter. Classes are
/// numbered by first occurrence, so block-duplicated universes (the
/// common case for replicated array sections) translate as a few long
/// aligned segments in both directions. When every segment boundary is
/// word-aligned the expansion plan additionally compiles down to a
/// straight-line program of whole-word copies and zero fills
/// (compileExpandWordPlan / expandRowWords), eliminating the per-bit
/// funnel shifts and per-segment call overhead from the hot expansion
/// loop — with tens of thousands of result rows, that overhead, not
/// memory bandwidth, is what dominates a naive expansion.
///
/// The consumer is dataflow/GiveNTake.cpp's solveGiveNTakeCompressed;
/// nothing here depends on the solver.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_ITEMCLASSES_H
#define GNT_SUPPORT_ITEMCLASSES_H

#include "support/BitVector.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gnt {

/// The partition of an item universe into initial-column equivalence
/// classes.
struct ItemClasses {
  /// Size of the original universe.
  unsigned Universe = 0;

  /// Number of equivalence classes with at least one nonempty row bit,
  /// i.e. the compressed universe size. Does not count the trivially
  /// bottom class.
  unsigned NumClasses = 0;

  /// Items mapped to Bottom.
  unsigned Elided = 0;

  /// The refinement stopped early because the live class count passed
  /// the caller's abort threshold: the input is too incompressible for
  /// the partition to pay off, and finishing the sweep would only burn
  /// more time to confirm it. Only Universe, NumClasses (the live
  /// count at the abort) and this flag are meaningful; ClassOf and
  /// Representative are empty.
  bool Aborted = false;

  /// Sentinel in ClassOf for trivially-bottom items (their solution is
  /// bottom in every variable; they are elided from the compressed
  /// problem outright).
  static constexpr unsigned Bottom = ~0u;

  /// Class of each item, dense in [0, NumClasses) by first occurrence,
  /// or Bottom for elided items.
  std::vector<unsigned> ClassOf;

  /// One representative item per class (the lowest-numbered member).
  std::vector<unsigned> Representative;

  /// Items mapped to Bottom.
  unsigned elided() const { return Elided; }

  /// Whether compressing to NumClasses items is worth the expansion
  /// pass: require at least a 4x reduction of the universe. The
  /// compressed solve's fixed costs — partition (~0.1x of a full
  /// solve) and full-width expansion (~0.4x: the write floor of the
  /// result matrix) — are measured at roughly half a full solve, so
  /// the break-even sits near NumClasses == Universe/2; gating at
  /// Universe/4 keeps only decisive wins and, because the live class
  /// count grows monotonically during refinement, lets the abort
  /// probe on incompressible inputs stop a factor of two sooner.
  bool profitable() const {
    return !Aborted && Universe > 0 && NumClasses <= Universe / 4;
  }
};

/// One translation segment: \p Len full-universe bits starting at \p
/// DstBit correspond to the compressed bits starting at \p SrcBit
/// (items DstBit..DstBit+Len-1 have the consecutive classes
/// SrcBit..SrcBit+Len-1). Expansion writes the Dst side from the Src
/// side; the cover plan reads the Dst side to fill the Src side.
struct ExpandSeg {
  unsigned DstBit;
  unsigned SrcBit;
  unsigned Len;
};

/// Refines \p Classes (the per-item class assignment, initially all
/// zero) by the set bits of \p Row: every class with members both in
/// and out of the row is split. Class 0 doubles as the never-touched
/// class — buddies are numbered from 1 and an item can never return to
/// 0, so "still in class 0 after all rows" identifies the trivially
/// bottom items with no extra bookkeeping. \p Buddy maps a class to
/// its in-row twin for the duration of one row (grown once per row:
/// every class id read back inside the loop predates the row); \p
/// Touched lists the classes with a live twin so the reset stays
/// O(classes touched). Iterates the raw words directly — this loop is
/// the whole cost of compression on incompressible inputs, so it must
/// stay close to the O(set bits) floor.
///
/// \p BS and \p Live maintain an exact count of *live* (nonempty,
/// non-zero) classes. Unlike the raw NumClasses counter — which also
/// counts classes that later emptied out and therefore overshoots
/// badly on highly duplicated inputs — Live is monotone
/// nondecreasing: refinement only ever splits classes, so a split
/// either adds a live class (both halves nonempty) or renames one (the
/// old class emptied). That monotonicity is what makes Live a sound
/// early-abort signal: once it crosses the profitability threshold the
/// final partition is guaranteed to cross it too.
///
/// The per-class scratch (in-row buddy and member count) lives in one
/// struct so a split touches one cache line, and items are processed
/// in chunks: a scan pass extracts set bits and prefetches their
/// Classes slots, a second pass prefetches the class scratch, and only
/// then does the split run. Wide universes visit Classes at large
/// strides (an item's neighbors in a row are hundreds of indices
/// apart), so without the staging the refinement is one demand miss
/// per bit — and on incompressible inputs this loop is the entire cost
/// of finding out compression will not pay.
struct ClassSplit {
  unsigned Buddy;
  unsigned Count;
};

inline void refineByRow(ConstBitRow Row, std::vector<unsigned> &Classes,
                        unsigned &NumClasses, std::vector<ClassSplit> &BS,
                        std::vector<unsigned> &Touched, unsigned &Live) {
  constexpr unsigned None = ~0u;
  if (BS.size() < NumClasses)
    BS.resize(NumClasses, {None, 0});
  const BitVector::Word *Ws = Row.words();
  const unsigned WC = Row.wordCount();
  unsigned Buf[256];
  unsigned WI = 0;
  while (WI != WC) {
    unsigned Cnt = 0;
    for (; WI != WC && Cnt <= 256 - BitVector::WordBits; ++WI) {
      // Init rows are sparse in wide universes; skip their zero
      // majority eight words at a time so the scan runs at memory
      // speed instead of one branch per word.
      if ((WI & 7) == 0 && WI + 8 <= WC) {
        BitVector::Word Any = Ws[WI] | Ws[WI + 1] | Ws[WI + 2] | Ws[WI + 3] |
                              Ws[WI + 4] | Ws[WI + 5] | Ws[WI + 6] |
                              Ws[WI + 7];
        if (!Any) {
          WI += 7;
          continue;
        }
      }
      for (BitVector::Word W = Ws[WI]; W; W &= W - 1) {
        unsigned Item = WI * BitVector::WordBits +
                        static_cast<unsigned>(__builtin_ctzll(W));
        __builtin_prefetch(&Classes[Item]);
        Buf[Cnt++] = Item;
      }
    }
    if (!Cnt)
      break;
    // Second staging pass: prefetch the class scratch, and notice the
    // all-still-untouched chunk — in the first sweep over a fresh
    // universe most rows split nothing but class 0, and that case
    // needs no per-item scratch traffic at all.
    bool AllUntouched = true;
    for (unsigned K = 0; K != Cnt; ++K) {
      unsigned C = Classes[Buf[K]];
      if (C != 0) {
        AllUntouched = false;
        __builtin_prefetch(&BS[C]);
      }
    }
    // Splits may append classes; reserving up front keeps the scratch
    // from reallocating mid-chunk (which would waste the prefetches).
    // Growth must stay geometric — an exact-fit reserve per chunk would
    // recopy the whole scratch every time.
    if (BS.capacity() < BS.size() + Cnt)
      BS.reserve(2 * (BS.size() + Cnt));
    if (AllUntouched) {
      unsigned B = BS[0].Buddy;
      if (B == None) {
        B = NumClasses++;
        BS[0].Buddy = B;
        Touched.push_back(0);
        BS.push_back({None, 0});
        ++Live;
      }
      for (unsigned K = 0; K != Cnt; ++K)
        Classes[Buf[K]] = B;
      BS[B].Count += Cnt;
      continue;
    }
    for (unsigned K = 0; K != Cnt; ++K) {
      unsigned Item = Buf[K];
      unsigned C = Classes[Item];
      unsigned B = BS[C].Buddy;
      if (B == None) {
        B = NumClasses++;
        BS[C].Buddy = B;
        Touched.push_back(C);
        BS.push_back({None, 0});
        ++Live;
      }
      Classes[Item] = B;
      ++BS[B].Count;
      // Class 0 is the untracked never-touched pool; it neither counts
      // as live nor dies.
      if (C != 0 && --BS[C].Count == 0)
        --Live;
    }
  }
  for (unsigned C : Touched)
    BS[C].Buddy = None;
  Touched.clear();
}

/// Partitions [0, Universe) into equivalence classes of identical
/// columns across all rows of \p TakeInit, \p GiveInit and \p StealInit
/// (each sized to the universe). Items never named by any row land in
/// the trivially-bottom class (ClassOf == Bottom).
///
/// \p AbortAboveClasses, when nonzero, stops the refinement as soon as
/// the live class count exceeds it (result has Aborted set and
/// profitable() false). Callers that only compress when the partition
/// lands at or below a threshold pass that threshold here: because the
/// live count is monotone nondecreasing under refinement (see
/// refineByRow), the abort can never suppress a partition that would
/// have been usable, and it caps the cost of discovering that an input
/// is incompressible at a fraction of a full sweep.
///
/// \p RowsT is any range of rows convertible to ConstBitRow: a
/// problem's BitRows fields, read in place, or a std::vector<BitVector>.
template <typename RowsT = std::vector<BitVector>>
ItemClasses computeItemClasses(unsigned Universe, const RowsT &TakeInit,
                               const RowsT &GiveInit, const RowsT &StealInit,
                               unsigned AbortAboveClasses = 0) {
  ItemClasses R;
  R.Universe = Universe;
  if (Universe == 0)
    return R;

  std::vector<unsigned> Classes(Universe, 0);
  unsigned NumClasses = 1;
  unsigned Live = 0;
  std::vector<ClassSplit> BS;
  std::vector<unsigned> Touched;
  auto Sweep = [&](const RowsT &Rows) {
    for (ConstBitRow Row : Rows) {
      assert(Row.size() == Universe && "row not sized to the universe");
      refineByRow(Row, Classes, NumClasses, BS, Touched, Live);
      if (AbortAboveClasses && Live > AbortAboveClasses)
        return false;
    }
    return true;
  };
  if (!Sweep(TakeInit) || !Sweep(GiveInit) || !Sweep(StealInit)) {
    R.Aborted = true;
    R.NumClasses = Live;
    return R;
  }

  // Renumber surviving classes densely by first occurrence and elide
  // the never-touched (class 0, trivially-bottom) items.
  R.ClassOf.assign(Universe, ItemClasses::Bottom);
  R.Representative.reserve(std::min(Live, Universe));
  std::vector<unsigned> Renumber(NumClasses, ItemClasses::Bottom);
  for (unsigned Item = 0; Item != Universe; ++Item) {
    unsigned C = Classes[Item];
    if (C == 0) {
      ++R.Elided;
      continue;
    }
    unsigned New = Renumber[C];
    if (New == ItemClasses::Bottom) {
      New = R.NumClasses++;
      Renumber[C] = New;
      R.Representative.push_back(Item);
    }
    R.ClassOf[Item] = New;
  }
  assert(R.NumClasses == Live && "live-class accounting out of sync");
  return R;
}

/// Builds the expansion plan for \p Classes: maximal segments of items
/// with consecutive class numbers. With first-occurrence numbering a
/// universe of K-fold duplicated blocks yields one segment per block.
inline std::vector<ExpandSeg> buildExpandPlan(const ItemClasses &Classes) {
  std::vector<ExpandSeg> Plan;
  const std::vector<unsigned> &Of = Classes.ClassOf;
  unsigned I = 0;
  while (I != Classes.Universe) {
    if (Of[I] == ItemClasses::Bottom) {
      ++I;
      continue;
    }
    unsigned Start = I;
    unsigned SrcStart = Of[I];
    ++I;
    while (I != Classes.Universe && Of[I] != ItemClasses::Bottom &&
           Of[I] == SrcStart + (I - Start))
      ++I;
    Plan.push_back({Start, SrcStart, I - Start});
  }
  return Plan;
}

/// Trims \p Plan (an expansion plan) down to a cover: the segment
/// pieces that read each class exactly once, in class order. Because
/// classes are numbered by first occurrence, scanning the plan left to
/// right sees every new class id in increasing order, so the uncovered
/// piece of any segment is always its [CovEnd, end) suffix and the
/// cover tiles [0, NumClasses) contiguously. Compressing an init row
/// is then one word-run read per cover segment (from the Dst/full side
/// into the Src/class side) instead of a per-bit scatter.
inline std::vector<ExpandSeg> buildCoverPlan(const std::vector<ExpandSeg> &Plan) {
  std::vector<ExpandSeg> Cover;
  unsigned CovEnd = 0;
  for (const ExpandSeg &S : Plan) {
    unsigned SegEnd = S.SrcBit + S.Len;
    if (SegEnd <= CovEnd)
      continue;
    assert(S.SrcBit <= CovEnd && "class ids not first-occurrence ordered");
    unsigned Skip = CovEnd - S.SrcBit;
    Cover.push_back({S.DstBit + Skip, CovEnd, SegEnd - CovEnd});
    CovEnd = SegEnd;
  }
  return Cover;
}

/// OR-copies \p Len bits from \p Src starting at bit \p SrcBit into \p
/// Dst starting at bit \p DstBit. The destination must already satisfy
/// the tail-word invariant for its own row width; bits outside the
/// target range are left untouched. Word-aligned segments degrade to
/// whole-word ORs.
inline void orCopyBits(BitVector::Word *Dst, unsigned DstBit,
                       const BitVector::Word *Src, unsigned SrcBit,
                       unsigned Len) {
  using Word = BitVector::Word;
  constexpr unsigned WB = BitVector::WordBits;
  if (Len == 0)
    return;

  // Fast path: both offsets word-aligned — stream whole words, mask
  // only the final partial word.
  if (DstBit % WB == 0 && SrcBit % WB == 0) {
    Word *D = Dst + DstBit / WB;
    const Word *S = Src + SrcBit / WB;
    unsigned Full = Len / WB;
    for (unsigned K = 0; K != Full; ++K)
      D[K] |= S[K];
    unsigned Rem = Len % WB;
    if (Rem)
      D[Full] |= S[Full] & (~Word(0) >> (WB - Rem));
    return;
  }

  // General path: read source bits through a funnel shift, OR masked
  // chunks into the destination one destination word at a time.
  unsigned Done = 0;
  while (Done != Len) {
    unsigned DBit = DstBit + Done;
    unsigned DWord = DBit / WB;
    unsigned DOff = DBit % WB;
    unsigned Chunk = std::min(Len - Done, WB - DOff);

    unsigned SBit = SrcBit + Done;
    unsigned SWord = SBit / WB;
    unsigned SOff = SBit % WB;
    Word V = Src[SWord] >> SOff;
    if (SOff && SOff + Chunk > WB)
      V |= Src[SWord + 1] << (WB - SOff);
    if (Chunk != WB)
      V &= (Word(1) << Chunk) - 1;
    Dst[DWord] |= V << DOff;
    Done += Chunk;
  }
}

/// Assign-copies \p Len bits from \p Src (of \p SrcWords words)
/// starting at bit \p SrcBit into \p Dst starting at bit \p DstBit.
/// Contract shared with zeroBits: bits *below* DstBit in the first
/// word are preserved, bits *above* DstBit+Len-1 in the last touched
/// word may be clobbered — callers tile a row strictly left to right,
/// so every clobbered bit is rewritten by a later segment or the final
/// zero fill. That contract is what lets the aligned fast path be a
/// bare memcpy and the general path one store per destination word,
/// with no read-modify-write traffic.
inline void copyBits(BitVector::Word *Dst, unsigned DstBit,
                     const BitVector::Word *Src, unsigned SrcBit,
                     unsigned SrcWords, unsigned Len) {
  using Word = BitVector::Word;
  constexpr unsigned WB = BitVector::WordBits;
  if (Len == 0)
    return;

  // Fast path: both offsets word-aligned — whole-word assignments,
  // rounding the tail up to a word (clobber above the range is
  // allowed). Short segments use a plain loop: a libc memcpy call per
  // 8-word segment costs more than the copy across the ~10^5 segment
  // copies of a full expansion.
  if (DstBit % WB == 0 && SrcBit % WB == 0) {
    Word *D = Dst + DstBit / WB;
    const Word *S = Src + SrcBit / WB;
    unsigned Words = (Len + WB - 1) / WB;
    if (Words > 32) {
      std::memcpy(D, S, static_cast<std::size_t>(Words) * sizeof(Word));
      return;
    }
    for (unsigned K = 0; K != Words; ++K)
      D[K] = S[K];
    return;
  }

  // Gathers the source word at bit SBit, guarding the high-word read
  // at the end of the source row (the guarded bits are never required:
  // SrcBit+Len is within the source).
  auto Gather = [&](unsigned SBit) {
    unsigned SWord = SBit / WB;
    unsigned SOff = SBit % WB;
    Word V = Src[SWord] >> SOff;
    if (SOff && SWord + 1 < SrcWords)
      V |= Src[SWord + 1] << (WB - SOff);
    return V;
  };

  unsigned Done = 0;
  unsigned DOff = DstBit % WB;
  if (DOff) {
    // Partial head word: preserve the bits below DstBit.
    Word Keep = (Word(1) << DOff) - 1;
    Dst[DstBit / WB] = (Dst[DstBit / WB] & Keep) | (Gather(SrcBit) << DOff);
    Done = WB - DOff;
  }
  while (Done < Len) {
    Dst[(DstBit + Done) / WB] = Gather(SrcBit + Done);
    Done += WB;
  }
}

/// Zeroes \p Len bits of \p Dst starting at bit \p DstBit under the
/// same tiling contract as copyBits: bits below DstBit survive, bits
/// above the range in the last touched word may be cleared too.
inline void zeroBits(BitVector::Word *Dst, unsigned DstBit, unsigned Len) {
  using Word = BitVector::Word;
  constexpr unsigned WB = BitVector::WordBits;
  if (Len == 0)
    return;
  unsigned DOff = DstBit % WB;
  if (DOff) {
    Dst[DstBit / WB] &= (Word(1) << DOff) - 1;
    unsigned Head = WB - DOff;
    if (Len <= Head)
      return;
    DstBit += Head;
    Len -= Head;
  }
  std::memset(Dst + DstBit / WB, 0,
              static_cast<std::size_t>((Len + WB - 1) / WB) * sizeof(Word));
}

/// Expands one compressed row of \p SrcWords words into a
/// (possibly uninitialized) full-universe row of \p DstWords words
/// using \p Plan. The segments and the gaps between them tile the row
/// left to right, so every destination word is written exactly once —
/// no memset-then-OR double pass. All-zero source rows (common: many
/// dataflow variables are bottom at most nodes) degrade to one memset.
/// The final zero fill runs to the end of the last word, establishing
/// the tail-word invariant the DataflowMatrix export relies on.
inline void expandRow(BitVector::Word *Dst, unsigned DstWords,
                      const BitVector::Word *Src, unsigned SrcWords,
                      const std::vector<ExpandSeg> &Plan) {
  bool Any = false;
  for (unsigned K = 0; K != SrcWords; ++K)
    if (Src[K]) {
      Any = true;
      break;
    }
  if (!Any) {
    std::memset(Dst, 0, static_cast<std::size_t>(DstWords) *
                            sizeof(BitVector::Word));
    return;
  }
  const unsigned RowBits = DstWords * BitVector::WordBits;
  unsigned Cursor = 0;
  for (const ExpandSeg &Seg : Plan) {
    if (Seg.DstBit != Cursor)
      zeroBits(Dst, Cursor, Seg.DstBit - Cursor);
    copyBits(Dst, Seg.DstBit, Src, Seg.SrcBit, SrcWords, Seg.Len);
    Cursor = Seg.DstBit + Seg.Len;
  }
  if (Cursor != RowBits)
    zeroBits(Dst, Cursor, RowBits - Cursor);
}

/// One step of a compiled whole-word expansion program: assign \p
/// NumWords words at Dst+DstWord from Src+SrcWord, or zero-fill them
/// when SrcWord is ZeroFill.
struct ExpandWordOp {
  unsigned DstWord;
  unsigned SrcWord;
  unsigned NumWords;
  static constexpr unsigned ZeroFill = ~0u;
};

/// Compiles \p Plan into a whole-word program covering [0, DstWords):
/// copies for the segments, zero fills for the gaps and the elided
/// tail, in destination order, so executing the ops left to right
/// assigns every destination word exactly once. Compilation requires
/// every segment boundary (DstBit, SrcBit, Len) to be word-aligned —
/// the common case for block-duplicated universes whose block size is
/// a multiple of the word width — and returns an empty program
/// otherwise; callers then fall back to the bit-granular expandRow.
inline std::vector<ExpandWordOp>
compileExpandWordPlan(const std::vector<ExpandSeg> &Plan, unsigned DstWords) {
  constexpr unsigned WB = BitVector::WordBits;
  std::vector<ExpandWordOp> Ops;
  Ops.reserve(2 * Plan.size() + 1);
  unsigned Cursor = 0;
  for (const ExpandSeg &S : Plan) {
    if (S.DstBit % WB || S.SrcBit % WB || S.Len % WB)
      return {};
    unsigned DW = S.DstBit / WB;
    if (DW > Cursor)
      Ops.push_back({Cursor, ExpandWordOp::ZeroFill, DW - Cursor});
    Ops.push_back({DW, S.SrcBit / WB, S.Len / WB});
    Cursor = DW + S.Len / WB;
  }
  if (Cursor < DstWords)
    Ops.push_back({Cursor, ExpandWordOp::ZeroFill, DstWords - Cursor});
  return Ops;
}

/// Expands one compressed row of \p SrcWords words into a (possibly
/// uninitialized) full-universe row of \p DstWords words by executing
/// a compiled word program. Equivalent to expandRow over the plan the
/// program was compiled from, but with no per-bit work at all: the
/// inner loops are bare word assignments and memsets, which is what
/// keeps a full expansion (rows x plan segments, easily 10^5 ops)
/// near the arena's write-bandwidth floor. All-zero source rows
/// (common: many dataflow variables are bottom at most nodes) degrade
/// to a single memset.
inline void expandRowWords(BitVector::Word *Dst, unsigned DstWords,
                           const BitVector::Word *Src, unsigned SrcWords,
                           const std::vector<ExpandWordOp> &Ops) {
  using Word = BitVector::Word;
  bool Any = false;
  for (unsigned K = 0; K != SrcWords; ++K)
    if (Src[K]) {
      Any = true;
      break;
    }
  if (!Any) {
    std::memset(Dst, 0, static_cast<std::size_t>(DstWords) * sizeof(Word));
    return;
  }
  for (const ExpandWordOp &Op : Ops) {
    Word *D = Dst + Op.DstWord;
    if (Op.SrcWord == ExpandWordOp::ZeroFill) {
      std::memset(D, 0, static_cast<std::size_t>(Op.NumWords) * sizeof(Word));
      continue;
    }
    const Word *S = Src + Op.SrcWord;
    // Same threshold as copyBits: a libc memcpy call per short segment
    // costs more than the copy itself.
    if (Op.NumWords > 32) {
      std::memcpy(D, S, static_cast<std::size_t>(Op.NumWords) * sizeof(Word));
      continue;
    }
    for (unsigned K = 0; K != Op.NumWords; ++K)
      D[K] = S[K];
  }
}

} // namespace gnt

#endif // GNT_SUPPORT_ITEMCLASSES_H
