//===- support/DataflowMatrix.h - Flat bit-set arena -----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat arena of equally sized bit sets: one contiguous uint64_t
/// allocation holding NumRows rows of NumBits bits each, every row
/// starting on a word boundary. This is the backing store for the
/// GIVE-N-TAKE solver's dataflow variables — a (field x node) matrix of
/// item sets — replacing one BitVector heap allocation per node per
/// equation with straight-line word loops over stable pointers.
///
/// The solver's inner loops read rows as raw `Word *` spans: they fuse
/// several equations into one pass over the words of a node, and a
/// pointer-plus-index idiom keeps that code free of abstraction
/// overhead. Everything else reads rows as BitRow views, and runs of
/// rows as BitRows fields (a problem's init sets, a result's 20
/// variables). The tail-word invariant of BitVector
/// (bits past NumBits in the last word stay zero) is maintained by
/// construction and by the masked mutators below; the bitwise AND / OR
/// / ANDNOT combinations the equations use preserve it automatically.
///
/// Rows are contiguous: row R starts exactly R * wordsPerRow() words
/// into the allocation, with no padding between rows. Debug builds
/// poison Uninit storage (0xA5) to make any read-before-write loud.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_DATAFLOWMATRIX_H
#define GNT_SUPPORT_DATAFLOWMATRIX_H

#include "support/BitVector.h"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define GNT_DATAFLOWMATRIX_HAVE_MMAP 1
#endif

namespace gnt {

/// A run of equally strided word rows viewed as one per-node field:
/// element I is a BitRow (or ConstBitRow, through a const BitRows).
/// The problem's TAKE/GIVE/STEAL_init and the solver's 20 result
/// variables are such fields over one DataflowMatrix each. A BitRows is
/// a view like BitRow: it does not own or keep alive its storage, and
/// its owner re-binds it when the storage is copied.
class BitRows {
public:
  using Word = BitVector::Word;

  /// Forward iterator yielding row views, by row index (a zero-bit
  /// universe has zero-word rows that all share one address).
  template <typename RowT, typename WordT> class Iterator {
  public:
    Iterator(WordT *Base, unsigned Stride, unsigned Bits, unsigned I)
        : Base(Base), Stride(Stride), Bits(Bits), I(I) {}
    RowT operator*() const {
      return RowT(Base + static_cast<std::size_t>(I) * Stride, Bits);
    }
    Iterator &operator++() {
      ++I;
      return *this;
    }
    bool operator!=(const Iterator &RHS) const { return I != RHS.I; }

  private:
    WordT *Base;
    unsigned Stride;
    unsigned Bits;
    unsigned I;
  };

  BitRows() = default;
  BitRows(Word *First, unsigned Count, unsigned Stride, unsigned Bits)
      : Base(First), Count(Count), Stride(Stride), Bits(Bits) {}

  /// Number of rows (nodes).
  unsigned size() const { return Count; }
  /// Bits per row (the universe size).
  unsigned bits() const { return Bits; }

  BitRow operator[](unsigned I) {
    assert(I < Count && "row out of range");
    return BitRow(Base + static_cast<std::size_t>(I) * Stride, Bits);
  }
  ConstBitRow operator[](unsigned I) const {
    assert(I < Count && "row out of range");
    return ConstBitRow(Base + static_cast<std::size_t>(I) * Stride, Bits);
  }

  Iterator<BitRow, Word> begin() { return {Base, Stride, Bits, 0}; }
  Iterator<BitRow, Word> end() { return {Base, Stride, Bits, Count}; }
  Iterator<ConstBitRow, const Word> begin() const {
    return {Base, Stride, Bits, 0};
  }
  Iterator<ConstBitRow, const Word> end() const {
    return {Base, Stride, Bits, Count};
  }

private:
  Word *Base = nullptr;
  unsigned Count = 0;
  unsigned Stride = 0;
  unsigned Bits = 0;
};

/// Row-wise equality of two fields of the same shape.
inline bool operator==(const BitRows &A, const BitRows &B) {
  if (A.size() != B.size() || A.bits() != B.bits())
    return false;
  for (unsigned I = 0, E = A.size(); I != E; ++I)
    if (A[I] != B[I])
      return false;
  return true;
}

/// The one conversion of a field to owned BitVectors, for the tests and
/// the audit's generic dataflow engine. Program paths read rows in
/// place.
inline std::vector<BitVector> toBitVectors(const BitRows &F) {
  std::vector<BitVector> V;
  V.reserve(F.size());
  for (ConstBitRow R : F)
    V.emplace_back(R);
  return V;
}

/// Contiguous (row x bit) matrix of dataflow sets.
class DataflowMatrix {
public:
  using Word = BitVector::Word;
  static constexpr unsigned WordBits = BitVector::WordBits;

  /// Tag requesting an uninitialized arena (see the tagged constructor).
  struct UninitTag {};
  static constexpr UninitTag Uninit{};

  /// Tag requesting a lazily zeroed arena (see the tagged constructor).
  struct LazyZeroedTag {};
  static constexpr LazyZeroedTag LazyZeroed{};

  DataflowMatrix() = default;

  /// Creates \p NumRows rows of \p NumBits zeroed bits in one
  /// allocation.
  DataflowMatrix(unsigned NumRows, unsigned NumBits)
      : DataflowMatrix(NumRows, NumBits, Uninit) {
    clear();
  }

  /// Creates the arena without zero-filling it. For writers that assign
  /// every row exactly once (the GNT solver), the zero-fill is a wasted
  /// full pass over a potentially tens-of-megabytes allocation; such
  /// callers must take care to write (or explicitly zero) every row
  /// they later read or expose.
  DataflowMatrix(unsigned NumRows, unsigned NumBits, UninitTag)
      : NRows(NumRows), NBits(NumBits),
        WPerRow((NumBits + WordBits - 1) / WordBits),
        NWords(static_cast<std::size_t>(NumRows) * WPerRow),
        Words(allocWords(NWords)) {
#ifndef NDEBUG
    // Poison uninitialized storage so a row that is read (or exported)
    // before being written shows up as garbage with out-of-range tail
    // bits rather than as plausible leftover zeros.
    if (NWords)
      std::memset(Words, 0xA5, NWords * sizeof(Word));
#endif
  }

  /// Creates the arena zeroed, but lazily: the storage comes straight
  /// from an anonymous mmap, so pages that are never written are
  /// backed by the kernel's shared zero page and cost neither a memset
  /// pass nor physical memory. Worth it only when whole pages stay
  /// untouched — the compressed solve uses it for the all-bottom
  /// result, whose matrix is never written at all. Writers that touch
  /// even a few bytes of every page (rows are typically smaller than a
  /// page, so any per-row write does) fault the entire mapping and pay
  /// more than an eager memset; they should use Uninit and assign
  /// every word. Falls back to an eager zero-fill where mmap is
  /// unavailable.
  DataflowMatrix(unsigned NumRows, unsigned NumBits, LazyZeroedTag)
      : NRows(NumRows), NBits(NumBits),
        WPerRow((NumBits + WordBits - 1) / WordBits),
        NWords(static_cast<std::size_t>(NumRows) * WPerRow) {
#if GNT_DATAFLOWMATRIX_HAVE_MMAP
    if (NWords) {
      void *P = ::mmap(nullptr, NWords * sizeof(Word),
                       PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS,
                       -1, 0);
      if (P == MAP_FAILED)
        throw std::bad_alloc();
      Words = static_cast<Word *>(P);
      Mapped = true;
      return;
    }
#endif
    Words = allocWords(NWords);
    clear();
  }

  DataflowMatrix(DataflowMatrix &&RHS) noexcept
      : NRows(RHS.NRows), NBits(RHS.NBits), WPerRow(RHS.WPerRow),
        NWords(RHS.NWords), Words(RHS.Words),
        Mapped(RHS.Mapped) {
    RHS.forget();
  }
  DataflowMatrix &operator=(DataflowMatrix &&RHS) noexcept {
    if (this != &RHS) {
      release();
      NRows = RHS.NRows;
      NBits = RHS.NBits;
      WPerRow = RHS.WPerRow;
      NWords = RHS.NWords;
      Words = RHS.Words;
      Mapped = RHS.Mapped;
      RHS.forget();
    }
    return *this;
  }
  /// Deep copy: one allocation and one memcpy of the whole storage
  /// (rows are contiguous). A copy of a lazily zeroed arena is an
  /// ordinary eagerly allocated one.
  DataflowMatrix(const DataflowMatrix &RHS)
      : NRows(RHS.NRows), NBits(RHS.NBits), WPerRow(RHS.WPerRow),
        NWords(RHS.NWords), Words(allocWords(NWords)) {
    if (NWords)
      std::memcpy(Words, RHS.Words, NWords * sizeof(Word));
  }
  DataflowMatrix &operator=(const DataflowMatrix &RHS) {
    if (this != &RHS)
      *this = DataflowMatrix(RHS);
    return *this;
  }
  ~DataflowMatrix() { release(); }

  unsigned rows() const { return NRows; }
  unsigned bits() const { return NBits; }
  unsigned wordsPerRow() const { return WPerRow; }

  /// Total allocated words (rows() * wordsPerRow()), for whole-arena
  /// copies such as the incremental solver's memo clone.
  std::size_t storageWords() const { return NWords; }

  /// Mask selecting the in-range bits of the last word of a row (all
  /// ones when NumBits is a multiple of the word size or zero).
  Word tailMask() const {
    unsigned Rem = NBits % WordBits;
    return Rem == 0 ? ~Word(0) : (~Word(0) >> (WordBits - Rem));
  }

  Word *row(unsigned R) {
    assert(R < NRows && "row out of range");
    return Words + static_cast<std::size_t>(R) * WPerRow;
  }
  const Word *row(unsigned R) const {
    assert(R < NRows && "row out of range");
    return Words + static_cast<std::size_t>(R) * WPerRow;
  }

  /// Zeroes every row.
  void clear() {
    if (NWords)
      std::memset(Words, 0, NWords * sizeof(Word));
  }

  /// Row \p R as a bit-set view. Assigning to the view writes the row.
  BitRow bitRow(unsigned R) { return BitRow(row(R), NBits); }
  ConstBitRow bitRow(unsigned R) const { return ConstBitRow(row(R), NBits); }

  /// Rows [\p First, \p First + \p Count) as one per-node field.
  BitRows field(unsigned First, unsigned Count);

  /// Copies \p BV (which must have exactly bits() bits) into row \p R.
  void assignRow(unsigned R, ConstBitRow BV) { bitRow(R) = BV; }

  /// Materializes row \p R as a standalone BitVector.
  BitVector extractRow(unsigned R) const { return BitVector(bitRow(R)); }

  /// Sets every bit of row \p R, respecting the tail-word invariant.
  void setRow(unsigned R) {
    Word *W = row(R);
    for (unsigned K = 0; K != WPerRow; ++K)
      W[K] = ~Word(0);
    if (WPerRow)
      W[WPerRow - 1] &= tailMask();
  }

  /// True if row \p R has no bit set.
  bool rowNone(unsigned R) const {
    const Word *W = row(R);
    for (unsigned K = 0; K != WPerRow; ++K)
      if (W[K])
        return false;
    return true;
  }

  /// True when every row honors the tail-word invariant (no bits past
  /// bits() in the last data word). This is the bottom-row contract an
  /// Uninit writer must establish before its rows are handed out as
  /// BitRow views; the solver asserts it in Debug builds, where the
  /// 0xA5 poison guarantees a never-written row trips it whenever
  /// bits() is not a word multiple.
  bool rowsExportable() const {
    if (!WPerRow)
      return true;
    const Word Tail = tailMask();
    for (unsigned R = 0; R != NRows; ++R)
      if (row(R)[WPerRow - 1] & ~Tail)
        return false;
    return true;
  }

private:
  static Word *allocWords(std::size_t N) {
    if (!N)
      return nullptr;
    return new Word[N];
  }

  /// Leaves a moved-from matrix empty (0 x 0) without freeing storage
  /// it no longer owns.
  void forget() {
    NRows = NBits = WPerRow = 0;
    NWords = 0;
    Words = nullptr;
    Mapped = false;
  }

  void release() {
    if (!Words)
      return;
#if GNT_DATAFLOWMATRIX_HAVE_MMAP
    if (Mapped) {
      ::munmap(Words, NWords * sizeof(Word));
      Words = nullptr;
      return;
    }
#endif
    delete[] Words;
    Words = nullptr;
  }

  unsigned NRows = 0;
  unsigned NBits = 0;
  unsigned WPerRow = 0;
  std::size_t NWords = 0;
  Word *Words = nullptr; ///< Matrix storage.
  bool Mapped = false;   ///< Storage came from mmap, not new[].
};

inline BitRows DataflowMatrix::field(unsigned First, unsigned Count) {
  assert(static_cast<std::size_t>(First) + Count <= NRows &&
         "field out of range");
  return BitRows(Count ? row(First) : nullptr, Count, WPerRow, NBits);
}

} // namespace gnt

#endif // GNT_SUPPORT_DATAFLOWMATRIX_H
