//===- support/BitVector.h - Dense dynamic bit vector ----------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dense, dynamically sized bit vector used to represent sets over the
/// dataflow universe. All GIVE-N-TAKE equations are unions, intersections
/// and differences of these sets, so this type is the workhorse of the
/// whole framework. The interface follows the spirit of llvm::BitVector.
///
/// Three types share one set algebra:
///
///  - BitVector owns its words (a std::vector);
///  - BitRow is a mutable view of one word row that lives elsewhere,
///    typically a row of a DataflowMatrix (per-node problem and result
///    fields are rows of one flat matrix, not per-node objects);
///  - ConstBitRow is the read-only view, and the parameter type of every
///    binary operation, so any of the three mixes with any other.
///
/// A row view is a reference: assigning to a BitRow copies bits into
/// the row it views (it never rebinds), and copying a BitRow object
/// copies the view. Views do not keep their storage alive. Every row
/// honors the tail-word invariant: bits past size() in the last word
/// are zero.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_SUPPORT_BITVECTOR_H
#define GNT_SUPPORT_BITVECTOR_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

namespace gnt {

class ConstBitRow;

namespace detail {

using BitWord = std::uint64_t;
constexpr unsigned BitWordBits = 64;

inline unsigned bitWords(unsigned Bits) {
  return (Bits + BitWordBits - 1) / BitWordBits;
}

/// Index of the first set bit of \p Ws strictly after \p Prev, or -1.
inline int findNextBit(const BitWord *Ws, unsigned NumBits, int Prev) {
  unsigned Start = static_cast<unsigned>(Prev + 1);
  if (Start >= NumBits)
    return -1;
  unsigned WordIdx = Start / BitWordBits;
  BitWord W = Ws[WordIdx] & (~BitWord(0) << (Start % BitWordBits));
  const unsigned NumWords = bitWords(NumBits);
  while (true) {
    if (W)
      return static_cast<int>(WordIdx * BitWordBits + __builtin_ctzll(W));
    if (++WordIdx == NumWords)
      return -1;
    W = Ws[WordIdx];
  }
}

/// Read-only set queries; \p Derived supplies words() and size().
template <typename Derived> class BitSetRead {
public:
  using Word = BitWord;
  static constexpr unsigned WordBits = BitWordBits;

  /// Iterator over the indices of set bits, for range-for loops.
  class SetBitIterator {
  public:
    SetBitIterator(const Word *Ws, unsigned NumBits, int Idx)
        : Ws(Ws), NumBits(NumBits), Idx(Idx) {}
    unsigned operator*() const { return static_cast<unsigned>(Idx); }
    SetBitIterator &operator++() {
      Idx = findNextBit(Ws, NumBits, Idx);
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const { return Idx != RHS.Idx; }

  private:
    const Word *Ws;
    unsigned NumBits;
    int Idx;
  };

  /// Number of storage words.
  unsigned wordCount() const { return bitWords(self().size()); }

  /// Returns the value of bit \p Idx.
  bool test(unsigned Idx) const {
    assert(Idx < self().size() && "bit index out of range");
    return (self().words()[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  bool operator[](unsigned Idx) const { return test(Idx); }

  /// Returns true if any bit is set.
  bool any() const {
    const Word *W = self().words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      if (W[I])
        return true;
    return false;
  }

  /// Returns true if no bit is set.
  bool none() const { return !any(); }

  /// Returns true if every bit is set.
  bool all() const { return count() == self().size(); }

  /// Number of set bits.
  unsigned count() const {
    unsigned N = 0;
    const Word *W = self().words();
    for (unsigned I = 0, E = wordCount(); I != E; ++I)
      N += __builtin_popcountll(W[I]);
    return N;
  }

  /// Returns true if this and \p RHS share any set bit.
  bool anyCommon(ConstBitRow RHS) const;

  /// Returns true if every set bit of this is also set in \p RHS.
  bool isSubsetOf(ConstBitRow RHS) const;

  /// Index of the first set bit, or -1 if none.
  int findFirst() const { return findNext(-1); }

  /// Index of the first set bit strictly after \p Prev, or -1 if none.
  int findNext(int Prev) const {
    return findNextBit(self().words(), self().size(), Prev);
  }

  SetBitIterator begin() const {
    return SetBitIterator(self().words(), self().size(), findFirst());
  }
  SetBitIterator end() const {
    return SetBitIterator(self().words(), self().size(), -1);
  }

private:
  const Derived &self() const { return static_cast<const Derived &>(*this); }
};

/// Mutating set operations; \p Derived additionally supplies
/// wordsData(). Callers keep the tail-word invariant.
template <typename Derived> class BitSetWrite : public BitSetRead<Derived> {
public:
  using Word = BitWord;
  static constexpr unsigned WordBits = BitWordBits;

  /// Sets bit \p Idx.
  Derived &set(unsigned Idx) {
    assert(Idx < self().size() && "bit index out of range");
    self().wordsData()[Idx / WordBits] |= Word(1) << (Idx % WordBits);
    return self();
  }

  /// Sets all bits.
  Derived &set() {
    Word *W = self().wordsData();
    for (unsigned I = 0, E = this->wordCount(); I != E; ++I)
      W[I] = ~Word(0);
    clearExcessBits();
    return self();
  }

  /// Clears bit \p Idx.
  Derived &reset(unsigned Idx) {
    assert(Idx < self().size() && "bit index out of range");
    self().wordsData()[Idx / WordBits] &= ~(Word(1) << (Idx % WordBits));
    return self();
  }

  /// Clears all bits.
  Derived &reset() {
    Word *W = self().wordsData();
    for (unsigned I = 0, E = this->wordCount(); I != E; ++I)
      W[I] = 0;
    return self();
  }

  /// Complements every bit, respecting the tail-word invariant.
  Derived &flip() {
    Word *W = self().wordsData();
    for (unsigned I = 0, E = this->wordCount(); I != E; ++I)
      W[I] = ~W[I];
    clearExcessBits();
    return self();
  }

  /// Set union: this |= RHS.
  Derived &operator|=(ConstBitRow RHS);
  /// Set intersection: this &= RHS.
  Derived &operator&=(ConstBitRow RHS);
  /// Set difference: removes from this every bit set in \p RHS.
  Derived &reset(ConstBitRow RHS);

protected:
  /// Bits beyond size() in the last word must stay zero so that count()
  /// and operator== behave.
  void clearExcessBits() {
    unsigned NumBits = self().size();
    if (NumBits % WordBits != 0)
      self().wordsData()[NumBits / WordBits] &=
          ~Word(0) >> (WordBits - NumBits % WordBits);
  }

private:
  Derived &self() { return static_cast<Derived &>(*this); }
  const Derived &self() const { return static_cast<const Derived &>(*this); }
};

} // namespace detail

/// Read-only view of one packed word row of size() bits.
class ConstBitRow : public detail::BitSetRead<ConstBitRow> {
public:
  ConstBitRow() = default;
  ConstBitRow(const Word *Row, unsigned NumBits) : Row(Row), NumBits(NumBits) {}

  unsigned size() const { return NumBits; }
  const Word *words() const { return Row; }

private:
  const Word *Row = nullptr;
  unsigned NumBits = 0;
};

/// Mutable view of one packed word row. Assignment writes the row.
class BitRow : public detail::BitSetWrite<BitRow> {
public:
  BitRow(Word *Row, unsigned NumBits) : Row(Row), NumBits(NumBits) {}

  /// Copying a BitRow object copies the view, not the bits.
  BitRow(const BitRow &) = default;

  /// Assignment copies \p RHS's bits into the viewed row; it never
  /// rebinds the view. Sizes must match.
  BitRow &operator=(ConstBitRow RHS) {
    assert(RHS.size() == NumBits && "size mismatch");
    if (RHS.words() != Row && NumBits)
      std::memcpy(Row, RHS.words(), wordCount() * sizeof(Word));
    return *this;
  }
  BitRow &operator=(const BitRow &RHS) {
    return *this = ConstBitRow(RHS.Row, RHS.NumBits);
  }

  operator ConstBitRow() const { return ConstBitRow(Row, NumBits); }

  unsigned size() const { return NumBits; }
  const Word *words() const { return Row; }
  Word *wordsData() const { return Row; }

private:
  Word *Row;
  unsigned NumBits;
};

/// Dense bit vector with set-algebra operations, owning its words.
///
/// The vector has a fixed logical size (number of bits) established at
/// construction or via resize(); all binary operations require both
/// operands to have the same size.
class BitVector : public detail::BitSetWrite<BitVector> {
public:
  BitVector() = default;

  /// Creates a vector of \p NumBits bits, all initialized to \p Value.
  explicit BitVector(unsigned NumBits, bool Value = false) {
    resize(NumBits, Value);
  }

  /// Copies the bits of a row into owned storage.
  explicit BitVector(ConstBitRow R)
      : Owned(R.words(), R.words() + R.wordCount()), NumBits(R.size()) {}

  BitVector(const BitVector &) = default;
  BitVector(BitVector &&) = default;
  BitVector &operator=(const BitVector &) = default;
  BitVector &operator=(BitVector &&) = default;

  /// Replaces the contents (and size) with a copy of \p R's bits.
  BitVector &operator=(ConstBitRow R) {
    if (R.words() != Owned.data())
      Owned.assign(R.words(), R.words() + R.wordCount());
    NumBits = R.size();
    return *this;
  }

  operator ConstBitRow() const { return ConstBitRow(Owned.data(), NumBits); }

  /// Creates a vector of \p NumBits bits initialized from the packed
  /// words at \p Src (numWords(NumBits) of them). Bits of the last word
  /// beyond \p NumBits are ignored.
  static BitVector fromWords(const Word *Src, unsigned NumBits) {
    // Single-write construction: assign copies the source words without
    // the zero-fill a resize-then-overwrite would do.
    BitVector R;
    R.Owned.assign(Src, Src + detail::bitWords(NumBits));
    R.NumBits = NumBits;
    R.clearExcessBits();
    return R;
  }

  /// Number of bits in the vector.
  unsigned size() const { return NumBits; }

  /// Grows or shrinks the vector to \p NewSize bits; new bits get \p Value.
  void resize(unsigned NewSize, bool Value = false) {
    unsigned OldSize = NumBits;
    Owned.resize(detail::bitWords(NewSize), Value ? ~Word(0) : Word(0));
    NumBits = NewSize;
    if (Value && OldSize < NewSize && OldSize % WordBits != 0) {
      // The old partial tail word must have its fresh high bits set.
      Owned[OldSize / WordBits] |= ~Word(0) << (OldSize % WordBits);
    }
    clearExcessBits();
  }

  /// Read-only view of the packed words. Bits beyond size() in the last
  /// word are guaranteed zero (the tail-word invariant).
  const Word *words() const { return Owned.data(); }

  /// Mutable view of the packed words, for word-granular writers.
  /// Callers must keep the tail-word invariant: bits beyond size() stay
  /// zero.
  Word *wordsData() { return Owned.data(); }

  /// Returns the word-aligned sub-vector of \p SliceBits bits starting
  /// at word \p FirstWord (bit FirstWord * 64). The slice's words must
  /// all exist.
  BitVector sliceWords(unsigned FirstWord, unsigned SliceBits) const {
    assert(FirstWord + detail::bitWords(SliceBits) <= wordCount() &&
           "slice out of range");
    return fromWords(words() + FirstWord, SliceBits);
  }

private:
  std::vector<Word> Owned;
  unsigned NumBits = 0;
};

inline bool operator==(ConstBitRow A, ConstBitRow B) {
  assert(A.size() == B.size() && "size mismatch");
  const unsigned N = A.wordCount();
  return N == 0 ||
         std::memcmp(A.words(), B.words(), N * sizeof(ConstBitRow::Word)) == 0;
}
inline bool operator!=(ConstBitRow A, ConstBitRow B) { return !(A == B); }

namespace detail {

template <typename Derived>
bool BitSetRead<Derived>::anyCommon(ConstBitRow RHS) const {
  assert(self().size() == RHS.size() && "size mismatch");
  const Word *A = self().words();
  const Word *B = RHS.words();
  for (unsigned I = 0, E = wordCount(); I != E; ++I)
    if (A[I] & B[I])
      return true;
  return false;
}

template <typename Derived>
bool BitSetRead<Derived>::isSubsetOf(ConstBitRow RHS) const {
  assert(self().size() == RHS.size() && "size mismatch");
  const Word *A = self().words();
  const Word *B = RHS.words();
  for (unsigned I = 0, E = wordCount(); I != E; ++I)
    if (A[I] & ~B[I])
      return false;
  return true;
}

template <typename Derived>
Derived &BitSetWrite<Derived>::operator|=(ConstBitRow RHS) {
  assert(self().size() == RHS.size() && "size mismatch");
  Word *W = self().wordsData();
  const Word *R = RHS.words();
  for (unsigned I = 0, E = this->wordCount(); I != E; ++I)
    W[I] |= R[I];
  return self();
}

template <typename Derived>
Derived &BitSetWrite<Derived>::operator&=(ConstBitRow RHS) {
  assert(self().size() == RHS.size() && "size mismatch");
  Word *W = self().wordsData();
  const Word *R = RHS.words();
  for (unsigned I = 0, E = this->wordCount(); I != E; ++I)
    W[I] &= R[I];
  return self();
}

template <typename Derived>
Derived &BitSetWrite<Derived>::reset(ConstBitRow RHS) {
  assert(self().size() == RHS.size() && "size mismatch");
  Word *W = self().wordsData();
  const Word *R = RHS.words();
  for (unsigned I = 0, E = this->wordCount(); I != E; ++I)
    W[I] &= ~R[I];
  return self();
}

} // namespace detail

/// Returns A | B as a new vector.
inline BitVector unionOf(ConstBitRow A, ConstBitRow B) {
  BitVector R(A);
  R |= B;
  return R;
}

/// Returns A & B as a new vector.
inline BitVector intersectionOf(ConstBitRow A, ConstBitRow B) {
  BitVector R(A);
  R &= B;
  return R;
}

/// Returns A - B (set difference) as a new vector.
inline BitVector differenceOf(ConstBitRow A, ConstBitRow B) {
  BitVector R(A);
  R.reset(B);
  return R;
}

} // namespace gnt

#endif // GNT_SUPPORT_BITVECTOR_H
