//===- baseline/LazyCodeMotion.h - Classical PRE baseline -------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Knoop/Rüthing/Steffen lazy code motion (PLDI '92), the state of the
/// art the paper positions GIVE-N-TAKE against. Implemented as a classic
/// *iterative* bitvector dataflow over the CFG (edge-based placement; our
/// graphs have no critical edges, so each insertion edge maps to a unique
/// node entry or exit).
///
/// Differences from GIVE-N-TAKE, by design (Section 1):
///  - atomic: one placement point per computation — when used for
///    communication, send and receive are fused and nothing hides latency;
///  - safety-first: never hoists out of potentially zero-trip loops, so
///    loop-invariant communication stays inside DO loops;
///  - elimination-unaware of side effects beyond plain availability.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_BASELINE_LAZYCODEMOTION_H
#define GNT_BASELINE_LAZYCODEMOTION_H

#include "comm/CommGen.h"
#include "support/BitVector.h"

namespace gnt {

/// Raw LCM dataflow results (exposed for unit tests).
struct LcmResult {
  std::vector<BitVector> AntIn, AntOut;   ///< Anticipability.
  std::vector<BitVector> AvIn, AvOut;     ///< Availability.
  /// Insertions: InsertAtEntry[n] places at the entry of n (single-pred
  /// edge targets), InsertAtExit[n] at the exit of n (single-succ edge
  /// sources).
  std::vector<BitVector> InsertAtEntry, InsertAtExit;
  /// Original occurrences that remain (act as their own placement).
  std::vector<BitVector> KeptOccurrences;
  /// Original occurrences proven redundant.
  std::vector<BitVector> Deleted;
  /// Number of fixed-point iterations the iterative solver needed (for
  /// the complexity comparison against the elimination solver).
  unsigned Iterations = 0;
};

/// Runs LCM over \p G for a universe of \p UniverseSize items with
/// per-node local predicates: \p Antloc (occurrence at n), \p Transp
/// (n does not kill), \p Comp (n makes the item available at its exit).
LcmResult lazyCodeMotion(const Cfg &G, unsigned UniverseSize,
                         const BitRows &Antloc, const BitRows &Transp,
                         const BitRows &Comp);

/// Communication placement via LCM: atomic READ operations at the LCM
/// placement points; write-backs fall back to the naive per-definition
/// pairs (classical PRE has no AFTER-problem counterpart).
CommPlan lcmPlacement(const Program &P, const Cfg &G,
                      const IntervalFlowGraph &Ifg);

} // namespace gnt

#endif // GNT_BASELINE_LAZYCODEMOTION_H
