//===- dataflow/Lospre.h - Linear-time lospre on intervals ------*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lospre-style (lifetime-optimal speculative PRE, after Krause's
/// "lospre in linear time") placement formulation solved by *elimination*
/// over the interval flow graph instead of iteration over the CFG. Both
/// dataflow problems LCM needs — must-anticipability and
/// must-availability — are instances of one generic shape:
///
///   In(n)  = meet over predecessors of Out(p)      (must / intersection)
///   Out(n) = (In(n) n T(n)) u C(n)
///
/// Transfer functions of that shape are closed under composition and
/// under meet, so each node's In value can be expressed as a linear
/// function (T, C) of its enclosing header's In value and every interval
/// collapses to one closed-form summary: a single bottom-up sweep
/// (reverse preorder) builds the per-node functions and per-interval
/// loop closures, and a single top-down sweep (preorder) concretizes
/// them — O(E) set operations total, the same complexity class as the
/// GIVE-N-TAKE solver, with all working rows living in one flat
/// DataflowMatrix arena. JUMP and SYNTHETIC edges contribute the
/// constant-bottom function, a sound (conservative) treatment of
/// unstructured exits; on jump-free graphs the solution equals the
/// iterative MFP exactly (pinned against LazyCodeMotion by test).
///
/// Insertion uses busy code motion: the EARLIEST edge predicate over the
/// real CFG edges, mapped to node entries/exits exactly like the LCM
/// baseline. Earliest insertions cover every original occurrence, so no
/// kept occurrences are needed.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_DATAFLOW_LOSPRE_H
#define GNT_DATAFLOW_LOSPRE_H

#include "dataflow/GiveNTake.h"
#include "support/BitVector.h"

namespace gnt {

/// One generic must-problem solution in the *solving* orientation of the
/// graph it ran on (for a reversed graph, In is the program-order out).
struct IntervalMustSolution {
  std::vector<BitVector> In, Out;
};

/// Solves In = meet(preds Out), Out = (In n T) u C over \p Ifg by
/// interval elimination. \p Transp and \p Comp are indexed by node id in
/// the solving orientation (they are per-node predicates, so orientation
/// does not change them). The boundary value at ROOT's in is bottom.
IntervalMustSolution solveIntervalMust(const IntervalFlowGraph &Ifg,
                                       const BitRows &Transp,
                                       const BitRows &Comp);

/// Full lospre dataflow for a READ (Before) problem: anticipability and
/// availability plus the busy-code-motion insertion points.
struct LospreResult {
  std::vector<BitVector> AntIn, AntOut; ///< Must-anticipability.
  std::vector<BitVector> AvIn, AvOut;   ///< Must-availability.
  /// Edge insertions mapped to the unique node point each CFG edge owns
  /// (same mapping as the LCM baseline; our graphs have no critical
  /// edges).
  std::vector<BitVector> InsertAtEntry, InsertAtExit;
};

/// Runs the two elimination solves for \p Read's predicates (ANTLOC =
/// TAKE_init, TRANSP = ~STEAL_init, COMP = TAKE_init u GIVE_init) and
/// computes EARLIEST insertions. \p Ifg must be the forward graph.
LospreResult solveLospre(const Cfg &G, const IntervalFlowGraph &Ifg,
                         const GntProblem &Read);

} // namespace gnt

#endif // GNT_DATAFLOW_LOSPRE_H
