//===- comm/RefAnalysis.h - Reference analysis for communication -*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Computes, per CFG node, the distributed-array sections referenced and
/// defined, normalizing subscripts against the enclosing loop nest into
/// canonical sections (`x(k+10)` inside `do k = 1, n` becomes
/// `x(11:n+10)`). This is the reproduction's stand-in for the Fortran D
/// compiler's symbolic reference analysis; GIVE-N-TAKE itself only ever
/// sees the resulting TAKE/GIVE/STEAL_init bit vectors.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_COMM_REFANALYSIS_H
#define GNT_COMM_REFANALYSIS_H

#include "cfg/Cfg.h"
#include "comm/Items.h"

#include <map>
#include <unordered_map>
#include <vector>

namespace gnt {

/// References attributed to one CFG node.
struct NodeRefs {
  /// Items read at this node (operands needing a READ).
  std::vector<unsigned> Uses;
  /// Items of distributed arrays defined at this node (needing a WRITE
  /// under non-owner-computes).
  std::vector<unsigned> Defs;
  /// Parallel to Defs: 0 for a plain store, '+' or '*' for a reduction
  /// `a(s) = a(s) op ...` (the paper's Section 6 "WRITEs combined with
  /// different reduction operations"). Reduction definitions accumulate
  /// locally: the self-reference needs no READ and the definition gives
  /// nothing for free (the local partial value is not the global value).
  std::vector<char> DefOps;
};

/// A definition of any array (distributed or not), kept for steal
/// computation: writing an indirection array invalidates items subscripted
/// through it.
struct RawDef {
  std::string Array;
  Section Sec;
  bool Opaque = false;    ///< Unknown section: overlaps everything.
  bool Reduction = false; ///< Accumulation: nothing is given for free.
};

/// Result of the analysis.
struct RefAnalysisResult {
  ItemTable Items;
  std::vector<NodeRefs> PerNode;             ///< Indexed by NodeId.
  std::vector<std::vector<RawDef>> ArrayDefs; ///< All array defs per node.
  /// Scalars assigned somewhere, with the nodes assigning them.
  std::map<std::string, std::vector<NodeId>> ScalarAssigns;

  /// Maps statements to the node evaluating them (assigns and continues
  /// to their Stmt node, IFs to their Branch node, DOs to their header).
  std::unordered_map<const Stmt *, NodeId> StmtNode;
};

/// Analyzes \p P over its CFG \p G.
RefAnalysisResult analyzeReferences(const Program &P, const Cfg &G);

} // namespace gnt

#endif // GNT_COMM_REFANALYSIS_H
