//===- interval/IntervalFlowGraph.h - Paper Section 3.3 graph ---*- C++ -*-===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interval flow graph G = (N, E) of Section 3.3: a reducible CFG
/// whose edges are classified as ENTRY, CYCLE, JUMP or FORWARD, extended
/// with SYNTHETIC edges that project each JUMP edge onto the headers of
/// the intervals it leaves. Construction normalizes the CFG so that:
///
///  - every interval has exactly one CYCLE edge, whose source
///    (LASTCHILD) is a direct interval member with no other successors;
///  - every header has exactly one ENTRY successor (the entry child) —
///    stronger than the paper requires for BEFORE problems, but it makes
///    the reversed graph used for AFTER problems satisfy the unique-CYCLE
///    rule mechanically (Section 5.3);
///  - no critical edges remain (synthetic nodes are inserted).
///
/// The CFG entry node acts as ROOT, a level-0 header for the whole
/// program. The class also provides the traversal machinery of Section
/// 3.4: a PREORDER numbering (FORWARD and DOWNWARD) and per-interval
/// forward-ordered children lists.
///
//===----------------------------------------------------------------------===//

#ifndef GNT_INTERVAL_INTERVALFLOWGRAPH_H
#define GNT_INTERVAL_INTERVALFLOWGRAPH_H

#include "cfg/Cfg.h"

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gnt {

/// Edge classification of Section 3.3.
enum class EdgeType {
  Entry,     ///< Header into its interval.
  Cycle,     ///< Interval member back to its header.
  Jump,      ///< Out of a loop, not to the header.
  Forward,   ///< Within one interval (between siblings).
  Synthetic, ///< Header of a jumped-out-of interval to the jump sink.
};

/// A typed edge of the interval flow graph.
struct IfgEdge {
  NodeId Src = InvalidNode;
  NodeId Dst = InvalidNode;
  EdgeType Type = EdgeType::Forward;
};

struct IfgBuildResult;

/// The interval flow graph. Node ids are shared with the underlying Cfg.
class IntervalFlowGraph {
public:
  using BuildResult = IfgBuildResult;

  /// Builds the interval flow graph of \p G, normalizing \p G in place
  /// (latch/entry-child insertion and critical-edge splitting may add
  /// synthetic nodes). Fails on irreducible graphs.
  static BuildResult build(Cfg &G);

  unsigned size() const { return static_cast<unsigned>(Level.size()); }
  NodeId root() const { return Root; }

  /// Loop nesting level; LEVEL(ROOT) = 0.
  unsigned level(NodeId N) const { return Level[N]; }

  /// Header of the immediately enclosing interval J(n); InvalidNode for
  /// ROOT.
  NodeId parent(NodeId N) const { return Parent[N]; }

  /// True for loop headers and for ROOT.
  bool isHeader(NodeId N) const {
    return ChildOff[N] != ChildOff[N + 1] || N == Root;
  }

  /// LASTCHILD(h): the source of the unique CYCLE edge into \p H. For
  /// ROOT (which has no CYCLE edge) this is the program exit node.
  NodeId lastChild(NodeId H) const { return LastChild[H]; }

  /// HEADER(n): the source of the ENTRY edge into \p N, or InvalidNode.
  NodeId headerOf(NodeId N) const { return HeaderOf[N]; }

  /// CHILDREN(h) in FORWARD order (per-interval topological order).
  std::span<const NodeId> children(NodeId H) const {
    return {ChildList.data() + ChildOff[H], ChildOff[H + 1] - ChildOff[H]};
  }

  /// Typed out-edges of \p N: CFG successor order, then SYNTHETIC edges.
  std::span<const IfgEdge> succs(NodeId N) const {
    return {SuccList.data() + SuccOff[N], SuccOff[N + 1] - SuccOff[N]};
  }
  /// Typed in-edges of \p N, ordered by source node and then by the
  /// source's succs() order (the transpose of succs()).
  std::span<const IfgEdge> preds(NodeId N) const {
    return {PredList.data() + PredOff[N], PredOff[N + 1] - PredOff[N]};
  }

  /// Nodes in PREORDER (FORWARD and DOWNWARD); ROOT first.
  const std::vector<NodeId> &preorder() const { return Preorder; }

  /// True if the graph contains any JUMP edge.
  bool hasJumpEdges() const { return !PoisonedHeaders.empty(); }

  /// Headers of every interval that some JUMP edge leaves. When solving
  /// an AFTER problem these intervals must not hoist production
  /// (Section 5.3); the problem driver seeds STEAL_init = TOP for them.
  const std::vector<NodeId> &jumpPoisonedHeaders() const {
    return PoisonedHeaders;
  }

  /// Returns the reversed graph used for AFTER problems: same nodes, same
  /// interval structure (Section 5.3), edges reversed with ENTRY and
  /// CYCLE swapped. reversed().succs(n) is preds(n) with every edge
  /// flipped, and reversed().reversed() equals the graph on every
  /// accessor.
  IntervalFlowGraph reversed() const;

  /// True for graphs produced by reversed().
  bool isReversed() const { return Reversed; }

  /// Renders nodes with their levels, interval memberships and typed
  /// edges; for debugging and the documentation.
  std::string describe(const Cfg &G) const;

private:
  /// Lays \p Edges (in insertion order) out as the succs/preds CSR
  /// arrays: a stable counting sort by source, then its transpose.
  void compactEdges(const std::vector<IfgEdge> &Edges);

  void computePreorder();

  NodeId Root = InvalidNode;
  NodeId Exit = InvalidNode; ///< Program exit: LASTCHILD(ROOT) when forward.
  bool Reversed = false;
  std::vector<unsigned> Level;
  std::vector<NodeId> Parent;
  std::vector<NodeId> LastChild;
  std::vector<NodeId> HeaderOf;
  // Adjacency in CSR form: node N's entries are List[Off[N], Off[N + 1]).
  std::vector<unsigned> ChildOff;
  std::vector<NodeId> ChildList;
  std::vector<unsigned> SuccOff;
  std::vector<IfgEdge> SuccList;
  std::vector<unsigned> PredOff;
  std::vector<IfgEdge> PredList;
  std::vector<NodeId> Preorder;
  std::vector<NodeId> PoisonedHeaders;
};

/// Outcome of IntervalFlowGraph::build().
struct IfgBuildResult {
  std::optional<IntervalFlowGraph> Ifg;
  std::vector<std::string> Errors;

  bool success() const { return Ifg.has_value(); }
};

/// Spelled-out edge type name ("ENTRY", "CYCLE", ...).
const char *edgeTypeName(EdgeType T);

class LoopForest;

/// One normalization round of IntervalFlowGraph::build() on \p G, whose
/// loop forest is \p Forest; returns true if the CFG changed. build()
/// alternates rounds with loop forest recomputation until a fixed point.
bool normalizeOnce(Cfg &G, const LoopForest &Forest);

} // namespace gnt

#endif // GNT_INTERVAL_INTERVALFLOWGRAPH_H
