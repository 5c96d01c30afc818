//===- interval/LoopForest.cpp - Tarjan interval (loop) forest --------------===//
//
// Part of the GIVE-N-TAKE reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "interval/LoopForest.h"

#include "support/Support.h"

#include <cassert>

using namespace gnt;

std::optional<LoopForest> LoopForest::compute(const Cfg &G,
                                              const Dominators &Dom,
                                              std::vector<std::string> &Errors) {
  unsigned N = G.size();
  LoopForest F;
  F.Root = G.entry();
  F.Parent.assign(N, InvalidNode);
  F.Level.assign(N, 1);
  F.BackEdgeSources.assign(N, {});
  F.Level[F.Root] = 0;

  // Find retreating edges: an edge (m, h) where h is on the DFS stack when
  // m is visited. In a reducible graph every retreating edge is a back
  // edge, i.e. h dominates m.
  std::vector<char> State(N, 0); // 0 = unvisited, 1 = on stack, 2 = done.
  {
    std::vector<std::pair<NodeId, unsigned>> Stack;
    Stack.push_back({F.Root, 0});
    State[F.Root] = 1;
    while (!Stack.empty()) {
      auto &[Node, NextSucc] = Stack.back();
      const auto &Succs = G.node(Node).Succs;
      if (NextSucc < Succs.size()) {
        NodeId S = Succs[NextSucc++];
        if (State[S] == 0) {
          State[S] = 1;
          Stack.push_back({S, 0});
        } else if (State[S] == 1) {
          // Retreating edge Node -> S.
          if (S == Node) {
            Errors.push_back("self loop at node " + describeNode(G, Node));
            return std::nullopt;
          }
          if (!Dom.dominates(S, Node)) {
            Errors.push_back("irreducible control flow: retreating edge " +
                             describeNode(G, Node) + " -> " +
                             describeNode(G, S) +
                             " targets a non-dominator");
            return std::nullopt;
          }
          F.BackEdgeSources[S].push_back(Node);
        }
        continue;
      }
      State[Node] = 2;
      Stack.pop_back();
    }
  }

  // Natural loops, innermost first. A header dominates its loop, so in
  // decreasing reverse-postorder number every inner header comes before
  // the headers enclosing it. Each header's backward walk from its back
  // edge sources claims the unclaimed nodes it reaches; an already claimed
  // node stands for its whole collapsed loop, and the union-find resolves
  // it to the outermost header claimed so far. Every loop member is
  // claimed once, by its innermost header. This relies on the
  // retreating-edge check above (reducibility) and on every node being
  // reachable from ROOT.
  std::vector<NodeId> Outer(N);
  for (NodeId Node = 0; Node != N; ++Node)
    Outer[Node] = Node;
  auto find = [&Outer](NodeId Node) {
    NodeId Top = Node;
    while (Outer[Top] != Top)
      Top = Outer[Top];
    while (Outer[Node] != Top) {
      NodeId Next = Outer[Node];
      Outer[Node] = Top;
      Node = Next;
    }
    return Top;
  };
  const std::vector<NodeId> &Rpo = Dom.reversePostorder();
  std::vector<NodeId> Work;
  for (auto It = Rpo.rbegin(); It != Rpo.rend(); ++It) {
    NodeId H = *It;
    if (!F.isHeader(H))
      continue;
    assert(Outer[H] == H && "an enclosing header was visited first");
    Work = F.BackEdgeSources[H];
    while (!Work.empty()) {
      NodeId M = find(Work.back());
      Work.pop_back();
      if (M == H)
        continue;
      F.Parent[M] = H;
      Outer[M] = H;
      for (NodeId P : G.node(M).Preds)
        Work.push_back(P);
    }
  }

  // A header precedes the members of its loop in reverse postorder, so
  // one pass in that order resolves every level from its parent's.
  for (NodeId Node : Rpo) {
    if (Node == F.Root)
      continue;
    if (F.Parent[Node] == InvalidNode)
      F.Parent[Node] = F.Root;
    F.Level[Node] = F.Level[F.Parent[Node]] + 1;
  }

  return F;
}

bool LoopForest::contains(NodeId H, NodeId N) const {
  if (N == H || N == InvalidNode)
    return false;
  NodeId Cur = Parent[N];
  while (Cur != InvalidNode) {
    if (Cur == H)
      return true;
    if (Cur == Root)
      return H == Root;
    Cur = Parent[Cur];
  }
  return false;
}
