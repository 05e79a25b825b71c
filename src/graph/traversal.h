// Copyright 2026 The claks Authors.
//
// Traversal primitives over the data graph: BFS distances, shortest paths
// and bounded simple-path enumeration. The connection enumerator in
// core/enumerator.h is built on these.

#ifndef CLAKS_GRAPH_TRAVERSAL_H_
#define CLAKS_GRAPH_TRAVERSAL_H_

#include <functional>
#include <vector>

#include "graph/data_graph.h"

namespace claks {

/// One traversal step: the adjacency entry taken. A node path of k+1 nodes
/// has k steps.
struct PathStep {
  DataAdjacency adjacency;
};

/// A simple path in the data graph: start node + steps.
struct NodePath {
  uint32_t start = 0;
  std::vector<DataAdjacency> steps;

  size_t length() const { return steps.size(); }

  /// All node ids along the path, start first.
  std::vector<uint32_t> Nodes() const;

  uint32_t End() const {
    return steps.empty() ? start : steps.back().neighbor;
  }
};

/// BFS distances (edge counts) from `source` to every node; SIZE_MAX when
/// unreachable.
std::vector<size_t> BfsDistances(const DataGraph& graph, uint32_t source);

/// Multi-source BFS: distance to the nearest of `sources`.
std::vector<size_t> BfsDistances(const DataGraph& graph,
                                 const std::vector<uint32_t>& sources);

/// One shortest path between two nodes (BFS tree), or nullopt when
/// disconnected.
std::optional<NodePath> ShortestPath(const DataGraph& graph, uint32_t from,
                                     uint32_t to);

/// Enumerates every simple path from `from` to `to` with at most
/// `max_edges` edges, shortest first. `max_results` caps the output
/// (0 = unlimited).
std::vector<NodePath> EnumerateSimplePaths(const DataGraph& graph,
                                           uint32_t from, uint32_t to,
                                           size_t max_edges,
                                           size_t max_results = 0);

/// Enumerates every simple path from a node in `sources` to a node in
/// `targets` (node-disjoint endpoints) with at most `max_edges` edges.
std::vector<NodePath> EnumerateSimplePathsBetweenSets(
    const DataGraph& graph, const std::vector<uint32_t>& sources,
    const std::vector<uint32_t>& targets, size_t max_edges,
    size_t max_results = 0);

}  // namespace claks

#endif  // CLAKS_GRAPH_TRAVERSAL_H_
