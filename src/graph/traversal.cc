// Copyright 2026 The claks Authors.

#include "graph/traversal.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "common/macros.h"

namespace claks {

std::vector<uint32_t> NodePath::Nodes() const {
  std::vector<uint32_t> out;
  out.reserve(steps.size() + 1);
  out.push_back(start);
  for (const DataAdjacency& step : steps) out.push_back(step.neighbor);
  return out;
}

std::vector<size_t> BfsDistances(const DataGraph& graph, uint32_t source) {
  return BfsDistances(graph, std::vector<uint32_t>{source});
}

std::vector<size_t> BfsDistances(const DataGraph& graph,
                                 const std::vector<uint32_t>& sources) {
  std::vector<size_t> dist(graph.node_id_bound(), SIZE_MAX);
  std::deque<uint32_t> queue;
  for (uint32_t s : sources) {
    CLAKS_CHECK_LT(s, graph.node_id_bound());
    if (dist[s] == SIZE_MAX) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    uint32_t cur = queue.front();
    queue.pop_front();
    for (const DataAdjacency& adj : graph.Neighbors(cur)) {
      if (dist[adj.neighbor] != SIZE_MAX) continue;
      dist[adj.neighbor] = dist[cur] + 1;
      queue.push_back(adj.neighbor);
    }
  }
  return dist;
}

std::optional<NodePath> ShortestPath(const DataGraph& graph, uint32_t from,
                                     uint32_t to) {
  if (from == to) return NodePath{from, {}};
  std::vector<std::optional<DataAdjacency>> parent_step(
      graph.node_id_bound());
  std::vector<uint32_t> parent(graph.node_id_bound(), UINT32_MAX);
  std::deque<uint32_t> queue{from};
  std::vector<bool> seen(graph.node_id_bound(), false);
  seen[from] = true;
  while (!queue.empty()) {
    uint32_t cur = queue.front();
    queue.pop_front();
    for (const DataAdjacency& adj : graph.Neighbors(cur)) {
      if (seen[adj.neighbor]) continue;
      seen[adj.neighbor] = true;
      parent[adj.neighbor] = cur;
      parent_step[adj.neighbor] = adj;
      if (adj.neighbor == to) {
        // Reconstruct.
        std::vector<DataAdjacency> reversed;
        uint32_t node = to;
        while (node != from) {
          reversed.push_back(*parent_step[node]);
          node = parent[node];
        }
        NodePath path{from, {}};
        path.steps.assign(reversed.rbegin(), reversed.rend());
        return path;
      }
      queue.push_back(adj.neighbor);
    }
  }
  return std::nullopt;
}

namespace {

struct PathEnumerator {
  const DataGraph& graph;
  size_t max_edges;
  size_t max_results;
  const std::unordered_set<uint32_t>* targets;
  std::vector<NodePath>* out;
  std::vector<DataAdjacency> prefix;
  std::vector<bool> on_path;
  uint32_t start = 0;

  bool Full() const {
    return max_results != 0 && out->size() >= max_results;
  }

  void Recurse(uint32_t current) {
    if (Full()) return;
    if (!prefix.empty() && targets->count(current) > 0) {
      out->push_back(NodePath{start, prefix});
      // A simple path may continue through a target only if targets can be
      // interior — for keyword search the path ends at the first matched
      // target, matching the paper's connections (endpoints carry the
      // keywords). So stop here.
      return;
    }
    if (prefix.size() >= max_edges) return;
    for (const DataAdjacency& adj : graph.Neighbors(current)) {
      if (on_path[adj.neighbor]) continue;
      on_path[adj.neighbor] = true;
      prefix.push_back(adj);
      Recurse(adj.neighbor);
      prefix.pop_back();
      on_path[adj.neighbor] = false;
      if (Full()) return;
    }
  }
};

}  // namespace

std::vector<NodePath> EnumerateSimplePaths(const DataGraph& graph,
                                           uint32_t from, uint32_t to,
                                           size_t max_edges,
                                           size_t max_results) {
  return EnumerateSimplePathsBetweenSets(graph, {from}, {to}, max_edges,
                                         max_results);
}

std::vector<NodePath> EnumerateSimplePathsBetweenSets(
    const DataGraph& graph, const std::vector<uint32_t>& sources,
    const std::vector<uint32_t>& targets, size_t max_edges,
    size_t max_results) {
  std::vector<NodePath> out;
  std::unordered_set<uint32_t> target_set(targets.begin(), targets.end());
  // One enumerator serves every source: Recurse restores on_path and the
  // prefix on the way out, so only the source's own bit needs clearing.
  PathEnumerator enumerator{graph,       max_edges, max_results,
                            &target_set, &out,      {},
                            std::vector<bool>(graph.node_id_bound(), false),
                            /*start=*/0};
  for (uint32_t source : sources) {
    if (enumerator.Full()) break;
    if (target_set.count(source) > 0) {
      // A single tuple containing both keywords is a length-0 connection.
      out.push_back(NodePath{source, {}});
      continue;
    }
    enumerator.start = source;
    enumerator.on_path[source] = true;
    enumerator.Recurse(source);
    enumerator.on_path[source] = false;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const NodePath& a, const NodePath& b) {
                     return a.length() < b.length();
                   });
  return out;
}

}  // namespace claks
