// Copyright 2026 The claks Authors.

#include "oracle/mtjnt_oracle.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>

#include "common/macros.h"

namespace claks {
namespace oracle {
namespace {

struct GrowState {
  const DataGraph* graph;
  const std::map<TupleId, uint32_t>* masks;
  uint32_t num_keywords;
  size_t tmax;
  std::set<std::vector<uint32_t>> visited;  // canonical partial keys
  std::set<TupleTree> results;

  void Grow(std::set<uint32_t>* nodes, std::set<uint32_t>* edges) {
    std::vector<uint32_t> key;
    if (edges->empty()) {
      key.push_back(0x80000000u | *nodes->begin());
    } else {
      key.assign(edges->begin(), edges->end());
    }
    if (!visited.insert(key).second) return;

    TupleTree tree;
    tree.nodes.assign(nodes->begin(), nodes->end());
    tree.edge_indices.assign(edges->begin(), edges->end());
    if (IsMinimalTotal(*graph, tree, *masks, num_keywords)) {
      results.insert(tree);
    }
    if (nodes->size() >= tmax) return;

    // Expand by one frontier edge. Copy the node list to keep iteration
    // stable while mutating the sets.
    std::vector<uint32_t> current(nodes->begin(), nodes->end());
    for (uint32_t node : current) {
      for (const DataAdjacency& adj : graph->Neighbors(node)) {
        if (nodes->count(adj.neighbor) > 0) continue;  // no cycles
        nodes->insert(adj.neighbor);
        edges->insert(adj.edge_index);
        Grow(nodes, edges);
        edges->erase(adj.edge_index);
        nodes->erase(adj.neighbor);
      }
    }
  }
};

// BFS order over CN nodes from node 0 so each node after the first has a
// CN edge (`via_edge`) to an already-placed node.
void OrderCnNodes(const CandidateNetwork& cn, std::vector<uint32_t>* order,
                  std::vector<std::optional<uint32_t>>* via_edge) {
  order->assign(1, 0);
  via_edge->assign(cn.nodes.size(), std::nullopt);
  std::vector<bool> placed(cn.nodes.size(), false);
  placed[0] = true;
  while (order->size() < cn.nodes.size()) {
    bool progressed = false;
    for (uint32_t e = 0; e < cn.edges.size(); ++e) {
      const auto& edge = cn.edges[e];
      if (placed[edge.a] && !placed[edge.b]) {
        placed[edge.b] = true;
        (*via_edge)[edge.b] = e;
        order->push_back(edge.b);
        progressed = true;
      } else if (placed[edge.b] && !placed[edge.a]) {
        placed[edge.a] = true;
        (*via_edge)[edge.a] = e;
        order->push_back(edge.a);
        progressed = true;
      }
    }
    CLAKS_CHECK(progressed);  // CN must be connected
  }
}

uint32_t TupleMask(const std::map<TupleId, uint32_t>& masks, TupleId id) {
  auto it = masks.find(id);
  return it == masks.end() ? 0u : it->second;
}

}  // namespace

std::vector<TupleTree> EnumerateMtjnt(
    const DataGraph& graph, const std::vector<KeywordMatches>& matches,
    size_t tmax) {
  if (matches.empty() || !AllKeywordsMatched(matches)) return {};
  auto masks = ComputeKeywordMasks(matches);
  GrowState state{&graph, &masks, static_cast<uint32_t>(matches.size()),
                  tmax,   {},     {}};
  // Every total tree contains a tuple matching keyword 0; seed from those.
  for (const TupleMatch& m : matches[0].matches) {
    std::set<uint32_t> nodes{graph.NodeOf(m.tuple)};
    std::set<uint32_t> edges;
    state.Grow(&nodes, &edges);
  }
  return std::vector<TupleTree>(state.results.begin(), state.results.end());
}

// Candidate tuple sets built by scanning every CN node's table, join steps
// answered by filtering the anchor's adjacency, membership checked with
// linear find.
std::vector<TupleTree> EvaluateCandidateNetworkScan(
    const DataGraph& graph, const CandidateNetwork& cn,
    const std::map<TupleId, uint32_t>& masks, uint32_t num_keywords) {
  const Database& db = graph.database();
  std::vector<std::vector<uint32_t>> candidates(cn.nodes.size());
  for (size_t i = 0; i < cn.nodes.size(); ++i) {
    const CnNode& node = cn.nodes[i];
    const Table& table = db.table(node.table);
    for (uint32_t r = 0; r < table.num_rows(); ++r) {
      if (table.IsDeleted(r)) continue;  // mask 0 would match tombstones
      TupleId id{node.table, r};
      if (TupleMask(masks, id) == node.keyword_mask) {
        candidates[i].push_back(graph.NodeOf(id));
      }
    }
  }

  std::vector<uint32_t> order;
  std::vector<std::optional<uint32_t>> via_edge;
  OrderCnNodes(cn, &order, &via_edge);

  std::set<TupleTree> results;
  std::vector<uint32_t> assignment(cn.nodes.size(), UINT32_MAX);
  std::vector<uint32_t> used_edges;

  std::function<void(size_t)> assign = [&](size_t pos) {
    if (pos == order.size()) {
      TupleTree tree;
      tree.nodes = assignment;
      std::sort(tree.nodes.begin(), tree.nodes.end());
      tree.edge_indices = used_edges;
      std::sort(tree.edge_indices.begin(), tree.edge_indices.end());
      if (IsMinimalTotal(graph, tree, masks, num_keywords)) {
        results.insert(std::move(tree));
      }
      return;
    }
    uint32_t cn_node = order[pos];
    if (pos == 0) {
      for (uint32_t tuple_node : candidates[cn_node]) {
        assignment[cn_node] = tuple_node;
        assign(pos + 1);
        assignment[cn_node] = UINT32_MAX;
      }
      return;
    }
    const auto& edge = cn.edges[*via_edge[cn_node]];
    uint32_t other_cn = edge.a == cn_node ? edge.b : edge.a;
    bool this_is_a = edge.a == cn_node;
    bool this_referencing =
        this_is_a ? edge.a_is_referencing : !edge.a_is_referencing;
    uint32_t anchor = assignment[other_cn];
    for (const DataAdjacency& adj : graph.Neighbors(anchor)) {
      // adj.along_fk: anchor is the referencing side of this data edge.
      bool neighbor_referencing = !adj.along_fk;
      if (neighbor_referencing != this_referencing) continue;
      const DataEdge& dedge = graph.edge(adj.edge_index);
      if (dedge.fk_index != edge.fk_index) continue;
      if (std::find(candidates[cn_node].begin(), candidates[cn_node].end(),
                    adj.neighbor) == candidates[cn_node].end()) {
        continue;
      }
      // Distinct tuples across the network.
      if (std::find(assignment.begin(), assignment.end(), adj.neighbor) !=
          assignment.end()) {
        continue;
      }
      assignment[cn_node] = adj.neighbor;
      used_edges.push_back(adj.edge_index);
      assign(pos + 1);
      used_edges.pop_back();
      assignment[cn_node] = UINT32_MAX;
    }
  };
  assign(0);

  return std::vector<TupleTree>(results.begin(), results.end());
}

std::vector<TupleTree> DiscoverMtjntScan(
    const DataGraph& graph, const SchemaGraph& schema_graph,
    const std::vector<KeywordMatches>& matches, size_t tmax) {
  if (matches.empty() || !AllKeywordsMatched(matches)) return {};
  auto masks = ComputeKeywordMasks(matches);
  uint32_t num_keywords = static_cast<uint32_t>(matches.size());

  std::vector<std::set<uint32_t>> seen(schema_graph.num_tables());
  for (const auto& [tuple, mask] : masks) seen[tuple.table].insert(mask);
  std::vector<std::vector<uint32_t>> masks_per_table;
  for (const std::set<uint32_t>& table_masks : seen) {
    masks_per_table.emplace_back(table_masks.begin(), table_masks.end());
  }

  std::set<TupleTree> all;
  for (const CandidateNetwork& cn : GenerateCandidateNetworks(
           schema_graph, masks_per_table, num_keywords, tmax)) {
    for (TupleTree& tree :
         EvaluateCandidateNetworkScan(graph, cn, masks, num_keywords)) {
      all.insert(std::move(tree));
    }
  }
  return std::vector<TupleTree>(all.begin(), all.end());
}

std::vector<FkEdge> ScanAllFkEdges(const Database& db) {
  std::vector<FkEdge> edges;
  for (uint32_t t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    for (uint32_t r = 0; r < table.num_rows(); ++r) {
      if (table.IsDeleted(r)) continue;
      auto row_edges = db.ResolveFkEdgesFrom(TupleId{t, r});
      edges.insert(edges.end(), row_edges.begin(), row_edges.end());
    }
  }
  return edges;
}

}  // namespace oracle
}  // namespace claks
