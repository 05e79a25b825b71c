// Copyright 2026 The claks Authors.

#include "core/mtjnt.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "common/macros.h"
#include "common/string_util.h"

namespace claks {

std::vector<uint32_t> TupleTree::Leaves(const DataGraph& graph) const {
  std::map<uint32_t, size_t> degree;
  for (uint32_t node : nodes) degree[node] = 0;
  for (uint32_t e : edge_indices) {
    const DataEdge& edge = graph.edge(e);
    ++degree[graph.NodeOf(edge.from)];
    ++degree[graph.NodeOf(edge.to)];
  }
  std::vector<uint32_t> out;
  for (const auto& [node, d] : degree) {
    if (d <= 1) out.push_back(node);
  }
  return out;
}

bool TupleTree::IsPath(const DataGraph& graph) const {
  if (nodes.size() <= 2) return true;
  std::map<uint32_t, size_t> degree;
  for (uint32_t e : edge_indices) {
    const DataEdge& edge = graph.edge(e);
    ++degree[graph.NodeOf(edge.from)];
    ++degree[graph.NodeOf(edge.to)];
  }
  size_t endpoints = 0;
  for (const auto& [node, d] : degree) {
    if (d == 1) ++endpoints;
    if (d > 2) return false;
  }
  return endpoints == 2;
}

Connection TupleTree::ToConnection(const DataGraph& graph) const {
  CLAKS_CHECK(IsPath(graph));
  if (nodes.size() == 1) {
    return Connection({graph.TupleOf(nodes[0])}, {});
  }
  // Build intra-tree adjacency.
  std::map<uint32_t, std::vector<std::pair<uint32_t, uint32_t>>> adjacency;
  for (uint32_t e : edge_indices) {
    const DataEdge& edge = graph.edge(e);
    uint32_t a = graph.NodeOf(edge.from);
    uint32_t b = graph.NodeOf(edge.to);
    adjacency[a].emplace_back(b, e);
    adjacency[b].emplace_back(a, e);
  }
  uint32_t start = UINT32_MAX;
  for (const auto& [node, neigh] : adjacency) {
    if (neigh.size() == 1 && node < start) start = node;
  }
  CLAKS_CHECK_NE(start, UINT32_MAX);

  std::vector<TupleId> tuples{graph.TupleOf(start)};
  std::vector<ConnectionEdge> edges;
  uint32_t prev = UINT32_MAX;
  uint32_t cur = start;
  while (tuples.size() < nodes.size()) {
    for (const auto& [next, e] : adjacency[cur]) {
      if (next == prev) continue;
      const DataEdge& edge = graph.edge(e);
      bool along_fk = graph.NodeOf(edge.from) == cur;
      edges.push_back(ConnectionEdge{edge.fk_index, along_fk});
      tuples.push_back(graph.TupleOf(next));
      prev = cur;
      cur = next;
      break;
    }
  }
  return Connection(std::move(tuples), std::move(edges));
}

std::string TupleTree::ToString(const DataGraph& graph) const {
  std::string out = "{";
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ", ";
    out += graph.database().TupleLabel(graph.TupleOf(nodes[i]));
  }
  out += "}";
  return out;
}

std::map<TupleId, uint32_t> ComputeKeywordMasks(
    const std::vector<KeywordMatches>& matches) {
  std::map<TupleId, uint32_t> masks;
  for (size_t k = 0; k < matches.size(); ++k) {
    for (const TupleMatch& m : matches[k].matches) {
      masks[m.tuple] |= (1u << k);
    }
  }
  return masks;
}

namespace {

uint32_t MaskOf(const DataGraph& graph,
                const std::map<TupleId, uint32_t>& masks, uint32_t node) {
  auto it = masks.find(graph.TupleOf(node));
  return it == masks.end() ? 0u : it->second;
}

uint32_t FullMask(uint32_t num_keywords) {
  CLAKS_CHECK_LE(num_keywords, 31u);
  return (1u << num_keywords) - 1u;
}

uint32_t UnionMask(const DataGraph& graph,
                   const std::map<TupleId, uint32_t>& masks,
                   const std::vector<uint32_t>& nodes,
                   uint32_t excluded = UINT32_MAX) {
  uint32_t acc = 0;
  for (uint32_t node : nodes) {
    if (node == excluded) continue;
    acc |= MaskOf(graph, masks, node);
  }
  return acc;
}

}  // namespace

bool IsTotal(const DataGraph& graph, const TupleTree& tree,
             const std::map<TupleId, uint32_t>& masks,
             uint32_t num_keywords) {
  return UnionMask(graph, masks, tree.nodes) == FullMask(num_keywords);
}

bool IsMinimalTotal(const DataGraph& graph, const TupleTree& tree,
                    const std::map<TupleId, uint32_t>& masks,
                    uint32_t num_keywords) {
  if (!IsTotal(graph, tree, masks, num_keywords)) return false;
  uint32_t full = FullMask(num_keywords);
  for (uint32_t leaf : tree.Leaves(graph)) {
    if (tree.nodes.size() == 1) {
      // Removing the only node always breaks totality (k >= 1).
      return num_keywords > 0;
    }
    if (UnionMask(graph, masks, tree.nodes, leaf) == full) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Candidate networks
// ---------------------------------------------------------------------------

namespace {

// Closes a node's token run in the AHU encoding below. Edge labels are
// fk_index * 2 + direction, far below it, so the run decodes uniquely.
constexpr uint32_t kCanonicalEnd = UINT32_MAX;

// AHU-style canonical encoding of the CN rooted at `root`: the root's
// table and mask, each child subtree as its edge label followed by its
// own encoding (children in sorted order), then kCanonicalEnd.
std::vector<uint32_t> EncodeRooted(const CandidateNetwork& cn, uint32_t root,
                                   uint32_t parent_edge) {
  std::vector<std::vector<uint32_t>> children;
  for (uint32_t e = 0; e < cn.edges.size(); ++e) {
    if (e == parent_edge) continue;
    const CandidateNetwork::Edge& edge = cn.edges[e];
    uint32_t child = UINT32_MAX;
    bool root_is_a = false;
    if (edge.a == root) {
      child = edge.b;
      root_is_a = true;
    } else if (edge.b == root) {
      child = edge.a;
    } else {
      continue;
    }
    // Edge label as seen from root: fk index plus which side references.
    bool child_is_referencing = root_is_a ? !edge.a_is_referencing
                                          : edge.a_is_referencing;
    std::vector<uint32_t> encoded{edge.fk_index * 2 +
                                  (child_is_referencing ? 1u : 0u)};
    std::vector<uint32_t> subtree = EncodeRooted(cn, child, e);
    encoded.insert(encoded.end(), subtree.begin(), subtree.end());
    children.push_back(std::move(encoded));
  }
  std::sort(children.begin(), children.end());
  std::vector<uint32_t> out{cn.nodes[root].table, cn.nodes[root].keyword_mask};
  for (const std::vector<uint32_t>& child : children) {
    out.insert(out.end(), child.begin(), child.end());
  }
  out.push_back(kCanonicalEnd);
  return out;
}

}  // namespace

std::vector<uint32_t> CandidateNetwork::Canonical() const {
  std::vector<uint32_t> best;
  for (uint32_t root = 0; root < nodes.size(); ++root) {
    std::vector<uint32_t> encoded = EncodeRooted(*this, root, UINT32_MAX);
    if (best.empty() || encoded < best) best = std::move(encoded);
  }
  return best;
}

std::string CandidateNetwork::ToString(
    const Database& db, const std::vector<std::string>& keywords) const {
  std::string out;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += " ";
    out += db.table(nodes[i].table).name() + "^{";
    bool first = true;
    for (size_t k = 0; k < keywords.size(); ++k) {
      if (nodes[i].keyword_mask & (1u << k)) {
        if (!first) out += ",";
        out += keywords[k];
        first = false;
      }
    }
    out += "}";
  }
  out += " |";
  for (const Edge& edge : edges) {
    out += StrFormat(" %u%s%u", edge.a, edge.a_is_referencing ? "->" : "<-",
                     edge.b);
  }
  return out;
}

namespace {

struct CnGenState {
  const SchemaGraph* schema_graph;
  const std::vector<std::vector<uint32_t>>* masks_per_table;
  uint32_t full_mask;
  size_t tmax;
  std::set<std::vector<uint32_t>> visited;  // canonical CN keys
  std::vector<CandidateNetwork> accepted;

  uint32_t MaskUnion(const CandidateNetwork& cn, uint32_t excluded_node) {
    uint32_t acc = 0;
    for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
      if (i == excluded_node) continue;
      acc |= cn.nodes[i].keyword_mask;
    }
    return acc;
  }

  // Degree of node i within the CN tree.
  size_t Degree(const CandidateNetwork& cn, uint32_t i) {
    size_t d = 0;
    for (const auto& edge : cn.edges) {
      if (edge.a == i || edge.b == i) ++d;
    }
    return d;
  }

  bool Acceptable(const CandidateNetwork& cn) {
    if (MaskUnion(cn, UINT32_MAX) != full_mask) return false;
    for (uint32_t i = 0; i < cn.nodes.size(); ++i) {
      if (Degree(cn, i) <= 1) {
        if (cn.nodes[i].keyword_mask == 0) return false;  // free leaf
        if (MaskUnion(cn, i) == full_mask) return false;  // redundant leaf
      }
    }
    return true;
  }

  void Expand(CandidateNetwork* cn) {
    if (!visited.insert(cn->Canonical()).second) return;

    if (Acceptable(*cn)) accepted.push_back(*cn);
    if (cn->size() >= tmax) return;

    // Prune: each free leaf needs at least one more node.
    size_t free_leaves = 0;
    for (uint32_t i = 0; i < cn->nodes.size(); ++i) {
      if (Degree(*cn, i) <= 1 && cn->nodes[i].keyword_mask == 0) {
        ++free_leaves;
      }
    }
    if (free_leaves > tmax - cn->size()) return;

    size_t node_count = cn->nodes.size();
    for (uint32_t i = 0; i < node_count; ++i) {
      uint32_t table = cn->nodes[i].table;
      for (const SchemaAdjacency& adj : schema_graph->Neighbors(table)) {
        const SchemaEdge& sedge = schema_graph->edges()[adj.edge_index];
        std::vector<uint32_t> candidate_masks{0};
        for (uint32_t m : (*masks_per_table)[adj.neighbor]) {
          candidate_masks.push_back(m);
        }
        for (uint32_t mask : candidate_masks) {
          cn->nodes.push_back(CnNode{adj.neighbor, mask});
          CandidateNetwork::Edge edge;
          edge.a = i;
          edge.b = static_cast<uint32_t>(cn->nodes.size() - 1);
          edge.fk_index = sedge.fk_index;
          edge.a_is_referencing = adj.along_fk;
          cn->edges.push_back(edge);
          Expand(cn);
          cn->edges.pop_back();
          cn->nodes.pop_back();
        }
      }
    }
  }
};

}  // namespace

std::vector<CandidateNetwork> GenerateCandidateNetworks(
    const SchemaGraph& schema_graph,
    const std::vector<std::vector<uint32_t>>& masks_per_table,
    uint32_t num_keywords, size_t tmax) {
  CLAKS_CHECK_EQ(masks_per_table.size(), schema_graph.num_tables());
  CnGenState state{&schema_graph, &masks_per_table,
                   FullMask(num_keywords), tmax, {}, {}};
  for (uint32_t t = 0; t < masks_per_table.size(); ++t) {
    for (uint32_t mask : masks_per_table[t]) {
      CandidateNetwork cn;
      cn.nodes.push_back(CnNode{t, mask});
      state.Expand(&cn);
    }
  }
  return std::move(state.accepted);
}

namespace {

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

// Mask of one tuple under the query (0 for keyword-free tuples).
uint32_t TupleMask(const std::map<TupleId, uint32_t>& masks, TupleId id) {
  auto it = masks.find(id);
  return it == masks.end() ? 0u : it->second;
}

}  // namespace

// Join-index evaluation. The root's candidate set comes from the (small)
// mask map, never from a table scan; each join step resolves through a
// per-CN-edge FkJoinIndex probe hoisted out of the recursion, and
// tuple-set membership is a mask comparison.
std::vector<TupleTree> EvaluateCandidateNetwork(
    const DataGraph& graph, const CandidateNetwork& cn,
    const std::map<TupleId, uint32_t>& masks, uint32_t num_keywords) {
  const Database& db = graph.database();
  // Join index per CN edge, resolved once so the recursion below pays a
  // plain array access per probe (JoinIndex re-checks cache freshness on
  // every call). The referencing side's table + FK identify the index.
  std::vector<const FkJoinIndex*> edge_indexes(cn.edges.size());
  for (uint32_t e = 0; e < cn.edges.size(); ++e) {
    const CandidateNetwork::Edge& edge = cn.edges[e];
    uint32_t referencing_table = edge.a_is_referencing
                                     ? cn.nodes[edge.a].table
                                     : cn.nodes[edge.b].table;
    edge_indexes[e] = &db.JoinIndex(referencing_table, edge.fk_index);
  }

  // Candidate node list for the root only (the other nodes are reached
  // through join probes). masks iterates in TupleId order, so the list is
  // ascending.
  std::vector<uint32_t> root_candidates;
  for (const auto& [id, mask] : masks) {
    if (cn.nodes[0].keyword_mask != 0 && cn.nodes[0].table == id.table &&
        cn.nodes[0].keyword_mask == mask) {
      root_candidates.push_back(graph.NodeOf(id));
    }
  }

  // Membership in CN node i's tuple set (R^S partition semantics).
  auto member_of = [&](uint32_t i, uint32_t tuple_node) {
    const CnNode& node = cn.nodes[i];
    TupleId id = graph.TupleOf(tuple_node);
    return id.table == node.table &&
           TupleMask(masks, id) == node.keyword_mask;
  };

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
      // CN generation seeds node 0 from a keyword tuple set, so its
      // candidates are indexed; fall back to a scan only for a (never
      // generated) free root.
      if (cn.nodes[0].keyword_mask == 0) {
        const Table& table = db.table(cn.nodes[0].table);
        for (uint32_t r = 0; r < table.num_rows(); ++r) {
          if (table.IsDeleted(r)) continue;
          uint32_t tuple_node = graph.NodeOf(TupleId{cn.nodes[0].table, r});
          if (!member_of(0, tuple_node)) continue;
          assignment[cn_node] = tuple_node;
          assign(pos + 1);
          assignment[cn_node] = UINT32_MAX;
        }
        return;
      }
      for (uint32_t tuple_node : root_candidates) {
        assignment[cn_node] = tuple_node;
        assign(pos + 1);
        assignment[cn_node] = UINT32_MAX;
      }
      return;
    }
    const auto& edge = cn.edges[*via_edge[cn_node]];
    const FkJoinIndex& join_index = *edge_indexes[*via_edge[cn_node]];
    uint32_t other_cn = edge.a == cn_node ? edge.b : edge.a;
    bool this_is_a = edge.a == cn_node;
    bool this_referencing =
        this_is_a ? edge.a_is_referencing : !edge.a_is_referencing;
    uint32_t anchor = assignment[other_cn];
    TupleId anchor_tuple = graph.TupleOf(anchor);

    auto try_assign = [&](uint32_t tuple_node, uint32_t data_edge) {
      if (!member_of(cn_node, tuple_node)) return;
      // Distinct tuples across the network.
      if (std::find(assignment.begin(), assignment.end(), tuple_node) !=
          assignment.end()) {
        return;
      }
      assignment[cn_node] = tuple_node;
      used_edges.push_back(data_edge);
      assign(pos + 1);
      used_edges.pop_back();
      assignment[cn_node] = UINT32_MAX;
    };

    if (!join_index.valid) return;
    if (this_referencing) {
      // The new node's tuples reference the anchor: walk the join index's
      // parent->children CSR.
      if (anchor_tuple.table != join_index.referenced_table) return;
      for (uint32_t child_row : join_index.Children(anchor_tuple.row)) {
        uint32_t child_node =
            graph.NodeOf(TupleId{join_index.table, child_row});
        auto data_edge = graph.OutEdge(child_node, edge.fk_index);
        CLAKS_CHECK(data_edge.has_value());  // the index resolved this FK
        try_assign(child_node, *data_edge);
      }
    } else {
      // The anchor references the new node: one child->parent probe.
      if (anchor_tuple.table != join_index.table) return;
      uint32_t parent_row = join_index.Parent(anchor_tuple.row);
      if (parent_row == FkJoinIndex::kNoParent) return;
      TupleId parent{join_index.referenced_table, parent_row};
      if (parent.table == cn.nodes[cn_node].table) {
        auto data_edge = graph.OutEdge(anchor, edge.fk_index);
        CLAKS_CHECK(data_edge.has_value());
        try_assign(graph.NodeOf(parent), *data_edge);
      }
    }
  };
  assign(0);

  return std::vector<TupleTree>(results.begin(), results.end());
}

std::vector<TupleTree> DiscoverMtjnt(
    const DataGraph& graph, const SchemaGraph& schema_graph,
    const std::vector<KeywordMatches>& matches, size_t tmax) {
  if (matches.empty() || !AllKeywordsMatched(matches)) return {};
  auto masks = ComputeKeywordMasks(matches);
  uint32_t num_keywords = static_cast<uint32_t>(matches.size());

  std::vector<std::vector<uint32_t>> masks_per_table(
      schema_graph.num_tables());
  {
    std::vector<std::set<uint32_t>> seen(schema_graph.num_tables());
    for (const auto& [tuple, mask] : masks) {
      seen[tuple.table].insert(mask);
    }
    for (size_t t = 0; t < seen.size(); ++t) {
      masks_per_table[t].assign(seen[t].begin(), seen[t].end());
    }
  }

  auto cns = GenerateCandidateNetworks(schema_graph, masks_per_table,
                                       num_keywords, tmax);
  std::set<TupleTree> all;
  for (const CandidateNetwork& cn : cns) {
    for (TupleTree& tree :
         EvaluateCandidateNetwork(graph, cn, masks, num_keywords)) {
      all.insert(std::move(tree));
    }
  }
  return std::vector<TupleTree>(all.begin(), all.end());
}

}  // namespace claks
