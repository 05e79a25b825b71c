// Copyright 2026 The claks Authors.
//
// Minimal Total Joining Networks of Tuples (MTJNT) à la DISCOVER
// [Hristidis & Papakonstantinou, VLDB'02] — the approach the paper shows
// "loses semantic connections or fragments the results" (§3).
//
// The DISCOVER pipeline: candidate-network (CN) generation over the
// schema-level tuple-set graph, then CN evaluation by join-index probes.
// KeywordSearchEngine answers both SearchMethod::kMtjnt and kDiscover
// with DiscoverMtjnt. The test oracle (tests/oracle/) keeps the exact
// data-level growth enumerator and the seed nested-loop CN evaluator;
// tests require DiscoverMtjnt to return their trees in the same order.
//
// Keyword tuple sets follow DISCOVER's partition semantics: tuple set
// R^S contains the tuples of R whose set of matched query keywords is
// exactly S; R^{} (the free tuple set) contains the keyword-free tuples.
//
// Results are TupleTrees, the result currency the engine analyses and
// ranks (path-shaped trees convert to Connections for the full
// close-association analysis).

#ifndef CLAKS_CORE_MTJNT_H_
#define CLAKS_CORE_MTJNT_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/connection.h"
#include "graph/schema_graph.h"
#include "text/matcher.h"

namespace claks {

/// A joining network of tuples: a tree in the data graph.
struct TupleTree {
  /// Data-graph node ids, sorted ascending.
  std::vector<uint32_t> nodes;
  /// Data-graph edge indices, sorted ascending. Empty for one-node trees.
  std::vector<uint32_t> edge_indices;

  size_t size() const { return nodes.size(); }

  /// Leaves of the tree (degree <= 1 within the tree).
  std::vector<uint32_t> Leaves(const DataGraph& graph) const;

  /// True when the edge set forms a path; such trees convert losslessly to
  /// Connections.
  bool IsPath(const DataGraph& graph) const;

  /// Converts a path-shaped tree to a Connection starting from its
  /// lowest-id endpoint. CLAKS_CHECKs IsPath.
  Connection ToConnection(const DataGraph& graph) const;

  std::string ToString(const DataGraph& graph) const;

  bool operator==(const TupleTree& other) const {
    return nodes == other.nodes && edge_indices == other.edge_indices;
  }
  bool operator<(const TupleTree& other) const {
    if (nodes != other.nodes) return nodes < other.nodes;
    return edge_indices < other.edge_indices;
  }
};

/// Keyword containment mask per tuple: bit i set when the tuple matches
/// query keyword i. Tuples matching no keyword are absent from the map.
std::map<TupleId, uint32_t> ComputeKeywordMasks(
    const std::vector<KeywordMatches>& matches);

/// Totality: the tree contains, for every query keyword, at least one tuple
/// matching it.
bool IsTotal(const DataGraph& graph, const TupleTree& tree,
             const std::map<TupleId, uint32_t>& masks,
             uint32_t num_keywords);

/// Minimality: no leaf can be removed with the tree remaining total.
bool IsMinimalTotal(const DataGraph& graph, const TupleTree& tree,
                    const std::map<TupleId, uint32_t>& masks,
                    uint32_t num_keywords);

// ---------------------------------------------------------------------------
// DISCOVER candidate networks
// ---------------------------------------------------------------------------

/// A node of a candidate network: a tuple set R^S.
struct CnNode {
  uint32_t table = 0;
  uint32_t keyword_mask = 0;  ///< 0 = free tuple set

  bool operator==(const CnNode& other) const {
    return table == other.table && keyword_mask == other.keyword_mask;
  }
};

/// A candidate network: a tree over tuple-set nodes.
struct CandidateNetwork {
  std::vector<CnNode> nodes;
  struct Edge {
    uint32_t a = 0;  ///< index into nodes
    uint32_t b = 0;
    uint32_t fk_index = 0;       ///< FK within the referencing table
    bool a_is_referencing = true;
  };
  std::vector<Edge> edges;

  size_t size() const { return nodes.size(); }

  /// Canonical token sequence (AHU tree encoding) for deduplication:
  /// equal exactly when the two CNs are isomorphic as labelled trees.
  std::vector<uint32_t> Canonical() const;

  std::string ToString(const Database& db,
                       const std::vector<std::string>& keywords) const;
};

/// Generates all candidate networks of at most `tmax` nodes whose keyword
/// masks cover all keywords, whose leaves are non-free, and in which no
/// leaf is redundant. `masks_per_table[t]` lists the non-empty non-zero
/// masks of table t.
std::vector<CandidateNetwork> GenerateCandidateNetworks(
    const SchemaGraph& schema_graph,
    const std::vector<std::vector<uint32_t>>& masks_per_table,
    uint32_t num_keywords, size_t tmax);

/// Evaluates one CN against the data: every assignment of distinct tuples
/// to CN nodes that respects tuple-set membership and the CN's join edges.
/// Results are filtered to MTJNTs (total + minimal; CN-level conditions do
/// not always guarantee tuple-level minimality). Each join step is a
/// per-FK join-index probe (Database::JoinIndex); only a free root, which
/// GenerateCandidateNetworks never produces, falls back to a table scan.
std::vector<TupleTree> EvaluateCandidateNetwork(
    const DataGraph& graph, const CandidateNetwork& cn,
    const std::map<TupleId, uint32_t>& masks, uint32_t num_keywords);

/// Full DISCOVER pipeline: masks -> CN generation -> evaluation ->
/// deduplicated MTJNTs of at most `tmax` tuples, sorted by TupleTree
/// order (node set, then edge set).
std::vector<TupleTree> DiscoverMtjnt(
    const DataGraph& graph, const SchemaGraph& schema_graph,
    const std::vector<KeywordMatches>& matches, size_t tmax);

}  // namespace claks

#endif  // CLAKS_CORE_MTJNT_H_
