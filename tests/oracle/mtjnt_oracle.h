// Copyright 2026 The claks Authors.
//
// Test oracle: reference implementations the production MTJNT and
// join-index paths are checked against. Built into the test executables
// only; the claks library does not link it.
//
//  * EnumerateMtjnt grows every connected tuple tree of at most `tmax`
//    tuples directly on the data graph — MTJNT semantics by definition.
//    DiscoverMtjnt must return exactly its trees, in the same order.
//  * EvaluateCandidateNetworkScan / DiscoverMtjntScan are the seed
//    nested-loop CN evaluation (per-node table scans, linear membership
//    checks); the join-index evaluator must return its results verbatim.
//  * ScanAllFkEdges re-resolves every FK by per-row probes; the cached
//    Database::ResolveAllFkEdges must return the same list.

#ifndef CLAKS_TESTS_ORACLE_MTJNT_ORACLE_H_
#define CLAKS_TESTS_ORACLE_MTJNT_ORACLE_H_

#include <cstdint>
#include <map>
#include <vector>

#include "core/mtjnt.h"
#include "relational/database.h"

namespace claks {
namespace oracle {

/// Exact data-level enumeration of all MTJNTs with at most `tmax` tuples.
/// Sorted by TupleTree order (node set, then edge set).
std::vector<TupleTree> EnumerateMtjnt(
    const DataGraph& graph, const std::vector<KeywordMatches>& matches,
    size_t tmax);

/// The seed nested-loop evaluation of one CN: same contract as
/// EvaluateCandidateNetwork.
std::vector<TupleTree> EvaluateCandidateNetworkScan(
    const DataGraph& graph, const CandidateNetwork& cn,
    const std::map<TupleId, uint32_t>& masks, uint32_t num_keywords);

/// The DISCOVER pipeline with every CN evaluated by
/// EvaluateCandidateNetworkScan: same contract as DiscoverMtjnt.
std::vector<TupleTree> DiscoverMtjntScan(
    const DataGraph& graph, const SchemaGraph& schema_graph,
    const std::vector<KeywordMatches>& matches, size_t tmax);

/// Every FK instance edge of `db`, re-resolved by per-row probes. Same
/// order as Database::ResolveAllFkEdges: by table, by row, by FK.
std::vector<FkEdge> ScanAllFkEdges(const Database& db);

}  // namespace oracle
}  // namespace claks

#endif  // CLAKS_TESTS_ORACLE_MTJNT_ORACLE_H_
