// Copyright 2026 The claks Authors.
//
// Lazy, length-ordered connection streaming. Full enumeration (the default
// engine path) materialises every connection before ranking; for top-k
// queries over large instances a system wants to *stream* connections in
// nondecreasing RDB-length order and stop early. This module implements a
// best-first expansion over the data graph (uniform edge cost), the same
// strategy BANKS uses for its answer heap.
//
// Length order is compatible with the kRdbLength policy directly, and a
// bounded reorder buffer upgrades it to any policy whose primary key is
// monotone in RDB length (RankerMonotonicity / MinSortKeyAtLength in
// core/ranking.h state that contract per policy).
//
// Entry points: construct a ConnectionStream over data-graph node sets
// (sources/targets as returned by the matcher, mapped through
// DataGraph::NodeOf) and pull with Next(), or use StreamTopK for the
// collect-first-k convenience. A one-directional stream stops paths at the
// first target tuple, so connections whose interior contains a
// source-keyword tuple are only found from the other side;
// ConnectionStream::Bidirectional interleaves both directions in one
// length-ordered queue with tree-level deduplication, matching the
// engine's kEnumerate result space. Expansion iterates the CSR adjacency
// spans of graph/data_graph.h; `expansions()` is the work metric the tests
// and benchmarks assert on. KeywordSearchEngine dispatches here for
// SearchMethod::kStream.
//
// Memory: partial paths live in a parent-pointer arena. Each pushed path
// costs one 16-byte step record (its last hop plus the index of its parent's
// record, so children share their prefix) and one 12-byte queue entry;
// nothing is freed until the stream is destroyed. A NodePath is built only
// for an emitted answer.

#ifndef CLAKS_CORE_TOPK_H_
#define CLAKS_CORE_TOPK_H_

#include <cstdint>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "core/connection.h"
#include "graph/traversal.h"

namespace claks {

/// Streams simple paths from `sources` to `targets` in nondecreasing
/// edge-count order. Paths stop at the first target tuple (connection
/// endpoints carry the keywords). Deterministic: ties break by discovery
/// order.
class ConnectionStream {
 public:
  /// Passed as `stop_length` when Next() should run to exhaustion.
  static constexpr size_t kNoStopLength = static_cast<size_t>(-1);

  ConnectionStream(const DataGraph* graph, std::vector<uint32_t> sources,
                   std::vector<uint32_t> targets, size_t max_edges);

  /// Builds a two-lane stream: lane 0 expands side_a -> side_b, lane 1
  /// side_b -> side_a, interleaved in a single priority queue so
  /// connections still arrive in global nondecreasing length order. A
  /// connection found by both lanes (the same undirected path) is emitted
  /// once — tree-level dedup, mirroring the engine's enumerate semantics.
  static ConnectionStream Bidirectional(const DataGraph* graph,
                                        const std::vector<uint32_t>& side_a,
                                        const std::vector<uint32_t>& side_b,
                                        size_t max_edges);

  /// Returns the next connection, or nullopt when the stream is exhausted
  /// or every pending partial path already has `stop_length` or more
  /// edges. Stopping leaves the queue intact: a later call with a larger
  /// bound resumes where this one left off.
  std::optional<Connection> Next(size_t stop_length = kNoStopLength);

  /// Like Next but returns the raw data-graph path (node ids + adjacency
  /// steps carrying edge indices) — what the engine needs to build the
  /// canonical TupleTree without re-resolving FK edges.
  std::optional<NodePath> NextPath(size_t stop_length = kNoStopLength);

  /// Number of edges of the shortest pending partial path — a lower bound
  /// on the RDB length of every future connection. nullopt once exhausted.
  std::optional<size_t> PendingLength() const;

  /// Number of partial paths expanded so far (work metric for tests and
  /// benchmarks).
  size_t expansions() const { return expansions_; }

 private:
  /// Arena index meaning "no parent": the step is a root seed.
  static constexpr uint32_t kNoStep = UINT32_MAX;

  /// The last hop of one partial path; `prev` indexes its parent's record.
  /// A root seed holds its source node and no edge.
  struct Step {
    uint32_t prev;
    uint32_t node;
    uint32_t edge_index;
    uint32_t along_fk;
  };
  static_assert(sizeof(Step) == 16);

  /// A queued partial path. Records are appended in push order, so the
  /// arena index doubles as the discovery-order tie-break.
  struct Entry {
    uint32_t step;
    uint32_t length;
    uint32_t lane;
    // Orders the priority queue: fewer edges first, then insertion order.
    bool operator>(const Entry& other) const {
      if (length != other.length) return length > other.length;
      return step > other.step;
    }
  };
  static_assert(sizeof(Entry) == 12);

  ConnectionStream(const DataGraph* graph, size_t max_edges);

  void AddLane(const std::vector<uint32_t>& sources,
               const std::vector<uint32_t>& targets);

  /// Appends a step record and queues it as a path of `length` edges.
  void Push(Step step, uint32_t length, uint32_t lane);

  /// Rebuilds the path ending at arena record `step`.
  NodePath PathOf(uint32_t step) const;

  /// Records the canonical (sorted node set, sorted edge set) form of an
  /// answer; false when it was already emitted by the other lane.
  bool MarkEmitted(uint32_t step);

  const DataGraph* graph_;
  /// Target node set per lane (one lane for the plain constructor, two for
  /// Bidirectional).
  std::vector<std::set<uint32_t>> lane_targets_;
  size_t max_edges_;
  bool dedup_ = false;
  size_t expansions_ = 0;
  std::set<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> emitted_;
  std::vector<Step> steps_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
};

/// Collects the first `k` connections of a stream (all of them when the
/// stream ends earlier).
std::vector<Connection> StreamTopK(ConnectionStream* stream, size_t k);

}  // namespace claks

#endif  // CLAKS_CORE_TOPK_H_
