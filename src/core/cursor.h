// Copyright 2026 The claks Authors.
//
// Pull-based result cursors: the incremental-consumption half of the
// prepared-query API (core/query_spec.h). A ResultCursor yields the ranked
// hit sequence of one PreparedQuery page by page; draining any cursor
// reproduces exactly what KeywordSearchEngine::Search returns for the same
// query and options (proven by tests/cursor_test.cc).
//
// Two implementations sit behind the interface. Materialized-backed
// cursors (kEnumerate, kMtjnt, kDiscover, kBanks, and degenerate
// one-keyword kStream) run the method on Open and slice pages from the
// ranked buffer. A one-keyword kStream/kEnumerate query with a top_k and
// a length-monotone ranker does not run to completion: it settles after
// top_k single-node hits at the length-0 key floor
// (KeywordSearchEngine::MaterializeHits). The streaming cursor
// (two-keyword kStream) is genuinely lazy: it owns a ConnectionStream (core/topk.h) and pulls,
// analyses and settles candidates only as pages are requested — Next(n)
// extends the settled-k predicate page-wise to the first
// `returned + n` rank positions, so fetching page 1 of a top-10 query does
// strictly less expansion work than settling all ten, which does strictly
// less than draining (asserted at 100x by tests and bench_stream).
// `Stats().expansions` accumulates across pages; non-length-monotone
// rankers (RankerMonotonicity == kNone) fall back to a full drain on the
// first pull, exactly like the legacy streaming search did.

#ifndef CLAKS_CORE_CURSOR_H_
#define CLAKS_CORE_CURSOR_H_

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query_spec.h"

namespace claks {

/// Point-in-time progress of one cursor.
struct CursorStats {
  /// Hits handed out by Next so far.
  size_t returned = 0;
  /// Work metric so far: ConnectionStream expansions for streaming
  /// cursors, the method's work count (e.g. BANKS visited nodes) for
  /// materialized ones. Accumulates as pages are pulled.
  size_t expansions = 0;
  /// True when every hit of the result space has been handed out.
  bool drained = false;
  /// Stage times and work counters accumulated so far, set when the
  /// query ran with SearchOptions::profile (observability/profile.h).
  std::optional<QueryProfile> profile;
};

/// One consumer's view of a prepared query's ranked result sequence.
///
/// Thread-safety: a cursor is single-consumer — calls on one cursor must
/// be externally serialized. Distinct cursors over the same PreparedQuery
/// (or the same engine) are independent and may be pulled concurrently
/// from different threads on a warmed engine; cursors never mutate the
/// engine or the snapshot they read.
class ResultCursor {
 public:
  virtual ~ResultCursor() = default;

  /// Returns the next `n` hits in rank order (fewer when the result space
  /// ends first, empty at the end; n == 0 yields empty without work).
  /// Hits arrive exactly in the order a single Search call would have
  /// ranked them, and the concatenation of all pages — for any page-size
  /// schedule — is that full sequence.
  virtual Result<std::vector<SearchHit>> Next(size_t n) = 0;

  /// True once the full result sequence has been handed out. A cursor
  /// whose underlying size is unknown (streaming) learns this on the Next
  /// call that crosses the end.
  virtual bool Drained() const = 0;

  virtual CursorStats Stats() const = 0;
};

/// Grouping key for SearchOptions::per_endpoint_limit. Path-shaped hits
/// group by their unordered endpoint pair; non-path trees group by their
/// full sorted keyword-tuple set — two distinct trees sharing only the
/// min/max ids of their sorted node lists must not collide. Shared by the
/// engine's rank/group/truncate tail and the streaming cursor's
/// incremental grouping.
std::vector<uint64_t> EndpointGroupKey(
    const SearchHit& hit, const DataGraph& graph,
    const std::map<TupleId, std::string>& keyword_of);

/// Canonical tree form of a data-graph path: sorted node ids + sorted edge
/// indices. Every engine path (enumerate, stream, cursors) builds hits
/// through this helper, so results stay structurally identical by
/// construction.
TupleTree CanonicalTree(const NodePath& path);

}  // namespace claks

#endif  // CLAKS_CORE_CURSOR_H_
