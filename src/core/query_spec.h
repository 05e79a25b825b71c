// Copyright 2026 The claks Authors.
//
// The prepared half of the query API. A raw query is a string plus a
// SearchOptions bag; preparing it performs everything that does not depend
// on pulling results — option validation (typed error codes), tokenization,
// keyword matching, AND/OR semantics — and yields a PreparedQuery from
// which core/cursor.h opens pull-based ResultCursors. KeywordSearchEngine
// ::Search is a thin wrapper over prepare + drain (core/engine.h).
//
// QuerySpec is the validated form of SearchOptions. QuerySpec::Create
// rejects nonsensical option combinations with one QuerySpecError per
// problem; QuerySpec::Unvalidated skips the check and is the compatibility
// path the legacy Search facade uses (it must keep accepting every option
// bag it historically accepted).

#ifndef CLAKS_CORE_QUERY_SPEC_H_
#define CLAKS_CORE_QUERY_SPEC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/ranking.h"
#include "graph/banks.h"
#include "text/matcher.h"

namespace claks {

class KeywordSearchEngine;
class ResultCursor;

/// How result connections are found.
enum class SearchMethod {
  /// Full enumeration of simple paths between keyword matches (two-keyword
  /// queries). The complete result space of the paper's Table 2.
  kEnumerate,
  /// MTJNT semantics (exact data-level enumeration).
  kMtjnt,
  /// MTJNT via DISCOVER candidate networks (same results as kMtjnt).
  kDiscover,
  /// BANKS backward expanding search (top-k answer trees).
  kBanks,
  /// Streaming top-k over the kEnumerate result space (1 or 2 keywords):
  /// connections are pulled lazily in nondecreasing RDB-length order
  /// (core/topk.h, both keyword directions interleaved with tree-level
  /// dedup), analysed on arrival, and the pull stops as soon as the top-k
  /// under `ranker` is provably settled. Exact for kRdbLength; exact via a
  /// bounded reorder buffer for every ranker whose key is length-monotone
  /// (RankerMonotonicity in core/ranking.h); falls back to a full drain
  /// with a logged warning otherwise. With top_k == 0 this is a lazy
  /// drop-in for kEnumerate (same hits, same ranking keys; ranking-key
  /// ties may order differently).
  kStream,
};

const char* SearchMethodToString(SearchMethod method);

/// Inverse of SearchMethodToString; nullopt for unknown names.
std::optional<SearchMethod> SearchMethodFromString(const std::string& name);

struct SearchOptions {
  SearchMethod method = SearchMethod::kEnumerate;
  RankerKind ranker = RankerKind::kCloseFirst;
  /// Bound on FK edges for kEnumerate.
  size_t max_rdb_edges = 4;
  /// Bound on tuples per network for kMtjnt / kDiscover.
  size_t tmax = 5;
  /// Result cap after ranking (0 = unlimited).
  size_t top_k = 0;
  /// Verify instance-level closeness (fills SearchHit::instance_close).
  bool instance_check = true;
  /// Witness budget for the instance check (0: each connection's length).
  size_t witness_edges = 0;
  /// AND semantics (default): a keyword without matches empties the result.
  /// With OR semantics the unmatched keywords are dropped and the query
  /// runs over the remaining ones.
  bool require_all_keywords = true;
  /// When > 0, keep at most this many hits per endpoint group (after
  /// ranking): path hits group by their unordered endpoint pair, non-path
  /// trees by their full keyword-tuple set. The paper notes a longer
  /// connection's association can be "implicitly visible" in shorter ones
  /// between the same tuples (§3); this collapses such groups.
  size_t per_endpoint_limit = 0;
  /// Collect a per-stage QueryProfile (observability/profile.h) while the
  /// query runs and attach it to CursorStats::profile /
  /// SearchResult::profile. Off by default: profiling costs a few clock
  /// reads per page, and hits/ranking are unaffected either way.
  bool profile = false;
  BanksOptions banks;
};

/// One validation failure of a SearchOptions bag. Every code names a
/// combination that silently did nothing (or worse) under the legacy
/// Search facade.
enum class QuerySpecError {
  /// witness_edges > 0 while instance_check is off: the witness budget
  /// gates a check that never runs.
  kWitnessWithoutInstanceCheck,
  /// banks.* customized while method is not kBanks: the BANKS knobs are
  /// ignored by every other method.
  kBanksOptionsOnNonBanksMethod,
  /// per_endpoint_limit > 0 with kBanks: BANKS over-fetches a fixed margin
  /// beyond top_k, so post-ranking group collapse can silently underfill
  /// the requested k.
  kPerEndpointLimitWithBanks,
  /// max_rdb_edges == 0 with kEnumerate/kStream: no connection can ever be
  /// found (only degenerate single-keyword node hits; those need no
  /// connection bound, and under a top_k and a length-monotone ranker
  /// they settle after top_k hits rather than running to completion).
  kZeroMaxRdbEdges,
  /// tmax == 0 with kMtjnt/kDiscover: no joining network can exist.
  kZeroTmax,
  /// top_k == 0 with kStream under the prepared/cursor API: kStream exists
  /// for settled-k early termination, and unbounded paging over it cannot
  /// settle. State kEnumerate for exhaustive paging, or pass a top_k.
  kStreamWithoutTopK,
};

const char* QuerySpecErrorToString(QuerySpecError error);

/// A validated SearchOptions bag. Create runs the strict validation and is
/// what the prepared-query API (engine Prepare, service Prepare) uses;
/// Unvalidated wraps the options untouched and backs the legacy Search
/// facade, which must keep accepting historical option bags byte-for-byte.
class QuerySpec {
 public:
  /// Every validation failure of `options`, in declaration order of
  /// QuerySpecError; empty when the options are sound.
  static std::vector<QuerySpecError> Validate(const SearchOptions& options);

  /// Strict construction: InvalidArgument naming every QuerySpecError when
  /// Validate(options) is non-empty.
  static Result<QuerySpec> Create(SearchOptions options);

  /// Compatibility construction: no validation (legacy Search path).
  static QuerySpec Unvalidated(SearchOptions options);

  const SearchOptions& options() const { return options_; }

  /// True when this spec went through Create's strict validation.
  bool validated() const { return validated_; }

 private:
  QuerySpec(SearchOptions options, bool validated)
      : options_(std::move(options)), validated_(validated) {}

  SearchOptions options_;
  bool validated_ = false;
};

/// A query after the pull-independent work: validated spec, tokenized
/// keywords, keyword-to-tuple matches and AND/OR resolution. Obtained from
/// KeywordSearchEngine::Prepare; Open() starts incremental consumption.
///
/// Lifetime: cursors returned by Open reference this PreparedQuery (and
/// the engine that prepared it) — keep both alive and at a stable address
/// while any cursor is open (heap-allocate the PreparedQuery when it must
/// outlive the preparing scope, as service/search_service.cc does).
///
/// Thread-safety: immutable after Prepare returns; concurrent Open calls
/// from any number of threads are safe on a warmed engine. Each returned
/// cursor is single-consumer (see core/cursor.h).
class PreparedQuery {
 public:
  /// Opens a fresh cursor over this query's result space. Every cursor
  /// yields the full ranked hit sequence of the spec, independently of
  /// other cursors. Implemented in core/cursor.cc.
  Result<std::unique_ptr<ResultCursor>> Open() const;

  const QuerySpec& spec() const { return spec_; }
  const SearchOptions& options() const { return spec_.options(); }
  const KeywordQuery& query() const { return query_; }
  const std::vector<KeywordMatches>& matches() const { return matches_; }
  /// Keyword(s) matched by each tuple, for display.
  const std::map<TupleId, std::string>& keyword_of() const {
    return keyword_of_;
  }
  /// True when AND semantics met an unmatched keyword (or OR semantics
  /// dropped every keyword): cursors are born drained.
  bool empty_result() const { return empty_result_; }
  const KeywordSearchEngine& engine() const { return *engine_; }

  /// Prepare-phase timings (nanoseconds), recorded by the engine when it
  /// builds this query: option validation (QuerySpec::Create; 0 on the
  /// unvalidated legacy path) and the tokenize/match/resolve body. Seeds
  /// of the QueryProfile's validate/match stages when
  /// SearchOptions::profile is on.
  uint64_t validate_ns() const { return validate_ns_; }
  uint64_t match_ns() const { return match_ns_; }

 private:
  friend class KeywordSearchEngine;

  PreparedQuery(const KeywordSearchEngine* engine, QuerySpec spec)
      : engine_(engine), spec_(std::move(spec)) {}

  const KeywordSearchEngine* engine_;
  QuerySpec spec_;
  KeywordQuery query_;
  std::vector<KeywordMatches> matches_;
  std::map<TupleId, std::string> keyword_of_;
  bool empty_result_ = false;
  uint64_t validate_ns_ = 0;
  uint64_t match_ns_ = 0;
};

}  // namespace claks

#endif  // CLAKS_CORE_QUERY_SPEC_H_
