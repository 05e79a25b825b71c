// Copyright 2026 The claks Authors.
//
// KeywordSearchEngine: the public facade. Builds (or accepts) the conceptual
// schema, constructs index and graphs, and answers keyword queries under
// any of the supported search methods and ranking policies.
//
// Two consumption shapes share one pipeline. The incremental shape —
// Prepare a query (core/query_spec.h), Open a ResultCursor
// (core/cursor.h), pull pages with Next — is the primary API; the classic
// Search(text, options) call is a thin wrapper that prepares, opens a
// cursor and drains it, and returns results identical to the
// pre-cursor-era facade (tests/cursor_test.cc proves the equivalence).

#ifndef CLAKS_CORE_ENGINE_H_
#define CLAKS_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/association.h"
#include "core/enumerator.h"
#include "core/mtjnt.h"
#include "core/query_spec.h"
#include "core/ranking.h"
#include "core/statistics.h"
#include "observability/profile.h"
#include "er/relational_to_er.h"
#include "graph/banks.h"
#include "text/scoring.h"

namespace claks {

struct LoadedEngine;  // storage/snapshot.h

/// One result: a connection (path) or a tuple tree, with its analysis.
struct SearchHit {
  /// Always set: the result as a tuple tree (a path is a tree).
  TupleTree tree;
  /// Set when the result is path-shaped.
  std::optional<Connection> connection;
  /// Full analysis; set when `connection` is set.
  std::optional<ConnectionAnalysis> analysis;

  /// Aggregate structural facts, defined for paths and trees alike. For a
  /// non-path tree these aggregate over the tree paths between each pair of
  /// keyword tuples (worst kind, max hubs, conceptual size = entity tuples
  /// minus one).
  size_t rdb_length = 0;
  size_t er_length = 0;
  AssociationKind kind = AssociationKind::kImmediate;
  size_t hub_patterns = 0;
  size_t nm_steps = 0;
  bool schema_close = true;
  std::optional<bool> instance_close;

  double text_score = 0.0;
  /// Instance ambiguity (product of measured step fan-outs; paper §4).
  double ambiguity = 1.0;
  /// Pretty-printed form with matched keywords marked.
  std::string rendered;

  RankInput ToRankInput() const;
};

struct SearchResult {
  KeywordQuery query;
  std::vector<KeywordMatches> matches;
  std::vector<SearchHit> hits;  ///< ranked, best first

  /// Keyword(s) matched by each tuple, for display.
  std::map<TupleId, std::string> keyword_of;

  /// Per-method work metric, comparable across methods: partial paths
  /// expanded by the connection stream for SearchMethod::kStream
  /// (ConnectionStream::expansions), settled nodes visited by the backward
  /// expansion for SearchMethod::kBanks, 0 for the exhaustive methods
  /// (kEnumerate/kMtjnt/kDiscover visit the whole bounded space by
  /// definition). The scale benchmarks compare kStream's value against a
  /// full drain to measure how much work early termination saved.
  size_t expansions = 0;

  /// Per-stage wall times and work counters, set when
  /// SearchOptions::profile was on (observability/profile.h). Hits and
  /// ranking are byte-identical with or without it.
  std::optional<QueryProfile> profile;

  std::string ToString(const Database& db, size_t max_hits = 20) const;
};

/// When does a delta-derived engine fold its accumulated overlays into
/// fresh frozen bases (compaction)? Compaction costs O(dataset) once but
/// restores O(1)-overhead reads and resets the graph's id slack; the
/// overlays cost a hash probe on touched entries until then.
struct DeltaPolicy {
  enum class Mode {
    kAuto,           ///< compact when accumulated ops exceed the threshold
    kAlwaysCompact,  ///< every Derive compacts (degenerates to rebuild-like
                     ///< state with delta-validated integrity)
    kNeverCompact,   ///< keep overlays indefinitely (tests); graph id-slack
                     ///< exhaustion still forces a compaction
  };
  Mode mode = Mode::kAuto;
  /// kAuto threshold: compact when accumulated overlay ops reach
  /// max(min_ops, fraction * total row slots).
  size_t min_ops = 256;
  double fraction = 0.10;
};

class KeywordSearchEngine {
 public:
  /// Builds an engine over `db`, reverse-engineering the conceptual schema
  /// from the catalog. `db` must outlive the engine.
  static Result<std::unique_ptr<KeywordSearchEngine>> Create(
      const Database* db);

  /// Builds an engine with a known conceptual schema + mapping (e.g. the
  /// output of GenerateRelationalSchema).
  static Result<std::unique_ptr<KeywordSearchEngine>> Create(
      const Database* db, ERSchema er_schema, ErRelationalMapping mapping);

  /// Derives the next generation's engine from `prev` plus the row delta,
  /// in O(delta) instead of O(dataset): join indexes, CSR data graph,
  /// inverted index and instance statistics each apply `delta` as an
  /// overlay over their frozen bases (shared with `prev`, whose readers
  /// are untouched). The delta's referential integrity is validated first
  /// — a dangling FK on an inserted row or a delete of a still-referenced
  /// row (RESTRICT) returns IntegrityViolation and builds nothing.
  ///
  /// `next_db` must be `prev`'s database plus exactly `delta` (the service
  /// clones, mutates the clone, diffs watermarks); `delta.schema_changed`
  /// must be false and `prev` warm. Every observable query result on the
  /// derived engine is byte-identical to an engine Create()d from
  /// `next_db` (tests/differential_test.cc --mutations proves it).
  ///
  /// `policy` decides compaction; graph id-slack exhaustion forces one
  /// regardless of mode. `compacted` (optional) reports what happened.
  static Result<std::unique_ptr<KeywordSearchEngine>> Derive(
      const KeywordSearchEngine& prev, const Database* next_db,
      const DatabaseDelta& delta, const DeltaPolicy& policy = {},
      bool* compacted = nullptr);

  /// Serializes this generation into one page-aligned snapshot file
  /// (the claks storage engine, storage/snapshot.h). The engine must be
  /// warm and compact (no derive overlays) — InvalidArgument otherwise;
  /// the service layer compacts before saving. Defined in
  /// storage/snapshot.cc.
  Status SaveSnapshot(const std::string& path) const;

  /// Loads a generation saved by SaveSnapshot: the flat graph/index
  /// arrays come back as zero-copy views over the mmap'd file, so load
  /// time is O(sections + table rows), not O(postings + edges). The
  /// returned LoadedEngine (storage/snapshot.h) owns the database the
  /// engine reads. Defined in storage/snapshot.cc.
  static Result<LoadedEngine> LoadSnapshot(const std::string& path);

  /// Eagerly materializes every lazily-built structure the engine or its
  /// database serves queries from — today the per-FK join indexes and the
  /// cached FK edge list (the CSR data graph, schema graph, inverted
  /// index, association analyzer and ranking statistics are already built
  /// eagerly by Create). After Warmup returns, and as long as the backing
  /// Database is not mutated, Search touches no shared mutable state:
  /// concurrent Search calls from any number of threads are data-race-free
  /// and return the same results as serial execution. The service layer
  /// (service/search_service.h) calls this on every snapshot before
  /// publishing it.
  void Warmup() const { db_->Warmup(); }

  /// True when Warmup's work is in place for the current instance (it is
  /// also done by Create; only a Database mutated after Create can be
  /// unwarmed).
  bool Warm() const { return db_->JoinIndexesFresh(); }

  /// Runs the pull-independent half of a query: tokenization, keyword
  /// matching, AND/OR resolution and the query-dependent structural checks
  /// (keyword-count limits per method). Option validation happens when the
  /// QuerySpec is built: pass QuerySpec::Create's result for strict typed
  /// validation, QuerySpec::Unvalidated for the legacy behavior. The
  /// returned PreparedQuery references this engine — open cursors with
  /// PreparedQuery::Open (and keep the PreparedQuery at a stable address
  /// while cursors are open).
  ///
  /// Thread-safety: const and data-race-free on a warmed engine, like
  /// Search.
  Result<PreparedQuery> Prepare(const std::string& query_text,
                                QuerySpec spec) const;

  /// Convenience: strict-validates `options` (QuerySpec::Create) and
  /// prepares.
  Result<PreparedQuery> Prepare(const std::string& query_text,
                                const SearchOptions& options) const;

  /// Answers a keyword query. Queries where some keyword matches nothing
  /// return an empty hit list (AND semantics). A thin wrapper over
  /// Prepare (unvalidated spec, for byte-compatibility with historical
  /// option bags) + cursor drain.
  ///
  /// Thread-safety: const and data-race-free on a warmed engine (see
  /// Warmup); on an unwarmed engine the first call triggers the database's
  /// mutex-guarded lazy index build.
  Result<SearchResult> Search(const std::string& query_text,
                              const SearchOptions& options = {}) const;

  /// Analyses one candidate tree into a SearchHit (text scores,
  /// association analysis, instance check, rendering). Internal engine
  /// plumbing shared with core/cursor.cc — streaming cursors analyse
  /// candidates on pull through this entry point. `matches` must be sorted
  /// by TupleId, as MatchKeywords returns them: each tree tuple is looked
  /// up by binary search, so one call costs O(|tree| * keywords * log n)
  /// in the match count n.
  Result<SearchHit> AnalyzeTree(
      const TupleTree& tree, const std::vector<KeywordMatches>& matches,
      const std::map<TupleId, std::string>& keyword_of,
      const SearchOptions& options) const;

  /// Runs `prepared`'s method to completion and returns the fully ranked,
  /// grouped and truncated hit sequence — the backing store of
  /// materialized cursors (every method except two-keyword kStream).
  /// One-keyword kStream/kEnumerate with top_k != 0 and a length-monotone
  /// ranker settles early: it stops analyzing once top_k single-node hits
  /// carry MinSortKeyAtLength(ranker, 0).
  /// `work` (optional) receives the method's work metric (BANKS visited
  /// nodes; 0 for the exhaustive methods); `profiler` (optional) receives
  /// the stream/analyze/rank stage times. Internal plumbing shared with
  /// core/cursor.cc.
  Result<std::vector<SearchHit>> MaterializeHits(
      const PreparedQuery& prepared, size_t* work,
      QueryProfiler* profiler = nullptr) const;

  const Database& database() const { return *db_; }
  const ERSchema& er_schema() const { return *er_schema_; }
  const ErRelationalMapping& mapping() const { return *mapping_; }
  const DataGraph& data_graph() const { return *data_graph_; }
  const SchemaGraph& schema_graph() const { return *schema_graph_; }
  const InvertedIndex& index() const { return *index_; }
  const AssociationAnalyzer& analyzer() const { return *analyzer_; }
  const InstanceStatistics& statistics() const { return *statistics_; }

  /// Overlay ops accumulated across the Derive chain since the last
  /// compaction (0 on a freshly Create()d or just-compacted engine); the
  /// DeltaPolicy::kAuto compaction trigger.
  size_t overlay_ops() const { return overlay_ops_; }

 private:
  KeywordSearchEngine() = default;

  /// Snapshot save/load (storage/snapshot.cc) reads the built structures
  /// at save time and installs loaded ones at load time.
  friend class StorageCodec;

  /// Shared result tail: rank by options.ranker, apply per_endpoint_limit
  /// (keeping each group's best), truncate to top_k.
  void RankGroupTruncate(std::vector<SearchHit>* hits,
                         const std::map<TupleId, std::string>& keyword_of,
                         const SearchOptions& options) const;

  const Database* db_ = nullptr;
  std::unique_ptr<ERSchema> er_schema_;
  std::unique_ptr<ErRelationalMapping> mapping_;
  std::unique_ptr<DataGraph> data_graph_;
  std::unique_ptr<SchemaGraph> schema_graph_;
  std::unique_ptr<InvertedIndex> index_;
  std::unique_ptr<AssociationAnalyzer> analyzer_;
  std::unique_ptr<InstanceStatistics> statistics_;
  size_t overlay_ops_ = 0;
};

}  // namespace claks

#endif  // CLAKS_CORE_ENGINE_H_
