// Copyright 2026 The claks Authors.
//
// SearchService: the concurrent query front of the engine. One service
// owns (a) an immutable, fully-warmed KeywordSearchEngine snapshot shared
// RCU-style behind a std::shared_ptr, (b) a fixed worker pool with a
// bounded submission queue (common/thread_pool.h), and (c) a sharded LRU
// result cache keyed by the canonical normalized query form
// (service/result_cache.h). Queries are submitted from any thread and
// resolve through per-query futures; mutations clone the database, build
// and warm a fresh snapshot off to the side, and swap it in atomically
// while in-flight queries finish on the old snapshot.
//
// Two consumption shapes: Submit/SearchNow execute a whole query and
// resolve a future with the full SearchResult; Prepare/Fetch (the
// versioned query_api.h pair) open a server-side cursor and pull the
// ranked sequence page by page — lazy methods (kStream) only do the
// expansion work the fetched pages require, open cursors pin their
// snapshot generation across mutations, and cursor state is shared by
// canonical cache key so identical concurrent browsing sessions pay the
// search once.

#ifndef CLAKS_SERVICE_SEARCH_SERVICE_H_
#define CLAKS_SERVICE_SEARCH_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "core/query_spec.h"
#include "observability/metrics.h"
#include "service/query_api.h"
#include "service/result_cache.h"

namespace claks {

/// One immutable generation of the data + engine: the database frozen at
/// snapshot-build time and a warmed engine over it. Readers hold the whole
/// snapshot via shared_ptr, so a generation stays alive exactly as long as
/// any in-flight query (or the service) references it.
struct EngineSnapshot {
  /// Monotonically increasing, starting at 1; part of every cache key, so
  /// results cached against an old generation can never serve a new one.
  uint64_t version = 0;
  std::unique_ptr<Database> db;
  std::unique_ptr<KeywordSearchEngine> engine;  ///< warmed, reads db
};

struct ServiceOptions {
  /// Worker threads executing searches.
  size_t num_threads = 4;
  /// Bounded submission queue: Submit blocks (backpressure, no drops)
  /// while this many tasks wait.
  size_t queue_capacity = 64;
  /// Total result-cache entries across shards; 0 disables caching.
  size_t cache_capacity = 1024;
  size_t cache_shards = 8;
  /// Cap on simultaneously open client cursors (Prepare fails with
  /// OutOfRange beyond it; Close frees slots). Each open cursor pins its
  /// engine snapshot, so the cap bounds how many old generations
  /// straggling readers can keep alive.
  size_t max_open_cursors = 1024;
  /// When a delta-derived snapshot folds its overlays (core/engine.h).
  DeltaPolicy delta_policy;
  /// Queries slower than this log one WARNING line with their
  /// QueryProfile summary as structured fields (the service forces
  /// profiling internally; callers that did not ask for a profile still
  /// get — and cache — profile-free results). 0 disables slow-query
  /// logging entirely.
  uint64_t slow_query_ms = 0;
};

/// Point-in-time service counters, re-derived from the service's own
/// MetricsRegistry snapshot (one read pass per stats() call — every
/// counter is read at the same point of the same sweep, unlike scattered
/// per-field atomic loads). Exact while metrics recording is on (the
/// default): hits + misses counts executed lookups, completed counts
/// fulfilled futures. MetricsRegistry::SetRecording(false) freezes these
/// counters along with every other metric in the process.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  size_t cache_entries = 0;
  uint64_t snapshot_version = 0;
  /// Cursor endpoints (query_api.h): cursors Prepared / pages Fetched
  /// since construction, and the currently open (not yet Closed) cursors.
  uint64_t cursors_prepared = 0;
  uint64_t pages_fetched = 0;
  size_t open_cursors = 0;
  /// Mutation-path counters: batches published through O(delta) engine
  /// derivation, through a full rebuild (schema change or derive
  /// fallback), and batches that changed nothing (no snapshot published).
  /// `compactions` counts derived snapshots that folded their overlays.
  uint64_t delta_mutations = 0;
  uint64_t rebuild_mutations = 0;
  uint64_t noop_mutations = 0;
  uint64_t compactions = 0;

  /// Human-readable stats page (the future /stats endpoint's text body):
  /// one aligned `name value` line per counter above.
  std::string RenderText() const;
};

/// Thread-safety: every public member may be called from any thread.
/// Submit is wait-free past admission (it blocks only on the bounded
/// queue); Mutate serializes with other Mutate calls but never blocks
/// queries — they keep resolving against the previous snapshot until the
/// swap. Destruction completes all admitted queries first.
class SearchService {
 public:
  /// Takes ownership of `db`, reverse-engineers the conceptual schema,
  /// and publishes snapshot version 1. Fails when the engine cannot be
  /// built (e.g. referential-integrity violations).
  static Result<std::unique_ptr<SearchService>> Create(
      std::unique_ptr<Database> db, ServiceOptions options = {});

  /// Same with a known conceptual schema + mapping; both are retained and
  /// reused for every future snapshot rebuild (row mutations do not change
  /// the schema).
  static Result<std::unique_ptr<SearchService>> Create(
      std::unique_ptr<Database> db, ERSchema er_schema,
      ErRelationalMapping mapping, ServiceOptions options = {});

  /// Cold start from a snapshot file (storage/snapshot.h): the loaded
  /// generation — flat graph/index arrays served zero-copy out of the
  /// mmap'd file — becomes snapshot version 1, with no index build, graph
  /// construction, tokenization or integrity re-check. The loaded
  /// engine's ER schema + mapping are retained for future rebuilds, and
  /// subsequent Mutate calls delta-derive on top of the frozen mmap'd
  /// base exactly as they would over a built one (compaction folds the
  /// overlays into fresh owned arrays; the mapping is unpinned when the
  /// last generation viewing it dies). Fails with the loader's typed
  /// StorageError status on a corrupt or truncated file.
  static Result<std::unique_ptr<SearchService>> CreateFromSnapshot(
      const std::string& path, ServiceOptions options = {});

  /// Serializes the current generation to `path` (atomic tmp + rename).
  /// A generation carrying derive overlays cannot be serialized directly;
  /// this first publishes a compacted rebuild as the next snapshot
  /// version (result-identical — the differential suite proves derived ==
  /// rebuilt) and saves that, so the call always writes the service's
  /// current logical state. Serializes with Mutate.
  Status SaveSnapshot(const std::string& path)
      CLAKS_EXCLUDES(mutate_mutex_);

  ~SearchService();

  SearchService(const SearchService&) = delete;
  SearchService& operator=(const SearchService&) = delete;

  /// Enqueues one query; the future resolves to exactly what
  /// KeywordSearchEngine::Search would return serially on the snapshot
  /// current at execution time (cache hits return a copy of that same
  /// result). Blocks while the submission queue is full.
  std::future<Result<SearchResult>> Submit(std::string query_text,
                                           SearchOptions options = {});

  /// Convenience: Submit + wait.
  Result<SearchResult> SearchNow(const std::string& query_text,
                                 const SearchOptions& options = {});

  /// Opens a server-side cursor for incremental consumption (the
  /// prepared-query shape of query_api.h). Validates request.options
  /// strictly (QuerySpec::Create — InvalidArgument naming each
  /// QuerySpecError), rejects api_versions this build does not speak
  /// (Unimplemented), and fails with OutOfRange at max_open_cursors. The
  /// cursor pins the snapshot current at Prepare time: Fetch pages stay
  /// frozen on that generation across Mutate calls. Cursor server state
  /// is shared by canonical cache key — concurrent clients preparing the
  /// same query on the same snapshot pull from one engine cursor, and a
  /// query whose full result already sits in the result cache opens a
  /// zero-work materialized cursor.
  Result<QueryResponse> Prepare(const QueryRequest& request)
      CLAKS_EXCLUDES(cursors_mutex_);

  /// Returns the next `page_size` hits of the cursor's ranked sequence
  /// (fewer on the last page; `drained` set once the sequence ends).
  /// Lazy methods do the expansion work here, not in Prepare; a cursor
  /// fetched to the end populates the whole-result cache for future
  /// Submit calls of the same query. NotFound for unknown/closed ids.
  ///
  /// Thread-safety: any thread; Fetches on the same cursor_id serialize
  /// and hand out disjoint consecutive pages.
  Result<QueryResponse> Fetch(uint64_t cursor_id, size_t page_size)
      CLAKS_EXCLUDES(cursors_mutex_);

  /// Fetch through the worker pool: the future resolves to exactly what
  /// Fetch(cursor_id, page_size) would return. Blocks while the
  /// submission queue is full, like Submit.
  std::future<Result<QueryResponse>> SubmitFetch(uint64_t cursor_id,
                                                 size_t page_size);

  /// Releases a cursor (and, when it held the last reference, the shared
  /// server state plus its snapshot pin). NotFound for unknown ids.
  Status Close(uint64_t cursor_id) CLAKS_EXCLUDES(cursors_mutex_);

  /// Clones the current database (O(rows changed since the last
  /// compaction) — tables share frozen segments), applies `mutation` to
  /// the clone, diffs watermarks into a row delta, and derives the next
  /// snapshot from the current one in O(delta) (core/engine.h Derive):
  /// the new generation shares every frozen base with the old, readers of
  /// which are untouched. Atomically publishes the result as the next
  /// snapshot version.
  ///
  /// Special cases: a batch that changes nothing publishes nothing (the
  /// snapshot pointer and version are unchanged and no engine is built);
  /// a batch violating referential integrity (dangling FK, delete of a
  /// still-referenced row) fails with IntegrityViolation and publishes
  /// nothing; a schema change (AddTable) or an unexpected derive failure
  /// falls back to the full rebuild path. Mutations serialize with each
  /// other and never block queries.
  Status Mutate(const std::function<Status(Database*)>& mutation)
      CLAKS_EXCLUDES(mutate_mutex_);

  /// The current snapshot (RCU read side): callers may search it directly
  /// and hold it as long as they like.
  std::shared_ptr<const EngineSnapshot> snapshot() const;

  /// Blocks until every query submitted so far has resolved.
  void Drain();

  ServiceStats stats() const CLAKS_EXCLUDES(cursors_mutex_);
  const ServiceOptions& options() const { return options_; }

  /// This service's own metrics registry — the structured source stats()
  /// snapshots; RenderText/RenderJson on it are the exposition pages a
  /// future /stats endpoint serves per service.
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The canonical cache key of a query against one snapshot version: the
  /// tokenizer-normalized keyword sequence (so "Smith XML", "smith xml"
  /// and " SMITH  xml. " coincide) plus every option that can change the
  /// result — method, ranker, top_k, AND/OR semantics, depth/tmax bounds,
  /// instance-check settings, per-endpoint grouping, the BANKS
  /// parameters and the profile flag (a profiled result carries its
  /// QueryProfile; an unprofiled one must not) — plus the snapshot
  /// version itself.
  static std::string CacheKey(const KeywordSearchEngine& engine,
                              uint64_t version,
                              const std::string& query_text,
                              const SearchOptions& options);

 private:
  /// Server-side cursor state, shared among every client cursor whose
  /// (snapshot, query, options) canonical key coincides: one engine
  /// cursor feeds an append-only materialized prefix all clients slice
  /// pages from, so identical concurrent browsing sessions pay the
  /// search work once. Holding the snapshot shared_ptr pins the
  /// generation for the state's lifetime.
  struct CursorState {
    Mutex mutex;
    /// Immutable after construction (set before the state is published
    /// into active_states_): snapshot pin, canonical key, the prepared
    /// query, and the query echo fields.
    std::shared_ptr<const EngineSnapshot> snapshot;
    std::string key;  ///< canonical cache key (CacheKey)
    /// Heap-pinned: open cursors reference the PreparedQuery internals,
    /// so it must keep a stable address for the state's lifetime. Null
    /// when the state was built from a cached whole result.
    std::unique_ptr<PreparedQuery> prepared;
    /// Cache-backed source: the shared whole result, sliced directly (no
    /// per-session copy). Null on the live-cursor path, where `prefix`
    /// accumulates instead.
    std::shared_ptr<const SearchResult> whole;
    KeywordQuery query;
    std::vector<size_t> match_counts;
    /// The live engine cursor and everything it feeds, advanced by
    /// Fetch under `mutex`.
    std::unique_ptr<ResultCursor> cursor
        CLAKS_GUARDED_BY(mutex);  ///< null when cache-backed
    std::vector<SearchHit> prefix
        CLAKS_GUARDED_BY(mutex);  ///< materialized so far (live path)
    size_t expansions CLAKS_GUARDED_BY(mutex) = 0;
    bool drained CLAKS_GUARDED_BY(mutex) = false;
  };

  /// One client's handle: a shared state plus this client's position.
  struct ClientCursor {
    Mutex mutex;  ///< serializes Fetches on this id
    /// Immutable after construction.
    std::shared_ptr<CursorState> state;
    size_t offset CLAKS_GUARDED_BY(mutex) = 0;
  };

  SearchService(ServiceOptions options,
                std::optional<std::pair<ERSchema, ErRelationalMapping>>
                    schema_and_mapping);

  /// Finds or builds the shared CursorState for `request` against the
  /// current snapshot.
  Result<std::shared_ptr<CursorState>> StateForRequest(
      const QueryRequest& request, QuerySpec spec)
      CLAKS_EXCLUDES(cursors_mutex_);

  /// Builds a warmed snapshot of `db` at `version` using the retained
  /// schema/mapping when present (reverse-engineering otherwise).
  Result<std::shared_ptr<const EngineSnapshot>> BuildSnapshot(
      std::unique_ptr<Database> db, uint64_t version) const;

  /// The worker-side execution path: snapshot pick, cache lookup, search,
  /// cache fill.
  Result<SearchResult> Execute(const std::string& query_text,
                               const SearchOptions& options);

  const ServiceOptions options_;
  /// Schema + mapping reused across snapshot rebuilds (nullopt: recover
  /// from the catalog each time).
  const std::optional<std::pair<ERSchema, ErRelationalMapping>>
      schema_and_mapping_;

  /// RCU-style published snapshot: readers atomic_load a shared_ptr copy,
  /// Mutate atomic_stores the replacement. Never null after Create. Not
  /// mutex-guarded — the atomic free functions are the whole protocol.
  std::shared_ptr<const EngineSnapshot> snapshot_;
  /// Serializes Mutate calls (clone + rebuild happen outside any lock the
  /// read side takes). Guards the mutate critical section, not a field:
  /// the snapshot swap itself is the atomic_store above.
  Mutex mutate_mutex_;

  std::unique_ptr<ResultCache> cache_;  ///< null when caching is disabled

  /// Per-service metrics registry: the single source of truth stats()
  /// re-derives ServiceStats from in one snapshot pass. The counters
  /// below are bound once at construction (instance registrations are
  /// exempt from the metric-naming lint's namespace-scope rule); every
  /// bump dual-writes the process-wide claks_service_* twin so the
  /// global metrics page aggregates all services in the process.
  MetricsRegistry metrics_;
  Counter* submitted_ = nullptr;
  Counter* completed_ = nullptr;
  Counter* delta_mutations_ = nullptr;
  Counter* rebuild_mutations_ = nullptr;
  Counter* noop_mutations_ = nullptr;
  Counter* compactions_ = nullptr;
  Counter* cursors_prepared_ = nullptr;
  Counter* pages_fetched_ = nullptr;

  /// Cursor registry. `open_cursors_` maps live client ids;
  /// `active_states_` weakly indexes in-flight shared states by canonical
  /// key so identical Prepares coalesce (expired entries are reaped
  /// opportunistically).
  mutable Mutex cursors_mutex_;  ///< mutable: stats() is const
  std::unordered_map<uint64_t, std::shared_ptr<ClientCursor>> open_cursors_
      CLAKS_GUARDED_BY(cursors_mutex_);
  std::map<std::string, std::weak_ptr<CursorState>> active_states_
      CLAKS_GUARDED_BY(cursors_mutex_);
  std::atomic<uint64_t> next_cursor_id_{1};

  /// Declared last: destroyed first, so workers finish (they reference
  /// snapshot_/cache_/counters) before the rest of the service tears down.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace claks

#endif  // CLAKS_SERVICE_SEARCH_SERVICE_H_
