// Copyright 2026 The claks Authors.

#include "service/search_service.h"

#include <chrono>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "observability/trace.h"
#include "relational/delta.h"
#include "storage/snapshot.h"
#include "text/matcher.h"

namespace claks {

namespace {

// Canonical service counter names: registered per-service (the instance
// registry behind ServiceStats) and process-wide (the twins below), so
// one name means the same thing on both pages.
constexpr char kSubmitted[] = "claks_service_queries_submitted_total";
constexpr char kCompleted[] = "claks_service_queries_completed_total";
constexpr char kCursorsPrepared[] = "claks_service_cursors_prepared_total";
constexpr char kPagesFetched[] = "claks_service_pages_fetched_total";
constexpr char kDeltaMutations[] = "claks_service_mutations_delta_total";
constexpr char kRebuildMutations[] =
    "claks_service_mutations_rebuild_total";
constexpr char kNoopMutations[] = "claks_service_mutations_noop_total";
constexpr char kCompactions[] = "claks_service_compactions_total";

constexpr char kSubmittedHelp[] = "Queries accepted by Submit";
constexpr char kCompletedHelp[] = "Query futures fulfilled";
constexpr char kCursorsPreparedHelp[] = "Cursors opened by Prepare";
constexpr char kPagesFetchedHelp[] = "Pages served by Fetch";
constexpr char kDeltaMutationsHelp[] =
    "Mutation batches published through O(delta) derivation";
constexpr char kRebuildMutationsHelp[] =
    "Mutation batches published through a full rebuild";
constexpr char kNoopMutationsHelp[] =
    "Mutation batches that changed nothing (no snapshot published)";
constexpr char kCompactionsHelp[] =
    "Derived snapshots that folded their overlays";

// Process-wide twins aggregating every SearchService in the process.
CLAKS_METRIC_COUNTER(g_submitted, kSubmitted, kSubmittedHelp);
CLAKS_METRIC_COUNTER(g_completed, kCompleted, kCompletedHelp);
CLAKS_METRIC_COUNTER(g_cursors_prepared, kCursorsPrepared,
                     kCursorsPreparedHelp);
CLAKS_METRIC_COUNTER(g_pages_fetched, kPagesFetched, kPagesFetchedHelp);
CLAKS_METRIC_COUNTER(g_delta_mutations, kDeltaMutations,
                     kDeltaMutationsHelp);
CLAKS_METRIC_COUNTER(g_rebuild_mutations, kRebuildMutations,
                     kRebuildMutationsHelp);
CLAKS_METRIC_COUNTER(g_noop_mutations, kNoopMutations,
                     kNoopMutationsHelp);
CLAKS_METRIC_COUNTER(g_compactions, kCompactions, kCompactionsHelp);
CLAKS_METRIC_HISTOGRAM_FAMILY(
    g_mutation_us, "claks_service_mutation_duration_us",
    "Mutate wall time by outcome (noop, delta, rebuild)", "outcome");
CLAKS_METRIC_COUNTER(g_slow_queries, "claks_service_slow_queries_total",
                     "Queries over ServiceOptions::slow_query_ms");

// One logical service bump: the instance counter (exact ServiceStats)
// and its process-wide twin (the global metrics page).
void Bump(Counter* instance, Counter& global, uint64_t n = 1) {
  instance->Inc(n);
  global.Inc(n);
}

uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

SearchService::SearchService(
    ServiceOptions options,
    std::optional<std::pair<ERSchema, ErRelationalMapping>>
        schema_and_mapping)
    : options_(options), schema_and_mapping_(std::move(schema_and_mapping)) {
  // Bind this service's counters once; the registry owns them for the
  // service's lifetime, so the raw pointers never dangle.
  submitted_ = &metrics_.GetCounter(kSubmitted, kSubmittedHelp);
  completed_ = &metrics_.GetCounter(kCompleted, kCompletedHelp);
  cursors_prepared_ =
      &metrics_.GetCounter(kCursorsPrepared, kCursorsPreparedHelp);
  pages_fetched_ = &metrics_.GetCounter(kPagesFetched, kPagesFetchedHelp);
  delta_mutations_ =
      &metrics_.GetCounter(kDeltaMutations, kDeltaMutationsHelp);
  rebuild_mutations_ =
      &metrics_.GetCounter(kRebuildMutations, kRebuildMutationsHelp);
  noop_mutations_ =
      &metrics_.GetCounter(kNoopMutations, kNoopMutationsHelp);
  compactions_ = &metrics_.GetCounter(kCompactions, kCompactionsHelp);
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<ResultCache>(options_.cache_capacity,
                                           options_.cache_shards);
  }
  pool_ = std::make_unique<ThreadPool>(options_.num_threads,
                                       options_.queue_capacity);
}

SearchService::~SearchService() = default;

Result<std::unique_ptr<SearchService>> SearchService::Create(
    std::unique_ptr<Database> db, ServiceOptions options) {
  CLAKS_CHECK(db != nullptr);
  auto service = std::unique_ptr<SearchService>(
      new SearchService(options, std::nullopt));
  CLAKS_ASSIGN_OR_RETURN(service->snapshot_,
                         service->BuildSnapshot(std::move(db), 1));
  return service;
}

Result<std::unique_ptr<SearchService>> SearchService::Create(
    std::unique_ptr<Database> db, ERSchema er_schema,
    ErRelationalMapping mapping, ServiceOptions options) {
  CLAKS_CHECK(db != nullptr);
  // NOLINTNEXTLINE(modernize-make-unique): the constructor is private
  // (Create is the only entry point); make_unique cannot reach it.
  auto service = std::unique_ptr<SearchService>(new SearchService(
      options,
      std::make_pair(std::move(er_schema), std::move(mapping))));
  CLAKS_ASSIGN_OR_RETURN(service->snapshot_,
                         service->BuildSnapshot(std::move(db), 1));
  return service;
}

Result<std::unique_ptr<SearchService>> SearchService::CreateFromSnapshot(
    const std::string& path, ServiceOptions options) {
  CLAKS_ASSIGN_OR_RETURN(LoadedEngine loaded,
                         KeywordSearchEngine::LoadSnapshot(path));
  // Retain the loaded generation's conceptual schema for future rebuild
  // paths — a cold-started service must rebuild exactly like one that
  // built its first snapshot in memory.
  ERSchema er_schema = loaded.engine->er_schema();
  ErRelationalMapping mapping = loaded.engine->mapping();
  // NOLINTNEXTLINE(modernize-make-unique): the constructor is private.
  auto service = std::unique_ptr<SearchService>(new SearchService(
      options, std::make_pair(std::move(er_schema), std::move(mapping))));
  auto snapshot = std::make_shared<EngineSnapshot>();
  snapshot->version = 1;
  snapshot->db = std::move(loaded.db);
  snapshot->engine = std::move(loaded.engine);
  CLAKS_CHECK(snapshot->engine->Warm());
  service->snapshot_ = std::shared_ptr<const EngineSnapshot>(snapshot);
  return service;
}

Status SearchService::SaveSnapshot(const std::string& path) {
  MutexLock lock(&mutate_mutex_);
  std::shared_ptr<const EngineSnapshot> current = snapshot();
  Status saved = current->engine->SaveSnapshot(path);
  if (saved.ok() || !saved.IsInvalidArgument()) return saved;
  // The generation carries derive overlays (or stale warm state): fold
  // it into a compacted rebuild, publish that as the next version —
  // result-identical to the derived generation, like every compaction —
  // and serialize the fold.
  Result<std::shared_ptr<const EngineSnapshot>> rebuilt =
      BuildSnapshot(current->db->Clone(), current->version + 1);
  if (!rebuilt.ok()) return rebuilt.status();
  std::shared_ptr<const EngineSnapshot> next = *rebuilt;
  std::atomic_store(&snapshot_, next);
  Bump(compactions_, g_compactions);
  return next->engine->SaveSnapshot(path);
}

Result<std::shared_ptr<const EngineSnapshot>> SearchService::BuildSnapshot(
    std::unique_ptr<Database> db, uint64_t version) const {
  auto snapshot = std::make_shared<EngineSnapshot>();
  snapshot->version = version;
  snapshot->db = std::move(db);
  // Fold table storage so future Clone() calls are O(delta), not
  // O(dataset) — the full-rebuild path pays O(dataset) anyway.
  snapshot->db->CompactStorage();
  if (schema_and_mapping_.has_value()) {
    CLAKS_ASSIGN_OR_RETURN(
        snapshot->engine,
        KeywordSearchEngine::Create(snapshot->db.get(),
                                    schema_and_mapping_->first,
                                    schema_and_mapping_->second));
  } else {
    CLAKS_ASSIGN_OR_RETURN(
        snapshot->engine,
        KeywordSearchEngine::Create(snapshot->db.get()));
  }
  // Create warms the engine already; keep the explicit call as the
  // published contract (a snapshot is never handed out cold).
  snapshot->engine->Warmup();
  CLAKS_CHECK(snapshot->engine->Warm());
  return std::shared_ptr<const EngineSnapshot>(std::move(snapshot));
}

std::shared_ptr<const EngineSnapshot> SearchService::snapshot() const {
  return std::atomic_load(&snapshot_);
}

std::string SearchService::CacheKey(const KeywordSearchEngine& engine,
                                    uint64_t version,
                                    const std::string& query_text,
                                    const SearchOptions& options) {
  KeywordQuery query =
      ParseKeywordQuery(query_text, engine.index().tokenizer());
  std::string key = StrFormat("v%llu|",
                              static_cast<unsigned long long>(version));
  for (const std::string& keyword : query.keywords) {
    key += keyword;
    key += '\x1f';  // unit separator: cannot occur in a normalized token
  }
  key += StrFormat(
      "|m%d|r%d|e%zu|t%zu|k%zu|i%d|w%zu|a%d|g%zu|bk%zu|bw%d|bd%zu|p%d",
      static_cast<int>(options.method), static_cast<int>(options.ranker),
      options.max_rdb_edges, options.tmax, options.top_k,
      options.instance_check ? 1 : 0, options.witness_edges,
      options.require_all_keywords ? 1 : 0, options.per_endpoint_limit,
      options.banks.top_k,
      static_cast<int>(options.banks.weight_model),
      options.banks.max_distance, options.profile ? 1 : 0);
  return key;
}

Result<SearchResult> SearchService::Execute(const std::string& query_text,
                                            const SearchOptions& options) {
  TraceSpan query_span("query");
  // Pick the snapshot at execution (not submission) time: a query queued
  // behind a Mutate sees the new data, while one already executing keeps
  // its generation alive through this shared_ptr.
  std::shared_ptr<const EngineSnapshot> snap = snapshot();
  std::string key;
  if (cache_ != nullptr) {
    key = CacheKey(*snap->engine, snap->version, query_text, options);
    if (std::shared_ptr<const SearchResult> cached = cache_->Get(key)) {
      return SearchResult(*cached);
    }
  }
  // Slow-query logging needs a QueryProfile even when the caller did not
  // ask for one, so the service forces profiling internally; the forced
  // profile is stripped again below, keeping the returned (and cached)
  // value byte-identical to an unprofiled run.
  const bool slow_log = options_.slow_query_ms > 0;
  SearchOptions effective = options;
  if (slow_log) effective.profile = true;
  auto start = std::chrono::steady_clock::now();
  Result<SearchResult> result = snap->engine->Search(query_text, effective);
  if (slow_log && result.ok()) {
    uint64_t elapsed_ms = ElapsedUs(start) / 1000;
    if (elapsed_ms >= options_.slow_query_ms) {
      g_slow_queries.Inc();
      const SearchResult& value = result.ValueOrDie();
      CLAKS_LOG(Warning)
          .WithField("query", query_text)
          .WithField("method", SearchMethodToString(effective.method))
          .WithField("ms", elapsed_ms)
          .WithField("profile", value.profile.has_value()
                                    ? value.profile->Summary()
                                    : std::string("none"))
          << "slow query";
    }
  }
  if (!result.ok()) return result;
  SearchResult value = std::move(result).ValueUnsafe();
  if (!options.profile) value.profile.reset();
  if (cache_ == nullptr) return value;
  auto shared = std::make_shared<const SearchResult>(std::move(value));
  cache_->Put(key, shared);
  return SearchResult(*shared);
}

std::future<Result<SearchResult>> SearchService::Submit(
    std::string query_text, SearchOptions options) {
  auto promise = std::make_shared<std::promise<Result<SearchResult>>>();
  std::future<Result<SearchResult>> future = promise->get_future();
  Bump(submitted_, g_submitted);
  pool_->Submit([this, promise, query_text = std::move(query_text),
                 options]() {
    Result<SearchResult> result = Execute(query_text, options);
    // Count before fulfilling: a waiter that sees the future ready also
    // sees the counter (set_value synchronizes with the get).
    Bump(completed_, g_completed);
    promise->set_value(std::move(result));
  });
  return future;
}

Result<SearchResult> SearchService::SearchNow(
    const std::string& query_text, const SearchOptions& options) {
  return Submit(query_text, options).get();
}

Result<std::shared_ptr<SearchService::CursorState>>
SearchService::StateForRequest(const QueryRequest& request,
                               QuerySpec spec) {
  std::shared_ptr<const EngineSnapshot> snap = snapshot();
  std::string key = CacheKey(*snap->engine, snap->version,
                             request.query_text, request.options);
  {
    MutexLock lock(&cursors_mutex_);
    auto it = active_states_.find(key);
    if (it != active_states_.end()) {
      if (std::shared_ptr<CursorState> state = it->second.lock()) {
        return state;
      }
      active_states_.erase(it);
    }
  }

  auto state = std::make_shared<CursorState>();
  state->snapshot = snap;
  state->key = key;
  if (cache_ != nullptr) {
    if (std::shared_ptr<const SearchResult> cached = cache_->Get(key)) {
      // The whole result is already materialized: a zero-work cursor
      // slicing the shared cached object directly. The state is not
      // published yet, but locking its (uncontended) mutex keeps the
      // guarded-field discipline provable.
      state->query = cached->query;
      for (const KeywordMatches& km : cached->matches) {
        state->match_counts.push_back(km.matches.size());
      }
      {
        MutexLock init_lock(&state->mutex);
        state->expansions = cached->expansions;
        state->drained = true;
      }
      state->whole = std::move(cached);
      MutexLock lock(&cursors_mutex_);
      active_states_[key] = state;
      return state;
    }
  }

  CLAKS_ASSIGN_OR_RETURN(
      PreparedQuery prepared,
      snap->engine->Prepare(request.query_text, std::move(spec)));
  state->prepared = std::make_unique<PreparedQuery>(std::move(prepared));
  {
    MutexLock init_lock(&state->mutex);
    CLAKS_ASSIGN_OR_RETURN(state->cursor, state->prepared->Open());
    state->drained = state->cursor->Drained();
    state->expansions = state->cursor->Stats().expansions;
  }
  state->query = state->prepared->query();
  for (const KeywordMatches& km : state->prepared->matches()) {
    state->match_counts.push_back(km.matches.size());
  }
  MutexLock lock(&cursors_mutex_);
  // A racing Prepare may have registered an equivalent state meanwhile;
  // share theirs so both clients pull from one engine cursor.
  auto it = active_states_.find(key);
  if (it != active_states_.end()) {
    if (std::shared_ptr<CursorState> existing = it->second.lock()) {
      return existing;
    }
  }
  active_states_[key] = state;
  return state;
}

Result<QueryResponse> SearchService::Prepare(const QueryRequest& request) {
  if (request.api_version != kQueryApiVersion) {
    return Status::Unimplemented(StrFormat(
        "query api version %u not supported (this service speaks v%u)",
        request.api_version, kQueryApiVersion));
  }
  CLAKS_ASSIGN_OR_RETURN(QuerySpec spec,
                         QuerySpec::Create(request.options));
  {
    MutexLock lock(&cursors_mutex_);
    if (open_cursors_.size() >= options_.max_open_cursors) {
      return Status::OutOfRange(
          StrFormat("too many open cursors (max %zu); Close finished ones",
                    options_.max_open_cursors));
    }
  }
  CLAKS_ASSIGN_OR_RETURN(std::shared_ptr<CursorState> state,
                         StateForRequest(request, std::move(spec)));

  auto client = std::make_shared<ClientCursor>();
  client->state = state;
  uint64_t id = next_cursor_id_.fetch_add(1, std::memory_order_relaxed);
  {
    MutexLock lock(&cursors_mutex_);
    // Re-check under the registration lock: concurrent Prepares may have
    // filled the remaining slots since the early check.
    if (open_cursors_.size() >= options_.max_open_cursors) {
      return Status::OutOfRange(
          StrFormat("too many open cursors (max %zu); Close finished ones",
                    options_.max_open_cursors));
    }
    open_cursors_.emplace(id, std::move(client));
  }
  Bump(cursors_prepared_, g_cursors_prepared);

  QueryResponse response;
  response.cursor_id = id;
  response.snapshot_version = state->snapshot->version;
  {
    MutexLock state_lock(&state->mutex);
    const std::vector<SearchHit>& source =
        state->whole != nullptr ? state->whole->hits : state->prefix;
    response.query = state->query;
    response.match_counts = state->match_counts;
    response.drained = state->drained && source.empty();
    response.expansions = state->expansions;
  }
  return response;
}

Result<QueryResponse> SearchService::Fetch(uint64_t cursor_id,
                                           size_t page_size) {
  std::shared_ptr<ClientCursor> client;
  {
    MutexLock lock(&cursors_mutex_);
    auto it = open_cursors_.find(cursor_id);
    if (it == open_cursors_.end()) {
      return Status::NotFound(
          StrFormat("no open cursor %llu",
                    static_cast<unsigned long long>(cursor_id)));
    }
    client = it->second;
  }

  MutexLock client_lock(&client->mutex);
  CursorState& state = *client->state;
  QueryResponse response;
  response.cursor_id = cursor_id;
  response.snapshot_version = state.snapshot->version;
  response.offset = client->offset;

  // Saturate: a wrapped offset + page_size would rewind the client's
  // position and re-serve pages.
  size_t target = client->offset + page_size;
  if (target < client->offset) target = static_cast<size_t>(-1);

  MutexLock state_lock(&state.mutex);
  response.query = state.query;
  response.match_counts = state.match_counts;
  while (!state.drained && state.prefix.size() < target) {
    size_t need = target - state.prefix.size();
    CLAKS_ASSIGN_OR_RETURN(std::vector<SearchHit> pulled,
                           state.cursor->Next(need));
    size_t got = pulled.size();
    for (SearchHit& hit : pulled) state.prefix.push_back(std::move(hit));
    state.expansions = state.cursor->Stats().expansions;
    if (state.cursor->Drained()) state.drained = true;
    if (got < need) break;
  }
  if (state.drained && state.cursor != nullptr && cache_ != nullptr &&
      state.prepared != nullptr) {
    // Fully drained through the cursor path: publish the whole result so
    // future Submit calls (and Prepares) of the same query hit the cache.
    auto full = std::make_shared<SearchResult>();
    full->query = state.prepared->query();
    full->matches = state.prepared->matches();
    full->keyword_of = state.prepared->keyword_of();
    full->hits = state.prefix;
    full->expansions = state.expansions;
    cache_->Put(state.key, std::move(full));
    state.cursor.reset();  // the prefix is complete; free the engine cursor
  }

  const std::vector<SearchHit>& source =
      state.whole != nullptr ? state.whole->hits : state.prefix;
  size_t end = std::min(source.size(), target);
  for (size_t i = client->offset; i < end; ++i) {
    response.hits.push_back(source[i]);
  }
  client->offset = end;
  response.drained = state.drained && client->offset >= source.size();
  response.expansions = state.expansions;
  Bump(pages_fetched_, g_pages_fetched);
  return response;
}

std::future<Result<QueryResponse>> SearchService::SubmitFetch(
    uint64_t cursor_id, size_t page_size) {
  auto promise =
      std::make_shared<std::promise<Result<QueryResponse>>>();
  std::future<Result<QueryResponse>> future = promise->get_future();
  pool_->Submit([this, promise, cursor_id, page_size]() {
    promise->set_value(Fetch(cursor_id, page_size));
  });
  return future;
}

Status SearchService::Close(uint64_t cursor_id) {
  MutexLock lock(&cursors_mutex_);
  auto it = open_cursors_.find(cursor_id);
  if (it == open_cursors_.end()) {
    return Status::NotFound(
        StrFormat("no open cursor %llu",
                  static_cast<unsigned long long>(cursor_id)));
  }
  open_cursors_.erase(it);
  // Reap state-index entries whose every client is gone.
  for (auto state_it = active_states_.begin();
       state_it != active_states_.end();) {
    if (state_it->second.expired()) {
      state_it = active_states_.erase(state_it);
    } else {
      ++state_it;
    }
  }
  return Status::OK();
}

Status SearchService::Mutate(
    const std::function<Status(Database*)>& mutation) {
  CLAKS_CHECK(mutation != nullptr);
  MutexLock lock(&mutate_mutex_);
  TraceSpan mutate_span("mutate");
  auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const EngineSnapshot> current = snapshot();
  // Copy-on-write: the clone (not the live database) absorbs the
  // mutation, so every concurrent query keeps reading an immutable
  // generation. Tables share frozen segments, so the clone itself is
  // O(rows changed since the last compaction).
  std::unique_ptr<Database> next_db = current->db->Clone();
  DatabaseWatermark watermark = TakeWatermark(*next_db);
  CLAKS_RETURN_NOT_OK(mutation(next_db.get()));
  DatabaseDelta delta = ComputeDelta(watermark, *next_db);

  if (delta.empty()) {
    // Nothing observable changed: publish nothing, build nothing — the
    // current generation stays current (same pointer, same version).
    Bump(noop_mutations_, g_noop_mutations);
    g_mutation_us.With({"noop"}).Observe(ElapsedUs(start));
    return Status::OK();
  }

  std::shared_ptr<const EngineSnapshot> next;
  if (!delta.schema_changed) {
    auto derived = std::make_shared<EngineSnapshot>();
    derived->version = current->version + 1;
    derived->db = std::move(next_db);
    bool compacted = false;
    Result<std::unique_ptr<KeywordSearchEngine>> engine =
        KeywordSearchEngine::Derive(*current->engine, derived->db.get(),
                                    delta, options_.delta_policy,
                                    &compacted);
    if (engine.ok()) {
      derived->engine = std::move(engine).ValueOrDie();
      CLAKS_CHECK(derived->engine->Warm());
      Bump(delta_mutations_, g_delta_mutations);
      g_mutation_us.With({"delta"}).Observe(ElapsedUs(start));
      if (compacted) {
        // The engine folded its overlays; fold table storage too so the
        // next Clone() is O(1) again. Content- and slot-preserving, and
        // the previous generation's shared segments are untouched.
        derived->db->CompactStorage();
        Bump(compactions_, g_compactions);
      }
      next = std::move(derived);
    } else if (engine.status().IsIntegrityViolation()) {
      // The batch itself is invalid; nothing is published.
      return engine.status();
    } else {
      // Unexpected derive failure: fall back to the full rebuild below.
      next_db = std::move(derived->db);
    }
  }
  if (next == nullptr) {
    CLAKS_ASSIGN_OR_RETURN(
        next, BuildSnapshot(std::move(next_db), current->version + 1));
    Bump(rebuild_mutations_, g_rebuild_mutations);
    g_mutation_us.With({"rebuild"}).Observe(ElapsedUs(start));
  }
  std::atomic_store(&snapshot_, std::move(next));
  return Status::OK();
}

void SearchService::Drain() { pool_->Drain(); }

ServiceStats SearchService::stats() const {
  ServiceStats stats;
  // One snapshot pass over the service's registry is the source of truth
  // for every counter field — the per-field atomic loads this replaced
  // could interleave with writers differently per field.
  MetricsSnapshot snap = metrics_.Snapshot();
  stats.submitted = snap.CounterValue(kSubmitted);
  stats.completed = snap.CounterValue(kCompleted);
  stats.cursors_prepared = snap.CounterValue(kCursorsPrepared);
  stats.pages_fetched = snap.CounterValue(kPagesFetched);
  stats.delta_mutations = snap.CounterValue(kDeltaMutations);
  stats.rebuild_mutations = snap.CounterValue(kRebuildMutations);
  stats.noop_mutations = snap.CounterValue(kNoopMutations);
  stats.compactions = snap.CounterValue(kCompactions);
  if (cache_ != nullptr) {
    ResultCacheStats cache = cache_->stats();
    stats.cache_hits = cache.hits;
    stats.cache_misses = cache.misses;
    stats.cache_evictions = cache.evictions;
    stats.cache_entries = cache.entries;
  }
  stats.snapshot_version = snapshot()->version;
  {
    MutexLock lock(&cursors_mutex_);
    stats.open_cursors = open_cursors_.size();
  }
  return stats;
}

std::string ServiceStats::RenderText() const {
  std::string out = "claks service stats\n";
  auto line = [&out](const char* name, uint64_t value) {
    out += StrFormat("  %-18s %llu\n", name,
                     static_cast<unsigned long long>(value));
  };
  line("submitted", submitted);
  line("completed", completed);
  line("cache_hits", cache_hits);
  line("cache_misses", cache_misses);
  line("cache_evictions", cache_evictions);
  line("cache_entries", cache_entries);
  line("snapshot_version", snapshot_version);
  line("cursors_prepared", cursors_prepared);
  line("pages_fetched", pages_fetched);
  line("open_cursors", open_cursors);
  line("delta_mutations", delta_mutations);
  line("rebuild_mutations", rebuild_mutations);
  line("noop_mutations", noop_mutations);
  line("compactions", compactions);
  return out;
}

}  // namespace claks
