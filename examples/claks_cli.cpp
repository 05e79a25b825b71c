// Copyright 2026 The claks Authors.
//
// Command-line driver: run keyword queries against a built-in dataset or a
// database directory (catalog.txt + CSVs, as written by SaveDatabase).
//
//   claks_cli --dataset=paper --query="Smith XML"
//   claks_cli --dataset=movies --query="grace noir" --ranker=ambiguity
//   claks_cli --db=/path/to/dir --query="..." --method=mtjnt --tmax=4
//
// Flags:
//   --dataset=paper|company|full|bibliography|movies   built-in data
//   --db=DIR            load a persisted database instead
//   --query=TEXT        keywords (required)
//   --method=enumerate|stream|mtjnt|discover|banks     (default enumerate)
//   --ranker=rdb-length|er-length|close-first|loose-penalty|
//            instance-close|combined|ambiguity|more-context
//   --depth=N           max FK edges for enumerate/stream (default 4)
//   --tmax=N            max tuples for mtjnt/discover (default 5)
//   --top=N             result cap (default 10)
//   --page-size=N       incremental paging: prepare the query, open a
//                       cursor and fetch N hits at a time (interactive:
//                       waits for Enter between pages when stdin is a
//                       TTY). With --method=stream the expansion work
//                       happens per page — the per-page expansion counter
//                       shows how little of the result space each page
//                       cost. Combined with --threads this drives the
//                       service's Prepare/Fetch endpoints instead.
//   --explain           print a natural-language reading per hit
//   --sql               print a SQL statement per hit
//   --stats             print instance statistics and exit
//   --save=DIR          persist the loaded dataset and exit
//
// Snapshot storage (src/storage/): a fully-warmed engine serialized to a
// single page-aligned file, mmap-loaded back with zero-copy views — the
// cold-start path skips tokenization, graph construction and join-index
// builds entirely:
//   --ingest-csv=DIR    bulk-ingest a database directory (catalog.txt +
//                       CSVs, as written by --save) — alias of --db that
//                       reads as an ingest step; combine with
//                       --save-snapshot to produce a warmed snapshot
//   --save-snapshot=F   build + warm the engine, serialize it to F and
//                       exit (prints section sizes via file length)
//   --load-snapshot=F   mmap F instead of building anything; serves
//                       queries from the loaded generation. With
//                       --threads the service cold-starts from F and
//                       subsequent mutations delta-derive on the frozen
//                       mmap'd base
//
// Observability (src/observability/):
//   --profile           attach a per-stage QueryProfile to every query
//                       and print it (wall time per stage, expansions)
//   --trace-out=FILE    record TraceSpans for the whole run and write
//                       them as Chrome trace_event JSON to FILE — load it
//                       in chrome://tracing or Perfetto (requires a
//                       build with CLAKS_TRACING=ON, the default)
//   --metrics           print the process-wide metrics page
//                       (Prometheus-style RenderText) after the run
//
// Concurrent service mode (drives service/search_service.h instead of a
// bare engine):
//   --threads=N         serve through a SearchService with N workers
//   --queries=A;B;C     batch of queries (';'-separated; overrides --query)
//   --repeat=N          submit the batch N times (default 1) — repeats are
//                       result-cache hits; per-run QPS and cache counters
//                       are reported at the end

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "core/explain.h"
#include "core/query_spec.h"
#include "core/sql.h"
#include "datasets/bibliography.h"
#include "datasets/company_full.h"
#include "datasets/company_gen.h"
#include "datasets/company_paper.h"
#include "datasets/movies.h"
#include "observability/metrics.h"
#include "observability/profile.h"
#include "observability/trace.h"
#include "relational/catalog_io.h"
#include "service/search_service.h"
#include "storage/snapshot.h"

namespace {

struct Flags {
  std::string dataset = "paper";
  std::string db_dir;
  std::string query;
  std::string method = "enumerate";
  std::string ranker = "close-first";
  size_t depth = 4;
  size_t tmax = 5;
  size_t top = 10;
  size_t page_size = 0;  // > 0: prepared-query + cursor paging
  bool explain = false;
  bool sql = false;
  bool stats = false;
  bool profile = false;      // attach + print QueryProfiles
  bool metrics = false;      // print the metrics page after the run
  std::string trace_out;     // write Chrome trace JSON here
  std::string save_dir;
  std::string ingest_csv;     // bulk-ingest a CSV directory
  std::string save_snapshot;  // serialize the warmed engine to this file
  std::string load_snapshot;  // mmap an engine snapshot instead of building
  size_t threads = 0;  // > 0: drive a SearchService instead of the engine
  std::string queries;  // ';'-separated batch for service mode
  size_t repeat = 1;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (std::strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "dataset", &flags->dataset)) continue;
    if (ParseFlag(argv[i], "db", &flags->db_dir)) continue;
    if (ParseFlag(argv[i], "query", &flags->query)) continue;
    if (ParseFlag(argv[i], "method", &flags->method)) continue;
    if (ParseFlag(argv[i], "ranker", &flags->ranker)) continue;
    if (ParseFlag(argv[i], "save", &flags->save_dir)) continue;
    if (ParseFlag(argv[i], "ingest-csv", &flags->ingest_csv)) continue;
    if (ParseFlag(argv[i], "save-snapshot", &flags->save_snapshot)) continue;
    if (ParseFlag(argv[i], "load-snapshot", &flags->load_snapshot)) continue;
    if (ParseFlag(argv[i], "depth", &value)) {
      flags->depth = std::stoul(value);
      continue;
    }
    if (ParseFlag(argv[i], "tmax", &value)) {
      flags->tmax = std::stoul(value);
      continue;
    }
    if (ParseFlag(argv[i], "top", &value)) {
      flags->top = std::stoul(value);
      continue;
    }
    if (ParseFlag(argv[i], "page-size", &value)) {
      flags->page_size = std::stoul(value);
      continue;
    }
    if (ParseFlag(argv[i], "queries", &flags->queries)) continue;
    if (ParseFlag(argv[i], "threads", &value)) {
      flags->threads = std::stoul(value);
      continue;
    }
    if (ParseFlag(argv[i], "repeat", &value)) {
      flags->repeat = std::stoul(value);
      continue;
    }
    if (std::strcmp(argv[i], "--explain") == 0) {
      flags->explain = true;
      continue;
    }
    if (std::strcmp(argv[i], "--sql") == 0) {
      flags->sql = true;
      continue;
    }
    if (std::strcmp(argv[i], "--stats") == 0) {
      flags->stats = true;
      continue;
    }
    if (std::strcmp(argv[i], "--profile") == 0) {
      flags->profile = true;
      continue;
    }
    if (std::strcmp(argv[i], "--metrics") == 0) {
      flags->metrics = true;
      continue;
    }
    if (ParseFlag(argv[i], "trace-out", &flags->trace_out)) continue;
    std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
    return false;
  }
  return true;
}

void PrintHitLine(size_t rank, const claks::SearchHit& hit) {
  std::printf("  #%zu  %s | rdb %zu er %zu %s%s | text %.3f\n", rank,
              hit.rendered.c_str(), hit.rdb_length, hit.er_length,
              claks::AssociationKindToString(hit.kind),
              hit.schema_close ? " (close)" : " (loose)", hit.text_score);
}

void PrintHitExtras(const Flags& flags, size_t rank,
                    const claks::SearchHit& hit, const claks::Database& db,
                    const claks::ERSchema& er_schema,
                    const claks::ErRelationalMapping& mapping) {
  if (!hit.connection.has_value()) return;
  if (flags.explain) {
    auto text = claks::ExplainConnection(*hit.connection, db, er_schema,
                                         mapping);
    if (text.ok()) std::printf("  #%zu reads: %s\n", rank, text->c_str());
  }
  if (flags.sql) {
    auto sql = claks::ConnectionToSql(*hit.connection, db);
    if (sql.ok()) std::printf("  #%zu sql: %s\n", rank, sql->c_str());
  }
}

// The legacy whole-result extras loop: explain/SQL lines numbered over
// the path-shaped hits only (shared by the plain and service modes).
void PrintResultExtras(const Flags& flags,
                       const std::vector<claks::SearchHit>& hits,
                       const claks::Database& db,
                       const claks::ERSchema& er_schema,
                       const claks::ErRelationalMapping& mapping) {
  size_t rank = 1;
  for (const claks::SearchHit& hit : hits) {
    if (!hit.connection.has_value()) continue;
    PrintHitExtras(flags, rank, hit, db, er_schema, mapping);
    ++rank;
  }
}

// Flushes the observability outputs on every exit path from main: the
// Chrome trace JSON for --trace-out (uninstalling the recorder first so
// the file captures exactly the traced run) and the process metrics page
// for --metrics.
struct ObservabilityFlush {
  claks::TraceRecorder* recorder = nullptr;
  std::string trace_path;
  bool metrics = false;

  ~ObservabilityFlush() {
    if (recorder != nullptr) {
      claks::TraceRecorder::Uninstall();
      std::vector<claks::TraceEvent> events = recorder->Events();
      std::string json = recorder->ToChromeJson();
      FILE* file = std::fopen(trace_path.c_str(), "w");
      if (file == nullptr) {
        std::fprintf(stderr, "trace-out: cannot open %s\n",
                     trace_path.c_str());
      } else {
        std::fwrite(json.data(), 1, json.size(), file);
        std::fclose(file);
        std::fprintf(stderr, "trace: %zu span(s) written to %s\n",
                     events.size(), trace_path.c_str());
      }
    }
    if (metrics) {
      std::printf("%s",
                  claks::MetricsRegistry::Default().RenderText().c_str());
    }
  }
};

void MaybePrintProfile(const Flags& flags,
                       const std::optional<claks::QueryProfile>& profile) {
  if (!flags.profile) return;
  if (!profile.has_value()) {
    std::printf("profile: (not collected)\n");
    return;
  }
  std::printf("%s", profile->ToString().c_str());
}

// Interactive pause between pages; no-op when stdin is not a TTY (smoke
// tests, pipes). Returns false when the user ends the session (EOF/q).
bool WaitForNextPage() {
  if (isatty(fileno(stdin)) == 0) return true;
  std::printf("-- more (Enter; q quits) --\n");
  int c = std::getchar();
  if (c == 'q' || c == EOF) return false;
  while (c != '\n' && c != EOF) c = std::getchar();
  return true;
}

// Prepared-query + cursor paging against a bare engine: the query is
// validated and matched once, then hits are pulled page by page — with
// --method=stream the expansion counter shows the work each page cost.
int RunEnginePaging(const Flags& flags,
                    const claks::KeywordSearchEngine& engine,
                    const claks::Database& db,
                    const claks::SearchOptions& options) {
  auto prepared = engine.Prepare(flags.query, options);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  auto cursor = prepared->Open();
  if (!cursor.ok()) {
    std::fprintf(stderr, "open: %s\n", cursor.status().ToString().c_str());
    return 1;
  }
  std::printf("query: %s\n", prepared->query().ToString().c_str());
  for (const claks::KeywordMatches& km : prepared->matches()) {
    std::printf("  keyword '%s': %zu tuples\n", km.keyword.c_str(),
                km.matches.size());
  }
  size_t rank = 0;
  size_t page = 0;
  size_t last_expansions = 0;
  while (!(*cursor)->Drained()) {
    auto start = std::chrono::steady_clock::now();
    auto hits = (*cursor)->Next(flags.page_size);
    if (!hits.ok()) {
      std::fprintf(stderr, "fetch: %s\n",
                   hits.status().ToString().c_str());
      return 1;
    }
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (hits->empty()) break;
    ++page;
    for (const claks::SearchHit& hit : *hits) {
      PrintHitLine(++rank, hit);
      PrintHitExtras(flags, rank, hit, db, engine.er_schema(),
                     engine.mapping());
    }
    claks::CursorStats stats = (*cursor)->Stats();
    std::printf("  -- page %zu: %zu hit(s) in %.2fms, +%zu expansions "
                "(%zu total)%s\n",
                page, hits->size(), ms, stats.expansions - last_expansions,
                stats.expansions, stats.drained ? ", drained" : "");
    last_expansions = stats.expansions;
    if ((*cursor)->Drained()) break;
    if (!WaitForNextPage()) break;
  }
  if (rank == 0) std::printf("  (no results)\n");
  MaybePrintProfile(flags, (*cursor)->Stats().profile);
  return 0;
}

// Paged service mode: each query goes through the versioned Prepare/Fetch
// endpoints (service/query_api.h). Repeats re-prepare the same query —
// in-flight repeats share one server-side cursor state, and finished
// drains are served from the whole-result cache.
int RunServicePaging(const Flags& flags, claks::SearchService& service,
                     const std::vector<std::string>& queries,
                     const claks::SearchOptions& options) {
  size_t repeat = flags.repeat == 0 ? 1 : flags.repeat;
  int failures = 0;
  for (size_t r = 0; r < repeat; ++r) {
    for (size_t q = 0; q < queries.size(); ++q) {
      claks::QueryRequest request;
      request.query_text = queries[q];
      request.options = options;
      auto prepared = service.Prepare(request);
      if (!prepared.ok()) {
        std::fprintf(stderr, "prepare '%s': %s\n", queries[q].c_str(),
                     prepared.status().ToString().c_str());
        ++failures;
        continue;
      }
      bool print = r == 0;
      if (print) {
        std::printf("query: %s (cursor %llu, snapshot v%llu)\n",
                    prepared->query.ToString().c_str(),
                    static_cast<unsigned long long>(prepared->cursor_id),
                    static_cast<unsigned long long>(
                        prepared->snapshot_version));
      }
      size_t rank = 0;
      bool drained = prepared->drained;
      while (!drained) {
        auto page = service.Fetch(prepared->cursor_id, flags.page_size);
        if (!page.ok()) {
          std::fprintf(stderr, "fetch: %s\n",
                       page.status().ToString().c_str());
          ++failures;
          break;
        }
        if (page->hits.empty() && page->drained) break;
        if (print) {
          for (const claks::SearchHit& hit : page->hits) {
            PrintHitLine(++rank, hit);
          }
          std::printf("  -- fetched %zu hit(s) at offset %zu, "
                      "%zu expansions so far%s\n",
                      page->hits.size(), page->offset, page->expansions,
                      page->drained ? ", drained" : "");
        }
        drained = page->drained;
      }
      service.Close(prepared->cursor_id);
    }
  }
  claks::ServiceStats stats = service.stats();
  std::printf(
      "service: %llu cursor(s) prepared, %llu page(s) fetched | cache "
      "hits %llu misses %llu | snapshot v%llu\n",
      static_cast<unsigned long long>(stats.cursors_prepared),
      static_cast<unsigned long long>(stats.pages_fetched),
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.snapshot_version));
  return failures == 0 ? 0 : 1;
}

// Batch-of-queries mode over the concurrent service: submits every query
// (x repeat) through a SearchService worker pool, prints each distinct
// query's result once, then a throughput + cache-counter summary.
int RunServiceMode(const Flags& flags, std::unique_ptr<claks::Database> db,
                   claks::ERSchema er_schema,
                   claks::ErRelationalMapping mapping, bool have_mapping,
                   const claks::SearchOptions& options) {
  std::vector<std::string> queries;
  if (!flags.queries.empty()) {
    for (std::string& query : claks::Split(flags.queries, ';')) {
      if (!query.empty()) queries.push_back(std::move(query));
    }
  } else if (!flags.query.empty()) {
    queries.push_back(flags.query);
  }
  if (queries.empty()) {
    std::fprintf(stderr, "--query or --queries is required\n");
    return 2;
  }
  size_t repeat = flags.repeat == 0 ? 1 : flags.repeat;

  claks::ServiceOptions service_options;
  service_options.num_threads = flags.threads;
  // --load-snapshot cold-starts the service from the mmap'd file: the
  // loaded generation becomes version 1 with zero build work.
  auto service =
      !flags.load_snapshot.empty()
          ? claks::SearchService::CreateFromSnapshot(flags.load_snapshot,
                                                     service_options)
          : have_mapping
                ? claks::SearchService::Create(std::move(db),
                                               std::move(er_schema),
                                               std::move(mapping),
                                               service_options)
                : claks::SearchService::Create(std::move(db),
                                               service_options);
  if (!service.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service.status().ToString().c_str());
    return 1;
  }

  if (flags.page_size > 0) {
    return RunServicePaging(flags, **service, queries, options);
  }

  auto start = std::chrono::steady_clock::now();
  std::vector<std::future<claks::Result<claks::SearchResult>>> futures;
  futures.reserve(queries.size() * repeat);
  for (size_t r = 0; r < repeat; ++r) {
    for (const std::string& query : queries) {
      futures.push_back((*service)->Submit(query, options));
    }
  }

  const claks::Database& snapshot_db = *(*service)->snapshot()->db;
  int failures = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    auto result = futures[i].get();
    if (!result.ok()) {
      std::fprintf(stderr, "search '%s': %s\n",
                   queries[i % queries.size()].c_str(),
                   result.status().ToString().c_str());
      ++failures;
      continue;
    }
    if (i < queries.size()) {  // print each distinct query once
      std::printf("%s", result->ToString(snapshot_db, flags.top).c_str());
      MaybePrintProfile(flags, result->profile);
      if (flags.explain || flags.sql) {
        const claks::KeywordSearchEngine& engine =
            *(*service)->snapshot()->engine;
        PrintResultExtras(flags, result->hits, snapshot_db,
                          engine.er_schema(), engine.mapping());
      }
    }
  }
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  claks::ServiceStats stats = (*service)->stats();
  std::printf(
      "service: %zu queries on %zu thread(s) in %.1fms (%.1f qps) | "
      "cache hits %llu misses %llu evictions %llu | snapshot v%llu\n",
      futures.size(), flags.threads, wall_ms,
      wall_ms > 0.0 ? 1000.0 * static_cast<double>(futures.size()) / wall_ms
                    : 0.0,
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_evictions),
      static_cast<unsigned long long>(stats.snapshot_version));
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  // Recorder before flush: locals die in reverse order, so the flush
  // (which reads the recorder) runs first on every return path.
  std::optional<claks::TraceRecorder> recorder;
  ObservabilityFlush flush;
  flush.metrics = flags.metrics;
  if (!flags.trace_out.empty()) {
    recorder.emplace();
    recorder->Install();
    if (!claks::TraceSpan::Enabled()) {
      std::fprintf(stderr,
                   "trace-out: this build has CLAKS_TRACING=OFF; the "
                   "trace will be empty\n");
    }
    flush.recorder = &*recorder;
    flush.trace_path = flags.trace_out;
  }

  // Acquire the database (+ conceptual schema when built-in). With
  // --load-snapshot, database AND engine both come out of the mmap'd
  // file instead (service mode defers the load to CreateFromSnapshot).
  std::unique_ptr<claks::Database> owned_db;
  claks::ERSchema er_schema;
  claks::ErRelationalMapping mapping;
  bool have_mapping = false;
  std::optional<claks::LoadedEngine> loaded_snapshot;
  bool service_mode = flags.threads > 0 && !flags.stats &&
                      flags.save_snapshot.empty() && flags.save_dir.empty();

  if (!flags.load_snapshot.empty()) {
    if (!service_mode) {
      auto loaded = claks::KeywordSearchEngine::LoadSnapshot(
          flags.load_snapshot);
      if (!loaded.ok()) {
        std::fprintf(stderr, "load-snapshot: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      loaded_snapshot = std::move(loaded).ValueOrDie();
      std::fprintf(stderr, "loaded snapshot %s: %zu tuples, warm=%d\n",
                   flags.load_snapshot.c_str(),
                   loaded_snapshot->db->TotalRows(),
                   loaded_snapshot->engine->Warm() ? 1 : 0);
    }
  } else if (!flags.db_dir.empty() || !flags.ingest_csv.empty()) {
    const std::string& dir =
        !flags.db_dir.empty() ? flags.db_dir : flags.ingest_csv;
    auto loaded = claks::LoadDatabase(dir);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    owned_db = std::move(loaded).ValueOrDie();
    if (!flags.ingest_csv.empty()) {
      std::fprintf(stderr, "ingested %zu tuples from %s\n",
                   owned_db->TotalRows(), flags.ingest_csv.c_str());
    }
  } else if (flags.dataset == "paper") {
    auto dataset = claks::BuildCompanyPaperDataset();
    if (!dataset.ok()) return 1;
    owned_db = std::move(dataset->db);
    er_schema = std::move(dataset->er_schema);
    mapping = std::move(dataset->mapping);
    have_mapping = true;
  } else {
    claks::Result<claks::GeneratedDataset> dataset =
        flags.dataset == "company"
            ? claks::GenerateCompanyDataset({})
            : flags.dataset == "full"
                  ? claks::GenerateCompanyFullDataset({})
                  : flags.dataset == "bibliography"
                        ? claks::GenerateBibliographyDataset({})
                        : flags.dataset == "movies"
                              ? claks::GenerateMoviesDataset({})
                              : claks::Status::InvalidArgument(
                                    "unknown --dataset '" + flags.dataset +
                                    "'");
    if (!dataset.ok()) {
      std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
      return 1;
    }
    owned_db = std::move(dataset->db);
    er_schema = std::move(dataset->er_schema);
    mapping = std::move(dataset->mapping);
    have_mapping = true;
  }

  if (!flags.save_dir.empty()) {
    // Exports the loaded snapshot's database when --load-snapshot was
    // given, closing the CSV <-> snapshot round trip in both directions.
    const claks::Database& export_db =
        loaded_snapshot.has_value() ? *loaded_snapshot->db : *owned_db;
    auto saved = claks::SaveDatabase(export_db, flags.save_dir);
    if (!saved.ok()) {
      std::fprintf(stderr, "%s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("saved %zu tuples to %s\n", export_db.TotalRows(),
                flags.save_dir.c_str());
    return 0;
  }

  claks::SearchOptions options;
  options.max_rdb_edges = flags.depth;
  options.tmax = flags.tmax;
  options.top_k = flags.top;
  options.profile = flags.profile;
  std::optional<claks::SearchMethod> method =
      claks::SearchMethodFromString(flags.method);
  std::optional<claks::RankerKind> ranker =
      claks::RankerKindFromString(flags.ranker);
  if (!method.has_value() || !ranker.has_value()) {
    std::fprintf(stderr, "unknown --method or --ranker\n");
    return 2;
  }
  options.method = *method;
  options.ranker = *ranker;

  if (service_mode && flags.threads > 0) {
    // Concurrent service mode: the service takes ownership of the data
    // (or cold-starts from the snapshot file when --load-snapshot).
    return RunServiceMode(flags, std::move(owned_db), std::move(er_schema),
                          std::move(mapping), have_mapping, options);
  }

  // A snapshot-loaded engine arrives fully assembled; otherwise build
  // one over the acquired database.
  std::unique_ptr<claks::KeywordSearchEngine> created;
  claks::KeywordSearchEngine* engine = nullptr;
  claks::Database* db = nullptr;
  if (loaded_snapshot.has_value()) {
    engine = loaded_snapshot->engine.get();
    db = loaded_snapshot->db.get();
  } else {
    auto built = have_mapping
                     ? claks::KeywordSearchEngine::Create(
                           owned_db.get(), std::move(er_schema),
                           std::move(mapping))
                     : claks::KeywordSearchEngine::Create(owned_db.get());
    if (!built.ok()) {
      std::fprintf(stderr, "engine: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    created = std::move(built).ValueOrDie();
    engine = created.get();
    db = owned_db.get();
  }

  if (!flags.save_snapshot.empty()) {
    // Serialize the fully-warmed generation: every downstream load mmaps
    // these exact bytes and skips the build entirely.
    engine->Warmup();
    auto saved = engine->SaveSnapshot(flags.save_snapshot);
    if (!saved.ok()) {
      std::fprintf(stderr, "save-snapshot: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("snapshot: %zu tuples -> %s\n", db->TotalRows(),
                flags.save_snapshot.c_str());
    return 0;
  }

  if (flags.stats) {
    std::printf("%s", engine->er_schema().ToString().c_str());
    std::printf("%s", engine->statistics().ToString().c_str());
    return 0;
  }
  if (flags.query.empty()) {
    std::fprintf(stderr, "--query is required (or use --stats/--save)\n");
    return 2;
  }

  if (flags.page_size > 0) {
    return RunEnginePaging(flags, *engine, *db, options);
  }

  auto result = engine->Search(flags.query, options);
  if (!result.ok()) {
    std::fprintf(stderr, "search: %s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", result->ToString(*db, flags.top).c_str());
  MaybePrintProfile(flags, result->profile);

  if (flags.explain || flags.sql) {
    PrintResultExtras(flags, result->hits, *db, engine->er_schema(),
                      engine->mapping());
  }
  return 0;
}
