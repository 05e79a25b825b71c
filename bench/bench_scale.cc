// Copyright 2026 The claks Authors.
//
// Scale-out benchmark: runs representative keyword queries against
// company_gen datasets at increasing scale factors and emits a
// machine-readable BENCH_scale.json tracking build times (dataset
// generation, FK join-index build, CSR data-graph construction, engine
// creation), per-method query latency and result counts, and the speedup
// of the indexed execution paths over the seed scan paths (FK edge
// resolution and DISCOVER candidate-network evaluation). Each scale also
// exercises the storage subsystem
// (src/storage/): the warmed engine is serialized to a snapshot file and
// mmap-loaded back, recording save/load wall times, the file size, and
// the headline cold-start comparison — load-snapshot-to-first-query vs
// generate-build-to-first-query.
// The JSON schema is documented in docs/BENCHMARKS.md; CI uploads the
// 1x/10x run as an artifact so the perf trajectory is recorded per
// commit.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/mtjnt.h"
#include "datasets/company_gen.h"
#include "storage/snapshot.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Minimum wall time of `reps` runs of `fn` (best-of to damp scheduler
// noise; builds are one-shot and pass reps = 1).
template <typename Fn>
double TimeMs(size_t reps, Fn&& fn) {
  double best = -1.0;
  for (size_t i = 0; i < reps; ++i) {
    auto start = Clock::now();
    fn();
    double ms = MillisSince(start);
    if (best < 0.0 || ms < best) best = ms;
  }
  return best;
}

struct QueryRecord {
  std::string query;
  std::string method;
  double latency_ms = 0.0;
  size_t results = 0;
};

struct SnapshotRecord {
  double save_ms = 0.0;    // Warmup + serialize to disk (one-shot)
  size_t file_bytes = 0;   // page-aligned snapshot size
  double load_ms = 0.0;    // mmap + install, best of reps
  double first_query_ms = 0.0;  // first query on the loaded engine
  /// One-shot LoadSnapshot + first Search: the headline cold-start path.
  double cold_start_first_query_ms = 0.0;
  /// generate + join indexes + engine build + the same first query: the
  /// from-scratch path the snapshot replaces.
  double build_first_query_ms = 0.0;
  bool identical = true;  // loaded results render == in-memory results
};

struct ScaleRecord {
  size_t scale = 0;
  size_t tables = 0;
  size_t rows = 0;
  size_t fk_edges = 0;
  double generate_ms = 0.0;
  double fk_scan_seed_ms = 0.0;
  double join_index_ms = 0.0;
  double data_graph_csr_ms = 0.0;
  double engine_ms = 0.0;
  std::vector<QueryRecord> queries;
  double discover_eval_indexed_ms = 0.0;
  double discover_eval_scan_ms = 0.0;
  bool discover_eval_equal = true;
  SnapshotRecord snapshot;
};

// The indexed-vs-scan comparison queries. Chosen so keyword selectivity
// grows with the instance: surnames and topic words match a constant
// fraction of the rows at every scale.
const char* kQueries[] = {"smith xml", "smith xml alice",
                          "retrieval databases"};

ScaleRecord RunScale(size_t scale, size_t tmax, size_t reps) {
  ScaleRecord record;
  record.scale = scale;

  auto start = Clock::now();
  auto generated =
      claks::GenerateCompanyDataset(claks::CompanyGenOptions::AtScale(scale));
  CLAKS_CHECK(generated.ok());
  record.generate_ms = MillisSince(start);
  claks::GeneratedDataset dataset = std::move(generated).ValueOrDie();
  const claks::Database& db = *dataset.db;

  record.tables = db.num_tables();
  record.rows = db.TotalRows();

  // Seed baseline: per-row hash probes over every (row, FK) pair.
  std::vector<claks::FkEdge> scanned;
  record.fk_scan_seed_ms =
      TimeMs(1, [&] { scanned = db.ScanAllFkEdges(); });

  record.join_index_ms = TimeMs(1, [&] { db.BuildJoinIndexes(); });
  record.fk_edges = db.ResolveAllFkEdges().size();
  CLAKS_CHECK_EQ(record.fk_edges, scanned.size());

  record.data_graph_csr_ms =
      TimeMs(1, [&] { claks::DataGraph graph(&db); });

  std::unique_ptr<claks::KeywordSearchEngine> engine;
  record.engine_ms = TimeMs(1, [&] {
    auto created = claks::KeywordSearchEngine::Create(
        dataset.db.get(), dataset.er_schema, dataset.mapping);
    CLAKS_CHECK(created.ok());
    engine = std::move(created).ValueOrDie();
  });

  for (const char* query : kQueries) {
    auto parsed =
        claks::ParseKeywordQuery(query, engine->index().tokenizer());
    auto matches = claks::MatchKeywords(engine->index(), parsed);
    if (!claks::AllKeywordsMatched(matches)) continue;  // tiny-scale miss

    std::vector<std::pair<std::string, claks::SearchMethod>> methods;
    if (parsed.keywords.size() <= 2) {
      methods.emplace_back("enumerate", claks::SearchMethod::kEnumerate);
    }
    methods.emplace_back("discover", claks::SearchMethod::kDiscover);
    methods.emplace_back("banks", claks::SearchMethod::kBanks);
    // Exact tree growth is exponential in the match count; only feasible
    // at the base scale.
    if (scale <= 1) {
      methods.emplace_back("mtjnt", claks::SearchMethod::kMtjnt);
    }

    for (const auto& [name, method] : methods) {
      claks::SearchOptions options;
      options.method = method;
      options.tmax = tmax;
      options.max_rdb_edges = tmax - 1;
      QueryRecord qr;
      qr.query = query;
      qr.method = name;
      qr.latency_ms = TimeMs(reps, [&] {
        auto result = engine->Search(query, options);
        CLAKS_CHECK(result.ok());
        qr.results = result->hits.size();
      });
      record.queries.push_back(std::move(qr));
    }
  }

  // Isolated evaluator comparison on the first query: candidate networks
  // generated once (schema-level, shared by both strategies), then each
  // strategy evaluates the same CN list over the same masks, results
  // checked equal. This is the headline indexed-vs-seed speedup.
  {
    auto parsed =
        claks::ParseKeywordQuery(kQueries[0], engine->index().tokenizer());
    auto matches = claks::MatchKeywords(engine->index(), parsed);
    CLAKS_CHECK(claks::AllKeywordsMatched(matches));
    auto masks = claks::ComputeKeywordMasks(matches);
    auto num_keywords = static_cast<uint32_t>(matches.size());
    const claks::SchemaGraph& schema_graph = engine->schema_graph();
    std::vector<std::vector<uint32_t>> masks_per_table(
        schema_graph.num_tables());
    for (const auto& [tuple, mask] : masks) {
      auto& table_masks = masks_per_table[tuple.table];
      if (std::find(table_masks.begin(), table_masks.end(), mask) ==
          table_masks.end()) {
        table_masks.push_back(mask);
      }
    }
    auto cns = claks::GenerateCandidateNetworks(schema_graph, masks_per_table,
                                                num_keywords, tmax);

    auto evaluate_all = [&](claks::CnEvalStrategy strategy) {
      std::set<claks::TupleTree> all;
      for (const claks::CandidateNetwork& cn : cns) {
        for (claks::TupleTree& tree : claks::EvaluateCandidateNetwork(
                 engine->data_graph(), cn, masks, num_keywords, strategy)) {
          all.insert(std::move(tree));
        }
      }
      return all;
    };

    std::set<claks::TupleTree> indexed_trees;
    std::set<claks::TupleTree> scan_trees;
    record.discover_eval_indexed_ms = TimeMs(reps, [&] {
      indexed_trees = evaluate_all(claks::CnEvalStrategy::kIndexed);
    });
    record.discover_eval_scan_ms = TimeMs(reps, [&] {
      scan_trees = evaluate_all(claks::CnEvalStrategy::kScan);
    });
    record.discover_eval_equal = indexed_trees == scan_trees;
    CLAKS_CHECK(record.discover_eval_equal);
  }

  // Storage subsystem: serialize the warmed generation, mmap it back,
  // and time the cold-start-to-first-query path against the
  // generate-and-build path it replaces.
  {
    std::string path =
        (std::filesystem::temp_directory_path() /
         ("bench_scale_" + std::to_string(scale) + "x.claks"))
            .string();
    claks::SearchOptions q0;
    q0.method = claks::SearchMethod::kStream;
    q0.ranker = claks::RankerKind::kRdbLength;
    q0.top_k = 10;
    q0.max_rdb_edges = tmax - 1;

    record.snapshot.save_ms = TimeMs(1, [&] {
      engine->Warmup();
      CLAKS_CHECK(engine->SaveSnapshot(path).ok());
    });
    std::error_code ec;
    record.snapshot.file_bytes =
        static_cast<size_t>(std::filesystem::file_size(path, ec));

    record.snapshot.load_ms = TimeMs(reps, [&] {
      auto loaded = claks::KeywordSearchEngine::LoadSnapshot(path);
      CLAKS_CHECK(loaded.ok());
    });

    std::string from_snapshot;
    record.snapshot.cold_start_first_query_ms = TimeMs(1, [&] {
      auto loaded = claks::KeywordSearchEngine::LoadSnapshot(path);
      CLAKS_CHECK(loaded.ok());
      auto result = loaded->engine->Search(kQueries[0], q0);
      CLAKS_CHECK(result.ok());
      from_snapshot = result->ToString(*loaded->db, q0.top_k);
    });
    record.snapshot.first_query_ms = TimeMs(reps, [&] {
      auto result = engine->Search(kQueries[0], q0);
      CLAKS_CHECK(result.ok());
    });

    // The path the snapshot replaces: dataset generation, join-index
    // build and engine construction were each timed above; the first
    // query costs the same on either engine (checked identical below).
    record.snapshot.build_first_query_ms =
        record.generate_ms + record.join_index_ms + record.engine_ms +
        record.snapshot.first_query_ms;

    auto in_memory = engine->Search(kQueries[0], q0);
    CLAKS_CHECK(in_memory.ok());
    record.snapshot.identical =
        from_snapshot == in_memory->ToString(db, q0.top_k);
    CLAKS_CHECK(record.snapshot.identical);
    std::filesystem::remove(path, ec);
  }
  return record;
}

double Ratio(double baseline_ms, double indexed_ms) {
  return indexed_ms > 0.0 ? baseline_ms / indexed_ms : 0.0;
}

void WriteJson(std::FILE* f, const std::vector<ScaleRecord>& records,
               size_t tmax, size_t reps) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_scale\",\n");
  std::fprintf(f, "  \"schema_version\": 4,\n");
  std::fprintf(f, "  \"dataset\": \"company_gen\",\n");
  std::fprintf(f, "  \"tmax\": %zu,\n", tmax);
  std::fprintf(f, "  \"reps\": %zu,\n", reps);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"scales\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const ScaleRecord& r = records[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"scale\": %zu,\n", r.scale);
    std::fprintf(f, "      \"tables\": %zu,\n", r.tables);
    std::fprintf(f, "      \"rows\": %zu,\n", r.rows);
    std::fprintf(f, "      \"fk_edges\": %zu,\n", r.fk_edges);
    std::fprintf(f, "      \"build_ms\": {\n");
    std::fprintf(f, "        \"generate\": %.3f,\n", r.generate_ms);
    std::fprintf(f, "        \"fk_scan_seed\": %.3f,\n", r.fk_scan_seed_ms);
    std::fprintf(f, "        \"join_index\": %.3f,\n", r.join_index_ms);
    std::fprintf(f, "        \"data_graph_csr\": %.3f,\n",
                 r.data_graph_csr_ms);
    std::fprintf(f, "        \"engine\": %.3f\n", r.engine_ms);
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"queries\": [\n");
    for (size_t q = 0; q < r.queries.size(); ++q) {
      const QueryRecord& qr = r.queries[q];
      std::fprintf(f,
                   "        {\"query\": \"%s\", \"method\": \"%s\", "
                   "\"latency_ms\": %.3f, \"results\": %zu}%s\n",
                   qr.query.c_str(), qr.method.c_str(), qr.latency_ms,
                   qr.results, q + 1 < r.queries.size() ? "," : "");
    }
    std::fprintf(f, "      ],\n");
    std::fprintf(f, "      \"discover_eval\": {\n");
    std::fprintf(f, "        \"query\": \"%s\",\n", kQueries[0]);
    std::fprintf(f, "        \"indexed_ms\": %.3f,\n",
                 r.discover_eval_indexed_ms);
    std::fprintf(f, "        \"scan_ms\": %.3f,\n", r.discover_eval_scan_ms);
    std::fprintf(f, "        \"identical_results\": %s\n",
                 r.discover_eval_equal ? "true" : "false");
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"snapshot\": {\n");
    std::fprintf(f, "        \"save_ms\": %.3f,\n", r.snapshot.save_ms);
    std::fprintf(f, "        \"file_bytes\": %zu,\n", r.snapshot.file_bytes);
    std::fprintf(f, "        \"load_ms\": %.3f,\n", r.snapshot.load_ms);
    std::fprintf(f, "        \"first_query_ms\": %.3f,\n",
                 r.snapshot.first_query_ms);
    std::fprintf(f, "        \"cold_start_first_query_ms\": %.3f,\n",
                 r.snapshot.cold_start_first_query_ms);
    std::fprintf(f, "        \"build_first_query_ms\": %.3f,\n",
                 r.snapshot.build_first_query_ms);
    std::fprintf(f, "        \"identical_results\": %s\n",
                 r.snapshot.identical ? "true" : "false");
    std::fprintf(f, "      },\n");
    std::fprintf(f, "      \"speedup\": {\n");
    std::fprintf(f, "        \"fk_resolution\": %.2f,\n",
                 Ratio(r.fk_scan_seed_ms, r.join_index_ms));
    std::fprintf(f, "        \"discover_eval\": %.2f,\n",
                 Ratio(r.discover_eval_scan_ms, r.discover_eval_indexed_ms));
    std::fprintf(f, "        \"cold_start\": %.2f\n",
                 Ratio(r.snapshot.build_first_query_ms,
                       r.snapshot.cold_start_first_query_ms));
    std::fprintf(f, "      }\n");
    std::fprintf(f, "    }%s\n", i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
}

std::vector<size_t> ParseScales(const std::string& spec) {
  std::vector<size_t> scales;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    // Non-numeric or non-positive entries become 0, which the flag
    // validation rejects.
    long value = std::atol(spec.substr(pos, comma - pos).c_str());
    scales.push_back(value > 0 ? static_cast<size_t>(value) : 0);
    pos = comma + 1;
  }
  return scales;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> scales{1, 10, 100};
  std::string out_path = "BENCH_scale.json";
  size_t tmax = 4;
  size_t reps = 3;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scales=", 0) == 0) {
      scales = ParseScales(arg.substr(9));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--tmax=", 0) == 0) {
      tmax = static_cast<size_t>(std::atol(arg.c_str() + 7));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = static_cast<size_t>(std::atol(arg.c_str() + 7));
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (supported: --scales=1,10,100 "
                   "--out=FILE --tmax=N --reps=N)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (scales.empty() || tmax < 2 || reps == 0 ||
      std::find(scales.begin(), scales.end(), 0u) != scales.end()) {
    std::fprintf(stderr,
                 "invalid flags: need scales >= 1, tmax >= 2, reps >= 1\n");
    return 2;
  }

  std::vector<ScaleRecord> records;
  for (size_t scale : scales) {
    std::printf("scale %zux ...\n", scale);
    ScaleRecord record = RunScale(scale, tmax, reps);
    std::printf(
        "  rows %zu, fk edges %zu | gen %.1fms, fk scan %.1fms, "
        "join index %.1fms, csr %.1fms, engine %.1fms\n",
        record.rows, record.fk_edges, record.generate_ms,
        record.fk_scan_seed_ms, record.join_index_ms,
        record.data_graph_csr_ms, record.engine_ms);
    for (const QueryRecord& qr : record.queries) {
      std::printf("  %-22s %-10s %8.2fms  %6zu results\n", qr.query.c_str(),
                  qr.method.c_str(), qr.latency_ms, qr.results);
    }
    std::printf("  discover eval: indexed %.2fms vs scan %.2fms (%.1fx)\n",
                record.discover_eval_indexed_ms, record.discover_eval_scan_ms,
                Ratio(record.discover_eval_scan_ms,
                      record.discover_eval_indexed_ms));
    std::printf(
        "  snapshot: save %.1fms (%zu bytes), load %.2fms | cold start "
        "%.2fms vs build %.1fms (%.0fx)\n",
        record.snapshot.save_ms, record.snapshot.file_bytes,
        record.snapshot.load_ms, record.snapshot.cold_start_first_query_ms,
        record.snapshot.build_first_query_ms,
        Ratio(record.snapshot.build_first_query_ms,
              record.snapshot.cold_start_first_query_ms));
    records.push_back(std::move(record));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
    return 1;
  }
  WriteJson(f, records, tmax, reps);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
