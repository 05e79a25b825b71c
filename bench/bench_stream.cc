// Copyright 2026 The claks Authors.
//
// Streaming-search benchmark: compares SearchMethod::kStream against the
// materialise-everything kEnumerate baseline on company_gen datasets at
// increasing scale factors and emits a machine-readable BENCH_stream.json.
// Per scale and query it records the full-enumeration latency, the
// streaming full-drain latency and expansion count (the work metric of
// core/topk.h), and the streaming top-k latency/expansions for each
// length-monotone ranker exercised — verifying along the way that equal
// settings produce identical results (full drains: identical hit-tree
// sets; top-k runs: identical ranking-key sequences, since key ties may
// order differently). Since schema_version 2 each query also records a
// paged consumption trace: a prepared-query cursor (core/cursor.h) over
// the streaming method, fetched page by page, with per-page latency and
// the cumulative expansion count after each page — the work metric of
// incremental consumption.
// The JSON schema is documented in docs/BENCHMARKS.md; CI uploads the
// 1x/10x run as an artifact.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/cursor.h"
#include "core/engine.h"
#include "datasets/company_gen.h"

namespace {

using Clock = std::chrono::steady_clock;

double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Minimum wall time of `reps` runs of `fn` (best-of to damp scheduler
// noise).
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

std::set<claks::TupleTree> TreeSet(const claks::SearchResult& result) {
  std::set<claks::TupleTree> trees;
  for (const claks::SearchHit& hit : result.hits) trees.insert(hit.tree);
  return trees;
}

std::vector<std::vector<double>> KeySequence(
    const claks::SearchResult& result, claks::RankerKind kind) {
  auto ranker = claks::MakeRanker(kind);
  std::vector<std::vector<double>> keys;
  for (const claks::SearchHit& hit : result.hits) {
    keys.push_back(ranker->SortKey(hit.ToRankInput()));
  }
  return keys;
}

struct TopkRecord {
  std::string ranker;
  double stream_topk_ms = 0.0;
  size_t expansions_topk = 0;
  size_t results = 0;
  bool keys_identical = true;
};

struct PageRecord {
  double latency_ms = 0.0;
  size_t hits = 0;
  size_t expansions = 0;  // cumulative after this page
};

struct QueryRecord {
  std::string query;
  size_t results_full = 0;
  double enumerate_ms = 0.0;
  double stream_full_ms = 0.0;
  size_t expansions_full = 0;
  bool full_identical = true;
  std::vector<TopkRecord> topk;
  // Paged cursor consumption of the top-k streaming query.
  std::string paged_ranker;
  size_t page_size = 0;
  bool paged_identical = true;
  std::vector<PageRecord> pages;
};

struct ScaleRecord {
  size_t scale = 0;
  size_t rows = 0;
  std::vector<QueryRecord> queries;
};

const char* kQueries[] = {"smith xml", "retrieval databases"};

const claks::RankerKind kTopkRankers[] = {claks::RankerKind::kRdbLength,
                                          claks::RankerKind::kCloseFirst};

ScaleRecord RunScale(size_t scale, size_t top_k, size_t max_edges,
                     size_t reps) {
  ScaleRecord record;
  record.scale = scale;

  auto generated =
      claks::GenerateCompanyDataset(claks::CompanyGenOptions::AtScale(scale));
  CLAKS_CHECK(generated.ok());
  claks::GeneratedDataset dataset = std::move(generated).ValueOrDie();
  record.rows = dataset.db->TotalRows();

  auto created = claks::KeywordSearchEngine::Create(
      dataset.db.get(), dataset.er_schema, dataset.mapping);
  CLAKS_CHECK(created.ok());
  std::unique_ptr<claks::KeywordSearchEngine> engine =
      std::move(created).ValueOrDie();

  for (const char* query : kQueries) {
    claks::SearchOptions base;
    base.max_rdb_edges = max_edges;

    QueryRecord qr;
    qr.query = query;

    // Full enumeration baseline.
    claks::SearchResult enumerated;
    base.method = claks::SearchMethod::kEnumerate;
    qr.enumerate_ms = TimeMs(reps, [&] {
      auto result = engine->Search(query, base);
      CLAKS_CHECK(result.ok());
      enumerated = std::move(result).ValueOrDie();
    });
    qr.results_full = enumerated.hits.size();

    // Streaming full drain: same result space, lazily produced.
    claks::SearchResult stream_full;
    base.method = claks::SearchMethod::kStream;
    qr.stream_full_ms = TimeMs(reps, [&] {
      auto result = engine->Search(query, base);
      CLAKS_CHECK(result.ok());
      stream_full = std::move(result).ValueOrDie();
    });
    qr.expansions_full = stream_full.expansions;
    qr.full_identical = TreeSet(enumerated) == TreeSet(stream_full);
    CLAKS_CHECK(qr.full_identical);

    // Streaming top-k with early termination, per monotone ranker, checked
    // against the enumerate-then-truncate reference.
    for (claks::RankerKind ranker : kTopkRankers) {
      claks::SearchOptions options = base;
      options.ranker = ranker;
      options.top_k = top_k;

      TopkRecord tr;
      tr.ranker = claks::RankerKindToString(ranker);
      claks::SearchResult streamed;
      options.method = claks::SearchMethod::kStream;
      tr.stream_topk_ms = TimeMs(reps, [&] {
        auto result = engine->Search(query, options);
        CLAKS_CHECK(result.ok());
        streamed = std::move(result).ValueOrDie();
      });
      tr.expansions_topk = streamed.expansions;
      tr.results = streamed.hits.size();

      options.method = claks::SearchMethod::kEnumerate;
      auto reference = engine->Search(query, options);
      CLAKS_CHECK(reference.ok());
      tr.keys_identical = KeySequence(*reference, ranker) ==
                          KeySequence(streamed, ranker);
      CLAKS_CHECK(tr.keys_identical);
      qr.topk.push_back(std::move(tr));
    }

    // Paged consumption: prepared-query cursor over the streaming top-k,
    // fetched in pages, per-page latency + cumulative expansions. The
    // concatenated pages must carry the one-shot ranking-key sequence.
    {
      claks::SearchOptions options = base;
      options.method = claks::SearchMethod::kStream;
      options.ranker = claks::RankerKind::kCloseFirst;
      options.top_k = top_k;
      qr.paged_ranker = claks::RankerKindToString(options.ranker);
      qr.page_size = 2;

      auto prepared = engine->Prepare(query, options);
      CLAKS_CHECK(prepared.ok());
      auto cursor = prepared->Open();
      CLAKS_CHECK(cursor.ok());
      claks::SearchResult paged;
      while (!(*cursor)->Drained()) {
        auto start = Clock::now();
        auto page = (*cursor)->Next(qr.page_size);
        double ms = MillisSince(start);
        CLAKS_CHECK(page.ok());
        if (page->empty()) break;
        for (claks::SearchHit& hit : *page) {
          paged.hits.push_back(std::move(hit));
        }
        claks::CursorStats stats = (*cursor)->Stats();
        qr.pages.push_back(
            PageRecord{ms, page->size(), stats.expansions});
      }
      auto reference = engine->Search(query, options);
      CLAKS_CHECK(reference.ok());
      qr.paged_identical = KeySequence(*reference, options.ranker) ==
                           KeySequence(paged, options.ranker);
      CLAKS_CHECK(qr.paged_identical);
    }
    record.queries.push_back(std::move(qr));
  }
  return record;
}

double Ratio(double baseline, double value) {
  return value > 0.0 ? baseline / value : 0.0;
}

void WriteJson(std::FILE* f, const std::vector<ScaleRecord>& records,
               size_t top_k, size_t max_edges, size_t reps) {
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"benchmark\": \"bench_stream\",\n");
  std::fprintf(f, "  \"schema_version\": 4,\n");
  std::fprintf(f, "  \"dataset\": \"company_gen\",\n");
  std::fprintf(f, "  \"top_k\": %zu,\n", top_k);
  std::fprintf(f, "  \"max_rdb_edges\": %zu,\n", max_edges);
  std::fprintf(f, "  \"reps\": %zu,\n", reps);
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"scales\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const ScaleRecord& r = records[i];
    std::fprintf(f, "    {\n");
    std::fprintf(f, "      \"scale\": %zu,\n", r.scale);
    std::fprintf(f, "      \"rows\": %zu,\n", r.rows);
    std::fprintf(f, "      \"queries\": [\n");
    for (size_t q = 0; q < r.queries.size(); ++q) {
      const QueryRecord& qr = r.queries[q];
      std::fprintf(f, "        {\n");
      std::fprintf(f, "          \"query\": \"%s\",\n", qr.query.c_str());
      std::fprintf(f, "          \"results_full\": %zu,\n", qr.results_full);
      std::fprintf(f, "          \"enumerate_ms\": %.3f,\n",
                   qr.enumerate_ms);
      std::fprintf(f, "          \"stream_full_ms\": %.3f,\n",
                   qr.stream_full_ms);
      std::fprintf(f, "          \"expansions_full\": %zu,\n",
                   qr.expansions_full);
      std::fprintf(f, "          \"full_identical\": %s,\n",
                   qr.full_identical ? "true" : "false");
      std::fprintf(f, "          \"topk\": [\n");
      for (size_t t = 0; t < qr.topk.size(); ++t) {
        const TopkRecord& tr = qr.topk[t];
        std::fprintf(
            f,
            "            {\"ranker\": \"%s\", \"stream_topk_ms\": %.3f, "
            "\"expansions_topk\": %zu, \"results\": %zu, "
            "\"keys_identical\": %s, \"expansion_savings\": %.2f, "
            "\"latency_speedup_vs_enumerate\": %.2f}%s\n",
            tr.ranker.c_str(), tr.stream_topk_ms, tr.expansions_topk,
            tr.results, tr.keys_identical ? "true" : "false",
            Ratio(static_cast<double>(qr.expansions_full),
                  static_cast<double>(tr.expansions_topk)),
            Ratio(qr.enumerate_ms, tr.stream_topk_ms),
            t + 1 < qr.topk.size() ? "," : "");
      }
      std::fprintf(f, "          ],\n");
      std::fprintf(f,
                   "          \"paged\": {\"ranker\": \"%s\", "
                   "\"page_size\": %zu, \"identical\": %s, \"pages\": [",
                   qr.paged_ranker.c_str(), qr.page_size,
                   qr.paged_identical ? "true" : "false");
      for (size_t p = 0; p < qr.pages.size(); ++p) {
        const PageRecord& pr = qr.pages[p];
        std::fprintf(f,
                     "%s{\"page\": %zu, \"latency_ms\": %.3f, "
                     "\"hits\": %zu, \"expansions\": %zu}",
                     p == 0 ? "" : ", ", p + 1, pr.latency_ms, pr.hits,
                     pr.expansions);
      }
      std::fprintf(f, "]}\n");
      std::fprintf(f, "        }%s\n",
                   q + 1 < r.queries.size() ? "," : "");
    }
    std::fprintf(f, "      ]\n");
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
    long value = std::atol(spec.substr(pos, comma - pos).c_str());
    scales.push_back(value > 0 ? static_cast<size_t>(value) : 0);
    pos = comma + 1;
  }
  return scales;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<size_t> scales{1, 10, 100};
  std::string out_path = "BENCH_stream.json";
  size_t top_k = 10;
  size_t max_edges = 3;
  size_t reps = 3;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--scales=", 0) == 0) {
      scales = ParseScales(arg.substr(9));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--top_k=", 0) == 0) {
      top_k = static_cast<size_t>(std::atol(arg.c_str() + 8));
    } else if (arg.rfind("--max_edges=", 0) == 0) {
      max_edges = static_cast<size_t>(std::atol(arg.c_str() + 12));
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = static_cast<size_t>(std::atol(arg.c_str() + 7));
    } else {
      std::fprintf(stderr,
                   "unknown flag '%s' (supported: --scales=1,10,100 "
                   "--out=FILE --top_k=N --max_edges=N --reps=N)\n",
                   arg.c_str());
      return 2;
    }
  }
  if (scales.empty() || top_k == 0 || max_edges == 0 || reps == 0 ||
      std::find(scales.begin(), scales.end(), 0u) != scales.end()) {
    std::fprintf(stderr,
                 "invalid flags: need scales >= 1, top_k >= 1, "
                 "max_edges >= 1, reps >= 1\n");
    return 2;
  }

  std::vector<ScaleRecord> records;
  for (size_t scale : scales) {
    std::printf("scale %zux ...\n", scale);
    ScaleRecord record = RunScale(scale, top_k, max_edges, reps);
    for (const QueryRecord& qr : record.queries) {
      std::printf(
          "  %-22s enumerate %8.2fms (%zu results) | stream drain "
          "%8.2fms (%zu expansions)\n",
          qr.query.c_str(), qr.enumerate_ms, qr.results_full,
          qr.stream_full_ms, qr.expansions_full);
      for (const TopkRecord& tr : qr.topk) {
        std::printf(
            "    top-%zu %-12s %8.2fms  %8zu expansions  (%.1fx fewer, "
            "%.1fx faster than enumerate)\n",
            top_k, tr.ranker.c_str(), tr.stream_topk_ms, tr.expansions_topk,
            Ratio(static_cast<double>(qr.expansions_full),
                  static_cast<double>(tr.expansions_topk)),
            Ratio(qr.enumerate_ms, tr.stream_topk_ms));
      }
    }
    records.push_back(std::move(record));
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open '%s' for writing\n", out_path.c_str());
    return 1;
  }
  WriteJson(f, records, top_k, max_edges, reps);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
