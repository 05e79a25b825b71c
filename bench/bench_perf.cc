// Copyright 2026 The claks Authors.
//
// Performance benchmarks (google-benchmark): index construction, graph
// construction, connection enumeration, MTJNT (DISCOVER), BANKS, ER
// projection and classification — across synthetic database scales. The
// paper reports no performance numbers (its evaluation is a worked
// example); these benchmarks demonstrate the system at realistic sizes.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/engine.h"
#include "core/topk.h"
#include "datasets/bibliography.h"
#include "datasets/company_full.h"
#include "datasets/company_gen.h"
#include "graph/steiner.h"

namespace claks {
namespace {

CompanyGenOptions ScaledOptions(int64_t scale) {
  CompanyGenOptions options;
  options.num_departments = static_cast<size_t>(2 * scale);
  options.employees_per_department = 10;
  options.projects_per_department = 4;
  options.avg_assignments_per_employee = 1.5;
  options.seed = 42;
  return options;
}

const GeneratedDataset& CachedCompany(int64_t scale) {
  static std::map<int64_t, GeneratedDataset>* cache =
      new std::map<int64_t, GeneratedDataset>();
  auto it = cache->find(scale);
  if (it == cache->end()) {
    auto dataset = GenerateCompanyDataset(ScaledOptions(scale));
    CLAKS_CHECK(dataset.ok());
    it = cache->emplace(scale, std::move(dataset).ValueOrDie()).first;
  }
  return it->second;
}

const KeywordSearchEngine& CachedEngine(int64_t scale) {
  static std::map<int64_t, std::unique_ptr<KeywordSearchEngine>>* cache =
      new std::map<int64_t, std::unique_ptr<KeywordSearchEngine>>();
  auto it = cache->find(scale);
  if (it == cache->end()) {
    const GeneratedDataset& dataset = CachedCompany(scale);
    auto engine = KeywordSearchEngine::Create(
        dataset.db.get(), dataset.er_schema, dataset.mapping);
    CLAKS_CHECK(engine.ok());
    it = cache->emplace(scale, std::move(engine).ValueOrDie()).first;
  }
  return *it->second;
}

void BM_GenerateDataset(benchmark::State& state) {
  for (auto _ : state) {
    auto dataset = GenerateCompanyDataset(ScaledOptions(state.range(0)));
    CLAKS_CHECK(dataset.ok());
    benchmark::DoNotOptimize(dataset->db->TotalRows());
  }
  state.SetLabel(std::to_string(
                     CachedCompany(state.range(0)).db->TotalRows()) +
                 " tuples");
}
BENCHMARK(BM_GenerateDataset)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_BuildInvertedIndex(benchmark::State& state) {
  const GeneratedDataset& dataset = CachedCompany(state.range(0));
  for (auto _ : state) {
    InvertedIndex index(dataset.db.get());
    benchmark::DoNotOptimize(index.vocabulary_size());
  }
}
BENCHMARK(BM_BuildInvertedIndex)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_BuildDataGraph(benchmark::State& state) {
  const GeneratedDataset& dataset = CachedCompany(state.range(0));
  for (auto _ : state) {
    DataGraph graph(dataset.db.get());
    benchmark::DoNotOptimize(graph.num_edges());
  }
}
BENCHMARK(BM_BuildDataGraph)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ReverseEngineerEr(benchmark::State& state) {
  const GeneratedDataset& dataset = CachedCompany(state.range(0));
  for (auto _ : state) {
    auto recovered = ReverseEngineerEr(*dataset.db);
    CLAKS_CHECK(recovered.ok());
    benchmark::DoNotOptimize(recovered->schema.relationships().size());
  }
}
BENCHMARK(BM_ReverseEngineerEr)->Arg(1)->Arg(16);

void BM_SearchEnumerate(benchmark::State& state) {
  const KeywordSearchEngine& engine = CachedEngine(state.range(0));
  SearchOptions options;
  options.max_rdb_edges = static_cast<size_t>(state.range(1));
  options.instance_check = false;
  size_t hits = 0;
  for (auto _ : state) {
    auto result = engine.Search("research xml", options);
    CLAKS_CHECK(result.ok());
    hits = result->hits.size();
    benchmark::DoNotOptimize(hits);
  }
  state.SetLabel(std::to_string(hits) + " hits");
}
BENCHMARK(BM_SearchEnumerate)
    ->Args({1, 3})
    ->Args({4, 3})
    ->Args({16, 3})
    ->Args({1, 4})
    ->Args({4, 4});

void BM_SearchEnumerateWithInstanceCheck(benchmark::State& state) {
  const KeywordSearchEngine& engine = CachedEngine(state.range(0));
  SearchOptions options;
  options.max_rdb_edges = 3;
  options.instance_check = true;
  for (auto _ : state) {
    auto result = engine.Search("research xml", options);
    CLAKS_CHECK(result.ok());
    benchmark::DoNotOptimize(result->hits.size());
  }
}
BENCHMARK(BM_SearchEnumerateWithInstanceCheck)->Arg(1)->Arg(4);

void BM_SearchDiscover(benchmark::State& state) {
  const KeywordSearchEngine& engine = CachedEngine(state.range(0));
  SearchOptions options;
  options.method = SearchMethod::kDiscover;
  options.tmax = static_cast<size_t>(state.range(1));
  options.instance_check = false;
  for (auto _ : state) {
    auto result = engine.Search("research xml", options);
    CLAKS_CHECK(result.ok());
    benchmark::DoNotOptimize(result->hits.size());
  }
}
BENCHMARK(BM_SearchDiscover)->Args({1, 3})->Args({4, 3})->Args({1, 4});

void BM_SearchBanks(benchmark::State& state) {
  const KeywordSearchEngine& engine = CachedEngine(state.range(0));
  SearchOptions options;
  options.method = SearchMethod::kBanks;
  options.top_k = 10;
  options.instance_check = false;
  for (auto _ : state) {
    auto result = engine.Search("research xml", options);
    CLAKS_CHECK(result.ok());
    benchmark::DoNotOptimize(result->hits.size());
  }
}
BENCHMARK(BM_SearchBanks)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ClassifySequences(benchmark::State& state) {
  // Pure classification cost on synthetic step sequences.
  std::vector<std::vector<Cardinality>> sequences;
  Rng rng(7);
  const Cardinality kAll[] = {Cardinality::kOneOne, Cardinality::kOneN,
                              Cardinality::kNOne, Cardinality::kNM};
  for (int i = 0; i < 1024; ++i) {
    std::vector<Cardinality> seq;
    size_t len = 1 + rng.Index(6);
    for (size_t j = 0; j < len; ++j) seq.push_back(kAll[rng.Index(4)]);
    sequences.push_back(std::move(seq));
  }
  for (auto _ : state) {
    size_t loose = 0;
    for (const auto& seq : sequences) {
      if (AdmitsLooseAssociation(ClassifyCardinalitySequence(seq))) {
        ++loose;
      }
    }
    benchmark::DoNotOptimize(loose);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(sequences.size()));
}
BENCHMARK(BM_ClassifySequences);

void BM_ProjectToEr(benchmark::State& state) {
  const KeywordSearchEngine& engine = CachedEngine(4);
  SearchOptions options;
  options.max_rdb_edges = 4;
  options.instance_check = false;
  auto result = engine.Search("research xml", options);
  CLAKS_CHECK(result.ok());
  std::vector<Connection> connections;
  for (const SearchHit& hit : result->hits) {
    if (hit.connection.has_value()) connections.push_back(*hit.connection);
  }
  if (connections.empty()) {
    state.SkipWithError("no connections");
    return;
  }
  for (auto _ : state) {
    for (const Connection& conn : connections) {
      auto projection = ProjectToEr(conn, engine.database(),
                                    engine.er_schema(), engine.mapping());
      CLAKS_CHECK(projection.ok());
      benchmark::DoNotOptimize(projection->ErLength());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(connections.size()));
}
BENCHMARK(BM_ProjectToEr);

void BM_BibliographySearch(benchmark::State& state) {
  static GeneratedDataset* dataset = [] {
    BibliographyGenOptions options;
    options.num_papers = 200;
    options.num_authors = 80;
    auto d = GenerateBibliographyDataset(options);
    CLAKS_CHECK(d.ok());
    return new GeneratedDataset(std::move(d).ValueOrDie());
  }();
  static KeywordSearchEngine* engine = [] {
    auto e = KeywordSearchEngine::Create(dataset->db.get(),
                                         dataset->er_schema,
                                         dataset->mapping);
    CLAKS_CHECK(e.ok());
    return std::move(e).ValueOrDie().release();
  }();
  SearchOptions options;
  options.max_rdb_edges = static_cast<size_t>(state.range(0));
  options.instance_check = false;
  for (auto _ : state) {
    auto result = engine->Search("keyword retrieval", options);
    CLAKS_CHECK(result.ok());
    benchmark::DoNotOptimize(result->hits.size());
  }
}
BENCHMARK(BM_BibliographySearch)->Arg(2)->Arg(3);

// Lazy streaming vs. full enumeration: top-3 should expand far fewer
// partial paths.
void BM_StreamTop3(benchmark::State& state) {
  const KeywordSearchEngine& engine = CachedEngine(state.range(0));
  const DataGraph& graph = engine.data_graph();
  auto matches = MatchKeywords(
      engine.index(),
      ParseKeywordQuery("research xml", engine.index().tokenizer()));
  if (!AllKeywordsMatched(matches)) {
    state.SkipWithError("keywords unmatched at this scale");
    return;
  }
  std::vector<uint32_t> sources, targets;
  for (const TupleMatch& m : matches[0].matches) {
    sources.push_back(graph.NodeOf(m.tuple));
  }
  for (const TupleMatch& m : matches[1].matches) {
    targets.push_back(graph.NodeOf(m.tuple));
  }
  size_t expansions = 0;
  for (auto _ : state) {
    ConnectionStream stream(&graph, sources, targets, 3);
    auto top = StreamTopK(&stream, 3);
    expansions = stream.expansions();
    benchmark::DoNotOptimize(top.size());
  }
  state.SetLabel(std::to_string(expansions) + " expansions");
}
BENCHMARK(BM_StreamTop3)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_SteinerTree(benchmark::State& state) {
  const KeywordSearchEngine& engine = CachedEngine(state.range(0));
  const DataGraph& graph = engine.data_graph();
  // Three spread-out terminals: first, middle and last node.
  std::vector<uint32_t> terminals{
      0, static_cast<uint32_t>(graph.num_nodes() / 2),
      static_cast<uint32_t>(graph.num_nodes() - 1)};
  for (auto _ : state) {
    auto tree = ApproximateSteinerTree(graph, terminals);
    benchmark::DoNotOptimize(tree.has_value());
  }
}
BENCHMARK(BM_SteinerTree)->Arg(1)->Arg(4)->Arg(16);

void BM_InstanceStatistics(benchmark::State& state) {
  const GeneratedDataset& dataset = CachedCompany(state.range(0));
  for (auto _ : state) {
    InstanceStatistics stats(dataset.db.get(), &dataset.er_schema,
                             &dataset.mapping);
    benchmark::DoNotOptimize(stats.all().size());
  }
}
BENCHMARK(BM_InstanceStatistics)->Arg(1)->Arg(16)->Arg(64);

void BM_CompanyFullSearch(benchmark::State& state) {
  static GeneratedDataset* dataset = [] {
    CompanyFullOptions options;
    options.num_departments = 8;
    options.employees_per_department = 12;
    auto d = GenerateCompanyFullDataset(options);
    CLAKS_CHECK(d.ok());
    return new GeneratedDataset(std::move(d).ValueOrDie());
  }();
  static KeywordSearchEngine* engine = [] {
    auto e = KeywordSearchEngine::Create(dataset->db.get(),
                                         dataset->er_schema,
                                         dataset->mapping);
    CLAKS_CHECK(e.ok());
    return std::move(e).ValueOrDie().release();
  }();
  SearchOptions options;
  options.max_rdb_edges = 3;
  options.instance_check = false;
  for (auto _ : state) {
    auto result = engine->Search("research houston", options);
    CLAKS_CHECK(result.ok());
    benchmark::DoNotOptimize(result->hits.size());
  }
}
BENCHMARK(BM_CompanyFullSearch);

}  // namespace
}  // namespace claks

BENCHMARK_MAIN();
