// Copyright 2026 The claks Authors.
//
// Regression suite for the indexed execution layer: the per-FK join
// indexes (relational/database.h) and the CSR data graph
// (graph/data_graph.h) must agree exactly with the seed per-table scan
// implementations (the per-row scans of the test oracle, tests/oracle/),
// on the paper dataset and on a 10x company_gen instance, and the indexed
// candidate-network evaluator must return the oracle's seed nested-loop
// evaluator's results verbatim.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "core/mtjnt.h"
#include "datasets/company_gen.h"
#include "datasets/company_paper.h"
#include "graph/data_graph.h"
#include "oracle/mtjnt_oracle.h"
#include "relational/database.h"

namespace claks {
namespace {

// Scan-derived adjacency in the seed representation: one vector per node
// id, entries pushed in FK-edge order, referencing side first. Node and
// edge ids are slack-gapped per-table regions now, so the scan ordinal is
// mapped to the matching graph edge id through EdgeIds(), which enumerates
// live ids in the same table-major dense order as oracle::ScanAllFkEdges.
std::vector<std::vector<DataAdjacency>> ScanAdjacency(
    const Database& db, const DataGraph& graph) {
  std::vector<std::vector<DataAdjacency>> adjacency(graph.node_id_bound());
  std::vector<FkEdge> edges = oracle::ScanAllFkEdges(db);
  std::vector<uint32_t> ids = graph.EdgeIds();
  EXPECT_EQ(ids.size(), edges.size());
  for (uint32_t e = 0; e < edges.size() && e < ids.size(); ++e) {
    uint32_t from_node = graph.NodeOf(edges[e].from);
    uint32_t to_node = graph.NodeOf(edges[e].to);
    adjacency[from_node].push_back(DataAdjacency{ids[e], to_node, true});
    adjacency[to_node].push_back(DataAdjacency{ids[e], from_node, false});
  }
  return adjacency;
}

void ExpectAdjacencyMatchesScan(const Database& db, const DataGraph& graph) {
  auto expected = ScanAdjacency(db, graph);
  ASSERT_EQ(graph.node_id_bound(), expected.size());
  for (uint32_t node = 0; node < graph.node_id_bound(); ++node) {
    // Gap ids (unused slack slots) have no neighbors on either side.
    auto actual = graph.Neighbors(node);
    ASSERT_EQ(actual.size(), expected[node].size()) << "node " << node;
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(actual[i].edge_index, expected[node][i].edge_index);
      EXPECT_EQ(actual[i].neighbor, expected[node][i].neighbor);
      EXPECT_EQ(actual[i].along_fk, expected[node][i].along_fk);
    }
  }
}

void ExpectJoinIndexMatchesScan(const Database& db) {
  for (uint32_t t = 0; t < db.num_tables(); ++t) {
    const Table& tab = db.table(t);
    const auto& fks = tab.schema().foreign_keys();
    for (uint32_t f = 0; f < fks.size(); ++f) {
      const Table* referenced = db.FindTable(fks[f].referenced_table);
      ASSERT_NE(referenced, nullptr);
      std::vector<size_t> local_indices;
      for (const auto& attr : fks[f].local_attributes) {
        auto idx = tab.schema().AttributeIndex(attr);
        ASSERT_TRUE(idx.has_value());
        local_indices.push_back(*idx);
      }

      // Child->parent agrees with the per-row FK resolution.
      for (uint32_t r = 0; r < tab.num_rows(); ++r) {
        auto parent = db.JoinParent(TupleId{t, r}, f);
        std::optional<TupleId> expected;
        for (const FkEdge& edge : db.ResolveFkEdgesFrom(TupleId{t, r})) {
          if (edge.fk_index == f) expected = edge.to;
        }
        EXPECT_EQ(parent, expected) << tab.name() << " row " << r;
      }

      // Parent->children agrees with the seed per-table scan
      // (Table::FindRows over the FK attributes).
      auto ref_index = db.TableIndex(fks[f].referenced_table);
      ASSERT_TRUE(ref_index.has_value());
      auto pk_indices = referenced->schema().PrimaryKeyIndices();
      for (uint32_t pr = 0; pr < referenced->num_rows(); ++pr) {
        Row key;
        for (size_t idx : pk_indices) {
          key.push_back(referenced->row(pr)[idx]);
        }
        std::vector<size_t> scanned = tab.FindRows(local_indices, key);
        auto indexed = db.JoinChildren(t, f, TupleId{*ref_index, pr});
        ASSERT_EQ(indexed.size(), scanned.size())
            << tab.name() << " fk " << f << " parent row " << pr;
        for (size_t i = 0; i < indexed.size(); ++i) {
          EXPECT_EQ(static_cast<size_t>(indexed[i]), scanned[i]);
        }
      }
    }
  }
}

std::vector<KeywordMatches> Match(const KeywordSearchEngine& engine,
                                  const std::string& query) {
  return MatchKeywords(engine.index(),
                       ParseKeywordQuery(query, engine.index().tokenizer()));
}

// DISCOVER with join-index evaluation (production) and with the oracle's
// seed nested-loop evaluation.
std::vector<TupleTree> RunDiscover(const KeywordSearchEngine& engine,
                                   const std::string& query, size_t tmax) {
  return DiscoverMtjnt(engine.data_graph(), engine.schema_graph(),
                       Match(engine, query), tmax);
}

std::vector<TupleTree> RunDiscoverScan(const KeywordSearchEngine& engine,
                                       const std::string& query,
                                       size_t tmax) {
  return oracle::DiscoverMtjntScan(engine.data_graph(),
                                   engine.schema_graph(),
                                   Match(engine, query), tmax);
}

class JoinIndexPaperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = BuildCompanyPaperDataset();
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    auto engine = KeywordSearchEngine::Create(
        dataset_.db.get(), dataset_.er_schema, dataset_.mapping);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).ValueOrDie();
  }

  CompanyPaperDataset dataset_;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

TEST_F(JoinIndexPaperTest, CachedEdgesMatchScan) {
  const std::vector<FkEdge>& cached = dataset_.db->ResolveAllFkEdges();
  std::vector<FkEdge> scanned = oracle::ScanAllFkEdges(*dataset_.db);
  ASSERT_EQ(cached.size(), scanned.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].from, scanned[i].from);
    EXPECT_EQ(cached[i].to, scanned[i].to);
    EXPECT_EQ(cached[i].fk_index, scanned[i].fk_index);
  }
}

TEST_F(JoinIndexPaperTest, CsrAdjacencyMatchesScanDerivedAdjacency) {
  ExpectAdjacencyMatchesScan(*dataset_.db, engine_->data_graph());
}

TEST_F(JoinIndexPaperTest, JoinIndexLookupsMatchTableScans) {
  ExpectJoinIndexMatchesScan(*dataset_.db);
}

TEST_F(JoinIndexPaperTest, OutEdgesMatchPerTupleResolution) {
  const DataGraph& graph = engine_->data_graph();
  for (uint32_t node = 0; node < graph.node_id_bound(); ++node) {
    if (!graph.IsNode(node)) continue;
    std::vector<FkEdge> expected =
        dataset_.db->ResolveFkEdgesFrom(graph.TupleOf(node));
    auto out = graph.OutEdges(node);
    ASSERT_EQ(out.size(), expected.size());
    for (size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].from, expected[i].from);
      EXPECT_EQ(out[i].to, expected[i].to);
      EXPECT_EQ(out[i].fk_index, expected[i].fk_index);
      auto edge_index = graph.OutEdge(node, expected[i].fk_index);
      ASSERT_TRUE(edge_index.has_value());
      EXPECT_EQ(*edge_index, graph.FirstOutEdge(node) + i);
    }
  }
}

TEST_F(JoinIndexPaperTest, IndexedCnEvaluationMatchesScan) {
  for (const std::string& query :
       {std::string("Smith XML"), std::string("Smith XML Alice"),
        std::string("Smith"), std::string("XML Alice")}) {
    for (size_t tmax : {3u, 5u}) {
      auto indexed = RunDiscover(*engine_, query, tmax);
      auto scan = RunDiscoverScan(*engine_, query, tmax);
      EXPECT_EQ(indexed, scan) << query << " tmax " << tmax;
    }
  }
}

// All search methods must return the seed implementation's result sets on
// the paper dataset: DISCOVER (indexed) == the oracle's exact MTJNT
// enumeration, and the engine's kMtjnt/kDiscover hits carry its trees.
TEST_F(JoinIndexPaperTest, SearchMethodsAgreeOnPaperDataset) {
  auto exact = oracle::EnumerateMtjnt(engine_->data_graph(),
                                      Match(*engine_, "Smith XML"), 5);
  auto discover = RunDiscover(*engine_, "Smith XML", 5);
  EXPECT_EQ(exact, discover);

  SearchOptions mtjnt_options;
  mtjnt_options.method = SearchMethod::kMtjnt;
  mtjnt_options.tmax = 5;
  SearchOptions discover_options = mtjnt_options;
  discover_options.method = SearchMethod::kDiscover;
  auto mtjnt_result = engine_->Search("Smith XML", mtjnt_options);
  auto discover_result = engine_->Search("Smith XML", discover_options);
  ASSERT_TRUE(mtjnt_result.ok());
  ASSERT_TRUE(discover_result.ok());
  auto trees = [](const SearchResult& result) {
    std::set<TupleTree> out;
    for (const SearchHit& hit : result.hits) out.insert(hit.tree);
    return out;
  };
  EXPECT_EQ(trees(*mtjnt_result), trees(*discover_result));
  EXPECT_EQ(trees(*mtjnt_result),
            std::set<TupleTree>(exact.begin(), exact.end()));
}

TEST(JoinIndexGenTest, TenXCompanyGenSmoke) {
  auto generated = GenerateCompanyDataset(CompanyGenOptions::AtScale(10));
  ASSERT_TRUE(generated.ok());
  GeneratedDataset dataset = std::move(generated).ValueOrDie();
  Database& db = *dataset.db;

  // Cached edge list identical to the seed scan.
  std::vector<FkEdge> scanned = oracle::ScanAllFkEdges(db);
  const std::vector<FkEdge>& cached = db.ResolveAllFkEdges();
  ASSERT_EQ(cached.size(), scanned.size());
  for (size_t i = 0; i < cached.size(); ++i) {
    EXPECT_EQ(cached[i].from, scanned[i].from);
    EXPECT_EQ(cached[i].to, scanned[i].to);
    EXPECT_EQ(cached[i].fk_index, scanned[i].fk_index);
  }
  EXPECT_TRUE(db.JoinIndexesFresh());

  ExpectJoinIndexMatchesScan(db);

  auto engine = KeywordSearchEngine::Create(dataset.db.get(),
                                            dataset.er_schema,
                                            dataset.mapping);
  ASSERT_TRUE(engine.ok());
  ExpectAdjacencyMatchesScan(db, (*engine)->data_graph());

  auto indexed = RunDiscover(**engine, "smith xml", 4);
  auto scan = RunDiscoverScan(**engine, "smith xml", 4);
  EXPECT_FALSE(indexed.empty());
  EXPECT_EQ(indexed, scan);
}

TEST(JoinIndexGenTest, InsertInvalidatesAndRebuilds) {
  auto generated = GenerateCompanyDataset(CompanyGenOptions::AtScale(1));
  ASSERT_TRUE(generated.ok());
  GeneratedDataset dataset = std::move(generated).ValueOrDie();
  Database& db = *dataset.db;

  size_t edges_before = db.ResolveAllFkEdges().size();
  ASSERT_TRUE(db.JoinIndexesFresh());

  // A new employee referencing d1 adds exactly one FK edge; the cache
  // must notice the insert and rebuild on next access.
  Table* employees = db.FindMutableTable("EMPLOYEE");
  ASSERT_NE(employees, nullptr);
  ASSERT_TRUE(employees
                  ->InsertValues({Value::String("e-extra"),
                                  Value::String("Smith"),
                                  Value::String("John"),
                                  Value::String("d1")})
                  .ok());
  EXPECT_FALSE(db.JoinIndexesFresh());
  EXPECT_EQ(db.ResolveAllFkEdges().size(), edges_before + 1);
  EXPECT_TRUE(db.JoinIndexesFresh());
}

}  // namespace
}  // namespace claks
