// Copyright 2026 The claks Authors.
//
// Oracle for KeywordSearchEngine::AnalyzeTree's match lookups. The engine
// finds each tree tuple in a keyword's TupleId-sorted matches by binary
// search; this test recomputes every hit's text score the direct way —
// scan all matches of every keyword, keep those inside the tree, take the
// max ScoreTupleMatch per keyword, sum in keyword order — and requires
// exact double equality. It also checks path orientation: a connection
// whose back, but not its front, matches the first keyword comes out
// reversed.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/engine.h"
#include "datasets/company_gen.h"
#include "text/scoring.h"

namespace claks {
namespace {

// Text score computed by scanning every match of every keyword.
double ScanTextScore(const KeywordSearchEngine& engine,
                     const SearchResult& result, const TupleTree& tree) {
  std::set<TupleId> tree_tuples;
  for (uint32_t node : tree.nodes) {
    tree_tuples.insert(engine.data_graph().TupleOf(node));
  }
  double total = 0.0;
  for (const KeywordMatches& km : result.matches) {
    double best = 0.0;
    for (const TupleMatch& m : km.matches) {
      if (tree_tuples.count(m.tuple) == 0) continue;
      best = std::max(best, ScoreTupleMatch(engine.index(), km.keyword, m));
    }
    total += best;
  }
  return total;
}

class AnalyzeTreeOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto generated = GenerateCompanyDataset(CompanyGenOptions::AtScale(10));
    ASSERT_TRUE(generated.ok());
    dataset_ = new GeneratedDataset(std::move(generated).ValueOrDie());
    auto engine = KeywordSearchEngine::Create(
        dataset_->db.get(), dataset_->er_schema, dataset_->mapping);
    ASSERT_TRUE(engine.ok());
    engine_ = std::move(engine).ValueOrDie().release();
  }

  static void TearDownTestSuite() {
    delete engine_;
    delete dataset_;
  }

  // Checks every hit of `query` under `method`; returns how many path
  // hits were reversed relative to their tree's own connection order.
  static size_t CheckEveryHit(SearchMethod method, const std::string& query) {
    SearchOptions options;
    options.method = method;
    options.max_rdb_edges = 3;
    options.tmax = 4;
    options.top_k = 0;
    if (method == SearchMethod::kBanks) options.banks.top_k = 200;
    auto result = engine_->Search(query, options);
    EXPECT_TRUE(result.ok()) << query;
    if (!result.ok()) return 0;
    EXPECT_FALSE(result->hits.empty())
        << SearchMethodToString(method) << " " << query;
    std::set<TupleId> first = result->matches[0].TupleSet();
    size_t reversed = 0;
    for (const SearchHit& hit : result->hits) {
      EXPECT_EQ(hit.text_score, ScanTextScore(*engine_, *result, hit.tree))
          << SearchMethodToString(method) << " " << query << " "
          << hit.rendered;
      if (!hit.connection.has_value()) continue;
      Connection raw = hit.tree.ToConnection(engine_->data_graph());
      bool flip = first.count(raw.front()) == 0 && first.count(raw.back()) > 0;
      EXPECT_TRUE(*hit.connection == (flip ? raw.Reversed() : raw))
          << SearchMethodToString(method) << " " << query << " "
          << hit.rendered;
      if (flip) ++reversed;
    }
    return reversed;
  }

  static GeneratedDataset* dataset_;
  static KeywordSearchEngine* engine_;
};

GeneratedDataset* AnalyzeTreeOracleTest::dataset_ = nullptr;
KeywordSearchEngine* AnalyzeTreeOracleTest::engine_ = nullptr;

TEST_F(AnalyzeTreeOracleTest, TextScoreAndOrientationMatchFullScan) {
  const SearchMethod kMethods[] = {SearchMethod::kEnumerate,
                                   SearchMethod::kMtjnt, SearchMethod::kBanks,
                                   SearchMethod::kStream};
  size_t reversed = 0;
  for (SearchMethod method : kMethods) {
    for (const char* query : {"smith xml", "xml smith", "chen databases"}) {
      reversed += CheckEveryHit(method, query);
    }
  }
  // The orientation branch was exercised, not just vacuously satisfied.
  EXPECT_GT(reversed, 0u);

  // More keywords than the path methods take: MTJNT and BANKS sum one
  // best match per keyword over non-path trees too.
  for (SearchMethod method : {SearchMethod::kMtjnt, SearchMethod::kBanks}) {
    CheckEveryHit(method, "smith xml networks");
  }
}

}  // namespace
}  // namespace claks
