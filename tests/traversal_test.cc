// Copyright 2026 The claks Authors.

#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "datasets/company_gen.h"
#include "datasets/company_paper.h"
#include "text/matcher.h"

namespace claks {
namespace {

class TraversalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = BuildCompanyPaperDataset();
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    graph_ = std::make_unique<DataGraph>(dataset_.db.get());
  }

  uint32_t N(const std::string& name) {
    return graph_->NodeOf(PaperTuple(*dataset_.db, name));
  }

  CompanyPaperDataset dataset_;
  std::unique_ptr<DataGraph> graph_;
};

TEST_F(TraversalTest, BfsDistancesFromD1) {
  auto dist = BfsDistances(*graph_, N("d1"));
  EXPECT_EQ(dist[N("d1")], 0u);
  EXPECT_EQ(dist[N("e1")], 1u);
  EXPECT_EQ(dist[N("p1")], 1u);
  EXPECT_EQ(dist[N("w_f1")], 2u);
  EXPECT_EQ(dist[N("t1")], 2u);  // d1 - e3 - t1
  EXPECT_EQ(dist[N("d3")], SIZE_MAX);  // isolated
}

TEST_F(TraversalTest, MultiSourceBfs) {
  auto dist = BfsDistances(*graph_, {N("d1"), N("d2")});
  EXPECT_EQ(dist[N("d1")], 0u);
  EXPECT_EQ(dist[N("d2")], 0u);
  EXPECT_EQ(dist[N("e2")], 1u);
  EXPECT_EQ(dist[N("e1")], 1u);
}

TEST_F(TraversalTest, ShortestPathReconstruction) {
  auto path = ShortestPath(*graph_, N("d1"), N("t1"));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 2u);
  auto nodes = path->Nodes();
  EXPECT_EQ(nodes.front(), N("d1"));
  EXPECT_EQ(nodes[1], N("e3"));
  EXPECT_EQ(nodes.back(), N("t1"));
  EXPECT_EQ(path->End(), N("t1"));
}

TEST_F(TraversalTest, ShortestPathToSelf) {
  auto path = ShortestPath(*graph_, N("d1"), N("d1"));
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->length(), 0u);
}

TEST_F(TraversalTest, ShortestPathDisconnected) {
  EXPECT_FALSE(ShortestPath(*graph_, N("d1"), N("d3")).has_value());
}

TEST_F(TraversalTest, EnumerateSimplePathsD1ToE1) {
  // d1-e1 (1 edge); d1-p1-w_f1-e1 (3 edges). Within 4 edges nothing else
  // reaches e1 without repeating a node.
  auto paths = EnumerateSimplePaths(*graph_, N("d1"), N("e1"), 4);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].length(), 1u);
  EXPECT_EQ(paths[1].length(), 3u);
}

TEST_F(TraversalTest, EnumerateRespectsDepthBound) {
  auto paths = EnumerateSimplePaths(*graph_, N("d1"), N("e1"), 2);
  EXPECT_EQ(paths.size(), 1u);
}

TEST_F(TraversalTest, EnumerateBetweenSetsStopsAtFirstTarget) {
  // From p1 to {d1, d2}: the path p1-d1 stops at d1 and must not continue
  // through d1 to reach d2.
  auto paths = EnumerateSimplePathsBetweenSets(*graph_, {N("p1")},
                                               {N("d1"), N("d2")}, 4);
  for (const NodePath& path : paths) {
    auto nodes = path.Nodes();
    // No target may appear in the interior.
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      EXPECT_NE(nodes[i], N("d2"));
      if (i > 0) {
        EXPECT_NE(nodes[i], N("d1"));
      }
    }
  }
}

TEST_F(TraversalTest, SourceInTargetSetYieldsZeroEdgePath) {
  auto paths =
      EnumerateSimplePathsBetweenSets(*graph_, {N("d1")}, {N("d1")}, 3);
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].length(), 0u);
}

TEST_F(TraversalTest, MaxResultsCapsOutput) {
  auto paths = EnumerateSimplePathsBetweenSets(
      *graph_, {N("d1"), N("d2")}, {N("e1"), N("e2")}, 4,
      /*max_results=*/1);
  EXPECT_EQ(paths.size(), 1u);
}

TEST_F(TraversalTest, PathsAreSimple) {
  auto paths = EnumerateSimplePaths(*graph_, N("d2"), N("e2"), 4);
  for (const NodePath& path : paths) {
    auto nodes = path.Nodes();
    std::set<uint32_t> unique(nodes.begin(), nodes.end());
    EXPECT_EQ(unique.size(), nodes.size());
  }
}

TEST_F(TraversalTest, SortedByLength) {
  auto paths = EnumerateSimplePathsBetweenSets(
      *graph_, {N("d1"), N("d2")}, {N("e1"), N("e2")}, 4);
  for (size_t i = 1; i < paths.size(); ++i) {
    EXPECT_LE(paths[i - 1].length(), paths[i].length());
  }
}

// The set enumeration must equal running each source alone (with what is
// left of the result budget) and stable-sorting the concatenation by
// length.
void ExpectMatchesPerSourceRuns(const DataGraph& graph,
                                const std::vector<uint32_t>& sources,
                                const std::vector<uint32_t>& targets,
                                size_t max_edges, size_t max_results) {
  SCOPED_TRACE(::testing::Message() << "max_edges=" << max_edges
                                    << " max_results=" << max_results);
  std::vector<NodePath> expected;
  for (uint32_t source : sources) {
    size_t budget = 0;
    if (max_results != 0) {
      if (expected.size() >= max_results) break;
      budget = max_results - expected.size();
    }
    for (NodePath& path : EnumerateSimplePathsBetweenSets(
             graph, {source}, targets, max_edges, budget)) {
      expected.push_back(std::move(path));
    }
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](const NodePath& a, const NodePath& b) {
                     return a.length() < b.length();
                   });
  std::vector<NodePath> got = EnumerateSimplePathsBetweenSets(
      graph, sources, targets, max_edges, max_results);
  ASSERT_EQ(got.size(), expected.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].start, expected[i].start) << "path " << i;
    EXPECT_EQ(got[i].Nodes(), expected[i].Nodes()) << "path " << i;
    ASSERT_EQ(got[i].steps.size(), expected[i].steps.size());
    for (size_t j = 0; j < got[i].steps.size(); ++j) {
      EXPECT_EQ(got[i].steps[j].edge_index, expected[i].steps[j].edge_index);
    }
  }
}

TEST_F(TraversalTest, SetEnumerationMatchesPerSourceRuns) {
  // Duplicate sources, a source that is also a target, and caps that cut
  // mid-source.
  std::vector<uint32_t> sources = {N("d1"), N("p1"), N("d1"), N("e2"),
                                   N("d2"), N("p2")};
  std::vector<uint32_t> targets = {N("e1"), N("e2")};
  size_t total =
      EnumerateSimplePathsBetweenSets(*graph_, sources, targets, 4).size();
  ASSERT_GT(total, 4u);
  for (size_t max_edges = 0; max_edges <= 4; ++max_edges) {
    for (size_t max_results : {size_t{0}, size_t{1}, size_t{2}, size_t{3},
                               total - 1, total}) {
      ExpectMatchesPerSourceRuns(*graph_, sources, targets, max_edges,
                                 max_results);
    }
  }
}

TEST(TraversalGeneratedTest, SetEnumerationMatchesPerSourceRuns) {
  auto dataset = GenerateCompanyDataset(CompanyGenOptions::AtScale(10));
  ASSERT_TRUE(dataset.ok());
  DataGraph graph(dataset->db.get());
  InvertedIndex index(dataset->db.get());
  auto matches =
      MatchKeywords(index, ParseKeywordQuery("smith xml", index.tokenizer()));
  ASSERT_TRUE(AllKeywordsMatched(matches));
  std::vector<uint32_t> smith, xml;
  for (const TupleMatch& m : matches[0].matches) {
    smith.push_back(graph.NodeOf(m.tuple));
  }
  for (const TupleMatch& m : matches[1].matches) {
    xml.push_back(graph.NodeOf(m.tuple));
  }
  // Repeat a source and add one target as a source.
  smith.push_back(smith.front());
  smith.push_back(xml.front());
  size_t total = EnumerateSimplePathsBetweenSets(graph, smith, xml, 3).size();
  ASSERT_GT(total, 10u);
  for (size_t max_results : {size_t{0}, total / 3, total / 2 + 1}) {
    ExpectMatchesPerSourceRuns(graph, smith, xml, 3, max_results);
    ExpectMatchesPerSourceRuns(graph, xml, smith, 3, max_results);
  }
}

}  // namespace
}  // namespace claks
