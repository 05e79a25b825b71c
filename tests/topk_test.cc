// Copyright 2026 The claks Authors.

#include "core/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <queue>
#include <set>

#include "core/enumerator.h"
#include "datasets/company_gen.h"
#include "datasets/company_paper.h"
#include "text/matcher.h"

namespace claks {
namespace {

// The copy-per-child stream that preceded the step arena, kept as the
// reference the arena must match pop for pop: every child owns copies of
// its parent's step and node vectors.
class ReferenceStream {
 public:
  ReferenceStream(const DataGraph* graph, size_t max_edges)
      : graph_(graph), max_edges_(max_edges) {}

  void AddLane(const std::vector<uint32_t>& sources,
               const std::vector<uint32_t>& targets) {
    uint32_t lane = static_cast<uint32_t>(lane_targets_.size());
    lane_targets_.emplace_back(targets.begin(), targets.end());
    std::set<uint32_t> seen;
    for (uint32_t source : sources) {
      if (!seen.insert(source).second) continue;
      queue_.push(Frontier{NodePath{source, {}}, {source}, 0, lane,
                           next_sequence_++});
    }
  }

  void EnableDedup() { dedup_ = true; }

  std::optional<NodePath> NextPath(size_t stop_length) {
    while (!queue_.empty()) {
      if (queue_.top().length >= stop_length) return std::nullopt;
      Frontier frontier = queue_.top();
      queue_.pop();
      ++expansions_;
      uint32_t end = frontier.path.End();
      if (lane_targets_[frontier.lane].count(end) > 0) {
        if (!dedup_ || MarkEmitted(frontier)) return frontier.path;
        continue;
      }
      if (frontier.path.length() >= max_edges_) continue;
      for (const DataAdjacency& adj : graph_->Neighbors(end)) {
        if (std::find(frontier.nodes.begin(), frontier.nodes.end(),
                      adj.neighbor) != frontier.nodes.end()) {
          continue;
        }
        Frontier extended;
        extended.path = frontier.path;
        extended.path.steps.push_back(adj);
        extended.nodes = frontier.nodes;
        extended.nodes.push_back(adj.neighbor);
        extended.length = extended.path.length();
        extended.lane = frontier.lane;
        extended.sequence = next_sequence_++;
        queue_.push(std::move(extended));
      }
    }
    return std::nullopt;
  }

  std::optional<size_t> PendingLength() const {
    if (queue_.empty()) return std::nullopt;
    return queue_.top().length;
  }

  size_t expansions() const { return expansions_; }

 private:
  struct Frontier {
    NodePath path;
    std::vector<uint32_t> nodes;
    size_t length;
    uint32_t lane;
    uint64_t sequence;
    bool operator>(const Frontier& other) const {
      if (length != other.length) return length > other.length;
      return sequence > other.sequence;
    }
  };

  bool MarkEmitted(const Frontier& frontier) {
    std::vector<uint32_t> nodes = frontier.nodes;
    std::sort(nodes.begin(), nodes.end());
    std::vector<uint32_t> edges;
    for (const DataAdjacency& step : frontier.path.steps) {
      edges.push_back(step.edge_index);
    }
    std::sort(edges.begin(), edges.end());
    return emitted_.insert({std::move(nodes), std::move(edges)}).second;
  }

  const DataGraph* graph_;
  std::vector<std::set<uint32_t>> lane_targets_;
  size_t max_edges_;
  bool dedup_ = false;
  uint64_t next_sequence_ = 0;
  size_t expansions_ = 0;
  std::set<std::pair<std::vector<uint32_t>, std::vector<uint32_t>>> emitted_;
  std::priority_queue<Frontier, std::vector<Frontier>, std::greater<>>
      queue_;
};

// Drives a ConnectionStream and the reference with the same NextPath
// bounds (cycling through `stops`) and expects identical paths, expansion
// counts and pending lengths after every call. Stops after `max_calls`
// calls or once both are exhausted.
void ExpectMatchesReference(const DataGraph& graph,
                            const std::vector<uint32_t>& side_a,
                            const std::vector<uint32_t>& side_b,
                            size_t max_edges, bool bidirectional,
                            const std::vector<size_t>& stops,
                            size_t max_calls) {
  ConnectionStream stream =
      bidirectional
          ? ConnectionStream::Bidirectional(&graph, side_a, side_b, max_edges)
          : ConnectionStream(&graph, side_a, side_b, max_edges);
  ReferenceStream reference(&graph, max_edges);
  reference.AddLane(side_a, side_b);
  if (bidirectional) {
    reference.AddLane(side_b, side_a);
    reference.EnableDedup();
  }
  for (size_t call = 0; call < max_calls; ++call) {
    SCOPED_TRACE(::testing::Message()
                 << "max_edges=" << max_edges << " bidirectional="
                 << bidirectional << " call=" << call);
    size_t stop = stops[call % stops.size()];
    std::optional<NodePath> got = stream.NextPath(stop);
    std::optional<NodePath> want = reference.NextPath(stop);
    ASSERT_EQ(got.has_value(), want.has_value());
    ASSERT_EQ(stream.expansions(), reference.expansions());
    ASSERT_EQ(stream.PendingLength(), reference.PendingLength());
    if (got.has_value()) {
      ASSERT_EQ(got->start, want->start);
      ASSERT_EQ(got->steps.size(), want->steps.size());
      for (size_t i = 0; i < got->steps.size(); ++i) {
        EXPECT_EQ(got->steps[i].edge_index, want->steps[i].edge_index);
        EXPECT_EQ(got->steps[i].neighbor, want->steps[i].neighbor);
        EXPECT_EQ(got->steps[i].along_fk, want->steps[i].along_fk);
      }
    } else if (!reference.PendingLength().has_value()) {
      return;
    }
  }
}

// Unbounded pulls, and a pause/resume pattern that stops short of, at and
// past the pending length before running unbounded.
const std::vector<std::vector<size_t>> kStopPatterns = {
    {ConnectionStream::kNoStopLength},
    {0, 1, 2, 2, 1, 3, ConnectionStream::kNoStopLength, 4, 2, 5}};

void ExpectMatchesReferenceEverywhere(const DataGraph& graph,
                                      const std::vector<uint32_t>& side_a,
                                      const std::vector<uint32_t>& side_b,
                                      size_t max_calls) {
  for (size_t max_edges = 0; max_edges <= 5; ++max_edges) {
    for (bool bidirectional : {false, true}) {
      for (const std::vector<size_t>& stops : kStopPatterns) {
        ExpectMatchesReference(graph, side_a, side_b, max_edges,
                               bidirectional, stops, max_calls);
      }
    }
  }
}

class TopkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset = BuildCompanyPaperDataset();
    ASSERT_TRUE(dataset.ok());
    dataset_ = std::move(dataset).ValueOrDie();
    graph_ = std::make_unique<DataGraph>(dataset_.db.get());
  }

  std::vector<uint32_t> Nodes(const std::vector<std::string>& names) {
    std::vector<uint32_t> out;
    for (const auto& name : names) {
      out.push_back(graph_->NodeOf(PaperTuple(*dataset_.db, name)));
    }
    return out;
  }

  CompanyPaperDataset dataset_;
  std::unique_ptr<DataGraph> graph_;
};

TEST_F(TopkTest, StreamsInLengthOrder) {
  ConnectionStream stream(graph_.get(), Nodes({"d1", "d2", "p1", "p2"}),
                          Nodes({"e1", "e2"}), 3);
  size_t previous = 0;
  size_t count = 0;
  while (auto connection = stream.Next()) {
    EXPECT_GE(connection->RdbLength(), previous);
    previous = connection->RdbLength();
    ++count;
  }
  EXPECT_EQ(count, 7u);  // the paper's rows 1-7 at depth <= 3
}

TEST_F(TopkTest, AgreesWithFullEnumeration) {
  auto xml = Nodes({"d1", "d2", "p1", "p2"});
  auto smith = Nodes({"e1", "e2"});
  ConnectionStream stream(graph_.get(), xml, smith, 3);
  std::vector<Connection> streamed;
  while (auto connection = stream.Next()) {
    streamed.push_back(std::move(*connection));
  }

  std::set<TupleId> from, to;
  for (uint32_t n : xml) from.insert(graph_->TupleOf(n));
  for (uint32_t n : smith) to.insert(graph_->TupleOf(n));
  EnumerateOptions options;
  options.max_rdb_edges = 3;
  auto enumerated = EnumerateConnections(*graph_, from, to, options);

  ASSERT_EQ(streamed.size(), enumerated.size());
  for (const Connection& conn : enumerated) {
    bool found = false;
    for (const Connection& other : streamed) {
      if (conn == other) found = true;
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(TopkTest, EarlyStopDoesLessWork) {
  auto xml = Nodes({"d1", "d2", "p1", "p2"});
  auto smith = Nodes({"e1", "e2"});
  ConnectionStream full(graph_.get(), xml, smith, 4);
  while (full.Next()) {
  }
  ConnectionStream early(graph_.get(), xml, smith, 4);
  StreamTopK(&early, 2);
  EXPECT_LT(early.expansions(), full.expansions());
}

TEST_F(TopkTest, TopKStopsAtK) {
  ConnectionStream stream(graph_.get(), Nodes({"d1", "d2", "p1", "p2"}),
                          Nodes({"e1", "e2"}), 4);
  auto top2 = StreamTopK(&stream, 2);
  ASSERT_EQ(top2.size(), 2u);
  // Both are the length-1 connections d1-e1 and d2-e2.
  EXPECT_EQ(top2[0].RdbLength(), 1u);
  EXPECT_EQ(top2[1].RdbLength(), 1u);
}

TEST_F(TopkTest, KLargerThanResultSet) {
  ConnectionStream stream(graph_.get(), Nodes({"d1"}), Nodes({"e1"}), 4);
  auto all = StreamTopK(&stream, 100);
  EXPECT_EQ(all.size(), 2u);  // d1-e1 and d1-p1-w_f1-e1
}

TEST_F(TopkTest, SharedTupleIsZeroLengthAnswer) {
  ConnectionStream stream(graph_.get(), Nodes({"d1", "e1"}),
                          Nodes({"d1"}), 4);
  auto first = stream.Next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->RdbLength(), 0u);
}

TEST_F(TopkTest, NoAnswersWhenDisconnected) {
  ConnectionStream stream(graph_.get(), Nodes({"d3"}), Nodes({"e1"}), 6);
  EXPECT_FALSE(stream.Next().has_value());
}

TEST_F(TopkTest, DepthBoundRespected) {
  ConnectionStream stream(graph_.get(), Nodes({"d1"}), Nodes({"e1"}), 1);
  size_t count = 0;
  while (auto connection = stream.Next()) {
    EXPECT_LE(connection->RdbLength(), 1u);
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST_F(TopkTest, DeterministicAcrossRuns) {
  auto run = [&] {
    ConnectionStream stream(graph_.get(), Nodes({"d1", "d2", "p1", "p2"}),
                            Nodes({"e1", "e2"}), 3);
    std::vector<std::string> rendered;
    while (auto connection = stream.Next()) {
      rendered.push_back(connection->ToString(*dataset_.db));
    }
    return rendered;
  };
  EXPECT_EQ(run(), run());
}

TEST_F(TopkTest, ExpansionCountsPinned) {
  // Golden counts captured before the pop-and-move / incremental-visited
  // optimisation: the faster expansion must pop exactly the same frontier
  // sequence.
  auto xml = Nodes({"d1", "d2", "p1", "p2"});
  auto smith = Nodes({"e1", "e2"});
  {
    ConnectionStream stream(graph_.get(), xml, smith, 3);
    size_t count = 0;
    while (stream.Next()) ++count;
    EXPECT_EQ(count, 7u);
    EXPECT_EQ(stream.expansions(), 45u);
  }
  {
    ConnectionStream stream(graph_.get(), xml, smith, 4);
    size_t count = 0;
    while (stream.Next()) ++count;
    EXPECT_EQ(count, 9u);
    EXPECT_EQ(stream.expansions(), 56u);
  }
  {
    ConnectionStream stream(graph_.get(), xml, smith, 4);
    StreamTopK(&stream, 2);
    EXPECT_EQ(stream.expansions(), 10u);
  }
  {
    ConnectionStream stream(graph_.get(), smith, xml, 3);
    size_t count = 0;
    while (stream.Next()) ++count;
    EXPECT_EQ(count, 4u);
    EXPECT_EQ(stream.expansions(), 10u);
  }
}

TEST_F(TopkTest, BidirectionalFindsInteriorSourceConnections) {
  auto xml = Nodes({"d1", "d2", "p1", "p2"});
  auto smith = Nodes({"e1", "e2"});
  // One-directional smith -> xml stops at the first XML tuple and misses
  // connections whose interior holds an XML tuple (the paper's connection
  // 3, p1 - d1 - e1): only 4 of the 7 arrive.
  ConnectionStream one_way(graph_.get(), smith, xml, 3);
  size_t one_way_count = 0;
  while (one_way.Next()) ++one_way_count;
  EXPECT_EQ(one_way_count, 4u);

  // The bidirectional stream recovers all 7, still in nondecreasing
  // length order, regardless of which side is labelled first.
  for (bool flip : {false, true}) {
    ConnectionStream stream = ConnectionStream::Bidirectional(
        graph_.get(), flip ? smith : xml, flip ? xml : smith, 3);
    size_t previous = 0;
    size_t count = 0;
    while (auto connection = stream.Next()) {
      EXPECT_GE(connection->RdbLength(), previous);
      previous = connection->RdbLength();
      ++count;
    }
    EXPECT_EQ(count, 7u) << "flip=" << flip;
  }
}

TEST_F(TopkTest, BidirectionalDeduplicatesAcrossLanes) {
  auto xml = Nodes({"d1", "d2", "p1", "p2"});
  auto smith = Nodes({"e1", "e2"});
  ConnectionStream stream =
      ConnectionStream::Bidirectional(graph_.get(), xml, smith, 3);
  std::vector<Connection> streamed;
  while (auto connection = stream.Next()) {
    streamed.push_back(std::move(*connection));
  }
  // No two emitted connections are the same undirected path.
  for (size_t i = 0; i < streamed.size(); ++i) {
    for (size_t j = i + 1; j < streamed.size(); ++j) {
      EXPECT_FALSE(streamed[i].SamePathUndirected(streamed[j]));
    }
  }
}

TEST_F(TopkTest, BidirectionalSharedTupleEmittedOnce) {
  // d1 sits on both sides: both lanes discover the zero-length answer,
  // the dedup set emits it once.
  ConnectionStream stream = ConnectionStream::Bidirectional(
      graph_.get(), Nodes({"d1", "e1"}), Nodes({"d1"}), 3);
  size_t zero_length = 0;
  while (auto connection = stream.Next()) {
    if (connection->RdbLength() == 0) ++zero_length;
  }
  EXPECT_EQ(zero_length, 1u);
}

TEST_F(TopkTest, StopLengthPausesAndResumes) {
  auto xml = Nodes({"d1", "d2", "p1", "p2"});
  auto smith = Nodes({"e1", "e2"});
  ConnectionStream stream(graph_.get(), xml, smith, 3);
  // No connection is shorter than one edge: a stop bound of 1 yields
  // nothing but leaves the queue intact.
  EXPECT_FALSE(stream.Next(1).has_value());
  ASSERT_TRUE(stream.PendingLength().has_value());
  EXPECT_GE(*stream.PendingLength(), 1u);
  // Raising the bound resumes: exactly the two length-1 connections.
  size_t short_count = 0;
  while (stream.Next(2)) ++short_count;
  EXPECT_EQ(short_count, 2u);
  // Unbounded finishes the drain; the total matches the one-shot run.
  size_t rest = 0;
  while (stream.Next()) ++rest;
  EXPECT_EQ(short_count + rest, 7u);
}

TEST_F(TopkTest, PendingLengthIsMonotone) {
  ConnectionStream stream = ConnectionStream::Bidirectional(
      graph_.get(), Nodes({"d1", "d2", "p1", "p2"}), Nodes({"e1", "e2"}), 3);
  size_t previous = 0;
  while (stream.PendingLength().has_value()) {
    size_t pending = *stream.PendingLength();
    EXPECT_GE(pending, previous);
    previous = pending;
    if (!stream.Next().has_value()) break;
  }
}

TEST(TopkSyntheticTest, ScalesAndStaysOrdered) {
  CompanyGenOptions options;
  options.num_departments = 6;
  options.employees_per_department = 8;
  auto dataset = GenerateCompanyDataset(options);
  ASSERT_TRUE(dataset.ok());
  DataGraph graph(dataset->db.get());
  InvertedIndex index(dataset->db.get());
  auto matches = MatchKeywords(
      index, ParseKeywordQuery("research xml", index.tokenizer()));
  if (!AllKeywordsMatched(matches)) GTEST_SKIP();
  std::vector<uint32_t> sources, targets;
  for (const TupleMatch& m : matches[0].matches) {
    sources.push_back(graph.NodeOf(m.tuple));
  }
  for (const TupleMatch& m : matches[1].matches) {
    targets.push_back(graph.NodeOf(m.tuple));
  }
  ConnectionStream stream(&graph, sources, targets, 3);
  size_t previous = 0;
  size_t count = 0;
  while (auto connection = stream.Next()) {
    EXPECT_GE(connection->RdbLength(), previous);
    previous = connection->RdbLength();
    if (++count > 5000) break;  // safety bound
  }
  EXPECT_GT(count, 0u);
}

TEST_F(TopkTest, MatchesReferenceStreamOnPaperInstance) {
  auto xml = Nodes({"d1", "d2", "p1", "p2"});
  auto smith = Nodes({"e1", "e2"});
  ExpectMatchesReferenceEverywhere(*graph_, xml, smith, 1000);
  ExpectMatchesReferenceEverywhere(*graph_, smith, xml, 1000);
  // Shared and duplicated endpoints: zero-length answers, lane dedup.
  ExpectMatchesReferenceEverywhere(*graph_, Nodes({"d1", "e1", "d1"}),
                                   Nodes({"d1", "p1"}), 1000);
}

TEST(TopkReferenceTest, MatchesReferenceStreamOnGeneratedCompany) {
  for (size_t scale : {1, 10}) {
    auto dataset = GenerateCompanyDataset(CompanyGenOptions::AtScale(scale));
    ASSERT_TRUE(dataset.ok());
    DataGraph graph(dataset->db.get());
    InvertedIndex index(dataset->db.get());
    for (const char* query :
         {"smith xml", "kim ranking", "chen databases", "xml databases"}) {
      SCOPED_TRACE(::testing::Message()
                   << "scale=" << scale << " query=" << query);
      auto matches =
          MatchKeywords(index, ParseKeywordQuery(query, index.tokenizer()));
      ASSERT_TRUE(AllKeywordsMatched(matches));
      std::vector<std::vector<uint32_t>> sides(2);
      for (size_t side = 0; side < 2; ++side) {
        for (const TupleMatch& m : matches[side].matches) {
          sides[side].push_back(graph.NodeOf(m.tuple));
        }
      }
      // Past a few hundred answers the comparison only repeats itself.
      ExpectMatchesReferenceEverywhere(graph, sides[0], sides[1], 300);
    }
  }
}

}  // namespace
}  // namespace claks
