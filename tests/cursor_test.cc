// Copyright 2026 The claks Authors.
//
// ResultCursor equivalence and laziness. The contract under test: for
// every search method and every ranker, draining a cursor page by page —
// any page-size schedule — yields exactly the hit sequence of a single
// Search() call with the same options (Search itself being a thin wrapper
// over prepare + drain); and the two-keyword kStream cursor is genuinely
// lazy — fetching page 1 of a top-10 query at 100x scale performs strictly
// fewer stream expansions than draining the result space.

#include "core/cursor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query_spec.h"
#include "datasets/company_gen.h"
#include "datasets/company_paper.h"

namespace claks {
namespace {

const SearchMethod kAllMethods[] = {
    SearchMethod::kEnumerate, SearchMethod::kMtjnt, SearchMethod::kDiscover,
    SearchMethod::kBanks, SearchMethod::kStream};

const RankerKind kAllRankers[] = {
    RankerKind::kRdbLength,     RankerKind::kErLength,
    RankerKind::kCloseFirst,    RankerKind::kLoosePenalty,
    RankerKind::kInstanceClose, RankerKind::kCombined,
    RankerKind::kAmbiguity,     RankerKind::kMoreContext};

const RankerKind kMonotoneRankers[] = {
    RankerKind::kRdbLength,  RankerKind::kErLength,
    RankerKind::kCloseFirst, RankerKind::kLoosePenalty,
    RankerKind::kInstanceClose, RankerKind::kAmbiguity};

// Every rank-relevant field of one hit, byte-rendered.
std::string HitFingerprint(const SearchHit& hit) {
  std::string out = hit.rendered + "|";
  for (uint32_t node : hit.tree.nodes) out += std::to_string(node) + ".";
  out += "|";
  for (uint32_t e : hit.tree.edge_indices) out += std::to_string(e) + ".";
  out += "|" + std::to_string(hit.rdb_length) + "," +
         std::to_string(hit.er_length) + "," +
         std::to_string(static_cast<int>(hit.kind)) + "," +
         std::to_string(hit.hub_patterns) + "," +
         std::to_string(hit.nm_steps) + "," +
         (hit.schema_close ? "c" : "l") + "," +
         (hit.instance_close.has_value()
              ? (*hit.instance_close ? "i1" : "i0")
              : "i-") +
         "," + std::to_string(hit.text_score) + "," +
         std::to_string(hit.ambiguity) + "," +
         (hit.connection.has_value() ? "p" : "t");
  return out;
}

std::vector<std::string> Fingerprints(const std::vector<SearchHit>& hits) {
  std::vector<std::string> out;
  out.reserve(hits.size());
  for (const SearchHit& hit : hits) out.push_back(HitFingerprint(hit));
  return out;
}

// Drains `prepared` through a fresh cursor with pages of `page_size`,
// checking Drained/Stats bookkeeping along the way.
std::vector<SearchHit> DrainPages(const PreparedQuery& prepared,
                                  size_t page_size) {
  auto cursor = prepared.Open();
  EXPECT_TRUE(cursor.ok());
  std::vector<SearchHit> hits;
  while (!(*cursor)->Drained()) {
    auto page = (*cursor)->Next(page_size);
    EXPECT_TRUE(page.ok());
    if (page->empty()) break;
    for (SearchHit& hit : *page) hits.push_back(std::move(hit));
  }
  EXPECT_EQ((*cursor)->Stats().returned, hits.size());
  EXPECT_TRUE((*cursor)->Stats().drained);
  return hits;
}

class CursorTest : public ::testing::Test {
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

// The satellite matrix: every method x every ranker x page sizes 1, 3, 7
// on the paper dataset — cursor drains equal the Search hit sequence.
TEST_F(CursorTest, PageDrainMatchesSearchEveryMethodEveryRanker) {
  for (SearchMethod method : kAllMethods) {
    for (RankerKind ranker : kAllRankers) {
      SearchOptions options;
      options.method = method;
      options.ranker = ranker;
      options.max_rdb_edges = 3;
      // top_k = 0 exercises the unbounded legacy shape (Unvalidated spec:
      // strict validation rejects it for kStream by design).
      auto reference = engine_->Search("Smith XML", options);
      ASSERT_TRUE(reference.ok());
      std::vector<std::string> expected = Fingerprints(reference->hits);
      ASSERT_FALSE(expected.empty())
          << SearchMethodToString(method) << "/"
          << RankerKindToString(ranker);

      for (size_t page_size : {1u, 3u, 7u}) {
        auto prepared =
            engine_->Prepare("Smith XML", QuerySpec::Unvalidated(options));
        ASSERT_TRUE(prepared.ok());
        std::vector<SearchHit> drained = DrainPages(*prepared, page_size);
        EXPECT_EQ(Fingerprints(drained), expected)
            << SearchMethodToString(method) << "/"
            << RankerKindToString(ranker) << " page=" << page_size;
      }
    }
  }
}

// Search() is a thin wrapper over prepare + drain: assembling a
// SearchResult by hand from the prepared metadata and a cursor drain
// reproduces it byte for byte — including the expansions work metric.
TEST_F(CursorTest, SearchEqualsPrepareDrainByteForByte) {
  for (SearchMethod method : kAllMethods) {
    for (RankerKind ranker : kAllRankers) {
      SearchOptions options;
      options.method = method;
      options.ranker = ranker;
      options.max_rdb_edges = 3;
      options.top_k = 4;

      auto via_search = engine_->Search("Smith XML", options);
      ASSERT_TRUE(via_search.ok());

      auto prepared =
          engine_->Prepare("Smith XML", QuerySpec::Unvalidated(options));
      ASSERT_TRUE(prepared.ok());
      auto cursor = prepared->Open();
      ASSERT_TRUE(cursor.ok());
      SearchResult assembled;
      assembled.query = prepared->query();
      assembled.matches = prepared->matches();
      assembled.keyword_of = prepared->keyword_of();
      while (!(*cursor)->Drained()) {
        auto page = (*cursor)->Next(2);
        ASSERT_TRUE(page.ok());
        if (page->empty()) break;
        for (SearchHit& hit : *page) assembled.hits.push_back(std::move(hit));
      }
      assembled.expansions = (*cursor)->Stats().expansions;

      const std::string label = std::string(SearchMethodToString(method)) +
                                "/" + RankerKindToString(ranker);
      EXPECT_EQ(assembled.ToString(*dataset_.db, 99),
                via_search->ToString(*dataset_.db, 99))
          << label;
      EXPECT_EQ(Fingerprints(assembled.hits), Fingerprints(via_search->hits))
          << label;
      EXPECT_EQ(assembled.expansions, via_search->expansions) << label;
      EXPECT_EQ(assembled.keyword_of, via_search->keyword_of) << label;
    }
  }
}

// Strictly-prepared streaming cursors (top_k > 0) drained page-wise match
// the one-shot Search — same hits and the same total expansion work.
TEST_F(CursorTest, StreamPagedTopKMatchesOneShot) {
  for (RankerKind ranker : kMonotoneRankers) {
    for (size_t k : {1u, 2u, 4u, 7u}) {
      SearchOptions options;
      options.method = SearchMethod::kStream;
      options.ranker = ranker;
      options.max_rdb_edges = 3;
      options.top_k = k;
      auto one_shot = engine_->Search("Smith XML", options);
      ASSERT_TRUE(one_shot.ok());

      for (size_t page_size : {1u, 3u}) {
        auto prepared = engine_->Prepare("Smith XML", options);  // strict
        ASSERT_TRUE(prepared.ok());
        EXPECT_TRUE(prepared->spec().validated());
        auto cursor = prepared->Open();
        ASSERT_TRUE(cursor.ok());
        std::vector<SearchHit> hits;
        while (!(*cursor)->Drained()) {
          auto page = (*cursor)->Next(page_size);
          ASSERT_TRUE(page.ok());
          if (page->empty()) break;
          for (SearchHit& hit : *page) hits.push_back(std::move(hit));
        }
        EXPECT_EQ(Fingerprints(hits), Fingerprints(one_shot->hits))
            << RankerKindToString(ranker) << " k=" << k
            << " page=" << page_size;
        // Fully consumed, the paged pull has done exactly the one-shot
        // settle work (intermediate pages stopped earlier).
        EXPECT_EQ((*cursor)->Stats().expansions, one_shot->expansions)
            << RankerKindToString(ranker) << " k=" << k
            << " page=" << page_size;
      }
    }
  }
}

// Page-wise settling: the first page of a top-k streaming cursor settles
// only its own ranks, so its expansion count is below the one-shot top-k
// settle, which is below the full drain.
TEST_F(CursorTest, StreamFirstPageDoesLessWorkThanFullTopK) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.ranker = RankerKind::kRdbLength;
  options.max_rdb_edges = 3;
  options.top_k = 5;

  auto one_shot = engine_->Search("Smith XML", options);
  ASSERT_TRUE(one_shot.ok());

  SearchOptions drain_options = options;
  drain_options.top_k = 0;
  auto full = engine_->Search("Smith XML", drain_options);
  ASSERT_TRUE(full.ok());

  auto prepared = engine_->Prepare("Smith XML", options);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->Open();
  ASSERT_TRUE(cursor.ok());
  auto page1 = (*cursor)->Next(2);
  ASSERT_TRUE(page1.ok());
  EXPECT_EQ(page1->size(), 2u);
  size_t page1_expansions = (*cursor)->Stats().expansions;
  EXPECT_LT(page1_expansions, one_shot->expansions);
  EXPECT_LT(page1_expansions, full->expansions);
}

// Streaming cursors honour per_endpoint_limit incrementally: pages match
// the grouped Search sequence.
TEST_F(CursorTest, StreamPagedHonoursPerEndpointLimit) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.ranker = RankerKind::kRdbLength;
  options.max_rdb_edges = 3;
  options.per_endpoint_limit = 1;
  options.top_k = 3;
  auto reference = engine_->Search("Smith XML", options);
  ASSERT_TRUE(reference.ok());

  auto prepared = engine_->Prepare("Smith XML", options);
  ASSERT_TRUE(prepared.ok());
  std::vector<SearchHit> drained = DrainPages(*prepared, 1);
  EXPECT_EQ(Fingerprints(drained), Fingerprints(reference->hits));
}

// AND-semantics miss: the prepared query is born empty, its cursor born
// drained.
TEST_F(CursorTest, EmptyResultCursorIsBornDrained) {
  SearchOptions options;
  auto prepared =
      engine_->Prepare("Smith quantum", QuerySpec::Unvalidated(options));
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->empty_result());
  auto cursor = prepared->Open();
  ASSERT_TRUE(cursor.ok());
  EXPECT_TRUE((*cursor)->Drained());
  auto page = (*cursor)->Next(5);
  ASSERT_TRUE(page.ok());
  EXPECT_TRUE(page->empty());
  EXPECT_EQ((*cursor)->Stats().returned, 0u);
}

// Strict Prepare rejects what QuerySpec::Validate rejects; the legacy
// Search facade still accepts the same bag.
TEST_F(CursorTest, StrictPrepareRejectsInvalidSpecLegacySearchAccepts) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 0;
  options.max_rdb_edges = 3;
  auto prepared = engine_->Prepare("Smith XML", options);
  ASSERT_FALSE(prepared.ok());
  EXPECT_TRUE(prepared.status().IsInvalidArgument());
  EXPECT_NE(prepared.status().message().find("stream-without-top-k"),
            std::string::npos);
  auto legacy = engine_->Search("Smith XML", options);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(legacy->hits.size(), 7u);
}

// Keyword-count structural errors still surface at Prepare time (they
// depend on the query, not the spec).
TEST_F(CursorTest, PrepareRejectsTooManyKeywordsForPathMethods) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 5;
  auto prepared = engine_->Prepare("Smith XML Alice", options);
  ASSERT_FALSE(prepared.ok());
  EXPECT_TRUE(prepared.status().IsInvalidArgument());
}

// The work metric is populated uniformly: stream expansions for kStream,
// visited nodes for kBanks, 0 for the exhaustive methods.
TEST_F(CursorTest, WorkMetricPerMethod) {
  SearchOptions options;
  options.max_rdb_edges = 3;

  options.method = SearchMethod::kBanks;
  auto banks = engine_->Search("Smith XML", options);
  ASSERT_TRUE(banks.ok());
  EXPECT_GT(banks->expansions, 0u);

  options.method = SearchMethod::kStream;
  auto stream = engine_->Search("Smith XML", options);
  ASSERT_TRUE(stream.ok());
  EXPECT_GT(stream->expansions, 0u);

  for (SearchMethod method : {SearchMethod::kEnumerate, SearchMethod::kMtjnt,
                              SearchMethod::kDiscover}) {
    options.method = method;
    auto result = engine_->Search("Smith XML", options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->expansions, 0u) << SearchMethodToString(method);
  }
}

// The same matrix at 10x the paper instance: cursors page through larger
// result spaces without diverging from Search.
TEST(CursorScaleTest, PageDrainMatchesSearchAt10x) {
  auto generated = GenerateCompanyDataset(CompanyGenOptions::AtScale(10));
  ASSERT_TRUE(generated.ok());
  GeneratedDataset dataset = std::move(generated).ValueOrDie();
  auto engine_or = KeywordSearchEngine::Create(
      dataset.db.get(), dataset.er_schema, dataset.mapping);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).ValueOrDie();

  for (SearchMethod method : kAllMethods) {
    for (RankerKind ranker : kAllRankers) {
      SearchOptions options;
      options.method = method;
      options.ranker = ranker;
      options.max_rdb_edges = 3;
      options.top_k = 10;  // bounded: keeps 40 reference searches quick
      auto reference = engine->Search("smith xml", options);
      ASSERT_TRUE(reference.ok());
      std::vector<std::string> expected = Fingerprints(reference->hits);
      ASSERT_FALSE(expected.empty());

      for (size_t page_size : {1u, 3u, 7u}) {
        auto prepared =
            engine->Prepare("smith xml", QuerySpec::Unvalidated(options));
        ASSERT_TRUE(prepared.ok());
        std::vector<SearchHit> drained = DrainPages(*prepared, page_size);
        EXPECT_EQ(Fingerprints(drained), expected)
            << SearchMethodToString(method) << "/"
            << RankerKindToString(ranker) << " page=" << page_size;
      }
    }
  }
}

// The acceptance property: at 100x, fetching page 1 of a top-10 kStream
// query performs strictly fewer expansions than draining the space.
TEST(CursorScaleTest, StreamPageOneAt100xBeatsDraining) {
  auto generated = GenerateCompanyDataset(CompanyGenOptions::AtScale(100));
  ASSERT_TRUE(generated.ok());
  GeneratedDataset dataset = std::move(generated).ValueOrDie();
  auto engine_or = KeywordSearchEngine::Create(
      dataset.db.get(), dataset.er_schema, dataset.mapping);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).ValueOrDie();

  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.ranker = RankerKind::kCloseFirst;
  options.max_rdb_edges = 3;
  options.top_k = 0;
  auto drain = engine->Search("smith xml", options);
  ASSERT_TRUE(drain.ok());
  ASSERT_GT(drain->hits.size(), 10u);

  options.top_k = 10;
  auto one_shot = engine->Search("smith xml", options);
  ASSERT_TRUE(one_shot.ok());

  auto prepared = engine->Prepare("smith xml", options);
  ASSERT_TRUE(prepared.ok());
  auto cursor = prepared->Open();
  ASSERT_TRUE(cursor.ok());
  auto page1 = (*cursor)->Next(3);
  ASSERT_TRUE(page1.ok());
  ASSERT_EQ(page1->size(), 3u);
  size_t page1_expansions = (*cursor)->Stats().expansions;

  // Genuinely lazy: page 1 < settling all of top-10 < the full drain.
  EXPECT_LT(page1_expansions, one_shot->expansions);
  EXPECT_LT(one_shot->expansions, drain->expansions);
  EXPECT_LT(page1_expansions, drain->expansions);

  // The page itself is the true top-3 prefix.
  std::vector<std::string> top10 = Fingerprints(one_shot->hits);
  EXPECT_EQ(Fingerprints(*page1),
            std::vector<std::string>(top10.begin(), top10.begin() + 3));
}

// One-keyword kStream/kEnumerate settles after top_k single-node hits
// under a length-monotone ranker: every hit sits at the length-0 key
// floor, so the first top_k matches in TupleId order are the answer. The
// top-k hits must equal the top_k == 0 drain's prefix byte for byte, and
// the profile must show that only min(top_k, n) trees were analyzed
// (all n for the kNone rankers).
TEST(CursorScaleTest, OneKeywordTopKSettlesAfterKHits) {
  auto generated = GenerateCompanyDataset(CompanyGenOptions::AtScale(10));
  ASSERT_TRUE(generated.ok());
  GeneratedDataset dataset = std::move(generated).ValueOrDie();
  auto engine_or = KeywordSearchEngine::Create(
      dataset.db.get(), dataset.er_schema, dataset.mapping);
  ASSERT_TRUE(engine_or.ok());
  auto engine = std::move(engine_or).ValueOrDie();

  for (SearchMethod method :
       {SearchMethod::kStream, SearchMethod::kEnumerate}) {
    for (RankerKind ranker : kAllRankers) {
      const bool monotone =
          RankerMonotonicity(ranker) != RankMonotonicity::kNone;
      for (size_t per_endpoint_limit : {0u, 1u}) {
        for (bool instance_check : {false, true}) {
          SearchOptions options;
          options.method = method;
          options.ranker = ranker;
          options.per_endpoint_limit = per_endpoint_limit;
          options.instance_check = instance_check;
          options.profile = true;
          options.top_k = 0;
          auto drain = engine->Search("smith", options);
          ASSERT_TRUE(drain.ok());
          const size_t n = drain->matches[0].matches.size();
          ASSERT_GT(n, 10u);
          std::vector<std::string> expected = Fingerprints(drain->hits);
          ASSERT_EQ(expected.size(), n);
          ASSERT_EQ(drain->profile->analyzed, n);

          for (size_t top_k : {size_t{1}, size_t{10}, n + 5}) {
            std::string where =
                std::string(SearchMethodToString(method)) + "/" +
                RankerKindToString(ranker) +
                " pel=" + std::to_string(per_endpoint_limit) +
                " ic=" + std::to_string(instance_check) +
                " top_k=" + std::to_string(top_k);
            options.top_k = top_k;
            auto top = engine->Search("smith", options);
            ASSERT_TRUE(top.ok()) << where;
            const size_t kept = std::min(top_k, n);
            EXPECT_EQ(Fingerprints(top->hits),
                      std::vector<std::string>(expected.begin(),
                                               expected.begin() + kept))
                << where;
            ASSERT_TRUE(top->profile.has_value()) << where;
            EXPECT_EQ(top->profile->analyzed, monotone ? kept : n) << where;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace claks
