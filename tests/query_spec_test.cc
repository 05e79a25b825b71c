// Copyright 2026 The claks Authors.
//
// QuerySpec strict validation (one distinct QuerySpecError per nonsensical
// SearchOptions combination) and the enum <-> string round-trips the CLI
// parses flags with.

#include "core/query_spec.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ranking.h"

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

// ---------------------------------------------------------------------------
// String round-trips
// ---------------------------------------------------------------------------

TEST(SearchMethodStringsTest, RoundTripsEveryMethod) {
  for (SearchMethod method : kAllMethods) {
    std::string name = SearchMethodToString(method);
    auto parsed = SearchMethodFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, method) << name;
  }
}

TEST(SearchMethodStringsTest, RejectsUnknownNames) {
  EXPECT_FALSE(SearchMethodFromString("").has_value());
  EXPECT_FALSE(SearchMethodFromString("streaming").has_value());
  EXPECT_FALSE(SearchMethodFromString("Enumerate").has_value());
  EXPECT_FALSE(SearchMethodFromString("?").has_value());
}

TEST(RankerKindStringsTest, RoundTripsEveryRanker) {
  for (RankerKind kind : kAllRankers) {
    std::string name = RankerKindToString(kind);
    auto parsed = RankerKindFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind) << name;
  }
}

TEST(RankerKindStringsTest, RejectsUnknownNames) {
  EXPECT_FALSE(RankerKindFromString("").has_value());
  EXPECT_FALSE(RankerKindFromString("closefirst").has_value());
  EXPECT_FALSE(RankerKindFromString("rdb_length").has_value());
  EXPECT_FALSE(RankerKindFromString("?").has_value());
}

TEST(QuerySpecErrorStringsTest, EveryCodeHasADistinctName) {
  const QuerySpecError kAll[] = {
      QuerySpecError::kWitnessWithoutInstanceCheck,
      QuerySpecError::kBanksOptionsOnNonBanksMethod,
      QuerySpecError::kPerEndpointLimitWithBanks,
      QuerySpecError::kZeroMaxRdbEdges,
      QuerySpecError::kZeroTmax,
      QuerySpecError::kStreamWithoutTopK};
  std::vector<std::string> names;
  for (QuerySpecError error : kAll) {
    std::string name = QuerySpecErrorToString(error);
    EXPECT_NE(name, "?");
    for (const std::string& seen : names) EXPECT_NE(name, seen);
    names.push_back(std::move(name));
  }
}

// ---------------------------------------------------------------------------
// Validation: one test per error code
// ---------------------------------------------------------------------------

TEST(QuerySpecValidateTest, DefaultOptionsAreValid) {
  EXPECT_TRUE(QuerySpec::Validate(SearchOptions{}).empty());
}

TEST(QuerySpecValidateTest, WitnessWithoutInstanceCheck) {
  SearchOptions options;
  options.instance_check = false;
  options.witness_edges = 3;
  EXPECT_EQ(QuerySpec::Validate(options),
            std::vector<QuerySpecError>{
                QuerySpecError::kWitnessWithoutInstanceCheck});

  // The witness budget with the check on is meaningful.
  options.instance_check = true;
  EXPECT_TRUE(QuerySpec::Validate(options).empty());
  // And the check off without a budget is a plain "skip the check".
  options.instance_check = false;
  options.witness_edges = 0;
  EXPECT_TRUE(QuerySpec::Validate(options).empty());
}

TEST(QuerySpecValidateTest, BanksOptionsOnNonBanksMethod) {
  for (SearchMethod method : kAllMethods) {
    SearchOptions options;
    options.method = method;
    if (method == SearchMethod::kStream) options.top_k = 10;
    options.banks.max_distance = 9;  // any non-default banks knob
    std::vector<QuerySpecError> errors = QuerySpec::Validate(options);
    if (method == SearchMethod::kBanks) {
      EXPECT_TRUE(errors.empty()) << SearchMethodToString(method);
    } else {
      EXPECT_EQ(errors,
                std::vector<QuerySpecError>{
                    QuerySpecError::kBanksOptionsOnNonBanksMethod})
          << SearchMethodToString(method);
    }
  }
  // Each of the three knobs triggers it on its own.
  SearchOptions options;
  options.banks.top_k = 3;
  EXPECT_FALSE(QuerySpec::Validate(options).empty());
  options = SearchOptions{};
  options.banks.weight_model = BanksWeightModel::kDegreePenalized;
  EXPECT_FALSE(QuerySpec::Validate(options).empty());
}

TEST(QuerySpecValidateTest, PerEndpointLimitWithBanks) {
  SearchOptions options;
  options.method = SearchMethod::kBanks;
  options.per_endpoint_limit = 1;
  EXPECT_EQ(QuerySpec::Validate(options),
            std::vector<QuerySpecError>{
                QuerySpecError::kPerEndpointLimitWithBanks});
  // The limit is sound for the enumeration-flavoured methods.
  options.method = SearchMethod::kEnumerate;
  EXPECT_TRUE(QuerySpec::Validate(options).empty());
}

TEST(QuerySpecValidateTest, ZeroMaxRdbEdges) {
  for (SearchMethod method :
       {SearchMethod::kEnumerate, SearchMethod::kStream}) {
    SearchOptions options;
    options.method = method;
    if (method == SearchMethod::kStream) options.top_k = 10;
    options.max_rdb_edges = 0;
    EXPECT_EQ(QuerySpec::Validate(options),
              std::vector<QuerySpecError>{QuerySpecError::kZeroMaxRdbEdges})
        << SearchMethodToString(method);
  }
  // The bound is unused by the network-based methods.
  SearchOptions options;
  options.method = SearchMethod::kMtjnt;
  options.max_rdb_edges = 0;
  EXPECT_TRUE(QuerySpec::Validate(options).empty());
}

TEST(QuerySpecValidateTest, ZeroTmax) {
  for (SearchMethod method :
       {SearchMethod::kMtjnt, SearchMethod::kDiscover}) {
    SearchOptions options;
    options.method = method;
    options.tmax = 0;
    EXPECT_EQ(QuerySpec::Validate(options),
              std::vector<QuerySpecError>{QuerySpecError::kZeroTmax})
        << SearchMethodToString(method);
  }
  SearchOptions options;
  options.tmax = 0;  // kEnumerate ignores tmax
  EXPECT_TRUE(QuerySpec::Validate(options).empty());
}

TEST(QuerySpecValidateTest, StreamWithoutTopK) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 0;
  EXPECT_EQ(QuerySpec::Validate(options),
            std::vector<QuerySpecError>{QuerySpecError::kStreamWithoutTopK});
  options.top_k = 10;
  EXPECT_TRUE(QuerySpec::Validate(options).empty());
  // Unbounded consumption belongs to kEnumerate.
  options.method = SearchMethod::kEnumerate;
  options.top_k = 0;
  EXPECT_TRUE(QuerySpec::Validate(options).empty());
}

TEST(QuerySpecValidateTest, MultipleErrorsAccumulate) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 0;
  options.max_rdb_edges = 0;
  options.instance_check = false;
  options.witness_edges = 1;
  options.banks.top_k = 99;
  EXPECT_EQ(QuerySpec::Validate(options),
            (std::vector<QuerySpecError>{
                QuerySpecError::kWitnessWithoutInstanceCheck,
                QuerySpecError::kBanksOptionsOnNonBanksMethod,
                QuerySpecError::kZeroMaxRdbEdges,
                QuerySpecError::kStreamWithoutTopK}));
}

// ---------------------------------------------------------------------------
// QuerySpec construction
// ---------------------------------------------------------------------------

TEST(QuerySpecTest, CreateAcceptsValidOptions) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 5;
  auto spec = QuerySpec::Create(options);
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->validated());
  EXPECT_EQ(spec->options().method, SearchMethod::kStream);
  EXPECT_EQ(spec->options().top_k, 5u);
}

TEST(QuerySpecTest, CreateNamesEveryErrorCode) {
  SearchOptions options;
  options.method = SearchMethod::kBanks;
  options.per_endpoint_limit = 2;
  options.instance_check = false;
  options.witness_edges = 4;
  auto spec = QuerySpec::Create(options);
  ASSERT_FALSE(spec.ok());
  EXPECT_TRUE(spec.status().IsInvalidArgument());
  const std::string& message = spec.status().message();
  EXPECT_NE(message.find("witness-without-instance-check"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("per-endpoint-limit-with-banks"),
            std::string::npos)
      << message;
}

TEST(QuerySpecTest, UnvalidatedSkipsTheCheck) {
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 0;  // invalid under Create
  QuerySpec spec = QuerySpec::Unvalidated(options);
  EXPECT_FALSE(spec.validated());
  EXPECT_EQ(spec.options().method, SearchMethod::kStream);
}

}  // namespace
}  // namespace claks
