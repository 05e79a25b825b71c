// Copyright 2026 The claks Authors.

#include "core/query_spec.h"

namespace claks {

const char* SearchMethodToString(SearchMethod method) {
  switch (method) {
    case SearchMethod::kEnumerate:
      return "enumerate";
    case SearchMethod::kMtjnt:
      return "mtjnt";
    case SearchMethod::kDiscover:
      return "discover";
    case SearchMethod::kBanks:
      return "banks";
    case SearchMethod::kStream:
      return "stream";
  }
  return "?";
}

std::optional<SearchMethod> SearchMethodFromString(const std::string& name) {
  static const SearchMethod kAll[] = {
      SearchMethod::kEnumerate, SearchMethod::kMtjnt,
      SearchMethod::kDiscover,  SearchMethod::kBanks,
      SearchMethod::kStream};
  for (SearchMethod method : kAll) {
    if (name == SearchMethodToString(method)) return method;
  }
  return std::nullopt;
}

const char* QuerySpecErrorToString(QuerySpecError error) {
  switch (error) {
    case QuerySpecError::kWitnessWithoutInstanceCheck:
      return "witness-without-instance-check";
    case QuerySpecError::kBanksOptionsOnNonBanksMethod:
      return "banks-options-on-non-banks-method";
    case QuerySpecError::kPerEndpointLimitWithBanks:
      return "per-endpoint-limit-with-banks";
    case QuerySpecError::kZeroMaxRdbEdges:
      return "zero-max-rdb-edges";
    case QuerySpecError::kZeroTmax:
      return "zero-tmax";
    case QuerySpecError::kStreamWithoutTopK:
      return "stream-without-top-k";
  }
  return "?";
}

std::vector<QuerySpecError> QuerySpec::Validate(
    const SearchOptions& options) {
  std::vector<QuerySpecError> errors;
  if (options.witness_edges > 0 && !options.instance_check) {
    errors.push_back(QuerySpecError::kWitnessWithoutInstanceCheck);
  }
  if (options.method != SearchMethod::kBanks) {
    const BanksOptions defaults;
    if (options.banks.top_k != defaults.top_k ||
        options.banks.weight_model != defaults.weight_model ||
        options.banks.max_distance != defaults.max_distance) {
      errors.push_back(QuerySpecError::kBanksOptionsOnNonBanksMethod);
    }
  }
  if (options.method == SearchMethod::kBanks &&
      options.per_endpoint_limit > 0) {
    errors.push_back(QuerySpecError::kPerEndpointLimitWithBanks);
  }
  if ((options.method == SearchMethod::kEnumerate ||
       options.method == SearchMethod::kStream) &&
      options.max_rdb_edges == 0) {
    errors.push_back(QuerySpecError::kZeroMaxRdbEdges);
  }
  if ((options.method == SearchMethod::kMtjnt ||
       options.method == SearchMethod::kDiscover) &&
      options.tmax == 0) {
    errors.push_back(QuerySpecError::kZeroTmax);
  }
  if (options.method == SearchMethod::kStream && options.top_k == 0) {
    errors.push_back(QuerySpecError::kStreamWithoutTopK);
  }
  return errors;
}

Result<QuerySpec> QuerySpec::Create(SearchOptions options) {
  std::vector<QuerySpecError> errors = Validate(options);
  if (!errors.empty()) {
    std::string message = "invalid query spec:";
    for (QuerySpecError error : errors) {
      message += ' ';
      message += QuerySpecErrorToString(error);
    }
    return Status::InvalidArgument(message);
  }
  return QuerySpec(std::move(options), /*validated=*/true);
}

QuerySpec QuerySpec::Unvalidated(SearchOptions options) {
  return QuerySpec(std::move(options), /*validated=*/false);
}

}  // namespace claks
