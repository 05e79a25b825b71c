// Copyright 2026 The claks Authors.

#include "observability/profile.h"

#include "common/string_util.h"

namespace claks {

namespace {

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace

std::string QueryProfile::Summary() const {
  // key=value pairs, no spaces inside a pair: one grep/cut-friendly
  // token per field (the slow-query log line format).
  return StrFormat(
      "total_ms=%.3f validate_ms=%.3f match_ms=%.3f plan_ms=%.3f "
      "stream_ms=%.3f analyze_ms=%.3f rank_ms=%.3f fetch_ms=%.3f "
      "expansions=%zu analyzed=%zu hits=%zu",
      Ms(total_ns), Ms(validate_ns), Ms(match_ns), Ms(plan_ns),
      Ms(stream_ns), Ms(analyze_ns), Ms(rank_ns), Ms(fetch_ns), expansions,
      analyzed, hits);
}

std::string QueryProfile::ToString() const {
  const uint64_t sum = StageSum();
  auto line = [&](const char* stage, uint64_t ns) {
    double share = sum > 0 ? 100.0 * static_cast<double>(ns) /
                                 static_cast<double>(sum)
                           : 0.0;
    return StrFormat("  %-9s %10.3f ms  %5.1f%%\n", stage, Ms(ns), share);
  };
  std::string out = "query profile\n";
  out += line("validate", validate_ns);
  out += line("match", match_ns);
  out += line("plan", plan_ns);
  out += line("stream", stream_ns);
  out += line("analyze", analyze_ns);
  out += line("rank", rank_ns);
  out += line("fetch", fetch_ns);
  out += StrFormat("  %-9s %10.3f ms  (wall %0.3f ms)\n", "stages",
                   Ms(sum), Ms(total_ns));
  out += StrFormat("  expansions: %zu   analyzed: %zu   hits: %zu\n",
                   expansions, analyzed, hits);
  return out;
}

}  // namespace claks
