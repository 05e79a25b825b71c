// Copyright 2026 The claks Authors.
//
// Per-query stage profiling: QueryProfile is the result (attached to
// SearchResult / CursorStats behind SearchOptions::profile), and
// QueryProfiler is the accumulator the engine and cursors feed while the
// query runs.
//
// Stage model. The stages are non-overlapping scopes of the query
// lifecycle —
//   validate  option validation (QuerySpec::Create)
//   match     tokenize + keyword match + AND/OR resolution (Prepare)
//   plan      cursor open (streaming) — the work between Prepare and
//             the first possible pull
//   stream    candidate generation: pulling the connection stream +
//             settle bookkeeping, and the materialized methods'
//             enumeration
//   analyze   per-candidate analysis
//   rank      survivor ordering / rank-group-truncate
//   fetch     page assembly and hit copy-out
// — so StageSum() approximates total_ns, the wall time actually spent
// inside API calls (Prepare + Open + every Next). That is the contract
// the acceptance check exercises: stages sum to within 10% of measured
// wall time.
//
// Thread model: one QueryProfiler belongs to one cursor (single
// consumer), so its accumulators are plain integers.

#ifndef CLAKS_OBSERVABILITY_PROFILE_H_
#define CLAKS_OBSERVABILITY_PROFILE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

namespace claks {

/// The per-query profile surfaced to callers. All times nanoseconds.
struct QueryProfile {
  uint64_t validate_ns = 0;
  uint64_t match_ns = 0;
  uint64_t plan_ns = 0;
  uint64_t stream_ns = 0;
  uint64_t analyze_ns = 0;
  uint64_t rank_ns = 0;
  uint64_t fetch_ns = 0;
  /// Wall time spent inside API calls (Prepare + Open + every Next) —
  /// the denominator of the stage-sum contract.
  uint64_t total_ns = 0;

  /// Candidate trees passed to AnalyzeTree. Far below the result space
  /// when the query settled early.
  size_t analyzed = 0;

  /// Work counters at snapshot time.
  size_t expansions = 0;
  size_t hits = 0;

  /// Sum of the non-overlapping stages; ~= total_ns.
  uint64_t StageSum() const {
    return validate_ns + match_ns + plan_ns + stream_ns + analyze_ns +
           rank_ns + fetch_ns;
  }

  /// One-line machine-parseable key=value summary (slow-query log
  /// lines; values in fractional milliseconds).
  std::string Summary() const;

  /// Multi-line human-readable rendering (claks_cli --profile).
  std::string ToString() const;
};

/// Accumulator feeding a QueryProfile. Owned by one cursor; null
/// pointers short-circuit everywhere (profiling off costs one branch).
class QueryProfiler {
 public:
  enum class Stage {
    kValidate,
    kMatch,
    kPlan,
    kStream,
    kAnalyze,
    kRank,
    kFetch,
    kTotal,
  };

  using Clock = std::chrono::steady_clock;

  QueryProfiler() = default;
  QueryProfiler(const QueryProfiler&) = delete;
  QueryProfiler& operator=(const QueryProfiler&) = delete;

  /// Adds `ns` to a stage.
  void Add(Stage stage, uint64_t ns) {
    switch (stage) {
      case Stage::kValidate:
        validate_ns_ += ns;
        break;
      case Stage::kMatch:
        match_ns_ += ns;
        break;
      case Stage::kPlan:
        plan_ns_ += ns;
        break;
      case Stage::kStream:
        stream_ns_ += ns;
        break;
      case Stage::kAnalyze:
        analyze_ns_ += ns;
        break;
      case Stage::kRank:
        rank_ns_ += ns;
        break;
      case Stage::kFetch:
        fetch_ns_ += ns;
        break;
      case Stage::kTotal:
        total_ns_ += ns;
        break;
    }
  }

  /// Counts `n` AnalyzeTree calls.
  void AddAnalyzed(size_t n) { analyzed_ += n; }

  /// RAII stage timer; a null profiler makes it free.
  class ScopedTimer {
   public:
    ScopedTimer(QueryProfiler* profiler, Stage stage)
        : profiler_(profiler),
          stage_(stage),
          start_(profiler != nullptr ? Clock::now()
                                     : Clock::time_point()) {}
    ~ScopedTimer() {
      if (profiler_ == nullptr) return;
      profiler_->Add(stage_,
                     static_cast<uint64_t>(
                         std::chrono::duration_cast<std::chrono::nanoseconds>(
                             Clock::now() - start_)
                             .count()));
    }

    ScopedTimer(const ScopedTimer&) = delete;
    ScopedTimer& operator=(const ScopedTimer&) = delete;

   private:
    QueryProfiler* profiler_;
    Stage stage_;
    Clock::time_point start_;
  };

  /// Point-in-time profile. `expansions`/`hits` are passed by the cursor
  /// (it owns those counters).
  QueryProfile Snapshot(size_t expansions, size_t hits) const {
    QueryProfile profile;
    profile.validate_ns = validate_ns_;
    profile.match_ns = match_ns_;
    profile.plan_ns = plan_ns_;
    profile.stream_ns = stream_ns_;
    profile.analyze_ns = analyze_ns_;
    profile.rank_ns = rank_ns_;
    profile.fetch_ns = fetch_ns_;
    profile.total_ns = total_ns_;
    profile.analyzed = analyzed_;
    profile.expansions = expansions;
    profile.hits = hits;
    return profile;
  }

 private:
  uint64_t validate_ns_ = 0;
  uint64_t match_ns_ = 0;
  uint64_t plan_ns_ = 0;
  uint64_t stream_ns_ = 0;
  uint64_t analyze_ns_ = 0;
  uint64_t rank_ns_ = 0;
  uint64_t fetch_ns_ = 0;
  uint64_t total_ns_ = 0;
  size_t analyzed_ = 0;
};

}  // namespace claks

#endif  // CLAKS_OBSERVABILITY_PROFILE_H_
