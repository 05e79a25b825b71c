// Copyright 2026 The claks Authors.

#include "core/cursor.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "core/topk.h"
#include "observability/trace.h"

namespace claks {

std::vector<uint64_t> EndpointGroupKey(
    const SearchHit& hit, const DataGraph& graph,
    const std::map<TupleId, std::string>& keyword_of) {
  if (hit.connection.has_value()) {
    uint64_t a = hit.connection->front().Pack();
    uint64_t b = hit.connection->back().Pack();
    if (a > b) std::swap(a, b);
    return {a, b};
  }
  std::vector<uint64_t> key;
  for (uint32_t node : hit.tree.nodes) {
    TupleId tuple = graph.TupleOf(node);
    if (keyword_of.count(tuple) > 0) key.push_back(tuple.Pack());
  }
  if (key.empty()) {
    // Defensive: a tree with no labelled keyword tuple groups by its full
    // node set (exact repeats only).
    for (uint32_t node : hit.tree.nodes) {
      key.push_back(graph.TupleOf(node).Pack());
    }
  }
  std::sort(key.begin(), key.end());
  return key;
}

TupleTree CanonicalTree(const NodePath& path) {
  TupleTree tree;
  tree.nodes = path.Nodes();
  std::sort(tree.nodes.begin(), tree.nodes.end());
  for (const DataAdjacency& step : path.steps) {
    tree.edge_indices.push_back(step.edge_index);
  }
  std::sort(tree.edge_indices.begin(), tree.edge_indices.end());
  return tree;
}

namespace {

// Callers pass arbitrary page sizes; additions on consumption offsets
// must saturate instead of wrapping (a wrapped target would rewind or
// stall a cursor).
size_t SaturatingAdd(size_t a, size_t b) {
  size_t sum = a + b;
  return sum < a ? static_cast<size_t>(-1) : sum;
}

uint64_t ElapsedNs(QueryProfiler::Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          QueryProfiler::Clock::now() - start)
          .count());
}

/// Seeds a fresh profiler with the prepare-phase timings the engine
/// recorded on the PreparedQuery (they happened before any cursor
/// existed, so the cursor's own timers never see them).
std::unique_ptr<QueryProfiler> MakeProfiler(const PreparedQuery& prepared) {
  if (!prepared.options().profile) return nullptr;
  auto profiler = std::make_unique<QueryProfiler>();
  profiler->Add(QueryProfiler::Stage::kValidate, prepared.validate_ns());
  profiler->Add(QueryProfiler::Stage::kMatch, prepared.match_ns());
  profiler->Add(QueryProfiler::Stage::kTotal,
                prepared.validate_ns() + prepared.match_ns());
  return profiler;
}

/// Serves pages by slicing a fully ranked hit buffer — the cursor shape of
/// every method whose algorithm materializes its answer set anyway
/// (kEnumerate/kMtjnt/kDiscover/kBanks, one-keyword kStream, and empty
/// AND-miss results).
class MaterializedCursor : public ResultCursor {
 public:
  MaterializedCursor(std::vector<SearchHit> hits, size_t work,
                     std::unique_ptr<QueryProfiler> profiler)
      : hits_(std::move(hits)),
        work_(work),
        profiler_(std::move(profiler)) {}

  Result<std::vector<SearchHit>> Next(size_t n) override {
    // kTotal and kFetch deliberately cover the same scope: for a
    // materialized cursor a page is pure copy-out, and kTotal is the
    // wall-time denominator, not a stage.
    QueryProfiler::ScopedTimer total(profiler_.get(),
                                     QueryProfiler::Stage::kTotal);
    QueryProfiler::ScopedTimer fetch(profiler_.get(),
                                     QueryProfiler::Stage::kFetch);
    TraceSpan span("page-fetch");
    std::vector<SearchHit> page;
    size_t end = std::min(hits_.size(), SaturatingAdd(offset_, n));
    page.reserve(end - offset_);
    for (; offset_ < end; ++offset_) {
      page.push_back(std::move(hits_[offset_]));
    }
    return page;
  }

  bool Drained() const override { return offset_ >= hits_.size(); }

  CursorStats Stats() const override {
    CursorStats stats;
    stats.returned = offset_;
    stats.expansions = work_;
    stats.drained = Drained();
    if (profiler_ != nullptr) {
      stats.profile = profiler_->Snapshot(work_, offset_);
    }
    return stats;
  }

 private:
  std::vector<SearchHit> hits_;
  size_t work_;
  std::unique_ptr<QueryProfiler> profiler_;
  size_t offset_ = 0;
};

// The settled-k predicate of the streaming search, page-wise: the smallest
// RDB length L such that no future connection (every one has length >= L,
// by stream order) can rank strictly better than the current provisional
// top-`k`. The provisional top-k is computed over the collected candidates
// after the per-endpoint cap, so grouping is honoured incrementally.
// Returns ConnectionStream::kNoStopLength while the top-k is not yet
// settled; `bar` receives the k-th surviving key when one exists (the
// caller skips the recompute for arrivals that cannot lower it).
//
// Why a settled prefix is final: future arrivals carry keys >= `bar`, so a
// stable sort keeps them behind every current survivor at ranks < k, and
// grouping only ever drops later (worse-or-equal) group members — the
// first k survivors can never change. This is what lets a cursor emit a
// page and then keep pulling for the next one.
size_t SettleLength(const std::vector<std::vector<double>>& keys,
                    const std::vector<std::vector<uint64_t>>& groups,
                    size_t k, const SearchOptions& options,
                    std::vector<double>* bar) {
  bar->clear();
  if (k == 0 || keys.size() < k) return ConnectionStream::kNoStopLength;
  // Provisional ranking: stable order on keys (arrival order breaks ties,
  // matching the final stable sort over the same arrival order).
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return keys[a] < keys[b];
  });
  // The k-th surviving key is the bar a future connection would have to
  // beat; a future arrival never evicts a survivor because grouping keeps
  // each group's best and future keys are no better than the bar.
  std::map<std::vector<uint64_t>, size_t> group_counts;
  const std::vector<double>* kth = nullptr;
  size_t survivors = 0;
  for (size_t idx : order) {
    if (options.per_endpoint_limit != 0) {
      size_t& count = group_counts[groups[idx]];
      if (count >= options.per_endpoint_limit) continue;
      ++count;
    }
    if (++survivors == k) {
      kth = &keys[idx];
      break;
    }
  }
  if (kth == nullptr) return ConnectionStream::kNoStopLength;
  *bar = *kth;
  // MinSortKeyAtLength is nondecreasing in length, so the first length
  // whose bound reaches the bar is the stop bound. Beyond max_rdb_edges
  // the stream is exhausted anyway.
  for (size_t length = 0; length <= options.max_rdb_edges; ++length) {
    if (!(MinSortKeyAtLength(options.ranker, length) < *kth)) return length;
  }
  return ConnectionStream::kNoStopLength;
}

/// The genuinely lazy cursor behind two-keyword SearchMethod::kStream:
/// owns the bidirectional ConnectionStream and pulls, analyses and settles
/// candidates only as pages are requested. Next(n) runs the settled-k
/// predicate with k = returned-so-far + n, so the expansion work grows
/// with consumption, not with the query's top_k.
class StreamingCursor : public ResultCursor {
 public:
  explicit StreamingCursor(const PreparedQuery* prepared)
      : prepared_(prepared),
        engine_(&prepared->engine()),
        options_(prepared->options()),
        ranker_(MakeRanker(options_.ranker)),
        monotone_(RankerMonotonicity(options_.ranker) !=
                  RankMonotonicity::kNone),
        profiler_(MakeProfiler(*prepared)) {
    CLAKS_CHECK(ranker_ != nullptr);
    // Construction is the plan stage: stream setup happens here, before
    // the first possible pull.
    QueryProfiler::ScopedTimer total(profiler_.get(),
                                     QueryProfiler::Stage::kTotal);
    QueryProfiler::ScopedTimer plan(profiler_.get(),
                                    QueryProfiler::Stage::kPlan);
    TraceSpan span("stream-open");
    stream_.emplace(ConnectionStream::Bidirectional(
        &engine_->data_graph(), MatchNodes(prepared, 0),
        MatchNodes(prepared, 1), options_.max_rdb_edges));
    if (!monotone_ && options_.top_k != 0) {
      CLAKS_LOG(Warning)
          << "kStream: ranker '" << RankerKindToString(options_.ranker)
          << "' has no length-monotone sort key; draining the full result "
             "space before ranking";
    }
  }

  Result<std::vector<SearchHit>> Next(size_t n) override {
    QueryProfiler::ScopedTimer total(profiler_.get(),
                                     QueryProfiler::Stage::kTotal);
    std::vector<SearchHit> page;
    if (n == 0 || finished_) return page;
    size_t want = SaturatingAdd(emitted_, n);
    if (options_.top_k != 0 && want > options_.top_k) {
      want = options_.top_k;
    }
    if (want > emitted_) {
      CLAKS_RETURN_NOT_OK(EnsureDecided(want));
      const std::vector<size_t>& order = SurvivorOrder();
      QueryProfiler::ScopedTimer fetch(profiler_.get(),
                                       QueryProfiler::Stage::kFetch);
      TraceSpan fetch_span("page-fetch");
      size_t end = std::min(want, order.size());
      page.reserve(end > emitted_ ? end - emitted_ : 0);
      for (size_t i = emitted_; i < end; ++i) {
        // Each rank position is emitted exactly once and the buffer slot
        // is never read again (ordering reads keys_/groups_ only), so the
        // hit moves out instead of copying.
        page.push_back(std::move(hits_[order[i]]));
      }
      emitted_ = std::max(emitted_, end);
      if (exhausted_ && emitted_ >= order.size()) finished_ = true;
    }
    if (options_.top_k != 0 && emitted_ >= options_.top_k) {
      finished_ = true;
    }
    return page;
  }

  bool Drained() const override { return finished_; }

  CursorStats Stats() const override {
    CursorStats stats;
    stats.returned = emitted_;
    stats.expansions = stream_->expansions();
    stats.drained = finished_;
    if (profiler_ != nullptr) {
      stats.profile = profiler_->Snapshot(stats.expansions, stats.returned);
    }
    return stats;
  }

 private:
  static std::vector<uint32_t> MatchNodes(const PreparedQuery* prepared,
                                          size_t keyword) {
    const DataGraph& graph = prepared->engine().data_graph();
    std::vector<uint32_t> nodes;
    for (const TupleMatch& m : prepared->matches()[keyword].matches) {
      nodes.push_back(graph.NodeOf(m.tuple));
    }
    return nodes;
  }

  /// Pulls (and analyses) stream candidates until the first `want` rank
  /// positions are provably final — or the stream is exhausted. `want`
  /// only ever grows across calls, so the stream resumes where the
  /// previous page left it.
  Status EnsureDecided(size_t want) {
    if (exhausted_) return Status::OK();
    if (!monotone_ || options_.top_k == 0) {
      // No usable length bound (kNone ranker), or an unbounded drain
      // (top_k == 0, only reachable through the legacy unvalidated
      // facade): every hit is needed anyway, so skip the per-arrival
      // settle bookkeeping and pull the full result space once — exactly
      // what the legacy streaming search did.
      return Pull(/*want=*/0, /*settle=*/false);
    }
    return Pull(want, /*settle=*/true);
  }

  /// Timing shell around the pull loop: the stream stage is everything
  /// the loop does (pulling from the stream, settle bookkeeping) MINUS
  /// the analysis time, which PullLoop accumulates separately —
  /// subtracting instead of nesting keeps the two stages disjoint with
  /// no untimed gap, so the profile's stage-sum contract holds.
  Status Pull(size_t want, bool settle) {
    if (profiler_ == nullptr) return PullLoop(want, settle);
    auto start = QueryProfiler::Clock::now();
    analyze_ns_ = 0;
    Status status = PullLoop(want, settle);
    uint64_t elapsed = ElapsedNs(start);
    uint64_t analyze = std::min(analyze_ns_, elapsed);
    profiler_->Add(QueryProfiler::Stage::kAnalyze, analyze);
    profiler_->Add(QueryProfiler::Stage::kStream, elapsed - analyze);
    return status;
  }

  Status PullLoop(size_t want, bool settle) {
    TraceSpan stream_span("stream");
    std::vector<double> bar;
    size_t stop = settle
                      ? SettleLength(keys_, groups_, want, options_, &bar)
                      : ConnectionStream::kNoStopLength;
    while (true) {
      std::optional<NodePath> path = stream_->NextPath(stop);
      if (!path.has_value()) {
        if (!stream_->PendingLength().has_value()) exhausted_ = true;
        return Status::OK();
      }
      SearchHit hit;
      {
        auto analyze_start = profiler_ != nullptr
                                 ? QueryProfiler::Clock::now()
                                 : QueryProfiler::Clock::time_point();
        TraceSpan analyze_span("analyze");
        CLAKS_ASSIGN_OR_RETURN(
            hit,
            engine_->AnalyzeTree(CanonicalTree(*path), prepared_->matches(),
                                 prepared_->keyword_of(), options_));
        if (profiler_ != nullptr) {
          analyze_ns_ += ElapsedNs(analyze_start);
          profiler_->AddAnalyzed(1);
        }
      }
      std::vector<double> key = ranker_->SortKey(hit.ToRankInput());
      // An arrival that does not beat the current bar sorts after the
      // first `want` survivors and cannot lower it — skip the recompute.
      bool recompute = settle && (bar.empty() || key < bar);
      keys_.push_back(std::move(key));
      groups_.push_back(options_.per_endpoint_limit != 0
                            ? EndpointGroupKey(hit, engine_->data_graph(),
                                               prepared_->keyword_of())
                            : std::vector<uint64_t>());
      hits_.push_back(std::move(hit));
      order_dirty_ = true;
      if (recompute) {
        TraceSpan settle_span("settle");
        stop = SettleLength(keys_, groups_, want, options_, &bar);
      }
    }
  }

  /// Indices into hits_ of the grouped survivors, in final rank order
  /// (stable sort over arrival order — identical to the engine's
  /// rank/group tail). The emitted prefix of this order is immutable once
  /// settled, so recomputing after new arrivals never changes handed-out
  /// pages; the result is cached until the next arrival so back-to-back
  /// pages over an unchanged buffer pay the sort once.
  const std::vector<size_t>& SurvivorOrder() {
    if (!order_dirty_) return cached_order_;
    QueryProfiler::ScopedTimer rank(profiler_.get(),
                                    QueryProfiler::Stage::kRank);
    TraceSpan span("rank");
    std::vector<size_t> order(hits_.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return keys_[a] < keys_[b];
    });
    if (options_.per_endpoint_limit != 0) {
      std::map<std::vector<uint64_t>, size_t> group_counts;
      std::vector<size_t> survivors;
      survivors.reserve(order.size());
      for (size_t idx : order) {
        if (++group_counts[groups_[idx]] <= options_.per_endpoint_limit) {
          survivors.push_back(idx);
        }
      }
      order = std::move(survivors);
    }
    cached_order_ = std::move(order);
    order_dirty_ = false;
    return cached_order_;
  }

  const PreparedQuery* prepared_;
  const KeywordSearchEngine* engine_;
  const SearchOptions options_;
  /// Set in the constructor; optional only because ConnectionStream has
  /// no default constructor and is built by a factory.
  std::optional<ConnectionStream> stream_;
  std::unique_ptr<Ranker> ranker_;
  const bool monotone_;
  /// Null unless SearchOptions::profile.
  std::unique_ptr<QueryProfiler> profiler_;
  /// Analysis time inside the current PullLoop call; Pull subtracts it
  /// from the loop's elapsed time so the stream and analyze stages stay
  /// disjoint.
  uint64_t analyze_ns_ = 0;

  /// Arrival-order candidate buffer (the reorder window) plus the
  /// parallel sort keys and group keys the settle predicate reads.
  std::vector<SearchHit> hits_;
  std::vector<std::vector<double>> keys_;
  std::vector<std::vector<uint64_t>> groups_;

  bool exhausted_ = false;  ///< stream has no pending partial paths left
  bool finished_ = false;   ///< every emittable hit has been handed out
  size_t emitted_ = 0;
  /// SurvivorOrder memo, valid while no new candidate arrives.
  std::vector<size_t> cached_order_;
  bool order_dirty_ = true;
};

}  // namespace

Result<std::unique_ptr<ResultCursor>> PreparedQuery::Open() const {
  if (!empty_result_ && options().method == SearchMethod::kStream &&
      query_.keywords.size() == 2) {
    return std::unique_ptr<ResultCursor>(
        std::make_unique<StreamingCursor>(this));
  }
  std::unique_ptr<QueryProfiler> profiler = MakeProfiler(*this);
  size_t work = 0;
  Result<std::vector<SearchHit>> hits = [&] {
    // Materialization is the whole query for these methods — it is the
    // open-time slice of the wall-time denominator.
    QueryProfiler::ScopedTimer total(profiler.get(),
                                     QueryProfiler::Stage::kTotal);
    return engine_->MaterializeHits(*this, &work, profiler.get());
  }();
  CLAKS_RETURN_NOT_OK(hits.status());
  return std::unique_ptr<ResultCursor>(std::make_unique<MaterializedCursor>(
      std::move(hits).ValueUnsafe(), work, std::move(profiler)));
}

}  // namespace claks
