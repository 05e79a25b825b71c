// Copyright 2026 The claks Authors.

#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <optional>

#include "common/logging.h"
#include "common/macros.h"
#include "common/string_util.h"
#include "core/cursor.h"
#include "observability/metrics.h"
#include "observability/trace.h"

namespace claks {

namespace {

// Engine-level query metrics (catalog: docs/OBSERVABILITY.md). The
// family lookups run once per Search call, never per candidate.
CLAKS_METRIC_COUNTER_FAMILY(g_engine_queries, "claks_engine_queries_total",
                            "Queries answered by the engine facade",
                            "method");
CLAKS_METRIC_HISTOGRAM_FAMILY(
    g_engine_query_us, "claks_engine_query_duration_us",
    "End-to-end Search latency (prepare + drain)", "method", "ranker");
CLAKS_METRIC_HISTOGRAM_FAMILY(
    g_engine_expansions, "claks_engine_query_expansions_count",
    "Per-query work metric (stream expansions / BANKS visited nodes)",
    "method");

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

RankInput SearchHit::ToRankInput() const {
  RankInput input;
  input.rdb_length = rdb_length;
  input.er_length = er_length;
  input.hub_patterns = hub_patterns;
  input.nm_steps = nm_steps;
  input.schema_close = schema_close;
  input.instance_close = instance_close;
  input.text_score = text_score;
  input.ambiguity = ambiguity;
  return input;
}

std::string SearchResult::ToString(const Database& /*db*/,
                                   size_t max_hits) const {
  std::string out = "query: " + query.ToString() + "\n";
  for (const KeywordMatches& km : matches) {
    out += StrFormat("  keyword '%s': %zu tuples\n", km.keyword.c_str(),
                     km.matches.size());
  }
  size_t shown = std::min(max_hits, hits.size());
  for (size_t i = 0; i < shown; ++i) {
    const SearchHit& hit = hits[i];
    out += StrFormat("  #%zu  %s | rdb %zu er %zu %s%s | text %.3f\n",
                     i + 1, hit.rendered.c_str(), hit.rdb_length,
                     hit.er_length, AssociationKindToString(hit.kind),
                     hit.schema_close ? " (close)" : " (loose)",
                     hit.text_score);
  }
  if (shown < hits.size()) {
    out += StrFormat("  ... (%zu more)\n", hits.size() - shown);
  }
  return out;
}

Result<std::unique_ptr<KeywordSearchEngine>> KeywordSearchEngine::Create(
    const Database* db) {
  CLAKS_CHECK(db != nullptr);
  CLAKS_ASSIGN_OR_RETURN(RecoveredErSchema recovered,
                         ReverseEngineerEr(*db));
  return Create(db, std::move(recovered.schema),
                std::move(recovered.mapping));
}

Result<std::unique_ptr<KeywordSearchEngine>> KeywordSearchEngine::Create(
    const Database* db, ERSchema er_schema, ErRelationalMapping mapping) {
  CLAKS_CHECK(db != nullptr);
  CLAKS_RETURN_NOT_OK(db->CheckReferentialIntegrity());
  // Pay the join-index build once here; the data graph and every query
  // path are then served from the cache, and a freshly-created engine is
  // warm (Search is const and data-race-free until `db` is mutated).
  db->Warmup();
  // NOLINTNEXTLINE(modernize-make-unique): the constructor is private
  // (Build/Derive are the only entry points); make_unique cannot reach it.
  auto engine =
      std::unique_ptr<KeywordSearchEngine>(new KeywordSearchEngine());
  engine->db_ = db;
  engine->er_schema_ = std::make_unique<ERSchema>(std::move(er_schema));
  engine->mapping_ =
      std::make_unique<ErRelationalMapping>(std::move(mapping));
  engine->data_graph_ = std::make_unique<DataGraph>(db);
  engine->schema_graph_ = std::make_unique<SchemaGraph>(db);
  engine->index_ = std::make_unique<InvertedIndex>(db);
  engine->analyzer_ = std::make_unique<AssociationAnalyzer>(
      db, engine->er_schema_.get(), engine->mapping_.get(),
      engine->data_graph_.get());
  engine->statistics_ = std::make_unique<InstanceStatistics>(
      db, engine->er_schema_.get(), engine->mapping_.get());
  return engine;
}

Result<std::unique_ptr<KeywordSearchEngine>> KeywordSearchEngine::Derive(
    const KeywordSearchEngine& prev, const Database* next_db,
    const DatabaseDelta& delta, const DeltaPolicy& policy, bool* compacted) {
  CLAKS_CHECK(next_db != nullptr);
  CLAKS_CHECK(!delta.schema_changed);
  CLAKS_CHECK(prev.Warm());

  // Join indexes first: DeriveJoinIndexes doubles as the delta's
  // referential-integrity check (dangling FK, RESTRICT). On failure
  // nothing is built and `prev` is untouched.
  CLAKS_RETURN_NOT_OK(next_db->DeriveJoinIndexes(prev.database(), delta));

  // NOLINTNEXTLINE(modernize-make-unique): the constructor is private
  // (Build/Derive are the only entry points); make_unique cannot reach it.
  auto engine =
      std::unique_ptr<KeywordSearchEngine>(new KeywordSearchEngine());
  engine->db_ = next_db;
  engine->er_schema_ = std::make_unique<ERSchema>(*prev.er_schema_);
  engine->mapping_ = std::make_unique<ErRelationalMapping>(*prev.mapping_);

  size_t accumulated = prev.overlay_ops_ + delta.num_ops();
  bool compact = policy.mode == DeltaPolicy::Mode::kAlwaysCompact;
  if (policy.mode == DeltaPolicy::Mode::kAuto) {
    size_t threshold = std::max(
        policy.min_ops,
        static_cast<size_t>(policy.fraction *
                            static_cast<double>(next_db->TotalRows())));
    compact = accumulated >= threshold;
  }

  // Statistics derive against *both* generations' join indexes (prev
  // resolves deleted rows' parents), so run it before any compaction
  // rewrites next_db's overlays.
  engine->statistics_ = InstanceStatistics::Derive(
      *prev.statistics_, &prev.database(), next_db, delta,
      engine->er_schema_.get(), engine->mapping_.get());

  if (!compact) {
    CLAKS_ASSIGN_OR_RETURN(
        engine->data_graph_,
        DataGraph::Derive(*prev.data_graph_, next_db, delta));
    // nullptr = the id slack between tables is exhausted; only a
    // compaction renumbers, so force one whatever the policy says.
    if (engine->data_graph_ == nullptr) compact = true;
  }
  if (compact) {
    next_db->CompactJoinIndexes();
    engine->data_graph_ = std::make_unique<DataGraph>(next_db);
  }

  engine->index_ = InvertedIndex::Derive(*prev.index_, next_db, delta);
  if (compact) engine->index_->Compact();

  // Schema-sized structures: rebuilt outright, they never see row deltas.
  engine->schema_graph_ = std::make_unique<SchemaGraph>(next_db);
  engine->analyzer_ = std::make_unique<AssociationAnalyzer>(
      next_db, engine->er_schema_.get(), engine->mapping_.get(),
      engine->data_graph_.get());

  engine->overlay_ops_ = compact ? 0 : accumulated;
  if (compacted != nullptr) *compacted = compact;
  return engine;
}

namespace {

// The unique path between two nodes of a tree, restricted to tree edges.
NodePath TreePathBetween(const DataGraph& graph, const TupleTree& tree,
                         uint32_t from, uint32_t to) {
  std::map<uint32_t, std::vector<DataAdjacency>> adjacency;
  for (uint32_t e : tree.edge_indices) {
    const DataEdge& edge = graph.edge(e);
    uint32_t a = graph.NodeOf(edge.from);
    uint32_t b = graph.NodeOf(edge.to);
    adjacency[a].push_back(DataAdjacency{e, b, true});
    adjacency[b].push_back(DataAdjacency{e, a, false});
  }
  // BFS with parent tracking.
  std::map<uint32_t, DataAdjacency> parent_step;
  std::map<uint32_t, uint32_t> parent;
  std::deque<uint32_t> queue{from};
  std::set<uint32_t> seen{from};
  while (!queue.empty()) {
    uint32_t cur = queue.front();
    queue.pop_front();
    if (cur == to) break;
    for (const DataAdjacency& adj : adjacency[cur]) {
      if (seen.count(adj.neighbor) > 0) continue;
      seen.insert(adj.neighbor);
      parent[adj.neighbor] = cur;
      parent_step.emplace(adj.neighbor, adj);
      queue.push_back(adj.neighbor);
    }
  }
  NodePath path{from, {}};
  if (from == to || seen.count(to) == 0) return path;
  std::vector<DataAdjacency> reversed;
  uint32_t node = to;
  while (node != from) {
    reversed.push_back(parent_step.at(node));
    node = parent.at(node);
  }
  path.steps.assign(reversed.rbegin(), reversed.rend());
  return path;
}

// Extra answers requested from BANKS beyond options.top_k: BANKS orders by
// its internal tree weight, which need not agree with options.ranker, so
// truncation to k must happen only after the engine re-ranks. The margin
// absorbs rank disagreements near the cut.
constexpr size_t kBanksOverfetchMargin = 16;

// The match of `tuple` among `km.matches` (sorted by TupleId, as
// MatchKeywords builds them), or nullptr.
const TupleMatch* FindMatch(const KeywordMatches& km, const TupleId& tuple) {
  auto it = std::lower_bound(
      km.matches.begin(), km.matches.end(), tuple,
      [](const TupleMatch& m, const TupleId& t) { return m.tuple < t; });
  return it != km.matches.end() && it->tuple == tuple ? &*it : nullptr;
}

size_t KindSeverity(AssociationKind kind) {
  switch (kind) {
    case AssociationKind::kImmediate:
      return 0;
    case AssociationKind::kTransitiveFunctional:
      return 1;
    case AssociationKind::kMixedLoose:
      return 2;
    case AssociationKind::kTransitiveNM:
      return 3;
  }
  return 3;
}

}  // namespace

Result<SearchHit> KeywordSearchEngine::AnalyzeTree(
    const TupleTree& tree, const std::vector<KeywordMatches>& matches,
    const std::map<TupleId, std::string>& keyword_of,
    const SearchOptions& options) const {
  SearchHit hit;
  hit.tree = tree;
  hit.rdb_length = tree.edge_indices.size();

  // Text score: best match per keyword among tuples in the tree. Each
  // tree tuple is looked up in the keyword's sorted matches, so the cost
  // follows the tree, not the match count.
  for (const KeywordMatches& km : matches) {
    double best = 0.0;
    for (uint32_t node : tree.nodes) {
      const TupleMatch* m = FindMatch(km, data_graph_->TupleOf(node));
      if (m == nullptr) continue;
      best = std::max(best, ScoreTupleMatch(*index_, km.keyword, *m));
    }
    hit.text_score += best;
  }

  if (tree.IsPath(*data_graph_)) {
    Connection connection = tree.ToConnection(*data_graph_);
    // Orient the path so a tuple matching the first keyword comes first
    // when possible (paper reads connections keyword-to-keyword).
    if (!matches.empty() &&
        FindMatch(matches[0], connection.front()) == nullptr &&
        FindMatch(matches[0], connection.back()) != nullptr) {
      connection = connection.Reversed();
    }
    CLAKS_ASSIGN_OR_RETURN(ConnectionAnalysis analysis,
                           analyzer_->Analyze(connection));
    if (options.instance_check) {
      CLAKS_ASSIGN_OR_RETURN(
          bool close,
          analyzer_->IsInstanceClose(connection, options.witness_edges));
      analysis.instance_close = close;
    }
    hit.er_length = analysis.er_length;
    hit.kind = analysis.kind;
    hit.hub_patterns = analysis.hub_patterns;
    hit.nm_steps = analysis.nm_steps;
    hit.schema_close = analysis.schema_close;
    hit.instance_close = analysis.instance_close;
    hit.ambiguity = statistics_->ConnectionAmbiguity(analysis.projection);
    hit.rendered = connection.ToAnnotatedString(*db_, keyword_of);
    hit.connection = std::move(connection);
    hit.analysis = std::move(analysis);
    return hit;
  }

  // Non-path tree: aggregate over the tree paths between each pair of
  // keyword tuples.
  std::vector<uint32_t> keyword_nodes;
  for (uint32_t node : tree.nodes) {
    if (keyword_of.count(data_graph_->TupleOf(node)) > 0) {
      keyword_nodes.push_back(node);
    }
  }
  size_t entity_tuples = 0;
  for (uint32_t node : tree.nodes) {
    if (!mapping_->IsMiddleRelation(
            db_->SchemaOf(data_graph_->TupleOf(node)).name())) {
      ++entity_tuples;
    }
  }
  hit.er_length = entity_tuples > 0 ? entity_tuples - 1 : 0;
  bool all_instance_close = true;
  bool checked_any = false;
  for (size_t i = 0; i < keyword_nodes.size(); ++i) {
    for (size_t j = i + 1; j < keyword_nodes.size(); ++j) {
      NodePath path = TreePathBetween(*data_graph_, tree, keyword_nodes[i],
                                      keyword_nodes[j]);
      Connection connection =
          Connection::FromNodePath(*data_graph_, path);
      CLAKS_ASSIGN_OR_RETURN(ConnectionAnalysis analysis,
                             analyzer_->Analyze(connection));
      if (KindSeverity(analysis.kind) > KindSeverity(hit.kind)) {
        hit.kind = analysis.kind;
      }
      hit.hub_patterns = std::max(hit.hub_patterns, analysis.hub_patterns);
      hit.nm_steps = std::max(hit.nm_steps, analysis.nm_steps);
      hit.ambiguity = std::max(
          hit.ambiguity,
          statistics_->ConnectionAmbiguity(analysis.projection));
      if (options.instance_check) {
        CLAKS_ASSIGN_OR_RETURN(
            bool close,
            analyzer_->IsInstanceClose(connection, options.witness_edges));
        all_instance_close = all_instance_close && close;
        checked_any = true;
      }
    }
  }
  hit.schema_close = GuaranteesCloseAssociation(hit.kind);
  if (checked_any) hit.instance_close = all_instance_close;
  hit.rendered = tree.ToString(*data_graph_);
  return hit;
}

Result<PreparedQuery> KeywordSearchEngine::Prepare(
    const std::string& query_text, QuerySpec spec) const {
  auto start = std::chrono::steady_clock::now();
  TraceSpan span("match");
  PreparedQuery prepared(this, std::move(spec));
  prepared.query_ = ParseKeywordQuery(query_text, index_->tokenizer());
  if (prepared.query_.keywords.empty()) {
    return Status::InvalidArgument("empty keyword query");
  }
  if (prepared.query_.keywords.size() > 31) {
    return Status::InvalidArgument("too many keywords (max 31)");
  }
  prepared.matches_ = MatchKeywords(*index_, prepared.query_);

  for (const KeywordMatches& km : prepared.matches_) {
    for (const TupleMatch& m : km.matches) {
      std::string& label = prepared.keyword_of_[m.tuple];
      if (!label.empty()) label += ",";
      label += km.keyword;
    }
  }

  if (!AllKeywordsMatched(prepared.matches_)) {
    if (prepared.options().require_all_keywords) {
      // AND semantics: some keyword matched nothing; cursors are born
      // drained (the match metadata stays available for display).
      prepared.empty_result_ = true;
      prepared.match_ns_ = ElapsedNs(start);
      return prepared;
    }
    // OR semantics: drop unmatched keywords and continue with the rest.
    std::vector<KeywordMatches> matched;
    std::vector<std::string> kept_keywords;
    for (KeywordMatches& km : prepared.matches_) {
      if (!km.empty()) {
        kept_keywords.push_back(km.keyword);
        matched.push_back(std::move(km));
      }
    }
    if (matched.empty()) {
      prepared.empty_result_ = true;
      prepared.match_ns_ = ElapsedNs(start);
      return prepared;
    }
    prepared.matches_ = std::move(matched);
    prepared.query_.keywords = std::move(kept_keywords);
  }

  // Query-dependent structural checks (the spec cannot know the keyword
  // count). An empty result skips them: AND semantics already answered.
  size_t keywords = prepared.query_.keywords.size();
  if (prepared.options().method == SearchMethod::kEnumerate &&
      keywords > 2) {
    return Status::InvalidArgument(
        "SearchMethod::kEnumerate supports 1 or 2 keywords; use "
        "kMtjnt/kDiscover/kBanks for more");
  }
  if (prepared.options().method == SearchMethod::kStream && keywords > 2) {
    return Status::InvalidArgument(
        "SearchMethod::kStream supports 1 or 2 keywords; use "
        "kMtjnt/kDiscover/kBanks for more");
  }
  prepared.match_ns_ = ElapsedNs(start);
  return prepared;
}

Result<PreparedQuery> KeywordSearchEngine::Prepare(
    const std::string& query_text, const SearchOptions& options) const {
  auto start = std::chrono::steady_clock::now();
  Result<QuerySpec> spec = [&] {
    TraceSpan span("validate");
    return QuerySpec::Create(options);
  }();
  uint64_t validate_ns = ElapsedNs(start);
  CLAKS_RETURN_NOT_OK(spec.status());
  CLAKS_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         Prepare(query_text, std::move(spec).ValueUnsafe()));
  prepared.validate_ns_ = validate_ns;
  return prepared;
}

Result<std::vector<SearchHit>> KeywordSearchEngine::MaterializeHits(
    const PreparedQuery& prepared, size_t* work,
    QueryProfiler* profiler) const {
  TraceSpan materialize_span("materialize");
  if (work != nullptr) *work = 0;
  std::vector<SearchHit> hits;
  if (prepared.empty_result()) return hits;

  const SearchOptions& options = prepared.options();
  const std::vector<KeywordMatches>& matches = prepared.matches();
  std::vector<TupleTree> trees;
  bool single_nodes = false;
  // Candidate generation is the materialized methods' stream stage: the
  // whole bounded result space is produced here. The span/timer pair ends
  // after the switch (std::optional controls the end point without
  // re-scoping the switch).
  auto candidates_start = std::chrono::steady_clock::now();
  std::optional<TraceSpan> candidates_span;
  candidates_span.emplace("candidates");
  switch (options.method) {
    // A 1-keyword kStream query degenerates to kEnumerate's single-node
    // hits: there is nothing to stream. (Two-keyword kStream is the
    // streaming cursor's job — PreparedQuery::Open never routes it here.)
    case SearchMethod::kStream:
    case SearchMethod::kEnumerate: {
      if (prepared.query().keywords.size() == 1) {
        for (const TupleMatch& m : matches[0].matches) {
          TupleTree tree;
          tree.nodes = {data_graph_->NodeOf(m.tuple)};
          trees.push_back(std::move(tree));
        }
        single_nodes = true;
        break;
      }
      CLAKS_CHECK(options.method == SearchMethod::kEnumerate);
      std::vector<uint32_t> sources;
      for (const TupleMatch& m : matches[0].matches) {
        sources.push_back(data_graph_->NodeOf(m.tuple));
      }
      std::vector<uint32_t> targets;
      for (const TupleMatch& m : matches[1].matches) {
        targets.push_back(data_graph_->NodeOf(m.tuple));
      }
      // Enumeration stops a path at the first tuple of the target set, so
      // connections whose *interior* contains a tuple matching the source
      // keyword are only found when enumerating from that keyword's side
      // (the paper's connection 3, p1(XML) - d1(XML) - e1(Smith), needs
      // XML as the source side). Run both directions and deduplicate to
      // make the result independent of keyword order.
      std::set<TupleTree> seen;
      auto collect = [&](const std::vector<uint32_t>& from,
                         const std::vector<uint32_t>& to) {
        for (const NodePath& path : EnumerateSimplePathsBetweenSets(
                 *data_graph_, from, to, options.max_rdb_edges)) {
          TupleTree tree = CanonicalTree(path);
          if (seen.insert(tree).second) trees.push_back(std::move(tree));
        }
      };
      collect(sources, targets);
      collect(targets, sources);
      break;
    }
    case SearchMethod::kMtjnt:
      trees = EnumerateMtjnt(*data_graph_, matches, options.tmax);
      break;
    case SearchMethod::kDiscover:
      trees = DiscoverMtjnt(*data_graph_, *schema_graph_, matches,
                            options.tmax);
      break;
    case SearchMethod::kBanks: {
      std::vector<std::vector<uint32_t>> keyword_node_sets;
      for (const KeywordMatches& km : matches) {
        std::vector<uint32_t> nodes;
        for (const TupleMatch& m : km.matches) {
          nodes.push_back(data_graph_->NodeOf(m.tuple));
        }
        keyword_node_sets.push_back(std::move(nodes));
      }
      BanksOptions banks = options.banks;
      if (options.top_k != 0) {
        // Over-fetch: truncation to options.top_k happens only after the
        // engine re-ranks with options.ranker, so hits BANKS's internal
        // weight ranks low are not pre-dropped.
        banks.top_k =
            std::max(options.top_k, banks.top_k) + kBanksOverfetchMargin;
      }
      BanksSearchStats banks_stats;
      for (const AnswerTree& answer : BanksBackwardSearch(
               *data_graph_, keyword_node_sets, banks, &banks_stats)) {
        TupleTree tree;
        std::set<uint32_t> nodes{answer.root};
        for (uint32_t n : answer.keyword_nodes) nodes.insert(n);
        for (uint32_t e : answer.edge_indices) {
          const DataEdge& edge = data_graph_->edge(e);
          nodes.insert(data_graph_->NodeOf(edge.from));
          nodes.insert(data_graph_->NodeOf(edge.to));
        }
        tree.nodes.assign(nodes.begin(), nodes.end());
        tree.edge_indices = answer.edge_indices;
        std::sort(tree.edge_indices.begin(), tree.edge_indices.end());
        trees.push_back(std::move(tree));
      }
      if (work != nullptr) *work = banks_stats.visited_nodes;
      break;
    }
  }
  candidates_span.reset();
  if (profiler != nullptr) {
    profiler->Add(QueryProfiler::Stage::kStream, ElapsedNs(candidates_start));
  }

  auto analyze_start = std::chrono::steady_clock::now();
  std::optional<TraceSpan> analyze_span;
  analyze_span.emplace("analyze");
  if (single_nodes && options.top_k != 0 &&
      RankerMonotonicity(options.ranker) != RankMonotonicity::kNone) {
    // Settled-k at length 0: every candidate is a single-node tree, so no
    // key can fall below MinSortKeyAtLength(ranker, 0), and the stable
    // rank sort keeps later ties (trees are in TupleId order) behind
    // earlier ones. Once top_k analyzed hits sit at that floor, no
    // unanalyzed tree can enter the top-k. Single-node hits are distinct
    // endpoint groups, so per_endpoint_limit drops none of them.
    std::unique_ptr<Ranker> ranker = MakeRanker(options.ranker);
    const std::vector<double> floor = MinSortKeyAtLength(options.ranker, 0);
    size_t at_floor = 0;
    for (size_t i = 0; i < trees.size() && at_floor < options.top_k; ++i) {
      CLAKS_ASSIGN_OR_RETURN(
          SearchHit hit,
          AnalyzeTree(trees[i], matches, prepared.keyword_of(), options));
      if (!(floor < ranker->SortKey(hit.ToRankInput()))) ++at_floor;
      hits.push_back(std::move(hit));
    }
  } else {
    for (const TupleTree& tree : trees) {
      CLAKS_ASSIGN_OR_RETURN(
          SearchHit hit,
          AnalyzeTree(tree, matches, prepared.keyword_of(), options));
      hits.push_back(std::move(hit));
    }
  }
  analyze_span.reset();
  if (profiler != nullptr) {
    profiler->Add(QueryProfiler::Stage::kAnalyze, ElapsedNs(analyze_start));
    profiler->AddAnalyzed(hits.size());
  }

  {
    QueryProfiler::ScopedTimer timer(profiler, QueryProfiler::Stage::kRank);
    RankGroupTruncate(&hits, prepared.keyword_of(), options);
  }
  return hits;
}

Result<SearchResult> KeywordSearchEngine::Search(
    const std::string& query_text, const SearchOptions& options) const {
  TraceSpan search_span("search");
  auto start = std::chrono::steady_clock::now();
  // The legacy facade: prepare (unvalidated spec, so historical option
  // bags keep working byte-for-byte), open a cursor, drain it. The spec
  // construction is still this path's validate stage — traced (and
  // timed below) so a traced Search shows the full lifecycle.
  QuerySpec spec = [&] {
    TraceSpan span("validate");
    return QuerySpec::Unvalidated(options);
  }();
  uint64_t validate_ns = ElapsedNs(start);
  CLAKS_ASSIGN_OR_RETURN(PreparedQuery prepared,
                         Prepare(query_text, std::move(spec)));
  prepared.validate_ns_ = validate_ns;
  CLAKS_ASSIGN_OR_RETURN(std::unique_ptr<ResultCursor> cursor,
                         prepared.Open());

  SearchResult result;
  constexpr size_t kDrainPageSize = 256;
  while (!cursor->Drained()) {
    CLAKS_ASSIGN_OR_RETURN(std::vector<SearchHit> page,
                           cursor->Next(kDrainPageSize));
    if (page.empty()) break;
    for (SearchHit& hit : page) result.hits.push_back(std::move(hit));
  }
  CursorStats stats = cursor->Stats();
  result.expansions = stats.expansions;
  result.profile = std::move(stats.profile);
  // The drain is complete: no cursor call follows, so the prepared
  // metadata can be moved out rather than copied (the cursor only reads
  // it from inside Next).
  result.query = std::move(prepared.query_);
  result.matches = std::move(prepared.matches_);
  result.keyword_of = std::move(prepared.keyword_of_);
  if (MetricsRegistry::recording()) {
    const std::string method = SearchMethodToString(options.method);
    g_engine_queries.With({method}).Inc();
    g_engine_query_us.With({method, RankerKindToString(options.ranker)})
        .Observe(ElapsedNs(start) / 1000);
    g_engine_expansions.With({method}).Observe(result.expansions);
  }
  return result;
}

void KeywordSearchEngine::RankGroupTruncate(
    std::vector<SearchHit>* hits,
    const std::map<TupleId, std::string>& keyword_of,
    const SearchOptions& options) const {
  TraceSpan span("rank");
  std::unique_ptr<Ranker> ranker = MakeRanker(options.ranker);
  CLAKS_CHECK(ranker != nullptr);
  std::vector<RankInput> inputs;
  inputs.reserve(hits->size());
  for (const SearchHit& hit : *hits) {
    inputs.push_back(hit.ToRankInput());
  }
  std::vector<size_t> order = RankOrder(inputs, *ranker);
  std::vector<SearchHit> ranked;
  ranked.reserve(hits->size());
  for (size_t idx : order) ranked.push_back(std::move((*hits)[idx]));
  *hits = std::move(ranked);

  if (options.per_endpoint_limit != 0) {
    // Keep at most N hits per endpoint group (rank order is already
    // established, so survivors are each group's best).
    std::map<std::vector<uint64_t>, size_t> group_counts;
    std::vector<SearchHit> diverse;
    for (SearchHit& hit : *hits) {
      std::vector<uint64_t> key =
          EndpointGroupKey(hit, *data_graph_, keyword_of);
      if (++group_counts[key] <= options.per_endpoint_limit) {
        diverse.push_back(std::move(hit));
      }
    }
    *hits = std::move(diverse);
  }

  if (options.top_k != 0 && hits->size() > options.top_k) {
    hits->resize(options.top_k);
  }
}

}  // namespace claks
