// Copyright 2026 The claks Authors.

#include "core/topk.h"

#include <algorithm>

#include "common/macros.h"

namespace claks {

ConnectionStream::ConnectionStream(const DataGraph* graph, size_t max_edges)
    : graph_(graph), max_edges_(max_edges) {
  CLAKS_CHECK(graph_ != nullptr);
}

ConnectionStream::ConnectionStream(const DataGraph* graph,
                                   std::vector<uint32_t> sources,
                                   std::vector<uint32_t> targets,
                                   size_t max_edges)
    : ConnectionStream(graph, max_edges) {
  AddLane(sources, targets);
}

ConnectionStream ConnectionStream::Bidirectional(
    const DataGraph* graph, const std::vector<uint32_t>& side_a,
    const std::vector<uint32_t>& side_b, size_t max_edges) {
  ConnectionStream stream(graph, max_edges);
  stream.AddLane(side_a, side_b);
  stream.AddLane(side_b, side_a);
  stream.dedup_ = true;
  return stream;
}

void ConnectionStream::AddLane(const std::vector<uint32_t>& sources,
                               const std::vector<uint32_t>& targets) {
  uint32_t lane = static_cast<uint32_t>(lane_targets_.size());
  lane_targets_.emplace_back(targets.begin(), targets.end());
  // Deduplicate sources, preserve order.
  std::set<uint32_t> seen;
  for (uint32_t source : sources) {
    if (!seen.insert(source).second) continue;
    queue_.push(Frontier{NodePath{source, {}}, {source}, 0, lane,
                         next_sequence_++});
  }
}

bool ConnectionStream::MarkEmitted(const Frontier& frontier) {
  std::vector<uint32_t> nodes = frontier.nodes;
  std::sort(nodes.begin(), nodes.end());
  std::vector<uint32_t> edges;
  edges.reserve(frontier.path.steps.size());
  for (const DataAdjacency& step : frontier.path.steps) {
    edges.push_back(step.edge_index);
  }
  std::sort(edges.begin(), edges.end());
  return emitted_.insert({std::move(nodes), std::move(edges)}).second;
}

std::optional<size_t> ConnectionStream::PendingLength() const {
  if (queue_.empty()) return std::nullopt;
  return queue_.top().length;
}

std::optional<Connection> ConnectionStream::Next(size_t stop_length) {
  std::optional<NodePath> path = NextPath(stop_length);
  if (!path.has_value()) return std::nullopt;
  return Connection::FromNodePath(*graph_, *path);
}

std::optional<NodePath> ConnectionStream::NextPath(size_t stop_length) {
  while (!queue_.empty()) {
    if (queue_.top().length >= stop_length) return std::nullopt;
    // priority_queue::top is const; moving out before pop is safe because
    // the popped element is never read again.
    // claks-lint: allow(no-const-cast) -- queue_ is this stream's own
    // single-consumer state, not a published snapshot; copying the path
    // vectors on every pop would tax the hottest loop in the engine.
    Frontier frontier = std::move(const_cast<Frontier&>(queue_.top()));
    queue_.pop();
    ++expansions_;
    uint32_t end = frontier.path.End();

    bool is_answer = lane_targets_[frontier.lane].count(end) > 0;
    if (is_answer) {
      // A zero-length answer is a tuple in both keyword sets; longer
      // answers end at their first target by construction (we never expand
      // past a target). With two lanes the same undirected path can arrive
      // from both sides: only the first arrival is emitted.
      if (!dedup_ || MarkEmitted(frontier)) {
        return std::move(frontier.path);
      }
      continue;
    }
    if (frontier.path.length() >= max_edges_) continue;

    // Expand: simple paths only.
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

std::vector<Connection> StreamTopK(ConnectionStream* stream, size_t k) {
  std::vector<Connection> out;
  while (out.size() < k) {
    auto connection = stream->Next();
    if (!connection.has_value()) break;
    out.push_back(std::move(*connection));
  }
  return out;
}

}  // namespace claks
