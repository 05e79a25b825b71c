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
    Push(Step{kNoStep, source, 0, 0}, 0, lane);
  }
}

void ConnectionStream::Push(Step step, uint32_t length, uint32_t lane) {
  // A wrapped index would alias another path: abort instead.
  CLAKS_CHECK_LT(steps_.size(), size_t{kNoStep});
  queue_.push(Entry{static_cast<uint32_t>(steps_.size()), length, lane});
  steps_.push_back(step);
}

NodePath ConnectionStream::PathOf(uint32_t step) const {
  NodePath path;
  for (; steps_[step].prev != kNoStep; step = steps_[step].prev) {
    const Step& hop = steps_[step];
    path.steps.push_back({hop.edge_index, hop.node, hop.along_fk});
  }
  path.start = steps_[step].node;
  std::reverse(path.steps.begin(), path.steps.end());
  return path;
}

bool ConnectionStream::MarkEmitted(uint32_t step) {
  std::vector<uint32_t> nodes;
  std::vector<uint32_t> edges;
  for (; steps_[step].prev != kNoStep; step = steps_[step].prev) {
    nodes.push_back(steps_[step].node);
    edges.push_back(steps_[step].edge_index);
  }
  nodes.push_back(steps_[step].node);
  std::sort(nodes.begin(), nodes.end());
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
    Entry entry = queue_.top();
    if (entry.length >= stop_length) return std::nullopt;
    queue_.pop();
    ++expansions_;
    uint32_t end = steps_[entry.step].node;

    if (lane_targets_[entry.lane].count(end) > 0) {
      // A zero-length answer is a tuple in both keyword sets; longer
      // answers end at their first target by construction (we never expand
      // past a target). With two lanes the same undirected path can arrive
      // from both sides: only the first arrival is emitted.
      if (!dedup_ || MarkEmitted(entry.step)) return PathOf(entry.step);
      continue;
    }
    if (entry.length >= max_edges_) continue;

    // Expand: simple paths only. The prefix chain has at most max_edges_
    // records, the same walk a node-vector scan would make.
    for (const DataAdjacency& adj : graph_->Neighbors(end)) {
      uint32_t at = entry.step;
      while (at != kNoStep && steps_[at].node != adj.neighbor) {
        at = steps_[at].prev;
      }
      if (at != kNoStep) continue;
      Push(Step{entry.step, adj.neighbor, adj.edge_index, adj.along_fk},
           entry.length + 1, entry.lane);
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
