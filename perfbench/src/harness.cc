// Copyright 2026 The claks Authors.

#include "harness.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

#include "core/cursor.h"
#include "observability/metrics.h"
#include "relational/delta.h"
#include "storage/snapshot.h"

namespace perfbench {

using claks::SearchOptions;
using claks::SearchResult;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double MsSince(Clock::time_point from) {
  return MsBetween(from, Clock::now());
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

void Output::Fail(const std::string& why) {
  correct = false;
  Note("FAIL " + why);
}

void PrintOutput(const Output& out) {
  for (const std::string& line : out.notes) std::printf("# %s\n", line.c_str());
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : out.metrics) {
    char value[64];
    double v = std::isfinite(value_unit.first) ? value_unit.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
            value_unit.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --------------------------------------------------------------------------
// Statistics
// --------------------------------------------------------------------------

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Percentile(values, 0.5); }

std::pair<double, double> TailPercentile(std::vector<double> values,
                                         size_t beyond) {
  if (values.empty()) return {0.0, 0.0};
  const size_t n = values.size();
  std::sort(values.begin(), values.end());
  // k-th smallest, 1-based: `beyond` samples above it, but never below the
  // median when there are too few samples for that.
  const size_t k = std::max(n > beyond ? n - beyond : 0, (n + 1) / 2);
  return {static_cast<double>(k) / static_cast<double>(n), values[k - 1]};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ResetPeakRss(Output* out) {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  if (!clear_refs) out->Note("peak_rss reset unavailable: peak since start");
}

// --------------------------------------------------------------------------
// Seeded inputs
// --------------------------------------------------------------------------

uint64_t SeededRng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double SeededRng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

size_t SeededRng::Index(size_t n) {
  return n == 0 ? 0 : static_cast<size_t>(Uniform() * static_cast<double>(n));
}

double SeededRng::Exponential(double rate) {
  return -std::log(1.0 - Uniform()) / rate;
}

const std::vector<std::string>& Surnames() {
  static const std::vector<std::string> kWords = {
      "smith",  "miller",  "walker", "johnson", "virtanen", "korhonen",
      "nieminen", "laine", "garcia", "kim",     "chen",     "novak"};
  return kWords;
}

const std::vector<std::string>& GivenNames() {
  static const std::vector<std::string> kWords = {
      "john",  "barbara", "melina", "alice", "theodore", "maria",
      "juha",  "anna",    "pekka",  "liisa", "igor",     "wei"};
  return kWords;
}

const std::vector<std::string>& Topics() {
  static const std::vector<std::string> kWords = {
      "xml",      "databases", "retrieval", "networks",
      "compilers", "graphics", "security",  "statistics",
      "robotics", "semantics", "indexing",  "ranking"};
  return kWords;
}

std::vector<Request> MakeSequence(const std::vector<RequestClass>& classes,
                                  size_t count, uint64_t seed) {
  SeededRng rng(seed);
  std::vector<size_t> block;
  for (size_t c = 0; c < classes.size(); ++c) {
    block.insert(block.end(), classes[c].per_block, c);
  }
  // Per class: a seeded shuffle of its pool, reshuffled at each pass.
  std::vector<std::vector<std::string>> decks(classes.size());
  std::vector<size_t> next(classes.size(), 0);
  std::vector<Request> out;
  out.reserve(count);
  while (out.size() < count) {
    std::vector<size_t> order = block;
    Shuffle(&order, &rng);
    for (size_t c : order) {
      if (out.size() == count) break;
      if (next[c] == decks[c].size()) {
        decks[c] = classes[c].pool;
        Shuffle(&decks[c], &rng);
        next[c] = 0;
      }
      Request request;
      request.id = out.size() + 1;
      request.cls = c;
      request.text = decks[c][next[c]++];
      request.options = classes[c].options;
      out.push_back(std::move(request));
    }
  }
  return out;
}

claks::SearchOptions StreamOptions() {
  claks::SearchOptions options;
  options.method = claks::SearchMethod::kStream;
  options.top_k = 10;
  options.max_rdb_edges = 3;
  return options;
}

RequestClass PairFrequentClass(size_t per_block) {
  RequestClass frequent{"pair_frequent", per_block, {}, StreamOptions()};
  std::vector<std::string> names = Surnames();
  names.insert(names.end(), GivenNames().begin(), GivenNames().end());
  for (const std::string& name : names) {
    for (const std::string& topic : Topics()) {
      frequent.pool.push_back(name + " " + topic);
    }
  }
  return frequent;
}

void StampPoisson(std::vector<Request>* requests, double rate,
                  uint64_t seed) {
  SeededRng rng(seed ^ 0x5851f42d4c957f2dULL);
  double t = 0;
  for (Request& request : *requests) {
    t += rng.Exponential(rate);
    request.send_at_s = t;
  }
}

// --------------------------------------------------------------------------
// Runners
// --------------------------------------------------------------------------

namespace {

struct Outstanding {
  size_t index = 0;
  Clock::time_point due;
  std::future<claks::Result<SearchResult>> future;
};

/// Collects every ready future of `pending` into `done`.
void Harvest(std::vector<Outstanding>* pending, Clock::time_point now,
             std::vector<Completion>* done) {
  for (size_t i = 0; i < pending->size();) {
    Outstanding& o = (*pending)[i];
    if (o.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    claks::Result<SearchResult> result = o.future.get();
    Completion c;
    c.index = o.index;
    c.due = o.due;
    c.ready = now;
    c.latency_ms = MsBetween(o.due, now);
    c.ok = result.ok();
    if (result.ok()) {
      const SearchResult& r = result.ValueOrDie();
      if (r.profile.has_value()) {
        c.engine_ms = static_cast<double>(r.profile->total_ns) / 1e6;
      }
    }
    done->push_back(c);
    if (i + 1 != pending->size()) (*pending)[i] = std::move(pending->back());
    pending->pop_back();
  }
}

}  // namespace

std::vector<Completion> RunOpenLoop(const std::vector<Request>& requests,
                                    double duration_s,
                                    const SubmitFn& submit) {
  std::vector<Completion> done;
  std::vector<Outstanding> pending;
  std::vector<double> lag(requests.size(), 0.0);
  const Clock::time_point start = Clock::now();
  const auto poll = std::chrono::microseconds(100);
  size_t i = 0;
  for (; i < requests.size() && requests[i].send_at_s < duration_s; ++i) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(requests[i].send_at_s));
    for (Clock::time_point now = Clock::now(); now < due;
         now = Clock::now()) {
      Harvest(&pending, now, &done);
      std::this_thread::sleep_for(std::min<Clock::duration>(poll, due - now));
    }
    lag[i] = MsSince(due);
    Outstanding o;
    o.index = i;
    o.due = due;
    o.future = submit(requests[i]);
    pending.push_back(std::move(o));
  }
  while (!pending.empty()) {
    Harvest(&pending, Clock::now(), &done);
    if (!pending.empty()) std::this_thread::sleep_for(poll);
  }
  for (Completion& c : done) c.send_lag_ms = lag[c.index];
  return done;
}

double RunSaturated(const std::vector<Request>& requests, size_t window,
                    const SubmitFn& submit, std::vector<Completion>* done) {
  std::vector<Outstanding> pending;
  const auto poll = std::chrono::microseconds(100);
  const size_t before = done->size();
  const Clock::time_point start = Clock::now();
  size_t next = 0;
  while (done->size() - before < requests.size()) {
    while (pending.size() < window && next < requests.size()) {
      Outstanding o;
      o.index = next;
      o.due = Clock::now();
      o.future = submit(requests[next++]);
      pending.push_back(std::move(o));
    }
    std::this_thread::sleep_for(poll);
    Harvest(&pending, Clock::now(), done);
  }
  const double seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return seconds > 0 ? static_cast<double>(requests.size()) / seconds : 0.0;
}

// --------------------------------------------------------------------------
// Correctness
// --------------------------------------------------------------------------

namespace {

std::string FormatDouble(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

std::string Fingerprint(const claks::SearchHit& hit) {
  std::string out = hit.rendered;
  out += "|rdb=" + std::to_string(hit.rdb_length);
  out += "|er=" + std::to_string(hit.er_length);
  out += "|kind=" + std::to_string(static_cast<int>(hit.kind));
  out += "|hubs=" + std::to_string(hit.hub_patterns);
  out += "|nm=" + std::to_string(hit.nm_steps);
  out += "|sc=" + std::to_string(hit.schema_close ? 1 : 0);
  if (hit.instance_close.has_value()) {
    out += "|ic=" + std::to_string(*hit.instance_close ? 1 : 0);
  }
  out += "|path=" + std::to_string(hit.connection.has_value() ? 1 : 0);
  out += "|text=" + FormatDouble(hit.text_score);
  out += "|amb=" + FormatDouble(hit.ambiguity);
  return out;
}

namespace {

/// Every hit of a result, in rank order, one per line.
std::string ResultFingerprint(const SearchResult& result) {
  std::string out;
  for (const claks::SearchHit& hit : result.hits) {
    out += Fingerprint(hit);
    out += "\n";
  }
  return out;
}

/// Fails `out` when `got` differs from `want` for the query `label`.
void ExpectSame(const std::string& label, const SearchResult& want,
                const SearchResult& got, Output* out) {
  if (ResultFingerprint(want) != ResultFingerprint(got)) {
    out->Fail("result mismatch for " + label + " (" +
              std::to_string(want.hits.size()) + " vs " +
              std::to_string(got.hits.size()) + " hits)");
  }
}

}  // namespace

void GateService(claks::SearchService* service,
                 const claks::KeywordSearchEngine& engine,
                 const std::vector<Request>& sample, Output* out) {
  for (const Request& request : sample) {
    out->attempted += 2;
    auto got = service->SearchNow(request.text, request.options);
    auto want = engine.Search(request.text, request.options);
    if (!got.ok() || !want.ok()) {
      out->failed += (got.ok() ? 0 : 1) + (want.ok() ? 0 : 1);
      out->Fail("gate query '" + request.text + "' failed");
      continue;
    }
    ExpectSame("'" + request.text + "'", want.ValueOrDie(), got.ValueOrDie(),
               out);
  }
}

std::vector<Request> SamplePerClass(const std::vector<Request>& requests,
                                    size_t per_class) {
  std::map<size_t, size_t> taken;
  std::vector<Request> out;
  for (const Request& request : requests) {
    if (taken[request.cls]++ < per_class) out.push_back(request);
  }
  return out;
}

// --------------------------------------------------------------------------
// Set-up
// --------------------------------------------------------------------------

std::unique_ptr<claks::SearchService> MedianCreate(
    const claks::GeneratedDataset& dataset,
    const claks::ServiceOptions& options, size_t reps, Tracer* tracer,
    double* setup_s, Output* out) {
  std::unique_ptr<claks::SearchService> service;
  std::vector<double> seconds;
  for (size_t r = 0; r < reps; ++r) {
    service.reset();
    std::unique_ptr<claks::Database> db = dataset.db->Clone();
    const Clock::time_point t0 = Clock::now();
    auto created = claks::SearchService::Create(
        std::move(db), dataset.er_schema, dataset.mapping, options);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!created.ok()) {
      ++out->failed;
      out->Fail("SearchService::Create: " + created.status().ToString());
      return nullptr;
    }
    service = std::move(created).ValueOrDie();
    seconds.push_back(MsBetween(t0, t1) / 1000.0);
    tracer->Add("setup.create", 0, 0, t0, t1);
  }
  *setup_s = Median(seconds);
  return service;
}

// --------------------------------------------------------------------------
// Tracing
// --------------------------------------------------------------------------

uint64_t Tracer::Add(const std::string& name, uint64_t request_id,
                     uint64_t parent, Clock::time_point start,
                     Clock::time_point end) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.request = request_id;
  span.parent = parent;
  span.start_us =
      std::chrono::duration<double, std::micro>(start - origin_).count();
  span.dur_us = std::chrono::duration<double, std::micro>(end - start).count();
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  file << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"span\": %llu, "
                  "\"parent\": %llu, \"request\": %llu}}%s\n",
                  s.name.c_str(), s.start_us, s.dur_us,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request),
                  i + 1 < spans_.size() ? "," : "");
    file << line;
  }
  file << "]}\n";
  return static_cast<bool>(file);
}

void AddRequestSpans(const std::vector<Request>& requests,
                     const std::vector<Completion>& completions,
                     Tracer* tracer) {
  for (const Completion& c : completions) {
    const uint64_t id = requests[c.index].id;
    uint64_t root = tracer->Add("request", id, 0, c.due, c.ready);
    if (c.engine_ms < 0) continue;
    const Clock::time_point engine_start =
        c.ready - std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          std::min(c.engine_ms, c.latency_ms)));
    tracer->Add("service.queue_wait", id, root, c.due, engine_start);
    tracer->Add("service.engine", id, root, engine_start, c.ready);
  }
}

std::vector<Completion> RunOpenLoopTraced(const std::vector<Request>& requests,
                                          double seconds,
                                          const SubmitFn& submit,
                                          Tracer* tracer, double* overhead,
                                          Output* out) {
  std::vector<Completion> plain = RunOpenLoop(requests, seconds / 2, submit);
  std::vector<Request> profiled = requests;
  for (Request& r : profiled) r.options.profile = true;
  std::vector<Completion> traced = RunOpenLoop(profiled, seconds / 2, submit);
  AddRequestSpans(profiled, traced, tracer);
  Output scratch;
  *overhead = Median(Latencies(traced, &scratch)) /
              Median(Latencies(plain, &scratch));
  Latencies(plain, out);
  return traced;
}

std::vector<double> Latencies(const std::vector<Completion>& completions,
                              Output* out) {
  std::vector<double> latencies;
  latencies.reserve(completions.size());
  for (const Completion& c : completions) {
    ++out->attempted;
    if (!c.ok) {
      ++out->failed;
      out->Fail("request failed");
      continue;
    }
    latencies.push_back(c.latency_ms);
  }
  return latencies;
}

std::pair<double, double> WindowedTail(
    const std::vector<Completion>& completions, size_t windows) {
  std::vector<const Completion*> ordered;
  for (const Completion& c : completions) {
    if (c.ok) ordered.push_back(&c);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const Completion* a, const Completion* b) {
              return a->index < b->index;
            });
  std::vector<double> tails;
  double fraction = 0;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> slice;
    for (size_t i = w * ordered.size() / windows;
         i < (w + 1) * ordered.size() / windows; ++i) {
      slice.push_back(ordered[i]->latency_ms);
    }
    const auto [q, value] = TailPercentile(slice);
    if (w == 0) fraction = q;
    tails.push_back(value);
  }
  return {fraction, Median(tails)};
}

void NoteClassLatencies(const std::vector<std::string>& class_names,
                        const std::vector<Request>& requests,
                        const std::vector<Completion>& completions,
                        const std::string& label, Output* out) {
  std::vector<std::vector<double>> per(class_names.size());
  for (const Completion& c : completions) {
    if (c.ok) per[requests[c.index].cls].push_back(c.latency_ms);
  }
  for (size_t k = 0; k < class_names.size(); ++k) {
    char line[160];
    std::snprintf(line, sizeof(line), "%s class=%s n=%zu p50_ms=%.3f max_ms=%.3f",
                  label.c_str(), class_names[k].c_str(), per[k].size(),
                  Median(per[k]), Percentile(per[k], 1.0));
    out->Note(line);
  }
}

// --------------------------------------------------------------------------
// Read-path layers
// --------------------------------------------------------------------------

std::vector<LayerSample> ReplayLayers(const claks::KeywordSearchEngine& engine,
                                      const std::vector<Request>& requests,
                                      Tracer* tracer, Output* out) {
  std::vector<LayerSample> samples;
  samples.reserve(requests.size());
  for (const Request& request : requests) {
    SearchOptions options = request.options;
    options.profile = true;
    LayerSample s;
    s.cls = request.cls;
    const Clock::time_point t0 = Clock::now();
    auto prepared = engine.Prepare(request.text, options);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!prepared.ok()) {
      ++out->failed;
      out->Fail("prepare failed for '" + request.text +
                "': " + prepared.status().ToString());
      continue;
    }
    const claks::PreparedQuery& query = prepared.ValueOrDie();
    auto cursor = query.Open();
    const Clock::time_point t2 = Clock::now();
    if (!cursor.ok()) {
      ++out->failed;
      out->Fail("open failed for '" + request.text + "'");
      continue;
    }
    claks::ResultCursor& c = *cursor.ValueOrDie();
    std::vector<std::pair<Clock::time_point, Clock::time_point>> nexts;
    bool ok = true;
    while (!c.Drained()) {
      const Clock::time_point n0 = Clock::now();
      auto page = c.Next(10);
      nexts.emplace_back(n0, Clock::now());
      if (!page.ok()) {
        ok = false;
        break;
      }
      if (page.ValueOrDie().empty()) break;
    }
    const Clock::time_point t3 = Clock::now();
    if (!ok) {
      ++out->failed;
      out->Fail("next failed for '" + request.text + "'");
      continue;
    }
    // The same request end to end, timed on its own.
    ++out->attempted;
    auto whole = engine.Search(request.text, options);
    const Clock::time_point t4 = Clock::now();
    if (!whole.ok()) {
      ++out->failed;
      out->Fail("search failed for '" + request.text + "'");
      continue;
    }
    s.prepare_ms = MsBetween(t0, t1);
    s.open_ms = MsBetween(t1, t2);
    for (const auto& [a, b] : nexts) s.next_ms += MsBetween(a, b);
    s.search_ms = MsBetween(t3, t4);
    for (const claks::KeywordMatches& m : query.matches()) {
      s.matches += static_cast<double>(m.matches.size());
    }
    claks::CursorStats stats = c.Stats();
    s.expansions = static_cast<double>(stats.expansions);
    s.hits = static_cast<double>(stats.returned);
    if (stats.profile.has_value()) {
      s.stream_ns = static_cast<double>(stats.profile->stream_ns);
      s.analyze_ns = static_cast<double>(stats.profile->analyze_ns);
      s.rank_ns = static_cast<double>(stats.profile->rank_ns);
      s.total_ns = static_cast<double>(stats.profile->total_ns);
    }
    samples.push_back(s);
    if (tracer != nullptr && tracer->enabled()) {
      uint64_t root = tracer->Add("request", request.id, 0, t0, t4);
      tracer->Add("text.prepare", request.id, root, t0, t1);
      tracer->Add("core.open", request.id, root, t1, t2);
      for (const auto& [a, b] : nexts) {
        tracer->Add("core.next", request.id, root, a, b);
      }
      tracer->Add("core.search", request.id, root, t3, t4);
    }
  }
  return samples;
}

namespace {

template <typename F>
std::vector<double> Column(const std::vector<LayerSample>& samples, F f) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const LayerSample& s : samples) out.push_back(f(s));
  return out;
}

/// Summed Prepare + Open + Next time over the summed separate Search time.
double Coverage(const std::vector<LayerSample>& samples) {
  double layers = 0, whole = 0;
  for (const LayerSample& s : samples) {
    layers += s.prepare_ms + s.open_ms + s.next_ms;
    whole += s.search_ms;
  }
  return whole > 0 ? layers / whole : 0.0;
}

}  // namespace

void NoteLayerClasses(const std::vector<std::string>& class_names,
                      const std::vector<LayerSample>& samples, Output* out) {
  for (size_t k = 0; k < class_names.size(); ++k) {
    std::vector<LayerSample> mine;
    for (const LayerSample& s : samples) {
      if (s.cls == k) mine.push_back(s);
    }
    if (mine.empty()) continue;
    auto col = [&](auto f) { return Median(Column(mine, f)); };
    double stream = 0, analyze = 0, rank = 0, total = 0;
    for (const LayerSample& s : mine) {
      stream += s.stream_ns;
      analyze += s.analyze_ns;
      rank += s.rank_ns;
      total += s.total_ns;
    }
    char line[400];
    std::snprintf(
        line, sizeof(line),
        "layers class=%s n=%zu prepare_ms=%.3f open_ms=%.3f next_ms=%.3f "
        "matches=%.0f expansions=%.0f hits=%.0f stream=%.3f analyze=%.3f "
        "rank=%.3f coverage=%.3f",
        class_names[k].c_str(), mine.size(),
        col([](const LayerSample& s) { return s.prepare_ms; }),
        col([](const LayerSample& s) { return s.open_ms; }),
        col([](const LayerSample& s) { return s.next_ms; }),
        col([](const LayerSample& s) { return s.matches; }),
        col([](const LayerSample& s) { return s.expansions; }),
        col([](const LayerSample& s) { return s.hits; }),
        total > 0 ? stream / total : 0.0, total > 0 ? analyze / total : 0.0,
        total > 0 ? rank / total : 0.0, Coverage(mine));
    out->Note(line);
  }
}

void ReportReadLayers(const std::vector<LayerSample>& samples,
                      const std::vector<double>& banks_visited, Output* out) {
  auto col = [&](auto f) { return Column(samples, f); };
  out->Set("text.prepare_ms_p50",
           Median(col([](const LayerSample& s) { return s.prepare_ms; })),
           "ms");
  out->Set("text.matches_p50",
           Median(col([](const LayerSample& s) { return s.matches; })),
           "count");
  out->Set("core.open_ms_p50",
           Median(col([](const LayerSample& s) { return s.open_ms; })), "ms");
  std::vector<double> next = col([](const LayerSample& s) { return s.next_ms; });
  out->Set("core.next_ms_p50", Median(next), "ms");
  out->Set("core.next_ms_tail", TailPercentile(next).second, "ms");
  out->Set("core.expansions_p50",
           Median(col([](const LayerSample& s) { return s.expansions; })),
           "count");
  double hits = 0, expansions = 0, stream = 0, analyze = 0, rank = 0,
         total = 0;
  for (const LayerSample& s : samples) {
    hits += s.hits;
    expansions += s.expansions;
    stream += s.stream_ns;
    analyze += s.analyze_ns;
    rank += s.rank_ns;
    total += s.total_ns;
  }
  out->Set("core.hits_per_kexp",
           expansions > 0 ? 1000.0 * hits / expansions : 0.0, "ratio");
  out->Set("core.stream_share", total > 0 ? stream / total : 0.0, "ratio");
  out->Set("core.analyze_share", total > 0 ? analyze / total : 0.0, "ratio");
  out->Set("core.rank_share", total > 0 ? rank / total : 0.0, "ratio");
  out->Set("graph.banks_visited_p50", Median(banks_visited), "count");
}

void ReportCoverage(const std::vector<LayerSample>& samples, Output* out) {
  out->Set("bench.layer_coverage", Coverage(samples), "ratio");
}

// --------------------------------------------------------------------------
// Storage and build layers
// --------------------------------------------------------------------------

void ReportStorageLayer(const claks::KeywordSearchEngine& engine,
                        const std::string& path, const Request& probe,
                        size_t reps, Tracer* tracer, Output* out) {
  std::vector<double> save, load, first;
  for (size_t r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    claks::Status saved = engine.SaveSnapshot(path);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!saved.ok()) {
      ++out->failed;
      out->Fail("SaveSnapshot: " + saved.ToString());
      return;
    }
    auto loaded = claks::KeywordSearchEngine::LoadSnapshot(path);
    const Clock::time_point t2 = Clock::now();
    ++out->attempted;
    if (!loaded.ok()) {
      ++out->failed;
      out->Fail("LoadSnapshot: " + loaded.status().ToString());
      return;
    }
    auto answer = loaded.ValueOrDie().engine->Search(probe.text,
                                                     probe.options);
    const Clock::time_point t3 = Clock::now();
    ++out->attempted;
    if (!answer.ok()) {
      ++out->failed;
      out->Fail("first query on loaded engine failed");
      return;
    }
    save.push_back(MsBetween(t0, t1));
    load.push_back(MsBetween(t1, t2));
    first.push_back(MsBetween(t2, t3));
    if (tracer != nullptr) {
      tracer->Add("storage.save", 0, 0, t0, t1);
      tracer->Add("storage.load", 0, 0, t1, t2);
      tracer->Add("storage.first_query", 0, 0, t2, t3);
    }
  }
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  double bytes = file ? static_cast<double>(file.tellg()) : 0.0;
  out->Set("storage.save_ms", Median(save), "ms");
  out->Set("storage.load_ms", Median(load), "ms");
  out->Set("storage.first_query_ms", Median(first), "ms");
  out->Set("storage.bytes_per_row",
           bytes / static_cast<double>(
                       std::max<size_t>(1, engine.database().TotalRows())),
           "bytes");
  std::remove(path.c_str());
}

void ReportBuildLayer(const claks::EngineSnapshot& snapshot, size_t reps,
                      Tracer* tracer, Output* out) {
  const claks::ERSchema& er_schema = snapshot.engine->er_schema();
  const claks::ErRelationalMapping& mapping = snapshot.engine->mapping();
  std::vector<double> engine_ms, service_ms;
  for (size_t r = 0; r < reps; ++r) {
    std::unique_ptr<claks::Database> db = snapshot.db->Clone();
    const Clock::time_point t0 = Clock::now();
    auto engine =
        claks::KeywordSearchEngine::Create(db.get(), er_schema, mapping);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!engine.ok()) {
      ++out->failed;
      out->Fail("KeywordSearchEngine::Create failed");
      return;
    }
    engine_ms.push_back(MsBetween(t0, t1));
    claks::ServiceOptions options;
    options.num_threads = 1;
    std::unique_ptr<claks::Database> db2 = snapshot.db->Clone();
    const Clock::time_point t2 = Clock::now();
    auto service = claks::SearchService::Create(std::move(db2), er_schema,
                                                mapping, options);
    const Clock::time_point t3 = Clock::now();
    ++out->attempted;
    if (!service.ok()) {
      ++out->failed;
      out->Fail("SearchService::Create failed");
      return;
    }
    service_ms.push_back(MsBetween(t2, t3));
    if (tracer != nullptr) {
      tracer->Add("core.create", 0, 0, t0, t1);
      tracer->Add("service.create", 0, 0, t2, t3);
    }
  }
  double create = Median(engine_ms);
  out->Set("core.create_ms", create, "ms");
  out->Set("service.create_overhead_ms", Median(service_ms) - create, "ms");
}

// --------------------------------------------------------------------------
// Write path
// --------------------------------------------------------------------------

BatchSource::BatchSource(const claks::Database& db, uint64_t seed)
    : seed_(seed) {
  const claks::Table* emp = db.FindTable("EMPLOYEE");
  const claks::Table* proj = db.FindTable("PROJECT");
  const claks::Table* works_on = db.FindTable("WORKS_ON");
  CLAKS_CHECK(emp != nullptr && proj != nullptr && works_on != nullptr);
  // EMPLOYEE(SSN, L_NAME, ...), PROJECT(ID, P_NAME = "project-<n>", ...),
  // WORKS_ON(PROJECT, EMPLOYEE, HOURS).
  std::vector<std::pair<std::string, std::string>> employees, projects;
  for (size_t r = 0; r < emp->num_rows(); ++r) {
    if (emp->IsDeleted(r)) continue;
    employees.emplace_back(emp->row(r)[0].AsString(),
                           emp->row(r)[1].AsString());
  }
  for (size_t r = 0; r < proj->num_rows(); ++r) {
    if (proj->IsDeleted(r)) continue;
    const std::string name = proj->row(r)[1].AsString();
    projects.emplace_back(proj->row(r)[0].AsString(),
                          name.substr(name.rfind('-') + 1));
  }
  std::set<std::pair<std::string, std::string>> present;
  for (size_t r = 0; r < works_on->num_rows(); ++r) {
    if (works_on->IsDeleted(r)) continue;
    present.emplace(works_on->row(r)[0].AsString(),
                    works_on->row(r)[1].AsString());
  }
  SeededRng rng(seed ^ 0x2545f4914f6cdd1dULL);
  groups_.resize(4096);
  for (size_t k = 0; k < groups_.size(); ++k) {
    Group& g = groups_[k];
    std::tie(g.employee, g.surname) = employees[(k * 7919) % employees.size()];
    do {
      std::tie(g.project, g.project_number) =
          projects[rng.Index(projects.size())];
    } while (present.count({g.project, g.employee}) > 0);
  }
}

std::string BatchSource::Marker(size_t k) const {
  return "bench" + std::to_string(seed_) + "x" + std::to_string(k);
}

claks::Status BatchSource::Apply(size_t n, claks::Database* db) const {
  // Batches come in groups of four: insert dependent k, insert assignment
  // k, delete dependent k, delete assignment k.
  const size_t k = n / 4;
  auto s = [](std::string text) { return claks::Value::String(std::move(text)); };
  const std::string dep_id = Marker(k);
  const Group& g = GroupOf(k);
  switch (n % 4) {
    case 0: {
      claks::Table* t = db->FindMutableTable("DEPENDENT");
      const std::string& name = GivenNames()[k % GivenNames().size()];
      return t->InsertValues({s(dep_id), s(name + " " + Marker(k)),
                              s(g.employee)})
          .status();
    }
    case 1: {
      claks::Table* t = db->FindMutableTable("WORKS_ON");
      return t
          ->InsertValues({s(g.project), s(g.employee),
                          claks::Value::Int64(static_cast<int64_t>(5 + k % 50))})
          .status();
    }
    case 2:
      return db->FindMutableTable("DEPENDENT")->DeleteByPrimaryKey({s(dep_id)});
    default:
      return db->FindMutableTable("WORKS_ON")
          ->DeleteByPrimaryKey({s(g.project), s(g.employee)});
  }
}

std::vector<std::string> BatchSource::LiveProbes(size_t applied,
                                                 std::string* deleted) const {
  CLAKS_CHECK(applied % 4 == 2);
  const size_t k = applied / 4;
  const Group& g = GroupOf(k);
  if (k > 0) *deleted = Marker(k - 1) + " " + GroupOf(k - 1).surname;
  return {Marker(k) + " " + g.surname, Marker(k) + " " + g.project_number};
}

void ReportWriteReplay(const claks::EngineSnapshot& start,
                       const BatchSource& batches, size_t count,
                       Tracer* tracer, Output* out) {
  std::vector<double> clone_ms, delta_ms, derive_ms;
  std::unique_ptr<claks::Database> owned_db;
  std::unique_ptr<claks::KeywordSearchEngine> owned_engine;
  const claks::Database* db = start.db.get();
  const claks::KeywordSearchEngine* engine = start.engine.get();
  claks::DeltaPolicy never;
  never.mode = claks::DeltaPolicy::Mode::kNeverCompact;
  auto step = [&](size_t n, const claks::DeltaPolicy& policy,
                  double* clone, double* delta, double* derive) -> bool {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<claks::Database> next = db->Clone();
    const Clock::time_point t1 = Clock::now();
    claks::DatabaseWatermark watermark = claks::TakeWatermark(*next);
    const Clock::time_point t1b = Clock::now();
    claks::Status applied = batches.Apply(n, next.get());
    const Clock::time_point t2 = Clock::now();
    claks::DatabaseDelta d = claks::ComputeDelta(watermark, *next);
    const Clock::time_point t3 = Clock::now();
    bool compacted = false;
    auto derived = claks::KeywordSearchEngine::Derive(*engine, next.get(), d,
                                                      policy, &compacted);
    const Clock::time_point t4 = Clock::now();
    ++out->attempted;
    if (!applied.ok() || !derived.ok()) {
      ++out->failed;
      out->Fail("write replay batch " + std::to_string(n) + " failed");
      return false;
    }
    if (compacted) next->CompactStorage();
    // Clone; watermark + diff (the mutation itself excluded); Derive.
    *clone = MsBetween(t0, t1);
    *delta = MsBetween(t1, t1b) + MsBetween(t2, t3);
    *derive = MsBetween(t3, t4);
    if (tracer != nullptr) {
      uint64_t root = tracer->Add("write.replay", n + 1, 0, t0, t4);
      tracer->Add("relational.clone", n + 1, root, t0, t1);
      tracer->Add("relational.delta", n + 1, root, t2, t3);
      tracer->Add("core.derive", n + 1, root, t3, t4);
    }
    owned_engine = std::move(derived).ValueOrDie();
    owned_db = std::move(next);
    db = owned_db.get();
    engine = owned_engine.get();
    return true;
  };
  for (size_t n = 0; n < count; ++n) {
    double c = 0, d = 0, v = 0;
    if (!step(n, never, &c, &d, &v)) return;
    clone_ms.push_back(c);
    delta_ms.push_back(d);
    derive_ms.push_back(v);
  }
  // Compaction: a Derive that folds every overlay accumulated above.
  claks::DeltaPolicy always;
  always.mode = claks::DeltaPolicy::Mode::kAlwaysCompact;
  std::vector<double> compact_ms;
  for (size_t r = 0; r < 3; ++r) {
    double c = 0, d = 0, v = 0;
    if (!step(count + r, always, &c, &d, &v)) return;
    compact_ms.push_back(v);
  }
  out->Set("relational.clone_ms_p50", Median(clone_ms), "ms");
  out->Set("relational.delta_ms_p50", Median(delta_ms), "ms");
  out->Set("core.derive_ms_p50", Median(derive_ms), "ms");
  out->Set("core.derive_ms_tail", TailPercentile(derive_ms).second, "ms");
  out->Set("core.compact_ms_p50", Median(compact_ms), "ms");
}

bool MutateOnce(claks::SearchService* service, const BatchSource& batches,
                size_t n, WriteLog* log) {
  double apply = 0;
  const Clock::time_point t0 = Clock::now();
  claks::Status status = service->Mutate([&](claks::Database* db) {
    const Clock::time_point a0 = Clock::now();
    claks::Status s = batches.Apply(n, db);
    apply = MsSince(a0);
    return s;
  });
  const double total = MsSince(t0);
  if (!status.ok()) {
    ++log->failed;
    return false;
  }
  log->apply_ms.push_back(apply);
  log->mutate_ms.push_back(total);
  log->overlay_last = service->snapshot()->engine->overlay_ops();
  log->overlay_max = std::max(log->overlay_max, log->overlay_last);
  return true;
}

void ReportWriteLog(const WriteLog& log, uint64_t compactions, Output* out) {
  std::vector<double> publish;
  for (size_t i = 0; i < log.mutate_ms.size(); ++i) {
    publish.push_back(log.mutate_ms[i] - log.apply_ms[i]);
  }
  out->Set("relational.apply_ms_p50", Median(log.apply_ms), "ms");
  out->Set("service.publish_ms_p50", Median(publish), "ms");
  out->Set("core.compactions_per_k",
           1000.0 * static_cast<double>(compactions) /
               static_cast<double>(std::max<size_t>(1, log.mutate_ms.size())),
           "count");
  out->Set("core.overlay_ops_max", static_cast<double>(log.overlay_max),
           "count");
}

void ReportServiceWrites(claks::SearchService* service,
                         const BatchSource& batches, size_t count,
                         Output* out) {
  WriteLog log;
  const uint64_t before = service->stats().compactions;
  for (size_t n = 0; n < count; ++n) {
    ++out->attempted;
    if (!MutateOnce(service, batches, n, &log)) {
      ++out->failed;
      out->Fail("Mutate failed on batch " + std::to_string(n));
      return;
    }
  }
  ReportWriteLog(log, service->stats().compactions - before, out);
}

// --------------------------------------------------------------------------
// Service layer
// --------------------------------------------------------------------------

double PoolBackpressureWaits() {
  return static_cast<double>(
      claks::MetricsRegistry::Default().Snapshot().CounterValue(
          "claks_pool_backpressure_waits_total"));
}

void ReportServiceLayer(const std::vector<Completion>& completions,
                        double pool_waits_before, Output* out) {
  std::vector<double> wait, lag;
  for (const Completion& c : completions) {
    lag.push_back(c.send_lag_ms);
    if (c.ok && c.engine_ms >= 0) {
      wait.push_back(std::max(0.0, c.latency_ms - c.engine_ms));
    }
  }
  out->Set("service.queue_wait_ms_p50", Median(wait), "ms");
  out->Set("service.queue_wait_ms_tail", TailPercentile(wait).second, "ms");
  out->Set("service.backpressure_waits",
           PoolBackpressureWaits() - pool_waits_before, "count");
  out->Set("bench.send_lag_ms_tail", TailPercentile(lag).second, "ms");
}

void NoteHost(Output* out) {
  out->Note("host nproc=" + std::to_string(std::thread::hardware_concurrency()) +
            " compiler=\"" + std::string(__VERSION__) + "\" build_type=" +
#ifdef PERFBENCH_BUILD_TYPE
            std::string(PERFBENCH_BUILD_TYPE)
#else
            std::string("unknown")
#endif
  );
}

}  // namespace perfbench
