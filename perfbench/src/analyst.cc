// Copyright 2026 The claks Authors.
//
// `analyst`: the exhaustive path. A 100x company_gen database is built
// in-process (set-up = SearchService::Create, median of repeats). One
// client runs a closed loop against a 1-worker service with the cache off.
// Each of its requests is a question: one frequent two-keyword query
// answered by kEnumerate (all results), kMtjnt and kDiscover (tmax 4) and
// kBanks (top 10), one SearchNow each. A question is the unit the
// end-to-end metrics time, so no percentile sits between methods of
// different cost.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

constexpr size_t kScale = 100;
constexpr size_t kSetupReps = 21;

const std::vector<std::string>& MethodNames() {
  static const std::vector<std::string> kNames = {"enumerate", "mtjnt",
                                                  "discover", "banks"};
  return kNames;
}

std::vector<claks::SearchOptions> MethodOptions() {
  claks::SearchOptions enumerate;
  enumerate.method = claks::SearchMethod::kEnumerate;
  enumerate.top_k = 0;
  enumerate.max_rdb_edges = 3;
  claks::SearchOptions mtjnt;
  mtjnt.method = claks::SearchMethod::kMtjnt;
  mtjnt.tmax = 4;
  claks::SearchOptions discover = mtjnt;
  discover.method = claks::SearchMethod::kDiscover;
  claks::SearchOptions banks;
  banks.method = claks::SearchMethod::kBanks;
  banks.top_k = 10;
  return {enumerate, mtjnt, discover, banks};
}

/// Question texts: 24 surname x topic pairs in a Latin arrangement —
/// every surname twice and every topic twice. The pool is the same for
/// every seed; the seed orders it, pass by pass, so each run answers the
/// same questions about as often and only the order and the last partial
/// pass differ.
std::vector<std::string> QuestionPool() {
  std::vector<std::string> pool;
  for (size_t offset : {0u, 5u}) {
    for (size_t i = 0; i < Surnames().size(); ++i) {
      pool.push_back(Surnames()[i] + " " +
                     Topics()[(i + offset) % Topics().size()]);
    }
  }
  return pool;
}

/// Sorted hit fingerprints: the hit set, independent of rank order.
std::vector<std::string> HitSet(const claks::SearchResult& result) {
  std::vector<std::string> set;
  for (const claks::SearchHit& hit : result.hits) {
    set.push_back(Fingerprint(hit));
  }
  std::sort(set.begin(), set.end());
  return set;
}

struct QuestionRun {
  double total_ms = 0;
  std::vector<double> method_ms;
  std::vector<double> engine_ms;  ///< QueryProfile totals when profiled
  std::vector<double> gap_ms;     ///< client time before each call
};

/// Runs one question through the service, checking kMtjnt == kDiscover.
bool AskQuestion(claks::SearchService* service, const std::string& text,
                 const std::vector<claks::SearchOptions>& methods,
                 bool profile, uint64_t id, Tracer* tracer, QuestionRun* run,
                 Output* out) {
  const Clock::time_point start = Clock::now();
  std::vector<std::pair<Clock::time_point, Clock::time_point>> spans;
  std::vector<claks::SearchResult> results;
  Clock::time_point previous = start;
  for (size_t m = 0; m < methods.size(); ++m) {
    claks::SearchOptions options = methods[m];
    options.profile = profile;
    const Clock::time_point t0 = Clock::now();
    run->gap_ms.push_back(MsBetween(previous, t0));
    auto result = service->SearchNow(text, options);
    const Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!result.ok()) {
      ++out->failed;
      out->Fail(MethodNames()[m] + " failed on '" + text + "'");
      return false;
    }
    run->method_ms.push_back(MsBetween(t0, t1));
    previous = Clock::now();
    const claks::SearchResult& r = result.ValueOrDie();
    run->engine_ms.push_back(
        r.profile.has_value() ? static_cast<double>(r.profile->total_ns) / 1e6
                              : -1.0);
    spans.emplace_back(t0, t1);
    results.push_back(std::move(result).ValueOrDie());
  }
  run->total_ms = MsSince(start);
  if (HitSet(results[1]) != HitSet(results[2])) {
    out->Fail("kMtjnt and kDiscover hit sets differ on '" + text + "'");
  }
  if (tracer->enabled()) {
    uint64_t root = tracer->Add("question", id, 0, start, Clock::now());
    for (size_t m = 0; m < spans.size(); ++m) {
      tracer->Add("service." + MethodNames()[m], id, root, spans[m].first,
                  spans[m].second);
    }
  }
  return true;
}

}  // namespace

void RunAnalyst(const Args& args, Output* out) {
  Tracer tracer(args.trace);
  out->Note("workload analyst scale=" + std::to_string(kScale) +
            " workers=1 clients=1 closed_loop cache_capacity=0"
            " methods=enumerate,mtjnt,discover,banks tmax=4");
  const std::vector<claks::SearchOptions> methods = MethodOptions();
  std::vector<std::string> pool = QuestionPool();
  SeededRng order(args.seed);
  std::vector<std::string> questions;
  while (questions.size() < 4000) {
    std::vector<std::string> pass = pool;
    Shuffle(&pass, &order);
    questions.insert(questions.end(), pass.begin(), pass.end());
  }

  claks::ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 0;
  std::unique_ptr<claks::SearchService> service;
  double setup_s = 0;
  {
    // The data and a freshly built reference engine, freed once the gate
    // has run.
    auto generated = claks::GenerateCompanyDataset(
        claks::CompanyGenOptions::AtScale(kScale));
    if (!generated.ok()) return out->Fail("dataset generation failed");
    claks::GeneratedDataset dataset = std::move(generated).ValueOrDie();
    service = MedianCreate(dataset, options, kSetupReps, &tracer, &setup_s,
                           out);
    if (service == nullptr) return;

    // Gate: the service answers sampled questions, every method, exactly
    // as serial Search on a freshly built engine.
    auto built = claks::KeywordSearchEngine::Create(
        dataset.db.get(), dataset.er_schema, dataset.mapping);
    if (!built.ok()) return out->Fail("engine build failed");
    std::vector<Request> sample;
    for (size_t q = 0; q < 2; ++q) {
      for (const claks::SearchOptions& m : methods) {
        Request r;
        r.text = questions[q];
        r.options = m;
        sample.push_back(r);
      }
    }
    GateService(service.get(), *built.ValueOrDie(), sample, out);
    if (!out->correct) return;
  }
  ResetPeakRss(out);

  const double waits_before = PoolBackpressureWaits();
  auto loop = [&](double seconds, bool profile,
                  std::vector<QuestionRun>* runs) {
    const Clock::time_point stop =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (size_t q = 0; Clock::now() < stop && q < questions.size(); ++q) {
      QuestionRun run;
      if (!AskQuestion(service.get(), questions[q], methods, profile, q + 1,
                       &tracer, &run, out)) {
        return;
      }
      runs->push_back(run);
    }
  };
  std::vector<QuestionRun> runs;
  double trace_overhead = 0;
  if (!args.trace) {
    loop(args.seconds, false, &runs);
  } else {
    std::vector<QuestionRun> plain;
    loop(args.seconds / 2, false, &plain);
    loop(args.seconds / 2, true, &runs);
    std::vector<double> a, b;
    for (const QuestionRun& r : plain) a.push_back(r.total_ms);
    for (const QuestionRun& r : runs) b.push_back(r.total_ms);
    trace_overhead = Median(b) / Median(a);
  }
  if (!out->correct) return;

  std::vector<double> latencies;
  std::vector<std::vector<double>> per_method(methods.size());
  std::vector<Completion> completions;
  for (const QuestionRun& r : runs) {
    latencies.push_back(r.total_ms);
    for (size_t m = 0; m < r.method_ms.size(); ++m) {
      per_method[m].push_back(r.method_ms[m]);
      Completion c;
      c.ok = true;
      c.latency_ms = r.method_ms[m];
      c.engine_ms = r.engine_ms[m];
      c.send_lag_ms = r.gap_ms[m];
      completions.push_back(c);
    }
  }
  double seconds = 0;
  for (double ms : latencies) seconds += ms / 1000.0;
  for (size_t m = 0; m < methods.size(); ++m) {
    char line[160];
    std::snprintf(line, sizeof(line), "method=%s n=%zu p50_ms=%.3f max_ms=%.3f",
                  MethodNames()[m].c_str(), per_method[m].size(),
                  Median(per_method[m]), Percentile(per_method[m], 1.0));
    out->Note(line);
  }
  const auto [tail_q, tail_ms] = TailPercentile(latencies);
  char line[160];
  std::snprintf(line, sizeof(line),
                "closed_loop questions=%zu query_tail_percentile=%.4f",
                latencies.size(), tail_q);
  out->Note(line);

  if (!args.trace) {
    out->Set("setup_s", setup_s, "s");
    out->Set("query_p50_ms", Median(latencies), "ms");
    out->Set("query_tail_ms", tail_ms, "ms");
    out->Set("throughput_per_s",
             seconds > 0 ? static_cast<double>(latencies.size()) / seconds : 0,
             "1/s");
    out->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  std::shared_ptr<const claks::EngineSnapshot> current = service->snapshot();
  std::vector<Request> replay;
  std::vector<double> banks_visited;
  for (size_t q = 0; q < 6; ++q) {
    for (const claks::SearchOptions& m : methods) {
      Request r;
      r.id = replay.size() + 1;
      r.cls = replay.size() % methods.size();
      r.text = questions[q];
      r.options = m;
      replay.push_back(r);
    }
  }
  std::vector<LayerSample> layers =
      ReplayLayers(*current->engine, replay, &tracer, out);
  NoteLayerClasses(MethodNames(), layers, out);
  for (const LayerSample& s : layers) {
    if (methods[s.cls].method == claks::SearchMethod::kBanks) {
      banks_visited.push_back(s.expansions);
    }
  }
  ReportReadLayers(layers, banks_visited, out);
  ReportCoverage(layers, out);
  ReportServiceLayer(completions, waits_before, out);
  out->Set("bench.trace_overhead", trace_overhead, "ratio");
  Request probe;
  probe.text = questions[0];
  probe.options = methods[3];
  ReportStorageLayer(*current->engine,
                     args.out_dir + "/analyst_layer_" +
                         std::to_string(args.seed) + ".snap",
                     probe, 3, &tracer, out);
  ReportBuildLayer(*current, 3, &tracer, out);
  BatchSource batches(*current->db, args.seed);
  ReportWriteReplay(*current, batches, 200, &tracer, out);
  ReportServiceWrites(service.get(), batches, 200, out);
  const std::string trace_path =
      args.out_dir + "/trace_analyst_" + std::to_string(args.seed) + ".json";
  if (tracer.WriteChromeJson(trace_path)) out->Note("trace " + trace_path);
}

}  // namespace perfbench
