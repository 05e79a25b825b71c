// Copyright 2026 The claks Authors.
//
// `browse`: the interactive read path. A 300x company_gen database is
// built and saved as a snapshot before timing; set-up is the cold start
// from that snapshot (SearchService::CreateFromSnapshot until the first
// answered query). Traffic is an open loop of Poisson arrivals from one
// generator thread into a 3-worker service with the result cache off,
// over four request classes with fixed shares; a second phase keeps the
// pool saturated to measure throughput.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

constexpr size_t kScale = 300;
constexpr size_t kWorkers = 3;          // + the generator thread = 4
constexpr double kRate = 24.0;           // requests/s, about a quarter of capacity
constexpr size_t kSaturationWindow = 6;  // requests in flight, 2 per worker
constexpr double kOpenShare = 0.8;       // of --seconds; the rest saturates
// Throughput at saturation measured with the seed, for sizing the
// saturation phase to about (1 - kOpenShare) * --seconds of whole blocks.
constexpr double kSeedCapacity = 85.0;
constexpr size_t kSetupReps = 21;

const std::vector<std::string>& ClassNames() {
  static const std::vector<std::string> kNames = {
      "pair_frequent", "pair_selective", "triple", "single"};
  return kNames;
}

/// The four classes, with pools drawn from `seed`. Shares per block of
/// 100: 75 / 15 / 7 / 3.
std::vector<RequestClass> BrowseClasses(uint64_t seed, size_t departments) {
  SeededRng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<std::string> names = Surnames();
  names.insert(names.end(), GivenNames().begin(), GivenNames().end());

  RequestClass frequent = PairFrequentClass(75);
  // Selective: one pair per vocabulary word with a seeded department.
  RequestClass selective{"pair_selective", 15, {}, StreamOptions()};
  std::vector<std::string> words = names;
  words.insert(words.end(), Topics().begin(), Topics().end());
  for (const std::string& word : words) {
    selective.pool.push_back("dept" +
                             std::to_string(1 + rng.Index(departments)) +
                             " " + word);
  }
  claks::SearchOptions banks;
  banks.method = claks::SearchMethod::kBanks;
  banks.top_k = 10;
  RequestClass triple{"triple", 7, {}, banks};
  std::vector<std::string> surnames = Surnames(), given = GivenNames(),
                           topics = Topics();
  Shuffle(&given, &rng);
  Shuffle(&topics, &rng);
  for (size_t i = 0; i < surnames.size(); ++i) {
    triple.pool.push_back(surnames[i] + " " + topics[i] + " " + given[i]);
  }
  // Single: one topic keyword. Topics match alike (each appears in the
  // descriptions of every department and project with the same odds), so
  // the class is one cost mode, not several.
  RequestClass single{"single", 3, Topics(), StreamOptions()};
  return {frequent, selective, triple, single};
}

}  // namespace

void RunBrowse(const Args& args, Output* out) {
  Tracer tracer(args.trace);
  out->Note("workload browse scale=" + std::to_string(kScale) +
            " workers=" + std::to_string(kWorkers) +
            " generator_threads=1 cache_capacity=0 rate_per_s=" +
            std::to_string(kRate) + " saturation_window=" +
            std::to_string(kSaturationWindow));

  const std::vector<RequestClass> classes =
      BrowseClasses(args.seed, kScale * 5);
  const double open_s = args.seconds * kOpenShare;
  std::vector<Request> requests = MakeSequence(
      classes, static_cast<size_t>(kRate * open_s * 1.5) + 100, args.seed);
  StampPoisson(&requests, kRate, args.seed);

  claks::ServiceOptions options;
  options.num_threads = kWorkers;
  options.cache_capacity = 0;
  std::unique_ptr<claks::SearchService> service;
  std::vector<double> setup_s;
  {
    // Data, a freshly built reference engine, and the snapshot file; all
    // freed once the gate has run.
    auto generated = claks::GenerateCompanyDataset(
        claks::CompanyGenOptions::AtScale(kScale));
    if (!generated.ok()) return out->Fail("dataset generation failed");
    claks::GeneratedDataset dataset = std::move(generated).ValueOrDie();
    auto built = claks::KeywordSearchEngine::Create(
        dataset.db.get(), dataset.er_schema, dataset.mapping);
    if (!built.ok()) return out->Fail("engine build failed");
    const claks::KeywordSearchEngine& engine = *built.ValueOrDie();
    const std::string snapshot =
        args.out_dir + "/browse_" + std::to_string(args.seed) + ".snap";
    claks::Status saved = engine.SaveSnapshot(snapshot);
    if (!saved.ok()) return out->Fail("SaveSnapshot: " + saved.ToString());

    // Set-up: cold start until the first answered query, repeated; the
    // last service serves the workload.
    for (size_t r = 0; r < kSetupReps; ++r) {
      service.reset();
      const Clock::time_point t0 = Clock::now();
      auto created =
          claks::SearchService::CreateFromSnapshot(snapshot, options);
      ++out->attempted;
      if (!created.ok()) {
        ++out->failed;
        return out->Fail("CreateFromSnapshot: " +
                         created.status().ToString());
      }
      service = std::move(created).ValueOrDie();
      auto first = service->SearchNow(classes[0].pool[0], classes[0].options);
      const Clock::time_point t1 = Clock::now();
      ++out->attempted;
      if (!first.ok()) {
        ++out->failed;
        return out->Fail("first query after cold start failed");
      }
      setup_s.push_back(MsBetween(t0, t1) / 1000.0);
      tracer.Add("setup.cold_start", 0, 0, t0, t1);
    }

    // The service maps the file; the name is no longer needed.
    std::remove(snapshot.c_str());

    // Gate: the snapshot-loaded service answers a sample of every class
    // exactly as serial Search on the freshly built engine.
    GateService(service.get(), engine, SamplePerClass(requests, 2), out);
    if (!out->correct) return;
  }
  ResetPeakRss(out);

  const SubmitFn submit = [&](const Request& r) {
    return service->Submit(r.text, r.options);
  };
  const double waits_before = PoolBackpressureWaits();
  std::vector<Completion> done;
  double trace_overhead = 0;
  if (!args.trace) {
    done = RunOpenLoop(requests, open_s, submit);
  } else {
    done = RunOpenLoopTraced(requests, open_s, submit, &tracer, &trace_overhead,
                             out);
  }
  std::vector<double> latencies = Latencies(done, out);
  NoteClassLatencies(ClassNames(), requests, done, "open_loop", out);
  const auto [tail_q, tail_ms] = TailPercentile(latencies);
  char line[200];
  std::snprintf(line, sizeof(line),
                "open_loop requests=%zu query_tail_percentile=%.4f",
                latencies.size(), tail_q);
  out->Note(line);

  if (!args.trace) {
    const size_t blocks = std::max<size_t>(
        1, static_cast<size_t>((args.seconds - open_s) * kSeedCapacity / 100.0 +
                               0.5));
    std::vector<Request> saturated = MakeSequence(
        classes, 100 * blocks, args.seed ^ 0xa0761d6478bd642fULL);
    std::vector<Completion> sat;
    const double qps =
        RunSaturated(saturated, kSaturationWindow, submit, &sat);
    std::vector<double> sat_latencies = Latencies(sat, out);
    std::snprintf(line, sizeof(line),
                  "saturated completions=%zu p99_ms=%.3f limit_ms=1000",
                  sat_latencies.size(), Percentile(sat_latencies, 0.99));
    out->Note(line);
    if (Percentile(sat_latencies, 0.99) > 1000.0) {
      out->Note("saturated p99 above the 1 s limit");
    }
    out->Set("setup_s", Median(setup_s), "s");
    out->Set("query_p50_ms", Median(latencies), "ms");
    out->Set("query_tail_ms", tail_ms, "ms");
    out->Set("throughput_per_s", qps, "1/s");
    out->Set("peak_rss_mb", PeakRssMb(), "MB");
    return;
  }

  // Traced run: per-layer numbers from public calls.
  std::shared_ptr<const claks::EngineSnapshot> current = service->snapshot();
  // One block of the sequence: the traffic's class mix.
  std::vector<Request> replay(requests.begin(), requests.begin() + 100);
  std::vector<LayerSample> layers =
      ReplayLayers(*current->engine, replay, &tracer, out);
  NoteLayerClasses(ClassNames(), layers, out);
  std::vector<double> banks_visited;
  for (const LayerSample& s : layers) {
    if (classes[s.cls].options.method == claks::SearchMethod::kBanks) {
      banks_visited.push_back(s.expansions);
    }
  }
  ReportReadLayers(layers, banks_visited, out);
  ReportCoverage(layers, out);
  ReportServiceLayer(done, waits_before, out);
  out->Set("bench.trace_overhead", trace_overhead, "ratio");
  ReportStorageLayer(*current->engine,
                     args.out_dir + "/browse_layer_" +
                         std::to_string(args.seed) + ".snap",
                     requests[0], 3, &tracer, out);
  ReportBuildLayer(*current, 3, &tracer, out);
  BatchSource batches(*current->db, args.seed);
  ReportWriteReplay(*current, batches, 200, &tracer, out);
  ReportServiceWrites(service.get(), batches, 200, out);
  const std::string trace_path =
      args.out_dir + "/trace_browse_" + std::to_string(args.seed) + ".json";
  if (tracer.WriteChromeJson(trace_path)) out->Note("trace " + trace_path);
}

}  // namespace perfbench
