// Copyright 2026 The claks Authors.
//
// `churn`: the write path under reads. A 300x company_gen database is
// built in-process (set-up = SearchService::Create, median of repeats)
// into a 2-worker service with the result cache off. The write batches are
// single rows — DEPENDENT and WORKS_ON inserts, each deleted again, so
// table sizes hold steady. Untimed batches first run through Mutate back
// to back for one compaction cycle and on to the middle of the next. Then
// `pair_frequent` reads are timed while a writer thread applies batches at
// a fixed rate: an open loop of Poisson arrivals for the latencies, then
// passes over the read pool with one read in flight per worker for the
// throughput. The write path (clone, delta, derive, compaction, publish)
// runs under every read; its own timings are notes and per-layer metrics,
// because its batches/s, memory-bound, spread between runs past the 0.25
// bound on a shared host (see README.md).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

constexpr size_t kScale = 300;
constexpr size_t kWorkers = 2;       // + generator + writer = 4 threads
constexpr double kReadRate = 25.0;   // reads/s, an eighth of the throughput
constexpr double kWriteRate = 10.0;  // batches/s while reads are timed
constexpr size_t kSetupReps = 11;
// query_tail_ms is the median of the tails of this many consecutive slices
// of the reads (see WindowedTail): one tail of the whole phase swung by
// 15% between runs of the same reads, the median of four by 6%.
constexpr size_t kTailWindows = 4;
// Throughput keeps one read in flight per worker: with two per worker all
// four threads were busy, and the rate was 10% lower and spread further
// between runs.
constexpr size_t kSaturationWindow = kWorkers;
constexpr double kOpenShare = 0.6;  // of --seconds; the rest is throughput
// Reads/s of the throughput phase measured with the seed, for sizing it to
// about (1 - kOpenShare) * --seconds of whole passes over the read pool.
constexpr double kSeedCapacity = 200.0;
// The default DeltaPolicy compacts after about 4,600 single-row batches
// at 300x; a cycle fails the run well past that.
constexpr size_t kMaxCycleBatches = 20000;

/// Reads: name x topic pairs, each pass over the pool in seeded order.
std::vector<Request> ReadSequence(uint64_t seed, size_t count) {
  std::vector<Request> requests =
      MakeSequence({PairFrequentClass(1)}, count, seed);
  StampPoisson(&requests, kReadRate, seed);
  return requests;
}

/// Applies batches *next, *next + 1, ... back to back until one compacts
/// the overlays. Returns how many it applied, or 0 if a batch failed or
/// none compacted within kMaxCycleBatches.
size_t RunCycle(claks::SearchService* service, const BatchSource& batches,
                size_t* next, WriteLog* log) {
  for (size_t k = 1; k <= kMaxCycleBatches; ++k) {
    if (!MutateOnce(service, batches, (*next)++, log)) return 0;
    if (log->overlay_last == 0) return k;
  }
  return 0;
}

/// The writer thread of the read phase: batches first, first + 1, ... at
/// kWriteRate until `stop` is set.
void RunWriter(claks::SearchService* service, const BatchSource& batches,
               size_t first, const std::atomic<bool>& stop, WriteLog* log) {
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; !stop.load(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) / kWriteRate)));
    if (stop.load()) break;
    MutateOnce(service, batches, first + i, log);
  }
}

}  // namespace

void RunChurn(const Args& args, Output* out) {
  Tracer tracer(args.trace);
  out->Note("workload churn scale=" + std::to_string(kScale) +
            " workers=" + std::to_string(kWorkers) +
            " generator_threads=1 writer_threads=1 cache_capacity=0"
            " read_rate_per_s=" + std::to_string(kReadRate) +
            " write_rate_per_s=" + std::to_string(kWriteRate) +
            " delta_policy=default");
  claks::ServiceOptions options;
  options.num_threads = kWorkers;
  // The result cache stays off: with it on, read latency under churn
  // climbs without bound as cached results accumulate (see README.md,
  // "Findings"), so no steady figure exists to guard.
  options.cache_capacity = 0;
  std::unique_ptr<claks::SearchService> service;
  double setup_s = 0;
  std::vector<Request> requests = ReadSequence(
      args.seed, static_cast<size_t>(kReadRate * args.seconds * 1.5) + 100);
  std::vector<Request> sample(requests.begin(), requests.begin() + 24);
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
    auto built = claks::KeywordSearchEngine::Create(
        dataset.db.get(), dataset.er_schema, dataset.mapping);
    if (!built.ok()) return out->Fail("engine build failed");
    GateService(service.get(), *built.ValueOrDie(), sample, out);
    if (!out->correct) return;
  }

  // The traced run replays writes from, and saves, the initial generation;
  // the untraced run lets it go, so that it does not count in peak_rss_mb.
  std::shared_ptr<const claks::EngineSnapshot> initial = service->snapshot();
  const BatchSource batches(*initial->db, args.seed);
  if (!args.trace) initial.reset();
  ResetPeakRss(out);
  const uint64_t compactions_before = service->stats().compactions;
  const double waits_before = PoolBackpressureWaits();
  const SubmitFn submit = [&](const Request& r) {
    return service->Submit(r.text, r.options);
  };

  // Untimed writes: one whole overlay cycle, ending with the batch that
  // compacts, then on to the middle of the next, so that the reads run on
  // generations with about 2,300 overlay ops over a compacted base.
  WriteLog writes;
  size_t next_batch = 0;
  const Clock::time_point writes_start = Clock::now();
  const size_t cycle = RunCycle(service.get(), batches, &next_batch, &writes);
  if (cycle == 0) return out->Fail("the first write cycle did not complete");
  while (next_batch < cycle + cycle / 2) {
    MutateOnce(service.get(), batches, next_batch++, &writes);
  }
  const double writes_s = MsSince(writes_start) / 1000.0;

  // Reads, with the writer applying batches at kWriteRate throughout.
  WriteLog mixed;
  std::atomic<bool> stop{false};
  std::thread writer(RunWriter, service.get(), std::cref(batches), next_batch,
                     std::cref(stop), &mixed);
  const double open_s = args.seconds * kOpenShare;
  std::vector<Completion> done;
  double trace_overhead = 0;
  if (!args.trace) {
    done = RunOpenLoop(requests, open_s, submit);
  } else {
    done = RunOpenLoopTraced(requests, open_s, submit, &tracer, &trace_overhead,
                             out);
  }
  double qps = 0;
  size_t saturated_reads = 0;
  if (!args.trace) {
    const RequestClass reads = PairFrequentClass(1);
    const size_t passes = std::max<size_t>(
        1, static_cast<size_t>((args.seconds - open_s) * kSeedCapacity /
                                   static_cast<double>(reads.pool.size()) +
                               0.5));
    const std::vector<Request> saturated = MakeSequence(
        {reads}, passes * reads.pool.size(), args.seed ^ 0xa0761d6478bd642fULL);
    // One rate per pass over the pool, the same reads in another order, and
    // their median: a burst of host load slows a pass or two, not all.
    std::vector<double> pass_rates;
    std::vector<Completion> sat;
    for (size_t p = 0; p < passes; ++p) {
      const auto first = saturated.begin() + p * reads.pool.size();
      pass_rates.push_back(RunSaturated(
          std::vector<Request>(first, first + reads.pool.size()),
          kSaturationWindow, submit, &sat));
    }
    qps = Median(pass_rates);
    saturated_reads = Latencies(sat, out).size();
  }
  stop = true;
  writer.join();
  const double peak_rss_mb = PeakRssMb();
  const std::vector<double> mixed_mutations = mixed.mutate_ms;
  size_t total_batches = next_batch + mixed.mutate_ms.size() + mixed.failed;
  writes.apply_ms.insert(writes.apply_ms.end(), mixed.apply_ms.begin(),
                         mixed.apply_ms.end());
  writes.mutate_ms.insert(writes.mutate_ms.end(), mixed.mutate_ms.begin(),
                          mixed.mutate_ms.end());
  writes.overlay_max = std::max(writes.overlay_max, mixed.overlay_max);
  writes.failed += mixed.failed;
  const uint64_t compactions = service->stats().compactions - compactions_before;

  // Untimed batches up to the second insert of a group, so that the final
  // generation holds live inserted rows for the gate to reach.
  WriteLog untimed;
  while (total_batches % 4 != 2) {
    MutateOnce(service.get(), batches, total_batches++, &untimed);
  }
  writes.failed += untimed.failed;
  out->attempted += total_batches;
  out->failed += writes.failed;
  if (writes.failed > 0) out->Fail("a Mutate batch failed");

  std::vector<double> latencies = Latencies(done, out);
  const auto [tail_q, tail_ms] = WindowedTail(done, kTailWindows);
  char line[240];
  std::snprintf(line, sizeof(line),
                "reads=%zu query_tail_percentile=%.4f tail_windows=%zu "
                "batches=%zu "
                "compactions=%llu compaction_share=%.5f",
                latencies.size(), tail_q, kTailWindows, total_batches,
                static_cast<unsigned long long>(compactions),
                static_cast<double>(compactions) /
                    static_cast<double>(total_batches));
  out->Note(line);
  std::snprintf(line, sizeof(line),
                "untimed_writes batches=%zu first_cycle=%zu batches_per_s=%.1f",
                next_batch, cycle, static_cast<double>(next_batch) / writes_s);
  out->Note(line);
  std::snprintf(line, sizeof(line),
                "read_phase writer mutation_p50_ms=%.4f mutation_p99_ms=%.4f "
                "batches=%zu saturated_reads=%zu window=%zu",
                Median(mixed_mutations), Percentile(mixed_mutations, 0.99),
                mixed_mutations.size(), saturated_reads, kSaturationWindow);
  out->Note(line);

  // Gate: the final generation, overlaid and holding the last group's
  // inserted rows, answers the sample and probes that reach those rows
  // exactly as an engine Create()d from the final database.
  std::shared_ptr<const claks::EngineSnapshot> final_snapshot =
      service->snapshot();
  const claks::KeywordSearchEngine& live = *final_snapshot->engine;
  auto rebuilt = claks::KeywordSearchEngine::Create(
      final_snapshot->db.get(), live.er_schema(), live.mapping());
  if (!rebuilt.ok()) return out->Fail("rebuild of the final database failed");
  const claks::KeywordSearchEngine& reference = *rebuilt.ValueOrDie();
  std::string deleted;
  std::vector<Request> probes;
  for (const std::string& text : batches.LiveProbes(total_batches, &deleted)) {
    Request probe;
    probe.text = text;
    probe.options = StreamOptions();
    auto reached = reference.Search(probe.text, probe.options);
    if (!reached.ok() || reached.ValueOrDie().hits.empty()) {
      out->Fail("live probe '" + text + "' reaches no inserted row");
    }
    probes.push_back(probe);
  }
  if (!deleted.empty()) {
    Request probe;
    probe.text = deleted;
    probe.options = StreamOptions();
    probes.push_back(probe);
  }
  out->Note("overlay_ops_final=" + std::to_string(live.overlay_ops()) +
            " live_probes=" + std::to_string(probes.size()));
  GateService(service.get(), reference, sample, out);
  GateService(service.get(), reference, probes, out);

  if (!args.trace) {
    out->Set("setup_s", setup_s, "s");
    out->Set("query_p50_ms", Median(latencies), "ms");
    out->Set("query_tail_ms", tail_ms, "ms");
    out->Set("throughput_per_s", qps, "1/s");
    out->Set("peak_rss_mb", peak_rss_mb, "MB");
    return;
  }

  std::vector<Request> replay(requests.begin(), requests.begin() + 48);
  std::vector<LayerSample> layers = ReplayLayers(live, replay, &tracer, out);
  NoteLayerClasses({"pair_frequent"}, layers, out);
  // Graph layer: BANKS over the same pairs.
  std::vector<Request> banks_replay(requests.begin(), requests.begin() + 12);
  for (Request& r : banks_replay) {
    r.options = claks::SearchOptions();
    r.options.method = claks::SearchMethod::kBanks;
    r.options.top_k = 10;
  }
  std::vector<double> banks_visited;
  for (const LayerSample& s : ReplayLayers(live, banks_replay, &tracer, out)) {
    banks_visited.push_back(s.expansions);
  }
  ReportReadLayers(layers, banks_visited, out);
  ReportCoverage(layers, out);
  ReportServiceLayer(done, waits_before, out);
  out->Set("bench.trace_overhead", trace_overhead, "ratio");
  ReportWriteLog(writes, compactions, out);
  ReportWriteReplay(*initial, batches, 200, &tracer, out);
  // Snapshots need a compact generation: the initial one.
  ReportStorageLayer(*initial->engine,
                     args.out_dir + "/churn_layer_" +
                         std::to_string(args.seed) + ".snap",
                     requests[0], 3, &tracer, out);
  ReportBuildLayer(*initial, 3, &tracer, out);
  const std::string trace_path =
      args.out_dir + "/trace_churn_" + std::to_string(args.seed) + ".json";
  if (tracer.WriteChromeJson(trace_path)) out->Note("trace " + trace_path);
}

}  // namespace perfbench
