// Copyright 2026 The claks Authors.
//
// Shared pieces of the claks benchmark program: seeded request sequences
// and Poisson schedules, the open-loop and saturation runners, tail
// percentiles, result fingerprints for the correctness gate, spans written
// out as Chrome-trace JSON, and the one-line JSON result.
//
// Everything here reaches the library only through its public headers.

#ifndef CLAKS_PERFBENCH_HARNESS_H_
#define CLAKS_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "datasets/company_gen.h"
#include "service/search_service.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer;

double MsBetween(Clock::time_point from, Clock::time_point to);
double MsSince(Clock::time_point from);

// --------------------------------------------------------------------------
// Arguments, output
// --------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// What one run reports. The JSON line lists metrics by name.
struct Output {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable `# key value` lines printed before the JSON line.
  std::vector<std::string> notes;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Note(const std::string& line) { notes.push_back(line); }
  /// Marks the run incorrect and records why.
  void Fail(const std::string& why);
};

/// Prints the notes and then the result JSON as the last stdout line.
void PrintOutput(const Output& out);

// --------------------------------------------------------------------------
// Statistics
// --------------------------------------------------------------------------

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest percentile with at least `beyond` samples above it: with n
/// samples, the (n - beyond)-th smallest. Returns {fraction, value}; the
/// fraction is (n - beyond) / n. With fewer than 2 * beyond samples it is
/// the median.
std::pair<double, double> TailPercentile(std::vector<double> values,
                                         size_t beyond = 10);

/// Peak resident set size of this process since the last ResetPeakRss
/// (or since it started), in MiB: VmHWM from /proc/self/status.
double PeakRssMb();

/// Hands freed heap back to the system and restarts the peak at the
/// current resident set (writes "5" to /proc/self/clear_refs), so that
/// PeakRssMb measures the traffic, not the set-up and the reference copies
/// freed before it. Notes when the kernel does not allow the reset.
void ResetPeakRss(Output* out);

// --------------------------------------------------------------------------
// Seeded inputs
// --------------------------------------------------------------------------

/// SplitMix64: a small, portable, seedable generator (the same seed gives
/// the same stream on every platform and standard library).
class SeededRng {
 public:
  explicit SeededRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n).
  size_t Index(size_t n);
  /// Exponential with the given rate (mean 1 / rate).
  double Exponential(double rate);

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>* items, SeededRng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    std::swap((*items)[i - 1], (*items)[rng->Index(i)]);
  }
}

/// The generator's vocabulary (datasets/company_gen.cc): 12 surnames, 12
/// given names and 12 topics; plus the `deptN` department names.
const std::vector<std::string>& Surnames();
const std::vector<std::string>& GivenNames();
const std::vector<std::string>& Topics();

/// One request of a workload: what to ask and when.
struct Request {
  size_t id = 0;
  size_t cls = 0;  ///< index into the workload's class names
  std::string text;
  claks::SearchOptions options;
  double send_at_s = 0;  ///< scheduled offset from the start of the phase
};

/// A request class: its name, its share of the sequence, and a pool of
/// query texts. Sequences are stratified: each block of `block` requests
/// holds exactly round(share * block) requests of every class, in seeded
/// order, and each class walks through seeded shuffles of its whole pool,
/// so every run sees the same class mix and near-identical query sets.
struct RequestClass {
  std::string name;
  size_t per_block = 0;
  std::vector<std::string> pool;
  claks::SearchOptions options;
};

std::vector<Request> MakeSequence(const std::vector<RequestClass>& classes,
                                  size_t count, uint64_t seed);

/// kStream, top 10, at most 3 foreign-key edges: the interactive options.
claks::SearchOptions StreamOptions();

/// `pair_frequent`: every name x topic pair (288), with StreamOptions.
RequestClass PairFrequentClass(size_t per_block);

/// Stamps Poisson arrival times at `rate` per second onto `requests`.
void StampPoisson(std::vector<Request>* requests, double rate,
                  uint64_t seed);

// --------------------------------------------------------------------------
// Runners
// --------------------------------------------------------------------------

/// What one executed request yields.
struct Completion {
  size_t index = 0;      ///< position in the request vector
  double latency_ms = 0;  ///< ready time minus scheduled (or sent) time
  double send_lag_ms = 0; ///< how late the generator sent it
  bool ok = false;
  /// The engine's own time for the request (QueryProfile total), when the
  /// result carried a profile; negative otherwise.
  double engine_ms = -1;
  Clock::time_point due;    ///< scheduled (open loop) or actual send time
  Clock::time_point ready;  ///< when the result was seen ready
};

using SubmitFn = std::function<std::future<claks::Result<claks::SearchResult>>(
    const Request&)>;

/// Open loop: sends requests[i] at start + send_at_s from the calling
/// thread, whatever the state of earlier requests, and times each from
/// its scheduled send time to the moment its result is ready (found by
/// polling the outstanding futures between sends). Runs until every
/// request whose send time falls before `duration_s` is sent and answered.
std::vector<Completion> RunOpenLoop(const std::vector<Request>& requests,
                                    double duration_s,
                                    const SubmitFn& submit);

/// Saturation: sends every request of `requests`, keeping `window` in
/// flight, and returns requests completed per second. A fixed amount of
/// work (whole blocks of the class mix), not a fixed time, so the result
/// does not depend on which classes happen to be in flight at a deadline.
/// The completions land in `done` (latency from send time).
double RunSaturated(const std::vector<Request>& requests, size_t window,
                    const SubmitFn& submit, std::vector<Completion>* done);

// --------------------------------------------------------------------------
// Correctness
// --------------------------------------------------------------------------

/// Byte-comparable form of a hit: rendering, structural facts, text
/// score and ambiguity (doubles in %.17g).
std::string Fingerprint(const claks::SearchHit& hit);

/// The correctness gate: each request of `sample` through the service
/// (SearchNow) must match serial KeywordSearchEngine::Search on `engine`.
void GateService(claks::SearchService* service,
                 const claks::KeywordSearchEngine& engine,
                 const std::vector<Request>& sample, Output* out);

/// The first `per_class` requests of every class in `requests`.
std::vector<Request> SamplePerClass(const std::vector<Request>& requests,
                                    size_t per_class);

// --------------------------------------------------------------------------
// Set-up
// --------------------------------------------------------------------------

/// SearchService::Create on a fresh clone of `dataset`, `reps` times in
/// this process; `setup_s` receives the median in seconds. The last
/// service serves the workload; null on failure (recorded in `out`).
std::unique_ptr<claks::SearchService> MedianCreate(
    const claks::GeneratedDataset& dataset,
    const claks::ServiceOptions& options, size_t reps, Tracer* tracer,
    double* setup_s, Output* out);

// --------------------------------------------------------------------------
// Tracing
// --------------------------------------------------------------------------

/// Spans recorded by the benchmark's own code around public calls, kept in
/// memory and written out as Chrome-trace JSON at exit. Single-threaded:
/// every span is recorded from the thread that drives the workload.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a complete span; returns its id (0 when disabled).
  uint64_t Add(const std::string& name, uint64_t request_id,
               uint64_t parent, Clock::time_point start,
               Clock::time_point end);

  /// Writes {"traceEvents": [...]}; request ids and parents go in args.
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t request = 0;
    uint64_t parent = 0;
    double start_us = 0;
    double dur_us = 0;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Records a `request` span per completion (scheduled send to ready) with
/// `service.queue_wait` and `service.engine` children split by the
/// engine's own QueryProfile total.
void AddRequestSpans(const std::vector<Request>& requests,
                     const std::vector<Completion>& completions,
                     Tracer* tracer);

/// The traced run's traffic: the first half of `seconds` untraced, the
/// second with SearchOptions::profile on and request spans recorded.
/// Returns the traced half's completions; `overhead` receives the traced
/// over the untraced median latency. The untraced half counts towards
/// attempted/failed.
std::vector<Completion> RunOpenLoopTraced(const std::vector<Request>& requests,
                                          double seconds,
                                          const SubmitFn& submit,
                                          Tracer* tracer, double* overhead,
                                          Output* out);

/// Counts attempted/failed from completions; returns their latencies.
std::vector<double> Latencies(const std::vector<Completion>& completions,
                              Output* out);

/// The median, over `windows` consecutive slices of the successful
/// `completions` in send order, of each slice's TailPercentile. Steadier
/// than one tail of the whole run when the tail is made of rare stalls: a
/// burst of host noise moves one slice. Returns {slice fraction, value}.
std::pair<double, double> WindowedTail(
    const std::vector<Completion>& completions, size_t windows);

/// Notes the p50 latency of each class.
void NoteClassLatencies(const std::vector<std::string>& class_names,
                        const std::vector<Request>& requests,
                        const std::vector<Completion>& completions,
                        const std::string& label, Output* out);

// --------------------------------------------------------------------------
// Layer measurements shared by every workload's traced run
// --------------------------------------------------------------------------

/// Per-request layer timings from replaying requests serially through
/// KeywordSearchEngine::Prepare, PreparedQuery::Open and
/// ResultCursor::Next(10) with profiling on, each call wrapped in a span.
struct LayerSample {
  size_t cls = 0;  ///< the request's class
  double prepare_ms = 0;
  double open_ms = 0;
  double next_ms = 0;  ///< all Next(10) calls of the request
  /// A separate KeywordSearchEngine::Search of the same request: the
  /// end-to-end time the layer times are checked against.
  double search_ms = 0;
  double matches = 0;  ///< tuples matched, summed over keywords
  double expansions = 0;
  double hits = 0;
  double stream_ns = 0, analyze_ns = 0, rank_ns = 0, total_ns = 0;
};

std::vector<LayerSample> ReplayLayers(const claks::KeywordSearchEngine& engine,
                                      const std::vector<Request>& requests,
                                      Tracer* tracer, Output* out);

/// Notes per-class medians of the replay: prepare/open/next times, work
/// counts, stage shares and layer coverage.
void NoteLayerClasses(const std::vector<std::string>& class_names,
                      const std::vector<LayerSample>& samples, Output* out);

/// Sets the text./core./graph. read-path metrics from replay samples.
/// `banks_visited` are BANKS work counts (graph layer).
void ReportReadLayers(const std::vector<LayerSample>& samples,
                      const std::vector<double>& banks_visited, Output* out);

/// Storage round trip of `engine`: SaveSnapshot, LoadSnapshot (median of
/// `reps`), and the first query on the loaded engine.
void ReportStorageLayer(const claks::KeywordSearchEngine& engine,
                        const std::string& path, const Request& probe,
                        size_t reps, Tracer* tracer, Output* out);

/// Times KeywordSearchEngine::Create and SearchService::Create on clones
/// of the database of `snapshot`, with its engine's schema and mapping
/// (median of `reps`).
void ReportBuildLayer(const claks::EngineSnapshot& snapshot, size_t reps,
                      Tracer* tracer, Output* out);

/// The single-row write batches of the churn workload, in groups of four:
/// insert a dependent of employee E, insert a WORKS_ON row of E on a
/// project E does not work on, then delete both, so table sizes hold
/// steady. Each inserted dependent's name carries a marker word of its own
/// group, so queries can reach exactly the rows a group inserted.
/// Deterministic in (dataset, seed).
class BatchSource {
 public:
  BatchSource(const claks::Database& db, uint64_t seed);
  /// Applies batch number `n` to `db`.
  claks::Status Apply(size_t n, claks::Database* db) const;
  /// Query texts that reach the rows of the last group after batches
  /// [0, applied) ran, where applied % 4 == 2 (both inserts live):
  /// "<marker> <E's surname>" (DEPENDENT -> EMPLOYEE) and "<marker> <the
  /// project's number>" (through the new WORKS_ON row). `deleted` gets the
  /// first of these for the group before, whose rows are gone.
  std::vector<std::string> LiveProbes(size_t applied,
                                      std::string* deleted) const;

 private:
  struct Group {
    std::string employee;  ///< SSN
    std::string surname;
    std::string project;         ///< ID
    std::string project_number;  ///< the number in the project's name
  };
  const Group& GroupOf(size_t k) const { return groups_[k % groups_.size()]; }
  std::string Marker(size_t k) const;

  std::vector<Group> groups_;
  uint64_t seed_;
};

/// Write-path layer numbers. Replays batches [0, count) through
/// Database::Clone, TakeWatermark + ComputeDelta and
/// KeywordSearchEngine::Derive on a private chain started from `start`,
/// and times a compacting Derive separately.
void ReportWriteReplay(const claks::EngineSnapshot& start,
                       const BatchSource& batches, size_t count,
                       Tracer* tracer, Output* out);

/// Mutate timings of a series of batches.
struct WriteLog {
  std::vector<double> apply_ms;   ///< the mutation lambda
  std::vector<double> mutate_ms;  ///< the whole SearchService::Mutate call
  size_t overlay_max = 0;         ///< max overlay_ops() seen after a batch
  size_t overlay_last = 0;        ///< overlay_ops() after the last batch
  size_t failed = 0;
};

/// Applies batch `n` through `service->Mutate`, logging its timings.
bool MutateOnce(claks::SearchService* service, const BatchSource& batches,
                size_t n, WriteLog* log);

/// Sets relational.apply / service.publish / core.compactions_per_k /
/// core.overlay_ops_max from `log` and the compactions it caused.
void ReportWriteLog(const WriteLog& log, uint64_t compactions, Output* out);

/// Runs batches [0, count) through `service->Mutate` and reports them.
/// Used by workloads whose traffic has no writes of its own.
void ReportServiceWrites(claks::SearchService* service,
                         const BatchSource& batches, size_t count,
                         Output* out);

/// Sets the service.* and bench.* metrics shared by all workloads: queue
/// wait (latency minus the engine's own QueryProfile total), pool
/// backpressure waits since `pool_waits_before`, and generator lateness.
void ReportServiceLayer(const std::vector<Completion>& completions,
                        double pool_waits_before, Output* out);

/// Process-wide claks_pool_backpressure_waits_total.
double PoolBackpressureWaits();

/// Summed layer time (Prepare + Open + Next) over the separately timed
/// Search of the same requests (validity check; near 1 when the layers
/// account for the whole request).
void ReportCoverage(const std::vector<LayerSample>& samples, Output* out);

/// Records host and configuration facts as notes.
void NoteHost(Output* out);

// --------------------------------------------------------------------------
// Workloads and self-tests
// --------------------------------------------------------------------------

void RunBrowse(const Args& args, Output* out);
void RunAnalyst(const Args& args, Output* out);
void RunChurn(const Args& args, Output* out);

/// Harness self-tests; failures mark `out` incorrect.
void RunSelfTests(Output* out);

}  // namespace perfbench

#endif  // CLAKS_PERFBENCH_HARNESS_H_
