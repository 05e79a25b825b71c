// Copyright 2026 The claks Authors.
//
// Process-wide metrics: named counters, gauges and log-bucketed latency
// histograms behind a registry with Prometheus-style text exposition
// (RenderText), a JSON snapshot (RenderJson) and a structured point-in-
// time Snapshot() the service layer re-derives ServiceStats from.
//
// Hot-path cost model: Counter::Inc is one relaxed fetch_add on a
// per-thread, cache-line-padded slot (no false sharing between
// worker threads); Histogram::Observe is two relaxed adds plus a relaxed
// max loop. Neither takes a lock. The registry's mutex guards only
// registration and read-side rendering. SetRecording(false) turns every
// write into a single relaxed load + branch — the A/B switch
// bench_observability uses to price the instrumentation itself.
//
// Naming discipline (enforced by tools/claks_lint.py, rule
// metric-naming): process-wide metrics are registered once at namespace
// scope through the CLAKS_METRIC_* macros and named
// claks_<subsystem>_<name>_<unit>. Instance registries (e.g. the
// per-service registry behind ServiceStats) use the same names and are
// exempt from the namespace-scope requirement only.

#ifndef CLAKS_OBSERVABILITY_METRICS_H_
#define CLAKS_OBSERVABILITY_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace claks {

namespace internal {

/// Global recording switch + round-robin thread slot assignment. The
/// externs live in metrics.cc; the accessors stay inline so Counter::Inc
/// compiles to a load, a branch and a fetch_add.
extern std::atomic<bool> g_metrics_recording;
extern std::atomic<size_t> g_metrics_next_slot;

inline bool MetricsRecording() {
  return g_metrics_recording.load(std::memory_order_relaxed);
}

inline size_t ThisThreadSlot() {
  thread_local const size_t slot =
      g_metrics_next_slot.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

}  // namespace internal

/// Monotonic counter, spread across cache-line-padded atomic slots
/// indexed by a per-thread round-robin id: concurrent Inc calls from the
/// pool's workers land on distinct lines. Value() sums the slots (exact:
/// every Inc is a relaxed add to exactly one slot).
class Counter {
 public:
  void Inc(uint64_t n = 1) {
    if (!internal::MetricsRecording()) return;
    slots_[internal::ThisThreadSlot() % kSlots].value.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Slot& slot : slots_) {
      total += slot.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  friend class MetricsRegistry;
  friend class CounterFamily;
  Counter() = default;

  static constexpr size_t kSlots = 16;
  struct alignas(64) Slot {
    std::atomic<uint64_t> value{0};
  };
  std::array<Slot, kSlots> slots_;
};

/// Instantaneous signed value (queue depths, open entries). Add/Sub keep
/// a running level; Set overwrites it.
class Gauge {
 public:
  void Set(int64_t value) {
    if (!internal::MetricsRecording()) return;
    value_.store(value, std::memory_order_relaxed);
  }
  void Add(int64_t delta) {
    if (!internal::MetricsRecording()) return;
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  void Sub(int64_t delta) { Add(-delta); }

  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  Gauge() = default;

  std::atomic<int64_t> value_{0};
};

/// Point-in-time view of one Histogram. Percentiles are bucket upper
/// bounds: for a true value v the estimate e satisfies v <= e < 2v (the
/// log-2 bucket's bounds), and e never exceeds the observed max.
struct HistogramSnapshot {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t max = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;

  /// Upper-bound estimate for quantile q in [0, 1] from the buckets.
  uint64_t Percentile(double q) const;

  /// bucket[i] counts observations v with bit-width i, i.e. v == 0 in
  /// bucket 0 and v in [2^(i-1), 2^i) in bucket i.
  std::array<uint64_t, 65> buckets{};
};

/// Log-2-bucketed histogram of non-negative integer observations
/// (latencies in microseconds, expansion counts). Lock-free: per-bucket
/// relaxed adds, relaxed CAS max.
class Histogram {
 public:
  void Observe(uint64_t value) {
    if (!internal::MetricsRecording()) return;
    buckets_[BucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  HistogramSnapshot Snapshot() const;

  /// Bucket index of a value: its bit width (0 for 0).
  static size_t BucketOf(uint64_t value) {
    size_t bits = 0;
    while (value != 0) {
      ++bits;
      value >>= 1;
    }
    return bits;
  }

 private:
  friend class MetricsRegistry;
  friend class HistogramFamily;
  Histogram() = default;

  std::array<std::atomic<uint64_t>, 65> buckets_{};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// A labeled set of counters sharing one metric name (e.g. queries by
/// method). With() materializes the series for a label-value tuple on
/// first use and returns the same Counter thereafter; the lookup takes
/// the family mutex, so call it once per query, not per candidate.
class CounterFamily {
 public:
  Counter& With(std::vector<std::string> label_values)
      CLAKS_EXCLUDES(mutex_);

  const std::vector<std::string>& label_names() const {
    return label_names_;
  }

 private:
  friend class MetricsRegistry;
  explicit CounterFamily(std::vector<std::string> label_names)
      : label_names_(std::move(label_names)) {}

  const std::vector<std::string> label_names_;
  mutable Mutex mutex_;
  std::map<std::vector<std::string>, std::unique_ptr<Counter>> series_
      CLAKS_GUARDED_BY(mutex_);
};

/// A labeled set of histograms sharing one metric name (e.g. query
/// latency by method and ranker). Same materialization contract as
/// CounterFamily.
class HistogramFamily {
 public:
  Histogram& With(std::vector<std::string> label_values)
      CLAKS_EXCLUDES(mutex_);

  const std::vector<std::string>& label_names() const {
    return label_names_;
  }

 private:
  friend class MetricsRegistry;
  explicit HistogramFamily(std::vector<std::string> label_names)
      : label_names_(std::move(label_names)) {}

  const std::vector<std::string> label_names_;
  mutable Mutex mutex_;
  std::map<std::vector<std::string>, std::unique_ptr<Histogram>> series_
      CLAKS_GUARDED_BY(mutex_);
};

/// One rendered series in a MetricsSnapshot: the metric name, its label
/// key/value pairs (empty for unlabeled metrics) and the value of the
/// matching kind.
struct MetricSeries {
  enum class Kind { kCounter, kGauge, kHistogram };

  std::string name;
  std::string help;
  Kind kind = Kind::kCounter;
  std::vector<std::pair<std::string, std::string>> labels;
  uint64_t counter = 0;
  int64_t gauge = 0;
  HistogramSnapshot histogram;
};

/// One-pass snapshot of a whole registry: the single source of truth
/// ServiceStats is re-derived from. Values are read in one sweep under
/// the registry mutex (individual atomics are still updated lock-free,
/// so the cut is per-metric-consistent, not a global barrier — but every
/// counter is read at one point of the same pass, unlike the scattered
/// per-field atomic loads the old hand-maintained ServiceStats did).
struct MetricsSnapshot {
  std::vector<MetricSeries> series;  ///< sorted by (name, labels)

  /// Value of the unlabeled counter `name`; 0 when absent. For labeled
  /// families, sums every series of the family.
  uint64_t CounterValue(const std::string& name) const;
  /// Value of the gauge `name`; 0 when absent.
  int64_t GaugeValue(const std::string& name) const;
  /// The histogram series `name` (unlabeled); empty snapshot if absent.
  HistogramSnapshot HistogramValue(const std::string& name) const;
};

/// Registry of named metrics. Get* registers on first call and returns
/// the same object on every later call with the same name (the kind must
/// match; a kind clash is a programming error and aborts). Metric
/// objects live as long as the registry; references returned by Get*
/// never dangle while it exists.
///
/// Two instantiation shapes: Default() is the process-wide registry the
/// CLI's metrics page renders (leaky singleton, safe from static
/// destructors, mirroring the log registry); instances (e.g. one per
/// SearchService) keep exact per-owner counts.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (never destroyed).
  static MetricsRegistry& Default();

  /// Global kill switch for every Counter/Gauge/Histogram write in the
  /// process (all registries): the bench's A/B lever for pricing the
  /// instrumentation. Reads (Value, Snapshot, Render*) are unaffected.
  static void SetRecording(bool recording);
  static bool recording() { return internal::MetricsRecording(); }

  Counter& GetCounter(const std::string& name, const std::string& help)
      CLAKS_EXCLUDES(mutex_);
  Gauge& GetGauge(const std::string& name, const std::string& help)
      CLAKS_EXCLUDES(mutex_);
  Histogram& GetHistogram(const std::string& name, const std::string& help)
      CLAKS_EXCLUDES(mutex_);
  CounterFamily& GetCounterFamily(const std::string& name,
                                  const std::string& help,
                                  std::vector<std::string> label_names)
      CLAKS_EXCLUDES(mutex_);
  HistogramFamily& GetHistogramFamily(const std::string& name,
                                      const std::string& help,
                                      std::vector<std::string> label_names)
      CLAKS_EXCLUDES(mutex_);

  MetricsSnapshot Snapshot() const CLAKS_EXCLUDES(mutex_);

  /// Prometheus-style text exposition: # HELP / # TYPE headers, one line
  /// per series, histograms as summaries (quantile 0.5/0.9/0.99/1 plus
  /// _sum and _count).
  std::string RenderText() const CLAKS_EXCLUDES(mutex_);

  /// The same snapshot as a JSON document (machine-readable twin of
  /// RenderText).
  std::string RenderJson() const CLAKS_EXCLUDES(mutex_);

 private:
  struct Entry {
    MetricSeries::Kind kind = MetricSeries::Kind::kCounter;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::unique_ptr<CounterFamily> counter_family;
    std::unique_ptr<HistogramFamily> histogram_family;
    bool is_family = false;
  };

  Entry& GetEntry(const std::string& name, const std::string& help,
                  MetricSeries::Kind kind, bool is_family)
      CLAKS_REQUIRES(mutex_);

  mutable Mutex mutex_;
  std::map<std::string, Entry> metrics_ CLAKS_GUARDED_BY(mutex_);
};

}  // namespace claks

/// Namespace-scope registration of process-wide metrics (the shape the
/// metric-naming lint rule expects): expands to a reference binding
/// against the Default() registry, e.g.
///   CLAKS_METRIC_COUNTER(g_storage_saves, "claks_storage_saves_total",
///                        "Engine snapshots serialized to disk");
#define CLAKS_METRIC_COUNTER(var, name, help)      \
  ::claks::Counter& var =                          \
      ::claks::MetricsRegistry::Default().GetCounter(name, help)

#define CLAKS_METRIC_GAUGE(var, name, help)        \
  ::claks::Gauge& var =                            \
      ::claks::MetricsRegistry::Default().GetGauge(name, help)

#define CLAKS_METRIC_HISTOGRAM(var, name, help)    \
  ::claks::Histogram& var =                        \
      ::claks::MetricsRegistry::Default().GetHistogram(name, help)

#define CLAKS_METRIC_COUNTER_FAMILY(var, name, help, ...)         \
  ::claks::CounterFamily& var =                                   \
      ::claks::MetricsRegistry::Default().GetCounterFamily(       \
          name, help, {__VA_ARGS__})

#define CLAKS_METRIC_HISTOGRAM_FAMILY(var, name, help, ...)       \
  ::claks::HistogramFamily& var =                                 \
      ::claks::MetricsRegistry::Default().GetHistogramFamily(     \
          name, help, {__VA_ARGS__})

#endif  // CLAKS_OBSERVABILITY_METRICS_H_
