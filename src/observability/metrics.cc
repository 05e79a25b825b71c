// Copyright 2026 The claks Authors.

#include "observability/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/macros.h"
#include "common/string_util.h"

namespace claks {

namespace internal {

std::atomic<bool> g_metrics_recording{true};
std::atomic<size_t> g_metrics_next_slot{0};

}  // namespace internal

uint64_t HistogramSnapshot::Percentile(double q) const {
  if (count == 0) return 0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the requested quantile, 1-based; ceil so p100 == the last
  // observation and p0 the first.
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  if (rank == 0) rank = 1;
  uint64_t cumulative = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank) {
      // Upper bound of bucket i (2^i - 1), clamped to the observed max
      // so estimates never exceed a value that actually occurred.
      uint64_t upper =
          i >= 64 ? ~uint64_t{0} : ((uint64_t{1} << i) - 1);
      return std::min(upper, max);
    }
  }
  return max;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  // Count derives from the bucket sweep itself so the percentile walk is
  // internally consistent even while writers race the read.
  for (size_t i = 0; i < buckets_.size(); ++i) {
    snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  snap.p50 = snap.Percentile(0.50);
  snap.p90 = snap.Percentile(0.90);
  snap.p99 = snap.Percentile(0.99);
  return snap;
}

Counter& CounterFamily::With(std::vector<std::string> label_values) {
  CLAKS_CHECK_EQ(label_values.size(), label_names_.size());
  MutexLock lock(&mutex_);
  std::unique_ptr<Counter>& slot = series_[std::move(label_values)];
  if (slot == nullptr) slot.reset(new Counter());
  return *slot;
}

Histogram& HistogramFamily::With(std::vector<std::string> label_values) {
  CLAKS_CHECK_EQ(label_values.size(), label_names_.size());
  MutexLock lock(&mutex_);
  std::unique_ptr<Histogram>& slot = series_[std::move(label_values)];
  if (slot == nullptr) slot.reset(new Histogram());
  return *slot;
}

MetricsRegistry& MetricsRegistry::Default() {
  // Leaky singleton (the log-registry pattern): metrics registered from
  // namespace-scope initializers and read from static destructors stay
  // valid for the whole process lifetime.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::SetRecording(bool recording) {
  internal::g_metrics_recording.store(recording,
                                      std::memory_order_relaxed);
}

MetricsRegistry::Entry& MetricsRegistry::GetEntry(
    const std::string& name, const std::string& help,
    MetricSeries::Kind kind, bool is_family) {
  auto it = metrics_.find(name);
  if (it != metrics_.end()) {
    // Re-registration must agree on the metric's shape; a clash means
    // two subsystems claimed one name for different things.
    CLAKS_CHECK(it->second.kind == kind);
    CLAKS_CHECK(it->second.is_family == is_family);
    return it->second;
  }
  Entry& entry = metrics_[name];
  entry.kind = kind;
  entry.help = help;
  entry.is_family = is_family;
  return entry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& help) {
  MutexLock lock(&mutex_);
  Entry& entry =
      GetEntry(name, help, MetricSeries::Kind::kCounter, false);
  if (entry.counter == nullptr) entry.counter.reset(new Counter());
  return *entry.counter;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& help) {
  MutexLock lock(&mutex_);
  Entry& entry = GetEntry(name, help, MetricSeries::Kind::kGauge, false);
  if (entry.gauge == nullptr) entry.gauge.reset(new Gauge());
  return *entry.gauge;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& help) {
  MutexLock lock(&mutex_);
  Entry& entry =
      GetEntry(name, help, MetricSeries::Kind::kHistogram, false);
  if (entry.histogram == nullptr) entry.histogram.reset(new Histogram());
  return *entry.histogram;
}

CounterFamily& MetricsRegistry::GetCounterFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names) {
  MutexLock lock(&mutex_);
  Entry& entry = GetEntry(name, help, MetricSeries::Kind::kCounter, true);
  if (entry.counter_family == nullptr) {
    entry.counter_family.reset(new CounterFamily(std::move(label_names)));
  }
  return *entry.counter_family;
}

HistogramFamily& MetricsRegistry::GetHistogramFamily(
    const std::string& name, const std::string& help,
    std::vector<std::string> label_names) {
  MutexLock lock(&mutex_);
  Entry& entry =
      GetEntry(name, help, MetricSeries::Kind::kHistogram, true);
  if (entry.histogram_family == nullptr) {
    entry.histogram_family.reset(
        new HistogramFamily(std::move(label_names)));
  }
  return *entry.histogram_family;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  MutexLock lock(&mutex_);
  for (const auto& [name, entry] : metrics_) {
    auto base = [&](const Entry& e) {
      MetricSeries series;
      series.name = name;
      series.help = e.help;
      series.kind = e.kind;
      return series;
    };
    if (!entry.is_family) {
      MetricSeries series = base(entry);
      switch (entry.kind) {
        case MetricSeries::Kind::kCounter:
          series.counter = entry.counter->Value();
          break;
        case MetricSeries::Kind::kGauge:
          series.gauge = entry.gauge->Value();
          break;
        case MetricSeries::Kind::kHistogram:
          series.histogram = entry.histogram->Snapshot();
          break;
      }
      snapshot.series.push_back(std::move(series));
      continue;
    }
    if (entry.kind == MetricSeries::Kind::kCounter) {
      CounterFamily& family = *entry.counter_family;
      MutexLock family_lock(&family.mutex_);
      for (const auto& [values, counter] : family.series_) {
        MetricSeries series = base(entry);
        for (size_t i = 0; i < values.size(); ++i) {
          series.labels.emplace_back(family.label_names_[i], values[i]);
        }
        series.counter = counter->Value();
        snapshot.series.push_back(std::move(series));
      }
    } else {
      HistogramFamily& family = *entry.histogram_family;
      MutexLock family_lock(&family.mutex_);
      for (const auto& [values, histogram] : family.series_) {
        MetricSeries series = base(entry);
        for (size_t i = 0; i < values.size(); ++i) {
          series.labels.emplace_back(family.label_names_[i], values[i]);
        }
        series.histogram = histogram->Snapshot();
        snapshot.series.push_back(std::move(series));
      }
    }
  }
  return snapshot;
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  uint64_t total = 0;
  for (const MetricSeries& s : series) {
    if (s.name == name && s.kind == MetricSeries::Kind::kCounter) {
      total += s.counter;
    }
  }
  return total;
}

int64_t MetricsSnapshot::GaugeValue(const std::string& name) const {
  for (const MetricSeries& s : series) {
    if (s.name == name && s.kind == MetricSeries::Kind::kGauge) {
      return s.gauge;
    }
  }
  return 0;
}

HistogramSnapshot MetricsSnapshot::HistogramValue(
    const std::string& name) const {
  for (const MetricSeries& s : series) {
    if (s.name == name && s.kind == MetricSeries::Kind::kHistogram &&
        s.labels.empty()) {
      return s.histogram;
    }
  }
  return HistogramSnapshot();
}

namespace {

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string LabelBlock(
    const std::vector<std::pair<std::string, std::string>>& labels,
    const std::string& extra_key = "", const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
  }
  if (!extra_key.empty()) {
    if (!first) out += ",";
    out += extra_key + "=\"" + extra_value + "\"";
  }
  out += "}";
  return out;
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace

std::string MetricsRegistry::RenderText() const {
  MetricsSnapshot snapshot = Snapshot();
  std::string out;
  std::string last_name;
  for (const MetricSeries& s : snapshot.series) {
    if (s.name != last_name) {
      last_name = s.name;
      out += "# HELP " + s.name + " " + s.help + "\n";
      switch (s.kind) {
        case MetricSeries::Kind::kCounter:
          out += "# TYPE " + s.name + " counter\n";
          break;
        case MetricSeries::Kind::kGauge:
          out += "# TYPE " + s.name + " gauge\n";
          break;
        case MetricSeries::Kind::kHistogram:
          out += "# TYPE " + s.name + " summary\n";
          break;
      }
    }
    switch (s.kind) {
      case MetricSeries::Kind::kCounter:
        out += s.name + LabelBlock(s.labels) +
               StrFormat(" %llu\n",
                         static_cast<unsigned long long>(s.counter));
        break;
      case MetricSeries::Kind::kGauge:
        out += s.name + LabelBlock(s.labels) +
               StrFormat(" %lld\n", static_cast<long long>(s.gauge));
        break;
      case MetricSeries::Kind::kHistogram: {
        const HistogramSnapshot& h = s.histogram;
        auto quantile = [&](const char* q, uint64_t value) {
          out += s.name + LabelBlock(s.labels, "quantile", q) +
                 StrFormat(" %llu\n",
                           static_cast<unsigned long long>(value));
        };
        quantile("0.5", h.p50);
        quantile("0.9", h.p90);
        quantile("0.99", h.p99);
        quantile("1", h.max);
        out += s.name + "_sum" + LabelBlock(s.labels) +
               StrFormat(" %llu\n", static_cast<unsigned long long>(h.sum));
        out += s.name + "_count" + LabelBlock(s.labels) +
               StrFormat(" %llu\n",
                         static_cast<unsigned long long>(h.count));
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  MetricsSnapshot snapshot = Snapshot();
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const MetricSeries& s : snapshot.series) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"" + JsonEscape(s.name) + "\",\"labels\":{";
    bool first_label = true;
    for (const auto& [key, value] : s.labels) {
      if (!first_label) out += ",";
      first_label = false;
      out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
    }
    out += "},";
    switch (s.kind) {
      case MetricSeries::Kind::kCounter:
        out += StrFormat("\"kind\":\"counter\",\"value\":%llu",
                         static_cast<unsigned long long>(s.counter));
        break;
      case MetricSeries::Kind::kGauge:
        out += StrFormat("\"kind\":\"gauge\",\"value\":%lld",
                         static_cast<long long>(s.gauge));
        break;
      case MetricSeries::Kind::kHistogram:
        out += StrFormat(
            "\"kind\":\"histogram\",\"count\":%llu,\"sum\":%llu,"
            "\"max\":%llu,\"p50\":%llu,\"p90\":%llu,\"p99\":%llu",
            static_cast<unsigned long long>(s.histogram.count),
            static_cast<unsigned long long>(s.histogram.sum),
            static_cast<unsigned long long>(s.histogram.max),
            static_cast<unsigned long long>(s.histogram.p50),
            static_cast<unsigned long long>(s.histogram.p90),
            static_cast<unsigned long long>(s.histogram.p99));
        break;
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace claks
