// Copyright 2026 The claks Authors.

#include "observability/trace.h"

#include <algorithm>

#include "common/string_util.h"

#ifndef CLAKS_TRACING_DISABLED

namespace claks {

namespace {

/// Current span of this thread (0: none). Written only by TraceSpan
/// construction/destruction on the owning thread.
thread_local uint64_t t_current_span = 0;

/// Small stable per-thread id for the Chrome JSON tid field (OS thread
/// ids are large and non-contiguous; Perfetto tracks are nicer dense).
std::atomic<uint32_t> g_next_trace_tid{1};

uint32_t ThisThreadTraceId() {
  thread_local const uint32_t tid =
      g_next_trace_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

std::atomic<TraceRecorder*>& TraceRecorder::ActiveSlot() {
  static std::atomic<TraceRecorder*> active{nullptr};
  return active;
}

TraceRecorder::TraceRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {}

TraceRecorder::~TraceRecorder() {
  // Safety net: a recorder destroyed while still active would leave
  // spans writing into freed memory.
  TraceRecorder* self = this;
  ActiveSlot().compare_exchange_strong(self, nullptr,
                                       std::memory_order_acq_rel);
}

void TraceRecorder::Install() {
  epoch_ = std::chrono::steady_clock::now();
  ActiveSlot().store(this, std::memory_order_release);
}

void TraceRecorder::Uninstall() {
  ActiveSlot().store(nullptr, std::memory_order_release);
}

void TraceRecorder::Record(const TraceEvent& event) {
  MutexLock lock(&mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    // Ring full: overwrite the oldest surviving event.
    ring_[next_] = event;
    ++dropped_;
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  MutexLock lock(&mutex_);
  if (ring_.size() < capacity_) return ring_;
  // Unroll the ring: next_ points at the oldest surviving event.
  std::vector<TraceEvent> events;
  events.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    events.push_back(ring_[(next_ + i) % capacity_]);
  }
  return events;
}

size_t TraceRecorder::dropped() const {
  MutexLock lock(&mutex_);
  return dropped_;
}

std::string TraceRecorder::ToChromeJson() const {
  std::vector<TraceEvent> events = Events();
  // "X" (complete) events with microsecond ts/dur; span/parent ids ride
  // in args so Perfetto can reconstruct the nesting across threads.
  // Names are compile-time literals chosen by this codebase, so no JSON
  // escaping is needed.
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ",";
    out += StrFormat(
        "{\"name\":\"%s\",\"cat\":\"claks\",\"ph\":\"X\","
        "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
        "\"args\":{\"span\":%llu,\"parent\":%llu",
        e.name, static_cast<double>(e.start_ns) / 1000.0,
        static_cast<double>(e.duration_ns) / 1000.0, e.tid,
        static_cast<unsigned long long>(e.span_id),
        static_cast<unsigned long long>(e.parent_id));
    if (e.arg_name != nullptr) {
      out += StrFormat(",\"%s\":%llu", e.arg_name,
                       static_cast<unsigned long long>(e.arg_value));
    }
    out += "}}";
  }
  out += "]}\n";
  return out;
}

TraceSpan::TraceSpan(const char* name) : recorder_(TraceRecorder::Active()) {
  if (recorder_ == nullptr) return;
  name_ = name;
  span_id_ = recorder_->NewSpanId();
  parent_id_ = t_current_span;
  prev_current_ = t_current_span;
  t_current_span = span_id_;
  start_ns_ = recorder_->NowNs();
}

TraceSpan::~TraceSpan() {
  if (recorder_ == nullptr) return;
  TraceEvent event;
  event.name = name_;
  event.start_ns = start_ns_;
  uint64_t end_ns = recorder_->NowNs();
  event.duration_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  event.span_id = span_id_;
  event.parent_id = parent_id_;
  event.tid = ThisThreadTraceId();
  event.arg_name = arg_name_;
  event.arg_value = arg_value_;
  recorder_->Record(event);
  t_current_span = prev_current_;
}

}  // namespace claks

#endif  // CLAKS_TRACING_DISABLED
