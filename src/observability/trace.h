// Copyright 2026 The claks Authors.
//
// Per-query trace spans: RAII TraceSpan nesting on the current thread
// and a bounded ring buffer of completed spans exportable as Chrome
// trace_event JSON (chrome://tracing, Perfetto).
//
// Recording model: tracing is off until a TraceRecorder is Install()ed.
// With no recorder installed a TraceSpan constructor is one relaxed
// atomic load and a branch — no clock read, no allocation
// (tests/trace_test.cc counts operator new calls to prove it). Span
// names must be string literals (static storage): events store the
// pointer, never a copy.
//
// Build-time kill switch: configuring with -DCLAKS_TRACING=OFF defines
// CLAKS_TRACING_DISABLED, under which TraceSpan compiles to an empty
// no-op type (and TraceRecorder to an always-empty recorder),
// so call sites stay unconditional while the instrumentation costs
// literally nothing.
//
// Thread model: Install/Uninstall publish the active recorder through an
// atomic pointer; span completion appends to the ring under the
// recorder's mutex (spans are stage-granular, so the lock is cold). The
// per-thread current-span id is thread_local. An installed recorder must
// outlive every span recorded into it — in practice recorders are
// created in main() (claks_cli --trace-out) or on the test stack with
// Uninstall before destruction.

#ifndef CLAKS_OBSERVABILITY_TRACE_H_
#define CLAKS_OBSERVABILITY_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace claks {

/// One completed span. Timestamps are nanoseconds since the recorder's
/// installation epoch; `tid` is a small per-thread sequence number (the
/// Chrome JSON tid). `parent_id` is 0 for roots.
struct TraceEvent {
  const char* name = nullptr;  ///< static string (span label)
  uint64_t start_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t span_id = 0;
  uint64_t parent_id = 0;
  uint32_t tid = 0;
  /// Optional numeric argument (e.g. a loop index); rendered into the
  /// Chrome event's args when `arg_name` is set.
  const char* arg_name = nullptr;
  uint64_t arg_value = 0;
};

#ifndef CLAKS_TRACING_DISABLED

/// Bounded ring of completed spans for one traced run. Install() makes
/// this the process's active recorder; completed spans append in finish
/// order and the oldest are overwritten once `capacity` is exceeded
/// (dropped() counts overwrites).
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t capacity = 1 << 16);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Makes this recorder the destination of every subsequently opened
  /// span (process-wide). Resets the timestamp epoch.
  void Install();

  /// Deactivates tracing (spans already open keep recording into the
  /// recorder they captured at open time).
  static void Uninstall();

  /// The active recorder, or nullptr when tracing is off.
  static TraceRecorder* Active() {
    return ActiveSlot().load(std::memory_order_acquire);
  }

  /// Completed events in finish order (oldest surviving first).
  std::vector<TraceEvent> Events() const CLAKS_EXCLUDES(mutex_);

  /// Spans overwritten because the ring was full.
  size_t dropped() const CLAKS_EXCLUDES(mutex_);

  /// Chrome trace_event JSON ("X" complete events; ts/dur in
  /// microseconds): load the string (or the --trace-out file) directly
  /// in chrome://tracing or Perfetto.
  std::string ToChromeJson() const CLAKS_EXCLUDES(mutex_);

 private:
  friend class TraceSpan;

  static std::atomic<TraceRecorder*>& ActiveSlot();

  uint64_t NewSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t NowNs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  void Record(const TraceEvent& event) CLAKS_EXCLUDES(mutex_);

  const size_t capacity_;
  std::atomic<uint64_t> next_span_id_{1};
  std::chrono::steady_clock::time_point epoch_;

  mutable Mutex mutex_;
  std::vector<TraceEvent> ring_ CLAKS_GUARDED_BY(mutex_);
  size_t next_ CLAKS_GUARDED_BY(mutex_) = 0;  ///< ring write position
  size_t dropped_ CLAKS_GUARDED_BY(mutex_) = 0;
};

/// RAII span: opens on construction (when a recorder is active),
/// completes into the recorder on destruction. Nested spans on one
/// thread parent automatically. `name` (and `arg_name`) must be string
/// literals.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name);
  ~TraceSpan();

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches one numeric argument rendered into the Chrome event.
  void SetArg(const char* arg_name, uint64_t value) {
    arg_name_ = arg_name;
    arg_value_ = value;
  }

  /// True when a recorder is installed (spans will record).
  static bool Enabled() { return TraceRecorder::Active() != nullptr; }

  bool active() const { return recorder_ != nullptr; }

 private:
  TraceRecorder* recorder_;  ///< null: inactive span, destructor no-ops
  const char* name_ = nullptr;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t prev_current_ = 0;  ///< restored on close (nesting)
  uint64_t start_ns_ = 0;
  const char* arg_name_ = nullptr;
  uint64_t arg_value_ = 0;
};

#else  // CLAKS_TRACING_DISABLED

/// No-op twins: same API surface, empty inline bodies, no members that
/// cost anything — call sites compile unchanged and the optimizer erases
/// them entirely.
class TraceRecorder {
 public:
  explicit TraceRecorder(size_t = 0) {}
  void Install() {}
  static void Uninstall() {}
  static TraceRecorder* Active() { return nullptr; }
  std::vector<TraceEvent> Events() const { return {}; }
  size_t dropped() const { return 0; }
  std::string ToChromeJson() const {
    return "{\"traceEvents\":[]}\n";
  }
};

class TraceSpan {
 public:
  explicit TraceSpan(const char*) {}
  void SetArg(const char*, uint64_t) {}
  static bool Enabled() { return false; }
  bool active() const { return false; }
};

#endif  // CLAKS_TRACING_DISABLED

}  // namespace claks

#endif  // CLAKS_OBSERVABILITY_TRACE_H_
