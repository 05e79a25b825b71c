// Copyright 2026 The claks Authors.
//
// Unit tests for trace spans and the bounded recorder: same-thread
// nesting, per-thread span chains on ThreadPool workers, ring-buffer
// overwrite accounting, the Chrome trace_event
// JSON shape, and the no-recorder cost contract — with tracing off a
// span is a load and a branch, proven here by counting global operator
// new calls around a span storm (this TU replaces operator new/delete
// with counting versions for that purpose).

#include "observability/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace {

std::atomic<size_t> g_allocation_count{0};

size_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

void* CountingAllocate(std::size_t size) {
  g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

}  // namespace

void* operator new(std::size_t size) { return CountingAllocate(size); }
void* operator new[](std::size_t size) { return CountingAllocate(size); }
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }

namespace claks {
namespace {

#ifndef CLAKS_TRACING_DISABLED

const TraceEvent* FindEvent(const std::vector<TraceEvent>& events,
                            const std::string& name) {
  for (const TraceEvent& event : events) {
    if (event.name == name) return &event;
  }
  return nullptr;
}

TEST(TraceTest, NoRecorderMeansDisabledInactiveSpans) {
  ASSERT_EQ(TraceRecorder::Active(), nullptr);
  EXPECT_FALSE(TraceSpan::Enabled());
  TraceSpan span("orphan");
  EXPECT_FALSE(span.active());
  TraceSpan child("orphan-child");
  EXPECT_FALSE(child.active());
}

TEST(TraceTest, NestedSpansParentAutomaticallyInFinishOrder) {
  TraceRecorder recorder;
  recorder.Install();
  EXPECT_TRUE(TraceSpan::Enabled());
  {
    TraceSpan outer("outer");
    EXPECT_TRUE(outer.active());
    { TraceSpan inner("inner"); }
    // The sibling must parent under outer again: inner's close restored
    // the thread's current span.
    { TraceSpan sibling("sibling"); }
  }
  TraceRecorder::Uninstall();

  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 3u);
  // Completed spans land in finish order.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_STREQ(events[1].name, "sibling");
  EXPECT_STREQ(events[2].name, "outer");

  const TraceEvent& inner = events[0];
  const TraceEvent& sibling = events[1];
  const TraceEvent& outer = events[2];
  EXPECT_EQ(outer.parent_id, 0u);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_EQ(sibling.parent_id, outer.span_id);
  EXPECT_NE(inner.span_id, sibling.span_id);
  // Children start no earlier than their parent and fit inside it.
  EXPECT_GE(inner.start_ns, outer.start_ns);
  EXPECT_LE(inner.start_ns + inner.duration_ns,
            outer.start_ns + outer.duration_ns);
}

TEST(TraceTest, SpansOnPoolWorkersStartTheirOwnChain) {
  TraceRecorder recorder;
  recorder.Install();
  {
    TraceSpan root("search");
    ThreadPool pool(2, 8);
    for (uint64_t i = 0; i < 4; ++i) {
      pool.Submit([i] {
        TraceSpan task("task");
        task.SetArg("index", i);
      });
    }
    pool.Drain();
  }
  TraceRecorder::Uninstall();

  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 5u);
  const TraceEvent* root = FindEvent(events, "search");
  ASSERT_NE(root, nullptr);
  std::vector<uint64_t> indexes;
  for (const TraceEvent& event : events) {
    if (std::string(event.name) != "task") continue;
    // The current span is per thread: a worker's span is a root, not a
    // child of the span open on the submitting thread, and carries the
    // worker's own trace id.
    EXPECT_EQ(event.parent_id, 0u);
    EXPECT_NE(event.tid, root->tid);
    ASSERT_NE(event.arg_name, nullptr);
    EXPECT_STREQ(event.arg_name, "index");
    indexes.push_back(event.arg_value);
  }
  std::sort(indexes.begin(), indexes.end());
  EXPECT_EQ(indexes, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(TraceTest, RingOverwritesOldestAndCountsDropped) {
  TraceRecorder recorder(/*capacity=*/4);
  recorder.Install();
  for (uint64_t i = 0; i < 7; ++i) {
    TraceSpan span("span");
    span.SetArg("i", i);
  }
  TraceRecorder::Uninstall();

  EXPECT_EQ(recorder.dropped(), 3u);
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 4u);
  // The oldest three were overwritten; survivors come back oldest-first.
  for (uint64_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].arg_value, 3 + i);
  }
}

TEST(TraceTest, SpanOpenAcrossUninstallStillRecords) {
  TraceRecorder recorder;
  recorder.Install();
  std::optional<TraceSpan> open;
  open.emplace("open");
  TraceRecorder::Uninstall();
  // New spans are inactive once tracing is off...
  {
    TraceSpan off("off");
    EXPECT_FALSE(off.active());
  }
  // ...but a span already open keeps the recorder it captured.
  open.reset();
  std::vector<TraceEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "open");
}

TEST(TraceTest, ToChromeJsonIsWellFormedTraceEventDocument) {
  TraceRecorder recorder;
  recorder.Install();
  {
    TraceSpan alpha("alpha");
    alpha.SetArg("index", 2);
    { TraceSpan beta("beta"); }
  }
  TraceRecorder::Uninstall();

  std::string json = recorder.ToChromeJson();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
  EXPECT_NE(json.find("\"name\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"claks\""), std::string::npos);
  EXPECT_NE(json.find("\"index\":2"), std::string::npos);
  EXPECT_NE(json.find("\"span\":"), std::string::npos);
  EXPECT_NE(json.find("\"parent\":"), std::string::npos);
  // Balanced braces/brackets: the renderer emits no string that could
  // contain either (span names are claks-chosen literals).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

#else  // CLAKS_TRACING_DISABLED

TEST(TraceTest, DisabledBuildCompilesToInertTwins) {
  EXPECT_FALSE(TraceSpan::Enabled());
  TraceRecorder recorder;
  recorder.Install();
  {
    TraceSpan span("anything");
    EXPECT_FALSE(span.active());
    span.SetArg("index", 1);
  }
  TraceRecorder::Uninstall();
  EXPECT_TRUE(recorder.Events().empty());
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_EQ(recorder.ToChromeJson(), "{\"traceEvents\":[]}\n");
}

#endif  // CLAKS_TRACING_DISABLED

TEST(TraceTest, UntracedSpansAllocateNothing) {
  ASSERT_EQ(TraceRecorder::Active(), nullptr);
  const size_t before = AllocationCount();
  for (uint64_t i = 0; i < 1000; ++i) {
    TraceSpan span("noop");
    span.SetArg("i", i);
    TraceSpan child("noop-child");
  }
  EXPECT_EQ(AllocationCount(), before);
}

}  // namespace
}  // namespace claks
