// Copyright 2026 The claks Authors.
//
// Self-tests of the harness itself, run at the start of every benchmark
// run (they take a fraction of a second): seeded sequences repeat, the
// tail-percentile rule leaves at least ten samples beyond, a burst moves
// only one slice of a windowed tail, and open-loop latency counts a
// generator stall against the requests scheduled after it.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace perfbench {

namespace {

std::vector<RequestClass> TestClasses() {
  claks::SearchOptions options;
  RequestClass a{"a", 3, {"a1", "a2", "a3", "a4"}, options};
  RequestClass b{"b", 1, {"b1", "b2"}, options};
  return {a, b};
}

std::string Describe(const std::vector<Request>& requests) {
  std::string out;
  char buffer[64];
  for (const Request& r : requests) {
    std::snprintf(buffer, sizeof(buffer), "%zu:%s@%.9f;", r.cls,
                  r.text.c_str(), r.send_at_s);
    out += buffer;
  }
  return out;
}

std::vector<Request> Schedule(uint64_t seed) {
  std::vector<Request> requests = MakeSequence(TestClasses(), 200, seed);
  StampPoisson(&requests, 50.0, seed);
  return requests;
}

void TestSeeds(Output* out) {
  if (Describe(Schedule(7)) != Describe(Schedule(7))) {
    out->Fail("selftest: the same seed gave different sequences");
  }
  if (Describe(Schedule(7)) == Describe(Schedule(8))) {
    out->Fail("selftest: different seeds gave the same sequence");
  }
  // Fixed shares: every block of four holds three `a` and one `b`.
  std::vector<Request> requests = MakeSequence(TestClasses(), 400, 7);
  size_t b = 0;
  for (const Request& r : requests) b += r.cls;
  if (b != 100) out->Fail("selftest: class shares drifted from 3:1");
}

void TestTail(Output* out) {
  for (size_t n : {20u, 50u, 400u, 1000u, 5000u}) {
    std::vector<double> values;
    for (size_t i = n; i > 0; --i) values.push_back(static_cast<double>(i));
    const auto [q, value] = TailPercentile(values);
    size_t beyond = 0;
    for (double v : values) beyond += v > value ? 1 : 0;
    if (beyond != 10 || q != static_cast<double>(n - 10) / n) {
      out->Fail("selftest: tail percentile of " + std::to_string(n) +
                " samples has " + std::to_string(beyond) + " beyond");
    }
  }
  const auto [q, value] = TailPercentile(std::vector<double>(1000, 1.0));
  if (value != 1.0 || q != 0.99) out->Fail("selftest: p99 of 1000 samples");
  // Too few samples for ten beyond: the median, never below it.
  if (TailPercentile({5, 1, 4, 2, 3}).second != 3.0) {
    out->Fail("selftest: tail of five samples is not their median");
  }
  // Windowed tail: four slices of 100, each with latencies 1..100 in send
  // order, except that slice 2 ends in a burst of 20 stalls of 500 ms.
  // Each slice's tail is its 90th value: 90 in three slices, 500 in the
  // burst's, so the median of the four is 90.
  std::vector<Completion> completions;
  for (size_t i = 0; i < 400; ++i) {
    Completion c;
    c.index = (i * 7) % 400;  // out of order: slices follow send order
    c.ok = true;
    const size_t position = c.index % 100;
    c.latency_ms = c.index / 100 == 2 && position >= 80
                       ? 500.0
                       : static_cast<double>(position + 1);
    completions.push_back(c);
  }
  const auto [slice_q, windowed] = WindowedTail(completions, 4);
  if (windowed != 90.0 || slice_q != 0.9) {
    out->Fail("selftest: windowed tail " + std::to_string(windowed) +
              " is not the median of the slice tails");
  }
}

/// One trial of the stall test: empty if it passed, else what failed.
std::string StallTrial() {
  // 40 requests 2 ms apart; sending request 10 stalls the generator for
  // 30 ms. Requests due during the stall must carry the wait.
  std::vector<Request> requests(40);
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].id = i + 1;
    requests[i].send_at_s = 0.002 * static_cast<double>(i + 1);
  }
  const SubmitFn submit = [](const Request& r) {
    if (r.id == 11) std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::promise<claks::Result<claks::SearchResult>> promise;
    promise.set_value(claks::SearchResult());
    return promise.get_future();
  };
  std::vector<Completion> done = RunOpenLoop(requests, 1.0, submit);
  std::vector<double> latency(requests.size(), -1);
  for (const Completion& c : done) latency[c.index] = c.latency_ms;
  // Request 11 is due at 24 ms, so the stall ends at ~54 ms or later.
  // Request 12 (due 26 ms) waits at least ~28 ms, request 20 (due 42 ms)
  // at least ~12 ms; request 39 (due 80 ms) is unaffected.
  if (done.size() == requests.size() && latency[11] >= 25.0 &&
      latency[19] >= 9.0 && latency[38] <= 8.0) {
    return "";
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "selftest: stall not charged (lat12=%.2f lat20=%.2f "
                "lat39=%.2f)",
                latency[11], latency[19], latency[38]);
  return line;
}

void TestStall(Output* out) {
  // On a shared host the generator itself can be descheduled for more
  // than 8 ms, which delays request 39 in a correct harness too. A harness
  // that charges latency from the actual send, or charges nothing, fails
  // every trial, so only three failed trials in a row fail the test.
  std::string why;
  for (int trial = 0; trial < 3; ++trial) {
    why = StallTrial();
    if (why.empty()) return;
    out->Note(why + ", trial " + std::to_string(trial + 1) + " of 3");
  }
  out->Fail(why);
}

}  // namespace

void RunSelfTests(Output* out) {
  TestSeeds(out);
  TestTail(out);
  TestStall(out);
}

}  // namespace perfbench
