// Copyright 2026 The claks Authors.
//
// The concurrent query service: thread pool semantics (bounded-queue
// backpressure blocks, never drops), sharded-LRU cache accounting
// (hit/miss/eviction counts exact, also under contention), and
// SearchService end-to-end — N-thread submissions byte-identical to serial
// KeywordSearchEngine::Search for every search method, snapshot versioning
// under Mutate with old generations staying valid for in-flight readers.

#include "service/search_service.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "datasets/company_paper.h"
#include "service/result_cache.h"

namespace claks {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesEverySubmittedTask) {
  std::atomic<int> counter{0};
  ThreadPool pool(4, 16);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorCompletesQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2, 64);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // ~ThreadPool joins after draining the queue
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, BackpressureBlocksRatherThanDrops) {
  std::atomic<int> executed{0};
  std::atomic<bool> release{false};
  ThreadPool pool(1, 2);

  // Occupy the single worker until released.
  pool.Submit([&] {
    while (!release.load()) std::this_thread::yield();
    executed.fetch_add(1);
  });
  while (pool.pending() > 0) std::this_thread::yield();  // worker picked it up

  // Fill the bounded queue.
  pool.Submit([&] { executed.fetch_add(1); });
  pool.Submit([&] { executed.fetch_add(1); });
  EXPECT_EQ(pool.pending(), 2u);

  // Full queue: the non-blocking path refuses (and leaves the task with
  // the caller)...
  std::function<void()> extra = [&] { executed.fetch_add(1); };
  EXPECT_FALSE(pool.TrySubmit(extra));
  EXPECT_NE(extra, nullptr);

  // ...and the blocking path waits instead of dropping.
  std::atomic<bool> fourth_admitted{false};
  std::thread submitter([&] {
    pool.Submit([&] { executed.fetch_add(1); });
    fourth_admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(fourth_admitted.load());  // still blocked on the full queue

  release.store(true);  // worker drains; a slot frees; Submit completes
  submitter.join();
  EXPECT_TRUE(fourth_admitted.load());
  pool.Drain();
  EXPECT_EQ(executed.load(), 4);  // nothing was dropped
}

// ---------------------------------------------------------------------------
// ResultCache
// ---------------------------------------------------------------------------

std::shared_ptr<const SearchResult> DummyResult(const std::string& tag) {
  auto result = std::make_shared<SearchResult>();
  result->query.keywords = {tag};
  return result;
}

TEST(ResultCacheTest, HitMissEvictionAccountingIsExact) {
  ResultCache cache(/*capacity=*/2, /*num_shards=*/1);
  EXPECT_EQ(cache.Get("a"), nullptr);  // miss 1
  cache.Put("a", DummyResult("a"));
  cache.Put("b", DummyResult("b"));
  ASSERT_NE(cache.Get("a"), nullptr);  // hit 1; refreshes a over b
  cache.Put("c", DummyResult("c"));    // evicts b (LRU)
  EXPECT_EQ(cache.Get("b"), nullptr);  // miss 2
  ASSERT_NE(cache.Get("a"), nullptr);  // hit 2
  ASSERT_NE(cache.Get("c"), nullptr);  // hit 3

  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(ResultCacheTest, OverwritingAKeyIsNotAnEviction) {
  ResultCache cache(2, 1);
  cache.Put("a", DummyResult("a1"));
  cache.Put("a", DummyResult("a2"));
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 1u);
  auto got = cache.Get("a");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->query.keywords[0], "a2");
}

TEST(ResultCacheTest, ClearDropsEntriesButKeepsCounters) {
  ResultCache cache(4, 2);
  cache.Put("a", DummyResult("a"));
  EXPECT_NE(cache.Get("a"), nullptr);
  cache.Clear();
  EXPECT_EQ(cache.Get("a"), nullptr);
  ResultCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheTest, EvictedSharedPtrStaysValidForHolders) {
  ResultCache cache(1, 1);
  cache.Put("a", DummyResult("a"));
  auto held = cache.Get("a");
  ASSERT_NE(held, nullptr);
  cache.Put("b", DummyResult("b"));  // evicts a
  EXPECT_EQ(cache.Get("a"), nullptr);
  EXPECT_EQ(held->query.keywords[0], "a");  // caller's reference survives
}

TEST(ResultCacheTest, ConcurrentAccountingSumsExactly) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 500;
  // Per-shard capacity is total/shards = 32: even if std::hash sent every
  // one of the 32 distinct keys to a single shard, nothing could evict, so
  // the zero-eviction assertion below holds on any standard library.
  ResultCache cache(256, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "key-" + std::to_string((t * 7 + i) % 32);
        if (cache.Get(key) == nullptr) cache.Put(key, DummyResult(key));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ResultCacheStats stats = cache.stats();
  // Every Get is counted exactly once, as a hit or a miss.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // 32 distinct keys never exceed any shard's 32 slots: no evictions.
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_LE(stats.entries, 32u);
}

// ---------------------------------------------------------------------------
// SearchService
// ---------------------------------------------------------------------------

std::unique_ptr<Database> PaperDb() {
  auto dataset = BuildCompanyPaperDataset();
  CLAKS_CHECK(dataset.ok());
  return std::move(dataset->db);
}

std::unique_ptr<SearchService> PaperService(ServiceOptions options) {
  auto dataset = BuildCompanyPaperDataset();
  CLAKS_CHECK(dataset.ok());
  auto service = SearchService::Create(
      std::move(dataset->db), std::move(dataset->er_schema),
      std::move(dataset->mapping), options);
  CLAKS_CHECK(service.ok());
  return std::move(service).ValueOrDie();
}

// The serial reference: an independent engine over an identical instance.
struct SerialReference {
  CompanyPaperDataset dataset;
  std::unique_ptr<KeywordSearchEngine> engine;
};

SerialReference MakeSerialReference() {
  SerialReference ref;
  auto dataset = BuildCompanyPaperDataset();
  CLAKS_CHECK(dataset.ok());
  ref.dataset = std::move(dataset).ValueOrDie();
  auto engine = KeywordSearchEngine::Create(ref.dataset.db.get(),
                                            ref.dataset.er_schema,
                                            ref.dataset.mapping);
  CLAKS_CHECK(engine.ok());
  ref.engine = std::move(engine).ValueOrDie();
  return ref;
}

// Byte-level result fingerprint: the rendered report plus every ranking-
// relevant field of every hit, in order.
std::string Fingerprint(const SearchResult& result, const Database& db) {
  std::string out = result.ToString(db, result.hits.size() + 1);
  for (const SearchHit& hit : result.hits) {
    out += hit.rendered + "|";
    out += std::to_string(hit.rdb_length) + "," +
           std::to_string(hit.er_length) + "," +
           std::to_string(static_cast<int>(hit.kind)) + "," +
           std::to_string(hit.hub_patterns) + "," +
           std::to_string(hit.nm_steps) + "," +
           (hit.schema_close ? "c" : "l") + "," +
           (hit.instance_close.has_value()
                ? (*hit.instance_close ? "i1" : "i0")
                : "i-") +
           "," + std::to_string(hit.text_score) + "," +
           std::to_string(hit.ambiguity) + ";";
  }
  return out;
}

TEST(SearchServiceTest, ConcurrentSubmitsMatchSerialForEveryMethod) {
  SerialReference ref = MakeSerialReference();

  ServiceOptions options;
  options.num_threads = 8;
  options.queue_capacity = 32;
  options.cache_capacity = 0;  // force every submission through Search
  std::unique_ptr<SearchService> service = PaperService(options);

  struct Case {
    SearchMethod method;
    const char* query;
  };
  const Case kCases[] = {
      {SearchMethod::kEnumerate, "smith xml"},
      {SearchMethod::kStream, "smith xml"},
      {SearchMethod::kMtjnt, "smith xml"},
      {SearchMethod::kDiscover, "smith xml"},
      {SearchMethod::kBanks, "smith xml"},
      {SearchMethod::kEnumerate, "alice"},
      {SearchMethod::kStream, "alice xml"},
      {SearchMethod::kMtjnt, "smith alice xml"},
  };

  for (const Case& c : kCases) {
    SearchOptions search;
    search.method = c.method;
    search.top_k = 10;

    auto serial = ref.engine->Search(c.query, search);
    ASSERT_TRUE(serial.ok()) << c.query;
    const std::string expected = Fingerprint(*serial, *ref.dataset.db);

    constexpr int kConcurrent = 16;
    std::vector<std::future<Result<SearchResult>>> futures;
    futures.reserve(kConcurrent);
    for (int i = 0; i < kConcurrent; ++i) {
      futures.push_back(service->Submit(c.query, search));
    }
    for (auto& future : futures) {
      Result<SearchResult> got = future.get();
      ASSERT_TRUE(got.ok()) << c.query;
      EXPECT_EQ(Fingerprint(*got, *ref.dataset.db), expected)
          << SearchMethodToString(c.method) << " '" << c.query << "'";
    }
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, stats.completed);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);  // cache disabled
}

TEST(SearchServiceTest, CacheAccountingIsExact) {
  ServiceOptions options;
  options.num_threads = 4;
  options.cache_capacity = 64;
  std::unique_ptr<SearchService> service = PaperService(options);

  SearchOptions search;
  search.method = SearchMethod::kEnumerate;

  // First execution: one miss, result cached.
  auto first = service->SearchNow("smith xml", search);
  ASSERT_TRUE(first.ok());
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_entries, 1u);

  // Every concurrent repeat is a hit (the entry already exists), and hits
  // return the identical bytes.
  constexpr int kConcurrent = 20;
  std::vector<std::future<Result<SearchResult>>> futures;
  for (int i = 0; i < kConcurrent; ++i) {
    futures.push_back(service->Submit("smith xml", search));
  }
  std::unique_ptr<Database> reference_db = PaperDb();
  const std::string expected = Fingerprint(*first, *reference_db);
  for (auto& future : futures) {
    auto got = future.get();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(Fingerprint(*got, *reference_db), expected);
  }

  stats = service->stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kConcurrent));
  EXPECT_EQ(stats.cache_evictions, 0u);
  EXPECT_EQ(stats.submitted, static_cast<uint64_t>(kConcurrent) + 1);
  EXPECT_EQ(stats.completed, stats.submitted);

  // The normalized key folds case/whitespace/punctuation differences.
  ASSERT_TRUE(service->SearchNow("  SMITH   xml. ", search).ok());
  stats = service->stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, static_cast<uint64_t>(kConcurrent) + 1);

  // A different option set is a different key.
  search.ranker = RankerKind::kRdbLength;
  ASSERT_TRUE(service->SearchNow("smith xml", search).ok());
  EXPECT_EQ(service->stats().cache_misses, 2u);
}

TEST(SearchServiceTest, EvictionAccountingIsExact) {
  ServiceOptions options;
  options.num_threads = 1;
  options.cache_capacity = 1;
  options.cache_shards = 1;
  std::unique_ptr<SearchService> service = PaperService(options);

  SearchOptions search;
  // Alternating distinct single-keyword queries through a 1-slot cache:
  // every lookup misses, every fill after the first evicts.
  const char* queries[] = {"smith", "xml", "smith", "xml", "smith"};
  for (const char* query : queries) {
    ASSERT_TRUE(service->SearchNow(query, search).ok());
  }
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.cache_misses, 5u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.cache_evictions, 4u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(SearchServiceTest, BoundedQueueNeverDropsUnderBurst) {
  ServiceOptions options;
  options.num_threads = 2;
  options.queue_capacity = 2;  // tiny queue: submissions must block
  options.cache_capacity = 16;
  std::unique_ptr<SearchService> service = PaperService(options);

  constexpr int kProducers = 4;
  constexpr int kPerProducer = 25;
  std::atomic<int> ok_results{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&service, &ok_results] {
      SearchOptions search;
      for (int i = 0; i < kPerProducer; ++i) {
        auto result = service->Submit("smith xml", search).get();
        if (result.ok()) ok_results.fetch_add(1);
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  EXPECT_EQ(ok_results.load(), kProducers * kPerProducer);
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted,
            static_cast<uint64_t>(kProducers) * kPerProducer);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.submitted);
}

TEST(SearchServiceTest, MutateSwapsSnapshotWhileOldOneStaysValid) {
  ServiceOptions options;
  options.num_threads = 2;
  options.cache_capacity = 16;
  std::unique_ptr<SearchService> service = PaperService(options);

  SearchOptions search;
  auto before = service->SearchNow("zyzzyx", search);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before->hits.empty());
  EXPECT_EQ(service->snapshot()->version, 1u);

  // An in-flight reader: holds generation 1 across the mutation.
  std::shared_ptr<const EngineSnapshot> held = service->snapshot();

  Status mutated = service->Mutate([](Database* db) -> Status {
    Table* employees = db->FindMutableTable("EMPLOYEE");
    CLAKS_CHECK(employees != nullptr);
    return employees
        ->InsertValues({Value::String("e9"), Value::String("Zyzzyx"),
                        Value::String("Zed"), Value::String("d1")})
        .status();
  });
  ASSERT_TRUE(mutated.ok());
  EXPECT_EQ(service->snapshot()->version, 2u);

  // New submissions see the insert...
  auto after = service->SearchNow("zyzzyx", search);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->hits.size(), 1u);

  // ...while the held snapshot still answers from generation 1.
  EXPECT_EQ(held->version, 1u);
  auto old_result = held->engine->Search("zyzzyx", search);
  ASSERT_TRUE(old_result.ok());
  EXPECT_TRUE(old_result->hits.empty());

  // Cache keys embed the version: the same query against the new
  // generation is a fresh miss, never a stale hit.
  ServiceStats stats = service->stats();
  uint64_t misses_before = stats.cache_misses;
  auto repeat = service->SearchNow("zyzzyx", search);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat->hits.size(), 1u);
  EXPECT_EQ(service->stats().cache_misses, misses_before);  // cached at v2
}

TEST(SearchServiceTest, FailedMutationPublishesNothing) {
  std::unique_ptr<SearchService> service = PaperService({});
  EXPECT_EQ(service->snapshot()->version, 1u);
  Status failed = service->Mutate([](Database*) -> Status {
    return Status::InvalidArgument("intentional");
  });
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(service->snapshot()->version, 1u);
}

TEST(SearchServiceTest, ConcurrentQueriesAcrossMutations) {
  ServiceOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  options.cache_capacity = 32;
  std::unique_ptr<SearchService> service = PaperService(options);

  constexpr int kMutations = 3;
  constexpr int kReaders = 4;
  constexpr int kQueriesPerReader = 30;
  std::atomic<bool> failed{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &failed] {
      SearchOptions search;
      for (int i = 0; i < kQueriesPerReader; ++i) {
        auto result = service->Submit("zyzzyx", search).get();
        if (!result.ok() ||
            result->hits.size() > static_cast<size_t>(kMutations)) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (int m = 0; m < kMutations; ++m) {
    std::string ssn = "e9" + std::to_string(m);
    Status mutated = service->Mutate([&ssn](Database* db) -> Status {
      return db->FindMutableTable("EMPLOYEE")
          ->InsertValues({Value::String(ssn), Value::String("Zyzzyx"),
                          Value::String("Zed"), Value::String("d1")})
          .status();
    });
    ASSERT_TRUE(mutated.ok());
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(service->snapshot()->version,
            static_cast<uint64_t>(kMutations) + 1);
  // The final generation answers with every inserted match.
  auto final_result = service->SearchNow("zyzzyx", {});
  ASSERT_TRUE(final_result.ok());
  EXPECT_EQ(final_result->hits.size(), static_cast<size_t>(kMutations));
}

TEST(SearchServiceTest, ReverseEngineeredSchemaPathWorks) {
  // The mapping-free Create overload recovers the conceptual schema from
  // the catalog on every snapshot build.
  auto service = SearchService::Create(PaperDb(), {});
  ASSERT_TRUE(service.ok());
  auto result = (*service)->SearchNow("smith xml", {});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->hits.empty());
}

TEST(SearchServiceTest, InvalidQueryResolvesToErrorFuture) {
  std::unique_ptr<SearchService> service = PaperService({});
  auto result = service->Submit("", {}).get();
  EXPECT_FALSE(result.ok());
  // Errors are not cached.
  EXPECT_EQ(service->stats().cache_entries, 0u);
}

}  // namespace
}  // namespace claks
