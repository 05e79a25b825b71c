// Copyright 2026 The claks Authors.
//
// Storage-engine tests: snapshot save/load round-trip identity, the
// typed corruption taxonomy (StorageError), and the save preconditions.
// The fuzz-style corruption sweep lives in tests/storage_fuzz_test.cc;
// the full search-identity sweep across methods x rankers is part of
// tests/differential_test.cc.

#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "datasets/company_gen.h"
#include "datasets/movies.h"
#include "service/search_service.h"
#include "storage/format.h"

namespace claks {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("claks_storage_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    auto dataset = GenerateCompanyDataset(CompanyGenOptions{});
    ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
    dataset_ = std::move(dataset).ValueOrDie();
    auto engine = KeywordSearchEngine::Create(
        dataset_.db.get(), dataset_.er_schema, dataset_.mapping);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(engine).ValueOrDie();
    engine_->Warmup();
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::string SnapshotPath(const std::string& name) {
    return (dir_ / name).string();
  }

  /// Saves the member engine and returns the file's bytes.
  std::string SaveBytes(const std::string& name) {
    Status saved = engine_->SaveSnapshot(SnapshotPath(name));
    EXPECT_TRUE(saved.ok()) << saved.ToString();
    return ReadFile(SnapshotPath(name));
  }

  /// Expects a load of `bytes` to fail with exactly `expected`.
  void ExpectRejected(const std::string& bytes, StorageError expected) {
    std::string path = SnapshotPath("corrupt.claks");
    WriteFile(path, bytes);
    Result<LoadedEngine> loaded = KeywordSearchEngine::LoadSnapshot(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(StorageErrorOf(loaded.status()), expected)
        << loaded.status().ToString();
  }

  std::filesystem::path dir_;
  GeneratedDataset dataset_;
  std::unique_ptr<KeywordSearchEngine> engine_;
};

TEST_F(StorageTest, RoundTripPreservesEveryWarmedStructure) {
  std::string path = SnapshotPath("engine.claks");
  Status saved = engine_->SaveSnapshot(path);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  auto loaded = KeywordSearchEngine::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const KeywordSearchEngine& restored = *loaded->engine;
  const Database& db = *dataset_.db;
  const Database& ldb = *loaded->db;

  // Tables: row-for-row, value-for-value, including tombstone state.
  ASSERT_EQ(ldb.num_tables(), db.num_tables());
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const Table& a = db.table(t);
    const Table& b = ldb.table(t);
    EXPECT_EQ(a.schema().ToString(), b.schema().ToString());
    ASSERT_EQ(a.num_rows(), b.num_rows());
    EXPECT_EQ(a.num_deleted(), b.num_deleted());
    EXPECT_EQ(a.tombstone_count(), b.tombstone_count());
    for (size_t r = 0; r < a.num_rows(); ++r) {
      EXPECT_EQ(a.IsDeleted(r), b.IsDeleted(r));
      ASSERT_EQ(a.row(r).size(), b.row(r).size());
      for (size_t attr = 0; attr < a.row(r).size(); ++attr) {
        EXPECT_TRUE(a.row(r)[attr] == b.row(r)[attr])
            << "table " << t << " row " << r << " attr " << attr;
      }
    }
  }

  // The loaded engine is warm without a Warmup call: the join-index
  // cache was installed, not rebuilt.
  EXPECT_TRUE(restored.Warm());

  // Join indexes answer identically.
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const auto& fks = db.table(t).schema().foreign_keys();
    for (uint32_t f = 0; f < fks.size(); ++f) {
      const FkJoinIndex& a = db.JoinIndex(t, f);
      const FkJoinIndex& b = ldb.JoinIndex(t, f);
      ASSERT_EQ(a.valid, b.valid);
      ASSERT_EQ(a.child_slots(), b.child_slots());
      for (size_t child = 0; child < a.child_slots(); ++child) {
        EXPECT_EQ(a.Parent(child), b.Parent(child));
      }
    }
  }

  // Graph: same shape, same adjacency.
  const DataGraph& ga = engine_->data_graph();
  const DataGraph& gb = restored.data_graph();
  ASSERT_EQ(ga.num_nodes(), gb.num_nodes());
  ASSERT_EQ(ga.num_edges(), gb.num_edges());
  ASSERT_EQ(ga.node_id_bound(), gb.node_id_bound());
  for (uint32_t node = 0; node < ga.node_id_bound(); ++node) {
    ASSERT_EQ(ga.IsNode(node), gb.IsNode(node));
    if (!ga.IsNode(node)) continue;
    Span<DataAdjacency> na = ga.Neighbors(node);
    Span<DataAdjacency> nb = gb.Neighbors(node);
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i].edge_index, nb[i].edge_index);
      EXPECT_EQ(na[i].neighbor, nb[i].neighbor);
      EXPECT_EQ(na[i].along_fk, nb[i].along_fk);
    }
  }

  // Inverted index: same vocabulary, stats and postings.
  const InvertedIndex& ia = engine_->index();
  const InvertedIndex& ib = restored.index();
  EXPECT_EQ(ia.vocabulary_size(), ib.vocabulary_size());
  EXPECT_EQ(ia.stats().total_documents, ib.stats().total_documents);
  EXPECT_EQ(ia.stats().total_tokens, ib.stats().total_tokens);
  EXPECT_EQ(ia.stats().avg_document_length, ib.stats().avg_document_length);
  for (const char* probe_token :
       {"xml", "research", "smith", "database", "web"}) {
    const std::string probe(probe_token);
    const auto& pa = ia.LookupKeyword(probe);
    const auto& pb = ib.LookupKeyword(probe);
    ASSERT_EQ(pa.size(), pb.size()) << probe;
    EXPECT_EQ(ia.DocumentFrequency(probe), ib.DocumentFrequency(probe));
    for (size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].tuple, pb[i].tuple);
      EXPECT_EQ(pa[i].attribute_index, pb[i].attribute_index);
      EXPECT_EQ(pa[i].term_frequency, pb[i].term_frequency);
    }
  }

  // Statistics and the ER model restore exactly.
  EXPECT_EQ(engine_->statistics().ToString(), restored.statistics().ToString());
  EXPECT_EQ(engine_->er_schema().entity_types().size(),
            restored.er_schema().entity_types().size());
  EXPECT_EQ(engine_->er_schema().relationships().size(),
            restored.er_schema().relationships().size());
  EXPECT_EQ(engine_->mapping().tables.size(), restored.mapping().tables.size());
  EXPECT_EQ(engine_->mapping().foreign_keys.size(),
            restored.mapping().foreign_keys.size());
}

TEST_F(StorageTest, RoundTripSearchIdentity) {
  std::string path = SnapshotPath("engine.claks");
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  auto loaded = KeywordSearchEngine::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (SearchMethod method :
       {SearchMethod::kEnumerate, SearchMethod::kStream, SearchMethod::kBanks,
        SearchMethod::kMtjnt, SearchMethod::kDiscover}) {
    SearchOptions options;
    options.method = method;
    options.top_k = 10;
    auto a = engine_->Search("xml research", options);
    auto b = loaded->engine->Search("xml research", options);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->ToString(*dataset_.db), b->ToString(*loaded->db))
        << "method " << static_cast<int>(method);
    EXPECT_EQ(a->hits.size(), b->hits.size());
  }
}

TEST_F(StorageTest, MoviesDatasetRoundTrips) {
  auto dataset = GenerateMoviesDataset(MoviesGenOptions{});
  ASSERT_TRUE(dataset.ok()) << dataset.status().ToString();
  auto engine = KeywordSearchEngine::Create(
      dataset->db.get(), dataset->er_schema, dataset->mapping);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  (*engine)->Warmup();
  std::string path = SnapshotPath("movies.claks");
  ASSERT_TRUE((*engine)->SaveSnapshot(path).ok());
  auto loaded = KeywordSearchEngine::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 5;
  auto a = (*engine)->Search("action nolan", options);
  auto b = loaded->engine->Search("action nolan", options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToString(*dataset->db), b->ToString(*loaded->db));
}

TEST_F(StorageTest, SaveIsDeterministic) {
  std::string first = SaveBytes("a.claks");
  std::string second = SaveBytes("b.claks");
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.size() % kSnapshotPageSize, 0u);
}

TEST_F(StorageTest, SaveRequiresWarmEngine) {
  // Mutating the database behind the engine invalidates its warmed
  // caches; SaveSnapshot must refuse rather than serialize stale state.
  Table* employees = dataset_.db->FindMutableTable("EMPLOYEE");
  ASSERT_NE(employees, nullptr);
  const Table& t = *employees;
  Row copy = t.row(0);
  copy[0] = Value::String("e999");
  ASSERT_TRUE(employees->Insert(std::move(copy)).ok());
  Status saved = engine_->SaveSnapshot(SnapshotPath("stale.claks"));
  ASSERT_FALSE(saved.ok());
  EXPECT_TRUE(saved.IsInvalidArgument()) << saved.ToString();
}

TEST_F(StorageTest, RejectsMissingFile) {
  Result<LoadedEngine> loaded =
      KeywordSearchEngine::LoadSnapshot(SnapshotPath("nope.claks"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
  EXPECT_EQ(StorageErrorOf(loaded.status()), StorageError::kNone);
}

TEST_F(StorageTest, RejectsTruncatedFile) {
  std::string bytes = SaveBytes("engine.claks");
  // Chopping anywhere — header, table, or body — must be a clean
  // kTruncated rejection.
  for (size_t keep : {sizeof(StoredHeader) / 2, sizeof(StoredHeader) + 8,
                      bytes.size() / 2, bytes.size() - 1}) {
    ExpectRejected(bytes.substr(0, keep), StorageError::kTruncated);
  }
}

TEST_F(StorageTest, RejectsBadMagic) {
  std::string bytes = SaveBytes("engine.claks");
  std::string corrupt = bytes;
  corrupt[0] = 'X';
  ExpectRejected(corrupt, StorageError::kBadMagic);
}

TEST_F(StorageTest, RejectsBadVersion) {
  std::string bytes = SaveBytes("engine.claks");
  std::string corrupt = bytes;
  uint32_t future = kSnapshotFormatVersion + 1;
  // format_version sits right after magic[8] + endian u32.
  std::memcpy(&corrupt[12], &future, sizeof(future));
  ExpectRejected(corrupt, StorageError::kBadVersion);
}

TEST_F(StorageTest, RejectsForeignEndianness) {
  std::string bytes = SaveBytes("engine.claks");
  std::string corrupt = bytes;
  uint32_t swapped = 0x04030201;
  std::memcpy(&corrupt[8], &swapped, sizeof(swapped));
  ExpectRejected(corrupt, StorageError::kBadEndianness);
}

TEST_F(StorageTest, RejectsBodyBitFlip) {
  std::string bytes = SaveBytes("engine.claks");
  std::string corrupt = bytes;
  corrupt[bytes.size() - kSnapshotPageSize / 2] ^= 0x40;
  ExpectRejected(corrupt, StorageError::kChecksumMismatch);
}

TEST_F(StorageTest, RejectsHeaderChecksumFlip) {
  std::string bytes = SaveBytes("engine.claks");
  std::string corrupt = bytes;
  // Flip a bit inside the section table (covered by header_checksum).
  corrupt[sizeof(StoredHeader) + 4] ^= 0x01;
  ExpectRejected(corrupt, StorageError::kChecksumMismatch);
}

TEST_F(StorageTest, ServiceColdStartsFromSnapshot) {
  std::string path = SnapshotPath("service.claks");
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());

  auto service = SearchService::CreateFromSnapshot(path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  EXPECT_EQ((*service)->snapshot()->version, 1u);

  SearchOptions options;
  options.method = SearchMethod::kStream;
  options.top_k = 10;
  auto cold = (*service)->SearchNow("xml research", options);
  auto warm = engine_->Search("xml research", options);
  ASSERT_TRUE(cold.ok() && warm.ok());
  EXPECT_EQ(cold->ToString((*service)->snapshot()->engine->database()),
            warm->ToString(*dataset_.db));
}

TEST_F(StorageTest, MutateDeltaDerivesOnTopOfMmapBase) {
  std::string path = SnapshotPath("service.claks");
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  auto service = SearchService::CreateFromSnapshot(path);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  // Mutate the cold-started service: the derive runs against frozen
  // bases that are zero-copy views into the mapped file.
  Status mutated = (*service)->Mutate([](Database* db) -> Status {
    Table* employees = db->FindMutableTable("EMPLOYEE");
    if (employees == nullptr) return Status::NotFound("EMPLOYEE");
    Row row = employees->row(0);
    row[0] = Value::String("e9001");
    row[1] = Value::String("SNAPSHOT MMAP PROBE");
    return employees->Insert(std::move(row)).status();
  });
  ASSERT_TRUE(mutated.ok()) << mutated.ToString();
  EXPECT_EQ((*service)->snapshot()->version, 2u);

  // The inserted row is searchable on the derived generation...
  SearchOptions options;
  options.top_k = 5;
  auto probe = (*service)->SearchNow("snapshot mmap", options);
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->matches.empty());

  // ...and matches a cold rebuild over an identical database.
  auto cold_db = (*service)->snapshot()->db->Clone();
  auto rebuilt = KeywordSearchEngine::Create(cold_db.get());
  ASSERT_TRUE(rebuilt.ok());
  auto derived_result = (*service)->SearchNow("xml research", options);
  auto rebuilt_result = (*rebuilt)->Search("xml research", options);
  ASSERT_TRUE(derived_result.ok() && rebuilt_result.ok());
  EXPECT_EQ(derived_result->ToString(*(*service)->snapshot()->db),
            rebuilt_result->ToString(*cold_db));
}

TEST_F(StorageTest, ServiceSaveSnapshotCompactsDerivedGenerations) {
  std::string path = SnapshotPath("service.claks");
  ASSERT_TRUE(engine_->SaveSnapshot(path).ok());
  auto service = SearchService::CreateFromSnapshot(path);
  ASSERT_TRUE(service.ok());

  // A small batch leaves derive overlays in place (kAuto threshold), so
  // SaveSnapshot must compact-then-save.
  Status mutated = (*service)->Mutate([](Database* db) -> Status {
    Table* employees = db->FindMutableTable("EMPLOYEE");
    Row row = employees->row(1);
    row[0] = Value::String("e9002");
    return employees->Insert(std::move(row)).status();
  });
  ASSERT_TRUE(mutated.ok()) << mutated.ToString();

  std::string resaved = SnapshotPath("resaved.claks");
  Status saved = (*service)->SaveSnapshot(resaved);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  // The re-saved file loads and answers like the live service.
  auto reloaded = SearchService::CreateFromSnapshot(resaved);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  SearchOptions options;
  options.top_k = 10;
  auto a = (*service)->SearchNow("xml research", options);
  auto b = (*reloaded)->SearchNow("xml research", options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ToString(*(*service)->snapshot()->db),
            b->ToString(*(*reloaded)->snapshot()->db));
}

TEST_F(StorageTest, StorageErrorNamesRoundTrip) {
  for (StorageError code :
       {StorageError::kTruncated, StorageError::kBadMagic,
        StorageError::kBadVersion, StorageError::kBadEndianness,
        StorageError::kChecksumMismatch, StorageError::kMalformed}) {
    Status status = MakeStorageError(code, "probe");
    EXPECT_EQ(StorageErrorOf(status), code) << status.ToString();
  }
  EXPECT_EQ(StorageErrorOf(Status::OK()), StorageError::kNone);
  EXPECT_EQ(StorageErrorOf(Status::Internal("unrelated")),
            StorageError::kNone);
}

}  // namespace
}  // namespace claks
