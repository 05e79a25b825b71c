// Copyright 2026 The claks Authors.
//
// Randomized differential sweeps: seeded-random QuerySpecs (method x
// ranker x top_k x AND/OR x page size) run through the prepared-query +
// cursor API, and two engines that must agree are compared byte for
// byte — same hits, same ranking keys, same cursor page boundaries, same
// drain point. Every spec derives from one uint64 seed; a failure prints
// that seed and the repro line `CLAKS_DIFF_SEED=<seed> ./differential_test`.
//
// The mutation sweep hardens the incremental-mutation path: seeded-random
// insert/delete interleavings applied through SearchService::Mutate, the
// delta-derived snapshot after every batch compared (same RunOutcome
// fingerprints) against an engine rebuilt from scratch over a clone of
// the same storage.
//
// Two further sweeps close the loop over the storage subsystem: the
// round-trip sweep runs every spec against an engine that was serialized
// to a snapshot file and mmap-loaded back, asserting byte-identical
// RunOutcome fingerprints against the in-memory original over the 1x and
// 10x company_gen datasets; the snapshot-mutation sweep cold-starts a
// SearchService from that file and proves delta derivations on the
// frozen mmap'd base match engines rebuilt from scratch.
//
// Environment knobs (all optional):
//   CLAKS_DIFF_SEED            run exactly one seed instead of the sweep
//   CLAKS_DIFF_MUTATION_SPECS  mutation scenarios (default 100)
//   CLAKS_DIFF_SNAPSHOT_SPECS  snapshot round-trip specs (default 100)
//   CLAKS_DIFF_SNAPSHOT_MUTATION_SPECS
//                              mutate-after-load scenarios (default 40)

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"
#include "core/cursor.h"
#include "core/engine.h"
#include "core/query_spec.h"
#include "datasets/company_gen.h"
#include "relational/database.h"
#include "service/search_service.h"
#include "storage/snapshot.h"

namespace claks {
namespace {

// ---------------------------------------------------------------------------
// Spec generation: everything derives from one seed
// ---------------------------------------------------------------------------

/// Query vocabulary of the company_gen topic/name pools
/// (src/datasets/company_gen.cc), plus one word matching nothing to
/// exercise AND-empties-the-result vs OR-drops-the-keyword.
const char* kVocabulary[] = {"xml",      "databases", "retrieval",
                             "networks", "security",  "indexing",
                             "ranking",  "Smith",     "Miller",
                             "Chen",     "unmatchablezzz"};

const SearchMethod kMethods[] = {SearchMethod::kStream,
                                 SearchMethod::kEnumerate,
                                 SearchMethod::kMtjnt,
                                 SearchMethod::kDiscover,
                                 SearchMethod::kBanks};

const RankerKind kRankers[] = {
    RankerKind::kRdbLength,     RankerKind::kErLength,
    RankerKind::kCloseFirst,    RankerKind::kLoosePenalty,
    RankerKind::kInstanceClose, RankerKind::kCombined,
    RankerKind::kAmbiguity,     RankerKind::kMoreContext};

struct DiffSpec {
  uint64_t seed = 0;
  bool big_dataset = false;  ///< 10x company_gen instead of 1x
  std::string query;
  SearchOptions options;
  /// Cyclic page-size schedule for cursor consumption.
  std::vector<size_t> page_sizes;

  std::string ToString() const {
    char buffer[256];
    std::string pages;
    for (size_t size : page_sizes) {
      if (!pages.empty()) pages += ",";
      pages += std::to_string(size);
    }
    std::snprintf(buffer, sizeof(buffer),
                  "seed=%llu dataset=%s query='%s' method=%s ranker=%s "
                  "top_k=%zu edges=%zu tmax=%zu and=%d pel=%zu pages=%s",
                  static_cast<unsigned long long>(seed),
                  big_dataset ? "10x" : "1x", query.c_str(),
                  SearchMethodToString(options.method),
                  RankerKindToString(options.ranker), options.top_k,
                  options.max_rdb_edges, options.tmax,
                  options.require_all_keywords ? 1 : 0,
                  options.per_endpoint_limit, pages.c_str());
    return buffer;
  }
};

DiffSpec MakeSpec(uint64_t seed) {
  Rng rng(seed);
  DiffSpec spec;
  spec.seed = seed;
  // Every 4th spec (on average) runs at 10x scale; the rest stay on the
  // small instance so the sweeps finish fast.
  spec.big_dataset = rng.Bernoulli(0.25);

  spec.options.method = kMethods[rng.Index(std::size(kMethods))];
  spec.options.ranker = kRankers[rng.Index(std::size(kRankers))];
  spec.options.max_rdb_edges = 2 + rng.Index(3);  // 2..4
  spec.options.tmax = 2 + rng.Index(2);           // 2..3
  spec.options.require_all_keywords = rng.Bernoulli(0.5);
  // kStream needs a positive top_k under the validated prepared API;
  // the materialized methods occasionally page the full result space.
  bool unlimited = spec.options.method != SearchMethod::kStream &&
                   !spec.big_dataset && rng.Bernoulli(0.2);
  spec.options.top_k = unlimited ? 0 : 1 + rng.Index(10);
  if (spec.options.method != SearchMethod::kBanks && rng.Bernoulli(0.3)) {
    spec.options.per_endpoint_limit = 1 + rng.Index(2);
  }
  if (rng.Bernoulli(0.3)) spec.options.instance_check = false;

  // Two distinct vocabulary words; the tree methods sometimes take a
  // third (kEnumerate/kStream are two-keyword methods).
  size_t first = rng.Index(std::size(kVocabulary));
  size_t second = rng.Index(std::size(kVocabulary) - 1);
  if (second >= first) ++second;
  spec.query = std::string(kVocabulary[first]) + " " + kVocabulary[second];
  bool tree_method = spec.options.method == SearchMethod::kMtjnt ||
                     spec.options.method == SearchMethod::kDiscover ||
                     spec.options.method == SearchMethod::kBanks;
  if (tree_method && rng.Bernoulli(0.3)) {
    size_t third = rng.Index(std::size(kVocabulary));
    spec.query += std::string(" ") + kVocabulary[third];
  }

  size_t schedule = 1 + rng.Index(3);
  for (size_t i = 0; i < schedule; ++i) {
    spec.page_sizes.push_back(1 + rng.Index(4));  // 1..4
  }
  return spec;
}

// ---------------------------------------------------------------------------
// One run: prepare, open, page to the end, fingerprint everything
// ---------------------------------------------------------------------------

std::string FormatDouble(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// Byte-comparable form of one hit: rendering, structural facts and the
/// exact ranking key under the spec's ranker.
std::string Fingerprint(const SearchHit& hit, const Ranker& ranker) {
  std::string out = hit.rendered;
  out += "|key=";
  for (double v : ranker.SortKey(hit.ToRankInput())) {
    out += FormatDouble(v);
    out += ",";
  }
  out += "|rdb=" + std::to_string(hit.rdb_length);
  out += "|er=" + std::to_string(hit.er_length);
  out += "|path=" + std::to_string(hit.connection.has_value() ? 1 : 0);
  out += "|text=" + FormatDouble(hit.text_score);
  out += "|amb=" + FormatDouble(hit.ambiguity);
  if (hit.instance_close.has_value()) {
    out += "|ic=" + std::to_string(*hit.instance_close ? 1 : 0);
  }
  return out;
}

/// Everything a run exposes that two agreeing engines must reproduce.
/// Pages keep their boundaries (a vector per Next call), so a run that
/// slips one hit across a page edge, or drains one page early or late,
/// fails even when the concatenation matches.
struct RunOutcome {
  bool prepare_ok = false;
  std::string prepare_error;
  std::vector<std::vector<std::string>> pages;
  std::vector<bool> drained_after;  ///< Drained() after each page
  size_t returned = 0;

  bool operator==(const RunOutcome& other) const {
    return prepare_ok == other.prepare_ok &&
           prepare_error == other.prepare_error && pages == other.pages &&
           drained_after == other.drained_after &&
           returned == other.returned;
  }

  std::string ToString() const {
    if (!prepare_ok) return "prepare failed: " + prepare_error;
    std::string out = "returned=" + std::to_string(returned);
    for (size_t p = 0; p < pages.size(); ++p) {
      out += "\n  page " + std::to_string(p) +
             (drained_after[p] ? " (drained)" : "") + ":";
      for (const std::string& hit : pages[p]) out += "\n    " + hit;
    }
    return out;
  }
};

RunOutcome RunSpec(const KeywordSearchEngine& engine, const DiffSpec& spec) {
  RunOutcome outcome;
  auto prepared = engine.Prepare(spec.query, spec.options);
  if (!prepared.ok()) {
    // A prepare failure must reproduce identically on both engines;
    // record it instead of aborting the comparison.
    outcome.prepare_error = prepared.status().message();
    return outcome;
  }
  outcome.prepare_ok = true;
  auto cursor = prepared->Open();
  if (!cursor.ok()) {
    outcome.prepare_ok = false;
    outcome.prepare_error = cursor.status().message();
    return outcome;
  }
  auto ranker = MakeRanker(spec.options.ranker);
  constexpr size_t kMaxPages = 4096;
  for (size_t page_index = 0; page_index < kMaxPages; ++page_index) {
    size_t size = spec.page_sizes[page_index % spec.page_sizes.size()];
    auto page = (*cursor)->Next(size);
    if (!page.ok()) {
      outcome.prepare_ok = false;
      outcome.prepare_error = page.status().message();
      return outcome;
    }
    std::vector<std::string> fingerprints;
    for (const SearchHit& hit : *page) {
      fingerprints.push_back(Fingerprint(hit, *ranker));
    }
    bool empty = fingerprints.empty();
    outcome.pages.push_back(std::move(fingerprints));
    outcome.drained_after.push_back((*cursor)->Drained());
    if ((*cursor)->Drained() || empty) break;
  }
  outcome.returned = (*cursor)->Stats().returned;
  return outcome;
}

// ---------------------------------------------------------------------------
// Suite engines
// ---------------------------------------------------------------------------

size_t EnvCount(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<size_t>(std::strtoull(value, nullptr, 10));
}

/// Both engines, built once for the whole suite.
struct Engines {
  GeneratedDataset small_data;
  GeneratedDataset big_data;
  std::unique_ptr<KeywordSearchEngine> small_engine;
  std::unique_ptr<KeywordSearchEngine> big_engine;
};

Engines* BuildEngines() {
  auto engines = std::make_unique<Engines>();
  auto small = GenerateCompanyDataset(CompanyGenOptions::AtScale(1));
  CLAKS_CHECK(small.ok());
  engines->small_data = std::move(small).ValueOrDie();
  auto big = GenerateCompanyDataset(CompanyGenOptions::AtScale(10));
  CLAKS_CHECK(big.ok());
  engines->big_data = std::move(big).ValueOrDie();
  auto small_engine = KeywordSearchEngine::Create(
      engines->small_data.db.get(), engines->small_data.er_schema,
      engines->small_data.mapping);
  CLAKS_CHECK(small_engine.ok());
  engines->small_engine = std::move(small_engine).ValueOrDie();
  auto big_engine = KeywordSearchEngine::Create(
      engines->big_data.db.get(), engines->big_data.er_schema,
      engines->big_data.mapping);
  CLAKS_CHECK(big_engine.ok());
  engines->big_engine = std::move(big_engine).ValueOrDie();
  return engines.release();
}

const Engines& GetEngines() {
  static Engines* engines = BuildEngines();
  return *engines;
}

// ---------------------------------------------------------------------------
// Mutation-sequence mode: delta-derived snapshots vs cold rebuilds
// ---------------------------------------------------------------------------

/// Inserts one schema-valid random row into a random table: FK attributes
/// copy the key of a random live parent row, other PK attributes get a
/// fresh unique value, the rest draw from the query vocabulary (so
/// mutations move keyword matches around). Returns false when no valid
/// insert exists (empty parent, PK collision).
bool TryRandomInsert(Database* db, Rng* rng, uint64_t* unique_counter) {
  uint32_t t = static_cast<uint32_t>(rng->Index(db->num_tables()));
  Table* tab = db->FindMutableTable(db->table(t).name());
  CLAKS_CHECK(tab != nullptr);
  const TableSchema& schema = tab->schema();
  std::vector<Value> values(schema.num_attributes(), Value::Null());
  std::set<size_t> fk_attrs;
  for (const ForeignKeyDef& fk : schema.foreign_keys()) {
    const Table* parent = db->FindTable(fk.referenced_table);
    if (parent == nullptr || parent->live_rows() == 0) return false;
    size_t target = rng->Index(parent->live_rows());
    size_t parent_row = parent->num_rows();
    for (size_t r = 0, live = 0; r < parent->num_rows(); ++r) {
      if (parent->IsDeleted(r)) continue;
      if (live++ == target) {
        parent_row = r;
        break;
      }
    }
    CLAKS_CHECK(parent_row < parent->num_rows());
    for (size_t k = 0; k < fk.local_attributes.size(); ++k) {
      auto local = schema.AttributeIndex(fk.local_attributes[k]);
      auto referenced =
          parent->schema().AttributeIndex(fk.referenced_attributes[k]);
      if (!local.has_value() || !referenced.has_value()) return false;
      values[*local] = parent->row(parent_row)[*referenced];
      fk_attrs.insert(*local);
    }
  }
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (fk_attrs.count(i) > 0) continue;
    const AttributeDef& attr = schema.attribute(i);
    if (schema.IsPrimaryKeyAttribute(attr.name)) {
      values[i] = Value::String("mut" + std::to_string((*unique_counter)++));
    } else if (attr.type == ValueType::kInt64) {
      values[i] = Value::Int64(static_cast<int64_t>(1 + rng->Index(50)));
    } else {
      values[i] =
          Value::String(kVocabulary[rng->Index(std::size(kVocabulary))]);
    }
  }
  // WORKS_ON-style tables key on their FK pair: a random parent choice can
  // collide with an existing live row, which would be a PK violation.
  std::vector<size_t> pk_indices = schema.PrimaryKeyIndices();
  Row key;
  for (size_t idx : pk_indices) key.push_back(values[idx]);
  if (!tab->FindRows(pk_indices, key).empty()) return false;
  return tab->InsertValues(std::move(values)).ok();
}

/// True when any live row of any table references `row` of `tab`.
bool RowIsReferenced(const Database& db, const Table& tab, size_t row) {
  std::vector<size_t> pk_indices = tab.schema().PrimaryKeyIndices();
  Row key;
  for (size_t idx : pk_indices) key.push_back(tab.row(row)[idx]);
  for (uint32_t u = 0; u < db.num_tables(); ++u) {
    const Table& child = db.table(u);
    for (const ForeignKeyDef& fk : child.schema().foreign_keys()) {
      if (fk.referenced_table != tab.name()) continue;
      std::vector<size_t> local;
      for (const std::string& name : fk.local_attributes) {
        auto idx = child.schema().AttributeIndex(name);
        CLAKS_CHECK(idx.has_value());
        local.push_back(*idx);
      }
      if (!child.FindRows(local, key).empty()) return true;
    }
  }
  return false;
}

/// Tombstones one random live, unreferenced row (RESTRICT semantics keep
/// referenced rows undeletable). Returns false when the chosen table has
/// no deletable row.
bool TryRandomDelete(Database* db, Rng* rng) {
  uint32_t t = static_cast<uint32_t>(rng->Index(db->num_tables()));
  Table* tab = db->FindMutableTable(db->table(t).name());
  CLAKS_CHECK(tab != nullptr);
  if (tab->live_rows() == 0) return false;
  size_t start = rng->Index(tab->num_rows());
  for (size_t step = 0; step < tab->num_rows(); ++step) {
    size_t r = (start + step) % tab->num_rows();
    if (tab->IsDeleted(r)) continue;
    if (RowIsReferenced(*db, *tab, r)) continue;
    return tab->Delete(r).ok();
  }
  return false;
}

/// One op, insert-biased; falls back to the other kind when the first
/// choice has no valid move.
void ApplyRandomOp(Database* db, Rng* rng, uint64_t* unique_counter) {
  bool insert = rng->Bernoulli(0.65);
  for (int attempt = 0; attempt < 2; ++attempt, insert = !insert) {
    if (insert ? TryRandomInsert(db, rng, unique_counter)
               : TryRandomDelete(db, rng)) {
      return;
    }
  }
}

DeltaPolicy RandomPolicy(Rng* rng) {
  DeltaPolicy policy;
  switch (rng->Index(3)) {
    case 0:
      policy.mode = DeltaPolicy::Mode::kAuto;
      policy.min_ops = 1 + rng->Index(6);
      policy.fraction = 0.0;
      break;
    case 1:
      policy.mode = DeltaPolicy::Mode::kNeverCompact;
      break;
    default:
      policy.mode = DeltaPolicy::Mode::kAlwaysCompact;
      break;
  }
  return policy;
}

TEST(DifferentialTest, DeltaMutationSequencesMatchColdRebuild) {
  constexpr uint64_t kBaseSeed = 0xd317a000;
  std::vector<uint64_t> seeds;
  if (const char* forced = std::getenv("CLAKS_DIFF_SEED")) {
    seeds.push_back(std::strtoull(forced, nullptr, 10));
  } else {
    size_t count = EnvCount("CLAKS_DIFF_MUTATION_SPECS", 100);
    for (size_t i = 0; i < count; ++i) seeds.push_back(kBaseSeed + i);
  }

  const GeneratedDataset& master = GetEngines().small_data;
  for (uint64_t seed : seeds) {
    // The query spec and the mutation stream derive from the same seed;
    // the spec's dataset flag is ignored (mutations run on the 1x clone).
    DiffSpec spec = MakeSpec(seed);
    Rng rng(seed ^ 0x5ca1ab1eu);

    ServiceOptions options;
    options.num_threads = 1;
    options.cache_capacity = 0;
    options.delta_policy = RandomPolicy(&rng);
    auto created = SearchService::Create(master.db->Clone(),
                                         master.er_schema, master.mapping,
                                         options);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<SearchService> service =
        std::move(created).ValueOrDie();

    uint64_t unique_counter = 0;
    size_t batches = 1 + rng.Index(3);
    for (size_t batch = 0; batch < batches; ++batch) {
      size_t ops = 1 + rng.Index(6);
      Status applied = service->Mutate([&](Database* db) {
        for (size_t op = 0; op < ops; ++op) {
          ApplyRandomOp(db, &rng, &unique_counter);
        }
        return Status::OK();
      });
      ASSERT_TRUE(applied.ok()) << applied.message();

      // Cold rebuild over a clone of the published snapshot's storage:
      // identical slot layout, engine built from scratch.
      std::shared_ptr<const EngineSnapshot> snapshot = service->snapshot();
      std::unique_ptr<Database> rebuilt_db = snapshot->db->Clone();
      auto rebuilt = KeywordSearchEngine::Create(
          rebuilt_db.get(), master.er_schema, master.mapping);
      ASSERT_TRUE(rebuilt.ok());

      RunOutcome derived_run = RunSpec(*snapshot->engine, spec);
      RunOutcome rebuilt_run = RunSpec(**rebuilt, spec);
      if (!(derived_run == rebuilt_run)) {
        ADD_FAILURE()
            << "delta-derived snapshot diverged from cold rebuild\n"
            << "spec: " << spec.ToString() << "\n"
            << "batch=" << batch << "\n"
            << "derived: " << derived_run.ToString() << "\n"
            << "rebuilt: " << rebuilt_run.ToString() << "\n"
            << "reproduce: CLAKS_DIFF_SEED=" << seed
            << " ./differential_test --gtest_filter="
               "DifferentialTest.DeltaMutationSequencesMatchColdRebuild";
        return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot round-trip mode: mmap-loaded engines vs in-memory originals
// ---------------------------------------------------------------------------

/// Both suite engines serialized to snapshot files and mmap-loaded back,
/// built once. The LoadedEngine members keep the mmap'd files alive for
/// the whole process, so every zero-copy view stays valid.
struct SnapshotEngines {
  std::filesystem::path dir;
  std::string small_path;
  std::string big_path;
  LoadedEngine small_loaded;
  LoadedEngine big_loaded;
};

SnapshotEngines* BuildSnapshotEngines() {
  auto out = std::make_unique<SnapshotEngines>();
  out->dir = std::filesystem::temp_directory_path() /
             ("claks_diff_snapshot_" + std::to_string(::getpid()));
  std::filesystem::create_directories(out->dir);
  out->small_path = (out->dir / "small.claks").string();
  out->big_path = (out->dir / "big.claks").string();
  // Save requires warm engines; Warmup is idempotent and, by design,
  // result-invariant (the warm-identity unit tests pin that down).
  const Engines& engines = GetEngines();
  engines.small_engine->Warmup();
  engines.big_engine->Warmup();
  CLAKS_CHECK(engines.small_engine->SaveSnapshot(out->small_path).ok());
  CLAKS_CHECK(engines.big_engine->SaveSnapshot(out->big_path).ok());
  auto small = KeywordSearchEngine::LoadSnapshot(out->small_path);
  CLAKS_CHECK(small.ok());
  out->small_loaded = std::move(small).ValueOrDie();
  auto big = KeywordSearchEngine::LoadSnapshot(out->big_path);
  CLAKS_CHECK(big.ok());
  out->big_loaded = std::move(big).ValueOrDie();
  return out.release();
}

const SnapshotEngines& GetSnapshotEngines() {
  static SnapshotEngines* engines = BuildSnapshotEngines();
  return *engines;
}

TEST(DifferentialTest, SnapshotRoundTripIsByteIdentical) {
  constexpr uint64_t kBaseSeed = 0x5a9e0000;
  std::vector<uint64_t> seeds;
  if (const char* forced = std::getenv("CLAKS_DIFF_SEED")) {
    seeds.push_back(std::strtoull(forced, nullptr, 10));
  } else {
    size_t count = EnvCount("CLAKS_DIFF_SNAPSHOT_SPECS", 100);
    for (size_t i = 0; i < count; ++i) seeds.push_back(kBaseSeed + i);
  }

  for (uint64_t seed : seeds) {
    DiffSpec spec = MakeSpec(seed);
    const KeywordSearchEngine& in_memory = spec.big_dataset
                                               ? *GetEngines().big_engine
                                               : *GetEngines().small_engine;
    const KeywordSearchEngine& loaded =
        spec.big_dataset ? *GetSnapshotEngines().big_loaded.engine
                         : *GetSnapshotEngines().small_loaded.engine;
    RunOutcome memory_run = RunSpec(in_memory, spec);
    RunOutcome loaded_run = RunSpec(loaded, spec);
    if (!(loaded_run == memory_run)) {
      ADD_FAILURE() << "mmap-loaded engine diverged from the original\n"
                    << "spec: " << spec.ToString() << "\n"
                    << "in-memory: " << memory_run.ToString() << "\n"
                    << "loaded:    " << loaded_run.ToString() << "\n"
                    << "reproduce: CLAKS_DIFF_SEED=" << seed
                    << " ./differential_test --gtest_filter="
                       "DifferentialTest.SnapshotRoundTripIsByteIdentical";
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot-mutation mode: delta derivations on the frozen mmap'd base
// ---------------------------------------------------------------------------

TEST(DifferentialTest, MutationsAfterSnapshotLoadMatchColdRebuild) {
  constexpr uint64_t kBaseSeed = 0x10ad0000;
  std::vector<uint64_t> seeds;
  if (const char* forced = std::getenv("CLAKS_DIFF_SEED")) {
    seeds.push_back(std::strtoull(forced, nullptr, 10));
  } else {
    size_t count = EnvCount("CLAKS_DIFF_SNAPSHOT_MUTATION_SPECS", 40);
    for (size_t i = 0; i < count; ++i) seeds.push_back(kBaseSeed + i);
  }

  const std::string& path = GetSnapshotEngines().small_path;
  const GeneratedDataset& master = GetEngines().small_data;
  for (uint64_t seed : seeds) {
    DiffSpec spec = MakeSpec(seed);
    Rng rng(seed ^ 0xf11e5eedULL);

    ServiceOptions options;
    options.num_threads = 1;
    options.cache_capacity = 0;
    // Never compact: every batch must delta-derive directly on top of
    // the zero-copy views into the mmap'd file, the path this sweep is
    // here to prove.
    options.delta_policy.mode = DeltaPolicy::Mode::kNeverCompact;
    auto created = SearchService::CreateFromSnapshot(path, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<SearchService> service = std::move(created).ValueOrDie();

    uint64_t unique_counter = 0;
    size_t batches = 1 + rng.Index(3);
    for (size_t batch = 0; batch < batches; ++batch) {
      size_t ops = 1 + rng.Index(6);
      Status applied = service->Mutate([&](Database* db) {
        for (size_t op = 0; op < ops; ++op) {
          ApplyRandomOp(db, &rng, &unique_counter);
        }
        return Status::OK();
      });
      ASSERT_TRUE(applied.ok()) << applied.message();

      std::shared_ptr<const EngineSnapshot> snapshot = service->snapshot();
      std::unique_ptr<Database> rebuilt_db = snapshot->db->Clone();
      auto rebuilt = KeywordSearchEngine::Create(
          rebuilt_db.get(), master.er_schema, master.mapping);
      ASSERT_TRUE(rebuilt.ok());

      RunOutcome derived_run = RunSpec(*snapshot->engine, spec);
      RunOutcome rebuilt_run = RunSpec(**rebuilt, spec);
      if (!(derived_run == rebuilt_run)) {
        ADD_FAILURE()
            << "mutation on the mmap'd base diverged from cold rebuild\n"
            << "spec: " << spec.ToString() << "\n"
            << "batch=" << batch << "\n"
            << "derived: " << derived_run.ToString() << "\n"
            << "rebuilt: " << rebuilt_run.ToString() << "\n"
            << "reproduce: CLAKS_DIFF_SEED=" << seed
            << " ./differential_test --gtest_filter="
               "DifferentialTest.MutationsAfterSnapshotLoadMatchColdRebuild";
        return;
      }
    }
  }
}

}  // namespace
}  // namespace claks
