// Copyright 2026 The claks Authors.
//
// Snapshot writer + loader (see storage/snapshot.h and storage/format.h
// for the contract). StorageCodec is the single friend the engine's
// frozen structures open up to: Save reads the built bases through
// public accessors where possible and the friend door where not; Load
// *installs* — it never replays mutations. In particular the table
// loader builds each BaseSegment's pk_index from live rows only
// (mirroring Table::Rebase), because naive insert-replay would trip the
// duplicate-primary-key check the moment a snapshot contains a deleted
// key that was later reinserted into a different slot.

#include "storage/snapshot.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/thread_pool.h"
#include "er/er_to_relational.h"
#include "graph/schema_graph.h"
#include "observability/metrics.h"
#include "observability/trace.h"
#include "relational/catalog_io.h"
#include "storage/format.h"
#include "storage/mmap_file.h"

namespace claks {

// Storage-engine metrics (catalog: docs/OBSERVABILITY.md).
CLAKS_METRIC_COUNTER(g_storage_saves, "claks_storage_saves_total",
                     "Engine snapshots serialized to disk");
CLAKS_METRIC_COUNTER(g_storage_loads, "claks_storage_loads_total",
                     "Engine snapshots loaded from disk");
CLAKS_METRIC_COUNTER(g_storage_load_failures,
                     "claks_storage_load_failures_total",
                     "Snapshot loads rejected (corruption, bad format)");
CLAKS_METRIC_HISTOGRAM(g_storage_save_us, "claks_storage_save_duration_us",
                       "Wall time of SaveEngineSnapshot");
CLAKS_METRIC_HISTOGRAM(g_storage_load_us, "claks_storage_load_duration_us",
                       "Wall time of LoadEngineSnapshot");
CLAKS_METRIC_HISTOGRAM(g_storage_file_bytes, "claks_storage_snapshot_bytes",
                       "Size of written snapshot files");

namespace {

uint64_t ElapsedUs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

constexpr size_t AlignUp(size_t value, size_t alignment) {
  return (value + alignment - 1) / alignment * alignment;
}

Status TruncatedError(const std::string& what) {
  return MakeStorageError(StorageError::kTruncated, what);
}

Status MalformedError(const std::string& what) {
  return MakeStorageError(StorageError::kMalformed, what);
}

Status ChecksumError(const std::string& what) {
  return MakeStorageError(StorageError::kChecksumMismatch, what);
}

// ---------------------------------------------------------------------------
// Section buffers
// ---------------------------------------------------------------------------

/// Append-only byte buffer for one section payload. Multi-byte writes
/// go through memcpy (no alignment assumptions); arrays are 8-aligned
/// within the section so the loader can map them in place (sections
/// start page-aligned, so section-relative alignment is absolute
/// alignment).
class SectionWriter {
 public:
  void Align8() { buf_.resize(AlignUp(buf_.size(), 8), '\0'); }

  void PutRaw(const void* data, size_t size) {
    if (size == 0) return;  // empty vectors may hand us nullptr
    buf_.append(static_cast<const char*>(data), size);
  }
  template <typename T>
  void Put(const T& value) {
    static_assert(std::is_trivially_copyable<T>::value, "POD only");
    PutRaw(&value, sizeof(T));
  }
  void PutU8(uint8_t v) { Put(v); }
  void PutU32(uint32_t v) { Put(v); }
  void PutU64(uint64_t v) { Put(v); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  /// u64 count, 8-aligned element data.
  template <typename T>
  void PutArray(const T* data, size_t count) {
    PutU64(count);
    Align8();
    PutRaw(data, count * sizeof(T));
  }

  const std::string& bytes() const { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over one mapped section payload. Every overrun
/// or impossible count is a typed kMalformed error, never UB — the
/// checksums upstream make these unreachable for honest files, but the
/// loader must hold up even if they are bypassed.
class SectionReader {
 public:
  SectionReader(const uint8_t* data, size_t size, const char* name)
      : data_(data), size_(size), name_(name) {}

  Status Align8() {
    pos_ = AlignUp(pos_, 8);
    if (pos_ > size_) return Overrun();
    return Status::OK();
  }
  Status GetRaw(void* out, size_t size) {
    CLAKS_RETURN_NOT_OK(Need(size));
    std::memcpy(out, data_ + pos_, size);
    pos_ += size;
    return Status::OK();
  }
  template <typename T>
  Status Get(T* out) {
    static_assert(std::is_trivially_copyable<T>::value, "POD only");
    return GetRaw(out, sizeof(T));
  }
  Status GetU8(uint8_t* out) { return Get(out); }
  Status GetU32(uint32_t* out) { return Get(out); }
  Status GetU64(uint64_t* out) { return Get(out); }
  Status GetString(std::string* out) {
    uint32_t length = 0;
    CLAKS_RETURN_NOT_OK(GetU32(&length));
    CLAKS_RETURN_NOT_OK(Need(length));
    out->assign(reinterpret_cast<const char*>(data_ + pos_), length);
    pos_ += length;
    return Status::OK();
  }
  /// Borrows `size` raw bytes in place (no copy).
  Status GetRawView(const uint8_t** out, size_t size) {
    CLAKS_RETURN_NOT_OK(Need(size));
    *out = data_ + pos_;
    pos_ += size;
    return Status::OK();
  }
  /// Zero-copy array view: u64 count, 8-aligned element data, pointer
  /// into the mapping.
  template <typename T>
  Status GetArray(const T** out, uint64_t* count) {
    CLAKS_RETURN_NOT_OK(GetU64(count));
    CLAKS_RETURN_NOT_OK(Align8());
    if (*count > (size_ - pos_) / sizeof(T)) return Overrun();
    *out = reinterpret_cast<const T*>(data_ + pos_);
    pos_ += *count * sizeof(T);
    return Status::OK();
  }

 private:
  Status Need(size_t size) {
    if (size > size_ - pos_) return Overrun();
    return Status::OK();
  }
  Status Overrun() const {
    return MalformedError(std::string("section ") + name_ +
                          " ends mid-record");
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  const char* name_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Error typing
// ---------------------------------------------------------------------------

const char* StorageErrorName(StorageError code) {
  switch (code) {
    case StorageError::kNone: return "none";
    case StorageError::kTruncated: return "truncated";
    case StorageError::kBadMagic: return "bad-magic";
    case StorageError::kBadVersion: return "bad-version";
    case StorageError::kBadEndianness: return "bad-endianness";
    case StorageError::kChecksumMismatch: return "checksum-mismatch";
    case StorageError::kMalformed: return "malformed";
  }
  return "unknown";
}

Status MakeStorageError(StorageError code, const std::string& message) {
  std::string full = std::string("snapshot[") + StorageErrorName(code) +
                     "]: " + message;
  if (code == StorageError::kChecksumMismatch) {
    return Status::IntegrityViolation(full);
  }
  return Status::ParseError(full);
}

StorageError StorageErrorOf(const Status& status) {
  if (status.ok()) return StorageError::kNone;
  const std::string& message = status.message();
  constexpr StorageError kAll[] = {
      StorageError::kTruncated,      StorageError::kBadMagic,
      StorageError::kBadVersion,     StorageError::kBadEndianness,
      StorageError::kChecksumMismatch, StorageError::kMalformed,
  };
  for (StorageError code : kAll) {
    std::string prefix = std::string("snapshot[") + StorageErrorName(code) +
                         "]:";
    if (message.compare(0, prefix.size(), prefix) == 0) return code;
  }
  return StorageError::kNone;
}

// ---------------------------------------------------------------------------
// StorageCodec
// ---------------------------------------------------------------------------

/// The one class the engine's frozen structures befriend. All state is
/// per-call; the methods are static.
class StorageCodec {
 public:
  static Status Save(const KeywordSearchEngine& engine,
                     const std::string& path);
  static Result<LoadedEngine> Load(const std::string& path);

 private:
  // Save-side section builders.
  static void WriteErModel(const ERSchema& er,
                           const ErRelationalMapping& mapping,
                           SectionWriter* w);
  static void WriteTables(const Database& db, SectionWriter* w);
  static void WriteJoinIndexes(const Database& db, SectionWriter* w);
  static void WriteGraph(const DataGraph& graph, SectionWriter* w);
  static void WriteTextIndex(const InvertedIndex& index, SectionWriter* w);
  static void WriteStatistics(const InstanceStatistics& stats,
                              SectionWriter* w);

  // Load-side section installers. `keepalive` is the mapped file every
  // zero-copy FlatVector view pins.
  static Status ReadErModel(SectionReader* r, ERSchema* er,
                            ErRelationalMapping* mapping);
  static Status ReadTables(SectionReader* r, Database* db);
  static Status ReadOneTable(SectionReader* r, Table* table);
  static Status ReadJoinIndexes(SectionReader* r, Database* db,
                                std::shared_ptr<const void> keepalive);
  static Result<std::unique_ptr<DataGraph>> ReadGraph(
      SectionReader* r, const Database* db,
      std::shared_ptr<const void> keepalive);
  static Result<std::unique_ptr<InvertedIndex>> ReadTextIndex(
      SectionReader* r, const Database* db);
  static Result<std::unique_ptr<InstanceStatistics>> ReadStatistics(
      SectionReader* r);
};

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

namespace {

void WriteErAttributes(const std::vector<ErAttribute>& attributes,
                       SectionWriter* w) {
  w->PutU32(static_cast<uint32_t>(attributes.size()));
  for (const ErAttribute& attr : attributes) {
    w->PutString(attr.name);
    w->PutU32(static_cast<uint32_t>(attr.type));
    uint32_t flags = (attr.is_key ? 1u : 0u) |
                     (attr.searchable ? 2u : 0u) |
                     (attr.nullable ? 4u : 0u);
    w->PutU32(flags);
  }
}

Status ReadErAttributes(SectionReader* r,
                        std::vector<ErAttribute>* attributes) {
  uint32_t count = 0;
  CLAKS_RETURN_NOT_OK(r->GetU32(&count));
  attributes->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ErAttribute attr;
    CLAKS_RETURN_NOT_OK(r->GetString(&attr.name));
    uint32_t type = 0;
    uint32_t flags = 0;
    CLAKS_RETURN_NOT_OK(r->GetU32(&type));
    CLAKS_RETURN_NOT_OK(r->GetU32(&flags));
    if (type > static_cast<uint32_t>(ValueType::kString)) {
      return MalformedError("ER attribute with unknown value type");
    }
    attr.type = static_cast<ValueType>(type);
    attr.is_key = (flags & 1u) != 0;
    attr.searchable = (flags & 2u) != 0;
    attr.nullable = (flags & 4u) != 0;
    attributes->push_back(std::move(attr));
  }
  return Status::OK();
}

}  // namespace

void StorageCodec::WriteErModel(const ERSchema& er,
                                const ErRelationalMapping& mapping,
                                SectionWriter* w) {
  w->PutU32(static_cast<uint32_t>(er.entity_types().size()));
  for (const EntityType& entity : er.entity_types()) {
    w->PutString(entity.name);
    WriteErAttributes(entity.attributes, w);
  }
  w->PutU32(static_cast<uint32_t>(er.relationships().size()));
  for (const RelationshipType& rel : er.relationships()) {
    w->PutString(rel.name);
    w->PutString(rel.left_entity);
    w->PutString(rel.right_entity);
    w->PutU32(static_cast<uint32_t>(rel.cardinality));
    WriteErAttributes(rel.attributes, w);
  }
  w->PutU32(static_cast<uint32_t>(mapping.tables.size()));
  for (const auto& [table_name, info] : mapping.tables) {
    w->PutString(table_name);
    w->PutU32(info.is_middle_relation ? 1u : 0u);
    w->PutString(info.er_name);
  }
  w->PutU32(static_cast<uint32_t>(mapping.foreign_keys.size()));
  for (const auto& [key, info] : mapping.foreign_keys) {
    w->PutString(key.first);
    w->PutU64(key.second);
    w->PutString(info.relationship);
    w->PutU32(info.references_left ? 1u : 0u);
  }
}

Status StorageCodec::ReadErModel(SectionReader* r, ERSchema* er,
                                 ErRelationalMapping* mapping) {
  uint32_t entity_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetU32(&entity_count));
  for (uint32_t i = 0; i < entity_count; ++i) {
    EntityType entity;
    CLAKS_RETURN_NOT_OK(r->GetString(&entity.name));
    CLAKS_RETURN_NOT_OK(ReadErAttributes(r, &entity.attributes));
    CLAKS_RETURN_NOT_OK(er->AddEntityType(std::move(entity)));
  }
  uint32_t rel_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetU32(&rel_count));
  for (uint32_t i = 0; i < rel_count; ++i) {
    RelationshipType rel;
    CLAKS_RETURN_NOT_OK(r->GetString(&rel.name));
    CLAKS_RETURN_NOT_OK(r->GetString(&rel.left_entity));
    CLAKS_RETURN_NOT_OK(r->GetString(&rel.right_entity));
    uint32_t cardinality = 0;
    CLAKS_RETURN_NOT_OK(r->GetU32(&cardinality));
    if (cardinality > static_cast<uint32_t>(Cardinality::kNM)) {
      return MalformedError("relationship with unknown cardinality");
    }
    rel.cardinality = static_cast<Cardinality>(cardinality);
    CLAKS_RETURN_NOT_OK(ReadErAttributes(r, &rel.attributes));
    CLAKS_RETURN_NOT_OK(er->AddRelationship(std::move(rel)));
  }
  uint32_t table_map_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetU32(&table_map_count));
  for (uint32_t i = 0; i < table_map_count; ++i) {
    std::string table_name;
    TableErInfo info;
    uint32_t is_middle = 0;
    CLAKS_RETURN_NOT_OK(r->GetString(&table_name));
    CLAKS_RETURN_NOT_OK(r->GetU32(&is_middle));
    CLAKS_RETURN_NOT_OK(r->GetString(&info.er_name));
    info.is_middle_relation = is_middle != 0;
    mapping->tables.emplace(std::move(table_name), std::move(info));
  }
  uint32_t fk_map_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetU32(&fk_map_count));
  for (uint32_t i = 0; i < fk_map_count; ++i) {
    std::string table_name;
    uint64_t fk_index = 0;
    FkErInfo info;
    uint32_t references_left = 0;
    CLAKS_RETURN_NOT_OK(r->GetString(&table_name));
    CLAKS_RETURN_NOT_OK(r->GetU64(&fk_index));
    CLAKS_RETURN_NOT_OK(r->GetString(&info.relationship));
    CLAKS_RETURN_NOT_OK(r->GetU32(&references_left));
    info.references_left = references_left != 0;
    mapping->foreign_keys.emplace(
        std::make_pair(std::move(table_name),
                       static_cast<size_t>(fk_index)),
        std::move(info));
  }
  return Status::OK();
}

void StorageCodec::WriteTables(const Database& db, SectionWriter* w) {
  w->PutU32(static_cast<uint32_t>(db.num_tables()));
  for (size_t t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    const TableSchema& schema = table.schema();
    size_t slots = table.num_rows();
    // Each table's encoding is length-prefixed (and 8-aligned, so array
    // alignment inside the body holds absolutely) — the loader slices
    // the section into per-table extents without parsing them and hands
    // whole tables to parallel decode workers.
    SectionWriter body;
    body.PutU64(slots);
    // Tombstone flags (effective state: base prefix + overlay), as one
    // flat array for a single bulk read.
    std::vector<uint8_t> flags(slots, 0);
    for (size_t rowi = 0; rowi < slots; ++rowi) {
      if (table.IsDeleted(rowi)) flags[rowi] = 1;
    }
    body.PutArray(flags.data(), flags.size());
    // Deletion log, in deletion order (the delta path diffs it).
    std::vector<uint32_t> tombstones(table.tombstone_count());
    for (size_t i = 0; i < tombstones.size(); ++i) {
      tombstones[i] = table.Tombstone(i);
    }
    body.PutArray(tombstones.data(), tombstones.size());
    // Row values. Tombstoned slots keep their values (delta maintenance
    // un-indexes them), so every slot serializes in full.
    for (size_t rowi = 0; rowi < slots; ++rowi) {
      const Row& row = table.row(rowi);
      for (size_t a = 0; a < schema.num_attributes(); ++a) {
        const Value& value = row[a];
        body.PutU8(static_cast<uint8_t>(value.type()));
        switch (value.type()) {
          case ValueType::kNull:
            break;
          case ValueType::kInt64: {
            int64_t v = value.AsInt64();
            body.Put(v);
            break;
          }
          case ValueType::kDouble: {
            double v = value.AsDouble();
            body.Put(v);
            break;
          }
          case ValueType::kBool:
            body.PutU8(value.AsBool() ? 1 : 0);
            break;
          case ValueType::kString:
            body.PutString(value.AsString());
            break;
        }
      }
    }
    w->PutU64(body.bytes().size());
    w->Align8();
    w->PutRaw(body.bytes().data(), body.bytes().size());
  }
}

Status StorageCodec::ReadOneTable(SectionReader* r, Table* table) {
  const TableSchema& schema = table->schema();
  uint64_t slots = 0;
  CLAKS_RETURN_NOT_OK(r->GetU64(&slots));
  auto segment = std::make_shared<Table::BaseSegment>();

  const uint8_t* flags = nullptr;
  uint64_t flag_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&flags, &flag_count));
  if (flag_count != slots) {
    return MalformedError("tombstone flags do not cover every slot");
  }
  segment->deleted.assign(slots, false);
  for (uint64_t rowi = 0; rowi < slots; ++rowi) {
    if (flags[rowi] != 0) {
      segment->deleted[rowi] = true;
      ++segment->deleted_count;
    }
  }

  const uint32_t* tombstones = nullptr;
  uint64_t log = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&tombstones, &log));
  segment->tombstone_log.assign(tombstones, tombstones + log);

  segment->rows.reserve(slots);
  for (uint64_t rowi = 0; rowi < slots; ++rowi) {
    Row row;
    row.reserve(schema.num_attributes());
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      uint8_t tag = 0;
      CLAKS_RETURN_NOT_OK(r->GetU8(&tag));
      if (tag > static_cast<uint8_t>(ValueType::kString)) {
        return MalformedError("row value with unknown type tag");
      }
      switch (static_cast<ValueType>(tag)) {
        case ValueType::kNull:
          row.push_back(Value::Null());
          break;
        case ValueType::kInt64: {
          int64_t v = 0;
          CLAKS_RETURN_NOT_OK(r->Get(&v));
          row.push_back(Value::Int64(v));
          break;
        }
        case ValueType::kDouble: {
          double v = 0.0;
          CLAKS_RETURN_NOT_OK(r->Get(&v));
          row.push_back(Value::Double(v));
          break;
        }
        case ValueType::kBool: {
          uint8_t v = 0;
          CLAKS_RETURN_NOT_OK(r->GetU8(&v));
          row.push_back(Value::Bool(v != 0));
          break;
        }
        case ValueType::kString: {
          std::string v;
          CLAKS_RETURN_NOT_OK(r->GetString(&v));
          row.push_back(Value::String(std::move(v)));
          break;
        }
      }
    }
    segment->rows.push_back(std::move(row));
  }
  // pk_index over *live* rows only, like Table::Rebase: a deleted key
  // may have been legally reinserted into a later slot, so replaying
  // inserts would fail where installing cannot.
  segment->pk_index.reserve(slots - segment->deleted_count);
  for (size_t rowi = 0; rowi < segment->rows.size(); ++rowi) {
    if (segment->deleted[rowi]) continue;
    segment->pk_index.emplace(table->KeyOfRow(segment->rows[rowi]), rowi);
  }
  table->base_ = std::move(segment);
  return Status::OK();
}

Status StorageCodec::ReadTables(SectionReader* r, Database* db) {
  uint32_t table_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetU32(&table_count));
  if (table_count != db->num_tables()) {
    return MalformedError("table section does not match the catalog");
  }

  // Slice the length-prefixed per-table extents without parsing them.
  struct TableSlice {
    const uint8_t* data = nullptr;
    size_t size = 0;
  };
  std::vector<TableSlice> slices(table_count);
  size_t total_bytes = 0;
  for (uint32_t t = 0; t < table_count; ++t) {
    uint64_t length = 0;
    CLAKS_RETURN_NOT_OK(r->GetU64(&length));
    CLAKS_RETURN_NOT_OK(r->Align8());
    CLAKS_RETURN_NOT_OK(r->GetRawView(&slices[t].data, length));
    slices[t].size = length;
    total_bytes += length;
  }

  // Row materialization is the one load stage that cannot be zero-copy
  // (rows own their values), so it is the one stage worth fanning out:
  // whole tables go to workers — disjoint Table objects, no shared
  // mutable state, deterministic output. Tiny sections decode serially;
  // thread spawn would cost more than the rows.
  constexpr size_t kParallelDecodeBytes = 256 << 10;
  size_t workers = std::min<size_t>(
      table_count, std::thread::hardware_concurrency() > 0
                       ? std::thread::hardware_concurrency()
                       : 1);
  std::vector<Status> statuses(table_count, Status::OK());
  auto decode = [&](uint32_t t) {
    SectionReader body(slices[t].data, slices[t].size, "tables");
    statuses[t] = ReadOneTable(&body, db->mutable_table(t));
  };
  if (workers <= 1 || total_bytes < kParallelDecodeBytes) {
    for (uint32_t t = 0; t < table_count; ++t) decode(t);
  } else {
    ThreadPool pool(workers, table_count);
    for (uint32_t t = 0; t < table_count; ++t) {
      pool.Submit([&decode, t] { decode(t); });
    }
    pool.Drain();
  }
  for (const Status& status : statuses) {
    CLAKS_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

void StorageCodec::WriteJoinIndexes(const Database& db, SectionWriter* w) {
  // ResolveAllFkEdges also guarantees the canonical edge list is fresh
  // before it is serialized below.
  const std::vector<FkEdge>& fk_edges = db.ResolveAllFkEdges();
  w->PutU32(static_cast<uint32_t>(db.num_tables()));
  for (uint32_t t = 0; t < db.num_tables(); ++t) {
    const auto& fks = db.table(t).schema().foreign_keys();
    w->PutU32(static_cast<uint32_t>(fks.size()));
    for (uint32_t f = 0; f < fks.size(); ++f) {
      const FkJoinIndex& index = db.JoinIndex(t, f);
      StoredJoinIndexInfo info;
      info.table = index.table;
      info.fk_index = index.fk_index;
      info.referenced_table = index.referenced_table;
      info.valid = index.valid ? 1 : 0;
      w->Align8();
      w->Put(info);
      w->PutArray(index.base->parent_row.data(),
                  index.base->parent_row.size());
      w->PutArray(index.base->child_offsets.data(),
                  index.base->child_offsets.size());
      w->PutArray(index.base->child_rows.data(),
                  index.base->child_rows.size());
    }
  }
  w->PutArray(fk_edges.data(), fk_edges.size());
}

Status StorageCodec::ReadJoinIndexes(SectionReader* r, Database* db,
                                     std::shared_ptr<const void> keepalive) {
  uint32_t table_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetU32(&table_count));
  if (table_count != db->num_tables()) {
    return MalformedError("join-index section does not match the catalog");
  }
  MutexLock lock(&db->join_index_mutex_);
  db->join_indexes_.assign(table_count, {});
  db->indexed_row_counts_.resize(table_count);
  db->indexed_tombstone_counts_.resize(table_count);
  for (uint32_t t = 0; t < table_count; ++t) {
    const Table& table = db->table(t);
    db->indexed_row_counts_[t] = table.num_rows();
    db->indexed_tombstone_counts_[t] = table.tombstone_count();
    uint32_t fk_count = 0;
    CLAKS_RETURN_NOT_OK(r->GetU32(&fk_count));
    if (fk_count != table.schema().foreign_keys().size()) {
      return MalformedError("join-index FK count does not match schema");
    }
    db->join_indexes_[t].resize(fk_count);
    for (uint32_t f = 0; f < fk_count; ++f) {
      StoredJoinIndexInfo info;
      CLAKS_RETURN_NOT_OK(r->Align8());
      CLAKS_RETURN_NOT_OK(r->Get(&info));
      if (info.table != t || info.fk_index != f ||
          (info.valid != 0 && info.referenced_table >= table_count)) {
        return MalformedError("join-index record out of order");
      }
      FkJoinIndex& index = db->join_indexes_[t][f];
      index.table = t;
      index.fk_index = f;
      index.referenced_table = info.referenced_table;
      index.valid = info.valid != 0;
      const uint32_t* parent_row = nullptr;
      const uint32_t* child_offsets = nullptr;
      const uint32_t* child_rows = nullptr;
      uint64_t parents = 0;
      uint64_t offsets = 0;
      uint64_t children = 0;
      CLAKS_RETURN_NOT_OK(r->GetArray(&parent_row, &parents));
      CLAKS_RETURN_NOT_OK(r->GetArray(&child_offsets, &offsets));
      CLAKS_RETURN_NOT_OK(r->GetArray(&child_rows, &children));
      auto base = std::make_shared<FkJoinIndex::Base>();
      base->parent_row =
          FlatVector<uint32_t>::View(parent_row, parents, keepalive);
      base->child_offsets =
          FlatVector<uint32_t>::View(child_offsets, offsets, keepalive);
      base->child_rows =
          FlatVector<uint32_t>::View(child_rows, children, keepalive);
      index.base = std::move(base);
    }
  }
  const FkEdge* edges = nullptr;
  uint64_t edge_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&edges, &edge_count));
  db->all_fk_edges_.assign(edges, edges + edge_count);
  db->fk_edges_built_.store(true, std::memory_order_release);
  db->join_indexes_built_.store(true, std::memory_order_release);
  return Status::OK();
}

void StorageCodec::WriteGraph(const DataGraph& graph, SectionWriter* w) {
  const auto& base = *graph.base_;
  StoredGraphInfo info;
  info.num_nodes = graph.num_nodes_;
  info.live_edges = graph.live_edges_;
  info.num_tables = static_cast<uint32_t>(graph.table_slots_.size());
  info.reserved = 0;
  w->Align8();
  w->Put(info);
  w->PutArray(graph.table_slots_.data(), graph.table_slots_.size());
  w->PutArray(base.node_offsets.data(), base.node_offsets.size());
  w->PutArray(base.base_slots.data(), base.base_slots.size());
  w->PutArray(base.edges.data(), base.edges.size());
  w->PutArray(base.edge_dense_offsets.data(), base.edge_dense_offsets.size());
  w->PutArray(base.edge_offsets.data(), base.edge_offsets.size());
  w->PutArray(base.out_edge_offsets.data(), base.out_edge_offsets.size());
  w->PutArray(base.adjacency_offsets.data(), base.adjacency_offsets.size());
  w->PutArray(base.adjacency.data(), base.adjacency.size());
}

Result<std::unique_ptr<DataGraph>> StorageCodec::ReadGraph(
    SectionReader* r, const Database* db,
    std::shared_ptr<const void> keepalive) {
  StoredGraphInfo info;
  CLAKS_RETURN_NOT_OK(r->Align8());
  CLAKS_RETURN_NOT_OK(r->Get(&info));
  if (info.num_tables != db->num_tables()) {
    return MalformedError("graph section does not match the catalog");
  }
  // NOLINTNEXTLINE(modernize-make-unique): private constructor.
  std::unique_ptr<DataGraph> graph(new DataGraph());
  graph->db_ = db;
  graph->num_nodes_ = info.num_nodes;
  graph->live_edges_ = info.live_edges;

  const uint32_t* table_slots = nullptr;
  uint64_t table_slot_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&table_slots, &table_slot_count));
  if (table_slot_count != info.num_tables) {
    return MalformedError("graph table_slots arity mismatch");
  }
  graph->table_slots_.assign(table_slots, table_slots + table_slot_count);

  auto base = std::make_shared<DataGraph::GraphBase>();
  auto read_u32 = [&](FlatVector<uint32_t>* out, size_t expect_count,
                      const char* what) -> Status {
    const uint32_t* data = nullptr;
    uint64_t count = 0;
    CLAKS_RETURN_NOT_OK(r->GetArray(&data, &count));
    if (expect_count != 0 && count != expect_count) {
      return MalformedError(std::string("graph array arity mismatch: ") +
                            what);
    }
    *out = FlatVector<uint32_t>::View(data, count, keepalive);
    return Status::OK();
  };
  size_t tables_plus_1 = static_cast<size_t>(info.num_tables) + 1;
  CLAKS_RETURN_NOT_OK(
      read_u32(&base->node_offsets, tables_plus_1, "node_offsets"));
  CLAKS_RETURN_NOT_OK(
      read_u32(&base->base_slots, info.num_tables, "base_slots"));

  const DataEdge* edges = nullptr;
  uint64_t edge_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&edges, &edge_count));
  base->edges = FlatVector<DataEdge>::View(edges, edge_count, keepalive);

  CLAKS_RETURN_NOT_OK(read_u32(&base->edge_dense_offsets, tables_plus_1,
                               "edge_dense_offsets"));
  CLAKS_RETURN_NOT_OK(
      read_u32(&base->edge_offsets, tables_plus_1, "edge_offsets"));
  CLAKS_RETURN_NOT_OK(read_u32(&base->out_edge_offsets, 0,
                               "out_edge_offsets"));
  CLAKS_RETURN_NOT_OK(read_u32(&base->adjacency_offsets, 0,
                               "adjacency_offsets"));

  const DataAdjacency* adjacency = nullptr;
  uint64_t adjacency_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&adjacency, &adjacency_count));
  base->adjacency =
      FlatVector<DataAdjacency>::View(adjacency, adjacency_count, keepalive);

  const DataGraph::GraphBase& built = *base;
  if (built.node_offsets.empty() ||
      built.out_edge_offsets.size() !=
          static_cast<size_t>(built.node_offsets.back()) + 1 ||
      built.adjacency_offsets.size() != built.out_edge_offsets.size() ||
      built.adjacency_offsets.back() != adjacency_count) {
    return MalformedError("graph CSR arrays are inconsistent");
  }
  graph->base_ = std::move(base);
  graph->appended_edges_.assign(info.num_tables, {});
  return graph;
}

void StorageCodec::WriteTextIndex(const InvertedIndex& index,
                                  SectionWriter* w) {
  const auto& base = *index.base_;
  // Deterministic term order (unordered_map iteration is not): sort the
  // vocabulary so identical engines serialize to identical bytes.
  std::vector<const std::pair<const std::string, std::vector<Posting>>*>
      terms;
  terms.reserve(base.postings.size());
  for (const auto& entry : base.postings) terms.push_back(&entry);
  std::sort(terms.begin(), terms.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  StoredTextIndexInfo info;
  info.vocabulary_size = index.vocab_size_;
  info.total_documents = index.stats_.total_documents;
  info.total_tokens = index.stats_.total_tokens;
  info.distinct_tokens = terms.size();
  w->Align8();
  w->Put(info);

  std::string token_arena;
  std::vector<Posting> flat_postings;
  std::vector<StoredTermInfo> term_table;
  term_table.reserve(terms.size());
  for (const auto* term : terms) {
    StoredTermInfo entry;
    entry.token_offset = token_arena.size();
    entry.token_length = static_cast<uint32_t>(term->first.size());
    auto df = base.document_frequency.find(term->first);
    entry.document_frequency =
        df == base.document_frequency.end() ? 0 : df->second;
    entry.posting_offset = flat_postings.size();
    entry.posting_count = term->second.size();
    entry.reserved = 0;
    token_arena += term->first;
    flat_postings.insert(flat_postings.end(), term->second.begin(),
                         term->second.end());
    term_table.push_back(entry);
  }
  w->PutArray(term_table.data(), term_table.size());
  w->PutArray(flat_postings.data(), flat_postings.size());
  w->PutU64(token_arena.size());
  w->Align8();
  w->PutRaw(token_arena.data(), token_arena.size());
}

Result<std::unique_ptr<InvertedIndex>> StorageCodec::ReadTextIndex(
    SectionReader* r, const Database* db) {
  StoredTextIndexInfo info;
  CLAKS_RETURN_NOT_OK(r->Align8());
  CLAKS_RETURN_NOT_OK(r->Get(&info));

  const StoredTermInfo* terms = nullptr;
  uint64_t term_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&terms, &term_count));
  if (term_count != info.distinct_tokens) {
    return MalformedError("text-index term table arity mismatch");
  }
  const Posting* postings = nullptr;
  uint64_t posting_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&postings, &posting_count));
  uint64_t arena_size = 0;
  CLAKS_RETURN_NOT_OK(r->GetU64(&arena_size));
  CLAKS_RETURN_NOT_OK(r->Align8());
  const uint8_t* arena_bytes = nullptr;
  CLAKS_RETURN_NOT_OK(r->GetRawView(&arena_bytes, arena_size));
  const char* arena = reinterpret_cast<const char*>(arena_bytes);

  // NOLINTNEXTLINE(modernize-make-unique): private constructor.
  std::unique_ptr<InvertedIndex> index(new InvertedIndex());
  index->db_ = db;
  auto base = std::make_shared<InvertedIndex::BaseIndex>();
  base->postings.reserve(term_count);
  base->document_frequency.reserve(term_count);
  for (uint64_t i = 0; i < term_count; ++i) {
    const StoredTermInfo& entry = terms[i];
    if (entry.token_offset > arena_size ||
        entry.token_length > arena_size - entry.token_offset ||
        entry.posting_offset > posting_count ||
        entry.posting_count > posting_count - entry.posting_offset) {
      return MalformedError("text-index term slice out of bounds");
    }
    std::string token(arena + entry.token_offset, entry.token_length);
    std::vector<Posting> list(postings + entry.posting_offset,
                              postings + entry.posting_offset +
                                  entry.posting_count);
    base->document_frequency.emplace(token, entry.document_frequency);
    base->postings.emplace(std::move(token), std::move(list));
  }
  index->base_ = std::move(base);
  index->vocab_size_ = info.vocabulary_size;
  index->stats_.total_documents = info.total_documents;
  index->stats_.total_tokens = info.total_tokens;
  index->stats_.avg_document_length =
      info.total_documents > 0
          ? static_cast<double>(info.total_tokens) /
                static_cast<double>(info.total_documents)
          : 0.0;
  return index;
}

void StorageCodec::WriteStatistics(const InstanceStatistics& stats,
                                   SectionWriter* w) {
  std::string name_arena;
  std::vector<StoredStatsRecord> records;
  records.reserve(stats.all().size());
  for (const auto& [name, rs] : stats.all()) {
    StoredStatsRecord record;
    record.link_count = rs.link_count;
    record.left_participants = rs.left_participants;
    record.right_participants = rs.right_participants;
    record.left_total = rs.left_total;
    record.right_total = rs.right_total;
    record.name_offset = name_arena.size();
    record.name_length = static_cast<uint32_t>(name.size());
    record.reserved = 0;
    name_arena += name;
    records.push_back(record);
  }
  w->PutArray(records.data(), records.size());
  w->PutU64(name_arena.size());
  w->Align8();
  w->PutRaw(name_arena.data(), name_arena.size());
}

Result<std::unique_ptr<InstanceStatistics>> StorageCodec::ReadStatistics(
    SectionReader* r) {
  const StoredStatsRecord* records = nullptr;
  uint64_t record_count = 0;
  CLAKS_RETURN_NOT_OK(r->GetArray(&records, &record_count));
  uint64_t arena_size = 0;
  CLAKS_RETURN_NOT_OK(r->GetU64(&arena_size));
  CLAKS_RETURN_NOT_OK(r->Align8());
  const uint8_t* arena = nullptr;
  CLAKS_RETURN_NOT_OK(r->GetRawView(&arena, arena_size));

  // NOLINTNEXTLINE(modernize-make-unique): private constructor.
  std::unique_ptr<InstanceStatistics> stats(new InstanceStatistics());
  for (uint64_t i = 0; i < record_count; ++i) {
    const StoredStatsRecord& record = records[i];
    if (record.name_offset > arena_size ||
        record.name_length > arena_size - record.name_offset) {
      return MalformedError("statistics name slice out of bounds");
    }
    RelationshipStats rs;
    rs.relationship.assign(
        reinterpret_cast<const char*>(arena + record.name_offset),
        record.name_length);
    rs.link_count = record.link_count;
    rs.left_participants = record.left_participants;
    rs.right_participants = record.right_participants;
    rs.left_total = record.left_total;
    rs.right_total = record.right_total;
    std::string key = rs.relationship;
    stats->stats_.emplace(std::move(key), std::move(rs));
  }
  return stats;
}

// ---------------------------------------------------------------------------
// File assembly / validation
// ---------------------------------------------------------------------------

Status StorageCodec::Save(const KeywordSearchEngine& engine,
                          const std::string& path) {
  TraceSpan span("storage.save");
  auto start = std::chrono::steady_clock::now();
  const Database& db = engine.database();
  if (!engine.Warm()) {
    return Status::InvalidArgument(
        "SaveSnapshot requires a warm engine (call Warmup first)");
  }
  if (!engine.data_graph_->IsCompact() || !engine.index_->IsCompact() ||
      !db.JoinIndexesCompact()) {
    return Status::InvalidArgument(
        "SaveSnapshot requires a compact generation (derive overlays "
        "present; compact before saving)");
  }

  struct SectionBuf {
    SectionKind kind;
    SectionWriter writer;
  };
  std::vector<SectionBuf> sections(kSnapshotSectionCount);
  sections[0].kind = SectionKind::kCatalog;
  {
    std::string catalog = SerializeCatalog(db);
    sections[0].writer.PutRaw(catalog.data(), catalog.size());
  }
  sections[1].kind = SectionKind::kErModel;
  WriteErModel(engine.er_schema(), engine.mapping(), &sections[1].writer);
  sections[2].kind = SectionKind::kTables;
  WriteTables(db, &sections[2].writer);
  sections[3].kind = SectionKind::kJoinIndexes;
  WriteJoinIndexes(db, &sections[3].writer);
  sections[4].kind = SectionKind::kGraph;
  WriteGraph(*engine.data_graph_, &sections[4].writer);
  sections[5].kind = SectionKind::kTextIndex;
  WriteTextIndex(*engine.index_, &sections[5].writer);
  sections[6].kind = SectionKind::kStatistics;
  WriteStatistics(*engine.statistics_, &sections[6].writer);

  size_t table_end = sizeof(StoredHeader) +
                     sections.size() * sizeof(StoredSection);
  size_t cursor = AlignUp(table_end, kSnapshotPageSize);
  std::vector<StoredSection> table(sections.size());
  for (size_t i = 0; i < sections.size(); ++i) {
    const std::string& payload = sections[i].writer.bytes();
    table[i].kind = static_cast<uint32_t>(sections[i].kind);
    table[i].reserved = 0;
    table[i].offset = cursor;
    table[i].size = payload.size();
    table[i].checksum = SnapshotChecksum64(payload.data(), payload.size());
    cursor = AlignUp(cursor + payload.size(), kSnapshotPageSize);
  }
  size_t total = cursor;

  std::string file(total, '\0');
  StoredHeader header;
  std::memcpy(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic));
  header.endian = kSnapshotEndianMarker;
  header.format_version = kSnapshotFormatVersion;
  header.page_size = kSnapshotPageSize;
  header.section_count = static_cast<uint32_t>(sections.size());
  header.total_file_size = total;
  for (size_t i = 0; i < sections.size(); ++i) {
    const std::string& payload = sections[i].writer.bytes();
    std::memcpy(&file[table[i].offset], payload.data(), payload.size());
  }
  header.file_checksum =
      SnapshotChecksum64(file.data() + table_end, total - table_end);
  header.header_checksum = 0;
  std::memcpy(&file[sizeof(StoredHeader)], table.data(),
              table.size() * sizeof(StoredSection));
  uint64_t header_hash = SnapshotChecksum64(&header, sizeof(header));
  header.header_checksum =
      SnapshotChecksum64(file.data() + sizeof(StoredHeader),
              table.size() * sizeof(StoredSection), header_hash);
  std::memcpy(&file[0], &header, sizeof(header));

  // Atomic publish: write a sibling temp file, then rename over `path`.
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot write '" + tmp + "'");
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    if (!out.good()) {
      return Status::Internal("write failed for '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename failed for '" + path + "'");
  }
  g_storage_saves.Inc();
  g_storage_file_bytes.Observe(total);
  g_storage_save_us.Observe(ElapsedUs(start));
  return Status::OK();
}



Result<LoadedEngine> StorageCodec::Load(const std::string& path) {
  TraceSpan span("storage.load");
  auto start = std::chrono::steady_clock::now();
  CLAKS_ASSIGN_OR_RETURN(std::shared_ptr<const MmapFile> file,
                         MmapFile::Open(path));
  const uint8_t* data = file->data();
  size_t size = file->size();

  // --- Header validation (every branch is a typed rejection) ---
  if (size < sizeof(StoredHeader)) {
    return TruncatedError("file smaller than the header");
  }
  StoredHeader header;
  std::memcpy(&header, data, sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return MakeStorageError(StorageError::kBadMagic,
                            "not a claks snapshot file");
  }
  if (header.endian != kSnapshotEndianMarker) {
    if (header.endian == 0x04030201u) {
      return MakeStorageError(
          StorageError::kBadEndianness,
          "snapshot was written on a foreign-endian host");
    }
    return MalformedError("unrecognized endianness marker");
  }
  if (header.format_version != kSnapshotFormatVersion) {
    return MakeStorageError(
        StorageError::kBadVersion,
        "snapshot format version " +
            std::to_string(header.format_version) +
            " (this build reads " +
            std::to_string(kSnapshotFormatVersion) + ")");
  }
  if (header.page_size != kSnapshotPageSize ||
      header.section_count != kSnapshotSectionCount) {
    return MalformedError("unexpected page size or section count");
  }
  if (header.total_file_size != size) {
    return TruncatedError("file size does not match the header");
  }
  size_t table_end = sizeof(StoredHeader) +
                     header.section_count * sizeof(StoredSection);
  if (size < table_end) {
    return TruncatedError("file smaller than the section table");
  }
  StoredHeader zeroed = header;
  zeroed.header_checksum = 0;
  uint64_t header_hash = SnapshotChecksum64(&zeroed, sizeof(zeroed));
  header_hash = SnapshotChecksum64(data + sizeof(StoredHeader),
                        table_end - sizeof(StoredHeader), header_hash);
  if (header_hash != header.header_checksum) {
    return ChecksumError("header checksum mismatch");
  }
  if (SnapshotChecksum64(data + table_end, size - table_end) !=
      header.file_checksum) {
    return ChecksumError("file checksum mismatch");
  }

  std::vector<StoredSection> table(header.section_count);
  std::memcpy(table.data(), data + sizeof(StoredHeader),
              header.section_count * sizeof(StoredSection));
  const StoredSection* by_kind[kSnapshotSectionCount + 1] = {nullptr};
  for (const StoredSection& section : table) {
    if (section.kind == 0 || section.kind > kSnapshotSectionCount) {
      return MalformedError("unknown section kind");
    }
    if (by_kind[section.kind] != nullptr) {
      return MalformedError("duplicate section kind");
    }
    if (section.offset % kSnapshotPageSize != 0 ||
        section.offset > size || section.size > size - section.offset) {
      return TruncatedError("section extends past end of file");
    }
    // No per-section hash pass here: the file checksum above already
    // covers every section byte (and the inter-section padding), so a
    // second sweep would only re-hash the same bytes. The per-section
    // checksums stay in the format for offline tooling to localize
    // corruption once the file-level check has failed.
    by_kind[section.kind] = &section;
  }
  for (uint32_t kind = 1; kind <= kSnapshotSectionCount; ++kind) {
    if (by_kind[kind] == nullptr) {
      return MalformedError("missing section kind " + std::to_string(kind));
    }
  }
  auto reader_for = [&](SectionKind kind, const char* name) {
    const StoredSection* section = by_kind[static_cast<uint32_t>(kind)];
    return SectionReader(data + section->offset, section->size, name);
  };

  // --- Install, section by section ---
  LoadedEngine loaded;
  {
    const StoredSection* section =
        by_kind[static_cast<uint32_t>(SectionKind::kCatalog)];
    std::string catalog(
        reinterpret_cast<const char*>(data + section->offset),
        section->size);
    Result<std::vector<TableSchema>> schemas = ParseCatalog(catalog);
    if (!schemas.ok()) {
      return MalformedError("catalog section: " +
                            schemas.status().message());
    }
    std::vector<TableSchema> parsed = std::move(schemas).ValueUnsafe();
    loaded.db = std::make_unique<Database>();
    for (TableSchema& schema : parsed) {
      Result<Table*> added = loaded.db->AddTable(std::move(schema));
      if (!added.ok()) {
        return MalformedError("catalog section: " +
                              added.status().message());
      }
    }
  }
  ERSchema er_schema;
  ErRelationalMapping mapping;
  {
    SectionReader r = reader_for(SectionKind::kErModel, "er-model");
    CLAKS_RETURN_NOT_OK(ReadErModel(&r, &er_schema, &mapping));
  }
  {
    SectionReader r = reader_for(SectionKind::kTables, "tables");
    CLAKS_RETURN_NOT_OK(ReadTables(&r, loaded.db.get()));
  }
  {
    SectionReader r = reader_for(SectionKind::kJoinIndexes, "join-indexes");
    CLAKS_RETURN_NOT_OK(ReadJoinIndexes(&r, loaded.db.get(), file));
  }
  // NOLINTNEXTLINE(modernize-make-unique): private constructor.
  auto engine =
      std::unique_ptr<KeywordSearchEngine>(new KeywordSearchEngine());
  engine->db_ = loaded.db.get();
  engine->er_schema_ = std::make_unique<ERSchema>(std::move(er_schema));
  engine->mapping_ =
      std::make_unique<ErRelationalMapping>(std::move(mapping));
  {
    SectionReader r = reader_for(SectionKind::kGraph, "graph");
    CLAKS_ASSIGN_OR_RETURN(engine->data_graph_,
                           ReadGraph(&r, loaded.db.get(), file));
  }
  {
    SectionReader r = reader_for(SectionKind::kTextIndex, "text-index");
    CLAKS_ASSIGN_OR_RETURN(engine->index_,
                           ReadTextIndex(&r, loaded.db.get()));
  }
  {
    SectionReader r = reader_for(SectionKind::kStatistics, "statistics");
    CLAKS_ASSIGN_OR_RETURN(engine->statistics_, ReadStatistics(&r));
  }
  // Schema-sized structures are cheaper to rebuild than to serialize
  // (engine Derive does the same).
  engine->schema_graph_ = std::make_unique<SchemaGraph>(loaded.db.get());
  engine->analyzer_ = std::make_unique<AssociationAnalyzer>(
      loaded.db.get(), engine->er_schema_.get(), engine->mapping_.get(),
      engine->data_graph_.get());
  engine->overlay_ops_ = 0;
  loaded.engine = std::move(engine);

  g_storage_loads.Inc();
  g_storage_load_us.Observe(ElapsedUs(start));
  return loaded;
}

// ---------------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------------

Status SaveEngineSnapshot(const KeywordSearchEngine& engine,
                          const std::string& path) {
  return StorageCodec::Save(engine, path);
}

Result<LoadedEngine> LoadEngineSnapshot(const std::string& path) {
  Result<LoadedEngine> loaded = StorageCodec::Load(path);
  if (!loaded.ok()) g_storage_load_failures.Inc();
  return loaded;
}

Status KeywordSearchEngine::SaveSnapshot(const std::string& path) const {
  return SaveEngineSnapshot(*this, path);
}

Result<LoadedEngine> KeywordSearchEngine::LoadSnapshot(
    const std::string& path) {
  return LoadEngineSnapshot(path);
}

}  // namespace claks
