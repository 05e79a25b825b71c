// Copyright 2026 The claks Authors.
//
// Database: a catalog of tables plus referential-integrity checking and
// resolution of foreign-key instance edges (the raw material of the data
// graph). Per-FK hash join indexes — built once, served from cache — give
// O(1) child->parent and parent->children navigation so that query
// evaluation never rescans tables.

#ifndef CLAKS_RELATIONAL_DATABASE_H_
#define CLAKS_RELATIONAL_DATABASE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flat_vector.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/span.h"
#include "common/thread_annotations.h"
#include "relational/table.h"

namespace claks {

struct DatabaseDelta;  // relational/delta.h

/// One resolved foreign-key instance edge: tuple `from` (the referencing,
/// N-side tuple) points at tuple `to` (the referenced, 1-side tuple) through
/// foreign key `fk_index` of table `from.table`.
struct FkEdge {
  TupleId from;
  TupleId to;
  uint32_t fk_index = 0;
};

/// Precomputed join structure for one foreign key: both directions of the
/// FK resolved once over the whole instance.
///
/// Storage is a frozen dense base shared between engine generations plus a
/// per-generation overlay, mirroring Table's segment/overlay split:
///
///   base->parent_row      dense child->parent (kNoParent = NULL/dangling/
///                         tombstoned child), one slot per child row that
///                         existed when the base froze
///   base->child_offsets/  parent->children CSR over the referenced table's
///   base->child_rows      frozen rows (children ascending per parent)
///   tail_parent_row       parents of child slots appended since the freeze
///   parent_overrides      base child slots re-pointed since the freeze
///                         (today always to kNoParent: the child died)
///   children_overrides    full replacement child lists (still ascending)
///                         for parents whose children changed
///
/// Use Parent()/Children(); they merge base and overlay. Compact() folds the
/// overlay into a fresh base bit-identical to a from-scratch build.
struct FkJoinIndex {
  static constexpr uint32_t kNoParent = UINT32_MAX;

  uint32_t table = 0;             ///< referencing (child) table index
  uint32_t fk_index = 0;          ///< FK position within `table`'s schema
  uint32_t referenced_table = 0;  ///< parent table index
  /// False when the FK declaration cannot be resolved (missing referenced
  /// table or attribute); such an index yields no parents and no children.
  bool valid = false;

  /// Immutable once published (shared across generations). FlatVectors:
  /// owned when built in memory, zero-copy views into the mapped file
  /// when the generation was loaded from a snapshot (storage/snapshot.h).
  struct Base {
    FlatVector<uint32_t> parent_row;     ///< one slot per child row
    FlatVector<uint32_t> child_offsets;  ///< parent rows + 1 entries
    FlatVector<uint32_t> child_rows;     ///< grouped by parent, ascending
  };
  std::shared_ptr<const Base> base;
  // Per-generation overlay (empty right after a build or Compact):
  std::vector<uint32_t> tail_parent_row;
  std::unordered_map<uint32_t, uint32_t> parent_overrides;
  std::unordered_map<uint32_t, std::vector<uint32_t>> children_overrides;

  /// Number of child-table row slots this index covers.
  size_t child_slots() const {
    return (base ? base->parent_row.size() : 0) + tail_parent_row.size();
  }

  bool IsCompact() const {
    return tail_parent_row.empty() && parent_overrides.empty() &&
           children_overrides.empty();
  }

  /// Total overlay entries (compaction-policy input).
  size_t OverlayOps() const {
    return tail_parent_row.size() + parent_overrides.size() +
           children_overrides.size();
  }

  /// Parent row referenced by child slot `child`, kNoParent when the FK is
  /// NULL, dangling, or the child is tombstoned. Out-of-range -> kNoParent.
  uint32_t Parent(size_t child) const {
    if (!valid || base == nullptr) return kNoParent;
    if (child >= base->parent_row.size()) {
      size_t tail = child - base->parent_row.size();
      return tail < tail_parent_row.size() ? tail_parent_row[tail]
                                           : kNoParent;
    }
    if (!parent_overrides.empty()) {
      auto it = parent_overrides.find(static_cast<uint32_t>(child));
      if (it != parent_overrides.end()) return it->second;
    }
    return base->parent_row[child];
  }

  /// Child rows referencing parent row `parent` (empty when out of range).
  /// Ascending; the span stays valid as long as this generation's index.
  Span<uint32_t> Children(size_t parent) const {
    if (!valid || base == nullptr) return {};
    if (!children_overrides.empty()) {
      auto it = children_overrides.find(static_cast<uint32_t>(parent));
      if (it != children_overrides.end()) {
        return Span<uint32_t>(it->second.data(), it->second.size());
      }
    }
    if (parent + 1 >= base->child_offsets.size()) return {};
    return Span<uint32_t>(
        base->child_rows.data() + base->child_offsets[parent],
        base->child_offsets[parent + 1] - base->child_offsets[parent]);
  }
};

/// An in-memory relational database.
///
/// Thread-safety contract: all mutation (AddTable, Insert through
/// mutable_table / FindMutableTable) must happen-before any concurrent use,
/// and no reader may run while a mutator does. Once the instance is frozen,
/// every const member — including the lazily-built join-index accessors —
/// is safe to call from any number of threads concurrently: the first lazy
/// build is serialized behind a mutex and published with release/acquire
/// ordering, so racing const readers agree on one fully-built cache.
/// One sharp edge: a mutation *invalidates* a previously-built cache, and
/// the invalidation is observed by polling row counts, so the mutator must
/// call Warmup() (or any join-index accessor) once — while it still has
/// exclusivity — before concurrent reads resume; otherwise one reader's
/// rebuild races another's freshness check. The service layer never hits
/// this: it clones, mutates the clone, and warms it before publication
/// (see service/search_service.h).
class Database {
 public:
  Database() = default;

  /// Deep copy of schema and rows (not the join-index cache; the copy
  /// rebuilds it on Warmup/first use). The service layer clones the
  /// current database, applies a mutation batch, and warms the copy into
  /// a fresh snapshot while readers continue on the original.
  std::unique_ptr<Database> Clone() const;

  /// Registers a new table. Fails if the name already exists or the schema
  /// is invalid.
  Result<Table*> AddTable(TableSchema schema);

  size_t num_tables() const { return tables_.size(); }
  const Table& table(size_t index) const;
  Table* mutable_table(size_t index);

  /// Index of the table named `name`, or nullopt.
  std::optional<uint32_t> TableIndex(const std::string& name) const;

  /// Table pointer by name, nullptr if absent.
  const Table* FindTable(const std::string& name) const;
  Table* FindMutableTable(const std::string& name);

  /// Fails if any table lacks one, same as FindTable but Status-reporting.
  Result<const Table*> RequireTable(const std::string& name) const;

  /// The row a TupleId addresses. CLAKS_CHECKs bounds.
  const Row& RowOf(TupleId id) const;
  const TableSchema& SchemaOf(TupleId id) const;

  /// Total number of tuples across all tables.
  size_t TotalRows() const;

  /// Verifies every foreign-key value resolves to an existing referenced
  /// row (NULL FK values are allowed and simply produce no edge).
  Status CheckReferentialIntegrity() const;

  /// Builds (or refreshes) every per-FK join index and the cached FK edge
  /// list. Idempotent while the instance is unchanged; the accessors below
  /// call it lazily, and inserting/deleting rows or adding tables
  /// invalidates the build (row and tombstone counts are compared on
  /// access). Cost: one hash lookup per (row, FK) pair, paid once instead
  /// of per query.
  void BuildJoinIndexes() const CLAKS_EXCLUDES(join_index_mutex_);

  /// Derives this database's join indexes from `prev`'s (which must be
  /// warm) plus the row delta separating them: shares the frozen bases and
  /// applies `delta` as overlay entries — O(delta · fanout) instead of
  /// O(dataset). Also validates the delta's referential integrity: a
  /// dangling FK on an inserted row, or a delete of a row that live
  /// children still reference (RESTRICT), fails with IntegrityViolation
  /// and leaves this cache unbuilt. `delta.schema_changed` must be false.
  Status DeriveJoinIndexes(const Database& prev, const DatabaseDelta& delta)
      const CLAKS_EXCLUDES(join_index_mutex_);

  /// Folds every join-index overlay into a fresh frozen base, bit-identical
  /// to what BuildJoinIndexes would produce from scratch — pure array folds,
  /// no hash probes. No-op when already compact.
  void CompactJoinIndexes() const CLAKS_EXCLUDES(join_index_mutex_);

  /// True when every built join index has an empty overlay.
  bool JoinIndexesCompact() const;

  /// Total overlay entries across all join indexes (compaction policy).
  size_t JoinOverlayOps() const;

  /// Rebase()s every table so subsequent Clone() calls are O(1) until new
  /// mutations accumulate. Logical content unchanged.
  void CompactStorage();

  /// Eagerly materializes every derived structure of this database (today:
  /// the per-FK join indexes and the cached FK edge list) so that all
  /// subsequent const access is read-only. Call once before sharing a
  /// const Database across threads; synonym of BuildJoinIndexes kept as
  /// the stable name of the "make const access race-free" step.
  void Warmup() const { BuildJoinIndexes(); }

  /// True when the join indexes are built and match the current instance.
  bool JoinIndexesFresh() const;

  /// Join index of FK `fk_index` of table `table_index`. Builds lazily.
  const FkJoinIndex& JoinIndex(uint32_t table_index,
                               uint32_t fk_index) const;

  /// Parent tuple referenced by `child` through FK `fk_index` of its
  /// table; nullopt when the FK is NULL or dangling.
  std::optional<TupleId> JoinParent(TupleId child, uint32_t fk_index) const;

  /// Rows of `child_table` whose FK `fk_index` references `parent`. Empty
  /// when `parent` is not a row of that FK's referenced table.
  Span<uint32_t> JoinChildren(uint32_t child_table, uint32_t fk_index,
                              TupleId parent) const;

  /// Every foreign-key instance edge in the database, served from the
  /// join-index cache (built lazily). Order is deterministic: by table, by
  /// row, by fk declaration order. The reference remains valid until the
  /// instance is mutated.
  const std::vector<FkEdge>& ResolveAllFkEdges() const;

  /// Resolves the FK edges leaving one tuple (following each FK of its
  /// table). NULL-valued FKs yield no edge.
  std::vector<FkEdge> ResolveFkEdgesFrom(TupleId id) const;

  /// Human-readable label for a tuple: "<table>:<pk values>".
  std::string TupleLabel(TupleId id) const;

  /// Short content summary of a tuple: "name=SMITH ssn=e1 ...".
  std::string TupleSummary(TupleId id, size_t max_chars = 60) const;

 private:
  /// Snapshot save/load (storage/snapshot.cc) serializes the join-index
  /// cache and installs a loaded one (with freshness counters) directly.
  friend class StorageCodec;

  std::vector<std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, uint32_t> name_to_index_;

  // True when the built cache still matches the current row counts.
  bool JoinIndexesFreshLocked() const CLAKS_REQUIRES(join_index_mutex_);

  // Join-index cache. Mutable: building is a logically-const operation
  // (tables are append-only; the cache tracks the indexed row counts and
  // rebuilds when they drift). Racing const readers serialize the lazy
  // build on join_index_mutex_; join_indexes_built_ is the lock-free fast
  // path flag (release store after the build, acquire load before use).
  // Post-warm readers (JoinIndex and friends) go through that acquire
  // load instead of the mutex — they carry
  // CLAKS_NO_THREAD_SAFETY_ANALYSIS individually, with the publication
  // argument at each definition.
  mutable Mutex join_index_mutex_;
  mutable std::vector<std::vector<FkJoinIndex>> join_indexes_
      CLAKS_GUARDED_BY(join_index_mutex_);  // [table][fk]
  mutable std::vector<FkEdge> all_fk_edges_
      CLAKS_GUARDED_BY(join_index_mutex_);
  mutable std::vector<size_t> indexed_row_counts_
      CLAKS_GUARDED_BY(join_index_mutex_);
  mutable std::vector<size_t> indexed_tombstone_counts_
      CLAKS_GUARDED_BY(join_index_mutex_);
  mutable std::atomic<bool> join_indexes_built_{false};
  // The canonical edge list is regenerated lazily after a derive (the
  // delta path leaves it stale rather than paying O(E) per generation).
  mutable std::atomic<bool> fk_edges_built_{false};

  // Rebuilds all_fk_edges_ from the (fresh) join indexes.
  void RebuildFkEdgesLocked() const CLAKS_REQUIRES(join_index_mutex_);
};

}  // namespace claks

#endif  // CLAKS_RELATIONAL_DATABASE_H_
