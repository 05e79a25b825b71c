// Copyright 2026 The claks Authors.

#include "relational/database.h"

#include <algorithm>

#include "common/macros.h"
#include "common/string_util.h"
#include "relational/delta.h"

namespace claks {

std::unique_ptr<Database> Database::Clone() const {
  auto copy = std::make_unique<Database>();
  copy->tables_.reserve(tables_.size());
  for (const auto& table : tables_) {
    copy->tables_.push_back(std::make_unique<Table>(*table));
  }
  copy->name_to_index_ = name_to_index_;
  return copy;
}

Result<Table*> Database::AddTable(TableSchema schema) {
  CLAKS_RETURN_NOT_OK(schema.Validate());
  if (name_to_index_.count(schema.name()) > 0) {
    return Status::AlreadyExists("table '" + schema.name() + "'");
  }
  name_to_index_.emplace(schema.name(),
                         static_cast<uint32_t>(tables_.size()));
  tables_.push_back(std::make_unique<Table>(std::move(schema)));
  return tables_.back().get();
}

const Table& Database::table(size_t index) const {
  CLAKS_CHECK_LT(index, tables_.size());
  return *tables_[index];
}

Table* Database::mutable_table(size_t index) {
  CLAKS_CHECK_LT(index, tables_.size());
  return tables_[index].get();
}

std::optional<uint32_t> Database::TableIndex(const std::string& name) const {
  auto it = name_to_index_.find(name);
  if (it == name_to_index_.end()) return std::nullopt;
  return it->second;
}

const Table* Database::FindTable(const std::string& name) const {
  auto idx = TableIndex(name);
  return idx.has_value() ? tables_[*idx].get() : nullptr;
}

Table* Database::FindMutableTable(const std::string& name) {
  auto idx = TableIndex(name);
  return idx.has_value() ? tables_[*idx].get() : nullptr;
}

Result<const Table*> Database::RequireTable(const std::string& name) const {
  const Table* t = FindTable(name);
  if (t == nullptr) return Status::NotFound("table '" + name + "'");
  return t;
}

const Row& Database::RowOf(TupleId id) const {
  return table(id.table).row(id.row);
}

const TableSchema& Database::SchemaOf(TupleId id) const {
  return table(id.table).schema();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t->num_rows();
  return total;
}

namespace {

// Resolves one FK of one row; returns the referenced row index or nullopt
// when any FK value is NULL. `ref_pk_indices` are the referenced table's
// positions for the referenced attributes.
std::optional<size_t> ResolveOneFk(const Row& row,
                                   const std::vector<size_t>& local_indices,
                                   const Table& referenced) {
  Row key;
  key.reserve(local_indices.size());
  for (size_t idx : local_indices) {
    if (row[idx].is_null()) return std::nullopt;
    key.push_back(row[idx]);
  }
  return referenced.FindByPrimaryKey(key);
}

}  // namespace

Status Database::CheckReferentialIntegrity() const {
  for (size_t t = 0; t < tables_.size(); ++t) {
    const Table& tab = *tables_[t];
    const auto& fks = tab.schema().foreign_keys();
    for (size_t f = 0; f < fks.size(); ++f) {
      const ForeignKeyDef& fk = fks[f];
      const Table* referenced = FindTable(fk.referenced_table);
      if (referenced == nullptr) {
        return Status::IntegrityViolation(
            "table '" + tab.name() + "' references missing table '" +
            fk.referenced_table + "'");
      }
      // The referenced attributes must be exactly the referenced table's
      // primary key (we only support key-based references, as does the
      // paper's model).
      if (fk.referenced_attributes != referenced->schema().primary_key()) {
        return Status::IntegrityViolation(
            "foreign key of '" + tab.name() + "' does not reference the "
            "primary key of '" + fk.referenced_table + "'");
      }
      std::vector<size_t> local_indices;
      for (const auto& attr : fk.local_attributes) {
        auto idx = tab.schema().AttributeIndex(attr);
        CLAKS_CHECK(idx.has_value());
        local_indices.push_back(*idx);
      }
      for (size_t r = 0; r < tab.num_rows(); ++r) {
        if (tab.IsDeleted(r)) continue;
        const Row& row = tab.row(r);
        bool any_null = false;
        for (size_t idx : local_indices) {
          if (row[idx].is_null()) any_null = true;
        }
        if (any_null) continue;
        if (!ResolveOneFk(row, local_indices, *referenced).has_value()) {
          return Status::IntegrityViolation(StrFormat(
              "dangling foreign key: %s row %zu -> %s", tab.name().c_str(),
              r, fk.referenced_table.c_str()));
        }
      }
    }
  }
  return Status::OK();
}

bool Database::JoinIndexesFreshLocked() const {
  if (indexed_row_counts_.size() != tables_.size()) return false;
  if (indexed_tombstone_counts_.size() != tables_.size()) return false;
  for (size_t t = 0; t < tables_.size(); ++t) {
    if (indexed_row_counts_[t] != tables_[t]->num_rows()) return false;
    if (indexed_tombstone_counts_[t] != tables_[t]->tombstone_count()) {
      return false;
    }
  }
  return true;
}

// Lock-free read of the published cache: the acquire pairs with the
// release store at the end of the build — a reader that sees the flag
// also sees the fully-built cache and the row counts it was built
// against. Stale counts (a mutation happened) can only be observed when
// mutation has stopped racing with readers, per the class contract. The
// analysis cannot express release/acquire publication, hence the opt-out.
bool Database::JoinIndexesFresh() const CLAKS_NO_THREAD_SAFETY_ANALYSIS {
  if (!join_indexes_built_.load(std::memory_order_acquire)) return false;
  return JoinIndexesFreshLocked();
}

void Database::BuildJoinIndexes() const {
  if (JoinIndexesFresh()) return;  // lock-free fast path
  MutexLock lock(&join_index_mutex_);
  // Double-check under the lock: another thread may have finished the
  // build while this one waited.
  if (join_indexes_built_.load(std::memory_order_relaxed) &&
      JoinIndexesFreshLocked()) {
    return;
  }
  join_indexes_.assign(tables_.size(), {});
  indexed_row_counts_.resize(tables_.size());
  indexed_tombstone_counts_.resize(tables_.size());

  for (uint32_t t = 0; t < tables_.size(); ++t) {
    const Table& tab = *tables_[t];
    indexed_row_counts_[t] = tab.num_rows();
    indexed_tombstone_counts_[t] = tab.tombstone_count();
    const auto& fks = tab.schema().foreign_keys();
    join_indexes_[t].resize(fks.size());
    for (uint32_t f = 0; f < fks.size(); ++f) {
      const ForeignKeyDef& fk = fks[f];
      FkJoinIndex& index = join_indexes_[t][f];
      index.table = t;
      index.fk_index = f;
      auto base = std::make_shared<FkJoinIndex::Base>();
      base->parent_row.assign(tab.num_rows(), FkJoinIndex::kNoParent);

      auto ref_index = TableIndex(fk.referenced_table);
      std::vector<size_t> local_indices;
      local_indices.reserve(fk.local_attributes.size());
      bool resolved_attrs = true;
      for (const auto& attr : fk.local_attributes) {
        auto idx = tab.schema().AttributeIndex(attr);
        if (!idx.has_value()) {
          resolved_attrs = false;
          break;
        }
        local_indices.push_back(*idx);
      }
      if (!ref_index.has_value() || !resolved_attrs) {
        index.base = std::move(base);
        continue;
      }
      index.referenced_table = *ref_index;
      index.valid = true;
      const Table& referenced = *tables_[*ref_index];

      // Child->parent: one hash probe per live row (tombstoned child rows
      // keep kNoParent — no edges out of the dead).
      for (uint32_t r = 0; r < tab.num_rows(); ++r) {
        if (tab.IsDeleted(r)) continue;
        auto target = ResolveOneFk(tab.row(r), local_indices, referenced);
        if (target.has_value()) {
          base->parent_row[r] = static_cast<uint32_t>(*target);
        }
      }

      // Parent->children CSR: count, prefix-sum, fill (rows ascending).
      base->child_offsets.assign(referenced.num_rows() + 1, 0);
      for (uint32_t parent : base->parent_row) {
        if (parent != FkJoinIndex::kNoParent) {
          ++base->child_offsets[parent + 1];
        }
      }
      for (size_t p = 1; p < base->child_offsets.size(); ++p) {
        base->child_offsets[p] += base->child_offsets[p - 1];
      }
      base->child_rows.resize(base->child_offsets.back());
      std::vector<uint32_t> cursor(base->child_offsets.begin(),
                                   base->child_offsets.end() - 1);
      for (uint32_t r = 0; r < base->parent_row.size(); ++r) {
        uint32_t parent = base->parent_row[r];
        if (parent != FkJoinIndex::kNoParent) {
          base->child_rows[cursor[parent]++] = r;
        }
      }
      index.base = std::move(base);
    }
  }

  RebuildFkEdgesLocked();
  fk_edges_built_.store(true, std::memory_order_release);
  join_indexes_built_.store(true, std::memory_order_release);
}

void Database::RebuildFkEdgesLocked() const {
  // Canonical (table, row, fk) order; tombstoned rows have no parents so
  // the Parent() == kNoParent test covers them.
  all_fk_edges_.clear();
  for (uint32_t t = 0; t < tables_.size(); ++t) {
    const auto& indexes = join_indexes_[t];
    for (uint32_t r = 0; r < tables_[t]->num_rows(); ++r) {
      for (uint32_t f = 0; f < indexes.size(); ++f) {
        const FkJoinIndex& index = indexes[f];
        uint32_t parent = index.Parent(r);
        if (!index.valid || parent == FkJoinIndex::kNoParent) continue;
        all_fk_edges_.push_back(
            FkEdge{TupleId{t, r}, TupleId{index.referenced_table, parent},
                   f});
      }
    }
  }
}

Status Database::DeriveJoinIndexes(const Database& prev,
                                   const DatabaseDelta& delta) const {
  CLAKS_CHECK(!delta.schema_changed);
  CLAKS_CHECK(prev.JoinIndexesFresh());
  // Lock order: prev before this. Derives never run in both directions
  // at once (SearchService serializes mutations), and prev is a frozen
  // generation, so its lock is uncontended — taken here only to make the
  // read of prev's cache provable to the analysis.
  MutexLock prev_lock(&prev.join_index_mutex_);
  MutexLock lock(&join_index_mutex_);
  join_indexes_built_.store(false, std::memory_order_relaxed);
  fk_edges_built_.store(false, std::memory_order_relaxed);
  join_indexes_ = prev.join_indexes_;  // shares bases, copies overlays

  // Deletes: un-link the dead child from its parent on every FK it owns.
  for (const DeltaOp& op : delta.deletes) {
    for (FkJoinIndex& index : join_indexes_[op.table]) {
      if (!index.valid) continue;
      uint32_t parent = index.Parent(op.row);
      if (parent == FkJoinIndex::kNoParent) continue;
      auto it = index.children_overrides.find(parent);
      if (it == index.children_overrides.end()) {
        Span<uint32_t> kids = index.Children(parent);
        it = index.children_overrides
                 .emplace(parent,
                          std::vector<uint32_t>(kids.begin(), kids.end()))
                 .first;
      }
      auto pos = std::lower_bound(it->second.begin(), it->second.end(),
                                  op.row);
      if (pos != it->second.end() && *pos == op.row) it->second.erase(pos);
      if (op.row < index.base->parent_row.size()) {
        index.parent_overrides[op.row] = FkJoinIndex::kNoParent;
      } else {
        index.tail_parent_row[op.row - index.base->parent_row.size()] =
            FkJoinIndex::kNoParent;
      }
    }
  }

  // Inserts, ascending (table, row): resolve each FK against this (the
  // post-batch) state. A non-NULL FK that resolves to nothing is dangling.
  for (const DeltaOp& op : delta.inserts) {
    const Table& tab = *tables_[op.table];
    const Row& row = tab.row(op.row);
    const auto& fks = tab.schema().foreign_keys();
    for (uint32_t f = 0; f < fks.size(); ++f) {
      FkJoinIndex& index = join_indexes_[op.table][f];
      // Grow the child->parent tail up to this slot (kNoParent padding
      // covers same-batch insert+delete slots skipped by the delta).
      while (index.child_slots() <= op.row) {
        index.tail_parent_row.push_back(FkJoinIndex::kNoParent);
      }
      if (!index.valid) continue;
      std::vector<size_t> local_indices;
      local_indices.reserve(fks[f].local_attributes.size());
      for (const auto& attr : fks[f].local_attributes) {
        auto idx = tab.schema().AttributeIndex(attr);
        CLAKS_CHECK(idx.has_value());
        local_indices.push_back(*idx);
      }
      bool any_null = false;
      for (size_t idx : local_indices) {
        if (row[idx].is_null()) any_null = true;
      }
      if (any_null) continue;
      const Table& referenced = *tables_[index.referenced_table];
      auto target = ResolveOneFk(row, local_indices, referenced);
      if (!target.has_value()) {
        return Status::IntegrityViolation(StrFormat(
            "dangling foreign key: %s row %u -> %s", tab.name().c_str(),
            op.row, fks[f].referenced_table.c_str()));
      }
      uint32_t parent = static_cast<uint32_t>(*target);
      if (op.row < index.base->parent_row.size()) {
        index.parent_overrides[op.row] = parent;
      } else {
        index.tail_parent_row[op.row - index.base->parent_row.size()] =
            parent;
      }
      auto it = index.children_overrides.find(parent);
      if (it == index.children_overrides.end()) {
        Span<uint32_t> kids = index.Children(parent);
        it = index.children_overrides
                 .emplace(parent,
                          std::vector<uint32_t>(kids.begin(), kids.end()))
                 .first;
      }
      auto pos = std::lower_bound(it->second.begin(), it->second.end(),
                                  op.row);
      it->second.insert(pos, op.row);
    }
  }

  // RESTRICT: after the whole batch, no live child may still reference a
  // deleted row (same-batch child deletions were already unlinked above).
  for (const DeltaOp& op : delta.deletes) {
    for (const auto& per_table : join_indexes_) {
      for (const FkJoinIndex& index : per_table) {
        if (!index.valid || index.referenced_table != op.table) continue;
        if (!index.Children(op.row).empty()) {
          return Status::IntegrityViolation(StrFormat(
              "cannot delete %s row %u: still referenced by %s",
              tables_[op.table]->name().c_str(), op.row,
              tables_[index.table]->name().c_str()));
        }
      }
    }
  }

  indexed_row_counts_.resize(tables_.size());
  indexed_tombstone_counts_.resize(tables_.size());
  for (size_t t = 0; t < tables_.size(); ++t) {
    indexed_row_counts_[t] = tables_[t]->num_rows();
    indexed_tombstone_counts_[t] = tables_[t]->tombstone_count();
  }
  join_indexes_built_.store(true, std::memory_order_release);
  return Status::OK();
}

void Database::CompactJoinIndexes() const {
  MutexLock lock(&join_index_mutex_);
  if (!join_indexes_built_.load(std::memory_order_relaxed)) return;
  for (auto& per_table : join_indexes_) {
    for (FkJoinIndex& index : per_table) {
      if (index.IsCompact()) continue;
      auto next = std::make_shared<FkJoinIndex::Base>();
      // Fold child->parent: base + overrides + tail, pure array work.
      next->parent_row = index.base->parent_row;
      for (const auto& [child, parent] : index.parent_overrides) {
        next->parent_row[child] = parent;
      }
      next->parent_row.insert(next->parent_row.end(),
                              index.tail_parent_row.begin(),
                              index.tail_parent_row.end());
      if (!index.valid) {
        // Build leaves the CSR empty for unresolvable FKs; match it.
        index.base = std::move(next);
        index.tail_parent_row.clear();
        index.parent_overrides.clear();
        index.children_overrides.clear();
        continue;
      }
      // Re-derive the CSR exactly as BuildJoinIndexes does.
      next->child_offsets.assign(
          tables_[index.referenced_table]->num_rows() + 1, 0);
      for (uint32_t parent : next->parent_row) {
        if (parent != FkJoinIndex::kNoParent) {
          ++next->child_offsets[parent + 1];
        }
      }
      for (size_t p = 1; p < next->child_offsets.size(); ++p) {
        next->child_offsets[p] += next->child_offsets[p - 1];
      }
      next->child_rows.resize(next->child_offsets.back());
      std::vector<uint32_t> cursor(next->child_offsets.begin(),
                                   next->child_offsets.end() - 1);
      for (uint32_t r = 0; r < next->parent_row.size(); ++r) {
        uint32_t parent = next->parent_row[r];
        if (parent != FkJoinIndex::kNoParent) {
          next->child_rows[cursor[parent]++] = r;
        }
      }
      index.base = std::move(next);
      index.tail_parent_row.clear();
      index.parent_overrides.clear();
      index.children_overrides.clear();
    }
  }
}

bool Database::JoinIndexesCompact() const {
  if (!join_indexes_built_.load(std::memory_order_acquire)) return true;
  // Cold path (compaction policy, tests): the lock is cheaper than an
  // analysis opt-out here.
  MutexLock lock(&join_index_mutex_);
  for (const auto& per_table : join_indexes_) {
    for (const FkJoinIndex& index : per_table) {
      if (!index.IsCompact()) return false;
    }
  }
  return true;
}

size_t Database::JoinOverlayOps() const {
  if (!join_indexes_built_.load(std::memory_order_acquire)) return 0;
  MutexLock lock(&join_index_mutex_);
  size_t ops = 0;
  for (const auto& per_table : join_indexes_) {
    for (const FkJoinIndex& index : per_table) ops += index.OverlayOps();
  }
  return ops;
}

void Database::CompactStorage() {
  for (auto& table : tables_) table->Rebase();
}

// Hot path (every join probe): reads the cache lock-free after the
// acquire-published build — taking the mutex here would serialize all
// concurrent queries. Soundness is the Warmup contract: once warm, the
// cache is immutable until mutation, and mutation never races readers.
const FkJoinIndex& Database::JoinIndex(uint32_t table_index,
                                       uint32_t fk_index) const
    CLAKS_NO_THREAD_SAFETY_ANALYSIS {
  BuildJoinIndexes();
  CLAKS_CHECK_LT(table_index, join_indexes_.size());
  CLAKS_CHECK_LT(fk_index, join_indexes_[table_index].size());
  return join_indexes_[table_index][fk_index];
}

std::optional<TupleId> Database::JoinParent(TupleId child,
                                            uint32_t fk_index) const {
  const FkJoinIndex& index = JoinIndex(child.table, fk_index);
  CLAKS_CHECK_LT(child.row, index.child_slots());
  uint32_t parent = index.Parent(child.row);
  if (!index.valid || parent == FkJoinIndex::kNoParent) return std::nullopt;
  return TupleId{index.referenced_table, parent};
}

Span<uint32_t> Database::JoinChildren(uint32_t child_table,
                                      uint32_t fk_index,
                                      TupleId parent) const {
  const FkJoinIndex& index = JoinIndex(child_table, fk_index);
  if (!index.valid || parent.table != index.referenced_table) return {};
  return index.Children(parent.row);
}

// Same publication pattern as JoinIndex: the returned reference is read
// lock-free after the acquire load of fk_edges_built_, valid until the
// next mutation per the class contract.
const std::vector<FkEdge>& Database::ResolveAllFkEdges() const
    CLAKS_NO_THREAD_SAFETY_ANALYSIS {
  BuildJoinIndexes();
  // The delta derive path leaves the canonical list stale; regenerate it
  // on first demand from the (fresh) overlay indexes.
  if (!fk_edges_built_.load(std::memory_order_acquire)) {
    MutexLock lock(&join_index_mutex_);
    if (!fk_edges_built_.load(std::memory_order_relaxed)) {
      RebuildFkEdgesLocked();
      fk_edges_built_.store(true, std::memory_order_release);
    }
  }
  return all_fk_edges_;
}

std::vector<FkEdge> Database::ResolveFkEdgesFrom(TupleId id) const {
  std::vector<FkEdge> edges;
  const Table& tab = table(id.table);
  const Row& row = tab.row(id.row);
  const auto& fks = tab.schema().foreign_keys();
  for (uint32_t f = 0; f < fks.size(); ++f) {
    const ForeignKeyDef& fk = fks[f];
    const Table* referenced = FindTable(fk.referenced_table);
    if (referenced == nullptr) continue;
    std::vector<size_t> local_indices;
    local_indices.reserve(fk.local_attributes.size());
    bool resolved_attrs = true;
    for (const auto& attr : fk.local_attributes) {
      auto idx = tab.schema().AttributeIndex(attr);
      if (!idx.has_value()) {
        resolved_attrs = false;
        break;
      }
      local_indices.push_back(*idx);
    }
    if (!resolved_attrs) continue;
    auto target_row = ResolveOneFk(row, local_indices, *referenced);
    if (!target_row.has_value()) continue;
    auto ref_index = TableIndex(fk.referenced_table);
    CLAKS_CHECK(ref_index.has_value());
    edges.push_back(FkEdge{
        id, TupleId{*ref_index, static_cast<uint32_t>(*target_row)}, f});
  }
  return edges;
}

std::string Database::TupleLabel(TupleId id) const {
  const Table& tab = table(id.table);
  std::string out = tab.name() + ":";
  const auto pk_indices = tab.schema().PrimaryKeyIndices();
  for (size_t i = 0; i < pk_indices.size(); ++i) {
    if (i > 0) out += ",";
    out += tab.row(id.row)[pk_indices[i]].ToString();
  }
  return out;
}

std::string Database::TupleSummary(TupleId id, size_t max_chars) const {
  const Table& tab = table(id.table);
  const Row& row = tab.row(id.row);
  std::string out;
  for (size_t i = 0; i < row.size() && out.size() < max_chars; ++i) {
    if (i > 0) out += " ";
    out += tab.schema().attribute(i).name + "=" + row[i].ToString();
  }
  if (out.size() > max_chars) {
    out.resize(max_chars);
    out += "...";
  }
  return out;
}

}  // namespace claks
