#include "catalog/catalog.h"

#include <cassert>
#include <utility>

#include "common/fault_injector.h"

namespace sqp {

namespace {
// Call fn(value, rid) for column `col` of every row of `heap`, page at a
// time through the pool: each page is fetched once, held pinned while its
// slots are walked and unpinned before the next, the same buffer-pool
// traffic as HeapFile::Iterator. Only the key column is decoded.
template <typename Fn>
Status ForEachColumnValue(BufferPool* pool, const HeapFile& heap, size_t col,
                          Fn&& fn) {
  for (page_id_t page_id : heap.pages()) {
    auto page = pool->FetchPage(page_id);
    if (!page.ok()) return page.status();
    PageGuard guard(pool, page_id, *page);
    const Page* p = guard.get();
    for (uint16_t slot = 0; slot < p->slot_count(); slot++) {
      uint16_t len = 0;
      fn(DecodeColumn(p->Record(slot, &len), col), Rid{page_id, slot});
    }
  }
  return Status::OK();
}
}  // namespace

Result<TableInfo*> Catalog::CreateTable(const std::string& name,
                                        const Schema& schema,
                                        bool is_materialized) {
  if (tables_.count(name) > 0) {
    return Status::AlreadyExists("table " + name);
  }
  auto info = std::make_unique<TableInfo>();
  info->name = name;
  info->schema = schema;
  info->heap = std::make_unique<HeapFile>(pool_);
  if (disk_->shard_count() > 1 && !is_materialized) {
    // Base tables must survive node loss: hash-shard them over every
    // storage node and shadow each page on a second node. Materialized
    // results stay single-copy — they are disposable by contract, so a
    // node loss just drops them (DESIGN.md §12).
    HeapPlacement placement;
    placement.replicated = true;
    placement.shards = disk_->shard_count();
    info->heap->SetPlacement(placement);
  }
  info->is_materialized = is_materialized;
  TableInfo* raw = info.get();
  tables_[name] = std::move(info);
  return raw;
}

Result<TableInfo*> Catalog::RestoreTable(const std::string& name,
                                         const Schema& schema,
                                         bool is_materialized,
                                         std::vector<page_id_t> pages,
                                         uint64_t tuple_count) {
  auto created = CreateTable(name, schema, is_materialized);
  if (!created.ok()) return created.status();
  TableInfo* info = *created;
  info->heap->Restore(std::move(pages), tuple_count);
  Status analyzed = AnalyzeTable(name);
  if (!analyzed.ok()) {
    // Validation failed (torn page, I/O error): detach the page list so
    // the caller decides whether to drop the pages or surface the loss.
    info->heap->Restore({}, 0);
    tables_.erase(name);
    return analyzed;
  }
  return info;
}

TableInfo* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const TableInfo* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("table " + name);
  TableInfo* info = it->second.get();
  // Drop dependent indexes and histograms.
  for (const auto& col : info->schema.columns()) {
    indexes_.erase(Key(name, col.name));
    histograms_.erase(Key(name, col.name));
  }
  info->heap->Drop(disk_);
  tables_.erase(it);
  return Status::OK();
}

Status Catalog::AnalyzeTable(const std::string& name) {
  TableInfo* info = GetTable(name);
  if (info == nullptr) return Status::NotFound("table " + name);
  TableStats stats;
  stats.Begin(info->schema);
  auto iter = info->heap->Scan();
  std::vector<Tuple> page_rows;
  for (;;) {
    page_rows.clear();
    auto more = iter.NextPage(&page_rows);
    if (!more.ok()) return more.status();
    if (!*more) break;
    for (const Tuple& row : page_rows) stats.Observe(row);
  }
  stats.Finish(info->heap->page_count());
  info->stats = std::move(stats);
  return Status::OK();
}

Result<BPlusTree*> Catalog::CreateIndex(const std::string& table,
                                        const std::string& column) {
  TableInfo* info = GetTable(table);
  if (info == nullptr) return Status::NotFound("table " + table);
  auto col_idx = info->schema.ColumnIndex(column);
  if (!col_idx.has_value()) {
    return Status::NotFound("column " + column + " in " + table);
  }
  std::string key = Key(table, column);
  if (indexes_.count(key) > 0) {
    return Status::AlreadyExists("index on " + key);
  }
  SQP_INJECT_FAULT("catalog.index_build");
  auto tree = std::make_unique<BPlusTree>();
  // Build: full scan, inserting (key, rid) one at a time. The scan's
  // buffer-pool traffic charges the build's simulated I/O cost, and the
  // incremental inserts fix the tree shape index-scan charges read.
  Status scanned = ForEachColumnValue(
      pool_, *info->heap, *col_idx, [&](const Value& v, const Rid& rid) {
        tree->Insert(v, rid);
      });
  if (!scanned.ok()) return scanned;
  BPlusTree* raw = tree.get();
  indexes_[key] = std::move(tree);
  return raw;
}

BPlusTree* Catalog::GetIndex(const std::string& table,
                             const std::string& column) {
  auto it = indexes_.find(Key(table, column));
  return it == indexes_.end() ? nullptr : it->second.get();
}

bool Catalog::HasIndex(const std::string& table,
                       const std::string& column) const {
  return indexes_.count(Key(table, column)) > 0;
}

Status Catalog::DropIndex(const std::string& table,
                          const std::string& column) {
  return indexes_.erase(Key(table, column)) > 0
             ? Status::OK()
             : Status::NotFound("index on " + Key(table, column));
}

Status Catalog::DropHistogram(const std::string& table,
                              const std::string& column) {
  return histograms_.erase(Key(table, column)) > 0
             ? Status::OK()
             : Status::NotFound("histogram on " + Key(table, column));
}

Status Catalog::CreateHistogram(const std::string& table,
                                const std::string& column) {
  TableInfo* info = GetTable(table);
  if (info == nullptr) return Status::NotFound("table " + table);
  auto col_idx = info->schema.ColumnIndex(column);
  if (!col_idx.has_value()) {
    return Status::NotFound("column " + column + " in " + table);
  }
  SQP_INJECT_FAULT("catalog.histogram_build");
  std::vector<Value> values;
  values.reserve(info->heap->tuple_count());
  Status scanned = ForEachColumnValue(
      pool_, *info->heap, *col_idx,
      [&](Value v, const Rid&) { values.push_back(std::move(v)); });
  if (!scanned.ok()) return scanned;
  histograms_[Key(table, column)] = Histogram::Build(std::move(values));
  return Status::OK();
}

const Histogram* Catalog::GetHistogram(const std::string& table,
                                       const std::string& column) const {
  auto it = histograms_.find(Key(table, column));
  return it == histograms_.end() ? nullptr : &it->second;
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, info] : tables_) names.push_back(name);
  return names;
}

std::vector<std::string> Catalog::MaterializedTableNames() const {
  std::vector<std::string> names;
  for (const auto& [name, info] : tables_) {
    if (info->is_materialized) names.push_back(name);
  }
  return names;
}

}  // namespace sqp
