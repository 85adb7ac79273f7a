// Catalog: tables, indexes, and histograms.
//
// Index builds and histogram builds scan through the buffer pool, so
// their simulated cost accrues on the shared CostMeter — exactly what
// the speculation cost model needs when weighing index-creation and
// histogram-creation manipulations.
#pragma once

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"
#include "common/status.h"
#include "index/bplus_tree.h"
#include "stats/histogram.h"
#include "stats/table_stats.h"
#include "storage/heap_file.h"

namespace sqp {

struct TableInfo {
  std::string name;
  Schema schema;
  std::unique_ptr<HeapFile> heap;
  TableStats stats;
  /// True for tables created by materialization (speculative or DDL
  /// CREATE TABLE AS); these are garbage-collected by the speculation
  /// engine and never carry indexes unless explicitly built.
  bool is_materialized = false;
};

class Catalog {
 public:
  /// `disk` may be a single DiskManager or a ShardedStorageRouter; on a
  /// sharded store base tables are created replicated + hash-sharded
  /// over every node, materialized results single-copy (disposable).
  Catalog(PageStore* disk, BufferPool* pool) : disk_(disk), pool_(pool) {}

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  Result<TableInfo*> CreateTable(const std::string& name,
                                 const Schema& schema,
                                 bool is_materialized = false);

  /// Crash recovery: recreate a table around an existing on-disk page
  /// list (recorded in the manifest), then recompute its stats with a
  /// validating full scan — the disk serves only checksum-verified
  /// durable images, so a torn page surfaces here as kDataLoss.
  Result<TableInfo*> RestoreTable(const std::string& name,
                                  const Schema& schema, bool is_materialized,
                                  std::vector<page_id_t> pages,
                                  uint64_t tuple_count);

  /// nullptr when absent.
  TableInfo* GetTable(const std::string& name);
  const TableInfo* GetTable(const std::string& name) const;

  Status DropTable(const std::string& name);

  /// Recompute a table's stats with a full scan (called after bulk load
  /// or materialization).
  Status AnalyzeTable(const std::string& name);

  /// Build a B+-tree on `table.column` from a full scan.
  Result<BPlusTree*> CreateIndex(const std::string& table,
                                 const std::string& column);
  BPlusTree* GetIndex(const std::string& table, const std::string& column);
  bool HasIndex(const std::string& table, const std::string& column) const;

  /// Drop one index (used when a speculative index creation is
  /// cancelled).
  Status DropIndex(const std::string& table, const std::string& column);

  /// Build an equi-depth histogram on `table.column` from a full scan.
  Status CreateHistogram(const std::string& table, const std::string& column);

  /// Drop one histogram (cancelled speculative histogram creation).
  Status DropHistogram(const std::string& table, const std::string& column);
  const Histogram* GetHistogram(const std::string& table,
                                const std::string& column) const;

  std::vector<std::string> TableNames() const;

  /// Names of materialized tables only (candidates for view matching).
  std::vector<std::string> MaterializedTableNames() const;

 private:
  static std::string Key(const std::string& table,
                         const std::string& column) {
    return table + "." + column;
  }

  PageStore* disk_;
  BufferPool* pool_;
  std::unordered_map<std::string, std::unique_ptr<TableInfo>> tables_;
  std::unordered_map<std::string, std::unique_ptr<BPlusTree>> indexes_;
  std::unordered_map<std::string, Histogram> histograms_;
};

}  // namespace sqp
