#include "exec/materializer.h"

#include "common/fault_injector.h"

namespace sqp {

Result<TableInfo*> MaterializeInto(Catalog* catalog, BufferPool* pool,
                                   CostMeter* meter, Executor* source,
                                   const std::string& table_name,
                                   bool is_materialized, uint32_t home_node) {
  (void)meter;  // write I/O charges through the buffer pool flush below
  auto table = catalog->CreateTable(table_name, source->output_schema(),
                                    is_materialized);
  if (!table.ok()) return table.status();
  TableInfo* info = *table;
  if (home_node != PageAllocOptions::kAnyNode &&
      info->heap->placement().shards <= 1) {
    // Pin the (unsharded, node-sticky) result to the cost model's
    // chosen home before the first append claims a page.
    HeapPlacement placement = info->heap->placement();
    placement.home_node = home_node;
    info->heap->SetPlacement(placement);
  }

  Status init = source->Init();
  if (!init.ok()) {
    (void)catalog->DropTable(table_name);
    return init;
  }

  TableStats stats;
  stats.Begin(info->schema);
  // Batch pull, but strictly row-at-a-time appends: the per-row
  // "materialize.append" fault check fires once per row, in row order,
  // at every batch size, so chaos schedules stay bit-identical.
  TupleBatch batch;
  for (;;) {
    auto more = source->NextBatch(&batch);
    if (!more.ok()) {
      (void)catalog->DropTable(table_name);
      return more.status();
    }
    if (batch.empty()) break;
    for (const Tuple& row : batch) {
      if (FaultInjector::Global().armed()) {
        Status injected = FaultInjector::Global().Check("materialize.append");
        if (!injected.ok()) {
          (void)catalog->DropTable(table_name);
          return injected;
        }
      }
      stats.Observe(row);
      auto rid = info->heap->Append(row);
      if (!rid.ok()) {
        (void)catalog->DropTable(table_name);
        return rid.status();
      }
    }
  }
  stats.Finish(info->heap->page_count());
  info->stats = std::move(stats);

  // Persist the result: every page of the new table goes to disk. A
  // flush failure abandons the half-built table (pages released).
  for (page_id_t page_id : info->heap->pages()) {
    Status flushed = pool->FlushPage(page_id);
    if (!flushed.ok()) {
      (void)catalog->DropTable(table_name);
      return flushed;
    }
  }
  return info;
}

}  // namespace sqp
