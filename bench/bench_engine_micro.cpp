// Engine microbenchmarks (E11): substrate performance in real time.
//
// google-benchmark over the storage/index/exec/optimizer building
// blocks. These measure *wall-clock* cost of the simulator itself (not
// simulated seconds) — the budget that bounds how large an experiment
// replays in reasonable time.
#include <benchmark/benchmark.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>

#include "catalog/catalog.h"
#include "common/checksum.h"
#include "common/rng.h"
#include "db/database.h"
#include "index/bplus_tree.h"
#include "stats/histogram.h"
#include "stats/table_stats.h"
#include "storage/disk_manager.h"
#include "trace/trace_generator.h"
#include "workload/datagen.h"
#include "workload/tpch.h"

using namespace sqp;

// Heap accounting for BM_BPlusTreeBuild: while `tracking`, every block
// operator new hands out or operator delete takes back moves `live` by its
// usable size, and `peak` keeps the high-water mark. Benchmarks run on one
// thread.
struct HeapCounter {
  bool tracking = false;
  int64_t live = 0;
  int64_t peak = 0;
};
HeapCounter g_heap;

void* operator new(size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
#ifdef __GLIBC__
  if (g_heap.tracking) {
    g_heap.live += static_cast<int64_t>(malloc_usable_size(p));
    g_heap.peak = std::max(g_heap.peak, g_heap.live);
  }
#endif
  return p;
}

// GCC takes the free() below for a mismatch with operator new; the two
// replacements are a matched malloc/free pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept {
#ifdef __GLIBC__
  if (p != nullptr && g_heap.tracking) {
    g_heap.live -= static_cast<int64_t>(malloc_usable_size(p));
  }
#endif
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

// Replaced with the unsized form, as -Wsized-deallocation asks.
void operator delete(void* p, size_t) noexcept { operator delete(p); }

namespace {

void BM_BufferPoolFetchHit(benchmark::State& state) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 64);
  auto page = pool.NewPage();
  page_id_t id = page->first;
  pool.UnpinPage(id, true);
  for (auto _ : state) {
    auto p = pool.FetchPage(id);
    benchmark::DoNotOptimize(*p);
    pool.UnpinPage(id, false);
  }
}
BENCHMARK(BM_BufferPoolFetchHit);

void BM_BufferPoolFetchMiss(benchmark::State& state) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 16);
  std::vector<page_id_t> ids;
  for (int i = 0; i < 256; i++) {
    auto page = pool.NewPage();
    ids.push_back(page->first);
    pool.UnpinPage(page->first, true);
  }
  size_t i = 0;
  for (auto _ : state) {
    // Stride beyond the pool so every fetch evicts.
    auto p = pool.FetchPage(ids[(i += 17) % ids.size()]);
    benchmark::DoNotOptimize(*p);
    pool.UnpinPage(ids[i % ids.size()], false);
  }
}
BENCHMARK(BM_BufferPoolFetchMiss);

// Wall time per unit of work (a page, a row): the kernel figures
// ROADMAP tracks.
benchmark::Counter TimePer(double units) {
  return benchmark::Counter(units,
                            benchmark::Counter::kIsIterationInvariantRate |
                                benchmark::Counter::kInvert);
}

// The checksum every durable page write (and first read) pays.
void BM_Crc32Page(benchmark::State& state) {
  Rng rng(5);
  Page page;
  for (size_t i = 0; i < kPageSize; i++) {
    page.raw()[i] = static_cast<uint8_t>(rng.NextUint64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(page.raw(), kPageSize));
  }
  state.SetBytesProcessed(state.iterations() * kPageSize);
  state.counters["per_page"] = TimePer(1);
}
BENCHMARK(BM_Crc32Page);

// Lineitem-shaped rows (4 ints, 2 doubles) plus a string column of 5
// to 24 bytes, so both inline and heap strings occur.
Schema WideLineitemSchema() {
  return tpch::SchemaFor("lineitem")
      .Concat(Schema({{"l_comment", TypeId::kString}}));
}

std::vector<Tuple> WideLineitemRows(size_t count) {
  Rng rng(7);
  std::vector<Tuple> rows;
  rows.reserve(count);
  for (size_t n = 0; n < count; n++) {
    const int64_t i = static_cast<int64_t>(n);
    std::string comment(5 + rng.NextRange(20), 'c');
    comment += std::to_string(rng.NextRange(3000));
    rows.push_back(Tuple{
        Value(i / 4 + 1),
        Value(static_cast<int64_t>(rng.NextRange(400) + 1)),
        Value(static_cast<int64_t>(rng.NextRange(40) + 1)),
        Value(static_cast<int64_t>(rng.NextRange(50) + 1)),
        Value(900.0 + rng.NextDouble() * 104100.0),
        Value(static_cast<double>(rng.NextRange(11)) / 100.0),
        Value(comment),
    });
  }
  return rows;
}

// Min/max/distinct upkeep for every row a bulk load or materialization
// writes.
void BM_TableStatsObserve(benchmark::State& state) {
  const Schema schema = WideLineitemSchema();
  const std::vector<Tuple> rows = WideLineitemRows(24000);
  for (auto _ : state) {
    TableStats stats;
    stats.Begin(schema);
    for (const Tuple& row : rows) stats.Observe(row);
    stats.Finish(1);
    benchmark::DoNotOptimize(stats.column(4).distinct_count);
    benchmark::DoNotOptimize(stats.column(6).distinct_count);
  }
  state.SetItemsProcessed(state.iterations() * rows.size());
  state.counters["per_row"] = TimePer(static_cast<double>(rows.size()));
}
BENCHMARK(BM_TableStatsObserve)->Unit(benchmark::kMillisecond);

// A bulk-loaded wide lineitem table behind a pool that holds all of it,
// so index and histogram builds time decoding and building, not misses.
struct LoadedCatalog {
  CostMeter meter;
  DiskManager disk{&meter};
  BufferPool pool{&disk, 2048};
  Catalog catalog{&disk, &pool};
  size_t rows = 0;

  LoadedCatalog() {
    TableInfo* info = *catalog.CreateTable("t", WideLineitemSchema());
    for (const Tuple& row : WideLineitemRows(60000)) {
      Status s = info->heap->Append(row).status();
      (void)s;
      rows++;
    }
  }
};

LoadedCatalog& SharedCatalog() {
  static LoadedCatalog instance;
  return instance;
}

// CREATE INDEX on l_partkey (400 distinct keys); each build ends with a
// drop so the next can run.
void BM_CatalogCreateIndex(benchmark::State& state) {
  LoadedCatalog& loaded = SharedCatalog();
  for (auto _ : state) {
    auto tree = loaded.catalog.CreateIndex("t", "l_partkey");
    benchmark::DoNotOptimize((*tree)->height());
    Status s = loaded.catalog.DropIndex("t", "l_partkey");
    (void)s;
  }
  state.SetItemsProcessed(state.iterations() * loaded.rows);
  state.counters["per_row"] = TimePer(static_cast<double>(loaded.rows));
}
BENCHMARK(BM_CatalogCreateIndex)->Unit(benchmark::kMillisecond);

// Histogram creation on a numeric and on the string column.
void BM_CatalogCreateHistogram(benchmark::State& state) {
  LoadedCatalog& loaded = SharedCatalog();
  for (auto _ : state) {
    Status a = loaded.catalog.CreateHistogram("t", "l_extendedprice");
    Status b = loaded.catalog.CreateHistogram("t", "l_comment");
    benchmark::DoNotOptimize(a.ok() && b.ok());
    benchmark::DoNotOptimize(
        loaded.catalog.GetHistogram("t", "l_comment")->distinct_count());
  }
  state.SetItemsProcessed(state.iterations() * loaded.rows * 2);
  state.counters["per_row"] = TimePer(static_cast<double>(loaded.rows * 2));
}
BENCHMARK(BM_CatalogCreateHistogram)->Unit(benchmark::kMillisecond);

// One index build of 100 k keys: ints random over 100 k values (arg 0),
// over 50 values (arg 1), already sorted (arg 2), or doubles spread over
// magnitudes 1e-300 to 1e300 of both signs (arg 3, which takes every radix
// pass). The rids come in heap order, 100 to a page, as a table scan hands
// them over. Reports ns per key, the builder's peak heap bytes per entry
// from its first Insert() through Finish(), and the heap bytes per entry of
// the built tree (both 0 where glibc's malloc_usable_size is unavailable).
// Row i of a heap file that holds 100 rows a page.
Rid HeapRid(size_t i) {
  return Rid{static_cast<page_id_t>(i / 100), static_cast<uint16_t>(i % 100)};
}

void BM_BPlusTreeBuild(benchmark::State& state) {
  constexpr size_t kKeys = 100000;
  Rng rng(1);
  std::vector<Value> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; i++) {
    const uint64_t r = rng.NextUint64();
    switch (state.range(0)) {
      case 0:
        keys.emplace_back(static_cast<int64_t>(r % 100000));
        break;
      case 1:
        keys.emplace_back(static_cast<int64_t>(r % 50));
        break;
      case 2:
        keys.emplace_back(static_cast<int64_t>(i));
        break;
      default:
        keys.emplace_back((r % 2 == 0 ? -1.0 : 1.0) *
                          (1.0 + 9.0 * rng.NextDouble()) *
                          std::pow(10.0, static_cast<double>(
                                             rng.NextInt(-300, 299))));
    }
  }
  // Sized up front, as Catalog::CreateIndex sizes it.
  auto build = [&](BPlusTreeBuilder* builder) {
    builder->Reserve(kKeys);
    for (size_t i = 0; i < kKeys; i++) {
      builder->Insert(keys[i], HeapRid(i));
    }
  };

  g_heap = HeapCounter{true, 0, 0};
  std::unique_ptr<BPlusTree> sized;
  {
    BPlusTreeBuilder builder;
    build(&builder);
    sized = builder.Finish();
  }
  g_heap.tracking = false;

  for (auto _ : state) {
    BPlusTreeBuilder builder;
    build(&builder);
    std::unique_ptr<BPlusTree> tree = builder.Finish();
    benchmark::DoNotOptimize(tree->leaf_count());
  }
  state.SetItemsProcessed(state.iterations() * kKeys);
  state.counters["per_key"] = TimePer(kKeys);
  state.counters["peak_bytes_per_entry"] =
      static_cast<double>(g_heap.peak) / kKeys;
  state.counters["bytes_per_entry"] =
      static_cast<double>(g_heap.live) / kKeys;
}
BENCHMARK(BM_BPlusTreeBuild)
    ->ArgName("keys")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

void BM_BPlusTreeRangeScan(benchmark::State& state) {
  BPlusTreeBuilder builder;
  for (int64_t i = 0; i < 100000; i++) {
    builder.Insert(Value(i), HeapRid(static_cast<size_t>(i)));
  }
  const std::unique_ptr<BPlusTree> tree = builder.Finish();
  for (auto _ : state) {
    KeyRange range{Value(int64_t{40000}), true, Value(int64_t{41000}), true};
    auto rids = tree->RangeScan(range);
    benchmark::DoNotOptimize(rids);
  }
}
BENCHMARK(BM_BPlusTreeRangeScan);

void BM_HistogramBuild(benchmark::State& state) {
  Rng rng(3);
  ZipfGenerator zipf(100, 0.85);
  std::vector<Value> values;
  for (int i = 0; i < 50000; i++) {
    values.emplace_back(static_cast<int64_t>(zipf.Next(rng)));
  }
  for (auto _ : state) {
    auto h = Histogram::Build(values);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramBuild);

struct LoadedDb {
  Database db;
  LoadedDb() : db([] {
    DatabaseOptions o;
    o.buffer_pool_pages = 4096;
    return o;
  }()) {
    tpch::LoadOptions load;
    load.scale = tpch::Scale::kSmall;
    Status s = tpch::LoadTpch(&db, load);
    (void)s;
  }
};

LoadedDb& SharedDb() {
  static LoadedDb instance;
  return instance;
}

// SELECT * FROM lineitem WHERE l_quantity < 5
void BM_SeqScanQuery(benchmark::State& state) {
  Database& db = SharedDb().db;
  QueryGraph query;
  query.AddSelection(
      {"lineitem", "l_quantity", CompareOp::kLt, Value(int64_t{5})});
  for (auto _ : state) {
    auto r = db.Execute(query);
    benchmark::DoNotOptimize(r->row_count);
  }
}
BENCHMARK(BM_SeqScanQuery)->Unit(benchmark::kMillisecond);

// SELECT * FROM orders, lineitem WHERE o_orderkey = l_orderkey
//   AND o_totalprice < 30000
void BM_HashJoinQuery(benchmark::State& state) {
  Database& db = SharedDb().db;
  QueryGraph query;
  query.AddJoin({"orders", "o_orderkey", "lineitem", "l_orderkey"});
  query.AddSelection(
      {"orders", "o_totalprice", CompareOp::kLt, Value(int64_t{30000})});
  for (auto _ : state) {
    auto r = db.Execute(query);
    benchmark::DoNotOptimize(r->row_count);
  }
}
BENCHMARK(BM_HashJoinQuery)->Unit(benchmark::kMillisecond);

// SELECT * FROM customer, orders, lineitem, part, supplier WHERE
//   c_custkey = o_custkey AND o_orderkey = l_orderkey AND
//   l_partkey = p_partkey AND l_suppkey = s_suppkey AND p_size < 10
void BM_PlannerFiveWay(benchmark::State& state) {
  Database& db = SharedDb().db;
  QueryGraph query;
  query.AddJoin({"customer", "c_custkey", "orders", "o_custkey"});
  query.AddJoin({"orders", "o_orderkey", "lineitem", "l_orderkey"});
  query.AddJoin({"lineitem", "l_partkey", "part", "p_partkey"});
  query.AddJoin({"lineitem", "l_suppkey", "supplier", "s_suppkey"});
  query.AddSelection({"part", "p_size", CompareOp::kLt, Value(int64_t{10})});
  for (auto _ : state) {
    auto plan = db.planner().Plan(query, &db.views(), ViewMode::kCostBased);
    benchmark::DoNotOptimize(plan->est_cost);
  }
}
BENCHMARK(BM_PlannerFiveWay);

void BM_TraceGeneration(benchmark::State& state) {
  UserModelParams params;
  uint64_t seed = 1;
  for (auto _ : state) {
    Trace t = GenerateTrace(params, 0, seed++);
    benchmark::DoNotOptimize(t.events.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
