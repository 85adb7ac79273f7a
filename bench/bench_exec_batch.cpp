// Batch vs. tuple execution wall-clock microbenchmark.
//
// Builds a 100k-row fact table joined against a 10k-row dim table with
// a pushed-down selection, then drives *identical* executor trees
// through the tuple-at-a-time interface (Next) and the batch interface
// (NextBatch), timing real wall-clock per drained row. Simulated
// CostMeter charges are identical by construction (exec_batch_test
// proves it); this bench quantifies the real-time win of DESIGN.md §10.
//
// Output is bench_compare.py-friendly: `batch improvement` is the gated
// higher-is-better headline.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "exec/executors.h"

using namespace sqp;

namespace {

constexpr size_t kFactRows = 100000;
constexpr size_t kDimRows = 10000;
constexpr int kReps = 5;

std::unique_ptr<Database> BuildDb() {
  DatabaseOptions options;
  options.buffer_pool_pages = 8192;  // tables fit: measure CPU, not I/O
  auto db = std::make_unique<Database>(options);

  Schema dim_schema({{"d_id", TypeId::kInt64}, {"d_v", TypeId::kInt64}});
  Schema fact_schema({{"f_id", TypeId::kInt64},
                      {"f_did", TypeId::kInt64},
                      {"f_v", TypeId::kInt64}});
  if (!db->CreateTable("dim", dim_schema).ok() ||
      !db->CreateTable("fact", fact_schema).ok()) {
    std::fprintf(stderr, "table setup failed\n");
    std::exit(1);
  }

  Rng rng(42);
  std::vector<Tuple> dim_rows;
  dim_rows.reserve(kDimRows);
  for (size_t i = 0; i < kDimRows; i++) {
    dim_rows.push_back(
        Tuple{Value(static_cast<int64_t>(i)), Value(rng.NextInt(0, 999))});
  }
  std::vector<Tuple> fact_rows;
  fact_rows.reserve(kFactRows);
  for (size_t i = 0; i < kFactRows; i++) {
    fact_rows.push_back(
        Tuple{Value(static_cast<int64_t>(i)),
              Value(rng.NextInt(0, static_cast<int64_t>(kDimRows) - 1)),
              Value(rng.NextInt(0, 99))});
  }
  if (!db->BulkLoad("dim", dim_rows).ok() ||
      !db->BulkLoad("fact", fact_rows).ok()) {
    std::fprintf(stderr, "bulk load failed\n");
    std::exit(1);
  }
  return db;
}

/// Fresh scan(fact, f_v < 60) ⋈ dim executor tree.
std::unique_ptr<Executor> BuildTree(Database* db) {
  TableInfo* dim = db->catalog().GetTable("dim");
  TableInfo* fact = db->catalog().GetTable("fact");
  SelectionPred pred;
  pred.table = "fact";
  pred.column = "f_v";
  pred.op = CompareOp::kLt;
  pred.constant = Value(static_cast<int64_t>(60));
  auto bound = BindSelection(pred, fact->schema);
  if (!bound.ok()) {
    std::fprintf(stderr, "bind failed\n");
    std::exit(1);
  }
  auto build = std::make_unique<SeqScanExecutor>(dim, &db->buffer_pool(),
                                                 &db->meter());
  auto probe = std::make_unique<SeqScanExecutor>(
      fact, &db->buffer_pool(), &db->meter(),
      std::vector<BoundSelection>{*bound});
  return std::make_unique<HashJoinExecutor>(std::move(build),
                                            std::move(probe),
                                            /*build_key=*/0,
                                            /*probe_key=*/1, &db->meter(),
                                            /*build_rows_hint=*/kDimRows);
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Drain via Next(); returns rows produced, records seconds.
size_t RunTuple(Database* db, double* seconds) {
  auto exec = BuildTree(db);
  auto start = std::chrono::steady_clock::now();
  if (!exec->Init().ok()) std::exit(1);
  size_t rows = 0;
  for (;;) {
    auto row = exec->Next();
    if (!row.ok()) std::exit(1);
    if (!row->has_value()) break;
    rows++;
  }
  *seconds = SecondsSince(start);
  return rows;
}

/// Drain via NextBatch(); returns rows produced, records seconds.
size_t RunBatch(Database* db, double* seconds) {
  auto exec = BuildTree(db);
  auto start = std::chrono::steady_clock::now();
  if (!exec->Init().ok()) std::exit(1);
  size_t rows = 0;
  TupleBatch batch;
  for (;;) {
    auto more = exec->NextBatch(&batch);
    if (!more.ok()) std::exit(1);
    if (batch.empty()) break;
    rows += batch.size();
  }
  *seconds = SecondsSince(start);
  return rows;
}

}  // namespace

int main() {
  auto db = BuildDb();

  // Warm both paths once (page cache, allocator), then alternate timed
  // reps and keep the fastest of each (least scheduler noise).
  double s = 0;
  size_t tuple_rows = RunTuple(db.get(), &s);
  size_t batch_rows = RunBatch(db.get(), &s);
  if (tuple_rows != batch_rows) {
    std::fprintf(stderr, "row mismatch: %zu vs %zu\n", tuple_rows,
                 batch_rows);
    return 1;
  }

  double tuple_best = 1e9;
  double batch_best = 1e9;
  for (int rep = 0; rep < kReps; rep++) {
    RunTuple(db.get(), &s);
    tuple_best = std::min(tuple_best, s);
    RunBatch(db.get(), &s);
    batch_best = std::min(batch_best, s);
  }

  double denom = static_cast<double>(tuple_rows);
  double tuple_ns = tuple_best * 1e9 / denom;
  double batch_ns = batch_best * 1e9 / denom;
  double speedup = tuple_best / batch_best;

  std::printf("--- 100k scan+join ---\n");
  std::printf("fact_rows: %zu\n", kFactRows);
  std::printf("joined_rows: %zu\n", tuple_rows);
  std::printf("tuple_ns_per_row: %.1f\n", tuple_ns);
  std::printf("batch_ns_per_row: %.1f\n", batch_ns);
  std::printf("speedup: %.2f\n", speedup);
  std::printf("batch improvement: %.1f %%\n", (speedup - 1.0) * 100.0);

  return 0;
}
