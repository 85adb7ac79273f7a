// Shared fixtures and builders for the sqp test suite.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "db/database.h"
#include "optimizer/query_graph.h"

namespace sqp {
namespace testutil {

/// Build a small two-table database:
///   r(r_id INT, r_a INT, r_b DOUBLE, r_s STRING)   -- `rows_r` rows
///   s(s_id INT, s_rid INT, s_c INT)                -- `rows_s` rows,
///                                                     s_rid FK -> r_id
/// r_a is uniform in [0, 100); s_c uniform in [0, 50); r_s cycles over
/// three strings. Deterministic in `seed`.
inline Database* MakeTwoTableDb(size_t rows_r = 2000, size_t rows_s = 6000,
                                uint64_t seed = 7,
                                size_t pool_pages = 256) {
  DatabaseOptions options;
  options.buffer_pool_pages = pool_pages;
  auto* db = new Database(options);

  Schema r_schema({{"r_id", TypeId::kInt64},
                   {"r_a", TypeId::kInt64},
                   {"r_b", TypeId::kDouble},
                   {"r_s", TypeId::kString}});
  Schema s_schema({{"s_id", TypeId::kInt64},
                   {"s_rid", TypeId::kInt64},
                   {"s_c", TypeId::kInt64}});
  if (!db->CreateTable("r", r_schema).ok()) return db;
  if (!db->CreateTable("s", s_schema).ok()) return db;

  Rng rng(seed);
  const char* strs[] = {"alpha", "beta", "gamma"};
  std::vector<Tuple> r_rows;
  for (size_t i = 0; i < rows_r; i++) {
    r_rows.push_back(Tuple{Value(static_cast<int64_t>(i)),
                           Value(rng.NextInt(0, 99)),
                           Value(rng.NextDouble(0, 1000)),
                           Value(std::string(strs[i % 3]))});
  }
  (void)db->BulkLoad("r", r_rows);
  std::vector<Tuple> s_rows;
  for (size_t i = 0; i < rows_s; i++) {
    s_rows.push_back(Tuple{
        Value(static_cast<int64_t>(i)),
        Value(rng.NextInt(0, static_cast<int64_t>(rows_r) - 1)),
        Value(rng.NextInt(0, 49))});
  }
  (void)db->BulkLoad("s", s_rows);
  return db;
}

inline SelectionPred Sel(const std::string& table, const std::string& column,
                         CompareOp op, Value v) {
  SelectionPred s;
  s.table = table;
  s.column = column;
  s.op = op;
  s.constant = std::move(v);
  return s;
}

inline JoinPred Join(const std::string& lt, const std::string& lc,
                     const std::string& rt, const std::string& rc) {
  JoinPred j;
  j.left_table = lt;
  j.left_column = lc;
  j.right_table = rt;
  j.right_column = rc;
  j.Canonicalize();
  return j;
}

/// The canonical r-s equijoin of MakeTwoTableDb.
inline JoinPred RsJoin() { return Join("r", "r_id", "s", "s_rid"); }

}  // namespace testutil
}  // namespace sqp
