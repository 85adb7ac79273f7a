// Catalog and schema metadata.
#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/schema.h"
#include "storage/disk_manager.h"

namespace sqp {
namespace {

TEST(SchemaTest, ColumnLookup) {
  Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(schema.size(), 2u);
  EXPECT_EQ(*schema.ColumnIndex("b"), 1u);
  EXPECT_FALSE(schema.ColumnIndex("c").has_value());
  EXPECT_TRUE(schema.HasColumn("a"));
}

TEST(SchemaTest, ConcatPreservesOrder) {
  Schema a({{"x", TypeId::kInt64}});
  Schema b({{"y", TypeId::kDouble}, {"z", TypeId::kString}});
  Schema c = a.Concat(b);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.column(0).name, "x");
  EXPECT_EQ(c.column(2).name, "z");
}

TEST(SchemaTest, WidthAndToString) {
  Schema schema({{"a", TypeId::kInt64}, {"s", TypeId::kString}});
  EXPECT_GT(schema.EstimatedTupleWidth(), 16u);
  std::string text = schema.ToString();
  EXPECT_NE(text.find("a INT"), std::string::npos);
  EXPECT_NE(text.find("s STRING"), std::string::npos);
}

class CatalogTest : public ::testing::Test {
 protected:
  CatalogTest()
      : meter_(), disk_(&meter_), pool_(&disk_, 64), catalog_(&disk_, &pool_) {}

  void FillTable(const std::string& name, int rows) {
    TableInfo* info = catalog_.GetTable(name);
    ASSERT_NE(info, nullptr);
    TableStats stats;
    stats.Begin(info->schema);
    for (int i = 0; i < rows; i++) {
      Tuple t{Value(static_cast<int64_t>(i)),
              Value(static_cast<int64_t>(i % 7))};
      stats.Observe(t);
      ASSERT_TRUE(info->heap->Append(t).ok());
    }
    stats.Finish(info->heap->page_count());
    info->stats = std::move(stats);
  }

  CostMeter meter_;
  DiskManager disk_;
  BufferPool pool_;
  Catalog catalog_;
  Schema schema_{{{"id", TypeId::kInt64}, {"v", TypeId::kInt64}}};
};

TEST_F(CatalogTest, CreateGetDrop) {
  ASSERT_TRUE(catalog_.CreateTable("t", schema_).ok());
  EXPECT_NE(catalog_.GetTable("t"), nullptr);
  EXPECT_FALSE(catalog_.CreateTable("t", schema_).ok());
  EXPECT_TRUE(catalog_.DropTable("t").ok());
  EXPECT_EQ(catalog_.GetTable("t"), nullptr);
  EXPECT_FALSE(catalog_.DropTable("t").ok());
}

TEST_F(CatalogTest, IndexBuildAndLookup) {
  ASSERT_TRUE(catalog_.CreateTable("t", schema_).ok());
  FillTable("t", 500);
  auto index = catalog_.CreateIndex("t", "v");
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->size(), 500u);
  EXPECT_TRUE((*index)->CheckInvariants());
  EXPECT_TRUE(catalog_.HasIndex("t", "v"));
  EXPECT_FALSE(catalog_.HasIndex("t", "id"));

  // Index entries point at real heap tuples.
  auto rids = (*index)->RangeScan(KeyRange::Exactly(Value(int64_t{3})));
  EXPECT_EQ(rids.size(), 71u);  // i % 7 == 3 for i in [0, 500)
  TableInfo* info = catalog_.GetTable("t");
  for (const Rid& rid : rids) {
    auto row = info->heap->Fetch(rid);
    ASSERT_TRUE(row.ok());
    EXPECT_EQ((*row)[1].AsInt64(), 3);
  }

  EXPECT_FALSE(catalog_.CreateIndex("t", "v").ok());       // duplicate
  EXPECT_FALSE(catalog_.CreateIndex("t", "nope").ok());    // no column
  EXPECT_FALSE(catalog_.CreateIndex("missing", "v").ok());  // no table
}

TEST_F(CatalogTest, HistogramBuildAndDrop) {
  ASSERT_TRUE(catalog_.CreateTable("t", schema_).ok());
  FillTable("t", 700);
  ASSERT_TRUE(catalog_.CreateHistogram("t", "v").ok());
  const Histogram* hist = catalog_.GetHistogram("t", "v");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->row_count(), 700u);
  EXPECT_EQ(hist->distinct_count(), 7u);
  EXPECT_TRUE(catalog_.DropHistogram("t", "v").ok());
  EXPECT_EQ(catalog_.GetHistogram("t", "v"), nullptr);
  EXPECT_FALSE(catalog_.DropHistogram("t", "v").ok());
}

// Index and histogram builds decode only their key column. Built on
// columns behind a variable-length string, they must equal a tree and a
// histogram built from fully deserialized rows.
TEST_F(CatalogTest, OneColumnBuildsMatchFullRowBuilds) {
  Schema schema({{"id", TypeId::kInt64},
                 {"name", TypeId::kString},
                 {"k", TypeId::kInt64},
                 {"price", TypeId::kDouble},
                 {"tag", TypeId::kString}});
  ASSERT_TRUE(catalog_.CreateTable("t", schema).ok());
  TableInfo* info = catalog_.GetTable("t");
  for (int i = 0; i < 3000; i++) {
    Tuple t{Value(int64_t{i}), Value(std::string(i % 31, 'n')),
            Value(int64_t{(i * 7919) % 113}), Value((i % 17) * 0.5 - 4.0),
            Value("tag" + std::string(i % 19, 't'))};
    ASSERT_TRUE(info->heap->Append(t).ok());
  }
  ASSERT_GT(info->heap->page_count(), 3u);

  for (const char* column : {"k", "price", "tag"}) {
    SCOPED_TRACE(column);
    const size_t col = *schema.ColumnIndex(column);
    BPlusTreeBuilder want_builder;
    std::vector<Value> want_values;
    for (page_id_t page_id : info->heap->pages()) {
      auto page = pool_.FetchPage(page_id);
      ASSERT_TRUE(page.ok());
      PageGuard guard(&pool_, page_id, *page);
      for (uint16_t slot = 0; slot < guard.get()->slot_count(); slot++) {
        uint16_t len = 0;
        const uint8_t* rec = guard.get()->Record(slot, &len);
        Tuple row = DeserializeTuple(rec, len);
        want_builder.Insert(row[col], Rid{page_id, slot});
        want_values.push_back(row[col]);
      }
    }
    const Histogram want_hist = Histogram::Build(want_values);
    const std::unique_ptr<BPlusTree> want_tree = want_builder.Finish();

    auto tree = catalog_.CreateIndex("t", column);
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ((*tree)->size(), want_tree->size());
    EXPECT_EQ((*tree)->height(), want_tree->height());
    EXPECT_EQ((*tree)->leaf_count(), want_tree->leaf_count());
    std::vector<KeyRange> ranges = {KeyRange::All(),
                                    KeyRange::Exactly(want_values[5]),
                                    KeyRange::Exactly(want_values[1234])};
    KeyRange span;
    span.lo = std::min(want_values[10], want_values[20]);
    span.hi = std::max(want_values[10], want_values[20]);
    span.hi_inclusive = false;
    ranges.push_back(span);
    for (const KeyRange& range : ranges) {
      IndexScanStats got_stats, want_stats;
      EXPECT_EQ((*tree)->RangeScan(range, &got_stats),
                want_tree->RangeScan(range, &want_stats));
      EXPECT_EQ(got_stats.leaves_touched, want_stats.leaves_touched);
      EXPECT_EQ(got_stats.height, want_stats.height);
    }

    ASSERT_TRUE(catalog_.CreateHistogram("t", column).ok());
    const Histogram* hist = catalog_.GetHistogram("t", column);
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->ToString(), want_hist.ToString());
    EXPECT_EQ(hist->bounds(), want_hist.bounds());
    EXPECT_EQ(hist->counts(), want_hist.counts());
    ASSERT_EQ(hist->mcvs().size(), want_hist.mcvs().size());
    for (size_t i = 0; i < want_hist.mcvs().size(); i++) {
      EXPECT_EQ(hist->mcvs()[i].value, want_hist.mcvs()[i].value);
      EXPECT_EQ(hist->mcvs()[i].fraction, want_hist.mcvs()[i].fraction);
    }
  }
}

TEST_F(CatalogTest, DropTableCascadesToIndexesAndHistograms) {
  ASSERT_TRUE(catalog_.CreateTable("t", schema_).ok());
  FillTable("t", 100);
  ASSERT_TRUE(catalog_.CreateIndex("t", "v").ok());
  ASSERT_TRUE(catalog_.CreateHistogram("t", "v").ok());
  uint64_t live_before = disk_.live_pages();
  EXPECT_GT(live_before, 0u);
  ASSERT_TRUE(catalog_.DropTable("t").ok());
  EXPECT_EQ(disk_.live_pages(), 0u);
  EXPECT_FALSE(catalog_.HasIndex("t", "v"));
  EXPECT_EQ(catalog_.GetHistogram("t", "v"), nullptr);
}

TEST_F(CatalogTest, AnalyzeRecomputesStats) {
  ASSERT_TRUE(catalog_.CreateTable("t", schema_).ok());
  TableInfo* info = catalog_.GetTable("t");
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        info->heap->Append(Tuple{Value(int64_t{i}), Value(int64_t{1})}).ok());
  }
  EXPECT_EQ(info->stats.row_count(), 0u);  // not yet analyzed
  ASSERT_TRUE(catalog_.AnalyzeTable("t").ok());
  EXPECT_EQ(info->stats.row_count(), 50u);
  EXPECT_EQ(info->stats.column(0).max->AsInt64(), 49);
  EXPECT_FALSE(catalog_.AnalyzeTable("missing").ok());
}

TEST_F(CatalogTest, MaterializedTableNames) {
  ASSERT_TRUE(catalog_.CreateTable("base", schema_).ok());
  ASSERT_TRUE(catalog_.CreateTable("mv", schema_, true).ok());
  auto names = catalog_.MaterializedTableNames();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "mv");
  EXPECT_EQ(catalog_.TableNames().size(), 2u);
}

}  // namespace
}  // namespace sqp
