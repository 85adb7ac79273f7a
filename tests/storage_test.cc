// Storage layer: slotted pages, tuple serialization, simulated disk,
// buffer pool (LRU + pinning + cost accounting), heap files.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/checksum.h"
#include "common/rng.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"
#include "storage/page.h"
#include "storage/tuple.h"

namespace sqp {
namespace {

// ----------------------------------------------------------------- Page

TEST(PageTest, InsertAndReadBack) {
  Page page;
  uint8_t rec1[] = {1, 2, 3};
  uint8_t rec2[] = {9, 8};
  int s1 = page.Insert(rec1, 3);
  int s2 = page.Insert(rec2, 2);
  ASSERT_EQ(s1, 0);
  ASSERT_EQ(s2, 1);
  uint16_t len = 0;
  const uint8_t* r = page.Record(0, &len);
  ASSERT_EQ(len, 3);
  EXPECT_EQ(r[2], 3);
  r = page.Record(1, &len);
  ASSERT_EQ(len, 2);
  EXPECT_EQ(r[0], 9);
}

TEST(PageTest, FillsUntilFull) {
  Page page;
  uint8_t rec[100] = {0};
  int inserted = 0;
  while (page.Insert(rec, 100) >= 0) inserted++;
  // 8192 bytes, 4 header, 4 per slot + 100 per record => ~78 records.
  EXPECT_GT(inserted, 70);
  EXPECT_LT(inserted, 82);
  EXPECT_EQ(page.slot_count(), inserted);
}

TEST(PageTest, InitResets) {
  Page page;
  uint8_t rec[8] = {1};
  page.Insert(rec, 8);
  page.Init();
  EXPECT_EQ(page.slot_count(), 0);
  EXPECT_EQ(page.free_offset(), kPageSize);
}

// ---------------------------------------------------------------- Tuple

TEST(TupleTest, RoundTripAllTypes) {
  Tuple t{Value(int64_t{-5}), Value(3.25), Value("hello world"),
          Value(int64_t{1} << 60)};
  std::vector<uint8_t> buf;
  SerializeTuple(t, &buf);
  EXPECT_EQ(buf.size(), SerializedTupleSize(t));
  Tuple back = DeserializeTuple(buf.data(), buf.size());
  ASSERT_EQ(back.size(), t.size());
  for (size_t i = 0; i < t.size(); i++) EXPECT_EQ(back[i], t[i]);
}

TEST(TupleTest, EmptyStringAndEmptyTuple) {
  Tuple t{Value("")};
  std::vector<uint8_t> buf;
  SerializeTuple(t, &buf);
  Tuple back = DeserializeTuple(buf.data(), buf.size());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].AsString(), "");

  Tuple empty;
  buf.clear();
  SerializeTuple(empty, &buf);
  EXPECT_EQ(DeserializeTuple(buf.data(), buf.size()).size(), 0u);
}

class TupleRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(TupleRoundTrip, RandomTuples) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 50; iter++) {
    Tuple t;
    size_t n = rng.NextRange(8);
    for (size_t i = 0; i < n; i++) {
      switch (rng.NextRange(3)) {
        case 0:
          t.emplace_back(static_cast<int64_t>(rng.NextUint64()));
          break;
        case 1:
          t.emplace_back(rng.NextDouble(-1e9, 1e9));
          break;
        default: {
          std::string s(rng.NextRange(40), 'x');
          for (auto& c : s) c = 'a' + rng.NextRange(26);
          t.emplace_back(std::move(s));
        }
      }
    }
    std::vector<uint8_t> buf;
    SerializeTuple(t, &buf);
    Tuple back = DeserializeTuple(buf.data(), buf.size());
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 0; i < t.size(); i++) ASSERT_EQ(back[i], t[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TupleRoundTrip, ::testing::Values(1, 2, 3));

// One recycled tuple decodes rows whose string columns alternate
// between inline (<= 14 bytes) and heap lengths, so every in-place
// SetString transition runs: inline->heap, heap->inline, heap->heap
// (shorter, longer), plus numeric<->string across the same slot.
TEST(TupleTest, DeserializeIntoRecycledTupleAlternatingStringLengths) {
  const size_t lengths[] = {0, 15, 3, 300, 14, 40, 299, 16, 1, 300};
  Tuple slot;
  for (size_t r = 0; r < 40; r++) {
    size_t a = lengths[r % 10], b = lengths[(r * 7 + 3) % 10];
    std::string s1(a, static_cast<char>('a' + r % 26));
    std::string s2(b, '\0');
    for (size_t i = 0; i < b; i++) s2[i] = static_cast<char>(i * 31 + r);
    Tuple t{Value(s1), Value(static_cast<int64_t>(r)), Value(s2)};
    if (r % 3 == 0) t[1] = Value(std::string(r, 'n'));  // int -> string
    if (r % 4 == 1) t[0] = Value(0.5 * r);               // string -> double
    std::vector<uint8_t> buf;
    SerializeTuple(t, &buf);
    DeserializeTupleInto(buf.data(), buf.size(), &slot);
    ASSERT_EQ(slot.size(), t.size());
    for (size_t i = 0; i < t.size(); i++) {
      ASSERT_EQ(slot[i].type(), t[i].type()) << "row " << r << " col " << i;
      ASSERT_EQ(slot[i], t[i]) << "row " << r << " col " << i;
    }
    EXPECT_EQ(slot[2].AsString(), s2);
  }
}

// ------------------------------------------------------------- Checksum

// Byte-at-a-time CRC-32 (reflected 0xEDB88320), independent of the
// engine's sliced implementation.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; i++) {
    crc ^= data[i];
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(ChecksumTest, KnownAnswers) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  // The constant AllocatePage stamps on fresh pages is the CRC of an
  // empty page image.
  Page empty;
  EXPECT_EQ(DiskManager::EmptyPageChecksum(), Crc32(empty.raw(), kPageSize));
  EXPECT_EQ(DiskManager::EmptyPageChecksum(),
            ReferenceCrc32(empty.raw(), kPageSize));
}

TEST(ChecksumTest, MatchesByteWiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(13);
  std::vector<uint8_t> buf(kPageSize + 16);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.NextUint64());
  for (size_t offset = 0; offset < 8; offset++) {
    // Every word-count/tail split; then a full page.
    for (size_t len = 0; len <= 4103; len++) {
      ASSERT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
    EXPECT_EQ(Crc32(buf.data() + offset, kPageSize),
              ReferenceCrc32(buf.data() + offset, kPageSize));
  }
}

// ----------------------------------------------------------- DiskManager

TEST(DiskManagerTest, AllocateReadWriteCharges) {
  CostMeter meter;
  DiskManager disk(&meter);
  page_id_t id = *disk.AllocatePage();
  Page page;
  page.Insert(reinterpret_cast<const uint8_t*>("ab"), 2);
  ASSERT_TRUE(disk.WritePage(id, page).ok());
  Page back;
  ASSERT_TRUE(disk.ReadPage(id, &back).ok());
  EXPECT_EQ(back.slot_count(), 1);
  EXPECT_EQ(meter.blocks_read(), 1u);
  EXPECT_EQ(meter.blocks_written(), 1u);
  EXPECT_GT(meter.ElapsedSeconds(), 0);
}

TEST(DiskManagerTest, DeallocateTracksLivePages) {
  CostMeter meter;
  DiskManager disk(&meter);
  page_id_t a = *disk.AllocatePage();
  (void)disk.AllocatePage();
  EXPECT_EQ(disk.live_pages(), 2u);
  disk.DeallocatePage(a);
  EXPECT_EQ(disk.live_pages(), 1u);
  disk.DeallocatePage(a);  // idempotent
  EXPECT_EQ(disk.live_pages(), 1u);
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPoolTest, HitAvoidsDiskRead) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 4);
  auto page = pool.NewPage();
  ASSERT_TRUE(page.ok());
  pool.UnpinPage(page->first, true);
  uint64_t reads_before = meter.blocks_read();
  ASSERT_TRUE(pool.FetchPage(page->first).ok());
  pool.UnpinPage(page->first, false);
  EXPECT_EQ(meter.blocks_read(), reads_before);
  EXPECT_EQ(pool.hit_count(), 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 2);
  std::vector<page_id_t> ids;
  for (int i = 0; i < 3; i++) {
    auto page = pool.NewPage();
    ASSERT_TRUE(page.ok());
    ids.push_back(page->first);
    pool.UnpinPage(page->first, true);
  }
  // Pool holds {1, 2}; page 0 was evicted (LRU).
  EXPECT_EQ(pool.resident_pages(), 2u);
  uint64_t misses = pool.miss_count();
  ASSERT_TRUE(pool.FetchPage(ids[0]).ok());
  pool.UnpinPage(ids[0], false);
  EXPECT_EQ(pool.miss_count(), misses + 1);
}

TEST(BufferPoolTest, PinnedPagesAreNotEvicted) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 2);
  auto a = pool.NewPage();
  auto b = pool.NewPage();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Both pinned: a third page cannot be placed.
  auto c = pool.NewPage();
  EXPECT_FALSE(c.ok());
  pool.UnpinPage(a->first, false);
  auto d = pool.NewPage();
  EXPECT_TRUE(d.ok());  // evicted a
}

TEST(BufferPoolTest, DirtyEvictionPersists) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 1);
  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  a->second->Insert(reinterpret_cast<const uint8_t*>("zz"), 2);
  pool.UnpinPage(a->first, true);
  // Force eviction.
  auto b = pool.NewPage();
  ASSERT_TRUE(b.ok());
  pool.UnpinPage(b->first, false);
  // Re-fetch a: contents must have survived the round trip.
  auto back = pool.FetchPage(a->first);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)->slot_count(), 1);
  pool.UnpinPage(a->first, false);
}

TEST(BufferPoolTest, ResetEmptiesPoolAndFlushes) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 4);
  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  a->second->Insert(reinterpret_cast<const uint8_t*>("qq"), 2);
  pool.UnpinPage(a->first, true);
  pool.Reset();
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_EQ(pool.hit_count(), 0u);
  auto back = pool.FetchPage(a->first);
  ASSERT_TRUE(back.ok());  // miss, read from disk
  EXPECT_EQ((*back)->slot_count(), 1);
  pool.UnpinPage(a->first, false);
  EXPECT_EQ(pool.miss_count(), 1u);
}

TEST(BufferPoolTest, PageGuardUnpinsOnDestruction) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 1);
  auto a = pool.NewPage();
  ASSERT_TRUE(a.ok());
  pool.UnpinPage(a->first, true);
  {
    auto p = pool.FetchPage(a->first);
    ASSERT_TRUE(p.ok());
    PageGuard guard(&pool, a->first, *p);
    // Pinned: a second page cannot be placed.
    EXPECT_FALSE(pool.NewPage().ok());
  }
  // Guard released the pin.
  EXPECT_TRUE(pool.NewPage().ok());
}

// Randomized consistency: pool-mediated contents always match a
// reference map, across evictions.
TEST(BufferPoolTest, RandomizedConsistencyAgainstReference) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 8);
  Rng rng(99);
  std::map<page_id_t, uint8_t> reference;
  std::vector<page_id_t> ids;
  for (int op = 0; op < 2000; op++) {
    if (ids.empty() || rng.NextBool(0.1)) {
      auto page = pool.NewPage();
      ASSERT_TRUE(page.ok());
      uint8_t tag = static_cast<uint8_t>(rng.NextRange(256));
      page->second->Init();
      page->second->Insert(&tag, 1);
      pool.UnpinPage(page->first, true);
      reference[page->first] = tag;
      ids.push_back(page->first);
      continue;
    }
    page_id_t id = ids[rng.NextRange(ids.size())];
    auto page = pool.FetchPage(id);
    ASSERT_TRUE(page.ok());
    uint16_t len;
    const uint8_t* rec = (*page)->Record(0, &len);
    ASSERT_EQ(len, 1);
    ASSERT_EQ(*rec, reference[id]) << "page " << id;
    if (rng.NextBool(0.3)) {
      uint8_t tag = static_cast<uint8_t>(rng.NextRange(256));
      (*page)->Init();
      (*page)->Insert(&tag, 1);
      reference[id] = tag;
      pool.UnpinPage(id, true);
    } else {
      pool.UnpinPage(id, false);
    }
  }
}

// -------------------------------------------------------------- HeapFile

TEST(HeapFileTest, AppendScanRoundTrip) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 16);
  HeapFile heap(&pool);
  for (int i = 0; i < 1000; i++) {
    Tuple t{Value(static_cast<int64_t>(i)), Value(i * 0.5)};
    ASSERT_TRUE(heap.Append(t).ok());
  }
  EXPECT_EQ(heap.tuple_count(), 1000u);
  EXPECT_GT(heap.page_count(), 1u);

  auto iter = heap.Scan();
  std::vector<Tuple> rows;
  size_t pages = 0;
  for (;;) {
    auto more = iter.NextPage(&rows);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
    pages++;
  }
  EXPECT_EQ(pages, heap.page_count());
  ASSERT_EQ(rows.size(), 1000u);
  for (size_t i = 0; i < rows.size(); i++) {
    EXPECT_EQ(rows[i][0].AsInt64(), static_cast<int64_t>(i));
  }
}

TEST(HeapFileTest, FetchByRid) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 16);
  HeapFile heap(&pool);
  std::vector<Rid> rids;
  for (int i = 0; i < 500; i++) {
    auto rid = heap.Append(Tuple{Value(static_cast<int64_t>(i))});
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  auto row = heap.Fetch(rids[321]);
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].AsInt64(), 321);
}

TEST(HeapFileTest, DropReleasesPages) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 16);
  HeapFile heap(&pool);
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(heap.Append(Tuple{Value(static_cast<int64_t>(i))}).ok());
  }
  uint64_t live = disk.live_pages();
  EXPECT_GT(live, 0u);
  heap.Drop(&disk);
  EXPECT_EQ(disk.live_pages(), 0u);
  EXPECT_EQ(heap.tuple_count(), 0u);
}

TEST(HeapFileTest, ScanOfEmptyFile) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 4);
  HeapFile heap(&pool);
  auto iter = heap.Scan();
  std::vector<Tuple> rows;
  auto more = iter.NextPage(&rows);
  ASSERT_TRUE(more.ok());
  EXPECT_FALSE(*more);
  EXPECT_TRUE(rows.empty());
}

TEST(HeapFileTest, ScanChargesIoOnColdPool) {
  CostMeter meter;
  DiskManager disk(&meter);
  BufferPool pool(&disk, 64);
  HeapFile heap(&pool);
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(
        heap.Append(Tuple{Value(static_cast<int64_t>(i)), Value(0.0)}).ok());
  }
  pool.FlushAll();
  pool.Reset();
  uint64_t reads_before = meter.blocks_read();
  auto iter = heap.Scan();
  std::vector<Tuple> rows;
  for (;;) {
    auto more = iter.NextPage(&rows);
    ASSERT_TRUE(more.ok());
    if (!*more) break;
  }
  EXPECT_EQ(rows.size(), 5000u);
  EXPECT_EQ(meter.blocks_read() - reads_before, heap.page_count());
}

}  // namespace
}  // namespace sqp
