// LRU buffer pool with pin/unpin semantics.
//
// The pool size (e.g. 32 MB / 96 MB as in the paper's experiments) bounds
// how much of the dataset stays memory-resident; misses charge simulated
// I/O through the DiskManager. Replays start cold by calling Reset().
#pragma once

#include <list>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace sqp {

class Counter;

class BufferPool {
 public:
  /// `capacity_pages` frames of kPageSize each (32 MB -> 4096 frames).
  /// `disk` may be a single DiskManager or a ShardedStorageRouter; the
  /// pool is oblivious to where a page physically lives.
  BufferPool(PageStore* disk, size_t capacity_pages);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pin `page_id` into a frame (reading it from disk on a miss) and
  /// return the frame's Page. Fails only when every frame is pinned.
  Result<Page*> FetchPage(page_id_t page_id);

  /// Allocate a brand new page, pinned and marked dirty. `options`
  /// pins the page's placement (shard node, replication) on a sharded
  /// store; the default lets the store choose.
  Result<std::pair<page_id_t, Page*>> NewPage(
      const PageAllocOptions& options = {});

  /// Drop a pin. `dirty` records that the caller modified the frame.
  void UnpinPage(page_id_t page_id, bool dirty);

  /// Flush one page / all dirty pages to disk. A write failure leaves
  /// the frame resident and dirty (no data loss; retry may succeed).
  /// FlushPage lands in the disk's volatile write cache; FlushAll is a
  /// barrier — it ends with a DiskManager::Sync(), making every flushed
  /// page durable.
  Status FlushPage(page_id_t page_id);
  Status FlushAll();

  /// Flush everything and empty every frame: the next replay starts with
  /// a cold cache, matching the paper's per-replay methodology (§4.2).
  /// Fails (with the pool only partially emptied) when a flush fails.
  Status Reset();

  /// Evict (without flushing loss — flushes first) any frames caching
  /// pages of a dropped table so DeallocatePage is safe.
  void EvictPage(page_id_t page_id);

  size_t capacity_pages() const { return capacity_; }
  size_t resident_pages() const { return table_.size(); }
  uint64_t hit_count() const { return hits_; }
  uint64_t miss_count() const { return misses_; }

 private:
  struct Frame {
    Page page;
    page_id_t page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    // Position in lru_ when pin_count == 0.
    std::list<size_t>::iterator lru_pos;
    bool in_lru = false;
  };

  /// Find a frame for a new resident page: a free frame or an evicted
  /// LRU victim. Returns frame index or error when everything is pinned.
  Result<size_t> GetVictimFrame();

  PageStore* disk_;
  size_t capacity_;
  std::vector<Frame> frames_;
  std::vector<size_t> free_frames_;
  std::list<size_t> lru_;  // front = least recently used
  std::unordered_map<page_id_t, size_t> table_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  // Registry handles (DESIGN.md §9), looked up once at construction.
  // Unlike hits_/misses_ these are cumulative: Reset() (cold start)
  // zeroes the per-replay tallies but not the registry counters.
  Counter* m_hits_;
  Counter* m_misses_;
  Counter* m_evictions_;
};

/// RAII pin guard.
class PageGuard {
 public:
  PageGuard() = default;
  PageGuard(BufferPool* pool, page_id_t page_id, Page* page)
      : pool_(pool), page_id_(page_id), page_(page) {}
  PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
  PageGuard& operator=(PageGuard&& other) noexcept {
    Release();
    pool_ = other.pool_;
    page_id_ = other.page_id_;
    page_ = other.page_;
    dirty_ = other.dirty_;
    other.pool_ = nullptr;
    other.page_ = nullptr;
    return *this;
  }
  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  ~PageGuard() { Release(); }

  Page* get() { return page_; }
  const Page* get() const { return page_; }
  page_id_t page_id() const { return page_id_; }
  void MarkDirty() { dirty_ = true; }

  void Release() {
    if (pool_ != nullptr && page_ != nullptr) {
      pool_->UnpinPage(page_id_, dirty_);
    }
    pool_ = nullptr;
    page_ = nullptr;
  }

 private:
  BufferPool* pool_ = nullptr;
  page_id_t page_id_ = kInvalidPageId;
  Page* page_ = nullptr;
  bool dirty_ = false;
};

}  // namespace sqp
