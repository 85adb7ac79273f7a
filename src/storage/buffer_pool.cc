#include "storage/buffer_pool.h"

#include <cassert>

#include "common/metrics_registry.h"

namespace sqp {

BufferPool::BufferPool(PageStore* disk, size_t capacity_pages)
    : disk_(disk), capacity_(capacity_pages) {
  assert(capacity_pages > 0);
  frames_.resize(capacity_);
  free_frames_.reserve(capacity_);
  for (size_t i = 0; i < capacity_; i++) {
    free_frames_.push_back(capacity_ - 1 - i);  // hand out 0 first
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  m_hits_ = registry.GetCounter("bufferpool.hits");
  m_misses_ = registry.GetCounter("bufferpool.misses");
  m_evictions_ = registry.GetCounter("bufferpool.evictions");
}

Result<size_t> BufferPool::GetVictimFrame() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool exhausted: all frames pinned");
  }
  size_t idx = lru_.front();
  Frame& f = frames_[idx];
  assert(f.pin_count == 0);
  if (f.dirty) {
    // Flush before detaching: on a write failure the victim stays
    // resident, dirty, and in LRU order — nothing is lost.
    SQP_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.page));
    f.dirty = false;
  }
  lru_.pop_front();
  f.in_lru = false;
  table_.erase(f.page_id);
  m_evictions_->Increment();
  return idx;
}

Result<Page*> BufferPool::FetchPage(page_id_t page_id) {
  auto it = table_.find(page_id);
  if (it != table_.end()) {
    hits_++;
    m_hits_->Increment();
    Frame& f = frames_[it->second];
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    f.pin_count++;
    return &f.page;
  }
  misses_++;
  m_misses_->Increment();
  auto victim = GetVictimFrame();
  if (!victim.ok()) return victim.status();
  size_t idx = *victim;
  Frame& f = frames_[idx];
  Status read = disk_->ReadPage(page_id, &f.page);
  if (!read.ok()) {
    // The victim was already detached; return it to the free list.
    f.page_id = kInvalidPageId;
    free_frames_.push_back(idx);
    return read;
  }
  f.page_id = page_id;
  f.pin_count = 1;
  f.dirty = false;
  table_[page_id] = idx;
  return &f.page;
}

Result<std::pair<page_id_t, Page*>> BufferPool::NewPage(
    const PageAllocOptions& options) {
  auto victim = GetVictimFrame();
  if (!victim.ok()) return victim.status();
  size_t idx = *victim;
  Frame& f = frames_[idx];
  auto allocated = disk_->AllocatePage(options);
  if (!allocated.ok()) {
    f.page_id = kInvalidPageId;
    free_frames_.push_back(idx);
    return allocated.status();
  }
  page_id_t page_id = *allocated;
  f.page.Init();
  f.page_id = page_id;
  f.pin_count = 1;
  f.dirty = true;
  table_[page_id] = idx;
  return std::make_pair(page_id, &f.page);
}

void BufferPool::UnpinPage(page_id_t page_id, bool dirty) {
  auto it = table_.find(page_id);
  assert(it != table_.end() && "unpin of non-resident page");
  Frame& f = frames_[it->second];
  assert(f.pin_count > 0 && "unpin without pin");
  f.dirty |= dirty;
  if (--f.pin_count == 0) {
    f.lru_pos = lru_.insert(lru_.end(), it->second);
    f.in_lru = true;
  }
}

Status BufferPool::FlushPage(page_id_t page_id) {
  auto it = table_.find(page_id);
  if (it == table_.end()) return Status::OK();
  Frame& f = frames_[it->second];
  if (f.dirty) {
    SQP_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.page));
    f.dirty = false;
  }
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (auto& [page_id, idx] : table_) {
    Frame& f = frames_[idx];
    if (f.dirty) {
      SQP_RETURN_IF_ERROR(disk_->WritePage(f.page_id, f.page));
      f.dirty = false;
    }
  }
  // Flush barrier: everything written above (and any earlier per-page
  // flushes) becomes durable, not merely cached.
  return disk_->Sync();
}

Status BufferPool::Reset() {
  SQP_RETURN_IF_ERROR(FlushAll());
  for (auto& [page_id, idx] : table_) {
    Frame& f = frames_[idx];
    assert(f.pin_count == 0 && "Reset with pinned pages");
    f.page_id = kInvalidPageId;
  }
  table_.clear();
  lru_.clear();
  free_frames_.clear();
  for (size_t i = 0; i < capacity_; i++) {
    frames_[i].in_lru = false;
    free_frames_.push_back(capacity_ - 1 - i);
  }
  hits_ = 0;
  misses_ = 0;
  return Status::OK();
}

void BufferPool::EvictPage(page_id_t page_id) {
  auto it = table_.find(page_id);
  if (it == table_.end()) return;
  Frame& f = frames_[it->second];
  assert(f.pin_count == 0 && "evicting pinned page");
  // Dropped pages do not need their contents preserved; skip the flush.
  f.dirty = false;
  if (f.in_lru) {
    lru_.erase(f.lru_pos);
    f.in_lru = false;
  }
  free_frames_.push_back(it->second);
  f.page_id = kInvalidPageId;
  table_.erase(it);
}

}  // namespace sqp
