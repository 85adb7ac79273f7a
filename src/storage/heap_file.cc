#include "storage/heap_file.h"

#include <cassert>

namespace sqp {

namespace {
/// FNV-1a over a byte string: stable across builds and platforms.
uint64_t StableHash(const std::string& bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

void HeapFile::SetPlacement(HeapPlacement placement) {
  assert(pages_.empty() && "placement must be set before the first append");
  placement_ = placement;
  if (placement_.shards > 1) {
    open_pages_.assign(placement_.shards, kInvalidPageId);
  }
}

size_t HeapFile::ShardOf(const Tuple& tuple) const {
  if (tuple.empty()) return 0;
  return StableHash(tuple[0].ToString()) % placement_.shards;
}

Result<Rid> HeapFile::Append(const Tuple& tuple) {
  scratch_.clear();
  SerializeTuple(tuple, &scratch_);
  assert(scratch_.size() < kPageSize - 64 && "tuple larger than a page");

  if (placement_.shards > 1) {
    // Hash-sharded: each shard keeps its own open page, pinned to its
    // home node.
    size_t shard = ShardOf(tuple);
    page_id_t open = open_pages_[shard];
    if (open != kInvalidPageId) {
      auto page = pool_->FetchPage(open);
      if (!page.ok()) return page.status();
      int slot = (*page)->Insert(scratch_.data(),
                                 static_cast<uint16_t>(scratch_.size()));
      pool_->UnpinPage(open, slot >= 0);
      if (slot >= 0) {
        tuple_count_++;
        return Rid{open, static_cast<uint16_t>(slot)};
      }
    }
    PageAllocOptions options;
    // Address the store by shard slot, not node: the slot's home node
    // moves with membership changes (join rebalancing, decommission)
    // and the store resolves the current owner.
    options.shard_hint = static_cast<uint32_t>(shard);
    options.replicated = placement_.replicated;
    auto fresh = pool_->NewPage(options);
    if (!fresh.ok()) return fresh.status();
    auto [page_id, page] = *fresh;
    int slot =
        page->Insert(scratch_.data(), static_cast<uint16_t>(scratch_.size()));
    pool_->UnpinPage(page_id, true);
    if (slot < 0) {
      return Status::Internal("tuple does not fit in an empty page");
    }
    pages_.push_back(page_id);
    open_pages_[shard] = page_id;
    tuple_count_++;
    return Rid{page_id, static_cast<uint16_t>(slot)};
  }

  // Single shard: try the last page first; allocate a new one when it
  // is full.
  if (!pages_.empty()) {
    page_id_t last = pages_.back();
    auto page = pool_->FetchPage(last);
    if (!page.ok()) return page.status();
    int slot = (*page)->Insert(scratch_.data(),
                               static_cast<uint16_t>(scratch_.size()));
    pool_->UnpinPage(last, slot >= 0);
    if (slot >= 0) {
      tuple_count_++;
      return Rid{last, static_cast<uint16_t>(slot)};
    }
  }
  PageAllocOptions options;
  options.replicated = placement_.replicated;
  if (!pages_.empty()) {
    // Keep an unsharded heap whole on the node of its first page, so a
    // matview either fully survives a node loss or is fully gone.
    options.node_hint = PageNode(pages_.front());
  } else {
    // First page: honour an explicit home (kAnyNode = the default
    // round-robin, which is also the single-node path).
    options.node_hint = placement_.home_node;
  }
  auto fresh = pool_->NewPage(options);
  if (!fresh.ok()) return fresh.status();
  auto [page_id, page] = *fresh;
  int slot =
      page->Insert(scratch_.data(), static_cast<uint16_t>(scratch_.size()));
  pool_->UnpinPage(page_id, true);
  if (slot < 0) {
    return Status::Internal("tuple does not fit in an empty page");
  }
  pages_.push_back(page_id);
  tuple_count_++;
  return Rid{page_id, static_cast<uint16_t>(slot)};
}

Result<Tuple> HeapFile::Fetch(const Rid& rid) const {
  auto page = pool_->FetchPage(rid.page_id);
  if (!page.ok()) return page.status();
  uint16_t len = 0;
  const uint8_t* rec = (*page)->Record(rid.slot, &len);
  Tuple tuple = DeserializeTuple(rec, len);
  pool_->UnpinPage(rid.page_id, false);
  return tuple;
}

void HeapFile::Drop(PageStore* disk) {
  for (page_id_t page_id : pages_) {
    pool_->EvictPage(page_id);
    // Best-effort: a page already gone (double drop) is not an error
    // worth failing a drop over.
    (void)disk->DeallocatePage(page_id);
  }
  pages_.clear();
  if (!open_pages_.empty()) {
    open_pages_.assign(open_pages_.size(), kInvalidPageId);
  }
  tuple_count_ = 0;
}

void HeapFile::Restore(std::vector<page_id_t> pages, uint64_t tuple_count) {
  pages_ = std::move(pages);
  tuple_count_ = tuple_count;
  // Sharded heaps reopen every shard: page fill is not tracked per
  // shard across recovery, so post-restore appends start fresh pages.
  if (!open_pages_.empty()) {
    open_pages_.assign(open_pages_.size(), kInvalidPageId);
  }
}

Result<bool> HeapFile::Iterator::NextPage(std::vector<Tuple>* out) {
  if (page_index_ >= file_->pages_.size()) return false;
  page_id_t page_id = file_->pages_[page_index_];
  auto page = pool_->FetchPage(page_id);
  if (!page.ok()) return page.status();
  PageGuard guard(pool_, page_id, *page);
  page_index_++;
  uint16_t nslots = guard.get()->slot_count();
  out->reserve(out->size() + nslots);
  for (uint16_t slot = 0; slot < nslots; slot++) {
    uint16_t len = 0;
    const uint8_t* rec = guard.get()->Record(slot, &len);
    out->push_back(DeserializeTuple(rec, len));
  }
  return true;
}

}  // namespace sqp
