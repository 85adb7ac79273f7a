// Heap file: an unordered collection of tuples in slotted pages.
#pragma once

#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/tuple.h"

namespace sqp {

/// Where a heap's pages live on a sharded store (DESIGN.md §12).
/// The default — one shard, unreplicated — reproduces the single-disk
/// layout bit for bit. Catalog::CreateTable sets base tables to
/// replicated + hash-sharded over every storage node; materialized
/// views stay single-shard and unreplicated (they are disposable, so a
/// node loss just drops them).
struct HeapPlacement {
  /// Keep a shadow copy of every page on another node.
  bool replicated = false;
  /// Hash-shard appends on the first column over this many shards;
  /// shard k's pages are pinned to storage node k.
  size_t shards = 1;
  /// Unsharded heaps only: pin the *first* page to this node (later
  /// pages already follow the first). kAnyNode = round-robin default.
  /// The speculation engine uses this to land a matview on the cost
  /// model's chosen home node (DESIGN.md §14).
  uint32_t home_node = PageAllocOptions::kAnyNode;
};

class HeapFile {
 public:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Set before the first append (Catalog::CreateTable does).
  void SetPlacement(HeapPlacement placement);
  const HeapPlacement& placement() const { return placement_; }

  /// Append a tuple; returns its Rid.
  Result<Rid> Append(const Tuple& tuple);

  /// Fetch the tuple at `rid` (e.g. from an index lookup).
  Result<Tuple> Fetch(const Rid& rid) const;

  /// Release all pages back to the page store (table drop).
  void Drop(PageStore* disk);

  /// Re-attach a page list recorded in the catalog manifest (crash
  /// recovery): the pages already exist on disk with their contents.
  void Restore(std::vector<page_id_t> pages, uint64_t tuple_count);

  uint64_t tuple_count() const { return tuple_count_; }
  uint64_t page_count() const { return pages_.size(); }
  const std::vector<page_id_t>& pages() const { return pages_; }

  /// Forward scan over every tuple, page at a time through the pool:
  /// each page is pinned once, fully decoded, and released before the
  /// next.
  class Iterator {
   public:
    Iterator(const HeapFile* file, BufferPool* pool)
        : file_(file), pool_(pool) {}

    /// Append every tuple of the next page to *out. Returns false at end
    /// of file (nothing appended). Errors surface as Status; a failed
    /// fetch leaves the cursor on the page, so a retry re-reads it.
    Result<bool> NextPage(std::vector<Tuple>* out);

   private:
    const HeapFile* file_;
    BufferPool* pool_;
    size_t page_index_ = 0;
  };

  Iterator Scan() const { return Iterator(this, pool_); }

 private:
  /// Shard of a tuple: a stable hash of its first column (never
  /// std::hash, whose result may vary between standard libraries and
  /// would break cross-build replay determinism).
  size_t ShardOf(const Tuple& tuple) const;

  BufferPool* pool_;
  HeapPlacement placement_;
  std::vector<page_id_t> pages_;
  /// Per-shard page currently open for appends (kInvalidPageId when the
  /// shard has none); only used when placement_.shards > 1 — the
  /// single-shard path appends to pages_.back() as it always has.
  std::vector<page_id_t> open_pages_;
  uint64_t tuple_count_ = 0;
  // Serialization scratch reused across appends.
  std::vector<uint8_t> scratch_;
};

}  // namespace sqp
