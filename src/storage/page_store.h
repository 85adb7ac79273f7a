// PageStore: the page-granular storage interface the buffer pool,
// catalog, and heap files program against.
//
// Two implementations exist: DiskManager (one simulated disk — the
// original single-node store) and ShardedStorageRouter (N in-process
// storage nodes behind one page-id namespace, DESIGN.md §12). Page ids
// are global: the top bits carry the owning node (see page.h), so a
// single-node store's ids are numerically unchanged and every existing
// caller keeps working.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "storage/page.h"

namespace sqp {

/// Placement request for a fresh page.
struct PageAllocOptions {
  static constexpr uint32_t kAnyNode = UINT32_MAX;
  static constexpr uint32_t kNoShard = UINT32_MAX;

  /// Preferred storage node for the primary copy. kAnyNode lets the
  /// store choose (single-node stores always use node 0; the router
  /// round-robins over alive nodes so unsharded tables stay whole on
  /// one node).
  uint32_t node_hint = kAnyNode;
  /// Hash shard this page belongs to. The store resolves the shard to
  /// its current home node (the shard→node map moves with membership
  /// changes), so sharded heaps keep appending correctly after a
  /// rebalance. Takes precedence over node_hint when set.
  uint32_t shard_hint = kNoShard;
  /// Keep a second copy on another node so the page survives losing
  /// either one. Ignored by single-node stores.
  bool replicated = false;
};

class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Allocate a fresh zeroed page; returns its global id.
  virtual Result<page_id_t> AllocatePage(
      const PageAllocOptions& options = {}) = 0;

  /// Free a page (and any replica). Ids are never reused.
  virtual Status DeallocatePage(page_id_t page_id) = 0;

  /// Copy page contents store -> out, verifying checksums. A store with
  /// replicas serves the read from a surviving copy when the primary's
  /// node is down.
  virtual Status ReadPage(page_id_t page_id, Page* out) = 0;

  /// Copy page contents in -> write cache(s); volatile until Sync().
  virtual Status WritePage(page_id_t page_id, const Page& in) = 0;

  /// fsync barrier: every cached write becomes durable.
  virtual Status Sync() = 0;

  /// Global ids of every live (logical) page — replicas are shadows of
  /// their primary and are not enumerated.
  virtual std::vector<page_id_t> LivePages() const = 0;

  /// Number of hash-shard slots a sharded table should spread over
  /// (more slots than nodes so a joining node can take whole slots;
  /// 1 for a single-disk store).
  virtual size_t shard_count() const { return 1; }
};

}  // namespace sqp
