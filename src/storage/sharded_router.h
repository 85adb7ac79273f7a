// ShardedStorageRouter: N storage nodes behind one page-id namespace.
//
// The router is the PageStore a multi-node database programs against
// (DESIGN.md §12–13). Global page ids carry the node that *allocated*
// the primary copy in their top bits (page.h); the id is stable for the
// page's lifetime, but the physical location of either copy can move —
// the router keeps a placement record per logical page (primary
// node+local id, optional shadow node+local id, hash shard) and every
// read/write resolves through it. Placement is journaled durable
// metadata, like the per-disk page allocator: it survives crashes and
// node loss.
//
// Pages allocated with PageAllocOptions::replicated keep a second
// (shadow) copy on another alive node; the shadow receives every write
// and serves reads when the primary's node is dead or unreachable, so
// base tables survive losing any single node. With read load-balancing
// enabled (the default), reads of a fully healthy replicated page
// alternate deterministically between the two copies.
//
// Sharded heaps address pages by *shard slot* (2× the initial node
// count), and the router maps slots to home nodes. Membership changes
// (AddNode / RetireNode) move whole slots between nodes via the
// Stage/Commit/Abort copy primitives: a staged copy is invisible until
// committed, so a crash mid-move replays to the old owner and the
// staged bytes are collected as physical orphans.
//
// With one node the router degrades to a thin pass-through around a
// single DiskManager with the legacy fault/metric namespaces
// ("disk.*" / "storage.disk.*") — bit-identical to the pre-sharding
// storage stack, which is what every single-node test and benchmark
// exercises.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cost_meter.h"
#include "common/status.h"
#include "storage/page_store.h"
#include "storage/storage_node.h"

namespace sqp {

class Counter;

class ShardedStorageRouter : public PageStore {
 public:
  /// `nodes` in-process storage nodes (1..kMaxStorageNodes).
  /// `replication_factor` 2 keeps one shadow copy of replicated pages;
  /// 1 disables replication. Factors above 2 are capped at 2.
  /// `balance_reads` alternates reads of healthy replicated pages
  /// between the two copies (deterministic round-robin).
  ShardedStorageRouter(CostMeter* meter, size_t nodes,
                       size_t replication_factor = 2,
                       bool balance_reads = true);

  ShardedStorageRouter(const ShardedStorageRouter&) = delete;
  ShardedStorageRouter& operator=(const ShardedStorageRouter&) = delete;

  // ----------------------------------------------------- PageStore
  Result<page_id_t> AllocatePage(const PageAllocOptions& options = {}) override;
  Status DeallocatePage(page_id_t page_id) override;
  Status ReadPage(page_id_t page_id, Page* out) override;
  Status WritePage(page_id_t page_id, const Page& in) override;
  Status Sync() override;
  std::vector<page_id_t> LivePages() const override;
  size_t shard_count() const override {
    return single_ ? 1 : shard_home_.size();
  }

  // ---------------------------------------------- node-level faults
  /// Permanent loss of node k: its durable image dies with it. Reads of
  /// replicated pages fail over to their shadow copy; unreplicated
  /// pages on the node are gone (Database::Reopen drops the matviews
  /// that lived there).
  void KillNode(size_t k);
  bool NodeAlive(size_t k) const;
  bool NodeRetired(size_t k) const;
  size_t node_count() const { return single_ ? 1 : nodes_.size(); }
  /// Nodes in service (neither killed nor retired).
  size_t alive_nodes() const;
  /// Nodes permanently lost (killed; retired nodes are not lost).
  size_t killed_nodes() const;

  // ------------------------------------------------------ membership
  /// Add a fresh, empty storage node; returns its id (== old
  /// node_count()). The caller owns the manifest-side membership
  /// change and any shard rebalancing.
  size_t AddNode();

  /// Retire a drained node: it must hold no page placements and no
  /// physical pages. kFailedPrecondition otherwise; idempotent on an
  /// already-retired node.
  Status RetireNode(size_t k);

  // -------------------------------------------------- shard-slot map
  /// Current home node of shard slot `s`.
  size_t shard_home(size_t s) const { return shard_home_[s]; }
  /// Point slot `s` at `node` (after its pages were copied+committed).
  void SetShardHome(size_t s, size_t node);
  /// Slots currently homed at node k, ascending.
  std::vector<size_t> ShardsHomedAt(size_t k) const;

  // --------------------------------- rebalance / repair primitives
  /// A page copy staged on a node but not yet part of the placement
  /// map. Invisible to reads until CommitCopy; a crash before the
  /// commit leaves it as a physical orphan for CollectPhysicalOrphans.
  struct StagedCopy {
    page_id_t global = kInvalidPageId;
    uint32_t node = 0;
    page_id_t local = kInvalidPageId;
    bool as_primary = false;
  };

  /// Read `global` from any live copy and write it to a fresh physical
  /// page on `to_node` (gated by "node<k>.rebalance.copy"); all I/O is
  /// charged on the meter. The placement map is untouched.
  Result<StagedCopy> StageCopy(page_id_t global, size_t to_node,
                               bool as_primary);

  /// Flip the placement map to the staged copy and free the physical
  /// page it replaces (when its node is still alive). Call only after
  /// Sync() made the staged bytes durable.
  Status CommitCopy(const StagedCopy& copy);

  /// Best-effort release of a staged physical page (failed move).
  void AbortCopy(const StagedCopy& copy);

  /// One page in need of re-protection.
  struct RepairNeed {
    page_id_t global = kInvalidPageId;
    /// True: the primary copy's node is dead — promote the shadow by
    /// staging a fresh primary. False: the shadow is missing or dead —
    /// stage a fresh shadow.
    bool primary_dead = false;
  };

  /// Pages whose redundancy is degraded but recoverable (one live
  /// copy remains), in deterministic (global-id) order. Pages with no
  /// live copy are excluded — they are lost, not repairable.
  std::vector<RepairNeed> PagesNeedingRepair() const;

  /// Replicated pages whose only live copy is the shadow (the primary
  /// node is dead). Zero after a completed repair pass.
  uint64_t ShadowOnlyPages() const;

  /// Logical pages whose primary placement sits on node k / whose
  /// shadow placement sits on node k, in global-id order.
  std::vector<page_id_t> PagesWithPrimaryOn(size_t k) const;
  std::vector<page_id_t> PagesWithReplicaOn(size_t k) const;
  /// Pages allocated under shard slot `s`, in global-id order.
  std::vector<page_id_t> PagesInShard(size_t s) const;
  /// Placement introspection (kNoShard / kAnyNode when absent).
  uint32_t PageShard(page_id_t global) const;
  uint32_t PagePrimaryNode(page_id_t global) const;
  uint32_t PageReplicaNode(page_id_t global) const;

  /// Free physical pages on alive nodes that no placement references —
  /// staged copies left by a crash mid-rebalance. Returns the count.
  uint64_t CollectPhysicalOrphans();

  /// Is this logical page readable from any surviving copy?
  bool PageAvailable(page_id_t page_id) const;

  /// Machine-wide power cut: every surviving node's disk crashes (each
  /// may tear one in-flight page).
  void SimulateCrash();
  /// Re-mount every surviving node after a crash.
  void Restart();
  /// True while any surviving node is crashed (Reopen() required).
  bool has_crashed() const;

  // ------------------------------------------------------- accounting
  /// Logical pages currently readable (replicas are shadows, not
  /// counted). On a healthy store this equals the catalog's page total;
  /// the chaos invariant "live_pages == catalog pages" checks it.
  uint64_t live_pages() const;
  uint64_t allocated_pages() const;
  uint64_t unsynced_pages() const;
  uint64_t checksum_failures() const;
  uint64_t torn_pages() const;
  uint64_t sync_count() const;

  /// Physical live pages on surviving nodes referenced by no logical
  /// page — must be zero after recovery (the per-node orphan audit).
  uint64_t OrphanPhysicalPages() const;

  /// Multi-node stores only (a single-node store has no StorageNode).
  const StorageNode& node(size_t k) const { return *nodes_[k]; }

  uint64_t replica_reads() const { return replica_reads_; }
  uint64_t degraded_writes() const { return degraded_writes_; }
  uint64_t reads_primary() const { return reads_primary_; }
  uint64_t reads_shadow() const { return reads_shadow_; }
  /// Deterministic replica-read round-robin cursor (advances once per
  /// balanced read of a healthy replicated page). The replayers use it
  /// to spread query jobs over the SimServer's per-node lanes
  /// (DESIGN.md §14).
  uint64_t read_cursor() const { return read_rr_; }

 private:
  struct PageMeta {
    /// Physical location of the primary copy. Starts as the node/local
    /// encoded in the global id; repair and rebalancing move it.
    uint32_t primary_node = 0;
    page_id_t primary_local = kInvalidPageId;
    bool replicated = false;
    /// Replication was requested: a missing/dead shadow is a repair
    /// candidate, not a plain single-copy page.
    bool wants_replica = false;
    uint32_t replica_node = 0;
    page_id_t replica_local = kInvalidPageId;
    /// Hash shard slot (kNoShard for unsharded pages).
    uint32_t shard = PageAllocOptions::kNoShard;
  };

  /// Next alive node at-or-after `start` (wrapping), excluding
  /// `exclude`; node_count() when none qualifies.
  size_t NextAlive(size_t start, size_t exclude) const;
  bool Alive(size_t k) const { return nodes_[k]->alive(); }
  page_id_t PrimaryPhys(const PageMeta& meta) const {
    return MakePageId(meta.primary_node, meta.primary_local);
  }
  page_id_t ReplicaPhys(const PageMeta& meta) const {
    return MakePageId(meta.replica_node, meta.replica_local);
  }
  /// CheckReachable + physical read on one node.
  Status TryRead(size_t node, page_id_t phys, Page* out);

  CostMeter* meter_;
  size_t replication_factor_;
  bool balance_reads_;
  /// Single-node pass-through (legacy namespaces); nodes_ is empty.
  bool single_;
  std::unique_ptr<DiskManager> single_disk_;
  std::vector<std::unique_ptr<StorageNode>> nodes_;
  /// Durable placement journal: global id -> copy placements.
  /// Ordered so recovery iteration is deterministic.
  std::map<page_id_t, PageMeta> meta_;
  /// Shard slot -> home node (2× the initial node count; durable).
  std::vector<size_t> shard_home_;
  /// Round-robin cursor for unpinned (kAnyNode) allocations.
  size_t next_rr_ = 0;
  /// Round-robin cursor for balanced reads of healthy replicated pages.
  uint64_t read_rr_ = 0;
  uint64_t replica_reads_ = 0;
  uint64_t degraded_writes_ = 0;
  uint64_t reads_primary_ = 0;
  uint64_t reads_shadow_ = 0;
  Counter* m_replica_reads_;
  Counter* m_degraded_writes_;
  Counter* m_kills_;
  Counter* m_replica_alloc_failures_;
  Counter* m_reads_primary_;
  Counter* m_reads_shadow_;
};

}  // namespace sqp
