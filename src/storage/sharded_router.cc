#include "storage/sharded_router.h"

#include <algorithm>
#include <cassert>

#include "common/fault_injector.h"
#include "common/metrics_registry.h"

namespace sqp {

ShardedStorageRouter::ShardedStorageRouter(CostMeter* meter, size_t nodes,
                                           size_t replication_factor,
                                           bool balance_reads)
    : meter_(meter),
      replication_factor_(std::min<size_t>(replication_factor, 2)),
      balance_reads_(balance_reads),
      single_(nodes <= 1) {
  assert(nodes >= 1 && nodes <= kMaxStorageNodes &&
         "storage node count out of range");
  if (single_) {
    single_disk_ = std::make_unique<DiskManager>(meter_);
  } else {
    nodes_.reserve(nodes);
    for (size_t k = 0; k < nodes; k++) {
      nodes_.push_back(
          std::make_unique<StorageNode>(static_cast<uint32_t>(k), meter_));
    }
    // Twice as many shard slots as initial nodes, so a joining node can
    // take over whole slots (floor(slots/nodes) stays >= 1 for modest
    // growth) without re-hashing any rows.
    shard_home_.resize(2 * nodes);
    for (size_t s = 0; s < shard_home_.size(); s++) {
      shard_home_[s] = s % nodes;
    }
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  m_replica_reads_ = registry.GetCounter("storage.node.replica_reads");
  m_degraded_writes_ = registry.GetCounter("storage.node.degraded_writes");
  m_kills_ = registry.GetCounter("storage.node.kills");
  m_replica_alloc_failures_ =
      registry.GetCounter("storage.node.replica_alloc_failures");
  m_reads_primary_ = registry.GetCounter("storage.node.reads_primary");
  m_reads_shadow_ = registry.GetCounter("storage.node.reads_shadow");
}

bool ShardedStorageRouter::NodeAlive(size_t k) const {
  if (single_) return true;
  return nodes_[k]->alive();
}

bool ShardedStorageRouter::NodeRetired(size_t k) const {
  if (single_) return false;
  return nodes_[k]->retired();
}

size_t ShardedStorageRouter::alive_nodes() const {
  if (single_) return 1;
  size_t alive = 0;
  for (const auto& node : nodes_) {
    if (node->alive()) alive++;
  }
  return alive;
}

size_t ShardedStorageRouter::killed_nodes() const {
  if (single_) return 0;
  size_t killed = 0;
  for (const auto& node : nodes_) {
    if (node->killed()) killed++;
  }
  return killed;
}

size_t ShardedStorageRouter::NextAlive(size_t start, size_t exclude) const {
  size_t n = nodes_.size();
  for (size_t i = 0; i < n; i++) {
    size_t k = (start + i) % n;
    if (k != exclude && nodes_[k]->alive()) return k;
  }
  return n;
}

size_t ShardedStorageRouter::AddNode() {
  assert(!single_ && "cannot add nodes to a single-disk store");
  assert(nodes_.size() < kMaxStorageNodes);
  size_t k = nodes_.size();
  nodes_.push_back(
      std::make_unique<StorageNode>(static_cast<uint32_t>(k), meter_));
  return k;
}

Status ShardedStorageRouter::RetireNode(size_t k) {
  if (single_ || k >= nodes_.size()) {
    return Status::InvalidArgument("no such storage node");
  }
  if (nodes_[k]->retired()) return Status::OK();
  if (nodes_[k]->killed()) {
    return Status::FailedPrecondition("cannot retire dead node " +
                                      std::to_string(k));
  }
  for (const auto& [global, meta] : meta_) {
    if (meta.primary_node == k || (meta.replicated && meta.replica_node == k)) {
      return Status::FailedPrecondition(
          "node " + std::to_string(k) + " still holds placements");
    }
  }
  for (size_t s = 0; s < shard_home_.size(); s++) {
    if (shard_home_[s] == k) {
      return Status::FailedPrecondition(
          "node " + std::to_string(k) + " still homes shard " +
          std::to_string(s));
    }
  }
  if (nodes_[k]->disk().live_pages() != 0) {
    return Status::FailedPrecondition(
        "node " + std::to_string(k) + " still holds physical pages");
  }
  nodes_[k]->Decommission();
  return Status::OK();
}

void ShardedStorageRouter::SetShardHome(size_t s, size_t node) {
  assert(s < shard_home_.size());
  assert(node < nodes_.size());
  shard_home_[s] = node;
}

std::vector<size_t> ShardedStorageRouter::ShardsHomedAt(size_t k) const {
  std::vector<size_t> out;
  for (size_t s = 0; s < shard_home_.size(); s++) {
    if (shard_home_[s] == k) out.push_back(s);
  }
  return out;
}

Result<page_id_t> ShardedStorageRouter::AllocatePage(
    const PageAllocOptions& options) {
  if (single_) return single_disk_->AllocatePage(options);

  size_t primary;
  if (options.shard_hint != PageAllocOptions::kNoShard &&
      options.shard_hint < shard_home_.size()) {
    // Sharded placement: the slot's current home node. The home is
    // re-pointed by rebalancing and repair, so losing a node stalls the
    // shard only until Repair() re-homes it.
    primary = shard_home_[options.shard_hint];
    if (!nodes_[primary]->alive()) {
      return Status::DataLoss("allocation on lost node " +
                              std::to_string(primary));
    }
  } else if (options.node_hint != PageAllocOptions::kAnyNode &&
             options.node_hint < nodes_.size()) {
    // Pinned placement (node-sticky matviews): losing that node means
    // this heap cannot grow until it is re-materialized elsewhere.
    primary = options.node_hint;
    if (!nodes_[primary]->alive()) {
      return Status::DataLoss("allocation on lost node " +
                              std::to_string(primary));
    }
  } else {
    primary = NextAlive(next_rr_, nodes_.size());
    if (primary >= nodes_.size()) {
      return Status::DataLoss("no storage node alive");
    }
    next_rr_ = (primary + 1) % nodes_.size();
  }
  SQP_RETURN_IF_ERROR(nodes_[primary]->CheckReachable());
  auto allocated = nodes_[primary]->disk().AllocatePage();
  if (!allocated.ok()) return allocated.status();
  page_id_t global = *allocated;

  PageMeta meta;
  meta.primary_node = static_cast<uint32_t>(primary);
  meta.primary_local = PageLocal(global);
  if (options.shard_hint != PageAllocOptions::kNoShard &&
      options.shard_hint < shard_home_.size()) {
    meta.shard = options.shard_hint;
  }
  if (options.replicated && replication_factor_ >= 2) {
    meta.wants_replica = true;
    size_t replica = NextAlive((primary + 1) % nodes_.size(), primary);
    if (replica < nodes_.size()) {
      auto shadow = nodes_[replica]->disk().AllocatePage();
      if (shadow.ok()) {
        meta.replicated = true;
        meta.replica_node = static_cast<uint32_t>(replica);
        meta.replica_local = PageLocal(*shadow);
      } else {
        // Degrade to a single copy rather than failing the allocation;
        // a later Repair() pass completes the replica.
        m_replica_alloc_failures_->Increment();
      }
    } else {
      m_replica_alloc_failures_->Increment();
    }
  }
  meta_[global] = meta;
  return global;
}

Status ShardedStorageRouter::DeallocatePage(page_id_t page_id) {
  if (single_) return single_disk_->DeallocatePage(page_id);
  auto it = meta_.find(page_id);
  if (it == meta_.end()) {
    return Status::NotFound("deallocate of unknown page " +
                            std::to_string(page_id));
  }
  const PageMeta meta = it->second;
  meta_.erase(it);
  Status primary_status = Status::OK();
  if (nodes_[meta.primary_node]->alive()) {
    primary_status =
        nodes_[meta.primary_node]->disk().DeallocatePage(PrimaryPhys(meta));
  }
  if (meta.replicated && nodes_[meta.replica_node]->alive()) {
    // The shadow dies with the logical page; its own status is
    // secondary (the copy on a crashed node is cleaned after Restart).
    (void)nodes_[meta.replica_node]->disk().DeallocatePage(ReplicaPhys(meta));
  }
  return primary_status;
}

Status ShardedStorageRouter::TryRead(size_t node, page_id_t phys, Page* out) {
  SQP_RETURN_IF_ERROR(nodes_[node]->CheckReachable());
  return nodes_[node]->disk().ReadPage(phys, out);
}

Status ShardedStorageRouter::ReadPage(page_id_t page_id, Page* out) {
  if (single_) return single_disk_->ReadPage(page_id, out);
  auto it = meta_.find(page_id);
  if (it == meta_.end()) {
    return Status::NotFound("read of unknown page " +
                            std::to_string(page_id));
  }
  const PageMeta& meta = it->second;
  // Deterministic read load-balancing: when both copies are healthy,
  // alternate between them so replicated read traffic splits evenly
  // and replays stay bit-identical (the cursor is session state, not
  // randomness).
  bool shadow_first = false;
  if (balance_reads_ && meta.replicated && nodes_[meta.primary_node]->alive() &&
      nodes_[meta.replica_node]->alive()) {
    shadow_first = (read_rr_++ % 2) == 1;
  }
  if (shadow_first) {
    Status shadow_status = TryRead(meta.replica_node, ReplicaPhys(meta), out);
    if (shadow_status.ok()) {
      reads_shadow_++;
      m_reads_shadow_->Increment();
      return shadow_status;
    }
    // The chosen copy faulted: fall back to the primary.
    Status primary_status = TryRead(meta.primary_node, PrimaryPhys(meta), out);
    if (primary_status.ok()) {
      reads_primary_++;
      m_reads_primary_->Increment();
    }
    return primary_status;
  }
  Status primary_status = TryRead(meta.primary_node, PrimaryPhys(meta), out);
  if (primary_status.ok()) {
    reads_primary_++;
    m_reads_primary_->Increment();
    return primary_status;
  }
  if (!meta.replicated) return primary_status;
  // Failover: serve the shadow copy (it received every write, so its
  // bytes — and checksum — match the primary's last synced state).
  Status shadow_status = TryRead(meta.replica_node, ReplicaPhys(meta), out);
  if (shadow_status.ok()) {
    replica_reads_++;
    m_replica_reads_->Increment();
    reads_shadow_++;
    m_reads_shadow_->Increment();
  }
  return shadow_status;
}

Status ShardedStorageRouter::WritePage(page_id_t page_id, const Page& in) {
  if (single_) return single_disk_->WritePage(page_id, in);
  auto it = meta_.find(page_id);
  if (it == meta_.end()) {
    return Status::NotFound("write of unknown page " +
                            std::to_string(page_id));
  }
  const PageMeta& meta = it->second;
  if (nodes_[meta.primary_node]->alive()) {
    // Transient primary failures (partition, injected I/O error) must
    // fail the write: letting the shadow advance while a *reachable
    // later* primary stays stale would serve old bytes on the next
    // read. Only a permanently lost primary degrades to shadow-only.
    SQP_RETURN_IF_ERROR(nodes_[meta.primary_node]->CheckReachable());
    SQP_RETURN_IF_ERROR(
        nodes_[meta.primary_node]->disk().WritePage(PrimaryPhys(meta), in));
    if (!meta.replicated || !nodes_[meta.replica_node]->alive()) {
      return Status::OK();
    }
    SQP_RETURN_IF_ERROR(nodes_[meta.replica_node]->CheckReachable());
    return nodes_[meta.replica_node]->disk().WritePage(ReplicaPhys(meta), in);
  }
  if (!meta.replicated || !nodes_[meta.replica_node]->alive()) {
    return Status::DataLoss("write of page " + std::to_string(page_id) +
                            ": every copy lost");
  }
  SQP_RETURN_IF_ERROR(nodes_[meta.replica_node]->CheckReachable());
  SQP_RETURN_IF_ERROR(
      nodes_[meta.replica_node]->disk().WritePage(ReplicaPhys(meta), in));
  // Primary lost, shadow took the write: degraded but not lost.
  degraded_writes_++;
  m_degraded_writes_->Increment();
  return Status::OK();
}

Status ShardedStorageRouter::Sync() {
  if (single_) return single_disk_->Sync();
  for (auto& node : nodes_) {
    if (!node->alive()) continue;
    SQP_RETURN_IF_ERROR(node->CheckReachable());
    SQP_RETURN_IF_ERROR(node->disk().Sync());
  }
  return Status::OK();
}

std::vector<page_id_t> ShardedStorageRouter::LivePages() const {
  if (single_) return single_disk_->LivePages();
  std::vector<page_id_t> out;
  out.reserve(meta_.size());
  for (const auto& [global, meta] : meta_) {
    if (PageAvailable(global)) out.push_back(global);
  }
  return out;
}

bool ShardedStorageRouter::PageAvailable(page_id_t page_id) const {
  if (single_) return true;
  auto it = meta_.find(page_id);
  if (it == meta_.end()) return false;
  const PageMeta& meta = it->second;
  if (nodes_[meta.primary_node]->alive()) return true;
  return meta.replicated && nodes_[meta.replica_node]->alive();
}

Result<ShardedStorageRouter::StagedCopy> ShardedStorageRouter::StageCopy(
    page_id_t global, size_t to_node, bool as_primary) {
  if (single_) {
    return Status::NotSupported("single-disk store has no copies to move");
  }
  auto it = meta_.find(global);
  if (it == meta_.end()) {
    return Status::NotFound("stage copy of unknown page " +
                            std::to_string(global));
  }
  if (to_node >= nodes_.size() || !nodes_[to_node]->alive()) {
    return Status::InvalidArgument("stage copy to unavailable node " +
                                   std::to_string(to_node));
  }
  SQP_RETURN_IF_ERROR(nodes_[to_node]->CheckReachable());
  FaultInjector& injector = FaultInjector::Global();
  if (injector.armed()) {
    SQP_RETURN_IF_ERROR(injector.Check(nodes_[to_node]->rebalance_point()));
  }
  Page page;
  page.Init();
  SQP_RETURN_IF_ERROR(ReadPage(global, &page));
  auto phys = nodes_[to_node]->disk().AllocatePage();
  if (!phys.ok()) return phys.status();
  Status written = nodes_[to_node]->disk().WritePage(*phys, page);
  if (!written.ok()) {
    (void)nodes_[to_node]->disk().DeallocatePage(*phys);
    return written;
  }
  StagedCopy copy;
  copy.global = global;
  copy.node = static_cast<uint32_t>(to_node);
  copy.local = PageLocal(*phys);
  copy.as_primary = as_primary;
  return copy;
}

Status ShardedStorageRouter::CommitCopy(const StagedCopy& copy) {
  auto it = meta_.find(copy.global);
  if (it == meta_.end()) {
    return Status::NotFound("commit copy of unknown page " +
                            std::to_string(copy.global));
  }
  PageMeta& meta = it->second;
  if (copy.as_primary) {
    if (nodes_[meta.primary_node]->alive() &&
        !(meta.primary_node == copy.node && meta.primary_local == copy.local)) {
      (void)nodes_[meta.primary_node]->disk().DeallocatePage(
          PrimaryPhys(meta));
    }
    meta.primary_node = copy.node;
    meta.primary_local = copy.local;
  } else {
    if (meta.replicated && nodes_[meta.replica_node]->alive() &&
        !(meta.replica_node == copy.node && meta.replica_local == copy.local)) {
      (void)nodes_[meta.replica_node]->disk().DeallocatePage(
          ReplicaPhys(meta));
    }
    meta.replicated = true;
    meta.wants_replica = true;
    meta.replica_node = copy.node;
    meta.replica_local = copy.local;
  }
  return Status::OK();
}

void ShardedStorageRouter::AbortCopy(const StagedCopy& copy) {
  if (copy.node >= nodes_.size() || !nodes_[copy.node]->alive()) return;
  (void)nodes_[copy.node]->disk().DeallocatePage(
      MakePageId(copy.node, copy.local));
}

std::vector<ShardedStorageRouter::RepairNeed>
ShardedStorageRouter::PagesNeedingRepair() const {
  std::vector<RepairNeed> out;
  if (single_) return out;
  for (const auto& [global, meta] : meta_) {
    const bool primary_up = nodes_[meta.primary_node]->alive();
    const bool shadow_up = meta.replicated && nodes_[meta.replica_node]->alive();
    if (!primary_up && shadow_up) {
      out.push_back(RepairNeed{global, /*primary_dead=*/true});
    } else if (primary_up && meta.wants_replica && !shadow_up) {
      out.push_back(RepairNeed{global, /*primary_dead=*/false});
    }
    // Both copies down: the page is lost, not repairable (Reopen
    // surfaces or drops it).
  }
  return out;
}

uint64_t ShardedStorageRouter::ShadowOnlyPages() const {
  if (single_) return 0;
  uint64_t count = 0;
  for (const auto& [global, meta] : meta_) {
    if (!nodes_[meta.primary_node]->alive() && meta.replicated &&
        nodes_[meta.replica_node]->alive()) {
      count++;
    }
  }
  return count;
}

std::vector<page_id_t> ShardedStorageRouter::PagesWithPrimaryOn(
    size_t k) const {
  std::vector<page_id_t> out;
  if (single_) return out;
  for (const auto& [global, meta] : meta_) {
    if (meta.primary_node == k) out.push_back(global);
  }
  return out;
}

std::vector<page_id_t> ShardedStorageRouter::PagesWithReplicaOn(
    size_t k) const {
  std::vector<page_id_t> out;
  if (single_) return out;
  for (const auto& [global, meta] : meta_) {
    if (meta.replicated && meta.replica_node == k) out.push_back(global);
  }
  return out;
}

std::vector<page_id_t> ShardedStorageRouter::PagesInShard(size_t s) const {
  std::vector<page_id_t> out;
  if (single_) return out;
  for (const auto& [global, meta] : meta_) {
    if (meta.shard == s) out.push_back(global);
  }
  return out;
}

uint32_t ShardedStorageRouter::PageShard(page_id_t global) const {
  auto it = meta_.find(global);
  return it == meta_.end() ? PageAllocOptions::kNoShard : it->second.shard;
}

uint32_t ShardedStorageRouter::PagePrimaryNode(page_id_t global) const {
  auto it = meta_.find(global);
  return it == meta_.end() ? PageAllocOptions::kAnyNode
                           : it->second.primary_node;
}

uint32_t ShardedStorageRouter::PageReplicaNode(page_id_t global) const {
  auto it = meta_.find(global);
  if (it == meta_.end() || !it->second.replicated) {
    return PageAllocOptions::kAnyNode;
  }
  return it->second.replica_node;
}

uint64_t ShardedStorageRouter::CollectPhysicalOrphans() {
  if (single_) return 0;
  uint64_t collected = 0;
  for (size_t k = 0; k < nodes_.size(); k++) {
    if (nodes_[k]->killed()) continue;
    std::vector<page_id_t> expected;
    for (const auto& [global, meta] : meta_) {
      if (meta.primary_node == k) expected.push_back(meta.primary_local);
      if (meta.replicated && meta.replica_node == k) {
        expected.push_back(meta.replica_local);
      }
    }
    std::sort(expected.begin(), expected.end());
    for (page_id_t phys : nodes_[k]->disk().LivePages()) {
      if (!std::binary_search(expected.begin(), expected.end(),
                              PageLocal(phys))) {
        (void)nodes_[k]->disk().DeallocatePage(phys);
        collected++;
      }
    }
  }
  return collected;
}

void ShardedStorageRouter::KillNode(size_t k) {
  if (single_) return;  // a single-node store has no node to lose
  if (!nodes_[k]->alive()) return;
  nodes_[k]->Kill();
  m_kills_->Increment();
}

void ShardedStorageRouter::SimulateCrash() {
  if (single_) {
    single_disk_->SimulateCrash();
    return;
  }
  for (auto& node : nodes_) {
    if (!node->killed()) node->disk().SimulateCrash();
  }
}

void ShardedStorageRouter::Restart() {
  if (single_) {
    single_disk_->Restart();
    return;
  }
  for (auto& node : nodes_) {
    if (!node->killed()) node->disk().Restart();
  }
}

bool ShardedStorageRouter::has_crashed() const {
  if (single_) return single_disk_->has_crashed();
  for (const auto& node : nodes_) {
    if (!node->killed() && node->disk().has_crashed()) return true;
  }
  return false;
}

uint64_t ShardedStorageRouter::live_pages() const {
  if (single_) return single_disk_->live_pages();
  uint64_t count = 0;
  for (const auto& [global, meta] : meta_) {
    if (PageAvailable(global)) count++;
  }
  return count;
}

uint64_t ShardedStorageRouter::allocated_pages() const {
  if (single_) return single_disk_->allocated_pages();
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->disk().allocated_pages();
  return total;
}

uint64_t ShardedStorageRouter::unsynced_pages() const {
  if (single_) return single_disk_->unsynced_pages();
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    if (!node->killed()) total += node->disk().unsynced_pages();
  }
  return total;
}

uint64_t ShardedStorageRouter::checksum_failures() const {
  if (single_) return single_disk_->checksum_failures();
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->disk().checksum_failures();
  return total;
}

uint64_t ShardedStorageRouter::torn_pages() const {
  if (single_) return single_disk_->torn_pages();
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->disk().torn_pages();
  return total;
}

uint64_t ShardedStorageRouter::sync_count() const {
  if (single_) return single_disk_->sync_count();
  uint64_t total = 0;
  for (const auto& node : nodes_) total += node->disk().sync_count();
  return total;
}

uint64_t ShardedStorageRouter::OrphanPhysicalPages() const {
  if (single_) return 0;
  uint64_t orphans = 0;
  for (size_t k = 0; k < nodes_.size(); k++) {
    if (nodes_[k]->killed()) continue;
    // Local ids this node should hold: primary placements pointing at
    // it plus shadows placed on it.
    std::vector<page_id_t> expected;
    for (const auto& [global, meta] : meta_) {
      if (meta.primary_node == k) expected.push_back(meta.primary_local);
      if (meta.replicated && meta.replica_node == k) {
        expected.push_back(meta.replica_local);
      }
    }
    std::sort(expected.begin(), expected.end());
    for (page_id_t global : nodes_[k]->disk().LivePages()) {
      if (!std::binary_search(expected.begin(), expected.end(),
                              PageLocal(global))) {
        orphans++;
      }
    }
  }
  return orphans;
}

}  // namespace sqp
