#include "storage/disk_manager.h"

#include <string>

#include "common/checksum.h"
#include "common/fault_injector.h"
#include "common/metrics_registry.h"

namespace sqp {

namespace {
Status CrashedError() {
  return Status::DataLoss("disk crashed; Reopen() required");
}
}  // namespace

DiskManager::DiskManager(CostMeter* meter, std::string fault_prefix,
                         std::string metric_prefix, uint32_t node)
    : meter_(meter), node_(node) {
  point_allocate_ = fault_prefix + ".allocate";
  point_read_ = fault_prefix + ".read";
  point_write_ = fault_prefix + ".write";
  point_crash_ = fault_prefix + ".crash";
  point_sync_delay_ = fault_prefix + ".sync_delay";
  FaultInjector& injector = FaultInjector::Global();
  injector.RegisterPoint(point_allocate_);
  injector.RegisterPoint(point_read_);
  injector.RegisterPoint(point_write_);
  injector.RegisterPoint(point_crash_);
  injector.RegisterPoint(point_sync_delay_);
  MetricsRegistry& registry = MetricsRegistry::Global();
  m_reads_ = registry.GetCounter(metric_prefix + ".reads");
  m_writes_ = registry.GetCounter(metric_prefix + ".writes");
  m_syncs_ = registry.GetCounter(metric_prefix + ".syncs");
  m_checksum_failures_ =
      registry.GetCounter(metric_prefix + ".checksum_failures");
  m_torn_pages_ = registry.GetCounter(metric_prefix + ".torn_pages");
  m_crashes_ = registry.GetCounter(metric_prefix + ".crashes");
}

Result<page_id_t> DiskManager::AllocatePage(const PageAllocOptions&) {
  if (crashed_) return CrashedError();
  SQP_INJECT_FAULT(point_allocate_);
  store_.push_back(std::make_unique<Page>());
  checksums_.push_back(EmptyPageChecksum());
  verified_.push_back(true);
  live_.push_back(true);
  live_pages_++;
  return MakePageId(node_, static_cast<page_id_t>(store_.size() - 1));
}

Status DiskManager::DeallocatePage(page_id_t page_id) {
  if (crashed_) return CrashedError();
  page_id_t local = PageLocal(page_id);
  if (!OwnsId(page_id) || local >= store_.size()) {
    return Status::InvalidArgument("deallocate of unallocated page " +
                                   std::to_string(page_id));
  }
  if (!live_[local]) {
    return Status::NotFound("deallocate of dead page " +
                            std::to_string(page_id));
  }
  live_[local] = false;
  live_pages_--;
  store_[local].reset();  // release the memory immediately
  unsynced_.erase(local);
  if (last_unsynced_write_ == local) {
    last_unsynced_write_ = kInvalidPageId;
  }
  return Status::OK();
}

Status DiskManager::ReadPage(page_id_t page_id, Page* out) {
  if (crashed_) return CrashedError();
  page_id_t local = PageLocal(page_id);
  if (!OwnsId(page_id) || local >= store_.size()) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(page_id));
  }
  if (!live_[local]) {
    return Status::NotFound("read of dead page " + std::to_string(page_id));
  }
  SQP_INJECT_FAULT(point_read_);
  meter_->ChargeBlockRead();
  m_reads_->Increment();
  auto cached = unsynced_.find(local);
  if (cached != unsynced_.end()) {
    // Unsynced writes are served from the cache (OS page cache
    // semantics); they have no durable checksum yet.
    std::memcpy(out->raw(), cached->second->raw(), kPageSize);
    return Status::OK();
  }
  const Page& durable = *store_[local];
  if (!verified_[local]) {
    if (Crc32(durable.raw(), kPageSize) != checksums_[local]) {
      checksum_failures_++;
      m_checksum_failures_->Increment();
      return Status::DataLoss("torn page " + std::to_string(page_id) +
                              ": checksum mismatch");
    }
    verified_[local] = true;
  }
  std::memcpy(out->raw(), durable.raw(), kPageSize);
  return Status::OK();
}

Status DiskManager::PeekPage(page_id_t page_id, Page* out) {
  // Mirror of ReadPage minus every side effect: no fault injection, no
  // block-read charge, no metric bumps, no checksum-failure counting.
  // The accountable read of this page is replayed by the foreground
  // thread later; this path only feeds worker lookahead (DESIGN.md §15).
  if (crashed_) return CrashedError();
  page_id_t local = PageLocal(page_id);
  if (!OwnsId(page_id) || local >= store_.size()) {
    return Status::InvalidArgument("peek of unallocated page " +
                                   std::to_string(page_id));
  }
  if (!live_[local]) {
    return Status::NotFound("peek of dead page " + std::to_string(page_id));
  }
  auto cached = unsynced_.find(local);
  if (cached != unsynced_.end()) {
    std::memcpy(out->raw(), cached->second->raw(), kPageSize);
    return Status::OK();
  }
  const Page& durable = *store_[local];
  if (Crc32(durable.raw(), kPageSize) != checksums_[local]) {
    return Status::DataLoss("torn page " + std::to_string(page_id) +
                            ": checksum mismatch");
  }
  std::memcpy(out->raw(), durable.raw(), kPageSize);
  return Status::OK();
}

Status DiskManager::WritePage(page_id_t page_id, const Page& in) {
  if (crashed_) return CrashedError();
  page_id_t local = PageLocal(page_id);
  if (!OwnsId(page_id) || local >= store_.size()) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(page_id));
  }
  if (!live_[local]) {
    return Status::NotFound("write of dead page " + std::to_string(page_id));
  }
  SQP_INJECT_FAULT(point_write_);
  if (FaultInjector::Global().armed()) {
    Status crash = FaultInjector::Global().Check(point_crash_);
    if (!crash.ok()) {
      // The machine dies with this write in flight: it becomes the tear
      // candidate, everything unsynced is lost.
      auto torn = std::make_unique<Page>();
      std::memcpy(torn->raw(), in.raw(), kPageSize);
      unsynced_[local] = std::move(torn);
      last_unsynced_write_ = local;
      SimulateCrash();
      return crash;
    }
  }
  auto cached = unsynced_.find(local);
  if (cached == unsynced_.end()) {
    cached = unsynced_.emplace(local, std::make_unique<Page>()).first;
  }
  std::memcpy(cached->second->raw(), in.raw(), kPageSize);
  last_unsynced_write_ = local;
  meter_->ChargeBlockWrite();
  m_writes_->Increment();
  return Status::OK();
}

void DiskManager::MakeDurable(page_id_t local_id, const Page& in) {
  std::memcpy(store_[local_id]->raw(), in.raw(), kPageSize);
  checksums_[local_id] = Crc32(in.raw(), kPageSize);
  verified_[local_id] = true;
}

Status DiskManager::Sync() {
  if (crashed_) return CrashedError();
  if (FaultInjector::Global().armed()) {
    // A delayed fsync (slow device, contended node): every cached page
    // is charged a second time, but the barrier still completes.
    Status delayed = FaultInjector::Global().Check(point_sync_delay_);
    if (!delayed.ok()) {
      for (size_t i = 0; i < unsynced_.size(); i++) {
        meter_->ChargeBlockWrite();
      }
    }
  }
  while (!unsynced_.empty()) {
    auto it = unsynced_.begin();
    if (FaultInjector::Global().armed()) {
      Status crash = FaultInjector::Global().Check(point_crash_);
      if (!crash.ok()) {
        // Crash mid-fsync: this page becomes the tear candidate; the
        // pages already iterated past are durable, the rest are lost.
        last_unsynced_write_ = it->first;
        SimulateCrash();
        return crash;
      }
    }
    MakeDurable(it->first, *it->second);
    unsynced_.erase(it);
  }
  last_unsynced_write_ = kInvalidPageId;
  sync_count_++;
  m_syncs_->Increment();
  return Status::OK();
}

void DiskManager::SimulateCrash() {
  // Tear the most recent in-flight write: half of it reaches the durable
  // image, the checksum does not. (A page allocated after the last sync
  // tears against its zeroed initial image — equally detectable.)
  auto torn = unsynced_.find(last_unsynced_write_);
  if (torn != unsynced_.end() && live_[torn->first]) {
    std::memcpy(store_[torn->first]->raw(), torn->second->raw(),
                kPageSize / 2);
    verified_[torn->first] = false;
    if (Crc32(store_[torn->first]->raw(), kPageSize) !=
        checksums_[torn->first]) {
      torn_pages_++;
      m_torn_pages_->Increment();
    }
  }
  unsynced_.clear();
  last_unsynced_write_ = kInvalidPageId;
  crashed_ = true;
  m_crashes_->Increment();
}

void DiskManager::Restart() {
  unsynced_.clear();
  last_unsynced_write_ = kInvalidPageId;
  crashed_ = false;
}

uint32_t DiskManager::EmptyPageChecksum() {
  static const uint32_t kChecksum = Crc32(Page().raw(), kPageSize);
  return kChecksum;
}

std::vector<page_id_t> DiskManager::LivePages() const {
  std::vector<page_id_t> out;
  out.reserve(live_pages_);
  for (page_id_t id = 0; id < live_.size(); id++) {
    if (live_[id]) out.push_back(MakePageId(node_, id));
  }
  return out;
}

}  // namespace sqp
