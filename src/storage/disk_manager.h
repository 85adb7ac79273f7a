// Simulated disk with a crash-durability model.
//
// Backing store is main memory; "I/O" charges simulated time through the
// shared CostMeter. This stands in for the paper's physical disk: the
// experiments depend only on relative I/O volumes (see DESIGN.md §2).
//
// Durability model (DESIGN.md §8): the disk holds a *durable image*
// (page bytes plus a sidecar CRC-32 per page) and a *volatile write
// cache*. WritePage lands in the cache; Sync() makes every cached write
// durable and recomputes its checksum. SimulateCrash() models a
// power-cut: all unsynced writes are discarded and at most one in-flight
// page is torn (half of the lost write reaches the durable image without
// a checksum update). ReadPage verifies a durable image's checksum
// before serving it the first time and keeps a per-page "verified" bit
// afterwards: the durable image changes only through MakeDurable (which
// computes the checksum from those very bytes, so it sets the bit) and
// the crash tear (which clears it). A torn page thus never passes
// verification and surfaces as kDataLoss on every read — never as
// silently wrong bytes. PeekPage (worker threads) leaves the bit alone
// and checks the full checksum every time. Page allocation/deallocation
// is durable metadata (a journaled allocator), so the live-page map
// survives crashes and recovery can enumerate orphans.
//
// Every operation can fail: the fault points "<prefix>.allocate",
// "<prefix>.read", and "<prefix>.write" inject transient or permanent
// I/O errors, "<prefix>.crash" makes a write or sync die mid-operation,
// crashing the whole disk (the chaos harness then recovers through
// Database::Reopen), and "<prefix>.sync_delay" makes a Sync() slow
// (extra simulated charge) without failing it. The prefix is "disk" for
// a single-node database and "node<k>.disk" for storage node k of a
// sharded one, so per-node fault schedules can target one node. After a
// crash every operation returns kDataLoss until Restart() is called.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/cost_meter.h"
#include "common/status.h"
#include "storage/page.h"
#include "storage/page_store.h"

namespace sqp {

class Counter;

class DiskManager : public PageStore {
 public:
  /// `fault_prefix` namespaces this disk's fault points,
  /// `metric_prefix` its registry counters. The defaults reproduce the
  /// single-node names ("disk.read", "storage.disk.reads", ...).
  /// `node` is baked into the top bits of every id this disk hands out
  /// (0 for a single-node store, see page.h).
  explicit DiskManager(CostMeter* meter, std::string fault_prefix = "disk",
                       std::string metric_prefix = "storage.disk",
                       uint32_t node = 0);

  DiskManager(const DiskManager&) = delete;
  DiskManager& operator=(const DiskManager&) = delete;

  /// Allocate a fresh zeroed page on disk; returns its id. Placement
  /// options are meaningless on a single disk and ignored.
  Result<page_id_t> AllocatePage(const PageAllocOptions& options = {}) override;

  /// Free a page (space returns to the allocator; id is never reused).
  Status DeallocatePage(page_id_t page_id) override;

  /// Copy page contents disk -> out, serving unsynced writes from the
  /// cache and verifying the checksum of a durable image not yet
  /// verified (the bit is set only on a match). Charges one block read.
  /// A checksum mismatch (torn page) returns kDataLoss, on every read.
  Status ReadPage(page_id_t page_id, Page* out) override;

  /// Snapshot a page's current bytes with zero accounting side effects
  /// (no charge, no fault point, no counters): the parallel executors'
  /// lookahead read. The checksum is verified on every peek (the
  /// foreground's verified bits are neither read nor written, so no data
  /// race); a mismatch fails silently (without counting) so the
  /// foreground's replayed ReadPage reports the loss exactly as the
  /// sequential engine would.
  Status PeekPage(page_id_t page_id, Page* out) override;

  /// Copy page contents in -> write cache (volatile until the next
  /// Sync). Charges one block write.
  Status WritePage(page_id_t page_id, const Page& in) override;

  /// Make every cached write durable (fsync barrier): contents reach the
  /// durable image and their checksums are recomputed atomically.
  Status Sync() override;

  /// Power-cut: discard all unsynced writes; the most recent in-flight
  /// write (if any) tears — half of it reaches the durable image with a
  /// stale checksum. Subsequent operations fail with kDataLoss until
  /// Restart().
  void SimulateCrash();

  /// Re-mount after a crash (or a clean close): drops whatever is still
  /// in the volatile cache and clears the crashed flag. The caller
  /// (Database::Reopen) then replays its manifest against the durable
  /// image.
  void Restart();

  bool has_crashed() const { return crashed_; }

  uint64_t allocated_pages() const { return store_.size(); }
  uint64_t live_pages() const { return live_pages_; }
  /// Writes sitting in the volatile cache (lost if we crash now).
  uint64_t unsynced_pages() const { return unsynced_.size(); }
  /// Checksum verification failures served as kDataLoss so far.
  uint64_t checksum_failures() const { return checksum_failures_; }
  /// Pages torn by crashes so far.
  uint64_t torn_pages() const { return torn_pages_; }
  uint64_t sync_count() const { return sync_count_; }

  /// Ids of every live page (recovery uses this to find orphans).
  std::vector<page_id_t> LivePages() const override;

  /// CRC-32 of a freshly allocated (empty) page image, computed once.
  static uint32_t EmptyPageChecksum();

 private:
  /// Strip this disk's node tag; reject ids belonging to another node.
  bool OwnsId(page_id_t page_id) const { return PageNode(page_id) == node_; }

  /// Move one cached write into the durable image with a fresh checksum
  /// (which makes the image verified).
  void MakeDurable(page_id_t local_id, const Page& in);

  CostMeter* meter_;
  uint32_t node_;
  std::vector<std::unique_ptr<Page>> store_;  // durable image, local ids
  std::vector<uint32_t> checksums_;           // sidecar, one per page
  /// Durable image known to match its checksum (foreground thread only).
  std::vector<bool> verified_;
  std::vector<bool> live_;
  /// Volatile write cache: ordered so crash/sync order is deterministic.
  /// Keyed by local id.
  std::map<page_id_t, std::unique_ptr<Page>> unsynced_;
  /// Most recent unsynced write (local id) — the crash-tear candidate.
  page_id_t last_unsynced_write_ = kInvalidPageId;
  bool crashed_ = false;
  uint64_t live_pages_ = 0;
  uint64_t checksum_failures_ = 0;
  uint64_t torn_pages_ = 0;
  uint64_t sync_count_ = 0;
  // Fault-point names, built once from the prefix (hot-path checks must
  // not concatenate strings).
  std::string point_allocate_;
  std::string point_read_;
  std::string point_write_;
  std::string point_crash_;
  std::string point_sync_delay_;
  // Registry handles (DESIGN.md §9), looked up once at construction.
  Counter* m_reads_;
  Counter* m_writes_;
  Counter* m_syncs_;
  Counter* m_checksum_failures_;
  Counter* m_torn_pages_;
  Counter* m_crashes_;
};

}  // namespace sqp
