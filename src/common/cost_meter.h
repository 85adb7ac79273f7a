// Simulated-time accounting.
//
// The paper measures elapsed execution time on a real machine (dual P-II,
// Oracle 8i). Our substrate charges simulated seconds instead: every
// buffer-pool miss costs io_seconds_per_block, every tuple that flows
// through an executor costs cpu_seconds_per_tuple. This makes replays
// deterministic while preserving the ratios the experiments depend on
// (think time vs. materialization time vs. query time). See DESIGN.md §6.
#pragma once

#include <cstdint>

namespace sqp {

/// Cost-rate configuration shared by a Database instance.
struct CostConfig {
  /// Simulated seconds charged per page read from or written to "disk"
  /// (i.e., per buffer-pool miss / flush). 5 ms ~ a 2003-era random read.
  double io_seconds_per_block = 5e-3;
  /// Simulated seconds charged per tuple processed by an executor.
  double cpu_seconds_per_tuple = 4e-6;
  /// Memory budget of one hash join (pages). When the build side
  /// exceeds it, the join runs as a Grace hash join: both inputs are
  /// partitioned to disk and re-read, charging one extra write+read
  /// pass. 2003-era servers joined 100MB-1GB tables with a few MB of
  /// hash area — the spill I/O is what makes pre-joined materialized
  /// views competitive for large queries (paper Figure 6).
  uint64_t hash_join_memory_pages = 128;
};

/// Accumulates I/O and CPU work; converts to simulated seconds.
class CostMeter {
 public:
  explicit CostMeter(CostConfig config = CostConfig()) : config_(config) {}

  void ChargeBlockRead(uint64_t blocks = 1) { blocks_read_ += blocks; }
  void ChargeBlockWrite(uint64_t blocks = 1) { blocks_written_ += blocks; }
  void ChargeTuples(uint64_t tuples = 1) { tuples_ += tuples; }

  uint64_t blocks_read() const { return blocks_read_; }
  uint64_t blocks_written() const { return blocks_written_; }
  uint64_t tuples_processed() const { return tuples_; }

  double ElapsedSeconds() const {
    return (blocks_read_ + blocks_written_) * config_.io_seconds_per_block +
           tuples_ * config_.cpu_seconds_per_tuple;
  }

  void Reset() {
    blocks_read_ = 0;
    blocks_written_ = 0;
    tuples_ = 0;
  }

  const CostConfig& config() const { return config_; }

 private:
  CostConfig config_;
  uint64_t blocks_read_ = 0;
  uint64_t blocks_written_ = 0;
  uint64_t tuples_ = 0;
};

/// RAII scope that snapshots a meter and reports the delta, used to
/// time a single query or manipulation within a long-lived Database.
class CostScope {
 public:
  explicit CostScope(const CostMeter& meter)
      : meter_(meter),
        blocks0_(meter.blocks_read() + meter.blocks_written()),
        tuples0_(meter.tuples_processed()),
        seconds0_(meter.ElapsedSeconds()) {}

  double ElapsedSeconds() const {
    return meter_.ElapsedSeconds() - seconds0_;
  }
  uint64_t ElapsedBlocks() const {
    return meter_.blocks_read() + meter_.blocks_written() - blocks0_;
  }
  uint64_t ElapsedTuples() const {
    return meter_.tuples_processed() - tuples0_;
  }

 private:
  const CostMeter& meter_;
  uint64_t blocks0_;
  uint64_t tuples0_;
  double seconds0_;
};

}  // namespace sqp
