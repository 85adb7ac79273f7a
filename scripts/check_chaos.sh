#!/usr/bin/env bash
# Run the chaos test under distinct fault-schedule base seeds.
#
# Each chaos_test invocation internally replays 10 seeds starting at
# SQP_CHAOS_SEED, so the default sweep of 10 base seeds covers 100
# randomized fault schedules (SQP_SWEEP_SEEDS scales the base-seed
# count; the nightly CI uses 100 -> 1000 schedules). Every schedule
# must leave final query results bit-identical to a no-speculation run
# and restore the disk's live-page count.
#
# When a second binary is given (exec_batch_test), each seed also runs
# the batch-size differential under the same fault schedules, asserting
# exact 1-row and 1024-row batches stay bit-identical (results AND
# simulated charges) while storage faults fire.
#
# Every seed runs even after a failure; failed seeds are listed at the
# end and the script exits non-zero, so one failure cannot mask another.
#
# Usage: scripts/check_chaos.sh [chaos_test-binary] [exec_batch_test-binary]
set -euo pipefail

BIN="${1:-build/tests/chaos_test}"
BATCH_BIN="${2:-}"
if [ ! -x "$BIN" ]; then
  echo "error: chaos_test binary not found at '$BIN'" >&2
  echo "build it first: cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi
if [ -n "$BATCH_BIN" ] && [ ! -x "$BATCH_BIN" ]; then
  echo "error: exec_batch_test binary not found at '$BATCH_BIN'" >&2
  exit 1
fi

SWEEP_SEEDS="${SQP_SWEEP_SEEDS:-10}"
failed_seeds=()
for ((i = 0; i < SWEEP_SEEDS; i++)); do
  seed=$((1 + i * 100))
  echo "=== chaos sweep: base seed $seed ==="
  if ! SQP_CHAOS_SEED="$seed" "$BIN" \
      --gtest_filter='ChaosReplayTest.*' --gtest_brief=1; then
    failed_seeds+=("$seed")
  fi
  if [ -n "$BATCH_BIN" ]; then
    if ! SQP_CHAOS_SEED="$seed" "$BATCH_BIN" \
        --gtest_filter='*FaultScheduleBitIdentical*' --gtest_brief=1; then
      failed_seeds+=("$seed(batch)")
    fi
  fi
done

if [ "${#failed_seeds[@]}" -gt 0 ]; then
  echo "check_chaos: FAILED seeds: ${failed_seeds[*]}" >&2
  exit 1
fi
echo "check_chaos: all $SWEEP_SEEDS seed sweeps passed"
