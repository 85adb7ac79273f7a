#!/usr/bin/env bash
# Golden gate for the deterministic paper benches.
#
# Every file tests/golden/<bench>.txt is the stdout of bench/<bench> at
# SQP_SCALES=s SQP_USERS=3. This script reruns each of those benches (all
# at once, one process each) and diffs its stdout against the golden file,
# so any change to a simulated number fails here. An intended change is
# regenerated with scripts/update_goldens.sh and reviewed as a diff.
#
# Usage: scripts/check_goldens.sh [bench-binary-dir]   (default build/bench)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="${1:-$ROOT/build/bench}"
OUT="$(mktemp -d)"
trap 'rm -rf "$OUT"' EXIT

declare -A pids
for golden in "$ROOT"/tests/golden/*.txt; do
  bench="$(basename "$golden" .txt)"
  if [ ! -x "$BIN/$bench" ]; then
    echo "error: $bench not found in '$BIN'" >&2
    exit 1
  fi
  SQP_SCALES=s SQP_USERS=3 "$BIN/$bench" >"$OUT/$bench.txt" &
  pids[$bench]=$!
done

failed=()
for golden in "$ROOT"/tests/golden/*.txt; do
  bench="$(basename "$golden" .txt)"
  if ! wait "${pids[$bench]}"; then
    echo "FAIL $bench: exited non-zero" >&2
    failed+=("$bench")
  elif ! diff -u "$golden" "$OUT/$bench.txt"; then
    echo "FAIL $bench: stdout differs from tests/golden/$bench.txt" >&2
    failed+=("$bench")
  else
    echo "ok   $bench"
  fi
done
if [ "${#failed[@]}" -ne 0 ]; then
  echo "golden mismatch: ${failed[*]}" >&2
  echo "if the change is intended: scripts/update_goldens.sh $BIN" >&2
  exit 1
fi
