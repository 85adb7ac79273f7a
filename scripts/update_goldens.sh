#!/usr/bin/env bash
# Regenerate the golden files that scripts/check_goldens.sh diffs against:
# reruns bench/<bench> at SQP_SCALES=s SQP_USERS=3 for every existing
# tests/golden/<bench>.txt and overwrites it with the bench's stdout.
# To pin another bench, create an empty tests/golden/<bench>.txt first.
#
# Usage: scripts/update_goldens.sh [bench-binary-dir]   (default build/bench)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BIN="${1:-$ROOT/build/bench}"

for golden in "$ROOT"/tests/golden/*.txt; do
  bench="$(basename "$golden" .txt)"
  SQP_SCALES=s SQP_USERS=3 "$BIN/$bench" >"$golden.tmp"
  mv "$golden.tmp" "$golden"
  echo "updated tests/golden/$bench.txt"
done
