#!/usr/bin/env bash
# Run every bench binary and emit one machine-readable BENCH_<name>.json
# per bench next to the text output, so dashboards and regression
# tooling can consume results without scraping logs.
#
# Each JSON file records the bench name, git revision, run timestamp,
# exit code, the bench environment knobs, and the captured stdout as a
# line array (the benches print aligned text tables; downstream tooling
# parses the lines it cares about).
#
# Usage: scripts/run_bench_json.sh [output-dir] [bench-binary...]
#   output-dir defaults to bench_json/; with no binaries listed, every
#   executable under build/bench/ is run. Bench knobs (SQP_USERS,
#   SQP_SCALES, SQP_SEED) are honored as usual.
#
# Each JSON also records `host_cores` (hardware threads on the machine),
# so bench_compare.py consumers can tell a regression from a comparison
# across differently-sized hosts before trusting wall-clock figures.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-bench_json}"
shift || true
mkdir -p "$OUT_DIR"

BENCHES=("$@")
if [ "${#BENCHES[@]}" -eq 0 ]; then
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    BENCHES+=("$b")
  done
fi
if [ "${#BENCHES[@]}" -eq 0 ]; then
  echo "error: no bench binaries found; build first:" >&2
  echo "  cmake -B build -S . && cmake --build build" >&2
  exit 1
fi

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
TIMESTAMP="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
HOST_CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)"

for bench in "${BENCHES[@]}"; do
  name="$(basename "$bench")"
  echo "=== $name ==="
  stdout_file="$(mktemp)"
  exit_code=0
  "$bench" >"$stdout_file" 2>&1 || exit_code=$?
  cat "$stdout_file"

  json_file="$OUT_DIR/BENCH_${name}.json"
  STDOUT_FILE="$stdout_file" BENCH_NAME="$name" GIT_REV="$GIT_REV" \
  TIMESTAMP="$TIMESTAMP" EXIT_CODE="$exit_code" JSON_FILE="$json_file" \
  HOST_CORES="$HOST_CORES" \
  python3 - <<'PY'
import json
import os

with open(os.environ["STDOUT_FILE"], "r", errors="replace") as f:
    lines = f.read().splitlines()

doc = {
    "bench": os.environ["BENCH_NAME"],
    "git_rev": os.environ["GIT_REV"],
    "timestamp": os.environ["TIMESTAMP"],
    "exit_code": int(os.environ["EXIT_CODE"]),
    "host_cores": int(os.environ.get("HOST_CORES", "0")),
    "env": {
        k: os.environ[k]
        for k in ("SQP_USERS", "SQP_SCALES", "SQP_SEED")
        if k in os.environ
    },
    "stdout_lines": lines,
}
with open(os.environ["JSON_FILE"], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
PY
  rm -f "$stdout_file"
  echo "wrote $json_file (exit $exit_code)"
  if [ "$exit_code" -ne 0 ]; then
    echo "error: $name exited non-zero" >&2
    exit "$exit_code"
  fi
done
echo "all benches done; JSON in $OUT_DIR/"
