#!/usr/bin/env bash
# Docs gate: drift tests + markdown link check.
#
# Runs the two doc-drift test binaries — fault_points_test (code vs.
# docs/FAULT_POINTS.md) and metrics_catalog_test (code vs.
# docs/METRICS.md) — and then checks that every relative link in the
# repository's markdown files points at a file or directory that
# exists. A link's `#anchor` part is dropped, not checked, and markdown
# files tracked by git but deleted from the working tree are skipped.
# Outside a git checkout (an exported tree or a source tarball) the
# markdown files are found by walking the tree instead.
# External (http/https/mailto) links are not fetched: the gate must stay
# deterministic and offline.
#
# Usage: scripts/check_docs.sh [fault_points_test-binary] [metrics_catalog_test-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

FAULT_BIN="${1:-build/tests/fault_points_test}"
METRICS_BIN="${2:-build/tests/metrics_catalog_test}"

fail=0
for bin in "$FAULT_BIN" "$METRICS_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "error: drift-test binary not found at '$bin'" >&2
    echo "build it first: cmake -B build -S . && cmake --build build -j" >&2
    exit 1
  fi
  echo "=== $(basename "$bin") ==="
  if ! "$bin" --gtest_brief=1; then
    fail=1
  fi
done

echo "=== markdown link check ==="
if ! python3 - <<'PY'
import os
import re
import subprocess
import sys


def markdown_files():
    # Tracked + untracked-but-not-ignored markdown: generated/output
    # trees (build/, bench_json/, ...) are gitignored and never gate the
    # docs.
    try:
        done = subprocess.run(
            ["git", "ls-files", "-c", "-o", "--exclude-standard", "*.md"],
            capture_output=True, text=True,
        )
        if done.returncode == 0:
            return done.stdout.split()
    except OSError:
        pass  # no git binary
    # Not a git checkout: walk the tree, skipping the same generated
    # trees (build*/, bench_json/) and every dot-directory
    # (.bench_build/, .git/, ...).
    files = []
    for root, dirs, names in os.walk("."):
        dirs[:] = sorted(d for d in dirs
                         if not d.startswith((".", "build"))
                         and d != "bench_json")
        files += [os.path.relpath(os.path.join(root, n))
                  for n in sorted(names) if n.endswith(".md")]
    return files


files = markdown_files()

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
broken = []
checked = 0
for path in files:
    if not os.path.exists(path):
        continue  # tracked but deleted in the working tree
    checked += 1
    with open(path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    base = os.path.dirname(path)
    for target in LINK_RE.findall(text):
        if re.match(r"^(https?|mailto):", target):
            continue
        target = target.split("#", 1)[0]
        if not target:
            continue  # pure in-page anchor
        resolved = os.path.normpath(os.path.join(base, target))
        if not os.path.exists(resolved):
            broken.append(f"{path}: {target}")

if broken:
    print("broken relative links:", file=sys.stderr)
    for b in broken:
        print(f"  {b}", file=sys.stderr)
    sys.exit(1)
print(f"checked {checked} markdown files, all relative links resolve")
PY
then
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED" >&2
  exit 1
fi
echo "check_docs: drift tests and link check passed"
