#!/usr/bin/env python3
"""Diff two bench_json runs and flag regressions.

Usage:
  scripts/bench_compare.py BASELINE CURRENT [--threshold PCT]
                           [--gate REGEX] [--gate-lower REGEX] [--verbose]

BASELINE and CURRENT are either directories holding BENCH_*.json files
(as written by scripts/run_bench_json.sh) or two individual BENCH_*.json
files. The tool parses every `key: number` pair out of each bench's
captured stdout_lines (e.g. "overall improvement: 12.3 %",
"overlap_fraction: 0.800"), scoped by the "--- <scale> dataset" section
headers the benches print, then prints a per-bench delta table.

Exit status:
  0  no gated metric regressed by more than --threshold percent
  1  at least one regression past the threshold, or a bench/metric
     present in the baseline is missing from the current run
  2  usage / IO error

Gated metrics (--gate, default "improvement") are treated as
higher-is-better; a drop of more than --threshold percent (absolute
percentage-points for %-valued metrics, relative otherwise) fails the
comparison. Metrics matching --gate-lower (default
"(^|:: )(recovery|repair|shard_plan)\\." — the simulated recovery,
time-to-redundancy and shard-planning figures of bench_recovery /
bench_shard_plan, section-scoped keys included) are gated
lower-is-better instead: an *increase* past the threshold fails.
Everything else is reported but never fails the run.

One-sided metrics are tolerated: a non-gated metric present only in the
baseline is reported under "removed metrics", one present only in the
current run under "added metrics" — neither fails the comparison, so
benches may grow or drop informational lines between runs. A *gated*
metric missing from the current run still fails.
"""

import argparse
import json
import os
import re
import sys

# "key: 12.3" / "key: 12.3 %" / "key: -0.5s" — key must look like prose
# or a snake_case identifier, value a decimal number.  Multiple pairs
# per line are all captured ("overlap_fraction: 0.800  wasted_ratio: ...").
PAIR_RE = re.compile(
    r"([A-Za-z][A-Za-z0-9_ .()-]*?):\s*(-?\d+(?:\.\d+)?)\s*(%|s\b)?"
)
SECTION_RE = re.compile(r"^---\s*(.+?)\s*---$")


def parse_bench(doc):
    """Extract {metric_key: (value, is_percent)} from one BENCH json doc."""
    metrics = {}
    section = ""
    for raw in doc.get("stdout_lines", []):
        line = raw.strip()
        m = SECTION_RE.match(line)
        if m:
            section = m.group(1)
            continue
        for key, value, unit in PAIR_RE.findall(line):
            name = " ".join(key.strip().lower().split())
            full = f"{section} :: {name}" if section else name
            # Keep the first occurrence per section; benches may repeat
            # a label (e.g. per-bucket rows) and the headline comes first.
            if full not in metrics:
                metrics[full] = (float(value), unit == "%")
    return metrics


def load_run(path):
    """Return {bench_name: metrics} from a dir of BENCH_*.json or one file."""
    files = []
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if f.startswith("BENCH_") and f.endswith(".json")
        )
    elif os.path.isfile(path):
        files = [path]
    if not files:
        raise FileNotFoundError(f"no BENCH_*.json found at {path}")
    run = {}
    for f in files:
        with open(f) as fh:
            doc = json.load(fh)
        run[doc.get("bench", os.path.basename(f))] = parse_bench(doc)
    return run


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="baseline dir or BENCH_*.json file")
    ap.add_argument("current", help="current dir or BENCH_*.json file")
    ap.add_argument(
        "--threshold", type=float, default=5.0,
        help="max allowed regression on gated metrics, percent (default 5)")
    ap.add_argument(
        "--gate", default="improvement",
        help="regex selecting higher-is-better metrics that can fail the "
             "run (default: 'improvement')")
    ap.add_argument(
        "--gate-lower", default=r"(^|:: )(recovery|repair|shard_plan)\.",
        help="regex selecting lower-is-better metrics (times, waste, "
             "scaling ratios) that fail the run when they *rise* "
             r"(default: '(^|:: )(recovery|repair|shard_plan)\.')")
    ap.add_argument(
        "--verbose", action="store_true",
        help="print every parsed metric, not just gated and changed ones")
    args = ap.parse_args()

    try:
        base = load_run(args.baseline)
        curr = load_run(args.current)
    except (FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    gate = re.compile(args.gate)
    gate_lower = re.compile(args.gate_lower)
    failures = []

    for bench in sorted(base):
        if bench not in curr:
            failures.append(f"{bench}: missing from current run")
            print(f"== {bench} ==\n  MISSING from current run")
            continue
        print(f"== {bench} ==")
        b_metrics, c_metrics = base[bench], curr[bench]
        shown = 0
        removed = []
        for key in sorted(b_metrics):
            b_val, is_pct = b_metrics[key]
            gated_hi = bool(gate.search(key))
            gated_lo = bool(gate_lower.search(key))
            gated = gated_hi or gated_lo
            if key not in c_metrics:
                if gated:
                    failures.append(f"{bench}: '{key}' missing from current")
                    print(f"  {key}: {b_val:g} -> MISSING")
                else:
                    removed.append(key)
                continue
            c_val, _ = c_metrics[key]
            # %-valued metrics diff in absolute points; others relatively.
            # Lower-is-better metrics regress on a rise; a baseline of
            # exactly zero regresses on any rise at all (relative delta
            # is undefined, and 0 -> anything is a real slowdown).
            if is_pct:
                delta = c_val - b_val
                delta_str = f"{delta:+.2f} pts"
            else:
                delta = (c_val - b_val) / abs(b_val) * 100 if b_val else 0.0
                delta_str = f"{delta:+.2f} %"
            regressed = (gated_hi and delta < -args.threshold) or (
                gated_lo and (delta > args.threshold
                              or (b_val == 0 and c_val > 0)))
            changed = abs(c_val - b_val) > 1e-12
            if gated or args.verbose or changed:
                flag = "  <-- REGRESSION" if regressed else ""
                print(f"  {key}: {b_val:g} -> {c_val:g}  ({delta_str}){flag}")
                shown += 1
            if regressed:
                failures.append(
                    f"{bench}: '{key}' {b_val:g} -> {c_val:g} ({delta_str})")
        if shown == 0:
            print("  (no gated or changed metrics)")
        added = sorted(set(c_metrics) - set(b_metrics))
        if removed:
            print(f"  removed metrics ({len(removed)}): "
                  f"{', '.join(removed)}")
        if added:
            print(f"  added metrics ({len(added)}): {', '.join(added)}")

    extra = sorted(set(curr) - set(base))
    if extra:
        print(f"new benches (no baseline): {', '.join(extra)}")

    if failures:
        print(f"\n{len(failures)} regression(s) past "
              f"{args.threshold:g}% threshold:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("\nno regressions past threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
