#!/usr/bin/env python3
"""SLO health report over telemetry artifacts (DESIGN.md §16).

Consumes the artifacts the benches and replay tools already emit --
OpenMetrics snapshots (``--metrics-prom`` / ``SQP_METRICS_PROM``),
timeline series dumps (``--timeline-series`` / ``SQP_TIMELINE_CSV``),
and ``BENCH_*.json`` capture files from ``run_bench_json.sh`` -- and
evaluates a fixed set of service-level objectives:

  query_latency_p99       p99 of attr.query.seconds (simulated s)
  maintenance_p99         p99 of attr.maintenance.seconds -- the
                          inclusive duration of recovery/repair passes
  plan_q_error_mean       mean of exec.plan.q_error
  learner_brier           spec.learner.brier gauge
  telemetry_dropped       telemetry.ticks_dropped (ring-buffer overflow)

Every input is a deterministic function of the replay seed, so the
report is pass/fail-stable in CI: same commit + same seed -> same
verdict. Objectives whose inputs are absent (e.g. no speculative run ->
no spec.learner.brier) are reported as SKIP, not failures.

Usage:
  scripts/slo_report.py [--prom FILE]... [--timeline FILE]...
                        [--bench-json DIR] [-o REPORT.md]
                        [--slo NAME=THRESHOLD]...

Exit code: 0 when no objective fails, 1 otherwise (CI runs this
non-blocking and publishes the report as an artifact).
"""

import argparse
import glob
import json
import math
import os
import re
import sys

# name -> (default threshold, comparator, description)
DEFAULT_SLOS = {
    "query_latency_p99": (300.0, "<=", "p99 attr.query.seconds (sim s)"),
    "maintenance_p99": (300.0, "<=",
                        "p99 attr.maintenance.seconds: recovery/repair"),
    "plan_q_error_mean": (8.0, "<=", "mean exec.plan.q_error"),
    "learner_brier": (0.35, "<=",
                      "spec.learner.brier (0.25 = chance; small-cohort "
                      "CI runs sit slightly above it)"),
    "telemetry_dropped": (0.0, "<=", "telemetry.ticks_dropped"),
}


def parse_openmetrics(path):
    """Parse an OpenMetrics text file into {name: value} samples.

    Histogram buckets land as (name, le) -> cumulative count under the
    "buckets" key; _sum/_count/_total suffixes stay on the sample name.
    """
    samples = {}
    buckets = {}  # metric -> [(le, cumulative count)]
    line_re = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")
    for line in open(path, encoding="utf-8"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = line_re.match(line)
        if not m:
            continue
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        try:
            v = float(value)
        except ValueError:
            continue
        if name.endswith("_bucket"):
            le = re.search(r'le="([^"]*)"', labels)
            if le:
                edge = math.inf if le.group(1) == "+Inf" else float(
                    le.group(1))
                buckets.setdefault(name[:-len("_bucket")], []).append(
                    (edge, v))
            continue
        samples[name] = v
    samples["__buckets__"] = buckets
    return samples


def merge_metrics(files):
    """Merge several OpenMetrics files: last writer wins per sample.

    The benches each dump one snapshot; passing several reports on the
    union (e.g. fig7 plus a recovery-heavy replay).
    """
    merged = {"__buckets__": {}}
    for path in files:
        s = parse_openmetrics(path)
        b = s.pop("__buckets__")
        merged.update(s)
        merged["__buckets__"].update(b)
    return merged


def histogram_percentile(buckets, q):
    """Percentile from cumulative (le, count) pairs, interpolated."""
    if not buckets:
        return None
    buckets = sorted(buckets)
    total = buckets[-1][1]
    if total <= 0:
        return None
    target = q * total
    prev_edge, prev_count = 0.0, 0.0
    for edge, count in buckets:
        if count >= target:
            if math.isinf(edge):
                return prev_edge  # overflow bucket: pin to last edge
            span = count - prev_count
            frac = (target - prev_count) / span if span > 0 else 0.0
            return prev_edge + frac * (edge - prev_edge)
        prev_edge, prev_count = edge, count
    return prev_edge


def timeline_health(paths):
    """Scan timeline CSV dumps: tick counts and monotonicity breaks.

    Returns (ticks, monotonicity_violations). Counters must never show
    a negative delta; a violation means the sampler or a reset leaked
    into a dump that claims to be deterministic.
    """
    # Gauge families whose names would otherwise trip the counter-ish
    # pattern below: speculative-cache occupancy shrinks at GC/eviction
    # and the active-job gauge falls as jobs drain.
    gauge_re = re.compile(r"^(spec\.cache\.|sim\.active_jobs$|"
                          r"attr\.sessions$|telemetry\.series$)")
    ticks = set()
    violations = 0
    for path in paths:
        with open(path, encoding="utf-8") as f:
            header = f.readline().strip().split(",")
            try:
                i_tick = header.index("tick")
                i_series = header.index("series")
                i_delta = header.index("delta")
            except ValueError:
                continue
            for line in f:
                parts = line.rstrip("\n").split(",")
                if len(parts) <= max(i_tick, i_series, i_delta):
                    continue
                ticks.add((path, parts[i_tick]))
                series = parts[i_series]
                # Gauges may legitimately fall; counter families the
                # engine owns must not.
                if gauge_re.match(series):
                    continue
                if series.endswith((".count", ".sum")) or \
                        re.search(r"(reads|writes|hits|misses|pages|ticks|"
                                  r"jobs_|runs|blocks|tuples)", series):
                    try:
                        if float(parts[i_delta]) < -1e-9:
                            violations += 1
                    except ValueError:
                        pass
    return len(ticks), violations


def bench_json_signals(bench_dir):
    """Scrape q-error / brier / improvement lines from BENCH_*.json."""
    out = {}
    for path in sorted(glob.glob(os.path.join(bench_dir, "BENCH_*.json"))):
        try:
            doc = json.load(open(path, encoding="utf-8"))
        except (OSError, ValueError):
            continue
        for line in doc.get("stdout_lines", []):
            m = re.search(r"plan q-error \(mean\):\s*([0-9.]+)", line)
            if m:
                out.setdefault("plan_q_error_mean", []).append(
                    float(m.group(1)))
            m = re.search(r"learner brier:\s*([0-9.]+)", line)
            if m:
                out.setdefault("learner_brier", []).append(float(m.group(1)))
    return out


def evaluate(metrics, timeline_paths, bench_dir, thresholds):
    """Compute every objective; returns [(name, value, verdict)]."""
    buckets = metrics.get("__buckets__", {})
    rows = []

    def add(name, value):
        threshold, op, _ = thresholds[name]
        if value is None:
            rows.append((name, None, "SKIP"))
            return
        ok = value <= threshold if op == "<=" else value >= threshold
        rows.append((name, value, "PASS" if ok else "FAIL"))

    add("query_latency_p99",
        histogram_percentile(buckets.get("attr_query_seconds", []), 0.99))
    add("maintenance_p99",
        histogram_percentile(buckets.get("attr_maintenance_seconds", []),
                             0.99))

    q_sum = metrics.get("exec_plan_q_error_sum")
    q_count = metrics.get("exec_plan_q_error_count")
    q_mean = q_sum / q_count if q_sum is not None and q_count else None
    if q_mean is None and bench_dir:
        vals = bench_json_signals(bench_dir).get("plan_q_error_mean")
        q_mean = max(vals) if vals else None
    add("plan_q_error_mean", q_mean)

    brier = metrics.get("spec_learner_brier")
    if brier is None and bench_dir:
        vals = bench_json_signals(bench_dir).get("learner_brier")
        brier = max(vals) if vals else None
    add("learner_brier", brier)

    add("telemetry_dropped", metrics.get("telemetry_ticks_dropped_total"))

    if timeline_paths:
        ticks, violations = timeline_health(timeline_paths)
        rows.append(("timeline_ticks", float(ticks), "INFO"))
        rows.append(("timeline_monotonicity_violations", float(violations),
                     "PASS" if violations == 0 else "FAIL"))
    return rows


def format_report(rows, thresholds):
    lines = ["# SLO health report", ""]
    lines.append("| objective | value | threshold | verdict |")
    lines.append("|---|---|---|---|")
    for name, value, verdict in rows:
        if name in thresholds:
            threshold, op, desc = thresholds[name]
            bound = "%s %g" % (op, threshold)
        else:
            bound, desc = "-", ""
        shown = "-" if value is None else "%.4g" % value
        lines.append("| `%s` | %s | %s | %s |" % (name, shown, bound,
                                                  verdict))
    lines.append("")
    for name, _, _ in rows:
        if name in thresholds:
            lines.append("* `%s` — %s" % (name, thresholds[name][2]))
    lines.append("")
    failed = [name for name, _, v in rows if v == "FAIL"]
    skipped = [name for name, _, v in rows if v == "SKIP"]
    lines.append("**%s** (%d failed, %d skipped)" %
                 ("FAIL" if failed else "PASS", len(failed), len(skipped)))
    lines.append("")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--prom", action="append", default=[],
                        help="OpenMetrics snapshot file (repeatable)")
    parser.add_argument("--timeline", action="append", default=[],
                        help="timeline series CSV dump (repeatable)")
    parser.add_argument("--bench-json", default=None,
                        help="directory of BENCH_*.json capture files")
    parser.add_argument("--slo", action="append", default=[],
                        metavar="NAME=THRESHOLD",
                        help="override an objective threshold")
    parser.add_argument("-o", "--output", default=None,
                        help="write the markdown report here (else stdout)")
    args = parser.parse_args()

    thresholds = dict(DEFAULT_SLOS)
    for override in args.slo:
        name, _, value = override.partition("=")
        if name not in thresholds or not value:
            parser.error("unknown --slo %r (objectives: %s)" %
                         (override, ", ".join(sorted(thresholds))))
        old = thresholds[name]
        thresholds[name] = (float(value), old[1], old[2])

    metrics = merge_metrics(args.prom) if args.prom else {"__buckets__": {}}
    rows = evaluate(metrics, args.timeline, args.bench_json, thresholds)
    report = format_report(rows, thresholds)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(report)
        print("wrote %s" % args.output)
    sys.stdout.write(report)
    return 1 if any(v == "FAIL" for _, _, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
