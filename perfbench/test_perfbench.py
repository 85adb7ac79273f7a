#!/usr/bin/env python3
"""Tests for the benchmark's own code.

    python3 perfbench/test_perfbench.py      # from the checkout root

Builds the driver once, then runs every workload once untraced and
twice traced on one seed, three runs at a time (a few minutes on a
4-core host). Checks that metric names are well formed, that every
BENCHMARK.json metric is printed with its unit on every workload, that
simulated outputs and per-layer counts repeat exactly across same-seed
runs, that a traced run leaves every simulated output unchanged, and
that the benchmark fails cleanly without the library sources.
"""
import concurrent.futures
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

SEED = 11
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per-layer metrics measured in wall-clock (or page faults): they vary
# between runs. Every other per-layer metric is an exact count or a
# function of simulated outputs and must repeat.
VARYING = {"setup.minor_faults", "trace_overhead_pct"}


def varies(name):
    return name in VARYING or (name.endswith("_s") and
                               not name.startswith("sim_"))


def parse(stdout):
    """(lines, result) of one driver run."""
    lines = stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    spec = None
    runs = {}  # (workload, trace, attempt) -> (lines, result)

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        run.build()
        jobs = [(w["name"], trace, attempt)
                for w in cls.spec["workloads"]
                for trace, attempt in ((0, 0), (1, 0), (1, 1))]

        def go(job):
            workload, trace, _ = job
            done = subprocess.run(
                [run.DRIVER, "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True, check=True)
            lines, _ = parse(done.stdout)
            return lines, run.check_result(lines[-1], trace)

        with concurrent.futures.ThreadPoolExecutor(max_workers=3) as pool:
            for job, out in zip(jobs, pool.map(go, jobs)):
                cls.runs[job] = out

    def test_metric_names_and_units_are_well_formed(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for key in ("end_to_end", "per_layer"):
            for m in self.spec[key]:
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
        for (_, _, _), (_, result) in self.runs.items():
            for name in result["metrics"]:
                self.assertRegex(name, NAME)

    def test_every_metric_printed_with_its_unit_on_every_workload(self):
        for (workload, trace, _), (lines, result) in self.runs.items():
            key = "per_layer" if trace else "end_to_end"
            want = {m["name"]: m["unit"] for m in self.spec[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            self.assertEqual(got, want, workload)
            printed = {line.split()[1]: line.split()[3] for line in lines
                       if line.startswith("metric ")}
            self.assertEqual(printed, want, workload)

    def test_seed_is_echoed_and_no_operation_fails(self):
        for (workload, _, _), (lines, result) in self.runs.items():
            self.assertIn(f"seed {SEED} ", lines[0], workload)
            self.assertTrue(result["correct"], workload)
            self.assertEqual(result["failed"], 0, workload)
            self.assertGreater(result["attempted"], 0, workload)

    def test_simulated_outputs_and_counts_repeat_exactly(self):
        for w in self.spec["workloads"]:
            first = self.runs[(w["name"], 1, 0)][1]["metrics"]
            second = self.runs[(w["name"], 1, 1)][1]["metrics"]
            for name in first:
                if not varies(name):
                    self.assertEqual(first[name]["value"],
                                     second[name]["value"],
                                     f"{w['name']} {name}")

    def test_tracing_leaves_simulated_outputs_unchanged(self):
        for w in self.spec["workloads"]:
            lines, _ = self.runs[(w["name"], 0, 0)]
            untraced = {line.split()[1]: float(line.split()[2])
                        for line in lines if line.startswith("sim ")}
            traced = self.runs[(w["name"], 1, 0)][1]["metrics"]
            self.assertTrue(untraced)
            for name, value in untraced.items():
                self.assertEqual(traced[name]["value"], value,
                                 f"{w['name']} {name}")

    def test_replay_workloads_exercise_speculation(self):
        for workload in ("single_user", "multi_user"):
            m = self.runs[(workload, 1, 0)][1]["metrics"]
            self.assertGreater(m["engine.manipulations_issued"]["value"], 0)
            self.assertGreater(m["db.execute_calls"]["value"], 0)
        m = self.runs[("load_recover", 1, 0)][1]["metrics"]
        self.assertEqual(m["engine.manipulations_issued"]["value"], 0)
        self.assertGreater(m["sim_recovery_s"]["value"], 0)
        self.assertGreater(m["repair.pages_reprotected"]["value"], 0)

    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "single_user", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
