#!/usr/bin/env python3
"""Check that update_experiments.py splices suffixed bench headers.

Builds a synthetic two-bench output whose section headers carry the
` (SQP_USERS=15)` suffix scripts/run_paper_experiments.sh writes, with
the `=== Figure 5` split inside bench_fig4_improvement's section, and a
markdown file holding stale fig4, fig5 and fig7 blocks. Runs
update_experiments.py on copies of both in a temporary directory and
exits non-zero unless every block was replaced by its bench's output.

    python3 scripts/check_update_experiments.py
"""
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
SCRIPT = os.path.join(HERE, "update_experiments.py")

BENCH_OUTPUT = """\
===== build/bench/bench_fig4_improvement (SQP_USERS=15) =====
=== Figure 4: fresh fig4 table ===
fig4 row 1
=== Figure 5: fresh fig5 table ===
fig5 row 1
===== build/bench/bench_fig7_multiuser (SQP_USERS=15) =====
=== Figure 7: fresh fig7 table ===
fig7 row 1
"""

MARKDOWN = """\
# Results

<!-- RESULTS:fig4 -->
```
stale fig4
```
<!-- /RESULTS:fig4 -->

<!-- RESULTS:fig5 -->
```
stale fig5
```
<!-- /RESULTS:fig5 -->

<!-- RESULTS:fig7 -->
```
stale fig7
```
<!-- /RESULTS:fig7 -->
"""


def block(text, key):
    begin = f"<!-- RESULTS:{key} -->"
    end = f"<!-- /RESULTS:{key} -->"
    if begin not in text or end not in text:
        return None
    return text[text.index(begin) + len(begin):text.index(end)]


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "paper_bench_output.txt")
        md_path = os.path.join(tmp, "EXPERIMENTS.md")
        with open(out_path, "w") as f:
            f.write(BENCH_OUTPUT)
        with open(md_path, "w") as f:
            f.write(MARKDOWN)
        done = subprocess.run([sys.executable, SCRIPT, out_path, md_path],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        print(done.stdout, end="")
        if done.returncode != 0:
            print(f"FAIL: update_experiments.py exited {done.returncode}")
            return 1
        with open(md_path) as f:
            text = f.read()

    want = {
        "fig4": ("fig4 row 1", "fig5 row 1"),
        "fig5": ("fig5 row 1", "fig4 row 1"),
        "fig7": ("fig7 row 1", None),
    }
    failures = []
    for key, (present, absent) in want.items():
        body = block(text, key)
        if body is None:
            failures.append(f"{key}: markers missing")
        elif "stale" in body:
            failures.append(f"{key}: block not replaced")
        elif present not in body:
            failures.append(f"{key}: lacks '{present}'")
        elif absent is not None and absent in body:
            failures.append(f"{key}: holds '{absent}'")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("OK: suffixed headers spliced into fig4, fig5 and fig7")
    return 0


if __name__ == "__main__":
    sys.exit(main())
