#!/usr/bin/env python3
"""Splice bench_output.txt sections into EXPERIMENTS.md.

Each `<!-- RESULTS:key -->` marker in EXPERIMENTS.md is replaced by the
corresponding bench's output (fenced as a code block). Idempotent: the
spliced block is wrapped in begin/end markers and regenerated in place.
Figures 4 and 5 come from one bench run: `fig4` takes its output up to
the `=== Figure 5` header line and `fig5` the rest.
"""
import re
import sys

BENCH_FOR_KEY = {
    "think_time": "bench_think_time",
    "fig4": "bench_fig4_improvement",
    "fig5": "bench_fig4_improvement",
    "fig6": "bench_fig6_matviews",
    "fig7": "bench_fig7_multiuser",
    "ablation": "bench_ablation_manipulations",
    "memory": "bench_memory_resident",
    "cost_model": "bench_cost_model",
    "micro": "bench_engine_micro",
}


FIG5_HEADER = "=== Figure 5"


def split_fig4_fig5(text):
    """(fig4 part, fig5 part) of bench_fig4_improvement's output."""
    at = text.find("\n" + FIG5_HEADER)
    if at < 0:
        return text, ""
    return text[:at].strip(), text[at:].strip()


def bench_sections(output_path):
    sections = {}
    current = None
    for line in open(output_path):
        # `===== build/bench/x =====`, optionally with a suffix such as
        # ` (SQP_USERS=15)` (scripts/run_paper_experiments.sh).
        m = re.match(r"^===== .*/(\w+)(?: \(.*\))? =====$", line)
        if m:
            current = m.group(1)
            sections[current] = []
        elif current:
            sections[current].append(line.rstrip("\n"))
    return {k: "\n".join(v).strip() for k, v in sections.items()}


def main():
    bench_out = sys.argv[1] if len(sys.argv) > 1 else "bench_output.txt"
    md_path = sys.argv[2] if len(sys.argv) > 2 else "EXPERIMENTS.md"
    sections = bench_sections(bench_out)
    text = open(md_path).read()

    for key, bench in BENCH_FOR_KEY.items():
        if bench not in sections:
            print(f"warning: {bench} missing from {bench_out}")
            continue
        body = sections[bench]
        if key in ("fig4", "fig5"):
            body = split_fig4_fig5(body)[key == "fig5"]
        block = (f"<!-- RESULTS:{key} -->\n```\n{body}\n```\n"
                 f"<!-- /RESULTS:{key} -->")
        # Replace either the bare marker or a previously spliced block.
        spliced = re.compile(
            r"<!-- RESULTS:" + key + r" -->.*?<!-- /RESULTS:" + key +
            r" -->", re.S)
        if spliced.search(text):
            text = spliced.sub(lambda _: block, text)
        else:
            text = text.replace(f"<!-- RESULTS:{key} -->", block)

    open(md_path, "w").write(text)
    print(f"updated {md_path} from {bench_out}")


if __name__ == "__main__":
    main()
