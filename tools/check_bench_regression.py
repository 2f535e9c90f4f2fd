#!/usr/bin/env python3
"""Bench regression gate over the --json artifacts of the bench binaries.

Compares one or more freshly produced BENCH_*.json files (the JsonReporter
format: {"bench": ..., "rows": [{"name", "value", "unit"}, ...]}) against
committed baselines and fails (exit 1) when a gated metric regressed by more
than the threshold (default 25%).

Gating policy — what is safe to compare across the heterogeneous CI fleet:

* unit == "x" (ratios: speedups, overhead factors) are host-normalized by
  construction — both sides of the ratio ran on the same machine in the same
  job — so they gate by default.  But their *magnitude* still varies with
  the runner's SIMD width / core count, so the default gate only fails a
  ratio row when it BOTH drops by more than the threshold relative to the
  committed baseline AND falls below 1.0 — i.e. the optimized path actually
  lost to its in-run reference, which is host-independent evidence of a real
  regression.  --strict-ratio restores pure threshold gating (pinned,
  self-hosted runners).
* absolute rows ("s", "us", throughputs) vary with the runner's hardware and
  are reported in the delta summary but only gate under --gate-absolute
  (useful on a pinned, self-hosted runner).  Absolute rows are
  lower-is-better when their unit is a time unit ("s", "us", "ms"), else
  higher-is-better.
* unitless rows (counters like nested_inner_threads) are informational:
  reported, never gated.

Rows present on only one side are reported as added/removed, never fatal —
benches grow rows across PRs and a stale baseline should fail loudly only
for metrics it can actually judge.

Usage:
  check_bench_regression.py --baseline-dir bench/baselines \
      --summary delta_summary.md BENCH_crowd.json BENCH_miniqmc_speedup.json
  check_bench_regression.py --update-baseline --baseline-dir bench/baselines \
      BENCH_crowd.json   # refresh the committed baseline in place
"""

import argparse
import json
import os
import sys

TIME_UNITS = {"s", "us", "ms", "ns"}


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for row in doc.get("rows", []):
        rows[row["name"]] = (float(row["value"]), row.get("unit", ""))
    return doc.get("bench", os.path.basename(path)), rows


def classify(name, unit, current, baseline, threshold, gate_absolute, strict_ratio):
    """Return (status, rel_change) for one row present on both sides.

    rel_change > 0 means improvement, < 0 regression, in the metric's own
    better-direction.
    """
    if unit == "":
        return "info", 0.0
    lower_is_better = unit in TIME_UNITS
    if baseline == 0:
        return "info", 0.0
    if lower_is_better:
        rel = (baseline - current) / baseline
    else:
        rel = (current - baseline) / baseline
    if rel >= -threshold:
        return "ok", rel
    if unit == "x":
        # Past the threshold: on heterogeneous runners only an actual
        # inversion (the paired in-run baseline won) is fatal by default.
        if strict_ratio or current < 1.0:
            return "FAIL", rel
        return "warn", rel
    return ("FAIL" if gate_absolute else "warn"), rel


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("current", nargs="+", help="freshly produced BENCH_*.json files")
    ap.add_argument("--baseline-dir", default="bench/baselines",
                    help="directory holding the committed baseline files (matched by basename)")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="relative regression that fails the gate (default 0.25 = 25%%)")
    ap.add_argument("--gate-absolute", action="store_true",
                    help="also gate absolute (time/throughput) rows — pinned runners only")
    ap.add_argument("--strict-ratio", action="store_true",
                    help="fail ratio rows on the threshold alone, even if still >= 1.0 "
                         "(pinned runners; default additionally requires an inversion)")
    ap.add_argument("--summary", default="",
                    help="write a markdown delta summary to this path (CI artifact)")
    ap.add_argument("--update-baseline", action="store_true",
                    help="copy the current files over the baselines instead of comparing")
    args = ap.parse_args()

    if args.update_baseline:
        os.makedirs(args.baseline_dir, exist_ok=True)
        for path in args.current:
            dst = os.path.join(args.baseline_dir, os.path.basename(path))
            with open(path) as src, open(dst, "w") as out:
                out.write(src.read())
            print(f"baseline updated: {dst}")
        return 0

    failures = []
    ratio_rule = "strict" if args.strict_ratio else "threshold + inversion below 1.0"
    lines = ["# Bench regression summary",
             "",
             f"threshold: {args.threshold:.0%} | ratio (x) gate: {ratio_rule} | "
             + ("absolute rows gated" if args.gate_absolute else "absolute rows report-only"),
             ""]
    for path in args.current:
        base_path = os.path.join(args.baseline_dir, os.path.basename(path))
        bench, cur = load_rows(path)
        lines.append(f"## {bench} ({os.path.basename(path)})")
        lines.append("")
        if not os.path.exists(base_path):
            lines.append(f"*no committed baseline at `{base_path}` — nothing gated*")
            lines.append("")
            print(f"note: no baseline for {path}, skipping")
            continue
        _, base = load_rows(base_path)
        lines.append("| metric | baseline | current | change | status |")
        lines.append("|--------|----------|---------|--------|--------|")
        for name in sorted(set(cur) | set(base)):
            if name not in base:
                value, unit = cur[name]
                lines.append(f"| {name} | — | {value:g} {unit} | new row | info |")
                continue
            if name not in cur:
                value, unit = base[name]
                lines.append(f"| {name} | {value:g} {unit} | — | removed | info |")
                continue
            value, unit = cur[name]
            bvalue, _ = base[name]
            status, rel = classify(name, unit, value, bvalue, args.threshold,
                                   args.gate_absolute, args.strict_ratio)
            change = "" if status == "info" else f"{rel:+.1%}"
            lines.append(f"| {name} | {bvalue:g} {unit} | {value:g} {unit} | {change} | {status} |")
            if status == "FAIL":
                failures.append(f"{bench}:{name} regressed {rel:+.1%} "
                                f"({bvalue:g} -> {value:g} {unit})")
        lines.append("")

    summary = "\n".join(lines)
    if args.summary:
        with open(args.summary, "w") as f:
            f.write(summary + "\n")
    print(summary)

    if failures:
        print("\nFAIL: bench regression gate tripped:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nbench regression gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
