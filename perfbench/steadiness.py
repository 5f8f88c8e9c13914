#!/usr/bin/env python3
"""Run the benchmark on many seeds and report how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--sets 2] [--workloads a,b]
                                    [--markdown perfbench/STEADINESS.md]

For each set and workload, runs `perfbench/run.py` once per seed (set k uses
seeds k*runs+1 .. (k+1)*runs) and reports, for every metric the runs
measured, the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread `(q3 - q1) / median`.
An end-to-end metric fails when its spread exceeds a third of its bound
(`setup_s` excepted), or when a later set's median is worse than the first
set's by more than the bound. Exits 1 on any failure.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None
    stamp = json.loads(next(l for l in lines if l.startswith("# stamp "))[8:])
    measured = json.loads(next(l for l in lines if l.startswith("# all-metrics "))[14:])
    return stamp, {k: v for k, v in measured.items() if v["value"] is not None}


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--markdown")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else list(why)

    ok = True
    stamp = None
    # results[set][workload][metric] = (values, unit)
    results = []
    for k in range(args.sets):
        per = {}
        for w in workloads:
            metrics = {}
            for seed in range(k * args.runs + 1, (k + 1) * args.runs + 1):
                st, measured = run_once(w, seed, seconds)
                if measured is None:
                    print(f"{w} seed {seed}: run failed")
                    ok = False
                    continue
                stamp = stamp or st
                for name, m in measured.items():
                    metrics.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            per[w] = metrics
        results.append(per)

    out = []
    if args.markdown:
        out += [
            "# Steadiness record",
            "",
            f"Generated by `python3 perfbench/steadiness.py --runs {args.runs} --sets {args.sets}"
            f" --markdown perfbench/STEADINESS.md` ({seconds} s runs, `--trace 0`).",
            f"Machine: {stamp['machine'] if stamp else 'unknown'}; "
            f"revision {stamp['git_rev'] if stamp else 'unknown'} "
            f"(source {stamp['source_sha256'] if stamp else 'unknown'}).",
            "",
            "Set *k* ran seeds *k*·runs+1 … (*k*+1)·runs. Spread is (q3 − q1) / median over one"
            " set; end-to-end metrics (marked with their bound) must keep it under a third of the"
            " bound (`setup_s` excepted), and every later set's median must be no worse than the"
            " first set's by more than the bound. Metrics without a bound are the per-layer and"
            " workload-specific user-facing numbers (see README.md, *Metrics*).",
            "",
        ]
    for w in workloads:
        out.append(f"## {w}\n\n*Why:* {why.get(w, 'run by hand, not driven; see README.md')}\n")
        header = "| metric | unit | bound |"
        for k in range(args.sets):
            header += f" set {k + 1} median | q1 | q3 | spread |"
        out.append(header)
        out.append("|" + "---|" * (3 + 4 * args.sets))
        for name, (vals, unit) in results[0][w].items():
            bound = e2e.get(name, {}).get("bound")
            row = f"| {name} | {unit} | {bound if bound is not None else ''} |"
            first = None
            flags = []
            for k in range(args.sets):
                vs = results[k][w].get(name, ([], unit))[0]
                if len(vs) < 2:
                    row += " – | – | – | – |"
                    continue
                med, q1, q3, spread = summarize(vs)
                row += f" {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} |"
                if bound is None:
                    continue
                if name != "setup_s" and spread > bound / 3:
                    flags.append(f"set {k + 1} spread {spread:.3f} > bound/3")
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if e2e[name]["better"] == "lower" \
                        else (first - med) / first
                    if worse > bound:
                        flags.append(f"set {k + 1} median worse by {worse:.3f}")
            if flags:
                ok = False
                row += " **" + "; ".join(flags) + "**"
            out.append(row)
        out.append("")
    text = "\n".join(out)
    print(text)
    if args.markdown:
        Path(args.markdown).write_text(text)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
