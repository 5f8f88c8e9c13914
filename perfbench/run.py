#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds `perfbench/` (its own Cargo
workspace, depending on the repository's crates by path) into
`$CARGO_TARGET_DIR` (default `.bench_build`), runs the workload, and prints
as its last line one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end set
of `BENCHMARK.json`; with `--trace 1` the per-layer set. Earlier lines carry
the run's stamp (seed, revision, machine fingerprint) and every metric the
run measured. A failed correctness check prints no metrics and exits 1.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
# Workloads that run by hand but are not in BENCHMARK.json: they cannot
# report every end-to-end metric (see README.md, *Workloads*).
BY_HAND = ["controller_sim"]
# Per-layer metrics each workload leaves unmeasured by its definition; with
# `--trace 1` they read 0. Any other metric a run did not produce — a
# percentile withheld for want of samples, say — fails the run.
NOT_EXERCISED = {
    # Noop policy: no allocator, no kills.
    "ingest": {
        "core.allocate_ms_p50", "milp.gap_pp", "recovery_ms_p50",
        "recovery.recover_ms_p50", "recovery.add_worker_ms_p50",
        "transport.daemon_rss_mb",
    },
    "ingest_uds": {
        "core.allocate_ms_p50", "milp.gap_pp", "recovery_ms_p50",
        "recovery.recover_ms_p50", "recovery.add_worker_ms_p50",
    },
    "rebalance": {"transport.daemon_rss_mb"},
    # The simulator: no data plane, transport, checkpoints or kills. Not
    # driven, so the end-to-end metrics it lacks are left out, not zeroed.
    "controller_sim": {
        "throughput_tps", "latency_p99_ms", "latency_p50_ms", "recovery_ms_p50", "runtime.inject_busy_share",
        "runtime.inject_call_us_p50", "runtime.inject_call_us_p99",
        "runtime.settle_ms_p50", "runtime.dropped_tuples", "gen.lag_ms_p99",
        "transport.build_ms", "transport.daemon_rss_mb", "checkpoint.bytes",
        "checkpoint.delta_bytes_max", "checkpoint.spilled_groups_max",
        "recovery.recover_ms_p50", "recovery.tuples_replayed",
        "recovery.groups_restored", "recovery.add_worker_ms_p50",
        "trace.latency_p50_ms_overhead_pct",
    },
}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def git_revision():
    """The checked-out commit, read from `.git` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """SHA-256 over the sources the benchmark builds, so a result names the
    code it measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    roots = [ROOT / "crates", ROOT / "src", ROOT / "vendor", BENCH / "src"]
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml", BENCH / "Cargo.lock"]
    for r in roots:
        files += [p for p in r.rglob("*") if p.is_file()]
    for p in sorted(files):
        if p.exists():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def machine():
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "kernel": platform.release(),
        "arch": platform.machine(),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    try:
        spec = json.loads(spec_path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {spec_path}: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]] + BY_HAND:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed")

    work_dir = os.path.relpath(target / "perfbench-work", ROOT)
    cmd = [str(target / "release" / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")

    stamp = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, "git_rev": git_revision(),
             "source_sha256": source_digest(), "machine": machine()}
    print("# stamp " + json.dumps(stamp))
    measured = result["metrics"]
    report = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
              "failed": int(result["failed"]), "metrics": {}}
    if not report["correct"]:
        for e in result.get("errors", []):
            print(f"perfbench: check failed: {e}", file=sys.stderr)
        print(json.dumps(report))
        sys.exit(1)
    print("# all-metrics " + json.dumps(measured))
    if report["attempted"] < 1:
        fail("no operation was attempted")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    for m in wanted:
        got = measured.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            fail(f"{m['name']}: unit {got['unit']!r}, expected {m['unit']!r}")
        value = None if got is None else got["value"]
        if value is None:
            if m["name"] not in NOT_EXERCISED[args.workload]:
                fail(f"{args.workload} did not measure {m['name']}")
            if not args.trace:
                continue
            value = 0.0
        report["metrics"][m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
