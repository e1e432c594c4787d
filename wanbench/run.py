#!/usr/bin/env python3
"""Build and run the Teal serving benchmark, or compare two result sets.

Run one measurement from the repository root:

    python3 wanbench/run.py --workload solve_1024 --seed 1 --seconds 25 --trace 0 \
        [--out wanbench/out/results.jsonl]

It builds `wanbench/` (a Cargo package of its own) in release mode, runs
it, stamps its record with the machine and settings, prints the stamped
record as one JSON line, and prints the result line last:

    {"correct": true, "attempted": 816, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` metrics of
BENCHMARK.json, with `--trace 1` its `per_layer` metrics. `--out` appends
the stamped record to a JSON-lines file. The exit code is non-zero when a
reply was wrong or a request failed.

Compare two result sets (JSON-lines files written with `--out`):

    python3 wanbench/run.py compare old.jsonl new.jsonl

For each workload and end-to-end metric it prints both sides' medians and
quartiles and the change against the metric's bound in BENCHMARK.json. A
metric whose spread on either side is wider than its bound is "unresolved"
unless every new run beats every old one.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
# The repository sources the benchmark builds against.
SOURCES = ["Cargo.toml", "Cargo.lock", "crates", "vendor"]
# Every run, the build included, must end within this many seconds; the
# first build in a fresh checkout gets the longer limit.
RUN_LIMIT_S = 175
FIRST_BUILD_LIMIT_S = 880


def die(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    try:
        with open(BENCHMARK) as f:
            return json.load(f)
    except OSError as e:
        die(f"cannot read {BENCHMARK}: {e}")


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")


def build():
    """Build the benchmark binary; return its path."""
    missing = [s for s in SOURCES if not os.path.exists(os.path.join(ROOT, s))]
    if missing:
        die(f"repository sources missing ({', '.join(missing)}); run from a full checkout")
    binary = os.path.join(target_dir(), "release", "wanbench")
    limit = RUN_LIMIT_S if os.path.exists(binary) else FIRST_BUILD_LIMIT_S
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=limit)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if done.returncode != 0:
        die(f"build failed with exit code {done.returncode}")
    return binary


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_sha256():
    """Hash of the sources the benchmark measures, so records from
    checkouts without git history can still be matched to a tree."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, s) for s in SOURCES] + [os.path.join(HERE, "src"), os.path.join(HERE, "Cargo.toml")]
    files = []
    for r in roots:
        if os.path.isfile(r):
            files.append(r)
        for dirpath, dirnames, filenames in os.walk(r):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            files.extend(os.path.join(dirpath, f) for f in filenames if f.endswith((".rs", ".toml", ".lock")))
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def stamp():
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "teal_nn_threads": os.environ.get("TEAL_NN_THREADS"),
        "git_commit": command_output(["git", "-C", ROOT, "rev-parse", "HEAD"]) if os.path.isdir(os.path.join(ROOT, ".git")) else None,
        "source_sha256": source_sha256(),
        "rustc": command_output(["rustc", "--version"]),
        "kernel": platform.release(),
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run(args):
    bench = load_benchmark()
    started = time.monotonic()
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace == 1:
        cmd += ["--spans", os.path.join(HERE, "out", f"spans-{args.workload}-seed{args.seed}.jsonl")]
    remaining = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        die(f"benchmark did not finish within {remaining:.0f} s", 1)
    lines = done.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        die(f"benchmark exited with code {done.returncode} and printed no record", 1)

    record["stamp"] = stamp()
    print(json.dumps({"record": record}))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")

    wanted = bench["per_layer" if args.trace == 1 else "end_to_end"]
    metrics, correct = {}, bool(record.get("correct"))
    for spec in wanted:
        got = record["metrics"].get(spec["name"])
        if got is None or got["value"] is None or got["unit"] != spec["unit"]:
            print(f"run.py: metric {spec['name']} missing or in the wrong unit: {got}", file=sys.stderr)
            correct = False
            continue
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }))
    if not correct or done.returncode != 0:
        sys.exit(1)


def read_records(path):
    records = []
    with open(path) as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if line:
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError as e:
                    die(f"{path}:{n}: {e}")
    return records


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


# Headline figures every record carries but BENCHMARK.json does not bound:
# on a shared machine their run-to-run spread exceeds any allowed bound
# (see README.md). `compare` reports them against a nominal bound.
UNBOUNDED = [
    {"name": "latency_ms_p50", "unit": "ms", "better": "lower"},
    {"name": "latency_ms_p90", "unit": "ms", "better": "lower"},
    {"name": "capacity_tms_per_s", "unit": "1/s", "better": "higher"},
]
NOMINAL_BOUND = 0.25


def compare(args):
    bench = load_benchmark()
    sides = [read_records(args.old), read_records(args.new)]
    print(f"{'workload':<12} {'metric':<22} {'old median [q1, q3]':>30} {'new median [q1, q3]':>30} {'worse by':>9} {'bound':>6}  verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        runs = [[r for r in side if r.get("workload") == wl and r.get("trace") == 0] for side in sides]
        invalid = [sum(1 for r in side if not r.get("valid", True) or not r.get("correct")) for side in runs]
        runs = [[r for r in side if r.get("valid", True) and r.get("correct")] for side in runs]
        if not runs[0] or not runs[1]:
            print(f"{wl:<12} (no valid runs on one side: {len(runs[0])} old, {len(runs[1])} new)")
            continue
        for spec in bench["end_to_end"] + UNBOUNDED:
            name, bound = spec["name"], spec.get("bound", NOMINAL_BOUND)
            old = [r["metrics"][name]["value"] for r in runs[0] if name in r["metrics"]]
            new = [r["metrics"][name]["value"] for r in runs[1] if name in r["metrics"]]
            if not old or not new:
                continue
            (om, oq1, oq3, ospread), (nm, nq1, nq3, nspread) = summary(old), summary(new)
            lower = spec["better"] == "lower"
            worse = ((nm - om) if lower else (om - nm)) / om if om else float("inf")
            all_better = (max(new) < min(old)) if lower else (min(new) > max(old))
            if max(ospread, nspread) > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE than bound"
            elif all_better:
                verdict = "better in every run"
            else:
                verdict = "within bound"
            fmt = lambda m, a, b: f"{m:.4g} [{a:.4g}, {b:.4g}] {spec['unit']}"
            if "bound" not in spec:
                verdict += " (no bound)"
            print(f"{wl:<12} {name:<22} {fmt(om, oq1, oq3):>30} {fmt(nm, nq1, nq3):>30} {worse:>+8.1%} {bound:>6}  {verdict}")
        if any(invalid):
            print(f"{wl:<12} (skipped invalid or failed runs: {invalid[0]} old, {invalid[1]} new)")


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--out", help="append the stamped record to this JSON-lines file")
    run(p.parse_args())


if __name__ == "__main__":
    main()
