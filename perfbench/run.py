#!/usr/bin/env python3
"""Runs one workload of the ubiqos benchmark and prints its metrics.

    python3 perfbench/run.py --workload steady --seed 484188162 --seconds 30 --trace 0

Builds the worker (`perfbench/`, a Cargo package of its own) from the
checkout, then, until `--seconds` have passed, starts pairs of worker
processes: one that times the benchmark's own reference kernel (how fast
the host runs just now) and one timed run. Each run process sets the
workload up from the seed, makes one timed campaign call and checks its
outputs. Peak RSS is per run process: the kernel's `ru_maxrss` of that one
child, read with `os.wait4`.

The host this was written on slows by up to 2x for seconds to tens of
minutes at a time, from load outside the VM. So `arrivals_per_s` and
`setup_s` scale each run's times by how its reference-kernel pass compares
with that pass on the reference host (CALIB_REF_S), and report the median
over the runs. The header keeps the raw per-run values.

With `--trace 0` the last stdout line reports the end-to-end metrics of
BENCHMARK.json. With `--trace 1` it reports the per-layer metrics of one
extra traced pass, plus the tracing overhead against untraced runs made
in the same invocation. Earlier lines carry the header (commit, nproc,
seed, run count, median and quartiles) and readable tables. See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
DEFAULT_SEED = 0x1CDC2002
HELD_OUT_SEED = 0x5EED2026
# Run i of an invocation uses input seed i % SUB_SEEDS (see input_seeds), so
# one invocation averages over several request traces and fault schedules.
SUB_SEEDS = 4
MIN_RUNS = 2 * SUB_SEEDS
# The reference kernel's fastest pass on the reference host, a 2-core
# 2.0 GHz Xeon VM. Host-speed-scaled metrics read as if measured there.
CALIB_REF_S = 0.035
# Share of --seconds a traced invocation spends on untraced runs, the
# baseline its tracing overhead is measured against.
TRACE_BASELINE_SHARE = 0.4


def fail(message):
    """Exits non-zero without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def build():
    """Builds the worker in release mode and returns its path."""
    for needed in ("Cargo.toml", os.path.join("crates", "runtime", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("building the worker failed")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target")
    return os.path.join(ROOT, target, "release", "ubiqos-perfbench")


def child(binary, args):
    """Runs one worker process; returns (parsed line or None, peak RSS in MiB, exit code)."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read().decode()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return result, usage.ru_maxrss / 1024.0, proc.returncode


def input_seeds(seed):
    """The invocation's input seeds: `seed` itself, then SUB_SEEDS - 1 more
    derived from it."""
    return [(seed + k * 0x9E3779B97F4A7C15) % 2**64 for k in range(SUB_SEEDS)]


def untraced_runs(binary, workload, seed, size, seconds, inject_mismatch):
    """Timed runs until `seconds` have passed (at least MIN_RUNS), cycling
    through the input seeds, each right after a reference-kernel process
    whose time it keeps."""
    seeds = input_seeds(seed)
    runs, errors, reference = [], [], {}
    start = time.monotonic()
    while len(runs) < MIN_RUNS or time.monotonic() - start < seconds:
        n = len(runs)
        run_seed = seeds[n % len(seeds)]
        calib, _, code = child(binary, ["calib"])
        if calib is None or code != 0:
            errors.append(f"run {n}: reference kernel exited {code} without a result")
            runs.append({"seed": run_seed, "arrivals": 0, "failed": True})
            continue
        # The first repeat of a seed, so the corrupted digest has a reference.
        extra = ["--corrupt-digest"] if inject_mismatch and n == len(seeds) else []
        args = ["run", "--workload", workload, "--seed", str(run_seed), "--size", size]
        result, rss_mb, code = child(binary, args + extra)
        if result is None or code != 0:
            errors.append(f"run {n}: worker exited {code} without a result")
            runs.append({"seed": run_seed, "arrivals": 0, "failed": True})
            continue
        result["seed"] = run_seed
        result["calib_s"] = calib["calib_s"]
        result["rss_mb"] = rss_mb
        result["failed"] = bool(result["errors"])
        errors += [f"run {n}: {e}" for e in result["errors"]]
        if result.get("admitted") == 0:
            errors.append(f"run {n}: no arrival admitted")
            result["failed"] = True
        if "fingerprint" in result:
            first = reference.setdefault(run_seed, result["fingerprint"])
            if result["fingerprint"] != first:
                errors.append(
                    f"run {n}: outputs differ from the first run of seed {run_seed} "
                    f"(fingerprint {result['fingerprint']} vs {first})"
                )
                result["failed"] = True
        runs.append(result)
    return runs, errors


def spread(values):
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(runs):
    """End-to-end metrics from the runs that passed every check, and the
    raw per-run samples behind them."""
    good = [r for r in runs if not r["failed"]]
    if not good:
        return {}, {}
    by_seed = {}
    for r in good:
        by_seed.setdefault(r["seed"], []).append(r)
    firsts = [rs[0] for rs in by_seed.values()]

    def scaled(r, key):
        """A run's host seconds, as the reference host would have taken them."""
        return r[key] * CALIB_REF_S / r["calib_s"]

    arrivals = sum(r["arrivals"] for r in firsts)
    admitted = sum(r["admitted"] for r in firsts)
    # One pass over the input seeds, each taking its median scaled call time.
    call_s = sum(statistics.median(scaled(r, "call_s") for r in rs) for rs in by_seed.values())
    raw = {
        "arrivals_per_s": [r["arrivals"] / r["call_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "peak_rss_mb": [r["rss_mb"] for r in good],
        "calib_s": [r["calib_s"] for r in good],
    }
    metrics = {
        "arrivals_per_s": arrivals / call_s,
        "setup_s": statistics.median(scaled(r, "setup_s") for r in good),
        "peak_rss_mb": statistics.median(raw["peak_rss_mb"]),
        "denied_frac": sum(r["denied"] for r in firsts) / arrivals,
        "retained_frac": (admitted - sum(r["dropped"] for r in firsts)) / admitted,
    }
    return metrics, raw


def commit():
    """The checkout's commit when it is a git work tree of its own, else None."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        if os.path.realpath(top) != os.path.realpath(ROOT):
            return None
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_digest():
    """SHA-256 over the sources the worker builds from, for checkouts without git."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for top in (os.path.join(ROOT, "crates"), os.path.join(BENCH_DIR, "src")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def print_table(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, value, unit, extra in rows:
        print(f"  {name:<{width}}  {value:>14.6g} {unit:<10} {extra}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test size")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="corrupt the second run's output digest (smoke test of the check)")
    args = parser.parse_args()

    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    binary = build()

    budget = seconds * (TRACE_BASELINE_SHARE if args.trace else 1.0)
    runs, errors = untraced_runs(binary, args.workload, args.seed, args.size, budget,
                                 args.inject_mismatch)
    e2e, raw = end_to_end(runs)
    stats = {name: spread(values) for name, values in raw.items()}

    header = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "input_seeds": input_seeds(args.seed),
        "size": args.size,
        "pipeline_threads": next((r["pipeline_threads"] for r in runs if "pipeline_threads" in r), None),
        "runs": len(runs),
        "seconds": seconds,
        "trace": args.trace,
        "rss_method": "one worker process per run, ru_maxrss via os.wait4",
        "calib_ref_s": CALIB_REF_S,
        "raw_per_run": stats,
    }

    if args.trace == 0:
        metrics = e2e
        wanted = [m["name"] for m in spec["end_to_end"]]
    else:
        spans_dir = os.path.join(ROOT, ".bench_traces")
        os.makedirs(spans_dir, exist_ok=True)
        spans_file = os.path.join(spans_dir, f"{args.workload}-{args.seed}.json")
        base = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
        traced, _, code = child(binary, ["trace"] + base + ["--spans-out", spans_file])
        metrics = {}
        if traced is None or code != 0:
            errors.append(f"traced pass: worker exited {code} without a result")
        else:
            errors += [f"traced pass: {e}" for e in traced["errors"]]
            metrics = dict(traced["metrics"])
            # The traced pass runs --seed only, so compare it with that seed's runs.
            untraced = [r["call_s"] for r in runs if not r["failed"] and r["seed"] == args.seed]
            if untraced and traced["call_s"] > 0:
                untraced_call_s = statistics.median(untraced)
                metrics["trace.overhead_pct"] = 100.0 * (traced["call_s"] / untraced_call_s - 1.0)
            header["spans_file"] = os.path.relpath(spans_file, ROOT)
            try:
                with open(spans_file, encoding="utf-8") as f:
                    spans = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                errors.append(f"traced pass: cannot read its spans: {e}")
                spans = []
            by_name = {}
            for span in spans:
                agg = by_name.setdefault(span["name"], {"count": 0, "ms": 0.0, "self_ms": 0.0})
                agg["count"] += 1
                agg["ms"] += (span["end_us"] - span["start_us"]) / 1e3
                agg["self_ms"] += span["self_ms"]
            header["spans"] = by_name
        wanted = [m["name"] for m in spec["per_layer"]]

    missing = [name for name in wanted if name not in metrics]
    if errors == [] and missing:
        errors.append(f"metrics not produced: {', '.join(missing)}")
    correct = not errors

    print("header: " + json.dumps(header, sort_keys=True))
    if "spans" in header:
        print_table("traced pass, per span name (total ms; self ms, count):",
                    [(name, s["ms"], "ms", f"self {s['self_ms']:.3f} ms, {s['count']}x")
                     for name, s in header["spans"].items()])
    if metrics:
        rows = []
        for name in wanted:
            if name in metrics:
                s = stats.get(name)
                extra = (f"raw per run: median {s['median']:.6g} q1 {s['q1']:.6g} "
                         f"q3 {s['q3']:.6g} n {s['n']}") if s else ""
                rows.append((name, metrics[name], units[name], extra))
        print_table(f"{args.workload} seed {args.seed}, {len(runs)} untraced runs:", rows)
    for e in errors:
        print(f"CHECK FAILED: {e}")

    attempted = sum(r["arrivals"] for r in runs) or 1
    failed = sum(r["arrivals"] for r in runs if r["failed"])
    if errors and failed == 0:
        failed = attempted
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in wanted if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
