#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 30 --trace 0

Run from the repository root. The script builds the benchmark package
(`perfbench/Cargo.toml`, release profile) into `$CARGO_TARGET_DIR`
(default `.bench_build`), then starts the benchmark binary once per
iteration, each time in a fresh process, until `--seconds` have passed.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
alternates untraced and traced iterations and prints the per-layer
metrics of the traced ones. The last line of standard output is one
JSON object: `{"correct", "attempted", "failed", "metrics"}`.

The exit code is 0 when every output check passed, 1 when one failed
and 2 when the benchmark could not run at all (for example when the
repository's crates are missing, so the build fails).

`--write-digests` runs every workload once at the default seed and
rewrites `perfbench/digests.json`; use it only after a change that is
meant to change the simulator's outputs.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("coverage", "timing", "stream")
DEFAULT_SEED = 1
# Worker threads per workload, passed explicitly (never a library
# default): `coverage` and `timing` run on one thread, `stream` runs
# the in-process pool with one worker per vCPU of the 2-vCPU host.
THREADS = {"coverage": 1, "timing": 1, "stream": 2}
# Knobs that change what the simulator does; cleared for every run.
CLEARED_ENV = ("LTC_CHECKPOINT_DIR", "LTC_NO_WARM_IMAGES", "LTC_FAULT_INJECT", "LTC_DEBUG_STREAM")
# A run always makes at least this many iterations, even past --seconds.
MIN_ITERATIONS = 6
# An iteration that takes longer than this is killed and counted failed.
ITERATION_TIMEOUT_S = 60.0

# Per-layer metrics of the traced run and their units. A layer a
# workload does not reach reads 0 (for example `predictor.self_s` on
# `stream`). README.md says which end-to-end metric each should move.
PER_LAYER = {
    "trace.self_s": "s",
    "trace.accesses": "count",
    "predictor.self_s": "s",
    "predictor.lt-cords.self_s": "s",
    "predictor.dbcp.self_s": "s",
    "predictor.calls": "count",
    "predictor.requests": "count",
    "predictor.applied": "count",
    "predictor.useful_ratio": "ratio",
    "predictor.memory_bytes": "bytes",
    "coverage.loop_self_s": "s",
    "timing.self_s": "s",
    "timing.cycles": "count",
    "timing.instructions": "count",
    "cache.base_l1_misses": "count",
    "cache.base_l2_misses": "count",
    "stream.loop_self_s": "s",
    "sketch.evictions": "count",
    "sketch.memory_bytes": "bytes",
    "engine.checkpoints_s": "s",
    "engine.execute_s": "s",
    "engine.queue_wait_s": "s",
    "engine.busy_frac": "ratio",
    "engine.specs": "count",
    "engine.retries": "count",
    "segment.restore.warm_image": "count",
    "segment.restore.checkpoint": "count",
    "segment.restore.replay": "count",
    "other.self_s": "s",
    "traced.wall_s": "s",
    "telemetry.overhead_frac": "ratio",
    "host.probe_s": "s",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "maccess_per_s": "Maccess/s",
    "peak_rss_mb": "MiB",
    "ok_frac": "ratio",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Builds the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(f"build failed with exit code {done.returncode}")
        return None
    exe = os.path.join(target_dir(), "release", "perfbench")
    return exe if os.path.isfile(exe) else None


def clean_env():
    env = dict(os.environ)
    for name in CLEARED_ENV:
        env.pop(name, None)
    return env


def spawn(args, env):
    """Runs one child to completion; returns (exit code, stdout, rusage).

    `os.wait4` gives the child's own CPU time and peak resident set.
    """
    child = subprocess.Popen(args, stdout=subprocess.PIPE, env=env)
    timer = threading.Timer(ITERATION_TIMEOUT_S, child.kill)
    timer.start()
    try:
        out = child.stdout.read()
        child.stdout.close()
        _, status, usage = os.wait4(child.pid, 0)
    finally:
        timer.cancel()
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, out.decode("utf-8", "replace"), usage


def probe(exe, env):
    code, out, _ = spawn([exe, "probe"], env)
    if code != 0:
        raise RuntimeError(f"host probe exited with {code}")
    return json.loads(out)["probe_s"]


def iteration(exe, env, workload, seed, spans):
    """One run of the workload in a fresh process."""
    args = [exe, "run", workload, "--seed", str(seed), "--threads", str(THREADS[workload])]
    if spans:
        args += ["--spans", spans]
    code, out, usage = spawn(args, env)
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        result = None
    if code != 0 or result is None:
        return {"crashed": f"exit code {code}"}
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    result["maccess_per_s"] = result["accesses"] / result["wall_s"] / 1e6
    return result


def digest(report):
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


def failed_ops(results, workload, seed):
    """The failed operations of a run, as {(iteration, spec label): why}.

    An operation fails the program's own checks (reported by the
    binary), or its report differs between iterations of one seed, or,
    at the default seed, its report's digest differs from
    `digests.json`. A crashed iteration fails as a whole (label "*").
    """
    failed = {}
    expected = None
    if seed == DEFAULT_SEED:
        with open(DIGESTS) as f:
            expected = json.load(f)[workload]
    first = None
    for i, r in enumerate(results):
        if "crashed" in r:
            failed[(i, "*")] = f"iteration crashed: {r['crashed']}"
            continue
        for why in r["failures"]:
            failed.setdefault((i, why.split(": ", 1)[0]), why)
        digests = {label: digest(text) for label, text in r["reports"].items()}
        first = first or digests
        for label in sorted(set(digests) | set(first)):
            if digests.get(label) != first.get(label):
                failed.setdefault((i, label), f"{label}: report differs between iterations")
        for label in sorted(set(digests) | set(expected or {})) if expected is not None else ():
            if digests.get(label) != expected.get(label):
                failed.setdefault((i, label), f"{label}: report digest differs from digests.json")
    return failed


# How a run turns its iterations into one value per metric. The host
# runs at speeds up to 2x apart in phases of 0.5 s to 20 s, and CPU time
# tracks wall time through them (README.md, "Host noise"). The fastest
# of a run's 80 to 140 short iterations moves far less from run
# to run, while the median moves with the share of slow phases a run
# happened to sample. Peak memory does not depend on host speed: median.
BEST = {"wall_s": min, "setup_s": min, "cpu_s": min, "maccess_per_s": max,
        "peak_rss_mb": statistics.median}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if not args.write_digests and args.workload is None:
        parser.error("--workload is required")

    exe = build()
    if exe is None:
        return 2
    env = clean_env()
    log("cleared " + ", ".join(f"{n} ({'was set' if n in os.environ else 'unset'})" for n in CLEARED_ENV))

    if args.write_digests:
        table = {}
        for workload in WORKLOADS:
            r = iteration(exe, env, workload, DEFAULT_SEED, None)
            if "crashed" in r or r["failures"]:
                log(f"{workload}: cannot record digests: {r.get('crashed') or r['failures']}")
                return 1
            table[workload] = {label: digest(text) for label, text in sorted(r["reports"].items())}
        with open(DIGESTS, "w") as f:
            json.dump(table, f, indent=2, sort_keys=True)
            f.write("\n")
        log(f"wrote {DIGESTS}")
        return 0

    spans = None
    if args.trace:
        os.makedirs(os.path.join(target_dir(), "perfbench"), exist_ok=True)
        spans = os.path.join(target_dir(), "perfbench", f"spans-{args.workload}.jsonl")

    probe_start = probe(exe, env)
    plain, traced = [], []
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline or len(plain) + len(traced) < MIN_ITERATIONS:
        # The traced run alternates untraced and traced iterations, so
        # both sides see the same mix of host phases.
        with_spans = spans if args.trace and len(plain) > len(traced) else None
        r = iteration(exe, env, args.workload, args.seed, with_spans)
        (traced if with_spans else plain).append(r)
    probe_end = probe(exe, env)

    results = plain + traced
    failures = failed_ops(results, args.workload, args.seed)
    ops = max((r["ops"] for r in results if "crashed" not in r), default=1)
    attempted = sum(r.get("ops", ops) for r in results)
    failed = min(attempted, sum(ops if label == "*" else 1 for _, label in failures))
    for why in list(failures.values())[:20]:
        log(f"FAILED {why}")
    log(f"host probe {probe_start:.4f} s at start, {probe_end:.4f} s at end")

    ok_plain = [r for r in plain if "crashed" not in r]
    ok_traced = [r for r in traced if "crashed" not in r]
    metrics = {}
    if not ok_plain or (args.trace and not ok_traced):
        log("no iteration completed")
    elif args.trace:
        # The fastest traced iteration, so that its layers add up to
        # its own wall time.
        rep = min(ok_traced, key=lambda r: r["wall_s"])
        overhead = rep["wall_s"] / min(r["wall_s"] for r in ok_plain) - 1
        values = dict(rep["layers"], **{
            "traced.wall_s": rep["wall_s"],
            "telemetry.overhead_frac": overhead,
            "host.probe_s": (probe_start + probe_end) / 2,
        })
        unknown = sorted(set(values) - set(PER_LAYER))
        if unknown:
            log(f"unlisted per-layer metrics dropped: {unknown}")
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
    else:
        for name, unit in END_TO_END.items():
            if name == "ok_frac":
                value = 1 - failed / attempted
            else:
                value = BEST[name]([r[name] for r in ok_plain])
            metrics[name] = {"value": value, "unit": unit}

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced + {len(traced)} traced iterations, "
          f"{attempted} ops attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:28} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
