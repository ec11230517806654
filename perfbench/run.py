#!/usr/bin/env python3
"""Benchmark for shotdp: four seeded workloads against the API and the CLI.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; shotdp is imported from its `src/`.
Workloads: cli-cold, sweep-table, audit-scale, scalar-api (see README.md).

With --trace 0 the run measures the end-to-end metrics (setup_s, op_p50_ms,
op_tail_ms, items_per_s, peak_rss_mb). With --trace 1 it alternates traced
and untraced rounds, then runs the layer probes, and reports the per-layer
metrics instead. Either way the last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The rounds run for at least --seconds of wall time (setup probes not
counted) and until the workload's minimum operation count is reached.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

# Pin BLAS and OpenMP to one thread before anything can import numpy; every
# process started from here inherits the same settings.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("cli-cold", "sweep-table", "audit-scale", "scalar-api")

# setup_s is the median of this many fresh-process set-ups spread through the run.
SETUP_PROBES = 5
# The host's speed drifts by tens of percent over minutes, and most kinds of
# operation drift with it. Times are therefore reported at a reference speed:
# scaled by REF_NOMINAL_S over the median of host_ref() samples taken between
# operations through the same run. The raw figures go to standard error.
REF_NOMINAL_S = 0.004
REF_EVERY_S = 0.2
IMPORT_PROBES = 3
# Hard stop for the timed loop, whatever the minimum operation count asks.
MAX_LOOP_S = 120.0


def declared_units(trace: bool) -> dict:
    """Metric names and units as BENCHMARK.json declares them, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def percentile(values, pct):
    """Linear interpolation between closest ranks (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed_child(argv, env) -> tuple[float, bytes]:
    """Wall seconds from starting a child to its exit, and its stdout; raises if it fails."""
    import subprocess

    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} failed: {proc.stderr.decode(errors='replace')}")
    return elapsed, proc.stdout


def check_apart(op, out) -> None:
    """Run op.check(out) in a forked child and raise CheckFailed if it fails.

    The checks parse whole outputs and import mpmath; in a child of their
    own, none of that memory counts toward this process's peak RSS, which is
    peak_rss_mb for the in-process workloads.
    """
    import workloads

    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            op.check(out)
            message = b""
        except BaseException as exc:  # every failure is reported to the parent, which decides
            text = str(exc) if isinstance(exc, workloads.CheckFailed) else f"{type(exc).__name__}: {exc}"
            message = text.encode()[:4000] or b"check failed"
        os.write(write_fd, message)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        message = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise workloads.CheckFailed(f"{op.kind}: the check process ended with status {status}")
    if message:
        raise workloads.CheckFailed(message.decode(errors="replace"))


def setup_probe(workload: str, seed: int, env) -> float:
    workdir = os.path.join(OUT, f"setup-{os.getpid()}")
    elapsed, _ = timed_child([sys.executable, os.path.join(HERE, "probe.py"), "setup", workload, str(seed), workdir], env)
    return elapsed


def import_probes(env) -> dict:
    probe = os.path.join(HERE, "probe.py")
    shotdp, cli = [], []
    for _ in range(IMPORT_PROBES):
        shotdp.append(json.loads(timed_child([sys.executable, probe, "import", "shotdp"], env)[1]))
        cli.append(json.loads(timed_child([sys.executable, probe, "import", "shotdp.cli"], env)[1]))
    return {
        "import.shotdp_ms": statistics.median(p["ms"] for p in shotdp),
        "import.cli_ms": statistics.median(p["ms"] for p in cli),
        "import.modules": statistics.median(p["modules"] for p in shotdp),
        "import.scipy_loaded": max(p["scipy_loaded"] for p in shotdp),
        "import.rss_mb": statistics.median(p["rss_mb"] for p in shotdp),
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import random
    import shutil

    import workloads
    from probe import own_peak_rss_kb
    from spans import Tracer

    workdir = os.path.join(OUT, f"{name}-{seed}-{os.getpid()}")
    env = workloads.Env(ROOT, workdir)
    child_env = workloads.child_env(ROOT)
    wl = None
    try:
        wl = workloads.WORKLOADS[name](env, seed)
        wl.warmup()
        if name == "cli-cold":
            wl.warm_file_cache()
        warm_rss_mb = own_peak_rss_kb() / 1024
        tracer = Tracer("shotdp") if trace else None
        order = random.Random(f"order:{name}:{seed}")
        times = {False: [], True: []}
        items = {False: 0, True: 0}
        attempted = failed = 0
        errors: list[str] = []
        digests: dict[int, object] = {}
        setup_times: list[float] = []
        host_refs: list[float] = []
        last_ref = time.perf_counter()
        loop_s = 0.0
        rounds = 0
        while True:
            if not trace and len(setup_times) < SETUP_PROBES and loop_s >= len(setup_times) * seconds / SETUP_PROBES:
                setup_times.append(setup_probe(name, seed, child_env))
                host_refs.append(workloads.host_ref())
            tracing = trace and rounds % 2 == 1
            if tracing:
                tracer.install()
                env.tracer = tracer
            round_start = time.perf_counter()
            for index in order.sample(range(len(wl.ops)), len(wl.ops)):
                op = wl.ops[index]
                attempted += 1
                t0 = time.perf_counter()
                try:
                    if tracing:
                        with tracer.span(f"op.{op.kind}"):
                            out = op.run()
                    else:
                        out = op.run()
                except Exception as exc:  # an operation that raises is counted as failed, and the run goes on
                    failed += 1
                    errors.append(f"{op.kind} failed: {type(exc).__name__}: {exc}")
                    continue
                times[tracing].append(time.perf_counter() - t0)
                items[tracing] += op.items
                try:
                    if index not in digests:
                        digests[index] = None
                        check_apart(op, out)
                        digests[index] = op.digest(out)
                    elif digests[index] is not None and op.digest(out) != digests[index]:
                        raise workloads.CheckFailed(f"{op.kind}: output differs from the same operation's first run")
                except Exception as exc:  # a malformed output is as wrong as a wrong value
                    errors.append(f"{op.kind} incorrect: {type(exc).__name__}: {exc}")
                if time.perf_counter() - last_ref >= REF_EVERY_S:
                    host_refs.append(workloads.host_ref())
                    last_ref = time.perf_counter()
            if tracing:
                tracer.uninstall()
                env.tracer = None
            rounds += 1
            loop_s += time.perf_counter() - round_start
            done = len(times[False]) + len(times[True]) >= wl.min_ops and (not trace or rounds >= 2)
            if (loop_s >= seconds and done) or loop_s >= MAX_LOOP_S:
                break
        while not trace and len(setup_times) < SETUP_PROBES:
            setup_times.append(setup_probe(name, seed, child_env))
            host_refs.append(workloads.host_ref())

        incorrect = [e for e in errors if " incorrect: " in e]
        for line in errors[:5]:
            print(f"# {name}: {line}", file=sys.stderr)
        plain = times[False]
        if trace:
            metrics = per_layer_metrics(env, tracer, rounds // 2, times, items, host_refs, child_env, name, seed)
        else:
            raw = {
                "setup_s": statistics.median(setup_times),
                "op_p50_ms": statistics.median(plain) * 1e3,
                "op_tail_ms": percentile(plain, wl.tail_pct) * 1e3,
                "items_per_s": items[False] / sum(plain),
            }
            speed = REF_NOMINAL_S / statistics.median(host_refs)
            metrics = {key: value / speed if key == "items_per_s" else value * speed for key, value in raw.items()}
            metrics["peak_rss_mb"] = wl.peak_rss_kb() / 1024
            print(f"# peak RSS of this process: {warm_rss_mb:.1f} MB after the warm-up, "
                  f"{own_peak_rss_kb() / 1024:.1f} MB at the end", file=sys.stderr)
            print(f"# raw, before scaling by host speed {speed:.4f}: "
                  + ", ".join(f"{key}={value:.6g}" for key, value in raw.items()), file=sys.stderr)
        print(f"# {name} seed={seed} trace={int(trace)}: {rounds} rounds, {attempted} operations, "
              f"{len(plain)} timed untraced, loop {loop_s:.1f} s, {len(host_refs)} host_ref samples, "
              f"op_tail_ms is p{wl.tail_pct}", file=sys.stderr)
        return {
            "correct": not incorrect,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared_units(trace).items()},
        }
    finally:
        if wl is not None:
            wl.close()
        if env.tracer is not None:
            env.tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(os.path.join(OUT, f"setup-{os.getpid()}"), ignore_errors=True)


def per_layer_metrics(env, tracer, traced_rounds, times, items, host_refs, child_env, name, seed) -> dict:
    from layers import probe_layers

    untraced_rate = items[False] / sum(times[False])
    traced_rate = items[True] / sum(times[True])
    totals = tracer.layer_totals()
    metrics = import_probes(child_env)
    # Every round holds the same operations, so totals per traced round measure
    # what the layer costs, whatever number of rounds fitted into the run.
    for layer in ("cli", "budget", "shots", "audit", "states"):
        for key, value in totals[layer].items():
            metrics[f"{layer}.{key}"] = value / traced_rounds
    metrics.update(probe_layers(env))
    metrics["host.ref_ms"] = statistics.median(host_refs) * 1e3
    metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    tracer.dump(os.path.join(OUT, f"trace-{name}-{seed}.spans"))
    return metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one combined result line."""
    import subprocess

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:42s} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}.{metric}"] = entry
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "shotdp", "__init__.py")):
        print(f"error: no shotdp sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [SRC, HERE]
    import shotdp

    if not os.path.abspath(shotdp.__file__).startswith(SRC + os.sep):
        print(f"error: imported shotdp from {shotdp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
