#!/usr/bin/env python3
"""The cocor benchmark.

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 30 --trace 0

Smoke-runs every workload at toy size, then repeats the chosen workload for
about ``--seconds`` seconds (at least two repetitions and 110 ops), times
set-up in child processes between repetitions, and checks every
repetition's outputs. The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. Exit code 0 when every check passes, 1 when an
output check fails, 2 when the benchmark cannot run at all (no importable
cocor under ``src/``, a failed smoke run or set-up probe). See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# One BLAS thread on parent and change alike: default OpenBLAS keeps a second
# core spinning, and a threading change must show up as a change, not noise.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("ablation", "wide", "gradcheck")
MIN_REPS = 2
MIN_OPS = 110         # more than 10 samples beyond op_ms_p90
SETUP_PROBES = 5      # at least this many set-up probes,
PROBE_EVERY_S = 2.0   # spread over the run: slow spells of the host last seconds

END_TO_END = {"setup_s": "s", "op_ms": "ms", "op_ms_p90": "ms", "ops_per_s": "1/s",
              "linear_acc": "fraction", "peak_rss_mb": "MB", "success_rate": "fraction"}


class BenchError(RuntimeError):
    """The benchmark cannot run; the message names the cause."""


def import_program():
    """Import the benchmark's workloads module, with cocor from ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "cocor", "__init__.py")):
        raise BenchError(f"no cocor package at {SRC}: run from the root of a full checkout")
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        raise BenchError(f"cannot import cocor from {SRC}: {exc}") from exc
    import cocor
    if os.path.dirname(os.path.abspath(cocor.__file__)) != os.path.join(SRC, "cocor"):
        raise BenchError(f"imported cocor from {cocor.__file__}, not from {SRC}")
    return workloads


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({line.split()[-1] for line in f if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            try:
                fn = getattr(lib, symbol)
            except AttributeError:
                continue
            fn.argtypes, fn.restype = [], ctypes.c_int
            return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(), "blas_threads_pinned": int(BLAS_THREADS),
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0))}


def setup_probe(workload: str, seed: int) -> float:
    """Process start to first op, measured on a fresh child process."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"),
                               workload, str(seed)], capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"set-up probe for {workload!r} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"set-up probe for {workload!r} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-800:]}")
    return float(proc.stdout.split()[-1]) - spawned


def run_reps(wl, tracer, workload: str, seed: int, seconds: int, trace: bool):
    """Repeat the workload until the next repetition would pass ``seconds``
    and at least MIN_REPS repetitions and MIN_OPS ops are done.

    With tracing, repetitions alternate untraced and traced. Without, set-up
    probes run between repetitions, at most one per PROBE_EVERY_S, and are
    topped up to SETUP_PROBES at the end; their time is not charged to
    ``seconds``. Returns the repetitions, whether each was traced, and the
    set-up times.
    """
    out_dir = os.path.join(OUT, f"{workload}-seed{seed}")
    accuracy = wl.random_encoder_accuracy() if workload == "gradcheck" else None
    reps, traced_flags, setup = [], [], []
    probing, last_probe = 0.0, -PROBE_EVERY_S
    begin = time.monotonic()
    while True:
        if not trace and time.monotonic() - last_probe >= PROBE_EVERY_S:
            spawned = time.monotonic()
            setup.append(setup_probe(workload, seed))
            last_probe = time.monotonic()
            probing += last_probe - spawned
        traced = trace and len(reps) % 2 == 1
        started = time.monotonic()
        try:
            if traced:
                tracer.install()
            try:
                if workload == "gradcheck":
                    rep = wl.gradcheck_rep(wl.check_order(seed, len(reps)), accuracy)
                else:
                    rep = wl.train_rep(wl.training_config(workload, seed), out_dir)
            finally:
                tracer.restore()
        except Exception as exc:  # noqa: BLE001 - a raising repetition is a failed one
            traceback.print_exc()
            rep = wl.Rep(op_s=[], timed_s=0.0, accuracy=0.0, shas={},
                         failure=f"repetition {len(reps)} raised {type(exc).__name__}: {exc}")
        if rep.failure is None and reps and rep.shas != reps[0].shas:
            rep.failure = (f"repetition {len(reps)} outputs {rep.shas} differ from "
                           f"repetition 0 {reps[0].shas}")
        reps.append(rep)
        traced_flags.append(traced)
        if rep.failure:
            break
        now = time.monotonic()
        ops = sum(len(r.op_s) for r in reps)
        if (len(reps) >= MIN_REPS and ops >= MIN_OPS
                and (now - begin - probing) + (now - started) > seconds):
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, seed))
    return reps, traced_flags, setup


def rate(reps) -> float:
    return sum(len(r.op_s) for r in reps) / sum(r.timed_s for r in reps)


def end_to_end(reps, setup: list[float], success: float) -> tuple[dict, list[float]]:
    samples = [s for r in reps for s in r.op_s]
    if not samples:
        return {name: 0.0 for name in END_TO_END}, samples
    return {
        "setup_s": statistics.median(setup),
        "op_ms": 1000.0 * statistics.median(samples),
        "op_ms_p90": 1000.0 * statistics.quantiles(samples, n=10)[8],
        "ops_per_s": rate(reps),
        "linear_acc": statistics.median(r.accuracy for r in reps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": success,
    }, samples


def per_layer(tracer, tr, workload: str, reps, traced_flags) -> dict:
    traced = [r for r, t in zip(reps, traced_flags) if t and not r.failure]
    untraced = [r for r, t in zip(reps, traced_flags) if not t and not r.failure]
    units = tr.metric_units()
    ops = sum(len(r.op_s) for r in traced)
    if not ops or not untraced:
        return {name: 0.0 for name in units}
    metrics = tracer.layer_metrics(ops)
    metrics["bilevel.guard_count"] = sum(r.guard_count for r in traced) / ops
    op_spans = tr.GRADCHECK_OP_SPANS if workload == "gradcheck" else tr.TRAINING_OP_SPANS
    metrics["trace.op_coverage"] = (tracer.op_span_seconds(op_spans)
                                    / sum(s for r in traced for s in r.op_s))
    metrics["trace.overhead_pct"] = 100.0 * (rate(untraced) / rate(traced) - 1.0)
    return {name: metrics[name] for name in units}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="cocor benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    wall_start = time.monotonic()
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy is first imported

    try:
        wl = import_program()
        import tracer as tr
        os.makedirs(OUT, exist_ok=True)
        try:
            wl.smoke(OUT)
        except RuntimeError as exc:
            raise BenchError(str(exc)) from exc
        tracer = tr.Tracer()
        reps, traced_flags, setup = run_reps(wl, tracer, args.workload, args.seed,
                                             args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted = failed = 0
    for rep in reps:
        ops = len(rep.op_s) or wl.planned_ops(args.workload, args.seed)
        attempted += ops
        failed += ops if rep.failure else 0
    good = [r for r in reps if not r.failure]

    env = environment()
    print("env " + json.dumps(env))
    for i, (rep, traced) in enumerate(zip(reps, traced_flags)):
        shas = " ".join(f"{name}={sha}" for name, sha in rep.shas.items())
        print(f"sha256 workload={args.workload} seed={args.seed} rep={i} "
              f"traced={int(traced)} {shas}")
        if rep.failure:
            print(f"FAILED rep={i}: {rep.failure}")

    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}")
    os.makedirs(out_dir, exist_ok=True)
    if args.trace:
        values = per_layer(tracer, tr, args.workload, reps, traced_flags)
        units = tr.metric_units()
        tracer.write_spans(os.path.join(out_dir, "spans.tsv"))
    else:
        values, samples = end_to_end(good, setup, 1.0 - failed / attempted)
        units = END_TO_END
        beyond = sum(1000.0 * s > values["op_ms_p90"] for s in samples)
        print(f"op samples: {len(samples)} ops in {len(good)} repetitions, {beyond} beyond "
              f"op_ms_p90; setup_s is the median of {len(setup)} child processes")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    usage = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    env.update(cpu_s=usage.ru_utime + usage.ru_stime,
               children_cpu_s=children.ru_utime + children.ru_stime,
               wall_s=time.monotonic() - wall_start)
    print(f"cpu {env['cpu_s']:.2f} s (+{env['children_cpu_s']:.2f} s in set-up probes), "
          f"wall {env['wall_s']:.2f} s")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as f:
        json.dump({**result, "env": env, "seconds": args.seconds,
                   "shas": [r.shas for r in reps]}, f, indent=1)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
