#!/usr/bin/env python3
"""Benchmark of gaussqfi: the moment engine, the sweep path and the Fock oracle.

Usage (from the repository root)::

    python3 benchmarks/run.py                        # every workload, tracing off
    python3 benchmarks/run.py --workload point-large --seed 3 --seconds 10
    python3 benchmarks/run.py --workload sweep-small --trace 1   # per-layer numbers

Each workload runs in fresh worker processes with BLAS pinned to one thread,
as a closed loop with one caller.  With ``--trace 0`` the end-to-end metrics
are printed; with ``--trace 1`` a separate traced run gives the per-layer
metrics.  Every operation's output is checked against an independent route
after the timed phase.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Timings are given at a reference host speed: the worker times a fixed
numpy kernel (``calibration.py``) between every two operations, and each
latency is divided by the kernel time around it, because load from other
tenants slows the same code by up to 1.9x.  Each operation of the cycle is
then taken at its median over the run's cycles.  The report lines also print
the raw wall-clock throughput and median.

The package is loaded from ``src/`` next to this directory; without it the
benchmark exits with code 2.  Use ``--seed 90001``, which no tuning of the
benchmark has seen, to check a performance claim.  See DESIGN.md for the
workloads, the metrics and what each optimisation should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S
from metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
WORKLOADS = ("point-large", "sweep-small", "oracle-fock")
HELD_OUT_SEED = 90001
SETUP_SAMPLES = 3  # fresh workers whose set-up time is the median setup_s
TIME_LIMIT_S = 170.0  # per workload, set-up samples included
TAIL_MIN_BEYOND = 10
# Every operation of one cycle position carries the same reading (see
# at_reference_speed), so a percentile selects a position, and "the highest
# percentile with 10 samples beyond" would select another position whenever
# the number of cycles in a run changes: the reading would jump by up to 3x
# between runs.  The tail is therefore the first of these percentiles with
# TAIL_MIN_BEYOND samples beyond it (see DESIGN.md).
TAIL_PERCENTILES = (90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(mode: str, workload: str, seed: int, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--src", str(SRC),
           "--scratch", str(SCRATCH)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"{workload}: out of time before the {mode} worker")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} worker passed the {TIME_LIMIT_S:g} s limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} worker exited with {proc.returncode}\n"
                         + proc.stderr[-4000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    """SHA-256 of the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "gaussqfi").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Tail latency: the first of TAIL_PERCENTILES with TAIL_MIN_BEYOND samples beyond.

    Percentiles are nearest-rank; the median is the last resort.  Returns
    (percentile, seconds, samples beyond).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        k = math.ceil(p / 100 * n) - 1
        if n - k - 1 >= TAIL_MIN_BEYOND:
            break
    return p, ordered[k], n - k - 1


def at_reference_speed(latencies: list[float], kernels: list[float],
                       cycle_len: int) -> list[float]:
    """Each operation's latency at reference host speed.

    An operation's latency over the kernel time around it, times REFERENCE_S,
    is its latency on a host where the kernel takes REFERENCE_S.  The run
    holds whole cycles, so operation ``i`` is cycle position ``i % cycle_len``;
    every operation is given the median of its position over the run.
    """
    scaled = [REFERENCE_S * t / k for t, k in zip(latencies, kernels)]
    per_pos = [statistics.median(scaled[p::cycle_len]) for p in range(cycle_len)]
    return [per_pos[i % cycle_len] for i in range(len(latencies))]


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    setups = []
    if not trace:
        setups = [run_worker("setup", workload, seed, seconds, deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
    main = run_worker("traced" if trace else "timed", workload, seed, seconds, deadline)
    setups.append(main)
    lat = main["latencies"]
    res = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "env": main["env"],
        "attempted": main["attempted"],
        "failed": main["failed"],
        "wrong": main["wrong"],
        "failures": main["failures"],
        "setup_samples_s": [REFERENCE_S * s["setup_s"] / s["setup_kernel_s"] for s in setups],
        "setup_raw_s": [s["setup_s"] for s in setups],
        "import_s": [s["import_s"] for s in setups],
    }
    if trace:
        res.update(metrics=main["layer"], calls_by_kind=main["calls_by_kind"],
                   top_self_ms=main["top_self_ms"], spans=main["spans"])
        return res
    ref = at_reference_speed(lat, main["kernels"], main["cycle_len"])
    p, tail, beyond = tail_latency(ref)
    res["tail"] = {"percentile": p, "beyond": beyond, "samples": len(lat)}
    res["cycles"] = len(lat) // main["cycle_len"]
    res["raw"] = {"busy_s": sum(lat), "ops_per_s": len(lat) / sum(lat),
                  "op_ms_p50": 1e3 * statistics.median(lat),
                  "kernel_ms": 1e3 * statistics.median(main["kernels"])}
    res["metrics"] = {
        "setup_s": statistics.median(res["setup_samples_s"]),
        "ops_per_s": len(lat) / sum(ref),
        "op_ms_p50": 1e3 * statistics.median(ref),
        "op_ms_tail": 1e3 * tail,
        "peak_rss_mb": main["peak_rss_mb"],
        "pass_frac": 1.0 - main["failed"] / main["attempted"],
    }
    return res


def report(res: dict) -> None:
    units = PER_LAYER if res["trace"] else END_TO_END
    mode = "traced run, per-layer metrics" if res["trace"] else "tracing off"
    print(f"== {res['workload']} (seed {res['seed']}, {mode}) ==")
    notes = {}
    if not res["trace"]:
        samples = ", ".join(f"{s:.3f}" for s in res["setup_samples_s"])
        raw_setup = statistics.median(res["setup_raw_s"])
        raw = res["raw"]
        notes = {
            "setup_s": f"median of {len(res['setup_samples_s'])} fresh workers: {samples}; "
                       f"raw {raw_setup:.3f} s; import {statistics.median(res['import_s']):.3f} s",
            "ops_per_s": f"median of {res['cycles']} cycles; raw {raw['ops_per_s']:.4g}: "
                         f"{res['attempted']} operations in {raw['busy_s']:.2f} s; "
                         f"kernel {raw['kernel_ms']:.3f} ms against {1e3 * REFERENCE_S:g} ms",
            "op_ms_p50": f"raw {raw['op_ms_p50']:.4g} ms",
            "op_ms_tail": f"p{res['tail']['percentile']:.4g}; {res['tail']['beyond']} of "
                          f"{res['tail']['samples']} samples beyond",
        }
    for name, unit in units.items():
        line = f"{name} = {res['metrics'][name]:.6g} {unit}"
        print(line + (f"  ({notes[name]})" if name in notes else ""))
    failed_frac = res["failed"] / res["attempted"]
    print(f"failed_frac = {failed_frac:.6g}  ({res['failed']} of {res['attempted']} operations)")
    if res["trace"]:
        for name, by_kind in res["calls_by_kind"].items():
            if any(by_kind.values()):
                counts = ", ".join(f"{k}: {v:g}" for k, v in by_kind.items())
                print(f"  {name} calls per operation by kind: {counts}")
        top = ", ".join(f"{name} {ms:.3g}" for name, ms in res["top_self_ms"])
        print(f"  largest self time, ms per operation: {top}")
        print(f"  spans recorded: {res['spans']}")
    for reason, count in res["failures"].items():
        print(f"  failed x{count}: {reason}")
    verdict = "PASS" if res["wrong"] == 0 else "FAIL"
    print(f"verification: {verdict} ({res['attempted']} operations, {res['wrong']} wrong outputs, "
          f"{res['failed']} failed)")


def main() -> int:
    p = argparse.ArgumentParser(
        description="Benchmark of gaussqfi.", epilog=f"held-out seed for claims: {HELD_OUT_SEED}"
    )
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "gaussqfi" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'gaussqfi'}", file=sys.stderr)
        return 2

    env = {"commit": git_commit(), "source_sha256": source_digest()}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            SCRATCH.rmdir()  # workers remove their own directories inside it
        except OSError:
            pass
    env.update(results[0]["env"])
    print("# env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for res in results:
        report(res)

    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(results) > 1
    summary = {
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": r["metrics"][name],
                                                              "unit": unit}
            for r in results for name, unit in units.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
