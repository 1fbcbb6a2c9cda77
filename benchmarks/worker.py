"""One benchmark worker process: set up a workload, time it, verify it.

``run.py`` starts a fresh worker for every set-up sample and for every
measured run, with BLAS pinned to one thread.  The worker prints one JSON
object as the last line of its standard output.

Modes:

* ``setup``: import the package, build the inputs, run one warm-up cycle,
  report the time taken, exit.
* ``timed``: the same set-up, then repeat whole cycles for ``--seconds``
  seconds with tracing off, then check every output.
* ``traced``: the same set-up, half of ``--seconds`` untraced (the baseline
  for the tracing overhead), then half with the span tracer installed; the
  per-layer metrics come from the traced half.
"""

import time

START = time.perf_counter()  # set-up is measured from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from contextlib import redirect_stderr  # noqa: E402
from io import StringIO  # noqa: E402

from metrics import PER_LAYER  # noqa: E402

SETUP_KERNEL_RUNS = 7  # kernel readings right after set-up; their median scales setup_s


def run_cycles(cycle, seconds, tracer=None, kernel=None):
    """Repeat whole cycles until ``seconds`` have passed; one record per op.

    Records come in cycle order, so record ``i`` is operation ``i % len(cycle)``.

    A record is ``(position in cycle, latency s, kernel s, output, error)``;
    exactly one of output and error is None.  Only ``op.run()`` is inside the
    latency.  With ``kernel`` (``calibration.kernel``), the reference kernel
    runs between every two operations, and ``kernel s`` is the mean of the
    readings just before and just after the operation; otherwise it is None.
    """
    records = []
    clock = time.perf_counter
    before = kernel() if kernel is not None else None
    begin = clock()
    with redirect_stderr(StringIO()):  # `gaussqfi sweep` reports to stderr
        while True:
            for pos, op in enumerate(cycle):
                if tracer is not None:
                    tracer.op_id = len(records)
                output = error = None
                t0 = clock()
                try:
                    result = op.run()
                except Exception as exc:  # a raising operation is a failed one
                    latency = clock() - t0
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    latency = clock() - t0
                    output = op.collect(result) if op.collect is not None else result
                kernel_s = None
                if kernel is not None:
                    after = kernel()
                    kernel_s = 0.5 * (before + after)
                    before = after
                records.append((pos, latency, kernel_s, output, error))
            if clock() - begin >= seconds:
                return records


def verify(cycle, records):
    """Check every output; returns (failed count, wrong-output count, reasons)."""
    failed = wrong = 0
    reasons: dict[str, int] = {}
    for pos, _latency, _kernel, output, error in records:
        reason = error
        if error is None:
            reason = cycle[pos].check(output)
            wrong += reason is not None
        if reason is not None:
            failed += 1
            key = f"{cycle[pos].kind}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
    return failed, wrong, reasons


def environment(np, scipy):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(summary, records, cycle):
    """Per-layer numbers from the traced half, normalised per operation.

    Returns the metrics named in ``metrics.PER_LAYER`` (all but the two the
    caller adds), calls per operation of each kind for the ``calls_per_op``
    metrics, and the largest self times.
    """
    n_ops = len(records)
    empty = {"calls": 0, "self_s": 0.0, "raised": {}, "notes": [], "calls_by_op": {}}

    def rec(name):
        return summary.get(name, empty)

    out = {}
    counted = []
    for metric in PER_LAYER:
        fn, _, stat = metric.rpartition(".")
        if stat == "calls_per_op":
            out[metric] = rec(fn)["calls"] / n_ops
            counted.append(fn)
        elif stat == "self_ms_per_op":
            out[metric] = 1e3 * rec(fn)["self_s"] / n_ops
    frame = rec("homodyne.isothermal_frame")
    rejected = frame["raised"].get("PreconditionError", 0)
    out["homodyne.isothermal_frame.rejected_frac"] = (
        rejected / frame["calls"] if frame["calls"] else 0.0
    )
    # `notes` hold (op id, annotation, inclusive seconds); for sweep_rows the
    # annotation is --jobs, and each sweep operation makes one call.
    for jobs in (1, 2):
        times = [dt for _op, j, dt in rec("cli.sweep_rows")["notes"] if j == jobs]
        out[f"cli.sweep_rows.jobs{jobs}_ms_per_op"] = (
            1e3 * sum(times) / len(times) if times else 0.0
        )
    sizes = [mb for _op, mb, _dt in rec("fock.build_state")["notes"]]
    out["fock.build_state.matrix_mb"] = max(sizes, default=0.0)

    kind_of = [cycle[pos].kind for pos, *_r in records]  # indexed by operation id
    ops_of_kind: dict[str, int] = {}
    for kind in kind_of:
        ops_of_kind[kind] = ops_of_kind.get(kind, 0) + 1
    by_kind = {}
    for fn in counted:
        calls: dict[str, int] = {}
        for op, n in rec(fn)["calls_by_op"].items():
            calls[kind_of[op]] = calls.get(kind_of[op], 0) + n
        by_kind[fn] = {k: calls.get(k, 0) / ops_of_kind[k] for k in ops_of_kind}
    top = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    top_self = [(name, 1e3 * r["self_s"] / n_ops) for name, r in top]
    return out, by_kind, top_self


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    p.add_argument("--src", required=True, help="directory the package must load from")
    p.add_argument("--scratch", required=True, help="directory for temporary files")
    args = p.parse_args()

    t_import = time.perf_counter()
    import gaussqfi
    import gaussqfi.cli  # noqa: F401  (the sweep workload calls gaussqfi.cli.main)
    import_s = time.perf_counter() - t_import

    src = os.path.realpath(args.src)
    if not os.path.realpath(gaussqfi.__file__).startswith(src + os.sep):
        print(f"gaussqfi was imported from {gaussqfi.__file__}, not from {src}", file=sys.stderr)
        return 2

    import numpy as np
    import scipy

    import calibration
    import workloads

    os.makedirs(args.scratch, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.scratch)
    try:
        cycle = workloads.WORKLOADS[args.workload](gaussqfi, args.seed, work_dir)
        warm = run_cycles(cycle, 0.0)
        setup_s = time.perf_counter() - START
        result = {
            "setup_s": setup_s,
            "setup_kernel_s": statistics.median(
                calibration.kernel() for _ in range(SETUP_KERNEL_RUNS)
            ),
            "import_s": import_s,
            "env": environment(np, scipy),
        }
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        kernel = calibration.kernel
        records = run_cycles(
            cycle, args.seconds if args.mode == "timed" else args.seconds / 2, kernel=kernel
        )
        if args.mode == "timed":
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            import tracer as tracing

            t = tracing.Tracer(tracing.public_targets())
            t.install()
            try:
                traced = run_cycles(cycle, args.seconds / 2, tracer=t, kernel=kernel)
            finally:
                t.uninstall()
            # Latency over kernel time, so that host speed cancels.
            base = statistics.mean(r[1] / r[2] for r in records)
            with_trace = statistics.mean(r[1] / r[2] for r in traced)
            metrics, by_kind, top_self = layer_metrics(
                tracing.summarize(t.spans), traced, cycle
            )
            metrics["setup.import_s"] = import_s
            metrics["trace.overhead_frac"] = with_trace / base - 1.0
            result.update(layer=metrics, calls_by_kind=by_kind, top_self_ms=top_self,
                          spans=len(t.spans))
            records = records + traced

        # Warm-up outputs are checked too (first, so they become the reference
        # of byte-identity checks), but only the measured operations are counted.
        _, warm_wrong, _ = verify(cycle, warm)
        failed, wrong, reasons = verify(cycle, records)
        result.update(
            cycle_len=len(cycle),
            latencies=[r[1] for r in records],
            kernels=[r[2] for r in records],
            attempted=len(records),
            failed=failed,
            wrong=wrong + warm_wrong,
            failures=reasons,
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
