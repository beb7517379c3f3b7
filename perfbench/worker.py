"""One workload in a fresh interpreter, with a single closed-loop caller.

Started by run.py with OpenBLAS limited to one thread and ``src`` on the
path.  The timeline is: import critmode, build the inputs (and any spectra
the workload takes as input), run one operation of each kind as warm-up --
together the set-up time, counted from the moment run.py started this
interpreter -- then compute the reference values for the checks, then run
whole passes until the requested seconds are used.  Each pass is timed
without its checks; the checks of a pass run right after it.  The result is
one JSON object on the last line of standard output.

Times are reported at a reference machine speed.  The machine this runs on
changes speed by tens of percent within seconds to minutes (other tenants
share its cores), which moves every wall time alike.  A short calibration
kernel is timed between every two operations, and a longer one right before
and right after set-up; each wall time is scaled by the reference time of the kernel over
its time measured beside it (for an operation, the mean of the kernels just
before and just after it).  The raw wall times are kept in the result too.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# Nominal time of one round of calibrate(); a scaled time reads as the wall
# time on a machine where a round takes exactly this long (about the median
# on the 2-core machine the reference figures in README.md come from).
REFERENCE_ROUND_S = 7.5e-5
SETUP_ROUNDS = 200
OP_ROUNDS = 10


def calibrate(rounds: int) -> float:
    """Wall time of a fixed kernel shaped like critmode's inner loops.

    Small complex SVDs, Horner evaluation on a short complex vector and a
    plain Python loop: the mix of interpreter overhead and small LAPACK
    calls that dominates critmode's operations, so the kernel slows down
    and speeds up with the machine the way the operations do.  It touches
    nothing of critmode, so no change to the program can move it.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    points = np.linspace(0.1, 1.0, 16) + 0.5j
    t0 = time.perf_counter()
    for _ in range(rounds):
        np.linalg.svd(matrix, compute_uv=False)
        out = np.zeros_like(points)
        for c in coeffs:
            out = out * points + c
        acc = 0.0
        for i in range(200):
            acc += i * 0.5
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=0,
                        help="run exactly this many passes (0: fill --seconds)")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--src", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--started-at", type=float, required=True,
                        help="time.time() at which the launcher started this process")
    args = parser.parse_args(argv)

    # The set-up time is scaled by kernels timed just before and just after
    # it, and the time of the first kernels is taken out of it.  numpy,
    # which the kernel needs, is imported before them and so stays in the
    # set-up time.  The traced run skips the first kernels altogether, so
    # that numpy's import is counted in critmode's import time.
    cal_start = None
    cal_overhead_s = 0.0
    if not args.trace:
        import numpy  # noqa: F401  (part of import critmode, see above)

        t_cal = time.time()
        calibrate(OP_ROUNDS)
        cal_start = calibrate(SETUP_ROUNDS)
        cal_overhead_s = time.time() - t_cal

    import critmode

    src = Path(args.src).resolve()
    if src not in Path(critmode.__file__).resolve().parents:
        print(f"critmode was imported from {critmode.__file__}, not {src}",
              file=sys.stderr)
        return 2

    import tracing
    import workloads

    t_inputs = time.perf_counter()
    workload = workloads.BUILDERS[args.workload](args.seed, Path(args.scratch))
    inputs_s = time.perf_counter() - t_inputs
    try:
        for op in workload.warmup_ops():
            try:
                op.run()
            except Exception:  # a failing operation is counted in the passes
                pass
        setup_raw_s = time.time() - args.started_at - cal_overhead_s
        cal_end = statistics.median(calibrate(SETUP_ROUNDS) for _ in range(3))
        cal = cal_end if cal_start is None else 0.5 * (cal_start + cal_end)
        setup = {
            "setup_s": setup_raw_s * REFERENCE_ROUND_S * SETUP_ROUNDS / cal,
            "setup_raw_s": setup_raw_s,
        }
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        return _measure(args, workload, tracing, setup, inputs_s)
    finally:
        workload.cleanup()


def _measure(args, workload, tracing, setup, inputs_s) -> int:
    references = [op.reference() for op in workload.ops]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    ops = workload.ops
    clock = time.perf_counter
    pass_times = []
    scaled_pass_times = []
    op_times = [[] for _ in ops]
    failed = 0
    failures = {}
    unexpected = {}  # failures on inputs where the program is not known to fail
    unexpected_passes = set()
    window_start = clock()
    while True:
        outcomes = []
        raw = 0.0
        scaled = 0.0
        cal_before = calibrate(OP_ROUNDS)
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op = op_id
            t_op = clock()
            try:
                outcomes.append((op.run(), None))
            except Exception as exc:  # the program's typed errors, counted as failed
                outcomes.append((None, f"{type(exc).__name__}: {str(exc)[:200]}"))
            t_op = clock() - t_op
            cal_after = calibrate(OP_ROUNDS)
            op_times[op_id].append(t_op)
            raw += t_op
            scaled += t_op * REFERENCE_ROUND_S * OP_ROUNDS / (0.5 * (cal_before + cal_after))
            cal_before = cal_after
        pass_times.append(raw)
        scaled_pass_times.append(scaled)
        if tracer is not None:
            tracer.end_pass()
        for op, reference, (out, error) in zip(ops, references, outcomes):
            if error is None:
                try:
                    problems = op.check(out, reference)
                except Exception:
                    problems = [traceback.format_exc(limit=2)]
                if problems:
                    error = "wrong output: " + "; ".join(problems)
            if error is None:
                if op.may_fail:
                    unexpected_passes.add(op.name)
                continue
            failed += 1
            failures.setdefault(op.name, error)
            if not op.may_fail:
                unexpected.setdefault(op.name, error)
        del outcomes
        if args.passes:
            if len(pass_times) >= args.passes:
                break
        elif clock() - window_start >= args.seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    result = {
        "correct": not unexpected,
        "attempted": len(ops) * len(pass_times),
        "failed": failed,
        "ops_per_pass": len(ops),
        "passes": len(pass_times),
        "ops_per_s": len(ops) / statistics.median(scaled_pass_times),
        "raw_ops_per_s": len(ops) / statistics.median(pass_times),
        **setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": pass_times,
        "scaled_pass_s": scaled_pass_times,
        "inputs_s": inputs_s,
        "op_median_s": {op.name: statistics.median(t) for op, t in zip(ops, op_times)},
        "failures": failures,
        "unexpected": unexpected,
        # known faults that did not show: a change mended them, and the
        # list of known failures in workloads.py is due for an update
        "unexpected_passes": sorted(unexpected_passes),
        "settings": _settings(),
    }
    if tracer is not None:
        n = result["attempted"]
        layer = tracer.metrics(n)
        written = workload.counters.get("cli.bytes_written", 0)
        layer["cli.bytes_written_per_op"] = (written / n, "B/op")
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        result["spans_first_pass"] = tracer.first_pass
        result["op_names"] = [op.name for op in ops]
    print(json.dumps(result))
    return 0


def _settings() -> dict:
    import ctypes
    import glob
    import os
    import platform

    import mpmath
    import numpy
    import scipy

    blas_threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "openblas_threads": blas_threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "reference_round_s": REFERENCE_ROUND_S,
    }


if __name__ == "__main__":
    sys.exit(main())
