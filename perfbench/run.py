#!/usr/bin/env python3
"""critmode benchmark: closed-loop passes over seeded inputs, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --workload all --one-pass

Each workload runs in a fresh interpreter (worker.py) with one BLAS thread
and critmode imported from ``src/`` of this checkout.  With ``--trace 0`` the
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and the end-to-end metrics ``ops_per_s``,
``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` it carries the per-layer
metrics instead.  ``setup_s`` is the median over the measuring worker and
two more workers that only set up.  Times are scaled to a reference
machine speed by a calibration kernel (see worker.py); the raw wall times
are in the result file too.  The full result, with the machine and
library settings, goes to perfbench/results/, and a traced run's spans of
its first pass to perfbench/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("figures", "generic_spectra", "near_critical", "dynamics")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.pop("CRITMODE_TOL_OVERRIDE", None)
    return env


def _worker(args, extra=(), importtime=False):
    """Run worker.py; return (parsed last stdout line, stderr)."""
    scratch = HERE / "tmp"
    scratch.mkdir(exist_ok=True)
    cmd = [sys.executable]
    if importtime:
        cmd += ["-X", "importtime"]
    cmd += [
        str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--src", str(SRC), "--scratch", str(scratch), *extra,
    ]
    cmd += ["--started-at", repr(time.time())]
    proc = subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker for {args.workload} exited with {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    return json.loads(lines[-1]), proc.stderr


def _import_times(stderr: str) -> dict:
    """critmode's cumulative and scipy's summed self import time, in s."""
    critmode_us = 0
    scipy_us = 0
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if not m:
            continue
        self_us, cumulative_us, name = int(m[1]), int(m[2]), m[4]
        if name == "critmode":
            critmode_us = cumulative_us
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    return {"setup.import_critmode_s": critmode_us * 1e-6,
            "setup.import_scipy_s": scipy_us * 1e-6}


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_workload(args) -> dict:
    extra = ["--passes", "1"] if args.one_pass else []
    result, stderr = _worker(args, extra, importtime=bool(args.trace))
    setups = [result["setup_s"]]
    raw_setups = [result["setup_raw_s"]]
    if not args.trace and not args.one_pass:
        for _ in range(SETUP_SAMPLES - 1):
            sample = _worker(args, ["--setup-only"])[0]
            setups.append(sample["setup_s"])
            raw_setups.append(sample["setup_raw_s"])
    result["setup_samples_s"] = setups
    result["setup_raw_samples_s"] = raw_setups
    result["settings"].update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, git_commit=_git_commit(),
    )
    spans = result.pop("spans_first_pass", None)
    op_names = result.pop("op_names", None)
    if args.trace:
        metrics = dict(result["per_layer"])
        for name, value in _import_times(stderr).items():
            metrics[name] = {"value": value, "unit": "s"}
        metrics["setup.inputs_s"] = {"value": result["inputs_s"], "unit": "s"}
        result["per_layer"] = metrics
        traces = HERE / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "op"],
             "op_names": op_names, "spans": spans}))
    else:
        metrics = {
            "ops_per_s": {"value": result["ops_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps({**result, "metrics": metrics}, indent=1))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--one-pass", action="store_true",
                        help="one timed pass per workload, as a quick end-to-end check")
    args = parser.parse_args(argv)
    if not (SRC / "critmode" / "__init__.py").is_file():
        print(f"error: no critmode sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summaries = {}
    for name in names:
        args.workload = name
        try:
            summary = run_workload(args)
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        summaries[name] = summary
        metrics = "  ".join(
            f"{key} {m['value']:.6g} {m['unit']}" for key, m in summary["metrics"].items()
        )
        print(f"{name}: correct={summary['correct']} attempted={summary['attempted']} "
              f"failed={summary['failed']}  {metrics}", file=sys.stderr if len(names) == 1 else sys.stdout)
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({"workloads": summaries}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
