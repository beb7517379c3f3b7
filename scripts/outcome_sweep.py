#!/usr/bin/env python3
"""Outcome of compute_spectrum on a fixed set of inputs, one CSV row each.

Each row holds the input's name, its outcome (``ok`` or the class of the
exception raised), the largest verification residual (``%.3e``; from the
report of a VerificationError, empty after any other error), the block
sizes and a basis digest: the first 16 hex digits of the sha256 of the bytes
of F and of the stack N^l D^H (Spectrum.matrices) for ``ok``, of the
exception message otherwise.  The rows hold no timings, so two versions of
the library that reach the same outcomes write the same file, and a diff of
two runs lists every input whose outcome, residual, structure or basis
moved, down to the last bit.

Inputs:
  - each catalog system at K + eps e11, for eps = 0, 1e-1 ... 1e-15 and
    -1e-4 ... -1e-10, one per decade;
  - random well-separated systems (tests/conftest.py) at N = 1..9 with
    seeds 0..29;
  - the design-family points that tests/test_design.py samples.

Usage: PYTHONPATH=src python scripts/outcome_sweep.py [--out FILE]
"""

import argparse
import csv
import hashlib
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from critmode.design import (
    DesignError,
    catalog,
    cubic_critical,
    double2_critical,
    quartic_critical,
)
from critmode.jordan import VerificationError, compute_spectrum, verify_spectrum
from critmode.model import build_system

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import well_separated_system  # noqa: E402

EPS_VALUES = (
    [0.0]
    + [10.0 ** -k for k in range(1, 16)]
    + [-(10.0 ** -k) for k in range(4, 11)]
)
HEADER = ["input", "outcome", "max_residual", "block_sizes", "basis"]


def catalog_inputs():
    for entry in catalog():
        base = entry.system
        dk = np.zeros((base.N, base.N))
        dk[0, 0] = 1.0
        for eps in EPS_VALUES:
            yield (f"{entry.name}@eps={eps:.0e}",
                   lambda s=base, e=eps, d=dk: build_system(s.K + e * d, s.Gamma))


def random_inputs():
    for n in range(1, 10):
        for seed in range(30):
            yield (f"random N={n} seed={seed}",
                   lambda n=n, seed=seed: well_separated_system(
                       np.random.default_rng(seed), n))


def design_inputs():
    """The quartic, cubic and double2 points of tests/test_design.py."""
    points = [(math.asinh(-2.0), 0.5 * math.log(5.0)), (0.0, 0.0)]
    points += [(x, x) for x in (4.0, 5.0, 6.0)]
    rng = np.random.default_rng(41)
    while len(points) < 55:
        x, y = (float(v) for v in rng.uniform(-1.5, 1.5, 2))
        if math.cosh(x) * math.cosh(y) <= 3.0:
            points.append((x, y))
    for x, y in points:
        yield f"quartic x={x!r} y={y!r}", lambda x=x, y=y: quartic_critical(x, y)
    systems = [("b=4.0 gamma11=6.0", cubic_critical(4.0, 6.0))]
    rng = np.random.default_rng(43)
    while len(systems) < 31:
        b = float(rng.uniform(0.2, 6.0))
        if abs(b - 1.0) < 0.05:
            continue
        gamma11 = float(rng.uniform(0.3, 6.0))
        try:
            systems.append((f"b={b!r} gamma11={gamma11!r}",
                            cubic_critical(b, gamma11)))
        except DesignError:
            continue
    for name, system in systems:
        yield f"cubic {name}", lambda s=system: s
    rng = np.random.default_rng(47)
    bs = [4.0 / 3.0, 1e-3, 0.1, 0.5, 1.2, 2.0]
    bs += [float(rng.uniform(0.05, 2.0)) for _ in range(20)]
    for b in bs:
        yield f"double2 b={b!r}", lambda b=b: double2_critical(b)


def digest(*chunks: bytes) -> str:
    """First 16 hex digits of the sha256 of the concatenated chunks."""
    return hashlib.sha256(b"".join(chunks)).hexdigest()[:16]


def outcome(build) -> list:
    """[outcome, max residual, block sizes, basis digest] of compute_spectrum."""
    try:
        spectrum = compute_spectrum(build())
    except VerificationError as exc:
        res = exc.report.get("max_residual")
        return [type(exc).__name__, "" if res is None else f"{res:.3e}", "",
                digest(str(exc).encode())]
    except Exception as exc:  # every exception class is an outcome here
        return [type(exc).__name__, "", "", digest(str(exc).encode())]
    res = verify_spectrum(spectrum, strict=False)["max_residual"]
    sizes = " ".join(str(b.size) for b in spectrum.blocks)
    form = spectrum.matrices
    return ["ok", f"{res:.3e}", sizes, digest(form.f.tobytes(), form.duals.tobytes())]


def run(stream) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(HEADER)
    with warnings.catch_warnings():
        # quartic points outside the physical region warn about a Gamma
        # with negative eigenvalues; the outcome is what is recorded
        warnings.simplefilter("ignore", UserWarning)
        for inputs in (catalog_inputs(), random_inputs(), design_inputs()):
            for name, build in inputs:
                writer.writerow([name] + outcome(build))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="CSV file to write (default: stdout)")
    args = parser.parse_args()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            run(fh)
    else:
        run(sys.stdout)
