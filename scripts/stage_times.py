#!/usr/bin/env python3
"""Time each stage of compute_spectrum in process, optionally against
another checkout.

compute_spectrum runs once per input with recording wrappers on the stages
it calls through the jordan module (root linkage, the kernel sequences of
root clusters, mirror matching, chain building and normalization,
conjugation, duals, the matrix form, verification, and the model and
root-finder helpers).  Every recorded call is then timed on its own with
timeit, best of 7 repeats, so no clock is read inside the pipeline; one
np.linalg.eig of the real operator stands for the eig itself.  A stage
called inside another (_kernel_sequence inside _eigenstructure, say) is
timed as its own stage and taken off the one that called it, so each
stage reads its own time and ``rest`` is the whole call minus the stages
(the assembly in compute_spectrum, plus what the stages cost in the
pipeline beyond their timing alone).  enforce_conjugation mutates its
spectrum, so it runs on a fresh copy each time and the copy's cost is
taken off.

With --against DIR (a checkout whose DIR/src/critmode is another version),
both versions are loaded into this one process and timed repeat by repeat
in turn, so machine noise reaches both alike; each line reads "before ->
after", and a stage one version does not call reads 0 there.  Prints one
line per input set: the five catalog systems, and five random
well-separated systems (tests/conftest.py) at each N of --sizes; each
figure is the mean over the set, in microseconds.

Usage: PYTHONPATH=src python scripts/stage_times.py [--against DIR]
           [--sizes 1 4 8 32]
"""

import argparse
import importlib.util
import sys
import timeit
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

import critmode  # noqa: E402
from conftest import well_separated_system  # noqa: E402
from critmode.design import catalog  # noqa: E402

STAGES = (
    "evolution_operator", "metric", "_single_linkage", "char_poly",
    "poly_roots", "_eigenstructure", "_kernel_sequence",
    "_unmirrored_groups", "metric_norm",
    "_simple_eigenvectors", "normalize_block", "build_chain",
    "biorthogonalize_crossing", "enforce_conjugation", "dual_basis",
    "_matrix_form", "verify_spectrum",
)
REPEATS = 7


def _load(name: str, path: Path):
    """The package at path imported under another name."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return sys.modules[f"{name}.jordan"]


class Recorder:
    """Wraps the stages of one jordan module and records their calls within
    compute_spectrum, each with the stage that made it (None for
    compute_spectrum itself)."""

    def __init__(self, jordan):
        self.jordan, self.calls, self.open = jordan, [], []
        for name in STAGES:
            if hasattr(jordan, name):
                setattr(jordan, name, self._wrap(name, getattr(jordan, name)))

    def _wrap(self, name, func):
        def wrapper(*args, **kwargs):
            recorded = args
            if name == "enforce_conjugation" and not self.open:
                recorded = (args[0], [(b.omega, b.size, b.chain, b.ledger,
                                       b.near_critical)
                                      for b in args[0].blocks])
            caller = self.open[-1] if self.open else None
            self.calls.append((name, func, recorded, kwargs, caller))
            self.open.append(name)
            try:
                return func(*args, **kwargs)
            finally:
                self.open.pop()
        return wrapper

    def _fresh(self, spectrum, snapshot):
        j = self.jordan
        blocks = [j.JordanBlock(omega=w, size=m, chain=c, ledger=led,
                                near_critical=nc)
                  for w, m, c, led, nc in snapshot]
        return j.Spectrum(system=spectrum.system, blocks=blocks,
                          tol=spectrum.tol, h=spectrum.h, g=spectrum.g,
                          near_critical_clusters=spectrum.near_critical_clusters)

    def jobs(self, system):
        """(stage, callable, sign) triples whose timings sum to the stages
        of one compute_spectrum(system) call, a nested call counted for
        its stage and taken off its caller's."""
        j = self.jordan
        self.calls.clear()
        j.compute_spectrum(system)
        real = (-1j * j.evolution_operator(system)).real
        out = [("TOTAL", lambda: j.compute_spectrum(system), 1),
               ("eig", lambda: np.linalg.eig(real), 1)]
        for name, func, args, kwargs, caller in list(self.calls):
            if name == "enforce_conjugation" and caller is None:
                spectrum, snap = args
                out.append((name, lambda f=func, s=spectrum, b=snap:
                            f(self._fresh(s, b)), 1))
                out.append((name, lambda s=spectrum, b=snap:
                            self._fresh(s, b), -1))
                continue
            run = lambda f=func, a=args, k=kwargs: f(*a, **k)  # noqa: E731
            out.append((name, run, 1))
            if caller is not None:
                out.append((caller, run, -1))
        return out


def stage_table(recorders, systems, number):
    """{stage: [mean us per version]} over systems, versions timed in turn;
    the k-th job of a stage in one version is timed beside the k-th job of
    that stage in the others."""
    table = {}
    for system in systems:
        stages = []
        for r in recorders:
            by_stage = {}
            for name, func, sign in r.jobs(system):
                by_stage.setdefault(name, []).append((func, sign))
            stages.append(by_stage)
        for name in dict.fromkeys(n for by in stages for n in by):
            lists = [by.get(name, []) for by in stages]
            row = table.setdefault(name.lstrip("_"), [0.0] * len(recorders))
            for k in range(max(map(len, lists))):
                jobs = {v: jl[k] for v, jl in enumerate(lists) if k < len(jl)}
                best = dict.fromkeys(jobs, float("inf"))
                for _ in range(REPEATS):
                    for v, (func, _) in jobs.items():
                        best[v] = min(best[v],
                                      timeit.timeit(func, number=number))
                for v, (_, sign) in jobs.items():
                    row[v] += sign * best[v] / number * 1e6 / len(systems)
    total = table.pop("TOTAL")
    table["rest"] = [t - sum(row[v] for row in table.values())
                     for v, t in enumerate(total)]
    table["TOTAL"] = total
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR",
                        help="checkout whose src/critmode is timed first")
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 4, 8, 32])
    args = parser.parse_args()
    recorders = []
    if args.against:
        recorders.append(Recorder(_load(
            "critmode_against", Path(args.against) / "src" / "critmode")))
    recorders.append(Recorder(critmode.jordan))
    inputs = {"catalog": [e.system for e in catalog()]}
    for n in args.sizes:
        rng = np.random.default_rng(n)
        inputs[f"N={n}"] = [well_separated_system(rng, n) for _ in range(5)]
    for label, systems in inputs.items():
        number = 5 if systems[0].N > 16 else 30
        table = stage_table(recorders, systems, number)
        cells = [f"{name} " + " -> ".join(f"{t:.1f}" for t in row)
                 for name, row in table.items()]
        print(f"{label}: " + "; ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
