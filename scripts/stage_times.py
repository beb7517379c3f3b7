#!/usr/bin/env python3
"""Time each stage of compute_spectrum in process, optionally against
another checkout.

compute_spectrum runs once per input with recording wrappers on the stages
it calls through the jordan module (the eigenvalue stage _eigenvalues and,
inside it, the linkage radius, linkage, the kernel sequences of root
clusters, the axis band, mirror matching and the simple eigenvectors; then
chain building and normalization, block sorting, conjugation, duals, the
matrix form, verification, and the model and root-finder helpers).  Every
recorded call is then timed on its own with timeit, best of 7 repeats, so
no clock is read inside the pipeline; one np.linalg.eig of the real
operator stands for the eig itself, and is taken off _eigenvalues, which
makes it.  A stage called inside another (_kernel_sequence inside
_eigenstructure, or _axis_tol and _sort_blocks inside enforce_conjugation,
say) is timed as its own stage and taken off the one that called it, so
each stage reads its own time.  enforce_conjugation mutates its spectrum,
so it runs on a fresh copy each time and the copy's cost is taken off.

``rest`` is the whole call minus the stages.  It holds the assembly in
compute_spectrum's own body, and also the gap between each stage's timing
alone and its cost inside the pipeline: timed alone, a stage repeats with
its code and data hot, while inside one compute_spectrum call each of its
numpy calls runs once among a few hundred others.  The gap is most of
``rest``: on random systems at N = 1, 4 and 8 ``rest`` reads some 35-40 % of
TOTAL, while clocks read inside the pipeline put the body of
compute_spectrum itself at about 25-50 us.  So a change that takes numpy
calls out of a stage can show more in ``rest`` and TOTAL than in the
stage's own line.

With --against DIR (a checkout whose DIR/src/critmode is another version),
both versions are loaded into this one process and timed repeat by repeat
in turn, so machine noise reaches both alike; each line reads "before ->
after", and a stage one version does not call reads 0 there.  Prints one
line per input set: the five catalog systems, and five random
well-separated systems (tests/conftest.py) at each N of --sizes; each
figure is the mean over the set, in microseconds.

With --near-critical it times one input set instead, the clustered route
of the near-critical regime: each catalog system at K + eps e11 for eps =
0, 1e-2, 1e-4, ..., 1e-14, less the inputs on which some version's
compute_spectrum raises (the line gives how many were kept).

With --kernels it times the dynamics kernels instead: evolve_state,
greens_time and greens_freq on each spectrum, called once per point of a
101-point grid (t in [0, 5], omega in [-4, 4]) with the point as a scalar,
as a loop over the grid calls them, and once on the whole grid.  Each
figure is microseconds per call, the mean over the input set of the best
of 7 repeats; the default sizes are then N = 1..5.  ``point triple`` is
one scalar call of each of the three at one point, timed as the three
scalar loops run in turn: a propagation operation of perfbench's dynamics
workload makes 101 of them (and one check_sum_rules).  Beside them,
``MatrixForm kB`` is the memory the kernels' layouts hold per spectrum
(Spectrum.matrices, each array counted once whatever views it has), the
mean over the set in kilobytes.

Usage: PYTHONPATH=src python scripts/stage_times.py [--against DIR]
           [--sizes 1 4 8 32] [--kernels | --near-critical]
"""

import argparse
import dataclasses
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
    "evolution_operator", "metric", "_eigenvalues", "_linkage_radius",
    "_single_linkage", "char_poly", "poly_roots", "_eigenstructure",
    "_kernel_sequence", "_axis_tol", "_unmirrored_groups", "metric_norm",
    "_simple_eigenvectors", "normalize_block", "build_chain",
    "biorthogonalize_crossing", "_sort_blocks", "enforce_conjugation",
    "dual_basis", "_matrix_form", "verify_spectrum",
)
REPEATS = 7
KERNEL_TIMES = np.linspace(0.0, 5.0, 101)
KERNEL_FREQS = np.linspace(-4.0, 4.0, 101)
NEAR_EPS = [0.0] + [10.0**-p for p in range(2, 16, 2)]


def _load(name: str, path: Path):
    """The package at path imported under another name."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py", submodule_search_locations=[str(path)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


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
            elif name == "_sort_blocks":
                # the list grows after the call (the partners join it)
                recorded = (list(args[0]),)
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
        eig = lambda: np.linalg.eig(real)  # noqa: E731
        out = [("TOTAL", lambda: j.compute_spectrum(system), 1),
               ("eig", eig, 1)]
        if any(name == "_eigenvalues" for name, *_ in self.calls):
            out.append(("_eigenvalues", eig, -1))
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


def form_bytes(form) -> int:
    """Bytes held by the arrays of a MatrixForm, each counted once: a view
    (dual_rows of duals, say) adds nothing beyond the array it views."""
    roots = {}
    for field in dataclasses.fields(form):
        array = getattr(form, field.name)
        if isinstance(array, np.ndarray):
            while array.base is not None:
                array = array.base
            roots[id(array)] = array.nbytes
    return sum(roots.values())


def kernel_jobs(package, system, phi):
    """(label, callable, calls per run) for each kernel on the spectrum
    that package computes for system: the scalar calls over the grid's
    points, then one call on the grid, and last the point triple; and the
    bytes of its MatrixForm."""
    spectrum = package.compute_spectrum(
        package.build_system(system.K, system.Gamma))
    kernels = (
        ("evolve_state", lambda x: package.evolve_state(spectrum, phi, x),
         KERNEL_TIMES),
        ("greens_time", lambda x: package.greens_time(spectrum, x),
         KERNEL_TIMES),
        ("greens_freq", lambda x: package.greens_freq(spectrum, x),
         KERNEL_FREQS),
    )
    jobs, loops = [], []
    for name, kernel, grid in kernels:
        points = list(grid)  # numpy scalars, as iterating the grid gives
        loops.append((kernel, points))
        jobs.append((f"{name} scalar",
                     lambda k=kernel, p=points: [k(x) for x in p], len(points)))
        jobs.append((f"{name} grid", lambda k=kernel, g=grid: k(g), 1))
    # the three scalar loops in turn, as one propagation operation of the
    # perfbench dynamics workload runs them, per point
    jobs.append(("point triple",
                 lambda: [[k(x) for x in p] for k, p in loops],
                 len(KERNEL_TIMES)))
    return jobs, form_bytes(spectrum.matrices)


def kernel_table(packages, systems):
    """{kernel and call form: [mean us per call per version]} over
    systems, versions timed in turn, 3 runs a repeat, and "MatrixForm kB":
    [mean kilobytes of the layouts per version]."""
    table, number = {}, 3
    memory = [0.0] * len(packages)
    rng = np.random.default_rng(0)
    for system in systems:
        phi = (rng.standard_normal(system.dim)
               + 1j * rng.standard_normal(system.dim))
        versions = []
        for v, p in enumerate(packages):
            jobs, nbytes = kernel_jobs(p, system, phi)
            versions.append(jobs)
            memory[v] += nbytes / 1e3 / len(systems)
        for k, (label, _, calls) in enumerate(versions[0]):
            best = [float("inf")] * len(packages)
            for _ in range(REPEATS):
                for v, jobs in enumerate(versions):
                    best[v] = min(best[v],
                                  timeit.timeit(jobs[k][1], number=number))
            row = table.setdefault(label, [0.0] * len(packages))
            for v, t in enumerate(best):
                row[v] += t / number / calls * 1e6 / len(systems)
    table["MatrixForm kB"] = memory
    return table


def near_critical_inputs(packages):
    """Each catalog system at K + eps e11, eps in NEAR_EPS, that every
    package's compute_spectrum takes without raising; and the count of
    inputs."""
    systems = []
    for entry in catalog():
        base = entry.system
        e11 = np.zeros((base.N, base.N))
        e11[0, 0] = 1.0
        systems += [critmode.build_system(base.K + eps * e11, base.Gamma)
                    for eps in NEAR_EPS]

    def computes(package, system):
        try:
            package.compute_spectrum(system)
        except (package.NumericalError, package.VerificationError):
            return False
        return True

    kept = [s for s in systems if all(computes(p, s) for p in packages)]
    return kept, len(systems)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="DIR",
                        help="checkout whose src/critmode is timed first")
    parser.add_argument("--sizes", type=int, nargs="+",
                        help="random system sizes (default 1 4 8 32, and "
                        "1 2 3 4 5 with --kernels)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--kernels", action="store_true",
                      help="time the dynamics kernels, not the stages")
    mode.add_argument("--near-critical", action="store_true",
                      help="time the stages on the catalog systems at "
                      "K + eps e11, eps = 0, 1e-2 .. 1e-14")
    args = parser.parse_args()
    packages = [critmode]
    if args.against:
        packages.insert(0, _load("critmode_against",
                                 Path(args.against) / "src" / "critmode"))
    sizes = args.sizes or ([1, 2, 3, 4, 5] if args.kernels else [1, 4, 8, 32])
    if not args.kernels:
        recorders = [Recorder(p.jordan) for p in packages]
    if args.near_critical:
        kept, total = near_critical_inputs(packages)
        inputs = {f"near-critical ({len(kept)} of {total})": kept}
    else:
        inputs = {"catalog": [e.system for e in catalog()]}
        for n in sizes:
            rng = np.random.default_rng(n)
            inputs[f"N={n}"] = [well_separated_system(rng, n)
                                for _ in range(5)]
    for label, systems in inputs.items():
        if args.kernels:
            table = kernel_table(packages, systems)
        else:
            number = 5 if systems[0].N > 16 else 30
            table = stage_table(recorders, systems, number)
        cells = [f"{name} " + " -> ".join(f"{t:.1f}" for t in row)
                 for name, row in table.items()]
        print(f"{label}: " + "; ".join(cells), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
