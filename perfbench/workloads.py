"""The four benchmark workloads: inputs from a seed, operations, checks.

An operation is one call sequence a user of critmode would make (a CLI figure
run, one ``compute_spectrum``, one propagation of a state).  Every pass runs
each operation of its workload once, in the order built here.  Operations
call critmode through module attributes looked up at call time, so the
tracing wrappers installed by ``tracing.py`` see every call.

Checks never compare against stored program output.  They use the
independent computations in ``checks.py``; reference values that need real
work (mpmath eigenvalues, matrix exponentials) are made once per input by
``Op.reference``, which the worker runs outside both the set-up time and the
timed window.
"""

from __future__ import annotations

import csv
import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import critmode as cm
from critmode import cli

import checks

# compute_spectrum fails on some random systems from N = 6 up (root-route
# accuracy loss: rarely at N = 6, often at N = 7 and 8), and which of them
# fail depends on the draw.  Systems of these sizes come from this fixed
# seed, not from the workload seed, so that the share of failed operations
# is the same in every run whatever the seed.
FIXED_LARGE_SEED = 1
SEEDED_SIZES = range(1, 6)
FIXED_SIZES = (6, 7, 8)
# Eight draws per seeded size average out how often a draw sends the root
# finder to its fallback (a 3x slower operation), which would otherwise
# make the work of a pass depend on the seed.
SEEDED_PER_SIZE = 8
FIXED_PER_SIZE = 4

NEAR_EPS = (0.0, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14)

# The operations on which the program fails every time today, by the names
# the workloads give them.  A failure here counts as a failed operation; a
# failure of any other operation also makes the run incorrect.
KNOWN_FAILURES = frozenset({
    # root-route accuracy loss: VerificationError
    "N8#1", "N8#2",
    # the gray zone, clusters that are neither resolved eigenvalues nor
    # Jordan blocks at the default tolerances: VerificationError or ChainError
    "quartic-jb4@0.0001", "quartic-jb4@1e-06", "quartic-jb4@1e-08",
    "cubic-jb3@0.0001", "cubic-jb3@1e-08",
    "double-jb2@1e-08",
    "crossed-pair@0.0001", "crossed-pair@1e-06", "crossed-pair@1e-08",
    # verify_spectrum(strict=True) skips its raise when any cluster is
    # flagged: an unverified basis that the completeness check rejects
    "single-critical@1e-08", "cubic-jb3@1e-06", "double-jb2@1e-06",
})
CANCELLATION_SYSTEMS = ("quartic-jb4", "cubic-jb3")
CANCELLATION_EPS = np.logspace(-10, -6, 9)  # the `critmode cancellation` window
CANCELLATION_TIMES = np.linspace(0.0, 1.5, 7)

PROPAGATION_TIMES = np.linspace(0.0, 5.0, 101)
PROPAGATION_FREQS = np.linspace(-4.0, 4.0, 101)
ORACLE_SYSTEMS = ("quartic-jb4", "random N=4")
ORACLE_TIMES = np.array([0.05, 0.1, 0.15, 0.2])
RK4_STEP = 1e-4  # rk4_evolve's default step


def _e11(n: int) -> np.ndarray:
    dk = np.zeros((n, n))
    dk[0, 0] = 1.0
    return dk


def _mu(m11, m12, m22) -> np.ndarray:
    return np.array([[m11, m12], [m12, m22]])


FIGURE_EPS0 = 1e-4

# The five reference splitting diagrams: system, direction, block size, and
# the exact controlling coefficient (xi, or xi' along a non-generic
# direction), with the smallest epsilon of the exponent fit that
# `reproduce-figure` uses.
FIGURES = {
    1: ("quartic-jb4", _e11(2), 4, False, -2.0, 1e-8),
    2: ("quartic-jb4", _mu(1.0, -1.5, 2.0), 4, True, 1.0j, 1e-8),
    3: ("cubic-jb3", _e11(2), 3, False, 4.0j / 15.0, 1e-8),
    4: ("cubic-jb3", _mu(-2.0, 0.5, 1.0), 3, True, 1.0, 1e-6),
    5: ("double-jb2", _e11(2), 2, False, -(9.0 + 12.0j) / 32.0, 1e-8),
}


@dataclass
class Op:
    """One operation of a pass.

    ``run`` is what the pass times.  ``reference`` computes, once per run and
    outside the timed window, the independent values the check needs;
    ``check(output, reference)`` returns a list of problems.  ``may_fail``
    marks the operations of ``KNOWN_FAILURES``: a raise or a wrong output
    there counts as a failed operation, elsewhere it also makes the run
    incorrect.
    """

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object, object], list]
    reference: Callable[[], object] = lambda: None

    @property
    def may_fail(self) -> bool:
        return self.name in KNOWN_FAILURES


@dataclass
class Workload:
    name: str
    ops: list
    counters: dict = field(default_factory=dict)
    cleanup: Callable[[], None] = lambda: None

    def warmup_ops(self) -> list:
        """The first operation of every kind."""
        seen = {}
        for op in self.ops:
            seen.setdefault(op.kind, op)
        return list(seen.values())


def well_separated(rng, n: int, min_gap: float = 0.05):
    """(K, Gamma) of a random system whose eigenvalues stay min_gap apart.

    A generic positive-definite stiffness and positive-semidefinite damping,
    resampled until no two eigenvalues of H come closer than min_gap.
    """
    for _ in range(200):
        a = rng.standard_normal((n, n))
        k = a @ a.T + n * np.eye(n)
        b = rng.standard_normal((n, n))
        gamma = 0.6 * (b @ b.T) / n
        evals = np.linalg.eigvals(checks.phase_operator(k, gamma))
        d = np.abs(evals[:, None] - evals[None, :]) + 10.0 * np.eye(evals.size)
        if float(np.min(d)) >= min_gap:
            return k, gamma
    raise RuntimeError("could not sample a well-separated system")


def _blocks(spectrum) -> list:
    return [(b.omega, b.chain) for b in spectrum.blocks]


def _state(rng, dim: int) -> np.ndarray:
    phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return phi / np.linalg.norm(phi)


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------

def figures(seed: int, scratch: Path) -> Workload:
    """All ten reference splitting diagrams through the CLI, in process.

    The inputs do not depend on the seed: every diagram runs at the
    reference eps0 = +-1e-4 of scripts/reproduce_figures.py.  A seeded eps0
    would change how many root solves of the display grid fall back from
    Aberth to the companion matrix (a traced pass read fallback ratios
    0.75 to 0.83 over four seeds), so the work of a pass, and with it
    ops_per_s, would depend on the seed by several percent.
    """
    eps0 = FIGURE_EPS0
    root = Path(tempfile.mkdtemp(prefix="figures-", dir=scratch))
    counters = {"cli.bytes_written": 0}
    ops = []
    for fig, (name, dk, m, nongeneric, coeff, eps_min) in FIGURES.items():
        sys0 = cm.catalog_system(name)
        lam = abs(2.0 * eps_min * coeff) ** (1.0 / (m - 1)) if nongeneric else abs(
            eps_min * coeff
        ) ** (1.0 / m)
        for sign, tag in ((1.0, "+"), (-1.0, "-")):
            out = root / f"figure{fig}{'pos' if sign > 0 else 'neg'}"
            argv = [
                "reproduce-figure", "--figure", str(fig),
                f"--eps0={sign * eps0!r}", "--out", str(out),
            ]

            def check(code, _, fig=fig, out=out, m=m, nongeneric=nongeneric,
                      lam=lam, dk=dk, sys0=sys0):
                if code != 0:
                    return [f"reproduce-figure exited with {code}"]
                files = [out / f"figure{fig}.csv", out / f"figure{fig}_summary.json"]
                counters["cli.bytes_written"] += sum(f.stat().st_size for f in files)
                summary = json.loads(files[1].read_text())
                with open(files[0], newline="") as fh:
                    rows = [
                        (float(r["eps"]), float(r["num_re"]), float(r["num_im"]))
                        for r in csv.DictReader(fh)
                    ]
                problems = checks.check_figure(summary, m, nongeneric, lam)
                if len(rows) != 9 * m:
                    problems.append(f"{len(rows)} track rows, expected {9 * m}")
                problems += checks.check_track_eigenvalues(
                    rows, sys0.K, sys0.Gamma, dk
                )
                return problems

            ops.append(
                Op(f"figure{fig}{tag}", "figure",
                   lambda argv=argv: cli.main(argv), check)
            )
    return Workload(
        "figures", ops, counters=counters,
        cleanup=lambda: shutil.rmtree(root, ignore_errors=True),
    )


# ---------------------------------------------------------------------------
# generic spectra
# ---------------------------------------------------------------------------

def _spectrum_op(name, k, gamma) -> Op:
    system = cm.build_system(k, gamma)
    h = checks.phase_operator(k, gamma)
    g = checks.phase_metric(gamma)

    def check(spectrum, reference):
        blocks = _blocks(spectrum)
        omegas = [w for w, chain in blocks for _ in chain]
        return checks.check_blocks(h, g, blocks) + checks.check_eigenvalues(
            omegas, reference
        )

    return Op(name, f"N={k.shape[0]}", lambda: cm.compute_spectrum(system), check,
              reference=lambda: checks.mp_eigenvalues(h))


def generic_spectra(seed: int, scratch: Path) -> Workload:
    """compute_spectrum on random well-separated systems at N = 1..8."""
    ops = []
    rng = np.random.default_rng(seed)
    for n in SEEDED_SIZES:
        for i in range(SEEDED_PER_SIZE):
            ops.append(_spectrum_op(f"N{n}#{i}", *well_separated(rng, n)))
    rng = np.random.default_rng(FIXED_LARGE_SEED)
    for n in FIXED_SIZES:
        for i in range(FIXED_PER_SIZE):
            ops.append(_spectrum_op(f"N{n}#{i}", *well_separated(rng, n)))
    return Workload("generic_spectra", ops)


# ---------------------------------------------------------------------------
# near-critical spectra and the cancellation sweep
# ---------------------------------------------------------------------------

def near_critical(seed: int, scratch: Path) -> Workload:
    """Every catalog system at K + eps e11, plus two cancellation sweeps.

    The inputs do not depend on the seed.  The sweeps follow the state
    (1, 0, 0, 0) of scripts/cancellation_sweep.py: for a random state the
    weights can stay short of their |lambda|^(1-M) asymptote across the
    sweep's window, which would make the slope check fail on some seeds
    without any fault in the program.
    """
    ops = []
    for entry in cm.catalog():
        name, base = entry.name, entry.system
        dk = _e11(base.N)
        for eps in NEAR_EPS:
            k = base.K + eps * dk
            h = checks.phase_operator(k, base.Gamma)
            g = checks.phase_metric(base.Gamma)

            def run(name=name, eps=eps, dk=dk):
                sys0 = cm.catalog_system(name)
                return cm.compute_spectrum(
                    cm.build_system(sys0.K + eps * dk, sys0.Gamma)
                )

            def check(spectrum, _, h=h, g=g):
                blocks = _blocks(spectrum)
                return checks.check_blocks(h, g, blocks) + checks.check_trace(h, blocks)

            ops.append(Op(f"{name}@{eps:g}", "spectrum", run, check))
    for name in CANCELLATION_SYSTEMS:
        phi = np.eye(cm.catalog_system(name).dim)[0]

        def run(name=name, phi=phi):
            sys0 = cm.catalog_system(name)
            dk = _e11(sys0.N)
            spectrum = cm.compute_spectrum(sys0)
            reports = [
                cm.cluster_cancellation_experiment(
                    sys0, dk, eps, phi, CANCELLATION_TIMES, spectrum=spectrum
                )
                for eps in CANCELLATION_EPS
            ]
            return reports

        def check(reports, _):
            m = reports[0].size
            return checks.check_weight_slope(
                [abs(r.lam) for r in reports], [r.max_weight for r in reports], m
            )

        ops.append(Op(f"cancellation:{name}", "cancellation", run, check))
    return Workload("near_critical", ops)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------

def dynamics(seed: int, scratch: Path) -> Workload:
    """Propagation through prebuilt Jordan bases, and the RK4 oracle.

    Spectra of the catalog systems and of one random system per N = 1..5
    are built at set-up (N = 6 is left out: compute_spectrum rejects a few
    random systems of that size, and the set-up would fail on those
    seeds).  A propagation operation evolves a seeded state on a time grid,
    samples the Green's function in time and frequency, and checks the sum
    rules; an oracle operation integrates the equation of motion with
    fixed-step RK4.
    """
    rng = np.random.default_rng(seed)
    systems = [(e.name, e.system) for e in cm.catalog()]
    for n in SEEDED_SIZES:
        systems.append((f"random N={n}", cm.build_system(*well_separated(rng, n))))
    ops = []
    for name, system in systems:
        spectrum = cm.compute_spectrum(system)
        phi = _state(rng, system.dim)
        h = checks.phase_operator(system.K, system.Gamma)

        def run(spectrum=spectrum, phi=phi):
            states = [cm.evolve_state(spectrum, phi, t) for t in PROPAGATION_TIMES]
            greens = [cm.greens_time(spectrum, t) for t in PROPAGATION_TIMES]
            resolvents = [cm.greens_freq(spectrum, w) for w in PROPAGATION_FREQS]
            return states, greens, resolvents, cm.check_sum_rules(spectrum)

        def reference(h=h, phi=phi):
            props = [scipy.linalg.expm(-1j * h * t) for t in PROPAGATION_TIMES]
            return [p @ phi for p in props], props

        def check(out, reference, h=h):
            states, greens, resolvents, sumrules = out
            ref_states, ref_greens = reference
            problems = checks.check_states(states, ref_states)
            problems += checks.check_states(greens, ref_greens)
            problems += checks.check_resolvent(h, PROPAGATION_FREQS, resolvents)
            if not sumrules.passed:
                problems.append(f"sum rules fail: {sumrules.max_abs}")
            return problems

        ops.append(Op(f"propagate:{name}", "propagation", run, check, reference))

    for name, system in systems:
        if name not in ORACLE_SYSTEMS:
            continue
        phi = _state(rng, system.dim)
        h = checks.phase_operator(system.K, system.Gamma)

        def run(system=system, phi=phi):
            return cm.rk4_evolve(system, phi, ORACLE_TIMES, step=RK4_STEP)

        def reference(h=h, phi=phi):
            horizon = np.linspace(0.0, ORACLE_TIMES[-1], 41)
            growth = max(
                float(np.linalg.norm(scipy.linalg.expm(-1j * h * t), 2)) for t in horizon
            )
            states = [scipy.linalg.expm(-1j * h * t) @ phi for t in ORACLE_TIMES]
            return states, checks.rk4_error_bound(h, phi, ORACLE_TIMES[-1], RK4_STEP, growth)

        def check(states, reference):
            return checks.check_rk4(states, *reference)

        ops.append(Op(f"oracle:{name}", "oracle", run, check, reference))
    return Workload("dynamics", ops)


BUILDERS = {
    "figures": figures,
    "generic_spectra": generic_spectra,
    "near_critical": near_critical,
    "dynamics": dynamics,
}
