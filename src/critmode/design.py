"""Constructors for critically damped two-oscillator systems, plus a catalog.

Writing gamma = Gamma/2, a two-oscillator system has characteristic
polynomial det(K - i w Gamma - w^2 I) whose coefficients give four
constraints on (k11, k12, k22, gamma11, gamma12, gamma22).  Three target
factorizations are solved in closed form:

(w + i)^4  (one fourth-order block at -i):
    k11 k22 - k12^2 = 1
    gamma11 + gamma22 = 2
    k11 + k22 + 4 (gamma11 gamma22 - gamma12^2) = 6
    k11 gamma22 + k22 gamma11 - 2 k12 gamma12 = 2
with K parameterized by two reals,
    K = [[e^y cosh x, sinh x], [sinh x, e^-y cosh x]],
which solves the first constraint identically; the remaining three fix the
gammas (quadratic in gamma11, branch chosen below).  Gamma >= 0 requires
cosh x cosh y <= 3.

(w + i)^3 (w + i b), b != 1  (third-order block plus a simple mode):
    k11 k22 - k12^2 = b
    gamma11 + gamma22 = (3 + b)/2
    k11 + k22 + 4 (gamma11 gamma22 - gamma12^2) = 3 (1 + b)
    k11 gamma22 + k22 gamma11 - 2 k12 gamma12 = (1 + 3b)/2
solved in the damping eigenbasis (gamma12 = 0) for given (b, Gamma11).

(w + i - b)^2 (w + i + b)^2  (two second-order blocks off the axis):
    k11 k22 - k12^2 = (1 + b^2)^2
    gamma11 + gamma22 = 2
    k11 + k22 + 4 (gamma11 gamma22 - gamma12^2) = 6 + 2 b^2
    k11 gamma22 + k22 gamma11 - 2 k12 gamma12 = 2 (1 + b^2)
solved at the marginal choice Gamma = diag(4, 0), where everything is
closed-form: K = [[5 + b^2, -2 sqrt(1+b^2)], [-2 sqrt(1+b^2), 1 + b^2]]
(k12 < 0 so that b -> 0 recovers the quartic reference matrix).

Where a sign branch is free, the one reproducing the catalog's rational
reference matrices is hard-coded.  The catalog bundles these systems with
exact basis fixtures (rational times a square-root surd times a phase) and
the reference perturbation directions with their exact xi and xi' values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import ArgumentError
from .model import OscillatorSystem, build_system

CONSTRAINT_TOL = 1e-12


class DesignError(ArgumentError, RuntimeError):
    """No real solution exists for the requested design parameters."""


def _invariant_terms(sys: OscillatorSystem) -> tuple:
    """The terms summed in each of the four constraints' left-hand sides."""
    k = sys.K
    g = 0.5 * sys.Gamma
    return (
        (k[0, 0] * k[1, 1], -k[0, 1] ** 2),
        (g[0, 0], g[1, 1]),
        (k[0, 0], k[1, 1], 4.0 * g[0, 0] * g[1, 1], -4.0 * g[0, 1] ** 2),
        (k[0, 0] * g[1, 1], k[1, 1] * g[0, 0], -2.0 * k[0, 1] * g[0, 1]),
    )


def _invariants(sys: OscillatorSystem) -> np.ndarray:
    """Left-hand sides of the four constraints, in the module docstring's order."""
    return np.array([sum(terms) for terms in _invariant_terms(sys)])


def quartic_constraint_residuals(sys: OscillatorSystem) -> np.ndarray:
    """Absolute residuals of the four (w+i)^4 constraints."""
    return np.abs(_invariants(sys) - np.array([1.0, 2.0, 6.0, 2.0]))


def cubic_constraint_residuals(sys: OscillatorSystem, b: float) -> np.ndarray:
    """Absolute residuals of the (w+i)^3 (w+ib) constraints."""
    targets = [b, (3.0 + b) / 2.0, 3.0 * (1.0 + b), (1.0 + 3.0 * b) / 2.0]
    return np.abs(_invariants(sys) - np.array(targets))


def double2_constraint_residuals(sys: OscillatorSystem, b: float) -> np.ndarray:
    """Absolute residuals of the (w+i-b)^2 (w+i+b)^2 constraints."""
    c = 1.0 + b * b
    targets = [c * c, 2.0, 6.0 + 2.0 * b * b, 2.0 * c]
    return np.abs(_invariants(sys) - np.array(targets))


def _check(residuals: np.ndarray, sys: OscillatorSystem) -> None:
    """Raise DesignError unless every constraint holds to rounding.

    Each residual is judged relative to the size of the terms summed in its
    invariant (at least 1), since rounding error grows with them: with K
    entries near 1e4 an exact solution leaves residuals near 1e-11.
    """
    scale = np.array(
        [max(1.0, sum(abs(t) for t in terms)) for terms in _invariant_terms(sys)]
    )
    worst = float(np.max(residuals / scale))
    if worst > CONSTRAINT_TOL:
        raise DesignError(
            f"{sys.label}: relative constraint residual {worst:.3e}"
        )


def quartic_critical(x: float, y: float) -> OscillatorSystem:
    """System with one fourth-order block at -i, parameterized by (x, y).

    The gamma quadratic has two real roots; the branch with larger gamma11
    is taken, which reproduces the reference matrices K = [[5,-2],[-2,1]],
    Gamma = diag(4,0) at sinh x = -2, e^(2y) = 5.
    """
    a = math.exp(y) * math.cosh(x)
    c = math.exp(-y) * math.cosh(x)
    b = math.sinh(x)
    if math.cosh(x) * math.cosh(y) > 3.0 + 1e-12:
        warnings.warn(
            "cosh(x) cosh(y) > 3: the damping matrix leaves the positive-"
            "semidefinite region",
            stacklevel=2,
        )
    if abs(b) > 1e-14:
        a2 = 4.0 * b * b + (c - a) ** 2
        a1 = 4.0 * (a - 1.0) * (c - a) - 8.0 * b * b
        a0 = 4.0 * (a - 1.0) ** 2 + b * b * (6.0 - a - c)
        disc = a1 * a1 - 4.0 * a2 * a0
        if disc < -1e-10 * max(1.0, a1 * a1):
            raise DesignError(
                f"gamma quadratic has no real root (disc = {disc:.3e})"
            )
        u = (-a1 + math.sqrt(max(disc, 0.0))) / (2.0 * a2)
        v = 2.0 - u
        w = (2.0 * (a - 1.0) + u * (c - a)) / (2.0 * b)
    elif abs(a - c) > 1e-14:
        u = 2.0 * (a - 1.0) / (a - c)
        v = 2.0 - u
        w2 = u * v - (6.0 - a - c) / 4.0
        if w2 < -1e-10:
            raise DesignError(f"gamma12^2 = {w2:.3e} < 0")
        w = math.sqrt(max(w2, 0.0))
    else:
        u = v = 1.0
        w = 0.0
    # One or two Newton steps squeeze the quadratic-formula rounding out of
    # the three gamma constraints.
    for _ in range(2):
        r = np.array(
            [
                u + v - 2.0,
                a + c + 4.0 * (u * v - w * w) - 6.0,
                a * v + c * u - 2.0 * b * w - 2.0,
            ]
        )
        if np.max(np.abs(r)) < 1e-15:
            break
        jac = np.array(
            [
                [1.0, 1.0, 0.0],
                [4.0 * v, 4.0 * u, -8.0 * w],
                [c, a, -2.0 * b],
            ]
        )
        try:
            delta = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        u, v, w = u + delta[0], v + delta[1], w + delta[2]
    gamma = np.array([[u, w], [w, v]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys = build_system(np.array([[a, b], [b, c]]), 2.0 * gamma,
                           label=f"quartic(x={x:g},y={y:g})")
    _check(quartic_constraint_residuals(sys), sys)
    return sys


def cubic_critical(b: float, gamma11: float) -> OscillatorSystem:
    """System with a third-order block at -i plus a simple mode at -ib.

    Works in the damping eigenbasis; ``gamma11`` is the (1,1) entry of the
    stored damping matrix Gamma (twice the gamma of the constraint
    equations).  The nonnegative k12 branch is taken, matching the rational
    instance b = 4, Gamma = diag(6, 1), K = [[41,8],[8,4]]/5.
    """
    if abs(b - 1.0) < 1e-12:
        raise ArgumentError("b = 1 merges the simple mode into the block")
    g11 = gamma11 / 2.0
    g22 = (3.0 + b) / 2.0 - g11
    if abs(g22 - g11) < 1e-12:
        raise DesignError(
            "gamma11 = gamma22: the stiffness entries are not determined"
        )
    s = 3.0 * (1.0 + b) - 4.0 * g11 * g22
    r = (1.0 + 3.0 * b) / 2.0
    k11 = (r - g11 * s) / (g22 - g11)
    k22 = s - k11
    d = k11 * k22 - b
    if d < -1e-12 * max(1.0, abs(k11 * k22)):
        raise DesignError(f"k12^2 = {d:.3e} < 0 for b={b:g}, gamma11={gamma11:g}")
    k12 = math.sqrt(max(d, 0.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys = build_system(
            np.array([[k11, k12], [k12, k22]]),
            np.array([[2.0 * g11, 0.0], [0.0, 2.0 * g22]]),
            label=f"cubic(b={b:g},gamma11={gamma11:g})",
        )
    _check(cubic_constraint_residuals(sys, b), sys)
    return sys


def double2_critical(b: float) -> OscillatorSystem:
    """Two second-order blocks at -i +/- b, with Gamma = diag(4, 0).

    Closed form at the marginal damping choice; the negative k12 branch
    makes b -> 0 recover the quartic reference stiffness.
    """
    if not b > 0.0:
        raise ArgumentError("b must be positive")
    c = 1.0 + b * b
    k12 = -2.0 * math.sqrt(c)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sys = build_system(
            np.array([[5.0 + b * b, k12], [k12, c]]),
            np.array([[4.0, 0.0], [0.0, 0.0]]),
            label=f"double2(b={b:g})",
        )
    _check(double2_constraint_residuals(sys, b), sys)
    return sys


def scale_system(sys: OscillatorSystem, a: float) -> OscillatorSystem:
    """Frequency rescaling K -> a^2 K, Gamma -> a Gamma (eigenvalues scale by a)."""
    if not a > 0.0:
        raise ArgumentError("scale factor must be positive")
    label = f"{sys.label}*{a:g}" if sys.label else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return build_system(a * a * sys.K, a * sys.Gamma, label=label)


# ---------------------------------------------------------------------------
# exact fixtures
# ---------------------------------------------------------------------------

_PHASES = {
    "1": 1.0 + 0.0j,
    "-1": -1.0 + 0.0j,
    "i": 1.0j,
    "-i": -1.0j,
    "e+ipi/4": np.exp(1j * np.pi / 4.0),
    "e-ipi/4": np.exp(-1j * np.pi / 4.0),
}


@dataclass(frozen=True)
class FixtureRow:
    """One exact basis vector: (sqrt(surd)/den) * phase * integer entries."""

    num: tuple  # complex integer entries as (re, im) pairs
    den: int
    surd: int = 1
    phase: str = "1"

    def to_array(self) -> np.ndarray:
        ints = np.array([re + 1j * im for re, im in self.num])
        return ints * (math.sqrt(self.surd) / self.den) * _PHASES[self.phase]

    def to_json(self) -> dict:
        return {
            "num": [[int(re), int(im)] for re, im in self.num],
            "den": self.den,
            "surd": self.surd,
            "phase": self.phase,
        }


def _rows(*rows) -> tuple:
    return tuple(
        FixtureRow(
            num=tuple((int(e.real), int(e.imag)) for e in np.atleast_1d(ints)),
            den=den,
            surd=surd,
            phase=phase,
        )
        for ints, den, surd, phase in rows
    )


@dataclass(frozen=True)
class PerturbationCase:
    """A reference perturbation direction with its exact coefficients."""

    name: str
    delta_k: np.ndarray
    xi: complex
    xi_prime: complex | None = None


@dataclass(frozen=True)
class CatalogEntry:
    """Reference system with exact fixtures.

    chains and duals are keyed by the index into expected_blocks of the
    block they belong to (pairing labels cannot serve as keys: distinct
    blocks on the imaginary axis share label zero).
    """

    name: str
    system: OscillatorSystem
    expected_blocks: tuple  # ((omega, M), ...)
    chains: dict = field(default_factory=dict)
    duals: dict = field(default_factory=dict)
    perturbations: tuple = ()

    @property
    def crossing(self) -> bool:
        """Whether two expected blocks share one omega: a level crossing."""
        omegas = [w for w, _ in self.expected_blocks]
        return len(set(omegas)) < len(omegas)

    def chain_array(self, index: int) -> np.ndarray:
        return np.array([row.to_array() for row in self.chains[index]])

    def matching_block(self, spectrum, index: int):
        """The spectrum block matching expected_blocks[index] by (omega, M)."""
        omega, m = self.expected_blocks[index]
        for b in spectrum.blocks:
            if b.size == m and abs(b.omega - omega) <= 1e-6:
                return b
        raise KeyError(
            f"no block of size {m} at omega={omega} in the spectrum"
        )


def _e11(n: int = 2) -> np.ndarray:
    m = np.zeros((n, n))
    m[0, 0] = 1.0
    return m


def _mu(m11, m12, m22) -> np.ndarray:
    return np.array([[m11, m12], [m12, m22]], dtype=float)


def _single_critical(system: OscillatorSystem) -> CatalogEntry:
    return CatalogEntry(
        name=system.label,
        system=system,
        expected_blocks=(((-1j), 2),),
        chains={
            0: _rows(
                (np.array([1, -1]), 1, 1, "1"),
                (np.array([0, -1j]), 1, 1, "1"),
            )
        },
        duals={
            0: _rows(
                (np.array([1, 0]), 1, 1, "1"),
                (np.array([-1j, -1j]), 1, 1, "1"),
            )
        },
        perturbations=(
            PerturbationCase("e11", np.array([[1.0]]), xi=1.0 + 0.0j),
        ),
    )


def _quartic_jb4(system: OscillatorSystem) -> CatalogEntry:
    return CatalogEntry(
        name=system.label,
        system=system,
        expected_blocks=(((-1j), 4),),
        chains={
            0: _rows(
                (np.array([1, 1, -1, -1]), 1, 2, "i"),
                (np.array([-1, 1, 3, 1]), 2, 2, "1"),
                (np.array([-1, -1, 5, -3]), 8, 2, "i"),
                (np.array([-1, 1, -1, -3]), 16, 2, "1"),
            )
        },
        duals={
            0: _rows(
                (np.array([5, 3, 1, -1]), 16, 2, "i"),
                (np.array([-1, 3, 1, 1]), 8, 2, "1"),
                (np.array([1, -1, 1, -1]), 2, 2, "i"),
                (np.array([-3, 1, -1, -1]), 1, 2, "1"),
            )
        },
        perturbations=(
            PerturbationCase("e11", _e11(), xi=-2.0 + 0.0j),
            PerturbationCase(
                "mu", _mu(1.0, -1.5, 2.0), xi=0.0 + 0.0j, xi_prime=1.0j
            ),
        ),
    )


def _cubic_jb3(system: OscillatorSystem) -> CatalogEntry:
    return CatalogEntry(
        name=system.label,
        system=system,
        expected_blocks=(((-1j), 3), ((-4j), 1)),
        chains={
            0: _rows(
                (np.array([2, -4, -2, 4]), 15, 15, "e+ipi/4"),
                (np.array([-19, -22, 43, -26]), 180, 15, "e-ipi/4"),
                (np.array([-221, -78, 525, 430]), 2880, 15, "e+ipi/4"),
            ),
            1: _rows((np.array([8, -1, -32, 4]), 45, 15, "e+ipi/4")),
        },
        duals={
            0: _rows(
                (np.array([801, -352, 221, 78]), 2880, 15, "e+ipi/4"),
                (np.array([-71, -48, -19, -22]), 180, 15, "e-ipi/4"),
                (np.array([-10, 0, -2, 4]), 15, 15, "e+ipi/4"),
            ),
            1: _rows((np.array([-16, -3, -8, 1]), 45, 15, "e+ipi/4")),
        },
        perturbations=(
            PerturbationCase("e11", _e11(), xi=4.0j / 15.0),
            PerturbationCase(
                "mu", _mu(-2.0, 0.5, 1.0), xi=0.0 + 0.0j,
                xi_prime=1.0 + 0.0j,
            ),
        ),
    )


def _double_jb2(system: OscillatorSystem) -> CatalogEntry:
    return CatalogEntry(
        name=system.label,
        system=system,
        expected_blocks=((4.0 / 3.0 - 1j, 2), (-4.0 / 3.0 - 1j, 2)),
        chains={
            0: _rows(
                (np.array([3 - 6j, -3 - 6j, -11 + 2j, -5 + 10j]), 24, 6, "1"),
                (np.array([15 + 30j, -15 + 30j, -23 - 74j, 7 + 14j]), 192, 6, "1"),
            )
        },
        duals={
            0: _rows(
                (np.array([-46 - 37j, -14 - 7j, -30 - 15j, -30 + 15j]), 192, 6, "1"),
                (np.array([22 - 1j, -10 + 5j, 6 - 3j, 6 + 3j]), 24, 6, "1"),
            )
        },
        perturbations=(
            PerturbationCase("e11", _e11(), xi=-(9.0 + 12.0j) / 32.0),
        ),
    )


def _crossed_pair(system: OscillatorSystem) -> CatalogEntry:
    return CatalogEntry(
        name=system.label,
        system=system,
        expected_blocks=(((-1j), 2), ((-1j), 2)),
    )


# Each catalog entry by name: its K and Gamma, and the builder of its
# fixtures from its system.  A lookup by name builds one system (and, for
# catalog_entry, its fixtures) rather than all of them.
_CATALOG = {
    "single-critical": ([[1.0]], [[2.0]], _single_critical),
    "quartic-jb4": ([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]],
                    _quartic_jb4),
    "cubic-jb3": (np.array([[41.0, 8.0], [8.0, 4.0]]) / 5.0,
                  [[6.0, 0.0], [0.0, 1.0]], _cubic_jb3),
    "double-jb2": (np.array([[61.0, -30.0], [-30.0, 25.0]]) / 9.0,
                   [[4.0, 0.0], [0.0, 0.0]], _double_jb2),
    "crossed-pair": (np.eye(2), 2.0 * np.eye(2), _crossed_pair),
}


def catalog() -> list:
    """Reference systems with exact fixtures and perturbation coefficients."""
    return [catalog_entry(name) for name in _CATALOG]


def catalog_entry(name: str) -> CatalogEntry:
    system = catalog_system(name)
    return _CATALOG[name][2](system)


def catalog_system(name: str) -> OscillatorSystem:
    """The system of catalog entry name, built without the entry's fixtures."""
    if name not in _CATALOG:
        raise ArgumentError(f"no catalog entry named {name!r}")
    k, gamma, _ = _CATALOG[name]
    return build_system(k, gamma, label=name)


def catalog_to_json(entry: CatalogEntry) -> dict:
    """Exact-fixture export: numerators, denominators, surds, phase tags."""
    from .model import system_to_json

    return {
        "name": entry.name,
        "system": system_to_json(entry.system),
        "expected_blocks": [
            [[complex(w).real, complex(w).imag], m] for w, m in entry.expected_blocks
        ],
        "chains": {
            str(lbl): [row.to_json() for row in rows]
            for lbl, rows in entry.chains.items()
        },
        "duals": {
            str(lbl): [row.to_json() for row in rows]
            for lbl, rows in entry.duals.items()
        },
        "perturbations": [
            {
                "name": p.name,
                "delta_k": [[float(v) for v in row] for row in p.delta_k],
                "xi": [p.xi.real, p.xi.imag],
                "xi_prime": None
                if p.xi_prime is None
                else [complex(p.xi_prime).real, complex(p.xi_prime).imag],
            }
            for p in entry.perturbations
        ],
    }
