"""Damped-oscillator systems, their evolution operator, and the bilinear map.

A system of N coupled oscillators obeys

    x'' + Gamma x' + K x = 0,

with K and Gamma real symmetric N x N matrices.  Gamma here is the full
damping matrix as it appears in the equation of motion.  States live in
2N-dimensional phase space, stored as a single complex vector
``(x_1..x_N, p_1..p_N)`` with p = x'.

First-order form: writing i d/dt (x, p) = H (x, p), the evolution operator is

    H = i * [[0, I], [-K, -Gamma]].

H is not hermitian, but it is symmetric under the bilinear map

    (psi, phi) = i * sum_ab [ psi_x Gamma phi_x + psi_x phi_p + psi_p phi_x ]
               = psi^T g phi,        g = i * [[Gamma, I], [I, 0]],

which is symmetric, non-conjugating, and satisfies (psi, H phi) = (H psi, phi).
Duals are obtained by metric conjugation, conj(g phi).
"""

from __future__ import annotations

import json
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .linalg import ArgumentError, as_numbers

SYMMETRY_TOL = 1e-12
# Below this largest |entry| neither m - m^T nor m + m^T can overflow
_HALF_MAX = float(np.finfo(float).max) / 2.0


@dataclass(frozen=True)
class OscillatorSystem:
    """N damped oscillators with stiffness K and damping Gamma.

    Use :func:`build_system` rather than constructing directly; it validates
    shapes, symmetry, and positive-semidefiniteness of Gamma.
    """

    K: np.ndarray
    Gamma: np.ndarray
    label: str | None = None
    gamma_eigenvalues: np.ndarray = field(init=False, repr=False)  # ascending

    def __post_init__(self):
        object.__setattr__(self, "gamma_eigenvalues",
                           np.linalg.eigvalsh(self.Gamma))

    @property
    def N(self) -> int:
        return self.K.shape[0]

    @property
    def dim(self) -> int:
        """Phase-space dimension 2N."""
        return 2 * self.K.shape[0]


def symmetric_matrix(name: str, m, size: int | None = None) -> np.ndarray:
    """m as a real array, checked as build_system checks K and Gamma.

    ArgumentError names the matrix unless it holds real numbers (by
    as_numbers: a complex or a string entry is refused, not cast), and is
    square (size x size when size is given), nonempty, finite and symmetric
    to SYMMETRY_TOL.
    """
    return _checked_symmetric(name, m, size)[0]


def _checked_symmetric(name: str, m, size: int | None = None) -> tuple:
    """(m, peak): symmetric_matrix's array and its largest |entry|."""
    m = as_numbers(m, name, float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"{name} must be square, got shape {m.shape}")
    if size is not None and m.shape != (size, size):
        raise ArgumentError(f"{name} must be {size}x{size}, got {m.shape}")
    if m.size == 0:
        raise ArgumentError(f"{name} is empty, got shape {m.shape}")
    # the max propagates a NaN, so one reduction checks finiteness and
    # gives the scale
    peak = float(np.abs(m).max())
    if not math.isfinite(peak):
        raise ArgumentError(f"{name} has non-finite entries")
    if peak <= _HALF_MAX:
        d = float(np.abs(m - m.T).max())
    else:
        # the defect may be infinite, which the test below refuses as it is
        with np.errstate(over="ignore"):
            d = float(np.abs(m - m.T).max())
    if d > SYMMETRY_TOL * max(1.0, peak):
        raise ArgumentError(f"{name} is asymmetric (defect {d:.3e})")
    return m, peak


def build_system(K, Gamma, label: str | None = None) -> OscillatorSystem:
    """Validate and build an oscillator system.

    K and Gamma must be real, square, equal-size, and symmetric to 1e-12.
    A Gamma with negative eigenvalues is physically questionable but not
    forbidden by the formalism, so it only triggers a warning.  Both are
    stored as (m + m^T) / 2, taken as m / 2 + m^T / 2 where m + m^T
    overflows (only possible past half the float range).
    """
    K, k_peak = _checked_symmetric("K", K)
    Gamma, gamma_peak = _checked_symmetric("Gamma", Gamma)
    if K.shape != Gamma.shape:
        raise ArgumentError(
            f"size mismatch: K is {K.shape}, Gamma is {Gamma.shape}"
        )
    sys = OscillatorSystem(_symmetrized(K, k_peak),
                           _symmetrized(Gamma, gamma_peak), label)
    gamma_eigs = sys.gamma_eigenvalues
    if gamma_eigs[0] < -1e-12 * max(1.0, abs(gamma_eigs[-1])):
        warnings.warn(
            f"Gamma is not positive semidefinite (min eigenvalue "
            f"{gamma_eigs[0]:.3e}); the formalism tolerates this",
            stacklevel=2,
        )
    return sys


def _symmetrized(m: np.ndarray, peak: float) -> np.ndarray:
    """0.5 (m + m^T), with 0.5 m + 0.5 m^T where m + m^T overflows; peak is
    the largest |entry| of m, below _HALF_MAX no sum can."""
    if peak <= _HALF_MAX:
        return 0.5 * (m + m.T)
    with np.errstate(over="ignore"):
        out = 0.5 * (m + m.T)
    return np.where(np.isinf(out), 0.5 * m + 0.5 * m.T, out)


def evolution_operator(sys: OscillatorSystem) -> np.ndarray:
    """The 2N x 2N operator H = i[[0, I], [-K, -Gamma]].

    1j times the real matrix: each entry is the complex product of 1j with
    x + 0j, as when a complex matrix is filled and scaled by 1j, and H.imag
    is the real (-i H).real bit for bit (every zero +0).
    """
    n = sys.N
    a = np.zeros((2 * n, 2 * n))
    a[n:, :n] = -sys.K
    a[n:, n:] = -sys.Gamma
    a.reshape(-1)[n:2 * n * n:2 * n + 1] = 1.0  # I at (i, N + i)
    return 1j * a


def metric(sys: OscillatorSystem) -> np.ndarray:
    """Matrix g of the bilinear map, g = i[[Gamma, I], [I, 0]], as 1j times
    the real matrix (see evolution_operator)."""
    n = sys.N
    g = np.zeros((2 * n, 2 * n))
    g[:n, :n] = sys.Gamma
    flat = g.reshape(-1)
    flat[n:2 * n * n:2 * n + 1] = 1.0  # I at (i, N + i)
    flat[2 * n * n::2 * n + 1] = 1.0  # I at (N + i, i)
    return 1j * g


def metric_norm(sys: OscillatorSystem) -> float:
    """|g|_2 in closed form.

    In the eigenbasis of Gamma, g = i[[Gamma, I], [I, 0]] splits into 2 x 2
    blocks i[[gamma, 1], [1, 0]] with singular values (sqrt(gamma^2 + 4) +/-
    |gamma|) / 2, so |g|_2 = (gamma_max + sqrt(gamma_max^2 + 4)) / 2 with
    gamma_max = max |gamma| over the eigenvalues of Gamma.
    """
    eigs = sys.gamma_eigenvalues  # ascending: the extremes hold the max
    gamma_max = float(max(abs(eigs[0]), abs(eigs[-1])))
    return (gamma_max + math.hypot(gamma_max, 2.0)) / 2.0


def bilinear(sys: OscillatorSystem, psi, phi) -> complex:
    """The symmetric bilinear map (psi, phi); no complex conjugation.

    Componentwise this is i * [psi_x.(Gamma phi_x) + psi_x.phi_p + psi_p.phi_x],
    identical to psi^T g phi.
    """
    psi = np.asarray(psi, dtype=complex).ravel()
    phi = np.asarray(phi, dtype=complex).ravel()
    n = sys.N
    if psi.size != 2 * n or phi.size != 2 * n:
        raise ArgumentError(
            f"phase vectors must have length {2 * n}, got {psi.size} and {phi.size}"
        )
    px, pp = psi[:n], psi[n:]
    fx, fp = phi[:n], phi[n:]
    return complex(1j * (px @ (sys.Gamma @ fx) + px @ fp + pp @ fx))


def system_to_json(sys: OscillatorSystem) -> dict:
    """JSON-ready dict: {"N": ..., "K": [[...]], "Gamma": [[...]], "label": ...}."""
    obj = {
        "N": sys.N,
        "K": [[float(v) for v in row] for row in sys.K],
        "Gamma": [[float(v) for v in row] for row in sys.Gamma],
    }
    if sys.label is not None:
        obj["label"] = sys.label
    return obj


def system_from_json(obj: dict) -> OscillatorSystem:
    """Build a system from the JSON schema used by :func:`system_to_json`."""
    # build_system checks the entries of K and Gamma (real numbers, finite)
    try:
        k, gamma = obj["K"], obj["Gamma"]
    except (KeyError, TypeError) as exc:
        raise ArgumentError(f"invalid system JSON: {exc}") from exc
    declared = obj.get("N")
    # a JSON integer only: int() would truncate 2.5 and parse "2", and
    # true is an int to Python
    if "N" in obj and type(declared) is not int:
        raise ArgumentError(
            f"invalid system JSON: N must be an integer, got {declared!r}"
        )
    sys = build_system(k, gamma, label=obj.get("label"))
    if declared is not None and declared != sys.N:
        raise ArgumentError(
            f"declared N={declared} does not match matrix size {sys.N}"
        )
    return sys


def load_system(path) -> OscillatorSystem:
    """The system of a JSON file; ArgumentError unless it is UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ArgumentError(f"cannot parse system file {path}: {exc}") from exc
    return system_from_json(obj)


def save_system(sys: OscillatorSystem, path) -> None:
    _write_text(path, json.dumps(system_to_json(sys), indent=2) + "\n")


def _write_text(path, text: str) -> None:
    """Make the file at path hold exactly text, UTF-8 encoded.

    An existing file is rewritten in place, through a symlink as open()
    follows it, and then cut to the new length, so its inode and mode are
    kept; a new one is made with mode 0o666 less the umask, as open("w")
    makes it.  The file is never opened with O_TRUNC: on ext4 (mounted
    with the default auto_da_alloc) closing a file truncated to zero starts
    the writeback of its new blocks, which makes rewriting a few kB some
    twenty times slower than writing them in place.  Nothing is fsynced:
    after a crash the file may hold old bytes, new bytes or a mix.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        size = len(data)
        while data:
            data = data[os.write(fd, data):]
        os.ftruncate(fd, size)
    finally:
        os.close(fd)

