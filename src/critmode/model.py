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

from .linalg import ArgumentError

SYMMETRY_TOL = 1e-12


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

    ArgumentError names the matrix unless it is square (size x size when
    size is given), nonempty, finite and symmetric to SYMMETRY_TOL.
    """
    try:
        m = np.asarray(m, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(
            f"{name} is not a matrix of real numbers: {exc}"
        ) from exc
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
    scale = max(1.0, peak)
    d = float(np.abs(m - m.T).max())
    if d > SYMMETRY_TOL * scale:
        raise ArgumentError(f"{name} is asymmetric (defect {d:.3e})")
    return m


def build_system(K, Gamma, label: str | None = None) -> OscillatorSystem:
    """Validate and build an oscillator system.

    K and Gamma must be real, square, equal-size, and symmetric to 1e-12.
    A Gamma with negative eigenvalues is physically questionable but not
    forbidden by the formalism, so it only triggers a warning.  Both are
    stored as (m + m^T) / 2.
    """
    K = symmetric_matrix("K", K)
    Gamma = symmetric_matrix("Gamma", Gamma)
    if K.shape != Gamma.shape:
        raise ArgumentError(
            f"size mismatch: K is {K.shape}, Gamma is {Gamma.shape}"
        )
    K, Gamma = _symmetrized(np.array([K, Gamma]))
    sys = OscillatorSystem(K, Gamma, label)
    gamma_eigs = sys.gamma_eigenvalues
    if gamma_eigs[0] < -1e-12 * max(1.0, abs(gamma_eigs[-1])):
        warnings.warn(
            f"Gamma is not positive semidefinite (min eigenvalue "
            f"{gamma_eigs[0]:.3e}); the formalism tolerates this",
            stacklevel=2,
        )
    return sys


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """0.5 (m + m^T) of each matrix of a stack, with 0.5 m + 0.5 m^T where
    m + m^T overflows."""
    mt = m.swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        out = 0.5 * (m + mt)
    return np.where(np.isinf(out), 0.5 * m + 0.5 * mt, out)


def evolution_operator(sys: OscillatorSystem) -> np.ndarray:
    """The 2N x 2N operator H = i[[0, I], [-K, -Gamma]]."""
    n = sys.N
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = np.eye(n)
    h[n:, :n] = -sys.K
    h[n:, n:] = -sys.Gamma
    return 1j * h


def metric(sys: OscillatorSystem) -> np.ndarray:
    """Matrix g of the bilinear map, g = i[[Gamma, I], [I, 0]]."""
    n = sys.N
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[:n, :n] = sys.Gamma
    g[:n, n:] = np.eye(n)
    g[n:, :n] = np.eye(n)
    return 1j * g


def metric_norm(sys: OscillatorSystem) -> float:
    """|g|_2 in closed form.

    In the eigenbasis of Gamma, g = i[[Gamma, I], [I, 0]] splits into 2 x 2
    blocks i[[gamma, 1], [1, 0]] with singular values (sqrt(gamma^2 + 4) +/-
    |gamma|) / 2, so |g|_2 = (gamma_max + sqrt(gamma_max^2 + 4)) / 2 with
    gamma_max = max |gamma| over the eigenvalues of Gamma.
    """
    gamma_max = float(np.max(np.abs(sys.gamma_eigenvalues)))
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


def metric_conjugate(sys: OscillatorSystem, phi) -> np.ndarray:
    """conj(g phi): the covector realizing <result | chi> = (phi, chi)."""
    phi = np.asarray(phi, dtype=complex).ravel()
    if phi.size != sys.dim:
        raise ArgumentError(
            f"phase vector must have length {sys.dim}, got {phi.size}"
        )
    return np.conj(metric(sys) @ phi)


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
    try:
        k = np.asarray(obj["K"], dtype=float)
        gamma = np.asarray(obj["Gamma"], dtype=float)
        declared = int(obj["N"]) if "N" in obj else None
    except (KeyError, TypeError, ValueError) as exc:
        raise ArgumentError(f"invalid system JSON: {exc}") from exc
    sys = build_system(k, gamma, label=obj.get("label"))
    if declared is not None and declared != sys.N:
        raise ArgumentError(
            f"declared N={obj['N']} does not match matrix size {sys.N}"
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

