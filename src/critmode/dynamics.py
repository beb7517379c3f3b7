"""Time evolution, Green's functions, sum rules, and the cancellation study.

Jordan basis vectors evolve with polynomial prefactors,

    f_{j,n}(t) = sum_{l=0}^n C_l(omega_j, t) f_{j,n-l},
    C_l(omega, t) = (-i t)^l / l! * exp(-i omega t),

and a general state follows by expanding in duals.  The retarded Green's
function is theta(t) * sum f_{j,n}(t) <f^{j,n}|; its Fourier transform is the
pole expansion with i/(omega - omega_j)^(l+1) replacing theta(t) C_l, and it
solves (H - omega) G(omega) = -i * I.

In matrix form, with the chain vectors as the columns of F, the duals as the
columns of D and J the block-diagonal Jordan form (H F = F J, D^H F = I),

    G(t) = F e^{-iJt} D^H,        G(omega) = i F (omega - J)^{-1} D^H,

where block j of either middle factor is the upper-triangular Toeplitz
matrix with C_l(omega_j, t), or i/(omega - omega_j)^(l+1), on its l-th
superdiagonal.

Separating the completeness relation F P F^T g = I (P the block
anti-identity) into coordinates and momenta yields four sum rules on the
position rows U of F alone (the second summing to the identity, the rest to
zero); check_sum_rules evaluates them as products of U, J and P.

The cancellation experiment probes time evolution near criticality: the
per-mode weights of the naive modal sum diverge as the splitting scale lambda
shrinks (like lambda**(1-M)), yet the summed evolution stays within O(lambda)
of the critical Jordan-basis evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .jordan import (
    JordanBlock,
    Spectrum,
    _basis_matrices,
    _jordan_matrices,
    compute_spectrum,
)
from .linalg import ArgumentError, Tolerances
from .model import OscillatorSystem, metric
from .perturb import exact_perturbed_spectrum, predict_splitting

_EPS = np.finfo(float).eps


class NonDiagonalizableError(RuntimeError):
    """The perturbed system is still too close to critical to diagonalize."""


def evolution_coefficient(l: int, omega: complex, t: float) -> complex:
    """C_l(omega, t) = (-i t)^l / l! * exp(-i omega t).

    Evaluated in log space for large l*|t| so high-order blocks at long
    times cannot overflow the factorial or the power separately.
    """
    if l < 0:
        raise ArgumentError("coefficient order must be nonnegative")
    if t == 0.0:
        return 1.0 + 0.0j if l == 0 else 0.0 + 0.0j
    if l <= 20 and abs(t) < 1e3:
        return (-1j * t) ** l / math.factorial(l) * np.exp(-1j * omega * t)
    log_term = l * np.log(complex(-1j * t)) - math.lgamma(l + 1.0)
    return complex(np.exp(log_term - 1j * omega * t))


def evolve_basis_vector(block: JordanBlock, n: int, t: float) -> np.ndarray:
    """f_{j,n}(t) as the finite sum over lower chain members."""
    if not 0 <= n < block.size:
        raise ArgumentError(f"chain index {n} out of range for size {block.size}")
    out = np.zeros_like(block.chain[0])
    for l in range(n + 1):
        out = out + evolution_coefficient(l, block.omega, t) * block.chain[n - l]
    return out


def _jordan_kernel(blocks, coeff) -> np.ndarray:
    """F T D^H on the span of the blocks, with T_j[k, k+l] = coeff(l, omega_j).

    T = f(J) for any f with f^(l)(omega_j) / l! = coeff(l, omega_j), so the
    result is f(H) on that span (Higham, Functions of Matrices, ch. 1).
    """
    f_mat, d_mat = _basis_matrices(blocks)
    dim = f_mat.shape[1]
    t_flat = np.zeros(dim * dim, dtype=complex)
    pos = 0
    for b in blocks:
        for l in range(b.size):
            # T[pos + k, pos + k + l] for k < size - l: a stride of dim + 1
            start = pos * (dim + 1) + l
            stop = start + (b.size - l) * (dim + 1)
            t_flat[start:stop:dim + 1] = coeff(l, b.omega)
        pos += b.size
    return f_mat @ t_flat.reshape(dim, dim) @ d_mat.conj().T


def _propagator(blocks, t: float) -> np.ndarray:
    """F e^{-iJt} D^H: exp(-iHt) on the span of the blocks."""
    return _jordan_kernel(blocks, lambda l, w: evolution_coefficient(l, w, t))


def evolve_state(spectrum: Spectrum, phi, t: float) -> np.ndarray:
    """Propagate phi to time t through the Jordan-basis expansion."""
    phi = np.asarray(phi, dtype=complex).ravel()
    if phi.size != spectrum.system.dim:
        raise ArgumentError(
            f"state must have length {spectrum.system.dim}, got {phi.size}"
        )
    return _propagator(spectrum.blocks, t) @ phi


def greens_time(spectrum: Spectrum, t: float) -> np.ndarray:
    """Retarded Green's function at time t (zero matrix for t < 0)."""
    if t < 0.0:
        dim = spectrum.system.dim
        return np.zeros((dim, dim), dtype=complex)
    return _propagator(spectrum.blocks, t)


def greens_freq(spectrum: Spectrum, omega: complex) -> np.ndarray:
    """Frequency-domain Green's function (resolvent form) at omega.

    Raises when omega sits within cluster_tol of a pole.
    """
    scale = 1.0 + max(abs(b.omega) for b in spectrum.blocks)
    for b in spectrum.blocks:
        if abs(omega - b.omega) <= spectrum.tol.cluster_tol * scale:
            raise ArgumentError(
                f"omega={omega} is within cluster_tol of the pole at {b.omega}"
            )
    return _jordan_kernel(
        spectrum.blocks, lambda l, w: 1j / (omega - w) ** (l + 1)
    )


@dataclass
class SumRuleReport:
    """Residual matrices of the four coordinate-space sum rules."""

    residuals: list
    max_abs: list
    threshold: float

    @property
    def passed(self) -> bool:
        return all(m <= self.threshold for m in self.max_abs)


def check_sum_rules(spectrum: Spectrum, threshold: float | None = None) -> SumRuleReport:
    """Evaluate the four sum rules on the position parts of the basis.

    With U the position rows of F the rules read U P U^T = 0,
    U J P U^T = I, U J^2 P U^T + i U J P U^T Gamma = 0 and U P U^T Gamma = 0.
    """
    sys = spectrum.system
    thr = threshold if threshold is not None else spectrum.tol.residual_tol
    f_mat, _ = _basis_matrices(spectrum.blocks)
    j_mat, p_mat = _jordan_matrices(spectrum.blocks)
    u = f_mat[: sys.N]
    upu = u @ p_mat @ u.T
    ujpu = u @ j_mat @ p_mat @ u.T
    residuals = [
        upu,
        ujpu - np.eye(sys.N),
        u @ j_mat @ j_mat @ p_mat @ u.T + 1j * ujpu @ sys.Gamma,
        upu @ sys.Gamma,
    ]
    return SumRuleReport(
        residuals=residuals,
        max_abs=[float(np.max(np.abs(r))) for r in residuals],
        threshold=thr,
    )


def rk4_evolve(sys: OscillatorSystem, phi0, times, step: float = 1e-4) -> np.ndarray:
    """Classic fixed-step RK4 for x'' + Gamma x' + K x = 0.

    Deliberately independent of the evolution operator: the right-hand side
    y' = a y, a = [[0, I], [-K, -Gamma]], is assembled from K and Gamma
    directly, so this integrates the physical equation of motion and serves
    as an oracle for the Jordan-basis propagation.  On a linear equation one
    RK4 step of length h is y <- y + d y with d = ha + (ha)^2/2 + (ha)^3/6 +
    (ha)^4/24, built once per span; I + d is never formed, as storing it
    would round away the low bits of d.  ``times`` must be nonnegative and
    ascending; returns the phase-space states at those times (phi0
    corresponds to t=0).
    """
    n = sys.N
    y = np.asarray(phi0, dtype=complex).ravel()
    if y.size != 2 * n:
        raise ArgumentError(f"state must have length {2 * n}")
    a = np.block([[np.zeros((n, n)), np.eye(n)], [-sys.K, -sys.Gamma]])
    eye = np.eye(2 * n)

    out = []
    t_cur = 0.0
    for t in times:
        if t < t_cur:
            raise ArgumentError("times must be ascending and nonnegative")
        span = t - t_cur
        if span > 0.0:
            nsteps = max(1, int(round(span / step)))
            ha = (span / nsteps) * a
            d = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
            for _ in range(nsteps):
                y = y + d @ y
        out.append(y)
        t_cur = t
    return np.array(out)


def energy(sys: OscillatorSystem, phi) -> float:
    """Mechanical energy (p.p + x.K.x)/2 of a real phase-space state."""
    phi = np.asarray(phi)
    n = sys.N
    x, p = phi[:n].real, phi[n:].real
    return float(0.5 * (p @ p + x @ (sys.K @ x)))


@dataclass
class CancellationReport:
    """Outcome of one epsilon point of the small-denominator experiment."""

    eps: float
    xi: complex
    lam: complex
    omega: complex
    size: int
    cluster_eigenvalues: np.ndarray
    mode_weights: np.ndarray
    times: np.ndarray
    naive: np.ndarray
    jordan: np.ndarray
    diffs: np.ndarray

    @property
    def max_diff(self) -> float:
        return float(np.max(self.diffs))

    @property
    def max_weight(self) -> float:
        return float(np.max(self.mode_weights))


def cluster_cancellation_experiment(
    sys: OscillatorSystem,
    delta_k,
    eps: float,
    phi,
    t_grid,
    tol: Tolerances | None = None,
    spectrum: Spectrum | None = None,
) -> CancellationReport:
    """Compare the naive near-critical modal sum with Jordan-basis evolution.

    The cluster modes of the perturbed system are taken at leading order in
    the splitting: f_k = sum_n (lambda zeta_k)^n f_{j,n} with eigenvalues
    omega_j + lambda zeta_k and bilinear norms M (lambda zeta_k)^(M-1)
    (computing them any other way is hopeless anyway: the per-mode pieces are
    condition-limited near the critical point, which is rather the theme of
    this experiment).  The naive sum

        sum_k exp(-i w_k t) f_k (f_k, phi) / (f_k, f_k)

    then carries per-mode weights that blow up like |lambda|**(1-M), while
    its difference from the critical Jordan evolution of the block stays
    small: the negative powers of lambda cancel mode by mode, the resonant
    part reproduces the Jordan evolution exactly, and the remainder is
    higher order in lambda.

    The perturbed system must actually be diagonalizable near the block;
    an exact eigensolve guards that precondition and its cluster eigenvalues
    are recorded for reference.
    """
    tol = tol or Tolerances()
    spectrum = spectrum or compute_spectrum(sys, tol)
    nontrivial = [b for b in spectrum.blocks if b.size >= 2]
    if len(nontrivial) != 1:
        raise ArgumentError(
            f"experiment needs exactly one nontrivial block, found "
            f"{len(nontrivial)}"
        )
    block = nontrivial[0]
    m = block.size
    phi = np.asarray(phi, dtype=complex).ravel()
    t_grid = np.asarray(t_grid, dtype=float)

    evals = exact_perturbed_spectrum(sys, delta_k, eps)
    order = np.argsort(np.abs(evals - block.omega))
    w_exact = evals[order[:m]]
    scale = 1.0 + float(np.max(np.abs(evals)))
    sep_floor = 10.0 * _EPS ** (1.0 / m) * scale
    pair = np.abs(w_exact[:, None] - w_exact[None, :]) + np.eye(m)
    if float(np.min(pair)) < sep_floor:
        raise NonDiagonalizableError(
            f"cluster eigenvalues are separated by {float(np.min(pair)):.3e}, "
            f"below the resolvable floor {sep_floor:.3e}"
        )

    pred = predict_splitting(block, delta_k, eps)
    weights = pred.split_vectors @ metric(sys) @ phi / pred.norms
    naive = (
        np.exp(-1j * np.outer(t_grid, pred.eigenvalues)) * weights
    ) @ pred.split_vectors
    jordan = np.array([_propagator([block], t) @ phi for t in t_grid])
    diffs = np.linalg.norm(naive - jordan, axis=1)
    return CancellationReport(
        eps=eps,
        xi=pred.xi,
        lam=pred.lam,
        omega=block.omega,
        size=m,
        cluster_eigenvalues=w_exact,
        mode_weights=np.abs(weights),
        times=t_grid,
        naive=naive,
        jordan=jordan,
        diffs=diffs,
    )
