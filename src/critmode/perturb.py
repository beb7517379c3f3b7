"""Perturbation theory around critical points.

A stiffness perturbation K -> K + eps * DK (damping untouched) splits a size-M
Jordan block at omega_j into M simple eigenvalues

    omega_k = omega_j + lambda * zeta_k,
    lambda = (eps * xi)**(1/M),   zeta_k = exp(2 pi i k / M),

an equiangular star whose radius grows like eps**(1/M) and whose single
controlling number is the coordinate-space matrix element

    xi = f_{j,0}^x . DK . f_{j,0}^x        (x superscript: position part).

Flipping the sign of eps rotates the star by pi/M.  The split eigenvectors
are f_k = sum_n (lambda zeta_k)^n f_{j,n} with bilinear norms
M (lambda zeta_k)^(M-1).

When xi vanishes (non-generic direction) one eigenvalue stays put at leading
order while the other M-1 split like a generic block of size M-1 with
Delta_omega^(M-1) = 2 eps xi', where xi' = f_{j,1}^x . DK . f_{j,0}^x.
Which case applies depends on xi, not on eps; is_generic states the test.
The predictors take a scalar eps or a 1-D grid and make that test once per
call, so a whole sweep is predicted after one genericity decision.

The numerical truth is the LAPACK spectrum of H(K + eps DK) = H + eps DH, for
a scalar eps or a whole grid in one stacked call.

The determinant route offers an independent check: expanding
det(H(eps) - omega) in eps, the linear coefficient normalized by the
spectator factor prod_(l != j) (omega_j - omega_l)^(M_l) equals -xi.

Higher orders shift the xi term into the unperturbed operator; the residual
matrix elements, transformed to the split basis, give corrections of order
lambda^2 per eigenvalue.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .jordan import JordanBlock, Spectrum, _basis_matrices, compute_spectrum
from .linalg import ArgumentError, Tolerances, as_grid
from .model import OscillatorSystem, bilinear, evolution_operator, symmetric_matrix

GENERICITY_FACTOR = 1e-8
MAX_ASSIGNMENT_SIZE = 8


class NonGenericPerturbationError(RuntimeError):
    """xi vanishes at this scale; use the non-generic splitting path."""


class HigherOrderNonGenericError(RuntimeError):
    """Both xi and xi' vanish; fall back to exact diagonalization."""


class MatchingAmbiguityError(RuntimeError):
    """Eigenvalue shifts too large to assign to the unperturbed cluster."""


# ---------------------------------------------------------------------------
# xi, xi' and the leading-order splitting predictions
# ---------------------------------------------------------------------------

def delta_h(delta_k) -> np.ndarray:
    """Phase-space form of a stiffness perturbation: i[[0,0],[-DK,0]]."""
    dk = np.asarray(delta_k, dtype=float)
    n = dk.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[n:, :n] = -dk
    return 1j * out


def xi_generic(block: JordanBlock, delta_k) -> complex:
    """xi from the coordinate parts of the eigenvector."""
    dk = np.asarray(delta_k, dtype=float)
    n = dk.shape[0]
    u0 = block.chain[0][:n]
    return complex(u0 @ dk @ u0)


def xi_bilinear(sys: OscillatorSystem, block: JordanBlock, delta_k) -> complex:
    """xi via the phase-space bilinear form (f_0, DH f_0); cross-check route."""
    dh = delta_h(delta_k)
    return bilinear(sys, block.chain[0], dh @ block.chain[0])


def xi_prime(block: JordanBlock, delta_k) -> complex:
    """xi' = f_{j,1}^x . DK . f_{j,0}^x, controlling non-generic splitting."""
    if block.size < 2:
        raise ArgumentError("xi' needs a block of size at least 2")
    dk = np.asarray(delta_k, dtype=float)
    n = dk.shape[0]
    return complex(block.chain[1][:n] @ dk @ block.chain[0][:n])


def _genericity_scale(block: JordanBlock, delta_k) -> float:
    dk = np.asarray(delta_k, dtype=float)
    return float(
        np.linalg.norm(dk, 2) * np.linalg.norm(block.chain[0]) ** 2
    )


def is_generic(block: JordanBlock, delta_k) -> bool:
    """|xi| > GENERICITY_FACTOR |DK|_2 |f_0|^2: the predict_splitting case."""
    return abs(xi_generic(block, delta_k)) > (
        GENERICITY_FACTOR * _genericity_scale(block, delta_k)
    )


@dataclass
class SplitPrediction:
    """First-order splitting of one block under a generic perturbation."""

    xi: complex
    lam: complex
    omega: complex
    size: int
    shifts: np.ndarray
    eigenvalues: np.ndarray
    split_vectors: np.ndarray
    norms: np.ndarray


def predict_splitting(
    block: JordanBlock, delta_k, eps
) -> SplitPrediction | list[SplitPrediction]:
    """Equiangular first-order prediction for a generic perturbation.

    eps is a scalar (one SplitPrediction) or a 1-D grid (a list with one
    prediction per eps, each equal to the scalar call bit for bit).  The
    direction is checked once per call: NonGenericPerturbationError when it
    is not generic (see is_generic); callers should then use
    predict_splitting_nongeneric.  ArgumentError for an eps that is not
    finite or not at most 1-D.
    """
    grid, scalar, _ = as_grid(eps, "eps", float)
    xi = xi_generic(block, delta_k)
    if not is_generic(block, delta_k):
        raise NonGenericPerturbationError(
            f"xi = {xi:.3e} is below the genericity threshold; use the "
            "non-generic path"
        )
    m = block.size
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    preds = []
    for e in grid:
        lam = complex(e * xi) ** (1.0 / m)
        shifts = lam * zeta
        vectors = np.array(
            [
                sum((lam * z) ** n * block.chain[n] for n in range(m))
                for z in zeta
            ]
        )
        preds.append(SplitPrediction(
            xi=xi,
            lam=lam,
            omega=block.omega,
            size=m,
            shifts=shifts,
            eigenvalues=block.omega + shifts,
            split_vectors=vectors,
            norms=m * (lam * zeta) ** (m - 1),
        ))
    return preds[0] if scalar else preds


@dataclass
class NonGenericPrediction:
    """Leading-order splitting when xi = 0: one static mode, M-1 moving."""

    xi: complex
    xi_prime: complex
    omega: complex
    size: int
    unshifted_count: int
    shifts: np.ndarray
    eigenvalues: np.ndarray
    m2_caveat: bool


def predict_splitting_nongeneric(
    block: JordanBlock, delta_k, eps
) -> NonGenericPrediction | list[NonGenericPrediction]:
    """Reduced splitting Delta_omega^(M-1) = 2 eps xi' plus one static mode.

    eps is a scalar (one NonGenericPrediction) or a 1-D grid (a list with
    one prediction per eps, each equal to the scalar call bit for bit); xi
    and xi' are checked once per call.  ArgumentError for a generic
    direction, M < 2 or an eps that is not finite or not at most 1-D;
    HigherOrderNonGenericError when xi' vanishes too.

    For M = 2 the quadratic term of the characteristic expansion enters at
    the same order, so the prediction is order-of-magnitude only; the report
    carries an m2_caveat flag for that case.
    """
    grid, scalar, _ = as_grid(eps, "eps", float)
    xi = xi_generic(block, delta_k)
    if is_generic(block, delta_k):
        raise ArgumentError(
            f"perturbation is generic (xi = {xi:.3e}); use predict_splitting"
        )
    if block.size < 2:
        raise ArgumentError("non-generic splitting needs M >= 2")
    xp = xi_prime(block, delta_k)
    if abs(xp) <= GENERICITY_FACTOR * _genericity_scale(block, delta_k):
        raise HigherOrderNonGenericError(
            "both xi and xi' vanish at this scale; no leading-order "
            "prediction, fall back to exact diagonalization"
        )
    m = block.size
    zeta = np.exp(2j * np.pi * np.arange(m - 1) / (m - 1))
    preds = []
    for e in grid:
        shifts = complex(2.0 * e * xp) ** (1.0 / (m - 1)) * zeta
        preds.append(NonGenericPrediction(
            xi=xi,
            xi_prime=xp,
            omega=block.omega,
            size=m,
            unshifted_count=1,
            shifts=shifts,
            eigenvalues=np.concatenate([[block.omega], block.omega + shifts]),
            m2_caveat=(m == 2),
        ))
    return preds[0] if scalar else preds


# ---------------------------------------------------------------------------
# determinant route
# ---------------------------------------------------------------------------

def _adjugate(a: np.ndarray) -> np.ndarray:
    """Adjugate via cofactors; valid for singular matrices too."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    cof = np.zeros_like(a)
    for i in range(n):
        for j in range(n):
            minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
            cof[i, j] = (-1.0) ** (i + j) * np.linalg.det(minor)
    return cof.T


@dataclass
class J1Result:
    """The normalized linear determinant coefficient, two ways."""

    omega: complex
    closed_form: complex
    finite_difference: complex
    xi: complex

    @property
    def difference(self) -> float:
        return abs(self.closed_form - self.finite_difference)

    @property
    def xi_relation_residual(self) -> float:
        """|J1 + xi|; the expansion requires J1(omega_j) = -xi."""
        return abs(self.closed_form + self.xi)


def j1_coefficient(
    sys: OscillatorSystem,
    delta_k,
    spectrum: Spectrum | None = None,
    tol: Tolerances | None = None,
) -> J1Result:
    """Linear coefficient J1(omega_j) of det(H(eps) - omega_j), normalized.

    Both routes divide out the spectator factor R = prod over other blocks of
    (omega_j - omega_l)^(M_l), so that J1(omega_j) = -xi holds regardless of
    the rest of the spectrum:

    * closed form: (-1)^N tr(adj(K - i w Gamma - w^2 I) . DK) / R, which for
      a 2x2 system at w = -i reduces to the familiar combination
      (k22+1-2*gamma22) mu11 + (k11+1-2*gamma11) mu22 + 2(2*gamma12-k12) mu12
      with gamma = Gamma/2;
    * finite differences of det(H(eps) - omega_j) with Richardson
      extrapolation.
    """
    tol = tol or Tolerances()
    spectrum = spectrum or compute_spectrum(sys, tol)
    block = spectrum.largest_block()
    if block.size < 2:
        raise ArgumentError(
            "system is not critical: no block of size >= 2 at this tolerance"
        )
    w = block.omega
    dk = symmetric_matrix("DK", delta_k, sys.N)

    r_spect = 1.0 + 0.0j
    for b in spectrum.blocks:
        if b is block:
            continue
        r_spect *= (w - b.omega) ** b.size

    a = sys.K - 1j * w * sys.Gamma - w**2 * np.eye(sys.N)
    sign = (-1.0) ** sys.N
    closed = sign * np.trace(_adjugate(a) @ dk) / r_spect

    step = 1e-6 * max(1.0, float(np.linalg.norm(sys.K, 2)))
    steps = np.array([step, -step, step / 2.0, -step / 2.0])
    dets = np.linalg.det(
        evolution_operator(sys) - w * np.eye(sys.dim)
        + steps[:, None, None] * delta_h(dk)
    )
    d1 = (dets[0] - dets[1]) / (2.0 * step)
    d2 = (dets[2] - dets[3]) / step
    fd = (4.0 * d2 - d1) / 3.0 / r_spect

    return J1Result(
        omega=w,
        closed_form=complex(closed),
        finite_difference=complex(fd),
        xi=xi_generic(block, dk),
    )


# ---------------------------------------------------------------------------
# numerical truth: exact perturbed spectra, cluster matching, log-log slopes
# ---------------------------------------------------------------------------

def exact_perturbed_spectrum(sys: OscillatorSystem, delta_k, eps) -> np.ndarray:
    """Eigenvalues of H(K + eps*DK, Gamma) = H + eps*DH, sorted by (real, imag).

    eps is a scalar (2N eigenvalues) or a 1-D grid ((E, 2N), one stacked
    LAPACK call).  ArgumentError for a DK that is not N x N, finite and
    symmetric, or an eps that is not finite.
    """
    dh = delta_h(symmetric_matrix("DK", delta_k, sys.N))
    grid, scalar, _ = as_grid(eps, "eps", float)
    ops = evolution_operator(sys) + grid[:, None, None] * dh
    evals = np.sort_complex(np.linalg.eigvals(ops))
    return evals[0] if scalar else evals


def spectral_gap(spectrum: Spectrum, block: JordanBlock) -> float:
    """Distance from block.omega to the nearest eigenvalue of another block."""
    return min(
        (abs(block.omega - b.omega) for b in spectrum.blocks if b is not block),
        default=np.inf,
    )


def cluster_shifts(
    evals: np.ndarray, omega: complex, size: int, gap: float | None = None
) -> np.ndarray:
    """Shifts of the ``size`` eigenvalues nearest omega.

    With ``gap`` given (distance from omega to the nearest foreign
    eigenvalue), raises MatchingAmbiguityError when a shift exceeds half of
    it, since cluster membership is then no longer well defined.
    """
    evals = np.asarray(evals, dtype=complex)
    order = np.argsort(np.abs(evals - omega))
    shifts = evals[order[:size]] - omega
    if gap is not None and float(np.max(np.abs(shifts))) > 0.5 * gap:
        raise MatchingAmbiguityError(
            f"largest shift {float(np.max(np.abs(shifts))):.3e} exceeds half "
            f"the spectral gap {gap:.3e}"
        )
    return shifts


def assign_predictions(numerical: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Permutation p minimizing sum |numerical[i] - predicted[p[i]]|.

    Exact: every assignment is scored and the first of least total distance,
    in lexicographic order, is taken; deterministic pairing for error
    metrics.  Enumeration limits the size to MAX_ASSIGNMENT_SIZE predicted
    points (8! = 40320 assignments); the blocks of the catalog and the
    design families have M <= 4.
    """
    numerical = np.asarray(numerical, dtype=complex)
    predicted = np.asarray(predicted, dtype=complex)
    m, n = numerical.size, predicted.size
    if m > n:
        raise ArgumentError(
            f"cannot assign {m} numerical points to {n} predictions"
        )
    if n > MAX_ASSIGNMENT_SIZE:
        raise ArgumentError(
            f"assign_predictions enumerates assignments and takes at most "
            f"{MAX_ASSIGNMENT_SIZE} predictions, got M = {n}"
        )
    cost = np.abs(numerical[:, None] - predicted[None, :])
    perms = np.array(list(itertools.permutations(range(n), m)), dtype=int)
    totals = cost[np.arange(m), perms].sum(axis=1)
    return perms[int(np.argmin(totals))]


def loglog_slope(x, y):
    """(slope, rms residual) of a straight-line fit to log10 data."""
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    coeff = np.polyfit(lx, ly, 1)
    fit = np.polyval(coeff, lx)
    return float(coeff[0]), float(np.sqrt(np.mean((ly - fit) ** 2)))


# ---------------------------------------------------------------------------
# higher order
# ---------------------------------------------------------------------------

def deltaH_prime_matrix(block: JordanBlock, delta_k, lam: complex) -> np.ndarray:
    """Matrix of the residual perturbation in the split basis.

    The element coupling the dual top to the eigenvector (which carries xi)
    is moved into the unperturbed part, so the returned matrix has no
    lambda^(1-M) piece and its diagonal gives the O(lambda^2) eigenvalue
    corrections when multiplied by epsilon.
    """
    if lam == 0:
        raise ArgumentError("lambda must be nonzero")
    m = block.size
    f_mat, d_mat = _basis_matrices([block])
    d = d_mat.conj().T @ delta_h(delta_k) @ f_mat
    d[m - 1, 0] = 0.0  # the xi element, absorbed into H0'
    # split basis V[n, k] = (lambda zeta_k)^n; the zeta_k are the m-th roots
    # of unity, so V^{-1} = (1/V^T)/m elementwise
    v = (lam * np.exp(2j * np.pi * np.arange(m) / m)) ** np.arange(m)[:, None]
    return (1.0 / v.T) @ d @ v / m


def second_order_eigenvalues(block: JordanBlock, delta_k, eps: float) -> np.ndarray:
    """First-order split eigenvalues plus the diagonal lambda^2 correction."""
    pred = predict_splitting(block, delta_k, eps)
    dhp = deltaH_prime_matrix(block, delta_k, pred.lam)
    return pred.eigenvalues + eps * np.diag(dhp)
