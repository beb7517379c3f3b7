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
Which case applies depends on xi, not on eps, and the predictors decide it
(xi counts as 0 up to GENERICITY_FACTOR |DK|_2 |f_0|^2) once per call, for
a scalar eps or a 1-D grid, so a whole sweep is predicted after one
genericity decision, into one prediction whose fields stack a row per eps.

The numerical truth is the real LAPACK spectrum of a = -i H(K + eps DK), with
omega = i lambda, for a scalar eps or a whole grid in one stacked call; a is
real, so the mirror pairs omega, -conj(omega) are exact.

The determinant route offers an independent check: expanding
det(H(eps) - omega) in eps, the linear coefficient normalized by the
spectator factor prod_(l != j) (omega_j - omega_l)^(M_l) equals -xi.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .jordan import JordanBlock, Spectrum, _spectrum_for
from .linalg import ArgumentError, NumericalError, Tolerances, as_grid
from .model import OscillatorSystem, evolution_operator, symmetric_matrix

GENERICITY_FACTOR = 1e-8
MAX_ASSIGNMENT_SIZE = 8


class NonGenericPerturbationError(ArgumentError, RuntimeError):
    """xi vanishes at this scale; use the non-generic splitting path."""


class HigherOrderNonGenericError(NumericalError):
    """Both xi and xi' vanish; fall back to exact diagonalization."""


class MatchingAmbiguityError(NumericalError):
    """Eigenvalue shifts too large to assign to the unperturbed cluster."""


# ---------------------------------------------------------------------------
# xi, xi' and the leading-order splitting predictions
# ---------------------------------------------------------------------------

def critical_block(spectrum: Spectrum, what: str) -> JordanBlock:
    """The block that the splitting theory perturbs: spectrum.largest_block().

    ArgumentError, naming what needs the block, unless it has M >= 2 and no
    other block shares its omega: the blocks of a level crossing split
    together, by a matrix of DH, not by one xi.
    """
    block = spectrum.largest_block()
    if block.size < 2:
        raise ArgumentError(f"{what} needs a critical system (a block with M >= 2)")
    # blocks come sorted by descending size, so the sizes list does too
    sizes = [b.size for b in spectrum.blocks if b.omega == block.omega]
    if len(sizes) > 1:
        raise ArgumentError(
            f"{what} needs an isolated block: omega = {block.omega:.6g} "
            f"is a level crossing of blocks of sizes {sizes}"
        )
    return block


def delta_h(delta_k) -> np.ndarray:
    """Phase-space form of a stiffness perturbation: i[[0,0],[-DK,0]]."""
    dk = np.asarray(delta_k, dtype=float)
    n = dk.shape[0]
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[n:, :n] = -dk
    return 1j * out


# Every public function here that takes DK checks it once, with
# _checked_dk; the private helpers below take the checked array.

def _checked_dk(block: JordanBlock, delta_k) -> np.ndarray:
    """DK as a real array; ArgumentError unless it is N x N (N from the
    block's chain), finite and symmetric."""
    return symmetric_matrix("DK", delta_k, block.chain.shape[1] // 2)


def _xi(block: JordanBlock, dk: np.ndarray) -> complex:
    n = dk.shape[0]
    u0 = block.chain[0][:n]
    return complex(u0 @ dk @ u0)


def _xi_prime(block: JordanBlock, dk: np.ndarray) -> complex:
    if block.size < 2:
        raise ArgumentError("xi' needs a block of size at least 2")
    n = dk.shape[0]
    return complex(block.chain[1][:n] @ dk @ block.chain[0][:n])


def _genericity_threshold(block: JordanBlock, dk: np.ndarray) -> float:
    """GENERICITY_FACTOR |DK|_2 |f_0|^2: below it xi (or xi') counts as 0."""
    # |DK|_2 is the first singular value (norm(dk, 2) adds an axis shuffle)
    return GENERICITY_FACTOR * float(np.linalg.svd(dk, compute_uv=False)[0]
                                     * np.linalg.norm(block.chain[0]) ** 2)


def xi_generic(block: JordanBlock, delta_k) -> complex:
    """xi from the coordinate parts of the eigenvector."""
    return _xi(block, _checked_dk(block, delta_k))


def xi_prime(block: JordanBlock, delta_k) -> complex:
    """xi' = f_{j,1}^x . DK . f_{j,0}^x, controlling non-generic splitting."""
    return _xi_prime(block, _checked_dk(block, delta_k))


def _predictor(block: JordanBlock, dk: np.ndarray):
    """(generic, predict): the predictors' decision for the checked DK, and
    the predictor core of its case as predict(block, dk, eps), which takes
    the threshold of that decision instead of working out |DK|_2 again."""
    threshold = _genericity_threshold(block, dk)
    generic = abs(_xi(block, dk)) > threshold
    core = _predict_splitting if generic else _predict_nongeneric
    return generic, functools.partial(core, threshold=threshold)


@dataclass
class SplitPrediction:
    """First-order splitting of one block under a generic perturbation.

    For a scalar eps, lam is a complex, shifts, eigenvalues and norms are
    (M,) and split_vectors is (M, 2N); for a grid of E values each of these
    fields gains a leading axis of length E, whose row e is the scalar call
    at the e-th eps.
    """

    xi: complex
    lam: complex | np.ndarray
    omega: complex
    size: int
    shifts: np.ndarray
    eigenvalues: np.ndarray
    split_vectors: np.ndarray
    norms: np.ndarray


def predict_splitting(block: JordanBlock, delta_k, eps) -> SplitPrediction:
    """Equiangular first-order prediction for a generic perturbation.

    eps is a scalar or a 1-D grid (one SplitPrediction whose fields stack
    one row per eps, each equal to the scalar call bit for bit).  The
    direction is checked once per call: NonGenericPerturbationError when
    |xi| is at most GENERICITY_FACTOR |DK|_2 |f_0|^2; callers should then
    use predict_splitting_nongeneric.  ArgumentError for an eps that is not
    finite or not at most 1-D, and for a DK that is not N x N, finite and
    symmetric.
    """
    dk = _checked_dk(block, delta_k)
    return _predict_splitting(block, dk, eps, _genericity_threshold(block, dk))


def _predict_splitting(block: JordanBlock, dk: np.ndarray, eps,
                       threshold: float) -> SplitPrediction:
    grid, scalar, _ = as_grid(eps, "eps", float)
    xi = _xi(block, dk)
    if not abs(xi) > threshold:
        raise NonGenericPerturbationError(
            f"xi = {xi:.3e} is below the genericity threshold; use the "
            "non-generic path"
        )
    m = block.size
    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    lams = np.array([complex(e * xi) ** (1.0 / m) for e in grid], dtype=complex)
    scaled = lams[:, None] * zeta  # (E, M): lambda zeta_k
    # f_k = sum_n (lambda zeta_k)^n f_n from n = 0, with lambda zeta_k rounded
    # as a complex scalar product (no fused multiply-add) and np.power
    lz = np.empty_like(scaled)
    lz.real = lams.real[:, None] * zeta.real - lams.imag[:, None] * zeta.imag
    lz.imag = lams.real[:, None] * zeta.imag + lams.imag[:, None] * zeta.real
    vectors = sum(np.power(lz, n)[:, :, None] * block.chain[n]
                  for n in range(m))
    if scalar:
        lams, scaled, vectors = complex(lams[0]), scaled[0], vectors[0]
    return SplitPrediction(xi=xi, lam=lams, omega=block.omega, size=m,
                           shifts=scaled, eigenvalues=block.omega + scaled,
                           split_vectors=vectors, norms=m * scaled ** (m - 1))


@dataclass
class NonGenericPrediction:
    """Leading-order splitting when xi = 0: one static mode, M-1 moving.

    For a scalar eps, shifts is (M-1,) and eigenvalues (M,), the static
    mode first; for a grid of E values each gains a leading axis of length
    E, whose row e is the scalar call at the e-th eps.
    """

    xi: complex
    xi_prime: complex
    omega: complex
    size: int
    shifts: np.ndarray
    eigenvalues: np.ndarray
    m2_caveat: bool


def predict_splitting_nongeneric(
    block: JordanBlock, delta_k, eps
) -> NonGenericPrediction:
    """Reduced splitting Delta_omega^(M-1) = 2 eps xi' plus one static mode.

    eps is a scalar or a 1-D grid (one NonGenericPrediction whose fields
    stack one row per eps, each equal to the scalar call bit for bit); xi
    and xi' are checked once per call.  ArgumentError for a generic
    direction, M < 2, an eps that is not finite or not at most 1-D, or a
    DK that is not N x N, finite and symmetric; HigherOrderNonGenericError
    when xi' vanishes too.

    For M = 2 the quadratic term of the characteristic expansion enters at
    the same order, so the prediction is order-of-magnitude only; the report
    carries an m2_caveat flag for that case.
    """
    dk = _checked_dk(block, delta_k)
    return _predict_nongeneric(block, dk, eps, _genericity_threshold(block, dk))


def _predict_nongeneric(block: JordanBlock, dk: np.ndarray, eps,
                        threshold: float) -> NonGenericPrediction:
    grid, scalar, _ = as_grid(eps, "eps", float)
    xi = _xi(block, dk)
    if abs(xi) > threshold:
        raise ArgumentError(
            f"perturbation is generic (xi = {xi:.3e}); use predict_splitting"
        )
    if block.size < 2:
        raise ArgumentError("non-generic splitting needs M >= 2")
    xp = _xi_prime(block, dk)
    if abs(xp) <= threshold:
        raise HigherOrderNonGenericError(
            "both xi and xi' vanish at this scale; no leading-order "
            "prediction, fall back to exact diagonalization"
        )
    m = block.size
    zeta = np.exp(2j * np.pi * np.arange(m - 1) / (m - 1))
    roots = np.array([complex(2.0 * e * xp) ** (1.0 / (m - 1)) for e in grid],
                     dtype=complex)
    shifts = roots[:, None] * zeta  # (E, M - 1)
    eigenvalues = np.empty((grid.size, m), dtype=complex)
    eigenvalues[:, 0] = block.omega
    eigenvalues[:, 1:] = block.omega + shifts
    if scalar:
        shifts, eigenvalues = shifts[0], eigenvalues[0]
    return NonGenericPrediction(
        xi=xi,
        xi_prime=xp,
        omega=block.omega,
        size=m,
        shifts=shifts,
        eigenvalues=eigenvalues,
        m2_caveat=(m == 2),
    )


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

    spectrum, when given, must be the spectrum of sys (ArgumentError
    otherwise); the block is critical_block's, with its ArgumentError.
    """
    spectrum = _spectrum_for(sys, spectrum, tol)
    block = critical_block(spectrum, "j1_coefficient")
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
        xi=_xi(block, dk),
    )


# ---------------------------------------------------------------------------
# numerical truth: exact perturbed spectra, cluster matching, log-log slopes
# ---------------------------------------------------------------------------

def exact_perturbed_spectrum(sys: OscillatorSystem, delta_k, eps) -> np.ndarray:
    """Eigenvalues of H(K + eps*DK, Gamma) = H + eps*DH, sorted by (real, imag).

    H + eps DH = i a(eps) with a(eps) = [[0, I], [-(K + eps DK), -Gamma]]
    real, so omega = i lambda over the real LAPACK eigenvalues lambda of a:
    the mirror pairs omega, -conj(omega) come out exactly.  eps is a scalar
    (2N eigenvalues) or a 1-D grid ((E, 2N), one stacked LAPACK call).
    ArgumentError for a DK that is not N x N, finite and symmetric, or an
    eps that is not finite.  The real stack a(eps) is assembled from K,
    Gamma and DK directly, with no complex H or DH; its eigenvalues equal,
    bit for bit, those of (-i H).real + eps (-i DH).real.
    """
    dk = symmetric_matrix("DK", delta_k, sys.N)
    grid, scalar, _ = as_grid(eps, "eps", float)
    n = sys.N
    a = np.zeros((grid.size, 2 * n, 2 * n))
    a[:, :n, n:] = np.eye(n)
    a[:, n:, :n] = -(sys.K + grid[:, None, None] * dk)
    a[:, n:, n:] = -sys.Gamma
    evals = np.sort_complex(1j * np.linalg.eigvals(a))
    return evals[0] if scalar else evals


def spectral_gap(spectrum: Spectrum, block: JordanBlock) -> float:
    """Distance from block.omega to the nearest eigenvalue at another omega:
    the other blocks of a level crossing split with the block."""
    return min(
        (abs(block.omega - b.omega) for b in spectrum.blocks
         if b.omega != block.omega),
        default=np.inf,
    )


def cluster_shifts(
    evals: np.ndarray, omega: complex, size: int, gap: float | None = None
) -> np.ndarray:
    """Shifts of the ``size`` eigenvalues nearest omega.

    evals is one spectrum or an (E, 2N) stack, giving (E, size) shifts, each
    row the call on that row.  With ``gap`` given (distance from omega to
    the nearest foreign eigenvalue), raises MatchingAmbiguityError, worded
    for the first row at fault, when a shift exceeds half of it, since
    cluster membership is then no longer well defined.
    """
    evals = np.asarray(evals, dtype=complex)
    if size > evals.shape[-1]:
        raise ArgumentError(f"size {size} exceeds the {evals.shape[-1]} "
                            "eigenvalues given")
    order = np.argsort(np.abs(evals - omega), axis=-1)
    shifts = np.take_along_axis(evals, order[..., :size], axis=-1) - omega
    if gap is not None:
        worst = np.max(np.abs(shifts), axis=-1).ravel()
        worst = worst[worst > 0.5 * gap]
        if worst.size:
            raise MatchingAmbiguityError(
                f"largest shift {float(worst[0]):.3e} exceeds half "
                f"the spectral gap {gap:.3e}"
            )
    return shifts


def assign_predictions(numerical: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """Permutation p minimizing sum |numerical[i] - predicted[p[i]]|.

    Exact: every assignment is scored and the first of least total distance,
    in lexicographic order, is taken; deterministic pairing for error
    metrics; (E, m) and (E, n) stacks give (E, m) permutations, each row the
    call on that row.  Enumeration limits the size to MAX_ASSIGNMENT_SIZE
    predicted points (8! = 40320 assignments); the blocks of the catalog and
    the design families have M <= 4.
    """
    numerical = np.asarray(numerical, dtype=complex)
    predicted = np.asarray(predicted, dtype=complex)
    m, n = numerical.shape[-1], predicted.shape[-1]
    if m > n:
        raise ArgumentError(
            f"cannot assign {m} numerical points to {n} predictions"
        )
    if n > MAX_ASSIGNMENT_SIZE:
        raise ArgumentError(
            f"assign_predictions enumerates assignments and takes at most "
            f"{MAX_ASSIGNMENT_SIZE} predictions, got M = {n}"
        )
    cost = np.abs(numerical[..., :, None] - predicted[..., None, :])
    perms = np.array(list(itertools.permutations(range(n), m)), dtype=int)
    # contiguous rows of m costs, summed as in the one-row call
    totals = np.ascontiguousarray(cost[..., np.arange(m), perms]).sum(axis=-1)
    return perms[np.argmin(totals, axis=-1)]


def loglog_slope(x, y):
    """(slope, rms residual) of the least-squares line through (log10 x,
    log10 y), in closed form about the means: with dx and dy the centred
    logs, slope = dx.dy / dx.dx and the residuals are dy - slope dx.

    ArgumentError unless x and y are 1-D of one length with at least two
    distinct log10 x.
    """
    lx = np.log10(np.asarray(x, dtype=float))
    ly = np.log10(np.asarray(y, dtype=float))
    if lx.ndim != 1 or lx.shape != ly.shape:
        raise ArgumentError(
            f"loglog_slope needs 1-D x and y of one length, got shapes "
            f"{lx.shape} and {ly.shape}")
    if lx.size < 2 or lx.min() == lx.max():
        raise ArgumentError("loglog_slope needs at least two distinct x")
    dx = lx - lx.mean()
    dy = ly - ly.mean()
    slope = float(dx @ dy) / float(dx @ dx)
    residual = dy - slope * dx
    return slope, math.sqrt(float(residual @ residual) / residual.size)
