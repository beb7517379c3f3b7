"""Dense complex linear algebra and polynomial utilities for small systems.

Everything here targets matrices of modest dimension (tens, not thousands),
where explicit tolerance control matters more than speed.  Polynomials are
stored as 1-D complex arrays of coefficients in ascending degree order, so
``p[k]`` multiplies ``omega**k``.

The two nonstandard pieces are the characteristic polynomial, computed with
the Faddeev-LeVerrier recursion so that coefficient-level output is available
for constraint solving, and a root finder that takes the eigenvalues of the
companion matrix in one LAPACK call (QR iteration) and returns them as they
are, after a residual check on the polynomial.  compute_spectrum uses these
roots only for systems whose real-eig eigenvalues cluster, where
polish_root refines each cluster's centre.  There is no polish of single
roots: where compute_spectrum keeps a simple eigenvalue it takes the
eigenvalue from the real eigendecomposition of H, and the clustered roots of
a critical or near-critical polynomial cannot be polished by a simultaneous
iteration.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

_EPS = np.finfo(float).eps


class ArgumentError(ValueError):
    """Raised when an input violates a documented precondition (exit 2)."""


class NumericalError(RuntimeError):
    """Raised when a numerical decision fails on a valid input (exit 4)."""


class ConvergenceError(NumericalError):
    """Raised when an iterative method fails to reach its tolerance, or a
    recursion (char_poly's) leaves the float range."""


class InconsistentSystemError(NumericalError, ValueError):
    """Raised by solve_affine when A x = b has no solution within tolerance."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the package.

    rank_tol
        Relative singular-value cutoff (fraction of the largest singular
        value) below which directions count as null.
    cluster_tol
        Half-width, relative to 1 + max |omega|, of the band around the
        imaginary axis and of the pole exclusion of greens_freq.  It does
        not cluster eigenvalues: the linkage radius is max(10 cluster_tol,
        3e-3 (1 + max |omega|)), so the default never sets it.
    residual_tol
        Acceptance threshold for verification residuals.
    """

    rank_tol: float = 1e-9
    cluster_tol: float = 1e-6
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_tol", "cluster_tol", "residual_tol"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ArgumentError(f"{name} must be finite and positive, got {value}")
        if self.cluster_tol < self.rank_tol:
            raise ArgumentError("cluster_tol must be >= rank_tol")


DEFAULT_TOL = Tolerances()


def _as_square(m) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ArgumentError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ArgumentError("matrix entries must be finite")
    return m


def as_numbers(values, name: str, dtype) -> np.ndarray:
    """values as an array of dtype, float or complex; ArgumentError naming
    them unless they are numbers, real for float (numpy would raise TypeError
    or ValueError, or drop imaginary parts).  Objects convert as in numpy."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind in ("biufcO" if dtype is complex else "biufO"):
            return arr.astype(dtype, copy=False)
    except (TypeError, ValueError) as exc:  # ragged, or objects not numbers
        raise ArgumentError(f"{name} is not numeric: {exc}") from exc
    what = "numbers" if dtype is complex else "real numbers"
    raise ArgumentError(f"{name} must hold {what}, got {arr.dtype} values")


def as_grid(values, name: str, dtype) -> tuple:
    """(values as a 1-D grid, whether a scalar was given, peak), peak the
    largest magnitude of a real or an imaginary part (for real values the
    largest |value|).

    Raises ArgumentError unless every value is finite and, by as_numbers,
    a number (a real one for float).  Finiteness is judged by the parts, so
    a finite complex value whose modulus overflows is accepted.
    """
    # a real Python scalar (np.float64 is one) gives the array route's
    # grid, flag and peak without building and reading back a 0-d array
    if isinstance(values, (float, int)):
        if not math.isfinite(values):
            raise ArgumentError(f"{name} must be finite, got {values!r}")
        return np.array((values,), dtype=dtype), True, abs(float(values))
    arr = as_numbers(values, name, dtype)
    if arr.ndim > 1:
        raise ArgumentError(f"{name} must be a scalar or a 1-D grid")
    grid = arr.reshape(-1)
    if arr.ndim == 0:
        value = arr.item()
        finite = cmath.isfinite(value)
        peak = max(abs(value.real), abs(value.imag)) if finite else math.inf
    else:
        # np.max propagates a NaN part, so a finite peak clears every part
        real = grid.dtype.kind == "f"
        parts = grid if real else np.concatenate((grid.real, grid.imag))
        peak = float(np.abs(parts).max(initial=0.0))
    if not math.isfinite(peak):
        raise ArgumentError(f"{name} must be finite, got {values!r}")
    return grid, arr.ndim == 0, peak


def char_poly(m) -> np.ndarray:
    """Characteristic polynomial det(M - omega*I), ascending coefficients.

    Uses the Faddeev-LeVerrier recursion, which is exact in rational
    arithmetic and numerically adequate for the dimensions used here
    (up to a few tens).

    Parameters
    ----------
    m : (n, n) array_like
        Square complex matrix.

    Returns
    -------
    (n+1,) ndarray
        Coefficients c with det(M - omega*I) = sum_k c[k] * omega**k.

    Raises
    ------
    ConvergenceError
        If a coefficient, or a product the recursion forms on the way to
        it, overflows float64 (M with entries near 1e308, say); the error
        names the first coefficient lost.  The recursion runs to its end
        without a check, and the coefficients are checked once after it.
    """
    a = _as_square(m)
    n = a.shape[0]
    # det(lambda*I - A) = lambda^n + c_1 lambda^(n-1) + ... + c_n
    desc = np.zeros(n + 1, dtype=complex)
    desc[0] = 1.0
    mk = np.eye(n, dtype=complex)
    # an overflow in a @ mk reaches the next trace as inf or NaN, so the
    # coefficients alone, read once after the recursion, tell whether and
    # where it left the float range
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n + 1):
            mk = a @ mk
            desc[k] = ck = -mk.trace() / k
            mk.flat[:: n + 1] += ck  # the diagonal
    coeffs = desc.tolist()
    if not all(map(cmath.isfinite, coeffs)):
        k = next(k for k, c in enumerate(coeffs) if not cmath.isfinite(c))
        raise ConvergenceError(
            f"the coefficient of omega^{n - k} of the characteristic "
            f"polynomial overflows float64 (Faddeev-LeVerrier step "
            f"{k} of {n})"
        )
    sign = 1.0 if n % 2 == 0 else -1.0
    return sign * desc[::-1].copy()


def polyval(coeffs, z):
    """Evaluate an ascending-coefficient polynomial (Horner)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def polyder(coeffs) -> np.ndarray:
    """Derivative of an ascending-coefficient polynomial."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, coeffs.size)


def poly_from_roots(roots) -> np.ndarray:
    """Monic polynomial with the given roots, ascending coefficients."""
    coeffs = np.array([1.0 + 0.0j])
    for r in np.asarray(roots, dtype=complex):
        coeffs = np.concatenate([[0.0 + 0.0j], coeffs]) - r * np.concatenate(
            [coeffs, [0.0 + 0.0j]]
        )
    return coeffs


def _trim(coeffs) -> np.ndarray:
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size == 0:
        return coeffs
    scale = np.max(np.abs(coeffs))
    if scale == 0.0:
        return coeffs[:1] * 0.0
    keep = coeffs.size
    while keep > 1 and abs(coeffs[keep - 1]) <= 100.0 * _EPS * scale:
        keep -= 1
    return coeffs[:keep]


def companion_matrix(coeffs) -> np.ndarray:
    """Companion matrix of a polynomial (ascending coefficients)."""
    c = _trim(coeffs)
    deg = c.size - 1
    if deg < 1:
        raise ArgumentError("companion matrix needs degree >= 1")
    monic = c / c[-1]
    comp = np.zeros((deg, deg), dtype=complex)
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    return comp


def companion_roots(coeffs) -> np.ndarray:
    """Roots via QR iteration on the companion matrix."""
    return np.linalg.eigvals(companion_matrix(coeffs))


def poly_roots(coeffs, tol: Tolerances | None = None) -> np.ndarray:
    """All roots of a polynomial, with multiplicity.

    The roots are the eigenvalues of the companion matrix, from one LAPACK
    call (QR iteration, backward stable as polynomial roots: Edelman &
    Murakami, Math. Comp. 64, 1995), returned as they are.  Each returned
    root z satisfies ``|p(z)| <= residual_tol * max|coeff|`` (up to the
    unavoidable evaluation noise at large |z|), or ConvergenceError is
    raised.

    Roots are sorted by (real, imag) for deterministic output.
    """
    tol = tol or DEFAULT_TOL
    c = _trim(coeffs)
    if c.size == 0 or np.max(np.abs(c)) == 0.0:
        raise ArgumentError("the zero polynomial has no well-defined roots")
    deg = c.size - 1
    if deg < 1:
        raise ArgumentError("root finding needs degree >= 1")

    # Split off exact roots at the origin for conditioning.
    n_zero = 0
    while n_zero < deg and c[n_zero] == 0.0:
        n_zero += 1
    core = c[n_zero:]
    roots = np.zeros(n_zero, dtype=complex)
    if core.size > 1:
        z = companion_roots(core)
        if not _roots_acceptable(core, z, tol):
            raise ConvergenceError(
                "the companion-matrix roots failed the residual check"
            )
        roots = np.concatenate([roots, z])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def _roots_acceptable(coeffs, roots, tol: Tolerances) -> bool:
    scale = np.max(np.abs(coeffs))
    vals = np.abs(polyval(coeffs, roots))
    # Evaluation noise grows with |z|; keep the documented bound for |z|<=1
    # and scale it by the Horner noise level beyond that.
    lim = np.maximum(
        tol.residual_tol * scale,
        100.0 * _EPS * scale * np.maximum(1.0, np.abs(roots)) ** (coeffs.size - 1),
    )
    return bool(np.all(vals <= lim))


def polish_root(coeffs, z0: complex, multiplicity: int = 1) -> complex:
    """Refine a root of known multiplicity m via Newton on the (m-1)-th derivative.

    An m-fold root of p is a simple root of p^(m-1), where Newton converges
    quadratically; this recovers cluster centers far more accurately than
    the raw root scatter of a multiple root.  At most 50 Newton steps; the
    iteration stops after a step within 10 eps (1 + |z|), and before a step
    no shorter than the one before it (rounding noise, not convergence).
    p^(m-1) and its derivative come from one Horner pass over the two
    coefficient columns.
    """
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(multiplicity - 1):
        c = polyder(c)
    # c and its derivative's coefficients (polyder's, padded to c's length)
    pair = np.zeros((c.size, 2), dtype=complex)
    pair[:, 0] = c
    pair[:-1, 1] = c[1:] * np.arange(1, c.size)
    z, last = complex(z0), math.inf
    for _ in range(50):
        p, dp = polyval(pair, z).tolist()
        if dp == 0.0:
            break
        step = p / dp
        if abs(step) >= last:
            break
        z -= step
        last = abs(step)
        if last <= 10.0 * _EPS * (1.0 + abs(z)):
            break
    return z


def numeric_rank_and_nullspace(m, tol: Tolerances | None = None):
    """Numerical rank and an orthonormal nullspace basis via SVD.

    Returns
    -------
    rank : int
        Number of singular values above ``rank_tol * sigma_max``.
    nullspace : (n, n - rank) ndarray
        Orthonormal columns spanning the numerical kernel; every column v
        has ``norm(M @ v) <= residual_tol * norm(M)``.
    """
    tol = tol or DEFAULT_TOL
    a = _as_square(np.atleast_2d(np.asarray(m, dtype=complex)))
    if a.size == 0:
        return 0, np.zeros((0, 0), dtype=complex)
    _, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[0] == 0.0:
        return 0, np.eye(a.shape[1], dtype=complex)
    rank = int(np.sum(s > tol.rank_tol * s[0]))
    return rank, vh[rank:].conj().T.copy()


def solve_affine(a, b, tol: Tolerances | None = None):
    """Minimum-norm solution of A x = b together with the nullspace of A.

    Raises
    ------
    InconsistentSystemError
        If b is not in the column space of A within ``residual_tol``.
    """
    tol = tol or DEFAULT_TOL
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex).ravel()
    if a.ndim != 2 or a.shape[0] != b.size:
        raise ArgumentError("incompatible shapes for solve_affine")
    u, s, vh = np.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > tol.rank_tol * smax)) if smax > 0.0 else 0
    ub = u.conj().T @ b
    x = vh[:rank].conj().T @ (ub[:rank] / s[:rank]) if rank > 0 else np.zeros(
        a.shape[1], dtype=complex
    )
    nullspace = vh[rank:].conj().T.copy()
    anorm = smax
    resid = np.linalg.norm(a @ x - b)
    bound = tol.residual_tol * (anorm * np.linalg.norm(x) + np.linalg.norm(b))
    if resid > max(bound, tol.residual_tol * anorm):
        raise InconsistentSystemError(
            f"right-hand side lies outside the column space "
            f"(residual {resid:.3e} > bound {bound:.3e})"
        )
    return x, nullspace


def orthonormal_columns(vectors, tol: Tolerances | None = None) -> np.ndarray:
    """Orthonormal basis for the span of the given column vectors."""
    tol = tol or DEFAULT_TOL
    v = np.atleast_2d(np.asarray(vectors, dtype=complex))
    if v.shape[1] == 0:
        return v
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((v.shape[0], 0), dtype=complex)
    keep = int(np.sum(s > tol.rank_tol * s[0]))
    return u[:, :keep]
