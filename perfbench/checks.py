"""Independent checks on critmode outputs.

Everything here is built from K and Gamma by this module itself, or computed
apart from the program (30-digit mpmath eigenvalues, scipy's matrix
exponential, a straight-line fit written here).  Each checker takes plain
arrays and returns a list of problems; an empty list means the output passed.
No checker compares against a stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_TOL = 1e-9  # chain relation, bilinear normalization, completeness
EIGENVALUE_RTOL = 1e-9  # against 30-digit eigenvalues, relative to max(1, |omega|)
TRACE_RTOL = 1e-9  # sum M_j omega_j against tr H, relative to 1 + ||H||
STATE_RTOL = 1e-8  # Jordan-basis propagation against expm(-iHt)
RESOLVENT_TOL = 1e-9  # ||(H - omega) G + iI||, relative to max(1, ||G||)
EXPONENT_TOL = 0.01
ERROR_SLOPE_TOL = 0.1
STATIC_SLOPE_TOL = 0.05
WEIGHT_SLOPE_TOL = 0.05
EQUIANGULAR_FACTOR = 5.0  # offset bound in units of |lambda| at the smallest eps

_EPS = np.finfo(float).eps


def phase_operator(k, gamma) -> np.ndarray:
    """H = i [[0, I], [-K, -Gamma]], assembled from K and Gamma."""
    k = np.asarray(k, dtype=float)
    n = k.shape[0]
    h = np.zeros((2 * n, 2 * n), dtype=complex)
    h[:n, n:] = np.eye(n)
    h[n:, :n] = -k
    h[n:, n:] = -np.asarray(gamma, dtype=float)
    return 1j * h


def phase_metric(gamma) -> np.ndarray:
    """g = i [[Gamma, I], [I, 0]] of the bilinear map (psi, phi) = psi^T g phi."""
    gamma = np.asarray(gamma, dtype=float)
    n = gamma.shape[0]
    g = np.zeros((2 * n, 2 * n), dtype=complex)
    g[:n, :n] = gamma
    g[:n, n:] = np.eye(n)
    g[n:, :n] = np.eye(n)
    return 1j * g


def mp_eigenvalues(h, dps: int = 30) -> np.ndarray:
    """Eigenvalues of h from mpmath at ``dps`` digits, rounded to complex."""
    import mpmath

    with mpmath.workdps(dps):
        m = mpmath.matrix(
            [[mpmath.mpc(z.real, z.imag) for z in row] for row in np.asarray(h)]
        )
        evals = mpmath.eig(m, left=False, right=False)
        return np.array([complex(e) for e in evals])


def check_blocks(h, g, blocks, tol: float = RESIDUAL_TOL) -> list:
    """Chain relation and bilinear normalization of a Jordan basis.

    ``blocks`` is a list of (omega, chain) with chain of shape (M, 2N).
    Requires (H - omega) f_n = f_{n-1} relative to (||H|| + |omega|) max(1,
    ||f_n||), (f_{j,n}, f_{j',m}) = delta_jj' delta_{n+m, M-1} entrywise, and
    the resolution of identity that follows from it, all within ``tol``; the
    block sizes must sum to 2N.
    """
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    problems = []
    sizes = [len(chain) for _, chain in blocks]
    if sum(sizes) != dim:
        problems.append(f"block sizes {sizes} do not sum to {dim}")
        return problems
    hnorm = float(np.linalg.norm(h, 2))
    worst = 0.0
    for omega, chain in blocks:
        a = h - omega * np.eye(dim)
        for n, f in enumerate(chain):
            prev = chain[n - 1] if n > 0 else np.zeros(dim, dtype=complex)
            r = np.linalg.norm(a @ f - prev)
            r /= (hnorm + abs(omega)) * max(1.0, float(np.linalg.norm(f)))
            worst = max(worst, float(r))
    if worst > tol:
        problems.append(f"chain relation residual {worst:.3e} > {tol:.1e}")
    f_mat = np.column_stack([f for _, chain in blocks for f in chain])
    expected = np.zeros((dim, dim), dtype=complex)
    pos = 0
    for m in sizes:
        expected[pos : pos + m, pos : pos + m] = np.fliplr(np.eye(m))
        pos += m
    gram = float(np.max(np.abs(f_mat.T @ g @ f_mat - expected)))
    if gram > tol:
        problems.append(f"bilinear normalization residual {gram:.3e} > {tol:.1e}")
    # resolution of identity sum_j,n f_{j,n} (g f_{j,M-1-n})^T = I, which the
    # dual basis and every propagation rely on
    comp = float(np.max(np.abs(f_mat @ expected @ f_mat.T @ g - np.eye(dim))))
    if comp > tol:
        problems.append(f"completeness residual {comp:.3e} > {tol:.1e}")
    return problems


def check_eigenvalues(omegas, reference, rtol: float = EIGENVALUE_RTOL) -> list:
    """Computed eigenvalues (with multiplicity) against reference eigenvalues.

    Pairs each reference eigenvalue with the nearest unused computed one, in
    order of increasing distance, and bounds every pair's distance by
    ``rtol * max(1, |reference|)``.
    """
    omegas = np.asarray(omegas, dtype=complex)
    reference = np.asarray(reference, dtype=complex)
    if omegas.size != reference.size:
        return [f"{omegas.size} eigenvalues, expected {reference.size}"]
    dist = np.abs(reference[:, None] - omegas[None, :])
    free_ref = set(range(reference.size))
    free_cmp = set(range(omegas.size))
    worst = 0.0
    for flat in np.argsort(dist, axis=None):
        i, j = divmod(int(flat), omegas.size)
        if i in free_ref and j in free_cmp:
            free_ref.discard(i)
            free_cmp.discard(j)
            worst = max(worst, dist[i, j] / max(1.0, abs(reference[i])))
    if worst > rtol:
        return [f"eigenvalue error {worst:.3e} > {rtol:.1e}"]
    return []


def check_trace(h, blocks, rtol: float = TRACE_RTOL) -> list:
    """sum_j M_j omega_j must equal tr H."""
    h = np.asarray(h, dtype=complex)
    total = sum(len(chain) * omega for omega, chain in blocks)
    dev = abs(total - np.trace(h))
    bound = rtol * (1.0 + float(np.linalg.norm(h, 2)))
    if dev > bound:
        return [f"sum M_j omega_j misses tr H by {dev:.3e} > {bound:.1e}"]
    return []


def loglog_slope(x, y) -> float:
    """Least-squares slope of log|y| against log|x|."""
    lx = np.log(np.abs(np.asarray(x, dtype=float)))
    ly = np.log(np.abs(np.asarray(y, dtype=float)))
    lx = lx - lx.mean()
    return float(np.sum(lx * (ly - ly.mean())) / np.sum(lx * lx))


def check_figure(summary: dict, m: int, nongeneric: bool, lam_smallest: float) -> list:
    """Splitting-diagram summary against the first-order theory.

    The moving eigenvalues split like eps^(1/M), or eps^(1/(M-1)) along a
    non-generic direction; first-order errors fall like lambda^2; the star
    is equiangular up to O(lambda), with ``lam_smallest`` computed from the
    exact xi of the catalog; the static mode of a non-generic direction
    moves like eps.
    """
    problems = []
    due = 1.0 / (m - 1) if nongeneric else 1.0 / m
    if abs(summary["exponent"] - due) > EXPONENT_TOL:
        problems.append(f"exponent {summary['exponent']:.4f}, due {due:.4f}")
    if abs(summary["first_order_error_slope"] - 2.0) > ERROR_SLOPE_TOL:
        problems.append(
            f"first-order error slope {summary['first_order_error_slope']:.3f}, due 2"
        )
    offset_bound = EQUIANGULAR_FACTOR * lam_smallest
    if not summary["equiangular_worst_offset"] < offset_bound:
        problems.append(
            f"equiangular offset {summary['equiangular_worst_offset']:.3e} "
            f">= {offset_bound:.3e}"
        )
    if nongeneric:
        slope = summary.get("static_mode_slope")
        if slope is None or abs(slope - 1.0) > STATIC_SLOPE_TOL:
            problems.append(f"static-mode slope {slope}, due 1")
    return problems


def check_track_eigenvalues(rows, k, gamma, delta_k, rtol: float = 1e-8) -> list:
    """Each numerical track point is an eigenvalue of H(K + eps DK).

    ``rows`` are (eps, num_re, num_im) triples; eps = 0 rows are skipped
    (they hold the unperturbed block eigenvalue).
    """
    worst = 0.0
    cache = {}
    for eps, re, im in rows:
        if eps == 0.0:
            continue
        if eps not in cache:
            cache[eps] = np.linalg.eigvals(phase_operator(k + eps * delta_k, gamma))
        evals = cache[eps]
        z = complex(re, im)
        worst = max(worst, float(np.min(np.abs(evals - z))) / max(1.0, abs(z)))
    if worst > rtol:
        return [f"track eigenvalue error {worst:.3e} > {rtol:.1e}"]
    return []


def check_states(states, reference, rtol: float = STATE_RTOL) -> list:
    """Propagated states (or matrices) against reference ones, per time."""
    if len(states) != len(reference):
        return [f"{len(states)} samples, expected {len(reference)}"]
    worst = 0.0
    for got, ref in zip(states, reference):
        got = np.asarray(got)
        ref = np.asarray(ref)
        worst = max(worst, float(np.linalg.norm(got - ref) / np.linalg.norm(ref)))
    if worst > rtol:
        return [f"propagation error {worst:.3e} > {rtol:.1e}"]
    return []


def check_resolvent(h, omegas, greens, tol: float = RESOLVENT_TOL) -> list:
    """(H - omega) G(omega) = -i I at every sampled frequency."""
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    worst = 0.0
    for omega, g in zip(omegas, greens):
        r = (h - omega * np.eye(dim)) @ g + 1j * np.eye(dim)
        worst = max(worst, float(np.max(np.abs(r))) / max(1.0, float(np.max(np.abs(g)))))
    if worst > tol:
        return [f"resolvent residual {worst:.3e} > {tol:.1e}"]
    return []


def rk4_error_bound(h, phi, t_end: float, step: float, growth: float) -> float:
    """Global error bound of fixed-step RK4 on psi' = -iH psi up to t_end.

    Per step the truncation error of RK4 on a linear system is bounded by
    (step ||H||)^5 / 120 times the state norm (the first omitted term of the
    exponential series, with a factor of two for the tail), plus rounding of
    a few ulps; ``growth`` bounds ||exp(-iHs)|| over the horizon and carries
    the local errors to t_end.
    """
    hnorm = float(np.linalg.norm(h, 2))
    steps = max(1, int(round(t_end / step)))
    local = 2.0 * (step * hnorm) ** 5 / 120.0 + 8.0 * _EPS * (1.0 + step * hnorm)
    return steps * local * growth * growth * float(np.linalg.norm(phi))


def check_rk4(states, reference, bound: float) -> list:
    """RK4 states against expm within the truncation bound."""
    if len(states) != len(reference):
        return [f"{len(states)} RK4 states, expected {len(reference)}"]
    worst = max(
        float(np.linalg.norm(np.asarray(s) - np.asarray(r)))
        for s, r in zip(states, reference)
    )
    if worst > bound:
        return [f"RK4 deviation {worst:.3e} exceeds its truncation bound {bound:.3e}"]
    return []


def check_weight_slope(lams, weights, m: int) -> list:
    """Per-mode cancellation weights grow like |lambda|^(1-M)."""
    slope = loglog_slope(lams, weights)
    if abs(slope - (1 - m)) > WEIGHT_SLOPE_TOL:
        return [f"weight slope {slope:.3f}, due {1 - m}"]
    return []
