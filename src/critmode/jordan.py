"""Jordan structure of the evolution operator under the bilinear map.

For a damped-oscillator operator H the eigenvectors can merge at critical
parameter values, leaving Jordan blocks: chains f_{j,0..M-1} obeying

    (H - omega_j) f_{j,n} = f_{j,n-1},     f_{j,-1} = 0.

This module takes the eigenvalues and the eigenvectors of simple eigenvalues
from one real eigendecomposition; where its eigenvalues cluster, it detects
the block structure {(omega_j, M_j)} from rank sequences of (H - omega)^k at
each cluster of characteristic-polynomial roots and builds the chains of
those clusters top-down from the kernels of the same powers (one builder for
Jordan blocks and crossings).  It normalizes them all so that the bilinear
pairings take the canonical anti-diagonal form

    (f_{j,n}, f_{j',n'}) = delta_{jj'} delta_{n+n', M_j-1}.

Within one block that takes two steps: a rescale making the top pairing
A_{M-1} = (f_0, f_{M-1}) equal to one, then chain shears f_m -> f_m + c_n
f_{m-n} that successively zero A_{M+n-1} = (f_n, f_{M-1}) with c_n =
-A_{M+n-1}/2.  After this the only freedom left is one overall sign per
block, which is fixed deterministically (largest-magnitude entry of f_{j,0}
gets its argument in (-pi/2, pi/2]).

Blocks sharing one eigenvalue (level crossing) additionally need cross-block
mixing; see :func:`biorthogonalize_crossing`.  Eigenvalues off the negative
imaginary axis come in pairs (omega, -conj(omega)); only the block with
Re(omega) > 0 is built, and its partner follows from the conjugation rule
f_{-j,n} = +/- i^M (-1)^n conj(f_{j,n}).
Duals are metric conjugates of the reversed chain and give the resolution of
identity used by the dynamics module.

H = i a with a real, and compute_spectrum starts from np.linalg.eig(a):
omega = i lambda.  When _single_linkage links no two omegas within the
linkage radius, every one is simple and the characteristic polynomial is
never formed; otherwise the same rule clusters its companion-matrix roots
(_eigenstructure).  A root cluster reads ker A^k, A = H - omega at its
polished centre, from at most two SVD calls (_kernel_sequence: rank rule
rank_tol * max(|A|_2, 1e-6)^k) up to the first power whose kernel grows
no more, and its block sizes from the nullities of the sequence that
build_chain then takes as its kernel bases.  Simple eigenvalues take no
rank decision: each takes the eigenvalue i lambda and eigenvector of the
column of that eig whose i lambda lies nearest (_simple_eigenvectors).
normalize_block is the one normalizer: it takes one chain or a stack of
equal-height chains, and normalizes every simple eigenvector, as a stack of
one-vector chains, in one call; biorthogonalize_crossing calls it on one
chain at a time.  Every pairing (u, v) = u^T g v in this module comes from
one evaluator, _pairings, two matmuls over a stack of vector pairs;
compute_spectrum builds g and |g|_2 once and passes both to the two
normalizers.  After the chains, the basis is handled as whole arrays: the
partners, self-symmetry signs and duals of all blocks of one size come from
one stack (one 3-D product with g for the duals, numpy running one product
per stack entry, so every block keeps the bits of its own product), and
verify_spectrum forms F^T g once and takes its pairing, dual and
completeness residuals with one stacked abs and one max.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    ArgumentError,
    DEFAULT_TOL,
    NumericalError,
    Tolerances,
    char_poly,
    orthonormal_columns,
    polish_root,
    poly_roots,
)
from .model import (
    OscillatorSystem,
    evolution_operator,
    metric,
    metric_norm,
)


class ChainError(NumericalError):
    """Raised when the kernels of (H - omega)^k do not fit the block sizes,
    their rank threshold overflows, or two simple eigenvalues match one
    eigenvector."""


class DegenerateChainError(NumericalError):
    """Raised when a chain has (f_0, f_top) = 0, which no valid block allows."""


class CrossingError(NumericalError):
    """Raised when the level-crossing quadratic form vanishes identically."""


class PairingError(NumericalError):
    """Raised when an off-axis eigenvalue has no mirror partner."""


class VerificationError(RuntimeError):
    """A spectrum failed its invariant checks; carries the residual report."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report or {}


@dataclass
class NormalizationLedger:
    """Audit trail of one block normalization.

    A holds the post-normalization pairing diagnostics A_q = (f_n, f_{q-n})
    for q = 0..2M-2 (expected: one at q = M-1, zero elsewhere); c holds the
    applied transform coefficients, c[0] the rescale and c[n] the shear
    coefficient for step n.
    """

    A: list
    c: list


@dataclass
class JordanBlock:
    """One Jordan block: eigenvalue, chain, duals, and bookkeeping.

    chain[n] is f_{j,n} (row vectors, shape (M, 2N)); duals[n] is f^{j,n}.
    label follows the pairing convention: +j / -j for mirror pairs, 0 for
    blocks on the negative imaginary axis.  conj_sign records which sign of
    the conjugation rule the block realizes (None if the basis breaks the
    symmetry, possible after complex crossing mixes).  A -j partner carries
    no ledger: it is derived from its mirror, not normalized.
    """

    omega: complex
    size: int
    chain: np.ndarray
    duals: np.ndarray | None = None
    label: int = 0
    ledger: NormalizationLedger | None = None
    conj_sign: int | None = None
    near_critical: bool = False


# Per order l of the Taylor coefficients of e^{-iJt} and of the poles of the
# resolvent, for Jordan blocks of up to 1024 vectors (N = 512 oscillators in
# one chain): l, (-i)^l / l!, log l! and l + 1.  (-i t)^l / l! is taken as
# the real t^l times that exact phase; 1/l! is below the smallest normal
# float past l = 170, and the table keeps 0 there.  The pole powers are
# complex so that a complex base takes them without a cast
_ORDERS = np.arange(1024.0)
_PHASES = np.array([1.0, -1j, -1.0, 1j])[np.arange(1024) % 4] * np.array(
    [1 / math.factorial(l) if l <= 170 else 0.0 for l in range(1024)]
)
_LOG_FACTORIALS = np.array([math.lgamma(l + 1.0) for l in range(1024)])
_POLE_POWERS = _ORDERS + (1.0 + 0j)
# The phases i^M (-1)^n of the conjugation rule, row M % 4 and column n, for
# chains of up to 1024 vectors
_CONJ_PHASES = np.array([1j**r for r in range(4)])[:, None] * (-1.0) ** _ORDERS


@dataclass(frozen=True)
class MatrixForm:
    """The Jordan basis as matrices, columns in block order.

    In the normalized basis H F = F J, D^H F = I and F^T g F = P, with J
    block-diagonal and P the block anti-identity.  J = diag(omega) + N:
    omega holds each column's eigenvalue and N, with ones on the first
    superdiagonal inside each block, is nilpotent.  duals stacks N^l D^H for
    l = 0 .. L - 1, L = max M: the conjugated duals as rows, moved up l
    places inside each block, so duals[0] is D^H.  scale is 1 + max |omega|.

    The dynamics kernels read the same numbers in one flat column order of
    L dim columns, column l dim + k standing for order l and basis column k:
    dual_rows is the duals stack as one (L dim, dim) matrix (a view), and
    f_tiled is F repeated L times side by side, (dim, L dim), so that
    column l dim + k of f_tiled meets row l dim + k of dual_rows.  Per flat
    column, orders holds l, phases (-i)^l / l!, log_factorials log l!,
    pole_powers l + 1, omega_tiled omega_k and minus_i_omega -i omega_k, so
    a coefficient table over times or frequencies is a few ufuncs on
    (T, L dim) arrays.
    """

    f: np.ndarray
    duals: np.ndarray
    j: np.ndarray
    p: np.ndarray
    omega: np.ndarray
    scale: float
    dual_rows: np.ndarray
    f_tiled: np.ndarray
    orders: np.ndarray
    phases: np.ndarray
    log_factorials: np.ndarray
    pole_powers: np.ndarray
    omega_tiled: np.ndarray
    minus_i_omega: np.ndarray


@dataclass
class Spectrum:
    """Complete Jordan decomposition of one system.

    h and g are the evolution operator and the metric of system, built once
    by compute_spectrum; the duals and the verifications read them.
    matrices is the basis in matrix form, assembled once by compute_spectrum
    after the duals; verification and the dynamics kernels all read it.
    verification is the report of compute_spectrum's strict verify_spectrum
    call.  The blocks of a level crossing are the blocks that share one
    omega.
    """

    system: OscillatorSystem
    blocks: list
    tol: Tolerances
    h: np.ndarray
    g: np.ndarray
    near_critical_clusters: list = field(default_factory=list)
    matrices: MatrixForm | None = None
    verification: dict | None = None

    @property
    def nu(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def block(self, label: int) -> JordanBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(f"no block labeled {label}")

    def largest_block(self) -> JordanBlock:
        return max(self.blocks, key=lambda b: (b.size, -abs(b.omega)))


# ---------------------------------------------------------------------------
# root clustering and rank-sequence structure detection
# ---------------------------------------------------------------------------

def _single_linkage(roots: np.ndarray, radius: float):
    """Index lists of the roots that chains of distances <= radius link."""
    parent = list(range(roots.size))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    rows, cols = np.nonzero(np.abs(roots[:, None] - roots) <= radius)
    upper = rows < cols  # the pairs i < j, row by row
    for i, j in zip(rows[upper].tolist(), cols[upper].tolist()):
        parent[find(i)] = find(j)
    groups = {}
    for i in range(roots.size):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def _kernel_sequence(h: np.ndarray, omega: complex, levels: int,
                     tol: Tolerances):
    """[ker A, ker A^2, ...] of A = H - omega, from at most two SVD calls.

    ker A^k is an orthonormal basis (as columns) of the right singular
    vectors of A^k whose singular values stay at or below rank_tol *
    max(|A|_2, 1e-6)^k, |A|_2 being the largest singular value of A.  The
    sequence ends after ``levels`` kernels or at the first stall, a kernel
    no wider than the one before it (counting nullity(A^0) = 0), which it
    keeps: the stall is the last level block_sizes_at and build_chain read.
    ChainError when the threshold overflows float64.  A takes one SVD; if it
    has a kernel, the later powers with finite thresholds take one more.
    """
    a = h - omega * np.eye(h.shape[0])
    _, s, vh = np.linalg.svd(a)
    base = max(float(s[0]), 1e-6)
    thresholds = []
    with contextlib.suppress(OverflowError):  # up to the first that overflows
        for k in range(1, levels + 1):
            thresholds.append(tol.rank_tol * base**k)
    svds, kernels, nullity = [(s, vh)], [], 0
    for k, threshold in enumerate(thresholds, 1):
        if k == 2:  # A has a kernel; |A^k|_2 <= |A|_2^k, so none overflows
            powers = itertools.accumulate([a] * len(thresholds), np.matmul)
            svds += zip(*np.linalg.svd(np.array(list(powers)[1:]))[1:])
        s, vh = svds[k - 1]
        rank = int(np.count_nonzero(s > threshold))
        kernels.append(vh[rank:].conj().T)
        if s.size - rank <= nullity:
            return kernels
        nullity = s.size - rank
    if len(thresholds) < levels:
        k = len(thresholds) + 1
        raise ChainError(
            f"the rank threshold rank_tol * |H - omega|_2^{k} at "
            f"omega={omega} overflows float64 (|H - omega|_2 = {base:.3e})"
        )
    return kernels


def block_sizes_at(nullities, multiplicity: int):
    """Block sizes from a nullity sequence, or None if it is inconsistent.

    nullities[k - 1] is nullity(A^k) for A = H - omega, and the number of
    blocks of size >= k equals nullity(A^k) - nullity(A^(k-1)).  The rule
    reads the sequence up to its first stall (counting nullity(A^0) = 0),
    at most ``multiplicity`` levels.  Returns the sizes in descending order
    when they account for exactly ``multiplicity`` dimensions; otherwise
    None, which callers treat as "no Jordan structure at this tolerance"
    (a root cluster is necessary but not sufficient evidence).
    """
    read = [0]
    for nullity in nullities[:multiplicity]:
        read.append(nullity)
        if read[-1] == read[-2]:
            break
    if read[-1] != multiplicity:
        return None
    counts = [read[k] - read[k - 1] for k in range(1, len(read))]
    if any(c2 > c1 for c1, c2 in zip(counts, counts[1:])):
        return None
    sizes = []
    for k, (c, nxt) in enumerate(zip(counts, counts[1:] + [0]), start=1):
        sizes.extend([k] * (c - nxt))
    return sorted(sizes, reverse=True)


def _linkage_radius(tol: Tolerances, omegas) -> float:
    """Distance within which single linkage joins two eigenvalues.

    Multiple roots of multiplicity m scatter like eps**(1/m) under any
    eigensolver, so the radius must be far wider than cluster_tol; the rank
    test is authoritative about which clusters are true blocks.
    """
    return max(10.0 * tol.cluster_tol,
               3e-3 * (1.0 + float(np.abs(omegas).max())))


def _eigenstructure(h: np.ndarray, coeffs: np.ndarray, roots: np.ndarray,
                    tol: Tolerances):
    """Cluster roots into eigenvalues and confirm block sizes via ranks.

    Returns (groups, flagged) where groups is a list of (omega, sizes,
    kernels) and flagged collects near-critical clusters the rank test
    rejected.  One pass over the root clusters: an isolated root is a simple
    group, with an empty kernel list (compute_spectrum takes its eigenvector
    from _simple_eigenvectors).  A cluster of m roots takes its polished
    centre and reads ker (H - omega)^k there for up to m + 1 levels
    (_kernel_sequence), and its block sizes from their nullities.  A Jordan
    group keeps that sequence as its kernels, for build_chain; a cluster
    without defective structure is flagged and its roots are demoted to
    simple groups.
    """
    radius = _linkage_radius(tol, roots)
    groups, flagged = [], []
    for idx in _single_linkage(roots, radius):
        members = roots[idx]
        m = members.size
        if m == 1:
            groups.append((complex(members[0]), [1], []))
            continue
        center = complex(np.mean(members))
        omega = polish_root(coeffs, center, multiplicity=m)
        if abs(omega - center) > 2.0 * radius:
            omega = center
        kernels = _kernel_sequence(h, omega, m + 1, tol)
        sizes = block_sizes_at([k.shape[1] for k in kernels], m)
        if sizes is not None and sizes != [1] * m:
            groups.append((omega, sizes, kernels))
            continue
        # No defective structure at this tolerance: demote to simple
        # eigenvalues and flag the cluster for small-denominator studies.
        flagged.append(
            {
                "omega": center,
                "roots": [complex(r) for r in members],
                "diameter": float(
                    np.max(np.abs(members[:, None] - members[None, :]))
                ),
                "multiplicity": m,
            }
        )
        groups.extend((complex(r), [1], []) for r in members)
    return groups, flagged


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

def build_chain(h: np.ndarray, omega: complex, sizes,
                tol: Tolerances | None = None, *, kernels=None):
    """Raw Jordan chains of the blocks at omega, unnormalized, tallest first.

    Reads the kernels ker A^k of A = H - omega for k = 1 .. max(sizes) + 1
    and raises ChainError unless their nullities are sum_j min(M_j, k), the
    values blocks of the given sizes leave (a sequence that ends early, at a
    stall, fails this too).  kernels is that sequence of kernel bases, [ker
    A, ker A^2, ...] as _kernel_sequence returns it for this h and omega
    (compute_spectrum hands on the one each cluster's sizes were read
    from); without it, build_chain computes its own.  Top vectors of height
    M are taken in ker(A^M), independent of ker(A^(M-1)) and of the members
    A^(M'-M) t' = c'[M-1] of the taller chains c' (where there is nothing
    to project out, the kernel basis itself); lower members follow by
    iterating A (Golub & Wilkinson, SIAM Rev. 18, 1976).
    """
    tol = tol or DEFAULT_TOL
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    sizes = sorted(sizes, reverse=True)
    if not sizes or sizes[-1] < 1 or sum(sizes) > dim:
        raise ArgumentError(f"block sizes {sizes} out of range for dim {dim}")
    levels = sizes[0] + 1
    if kernels is None:
        kernels = _kernel_sequence(h, omega, levels, tol)
    nulls = [np.zeros((dim, 0), dtype=complex)] + list(kernels[:levels])
    found = [ker.shape[1] for ker in nulls[1:]]
    expected = [sum(min(m, k) for m in sizes) for k in range(1, levels + 1)]
    if found != expected:
        raise ChainError(
            f"nullities of (H - omega)^k, k = 1..{len(found)}, at "
            f"omega={omega} are {found}; block sizes {sizes} need {expected}"
        )
    a = h - omega * np.eye(dim) if sizes[0] > 1 else None
    chains = []
    for m in sorted(set(sizes), reverse=True):
        copies = sizes.count(m)
        forbidden = np.hstack([nulls[m - 1]] + [c[m - 1][:, None] for c in chains])
        tops = nulls[m]
        if forbidden.shape[1]:
            f_basis = orthonormal_columns(forbidden, tol)
            proj = tops - f_basis @ (f_basis.conj().T @ tops)
            tops, s, _ = np.linalg.svd(proj, full_matrices=False)
            avail = int(np.sum(s > tol.rank_tol * max(1.0, s[0])))
            if avail < copies:
                raise ChainError(
                    f"could not seed {copies} independent chains of height {m} "
                    f"at omega={omega}"
                )
        chains.extend(chain_from_top(a, tops[:, col], m) for col in range(copies))
    return chains


def chain_from_top(a: np.ndarray, top: np.ndarray, size: int):
    """Chain [A^(M-1) t, ..., A t, t] built downward from a top vector."""
    chain = [np.asarray(top, dtype=complex)]
    for _ in range(size - 1):
        chain.append(a @ chain[-1])
    return chain[::-1]


def _norms(x: np.ndarray, axis: int) -> np.ndarray:
    """np.linalg.norm(x, axis=axis) of a complex x, by the same ufuncs
    without its argument handling (bit for bit the same norms)."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=axis))


def _pairings(g: np.ndarray, u: np.ndarray, v: np.ndarray):
    """(u_p, v_q) = u_p^T g v_q of (B, P, 2N) and (B, Q, 2N) stacks as
    (B, P, Q), by two 3-D matmuls; numpy runs one product per stack entry,
    so an entry's bits do not depend on the rest of the stack."""
    return (u @ g) @ v.swapaxes(1, 2)


def normalize_block(chains, g: np.ndarray, gnorm: float):
    """Normalize raw chains to the canonical anti-diagonal pairing.

    chains is one chain (M, 2N), giving (chain, ledger), or a stack of
    equal-height chains (B, M, 2N), giving (chains, ledgers); each chain of
    a stack comes out bit for bit as from its own call.  Raises
    DegenerateChainError, with the value of the first chain at fault, when
    a top pairing A_{M-1} vanishes, which cannot happen for a chain of a
    valid block and signals broken input.  g is the metric of the system,
    every pairing is u^T g v (_pairings), and gnorm is |g|_2, the scale of
    that test.
    """
    f = np.array(chains, dtype=complex, order="C")
    single = f.ndim == 2
    f = f.reshape(-1, *f.shape[-2:])
    m = f.shape[1]
    a_top = _pairings(g, f[:, :1], f[:, -1:])[:, 0, 0]
    norms = _norms(f, 2)
    scale = gnorm * norms[:, 0] * norms[:, -1]
    vanishing = np.abs(a_top) <= np.maximum(1e-12 * scale, 1e-300)
    if vanishing.any():
        raise DegenerateChainError(
            f"top pairing A_(M-1) = {complex(a_top[np.argmax(vanishing)]):.3e} "
            "vanishes; no valid block admits an eigenvector orthogonal to its "
            "whole chain"
        )
    coeffs = np.empty((len(f), m), dtype=complex)
    coeffs[:, 0] = a_top ** -0.5  # principal branch
    f *= coeffs[:, :1, None]
    for n in range(1, m):
        # f_k -> f_k + c_n f_(k-n) with c_n = -(f_n, f_(M-1)) / 2
        coeffs[:, n] = -_pairings(g, f[:, n:n + 1], f[:, -1:])[:, 0, 0] / 2.0
        f[:, n:] += coeffs[:, n, None, None] * f[:, :m - n]
    flips = _sign_flips(f[:, 0])
    np.negative(f, out=f, where=flips[:, None, None])
    np.negative(coeffs[:, 0], out=coeffs[:, 0], where=flips)
    # A_q = mean of (f_n, f_(q-n)): the anti-diagonal means of the Gram
    gram = _pairings(g, f, f)
    a_q = np.zeros((len(f), 2 * m - 1), dtype=complex)
    for n in range(m):
        a_q[:, n:n + m] += gram[:, n]
    q = np.arange(1, 2 * m)
    a_q /= np.minimum(q, 2 * m - q)
    ledgers = [NormalizationLedger(A=a, c=c)
               for a, c in zip(a_q.tolist(), coeffs.tolist())]
    return (f[0], ledgers[0]) if single else (f, ledgers)


def _sign_flips(f0: np.ndarray) -> np.ndarray:
    """Which rows f0[i] to negate so that the argument of their largest
    entry goes in (-pi/2, pi/2].

    Among entries of equal magnitude up to a relative 1e-8 the first one
    decides, so rounding noise cannot pick the entry.
    """
    mags = np.abs(f0)
    top = np.maximum.reduce(mags, axis=1, keepdims=True)
    idx = (mags >= (1.0 - 1e-8) * top).argmax(axis=1)
    a = f0[np.arange(len(f0)), idx]
    tiny = 1e-12 * np.abs(a)
    return np.where(np.abs(a.real) > tiny, a.real < 0.0, a.imag <= 0.0)


# ---------------------------------------------------------------------------
# level crossing
# ---------------------------------------------------------------------------

def biorthogonalize_crossing(chains, g: np.ndarray, gnorm: float,
                             h: np.ndarray, omega: complex,
                             tol: Tolerances | None = None):
    """Enforce the anti-diagonal pairing across blocks sharing one eigenvalue.

    Implements the recursive construction: secure a normalizable top vector
    for (one of) the largest blocks, normalize that block, mix the remaining
    tops so their pairings with the first block vanish, rebuild them
    downward, and recurse on the rest.  Returns a list of (chain, ledger)
    pairs sorted by descending size.  g is the metric of the system and
    gnorm its |g|_2; every pairing is one stacked _pairings call.  Among
    top-vector candidates of equal quality up to a relative 1e-8 the first
    one is taken, so rounding noise cannot pick the chain.
    """
    tol = tol or DEFAULT_TOL
    chains = sorted([list(c) for c in chains], key=lambda c: -len(c))
    if not chains:
        return []
    if len(chains) == 1:
        chain, ledger = normalize_block(chains[0], g, gnorm)
        return [(chain, ledger)]

    dim = h.shape[0]
    a = h - omega * np.eye(dim)
    m1 = len(chains[0])
    maxed = [i for i, c in enumerate(chains) if len(c) == m1]

    if len(maxed) > 1:
        tops = [chains[i][-1] for i in maxed]
        apow = np.linalg.matrix_power(a, m1 - 1)
        anorm = float(np.linalg.norm(apow, 2))
        candidates = list(tops)
        for i in range(len(tops)):
            for j in range(i + 1, len(tops)):
                candidates.append(tops[i] + tops[j])
        cand = np.array(candidates)[:, None, :]
        # (v, A^(M-1) v) for every candidate v
        vals = _pairings(g, cand, cand @ apow.T)[:, 0, 0]
        scales = gnorm * anorm * np.linalg.norm(cand[:, 0], axis=1) ** 2
        quality = np.abs(vals) / np.maximum(scales, 1e-300)
        best = int(np.argmax(quality >= (1.0 - 1e-8) * quality.max()))
        if quality[best] <= 1e3 * tol.rank_tol:
            raise CrossingError(
                "the quadratic form on the top-vector span vanishes "
                "identically; the input basis is not a valid Jordan family"
            )
        chosen = candidates[best]
        span = orthonormal_columns(np.column_stack(tops), tol)
        v_unit = chosen / np.linalg.norm(chosen)
        rest_span = span - v_unit[:, None] @ (v_unit.conj()[None, :] @ span)
        others = orthonormal_columns(rest_span, tol)
        rebuilt = [chain_from_top(a, chosen, m1)]
        rebuilt += [
            chain_from_top(a, others[:, k], m1) for k in range(others.shape[1])
        ]
        chains = rebuilt + [chains[i] for i in range(len(chains)) if i not in maxed]
        chains.sort(key=lambda c: -len(c))

    first, ledger1 = normalize_block(chains[0], g, gnorm)
    # (t, f_n) of every other top t with every f_n of the normalized chain;
    # with (f_n, f_n') = delta_{n+n', M-1}, subtracting (t, f_n) f_(M-1-n)
    # for n = M - M_j .. M - 1 clears each of these pairings without
    # touching the others
    pairs = _pairings(g, np.array([c[-1] for c in chains[1:]])[None],
                      first[None])[0]
    rest = []
    for c, pair in zip(chains[1:], pairs):
        mj = len(c)
        top = c[-1] - pair[m1 - mj:] @ first[mj - 1::-1]
        rest.append(chain_from_top(a, top, mj))
    return [(first, ledger1)] + biorthogonalize_crossing(
        rest, g, gnorm, h, omega, tol
    )


# ---------------------------------------------------------------------------
# conjugation, duals, assembly
# ---------------------------------------------------------------------------

def conjugate_chain(chain: np.ndarray) -> np.ndarray:
    """Partner chain f_{-j,n} = + i^M (-1)^n conj(f_{j,n}); a stack of
    equal-height chains (B, M, 2N) gives the partner of each."""
    chain = np.asarray(chain)
    m = chain.shape[-2]
    return _CONJ_PHASES[m % 4, :m, None] * np.conj(chain)


def _self_conjugation_signs(chains: np.ndarray, partners: np.ndarray) -> list:
    """Realized sign of the conjugation rule as a self-symmetry of each chain
    of a stack (B, M, 2N), given their partners (conjugate_chain): +1 where
    every vector lies within a relative 1e-8 of its partner, else -1 where
    every one lies that close to minus its partner, else None."""
    devs = _norms(np.array([chains - partners, chains + partners]), 3)
    close = (np.maximum.reduce(devs / _norms(chains, 2), axis=2)
             <= 1e-8).tolist()
    return [1 if plus else -1 if minus else None
            for plus, minus in zip(*close)]


def _size_groups(blocks) -> list:
    """Indices of the blocks of each size, each list in block order."""
    groups = {}
    for i, b in enumerate(blocks):
        groups.setdefault(b.size, []).append(i)
    return list(groups.values())


def _axis_tol(tol: Tolerances, omegas) -> float:
    """Half-width of the band around the negative imaginary axis."""
    return tol.cluster_tol * (1.0 + max(abs(w) for w in omegas))


def enforce_conjugation(spectrum: Spectrum) -> Spectrum:
    """Label the built blocks and append partners from the conjugation rule.

    The spectrum holds the blocks with Re(omega) >= -axis_tol, in order.
    Blocks on the negative imaginary axis are labeled 0 and carry the
    detected self-symmetry sign.  The others get labels j = 1, 2, ... and a
    partner at -conj(omega) with the conjugated chain (sign +), labeled -j,
    without a ledger.  The conjugated chains and the self-symmetry signs
    come from one stack per block size.  The blocks are sorted afterwards,
    so each +j comes before its -j.
    """
    blocks = spectrum.blocks
    axis_tol = _axis_tol(spectrum.tol, [b.omega for b in blocks])
    on_axis = [abs(b.omega.real) <= axis_tol for b in blocks]
    conjugated = [None] * len(blocks)
    for idx in _size_groups(blocks):
        chains = np.array([blocks[i].chain for i in idx])
        conjugates = conjugate_chain(chains)
        axis = [k for k, i in enumerate(idx) if on_axis[i]]
        if axis:
            signs = _self_conjugation_signs(chains[axis], conjugates[axis])
            for k, sign in zip(axis, signs):
                blocks[idx[k]].conj_sign = sign
        for i, chain in zip(idx, conjugates):
            conjugated[i] = chain
    partners = []
    for b, axis, chain in zip(blocks, on_axis, conjugated):
        if axis:
            b.label = 0
            continue
        b.label = len(partners) + 1
        b.conj_sign = 1
        partners.append(
            JordanBlock(
                omega=-np.conj(b.omega),
                size=b.size,
                chain=chain,
                label=-b.label,
                conj_sign=1,
                near_critical=b.near_critical,
            )
        )
    blocks.extend(partners)
    _sort_blocks(blocks)
    return spectrum


def dual_basis(spectrum: Spectrum) -> Spectrum:
    """Attach duals f^{j,n} = conj(g f_{j,M-1-n}) to every block.

    g is symmetric, so the duals of a block are the rows of conj(R g), R
    the reversed chain as rows.  One 3-D product per block size takes the
    duals of every block of that size; numpy runs one product per stack
    entry, so each block gets the bits of its own product.
    """
    g = spectrum.g
    blocks = spectrum.blocks
    for idx in _size_groups(blocks):
        duals = np.conj(np.array([blocks[i].chain for i in idx])[:, ::-1] @ g)
        for i, d in zip(idx, duals):
            blocks[i].duals = d
    return spectrum


def _basis_matrices(blocks):
    """(F, D): chain vectors and duals of the blocks as columns, in block order."""
    return (
        np.concatenate([b.chain for b in blocks]).T,
        np.concatenate([b.duals for b in blocks]).T,
    )


def _matrix_form(blocks) -> MatrixForm:
    """F, the N^l D^H stack, J, P, the column eigenvalues of the blocks, and
    the flat per-column layouts that the dynamics kernels read."""
    f_mat, d_mat = _basis_matrices(blocks)
    d_h = d_mat.conj().T
    sizes = [b.size for b in blocks]
    omega = np.repeat(np.array([b.omega for b in blocks], dtype=complex), sizes)
    j_mat = np.diag(omega)
    p_mat = np.zeros(j_mat.shape)
    levels, cols = max(sizes), omega.size
    duals = np.zeros((levels,) + d_h.shape, dtype=complex)
    pos = 0
    for m in sizes:
        for k in range(pos, pos + m):
            if k + 1 < pos + m:
                j_mat[k, k + 1] = 1.0
            p_mat[k, 2 * pos + m - 1 - k] = 1.0
            duals[: pos + m - k, k] = d_h[k : pos + m]
        pos += m
    omega_tiled = np.concatenate([omega] * levels)
    return MatrixForm(
        f=f_mat,
        duals=duals,
        j=j_mat,
        p=p_mat,
        omega=omega,
        scale=1.0 + float(np.abs(omega).max()),
        dual_rows=duals.reshape(-1, d_h.shape[1]),
        f_tiled=np.concatenate([f_mat] * levels, axis=1),
        orders=_ORDERS[:levels].repeat(cols),
        phases=_PHASES[:levels].repeat(cols),
        log_factorials=_LOG_FACTORIALS[:levels].repeat(cols),
        pole_powers=_POLE_POWERS[:levels].repeat(cols),
        omega_tiled=omega_tiled,
        minus_i_omega=-1j * omega_tiled,
    )


def verify_spectrum(spectrum: Spectrum, strict: bool = True) -> dict:
    """Residuals of the chain relation, pairings, duals, and completeness.

    With F, D, J, P from spectrum.matrices these are H F - F J (per column,
    scaled by (|H| + |omega|) max(1, |f|)), F^T g F - P, D^H F - I and
    F P F^T g - I.
    With strict=True raises VerificationError when max_residual exceeds
    residual_tol.  The chain residuals of blocks demoted from near-critical
    clusters (whose accuracy is limited by the cluster diameter) are
    reported apart as chain_residual_flagged and kept out of max_residual;
    the Gram, dual and completeness residuals count for every block, and
    come from one stacked abs and one max.  The
    block sizes are checked first: when they do not sum to dim the
    residuals are not formed (NaN in the report) and the spectrum fails.
    """
    tol = spectrum.tol
    blocks = spectrum.blocks
    dim = spectrum.system.dim
    total = sum(b.size for b in blocks)
    sizes_ok = total == dim
    chain_res = flagged_chain_res = gram_res = dual_res = comp_res = np.nan
    if sizes_ok:
        h, g = spectrum.h, spectrum.g
        form = spectrum.matrices
        f_mat, p_mat = form.f, form.p
        # H = i a with a real, so ||H||_2 is the largest singular value of
        # the real a = Im H
        h_norm = np.linalg.svd(h.imag, compute_uv=False)[0]
        chain_cols = _norms(h @ f_mat - f_mat @ form.j, 0) / (
            (h_norm + np.abs(form.omega)) * np.maximum(1.0, _norms(f_mat, 0))
        )
        flagged = np.repeat([b.near_critical for b in blocks],
                            [b.size for b in blocks])
        chain_res = float(np.maximum.reduce(chain_cols[~flagged], initial=0.0))
        flagged_chain_res = float(np.maximum.reduce(chain_cols[flagged],
                                                    initial=0.0))
        ftg = f_mat.T @ g
        eye = np.eye(dim)
        # the Gram, dual and completeness deviations, one abs and one max
        deviations = np.abs(np.array([
            ftg @ f_mat - p_mat,
            form.duals[0] @ f_mat - eye,
            f_mat @ p_mat @ ftg - eye,
        ])).reshape(3, -1)
        gram_res, dual_res, comp_res = np.maximum.reduce(
            deviations, axis=1).tolist()

    report = {
        "chain_residual": chain_res,
        "chain_residual_flagged": flagged_chain_res,
        "bilinear_gram_residual": gram_res,
        "dual_biorthogonality_residual": dual_res,
        "completeness_residual": comp_res,
        "block_sizes_sum_ok": bool(sizes_ok),
        "near_critical_clusters": len(spectrum.near_critical_clusters),
    }
    worst = max(chain_res, gram_res, dual_res, comp_res)
    report["max_residual"] = float(worst)
    report["pass"] = bool(sizes_ok and worst <= tol.residual_tol)
    if strict and not report["pass"]:
        reason = (
            f"max residual {worst:.3e} > {tol.residual_tol:.1e}" if sizes_ok
            else f"block sizes sum to {total}, not to dim {dim}"
        )
        raise VerificationError(f"spectrum verification failed ({reason})", report)
    return report


def verify_representations(spectrum: Spectrum) -> dict:
    """Per-block metric and operator representations and their deviations.

    In the normalized basis the pairing matrix F^T g F must be the
    anti-identity P, the mixed-index operator D^H H F the Jordan form J, and
    the lowered-index operator F^T g H F the symmetric anti-triangular form
    P J (omega on the anti-diagonal, ones just below it).  Report only;
    never raises.
    """
    h, g = spectrum.h, spectrum.g
    blocks = spectrum.blocks
    form = spectrum.matrices
    f_mat, j_mat, p_mat = form.f, form.j, form.p
    gf = f_mat.T @ g
    pairs = {
        "gbar_deviation": (gf @ f_mat, p_mat),
        "h_mixed_deviation": (form.duals[0] @ h @ f_mat, j_mat),
        "h_lowered_deviation": (gf @ h @ f_mat, p_mat @ j_mat),
    }
    out = {"blocks": [], "max_deviation": 0.0}
    pos = 0
    for b in blocks:
        span = slice(pos, pos + b.size)
        pos += b.size
        devs = {
            key: float(np.max(np.abs(got[span, span] - want[span, span])))
            for key, (got, want) in pairs.items()
        }
        out["blocks"].append(
            {"label": b.label, "omega": complex(b.omega), "size": b.size, **devs}
        )
        out["max_deviation"] = max(out["max_deviation"], *devs.values())
    return out


def _sort_blocks(blocks):
    blocks.sort(key=lambda b: (-b.size, -b.omega.imag, -b.omega.real))
    return blocks


def _unmirrored_groups(groups, axis_tol: float):
    """The (omega, sizes, kernels) groups with Re(omega) >= -axis_tol.

    Every group with Re(omega) > axis_tol must have one mirror group at
    -conj(omega), within 10 axis_tol and with the same block sizes, and every
    group with Re(omega) < -axis_tol must be such a mirror; otherwise
    PairingError.
    """
    kept = [g for g in groups if g[0].real >= -axis_tol]
    mirrors = [g for g in groups if g[0].real < -axis_tol]
    for omega, sizes, _ in kept:
        if omega.real > axis_tol:
            match = [
                i for i, (w, s, _) in enumerate(mirrors)
                if abs(w + np.conj(omega)) <= 10.0 * axis_tol and s == sizes
            ]
            if not match:
                raise PairingError(
                    f"eigenvalue {omega} has no mirror partner at "
                    f"{-np.conj(omega)}"
                )
            del mirrors[match[0]]
    if mirrors:
        raise PairingError(
            f"eigenvalue {mirrors[0][0]} is the mirror of no eigenvalue at "
            f"{-np.conj(mirrors[0][0])}"
        )
    return kept


def _simple_eigenvectors(lam: np.ndarray, vecs: np.ndarray, omegas):
    """Eigenpairs of H at the simple eigenvalues omegas, from its real eig.

    H = i a with a = (-i H).real = [[0, I], [-K, -Gamma]], and (lam, vecs)
    is np.linalg.eig(a), so column j of vecs is an eigenvector of H for
    i lam_j.  Each omega (an i lam_j itself, or a root of the characteristic
    polynomial on the clustered route) takes the column whose i lam_j lies
    nearest, and gets the eigenvalue that belongs to the vector, not the
    root.  Returns (eigenvalues, vectors as rows), in the order of omegas.
    Two omegas on one column raise ChainError.
    """
    columns = 1j * lam
    cols = np.abs(columns - np.array(omegas)[:, None]).argmin(axis=1)
    taken = cols.tolist()
    if len(set(taken)) < len(taken):
        again = next(i for i, j in enumerate(taken) if j in taken[:i])
        first = taken.index(taken[again])
        raise ChainError(
            f"simple eigenvalues omega={omegas[first]} and omega={omegas[again]} "
            f"both lie nearest the eigenvector of omega={columns[taken[again]]}"
        )
    return columns[cols].tolist(), vecs[:, cols].T.astype(complex)


def compute_spectrum(sys: OscillatorSystem,
                     tol: Tolerances | None = None) -> Spectrum:
    """Full Jordan decomposition: detect, build, normalize, pair, verify.

    The eigenvalues come first, as omega = i lambda over the real eig of a
    = (-i H).real.  When no two of them lie within the linkage radius,
    every one is a simple group and that eig is the whole root stage.
    Otherwise the characteristic polynomial's roots (char_poly, poly_roots)
    are clustered and their structure read by _eigenstructure.  Chains are
    built for the eigenvalues with Re(omega) >= -axis_tol only; their
    mirrors follow from the conjugation rule (enforce_conjugation).  Root
    clusters with Jordan structure get their chains from build_chain, on
    the kernels _eigenstructure read their sizes from, normalized by
    biorthogonalize_crossing; every simple eigenvalue gets its eigenvalue
    and eigenvector from the same eig (_simple_eigenvectors), and the
    simple eigenvectors are normalized together, as one stack of
    one-vector chains (normalize_block).  H and g are built once, and the
    spectrum keeps them, and the report of its one verify_spectrum call.

    Raises VerificationError when the constructed basis misses its
    invariants at residual_tol (never silently returns a bad basis).
    """
    tol = tol or DEFAULT_TOL
    h = evolution_operator(sys)
    g = metric(sys)
    lam, vecs = np.linalg.eig((-1j * h).real)
    omegas, flagged = 1j * lam, []
    groups = [(w, [1], []) for w in omegas.tolist()]
    if len(_single_linkage(omegas, _linkage_radius(tol, omegas))) < lam.size:
        coeffs = char_poly(h)
        roots = poly_roots(coeffs, tol)
        groups, flagged = _eigenstructure(h, coeffs, roots, tol)
    flagged_omegas = {complex(r) for cl in flagged for r in cl["roots"]}
    axis_tol = _axis_tol(tol, [w for w, _, _ in groups])
    kept = _unmirrored_groups(groups, axis_tol)
    gnorm = metric_norm(sys)
    simple = [w for w, sizes, _ in kept if sizes == [1]]
    if simple:
        simple_omegas, vectors = _simple_eigenvectors(lam, vecs, simple)
        normalized = zip(simple_omegas, *normalize_block(
            vectors[:, None, :], g, gnorm))

    blocks = []
    for omega, sizes, kernels in kept:
        near_critical = complex(omega) in flagged_omegas
        if sizes == [1]:
            omega, chain, ledger = next(normalized)
            built = [(chain, ledger)]
        else:
            raw = build_chain(h, omega, sizes, tol, kernels=kernels)
            built = biorthogonalize_crossing(raw, g, gnorm, h, omega, tol)
        blocks.extend(
            JordanBlock(
                omega=omega,
                size=len(chain),
                chain=chain,
                ledger=ledger,
                near_critical=near_critical,
            )
            for chain, ledger in built
        )
    spectrum = Spectrum(
        system=sys,
        blocks=_sort_blocks(blocks),
        tol=tol,
        h=h,
        g=g,
        near_critical_clusters=flagged,
    )
    enforce_conjugation(spectrum)
    dual_basis(spectrum)
    spectrum.matrices = _matrix_form(spectrum.blocks)
    spectrum.verification = verify_spectrum(spectrum, strict=True)
    return spectrum


def _spectrum_for(sys: OscillatorSystem, spectrum: Spectrum | None,
                  tol: Tolerances | None) -> Spectrum:
    """spectrum if it belongs to sys (same K and Gamma), compute_spectrum(sys,
    tol) when it is None; ArgumentError for the spectrum of another system."""
    if spectrum is None:
        return compute_spectrum(sys, tol)
    if not (np.array_equal(spectrum.system.K, sys.K)
            and np.array_equal(spectrum.system.Gamma, sys.Gamma)):
        raise ArgumentError("spectrum= belongs to another system: its K or "
                            "Gamma differs from the system given")
    return spectrum


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _interleave(vectors: np.ndarray) -> list:
    """Rows of a complex (M, 2N) array as lists [re_0, im_0, re_1, ...]."""
    vectors = np.asarray(vectors)
    return np.stack((vectors.real, vectors.imag), axis=-1).reshape(
        len(vectors), -1).tolist()


def spectrum_to_json(spectrum: Spectrum) -> dict:
    """JSON-ready dict with blocks, chains, duals, and ledgers."""
    blocks = []
    for b in spectrum.blocks:
        entry = {
            "label": b.label,
            "omega": [float(b.omega.real), float(b.omega.imag)],
            "M": b.size,
            "conj_sign": b.conj_sign,
            "near_critical": b.near_critical,
            "chain": _interleave(b.chain),
            "duals": _interleave(b.duals) if b.duals is not None else None,
        }
        if b.ledger is not None:
            entry["ledger"] = {
                "A": [[z.real, z.imag] for z in b.ledger.A],
                "c": [[z.real, z.imag] for z in b.ledger.c],
            }
        blocks.append(entry)
    return {
        "N": spectrum.system.N,
        "nu": spectrum.nu,
        "tolerances": {
            "rank_tol": spectrum.tol.rank_tol,
            "cluster_tol": spectrum.tol.cluster_tol,
            "residual_tol": spectrum.tol.residual_tol,
        },
        "near_critical_clusters": [
            {
                "omega": [c["omega"].real, c["omega"].imag],
                "diameter": c["diameter"],
                "multiplicity": c["multiplicity"],
            }
            for c in spectrum.near_critical_clusters
        ],
        "blocks": blocks,
    }
