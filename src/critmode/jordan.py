"""Jordan structure of the evolution operator under the bilinear map.

For a damped-oscillator operator H the eigenvectors can merge at critical
parameter values, leaving Jordan blocks: chains f_{j,0..M-1} obeying

    (H - omega_j) f_{j,n} = f_{j,n-1},     f_{j,-1} = 0.

This module detects the block structure {(omega_j, M_j)} from rank sequences
of (H - omega)^k, builds the chains top-down from the kernels of those powers
(one builder for simple eigenvalues, Jordan blocks and crossings), and
normalizes them so that the bilinear pairings take the canonical
anti-diagonal form

    (f_{j,n}, f_{j',n'}) = delta_{jj'} delta_{n+n', M_j-1}.

compute_spectrum takes the kernels of all its eigenvalue groups from one
stacked decomposition per power k (_kernel_stack): a single SVD call over
the A_j^k, A_j = H - omega_j, of every group that still needs level k.  The
rank rule is the same for each matrix: a singular value of A^k at or below
rank_tol * max(|A|_2, 1e-6)^k counts as null.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .linalg import (
    ArgumentError,
    DEFAULT_TOL,
    Tolerances,
    char_poly,
    orthonormal_columns,
    polish_root,
    poly_roots,
)
from .model import OscillatorSystem, bilinear, evolution_operator, metric


class ChainError(RuntimeError):
    """Raised when the kernels of (H - omega)^k do not fit the block sizes."""


class DegenerateChainError(RuntimeError):
    """Raised when a chain has (f_0, f_top) = 0, which no valid block allows."""


class CrossingError(RuntimeError):
    """Raised when the level-crossing quadratic form vanishes identically."""


class PairingError(RuntimeError):
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


@dataclass
class CrossingGroup:
    """Blocks sharing one eigenvalue, sorted by descending size."""

    omega: complex
    sizes: list

    @property
    def L(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class MatrixForm:
    """The Jordan basis as matrices, columns in block order.

    In the normalized basis H F = F J, D^H F = I and F^T g F = P, with J
    block-diagonal and P the block anti-identity.  J = diag(omega) + N:
    omega holds each column's eigenvalue and N, with ones on the first
    superdiagonal inside each block, is nilpotent.  duals stacks N^l D^H for
    l = 0 .. max M - 1: the conjugated duals as rows, moved up l places
    inside each block, so duals[0] is D^H.  scale is 1 + max |omega|.
    """

    f: np.ndarray
    duals: np.ndarray
    j: np.ndarray
    p: np.ndarray
    omega: np.ndarray
    scale: float


@dataclass
class Spectrum:
    """Complete Jordan decomposition of one system.

    matrices is the basis in matrix form, assembled once by compute_spectrum
    after the duals; verification and the dynamics kernels all read it.
    """

    system: OscillatorSystem
    blocks: list
    tol: Tolerances
    crossing_groups: list = field(default_factory=list)
    near_critical_clusters: list = field(default_factory=list)
    matrices: MatrixForm | None = None

    @property
    def nu(self) -> int:
        """Number of blocks."""
        return len(self.blocks)

    def operator(self) -> np.ndarray:
        return evolution_operator(self.system)

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
    """Group roots whose pairwise chains of distances stay within radius."""
    n = roots.size
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [np.array(idx) for idx in groups.values()]


def _kernel_stack(h: np.ndarray, omegas, levels, tol: Tolerances):
    """Yield the kernels of the powers of every A_j = H - omega_j, by level.

    At level k = 1, 2, ... yields [(j, A_j^k, ker A_j^k)] for each j with
    levels[j] >= k, from one stacked np.linalg.svd call over those A_j^k,
    so a caller that stops iterating saves the levels it does not read.
    The rank rule is the one power-scaled decision per matrix: ker A^k is
    an orthonormal basis (as columns) of the right singular vectors of A^k
    whose singular values stay at or below rank_tol * max(|A|_2, 1e-6)^k,
    |A|_2 being the largest singular value of A at level 1.
    """
    # the eigenvalues that need the most levels go first, so the ones that
    # still need level k are a prefix of the stack
    order = sorted(range(len(levels)), key=lambda j: -levels[j])
    shifts = np.array([omegas[j] for j in order], dtype=complex)
    a = h - shifts[:, None, None] * np.eye(h.shape[0])
    for k in count(1):
        live = sum(levels[j] >= k for j in order)
        if not live:
            return
        ak = a[:live] if k == 1 else ak[:live] @ a[:live]
        _, s, vh = np.linalg.svd(ak)
        if k == 1:
            base = [max(float(s1), 1e-6) for s1 in s[:, 0]]
        level = []
        for i in range(live):
            rank = int(np.count_nonzero(s[i] > tol.rank_tol * base[i] ** k))
            level.append((order[i], ak[i], vh[i, rank:].conj().T))
        yield level


def block_sizes_at(h: np.ndarray, omega: complex, multiplicity: int,
                   tol: Tolerances | None = None):
    """Block sizes at omega from the rank sequence, or None if inconsistent.

    The number of blocks of size >= k equals nullity(A^k) - nullity(A^(k-1))
    for A = H - omega.  Returns the sizes in descending order when the
    sequence accounts for exactly ``multiplicity`` dimensions; otherwise
    None, which callers treat as "no Jordan structure at this tolerance"
    (a root cluster is necessary but not sufficient evidence).
    """
    tol = tol or DEFAULT_TOL
    nullities = [0]
    for [(_, _, kernel)] in _kernel_stack(h, [omega], [multiplicity], tol):
        nullities.append(kernel.shape[1])
        if nullities[-1] == nullities[-2]:
            break
    total = nullities[-1]
    if total != multiplicity or nullities[1] == 0:
        return None
    counts = [nullities[k] - nullities[k - 1] for k in range(1, len(nullities))]
    if any(c2 > c1 for c1, c2 in zip(counts, counts[1:])):
        return None
    sizes = []
    for k, c in enumerate(counts, start=1):
        nxt = counts[k] if k < len(counts) else 0
        sizes.extend([k] * (c - nxt))
    sizes.sort(reverse=True)
    return sizes


def _eigenstructure(h: np.ndarray, coeffs: np.ndarray, roots: np.ndarray,
                    tol: Tolerances):
    """Cluster roots into eigenvalues and confirm block sizes via ranks.

    Returns (groups, flagged) where groups is a list of (omega, sizes) and
    flagged collects near-critical clusters the rank test rejected; their
    member roots are demoted to simple eigenvalues.
    """
    scale = 1.0 + float(np.max(np.abs(roots)))
    # Multiple roots of multiplicity m scatter like eps**(1/m) under any
    # root finder, so the linkage radius must be far wider than cluster_tol;
    # the rank test is authoritative about which clusters are true blocks.
    radius = max(10.0 * tol.cluster_tol, 3e-3 * scale)
    groups = []
    flagged = []
    for idx in _single_linkage(roots, radius):
        members = roots[idx]
        m = members.size
        if m == 1:
            groups.append((complex(members[0]), [1]))
            continue
        center = complex(np.mean(members))
        polished = polish_root(coeffs, center, multiplicity=m)
        if abs(polished - center) > 2.0 * radius:
            polished = center
        sizes = block_sizes_at(h, polished, m, tol)
        diameter = float(np.max(np.abs(members[:, None] - members[None, :])))
        if sizes is None or sizes == [1] * m:
            # No defective structure at this tolerance: demote to simple
            # eigenvalues and flag the cluster for small-denominator studies.
            flagged.append(
                {
                    "omega": center,
                    "roots": [complex(r) for r in members],
                    "diameter": diameter,
                    "multiplicity": m,
                }
            )
            groups.extend((complex(r), [1]) for r in members)
            continue
        groups.append((polished, sizes))
    return groups, flagged


# ---------------------------------------------------------------------------
# chain construction
# ---------------------------------------------------------------------------

def build_chain(h: np.ndarray, omega: complex, sizes,
                tol: Tolerances | None = None, *, kernels=None):
    """Raw Jordan chains of the blocks at omega, unnormalized, tallest first.

    Reads the kernels ker A^k of A = H - omega for k = 1 .. max(sizes) + 1
    and raises ChainError unless their nullities are sum_j min(M_j, k), the
    values blocks of the given sizes leave.  kernels is that sequence,
    [(A, ker A), (A^2, ker A^2), ...] as _kernel_stack yields it for this h
    and omega (compute_spectrum reads one for all its eigenvalues at once);
    only the powers A^k with k < max(sizes) are read, the others may be
    None.  Without it, build_chain computes its own.  Top vectors of height
    M are taken in ker(A^M), independent of ker(A^(M-1)) and of the images
    of taller chains at that height (where there is nothing to project out,
    the kernel basis itself); lower members follow by iterating A (Golub &
    Wilkinson, SIAM Rev. 18, 1976).
    """
    tol = tol or DEFAULT_TOL
    h = np.asarray(h, dtype=complex)
    dim = h.shape[0]
    sizes = sorted(sizes, reverse=True)
    if not sizes or sizes[-1] < 1 or sum(sizes) > dim:
        raise ArgumentError(f"block sizes {sizes} out of range for dim {dim}")
    levels = sizes[0] + 1
    if kernels is None:
        kernels = [
            (ak, ker) for [(_, ak, ker)] in _kernel_stack(h, [omega], [levels], tol)
        ]
    if len(kernels) < levels:
        raise ArgumentError(
            f"block sizes {sizes} need {levels} kernel levels, got {len(kernels)}"
        )
    powers = [np.eye(dim, dtype=complex)] + [ak for ak, _ in kernels[:levels]]
    nulls = [np.zeros((dim, 0), dtype=complex)] + [ker for _, ker in kernels[:levels]]
    a = powers[1]
    found = [ker.shape[1] for ker in nulls[1:]]
    expected = [sum(min(m, k) for m in sizes) for k in range(1, levels + 1)]
    if found != expected:
        raise ChainError(
            f"nullities of (H - omega)^k, k = 1..{sizes[0] + 1}, at "
            f"omega={omega} are {found}; block sizes {sizes} need {expected}"
        )
    chains = []
    tall_tops = []  # (height, top)
    for m in sorted(set(sizes), reverse=True):
        copies = sizes.count(m)
        forbidden = np.hstack(
            [nulls[m - 1]] + [powers[hm - m] @ t[:, None] for hm, t in tall_tops]
        )
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
        for col in range(copies):
            top = tops[:, col]
            chains.append(chain_from_top(a, top, m))
            tall_tops.append((m, top))
    return chains


def chain_from_top(a: np.ndarray, top: np.ndarray, size: int):
    """Chain [A^(M-1) t, ..., A t, t] built downward from a top vector."""
    chain = [np.asarray(top, dtype=complex)]
    for _ in range(size - 1):
        chain.append(a @ chain[-1])
    return chain[::-1]


def _pairing_diagnostics(sys: OscillatorSystem, chain):
    """A_q = (f_n, f_{q-n}) for q = 0..2M-2, averaged over valid splits."""
    m = len(chain)
    out = []
    for q in range(2 * m - 1):
        vals = [
            bilinear(sys, chain[n], chain[q - n])
            for n in range(max(0, q - m + 1), min(q, m - 1) + 1)
        ]
        out.append(complex(np.mean(vals)))
    return out


def normalize_block(chain, sys: OscillatorSystem,
                    tol: Tolerances | None = None, *, gnorm: float | None = None):
    """Normalize a raw chain to the canonical anti-diagonal pairing.

    Returns (chain, ledger).  Raises DegenerateChainError when the top
    pairing A_{M-1} vanishes, which cannot happen for a chain of a valid
    block and signals broken input.  gnorm is |g|_2 of sys (computed when
    not given), the scale of that test.
    """
    tol = tol or DEFAULT_TOL
    chain = [np.array(v, dtype=complex) for v in chain]
    m = len(chain)
    a_top = bilinear(sys, chain[0], chain[m - 1])
    if gnorm is None:
        gnorm = float(np.linalg.norm(metric(sys), 2))
    scale = gnorm * np.linalg.norm(chain[0]) * np.linalg.norm(chain[m - 1])
    if abs(a_top) <= max(1e-12 * scale, 1e-300):
        raise DegenerateChainError(
            f"top pairing A_(M-1) = {a_top:.3e} vanishes; no valid block "
            "admits an eigenvector orthogonal to its whole chain"
        )
    c0 = a_top ** (-0.5)  # principal branch
    chain = [c0 * v for v in chain]
    c_coeffs = [complex(c0)]
    for n in range(1, m):
        a_n = bilinear(sys, chain[n], chain[m - 1])
        cn = -a_n / 2.0
        if abs(cn) > 0.0:
            shifted = [
                chain[k] + cn * chain[k - n] if k >= n else chain[k]
                for k in range(m)
            ]
            chain = shifted
        c_coeffs.append(complex(cn))
    flip = _sign_fix(chain[0])
    if flip < 0:
        chain = [-v for v in chain]
        c_coeffs[0] = -c_coeffs[0]
    ledger = NormalizationLedger(A=_pairing_diagnostics(sys, chain), c=c_coeffs)
    return chain, ledger


def _sign_fix(f0: np.ndarray) -> int:
    """+1 to keep, -1 to flip: largest entry's argument goes in (-pi/2, pi/2].

    Among entries of equal magnitude up to a relative 1e-8 the first one
    decides, so rounding noise cannot pick the entry.
    """
    mags = np.abs(f0)
    idx = int(np.argmax(mags >= (1.0 - 1e-8) * mags.max()))
    a = f0[idx]
    tiny = 1e-12 * abs(a)
    if a.real > tiny:
        return 1
    if a.real < -tiny:
        return -1
    return 1 if a.imag > 0 else -1


# ---------------------------------------------------------------------------
# level crossing
# ---------------------------------------------------------------------------

def biorthogonalize_crossing(chains, sys: OscillatorSystem, h: np.ndarray,
                             omega: complex, tol: Tolerances | None = None, *,
                             gnorm: float | None = None):
    """Enforce the anti-diagonal pairing across blocks sharing one eigenvalue.

    Implements the recursive construction: secure a normalizable top vector
    for (one of) the largest blocks, normalize that block, mix the remaining
    tops so their pairings with the first block vanish, rebuild them
    downward, and recurse on the rest.  Returns a list of (chain, ledger)
    pairs sorted by descending size.  gnorm is |g|_2 of sys, computed when
    not given.
    """
    tol = tol or DEFAULT_TOL
    chains = sorted([list(c) for c in chains], key=lambda c: -len(c))
    if not chains:
        return []
    if gnorm is None:
        gnorm = float(np.linalg.norm(metric(sys), 2))
    if len(chains) == 1:
        chain, ledger = normalize_block(chains[0], sys, tol, gnorm=gnorm)
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
        vals = [bilinear(sys, v, apow @ v) for v in candidates]
        scales = [
            gnorm * anorm * float(np.linalg.norm(v)) ** 2 for v in candidates
        ]
        quality = [abs(v) / max(s, 1e-300) for v, s in zip(vals, scales)]
        best = int(np.argmax(quality))
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

    first, ledger1 = normalize_block(chains[0], sys, tol, gnorm=gnorm)
    rest = []
    for c in chains[1:]:
        mj = len(c)
        top = c[-1]
        for n in range(m1 - mj, m1):
            coeff = bilinear(sys, top, first[n])
            top = top - coeff * first[m1 - 1 - n]
        rest.append(chain_from_top(a, top, mj))
    return [(first, ledger1)] + biorthogonalize_crossing(
        rest, sys, h, omega, tol, gnorm=gnorm
    )


# ---------------------------------------------------------------------------
# conjugation, duals, assembly
# ---------------------------------------------------------------------------

def conjugate_chain(chain: np.ndarray) -> np.ndarray:
    """Partner chain f_{-j,n} = + i^M (-1)^n conj(f_{j,n})."""
    m = len(chain)
    phase = 1j**m
    return np.array(
        [phase * (-1.0) ** n * np.conj(chain[n]) for n in range(m)]
    )


def _detect_self_conjugation(chain: np.ndarray) -> int | None:
    """Realized sign of the conjugation rule as a self-symmetry, or None."""
    cand = conjugate_chain(chain)
    norms = np.array([np.linalg.norm(v) for v in chain])
    d_plus = max(
        np.linalg.norm(chain[n] - cand[n]) / norms[n] for n in range(len(chain))
    )
    d_minus = max(
        np.linalg.norm(chain[n] + cand[n]) / norms[n] for n in range(len(chain))
    )
    if d_plus <= 1e-8:
        return 1
    if d_minus <= 1e-8:
        return -1
    return None


def _axis_tol(tol: Tolerances, omegas) -> float:
    """Half-width of the band around the negative imaginary axis."""
    return tol.cluster_tol * (1.0 + max(abs(w) for w in omegas))


def enforce_conjugation(spectrum: Spectrum) -> Spectrum:
    """Label the built blocks and append partners from the conjugation rule.

    The spectrum holds the blocks with Re(omega) >= -axis_tol, in order.
    Blocks on the negative imaginary axis are labeled 0 and carry the
    detected self-symmetry sign.  The others get labels j = 1, 2, ... and a
    partner at -conj(omega) with the conjugated chain (sign +), labeled -j,
    without a ledger.  The blocks are sorted afterwards, so each +j comes
    before its -j.
    """
    axis_tol = _axis_tol(spectrum.tol, [b.omega for b in spectrum.blocks])
    partners = []
    for b in spectrum.blocks:
        if abs(b.omega.real) <= axis_tol:
            b.label = 0
            b.conj_sign = _detect_self_conjugation(b.chain)
            continue
        b.label = len(partners) + 1
        b.conj_sign = 1
        partners.append(
            JordanBlock(
                omega=-np.conj(b.omega),
                size=b.size,
                chain=conjugate_chain(b.chain),
                label=-b.label,
                conj_sign=1,
                near_critical=b.near_critical,
            )
        )
    spectrum.blocks.extend(partners)
    _sort_blocks(spectrum.blocks)
    return spectrum


def dual_basis(spectrum: Spectrum) -> Spectrum:
    """Attach duals f^{j,n} = conj(g f_{j,M-1-n}) to every block."""
    g = metric(spectrum.system)
    for b in spectrum.blocks:
        m = b.size
        b.duals = np.array([np.conj(g @ b.chain[m - 1 - n]) for n in range(m)])
    return spectrum


def _basis_matrices(blocks):
    """(F, D): chain vectors and duals of the blocks as columns, in block order."""
    return (
        np.concatenate([b.chain for b in blocks]).T,
        np.concatenate([b.duals for b in blocks]).T,
    )


def _matrix_form(blocks) -> MatrixForm:
    """F, the N^l D^H stack, J, P and the column eigenvalues of the blocks."""
    f_mat, d_mat = _basis_matrices(blocks)
    d_h = d_mat.conj().T
    sizes = [b.size for b in blocks]
    omega = np.repeat(np.array([b.omega for b in blocks], dtype=complex), sizes)
    j_mat = np.diag(omega)
    p_mat = np.zeros(j_mat.shape)
    duals = np.zeros((max(sizes),) + d_h.shape, dtype=complex)
    pos = 0
    for m in sizes:
        for k in range(pos, pos + m):
            if k + 1 < pos + m:
                j_mat[k, k + 1] = 1.0
            p_mat[k, 2 * pos + m - 1 - k] = 1.0
            duals[: pos + m - k, k] = d_h[k : pos + m]
        pos += m
    return MatrixForm(
        f=f_mat,
        duals=duals,
        j=j_mat,
        p=p_mat,
        omega=omega,
        scale=1.0 + float(np.abs(omega).max()),
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
    the Gram, dual and completeness residuals count for every block.
    """
    sys = spectrum.system
    tol = spectrum.tol
    blocks = spectrum.blocks
    h = spectrum.operator()
    g = metric(sys)
    dim = sys.dim
    form = spectrum.matrices
    f_mat, j_mat, p_mat = form.f, form.j, form.p

    chain_cols = np.linalg.norm(h @ f_mat - f_mat @ j_mat, axis=0) / (
        (np.linalg.norm(h, 2) + np.abs(np.diag(j_mat)))
        * np.maximum(1.0, np.linalg.norm(f_mat, axis=0))
    )
    flagged = np.repeat([b.near_critical for b in blocks], [b.size for b in blocks])
    chain_res = float(np.max(chain_cols[~flagged], initial=0.0))
    flagged_chain_res = float(np.max(chain_cols[flagged], initial=0.0))
    gram_res = float(np.max(np.abs(f_mat.T @ g @ f_mat - p_mat)))
    dual_res = float(np.max(np.abs(form.duals[0] @ f_mat - np.eye(dim))))
    comp_res = float(np.max(np.abs(f_mat @ p_mat @ f_mat.T @ g - np.eye(dim))))

    sizes_ok = sum(b.size for b in blocks) == dim
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
        raise VerificationError(
            f"spectrum verification failed (max residual {worst:.3e} > "
            f"{tol.residual_tol:.1e})",
            report,
        )
    return report


def verify_representations(spectrum: Spectrum) -> dict:
    """Per-block metric and operator representations and their deviations.

    In the normalized basis the pairing matrix F^T g F must be the
    anti-identity P, the mixed-index operator D^H H F the Jordan form J, and
    the lowered-index operator F^T g H F the symmetric anti-triangular form
    P J (omega on the anti-diagonal, ones just below it).  Report only;
    never raises.
    """
    h = spectrum.operator()
    g = metric(spectrum.system)
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
    """The (omega, sizes) groups with Re(omega) >= -axis_tol.

    Every group with Re(omega) > axis_tol must have one mirror group at
    -conj(omega), within 10 axis_tol and with the same block sizes, and every
    group with Re(omega) < -axis_tol must be such a mirror; otherwise
    PairingError.
    """
    kept = [(w, sizes) for w, sizes in groups if w.real >= -axis_tol]
    mirrors = [(w, sizes) for w, sizes in groups if w.real < -axis_tol]
    for omega, sizes in kept:
        if omega.real > axis_tol:
            match = [
                i for i, (w, s) in enumerate(mirrors)
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


def compute_spectrum(sys: OscillatorSystem,
                     tol: Tolerances | None = None) -> Spectrum:
    """Full Jordan decomposition: detect, build, normalize, pair, verify.

    Chains are built for the eigenvalues with Re(omega) >= -axis_tol only;
    their mirrors follow from the conjugation rule (enforce_conjugation).

    Raises VerificationError when the constructed basis misses its
    invariants at residual_tol (never silently returns a bad basis).
    """
    tol = tol or DEFAULT_TOL
    h = evolution_operator(sys)
    coeffs = char_poly(h)
    roots = poly_roots(coeffs, tol)
    groups, flagged = _eigenstructure(h, coeffs, roots, tol)
    flagged_omegas = {
        complex(r) for cl in flagged for r in cl["roots"]
    }
    axis_tol = _axis_tol(tol, [w for w, _ in groups])
    kept = _unmirrored_groups(groups, axis_tol)
    sequences = [[] for _ in kept]
    levels = [max(s) + 1 for _, s in kept]
    for level in _kernel_stack(h, [w for w, _ in kept], levels, tol):
        for j, ak, kernel in level:
            # build_chain reads only the powers below max(sizes); those are
            # copied out of the stack, so no stacked level outlives this loop
            read = len(sequences[j]) + 2 < levels[j]
            sequences[j].append((ak.copy() if read else None, kernel))
    gnorm = float(np.linalg.norm(metric(sys), 2))

    blocks = []
    for (omega, sizes), kernels in zip(kept, sequences):
        raw = build_chain(h, omega, sizes, tol, kernels=kernels)
        built = biorthogonalize_crossing(raw, sys, h, omega, tol, gnorm=gnorm)
        blocks.extend(
            JordanBlock(
                omega=omega,
                size=len(chain),
                chain=np.array(chain),
                ledger=ledger,
                near_critical=complex(omega) in flagged_omegas,
            )
            for chain, ledger in built
        )
    spectrum = Spectrum(
        system=sys,
        blocks=_sort_blocks(blocks),
        tol=tol,
        crossing_groups=[
            CrossingGroup(omega=w, sizes=sorted(sizes, reverse=True))
            for w, sizes in groups
            if len(sizes) > 1
        ],
        near_critical_clusters=flagged,
    )
    enforce_conjugation(spectrum)
    dual_basis(spectrum)
    spectrum.matrices = _matrix_form(spectrum.blocks)
    verify_spectrum(spectrum, strict=True)
    return spectrum


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _interleave(vec: np.ndarray):
    out = []
    for z in vec:
        out.extend([float(z.real), float(z.imag)])
    return out


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
            "chain": [_interleave(v) for v in b.chain],
            "duals": [_interleave(v) for v in b.duals]
            if b.duals is not None
            else None,
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
