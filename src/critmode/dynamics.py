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

    G(t) = F e^{-iJt} D^H,        G(omega) = i F (omega - J)^{-1} D^H.

Writing J = diag(omega) + N, with omega_k the eigenvalue of column k and N
the nilpotent part (ones on the first superdiagonal inside each block),
each middle factor is a phase, or pole, times a polynomial in N:

    e^{-iJt}            = diag(exp(-i omega t)) sum_l ((-i t)^l / l!) N^l,
    i (omega - J)^{-1}  = sum_l diag(i / (omega - omega_k)^(l+1)) N^l,

with l below the largest block size L.  The kernels evaluate these from the
layouts the spectrum stores (Spectrum.matrices), all in one flat order of
L dim columns, column l dim + k for order l and basis column k: F repeated
once per order, the stack N^l D^H as one matrix, the outer products of
the two (column c of the one with row c of the other, as row c of one
(L dim, dim^2) matrix, L dim^3 entries), and per column l, (-i)^l / l!,
log l!, l + 1, omega_k and -i omega_k.  A scalar time or frequency is
taken as a point (a numpy scalar) and a grid of T as a (T, 1) column, and
one set of formulas broadcasts over either: a few ufuncs give the
coefficients, t^l (-i)^l / l! exp(-i omega_k t) or i r_k^(l+1) with
r_k = 1 / (omega - omega_k), as an (L dim) row for a point or a (T, L dim)
table for a column.  A Green's function is then one coefficient row times
the outer products per point; a state takes the stack times phi once and
F times the scaled result per point, which holds no dim^2 entries per
time.  A point takes these as 1-D products (a row times a matrix, a
matrix times a vector); a column keeps the stacked loop, one (1, L dim)
row or (L dim, 1) column per time, as one point's product each.  numpy's
matmul runs a 1-D operand and one row or column of a stack through the
same matrix-vector loop, and every other step is elementwise, so each row
of a grid call is bit for bit the scalar call at its point.  Nothing is
rebuilt per call, and the matrices that compute_spectrum verified are the
ones the kernels propagate with.

Separating the completeness relation F P F^T g = I (P the block
anti-identity) into coordinates and momenta yields four sum rules on the
position rows U of F alone (the second summing to the identity, the rest to
zero); check_sum_rules evaluates them as products of U, J and P.

The cancellation experiment probes time evolution near criticality: the
per-mode weights of the naive modal sum diverge as the splitting scale lambda
shrinks (like lambda**(1-M)), yet the summed evolution differs from the
critical Jordan evolution only by the leading-order truncation, ~|lambda|**M.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .jordan import (
    JordanBlock,
    MatrixForm,
    Spectrum,
    _matrix_form,
    _spectrum_for,
)
from .linalg import (ArgumentError, NumericalError, Tolerances, as_grid,
                     as_numbers)
from .model import OscillatorSystem, symmetric_matrix
from .perturb import (
    cluster_shifts,
    critical_block,
    exact_perturbed_spectrum,
    predict_splitting,
)

_EPS = np.finfo(float).eps
# C_l(omega, t) is taken directly for orders l <= _DIRECT_MAX_ORDER at
# |t| < _LOG_SPACE_TIME, and in log space otherwise, so that neither t^l nor
# l! overflows on its own
_DIRECT_MAX_ORDER = 20
_LOG_SPACE_TIME = 1e3
# Largest peak |t| * scale (scale = 1 + max |omega|), and largest state mass
# sum |phi_i|, at which _evolve lets numpy warn.  |(-it)^l / l!| <= e^|t|
# and |e^{-i omega t}| <= e^{|omega| |t|}, so below the bounds no
# coefficient exceeds e^{peak * scale} <= e^300 ~ 2e130 and nothing
# overflows unless |F| |D| pass about 1e128; above either the kernel runs
# under np.errstate and the finiteness check alone decides.
_QUIET_BOUND = 300.0
_QUIET_MASS = 1e50
# greens_freq takes r_k = 1 / (omega - omega_k) under np.errstate once the
# largest real or imaginary part of omega plus scale passes this bound.
# numpy divides complex numbers by Smith's method, whose denominator is at
# most twice the largest part of the divisor, so below the bound nothing
# overflows; above it |r_k| is below the smallest normal float, and r_k is 0
# where the denominator overflows
_RESOLVENT_QUIET = np.finfo(float).max / 2.0
# _increment_power squares the RK4 increment P_j while ||P_j||_1 is at most
# this.  Below it ||(I + P_j)^-1||_1 <= 1 / (1 - 1/2) = 2, and the last
# power, I + P_k = (I + P_{k-1})^2, has an inverse of norm at most 4, so no
# update y <- y + P y shrinks y by more than a factor 4: its rounding, a few
# ulps of the old y, stays a few ulps of the new one, and a decaying state
# keeps its relative accuracy.  Squaring on towards (I + d)^n - I, which
# tends to -I as the state decays, would cancel all of y in one update.
# The updates left number of order T ||a||_1 on a span of length T.
_SQUARING_BOUND = 0.5


class NonDiagonalizableError(NumericalError):
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
    if l <= _DIRECT_MAX_ORDER and abs(t) < _LOG_SPACE_TIME:
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


def _evolution_coefficients(form: MatrixForm, x, peak: float) -> np.ndarray:
    """C_l(omega_k, t) for every order l and column k, flat, on the flat
    layouts of form: for a point t (a numpy scalar) shape (L dim,), entry
    l dim + k; for a (T, 1) column of times shape (T, L dim), one row per
    time.  peak is the largest |t|.

    t^l (-i)^l / l! times exp(t (-i omega_k)), except at the times with
    |t| >= _LOG_SPACE_TIME (and every nonzero time once the orders pass
    _DIRECT_MAX_ORDER), which take evolution_coefficient's log-space form
    exp(l log(-i t) - log l! - i omega_k t), and are 0 where that
    exponent's phase overflows while its magnitude underflows.  The choice
    is made per time, and every formula is elementwise, so a row of a
    column is bit for bit the point call at its time.
    """
    far = None
    high = form.duals.shape[0] - 1 > _DIRECT_MAX_ORDER
    if peak >= _LOG_SPACE_TIME or (high and peak > 0.0):
        far = (np.abs(x) >= _LOG_SPACE_TIME) | (high & (x != 0.0))
    direct = x if far is None else np.where(far, 0.0, x)
    coef = direct ** form.orders * form.phases * np.exp(direct * form.minus_i_omega)
    if far is None:
        return coef
    # the other times stand in as t = peak, inside the bound peak * scale
    # that sets the callers' errstate, and np.where drops their values
    late = np.where(far, x, peak)
    exponent = (form.orders * np.log(-1j * late) - form.log_factorials
                + late * form.minus_i_omega)
    late_coef = np.exp(exponent)
    # past |t Re omega| ~ 1.8e308 the phase overflows and exp gives NaN,
    # even where e^{Re exponent} underflows to 0 and so makes the
    # coefficient 0 whatever its phase
    dead = ~np.isfinite(exponent.imag)
    if dead.any():
        with np.errstate(over="ignore"):
            dead &= np.exp(exponent.real) == 0.0
        late_coef[dead] = 0.0
    return np.where(far, late_coef, coef)


def _jordan_function(form: MatrixForm, coef: np.ndarray) -> np.ndarray:
    """F T_x D^H with T_x = sum_l diag(coef[..., l dim + k]) N^l, for a
    point's coefficient row or per row of a table.

    T_x = f(J) for any f with f^(l)(omega_k) / l! = coef[..., l dim + k], so
    the result is f(H) on the span of the basis (Higham, Functions of
    Matrices, ch. 1): the sum over flat columns c of coef[..., c] times the
    outer product of column c of F with row c of the N^l D^H stack.  With
    those outer products laid out once per spectrum (form.green_rows) it is
    one coefficient row times one matrix per point.  A point's row is a
    1-D product, with no stack axis to add and drop; a table's rows go
    through the stacked loop one by one, each a (1, L dim) row that numpy's
    matmul takes by the same matrix-vector loop as the 1-D row, so each is
    its point's call bit for bit.  A single matrix product of the whole
    table would block and sum the rows in its own order.
    """
    dim = form.f.shape[0]
    if coef.ndim == 1:
        return (coef @ form.green_rows).reshape(dim, dim)
    return (coef[:, None, :] @ form.green_rows).reshape(-1, dim, dim)


def _evolve(form: MatrixForm, phi: np.ndarray, x, peak: float,
            mass: float) -> np.ndarray:
    """F e^{-iJt} D^H phi at a point t or per time of a (T, 1) column, with
    the N^l D^H phi formed once.

    Raises ArgumentError naming the first time whose state is not finite:
    going back in time the modes grow like e^{|Im omega| |t|}, which
    overflows float64 once |Im omega| |t| passes about 709, and a state
    whose entries come near the float range overflows at any time.  Where
    either can happen (peak * scale above _QUIET_BOUND, or the state's
    mass sum |phi_i|, from _state, above _QUIET_MASS) numpy's overflow
    warnings are silenced, so the typed error is all the caller sees; it
    blames the state when the mass passed its bound and the failing time's
    own |t| * scale did not, as a call at that time alone does.
    """
    if peak * form.scale <= _QUIET_BOUND and mass <= _QUIET_MASS:
        states = _states(form, phi, x, peak)
        _check_finite(states, x, "the state")
        return states

    def cause(t):
        if mass > _QUIET_MASS and abs(t) * form.scale <= _QUIET_BOUND:
            return (f"phi has parts up to {np.abs(phi.view(float)).max():.3g}"
                    ", too large to propagate in float64")
        return None

    with np.errstate(over="ignore", invalid="ignore"):
        states = _states(form, phi, x, peak)
        _check_finite(states, x, "the state", cause)
    return states


def _states(form: MatrixForm, phi: np.ndarray, x, peak: float) -> np.ndarray:
    """The states of _evolve: one for a point, one row per time of a column.

    The coefficients scale the N^l D^H phi formed once, and F (tiled) takes
    the scaled row: a point's as one 1-D matrix-vector product, a column's
    as one stacked (L dim, 1) product per time, which numpy's matmul takes
    by the same loop as the 1-D one, so every row of a column is the
    point's state bit for bit.
    """
    scaled = _evolution_coefficients(form, x, peak) * (form.dual_rows @ phi)
    if scaled.ndim == 1:
        return form.f_tiled @ scaled
    return (form.f_tiled @ scaled[:, :, None])[:, :, 0]


def _check_finite(rows: np.ndarray, x, what: str, cause=None) -> None:
    """ArgumentError naming the first time of the point or column x whose
    part of rows is not finite, and the cause: cause(t) of that time t, or
    e^(-iJt) overflowing where there is no cause or it gives None.

    One sum screens all the entries: a point's 1-D row takes Python's sum
    over its list, which costs less than numpy's reduce on a few entries,
    and anything else the reduce.  The rule is the same for both: an inf
    or NaN part makes any sum's part inf or NaN, so a finite sum clears
    every entry, and a sum that is not finite may only have overflowed, so
    the rows then decide.
    """
    if rows.ndim == 1:
        total = sum(rows.tolist())
    else:
        total = np.add.reduce(rows, axis=None)
    if not cmath.isfinite(total):
        times = np.reshape(x, -1)
        lost = times[~np.isfinite(rows.reshape(times.size, -1)).all(axis=1)]
        if lost.size:
            raise ArgumentError(
                f"{what} at t={lost[0]:g} is not finite: "
                + ((cause and cause(lost[0]))
                   or "e^(-iJt) overflows float64 there")
            )


def _state(phi, dim: int) -> tuple[np.ndarray, float]:
    """(phi as a complex vector, its mass sum |phi_i|, inf where that
    overflows); ArgumentError unless phi has dim finite numbers."""
    phi = as_numbers(phi, "state", complex).ravel()
    if phi.size != dim:
        raise ArgumentError(f"state must have length {dim}, got {phi.size}")
    # Python over the 2N entries costs a third of np.isfinite(phi).all(),
    # and evolve_state checks its state once per call.  The mass propagates
    # a NaN or an inf entry, so only a mass that is not finite needs the
    # entries checked one by one: it may just have overflowed
    entries = phi.tolist()
    try:
        mass = sum(map(abs, entries))
    except OverflowError:  # abs() of a finite entry past the float range
        mass = math.inf
    if not math.isfinite(mass) and not all(map(cmath.isfinite, entries)):
        raise ArgumentError("state has non-finite entries")
    return phi, mass


def evolve_state(spectrum: Spectrum, phi, t) -> np.ndarray:
    """Propagate phi to time t through the Jordan-basis expansion.

    t may be a scalar or a 1-D grid, which gives one state per row, each
    bit for bit the scalar call at its time.  Raises ArgumentError for a
    state that is not finite, and for a time that is not finite or whose
    state is not (a time far in the past).
    """
    phi, mass = _state(phi, spectrum.system.dim)
    times, scalar, peak = as_grid(t, "t", float)
    x = times[0] if scalar else times[:, None]
    return _evolve(spectrum.matrices, phi, x, peak, mass)


def greens_time(spectrum: Spectrum, t) -> np.ndarray:
    """Retarded Green's function at time t (zero matrix for t < 0).

    t may be a scalar or a 1-D grid, each row bit for bit the scalar call
    at its time.  Raises ArgumentError for a time that is not finite or
    whose Green's function is not, by _evolve's rule.
    """
    times, scalar, peak = as_grid(t, "t", float)
    if scalar:
        x = times[0]
        past = x < 0.0
    else:
        x = times[:, None]
        # a Python min over the list costs a third of times.min()
        past = min(times.tolist(), default=0.0) < 0.0
    form = spectrum.matrices
    if peak * form.scale <= _QUIET_BOUND:
        return _retarded(form, x, peak, past)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _retarded(form, x, peak, past)
        _check_finite(out, x, "the Green's function")
    return out


def _retarded(form: MatrixForm, x, peak: float, past: bool) -> np.ndarray:
    """theta(t) F e^{-iJt} D^H at a point t or per time of a column; past
    says whether any time is negative."""
    if past:
        coef = np.where(x < 0.0, 0.0,
                        _evolution_coefficients(form, np.maximum(x, 0.0), peak))
    else:
        coef = _evolution_coefficients(form, x, peak)
    return _jordan_function(form, coef)


def greens_freq(spectrum: Spectrum, omega) -> np.ndarray:
    """Frequency-domain Green's function (resolvent form) at omega.

    omega may be a scalar or a 1-D grid, each row bit for bit the scalar
    call at its frequency.  Raises ArgumentError when omega is not finite
    or sits within cluster_tol * (1 + max |omega_k|) of a pole omega_k
    (MatrixForm.scale).
    """
    freqs, scalar, peak = as_grid(omega, "omega", complex)
    x = freqs[0] if scalar else freqs[:, None]
    form = spectrum.matrices
    gap = x - form.omega_tiled
    radius = spectrum.tol.cluster_tol * form.scale
    dist = np.abs(gap)
    # a point's distances take Python's min over their list, a column's the
    # ufunc's own reduce (no Python wrapper, as dist.min has); the gaps are
    # finite or inf, never NaN, so both give the least distance
    if scalar:
        nearest = min(dist.tolist())
    else:
        nearest = np.minimum.reduce(dist, axis=None, initial=np.inf)
    if nearest <= radius:
        i, k = np.argwhere(np.atleast_2d(dist <= radius))[0]
        raise ArgumentError(
            f"omega={freqs[i]} is within cluster_tol * "
            f"(1 + max |omega_k|) = {radius:g} of the pole at "
            f"{form.omega_tiled[k]}"
        )
    # i (omega - J)^{-1} = sum_l diag(i r_k^(l+1)) N^l, r_k = 1 / (omega -
    # omega_k); the power of r cannot overflow where that of the gap would
    if peak + form.scale <= _RESOLVENT_QUIET:
        coef = 1j * np.reciprocal(gap) ** form.pole_powers
    else:
        with np.errstate(over="ignore"):
            coef = 1j * np.reciprocal(gap) ** form.pole_powers
    return _jordan_function(form, coef)


@dataclass
class SumRuleReport:
    """Largest residual entries of the four coordinate-space sum rules."""

    max_abs: list
    threshold: float

    @property
    def passed(self) -> bool:
        return all(m <= self.threshold for m in self.max_abs)


def check_sum_rules(spectrum: Spectrum) -> SumRuleReport:
    """Evaluate the four sum rules on the position parts of the basis.

    With U the position rows of F the rules read U P U^T = 0,
    U J P U^T = I, U J^2 P U^T + i U J P U^T Gamma = 0 and U P U^T Gamma = 0,
    each to within the spectrum's residual_tol.
    """
    sys = spectrum.system
    form = spectrum.matrices
    j_mat, p_mat = form.j, form.p
    u = form.f[: sys.N]
    upu = u @ p_mat @ u.T
    ujpu = u @ j_mat @ p_mat @ u.T
    residuals = [
        upu,
        ujpu - np.eye(sys.N),
        u @ j_mat @ j_mat @ p_mat @ u.T + 1j * ujpu @ sys.Gamma,
        upu @ sys.Gamma,
    ]
    return SumRuleReport(
        max_abs=[float(np.max(np.abs(r))) for r in residuals],
        threshold=spectrum.tol.residual_tol,
    )


def _increment_power(d: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """(I + d)^n y, stepping y by powers of the increment d, never by I + d.

    P_0 = d and P_{j+1} = 2 P_j + P_j^2 is the increment of (I + d)^(2^(j+1)),
    so the squaring keeps the low bits that I + d would round away.  It stops
    at the first P_k with 2^(k+1) > n or ||P_k||_1 > _SQUARING_BOUND; then y
    takes y <- y + P_j y for each set bit j of n mod 2^k, and
    y <- y + P_k y floor(n / 2^k) times.  Every update moves y by a bounded
    factor, so a decaying state keeps the relative accuracy of n single
    steps, which (I + d)^n applied in one piece does not.
    """
    powers = [d]
    # ||P_{j+1}|| <= 2 ||P_j|| + ||P_j||^2 bounds the norm, which is taken
    # only once this bound passes _SQUARING_BOUND
    norm = np.linalg.norm(d, 1)
    while 2 ** len(powers) <= n:
        p = powers[-1]
        if norm > _SQUARING_BOUND:
            norm = np.linalg.norm(p, 1)
            if norm > _SQUARING_BOUND:
                break
        powers.append(2.0 * p + p @ p)
        norm *= 2.0 + norm
    k = len(powers) - 1
    for j in range(k):
        if (n >> j) & 1:
            y = y + powers[j] @ y
    for _ in range(n >> k):
        y = y + powers[k] @ y
    return y


def rk4_evolve(sys: OscillatorSystem, phi0, times, step: float = 1e-4) -> np.ndarray:
    """Classic fixed-step RK4 for x'' + Gamma x' + K x = 0.

    Deliberately independent of the evolution operator: the right-hand side
    y' = a y, a = [[0, I], [-K, -Gamma]], is assembled from K and Gamma
    directly, so this integrates the physical equation of motion and serves
    as an oracle for the Jordan-basis propagation.  On a linear equation one
    RK4 step of length h is y <- y + d y with d = ha + (ha)^2/2 + (ha)^3/6 +
    (ha)^4/24, built once per span; the n steps of a span are taken as
    (I + d)^n y by _increment_power, in O(log n) matrix products, and I + d
    is never formed, as storing it would round away the low bits of d.
    ``times`` is a scalar, which gives one state, or a 1-D grid, nonnegative
    and ascending, which gives one state per row (phi0 corresponds to t=0).
    Raises ArgumentError for a step that is not a finite positive real
    number, for a state that is not finite, for times that are not finite
    or not a scalar or 1-D grid, and for times that are negative or
    descending.
    """
    try:
        good_step = math.isfinite(step) and step > 0.0
    except TypeError:  # not a real number: a string, a complex, None
        good_step = False
    if not good_step:
        raise ArgumentError(f"step must be finite and positive, got {step}")
    grid, scalar, _ = as_grid(times, "times", float)
    if grid.min(initial=0.0) < 0.0 or (grid[1:] < grid[:-1]).any():
        raise ArgumentError("times must be ascending and nonnegative")
    n = sys.N
    y, _ = _state(phi0, 2 * n)
    a = np.block([[np.zeros((n, n)), np.eye(n)], [-sys.K, -sys.Gamma]])
    eye = np.eye(2 * n)

    out = np.empty((grid.size, 2 * n), dtype=complex)
    t_cur = 0.0
    for i, t in enumerate(grid):
        span = t - t_cur
        if span > 0.0:
            nsteps = max(1, int(round(span / step)))
            ha = (span / nsteps) * a
            d = ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)
            y = _increment_power(d, y, nsteps)
        out[i] = y
        t_cur = t
    return out[0] if scalar else out


def energy(sys: OscillatorSystem, phi) -> float:
    """Mechanical energy (p.p + x.K.x)/2 of a real phase-space state."""
    phi = np.asarray(phi)
    n = sys.N
    x, p = phi[:n].real, phi[n:].real
    return float(0.5 * (p @ p + x @ (sys.K @ x)))


@dataclass
class CancellationReport:
    """Outcome of the small-denominator experiment.  For a scalar eps, lam
    is a complex, mode_weights (M,) and diffs (T,); a grid of E values gives
    them, max_weight and max_diff a leading axis of length E, row e the
    scalar call at the e-th eps.  jordan, the (T, 2N) critical evolution of
    the block, is the same at every eps."""

    lam: complex | np.ndarray
    size: int
    mode_weights: np.ndarray
    jordan: np.ndarray
    diffs: np.ndarray

    @property
    def max_diff(self):
        return np.max(self.diffs, axis=-1)

    @property
    def max_weight(self):
        return np.max(self.mode_weights, axis=-1)


def cluster_cancellation_experiment(
    sys: OscillatorSystem,
    delta_k,
    eps,
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
    part reproduces the Jordan evolution exactly, and diffs measures the
    truncation of the leading-order modes, which goes as |lambda|**M.

    eps is a scalar or a 1-D grid (see CancellationReport), taken in one
    prediction, one exact eigensolve and one Jordan evolution.

    predict_splitting decides genericity once, before any perturbed
    eigensolve (NonGenericPerturbationError when xi vanishes); the exact
    eigensolve then raises NonDiagonalizableError for the first eps whose
    M cluster eigenvalues are not resolvably apart.  phi, eps, the times
    and DK (N x N, finite, symmetric) are checked (ArgumentError) before
    any eigensolve, DK again by each public stage.  spectrum, when given,
    must be the spectrum of sys (ArgumentError otherwise).  The block is
    critical_block's, with its ArgumentError.
    """
    t_grid, _, peak = as_grid(t_grid, "t_grid", float)
    if t_grid.size == 0:
        raise ArgumentError("t_grid must hold at least one time")
    if as_grid(eps, "eps", float)[0].size == 0:
        raise ArgumentError("eps must hold at least one value")
    phi, mass = _state(phi, sys.dim)
    dk = symmetric_matrix("DK", delta_k, sys.N)
    spectrum = _spectrum_for(sys, spectrum, tol)
    block = critical_block(spectrum, "cluster_cancellation_experiment")
    m = block.size
    pred = predict_splitting(block, dk, eps)  # the one genericity decision
    evals = exact_perturbed_spectrum(sys, dk, eps)
    shifts = cluster_shifts(evals, block.omega, m)
    floors = 10.0 * _EPS ** (1.0 / m) * (1.0 + np.max(np.abs(evals), axis=-1))
    seps = np.min(np.abs(shifts[..., :, None] - shifts[..., None, :])
                  + np.eye(m), axis=(-2, -1))
    fault = np.flatnonzero(seps < floors)  # the first eps at fault is named
    if fault.size:
        raise NonDiagonalizableError(
            f"cluster eigenvalues are separated by {np.ravel(seps)[fault[0]]:.3e}"
            f", below the resolvable floor {np.ravel(floors)[fault[0]]:.3e}")

    weights = pred.split_vectors @ spectrum.g @ phi / pred.norms
    naive = (
        np.exp(-1j * (t_grid[:, None] * pred.eigenvalues[..., None, :]))
        * weights[..., None, :]
    ) @ pred.split_vectors
    jordan = _evolve(_matrix_form([block]), phi, t_grid[:, None], peak, mass)
    return CancellationReport(
        lam=pred.lam,
        size=m,
        mode_weights=np.abs(weights),
        jordan=jordan,
        diffs=np.linalg.norm(naive - jordan, axis=-1),
    )
