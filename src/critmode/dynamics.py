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

with l below the largest block size L.  The kernels evaluate these on a
grid of T times or frequencies (a scalar is a grid of one) from the layouts
the spectrum stores (Spectrum.matrices), all in one flat order of L dim
columns, column l dim + k for order l and basis column k: F repeated once
per order, the stack N^l D^H as one matrix, and per column l, (-i)^l / l!,
log l!, l + 1, omega_k and -i omega_k.  A coefficient table is then a few
whole-array ufuncs on (T, L dim) arrays, t^l (-i)^l / l! exp(-i omega_k t)
or i r_k^(l+1) with r_k = 1 / (omega - omega_k), and one product per grid
point applies it.  Nothing is rebuilt per call, and the matrices that
compute_spectrum verified are the ones the kernels propagate with.

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
from .linalg import ArgumentError, NumericalError, Tolerances, as_grid
from .model import OscillatorSystem, symmetric_matrix
from .perturb import (
    _exact_perturbed_spectrum,
    _genericity_threshold,
    _predict_splitting,
    cluster_shifts,
    critical_block,
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


def _evolution_coefficients(form: MatrixForm, times: np.ndarray,
                            peak: float) -> np.ndarray:
    """C_l(omega_k, t) for every time, order l and column k, flat: shape
    (T, L dim), entry [x, l dim + k], on the flat layouts of form.

    t^l (-i)^l / l! times exp(t (-i omega_k)), except at the times with
    |t| >= _LOG_SPACE_TIME (and every nonzero time once the orders pass
    _DIRECT_MAX_ORDER), which take evolution_coefficient's log-space form
    exp(l log(-i t) - log l! - i omega_k t), and are 0 where that
    exponent's phase overflows while its magnitude underflows.  The choice
    is made per time, so a grid gives each time the values a grid of one
    gives it.
    """
    far = None
    high = form.duals.shape[0] - 1 > _DIRECT_MAX_ORDER
    if peak >= _LOG_SPACE_TIME or high:
        far = (np.abs(times) >= _LOG_SPACE_TIME) | (high & (times != 0.0))
    direct = times[:, None] if far is None else np.where(far, 0.0, times)[:, None]
    coef = direct ** form.orders * form.phases * np.exp(direct * form.minus_i_omega)
    if far is not None:
        late = times[far, None]
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
        coef[far] = late_coef
    return coef


def _jordan_function(form: MatrixForm, coef: np.ndarray) -> np.ndarray:
    """F T_x D^H with T_x = sum_l diag(coef[x, l dim + k]) N^l, per grid point x.

    T_x = f(J) for any f with f^(l)(omega_k) / l! = coef[x, l dim + k], so
    the result is f(H) on the span of the basis (Higham, Functions of
    Matrices, ch. 1).  With the duals stack N^l D^H as rows it is one
    product per point: [F diag(coef[x, :dim]) | F diag(coef[x, dim:2 dim])
    | ...] times the stacked rows.
    """
    return (form.f_tiled * coef[:, None, :]) @ form.dual_rows


def _evolve(form: MatrixForm, phi: np.ndarray, times: np.ndarray,
            peak: float, mass: float) -> np.ndarray:
    """F e^{-iJt} D^H phi per time, with the N^l D^H phi formed once.

    Raises ArgumentError naming the first time whose state is not finite:
    going back in time the modes grow like e^{|Im omega| |t|}, which
    overflows float64 once |Im omega| |t| passes about 709, and a state
    whose entries come near the float range overflows at any time.  Where
    either can happen (peak * scale above _QUIET_BOUND, or the state's
    mass sum |phi_i|, from _state, above _QUIET_MASS) numpy's overflow
    warnings are silenced, so the typed error is all the caller sees; it
    blames the state when only the mass passed its bound.
    """
    loud_time = peak * form.scale <= _QUIET_BOUND
    if loud_time and mass <= _QUIET_MASS:
        states = _states(form, phi, times, peak)
        _check_finite(states, times, "the state")
    else:
        cause = None
        if loud_time:
            cause = (f"phi has parts up to {np.abs(phi.view(float)).max():.3g}"
                     ", too large to propagate in float64")
        with np.errstate(over="ignore", invalid="ignore"):
            states = _states(form, phi, times, peak)
            _check_finite(states, times, "the state", cause)
    return states


def _states(form: MatrixForm, phi: np.ndarray, times: np.ndarray,
            peak: float) -> np.ndarray:
    """The states of _evolve, one row per time."""
    coef = _evolution_coefficients(form, times, peak)
    # one product per time, so that every row is computed as a grid of one
    return ((coef * (form.dual_rows @ phi))[:, None, :] @ form.f_tiled.T)[:, 0]


def _check_finite(rows: np.ndarray, times: np.ndarray, what: str,
                  cause: str | None = None) -> None:
    """ArgumentError naming the first time whose row of rows is not finite,
    and the cause (by default e^(-iJt) overflowing)."""
    # a sum that is finite clears every entry; one that is not may only
    # have overflowed, so the rows decide
    if not cmath.isfinite(np.add.reduce(rows, axis=None)):
        lost = times[~np.isfinite(rows.reshape(times.size, -1)).all(axis=1)]
        if lost.size:
            raise ArgumentError(
                f"{what} at t={lost[0]:g} is not finite: "
                + (cause or "e^(-iJt) overflows float64 there")
            )


def _state(phi, dim: int) -> tuple[np.ndarray, float]:
    """(phi as a complex vector, its mass sum |phi_i|, inf where that
    overflows); ArgumentError unless phi has dim finite entries."""
    phi = np.asarray(phi, dtype=complex).ravel()
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

    t may be a scalar or a 1-D grid, which gives one state per row.
    Raises ArgumentError for a state that is not finite, and for a time
    that is not finite or whose state is not (a time far in the past).
    """
    phi, mass = _state(phi, spectrum.system.dim)
    times, scalar, peak = as_grid(t, "t", float)
    states = _evolve(spectrum.matrices, phi, times, peak, mass)
    return states[0] if scalar else states


def greens_time(spectrum: Spectrum, t) -> np.ndarray:
    """Retarded Green's function at time t (zero matrix for t < 0).

    t may be a scalar or a 1-D grid.  Raises ArgumentError for a time that
    is not finite or whose Green's function is not, by _evolve's rule.
    """
    times, scalar, peak = as_grid(t, "t", float)
    form = spectrum.matrices
    if peak * form.scale <= _QUIET_BOUND:
        out = _retarded(form, times, peak)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            out = _retarded(form, times, peak)
            _check_finite(out, times, "the Green's function")
    return out[0] if scalar else out


def _retarded(form: MatrixForm, times: np.ndarray, peak: float) -> np.ndarray:
    """theta(t) F e^{-iJt} D^H per time."""
    # a Python min over the list costs a third of times.min() on one time
    if min(times.tolist(), default=0.0) < 0.0:
        coef = _evolution_coefficients(form, np.maximum(times, 0.0), peak)
        coef[times < 0.0] = 0.0
    else:
        coef = _evolution_coefficients(form, times, peak)
    return _jordan_function(form, coef)


def greens_freq(spectrum: Spectrum, omega) -> np.ndarray:
    """Frequency-domain Green's function (resolvent form) at omega.

    omega may be a scalar or a 1-D grid.  Raises ArgumentError when omega
    is not finite or sits within cluster_tol * (1 + max |omega_k|) of a pole
    omega_k (MatrixForm.scale).
    """
    freqs, scalar, peak = as_grid(omega, "omega", complex)
    form = spectrum.matrices
    gap = freqs[:, None] - form.omega_tiled
    radius = spectrum.tol.cluster_tol * form.scale
    dist = np.abs(gap)
    # the ufunc's own reduce skips the Python wrapper of dist.min
    if np.minimum.reduce(dist, axis=None, initial=np.inf) <= radius:
        x, k = np.argwhere(dist <= radius)[0]
        raise ArgumentError(
            f"omega={freqs[x]} is within cluster_tol * (1 + max |omega_k|) = "
            f"{radius:g} of the pole at {form.omega_tiled[k]}"
        )
    # i (omega - J)^{-1} = sum_l diag(i r_k^(l+1)) N^l, r_k = 1 / (omega -
    # omega_k); the power of r cannot overflow where that of the gap would
    if peak + form.scale <= _RESOLVENT_QUIET:
        coef = 1j * np.reciprocal(gap) ** form.pole_powers
    else:
        with np.errstate(over="ignore"):
            coef = 1j * np.reciprocal(gap) ** form.pole_powers
    out = _jordan_function(form, coef)
    return out[0] if scalar else out


@dataclass
class SumRuleReport:
    """Residual matrices of the four coordinate-space sum rules."""

    residuals: list
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
        residuals=residuals,
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
    Raises ArgumentError for a step that is not finite and positive, for a
    state that is not finite, for times that are not finite or not a scalar
    or 1-D grid, and for times that are negative or descending.
    """
    if not (math.isfinite(step) and step > 0.0):
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
    part reproduces the Jordan evolution exactly, and the remainder is
    higher order in lambda.

    eps is a scalar or a 1-D grid (see CancellationReport), taken in one
    exact eigensolve, one prediction and one Jordan evolution.

    The perturbed system must actually be diagonalizable near the block:
    the exact eigensolve guards that precondition, raising
    NonDiagonalizableError for the first eps whose M cluster eigenvalues
    are not resolvably apart.  The state phi, eps, the times and DK (N x N,
    finite, symmetric) are checked (ArgumentError) before any eigensolve,
    DK once for both the exact spectrum and the prediction.  spectrum, when
    given, must be the spectrum of sys (ArgumentError otherwise).  The
    block is critical_block's, with its ArgumentError.
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

    evals = _exact_perturbed_spectrum(sys, dk, eps)
    shifts = cluster_shifts(evals, block.omega, m)
    floors = 10.0 * _EPS ** (1.0 / m) * (1.0 + np.max(np.abs(evals), axis=-1))
    seps = np.min(np.abs(shifts[..., :, None] - shifts[..., None, :])
                  + np.eye(m), axis=(-2, -1))
    fault = np.flatnonzero(seps < floors)  # the first eps at fault is named
    if fault.size:
        raise NonDiagonalizableError(
            f"cluster eigenvalues are separated by {np.ravel(seps)[fault[0]]:.3e}"
            f", below the resolvable floor {np.ravel(floors)[fault[0]]:.3e}")

    pred = _predict_splitting(block, dk, eps, _genericity_threshold(block, dk))
    weights = pred.split_vectors @ spectrum.g @ phi / pred.norms
    naive = (
        np.exp(-1j * (t_grid[:, None] * pred.eigenvalues[..., None, :]))
        * weights[..., None, :]
    ) @ pred.split_vectors
    jordan = _evolve(_matrix_form([block]), phi, t_grid, peak, mass)
    return CancellationReport(
        lam=pred.lam,
        size=m,
        mode_weights=np.abs(weights),
        jordan=jordan,
        diffs=np.linalg.norm(naive - jordan, axis=-1),
    )
