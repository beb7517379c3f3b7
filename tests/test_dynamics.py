import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from critmode.dynamics import (
    NonDiagonalizableError,
    check_sum_rules,
    cluster_cancellation_experiment,
    energy,
    evolution_coefficient,
    evolve_basis_vector,
    evolve_state,
    greens_freq,
    greens_time,
    rk4_evolve,
)
from critmode import dynamics, jordan
from critmode.design import catalog_system, scale_system
from critmode.jordan import JordanBlock, _matrix_form, compute_spectrum
from critmode.linalg import ArgumentError, Tolerances, as_grid
from critmode.model import build_system, evolution_operator
from critmode.perturb import (NonGenericPerturbationError,
                              exact_perturbed_spectrum, loglog_slope)

from conftest import well_separated_system


@pytest.fixture(scope="module")
def kernel_spectra(catalog_spectra):
    """The catalog spectra and one random well-separated system per N = 1..5."""
    rng = np.random.default_rng(11)
    spectra = dict(catalog_spectra)
    for n in range(1, 6):
        spectra[f"random N={n}"] = compute_spectrum(well_separated_system(rng, n))
    return spectra


# --- evolution coefficients ---------------------------------------------------

def test_coefficient_values():
    assert evolution_coefficient(0, -1j, 0.7) == pytest.approx(
        np.exp(-0.7), abs=1e-14
    )
    t, w = 1.3, 0.4 - 0.2j
    want = (-1j * t) ** 3 / 6.0 * np.exp(-1j * w * t)
    assert evolution_coefficient(3, w, t) == pytest.approx(want, abs=1e-14)
    assert evolution_coefficient(2, w, 0.0) == 0.0
    assert evolution_coefficient(0, w, 0.0) == 1.0


def test_coefficient_log_space_branch():
    # large order times long horizon: log-space form must agree where both work
    w = -1j
    direct = (-1j * 10.0) ** 18 / math.factorial(18) * np.exp(-1j * w * 10.0)
    got = evolution_coefficient(18, w, 10.0)
    assert got == pytest.approx(direct, rel=1e-12)
    big = evolution_coefficient(40, w, 2.0e3)
    assert np.isfinite(big)


def test_coefficient_negative_order_rejected():
    with pytest.raises(ArgumentError):
        evolution_coefficient(-1, 0.0, 1.0)


def test_tall_block_takes_every_nonzero_time_in_log_space():
    # a block of 24 vectors passes _DIRECT_MAX_ORDER, so the kernels take
    # every nonzero time in log space; with unit chain and duals the flat
    # table holds C_l(omega, t) at column l dim + k for every column k
    omega, size = 0.8 - 0.01j, 24
    assert size - 1 > dynamics._DIRECT_MAX_ORDER
    unit = np.eye(size, dtype=complex)
    form = _matrix_form([JordanBlock(omega=omega, size=size, chain=unit, duals=unit)])
    times = [-0.5, 0.0, 0.3, 2e3]
    for t in times:
        grid, _, peak = as_grid(t, "t", float)
        coef = dynamics._evolution_coefficients(form, grid[0], peak)
        assert coef.shape == (size * size,)
        for l in range(size):
            want = evolution_coefficient(l, omega, t)
            got = coef[l * size : (l + 1) * size]
            if t == 0.0 or l > dynamics._DIRECT_MAX_ORDER or abs(t) >= 1e3:
                # exact at t = 0, and evolution_coefficient is in log space too
                assert np.all(got == want), (t, l)
            else:
                assert np.all(np.abs(got - want) <= 1e-13 * abs(want)), (t, l)
    # a row of a column of times is its time's point call, bit for bit
    grid, _, peak = as_grid(times, "t", float)
    coef = dynamics._evolution_coefficients(form, grid[:, None], peak)
    phi, mass = dynamics._state(np.linspace(1.0, 2.0, size) + 0.5j, size)
    states = dynamics._evolve(form, phi, grid[:, None], peak, mass)
    for i, t in enumerate(times):
        one, _, one_peak = as_grid(t, "t", float)
        row = dynamics._evolution_coefficients(form, one[0], one_peak)
        assert np.array_equal(coef[i], row)
        assert np.array_equal(
            states[i], dynamics._evolve(form, phi, one[0], one_peak, mass))


def test_basis_vector_derivative_identity(catalog_spectra):
    # i d/dt f_{j,n}(t) = omega f_{j,n}(t) + f_{j,n-1}(t), finite differences
    spec = catalog_spectra["quartic-jb4"]
    b = spec.blocks[0]
    h = 1e-4
    for n in range(b.size):
        for t in (0.3, 1.1):
            lhs = 1j * (
                evolve_basis_vector(b, n, t + h) - evolve_basis_vector(b, n, t - h)
            ) / (2.0 * h)
            rhs = b.omega * evolve_basis_vector(b, n, t)
            if n > 0:
                rhs = rhs + evolve_basis_vector(b, n - 1, t)
            assert np.linalg.norm(lhs - rhs) <= 1e-6


def test_basis_vector_critical_damping_form(catalog_spectra):
    # f_{,1}(t) = e^{-t} (f_{,1} - i t f_{,0}): position part -i t e^{-t},
    # the critically damped t e^{-t} growth
    spec = catalog_spectra["single-critical"]
    b = spec.blocks[0]
    for t in (0.5, 2.0):
        got = evolve_basis_vector(b, 1, t)
        want = np.exp(-t) * (b.chain[1] - 1j * t * b.chain[0])
        assert np.allclose(got, want, atol=1e-14)
        assert got[0] == pytest.approx(-1j * t * np.exp(-t) * b.chain[0][0], abs=1e-14)


def test_basis_vector_index_range(catalog_spectra):
    b = catalog_spectra["single-critical"].blocks[0]
    with pytest.raises(ArgumentError):
        evolve_basis_vector(b, 2, 1.0)


# --- state evolution ----------------------------------------------------------

def test_evolve_state_identity_at_t0(catalog_spectra):
    rng = np.random.default_rng(0)
    for name, spec in catalog_spectra.items():
        dim = spec.system.dim
        for _ in range(100):
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            out = evolve_state(spec, phi, 0.0)
            assert np.linalg.norm(out - phi) <= 1e-9 * np.linalg.norm(phi), name


def test_evolve_state_vs_rk_quartic(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    rng = np.random.default_rng(1)
    phi = rng.standard_normal(4) + 0j
    times = [0.5, 1.0, 2.0, 5.0]
    oracle = rk4_evolve(spec.system, phi, times)
    for i, t in enumerate(times):
        got = evolve_state(spec, phi, t)
        rel = np.linalg.norm(got - oracle[i]) / np.linalg.norm(oracle[i])
        assert rel <= 1e-8


def test_evolve_state_vs_rk_double(catalog_spectra):
    spec = catalog_spectra["double-jb2"]
    rng = np.random.default_rng(2)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    times = [0.5, 1.0, 2.0, 5.0]
    oracle = rk4_evolve(spec.system, phi, times)
    for i, t in enumerate(times):
        got = evolve_state(spec, phi, t)
        rel = np.linalg.norm(got - oracle[i]) / np.linalg.norm(oracle[i])
        assert rel <= 1e-8


def test_evolve_state_semigroup(catalog_spectra):
    rng = np.random.default_rng(3)
    for name, spec in catalog_spectra.items():
        phi = rng.standard_normal(spec.system.dim) + 0j
        one = evolve_state(spec, evolve_state(spec, phi, 1.25), 2.0)
        two = evolve_state(spec, phi, 3.25)
        assert np.linalg.norm(one - two) <= 1e-8 * max(1.0, np.linalg.norm(two)), name


def test_energy_dissipation(catalog_spectra):
    rng = np.random.default_rng(4)
    for name, spec in catalog_spectra.items():
        phi = rng.standard_normal(spec.system.dim) + 0j
        grid = np.linspace(0.0, 5.0, 41)
        energies = [
            energy(spec.system, evolve_state(spec, phi, t)) for t in grid
        ]
        diffs = np.diff(energies)
        assert np.all(diffs <= 1e-10 * max(energies)), name


def test_evolve_state_dimension_check(catalog_spectra):
    with pytest.raises(ArgumentError):
        evolve_state(catalog_spectra["quartic-jb4"], np.zeros(3), 1.0)


def test_rk4_rejects_descending_times(catalog_spectra):
    sys = catalog_spectra["single-critical"].system
    with pytest.raises(ArgumentError):
        rk4_evolve(sys, np.zeros(2), [1.0, 0.5])


@pytest.mark.parametrize(
    "times, step",
    [([0.1], 0.0), ([0.1], -1e-3), ([0.1], np.nan), ([0.1], np.inf),
     ([0.1, np.nan, 0.2], 1e-4), ([0.1, np.inf], 1e-4),
     ([[0.1, 0.2]], 1e-4), (-0.1, 1e-4), ([-0.1, 0.2], 1e-4),
     ([0.1], "abc"), ([0.1], 1j), ([0.1], None)],
    ids=["step-0", "step-negative", "step-nan", "step-inf", "times-nan",
         "times-inf", "times-2d", "time-negative-scalar", "times-negative",
         "step-string", "step-complex", "step-none"],
)
def test_rk4_rejects_bad_step_and_times(catalog_spectra, times, step):
    # step 0 used to divide by zero, a negative step took one RK4 step
    # across the whole span, a NaN time repeated the previous state, a
    # 2-D grid raised TypeError from the time comparison, and a step that
    # is no real number a bare TypeError from math.isfinite
    sys = catalog_spectra["single-critical"].system
    with pytest.raises(ArgumentError):
        rk4_evolve(sys, np.array([1.0, 0.0]), times, step=step)


def test_rk4_takes_a_scalar_or_a_grid(catalog_spectra):
    # a scalar time gives one state, as evolve_state does; an empty grid
    # gives no rows of 2N entries (it used to give shape (0,))
    sys = catalog_spectra["quartic-jb4"].system
    phi = np.array([1.0, 0.5j, -0.25, 0.0])
    grid = rk4_evolve(sys, phi, [0.0, 0.3])
    one = rk4_evolve(sys, phi, 0.3)
    assert grid.shape == (2, 4) and one.shape == (4,)
    np.testing.assert_array_equal(one, grid[1])
    np.testing.assert_array_equal(grid[0], phi)
    assert rk4_evolve(sys, phi, []).shape == (0, 4)


def _rk4_increment(sys, h):
    """ha and the RK4 increment d = ha + (ha)^2/2 + (ha)^3/6 + (ha)^4/24."""
    n = sys.N
    ha = h * np.block([[np.zeros((n, n)), np.eye(n)], [-sys.K, -sys.Gamma]])
    eye = np.eye(2 * n)
    return ha, ha @ (eye + ha @ (eye + ha @ (eye + ha / 4.0) / 3.0) / 2.0)


def _step_by_step(d, y, n):
    """n single RK4 steps y <- y + d y, the reference for _increment_power."""
    for _ in range(n):
        y = y + d @ y
    return y


def _oracle_systems():
    return {
        "quartic-jb4": catalog_system("quartic-jb4"),
        "single-critical": catalog_system("single-critical"),
        "random N=4": well_separated_system(np.random.default_rng(4), 4),
    }


@pytest.mark.parametrize("name", ["quartic-jb4", "random N=4"])
@pytest.mark.parametrize("h", [1e-4, 1e-3])
def test_increment_power_equals_single_steps(name, h):
    # the squaring stops at the norm bound, leaving repeated updates by the
    # last power, for n = 4096 at either step and for n = 500 and 501 at
    # h = 1e-3; for the smaller n it stops at the highest bit of n
    sys = _oracle_systems()[name]
    _, d = _rk4_increment(sys, h)
    rng = np.random.default_rng(12)
    phi = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
    for n in (1, 2, 3, 7, 8, 9, 500, 501, 4096):
        got = dynamics._increment_power(d, phi, n)
        want = _step_by_step(d, phi, n)
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(phi), n


# Relative error of n = T / 1e-4 single steps y <- y + d y against
# (I + d)^n phi at 50 digits, measured with _step_by_step on the states of
# test_rk4_keeps_relative_accuracy.  At T = 50 the quartic-jb4 state has
# decayed to 1e-16 of phi, the single-critical one to 1e-20.
SINGLE_STEP_ERRORS = {
    ("quartic-jb4", 5.0): 8.3e-15,
    ("quartic-jb4", 20.0): 1.8e-12,
    ("quartic-jb4", 50.0): 1.8e-11,
    ("single-critical", 5.0): 1.7e-14,
    ("single-critical", 20.0): 2.1e-14,
    ("single-critical", 50.0): 4.8e-13,
    ("random N=4", 5.0): 1.6e-14,
    ("random N=4", 20.0): 1.2e-14,
    ("random N=4", 50.0): 1.0e-14,
}


def _exact_increment_power(ha, phi, n):
    """(I + d)^n phi at 50 digits, d the RK4 increment of the float matrix ha."""
    with mpmath.workdps(50):
        m = mpmath.matrix(ha.tolist())
        one_step = mpmath.eye(ha.shape[0]) + m + m**2 / 2 + m**3 / 6 + m**4 / 24
        state = one_step**n * mpmath.matrix(phi.tolist())
        return np.array([complex(z) for z in state])


@pytest.mark.parametrize("name, t", list(SINGLE_STEP_ERRORS))
def test_rk4_keeps_relative_accuracy(name, t):
    # stepping by bounded powers of the increment keeps the relative error
    # of single steps on a decaying state; applying (I + d)^n - I to phi in
    # one update instead loses every digit of quartic-jb4 at T = 50
    sys = _oracle_systems()[name]
    rng = np.random.default_rng(13)
    phi = rng.standard_normal(sys.dim) + 1j * rng.standard_normal(sys.dim)
    n = int(round(t / 1e-4))
    ha, _ = _rk4_increment(sys, t / n)
    want = _exact_increment_power(ha, phi, n)
    rel = np.linalg.norm(rk4_evolve(sys, phi, t) - want) / np.linalg.norm(want)
    assert rel <= 3.0 * SINGLE_STEP_ERRORS[name, t]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_kernels_reject_non_finite_inputs(catalog_spectra, value):
    spec = catalog_spectra["quartic-jb4"]
    phi = np.ones(4, dtype=complex)
    with pytest.raises(ArgumentError):
        evolve_state(spec, phi, value)
    with pytest.raises(ArgumentError):
        evolve_state(spec, phi, [0.0, 1.0, value])
    with pytest.raises(ArgumentError):
        greens_time(spec, value)
    with pytest.raises(ArgumentError):
        greens_freq(spec, value)
    with pytest.raises(ArgumentError):
        greens_freq(spec, complex(0.5, value))


@pytest.mark.filterwarnings("error")
def test_evolve_state_rejects_overflowing_past_times(catalog_spectra):
    # going back in time the modes grow like e^{|Im omega| |t|}: at t = -1e3
    # that overflows, and the time is named instead of a NaN state, with no
    # numpy RuntimeWarning before the error
    spec = catalog_spectra["quartic-jb4"]
    phi = np.ones(4, dtype=complex)
    assert np.isfinite(evolve_state(spec, phi, -50.0)).all()
    with pytest.raises(ArgumentError, match="t=-1000"):
        evolve_state(spec, phi, -1e3)
    with pytest.raises(ArgumentError, match="t=-1000"):
        evolve_state(spec, phi, [0.0, -50.0, -1e3])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)],
                         ids=["nan", "inf", "-inf", "inf-imag"])
def test_non_finite_state_is_refused_at_the_door(catalog_spectra, monkeypatch,
                                                 value):
    # the state is named, with no numpy RuntimeWarning first; evolve_state
    # used to blame e^(-iJt) for a NaN state, and rk4_evolve returned NaN
    spec = catalog_spectra["quartic-jb4"]
    phi = np.array([value, 0.0, 0.0, 0.0], dtype=complex)
    with pytest.raises(ArgumentError, match="state has non-finite entries"):
        evolve_state(spec, phi, 0.0)
    with pytest.raises(ArgumentError, match="state has non-finite entries"):
        evolve_state(spec, phi, [0.0, 1.0])
    with pytest.raises(ArgumentError, match="state has non-finite entries"):
        rk4_evolve(spec.system, phi, [0.0, 0.01])

    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the state was checked")

    monkeypatch.setattr(jordan, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(dynamics, "exact_perturbed_spectrum", no_eigensolve)
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ArgumentError, match="state has non-finite entries"):
        cluster_cancellation_experiment(spec.system, e11, 1e-6, phi, [0.0, 1.0])


_E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
_PHI = np.ones(4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, call",
    [
        ("t", lambda s: evolve_state(s, _PHI, np.array([0.5 + 2j]))),
        ("t", lambda s: evolve_state(s, _PHI, 1j)),
        ("t", lambda s: evolve_state(s, _PHI, "abc")),
        ("t", lambda s: evolve_state(s, _PHI, [[0.0, 1.0], [2.0]])),
        ("state", lambda s: evolve_state(s, ["a", "b", "c", "d"], 0.0)),
        ("t", lambda s: greens_time(s, 1j)),
        ("omega", lambda s: greens_freq(s, "abc")),
        ("times", lambda s: rk4_evolve(s.system, _PHI, 1j)),
        ("state", lambda s: rk4_evolve(s.system, ["a", "b", "c", "d"], 0.0)),
        ("eps", lambda s: exact_perturbed_spectrum(
            s.system, _E11, np.array([1e-4 + 1j]))),
        ("eps", lambda s: exact_perturbed_spectrum(s.system, _E11, 1j)),
        ("t_grid", lambda s: cluster_cancellation_experiment(
            s.system, _E11, 1e-6, _PHI, 1j, spectrum=s)),
        ("eps", lambda s: cluster_cancellation_experiment(
            s.system, _E11, 1j, _PHI, [0.0, 1.0], spectrum=s)),
        ("DK", lambda s: exact_perturbed_spectrum(
            s.system, (1.0 + 1j) * _E11, 1e-6)),
        ("DK", lambda s: exact_perturbed_spectrum(
            s.system, [["1", "0"], ["0", "0"]], 1e-6)),
        ("DK", lambda s: cluster_cancellation_experiment(
            s.system, (1.0 + 1j) * _E11, 1e-6, _PHI, [0.0, 1.0], spectrum=s)),
        ("DK", lambda s: cluster_cancellation_experiment(
            s.system, [["1", "0"], ["0", "0"]], 1e-6, _PHI, [0.0, 1.0],
            spectrum=s)),
    ],
    ids=["t-complex-grid", "t-complex", "t-string", "t-ragged",
         "state-strings", "greens-time-complex", "greens-freq-string",
         "rk4-complex", "rk4-state-strings", "eps-complex-grid",
         "eps-complex", "experiment-t-grid-complex", "experiment-eps-complex",
         "dk-complex-exact", "dk-strings-exact", "dk-complex-experiment",
         "dk-strings-experiment"],
)
def test_values_that_are_not_numbers_are_refused_by_name(catalog_spectra,
                                                          name, call):
    # a complex time, eps or DK used to lose its imaginary part (with only
    # a ComplexWarning) or raise a bare TypeError, strings in a time a bare
    # ValueError, and numeric strings in DK were read as numbers
    with pytest.raises(ArgumentError, match=f"^{name} "):
        call(catalog_spectra["quartic-jb4"])


def _tall_block_spectrum(size=24):
    """What the kernels read of a spectrum, for one block of size vectors
    (unit chain and duals) at 0.8 - 0.01i: past _DIRECT_MAX_ORDER, so every
    nonzero time takes the log-space branch."""
    unit = np.eye(size, dtype=complex)
    block = JordanBlock(omega=0.8 - 0.01j, size=size, chain=unit, duals=unit)
    return SimpleNamespace(matrices=_matrix_form([block]),
                           system=SimpleNamespace(dim=size), tol=Tolerances())


def test_grid_call_equals_scalar_calls(kernel_spectra):
    # a scalar is taken as a point and a grid as a column of points, by the
    # same formulas: every grid row must be the scalar call's result bit for
    # bit, for a numpy and a Python scalar, including rows on the log-space
    # branch (|t| >= 1e3, and every nonzero time of a block taller than 21)
    rng = np.random.default_rng(12)
    times = np.array([-1.0, 0.0, 0.3, 1.7, 5.0, 1e3, 2e3])
    freqs = np.array([0.5 + 0.2j, -1.5 + 0.0j, 3.0 - 0.1j, 2.0])
    spectra = dict(kernel_spectra, tall=_tall_block_spectrum())
    for name, spec in spectra.items():
        dim = spec.system.dim
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states = evolve_state(spec, phi, times)
        greens = greens_time(spec, times)
        resolvents = greens_freq(spec, freqs)
        assert states.shape == (times.size, dim), name
        assert greens.shape == (times.size, dim, dim), name
        for i, t in enumerate(times):
            for point in (t, float(t)):
                assert np.array_equal(states[i], evolve_state(spec, phi, point)), name
                assert np.array_equal(greens[i], greens_time(spec, point)), name
        for i, w in enumerate(freqs):
            assert np.array_equal(resolvents[i], greens_freq(spec, w)), name
            assert np.array_equal(resolvents[i], greens_freq(spec, complex(w))), name



def test_green_rows_are_the_outer_products(kernel_spectra):
    # row c of green_rows is the outer product of column c of f_tiled with
    # row c of dual_rows, bit for bit, and the layout holds L dim^3 complex
    # entries: on the catalog, random N = 1..5 and a block of 24 vectors
    spectra = dict(kernel_spectra, tall=_tall_block_spectrum())
    for name, spec in spectra.items():
        form = spec.matrices
        levels, dim = form.duals.shape[0], spec.system.dim
        want = np.array([np.outer(form.f_tiled[:, c], form.dual_rows[c]).ravel()
                         for c in range(levels * dim)])
        assert form.green_rows.shape == want.shape, name
        assert form.green_rows.tobytes() == want.tobytes(), name
        assert form.green_rows.nbytes == levels * dim**3 * 16, name


def _scaled_column_product(form, coef):
    """F T_x D^H as the columns of f_tiled scaled by each row of coef, times
    dual_rows; and the same product of the magnitudes, which scales its
    rounding."""
    return ((form.f_tiled * coef[:, None, :]) @ form.dual_rows,
            (np.abs(form.f_tiled) * np.abs(coef)[:, None, :])
            @ np.abs(form.dual_rows))


def test_greens_kernels_match_the_scaled_column_product(kernel_spectra):
    # one coefficient row times green_rows is F diag(coef) D^H summed in
    # another order: within 1e-13 of the terms' magnitudes, at points and on
    # grids, the log-space rows (|t| >= 1e3, and every nonzero time of the
    # 24-vector block) included
    times = np.array([-1.0, 0.0, 0.3, 1.7, 5.0, 1e3, 2e3])
    freqs = np.array([0.5 + 0.2j, -1.5 + 0.0j, 3.0 - 0.1j, 2.0])
    spectra = dict(kernel_spectra, tall=_tall_block_spectrum())
    for name, spec in spectra.items():
        form = spec.matrices
        coef = dynamics._evolution_coefficients(
            form, np.maximum(times, 0.0)[:, None], times.max())
        coef = np.where(times[:, None] < 0.0, 0.0, coef)
        want_t, mass_t = _scaled_column_product(form, coef)
        gap = freqs[:, None] - form.omega_tiled
        want_w, mass_w = _scaled_column_product(
            form, 1j * np.reciprocal(gap) ** form.pole_powers)
        for kernel, args, want, mass in ((greens_time, times, want_t, mass_t),
                                         (greens_freq, freqs, want_w, mass_w)):
            _assert_close(kernel(spec, args), want, mass, name)
            for i, x in enumerate(args):
                _assert_close(kernel(spec, x), want[i], mass[i], (name, x))


def test_greens_freq_names_the_grid_row_on_a_pole(catalog_spectra):
    # a grid row on a pole, or within its radius, raises the error of its
    # scalar call, naming that row's frequency
    spec = catalog_spectra["cubic-jb3"]
    radius = spec.tol.cluster_tol * spec.matrices.scale
    for pole in (spec.blocks[0].omega, spec.blocks[1].omega + 0.5 * radius):
        for i in range(3):
            freqs = np.array([0.5 + 0.2j, 2.0, -1.5 + 0.1j], dtype=complex)
            freqs[i] = pole
            with pytest.raises(ArgumentError) as grid:
                greens_freq(spec, freqs)
            with pytest.raises(ArgumentError) as point:
                greens_freq(spec, freqs[i])
            assert str(grid.value).startswith(f"omega={freqs[i]} is within")
            assert str(grid.value) == str(point.value)

def test_empty_grid_gives_no_rows(kernel_spectra):
    # an empty grid gives no rows of the scalar call's shape, as rk4_evolve
    # does (the Green's functions used to raise numpy's reshape error)
    for name, spec in kernel_spectra.items():
        dim = spec.system.dim
        assert evolve_state(spec, np.ones(dim), []).shape == (0, dim), name
        assert greens_time(spec, []).shape == (0, dim, dim), name
        assert greens_freq(spec, []).shape == (0, dim, dim), name


# the kernel property: finite rows equal to the scalar calls, or ArgumentError,
# for times and frequencies from 0 and 1e-300 up to 1e308 in magnitude
_MAGNITUDES = st.floats(-300.0, 308.0).map(lambda e: 10.0 ** e)
_REALS = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]), _MAGNITUDES),
)
_FREQS = st.one_of(_REALS, st.builds(complex, _REALS, _REALS))


def _scalar_or_grid(values):
    return st.one_of(values, st.lists(values, min_size=1, max_size=4))


def _assert_rows_or_typed(kernel, arg):
    """kernel(arg) is finite, and each row of a grid is its scalar call bit
    for bit, unless the call raises ArgumentError."""
    try:
        out = kernel(arg)
    except ArgumentError:
        return
    assert np.isfinite(out).all(), arg
    if isinstance(arg, list):
        assert len(out) == len(arg)
        for row, value in zip(out, arg):
            assert np.array_equal(row, kernel(value)), (arg, value)


@settings(derandomize=True)
@given(t=_scalar_or_grid(_REALS), w=_scalar_or_grid(_FREQS),
       size=st.one_of(st.just(1.0), _MAGNITUDES))
def test_kernels_give_finite_rows_or_argument_error(kernel_spectra, t, w, size):
    # no numpy RuntimeWarning and no builtin exception at any magnitude of
    # the time, the frequency or the state (norm 1e-300 up to 1e308), on the
    # catalog spectra and one random spectrum per N = 1..5
    for spec in kernel_spectra.values():
        phi = np.linspace(1.0, 2.0, spec.system.dim) + 0.5j
        phi *= size / np.linalg.norm(phi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_rows_or_typed(lambda x: evolve_state(spec, phi, x), t)
            _assert_rows_or_typed(lambda x: greens_time(spec, x), t)
            _assert_rows_or_typed(lambda x: greens_freq(spec, x), w)


def test_huge_state_is_blamed_for_its_overflow(catalog_spectra):
    # e^(-iJt) stays near 1 at t = 0.5; the state's own size overflows
    spec = catalog_spectra["quartic-jb4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="phi has parts up to 1e"):
            evolve_state(spec, 1e308 * np.ones(4), 0.5)
        assert np.isfinite(evolve_state(spec, 1e300 * np.ones(4), 0.5)).all()


def _entrywise_sum(spec, coefficient):
    """sum over blocks j, chain n and l <= n of coefficient(l, omega_j)
    f_{j,n-l} conj(d_{j,n})^T, entry by entry in plain loops, with the sum
    of the terms' magnitudes, which scales the rounding of any order of
    summation."""
    dim = spec.system.dim
    out = np.zeros((dim, dim), dtype=complex)
    mass = np.zeros((dim, dim))
    for b in spec.blocks:
        for n in range(b.size):
            for l in range(n + 1):
                c = coefficient(l, b.omega)
                for r in range(dim):
                    for s in range(dim):
                        term = c * b.chain[n - l][r] * np.conj(b.duals[n][s])
                        out[r, s] += term
                        mass[r, s] += abs(term)
    return out, mass


def _assert_close(got, want, mass, label):
    # 1e-13 of the terms' magnitudes, and absolute below the normal range,
    # where a coefficient that underflows to a subnormal keeps few bits
    bound = 1e-13 * mass + np.finfo(float).tiny
    assert np.all(np.abs(got - want) <= bound), label


@pytest.mark.parametrize("t", [-1.0, 0.0, 0.3, 1.7, 5.0, 1e3, 2e3])
def test_time_kernels_match_entrywise_reference(kernel_spectra, catalog_entries, t):
    # G(t) = sum_{j,n} f_{j,n}(t) d_{j,n}^H with f_{j,n}(t) built from
    # evolution_coefficient, which takes the log-space branch at 1e3 and
    # 2e3; G(t) = 0 before t = 0, and the state is G(t) phi for every t.
    # The catalog blocks have decayed below the smallest float by t = 1e3,
    # so two of them scaled to eigenvalue -0.05i carry the log-space
    # coefficients of orders l >= 1
    spectra = dict(kernel_spectra)
    for name in ("single-critical", "quartic-jb4"):
        slow = scale_system(catalog_entries[name].system, 0.05)
        spectra[f"{name} x 0.05"] = compute_spectrum(slow)
    rng = np.random.default_rng(13)
    for name, spec in spectra.items():
        dim = spec.system.dim
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        prop, mass = _entrywise_sum(
            spec, lambda l, w: evolution_coefficient(l, w, t)
        )
        want_state = np.array(
            [sum(prop[r, s] * phi[s] for s in range(dim)) for r in range(dim)]
        )
        state_mass = np.array(
            [sum(mass[r, s] * abs(phi[s]) for s in range(dim)) for r in range(dim)]
        )
        _assert_close(evolve_state(spec, phi, t), want_state, state_mass, name)
        if t < 0.0:
            assert not np.any(greens_time(spec, t)), name
        else:
            _assert_close(greens_time(spec, t), prop, mass, name)


@pytest.mark.parametrize("w", [0.5 + 0.2j, -1.5 + 0.0j, 3.0 - 0.1j])
def test_greens_freq_matches_entrywise_reference(kernel_spectra, w):
    # G(w) = sum_{j,n} sum_{l<=n} i / (w - omega_j)^(l+1) f_{j,n-l} d_{j,n}^H
    for name, spec in kernel_spectra.items():
        want, mass = _entrywise_sum(spec, lambda l, pole: 1j / (w - pole) ** (l + 1))
        _assert_close(greens_freq(spec, w), want, mass, name)


# --- Green's functions ----------------------------------------------------------

def test_greens_time_retardation_and_identity(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    assert np.max(np.abs(greens_time(spec, -1.0))) == 0.0
    assert np.max(np.abs(greens_time(spec, 0.0) - np.eye(4))) <= 1e-9


def test_greens_time_matches_evolve_state(kernel_spectra):
    # both share the Jordan-basis propagator, so check each against the
    # matrix exponential of the operator itself, on a grid over [0, 5]
    rng = np.random.default_rng(5)
    times = np.linspace(0.0, 5.0, 21)
    for name, spec in kernel_spectra.items():
        h = evolution_operator(spec.system)
        phi = rng.standard_normal(spec.system.dim) + 0j
        greens = greens_time(spec, times)
        states = evolve_state(spec, phi, times)
        for t, g, got in zip(times, greens, states):
            prop = scipy.linalg.expm(-1j * h * t)
            assert np.max(np.abs(g - prop)) <= 1e-10 * max(1.0, np.max(np.abs(prop))), name
            want = prop @ phi
            assert np.linalg.norm(got - want) <= 1e-10 * max(1.0, np.linalg.norm(want)), name


@pytest.mark.parametrize("name", ["single-critical", "quartic-jb4"])
@pytest.mark.parametrize("t", [1e3, 2e3])
def test_log_space_branch_matches_basis_vector_evolution(catalog_entries, name, t):
    # at |t| >= 1e3 the kernel takes the log-space coefficients; on a
    # slowly damped critical system (eigenvalue -0.05i, scaled from the
    # catalog) the states stay finite and nonzero there and must match the
    # chain-by-chain evolution of each basis vector, up to rounding of
    # the size the propagator's norm sets
    spec = compute_spectrum(scale_system(catalog_entries[name].system, 0.05))
    scale = np.linalg.norm(greens_time(spec, t), 2)
    for b in spec.blocks:
        for n in range(b.size):
            want = evolve_basis_vector(b, n, t)
            got = evolve_state(spec, b.chain[n], t)
            assert np.all(np.isfinite(got)) and np.linalg.norm(want) > 0.0
            bound = 1e-12 * scale * np.linalg.norm(b.chain[n])
            assert np.linalg.norm(got - want) <= bound


def test_greens_freq_solves_resolvent_equation(catalog_spectra):
    rng = np.random.default_rng(6)
    for name, spec in catalog_spectra.items():
        h = evolution_operator(spec.system)
        dim = spec.system.dim
        for _ in range(5):
            w = rng.standard_normal() + 1j * rng.standard_normal()
            g = greens_freq(spec, w)
            defect = np.linalg.norm((h - w * np.eye(dim)) @ g + 1j * np.eye(dim))
            assert defect <= 1e-9, name
            # direct resolvent oracle
            oracle = -1j * np.linalg.inv(h - w * np.eye(dim))
            assert np.max(np.abs(g - oracle)) <= 1e-8, name


def test_greens_freq_decay_at_infinity(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    n1 = np.linalg.norm(greens_freq(spec, 1e3j), 2)
    n2 = np.linalg.norm(greens_freq(spec, 1e4j), 2)
    assert n1 <= 2e-3
    assert n2 / n1 == pytest.approx(0.1, rel=0.05)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [1.2e77, 1e154, 1e300, -1e300, 1e300j])
def test_greens_freq_far_from_the_poles_is_i_over_omega(catalog_spectra, w):
    # G(omega) = i I / omega + O(|omega|^-2); the gap's power
    # (omega - omega_k)^(l+1) overflows from |omega| ~ 1e77 on at l = 3,
    # where the power of its reciprocal only underflows
    spec = catalog_spectra["quartic-jb4"]
    want = 1j * np.eye(4) / w
    assert np.max(np.abs(greens_freq(spec, w) - want)) <= 1e-12 * abs(1 / w)
    grid = greens_freq(spec, [w, 1.0])
    assert np.array_equal(grid[0], greens_freq(spec, w))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("w", [complex(1.7e308, 1.7e308), complex(-1.7e308, 1e308)])
def test_greens_freq_takes_omega_whose_modulus_overflows(catalog_spectra, w):
    # |omega| overflows but omega is finite: the resolvent is below the
    # smallest normal float, not an OverflowError from |omega| or a claim
    # that omega is not finite
    spec = catalog_spectra["quartic-jb4"]
    g = greens_freq(spec, w)
    assert np.isfinite(g).all()
    assert np.max(np.abs(g)) <= np.finfo(float).tiny
    assert np.array_equal(greens_freq(spec, [w, 1.0])[0], g)


@pytest.mark.filterwarnings("error")
def test_greens_time_names_a_time_whose_value_overflows():
    # negative damping: the mode grows like e^{t/4}, and G(1e4) overflows;
    # greens_time names the time as evolve_state does, with no NaN matrix
    with pytest.warns(UserWarning):
        sys = build_system([[1.0]], [[-0.5]])
    spec = compute_spectrum(sys)
    assert np.isfinite(greens_time(spec, 10.0)).all()
    with pytest.raises(ArgumentError, match="t=10000"):
        greens_time(spec, 1e4)
    with pytest.raises(ArgumentError, match="t=10000"):
        greens_time(spec, [0.0, 10.0, 1e4])
    with pytest.raises(ArgumentError, match="t=10000"):
        evolve_state(spec, np.ones(2), 1e4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("t", [1e307, 1e308, 1.7976931348623157e308])
def test_kernels_are_zero_where_the_phase_overflows(t):
    # at t |Re omega| past the float range the phase of e^{-i omega t} is
    # inf, while e^{t Im omega} underflows to 0: a decayed state, not an
    # overflow
    spec = compute_spectrum(well_separated_system(np.random.default_rng(11), 2))
    assert not np.any(greens_time(spec, t))
    assert not np.any(greens_time(spec, [1.0, t])[1])
    assert not np.any(evolve_state(spec, np.ones(4), t))
    assert not np.any(evolve_state(spec, np.ones(4), [0.5, t])[1])


@pytest.mark.filterwarnings("error")
def test_greens_time_at_the_largest_times_is_quiet(catalog_spectra):
    # a decayed Green's function is zero, with no numpy overflow warning
    spec = catalog_spectra["cubic-jb3"]
    assert not np.any(greens_time(spec, 1.7e308))
    assert not np.any(greens_time(spec, [1.0, 1.7e308])[1])


def test_greens_freq_pole_order(catalog_spectra):
    # |G(omega_j + delta)| grows like delta^(-M)
    for name, m in (("quartic-jb4", 4), ("cubic-jb3", 3), ("double-jb2", 2)):
        spec = catalog_spectra[name]
        block = spec.largest_block()
        deltas = np.logspace(-2, -4, 7)
        mags = [
            np.linalg.norm(greens_freq(spec, block.omega + d), 2) for d in deltas
        ]
        slope = np.polyfit(np.log10(deltas), np.log10(mags), 1)[0]
        assert slope == pytest.approx(-m, abs=0.05), name


def test_greens_freq_rejects_pole(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    with pytest.raises(ArgumentError):
        greens_freq(spec, spec.blocks[0].omega)


def test_greens_freq_is_fourier_transform_of_greens_time(catalog_spectra):
    # quadrature of G(t) e^{i w t} over t in [0, 40] on a shifted contour
    spec = catalog_spectra["cubic-jb3"]
    ts = np.linspace(0.0, 40.0, 8001)
    samples = np.array([greens_time(spec, t) for t in ts])
    for w in (0.9 + 0.5j, -1.7 + 0.5j):
        phases = np.exp(1j * w * ts)
        integrand = samples * phases[:, None, None]
        # composite Simpson
        h = ts[1] - ts[0]
        acc = integrand[0] + integrand[-1]
        acc = acc + 4.0 * integrand[1:-1:2].sum(axis=0)
        acc = acc + 2.0 * integrand[2:-1:2].sum(axis=0)
        ft = acc * h / 3.0
        direct = greens_freq(spec, w)
        assert np.max(np.abs(ft - direct)) <= 1e-4


# --- sum rules ------------------------------------------------------------------

def test_sum_rules_catalog(catalog_spectra):
    for name, spec in catalog_spectra.items():
        report = check_sum_rules(spec)
        assert report.passed, (name, report.max_abs)
        assert max(report.max_abs) <= 1e-9


def test_sum_rules_random_diagonalizable():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        sys = well_separated_system(rng, n)
        report = check_sum_rules(compute_spectrum(sys))
        assert report.passed


# --- cancellation experiment -----------------------------------------------------

def test_cancellation_weights_and_difference(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    phi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    t_grid = np.linspace(0.0, 1.5, 7)
    rep = cluster_cancellation_experiment(
        spec.system, e11, 1e-8, phi, t_grid, spectrum=spec
    )
    lam = abs(rep.lam)
    assert lam == pytest.approx((2e-8) ** 0.25, rel=1e-12)
    # per-mode weights blow up like lam^(1-M) while the summed difference
    # stays orders of magnitude below a single mode
    assert rep.max_weight > 0.01 * lam ** (-3)
    assert rep.max_diff <= 1e-4 * rep.max_weight
    assert rep.max_diff <= 5.0 * lam


@pytest.mark.parametrize("name", ["quartic-jb4", "cubic-jb3", "single-critical"])
def test_cancellation_grid_call_equals_scalar_calls(catalog_spectra, name):
    # one call over an eps grid: every per-eps row is the scalar call's
    # result bit for bit, and the Jordan evolution is the scalar call's
    spec = catalog_spectra[name]
    e11 = np.zeros((spec.system.N, spec.system.N))
    e11[0, 0] = 1.0
    rng = np.random.default_rng(4)
    phi = rng.standard_normal(spec.system.dim) + 1j * rng.standard_normal(
        spec.system.dim)
    t_grid = np.linspace(0.0, 1.5, 7)
    grid = np.logspace(-10, -6, 9)
    rep = cluster_cancellation_experiment(
        spec.system, e11, grid, phi, t_grid, spectrum=spec)
    assert rep.lam.shape == (9,)
    assert rep.mode_weights.shape == (9, rep.size)
    assert rep.diffs.shape == (9, t_grid.size)
    for e, eps in enumerate(grid):
        one = cluster_cancellation_experiment(
            spec.system, e11, eps, phi, t_grid, spectrum=spec)
        assert one.size == rep.size
        assert one.lam == rep.lam[e]
        assert np.array_equal(one.mode_weights, rep.mode_weights[e])
        assert np.array_equal(one.diffs, rep.diffs[e])
        assert one.max_weight == rep.max_weight[e]
        assert one.max_diff == rep.max_diff[e]
        assert np.array_equal(one.jordan, rep.jordan)


def test_cancellation_names_the_first_unsplit_eps(catalog_spectra):
    # a grid is checked as a whole, and the error is worded for its first
    # eps at fault, as the scalar call at that eps words it
    spec = catalog_spectra["quartic-jb4"]
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NonDiagonalizableError) as scalar:
        cluster_cancellation_experiment(
            spec.system, e11, 0.0, np.ones(4), [0.0, 1.0], spectrum=spec)
    with pytest.raises(NonDiagonalizableError) as grid:
        cluster_cancellation_experiment(
            spec.system, e11, [1e-8, 0.0, 1e-7, 0.0], np.ones(4), [0.0, 1.0],
            spectrum=spec)
    assert str(grid.value) == str(scalar.value)


def test_cancellation_rejects_empty_eps_grid(catalog_entries, monkeypatch):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before eps was checked")

    monkeypatch.setattr(jordan, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(dynamics, "exact_perturbed_spectrum", no_eigensolve)
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    system = catalog_entries["quartic-jb4"].system
    with pytest.raises(ArgumentError, match="eps must hold"):
        cluster_cancellation_experiment(system, e11, [], np.ones(4), [0.0])
    with pytest.raises(ArgumentError, match="eps must be finite"):
        cluster_cancellation_experiment(system, e11, [1e-8, np.nan],
                                        np.ones(4), [0.0])


def test_cancellation_rejects_unsplit_system(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NonDiagonalizableError):
        cluster_cancellation_experiment(
            spec.system, e11, 0.0, np.ones(4), [0.0, 1.0], spectrum=spec
        )


def test_cancellation_runs_on_the_largest_of_two_critical_blocks(
        catalog_spectra):
    # double-jb2 has two isolated size-2 blocks; the experiment takes
    # critical_block's, and its per-mode weights grow like |lambda|^(1-M)
    spec = catalog_spectra["double-jb2"]
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    rng = np.random.default_rng(0)
    phi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rep = cluster_cancellation_experiment(
        spec.system, e11, np.logspace(-10, -6, 9), phi,
        np.linspace(0.0, 1.5, 7), spectrum=spec)
    assert rep.size == 2
    slope, _ = loglog_slope(np.abs(rep.lam), rep.max_weight)
    assert abs(slope - (1 - rep.size)) <= 0.05


def test_cancellation_rejects_empty_time_grid(catalog_entries, monkeypatch):
    # refused before any eigensolve
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the time grid was checked")

    monkeypatch.setattr(jordan, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(dynamics, "exact_perturbed_spectrum", no_eigensolve)
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ArgumentError, match="t_grid"):
        cluster_cancellation_experiment(
            catalog_entries["quartic-jb4"].system, e11, 1e-6, np.ones(4), []
        )


@pytest.mark.parametrize(
    "dk", [np.eye(3), [[np.nan, 0.0], [0.0, 0.0]], [[np.inf, 0.0], [0.0, 0.0]]],
    ids=["3x3", "nan", "inf"],
)
def test_cancellation_checks_delta_k_before_any_eigensolve(catalog_entries,
                                                           monkeypatch, dk):
    # DK is checked at entry, before any eigensolve, and again by each
    # public stage; it used to be checked only after compute_spectrum
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before DK was checked")

    monkeypatch.setattr(jordan, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(dynamics, "exact_perturbed_spectrum", no_eigensolve)
    with pytest.raises(ArgumentError, match="DK"):
        cluster_cancellation_experiment(
            catalog_entries["quartic-jb4"].system, dk, 1e-6, np.ones(4),
            [0.0, 1.0],
        )


@pytest.mark.parametrize("eps", [np.logspace(-10, -6, 9), 1e-4],
                         ids=["grid", "scalar"])
def test_cancellation_refuses_a_nongeneric_direction_before_solving(
        catalog_spectra, monkeypatch, eps):
    # xi = 0 along mu:1,-1.5,2 on quartic-jb4: the prediction refuses the
    # direction before any perturbed eigensolve.  On the grid the exact
    # eigensolve used to come first and raise NonDiagonalizableError
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("perturbed eigensolve before genericity")

    monkeypatch.setattr(dynamics, "exact_perturbed_spectrum", no_eigensolve)
    spec = catalog_spectra["quartic-jb4"]
    mu = np.array([[1.0, -1.5], [-1.5, 2.0]])
    with pytest.raises(NonGenericPerturbationError):
        cluster_cancellation_experiment(spec.system, mu, eps, np.ones(4),
                                        [0.0, 1.0], spectrum=spec)


def test_cancellation_rejects_the_spectrum_of_another_system(catalog_spectra):
    # the quartic-jb4 spectrum with the cubic-jb3 system used to run and
    # report a size-4 cluster with weights of 4.7e4
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ArgumentError, match="another system"):
        cluster_cancellation_experiment(
            catalog_spectra["cubic-jb3"].system, e11, 1e-6, np.ones(4),
            [0.0, 1.0], spectrum=catalog_spectra["quartic-jb4"],
        )


def test_cancellation_jordan_branch_matches_rk(catalog_spectra):
    # the critical-point branch of the experiment is plain block evolution;
    # for the quartic the block is the whole space, so it must match the
    # direct integrator
    spec = catalog_spectra["quartic-jb4"]
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(4) + 0j
    t_grid = np.array([0.0, 0.5, 1.0])
    rep = cluster_cancellation_experiment(
        spec.system, e11, 1e-7, phi, t_grid, spectrum=spec
    )
    oracle = rk4_evolve(spec.system, phi, t_grid)
    for i in range(t_grid.size):
        assert np.linalg.norm(rep.jordan[i] - oracle[i]) <= 1e-8 * max(
            1.0, np.linalg.norm(oracle[i])
        )
