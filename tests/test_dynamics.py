import math

import numpy as np
import pytest
import scipy.linalg

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
from critmode import dynamics
from critmode.design import scale_system
from critmode.jordan import compute_spectrum
from critmode.linalg import ArgumentError
from critmode.model import build_system, evolution_operator

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
     ([0.1, np.nan, 0.2], 1e-4), ([0.1, np.inf], 1e-4)],
    ids=["step-0", "step-negative", "step-nan", "step-inf", "times-nan",
         "times-inf"],
)
def test_rk4_rejects_bad_step_and_times(catalog_spectra, times, step):
    # step 0 used to divide by zero, a negative step took one RK4 step
    # across the whole span, and a NaN time repeated the previous state
    sys = catalog_spectra["single-critical"].system
    with pytest.raises(ArgumentError):
        rk4_evolve(sys, np.array([1.0, 0.0]), times, step=step)


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

    monkeypatch.setattr(dynamics, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(dynamics, "exact_perturbed_spectrum", no_eigensolve)
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ArgumentError, match="state has non-finite entries"):
        cluster_cancellation_experiment(spec.system, e11, 1e-6, phi, [0.0, 1.0])


def test_grid_call_equals_scalar_calls(kernel_spectra):
    # a scalar call is a grid of one: every grid row must be the scalar
    # call's result bit for bit, including rows on the log-space branch
    rng = np.random.default_rng(12)
    times = np.array([-1.0, 0.0, 0.3, 1.7, 5.0, 1e3, 2e3])
    freqs = np.array([0.5 + 0.2j, -1.5 + 0.0j, 3.0 - 0.1j])
    for name, spec in kernel_spectra.items():
        dim = spec.system.dim
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        states = evolve_state(spec, phi, times)
        greens = greens_time(spec, times)
        resolvents = greens_freq(spec, freqs)
        assert states.shape == (times.size, dim), name
        assert greens.shape == (times.size, dim, dim), name
        for i, t in enumerate(times):
            assert np.array_equal(states[i], evolve_state(spec, phi, t)), name
            assert np.array_equal(greens[i], greens_time(spec, t)), name
        for i, w in enumerate(freqs):
            assert np.array_equal(resolvents[i], greens_freq(spec, w)), name


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


def test_cancellation_rejects_unsplit_system(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NonDiagonalizableError):
        cluster_cancellation_experiment(
            spec.system, e11, 0.0, np.ones(4), [0.0, 1.0], spectrum=spec
        )


def test_cancellation_needs_single_nontrivial_block(catalog_spectra):
    spec = catalog_spectra["double-jb2"]  # two nontrivial blocks
    with pytest.raises(ArgumentError):
        cluster_cancellation_experiment(
            spec.system, np.eye(2), 1e-8, np.ones(4), [0.0], spectrum=spec
        )


def test_cancellation_rejects_empty_time_grid(catalog_entries, monkeypatch):
    # refused before any eigensolve
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("eigensolve before the time grid was checked")

    monkeypatch.setattr(dynamics, "compute_spectrum", no_eigensolve)
    monkeypatch.setattr(dynamics, "exact_perturbed_spectrum", no_eigensolve)
    e11 = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ArgumentError, match="t_grid"):
        cluster_cancellation_experiment(
            catalog_entries["quartic-jb4"].system, e11, 1e-6, np.ones(4), []
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
