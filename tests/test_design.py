import math

import numpy as np
import pytest

from critmode.design import (
    DesignError,
    catalog,
    catalog_entry,
    catalog_system,
    catalog_to_json,
    cubic_critical,
    cubic_constraint_residuals,
    double2_critical,
    double2_constraint_residuals,
    quartic_critical,
    quartic_constraint_residuals,
    scale_system,
)
from critmode.jordan import compute_spectrum
from critmode.linalg import (
    ArgumentError,
    char_poly,
    numeric_rank_and_nullspace,
    poly_from_roots,
)
from critmode.model import build_system, evolution_operator, metric
from critmode.perturb import xi_generic, xi_prime

X_REF = math.asinh(-2.0)
Y_REF = 0.5 * math.log(5.0)


def charpoly_deviation(sys, roots):
    got = char_poly(evolution_operator(sys))
    return float(np.max(np.abs(got - poly_from_roots(roots))))


# --- quartic family -----------------------------------------------------------

def test_quartic_reference_point():
    sys = quartic_critical(X_REF, Y_REF)
    assert np.allclose(sys.K, [[5.0, -2.0], [-2.0, 1.0]], atol=1e-12)
    assert np.allclose(sys.Gamma, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)


def test_quartic_origin_is_crossed_pair():
    sys = quartic_critical(0.0, 0.0)
    assert np.allclose(sys.K, np.eye(2), atol=1e-14)
    assert np.allclose(sys.Gamma, 2.0 * np.eye(2), atol=1e-14)


def test_quartic_family_property():
    rng = np.random.default_rng(41)
    count = 0
    while count < 50:
        x, y = rng.uniform(-1.5, 1.5, 2)
        if math.cosh(x) * math.cosh(y) > 3.0:
            continue
        count += 1
        sys = quartic_critical(x, y)
        assert charpoly_deviation(sys, [-1j] * 4) <= 1e-10
        assert np.max(quartic_constraint_residuals(sys)) <= 1e-12


def test_quartic_outside_region_warns():
    with pytest.warns(UserWarning):
        quartic_critical(2.5, 0.0)


@pytest.mark.parametrize("x", [4.0, 5.0, 6.0])
def test_quartic_outside_region_same_outcome_at_any_scale(x):
    # K entries grow like e^(2x) (about 1e4 at x = 5); the constraints are
    # judged relative to their terms, so rounding does not decide between a
    # system and a DesignError
    with pytest.warns(UserWarning):
        sys = quartic_critical(x, x)
    assert np.min(np.linalg.eigvalsh(sys.Gamma)) < 0.0
    k_max = float(np.max(np.abs(sys.K)))
    assert np.max(quartic_constraint_residuals(sys)) <= 1e-14 * k_max**2


def test_quartic_geometric_multiplicity():
    # one eigenvector away from the origin, two at x = y = 0
    sys = quartic_critical(X_REF, Y_REF)
    h = evolution_operator(sys)
    _, null = numeric_rank_and_nullspace(h + 1j * np.eye(4))
    assert null.shape[1] == 1
    crossed = quartic_critical(0.0, 0.0)
    _, null = numeric_rank_and_nullspace(evolution_operator(crossed) + 1j * np.eye(4))
    assert null.shape[1] == 2


# --- cubic family ---------------------------------------------------------------

def test_cubic_reference_point():
    sys = cubic_critical(4.0, 6.0)
    assert np.allclose(sys.K, np.array([[41.0, 8.0], [8.0, 4.0]]) / 5.0, atol=1e-12)
    assert np.allclose(sys.Gamma, [[6.0, 0.0], [0.0, 1.0]], atol=1e-12)


def test_cubic_rejects_b_equal_one():
    with pytest.raises(ArgumentError):
        cubic_critical(1.0, 3.0)


def test_cubic_family_property():
    rng = np.random.default_rng(43)
    count = 0
    while count < 30:
        b = float(rng.uniform(0.2, 6.0))
        if abs(b - 1.0) < 0.05:
            continue
        gamma11 = float(rng.uniform(0.3, 6.0))
        try:
            sys = cubic_critical(b, gamma11)
        except DesignError:
            continue
        count += 1
        assert charpoly_deviation(sys, [-1j, -1j, -1j, -1j * b]) <= 1e-10
        assert np.max(cubic_constraint_residuals(sys, b)) <= 1e-12
        assert sys.Gamma[0, 1] == 0.0  # damping eigenbasis


# --- double-block family ----------------------------------------------------------

def test_double2_reference_point():
    sys = double2_critical(4.0 / 3.0)
    assert np.allclose(sys.K, np.array([[61.0, -30.0], [-30.0, 25.0]]) / 9.0,
                       atol=1e-12)
    assert np.allclose(sys.Gamma, [[4.0, 0.0], [0.0, 0.0]], atol=1e-14)


def test_double2_limit_recovers_quartic():
    sys = double2_critical(1e-3)
    assert np.max(np.abs(sys.K - [[5.0, -2.0], [-2.0, 1.0]])) <= 1e-2


def test_double2_family_property():
    rng = np.random.default_rng(47)
    for _ in range(20):
        b = float(rng.uniform(0.05, 2.0))
        sys = double2_critical(b)
        assert charpoly_deviation(sys, [b - 1j, b - 1j, -b - 1j, -b - 1j]) <= 1e-10
        assert np.max(double2_constraint_residuals(sys, b)) <= 1e-12


def test_double2_blocks_for_sampled_b():
    for b in (0.1, 0.5, 1.2, 2.0):
        spec = compute_spectrum(double2_critical(b))
        assert sorted(bb.size for bb in spec.blocks) == [2, 2], b


def test_double2_rejects_nonpositive_b():
    with pytest.raises(ArgumentError):
        double2_critical(0.0)


# --- scaling ----------------------------------------------------------------------

def test_scale_identity():
    sys = catalog_entry("quartic-jb4").system
    same = scale_system(sys, 1.0)
    assert np.allclose(same.K, sys.K)
    assert np.allclose(same.Gamma, sys.Gamma)


def test_scale_moves_block(catalog_spectra):
    sys = catalog_spectra["quartic-jb4"].system
    spec = compute_spectrum(scale_system(sys, 3.0))
    assert [(b.size, complex(np.round(b.omega, 9))) for b in spec.blocks] == [
        (4, -3j)
    ]


def test_scale_rejects_nonpositive():
    sys = catalog_entry("quartic-jb4").system
    with pytest.raises(ArgumentError):
        scale_system(sys, -1.0)


def test_scaled_chains_related_by_phase_space_scaling(catalog_spectra):
    # under (x, p) -> (x, a p) the block subspace maps onto the scaled one;
    # compare spectral projectors after the induced transformation
    a = 3.0
    spec = catalog_spectra["quartic-jb4"]
    sys = spec.system
    scaled = scale_system(sys, a)
    sspec = compute_spectrum(scaled)
    t = np.diag([1.0, 1.0, a, a])

    def projector(sp, block):
        g = metric(sp.system)
        m = block.size
        p = np.zeros((4, 4), dtype=complex)
        for n in range(m):
            p += np.outer(block.chain[n], g @ block.chain[m - 1 - n])
        return p

    p_base = projector(spec, spec.blocks[0])
    p_scaled = projector(sspec, sspec.blocks[0])
    mapped = t @ p_base @ np.linalg.inv(t)
    assert np.max(np.abs(mapped - p_scaled)) <= 1e-9


# --- catalog ------------------------------------------------------------------------

def test_catalog_names_and_structures(catalog_entries, catalog_spectra):
    assert set(catalog_entries) == {
        "single-critical",
        "quartic-jb4",
        "cubic-jb3",
        "double-jb2",
        "crossed-pair",
    }
    for name, entry in catalog_entries.items():
        spec = catalog_spectra[name]
        key = lambda t: (t[0], t[1].real, t[1].imag)
        want = sorted(((m, complex(w)) for w, m in entry.expected_blocks), key=key)
        got = sorted(((b.size, complex(b.omega)) for b in spec.blocks), key=key)
        for (gm, gw), (wm, ww) in zip(got, want):
            assert gm == wm
            assert abs(gw - ww) <= 1e-9


def test_catalog_perturbation_coefficients(catalog_entries, catalog_spectra):
    for name, entry in catalog_entries.items():
        block = catalog_spectra[name].largest_block()
        for case in entry.perturbations:
            assert abs(xi_generic(block, case.delta_k) - case.xi) <= 1e-12, (
                name, case.name,
            )
            if case.xi_prime is not None:
                assert abs(xi_prime(block, case.delta_k) - case.xi_prime) <= 1e-12


def test_catalog_fixture_rows_export():
    entry = catalog_entry("cubic-jb3")
    obj = catalog_to_json(entry)
    assert obj["system"]["N"] == 2
    row = obj["chains"]["0"][0]
    assert row["surd"] == 15
    assert row["phase"] == "e+ipi/4"
    assert row["den"] == 15
    # reconstruct and compare against the in-memory fixture
    back = np.array([r + 1j * i for r, i in row["num"]])
    back = back * np.sqrt(row["surd"]) / row["den"] * np.exp(1j * np.pi / 4)
    assert np.allclose(back, entry.chain_array(0)[0], atol=1e-15)


def test_catalog_entry_matches_catalog():
    entries = catalog()
    assert [e.name for e in entries] == [
        "single-critical", "quartic-jb4", "cubic-jb3", "double-jb2", "crossed-pair",
    ]
    for entry in entries:
        one = catalog_entry(entry.name)
        assert catalog_to_json(one) == catalog_to_json(entry)
        assert one.crossing == entry.crossing
    assert [e.name for e in entries if e.crossing] == ["crossed-pair"]


def test_catalog_system_is_the_entry_system():
    # catalog_system builds the system alone, the same one as the entry's
    for entry in catalog():
        sys = catalog_system(entry.name)
        assert np.array_equal(sys.K, entry.system.K), entry.name
        assert np.array_equal(sys.Gamma, entry.system.Gamma), entry.name
        assert sys.label == entry.system.label == entry.name


def test_catalog_unknown_name():
    # the message is the error's whole text, with no quotes around it
    for lookup in (catalog_entry, catalog_system):
        with pytest.raises(ArgumentError) as info:
            lookup("no-such-entry")
        assert str(info.value) == "no catalog entry named 'no-such-entry'"
