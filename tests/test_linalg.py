import numpy as np
import pytest
from hypothesis import given, strategies as st

from critmode.linalg import (
    ArgumentError,
    ConvergenceError,
    InconsistentSystemError,
    Tolerances,
    as_grid,
    char_poly,
    companion_roots,
    numeric_rank_and_nullspace,
    polish_root,
    poly_from_roots,
    poly_roots,
    polyder,
    polyval,
    solve_affine,
)

def _quartic_h():
    from critmode.model import build_system, evolution_operator

    return evolution_operator(
        build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    )


# --- oracles -----------------------------------------------------------------

def det_cofactor(m):
    """Cofactor-expansion determinant, the slow-but-sure oracle."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(m[1:], j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_cofactor(minor)
    return total


def char_poly_cofactor(m, npts=None):
    """Characteristic coefficients by cofactor determinants + interpolation."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    pts = 2.3 * np.exp(2j * np.pi * (np.arange(n + 1) + 0.17) / (n + 1))
    vals = [det_cofactor(m - w * np.eye(n)) for w in pts]
    return np.linalg.solve(np.vander(pts, n + 1, increasing=True), vals)


# --- char_poly ---------------------------------------------------------------

def test_char_poly_identity_2x2():
    coeffs = char_poly(np.eye(2))
    assert np.allclose(coeffs, [1.0, -2.0, 1.0], atol=1e-14)


def test_char_poly_quartic_block():
    # (w + i)^4 = w^4 + 4i w^3 - 6 w^2 - 4i w + 1
    coeffs = char_poly(_quartic_h())
    assert np.allclose(coeffs, [1.0, -4.0j, -6.0, 4.0j, 1.0], atol=1e-12)


def test_char_poly_matches_cofactor_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        got = char_poly(m)
        want = char_poly_cofactor(m)
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ArgumentError):
        char_poly(np.ones((2, 3)))


@pytest.mark.filterwarnings("error")
def test_char_poly_names_the_coefficient_that_overflows():
    # K = 1e308 I2, Gamma = I: the entries of H are finite, but the products
    # of the recursion pass the float range; the coefficient of omega^2 is
    # the first one lost, and numpy warns of nothing on the way
    from critmode.jordan import compute_spectrum
    from critmode.model import build_system, evolution_operator

    sys = build_system(1e308 * np.eye(2), np.eye(2))
    with pytest.raises(ConvergenceError, match=r"coefficient of omega\^2 .* "
                       r"overflows float64 \(Faddeev-LeVerrier step 2 of 4\)"):
        char_poly(evolution_operator(sys))
    # compute_spectrum reaches char_poly there (the eigenvalues cluster in
    # pairs) and passes the typed error on
    with pytest.raises(ConvergenceError, match="omega\\^2"):
        compute_spectrum(sys)


def test_char_poly_at_dense_eigenvalues():
    rng = np.random.default_rng(3)
    for dim in (2, 4, 6, 8):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m *= 2.0 / np.linalg.norm(m, 2)
        coeffs = char_poly(m)
        for ev in np.linalg.eigvals(m):
            assert abs(polyval(coeffs, ev)) <= 1e-9 * np.linalg.norm(m, 2) ** dim


# --- poly_roots --------------------------------------------------------------

def test_poly_roots_pure_pair():
    roots = poly_roots(np.array([1.0, 0.0, 1.0]))
    assert np.allclose(sorted(roots, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


def test_poly_roots_cubic_block_polynomial():
    # (w + i)^3 (w + 4i): a triple root and a simple one
    coeffs = poly_from_roots([-1j, -1j, -1j, -4j])
    roots = poly_roots(coeffs)
    near_triple = [r for r in roots if abs(r + 1j) < 1e-3]
    near_single = [r for r in roots if abs(r + 4j) < 1e-8]
    assert len(near_triple) == 3
    assert len(near_single) == 1


def test_poly_roots_degree8_vs_companion_oracle():
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    got = np.sort_complex(poly_roots(coeffs))
    want = np.sort_complex(companion_roots(coeffs))
    assert np.max(np.abs(got - want)) <= 1e-8


def test_poly_roots_are_the_sorted_companion_roots():
    from critmode.design import catalog_entry
    from critmode.linalg import DEFAULT_TOL, _roots_acceptable
    from critmode.model import build_system, evolution_operator

    def sorted_companion_roots(coeffs):
        roots = companion_roots(coeffs)
        return roots[np.lexsort((roots.imag, roots.real))]

    # the 4-fold root of quartic-jb4 at K, and single-critical at
    # K + 1e-6 e11, split by about 1e-3: the companion roots come back bit
    # for bit, sorted, and pass the residual check
    sys = catalog_entry("single-critical").system
    dk = np.zeros((sys.N, sys.N))
    dk[0, 0] = 1e-6
    for h in (_quartic_h(), evolution_operator(build_system(sys.K + dk, sys.Gamma))):
        coeffs = char_poly(h)
        got = poly_roots(coeffs)
        assert np.array_equal(got, sorted_companion_roots(coeffs))
        assert _roots_acceptable(coeffs, got, DEFAULT_TOL)


def test_poly_roots_zero_polynomial_rejected():
    with pytest.raises(ArgumentError):
        poly_roots(np.zeros(4))
    with pytest.raises(ArgumentError):
        poly_roots(np.array([2.0]))


@given(
    st.lists(
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=12,
    )
)
def test_poly_roots_round_trip(raw):
    # Enforce separation so the multiset is recoverable at cluster_tol.
    roots = []
    for z in raw:
        if all(abs(z - r) > 0.15 for r in roots):
            roots.append(z)
    coeffs = poly_from_roots(roots)
    got = poly_roots(coeffs)
    assert got.size == len(roots)
    for r in roots:
        assert np.min(np.abs(got - r)) <= 1e-6


def test_poly_roots_double_root_within_cluster_tol():
    coeffs = poly_from_roots([0.7 + 0.2j, 0.7 + 0.2j, -1.5j])
    got = poly_roots(coeffs)
    assert np.sum(np.abs(got - (0.7 + 0.2j)) < 1e-6) == 2



# --- polish_root -------------------------------------------------------------

def _newton_reference(coeffs, z0, m):
    """Newton on p^(m-1) with p^(m-1) and p^(m) from two polyval calls,
    stopping only on a step within 10 eps (1 + |z|): (z, steps taken)."""
    c = np.asarray(coeffs, dtype=complex)
    for _ in range(m - 1):
        c = polyder(c)
    dc = polyder(c)
    z = complex(z0)
    for n in range(1, 51):
        step = complex(polyval(c, z)) / complex(polyval(dc, z))
        z -= step
        if abs(step) <= 10.0 * np.finfo(float).eps * (1.0 + abs(z)):
            return z, n
    return z, 50


def _catalog_clusters(eps):
    """(name, coeffs, centre, m) of every root cluster compute_spectrum
    polishes for the catalog at K + eps e11."""
    from critmode.design import catalog
    from critmode.jordan import _linkage_radius, _single_linkage
    from critmode.linalg import DEFAULT_TOL
    from critmode.model import build_system, evolution_operator

    for entry in catalog():
        dk = np.zeros((entry.system.N,) * 2)
        dk[0, 0] = eps
        h = evolution_operator(build_system(entry.system.K + dk,
                                            entry.system.Gamma))
        coeffs = char_poly(h)
        roots = poly_roots(coeffs)
        for idx in _single_linkage(roots, _linkage_radius(DEFAULT_TOL, roots)):
            if len(idx) > 1:
                yield entry.name, coeffs, complex(np.mean(roots[idx])), len(idx)


@pytest.mark.parametrize("eps", [0.0, 1e-1, 1e-2, 1e-4, 1e-6, 1e-10, -1e-6])
def test_polish_root_keeps_the_bits_of_two_polyval_newton(eps):
    # one Horner pass over the two coefficient columns gives the bits of
    # two polyval calls: wherever the reference converges, the polish
    # lands on its very bits
    for name, coeffs, centre, m in _catalog_clusters(eps):
        want, steps = _newton_reference(coeffs, centre, m)
        if steps < 50:
            assert polish_root(coeffs, centre, m) == want, name


def test_polish_root_stops_when_steps_stop_shrinking(monkeypatch):
    # crossed-pair at K + 0.01 e11 keeps a double root at -i; rounding
    # keeps every Newton step near 9e-14, above 10 eps (1 + |z|), so the
    # step-size test alone runs all 50 steps (100 polyval calls)
    import critmode.linalg as linalg
    from critmode.design import catalog_system
    from critmode.jordan import compute_spectrum
    from critmode.model import build_system

    base = catalog_system("crossed-pair")
    system = build_system(base.K + np.diag([0.01, 0.0]), base.Gamma)
    (name, coeffs, centre, m), = [
        c for c in _catalog_clusters(0.01) if c[0] == "crossed-pair"]
    assert _newton_reference(coeffs, centre, m)[1] == 50
    passes = []
    monkeypatch.setattr(linalg, "polyval",
                        lambda c, z: passes.append(1) or polyval(c, z))
    omega = polish_root(coeffs, centre, m)
    assert len(passes) <= 4
    assert abs(omega + 1j) <= 1e-13
    monkeypatch.undo()
    spectrum = compute_spectrum(system)
    assert spectrum.verification["pass"]
    assert [b.omega for b in spectrum.blocks if b.size == 2] == [omega]


# --- rank / nullspace --------------------------------------------------------

def test_rank_zero_matrix():
    rank, null = numeric_rank_and_nullspace(np.zeros((3, 3)))
    assert rank == 0
    assert null.shape == (3, 3)
    assert np.allclose(null.conj().T @ null, np.eye(3), atol=1e-12)


def test_rank_quartic_shifted_operator():
    h = _quartic_h()
    rank, null = numeric_rank_and_nullspace(h + 1j * np.eye(4))
    assert rank == 3
    assert null.shape[1] == 1
    v = null[:, 0]
    direction = np.array([1.0, 1.0, -1.0, -1.0]) / 2.0
    overlap = abs(np.vdot(direction, v))
    assert overlap > 1.0 - 1e-10


def test_rank_constructed_rank2():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    m = u @ v.conj().T
    rank, null = numeric_rank_and_nullspace(m)
    assert rank == 2
    assert np.linalg.norm(m @ null) <= 1e-9 * np.linalg.norm(m, 2)


@given(st.integers(2, 6), st.integers(0, 6), st.integers(0, 2**31 - 1))
def test_rank_plus_nullity_is_dimension(dim, deficiency, seed):
    rng = np.random.default_rng(seed)
    r = max(0, dim - deficiency)
    u = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    v = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    m = u @ v.conj().T if r else np.zeros((dim, dim), dtype=complex)
    rank, null = numeric_rank_and_nullspace(m)
    assert rank + null.shape[1] == dim
    assert rank == r


# --- solve_affine ------------------------------------------------------------

def test_solve_affine_identity():
    b = np.array([1.0, 2.0, 3.0j])
    x, null = solve_affine(np.eye(3), b)
    assert np.allclose(x, b, atol=1e-14)
    assert null.shape[1] == 0


def test_solve_affine_quartic_chain_step():
    # (H + i) f1 = f0 reproduces the second chain vector up to the
    # eigenvector direction.
    h = _quartic_h()
    a = h + 1j * np.eye(4)
    s2 = np.sqrt(2.0)
    f0 = s2 * 1j * np.array([1.0, 1.0, -1.0, -1.0])
    f1 = s2 / 2.0 * np.array([-1.0, 1.0, 3.0, 1.0])
    x, null = solve_affine(a, f0)
    assert np.linalg.norm(a @ x - f0) <= 1e-9 * (np.linalg.norm(a, 2) + 1.0)
    # x - f1 must lie along the nullspace (the f0 direction)
    d = x - f1
    proj = null @ (null.conj().T @ d)
    assert np.linalg.norm(d - proj) <= 1e-9


def test_solve_affine_inconsistent_raises():
    a = np.zeros((3, 3), dtype=complex)
    a[0, 0] = 1.0
    with pytest.raises(InconsistentSystemError):
        solve_affine(a, np.array([0.0, 1.0, 0.0]))


def test_solve_affine_random_consistent_systems():
    # the documented residual bound, exercised in bulk
    rng = np.random.default_rng(17)
    tol = Tolerances()
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        u = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        v = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
        a = u @ v.conj().T
        b = a @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        x, _ = solve_affine(a, b, tol)
        resid = np.linalg.norm(a @ x - b)
        bound = tol.residual_tol * (
            np.linalg.norm(a, 2) * np.linalg.norm(x) + np.linalg.norm(b)
        )
        assert resid <= max(bound, tol.residual_tol * np.linalg.norm(a, 2))


def test_solve_affine_vs_lstsq_oracle():
    rng = np.random.default_rng(23)
    u = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    a = u @ v.conj().T
    b = a @ rng.standard_normal(4)
    x, _ = solve_affine(a, b)
    want, *_ = np.linalg.lstsq(a, b, rcond=None)
    assert np.allclose(x, want, atol=1e-9)


# --- tolerances --------------------------------------------------------------

def test_tolerances_validation():
    with pytest.raises(ArgumentError):
        Tolerances(rank_tol=0.0)
    with pytest.raises(ArgumentError):
        Tolerances(rank_tol=1e-6, cluster_tol=1e-9)
    t = Tolerances(rank_tol=1e-10, cluster_tol=1e-7, residual_tol=1e-8)
    assert t.cluster_tol == 1e-7


@pytest.mark.parametrize("value", [float("inf"), float("nan"), 0.0, -1e-6])
@pytest.mark.parametrize("name", ["rank_tol", "cluster_tol", "residual_tol"])
def test_tolerances_must_be_finite_and_positive(name, value):
    # an infinite residual_tol would pass every basis, verified or not
    with pytest.raises(ArgumentError, match=name):
        Tolerances(**{name: value})


@pytest.mark.filterwarnings("error")
def test_as_grid_judges_finiteness_by_the_parts():
    # |omega| overflows for this finite value: abs() raised Python's
    # OverflowError on a scalar, and a grid was refused as not finite
    big = complex(1.7e308, 1.7e308)
    grid, scalar, peak = as_grid(big, "omega", complex)
    assert scalar and grid.tolist() == [big] and peak == 1.7e308
    grid, scalar, peak = as_grid([1.0, big], "omega", complex)
    assert not scalar and grid.tolist() == [1.0, big] and peak == 1.7e308
    assert as_grid([-3.0, 2.0], "t", float)[2] == 3.0
    for bad in (complex(1.0, np.nan), complex(np.inf, 0.0), [1.0, complex(1.0, np.nan)],
                [complex(np.nan, 1.0), 2.0], [np.inf]):
        with pytest.raises(ArgumentError, match="must be finite"):
            as_grid(bad, "omega", complex)


_AS_GRID_SCALARS = [0.0, -0.0, 2.5, -1e308, 5e-324, 3, -7, 2**60 + 1, True, False,
                    np.float64(-1.25), np.float64(1.7e308)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("value", _AS_GRID_SCALARS,
                         ids=lambda v: f"{type(v).__name__}({v!r})")
def test_as_grid_scalar_gives_the_bits_of_the_array_route(value, dtype):
    # a real Python scalar skips np.asarray, so its grid, flag and peak are
    # checked against the array route taken by a 0-d array, a list of one
    # and a 1-D array of the same value
    grid, scalar, peak = as_grid(value, "t", dtype)
    assert scalar and grid.shape == (1,) and grid.dtype == np.dtype(dtype)
    assert type(peak) is float
    zero_d = np.asarray(value, dtype=dtype)
    want, want_scalar, want_peak = as_grid(zero_d, "t", dtype)
    assert want_scalar
    assert grid.tobytes() == want.tobytes()
    assert np.float64(peak).tobytes() == np.float64(want_peak).tobytes()
    for one in ([value], np.array([value], dtype=dtype)):
        row, row_scalar, row_peak = as_grid(one, "t", dtype)
        assert not row_scalar and row_peak == peak
        assert row.tobytes() == grid.tobytes()
    grid1, _, peak1 = as_grid(np.array([value, value], dtype=dtype), "t", dtype)
    assert grid1[:1].tobytes() == grid.tobytes() and peak1 == peak


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   np.float64("nan"), np.float64("-inf")],
                         ids=repr)
def test_as_grid_scalar_refuses_what_the_array_route_refuses(value, dtype):
    with pytest.raises(ArgumentError) as fast:
        as_grid(value, "t", dtype)
    assert str(fast.value) == f"t must be finite, got {value!r}"
    with pytest.raises(ArgumentError) as array:
        as_grid(np.asarray(value), "t", dtype)
    assert str(array.value) == f"t must be finite, got {np.asarray(value)!r}"
    with pytest.raises(ArgumentError, match="t must be finite"):
        as_grid([value], "t", dtype)
    # a Python int past the float range fails alike on both routes
    for route in (10**400, [10**400]):
        with pytest.raises(OverflowError, match="int too large to convert"):
            as_grid(route, "t", dtype)
