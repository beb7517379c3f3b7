import numpy as np
import pytest

from critmode.jordan import (
    ChainError,
    CrossingError,
    DegenerateChainError,
    PairingError,
    VerificationError,
    _axis_tol,
    _basis_matrices,
    _eigenstructure,
    _kernel_stack,
    _unmirrored_groups,
    block_sizes_at,
    biorthogonalize_crossing,
    build_chain,
    chain_from_top,
    compute_spectrum,
    conjugate_chain,
    normalize_block,
    spectrum_to_json,
    verify_representations,
    verify_spectrum,
)
from critmode.design import catalog
from critmode.linalg import (
    DEFAULT_TOL,
    ArgumentError,
    ConvergenceError,
    Tolerances,
    char_poly,
    poly_roots,
)
from critmode.model import bilinear, build_system, evolution_operator

from conftest import well_separated_system


# --- structure detection -----------------------------------------------------

def test_structure_quartic(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    assert [(b.label, b.size) for b in spec.blocks] == [(0, 4)]
    assert abs(spec.blocks[0].omega + 1j) < 1e-9


def test_structure_cubic(catalog_spectra):
    spec = catalog_spectra["cubic-jb3"]
    got = sorted((b.size, complex(np.round(b.omega, 6))) for b in spec.blocks)
    assert got == [(1, -4j), (3, -1j)]


def test_structure_double(catalog_spectra):
    spec = catalog_spectra["double-jb2"]
    got = sorted(
        (b.size, round(b.omega.real, 6), round(b.omega.imag, 6))
        for b in spec.blocks
    )
    assert got == [(2, round(-4.0 / 3.0, 6), -1.0), (2, round(4.0 / 3.0, 6), -1.0)]
    labels = sorted(b.label for b in spec.blocks)
    assert labels == [-1, 1]


def test_structure_undamped_diagonal():
    sys = build_system(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    spec = compute_spectrum(sys)
    assert sorted(b.size for b in spec.blocks) == [1, 1, 1, 1]
    got = np.sort_complex(np.array([b.omega for b in spec.blocks]))
    assert np.allclose(got, [-2.0, -1.0, 1.0, 2.0], atol=1e-9)


def test_block_sizes_rank_sequence():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    h = evolution_operator(sys)
    assert block_sizes_at(h, -1j, 4) == [4]
    crossed = build_system(np.eye(2), 2.0 * np.eye(2))
    assert block_sizes_at(evolution_operator(crossed), -1j, 4) == [2, 2]


def test_block_structure_vs_dense_eigensolver_oracle():
    # random diagonalizable systems: every block simple, sizes sum to 2N,
    # eigenvalues match an independent dense solve
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        sys = well_separated_system(rng, n)
        spec = compute_spectrum(sys)
        assert all(b.size == 1 for b in spec.blocks)
        assert sum(b.size for b in spec.blocks) == 2 * n
        got = np.sort_complex(np.array([b.omega for b in spec.blocks]))
        want = np.sort_complex(np.linalg.eigvals(evolution_operator(sys)))
        assert np.max(np.abs(got - want)) <= 1e-7


# --- chains ------------------------------------------------------------------

def test_build_chain_single_critical():
    sys = build_system([[1.0]], [[2.0]])
    h = evolution_operator(sys)
    [chain] = build_chain(h, -1j, [2])
    # f0 along (1,-1); f1 = c0 (-i, 0) + c1 (1, -1)
    f0, f1 = chain
    assert abs(abs(np.vdot(f0, [1, -1]) / np.linalg.norm(f0) / np.sqrt(2)) - 1) < 1e-10
    a = h + 1j * np.eye(2)
    assert np.linalg.norm(a @ f1 - f0) < 1e-10


def test_build_chain_simple_block():
    sys = build_system(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    h = evolution_operator(sys)
    [chain] = build_chain(h, 1.0, [1])
    assert len(chain) == 1
    assert np.linalg.norm((h - np.eye(4)) @ chain[0]) < 1e-10


def test_build_chain_quartic_spans_phase_space():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    [chain] = build_chain(evolution_operator(sys), -1j, [4])
    assert len(chain) == 4
    assert np.linalg.matrix_rank(np.array(chain)) == 4


def test_build_chain_wrong_size_rejected():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    h = evolution_operator(sys)
    with pytest.raises(ChainError):
        build_chain(h, -1j, [3])  # chain extends further: size too small
    with pytest.raises(ChainError):
        build_chain(h, 5.0, [2])  # not an eigenvalue


def test_build_chain_crossing_needs_the_sizes_its_kernels_fit(catalog_entries):
    # crossed-pair at -i: nullities of (H + i)^k are 2, 4, 4, which two
    # blocks of size 2 leave and no other size list does
    h = evolution_operator(catalog_entries["crossed-pair"].system)
    a = h + 1j * np.eye(4)
    chains = build_chain(h, -1j, [2, 2])
    assert [len(c) for c in chains] == [2, 2]
    assert np.linalg.matrix_rank(np.concatenate(chains)) == 4
    for f0, f1 in chains:
        assert np.linalg.norm(a @ f1 - f0) <= 1e-10
        assert np.linalg.norm(a @ f0) <= 1e-10
    for sizes in ([1], [2], [2, 1]):
        with pytest.raises(ChainError, match=r"are \[2, 4"):
            build_chain(h, -1j, sizes)


def _kernel_inputs():
    """(id, system): the catalog at K + eps e11 and random systems, N = 2, 5, 8."""
    for entry in catalog():
        base = entry.system
        dk = np.zeros((base.N, base.N))
        dk[0, 0] = 1.0
        for eps in (0.0, 1e-6):
            yield f"{entry.name}@{eps:g}", build_system(base.K + eps * dk, base.Gamma)
    for n in (2, 5, 8):
        for seed in (0, 1):
            yield f"random-N{n}-seed{seed}", well_separated_system(
                np.random.default_rng(seed), n
            )


KERNEL_INPUTS = dict(_kernel_inputs())


def _groups(h):
    """The (omega, sizes) groups compute_spectrum finds for h."""
    coeffs = char_poly(h)
    roots = poly_roots(coeffs, DEFAULT_TOL)
    return _eigenstructure(h, coeffs, roots, DEFAULT_TOL)[0]


def _sequences(h, omegas, levels):
    """_kernel_stack's levels gathered into one [(A^k, ker A^k), ...] per omega."""
    out = [[] for _ in omegas]
    for level in _kernel_stack(h, omegas, levels, DEFAULT_TOL):
        for j, ak, kernel in level:
            out[j].append((ak, kernel))
    return out


def _power_kernels(a, levels, tol):
    """Reference: (A^k, ker A^k), k = 1 .. levels, one SVD per power."""
    out, ak = [], a
    for k in range(1, levels + 1):
        _, s, vh = np.linalg.svd(ak)
        if k == 1:
            base = max(float(s[0]), 1e-6)
        out.append((ak, vh[int(np.sum(s > tol.rank_tol * base**k)):].conj().T))
        ak = ak @ a
    return out


@pytest.mark.parametrize("name", list(KERNEL_INPUTS))
def test_kernel_stack_matches_single_omega_calls(name):
    # one stacked SVD per level over every group (with mixed level counts,
    # so groups drop out of the stack at different levels) gives what one
    # call per omega and the one-matrix-at-a-time loop give
    h = evolution_operator(KERNEL_INPUTS[name])
    groups = _groups(h)
    omegas = [w for w, _ in groups]
    levels = [max(sizes) + 1 + j % 2 for j, (_, sizes) in enumerate(groups)]
    stacked = _sequences(h, omegas, levels)
    assert [len(seq) for seq in stacked] == levels
    for w, lv, seq in zip(omegas, levels, stacked):
        [single] = _sequences(h, [w], [lv])
        ref = _power_kernels(h - w * np.eye(h.shape[0]), lv, DEFAULT_TOL)
        for other in (single, ref):
            assert [k.shape[1] for _, k in seq] == [k.shape[1] for _, k in other]
            for (ak, ker), (ak_o, ker_o) in zip(seq, other):
                scale = np.linalg.norm(ak_o)
                assert np.linalg.norm(ak - ak_o) <= 1e-14 * scale
                proj = ker @ ker.conj().T - ker_o @ ker_o.conj().T
                assert np.linalg.norm(proj) <= 1e-14 * max(1.0, ker.shape[1])


@pytest.mark.parametrize("name", list(KERNEL_INPUTS))
def test_build_chain_with_and_without_kernels_agree(name):
    h = evolution_operator(KERNEL_INPUTS[name])
    groups = _groups(h)
    sequences = _sequences(h, [w for w, _ in groups], [max(s) + 1 for _, s in groups])
    for (w, sizes), seq in zip(groups, sequences):
        try:
            own = build_chain(h, w, sizes)
        except ChainError as exc:
            with pytest.raises(ChainError) as given:
                build_chain(h, w, sizes, kernels=seq)
            assert str(given.value) == str(exc)
            continue
        # the powers from max(sizes) on are never read, so compute_spectrum
        # may drop them
        unread = [
            (ak if k < max(sizes) else None, ker)
            for k, (ak, ker) in enumerate(seq, start=1)
        ]
        for kernels in (seq, unread):
            given = build_chain(h, w, sizes, kernels=kernels)
            assert len(given) == len(own)
            for c1, c2 in zip(own, given):
                assert np.array_equal(np.array(c1), np.array(c2))
    with pytest.raises(ArgumentError, match="kernel levels"):
        build_chain(h, groups[0][0], [1], kernels=sequences[0][:1])


def test_compute_spectrum_svd_count_does_not_grow_with_n(monkeypatch):
    # one stacked SVD per kernel level, |g|_2 once and |H|_2 once: the
    # parent made 3 SVDs per unmirrored eigenvalue plus one
    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    original = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    monkeypatch.setattr(impl, "svd", counting)  # np.linalg.norm(x, 2)
    counts = []
    for n in (2, 8):
        sys = well_separated_system(np.random.default_rng(0), n)
        calls.clear()
        compute_spectrum(sys)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_simple_group_chain_error_is_unchanged():
    # a rank_tol of 1e-3 counts a second singular value of (H - omega)^2 as
    # null at some simple eigenvalues of this well-separated system (their
    # relative values lie near 1e-4) but not at the first one built; the
    # stacked kernels must leave that error, and which group raises first,
    # as build_chain alone reports them group by group
    tol = Tolerances(rank_tol=1e-3, cluster_tol=1e-3)
    sys = well_separated_system(np.random.default_rng(1), 4)
    h = evolution_operator(sys)
    coeffs = char_poly(h)
    groups = _eigenstructure(h, coeffs, poly_roots(coeffs, tol), tol)[0]
    kept = _unmirrored_groups(groups, _axis_tol(tol, [w for w, _ in groups]))
    assert all(sizes == [1] for _, sizes in kept)
    failed = []
    for i, (w, sizes) in enumerate(kept):
        try:
            build_chain(h, w, sizes, tol)
        except ChainError as exc:
            failed.append((i, str(exc)))
    assert failed and failed[0][0] > 0
    with pytest.raises(ChainError) as raised:
        compute_spectrum(sys, tol)
    assert str(raised.value) == failed[0][1]


# --- normalization -----------------------------------------------------------

def test_normalize_block_single_critical_ledger():
    # raw chain with c0 = 1, c1 = 0: normalization must pick c1 = i and land
    # on f1 = (0, -i)
    sys = build_system([[1.0]], [[2.0]])
    raw = [np.array([1.0, -1.0], dtype=complex), np.array([-1.0j, 0.0])]
    chain, ledger = normalize_block(raw, sys)
    assert np.allclose(chain[0], [1.0, -1.0], atol=1e-14)
    assert np.allclose(chain[1], [0.0, -1.0j], atol=1e-14)
    assert abs(ledger.c[0] - 1.0) < 1e-14
    assert abs(ledger.c[1] - 1.0j) < 1e-14
    # pairing diagnostics: A = (0, 1, 0)
    assert np.allclose(ledger.A, [0.0, 1.0, 0.0], atol=1e-14)


def test_normalize_block_m1_unit_norm():
    sys = build_system(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    h = evolution_operator(sys)
    [raw] = build_chain(h, 1.0, [1])
    chain, _ = normalize_block([3.7 * raw[0]], sys)
    assert abs(bilinear(sys, chain[0], chain[0]) - 1.0) < 1e-12


def test_normalize_block_scrambled_quartic_recovers_fixture():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    s2 = np.sqrt(2.0)
    fix = [
        s2 * 1j * np.array([1, 1, -1, -1]),
        s2 / 2 * np.array([-1, 1, 3, 1]),
        s2 / 8 * 1j * np.array([-1, -1, 5, -3]),
        s2 / 16 * np.array([-1, 1, -1, -3]),
    ]
    # apply an admissible chain transform with random coefficients
    rng = np.random.default_rng(4)
    c = np.array([0.7 - 0.3j, 1.1j, -0.4, 0.25 + 0.5j])
    scrambled = [
        sum(c[k] * fix[n - k] for k in range(n + 1)) for n in range(4)
    ]
    chain, _ = normalize_block(scrambled, sys)
    diff = min(
        max(np.linalg.norm(sgn * chain[n] - fix[n]) for n in range(4))
        for sgn in (1, -1)
    )
    assert diff <= 1e-10


@pytest.mark.parametrize("name", ["cubic-jb3", "single-critical"])
def test_sign_fix_ignores_rounding_ties(catalog_entries, name):
    # f_0 has entries of equal magnitude; a 1e-12 perturbation must not let
    # rounding noise pick another entry and flip the block's sign
    sys = catalog_entries[name].system
    dk = np.zeros((sys.N, sys.N))
    dk[0, 0] = 1.0
    f0 = [
        compute_spectrum(build_system(sys.K + eps * dk, sys.Gamma))
        .largest_block().chain[0]
        for eps in (0.0, 1e-12)
    ]
    assert np.max(np.abs(f0[0] - f0[1])) <= 1e-9


def test_normalize_block_degenerate_rejected():
    sys = build_system(np.eye(2), np.zeros((2, 2)))
    # two vectors with vanishing mutual pairing: not a valid chain
    v = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(DegenerateChainError):
        normalize_block([v, v], sys)


# --- level crossing ----------------------------------------------------------

def crossing_gram_residual(sys, chains):
    worst = 0.0
    for i, ci in enumerate(chains):
        for j, cj in enumerate(chains):
            mi = len(ci)
            for n in range(mi):
                for k in range(len(cj)):
                    want = 1.0 if (i == j and n + k == mi - 1) else 0.0
                    worst = max(
                        worst, abs(bilinear(sys, ci[n], cj[k]) - want)
                    )
    return worst


def test_crossing_two_identical_oscillators(catalog_spectra):
    spec = catalog_spectra["crossed-pair"]
    assert sorted(b.size for b in spec.blocks) == [2, 2]
    assert len(spec.crossing_groups) == 1
    assert spec.crossing_groups[0].L == 2
    chains = [b.chain for b in spec.blocks]
    assert crossing_gram_residual(spec.system, chains) <= 1e-9


def test_crossing_single_block_passthrough():
    sys = build_system([[1.0]], [[2.0]])
    h = evolution_operator(sys)
    out = biorthogonalize_crossing(build_chain(h, -1j, [2]), sys, h, -1j)
    assert len(out) == 1
    chain, _ = out[0]
    assert abs(bilinear(sys, chain[0], chain[1]) - 1.0) <= 1e-12


def test_crossing_random_admissible_remix_round_trip(catalog_spectra):
    # mix a processed group with a random structure-preserving transform,
    # reprocess, and check the pairing invariants come back
    spec = catalog_spectra["crossed-pair"]
    sys = spec.system
    h = evolution_operator(sys)
    b1, b2 = [b for b in spec.blocks if b.size == 2]
    rng = np.random.default_rng(12)

    def mix():
        c = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        n1 = [
            b1.chain[0] * (1 + c[0]) + b2.chain[0] * c[1],
            b1.chain[1] * (1 + c[0]) + b2.chain[1] * c[1]
            + c[2] * b1.chain[0] + c[3] * b2.chain[0],
        ]
        n2 = [
            b2.chain[0] * (1 + c[4]) + b1.chain[0] * c[5],
            b2.chain[1] * (1 + c[4]) + b1.chain[1] * c[5]
            + c[6] * b1.chain[0] + c[7] * b2.chain[0],
        ]
        return [n1, n2]

    for _ in range(5):
        out = biorthogonalize_crossing(mix(), sys, h, -1j)
        chains = [chain for chain, _ in out]
        assert crossing_gram_residual(sys, chains) <= 1e-9
        for chain in chains:
            a = h + 1j * np.eye(4)
            assert np.linalg.norm(a @ chain[1] - chain[0]) <= 1e-9
            assert np.linalg.norm(a @ chain[0]) <= 1e-9


# --- conjugation -------------------------------------------------------------

def test_conjugation_double_block(catalog_spectra):
    spec = catalog_spectra["double-jb2"]
    plus = spec.block(1)
    minus = spec.block(-1)
    want = conjugate_chain(plus.chain)
    assert np.max(np.abs(minus.chain - want)) <= 1e-12
    assert abs(minus.omega + np.conj(plus.omega)) < 1e-12
    # the partner is derived, not normalized: no ledger of its own
    assert minus.ledger is None
    assert np.array_equal(minus.chain, conjugate_chain(plus.chain))


@pytest.mark.parametrize("eps", [0.0, 1e-2, 1e-3, 1e-4, -1e-4])
def test_mirror_pairs_ordered_plus_first(catalog_entries, eps):
    # the pair order must not follow rounding noise in the mirror roots
    sys = catalog_entries["double-jb2"].system
    dk = np.zeros((sys.N, sys.N))
    dk[0, 0] = 1.0
    spec = compute_spectrum(build_system(sys.K + eps * dk, sys.Gamma))
    labels = [b.label for b in spec.blocks]
    for j in labels:
        if j > 0:
            assert labels.index(j) < labels.index(-j), labels
    assert spec.largest_block().label > 0


def test_unmirrored_groups_pairs_or_raises():
    axis, right, left = (-2j, [1]), (1.0 - 1j, [2]), (-1.0 - 1j, [2])
    assert _unmirrored_groups([left, axis, right], 1e-9) == [axis, right]
    for groups in (
        [axis, right],               # no mirror for Re(omega) > 0
        [axis, left],                # a mirror of nothing
        [right, (-1.0 - 1j, [1, 1])],  # mirror with other block sizes
        [right, (-1.1 - 1j, [2])],     # mirror too far from -conj(omega)
    ):
        with pytest.raises(PairingError):
            _unmirrored_groups(groups, 1e-9)


def test_conjugation_quartic_alternation(catalog_spectra):
    # zero-mode block: vectors alternate imaginary/real (lower sign realized)
    b = catalog_spectra["quartic-jb4"].blocks[0]
    assert b.conj_sign == -1
    assert np.max(np.abs(b.chain[0].real)) < 1e-12
    assert np.max(np.abs(b.chain[1].imag)) < 1e-12
    assert np.max(np.abs(b.chain[2].real)) < 1e-12
    assert np.max(np.abs(b.chain[3].imag)) < 1e-12


def test_conjugation_cubic_signs(catalog_spectra):
    spec = catalog_spectra["cubic-jb3"]
    signs = {b.size: b.conj_sign for b in spec.blocks}
    assert signs == {3: -1, 1: 1}


def test_conjugation_simple_undamped_pair():
    sys = build_system([[1.0]], [[0.0]])
    spec = compute_spectrum(sys)
    plus = spec.block(1)
    minus = spec.block(-1)
    want = conjugate_chain(plus.chain)
    assert np.max(np.abs(minus.chain - want)) <= 1e-12


# --- duals, completeness, representations ------------------------------------

def test_global_biorthogonality_catalog(catalog_spectra):
    for name, spec in catalog_spectra.items():
        report = verify_spectrum(spec, strict=False)
        assert report["dual_biorthogonality_residual"] <= 1e-9, name
        assert report["bilinear_gram_residual"] <= 1e-9, name


def test_completeness_on_random_vectors(catalog_spectra):
    rng = np.random.default_rng(8)
    for name, spec in catalog_spectra.items():
        dim = spec.system.dim
        for _ in range(100):
            phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            rec = np.zeros(dim, dtype=complex)
            for b in spec.blocks:
                m = b.size
                for n in range(m):
                    rec += b.chain[n] * bilinear(
                        spec.system, b.chain[m - 1 - n], phi
                    )
            assert np.linalg.norm(rec - phi) <= 1e-9 * np.linalg.norm(phi), name


def test_stored_matrix_form_is_the_block_basis(catalog_spectra):
    # verification and the dynamics kernels read spectrum.matrices, so it
    # must be the basis of the blocks: F, D^H, and duals[l] = N^l D^H (the
    # dual rows moved up l places inside each block, zero past its end)
    for name, spec in catalog_spectra.items():
        f_mat, d_mat = _basis_matrices(spec.blocks)
        dh = d_mat.conj().T
        form = spec.matrices
        assert np.array_equal(form.f, f_mat), name
        assert np.array_equal(form.duals[0], dh), name
        dim = f_mat.shape[1]
        want_j = np.zeros((dim, dim), dtype=complex)
        pos = 0
        for b in spec.blocks:
            for k in range(b.size):
                want_j[pos + k, pos + k] = b.omega
                if k + 1 < b.size:
                    want_j[pos + k, pos + k + 1] = 1.0
                for l in range(1, form.duals.shape[0]):
                    row = form.duals[l, pos + k]
                    if k + l < b.size:
                        assert np.array_equal(row, dh[pos + k + l]), name
                    else:
                        assert not row.any(), name
            pos += b.size
        assert np.array_equal(form.j, want_j), name
        assert np.array_equal(form.omega, np.diag(want_j)), name


def test_representations_catalog(catalog_spectra):
    for name, spec in catalog_spectra.items():
        rep = verify_representations(spec)
        assert rep["max_deviation"] <= 1e-9, name


def test_representation_shapes_m1():
    sys = build_system(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    spec = compute_spectrum(sys)
    rep = verify_representations(spec)
    assert rep["max_deviation"] <= 1e-10
    for entry in rep["blocks"]:
        assert entry["size"] == 1


def test_cross_eigenvalue_orthogonality(catalog_spectra):
    for name, spec in catalog_spectra.items():
        for bi in spec.blocks:
            for bj in spec.blocks:
                if abs(bi.omega - bj.omega) < 1e-6:
                    continue
                for n in range(bi.size):
                    for k in range(bj.size):
                        assert (
                            abs(bilinear(spec.system, bi.chain[n], bj.chain[k]))
                            <= 1e-9
                        ), name


def test_chain_residuals_catalog(catalog_spectra):
    for name, spec in catalog_spectra.items():
        report = verify_spectrum(spec, strict=False)
        assert report["chain_residual"] <= 1e-9, name


def test_strict_verification_raises_despite_flagged_cluster(catalog_entries):
    # K + 1e-8 e11 demotes the double root to a flagged cluster of two simple
    # blocks whose completeness residual misses residual_tol; the flag
    # exempts only their chain residuals
    sys = catalog_entries["single-critical"].system
    dk = np.zeros((sys.N, sys.N))
    dk[0, 0] = 1.0
    with pytest.raises(VerificationError):
        compute_spectrum(build_system(sys.K + 1e-8 * dk, sys.Gamma))


# The runs of the catalog sweep K + eps e11, eps = 1e-2, 1e-4, ..., 1e-14, that
# end in a verified basis (23 of 35; the other 12 raise), plus single-critical
# at 1e-5.  Their roots are the companion-matrix roots, polished by Aberth
# where it converges within linalg.ABERTH_MAX_ITER steps.  The two
# single-critical runs at 1e-5 and 1e-6 need the polish: a budget of 2 turns
# 1e-6 into a VerificationError, and a budget of 1 also 1e-5, so these runs
# hold the budget at 3 or more.
VERIFIED_SWEEP = {
    "single-critical": (1e-2, 1e-4, 1e-5, 1e-6, 1e-10, 1e-12, 1e-14),
    "quartic-jb4": (1e-2, 1e-10, 1e-12, 1e-14),
    "cubic-jb3": (1e-2, 1e-10, 1e-12, 1e-14),
    "double-jb2": (1e-2, 1e-4, 1e-10, 1e-12, 1e-14),
    "crossed-pair": (1e-2, 1e-10, 1e-12, 1e-14),
}


@pytest.mark.parametrize(
    "name, eps",
    [(name, eps) for name, sweep in VERIFIED_SWEEP.items() for eps in sweep],
)
def test_near_critical_sweep_verifies(catalog_entries, name, eps):
    sys = catalog_entries[name].system
    dk = np.zeros((sys.N, sys.N))
    dk[0, 0] = 1.0
    spec = compute_spectrum(build_system(sys.K + eps * dk, sys.Gamma))
    assert verify_spectrum(spec, strict=False)["pass"]
    assert sum(b.size for b in spec.blocks) == sys.dim


ERROR_TYPES = (
    ChainError, DegenerateChainError, CrossingError, PairingError,
    VerificationError, ArgumentError, ConvergenceError,
)


@pytest.mark.parametrize("eps", [0.0, 1e-2, -1e-2, 1e-4, -1e-4, 1e-6, -1e-6,
                                 1e-8, -1e-8, 1e-10, 1e-12])
@pytest.mark.parametrize("name", list(VERIFIED_SWEEP))
def test_catalog_sweep_verifies_or_raises_typed(catalog_entries, name, eps):
    # every input ends in a verified basis or in a typed error naming the
    # failed decision; far from (1e-2) and close to (1e-10, 1e-12) the
    # critical point, and at it, the basis must verify
    sys = catalog_entries[name].system
    dk = np.zeros((sys.N, sys.N))
    dk[0, 0] = 1.0
    try:
        spec = compute_spectrum(build_system(sys.K + eps * dk, sys.Gamma))
    except ERROR_TYPES:
        assert eps not in (0.0, 1e-2, 1e-10, 1e-12)
        return
    assert verify_spectrum(spec, strict=False)["pass"]


# --- export ------------------------------------------------------------------

def test_spectrum_json_shape(catalog_spectra):
    obj = spectrum_to_json(catalog_spectra["cubic-jb3"])
    assert obj["N"] == 2
    assert obj["nu"] == 2
    sizes = sorted(b["M"] for b in obj["blocks"])
    assert sizes == [1, 3]
    b3 = [b for b in obj["blocks"] if b["M"] == 3][0]
    assert len(b3["chain"]) == 3
    assert len(b3["chain"][0]) == 8  # interleaved re/im of a length-4 vector
    assert "ledger" in b3
