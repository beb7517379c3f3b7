import warnings

import mpmath
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
    _kernel_sequence,
    _linkage_radius,
    _pairings,
    _simple_eigenvectors,
    _single_linkage,
    _unmirrored_groups,
    block_sizes_at,
    biorthogonalize_crossing,
    build_chain,
    compute_spectrum,
    conjugate_chain,
    normalize_block,
    spectrum_to_json,
    verify_representations,
    verify_spectrum,
)
from critmode import jordan
from critmode.design import catalog, quartic_critical
from critmode.linalg import (
    DEFAULT_TOL,
    ArgumentError,
    ConvergenceError,
    Tolerances,
    char_poly,
    poly_roots,
)
from critmode.model import (
    bilinear,
    build_system,
    evolution_operator,
    metric,
    metric_norm,
)

from conftest import ring_system, well_separated_system


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
    # the pure size rule on nullity(A^k), k = 1, 2, ...: read up to the first
    # stall (nullity(A^0) = 0 counts) and at most multiplicity levels
    table = [
        ([1, 2, 3, 4, 4], 4, [4]),
        ([2, 4, 4], 4, [2, 2]),
        ([2, 3, 4], 4, [3, 1]),
        ([1, 1], 2, None),  # stalls short of the multiplicity
        ([0], 2, None),  # omega is no eigenvalue
        ([1, 3, 4], 4, None),  # more blocks of size >= 2 than of size >= 1
        ([1, 2, 3, 4, 5], 4, [4]),  # level 5 is not read here
    ]
    for nullities, m, sizes in table:
        assert block_sizes_at(nullities, m) == sizes, (nullities, m)
    # build_chain's nullity check is the one that rejects level 5
    kernels = [np.eye(6, dtype=complex)[:, :n] for n in (1, 2, 3, 4, 5)]
    with pytest.raises(ChainError, match=r"are \[1, 2, 3, 4, 5\]"):
        build_chain(np.zeros((6, 6)), 0.0, [4], kernels=kernels)


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


def _mpmath_omegas(h, dps=30):
    """Eigenvalues of H = i a from mpmath's eig of the real a at dps digits."""
    with mpmath.workdps(dps):
        lam = mpmath.eig(mpmath.matrix((-1j * h).real.tolist()),
                         left=False, right=False)
        return np.array([1j * complex(v) for v in lam])


@pytest.mark.parametrize(
    "n,seeds", [(6, (198, 364, 519))] + [(n, range(10)) for n in (7, 8, 9)],
    ids=["N6", "N7", "N8", "N9"],
)
def test_random_systems_up_to_n9_verify(n, seeds):
    # these inputs raised VerificationError while the simple eigenvalues took
    # their eigenvectors from SVD null vectors of H - omega, which carry the
    # error of the root: each is now a verified basis of simple blocks
    for seed in seeds:
        sys = well_separated_system(np.random.default_rng(seed), n)
        spec = compute_spectrum(sys)
        report = verify_spectrum(spec, strict=False)
        assert report["pass"] and not spec.near_critical_clusters, seed
        assert [b.size for b in spec.blocks] == [1] * (2 * n), seed
        if n in (7, 9) and seed == 0:
            got = np.array([b.omega for b in spec.blocks])
            want = _mpmath_omegas(evolution_operator(sys))
            gap = np.min(np.abs(got[:, None] - want[None, :]), axis=1)
            assert np.all(gap <= 1e-9 * (1.0 + np.abs(got))), seed


def test_random_systems_n10_verify():
    # a simple block takes its eigenvalue from the eig column that gives its
    # eigenvector, not the polynomial root, whose error (up to 1.1e-7 at
    # seed 1) was the block's chain residual: seeds 1, 3 and 7 raised
    # VerificationError
    for seed in range(10):
        sys = well_separated_system(np.random.default_rng(seed), 10)
        spec = compute_spectrum(sys)
        assert verify_spectrum(spec, strict=False)["pass"], seed
        assert [b.size for b in spec.blocks] == [1] * 20, seed


@pytest.mark.parametrize("n", [11, 12, 16])
def test_random_systems_past_n10_verify(n):
    # a cluster-free system takes its eigenvalues from the real eig alone;
    # the roots of the degree-2N characteristic polynomial were too far off
    # from N = 11 on, and 59 of 60 seeds at N = 11 and 12 raised ChainError
    sys = well_separated_system(np.random.default_rng(0), n)
    spec = compute_spectrum(sys)
    assert verify_spectrum(spec, strict=False)["pass"]
    assert [b.size for b in spec.blocks] == [1] * (2 * n)
    assert not spec.near_critical_clusters
    if n == 11:
        # the 30-digit eig would add 0.7 s (2-core machine) to the suite;
        # N = 12 and 16 compare against it
        return
    got = np.array([b.omega for b in spec.blocks])
    want = _mpmath_omegas(evolution_operator(sys))
    gap = np.abs(got[:, None] - want[None, :])
    # every omega within 1e-10 relative of its own mpmath eigenvalue
    assert sorted(np.argmin(gap, axis=1)) == list(range(2 * n))
    assert np.all(np.min(gap, axis=1) <= 1e-10 * np.abs(got))


def test_random_systems_n32_verify():
    for seed in range(3):
        sys = well_separated_system(np.random.default_rng(seed), 32)
        spec = compute_spectrum(sys)
        assert verify_spectrum(spec, strict=False)["pass"], seed
        assert [b.size for b in spec.blocks] == [1] * 64, seed


@pytest.mark.xfail(
    strict=True, raises=(ChainError, VerificationError),
    reason="a cluster of repeated simple eigenvalues (nullities [1, ..., 1]) "
           "is demoted to simple blocks, which cannot hold its eigenvectors; "
           "keeping it as a group waits for the invariant-subspace basis and "
           "the stated margins of ROADMAP.md items 6 and 15")
@pytest.mark.parametrize("build", [
    lambda: build_system(np.eye(2), np.zeros((2, 2))),
    lambda: build_system(np.zeros((2, 2)), np.eye(2)),
    lambda: ring_system(3, 0.2),
    lambda: ring_system(6, 0.2),
], ids=["K=I2 Gamma=0", "K=0 Gamma=I2", "ring N=3", "ring N=6"])
def test_repeated_simple_eigenvalues_verify(build):
    # semisimple systems whose omegas repeat: a verified basis of 2N
    # simple blocks
    sys = build()
    spec = compute_spectrum(sys)
    assert spec.verification["pass"]
    assert [b.size for b in spec.blocks] == [1] * sys.dim


def test_polynomial_route_only_where_eigenvalues_cluster(monkeypatch,
                                                       catalog_entries):
    # a cluster-free system forms no characteristic polynomial; a cluster
    # (single-critical's double root at -i) forms it and finds its roots
    # once
    import critmode.jordan as jordan

    calls = []
    for name in ("char_poly", "poly_roots"):
        original = getattr(jordan, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(jordan, name, counting)
    for n in (1, 4, 11):
        compute_spectrum(well_separated_system(np.random.default_rng(0), n))
        assert calls == [], n
    compute_spectrum(catalog_entries["single-critical"].system)
    assert calls == ["char_poly", "poly_roots"]


def test_simple_block_takes_the_eig_eigenvalue(catalog_entries):
    # cubic-jb3's simple eigenvalue -4i beside its size-3 block: the root
    # lay 8.3e-15 off, the real eig of a gives -4i to rounding
    spec = compute_spectrum(catalog_entries["cubic-jb3"].system)
    [simple] = [b for b in spec.blocks if b.size == 1]
    assert abs(simple.omega + 4j) <= 1e-15


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
    # not an eigenvalue: the sequence stalls at k = 1, and the text names
    # the one power read
    with pytest.raises(ChainError, match=r"k = 1\.\.1, at omega=5\.0 are \[0\];"):
        build_chain(h, 5.0, [2])


@pytest.mark.parametrize("sizes", [[3, 1], [2, 1, 1], [3, 2], [4, 2, 1]])
def test_build_chain_unequal_crossings(sizes):
    # blocks of unequal sizes at one omega, next to one simple eigenvalue,
    # in a random complex basis: the top of each chain of height m is taken
    # orthogonal to the members c[m - 1] of the taller chains c
    rng = np.random.default_rng(sum(sizes))
    omega, dim = 0.5 - 1.0j, sum(sizes) + 1
    j_mat = np.diag([omega] * (dim - 1) + [2.0 + 0.5j])
    starts = np.cumsum([0] + sizes[:-1])
    for start, m in zip(starts, sizes):
        for k in range(start, start + m - 1):
            j_mat[k, k + 1] = 1.0
    s = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = s @ j_mat @ np.linalg.inv(s)
    a = h - omega * np.eye(dim)
    anorm = np.linalg.norm(a, 2)
    chains = build_chain(h, omega, sizes)
    assert [len(c) for c in chains] == sizes
    for chain in chains:
        for lower, member in zip([np.zeros(dim)] + chain[:-1], chain):
            res = np.linalg.norm(a @ member - lower)
            assert res <= 1e-12 * anorm * np.linalg.norm(member)
    for k, chain in enumerate(chains):
        top = chain[-1]
        for taller in chains[:k]:
            if len(taller) > len(chain):
                image = taller[len(chain) - 1]
                overlap = abs(np.vdot(image, top))
                assert overlap <= 1e-12 * np.linalg.norm(image) * np.linalg.norm(top)
    vectors = np.array([v for chain in chains for v in chain])
    assert np.linalg.matrix_rank(vectors) == sum(sizes)
    with pytest.raises(ChainError):
        build_chain(h, omega, [sizes[0] - 1] + sizes[1:] + [1])


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
    """The (omega, sizes, kernels) groups compute_spectrum finds for h."""
    coeffs = char_poly(h)
    roots = poly_roots(coeffs, DEFAULT_TOL)
    return _eigenstructure(h, coeffs, roots, DEFAULT_TOL)[0]


def _power_kernels(a, levels, tol):
    """Reference: ker A^k, k = 1 .. levels, one SVD per power."""
    out, ak = [], a
    for k in range(1, levels + 1):
        _, s, vh = np.linalg.svd(ak)
        if k == 1:
            base = max(float(s[0]), 1e-6)
        out.append(vh[int(np.sum(s > tol.rank_tol * base**k)):].conj().T)
        ak = ak @ a
    return out


@pytest.mark.parametrize("name", list(KERNEL_INPUTS))
def test_kernel_stack_matches_single_omega_calls(name):
    # _kernel_sequence at every eigenvalue (with mixed level counts) gives
    # what the one-matrix-at-a-time loop gives, up to the first stall: the
    # first kernel no wider than the one before it, counting nullity 0
    # before ker A, ends the sequence
    h = evolution_operator(KERNEL_INPUTS[name])
    for j, (w, sizes, _) in enumerate(_groups(h)):
        levels = max(sizes) + 1 + j % 2
        seq = _kernel_sequence(h, w, levels, DEFAULT_TOL)
        ref = _power_kernels(h - w * np.eye(h.shape[0]), levels, DEFAULT_TOL)
        widths = [0] + [k.shape[1] for k in ref]
        stall = next(
            (k for k in range(1, levels + 1) if widths[k] <= widths[k - 1]),
            levels,
        )
        assert len(seq) == stall
        for ker, ker_o in zip(seq, ref):
            assert ker.shape == ker_o.shape
            proj = ker @ ker.conj().T - ker_o @ ker_o.conj().T
            assert np.linalg.norm(proj) <= 1e-14 * max(1.0, ker.shape[1])


@pytest.mark.parametrize("name", list(KERNEL_INPUTS))
def test_build_chain_with_and_without_kernels_agree(name):
    h = evolution_operator(KERNEL_INPUTS[name])
    groups = _groups(h)
    sequences = [
        _kernel_sequence(h, w, max(s) + 1, DEFAULT_TOL) for w, s, _ in groups
    ]
    for (w, sizes, found), seq in zip(groups, sequences):
        # a Jordan group brings the kernels its sizes were read from
        assert bool(found) == (sizes != [1])
        try:
            own = build_chain(h, w, sizes)
        except ChainError as exc:
            with pytest.raises(ChainError) as given:
                build_chain(h, w, sizes, kernels=seq)
            assert str(given.value) == str(exc)
            continue
        for kernels in (seq, found or seq):
            given = build_chain(h, w, sizes, kernels=kernels)
            assert len(given) == len(own)
            for c1, c2 in zip(own, given):
                assert np.array_equal(np.array(c1), np.array(c2))
    # a sequence shorter than the sizes need fails the nullity check
    with pytest.raises(ChainError, match="nullities"):
        build_chain(h, groups[0][0], [1], kernels=sequences[0][:1])


def _nilpotent_plus_diagonal(size, t, d):
    """t times a nilpotent Jordan block of the given size, then d, d."""
    a = np.diag(np.r_[np.zeros(size), d, d]).astype(complex)
    a[np.arange(size - 1), np.arange(1, size)] = t
    return a


def test_kernel_sequence_stacks_only_powers_that_cannot_overflow(
        monkeypatch):
    # |A|_2^k overflows from k = 6 on (|A|_2 = 3e61): A takes one SVD, one
    # stack takes A^2 .. A^5, and the kernels are those of one SVD per
    # power; with a block of 6 the threshold overflows at k = 6 (ChainError)
    # without any product or SVD of A^6
    heights = []
    original = np.linalg.svd

    def counting(x, *args, **kwargs):
        heights.append(len(x) if x.ndim == 3 else None)
        return original(x, *args, **kwargs)

    a = _nilpotent_plus_diagonal(4, 3e61, 3e61)
    with np.errstate(over="ignore", invalid="ignore"):  # A^6, formed last
        ref = _power_kernels(a, 5, DEFAULT_TOL)
    monkeypatch.setattr(np.linalg, "svd", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no power overflows
        seq = _kernel_sequence(a, 0.0, 5, DEFAULT_TOL)
        assert heights == [None, 4]
        assert [k.shape[1] for k in seq] == [1, 2, 3, 4, 4]
        for ker, ker_o in zip(seq, ref):
            assert np.array_equal(ker, ker_o)
        heights.clear()
        with pytest.raises(ChainError, match="overflows float64"):
            _kernel_sequence(_nilpotent_plus_diagonal(6, 3e61, 3e61), 0.0, 7,
                             DEFAULT_TOL)
        assert heights == [None, 4]


def test_compute_spectrum_svd_count_does_not_grow_with_n(monkeypatch,
                                                       catalog_entries):
    # one real eig of every system, which on a cluster-free system is the
    # whole root stage; per root cluster one SVD of A = H - omega and, as A
    # has a kernel, one stacked SVD of A^2 .. A^(multiplicity + 1), read once
    # for both its sizes and its chains; the simple eigenvalues take no kernel level, and are
    # normalized together, in one stacked normalize_block call; besides
    # those, |H|_2 once, and one eigvals of the companion matrix only where
    # the eigenvalues cluster; |g|_2 reads the eigenvalues of Gamma that the
    # system keeps, so no eigvalsh
    import critmode.jordan as jordan

    impl = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    original_svd, original_eig = np.linalg.svd, np.linalg.eig
    original_eigvals, original_normalize = np.linalg.eigvals, jordan.normalize_block
    original_eigvalsh = np.linalg.eigvalsh
    calls, other = [], []

    def counting_svd(*args, **kwargs):
        # the kernel SVDs pass no options; the norms pass compute_uv=False
        # and build_chain's seeding of crossings full_matrices=False
        calls.append(("kernel" if not kwargs else "other", np.shape(args[0])))
        return original_svd(*args, **kwargs)

    def counting_eig(*args, **kwargs):
        calls.append("eig")
        return original_eig(*args, **kwargs)

    def counting_eigvals(*args, **kwargs):
        other.append("eigvals")
        return original_eigvals(*args, **kwargs)

    def counting_eigvalsh(*args, **kwargs):
        other.append("eigvalsh")
        return original_eigvalsh(*args, **kwargs)

    def counting_normalize(*args, **kwargs):
        other.append("normalize_block")
        return original_normalize(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(impl, "svd", counting_svd)  # np.linalg.norm(x, 2)
    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    monkeypatch.setattr(jordan, "normalize_block", counting_normalize)
    for n in (2, 8):
        sys = well_separated_system(np.random.default_rng(0), n)
        calls.clear()
        other.clear()
        compute_spectrum(sys)
        # (kernel SVDs, eig calls, SVDs in all)
        assert (sum(c[0] == "kernel" for c in calls if c != "eig"),
                calls.count("eig"), len(calls) - 1) == (0, 1, 1)
        assert other == ["normalize_block"]
    # the kernel SVDs, as the number of powers each takes: two per cluster
    want = {"single-critical": [1, 2], "quartic-jb4": [1, 4],
            "cubic-jb3": [1, 3], "double-jb2": [1, 2, 1, 2],
            "crossed-pair": [1, 4]}
    got = {}
    for name in want:
        calls.clear()
        other.clear()
        system = catalog_entries[name].system
        compute_spectrum(system)
        dim = system.dim
        kernel = [c[1] for c in calls if c != "eig" and c[0] == "kernel"]
        # A alone, then a stack of dim x dim powers
        assert kernel[::2] == [(dim, dim)] * (len(kernel) // 2), name
        assert all(len(shape) == 3 and shape[1:] == (dim, dim)
                   for shape in kernel[1::2]), name
        got[name] = [shape[0] if len(shape) == 3 else 1 for shape in kernel]
        # one eig, which also serves cubic-jb3's simple eigenvalue at -4i
        assert calls.count("eig") == 1, name
        assert "eigvalsh" not in other, name
    assert got == want


def test_chain_seeding_orthonormalizes_only_crossings(monkeypatch,
                                                     catalog_entries):
    # the one tallest chain of a cluster is seeded off the orthonormal
    # ker A^(M-1) basis as _kernel_sequence returns it, with no
    # orthonormal_columns call; the crossing of crossed-pair (two blocks of
    # size 2) keeps one in build_chain and two in biorthogonalize_crossing
    import critmode.jordan as jordan

    original = jordan.orthonormal_columns
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jordan, "orthonormal_columns", counting)
    want = {"single-critical": 0, "quartic-jb4": 0, "cubic-jb3": 0,
            "double-jb2": 0, "crossed-pair": 3}
    got = {}
    for name in want:
        calls.clear()
        compute_spectrum(catalog_entries[name].system)
        got[name] = len(calls)
    assert got == want


def test_one_operator_and_one_metric_per_spectrum(monkeypatch,
                                                  catalog_entries):
    # compute_spectrum builds H and g once and keeps them on the spectrum;
    # the duals and both verifications read them from there
    import critmode.jordan as jordan

    built = []
    for name in ("evolution_operator", "metric"):
        original = getattr(jordan, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            built.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(jordan, name, counting)
    # every catalog system (crossed-pair through biorthogonalize_crossing)
    # and a random one
    for sys in [entry.system for entry in catalog_entries.values()] + [
        well_separated_system(np.random.default_rng(0), 4),
    ]:
        built.clear()
        spec = compute_spectrum(sys)
        assert sorted(built) == ["evolution_operator", "metric"], sys.label
        # a level crossing is two blocks at one omega
        crossed = len({b.omega for b in spec.blocks}) < spec.nu
        assert crossed == (sys.label == "crossed-pair")
        built.clear()
        verify_spectrum(spec, strict=False)
        verify_representations(spec)
        assert built == []


def test_simple_groups_take_no_rank_decision():
    # at rank_tol = 1e-3 the second singular value of (H - omega)^2 counted
    # as null at some simple eigenvalues of this well-separated system (their
    # relative values lie near 1e-4), and the kernel route raised ChainError;
    # a simple eigenvalue now takes its eigenvector from eig, with no rank
    # decision, and the spectrum verifies
    tol = Tolerances(rank_tol=1e-3, cluster_tol=1e-3)
    sys = well_separated_system(np.random.default_rng(1), 4)
    h = evolution_operator(sys)
    coeffs = char_poly(h)
    groups = _eigenstructure(h, coeffs, poly_roots(coeffs, tol), tol)[0]
    assert all(sizes == [1] for _, sizes, _ in groups)
    with pytest.raises(ChainError):
        for w, sizes, _ in groups:
            build_chain(h, w, sizes, tol)
    spec = compute_spectrum(sys, tol)
    assert verify_spectrum(spec, strict=False)["pass"]
    assert [b.size for b in spec.blocks] == [1] * 8


def test_two_simple_roots_on_one_eigenvector_raise(monkeypatch):
    # a critically damped oscillator (a size-2 block at -i, so the roots
    # come from the characteristic polynomial) beside two overdamped ones:
    # four simple eigenvalues on the negative imaginary axis, near -0.209i,
    # -0.354i, -4.791i and -5.646i.  Moving the last root to 0.05 below the
    # first (beyond the linkage radius, so both stay simple) sends two roots
    # to one eigenvector of eig
    sys = build_system(np.diag([1.0, 1.0, 2.0]), np.diag([2.0, 5.0, 6.0]))

    def moved_roots(coeffs, tol):
        roots = poly_roots(coeffs, tol)
        roots = roots[np.argsort(-roots.imag)]
        roots[-1] = roots[0] - 0.05j
        return roots

    monkeypatch.setattr("critmode.jordan.poly_roots", moved_roots)
    h = evolution_operator(sys)
    roots = moved_roots(char_poly(h), DEFAULT_TOL)
    assert abs(roots[0] + 0.2087j) < 1e-4 and abs(roots[-1] + 0.2587j) < 1e-4
    with pytest.raises(ChainError) as raised:
        compute_spectrum(sys)
    message = str(raised.value)
    assert f"omega={complex(roots[0])}" in message
    assert f"omega={complex(roots[-1])}" in message


# --- normalization -----------------------------------------------------------

def test_normalize_block_single_critical_ledger():
    # raw chain with c0 = 1, c1 = 0: normalization must pick c1 = i and land
    # on f1 = (0, -i)
    sys = build_system([[1.0]], [[2.0]])
    raw = [np.array([1.0, -1.0], dtype=complex), np.array([-1.0j, 0.0])]
    chain, ledger = normalize_block(raw, metric(sys), metric_norm(sys))
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
    chain, _ = normalize_block([3.7 * raw[0]], metric(sys), metric_norm(sys))
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
    chain, _ = normalize_block(scrambled, metric(sys), metric_norm(sys))
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
        normalize_block([v, v], metric(sys), metric_norm(sys))


def _kept_simple_eigenvalues(sys):
    """The real eig (lam, vecs) of a = (-i H).real, the simple eigenvalues
    the polynomial route keeps and its flagged clusters of sys."""
    h = evolution_operator(sys)
    coeffs = char_poly(h)
    groups, flagged = _eigenstructure(h, coeffs, poly_roots(coeffs), DEFAULT_TOL)
    axis_tol = _axis_tol(DEFAULT_TOL, [w for w, _, _ in groups])
    kept = _unmirrored_groups(groups, axis_tol)
    eig = np.linalg.eig((-1j * h).real)
    return eig, [w for w, sizes, _ in kept if sizes == [1]], flagged


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def _assert_pairings_match_bilinear(sys, u, v):
    g = metric(sys)
    got = _pairings(g, u, v)
    assert got.shape == (len(u), u.shape[1], v.shape[1])
    bound = (1e-15 * np.linalg.norm(g, 2) * np.linalg.norm(u, axis=2)[:, :, None]
             * np.linalg.norm(v, axis=2)[:, None, :])
    want = np.array([[[bilinear(sys, x, y) for y in vb] for x in ub]
                     for ub, vb in zip(u, v)])
    assert np.all(np.abs(got - want) <= bound)


def test_pairings_match_bilinear(catalog_spectra):
    # the one pairing evaluator u^T g v agrees with the componentwise
    # bilinear map entry by entry, on the chains of every catalog spectrum
    # and on random stacks
    for spec in catalog_spectra.values():
        for b in spec.blocks:
            _assert_pairings_match_bilinear(spec.system, b.chain[None],
                                            b.chain[None])
    rng = np.random.default_rng(3)
    for n in (1, 2, 5, 8):
        sys = well_separated_system(rng, n)
        u, v = rng.standard_normal((2, 4, 3, 2 * n, 2)) @ [1.0, 1j]
        _assert_pairings_match_bilinear(sys, u, v)


def _assert_stack_equals_one_chain_calls(stack, g, gnorm):
    chains, ledgers = normalize_block(stack, g, gnorm)
    assert len(chains) == len(ledgers) == len(stack)
    for raw, chain, ledger in zip(stack, chains, ledgers):
        want, want_ledger = normalize_block(raw, g, gnorm)
        assert _bits(chain) == _bits(want)
        assert _bits(ledger.A) == _bits(want_ledger.A)
        assert _bits(ledger.c) == _bits(want_ledger.c)


def test_normalize_block_stack_equals_one_chain_calls(catalog_entries):
    # a stack of equal-height chains gives each chain, ledger A and ledger c
    # bit for bit as its own call: the one-vector chains of the eig rows on
    # the catalog spectra, two demoted clusters and random systems, and
    # scrambled copies of the quartic-jb4 chain
    systems = [entry.system for entry in catalog_entries.values()]
    for name, eps in (("single-critical", 1e-6), ("double-jb2", 1e-5)):
        sys = catalog_entries[name].system
        dk = np.zeros((sys.N, sys.N))
        dk[0, 0] = eps
        systems.append(build_system(sys.K + dk, sys.Gamma))
    systems += [
        well_separated_system(np.random.default_rng(seed), n)
        for n in range(1, 11) for seed in range(5)
    ]
    demoted = rows_checked = 0
    for sys in systems:
        eig, omegas, flagged = _kept_simple_eigenvalues(sys)
        demoted += bool(flagged)
        if not omegas:
            continue
        _, vectors = _simple_eigenvectors(*eig, omegas)
        gnorm = float(np.linalg.norm(metric(sys), 2))
        _assert_stack_equals_one_chain_calls(vectors[:, None, :], metric(sys),
                                            gnorm)
        rows_checked += len(vectors)
    assert demoted == 2
    assert rows_checked >= 250

    sys = catalog_entries["quartic-jb4"].system
    [chain] = build_chain(evolution_operator(sys), -1j, [4])
    rng = np.random.default_rng(21)
    coeffs = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    scrambled = np.array([
        [sum(c[k] * chain[n - k] for k in range(n + 1)) for n in range(4)]
        for c in coeffs
    ])
    g = metric(sys)
    gnorm = float(np.linalg.norm(g, 2))
    _assert_stack_equals_one_chain_calls(scrambled, g, gnorm)
    # and each one normalizes to the same chain up to the block sign
    first = normalize_block(scrambled[0], g, gnorm)[0]
    for chain in normalize_block(scrambled, g, gnorm)[0]:
        assert min(np.max(np.abs(chain - sgn * first)) for sgn in (1, -1)) <= 1e-9


def test_degenerate_simple_eigenvector_keeps_normalize_block_text():
    # the quartic design point x = y = 5 has a simple eigenvector with
    # (f, f) ~ 0; the stacked call and compute_spectrum raise the text of
    # the first one-chain call at fault
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cosh(x) cosh(y) > 3
        sys = quartic_critical(5.0, 5.0)
    eig, omegas, _ = _kept_simple_eigenvalues(sys)
    _, vectors = _simple_eigenvectors(*eig, omegas)
    g = metric(sys)
    gnorm = float(np.linalg.norm(g, 2))
    texts = []
    for vector in vectors:
        try:
            normalize_block([vector], g, gnorm)
        except DegenerateChainError as exc:
            texts.append(str(exc))
    assert texts
    with pytest.raises(DegenerateChainError) as stacked:
        normalize_block(vectors[:, None, :], g, gnorm)
    with pytest.raises(DegenerateChainError) as full:
        compute_spectrum(sys)
    assert str(stacked.value) == str(full.value) == texts[0]



def test_eig_route_takes_each_simple_eigenvalue_from_its_own_column(
        catalog_entries, monkeypatch):
    # with no two eigenvalues within the linkage radius every kept omega is
    # i lam_j of its own column j, so the nearest-column search would give
    # back exactly the kept columns: compute_spectrum takes them directly
    # there, and searches only after the polynomial's roots
    rng = np.random.default_rng(17)
    for n in range(1, 9):
        sys = well_separated_system(rng, n)
        lam, vecs = np.linalg.eig((-1j * evolution_operator(sys)).real)
        omegas = 1j * lam
        assert len(_single_linkage(omegas, _linkage_radius(DEFAULT_TOL, omegas))) == lam.size
        kept = omegas.real >= -_axis_tol(DEFAULT_TOL, omegas.tolist())
        got_omegas, got_vectors = _simple_eigenvectors(lam, vecs, omegas[kept].tolist())
        assert _bits(got_omegas) == _bits(omegas[kept])
        assert _bits(got_vectors) == _bits(vecs[:, kept].T.astype(complex))
    calls = []
    search = jordan._simple_eigenvectors
    monkeypatch.setattr(jordan, "_simple_eigenvectors",
                        lambda *args: calls.append(args) or search(*args))
    compute_spectrum(well_separated_system(rng, 4))
    assert not calls
    spec = compute_spectrum(catalog_entries["cubic-jb3"].system)
    assert len(calls) == 1 and [b.size for b in spec.blocks] == [3, 1]

def test_block_sizes_checked_before_residuals(catalog_entries):
    # with one block of double-jb2 removed the blocks span 2 of 4
    # dimensions; the residuals are dim x dim and used to end in numpy's
    # broadcast ValueError
    spec = compute_spectrum(catalog_entries["double-jb2"].system)
    spec.blocks.pop()
    with pytest.raises(VerificationError, match="block sizes sum to 2") as raised:
        verify_spectrum(spec)
    report = raised.value.report
    assert report["block_sizes_sum_ok"] is False and report["pass"] is False
    assert np.isnan(report["max_residual"])


def test_root_loss_is_a_convergence_error(tmp_path):
    # the companion roots of K = diag(1e14, 2), Gamma = I come back 2 of 4
    # (the leading coefficients vanish at the polynomial's scale); that is
    # the root stage's failure (exit 4), not a verification one (exit 3)
    from critmode.cli import main
    from critmode.model import save_system

    sys = build_system(np.diag([1e14, 2.0]), np.eye(2))
    with pytest.raises(ConvergenceError,
                       match="root stage returned 2 of the 4 roots"):
        compute_spectrum(sys)
    save_system(sys, tmp_path / "system.json")
    assert main(["analyze", "--system", str(tmp_path / "system.json"),
                 "--out", str(tmp_path / "out")]) == 4


def test_rank_threshold_overflow_is_a_chain_error():
    # rank_tol * |H - omega|_2^k overflows float64 for K = diag(1e150, 1);
    # it used to end in Python's OverflowError
    with pytest.raises(ChainError, match="rank threshold"):
        compute_spectrum(build_system(np.diag([1e150, 1.0]), np.eye(2)))


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
    # both blocks sit at one omega: the crossing is read from the blocks
    omega = spec.largest_block().omega
    assert [b.size for b in spec.blocks if b.omega == omega] == [2, 2]
    chains = [b.chain for b in spec.blocks]
    assert crossing_gram_residual(spec.system, chains) <= 1e-9


def test_crossing_single_block_passthrough():
    sys = build_system([[1.0]], [[2.0]])
    h = evolution_operator(sys)
    out = biorthogonalize_crossing(build_chain(h, -1j, [2]), metric(sys),
                                   metric_norm(sys), h, -1j)
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
        out = biorthogonalize_crossing(mix(), metric(sys), metric_norm(sys),
                                       h, -1j)
        chains = [chain for chain, _ in out]
        assert crossing_gram_residual(sys, chains) <= 1e-9
        for chain in chains:
            a = h + 1j * np.eye(4)
            assert np.linalg.norm(a @ chain[1] - chain[0]) <= 1e-9
            assert np.linalg.norm(a @ chain[0]) <= 1e-9


def test_crossing_top_choice_ignores_rounding_ties(catalog_entries):
    # at the crossing the top-vector candidates (t1, t2, t1 + t2) have equal
    # quality in exact arithmetic; rounding noise, or a 1e-12 change of K,
    # must not pick the other oscillator's chain as the first block
    sys = catalog_entries["crossed-pair"].system
    dk = np.zeros((2, 2))
    dk[0, 0] = 1.0
    f0 = [
        compute_spectrum(build_system(sys.K + eps * dk, sys.Gamma))
        .largest_block().chain[0]
        for eps in (0.0, -1e-12, 1e-12, 1e-11)
    ]
    for f in f0[1:]:
        assert np.max(np.abs(f - f0[0])) <= 1e-9


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
    axis, right, left = (-2j, [1], []), (1.0 - 1j, [2], []), (-1.0 - 1j, [2], [])
    assert _unmirrored_groups([left, axis, right], 1e-9) == [axis, right]
    # two groups within reach of both of two mirrors: the first takes the
    # first mirror, the second the one left
    near = (1.0 + 1e-9 - 1j, [2], [])
    twin = (-1.0 - 1e-9 - 1j, [2], [])
    assert _unmirrored_groups([right, near, twin, left], 1e-9) == [right, near]
    for groups in (
        [axis, right],                     # no mirror for Re(omega) > 0
        [axis, left],                      # a mirror of nothing
        [right, (-1.0 - 1j, [1, 1], [])],  # mirror with other block sizes
        [right, (-1.1 - 1j, [2], [])],     # mirror too far from -conj(omega)
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

def test_duals_and_partners_match_their_loop_forms(catalog_spectra):
    # one product per block gives the duals conj(g f_(M-1-n)) of the
    # per-vector products up to rounding, and the broadcast conjugation rule
    # gives the per-row partner chain bit for bit
    for name, spec in catalog_spectra.items():
        gnorm = np.linalg.norm(spec.g, 2)
        for b in spec.blocks:
            m = b.size
            want = np.array([np.conj(spec.g @ b.chain[m - 1 - n])
                             for n in range(m)])
            scale = gnorm * np.linalg.norm(b.chain, axis=1)[::-1, None]
            assert np.all(np.abs(b.duals - want) <= 1e-15 * scale), name
            rows = [1j**m * (-1.0) ** n * np.conj(b.chain[n]) for n in range(m)]
            assert _bits(conjugate_chain(b.chain)) == _bits(rows), name


# --- the basis tail against its loop forms -----------------------------------
#
# normalize_block, dual_basis, enforce_conjugation and verify_spectrum run
# on whole arrays (a stack per block size, ufunc reduces, one stacked abs);
# the references below are the per-block forms they replaced, and every
# output must equal theirs bit for bit.

def _loop_normalize_block(chains, g, gnorm):
    """Reference normalize_block: (chains, A rows, c rows) of a stack."""
    f = np.array(chains, dtype=complex, order="C")
    m = f.shape[1]
    a_top = _pairings(g, f[:, :1], f[:, -1:])[:, 0, 0]
    ends = np.linalg.norm(f[:, [0, -1]], axis=2)
    assert not np.any(np.abs(a_top) <= np.maximum(
        1e-12 * gnorm * ends[:, 0] * ends[:, 1], 1e-300))
    coeffs = np.empty((len(f), m), dtype=complex)
    coeffs[:, 0] = a_top ** -0.5
    f *= coeffs[:, :1, None]
    for n in range(1, m):
        coeffs[:, n] = -_pairings(g, f[:, n:n + 1], f[:, -1:])[:, 0, 0] / 2.0
        f[:, n:] += coeffs[:, n, None, None] * f[:, :m - n]
    f0 = f[:, 0]
    mags = np.abs(f0)
    idx = np.argmax(mags >= (1.0 - 1e-8) * mags.max(axis=1, keepdims=True),
                    axis=1)
    a = f0[np.arange(len(f0)), idx]
    flips = np.where(np.abs(a.real) > 1e-12 * np.abs(a), a.real < 0.0,
                     a.imag <= 0.0)
    f[flips] = -f[flips]
    coeffs[flips, 0] = -coeffs[flips, 0]
    gram = _pairings(g, f, f)
    a_q = np.zeros((len(f), 2 * m - 1), dtype=complex)
    for n in range(m):
        a_q[:, n:n + m] += gram[:, n]
    q = np.arange(1, 2 * m)
    a_q /= np.minimum(q, 2 * m - q)
    return f, a_q, coeffs


def _loop_verify_report(spectrum):
    """Reference residuals of verify_spectrum, one abs/max chain each."""
    dim = spectrum.system.dim
    form, h, g = spectrum.matrices, spectrum.h, spectrum.g
    f_mat, p_mat = form.f, form.p
    h_norm = np.linalg.svd(h.imag, compute_uv=False)[0]
    cols = np.linalg.norm(h @ f_mat - f_mat @ form.j, axis=0) / (
        (h_norm + np.abs(form.omega))
        * np.maximum(1.0, np.linalg.norm(f_mat, axis=0)))
    flagged = np.repeat([b.near_critical for b in spectrum.blocks],
                        [b.size for b in spectrum.blocks])
    ftg = f_mat.T @ g
    eye = np.eye(dim)
    return {
        "chain_residual": float(np.max(cols[~flagged], initial=0.0)),
        "chain_residual_flagged": float(np.max(cols[flagged], initial=0.0)),
        "bilinear_gram_residual": float(np.max(np.abs(ftg @ f_mat - p_mat))),
        "dual_biorthogonality_residual": float(
            np.max(np.abs(form.duals[0] @ f_mat - eye))),
        "completeness_residual": float(
            np.max(np.abs(f_mat @ p_mat @ ftg - eye))),
    }


def _self_symmetry(chain):
    """Reference conj_sign of a block on the negative imaginary axis."""
    m = len(chain)
    cand = np.array([1j**m * (-1.0) ** n for n in range(m)])[:, None] * np.conj(
        chain)
    norms = np.linalg.norm(chain, axis=1)
    for sign in (1, -1):
        if np.max(np.linalg.norm(chain - sign * cand, axis=1) / norms) <= 1e-8:
            return sign
    return None


def _tail_inputs():
    for entry in catalog():
        sys = entry.system
        dk = np.zeros((sys.N, sys.N))
        dk[0, 0] = 1.0
        for eps in (0.0, 1e-6, -1e-6, 1e-10):
            yield f"{entry.name}@{eps:g}", build_system(sys.K + eps * dk,
                                                        sys.Gamma)
    for n in (1, 2, 5, 8, 16, 32):
        yield f"random-N{n}", well_separated_system(np.random.default_rng(n), n)


TAIL_INPUTS = dict(_tail_inputs())


def _unverified_spectrum(sys, monkeypatch):
    """compute_spectrum(sys) with its verification made non-strict, so that
    spectra that fail it are kept."""
    import critmode.jordan as jordan

    verify = jordan.verify_spectrum
    with monkeypatch.context() as patch:
        patch.setattr(jordan, "verify_spectrum",
                      lambda spectrum, strict=True: verify(spectrum, False))
        return jordan.compute_spectrum(sys)


@pytest.mark.parametrize("name", list(TAIL_INPUTS))
def test_basis_tail_equals_its_loop_forms(name, monkeypatch):
    # every input gives a spectrum: an earlier stage raising fails the test
    spec = _unverified_spectrum(TAIL_INPUTS[name], monkeypatch)
    g = spec.g
    gnorm = metric_norm(spec.system)
    blocks = {b.label: b for b in spec.blocks}
    for b in spec.blocks:
        # duals: one product per block; partners: the conjugation rule with
        # the phases of a per-size list; self-symmetry signs per block
        assert _bits(b.duals) == _bits(np.conj(b.chain[::-1] @ g))
        if b.label < 0:
            rule = np.array([1j**b.size * (-1.0) ** n for n in range(b.size)])
            mirror = blocks[-b.label].chain
            assert _bits(b.chain) == _bits(rule[:, None] * np.conj(mirror))
        elif b.label == 0:
            assert b.conj_sign == _self_symmetry(b.chain)
    # a scrambled copy of every normalized chain, and the simple
    # eigenvectors as one stack, normalize as in the loop form
    scramble = np.array([1.3 - 0.4j, 0.2 + 0.1j, -0.05j, 0.01, 0.003j])
    for b in spec.blocks:
        m = b.size
        raw = scramble[0] * b.chain.copy()
        for n in range(1, m):
            raw[n:] += scramble[n % 5] * raw[:m - n]
        chain, ledger = normalize_block(raw, g, gnorm)
        want, a_q, coeffs = _loop_normalize_block(raw[None], g, gnorm)
        assert _bits(chain) == _bits(want[0])
        assert _bits(ledger.A) == _bits(a_q[0])
        assert _bits(ledger.c) == _bits(coeffs[0])
    simple = [b.omega for b in spec.blocks if b.size == 1]
    if simple:
        lam, vecs = np.linalg.eig(spec.h.imag)
        stack = _simple_eigenvectors(lam, vecs, simple)[1][:, None, :]
        chains, ledgers = normalize_block(stack, g, gnorm)
        want, a_q, coeffs = _loop_normalize_block(stack, g, gnorm)
        assert _bits(chains) == _bits(want)
        assert _bits([led.A for led in ledgers]) == _bits(a_q)
        assert _bits([led.c for led in ledgers]) == _bits(coeffs)
    # the report, per residual
    report = verify_spectrum(spec, strict=False)
    for key, value in _loop_verify_report(spec).items():
        assert np.array(report[key]).tobytes() == np.array(value).tobytes(), key


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
# at 1e-5.  Their roots are the companion-matrix roots; the single-critical
# runs at 1e-5 and 1e-6 split into simple eigenvalues, which take their
# eigenvalues and eigenvectors from the real eig of H.
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
    spec = catalog_spectra["cubic-jb3"]
    obj = spectrum_to_json(spec)
    assert obj["N"] == 2
    assert obj["nu"] == 2
    sizes = sorted(b["M"] for b in obj["blocks"])
    assert sizes == [1, 3]
    b3 = [b for b in obj["blocks"] if b["M"] == 3][0]
    assert len(b3["chain"]) == 3
    assert len(b3["chain"][0]) == 8  # interleaved re/im of a length-4 vector
    assert "ledger" in b3
    # each vector as [re_0, im_0, re_1, im_1, ...]
    for b, entry in zip(spec.blocks, obj["blocks"]):
        for key, rows in (("chain", b.chain), ("duals", b.duals)):
            assert entry[key] == [
                [x for z in row for x in (float(z.real), float(z.imag))]
                for row in rows
            ]
