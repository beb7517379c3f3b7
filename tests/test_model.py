import json
import os
import stat
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from critmode.design import catalog
from critmode.linalg import ArgumentError, char_poly, poly_roots
from critmode.model import (
    _write_text,
    bilinear,
    build_system,
    evolution_operator,
    load_system,
    metric,
    metric_conjugate,
    metric_norm,
    save_system,
    system_from_json,
    symmetric_matrix,
    system_to_json,
)


def test_build_single_critical():
    sys = build_system([[1.0]], [[2.0]])
    assert sys.N == 1
    assert sys.dim == 2


def test_build_quartic_reference():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    assert sys.N == 2  # Gamma sits on the PSD boundary without warnings


def test_build_rejects_asymmetric():
    with pytest.raises(ArgumentError):
        build_system([[1.0, 2.0], [3.0, 4.0]], np.zeros((2, 2)))


def test_build_rejects_mismatch_and_nonsquare():
    with pytest.raises(ArgumentError):
        build_system(np.eye(2), np.zeros((3, 3)))
    with pytest.raises(ArgumentError):
        build_system(np.ones((2, 3)), np.zeros((2, 3)))


def test_build_rejects_empty_matrices():
    # the checks name the matrix instead of numpy's bare "zero-size array
    # to reduction operation maximum"
    with pytest.raises(ArgumentError, match="K is empty"):
        build_system(np.zeros((0, 0)), np.zeros((0, 0)))
    with pytest.raises(ArgumentError, match="DK is empty"):
        symmetric_matrix("DK", np.zeros((0, 0)))
    with pytest.raises(ArgumentError, match="DK is empty"):
        symmetric_matrix("DK", np.zeros((0, 0)), 0)


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_symmetric_matrix_rejects_non_finite_entries(entry):
    with pytest.raises(ArgumentError, match="Gamma has non-finite entries"):
        build_system(np.eye(2), [[1.0, 0.0], [0.0, entry]])


def test_build_warns_on_indefinite_damping():
    with pytest.warns(UserWarning):
        build_system(np.eye(2), [[-1.0, 0.0], [0.0, 1.0]])


def test_evolution_operator_single_critical_eigenvector():
    sys = build_system([[1.0]], [[2.0]])
    h = evolution_operator(sys)
    f0 = np.array([1.0, -1.0])
    assert np.allclose(h @ f0, -1j * f0, atol=1e-14)


def test_evolution_operator_quartic_eigenvector():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    h = evolution_operator(sys)
    f0 = np.array([1.0, 1.0, -1.0, -1.0])
    assert np.allclose(h @ f0, -1j * f0, atol=1e-14)


def test_evolution_operator_undamped_eigenvalues():
    sys = build_system(np.eye(2), np.zeros((2, 2)))
    evals = np.sort_complex(poly_roots(char_poly(evolution_operator(sys))))
    assert np.allclose(evals, [-1.0, -1.0, 1.0, 1.0], atol=1e-9)


def test_bilinear_single_critical_pairing():
    sys = build_system([[1.0]], [[2.0]])
    f0 = np.array([1.0, -1.0])
    f1 = np.array([0.0, -1.0j])
    assert abs(bilinear(sys, f0, f1) - 1.0) < 1e-14
    assert abs(bilinear(sys, f0, f0)) < 1e-14


def test_bilinear_quartic_chain_pairings():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    s2 = np.sqrt(2.0)
    chain = [
        s2 * 1j * np.array([1, 1, -1, -1]),
        s2 / 2 * np.array([-1, 1, 3, 1]),
        s2 / 8 * 1j * np.array([-1, -1, 5, -3]),
        s2 / 16 * np.array([-1, 1, -1, -3]),
    ]
    assert abs(bilinear(sys, chain[0], chain[3]) - 1.0) < 1e-12
    for n in range(3):
        assert abs(bilinear(sys, chain[0], chain[n])) < 1e-12


@given(st.integers(0, 2**31 - 1))
def test_bilinear_is_symmetric_and_matches_matrix_form(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, n))
    sys = build_system(a @ a.T + np.eye(n), 0.5 * (b @ b.T))
    psi = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    phi = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    lhs = bilinear(sys, psi, phi)
    assert abs(lhs - bilinear(sys, phi, psi)) <= 1e-12 * (1 + abs(lhs))
    matrix_form = psi @ metric(sys) @ phi
    assert abs(lhs - matrix_form) <= 1e-12 * (1 + abs(lhs))


def test_operator_is_bilinear_symmetric():
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        sys = build_system(a @ a.T + n * np.eye(n), b @ b.T / n)
        h = evolution_operator(sys)
        hnorm = np.linalg.norm(h, 2)
        for _ in range(50):
            psi = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            phi = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            d = bilinear(sys, psi, h @ phi) - bilinear(sys, h @ psi, phi)
            assert abs(d) <= 1e-10 * np.linalg.norm(psi) * np.linalg.norm(phi) * hnorm


def test_metric_norm_matches_the_svd():
    # the closed form from the eigenvalues of Gamma, against the largest
    # singular value of g: the catalog, random damping (one indefinite),
    # no damping and damping far above one
    rng = np.random.default_rng(5)
    systems = [entry.system for entry in catalog()]
    for n in (1, 2, 3, 5, 8, 16):
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, n))
        systems.append(build_system(a @ a.T + np.eye(n), 0.6 * b @ b.T / n))
    b = rng.standard_normal((3, 3))
    with pytest.warns(UserWarning):
        systems.append(build_system(np.eye(3), b + b.T))
    systems.append(build_system(np.eye(2), np.zeros((2, 2))))
    systems.append(build_system(np.eye(2), np.diag([1e6, 3.0])))
    for sys in systems:
        want = np.linalg.norm(metric(sys), 2)
        assert abs(metric_norm(sys) - want) <= 1e-14 * want


def test_metric_conjugate_quartic_dual():
    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    s2 = np.sqrt(2.0)
    f3 = s2 / 16 * np.array([-1.0, 1.0, -1.0, -3.0])
    dual0 = s2 / 16 * 1j * np.array([5.0, 3.0, 1.0, -1.0])
    assert np.allclose(metric_conjugate(sys, f3), dual0, atol=1e-14)


def test_metric_conjugate_zero():
    sys = build_system(np.eye(2), np.zeros((2, 2)))
    assert np.allclose(metric_conjugate(sys, np.zeros(4)), 0.0)


def test_metric_conjugate_dimension_check():
    sys = build_system(np.eye(2), np.zeros((2, 2)))
    with pytest.raises(ArgumentError):
        metric_conjugate(sys, np.zeros(3))


def test_scaling_covariance():
    # under K -> a^2 K, Gamma -> a Gamma the eigenvalue multiset scales by a;
    # compare polished block eigenvalues (raw multiple roots scatter too much)
    from critmode.jordan import compute_spectrum

    sys = build_system([[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]])
    undamped = build_system(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    for base_sys in (sys, undamped):
        base = compute_spectrum(base_sys)
        base_evals = sorted(
            ((b.omega, b.size) for b in base.blocks),
            key=lambda t: (t[0].real, t[0].imag),
        )
        for a in (2.0, 0.5):
            scaled = build_system(a * a * base_sys.K, a * base_sys.Gamma)
            got = compute_spectrum(scaled)
            got_evals = sorted(
                ((b.omega, b.size) for b in got.blocks),
                key=lambda t: (t[0].real, t[0].imag),
            )
            assert len(got_evals) == len(base_evals)
            for (gw, gm), (bw, bm) in zip(got_evals, base_evals):
                assert gm == bm
                assert abs(gw - a * bw) <= 1e-9 * a


def test_system_json_round_trip(tmp_path):
    sys = build_system(
        [[5.0, -2.0], [-2.0, 1.0]], [[4.0, 0.0], [0.0, 0.0]], label="ref"
    )
    obj = system_to_json(sys)
    back = system_from_json(obj)
    assert np.allclose(back.K, sys.K)
    assert np.allclose(back.Gamma, sys.Gamma)
    assert back.label == "ref"
    path = tmp_path / "sys.json"
    # saved over the longer file of a larger system, the file holds the
    # new system alone
    save_system(build_system(np.eye(3), np.zeros((3, 3)), label="wider"), path)
    save_system(sys, path)
    assert path.read_text() == json.dumps(obj, indent=2) + "\n"
    again = load_system(path)
    assert np.array_equal(again.K, sys.K)
    assert np.array_equal(again.Gamma, sys.Gamma)
    assert again.label == "ref"


def test_write_text_rewrites_in_place_to_the_new_length(tmp_path):
    path = tmp_path / "out.txt"
    _write_text(path, "x" * 5000 + "\n")
    inode = path.stat().st_ino
    _write_text(path, "short \u03be\n")
    assert path.read_bytes() == "short \u03be\n".encode("utf-8")
    assert path.stat().st_ino == inode
    _write_text(path, "")
    assert path.read_bytes() == b""


def test_write_text_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("old contents, longer than the new ones\n")
    target.chmod(0o640)
    link.symlink_to(target)
    _write_text(link, "new\n")
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == b"new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    # a new file gets 0o666 less the umask, as open(path, "w") gives it
    umask = os.umask(0)
    os.umask(umask)
    _write_text(tmp_path / "new.csv", "a\n")
    with open(tmp_path / "by_open.csv", "w") as fh:
        fh.write("a\n")
    assert (stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
            == stat.S_IMODE((tmp_path / "by_open.csv").stat().st_mode)
            == 0o666 & ~umask)


def test_system_json_validation(tmp_path):
    with pytest.raises(ArgumentError):
        system_from_json({"K": [[1.0]], "Gamma": [[0.0]], "N": 7})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ArgumentError):
        load_system(bad)


def test_build_system_symmetrizes_huge_entries_without_overflow():
    # (m + m^T) / 2 overflows past about 9e307; the halves do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert build_system([[1e308]], [[1.0]]).K[0, 0] == 1e308
        assert build_system([[1.0]], [[1.7e308]]).Gamma[0, 0] == 1.7e308
        top = np.nextafter(1.7e308, np.inf)
        k = build_system([[1.0, 1.7e308], [top, 1.0]], np.eye(2)).K
    assert k[0, 1] == k[1, 0] and 1.7e308 <= k[0, 1] <= top


def test_build_system_keeps_symmetric_input_and_gamma_eigenvalues():
    # exactly symmetric K and Gamma keep their bits, signed zeros and
    # subnormals included; the eigenvalues of Gamma are kept with them
    k = np.array([[5e-324, -0.0], [-0.0, 2.5]])
    gamma = np.array([[0.3, 1e-310], [1e-310, -0.0]])
    sys = build_system(k, gamma)
    for got, want in ((sys.K, k), (sys.Gamma, gamma)):
        assert got.tobytes() == want.tobytes()
    assert np.array_equal(sys.gamma_eigenvalues, np.linalg.eigvalsh(gamma))


def test_build_system_stores_the_mean_of_m_and_its_transpose():
    # K and Gamma within the symmetry tolerance are stored as (m + m^T) / 2,
    # bit for bit, each from its own matrix
    k = np.array([[2.0, 1.0], [1.0 + 2**-52, 3.0]])
    gamma = np.array([[0.5, -0.1 - 2**-55], [-0.1, 0.25]])
    sys = build_system(k, gamma)
    assert sys.K.tobytes() == (0.5 * (k + k.T)).tobytes()
    assert sys.Gamma.tobytes() == (0.5 * (gamma + gamma.T)).tobytes()
