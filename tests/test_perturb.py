import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import critmode
from critmode.cli import main as cli_main
from critmode.design import catalog_entry
from critmode.dynamics import cluster_cancellation_experiment
from critmode.jordan import compute_spectrum
from critmode.linalg import ArgumentError
from critmode.model import bilinear, build_system, evolution_operator, save_system
from critmode.perturb import (
    GENERICITY_FACTOR,
    HigherOrderNonGenericError,
    MatchingAmbiguityError,
    NonGenericPerturbationError,
    assign_predictions,
    cluster_shifts,
    critical_block,
    delta_h,
    exact_perturbed_spectrum,
    j1_coefficient,
    loglog_slope,
    predict_splitting,
    predict_splitting_nongeneric,
    spectral_gap,
    xi_generic,
    xi_prime,
)

from conftest import well_separated_system

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
MU_QUARTIC = np.array([[1.0, -1.5], [-1.5, 2.0]])
MU_CUBIC = np.array([[-2.0, 0.5], [0.5, 1.0]])


# --- xi ------------------------------------------------------------------------

def _generic(block, dk):
    """The predictors' genericity decision: whether predict_splitting
    predicts rather than raise NonGenericPerturbationError."""
    try:
        predict_splitting(block, dk, 1e-6)
    except NonGenericPerturbationError:
        return False
    return True


def test_xi_reference_values(catalog_spectra):
    cases = [
        ("quartic-jb4", E11, -2.0 + 0.0j),
        ("cubic-jb3", E11, 4.0j / 15.0),
        ("double-jb2", E11, -(9.0 + 12.0j) / 32.0),
        ("quartic-jb4", MU_QUARTIC, 0.0 + 0.0j),
        ("cubic-jb3", MU_CUBIC, 0.0 + 0.0j),
    ]
    for name, dk, want in cases:
        spec = catalog_spectra[name]
        block = spec.largest_block()
        xi = xi_generic(block, dk)
        assert abs(xi - want) <= 1e-12, name
        # predict_splitting raises iff |xi| is at most the threshold
        threshold = (GENERICITY_FACTOR * np.linalg.norm(dk, 2)
                     * np.linalg.norm(block.chain[0]) ** 2)
        assert (abs(xi) > threshold) == (want != 0), name
        assert _generic(block, dk) == (want != 0), name


def test_xi_prime_reference_values(catalog_spectra):
    block_q = catalog_spectra["quartic-jb4"].largest_block()
    block_c = catalog_spectra["cubic-jb3"].largest_block()
    assert abs(xi_prime(block_q, MU_QUARTIC) - 1.0j) <= 1e-12
    assert abs(xi_prime(block_c, MU_CUBIC) - 1.0) <= 1e-12


def test_xi_bilinear_equals_coordinate_form(catalog_spectra):
    rng = np.random.default_rng(13)
    for name in ("quartic-jb4", "cubic-jb3", "double-jb2", "single-critical"):
        spec = catalog_spectra[name]
        block = spec.largest_block()
        n = spec.system.N
        for _ in range(5):
            a = rng.standard_normal((n, n))
            dk = a + a.T
            want = xi_generic(block, dk)
            # xi as the phase-space element (f_0, DH f_0)
            f0 = block.chain[0]
            got = bilinear(spec.system, f0, delta_h(dk) @ f0)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name


# --- generic splitting -----------------------------------------------------------

def test_single_oscillator_splitting(catalog_spectra):
    # k = k* + eps: real pair for eps>0, imaginary pair for eps<0
    block = catalog_spectra["single-critical"].largest_block()
    dk = np.array([[1.0]])
    plus = predict_splitting(block, dk, 1e-4)
    shifts = np.sort_complex(plus.shifts)
    assert np.allclose(shifts, [-1e-2, 1e-2], atol=1e-15)
    minus = predict_splitting(block, dk, -1e-4)
    shifts = sorted(minus.shifts, key=lambda z: z.imag)
    assert np.allclose(shifts, [-1e-2j, 1e-2j], atol=1e-15)


def test_quartic_splitting_radius_and_angles(catalog_spectra):
    block = catalog_spectra["quartic-jb4"].largest_block()
    pred = predict_splitting(block, E11, 1e-4)
    assert np.allclose(np.abs(pred.shifts), (2e-4) ** 0.25, atol=1e-12)
    angles = np.sort(np.angle(pred.shifts))
    steps = np.diff(angles)
    assert np.allclose(steps, np.pi / 2.0, atol=1e-12)


def test_sign_flip_bisection(catalog_spectra):
    # directions for -eps bisect those for +eps: offset pi/M mod 2pi/M
    for name, m in (("quartic-jb4", 4), ("cubic-jb3", 3), ("double-jb2", 2)):
        block = catalog_spectra[name].largest_block()
        plus = predict_splitting(block, E11, 1e-6)
        minus = predict_splitting(block, E11, -1e-6)
        sector = 2.0 * np.pi / m
        for s in minus.shifts:
            d = np.angle(s / plus.shifts[0])
            offset = abs(d - sector * round(d / sector))
            assert offset == pytest.approx(np.pi / m, abs=1e-9), name
        # numerical counterpart at small eps: the bisection holds to 5|lambda|
        eps = 1e-8
        spec = catalog_spectra[name]
        lam = abs(predict_splitting(block, E11, eps).lam)
        sh_p = cluster_shifts(
            exact_perturbed_spectrum(spec.system, E11, eps), block.omega, m
        )
        sh_m = cluster_shifts(
            exact_perturbed_spectrum(spec.system, E11, -eps), block.omega, m
        )
        for s in sh_m:
            d = np.angle(s / sh_p[0])
            offset = abs(d - sector * round(d / sector))
            assert abs(offset - np.pi / m) <= 5.0 * lam, name


def test_split_vector_norms_analytic(catalog_spectra):
    for name in ("quartic-jb4", "cubic-jb3", "double-jb2"):
        spec = catalog_spectra[name]
        block = spec.largest_block()
        pred = predict_splitting(block, E11, 1e-4)
        m = block.size
        for k in range(m):
            got = bilinear(spec.system, pred.split_vectors[k], pred.split_vectors[k])
            assert abs(got - pred.norms[k]) <= 1e-12 * abs(pred.norms[k]), name


def test_split_vector_norms_match_numerics(catalog_spectra):
    # bilinear norms of the numerically computed perturbed eigenvectors agree
    # with M (lambda zeta)^(M-1) to relative O(lambda) after phase alignment
    spec = catalog_spectra["quartic-jb4"]
    sys = spec.system
    block = spec.largest_block()
    eps = 1e-6
    pred = predict_splitting(block, E11, eps)
    pert = build_system(sys.K + eps * E11, sys.Gamma)
    evals, evecs = np.linalg.eig(evolution_operator(pert))
    lam = abs(pred.lam)
    for k in range(4):
        idx = int(np.argmin(np.abs(evals - pred.eigenvalues[k])))
        v = evecs[:, idx]
        target = pred.split_vectors[k]
        c = np.vdot(v, target) / np.vdot(v, v)
        aligned = c * v
        got = bilinear(pert, aligned, aligned)
        rel = abs(got - pred.norms[k]) / abs(pred.norms[k])
        assert rel <= 5.0 * lam


def test_nongeneric_trigger(catalog_spectra):
    block = catalog_spectra["quartic-jb4"].largest_block()
    with pytest.raises(NonGenericPerturbationError):
        predict_splitting(block, MU_QUARTIC, 1e-4)


# --- non-generic splitting --------------------------------------------------------

def test_nongeneric_quartic_reduced_shifts(catalog_spectra):
    block = catalog_spectra["quartic-jb4"].largest_block()
    ng = predict_splitting_nongeneric(block, MU_QUARTIC, 1e-4)
    assert abs(ng.xi_prime - 1j) <= 1e-12
    assert np.allclose(np.abs(ng.shifts), (2e-4) ** (1.0 / 3.0), atol=1e-12)
    assert not ng.m2_caveat
    angles = np.sort(np.angle(ng.shifts))
    assert np.allclose(np.diff(angles), 2.0 * np.pi / 3.0, atol=1e-12)


def test_nongeneric_cubic_m2_caveat(catalog_spectra):
    block = catalog_spectra["cubic-jb3"].largest_block()
    ng = predict_splitting_nongeneric(block, MU_CUBIC, 1e-4)
    assert abs(ng.xi_prime - 1.0) <= 1e-12
    assert ng.shifts.size == 2
    assert not ng.m2_caveat  # M = 3 reduces to a clean M = 2 star
    # real xi': the pair splits along the real axis at 180 degrees
    assert np.allclose(np.sort(ng.shifts.real), [-np.sqrt(2e-4), np.sqrt(2e-4)],
                       atol=1e-12)


def test_nongeneric_rejects_generic_input(catalog_spectra):
    block = catalog_spectra["quartic-jb4"].largest_block()
    with pytest.raises(ArgumentError):
        predict_splitting_nongeneric(block, E11, 1e-4)


def test_doubly_degenerate_direction_rejected(catalog_spectra):
    block = catalog_spectra["quartic-jb4"].largest_block()
    with pytest.raises(HigherOrderNonGenericError):
        predict_splitting_nongeneric(block, np.zeros((2, 2)), 1e-4)


# --- predictions on an eps grid ------------------------------------------------

SIGNED_EPS_GRID = np.array([-1e-4, -3e-7, 0.0, 1e-9, 2.5e-6, 1e-4])


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_grid_predictions_equal_scalar_calls(catalog_spectra):
    # a grid call is one prediction whose fields stack the scalar calls:
    # row e of every per-eps field equals the call at the e-th eps bit for
    # bit, the other fields are the scalar call's, and a direction without
    # a prediction raises what the scalar call raises
    compared = 0
    for name, spec in catalog_spectra.items():
        n = spec.system.N
        for block in spec.blocks:
            for dk in (E11[:n, :n], MU_QUARTIC[:n, :n], MU_CUBIC[:n, :n]):
                generic = _generic(block, dk)
                predict = (predict_splitting if generic
                           else predict_splitting_nongeneric)
                try:
                    want = [predict(block, dk, eps) for eps in SIGNED_EPS_GRID]
                except (ArgumentError, HigherOrderNonGenericError) as exc:
                    with pytest.raises(type(exc)):
                        predict(block, dk, SIGNED_EPS_GRID)
                    continue
                got = predict(block, dk, SIGNED_EPS_GRID)
                assert type(got) is type(want[0])
                stacked = ({"lam", "shifts", "eigenvalues", "split_vectors",
                            "norms"} if generic else {"shifts", "eigenvalues"})
                for field, value in vars(got).items():
                    if field not in stacked:
                        assert all(_same_bits(value, getattr(w, field))
                                   for w in want), (name, field)
                        continue
                    assert len(value) == SIGNED_EPS_GRID.size
                    for e, w in enumerate(want):
                        assert _same_bits(value[e], getattr(w, field)), (
                            name, block.label, field, e)
                if generic:
                    # f_k = sum_n (lambda zeta_k)^n f_n, one vector at a
                    # time in scalar arithmetic
                    m = block.size
                    zeta = np.exp(2j * np.pi * np.arange(m) / m)
                    for lam, vectors in zip(got.lam, got.split_vectors):
                        want_vectors = np.array([
                            sum((complex(lam) * z) ** n * block.chain[n]
                                for n in range(m))
                            for z in zeta
                        ])
                        assert _same_bits(vectors, want_vectors)
                compared += 1
    # 24 cases, three of them non-generic; only crossed-pair's second block
    # along e11 has neither xi nor xi'
    assert compared == 23


def test_grid_predictions_check_the_direction(catalog_spectra):
    block = catalog_spectra["quartic-jb4"].largest_block()
    with pytest.raises(NonGenericPerturbationError):
        predict_splitting(block, MU_QUARTIC, SIGNED_EPS_GRID)
    with pytest.raises(ArgumentError):
        predict_splitting_nongeneric(block, E11, SIGNED_EPS_GRID)


@pytest.mark.parametrize(
    "eps", [np.full((2, 2), 1e-4), np.inf, [1e-4, np.nan]],
    ids=["eps-2d", "eps-inf", "eps-grid-nan"],
)
@pytest.mark.parametrize(
    "predict, dk",
    [(predict_splitting, E11), (predict_splitting_nongeneric, MU_QUARTIC)],
    ids=["generic", "nongeneric"],
)
def test_predictions_reject_bad_eps(catalog_spectra, predict, dk, eps):
    block = catalog_spectra["quartic-jb4"].largest_block()
    with pytest.raises(ArgumentError):
        predict(block, dk, eps)


@pytest.mark.parametrize("figure", [1, 2])  # generic and non-generic
def test_track_predicts_each_sweep_in_one_call(tmp_path, monkeypatch, figure):
    from critmode import cli, perturb

    grids = {"predict": [], "solve": []}

    def counted(stage, fn):
        def wrapper(first, delta_k, eps, *args, **kwargs):
            grids[stage].append(np.shape(eps))
            return fn(first, delta_k, eps, *args, **kwargs)
        return wrapper

    # cli predicts through the cores that perturb._predictor hands it
    monkeypatch.setattr(perturb, "_predict_splitting",
                        counted("predict", perturb._predict_splitting))
    monkeypatch.setattr(perturb, "_predict_nongeneric",
                        counted("predict", perturb._predict_nongeneric))
    monkeypatch.setattr(cli, "exact_perturbed_spectrum",
                        counted("solve", exact_perturbed_spectrum))
    assert cli.main(["reproduce-figure", "--figure", str(figure),
                     "--out", str(tmp_path)]) == 0
    # one track: the display sweep (n = 1..8 of the caption grid) and the
    # 9-point fit are predicted, and the non-generic direction's 8-point
    # static grid is solved along with them
    assert grids["predict"] == [(17,)]
    assert grids["solve"] == [(17,) if figure == 1 else (25,)]


@pytest.mark.parametrize(
    "argv",
    [["reproduce-figure", "--figure", "1"], ["reproduce-figure", "--figure", "2"],
     ["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11"],
     ["perturb", "--system", "catalog:quartic-jb4", "--dk", "mu:1,-1.5,2"],
     ["cancellation", "--system", "catalog:quartic-jb4"]],
    ids=["figure-generic", "figure-nongeneric", "perturb-generic",
         "perturb-nongeneric", "cancellation"],
)
def test_run_takes_one_genericity_threshold(tmp_path, monkeypatch, argv):
    # the genericity decision, with its |DK|_2, is made once per run: handed
    # to the predictor by perturb and reproduce-figure, and made by the
    # predictor itself in a cancellation run
    from critmode import cli, perturb

    calls = []

    def counted(block, dk):
        calls.append(block.omega)
        return threshold(block, dk)

    threshold = perturb._genericity_threshold
    monkeypatch.setattr(perturb, "_genericity_threshold", counted)
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def _per_eps_sweep_rows(spectrum, block, dk, eps_values, predict):
    """cli._sweep_rows as one scalar call of each stage per eps."""
    w, gap = block.omega, spectral_gap(spectrum, block)
    evals = exact_perturbed_spectrum(spectrum.system, dk, eps_values[1:])
    rows = [[0.0, k, w.real, w.imag, w.real, w.imag, 0.0]
            for k in range(block.size)]
    for eps, row in zip(eps_values[1:], evals):
        numerical = w + cluster_shifts(row, w, block.size, gap)
        predicted = predict(block, dk, eps).eigenvalues
        numerical = numerical[np.argsort(assign_predictions(numerical,
                                                            predicted))]
        rows += [[eps, k, z.real, z.imag, p.real, p.imag, abs(z - p)]
                 for k, (z, p) in enumerate(zip(numerical, predicted))]
    return rows


def _per_eps_figure_summary(spectrum, block, dk, eps0, generic, fit_decades):
    """cli.figure_summary as one scalar call of each stage per eps."""
    gap = spectral_gap(spectrum, block)
    fit_grid = np.sign(eps0) * np.logspace(fit_decades[0], fit_decades[1], 9)
    predict = predict_splitting if generic else predict_splitting_nongeneric
    evals = exact_perturbed_spectrum(spectrum.system, dk, fit_grid)
    movings, errors, lams = [], [], []
    for eps, row in zip(fit_grid, evals):
        pred = predict(block, dk, eps)
        shifts = cluster_shifts(row, block.omega, block.size, gap)
        moving = shifts if generic else shifts[np.argsort(np.abs(shifts))[1:]]
        predicted = pred.shifts[assign_predictions(moving, pred.shifts)]
        movings.append(moving)
        errors.append(float(np.mean(np.abs(moving - predicted))))
        lams.append(float(abs(pred.shifts[0])))
    exponent, exp_res = loglog_slope(
        np.abs(fit_grid), [float(np.mean(np.abs(m))) for m in movings])
    error_slope, _ = loglog_slope(lams, errors)
    first, worst_ang = movings[0], 0.0
    sector = 2.0 * np.pi / len(first)
    for i in range(len(first)):
        for j in range(i + 1, len(first)):
            d = np.angle(first[i] / first[j])
            worst_ang = max(worst_ang, abs(d - sector * round(d / sector)))
    summary = {
        "exponent": exponent,
        "exponent_fit_residual": exp_res,
        "first_order_error_slope": error_slope,
        "equiangular_worst_offset": worst_ang,
        "equiangular_allowance": 5.0 * lams[0],
        "lambda_smallest": lams[0],
    }
    if not generic:
        eps_disp = np.sign(eps0) * np.logspace(-5, -2, 8)
        statics = [
            float(np.min(np.abs(cluster_shifts(row, block.omega, block.size,
                                               gap))))
            for row in exact_perturbed_spectrum(spectrum.system, dk, eps_disp)
        ]
        summary["static_mode_slope"] = loglog_slope(np.abs(eps_disp),
                                                    statics)[0]
    return summary


@pytest.mark.parametrize("eps0", [1e-4, -1e-4])
@pytest.mark.parametrize("figure", range(1, 6))
def test_figure_stages_over_the_grid_equal_per_eps_calls(figure, eps0):
    # the sweep rows and the summary taken from one track over the display,
    # fit and static grids equal, bit for bit, those of one scalar call per
    # stage and eps on the same spectra
    from critmode import cli

    fig = cli.FIGURES[figure]
    spec = compute_spectrum(catalog_entry(fig["system"]).system)
    block = spec.largest_block()
    dk = cli._parse_delta_k(fig["dk"], spec.system.N)
    generic = _generic(block, dk)
    predict = predict_splitting if generic else predict_splitting_nongeneric
    eps_values = cli._eps_grid(eps0, fig["power"], 9)
    fit_grid = np.sign(eps0) * np.logspace(*fig["fit_decades"], cli.FIT_POINTS)
    static_grid = (np.empty(0) if generic else np.sign(eps0)
                   * np.logspace(*cli.STATIC_DECADES, cli.STATIC_POINTS))
    shifts, predicted_shifts, predicted = cli._track(
        spec, block, dk, np.concatenate([eps_values[1:], fit_grid, static_grid]),
        predict, 8 + fit_grid.size)
    got = cli._sweep_rows(block, eps_values, block.omega + shifts[:8],
                          predicted[:8])
    want = _per_eps_sweep_rows(spec, block, dk, eps_values, predict)
    assert _same_bits(np.array(got), np.array(want))
    got = cli.figure_summary(generic, fit_grid, shifts[8:17],
                             predicted_shifts[8:], static_grid, shifts[17:])
    want = _per_eps_figure_summary(spec, block, dk, eps0, generic,
                                   fig["fit_decades"])
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert _same_bits(got[key], value), key


@pytest.mark.parametrize(
    "call",
    [
        lambda sys, block, dk: xi_generic(block, dk),
        lambda sys, block, dk: xi_prime(block, dk),
        lambda sys, block, dk: predict_splitting(block, dk, 1e-6),
        lambda sys, block, dk: predict_splitting_nongeneric(block, dk, 1e-6),
        lambda sys, block, dk: j1_coefficient(sys, dk),
        lambda sys, block, dk: exact_perturbed_spectrum(sys, dk, 1e-6),
        lambda sys, block, dk: cluster_cancellation_experiment(
            sys, dk, 1e-6, block.chain[0], [0.0, 1.0]),
    ],
    ids=["xi_generic", "xi_prime", "predict_splitting",
         "predict_splitting_nongeneric", "j1_coefficient",
         "exact_perturbed_spectrum", "cluster_cancellation_experiment"],
)
@pytest.mark.parametrize(
    "dk", [np.eye(2), [[np.nan]], [[np.inf]]], ids=["2x2", "nan", "inf"],
)
def test_perturb_entry_points_check_delta_k(catalog_spectra, call, dk):
    # single-critical has N = 1: a 2x2 DK used to give xi = 2 and a
    # prediction, a NaN DK xi = nan
    spec = catalog_spectra["single-critical"]
    with pytest.raises(ArgumentError, match="DK"):
        call(spec.system, spec.largest_block(), dk)


# --- determinant route -------------------------------------------------------------

def test_j1_quartic_reference(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    res = j1_coefficient(spec.system, E11, spectrum=spec)
    assert abs(res.closed_form - 2.0) <= 1e-12
    assert res.xi_relation_residual <= 1e-12
    assert res.difference <= 1e-6


def test_j1_nongeneric_direction_vanishes(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    res = j1_coefficient(spec.system, MU_QUARTIC, spectrum=spec)
    assert abs(res.closed_form) <= 1e-12


def test_j1_cubic_and_double(catalog_spectra):
    for name in ("cubic-jb3", "double-jb2"):
        spec = catalog_spectra[name]
        res = j1_coefficient(spec.system, E11, spectrum=spec)
        assert res.xi_relation_residual <= 1e-12, name
        assert res.difference <= 1e-6, name


def test_j1_closed_vs_finite_difference_random(catalog_spectra):
    rng = np.random.default_rng(19)
    spec = catalog_spectra["quartic-jb4"]
    for _ in range(10):
        a = rng.standard_normal((2, 2))
        mu = a + a.T
        res = j1_coefficient(spec.system, mu, spectrum=spec)
        scale = max(1.0, abs(res.closed_form))
        assert res.difference <= 1e-6 * scale


def test_j1_rejects_the_spectrum_of_another_system(catalog_spectra):
    with pytest.raises(ArgumentError, match="another system"):
        j1_coefficient(catalog_spectra["cubic-jb3"].system, E11,
                       spectrum=catalog_spectra["quartic-jb4"])


def test_j1_rejects_a_block_in_a_level_crossing(catalog_spectra):
    # crossed-pair's two size-2 blocks sit at one omega: the spectator
    # factor of either would hold the other at distance 0, so the block is
    # refused with a typed error and no numpy warning before it
    spec = catalog_spectra["crossed-pair"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError,
                           match=r"isolated block.*sizes \[2, 2\]"):
            j1_coefficient(spec.system, E11, spectrum=spec)


def test_j1_requires_critical_system():
    sys = build_system(np.diag([1.0, 4.0]), np.zeros((2, 2)))
    with pytest.raises(ArgumentError):
        j1_coefficient(sys, E11)


# --- the perturbed block -----------------------------------------------------

CROSSING = (r"needs an isolated block: omega = \S+ is a level crossing of "
            r"blocks of sizes \[2, 2\]")
NOT_CRITICAL = r"needs a critical system \(a block with M >= 2\)"


def test_critical_block_is_the_largest_block(catalog_spectra):
    for name in ("single-critical", "quartic-jb4", "cubic-jb3", "double-jb2"):
        spec = catalog_spectra[name]
        assert critical_block(spec, "test") is spec.largest_block(), name
    with pytest.raises(ArgumentError, match="^test " + CROSSING):
        critical_block(catalog_spectra["crossed-pair"], "test")


@pytest.mark.parametrize("system", ["crossed-pair", "random N=2"])
@pytest.mark.parametrize("entry", ["perturb", "cancellation",
                                   "cluster_cancellation_experiment",
                                   "j1_coefficient"])
def test_entry_points_refuse_by_critical_block(entry, system, catalog_entries,
                                               tmp_path, capsys):
    # one rule picks the perturbed block and decides whether it is
    # admissible, and every entry point words its refusal by its own name
    if system == "crossed-pair":
        sys, match = catalog_entries[system].system, CROSSING
    else:
        sys = well_separated_system(np.random.default_rng(0), 2)
        match = NOT_CRITICAL
    if entry == "cluster_cancellation_experiment":
        with pytest.raises(ArgumentError, match=f"^{entry} {match}"):
            cluster_cancellation_experiment(sys, E11, 1e-8, np.ones(4), [0.0])
    elif entry == "j1_coefficient":
        with pytest.raises(ArgumentError, match=f"^{entry} {match}"):
            j1_coefficient(sys, E11)
    else:
        save_system(sys, tmp_path / "system.json")
        code = cli_main([entry, "--system", str(tmp_path / "system.json"),
                         "--dk", "e11", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        if entry == "cancellation" and system == "random N=2":
            # every block has M = 1: the diagonalizable branch runs first
            assert code == 0
            summary = json.loads(
                (tmp_path / "out" / "cancellation_summary.json").read_text())
            assert summary["diagonalizable"] is True
        else:
            assert code == 2
            assert re.match(f"error: {entry} {match}", err), err


# --- exact spectra and fits ---------------------------------------------------------

def test_exact_perturbed_spectrum_at_zero(catalog_spectra):
    sys = catalog_spectra["quartic-jb4"].system
    evals = exact_perturbed_spectrum(sys, E11, 0.0)
    assert np.max(np.abs(evals + 1j)) <= 1e-3  # fourfold root scatter


def _mpmath_eigvals(h, dps=30):
    """Eigenvalues of h from mpmath at dps digits, rounded to complex."""
    with mpmath.workdps(dps):
        evals = mpmath.eig(mpmath.matrix(h.tolist()), left=False, right=False)
    return np.array([complex(z) for z in evals])


def test_exact_perturbed_spectrum_vs_dense_oracle(catalog_spectra):
    cases = [
        ("quartic-jb4", 1e-4, 1e-8),
        # a defective double eigenvalue persists under e11, which double
        # precision resolves only to about sqrt(machine epsilon)
        ("crossed-pair", 1e-4, 1e-6),
        ("crossed-pair", 1e-6, 1e-6),
        ("crossed-pair", 1e-8, 1e-6),
    ]
    for name, eps, bound in cases:
        sys = catalog_spectra[name].system
        got = exact_perturbed_spectrum(sys, E11, eps)
        assert np.array_equal(got, np.sort_complex(got))
        pert = build_system(sys.K + eps * E11, sys.Gamma)
        want = _mpmath_eigvals(evolution_operator(pert))
        cost = np.abs(got[:, None] - want[None, :])
        rows, cols = linear_sum_assignment(cost)
        assert rows.size == want.size == got.size
        assert np.max(cost[rows, cols]) <= bound, (name, eps)
    got = exact_perturbed_spectrum(catalog_spectra["quartic-jb4"].system, E11, 1e-4)
    radii = np.abs(got + 1j)
    assert np.all(np.abs(radii - 0.1189) < 3e-3)


GRID_EPS = np.array([0.0, 1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2, -1e-2])


def test_exact_perturbed_spectrum_grid_is_scalar_and_rebuilt_system(catalog_spectra):
    # each row of a grid call is, bit for bit, the scalar call and i times
    # the real spectrum of a = -i H of the system rebuilt at K + eps DK; a
    # is real, so each row is its own mirror image omega -> -conj(omega)
    for name, spec in catalog_spectra.items():
        sys = spec.system
        directions = [E11, MU_QUARTIC, MU_CUBIC] if sys.N == 2 else [np.eye(1)]
        for dk in directions:
            grid = exact_perturbed_spectrum(sys, dk, GRID_EPS)
            assert grid.shape == (GRID_EPS.size, sys.dim)
            for eps, row in zip(GRID_EPS, grid):
                assert np.array_equal(row, exact_perturbed_spectrum(sys, dk, eps))
                rebuilt = build_system(sys.K + eps * dk, sys.Gamma)
                a = (-1j * evolution_operator(rebuilt)).real
                want = np.sort_complex(1j * np.linalg.eigvals(a))
                assert np.array_equal(row, want), (name, eps)
                assert np.array_equal(np.sort_complex(-row.conj()), row), (
                    name, eps)


SIGNED_DECADES = np.concatenate([s * np.logspace(-14, -1, 14) for s in (1, -1)])


def test_exact_perturbed_spectrum_is_the_complex_route_bit_for_bit(
        catalog_spectra):
    # the real stack a(eps) is assembled from K, Gamma and DK; its
    # eigenvalues must be those of (-i H).real + eps (-i DH).real, the
    # route through the complex operators, to the last bit, along e11 and a
    # random symmetric direction of every catalog system
    from critmode.perturb import delta_h

    rng = np.random.default_rng(11)
    for name, spec in catalog_spectra.items():
        sys = spec.system
        r = rng.standard_normal((sys.N, sys.N))
        e11 = np.zeros((sys.N, sys.N))
        e11[0, 0] = 1.0
        for dk in (e11, r + r.T):
            a0 = (-1j * evolution_operator(sys)).real
            da = (-1j * delta_h(dk)).real
            grid = exact_perturbed_spectrum(sys, dk, SIGNED_DECADES)
            for eps, row in zip(SIGNED_DECADES, grid):
                want = np.sort_complex(1j * np.linalg.eigvals(a0 + eps * da))
                assert np.array_equal(row, want), (name, eps)
                assert np.array_equal(
                    exact_perturbed_spectrum(sys, dk, eps), want), (name, eps)


@pytest.mark.parametrize(
    "dk, eps",
    [
        (np.array([[1.0, 1.0], [0.0, 0.0]]), 1e-4),
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), 1e-4),
        (np.eye(3), 1e-4),
        (E11, np.full((2, 2), 1e-4)),
        (E11, np.inf),
        (E11, [1e-4, np.nan]),
    ],
    ids=["dk-asymmetric", "dk-nan", "dk-3x3", "eps-2d", "eps-inf",
         "eps-grid-nan"],
)
def test_exact_perturbed_spectrum_rejects_bad_input(catalog_spectra, dk, eps):
    with pytest.raises(ArgumentError):
        exact_perturbed_spectrum(catalog_spectra["quartic-jb4"].system, dk, eps)


def test_double_family_stays_doubly_degenerate():
    from critmode.design import double2_critical

    for b in (0.4, 1.0, 1.7):
        sys = double2_critical(b)
        spec = compute_spectrum(sys)
        assert sorted(bb.size for bb in spec.blocks) == [2, 2], b


def test_spectral_gap_skips_the_blocks_of_its_own_crossing(catalog_spectra):
    # crossed-pair's two size-2 blocks split together: neither is the
    # other's neighbour, so there is no foreign eigenvalue at all; with a
    # third oscillator beside them, the gap is the distance to its modes at
    # +-sqrt(63)/4 - i/4, sqrt(4.5) from -i
    spec = catalog_spectra["crossed-pair"]
    assert [spectral_gap(spec, b) for b in spec.blocks] == [np.inf, np.inf]
    k, gamma = np.zeros((3, 3)), np.zeros((3, 3))
    k[:2, :2], gamma[:2, :2] = spec.system.K, spec.system.Gamma
    k[2, 2], gamma[2, 2] = 4.0, 0.5
    wider = compute_spectrum(build_system(k, gamma))
    crossing = [b for b in wider.blocks if b.size == 2]
    assert len(crossing) == 2
    for b in crossing:
        assert spectral_gap(wider, b) == pytest.approx(np.sqrt(4.5), rel=1e-12)


def test_cluster_shifts_ambiguity():
    evals = np.array([0.6 + 0.0j, 1.0 + 0.0j])
    with pytest.raises(MatchingAmbiguityError):
        cluster_shifts(evals, 0.0, 1, gap=1.0)
    # well-inside shifts pass
    np.testing.assert_allclose(
        cluster_shifts(np.array([0.1 + 0.0j, 1.0 + 0.0j]), 0.0, 1, gap=1.0),
        [0.1 + 0.0j],
    )
    # a stack of spectra is one call per row: the same bits, ties of
    # distance included, and it raises iff a row does, with the first such
    # row's text
    rng = np.random.default_rng(11)
    raised = 0
    for trial in range(300):
        stack = np.round(rng.standard_normal((5, 6))
                         + 1j * rng.standard_normal((5, 6)), 1)
        size = int(rng.integers(1, 7))
        gap = None if trial % 4 == 0 else float(rng.uniform(1.0, 5.0))
        want, errors = [], []
        for row in stack:
            try:
                want.append(cluster_shifts(row, 0.1j, size, gap))
            except MatchingAmbiguityError as exc:
                errors.append(str(exc))
        if errors:
            raised += 1
            with pytest.raises(MatchingAmbiguityError) as info:
                cluster_shifts(stack, 0.1j, size, gap)
            assert str(info.value) == errors[0]
            continue
        got = cluster_shifts(stack, 0.1j, size, gap)
        assert got.shape == (5, size)
        for g, w in zip(got, want):
            assert _same_bits(g, w)
    assert 50 < raised < 200, raised


def test_cluster_shifts_rejects_size_above_count():
    for evals in (np.array([1 + 0j]), np.ones((4, 1), dtype=complex)):
        with pytest.raises(ArgumentError, match="size 3 exceeds the 1 eigenvalues"):
            cluster_shifts(evals, 0, 3)


def test_assign_predictions_is_optimal_permutation():
    num = np.array([1.0, 1.0j, -1.0])
    pred = np.array([-1.01, 0.99, 1.02j])
    perm = assign_predictions(num, pred)
    assert list(perm) == [1, 2, 0]


@pytest.mark.parametrize("m", range(1, 9))
def test_assign_predictions_cost_matches_hungarian_oracle(m):
    rng = np.random.default_rng(m)
    for _ in range(5):
        num = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pred = num[rng.permutation(m)] + 0.3 * (
            rng.standard_normal(m) + 1j * rng.standard_normal(m)
        )
        cost = np.abs(num[:, None] - pred[None, :])
        rows, cols = linear_sum_assignment(cost)
        perm = assign_predictions(num, pred)
        assert sorted(perm) == list(range(m))
        assert cost[np.arange(m), perm].sum() == pytest.approx(
            cost[rows, cols].sum(), rel=1e-12
        )
    # a stack is one call per row, bit for bit; integer points tie many
    # assignments, where each row takes the first lexicographic minimum
    stacks = []
    for _ in range(4):
        num = np.round(rng.standard_normal((6, m))
                       + 1j * rng.standard_normal((6, m)))
        pred = np.round(rng.standard_normal((6, min(m + 1, 8)))
                        + 1j * rng.standard_normal((6, min(m + 1, 8))))
        stacks.append((num, pred))
    if m == 8:
        # the two points at 1 tie assignments whose totals round apart when
        # the costs are summed in another order than the one-row call's
        num = [-1 - 1j, 0, -1, -1j, -1 + 2j, 1, -1 + 1j, 1]
        pred = [-1, 3 - 1j, 2 + 1j, -1, -1j, -3 - 1j, 1j, -1 - 2j]
        stacks.append((np.tile(num, (2, 1)), np.tile(pred, (2, 1))))
    for num, pred in stacks:
        got = assign_predictions(num, pred)
        assert got.shape == (len(num), m)
        for g, a, b in zip(got, num, pred):
            assert _same_bits(g, assign_predictions(a, b))


def test_assign_predictions_rejects_large_m():
    with pytest.raises(ArgumentError, match="M = 9"):
        assign_predictions(np.zeros(9), np.arange(9.0))
    with pytest.raises(ArgumentError, match="M = 9"):
        assign_predictions(np.zeros((2, 9)), np.ones((2, 9)))


def _scipy_modules_after(code):
    src = str(Path(critmode.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         code + "; import sys; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def test_import_critmode_loads_no_scipy():
    assert _scipy_modules_after("import critmode") == "[]"


def test_reproduce_figure_loads_no_scipy(tmp_path):
    # figure 1 pairs numerical and predicted eigenvalues with assign_predictions
    code = (
        "from critmode.cli import main; "
        f"assert main(['reproduce-figure', '--figure', '1', '--out', {str(tmp_path)!r}]) == 0"
    )
    assert _scipy_modules_after(code) == "[]"


def test_equiangular_directions_numerical(catalog_spectra):
    # numerical shifts at eps = 1e-8: pairwise angles within 5|lambda| of
    # multiples of 2 pi / M
    for name, m in (("quartic-jb4", 4), ("cubic-jb3", 3), ("double-jb2", 2)):
        spec = catalog_spectra[name]
        block = spec.largest_block()
        eps = 1e-8
        pred = predict_splitting(block, E11, eps)
        lam = abs(pred.lam)
        evals = exact_perturbed_spectrum(spec.system, E11, eps)
        shifts = cluster_shifts(evals, block.omega, m)
        sector = 2.0 * np.pi / m
        for i in range(m):
            for j in range(i + 1, m):
                d = np.angle(shifts[i] / shifts[j])
                offset = abs(d - sector * round(d / sector))
                assert offset <= 5.0 * lam, name


def test_first_order_accuracy_slope(catalog_spectra):
    # |numerical - predicted| shrinks at least quadratically in lambda
    spec = catalog_spectra["quartic-jb4"]
    block = spec.largest_block()
    lams, errs = [], []
    for eps in np.logspace(-8, -4, 9):
        pred = predict_splitting(block, E11, eps)
        evals = exact_perturbed_spectrum(spec.system, E11, eps)
        shifts = cluster_shifts(evals, block.omega, 4)
        perm = assign_predictions(shifts, pred.shifts)
        errs.append(float(np.mean(np.abs(shifts - pred.shifts[perm]))))
        lams.append(abs(pred.lam))
    slope, _ = loglog_slope(lams, errs)
    assert slope >= 1.9


@pytest.mark.parametrize("seed", range(4))
def test_loglog_slope_matches_polyfit(seed):
    # the closed-form centred fit against numpy's least-squares line
    rng = np.random.default_rng(seed)
    x = np.logspace(-8, -4, 9) * rng.uniform(0.5, 2.0, 9)
    y = 3.0 * x ** rng.uniform(0.2, 2.0) * np.exp(rng.normal(0.0, 0.1, 9))
    lx, ly = np.log10(x), np.log10(y)
    coeff = np.polyfit(lx, ly, 1)
    rms = np.sqrt(np.mean((ly - np.polyval(coeff, lx)) ** 2))
    slope, residual = loglog_slope(x, y)
    assert slope == pytest.approx(coeff[0], rel=1e-12)
    assert residual == pytest.approx(rms, rel=1e-9)


@pytest.mark.parametrize(
    "x, y",
    [([1e-3], [2e-3]), ([1e-3, 1e-3, 1e-3], [1.0, 2.0, 3.0]),
     ([1e-3, 1e-2], [1.0, 2.0, 3.0]), (np.ones((2, 2)), np.ones((2, 2)))],
    ids=["one-point", "one-x", "lengths", "2d"],
)
def test_loglog_slope_rejects_a_degenerate_fit(x, y):
    with pytest.raises(ArgumentError):
        loglog_slope(x, y)
