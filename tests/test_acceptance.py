"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import json
import time

import numpy as np

from critmode.cli import main as cli_main
from critmode.dynamics import (
    check_sum_rules,
    cluster_cancellation_experiment,
    evolve_state,
    greens_freq,
    rk4_evolve,
)
from critmode.design import cubic_critical, double2_critical, quartic_critical
from critmode.jordan import compute_spectrum, verify_representations, verify_spectrum
from critmode.linalg import char_poly, poly_from_roots
from critmode.model import bilinear, evolution_operator
from critmode.perturb import loglog_slope, xi_generic, xi_prime

from conftest import well_separated_system

E11 = np.array([[1.0, 0.0], [0.0, 0.0]])
MU_QUARTIC = np.array([[1.0, -1.5], [-1.5, 2.0]])
MU_CUBIC = np.array([[-2.0, 0.5], [0.5, 1.0]])


def _report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _match_up_to_sign(got, want, tol=1e-10):
    """Elementwise agreement allowing one overall sign for the whole block."""
    best = min(
        float(np.max(np.abs(sgn * got - want))) for sgn in (1.0, -1.0)
    )
    return best, best <= tol


def test_criterion_1_fixture_reproduction(catalog_entries):
    t0 = time.perf_counter()
    worst = 0.0
    for name in ("single-critical", "quartic-jb4", "cubic-jb3", "double-jb2"):
        entry = catalog_entries[name]
        spectrum = compute_spectrum(entry.system)
        for index, rows in entry.chains.items():
            block = entry.matching_block(spectrum, index)
            want_chain = np.array([r.to_array() for r in rows])
            want_duals = np.array([r.to_array() for r in entry.duals[index]])
            # one sign per block, shared between chain and duals
            candidates = []
            for sgn in (1.0, -1.0):
                d = max(
                    float(np.max(np.abs(sgn * block.chain - want_chain))),
                    float(np.max(np.abs(sgn * block.duals - want_duals))),
                )
                candidates.append(d)
            dev = min(candidates)
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    _report(
        1,
        "fixture reproduction",
        worst <= 1e-10 and elapsed < 1.0,
        f"max deviation {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_2_xi_values(catalog_spectra):
    checks = []
    bq = catalog_spectra["quartic-jb4"].largest_block()
    bc = catalog_spectra["cubic-jb3"].largest_block()
    bd = catalog_spectra["double-jb2"].block(1)
    checks.append(abs(xi_generic(bq, E11) - (-2.0)))
    checks.append(abs(xi_generic(bc, E11) - 4.0j / 15.0))
    checks.append(abs(xi_generic(bd, E11) - (-(9.0 + 12.0j) / 32.0)))
    checks.append(abs(xi_generic(bq, MU_QUARTIC)))
    checks.append(abs(xi_prime(bq, MU_QUARTIC) - 1.0j))
    checks.append(abs(xi_generic(bc, MU_CUBIC)))
    checks.append(abs(xi_prime(bc, MU_CUBIC) - 1.0))
    worst = max(checks)
    _report(2, "xi and xi' reference values", worst <= 1e-12,
            f"max deviation {worst:.2e}")


FIGURE_EXPECTATIONS = {
    1: {"exponent": 0.25},
    2: {"exponent": 1.0 / 3.0, "static": 1.0},
    3: {"exponent": 1.0 / 3.0},
    4: {"exponent": 0.5, "static": 1.0},
    5: {"exponent": 0.5},
}


def test_criterion_3_figure_reproduction(tmp_path):
    details = []
    ok = True
    for fig, want in FIGURE_EXPECTATIONS.items():
        t0 = time.perf_counter()
        out = tmp_path / f"fig{fig}"
        code = cli_main(
            ["reproduce-figure", "--figure", str(fig), "--out", str(out)]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        summary = json.loads(
            (out / f"figure{fig}_summary.json").read_text()
        )
        checks = [
            abs(summary["exponent"] - want["exponent"]) <= 0.01,
            summary["equiangular_worst_offset"]
            <= summary["equiangular_allowance"],
            summary["first_order_error_slope"] >= 1.9,
            elapsed < 30.0,
        ]
        if "static" in want:
            checks.append(abs(summary["static_mode_slope"] - want["static"]) <= 0.05)
        ok = ok and all(checks)
        details.append(
            f"fig{fig}: exp {summary['exponent']:.4f} "
            f"errslope {summary['first_order_error_slope']:.2f} "
            f"({elapsed:.1f}s)"
        )
    _report(3, "figure reproduction", ok, "; ".join(details))


def test_criterion_4_structural_invariants(catalog_spectra):
    systems = [spec.system for spec in catalog_spectra.values()]
    rng = np.random.default_rng(2024)
    while len(systems) < len(catalog_spectra) + 50:
        n = int(rng.integers(1, 5))
        systems.append(well_separated_system(rng, n))
    worst =ate = 0.0
    for sys in systems:
        spec = compute_spectrum(sys)
        report = verify_spectrum(spec, strict=False)
        reps = verify_representations(spec)
        rules = check_sum_rules(spec)
        worst = max(
            worst,
            report["chain_residual"],
            report["bilinear_gram_residual"],
            report["dual_biorthogonality_residual"],
            report["completeness_residual"],
            reps["max_deviation"],
            max(rules.max_abs),
        )
        assert report["block_sizes_sum_ok"]
    _report(
        4,
        "structural invariants (catalog + 50 random)",
        worst <= 1e-9,
        f"worst residual {worst:.2e}",
    )


def test_criterion_5_dynamics_oracle(catalog_spectra):
    rng = np.random.default_rng(77)
    spectra = dict(catalog_spectra)
    for i in range(20):
        n = int(rng.integers(1, 5))
        sys = well_separated_system(rng, n)
        spectra[f"random-{i}"] = compute_spectrum(sys)
    times = [0.5, 1.0, 2.0, 5.0]
    worst_evolve = 0.0
    worst_defect = 0.0
    for name, spec in spectra.items():
        dim = spec.system.dim
        phi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        oracle = rk4_evolve(spec.system, phi, times)
        for i, t in enumerate(times):
            got = evolve_state(spec, phi, t)
            rel = np.linalg.norm(got - oracle[i]) / np.linalg.norm(oracle[i])
            worst_evolve = max(worst_evolve, rel)
        h = evolution_operator(spec.system)
        poles = np.array([b.omega for b in spec.blocks])
        count = 0
        while count < 20:
            w = 2.0 * rng.standard_normal() + 2.0j * rng.standard_normal()
            if np.min(np.abs(w - poles)) < 0.05:
                continue
            count += 1
            g = greens_freq(spec, w)
            defect = np.linalg.norm((h - w * np.eye(dim)) @ g + 1j * np.eye(dim))
            worst_defect = max(worst_defect, defect)
    ok = worst_evolve <= 1e-8 and worst_defect <= 1e-9
    _report(
        5,
        "dynamics oracle equivalence",
        ok,
        f"worst evolve rel err {worst_evolve:.2e}, worst resolvent defect "
        f"{worst_defect:.2e}",
    )


def test_criterion_6_small_denominator_cancellation(catalog_spectra):
    spec = catalog_spectra["quartic-jb4"]
    phi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    t_grid = np.linspace(0.0, 1.5, 7)
    lams, weights, diffs = [], [], []
    for eps in np.logspace(-10, -6, 9):
        rep = cluster_cancellation_experiment(
            spec.system, E11, eps, phi, t_grid, spectrum=spec
        )
        lams.append(abs(rep.lam))
        weights.append(rep.max_weight)
        diffs.append(rep.max_diff)
    w_slope, _ = loglog_slope(lams, weights)
    d_slope, _ = loglog_slope(lams, diffs)
    ok = abs(w_slope - (-3.0)) <= 0.2 and abs(d_slope - 1.0) <= 0.5
    _report(
        6,
        "small-denominator cancellation",
        ok,
        f"weight slope {w_slope:.3f} (want -3 +/- 0.2), diff slope "
        f"{d_slope:.3f} (want 1 +/- 0.5)",
    )


def test_criterion_7_design_closure(catalog_spectra):
    import math

    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(50):
        x, y = rng.uniform(-1.5, 1.5, 2)
        if math.cosh(x) * math.cosh(y) > 3.0:
            continue
        sys = quartic_critical(x, y)
        dev = np.max(
            np.abs(char_poly(evolution_operator(sys)) - poly_from_roots([-1j] * 4))
        )
        worst = max(worst, float(dev))
    for _ in range(30):
        b = float(rng.uniform(0.2, 6.0))
        if abs(b - 1.0) < 0.05:
            continue
        try:
            sys = cubic_critical(b, float(rng.uniform(0.3, 6.0)))
        except Exception:
            continue
        dev = np.max(
            np.abs(
                char_poly(evolution_operator(sys))
                - poly_from_roots([-1j, -1j, -1j, -1j * b])
            )
        )
        worst = max(worst, float(dev))
    for _ in range(20):
        b = float(rng.uniform(0.05, 2.0))
        sys = double2_critical(b)
        dev = np.max(
            np.abs(
                char_poly(evolution_operator(sys))
                - poly_from_roots([b - 1j, b - 1j, -b - 1j, -b - 1j])
            )
        )
        worst = max(worst, float(dev))

    limit_dev = float(
        np.max(np.abs(double2_critical(1e-3).K - [[5.0, -2.0], [-2.0, 1.0]]))
    )

    crossed = catalog_spectra["crossed-pair"]
    cross_worst = 0.0
    blocks = crossed.blocks
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            for n in range(bi.size):
                for k in range(bj.size):
                    want = 1.0 if (i == j and n + k == bi.size - 1) else 0.0
                    cross_worst = max(
                        cross_worst,
                        abs(
                            bilinear(crossed.system, bi.chain[n], bj.chain[k])
                            - want
                        ),
                    )
    ok = worst <= 1e-10 and limit_dev <= 1e-2 and cross_worst <= 1e-9
    _report(
        7,
        "design-lab closure",
        ok,
        f"charpoly dev {worst:.2e}, b->0 limit dev {limit_dev:.2e}, "
        f"crossing pairing residual {cross_worst:.2e}",
    )
