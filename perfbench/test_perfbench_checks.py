"""The benchmark's checkers accept correct outputs and reject corrupted ones.

Each test computes one real result through critmode, shows that its checker
passes it, then corrupts it by a small amount and shows the checker rejects
it.  Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import argparse
import json

import numpy as np
import pytest
import scipy.linalg

import critmode as cm
from critmode import cli

import checks
import tracing
import worker
import workloads


@pytest.fixture(scope="module")
def small_system():
    k, gamma = workloads.well_separated(np.random.default_rng(7), 2)
    return k, gamma, cm.compute_spectrum(cm.build_system(k, gamma))


def test_eigenvalue_off_by_1e7_is_rejected(small_system):
    k, gamma, spectrum = small_system
    omegas = np.array([b.omega for b in spectrum.blocks])
    reference = checks.mp_eigenvalues(checks.phase_operator(k, gamma))
    assert checks.check_eigenvalues(omegas, reference) == []
    omegas[1] += 1e-7
    assert checks.check_eigenvalues(omegas, reference)


def test_chain_vector_scaled_by_1e6_is_rejected():
    system = cm.catalog_system("cubic-jb3")
    spectrum = cm.compute_spectrum(system)
    h = checks.phase_operator(system.K, system.Gamma)
    g = checks.phase_metric(system.Gamma)
    blocks = [(b.omega, b.chain.copy()) for b in spectrum.blocks]
    assert checks.check_blocks(h, g, blocks) == []
    blocks[0][1][1] *= 1.0 + 1e-6
    assert checks.check_blocks(h, g, blocks)


def test_wrong_splitting_exponent_is_rejected(tmp_path):
    assert cli.main(["reproduce-figure", "--figure", "1", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "figure1_summary.json").read_text())
    _, _, m, nongeneric, xi, eps_min = workloads.FIGURES[1]
    lam = abs(eps_min * xi) ** (1.0 / m)
    assert checks.check_figure(summary, m, nongeneric, lam) == []
    summary["exponent"] = 0.30
    assert checks.check_figure(summary, m, nongeneric, lam)


def test_propagated_state_off_by_1e6_is_rejected():
    system = cm.catalog_system("quartic-jb4")
    spectrum = cm.compute_spectrum(system)
    h = checks.phase_operator(system.K, system.Gamma)
    phi = np.array([1.0, 0.5j, -0.25, 0.0])
    times = [0.0, 0.5, 2.0]
    states = [cm.evolve_state(spectrum, phi, t) for t in times]
    reference = [scipy.linalg.expm(-1j * h * t) @ phi for t in times]
    assert checks.check_states(states, reference) == []
    states[1] = states[1] + 1e-6
    assert checks.check_states(states, reference)


def test_rk4_state_off_by_1e6_is_rejected():
    system = cm.catalog_system("double-jb2")
    h = checks.phase_operator(system.K, system.Gamma)
    phi = np.array([0.0, 1.0, 1.0j, 0.0])
    times = [0.005, 0.01]
    states = cm.rk4_evolve(system, phi, times)
    props = [scipy.linalg.expm(-1j * h * t) for t in times]
    reference = [p @ phi for p in props]
    growth = max(1.0, *(np.linalg.norm(p, 2) for p in props))
    bound = checks.rk4_error_bound(h, phi, times[-1], 1e-4, growth)
    assert checks.check_rk4(states, reference, bound) == []
    assert checks.check_rk4(states[:1], reference, bound)
    states[0] += 1e-6
    assert checks.check_rk4(states, reference, bound)


def _one_pass(ops):
    """The worker's verdict on one pass over ``ops``."""
    args = argparse.Namespace(trace=0, passes=1, seconds=0.0)
    return worker._measure(args, workloads.Workload("test", ops), tracing,
                           {"setup_s": 0.0}, 0.0)


def _raise():
    raise cm.VerificationError("residual too large")


def test_raise_on_input_not_known_to_fail_makes_run_incorrect(capsys):
    def check(out, reference):
        return []

    assert "N1#0" not in workloads.KNOWN_FAILURES
    assert "N8#1" in workloads.KNOWN_FAILURES
    ops = [workloads.Op("N1#0", "N=1", _raise, check),
           workloads.Op("N8#1", "N=8", _raise, check)]
    assert _one_pass(ops) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2
    assert list(result["unexpected"]) == ["N1#0"]


def test_known_failure_that_passes_is_reported(capsys):
    def check(out, reference):
        return [] if out == 1 else ["wrong"]

    ops = [workloads.Op("N8#1", "N=8", lambda: 1, check),
           workloads.Op("N8#2", "N=8", lambda: 2, check)]
    assert _one_pass(ops) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 1
    assert result["unexpected_passes"] == ["N8#1"]


def test_tracer_sees_every_binding_and_restores_them():
    original = cm.linalg.poly_roots
    system = cm.catalog_system("single-critical")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cm.jordan.poly_roots is cm.linalg.poly_roots is not original
        cm.compute_spectrum(system)
        tracer.end_pass()
    finally:
        tracer.uninstall()
    assert cm.jordan.poly_roots is original and cm.linalg.poly_roots is original
    assert tracer.calls["linalg.poly_roots"] == 1
    assert tracer.calls["jordan.compute_spectrum"] == 1
    spent = tracer.inclusive["jordan.compute_spectrum"]
    assert 0.0 < tracer.root_stage <= spent
    assert sum(tracer.self_time.values()) == pytest.approx(spent)
