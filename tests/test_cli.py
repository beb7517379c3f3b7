import importlib
import json
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import critmode
from critmode import ArgumentError, NumericalError, VerificationError
from critmode.cli import main
from critmode.model import save_system, build_system

from conftest import well_separated_system


def run(args):
    return main(args)


def test_analyze_quartic(tmp_path, capsys):
    code = run(["analyze", "--system", "catalog:quartic-jb4", "--out", str(tmp_path)])
    assert code == 0
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert spectrum["nu"] == 1
    assert spectrum["blocks"][0]["M"] == 4
    verification = json.loads((tmp_path / "verification.json").read_text())
    assert verification["pass"] is True
    sumrules = json.loads((tmp_path / "sumrules.json").read_text())
    assert sumrules["pass"] is True
    assert "pass" in capsys.readouterr().out


def test_analyze_crossed_pair(tmp_path):
    code = run(["analyze", "--system", "catalog:crossed-pair", "--out", str(tmp_path)])
    assert code == 0
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert sorted(b["M"] for b in spectrum["blocks"]) == [2, 2]


def test_analyze_writes_the_report_of_the_one_verification(tmp_path,
                                                          monkeypatch):
    # compute_spectrum keeps the report of its strict verify_spectrum call,
    # and analyze writes a copy of it: one verification per spectrum
    import critmode.cli as cli
    import critmode.jordan as jordan

    calls, spectra = [], []
    verify, compute = jordan.verify_spectrum, cli.compute_spectrum

    def counting_verify(*args, **kwargs):
        calls.append(1)
        return verify(*args, **kwargs)

    def keeping_compute(*args, **kwargs):
        spectra.append(compute(*args, **kwargs))
        return spectra[-1]

    monkeypatch.setattr(jordan, "verify_spectrum", counting_verify)
    monkeypatch.setattr(cli, "compute_spectrum", keeping_compute)
    code = run(["analyze", "--system", "catalog:double-jb2", "--out", str(tmp_path)])
    assert code == 0
    assert len(calls) == 1
    report = spectra[0].verification
    written = json.loads((tmp_path / "verification.json").read_text())
    assert {key: written[key] for key in report} == report
    # the representations and signs go to the copy, not to the spectrum
    assert "representations" in written and "representations" not in report


def test_analyze_random_diagonalizable(tmp_path):
    rng = np.random.default_rng(101)
    sys = well_separated_system(rng, 3)
    path = tmp_path / "sys.json"
    save_system(sys, path)
    code = run(["analyze", "--system", str(path), "--out", str(tmp_path)])
    assert code == 0
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert spectrum["nu"] == 6
    assert all(b["M"] == 1 for b in spectrum["blocks"])


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["analyze", "--system", str(bad), "--out", str(tmp_path)]) == 2
    capsys.readouterr()
    # an unknown catalog name and a --dk file that is not JSON print the
    # error's text, not the repr of a KeyError or a bare decoder message
    unknown = "error: no catalog entry named 'nope'\n"
    cases = [
        (["analyze", "--system", "catalog:nope"], unknown),
        (["design", "--family", "catalog", "--name", "nope"], unknown),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", str(bad)],
         f"error: cannot parse perturbation file {bad}: Expecting property "
         "name enclosed in double quotes: line 1 column 2 (char 1)\n"),
    ]
    for argv, message in cases:
        assert run(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("case", ["N-not-a-number", "system-not-utf8",
                                  "dk-not-utf8"])
def test_exit_code_unreadable_input_file(case, tmp_path, capsys):
    # a declared N that is no integer, and a system or --dk file that is
    # not UTF-8, are refused with exit 2 and one line, not a traceback
    path = tmp_path / "input.json"
    if case == "N-not-a-number":
        path.write_text('{"N": "two", "K": [[1]], "Gamma": [[2]]}')
        argv, want = (["analyze", "--system", str(path)],
                      "error: invalid system JSON: invalid literal for int() "
                      "with base 10: 'two'\n")
    else:
        path.write_bytes(b"\xff\xfe")
        what = "system" if case == "system-not-utf8" else "perturbation"
        argv = (["analyze", "--system", str(path)] if what == "system" else
                ["perturb", "--system", "catalog:quartic-jb4", "--dk",
                 str(path)])
        want = (f"error: cannot parse {what} file {path}: 'utf-8' codec "
                "can't decode byte 0xff in position 0: invalid start byte\n")
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == want


def test_exit_code_verification_failure(tmp_path):
    # an absurd residual tolerance turns healthy output into a failure
    code = run(["analyze", "--system", "catalog:quartic-jb4",
                "--tol-residual", "1e-15", "--out", str(tmp_path)])
    assert code == 3


def test_exit_code_numerical_failure(tmp_path):
    # epsilon so small the perturbed cluster cannot be resolved
    code = run([
        "cancellation", "--system", "catalog:quartic-jb4",
        "--eps-min", "1e-17", "--eps-max", "1e-16", "--eps-count", "2",
        "--out", str(tmp_path),
    ])
    assert code == 4


def _critmode_exceptions():
    """Every exception class defined in a critmode module."""
    found = []
    for info in pkgutil.iter_modules(critmode.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module(f"critmode.{info.name}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, BaseException)
                  and obj.__module__ == module.__name__]
    return found


EXIT_OF_BASE = {ArgumentError: 2, VerificationError: 3, NumericalError: 4}
# the classes that gained a critmode base kept the builtin base they had
BUILTIN_BASE = {"DesignError": RuntimeError,
                "NonGenericPerturbationError": RuntimeError,
                "InconsistentSystemError": ValueError}


@pytest.mark.parametrize("cls", _critmode_exceptions(),
                         ids=lambda cls: cls.__name__)
def test_each_error_class_has_one_base_and_its_exit_code(cls, tmp_path,
                                                         monkeypatch, capsys):
    import critmode.cli as cli

    bases = [base for base in EXIT_OF_BASE if issubclass(cls, base)]
    assert len(bases) == 1
    assert issubclass(cls, BUILTIN_BASE.get(cls.__name__, Exception))

    def raising(args):
        raise cls("raised by the command")

    monkeypatch.setattr(cli, "cmd_analyze", raising)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    code = main(["analyze", "--system", "catalog:single-critical",
                 "--out", str(tmp_path)])
    assert code == EXIT_OF_BASE[bases[0]]
    assert "raised by the command" in capsys.readouterr().err


def test_tolerance_flag_applies(tmp_path):
    code = run(["analyze", "--system", "catalog:quartic-jb4",
                "--tol-cluster", "1e-5", "--out", str(tmp_path)])
    assert code == 0
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert spectrum["tolerances"]["cluster_tol"] == 1e-5


@pytest.mark.parametrize(
    "flag, field",
    [("--tol-residual=inf", "residual_tol"), ("--tol-rank=nan", "rank_tol"),
     ("--tol-cluster=-inf", "cluster_tol")],
)
def test_tolerance_flags_must_be_finite_and_positive(tmp_path, capsys, flag, field):
    # --tol-residual inf used to switch verification off without a word
    code = run(["analyze", "--system", "catalog:quartic-jb4", flag,
                "--out", str(tmp_path)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_evolve_echo_at_t0(tmp_path):
    code = run([
        "evolve", "--system", "catalog:single-critical", "--phi", "1,0",
        "--times", "0", "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    row = [float(v) for v in lines[1].split(",")]
    assert header[0] == "t"
    assert row[header.index("c0_re")] == pytest.approx(1.0, abs=1e-12)
    assert row[header.index("c1_re")] == pytest.approx(0.0, abs=1e-12)


def test_evolve_oracle_deviation(tmp_path):
    code = run([
        "evolve", "--system", "catalog:single-critical", "--phi", "1,0",
        "--t-max", "5", "--t-steps", "11", "--oracle", "--out", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "evolve_summary.json").read_text())
    assert summary["max_oracle_deviation"] <= 1e-8


def test_evolve_oracle_random_double(tmp_path):
    code = run([
        "evolve", "--system", "catalog:double-jb2", "--phi", "random",
        "--seed", "3", "--t-max", "5", "--t-steps", "6", "--oracle",
        "--out", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "evolve_summary.json").read_text())
    assert summary["max_oracle_deviation"] <= 1e-8


def test_evolve_table_holds_the_per_time_rows(tmp_path):
    # the table built from the stacked arrays is, row by row, the time and
    # the (re, im) pairs of the state and the oracle at that time; the
    # summary holds the largest of the per-time deviations
    from critmode import cli

    assert run([
        "evolve", "--system", "catalog:double-jb2", "--seed", "3",
        "--t-max", "2", "--t-steps", "5", "--oracle", "--out", str(tmp_path),
    ]) == 0
    system = critmode.catalog_system("double-jb2")
    phi = cli._parse_phi("random", system.dim, 3)
    times = np.linspace(0.0, 2.0, 5)
    states = critmode.evolve_state(critmode.compute_spectrum(system), phi, times)
    oracle = critmode.rk4_evolve(system, phi, times)
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + times.size
    for t, line, state, rk in zip(times, lines[1:], states, oracle):
        row = [t] + [p for z in [*state, *rk] for p in (z.real, z.imag)]
        assert line == ",".join("%.17g" % v for v in row)
    summary = json.loads((tmp_path / "evolve_summary.json").read_text())
    assert summary["max_oracle_deviation"] == max(
        float(np.linalg.norm(state - rk)) for state, rk in zip(states, oracle))


def test_evolve_oracle_rejects_negative_time(tmp_path, capsys):
    out = tmp_path / "out"
    code = run([
        "evolve", "--system", "catalog:single-critical", "--phi", "1,0",
        "--times=-1,0,1", "--oracle", "--out", str(out),
    ])
    assert code == 2
    assert "nonnegative" in capsys.readouterr().err
    # refused before any output, as the other misuse cases are
    assert not out.exists()


# stands for the path of a --dk file with a non-numeric entry
NON_NUMERIC_DK = "<non-numeric --dk file>"


@pytest.mark.parametrize(
    "args, option",
    [
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
          "--eps0", "0"], "--eps0"),
        (["reproduce-figure", "--figure", "1", "--eps0", "0"], "--eps0"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--eps-min=-1e-8"], "--eps-min"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
          "--eps-count", "1"], "--eps-count"),
        (["reproduce-figure", "--figure", "1", "--eps-count", "1"],
         "--eps-count"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--eps-count", "0"], "--eps-count"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--eps-count", "1"], "--eps-count"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--t-steps", "0"], "--t-steps"),
        (["evolve", "--system", "catalog:single-critical",
          "--t-steps", "-1"], "--t-steps"),
        (["evolve", "--system", "catalog:single-critical",
          "--t-steps", "0"], "--t-steps"),
        (["evolve", "--system", "catalog:single-critical",
          "--times", ",1"], "--times"),
        (["evolve", "--system", "catalog:single-critical",
          "--times", "1,nan"], "--times"),
        (["evolve", "--system", "catalog:single-critical",
          "--seed", "-1"], "--seed"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--seed", "-3"], "--seed"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
          "--eps-power", "-1"], "--eps-power"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
          "--eps-power", "0"], "--eps-power"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--eps-min", "1e-6", "--eps-max", "1e-6"], "--eps-min"),
        # b = 4, Gamma11 = 3 would need k12^2 = -8
        (["design", "--family", "cubic", "--gamma11", "3"], "gamma11"),
        (["evolve", "--system", "catalog:single-critical",
          "--t-max", "nan"], "--t-max"),
        (["evolve", "--system", "catalog:single-critical",
          "--t-max", "inf"], "--t-max"),
        (["evolve", "--system", "catalog:single-critical",
          "--t-max", "0"], "--t-max"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--t-max", "nan"], "--t-max"),
        (["reproduce-figure", "--figure", "1", "--eps0", "inf"], "--eps0"),
        (["reproduce-figure", "--figure", "1", "--eps0", "nan"], "--eps0"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
          "--eps0", "inf"], "--eps0"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--eps-max", "inf"], "--eps-max"),
        (["cancellation", "--system", "catalog:quartic-jb4",
          "--eps-min", "nan"], "--eps-min"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk",
          "mu:nan,0,1"], "--dk"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
          "--eps0", "1e305"], "--eps0"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
          "--eps-power", "400"], "--eps-power"),
        (["perturb", "--system", "catalog:quartic-jb4", "--dk",
          NON_NUMERIC_DK], "--dk"),
        (["cancellation", "--system", "catalog:quartic-jb4", "--dk",
          "mu:1,-1.5,2", "--eps-min", "1e-3", "--eps-max", "1e-2"], "--dk"),
        (["evolve", "--system", "catalog:quartic-jb4", "--phi",
          "nan,0,0,0"], "--phi"),
        (["cancellation", "--system", "catalog:quartic-jb4", "--phi",
          "inf,0,0,0"], "--phi"),
    ],
    ids=["perturb", "reproduce-figure", "cancellation", "perturb-count-1",
         "reproduce-figure-count-1", "cancellation-count-0",
         "cancellation-count-1", "cancellation-t-steps-0",
         "evolve-t-steps-negative", "evolve-t-steps-0", "evolve-times-empty",
         "evolve-times-nan", "evolve-seed-negative",
         "cancellation-seed-negative", "perturb-power-negative",
         "perturb-power-0", "cancellation-empty-range",
         "design-no-solution", "evolve-t-max-nan", "evolve-t-max-inf",
         "evolve-t-max-0", "cancellation-t-max-nan",
         "reproduce-figure-eps0-inf", "reproduce-figure-eps0-nan",
         "perturb-eps0-inf", "cancellation-eps-max-inf",
         "cancellation-eps-min-nan", "perturb-dk-nan", "perturb-eps0-overflow",
         "perturb-power-overflow", "perturb-dk-non-numeric",
         "cancellation-dk-nongeneric", "evolve-phi-nan", "cancellation-phi-inf"],
)
def test_eps_grid_rejects_zero_or_negative_scale(tmp_path, capsys, args, option):
    dk_file = tmp_path / "dk.txt"  # not *.json, which the test looks for below
    dk_file.write_text('[["a", 0], [0, 0]]')
    args = [str(dk_file) if a == NON_NUMERIC_DK else a for a in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args + ["--out", str(tmp_path)]) == 2
    assert option in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize(
    "args",
    [
        ["reproduce-figure", "--figure", "1", "--system", "catalog:cubic-jb3"],
        ["design", "--family", "quartic", "--tol-rank", "1e-8"],
        ["design", "--family", "quartic", "--tol-cluster", "1e-8"],
        ["design", "--family", "quartic", "--tol-residual", "1e-8"],
    ],
    ids=["reproduce-figure-system", "design-tol-rank", "design-tol-cluster",
         "design-tol-residual"],
)
def test_flags_a_subcommand_ignores_are_rejected(tmp_path, args):
    assert run(args + ["--out", str(tmp_path)]) == 2
    assert not list(tmp_path.iterdir())


def test_rewritten_figure_equals_fresh_one(tmp_path):
    # outputs are rewritten in place and cut to their new length: a shorter
    # run over a longer one leaves exactly the shorter run's bytes
    again, fresh = tmp_path / "again", tmp_path / "fresh"
    figure = ["reproduce-figure", "--figure", "3"]
    assert run(figure + ["--eps-count", "10", "--out", str(again)]) == 0
    long_csv = (again / "figure3.csv").stat().st_size
    assert run(figure + ["--eps-count", "5", "--out", str(again)]) == 0
    assert run(figure + ["--eps-count", "5", "--out", str(fresh)]) == 0
    assert (again / "figure3.csv").stat().st_size < long_csv
    for name in ("figure3.csv", "figure3_summary.json"):
        assert (again / name).read_bytes() == (fresh / name).read_bytes(), name


def test_python_m_critmode_runs_the_cli():
    src = str(Path(critmode.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-m", "critmode", "--help"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert "reproduce-figure" in out.stdout


def test_deterministic_output(tmp_path, capsys):
    # every main call in a process parses with one parser: a parse error, a
    # foreign flag and --help between two runs must leave no state behind
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    stray = tmp_path / "c"
    figure = ["reproduce-figure", "--figure", "5"]
    helps = []
    assert run(figure + ["--out", str(out1)]) == 0
    assert run(figure + ["--eps0", "x", "--out", str(stray)]) == 2
    assert run(figure + ["--system", "catalog:quartic-jb4",
                         "--out", str(stray)]) == 2
    assert not stray.exists()
    for args in (["reproduce-figure", "--help"], figure + ["--out", str(out2)],
                 ["reproduce-figure", "--help"]):
        capsys.readouterr()
        assert run(args) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[2]
    assert "--eps0" in helps[0]
    assert (out1 / "figure5.csv").read_bytes() == (out2 / "figure5.csv").read_bytes()
    assert (
        (out1 / "figure5_summary.json").read_bytes()
        == (out2 / "figure5_summary.json").read_bytes()
    )


def test_perturb_sweep_format(tmp_path):
    code = run([
        "perturb", "--system", "catalog:quartic-jb4", "--dk", "e11",
        "--eps0", "1e-4", "--eps-power", "4", "--eps-count", "5",
        "--out", str(tmp_path),
    ])
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,k,num_re,num_im,pred_re,pred_im,abs_error"
    assert len(lines) == 1 + 5 * 4  # eps grid n = 0..4, four modes each
    pred = json.loads((tmp_path / "prediction.json").read_text())
    assert pred["generic"] is True
    assert pred["M"] == 4
    assert pred["xi"][0] == pytest.approx(-2.0, abs=1e-12)
    assert pred["xi"][1] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("name,m", [("quartic-jb4", 4), ("cubic-jb3", 3)])
def test_sweep_rows_follow_one_mode_along_eps(tmp_path, name, m):
    # row k of every eps is predicted mode k, in the order of
    # predict_splitting, with its assigned numerical eigenvalue; on the
    # equiangular star of a generic direction the shift of row k then keeps
    # its direction along the eps grid
    from critmode import cli
    from critmode.design import catalog_entry
    from critmode.jordan import compute_spectrum
    from critmode.perturb import predict_splitting

    assert run(["perturb", "--system", f"catalog:{name}", "--dk", "e11",
                "--out", str(tmp_path)]) == 0
    rows = np.loadtxt(tmp_path / "sweep.csv", delimiter=",", skiprows=1)
    assert np.array_equal(rows[:, 1], np.tile(np.arange(m), len(rows) // m))
    block = compute_spectrum(catalog_entry(name).system).largest_block()
    eps = rows[m::m, 0]
    want = predict_splitting(block, cli._parse_delta_k("e11", 2),
                             eps).eigenvalues
    assert np.array_equal(rows[m:, 4] + 1j * rows[m:, 5], want.ravel())
    values = rows[:, 2] + 1j * rows[:, 3]
    shifts = (values[m:] - values[0]).reshape(-1, m)
    turns = np.abs(np.angle(shifts[1:] / shifts[:-1]))
    assert np.all(turns < 0.1 * np.pi / m), turns


def test_perturb_nongeneric_direction(tmp_path):
    code = run([
        "perturb", "--system", "catalog:quartic-jb4", "--dk", "mu:1,-1.5,2",
        "--eps0", "1e-4", "--eps-power", "3", "--eps-count", "4",
        "--out", str(tmp_path),
    ])
    assert code == 0
    pred = json.loads((tmp_path / "prediction.json").read_text())
    assert pred["generic"] is False
    assert pred["xi_prime"][0] == pytest.approx(0.0, abs=1e-12)
    assert pred["xi_prime"][1] == pytest.approx(1.0, abs=1e-12)


def test_perturb_refuses_level_crossing(tmp_path, capsys):
    # two size-2 blocks share omega = -i: one xi cannot set the splitting
    code = run([
        "perturb", "--system", "catalog:crossed-pair", "--dk", "e11",
        "--out", str(tmp_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "omega = " in err
    assert "level crossing of blocks of sizes [2, 2]" in err
    assert not (tmp_path / "sweep.csv").exists()


def test_design_families(tmp_path):
    assert run([
        "design", "--family", "cubic", "--b", "4", "--gamma11", "6",
        "--out", str(tmp_path),
    ]) == 0
    obj = json.loads((tmp_path / "system.json").read_text())
    assert obj["N"] == 2
    sys = build_system(obj["K"], obj["Gamma"])
    assert np.allclose(sys.Gamma, [[6.0, 0.0], [0.0, 1.0]])
    assert run([
        "design", "--family", "scale", "--a", "2",
        "--system", str(tmp_path / "system.json"), "--out", str(tmp_path),
    ]) == 0
    scaled = json.loads((tmp_path / "system.json").read_text())
    assert np.allclose(scaled["Gamma"], [[12.0, 0.0], [0.0, 2.0]])


def test_design_catalog_export(tmp_path):
    assert run([
        "design", "--family", "catalog", "--name", "double-jb2",
        "--out", str(tmp_path),
    ]) == 0
    obj = json.loads((tmp_path / "catalog_double-jb2.json").read_text())
    assert obj["chains"]["0"][0]["surd"] == 6


def test_figure_grid_follows_caption_convention(tmp_path):
    assert run(["reproduce-figure", "--figure", "1", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "figure1.csv").read_text().strip().splitlines()
    eps_values = sorted({float(line.split(",")[0]) for line in lines[1:]})
    want = sorted((n**4) * 1e-4 for n in range(9))
    assert np.allclose(eps_values, want)


@pytest.mark.parametrize("figure", [1, 2, 3, 4, 5])
def test_figure_spacing_or_static_mode(tmp_path, figure):
    # xi != 0 (figures 1, 3, 5): tracks equally spaced in n, no static mode;
    # xi = 0 (figures 2, 4): a static mode, and no spacing check
    assert run([
        "reproduce-figure", "--figure", str(figure), "--out", str(tmp_path),
    ]) == 0
    summary = json.loads((tmp_path / f"figure{figure}_summary.json").read_text())
    if figure in (1, 3, 5):
        assert summary["spacing_linearity_max_dev"] <= 0.05
        assert "static_mode_slope" not in summary
    else:
        assert "static_mode_slope" in summary
        assert "spacing_linearity_max_dev" not in summary


def test_figure_checks_every_track_row_before_writing(tmp_path, monkeypatch):
    # the display, fit and static rows are matched in one track, so a fit
    # row beyond half the spectral gap fails the run before the CSV is
    # written; the display row alone (eps = 1e-12, shift ~1e-3) would pass
    from critmode import cli

    monkeypatch.setattr(cli, "spectral_gap", lambda spectrum, block: 0.01)
    assert run([
        "reproduce-figure", "--figure", "1", "--eps0", "1e-12",
        "--eps-count", "2", "--out", str(tmp_path),
    ]) == 4
    assert not list(tmp_path.iterdir())


def test_write_csv_matches_per_value_format(tmp_path):
    # one format string per row writes what float(v) with 17 significant
    # digits writes, value by value
    from critmode.cli import _write_csv

    rows = [
        [0, -3, 2**60 + 1, -0.0, 0.0],
        [np.nan, np.inf, -np.inf, 1e-300, 5e-324],
        [np.float64(0.1), np.float64(-2.5e-17), 1.0 / 3.0, 1e16, -1e308],
        [np.int64(-7), 7, np.float64(np.nan), np.float64(-0.0), 123456.789],
    ]
    header = ["a", "b", "c", "d", "e"]
    _write_csv(tmp_path / "out.csv", header, rows)
    want = "\n".join([",".join(header)] + [
        ",".join(f"{float(v):.17g}" for v in row) for row in rows
    ]) + "\n"
    assert (tmp_path / "out.csv").read_bytes() == want.encode("utf-8")


def test_figure_rejects_bad_id(tmp_path):
    assert run(["reproduce-figure", "--figure", "7", "--out", str(tmp_path)]) == 2


def test_figure_negative_eps0_in_exponent_notation(tmp_path):
    # repr(-3e-05) is what scripts/reproduce_figures.py passes for eps0 < 1e-4
    assert run([
        "reproduce-figure", "--figure", "5", "--eps0", "-3e-05",
        "--out", str(tmp_path),
    ]) == 0
    summary = json.loads((tmp_path / "figure5_summary.json").read_text())
    assert summary["eps0"] == -3e-05


def test_cancellation_cubic(tmp_path):
    code = run([
        "cancellation", "--system", "catalog:cubic-jb3", "--phi", "1,0,0,0",
        "--out", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "cancellation_summary.json").read_text())
    # weights for an M = 3 block blow up like lambda^(-2)
    assert summary["weight_slope"] == pytest.approx(-2.0, abs=0.2)



def test_cancellation_fits_diff_slope_above_the_rounding_floor(tmp_path, capsys):
    # quartic-jb4 at the default window: the diffs at the smallest eps sit
    # within 10x of the modal sum's rounding floor M max_weight 2^-52, and
    # the diff slope is fitted over the rest only, where the diff grows
    # like lambda^M; a window with fewer than two such eps writes null
    from critmode.perturb import loglog_slope

    assert run(["cancellation", "--system", "catalog:quartic-jb4",
                "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "cancellation_summary.json").read_text())
    table = np.loadtxt(tmp_path / "cancellation.csv", delimiter=",",
                       skiprows=1).reshape(9, 4, 5)
    lams, diffs = table[:, 0, 3], table[:, 0, 4]
    fit = diffs >= 10.0 * 4 * table[:, :, 2].max(axis=1) * 2.0**-52
    assert 2 <= fit.sum() < 9
    assert summary["diff_fit_points"] == fit.sum()
    slope, residual = loglog_slope(lams[fit], diffs[fit])
    assert (summary["diff_slope"], summary["diff_fit_residual"]) == (slope, residual)
    assert slope == pytest.approx(4.0, abs=0.05) and residual < 0.01
    assert f"diff slope {slope:.3f}" in capsys.readouterr().out

    assert run(["cancellation", "--system", "catalog:quartic-jb4",
                "--eps-min", "1e-11", "--eps-max", "1e-10", "--eps-count", "3",
                "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "cancellation_summary.json").read_text())
    assert summary["diff_fit_points"] < 2
    assert summary["diff_slope"] is None and summary["diff_fit_residual"] is None
    assert "diff slope null" in capsys.readouterr().out

def test_cancellation_makes_one_call_of_each_stage(tmp_path, monkeypatch):
    # the whole eps grid in one eigensolve, one prediction, one matrix form
    # and one Jordan evolution; |DK|_2 once for the CLI's genericity check
    # and once in the experiment
    from critmode import dynamics, perturb

    calls = {}

    def counted(module, name, record=lambda *args: None):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.setdefault(name, []).append(record(*args))
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(dynamics, "_exact_perturbed_spectrum",
            lambda sys, dk, eps: np.shape(eps))
    counted(dynamics, "_predict_splitting")
    counted(dynamics, "_matrix_form")
    counted(dynamics, "_evolve")
    counted(dynamics, "_genericity_threshold")
    counted(perturb, "_genericity_threshold")
    code = run(["cancellation", "--system", "catalog:quartic-jb4",
                "--out", str(tmp_path)])
    assert code == 0
    assert calls["_exact_perturbed_spectrum"] == [(9,)]
    assert len(calls["_predict_splitting"]) == 1
    assert len(calls["_matrix_form"]) == 1
    assert len(calls["_evolve"]) == 1
    assert len(calls["_genericity_threshold"]) <= 2
    rows = (tmp_path / "cancellation.csv").read_text().splitlines()
    assert len(rows) == 1 + 9 * 4  # header, then one row per (eps, mode)


def test_cancellation_diagonalizable_fallback(tmp_path):
    rng = np.random.default_rng(5)
    sys = well_separated_system(rng, 2)
    path = tmp_path / "sys.json"
    save_system(sys, path)
    code = run(["cancellation", "--system", str(path), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "cancellation_summary.json").read_text())
    assert summary["diagonalizable"] is True
    assert summary["max_weight"] <= 50.0  # O(1) weights, no small denominators
