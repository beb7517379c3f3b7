import json
import warnings

import numpy as np
import pytest

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


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert run(["analyze", "--system", str(bad), "--out", str(tmp_path)]) == 2
    assert run(["analyze", "--system", "catalog:nope", "--out", str(tmp_path)]) == 2


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
