"""Command-line front end.

Subcommands
-----------
analyze          spectrum, verification, and sum-rule reports for a system
evolve           trajectory CSV, optionally cross-checked against the RK oracle
perturb          splitting sweep CSV (numerical vs predicted) for one direction
design           build catalog-family systems and write system JSON
reproduce-figure the five reference splitting diagrams as CSV + summary
cancellation     small-denominator experiment across an epsilon sweep

Systems are given as ``--system path.json`` or ``--system catalog:<name>``
with names single-critical, quartic-jb4, cubic-jb3, double-jb2, crossed-pair
(reproduce-figure takes none; design only for --family scale).  Tolerances
come from defaults, overridden by the --tol-rank, --tol-cluster and
--tol-residual flags (every subcommand but design).

Output is data, not plots: CSV files with 17-significant-digit floats (byte
deterministic for a fixed configuration) plus JSON summaries.  Exit codes
follow the error's base: 0 success, 2 ArgumentError or OSError, 3
VerificationError, 4 NumericalError or numpy's LinAlgError.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys as _sys
from pathlib import Path

import numpy as np

from . import design as design_mod
from .design import catalog_entry, catalog_system, catalog_to_json
from .dynamics import (
    check_sum_rules,
    cluster_cancellation_experiment,
    evolve_state,
    rk4_evolve,
)
from .jordan import (
    VerificationError,
    compute_spectrum,
    spectrum_to_json,
    verify_representations,
)
from .linalg import ArgumentError, NumericalError, Tolerances
from .model import (
    OscillatorSystem,
    _write_text,
    bilinear,
    load_system,
    save_system,
    symmetric_matrix,
)
from .perturb import (
    NonGenericPerturbationError,
    _predictor,
    assign_predictions,
    cluster_shifts,
    critical_block,
    exact_perturbed_spectrum,
    loglog_slope,
    spectral_gap,
    xi_generic,
    xi_prime,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VERIFICATION = 3
EXIT_NUMERICAL = 4


def _write_csv(path: Path, header, rows) -> None:
    """header, then one line per row of numbers, each number written as
    float(v) with 17 significant digits; one format string per row."""
    fmt = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines += [fmt % tuple(row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path: Path, obj) -> None:
    _write_text(
        path,
        json.dumps(obj, indent=2, sort_keys=True, default=_json_default) + "\n",
    )


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.complexfloating):
        return [float(obj.real), float(obj.imag)]
    raise TypeError(f"cannot serialize {type(obj)}")


def _eps_grid(eps0: float, power: int, count: int) -> np.ndarray:
    """Figure-style grid eps_n = n^p * eps0 for n = 0..count-1."""
    if count < 2:
        raise ArgumentError("--eps-count must be at least 2")
    if power < 1:
        raise ArgumentError("--eps-power must be at least 1")
    if eps0 == 0.0 or not math.isfinite(eps0):
        raise ArgumentError(f"--eps0 must be finite and nonzero, got {eps0}")
    try:
        peak = float(count - 1) ** power * abs(eps0)
    except OverflowError:
        peak = math.inf
    if not math.isfinite(peak):
        raise ArgumentError(
            f"--eps0 {eps0:g}, --eps-power {power} and --eps-count {count} "
            f"overflow the eps grid: its largest value {count - 1}^{power} * "
            f"{abs(eps0):g} exceeds the float range"
        )
    return np.arange(count, dtype=float) ** power * eps0


def _resolve_tol(args) -> Tolerances:
    """The default tolerances, each replaced by its --tol-* flag when given."""
    flags = {
        "rank_tol": getattr(args, "tol_rank", None),
        "cluster_tol": getattr(args, "tol_cluster", None),
        "residual_tol": getattr(args, "tol_residual", None),
    }
    return Tolerances(**{k: v for k, v in flags.items() if v is not None})


def _resolve_system(ref: str) -> OscillatorSystem:
    if ref.startswith("catalog:"):
        return catalog_system(ref.split(":", 1)[1])
    return load_system(ref)


def _parse_phi(spec: str, dim: int, seed: int = 0) -> np.ndarray:
    if spec == "random":
        if seed < 0:
            raise ArgumentError("--seed must be nonnegative")
        rng = np.random.default_rng(seed)
        return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    try:
        vals = [complex(tok) for tok in spec.split(",")]
    except ValueError as exc:
        raise ArgumentError(f"cannot parse state {spec!r}: {exc}") from exc
    if len(vals) != dim:
        raise ArgumentError(f"state needs {dim} components, got {len(vals)}")
    if not np.isfinite(vals).all():
        raise ArgumentError(f"--phi must be finite, got {spec!r}")
    return np.array(vals, dtype=complex)


def _parse_delta_k(spec: str, n: int) -> np.ndarray:
    """e11 | mu:a,b,c (2x2 symmetric) | path to a JSON matrix; n x n."""
    if spec == "e11":
        dk = np.zeros((n, n))
        dk[0, 0] = 1.0
    elif spec.startswith("mu:"):
        try:
            m11, m12, m22 = (float(t) for t in spec[3:].split(","))
        except ValueError as exc:
            raise ArgumentError(f"cannot parse {spec!r}: {exc}") from exc
        if n != 2:
            raise ArgumentError("mu:... shorthand needs a two-oscillator system")
        dk = [[m11, m12], [m12, m22]]
    else:
        path = Path(spec)
        if not path.exists():
            raise ArgumentError(f"no such perturbation file: {spec}")
        try:
            dk = json.loads(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ArgumentError(
                f"cannot parse perturbation file {spec}: {exc}") from exc
    return symmetric_matrix("--dk", dk, n)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    tol = _resolve_tol(args)
    system = _resolve_system(args.system)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spectrum = compute_spectrum(system, tol)
    _write_json(out / "spectrum.json", spectrum_to_json(spectrum))
    verification = dict(spectrum.verification)
    reps = verify_representations(spectrum)
    sumrules = check_sum_rules(spectrum)
    verification["representation_max_deviation"] = reps["max_deviation"]
    verification["representations"] = reps["blocks"]
    verification["conjugation_signs"] = [
        {"label": b.label, "sign": b.conj_sign} for b in spectrum.blocks
    ]
    _write_json(out / "verification.json", verification)
    _write_json(
        out / "sumrules.json",
        {
            "max_abs": sumrules.max_abs,
            "threshold": sumrules.threshold,
            "pass": sumrules.passed,
        },
    )
    ok = (
        verification["pass"]
        and sumrules.passed
        and reps["max_deviation"] <= tol.residual_tol
    )
    print(
        f"analyze: nu={spectrum.nu} blocks "
        f"{[(b.label, b.size) for b in spectrum.blocks]} "
        f"max residual {verification['max_residual']:.3e} "
        f"-> {'pass' if ok else 'FAIL'}"
    )
    return EXIT_OK if ok else EXIT_VERIFICATION


def _parse_times(spec: str) -> np.ndarray:
    try:
        times = np.array(sorted(float(t) for t in spec.split(",")))
    except ValueError as exc:
        raise ArgumentError(f"cannot parse --times {spec!r}: {exc}") from exc
    if not np.all(np.isfinite(times)):
        raise ArgumentError(f"--times must be finite, got {spec!r}")
    return times


def _check_t_max(t_max: float) -> None:
    if not (math.isfinite(t_max) and t_max > 0.0):
        raise ArgumentError(f"--t-max must be finite and positive, got {t_max}")


def cmd_evolve(args) -> int:
    if args.t_steps < 1:
        raise ArgumentError("--t-steps must be at least 1")
    _check_t_max(args.t_max)
    tol = _resolve_tol(args)
    system = _resolve_system(args.system)
    phi = _parse_phi(args.phi, system.dim, args.seed)
    if args.times:
        times = _parse_times(args.times)
    else:
        times = np.linspace(0.0, args.t_max, args.t_steps)
    # the oracle runs first, so that it refuses a negative time before any
    # eigensolve or output
    oracle = rk4_evolve(system, phi, times) if args.oracle else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spectrum = compute_spectrum(system, tol)
    states = evolve_state(spectrum, phi, times)
    parts = [f"c{i}_{p}" for i in range(system.dim) for p in ("re", "im")]
    header = ["t"] + parts
    columns = [times[:, None], states.view(float)]
    if oracle is not None:
        header += ["rk_" + part for part in parts]
        columns.append(oracle.view(float))
        # one norm per time: a norm along axis 1 may round differently
        deviation = float(max(map(np.linalg.norm, states - oracle)))
    _write_csv(out / "trajectory.csv", header, np.hstack(columns).tolist())
    summary = {"t_count": int(times.size)}
    if args.oracle:
        summary["max_oracle_deviation"] = deviation
    _write_json(out / "evolve_summary.json", summary)
    print(
        "evolve: wrote trajectory.csv"
        + (f" (oracle deviation {deviation:.3e})" if args.oracle else "")
    )
    return EXIT_OK


def _track(spectrum, block, delta_k, eps_values, predict, count):
    """Cluster shifts over an eps grid and predictions over its head, as arrays.

    Returns (shifts, predicted shifts, predicted eigenvalues): an (E, M)
    array of the shifts of the M eigenvalues nearest omega at every eps,
    checked against the spectral gap, and the predictions of the first
    count points, as predict(block, delta_k, eps) stacks them.  One call of
    each stage covers the grid; predict runs before any matching, so a
    direction without a prediction raises its own error.
    """
    gap = spectral_gap(spectrum, block)
    evals = exact_perturbed_spectrum(spectrum.system, delta_k, eps_values)
    pred = predict(block, delta_k, eps_values[:count])
    shifts = cluster_shifts(evals, block.omega, block.size, gap)
    return shifts, pred.shifts, pred.eigenvalues


def _sweep_rows(block, eps_values, numerical, predicted):
    """Numerical vs predicted eigenvalue tracks, one row per (eps, mode).

    eps_values is an _eps_grid, whose first point (n = 0, as in the caption
    grids) is the unperturbed one: both columns hold omega there.  numerical
    and predicted are the (E - 1, M) eigenvalue tracks over the rest of the
    grid.  Row k of an eps is predicted mode k (the order of predict), with
    the numerical eigenvalue that assign_predictions pairs with it, so k
    follows one mode along eps.  abs_error is np.hypot of the difference,
    which rounds as abs() of one complex does (np.abs over an array may not).
    """
    w, m = block.omega, block.size
    numerical = np.take_along_axis(
        numerical, assign_predictions(numerical, predicted).argsort(axis=-1),
        axis=-1)
    nums = np.concatenate([np.full((1, m), w), numerical]).ravel()
    preds = np.concatenate([np.full((1, m), w), predicted]).ravel()
    errors = nums - preds
    # n = 0 is written as 0, not as the -0.0 that a negative eps0 gives
    eps = np.concatenate([[0.0], eps_values[1:]])
    table = np.column_stack([
        np.repeat(eps, m), np.tile(np.arange(m, dtype=float), eps.size),
        nums.real, nums.imag, preds.real, preds.imag,
        np.hypot(errors.real, errors.imag),
    ])
    return table.tolist()


SWEEP_HEADER = [
    "eps",
    "k",
    "num_re",
    "num_im",
    "pred_re",
    "pred_im",
    "abs_error",
]


def cmd_perturb(args) -> int:
    tol = _resolve_tol(args)
    system = _resolve_system(args.system)
    delta_k = _parse_delta_k(args.dk, system.N)
    eps_values = _eps_grid(args.eps0, args.eps_power, args.eps_count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spectrum = compute_spectrum(system, tol)
    block = critical_block(spectrum, "perturb")
    generic, predict = _predictor(block, delta_k)
    shifts, _, predicted = _track(spectrum, block, delta_k, eps_values[1:],
                                  predict, eps_values.size - 1)
    rows = _sweep_rows(block, eps_values, block.omega + shifts, predicted)
    _write_csv(out / "sweep.csv", SWEEP_HEADER, rows)
    summary = {
        "omega": complex(block.omega),
        "M": block.size,
        "xi": complex(xi_generic(block, delta_k)),
        "generic": bool(generic),
    }
    if not generic:
        summary["xi_prime"] = complex(xi_prime(block, delta_k))
    _write_json(out / "prediction.json", summary)
    print(f"perturb: wrote sweep.csv ({len(rows)} rows), generic={generic}")
    return EXIT_OK


def cmd_design(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.family == "quartic":
        system = design_mod.quartic_critical(args.x, args.y)
    elif args.family == "cubic":
        system = design_mod.cubic_critical(args.b, args.gamma11)
    elif args.family == "double2":
        system = design_mod.double2_critical(args.b)
    elif args.family == "scale":
        if not args.system:
            raise ArgumentError("design scale needs --system")
        system = design_mod.scale_system(_resolve_system(args.system), args.a)
    else:  # catalog export
        entry = catalog_entry(args.name)
        _write_json(out / f"catalog_{entry.name}.json", catalog_to_json(entry))
        print(f"design: wrote catalog_{entry.name}.json")
        return EXIT_OK
    save_system(system, out / "system.json")
    print(f"design: wrote system.json ({args.family})")
    return EXIT_OK


# Exponent and accuracy fits use dedicated small-epsilon grids where
# first-order theory dominates but the eigenvalue shifts still stand well
# clear of the eigensolver noise floor; the display grid follows the n^p
# convention of the figures themselves.  Figure 4's window sits higher
# because its moving pair splits only like eps**(1/2).
FIGURES = {
    1: {"system": "quartic-jb4", "dk": "e11", "power": 4,
        "fit_decades": (-8, -4)},
    2: {"system": "quartic-jb4", "dk": "mu:1,-1.5,2", "power": 3,
        "fit_decades": (-8, -4)},
    3: {"system": "cubic-jb3", "dk": "e11", "power": 3,
        "fit_decades": (-8, -4)},
    4: {"system": "cubic-jb3", "dk": "mu:-2,0.5,1", "power": 2,
        "fit_decades": (-6, -3)},
    5: {"system": "double-jb2", "dk": "e11", "power": 2,
        "fit_decades": (-8, -4)},
}
FIT_POINTS = 9
# The static mode of a non-generic direction moves at O(eps); it is fitted
# on a higher grid, where it stands clear of the eigensolver noise floor.
STATIC_DECADES = (-5, -2)
STATIC_POINTS = 8


def figure_summary(generic, fit_grid, shifts, predicted, static_grid, statics):
    """Exponent fits, equiangularity, and first-order accuracy diagnostics.

    shifts (E, M) and predicted (E, M or M - 1) are the _track arrays over
    fit_grid.  ``generic`` is the predictors' decision that xi is nonzero:
    if not, the M-1 moving modes are fitted, and the static one separately
    from statics, the (S, M) shifts over static_grid (empty when generic).
    """
    movings = shifts if generic else np.take_along_axis(
        shifts, np.argsort(np.abs(shifts), axis=-1)[:, 1:], axis=-1)
    errors = np.mean(np.abs(movings - np.take_along_axis(
        predicted, assign_predictions(movings, predicted), axis=-1)), axis=-1)
    scale = predicted[:, 0]  # zeta_0 = 1: the splitting scale, |lambda|
    lams = np.hypot(scale.real, scale.imag)  # rounds as abs() of a complex
    exponent, exp_res = loglog_slope(
        np.abs(fit_grid), np.mean(np.abs(movings), axis=-1)
    )
    error_slope, _ = loglog_slope(lams, errors)

    # Equiangularity at the smallest epsilon of the fit grid.
    first = movings[0]
    n_dir = len(first)
    sector = 2.0 * np.pi / max(n_dir, 1)
    worst_ang = 0.0
    for i in range(n_dir):
        for j in range(i + 1, n_dir):
            d = np.angle(first[i] / first[j])
            worst_ang = max(
                worst_ang, abs(d - sector * round(d / sector))
            )
    summary = {
        "exponent": exponent,
        "exponent_fit_residual": exp_res,
        "first_order_error_slope": error_slope,
        "equiangular_worst_offset": worst_ang,
        "equiangular_allowance": 5.0 * lams[0],
        "lambda_smallest": lams[0],
    }
    if not generic:
        static_slope, _ = loglog_slope(
            np.abs(static_grid), np.min(np.abs(statics), axis=-1))
        summary["static_mode_slope"] = static_slope
    return summary


def cmd_reproduce_figure(args) -> int:
    tol = _resolve_tol(args)
    if args.figure not in FIGURES:
        raise ArgumentError("figure id must be 1..5")
    fig = FIGURES[args.figure]
    system = catalog_system(fig["system"])
    delta_k = _parse_delta_k(fig["dk"], system.N)
    eps_values = _eps_grid(args.eps0, fig["power"], args.eps_count)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    spectrum = compute_spectrum(system, tol)
    block = critical_block(spectrum, "reproduce-figure")
    generic, predict = _predictor(block, delta_k)
    # one track over the display grid (n = 1..count-1), the fit grid and,
    # for a non-generic direction, the static grid; the static points need
    # no prediction
    sign = np.sign(args.eps0)
    fit_grid = sign * np.logspace(*fig["fit_decades"], FIT_POINTS)
    static_grid = (np.empty(0) if generic
                   else sign * np.logspace(*STATIC_DECADES, STATIC_POINTS))
    display = eps_values.size - 1
    fit = display + FIT_POINTS
    shifts, predicted_shifts, predicted = _track(
        spectrum, block, delta_k,
        np.concatenate([eps_values[1:], fit_grid, static_grid]), predict, fit)
    numerical = block.omega + shifts[:display]
    rows = _sweep_rows(block, eps_values, numerical, predicted[:display])
    _write_csv(out / f"figure{args.figure}.csv", SWEEP_HEADER, rows)
    summary = figure_summary(generic, fit_grid, shifts[display:fit],
                             predicted_shifts[display:], static_grid,
                             shifts[fit:])
    if generic:
        # the caption grids make |shift| proportional to n; report how
        # closely the numerical tracks follow that spacing (|shift| by
        # np.hypot, as in _sweep_rows)
        moved = numerical - block.omega
        ratios = (np.hypot(moved.real, moved.imag).mean(axis=-1)
                  / np.arange(1, args.eps_count))
        summary["spacing_linearity_max_dev"] = float(
            np.max(np.abs(ratios / np.mean(ratios) - 1.0))
        )
    summary["figure"] = args.figure
    summary["eps0"] = args.eps0
    summary["eps_power"] = fig["power"]
    _write_json(out / f"figure{args.figure}_summary.json", summary)
    print(
        f"figure {args.figure}: exponent {summary['exponent']:.4f}, "
        f"first-order error slope {summary['first_order_error_slope']:.3f}"
    )
    return EXIT_OK


def cmd_cancellation(args) -> int:
    if not all(math.isfinite(e) and e > 0.0
               for e in (args.eps_min, args.eps_max)):
        raise ArgumentError("--eps-min and --eps-max must be finite and positive")
    if args.eps_min >= args.eps_max:
        raise ArgumentError("--eps-min must be below --eps-max")
    if args.eps_count < 2:
        raise ArgumentError("--eps-count must be at least 2")
    if args.t_steps < 1:
        raise ArgumentError("--t-steps must be at least 1")
    _check_t_max(args.t_max)
    tol = _resolve_tol(args)
    system = _resolve_system(args.system)
    delta_k = _parse_delta_k(args.dk, system.N)
    phi = _parse_phi(args.phi, system.dim, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    t_grid = np.linspace(0.0, args.t_max, args.t_steps)
    eps_values = np.logspace(
        np.log10(args.eps_min), np.log10(args.eps_max), args.eps_count
    )
    spectrum = compute_spectrum(system, tol)
    if all(b.size == 1 for b in spectrum.blocks):
        # Far from criticality every mode stands alone: per-mode weights are
        # O(1) and there is no small denominator to cancel.
        # (f,f) = 1 after normalization
        rows = [[0.0, b.label, abs(bilinear(system, b.chain[0], phi)), 0.0, 0.0]
                for b in spectrum.blocks]
        _write_csv(
            out / "cancellation.csv",
            ["eps", "mode", "weight", "lambda_abs", "max_diff"],
            rows,
        )
        _write_json(
            out / "cancellation_summary.json",
            {"diagonalizable": True, "max_weight": max(r[2] for r in rows)},
        )
        print("cancellation: diagonalizable system, per-mode weights O(1)")
        return EXIT_OK
    block = critical_block(spectrum, "cancellation")
    try:
        rep = cluster_cancellation_experiment(
            system, delta_k, eps_values, phi, t_grid, tol, spectrum
        )
    except NonGenericPerturbationError as exc:
        xi = complex(xi_generic(block, delta_k))
        raise ArgumentError(
            f"cancellation needs a generic --dk: xi = {xi:.3e} vanishes at "
            f"this scale, so the block does not split as eps^(1/M)"
        ) from exc
    m = rep.size
    # np.hypot rounds as abs() of one complex does (np.abs over an array
    # may not); one row per (eps, mode)
    lams = np.hypot(rep.lam.real, rep.lam.imag)
    columns = np.broadcast_arrays(
        eps_values[:, None], np.arange(m, dtype=float), rep.mode_weights,
        lams[:, None], rep.max_diff[:, None])
    _write_csv(
        out / "cancellation.csv",
        ["eps", "mode", "weight", "lambda_abs", "max_diff"],
        np.stack(columns, axis=-1).reshape(-1, len(columns)).tolist(),
    )
    w_slope, w_res = loglog_slope(lams, rep.max_weight)
    # the modal sum rounds to about M max_weight 2^-52; a diff below ten
    # times that floor is rounding noise, and the slope is fitted without it
    fit = rep.max_diff >= 10.0 * m * rep.max_weight * 2.0**-52
    points = int(np.count_nonzero(fit))
    d_slope = d_res = None
    if points >= 2:
        d_slope, d_res = loglog_slope(lams[fit], rep.max_diff[fit])
    _write_json(
        out / "cancellation_summary.json",
        {
            "diagonalizable": False,
            "weight_slope": w_slope,
            "weight_fit_residual": w_res,
            "diff_slope": d_slope,
            "diff_fit_residual": d_res,
            "diff_fit_points": points,
            "block_size": m,
        },
    )
    d_text = "null" if d_slope is None else f"{d_slope:.3f}"
    print(f"cancellation: weight slope {w_slope:.3f}, diff slope {d_text}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_common(p, system=True, tolerances=True):
    """--out, plus --system and the tolerance flags if the command reads them."""
    if system:
        p.add_argument("--system", required=True,
                       help="system JSON path or catalog:<name>")
    if tolerances:
        p.add_argument("--tol-rank", type=float, default=None)
        p.add_argument("--tol-cluster", type=float, default=None)
        p.add_argument("--tol-residual", type=float, default=None)
    p.add_argument("--out", default=".", help="output directory")


class _Parser(argparse.ArgumentParser):
    """Reads '-3e-05' as a value, not an option.

    argparse's own pattern for negative numbers has no exponent part.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="critmode",
        description="Jordan-basis analysis of critically damped oscillator "
        "networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="spectrum and verification reports")
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("evolve", help="trajectory CSV")
    _add_common(p)
    p.add_argument("--phi", default="random",
                   help="comma list of complex components, or 'random'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=5.0)
    p.add_argument("--t-steps", type=int, default=51)
    p.add_argument("--times", default=None, help="explicit comma list of times")
    p.add_argument("--oracle", action="store_true",
                   help="add fixed-step RK columns and the max deviation")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("perturb", help="splitting sweep for one direction")
    _add_common(p)
    p.add_argument("--dk", required=True, help="e11 | mu:a,b,c | matrix JSON path")
    p.add_argument("--eps0", type=float, default=1e-4)
    p.add_argument("--eps-power", type=int, default=4)
    p.add_argument("--eps-count", type=int, default=9)
    p.set_defaults(func=cmd_perturb)

    p = sub.add_parser("design", help="build critical systems")
    _add_common(p, system=False, tolerances=False)
    p.add_argument("--system", help="system to rescale (--family scale)")
    p.add_argument("--family", required=True,
                   choices=("quartic", "cubic", "double2", "scale", "catalog"))
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--b", type=float, default=4.0)
    p.add_argument("--gamma11", type=float, default=6.0)
    p.add_argument("--a", type=float, default=1.0)
    p.add_argument("--name", default="quartic-jb4", help="catalog entry to export")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("reproduce-figure", help="reference splitting diagrams")
    _add_common(p, system=False)
    p.add_argument("--figure", type=int, required=True)
    p.add_argument("--eps0", type=float, default=1e-4)
    p.add_argument("--eps-count", type=int, default=9)
    p.set_defaults(func=cmd_reproduce_figure)

    p = sub.add_parser("cancellation", help="small-denominator experiment")
    _add_common(p)
    p.add_argument("--dk", default="e11")
    p.add_argument("--phi", default="random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t-max", type=float, default=1.5)
    p.add_argument("--t-steps", type=int, default=7)
    p.add_argument("--eps-min", type=float, default=1e-10)
    p.add_argument("--eps-max", type=float, default=1e-6)
    p.add_argument("--eps-count", type=int, default=9)
    p.set_defaults(func=cmd_cancellation)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built on first use and shared by every main call.

    parse_args keeps no state between calls: each returns a new namespace.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ArgumentError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=_sys.stderr)
        if exc.report:
            print(
                json.dumps(exc.report, indent=2, sort_keys=True,
                           default=_json_default),
                file=_sys.stderr,
            )
        return EXIT_VERIFICATION
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
