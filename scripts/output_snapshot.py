#!/usr/bin/env python3
"""Outputs of a fixed list of CLI commands, one directory per command.

Every command runs in this one process through critmode.cli.main, with its
own directory as the working directory and ``--out .``.  Next to the files
the command writes, the directory gets stdout.txt, stderr.txt and
exit_code.txt.  Nothing depends on the clock or on the output path, so two
versions of the library that behave the same write the same tree, and

    diff -r snapshot-before snapshot-after

lists every file, message and exit code that moved.  With --against DIR
the script makes that comparison itself after writing its snapshot: it
lists each file that differs from the one in DIR (an earlier snapshot), or
is found in one tree only, and says whether only numbers moved (the text
between them is the same).  Where only numbers moved it gives the largest
relative move of a number, |new - old| / max(|new|, |old|), and the largest
absolute move |new - old|, each with its two values: a number at the
rounding floor (a residual of 1e-16, say) can move by 50 % relative and
1e-16 absolute.  The commands include
failures (exit 2 and 4) and --help between ordinary runs, so the run also
exercises one parser serving many calls.

Commands:
  - reproduce-figure 1..5 at eps0 = +-1e-4 and +-3e-5, and at the default
    eps0 with --eps-count 2 and 5 (display grids of 1 and 4 points ahead of
    the fit grid);
  - cancellation on single-critical, quartic-jb4, cubic-jb3, double-jb2;
  - perturb on the same four systems x --dk {e11, mu:1,-1.5,2,
    mu:-2,0.5,1} x {the default grid, --eps0=-3e-5 --eps-power 3};
  - perturb on crossed-pair (a level crossing, exit 2) and along an
    all-zero --dk file (exit 4);
  - analyze on the five catalog systems;
  - evolve --oracle on quartic-jb4 and crossed-pair;
  - --help of the program and of each subcommand (at 80 columns).

Usage: PYTHONPATH=src python scripts/output_snapshot.py [--out DIR]
           [--against EARLIER_DIR]
"""

import argparse
import contextlib
import io
import json
import os
import re
from pathlib import Path

from critmode.cli import main as cli_main

SYSTEMS = ("single-critical", "quartic-jb4", "cubic-jb3", "double-jb2")
CATALOG = SYSTEMS + ("crossed-pair",)
DIRECTIONS = ("e11", "mu:1,-1.5,2", "mu:-2,0.5,1")
SUBCOMMANDS = ("analyze", "evolve", "perturb", "design", "reproduce-figure",
               "cancellation")
ZERO_DK = "zero-dk.json"
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def commands():
    """(directory name, argv) for every command, in running order."""
    for fig in range(1, 6):
        for eps0 in ("1e-4", "-1e-4", "3e-5", "-3e-5"):
            yield (f"figure{fig}_eps0={eps0}",
                   ["reproduce-figure", "--figure", str(fig), f"--eps0={eps0}"])
        for count in ("2", "5"):
            yield (f"figure{fig}_eps-count={count}",
                   ["reproduce-figure", "--figure", str(fig),
                    "--eps-count", count])
    for name in SYSTEMS:
        yield f"cancellation_{name}", ["cancellation", "--system", f"catalog:{name}"]
    for name in SYSTEMS:
        for dk in DIRECTIONS:
            base = ["perturb", "--system", f"catalog:{name}", "--dk", dk]
            yield f"perturb_{name}_{dk}", base
            yield (f"perturb_{name}_{dk}_eps0=-3e-5_power3",
                   base + ["--eps0=-3e-5", "--eps-power", "3"])
    yield ("perturb_crossed-pair_e11",
           ["perturb", "--system", "catalog:crossed-pair", "--dk", "e11"])
    yield ("perturb_quartic-jb4_zero-dk",
           ["perturb", "--system", "catalog:quartic-jb4", "--dk", ZERO_DK])
    for name in CATALOG:
        yield f"analyze_{name}", ["analyze", "--system", f"catalog:{name}"]
    for name in ("quartic-jb4", "crossed-pair"):
        yield (f"evolve_{name}_oracle",
               ["evolve", "--system", f"catalog:{name}", "--oracle"])
    yield "help", ["--help"]
    for sub in SUBCOMMANDS:
        yield f"help_{sub}", [sub, "--help"]


def run_one(directory: Path, argv) -> int:
    """Run one command inside ``directory`` and record what it printed."""
    directory.mkdir(parents=True)
    if ZERO_DK in argv:
        (directory / ZERO_DK).write_text(json.dumps([[0.0, 0.0], [0.0, 0.0]]))
    if "--help" not in argv:
        argv = argv + ["--out", "."]
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = Path.cwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli_main(argv)
    finally:
        os.chdir(cwd)
    (directory / "stdout.txt").write_text(stdout.getvalue(), encoding="utf-8")
    (directory / "stderr.txt").write_text(stderr.getvalue(), encoding="utf-8")
    (directory / "exit_code.txt").write_text(f"{code}\n", encoding="utf-8")
    return code


def largest_moves(old: str, new: str):
    """The largest relative and the largest absolute move of a number from
    old to new, each as (move, old number, new number); None when the text
    between the numbers differs."""
    if NUMBER.split(old) != NUMBER.split(new):
        return None
    relative = absolute = (0.0, "", "")
    for a, b in zip(NUMBER.findall(old), NUMBER.findall(new)):
        x, y = float(a), float(b)
        if x != y:
            relative = max(relative, (abs(y - x) / max(abs(x), abs(y)), a, b))
            absolute = max(absolute, (abs(y - x), a, b))
    return relative, absolute


def compare(earlier: Path, out: Path):
    """One line for each file of the two trees that is not the same in both."""
    files = {p.relative_to(root) for root in (earlier, out)
             for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        if not (earlier / rel).is_file() or not (out / rel).is_file():
            where = earlier if (earlier / rel).is_file() else out
            yield f"{rel}: only in {where}"
            continue
        old = (earlier / rel).read_text(encoding="utf-8")
        new = (out / rel).read_text(encoding="utf-8")
        if old == new:
            continue
        moves = largest_moves(old, new)
        if moves is None:
            yield f"{rel}: text differs"
        else:
            (rel_move, *rel_pair), (abs_move, *abs_pair) = moves
            yield (f"{rel}: only numbers moved; largest relative move "
                   f"{rel_move:.2e} ({' -> '.join(rel_pair)}), largest "
                   f"absolute move {abs_move:.2e} ({' -> '.join(abs_pair)})")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="snapshot-out",
                        help="output directory; must be new or empty")
    parser.add_argument("--against", metavar="DIR",
                        help="an earlier snapshot to compare the new one with")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    if args.against and not Path(args.against).is_dir():
        raise SystemExit(f"{args.against} is not a directory")
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty; remove it or pick another --out")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    for name, argv in commands():
        code = run_one(out / name, argv)
        print(f"{code}  {name}")
    if args.against:
        lines = list(compare(Path(args.against).resolve(), out))
        print(f"against {args.against}: {len(lines)} files differ")
        for line in lines:
            print(f"  {line}")


if __name__ == "__main__":
    main()
