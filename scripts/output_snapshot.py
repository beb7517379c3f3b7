#!/usr/bin/env python3
"""Outputs of a fixed list of CLI commands, one directory per command.

Every command runs in this one process through critmode.cli.main, with its
own directory as the working directory and ``--out .``.  Next to the files
the command writes, the directory gets stdout.txt, stderr.txt and
exit_code.txt.  Nothing depends on the clock or on the output path, so two
versions of the library that behave the same write the same tree, and

    diff -r snapshot-before snapshot-after

lists every file, message and exit code that moved.  The commands include
failures (exit 2 and 4) and --help between ordinary runs, so the run also
exercises one parser serving many calls.

Commands:
  - reproduce-figure 1..5 at eps0 = +-1e-4 and +-3e-5;
  - cancellation on single-critical, quartic-jb4, cubic-jb3, double-jb2;
  - perturb on the same four systems x --dk {e11, mu:1,-1.5,2,
    mu:-2,0.5,1} x {the default grid, --eps0=-3e-5 --eps-power 3};
  - perturb on crossed-pair (a level crossing, exit 2) and along an
    all-zero --dk file (exit 4);
  - analyze on the five catalog systems;
  - evolve --oracle on quartic-jb4 and crossed-pair;
  - --help of the program and of each subcommand (at 80 columns).

Usage: PYTHONPATH=src python scripts/output_snapshot.py [--out DIR]
"""

import argparse
import contextlib
import io
import json
import os
from pathlib import Path

from critmode.cli import main as cli_main

SYSTEMS = ("single-critical", "quartic-jb4", "cubic-jb3", "double-jb2")
CATALOG = SYSTEMS + ("crossed-pair",)
DIRECTIONS = ("e11", "mu:1,-1.5,2", "mu:-2,0.5,1")
SUBCOMMANDS = ("analyze", "evolve", "perturb", "design", "reproduce-figure",
               "cancellation")
ZERO_DK = "zero-dk.json"


def commands():
    """(directory name, argv) for every command, in running order."""
    for fig in range(1, 6):
        for eps0 in ("1e-4", "-1e-4", "3e-5", "-3e-5"):
            yield (f"figure{fig}_eps0={eps0}",
                   ["reproduce-figure", "--figure", str(fig), f"--eps0={eps0}"])
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="snapshot-out",
                        help="output directory; must be new or empty")
    args = parser.parse_args()
    out = Path(args.out).resolve()
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"{out} is not empty; remove it or pick another --out")
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal
    for name, argv in commands():
        code = run_one(out / name, argv)
        print(f"{code}  {name}")


if __name__ == "__main__":
    main()
