#!/usr/bin/env python3
"""Small-denominator sweep on the fourth- and third-order reference blocks.

Per-mode expansion weights blow up like |lambda|**(1-M) as the perturbation
shrinks, while the summed cluster evolution stays next to the critical
Jordan-basis evolution.  Prints the fitted slopes and writes the CSVs.
"""

import argparse
import json
from pathlib import Path

from critmode.cli import main as cli_main


def run(out_dir: Path) -> None:
    for name, phi in (("quartic-jb4", "1,0,0,0"), ("cubic-jb3", "1,0,0,0")):
        out = out_dir / name
        code = cli_main(
            [
                "cancellation",
                "--system", f"catalog:{name}",
                "--phi", phi,
                "--out", str(out),
            ]
        )
        if code != 0:
            raise SystemExit(code)
        summary = json.loads((out / "cancellation_summary.json").read_text())
        # the diff slope is null when fewer than two diffs clear the
        # modal sum's rounding floor
        d_slope = summary["diff_slope"]
        print(
            f"{name}: M={summary['block_size']}  "
            f"weight slope {summary['weight_slope']:+.3f} "
            f"(expect {1 - summary['block_size']})  "
            f"diff slope {'null' if d_slope is None else f'{d_slope:+.3f}'} "
            f"over {summary['diff_fit_points']} eps"
        )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="cancellation-out")
    args = parser.parse_args()
    run(Path(args.out))
