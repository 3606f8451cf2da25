#!/usr/bin/env python3
"""Gridded-field surrogate pipeline standing in for proprietary wind fields.

A two-component traveling-modes catalog takes the role of hourly wind
snapshots: dimension statistics, EOF reduction with mixture clustering,
and the truncation scan run on top of it. Output lands in results/wind
(override with the first argument).
"""

import sys
from pathlib import Path

from analogdist.cli import main


def steps(root: Path) -> list[list[str]]:
    """The pipeline's CLI argument lists, in run order."""
    catalog = root / "surrogate.anacat"
    return [
        ["gen-surrogate", "--modes", "13", "--grid", "64", "--components", "2",
         "--n", "30000", "--seed", "7", "--out", str(catalog)],
        ["dim-stats", "--catalog", str(catalog), "--K", "40", "--exclusion-gap", "36",
         "--n-targets", "1500", "--out", str(root / "dimstats")],
        ["rescaled-density", "--catalog", str(catalog), "--k-max", "8", "--n-targets", "300",
         "--out", str(root / "rescaled")],
        ["cluster", "--catalog", str(catalog), "--n-eof", "20", "--candidates", "1,2,3,4,5,6",
         "--seeds", "3", "--out", str(root / "cluster")],
        ["dmax-scan", "--catalog", str(catalog), "--epsilon", "0.4", "--k-list", "1,5,25",
         "--eof-counts", "1,2,3,4,5,6,8,10,13,16,20,26,32,40", "--L-eff", "1250",
         "--out", str(root / "dmax")],
    ]


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/wind")
    for argv in steps(root):
        print(f"\n== analogdist {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            sys.exit(code)
    print("\npipeline complete:", root)
