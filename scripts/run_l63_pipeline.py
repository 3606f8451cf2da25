#!/usr/bin/env python3
"""Desk-scale chaotic-attractor pipeline: catalog, fits, Monte Carlo, scans.

Writes everything under results/l63 (override with the first argument).
Expect a few minutes end to end; prior results are overwritten in place.
"""

import sys
from pathlib import Path

from analogdist.cli import main


def steps(root: Path) -> list[list[str]]:
    """The pipeline's CLI argument lists, in run order."""
    catalog = root / "catalog.anacat"
    return [
        ["gen-l63", "--n", "200000", "--stride", "5", "--seed", "1", "--out", str(catalog)],
        ["theory-curves", "--k-list", "1,5,30", "--d-list", "1.3,2,5", "--L", "1e5",
         "--out", str(root / "theory")],
        ["fit-target", "--catalog", str(catalog), "--target-index", "1234", "--K", "40",
         "--exclusion-gap", "36", "--out", str(root / "fit")],
        ["mc-distances", "--catalog-source", str(catalog), "--L-list", "1e4,1e5",
         "--n-catalogs", "100", "--target", "1234", "--K-dim", "150",
         "--out", str(root / "mc")],
        ["rescaled-density", "--catalog", str(catalog), "--k-max", "8", "--n-targets", "300",
         "--out", str(root / "rescaled")],
        ["dmax-scan", "--catalog", str(catalog), "--epsilon", "0.5", "--k-list", "1,5,25",
         "--eof-counts", "1,2,3", "--out", str(root / "dmax")],
        ["dim-stats", "--catalog", str(catalog), "--K", "40", "--exclusion-gap", "36",
         "--n-targets", "1000", "--out", str(root / "dimstats")],
    ]


if __name__ == "__main__":
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results/l63")
    for argv in steps(root):
        print(f"\n== analogdist {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            sys.exit(code)
    print("\npipeline complete:", root)
