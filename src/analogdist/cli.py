"""Command-line entry point: one subcommand per experiment driver.

Exit codes follow a fixed convention so scripts can branch on failures:
0 success, 2 invalid arguments or request (including argparse errors and
a request too large to allocate), 3 numeric failure (diverging
integration, degenerate distances, collapsed covariances), 4 I/O or
file-format trouble.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, experiments
from .errors import (
    CovarianceCollapseError,
    DegenerateDistancesError,
    DimensionMismatchError,
    FormatError,
    NonFiniteError,
    NotEnoughAnalogsError,
    TooLargeError,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _int(text: str) -> int:
    """One integer; scientific notation like 1e5 is accepted when integral."""
    try:
        value = float(text)
        if value.is_integer():
            return int(value)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _int_list(text: str) -> list[int]:
    """Comma-separated integers, each parsed as by _int."""
    return [_int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    """One subparser per entry of experiments.RUNNERS, plus rerun.

    Each option's dest is the runner's keyword, and an option left out is
    left out of the call, so every default lives once, in the runner.
    """
    parser = argparse.ArgumentParser(
        prog="analogdist",
        description="Analog-distance experiments: catalogs, dimension estimates, "
        "distance-law checks, and reduction/clustering pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"analogdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name, help):
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    g = command("gen-l63", "integrate the three-variable convection system into a catalog")
    g.add_argument("--n", type=int, help="number of catalog states")
    g.add_argument("--dt", type=float, help="integration step")
    g.add_argument("--burn-in", type=int, help="discarded initial steps")
    g.add_argument("--stride", type=int, help="steps between stored samples")
    g.add_argument("--seed", type=int, help="jitter the initial condition")
    g.add_argument("--out", required=True, help="output .anacat path")

    g = command("gen-surrogate", "traveling-modes surrogate catalog with known dimension")
    g.add_argument("--modes", type=int, required=True, help="number of independent phases")
    g.add_argument("--grid", type=int, help="spatial grid points per component")
    g.add_argument("--n", type=int, help="number of snapshots")
    g.add_argument("--noise", type=float, help="additive noise std")
    g.add_argument("--seed", type=int)
    g.add_argument("--components", type=int, help="stacked field components")
    g.add_argument("--decay", type=float, help="geometric mode-amplitude decay")
    g.add_argument("--out", required=True, help="output .anacat path")

    g = command("theory-curves", "tabulate rank-distance densities and moment markers")
    g.add_argument("--k-list", type=_int_list, help="distinct analog ranks")
    g.add_argument("--d-list", type=_float_list, help="dimensions")
    g.add_argument("--L", dest="catalog_size", type=_int, help="catalog size entering the law")
    g.add_argument("--grid-points", type=int)
    g.add_argument("--out", required=True, help="output directory")

    g = command("fit-target", "fit the distance power law at one catalog row")
    g.add_argument("--catalog", required=True, help=".anacat file")
    g.add_argument("--target-index", type=int, required=True)
    g.add_argument("--K", dest="n_analogs", type=int, help="analogs used in the fit")
    g.add_argument("--exclusion-gap", type=int, help="temporal exclusion half-window")
    g.add_argument("--out", required=True, help="output directory")

    g = command("mc-distances", "distance statistics across independent random catalogs")
    g.add_argument("--catalog-source", required=True, help="large .anacat to subsample")
    g.add_argument("--L-list", dest="l_list", type=_int_list, help="comma-separated catalog sizes")
    g.add_argument("--n-catalogs", type=int, help="catalogs per size")
    g.add_argument("--target", dest="target_index", type=int, help="source row used as the target")
    g.add_argument("--K-dim", dest="n_analogs_dim", type=int,
                   help="analogs per catalog for the dimension estimate")
    g.add_argument("--k-markers", type=_int_list,
                   help="distinct ranks whose rescaled distances are tested")
    g.add_argument("--bw-dim", type=float, help="KDE bandwidth, dimension panel")
    g.add_argument("--bw-rho", type=float, help="KDE bandwidth, rescaling panel")
    g.add_argument("--bw-rescaled", type=float, help="KDE bandwidth, rescaled panel")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True, help="output directory")

    g = command("rescaled-density", "pooled rescaled-fluctuation densities per rank")
    g.add_argument("--catalog", required=True, help=".anacat file")
    g.add_argument("--k-max", type=int, help="largest rank to pool")
    g.add_argument("--bandwidth", type=float, help="KDE bandwidth")
    g.add_argument("--K-dim", dest="n_analogs_dim", type=int,
                   help="analogs per target for the dimension fit")
    g.add_argument("--n-targets", type=int)
    g.add_argument("--exclusion-gap", type=int, help="temporal exclusion half-window")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True, help="output directory")

    g = command("dmax-scan", "scan EOF truncations against the analog-quality criterion")
    g.add_argument("--catalog", required=True, help=".anacat file")
    g.add_argument("--epsilon", type=float, required=True,
                   help="tolerated mean rank-k distance as a fraction of RMSD")
    g.add_argument("--k-list", type=_int_list, help="distinct analog ranks")
    g.add_argument("--eof-counts", type=_int_list, help="EOF truncations to test")
    g.add_argument("--L-eff", dest="l_eff", type=_int,
                   help="effective decorrelated catalog size (default: length/24)")
    g.add_argument("--rho-bar", type=float, help="typical density rescaling")
    g.add_argument("--K", dest="n_analogs", type=int,
                   help="analogs per target for dimension estimates")
    g.add_argument("--n-targets", type=int)
    g.add_argument("--seed", type=int)
    g.add_argument("--rmsd-pairs", type=int)
    g.add_argument("--out", required=True, help="output directory")

    g = command("cluster", "EOF reduction plus BIC-selected Gaussian mixture")
    g.add_argument("--catalog", required=True, help=".anacat file")
    g.add_argument("--n-eof", type=int, help="EOF components kept")
    g.add_argument("--candidates", type=_int_list, help="mixture sizes to score")
    g.add_argument("--seeds", dest="seeds_per_candidate", type=int,
                   help="EM restarts per candidate")
    g.add_argument("--covariance", choices=("full", "diag"))
    g.add_argument("--standardize", action="store_true",
                   help="scale projected components to unit variance before fitting")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True, help="output directory")

    g = command("dim-stats", "local-dimension series with daily/weekly statistics")
    g.add_argument("--catalog", required=True, help=".anacat file")
    g.add_argument("--K", dest="n_analogs", type=int, help="analogs per target")
    g.add_argument("--exclusion-gap", type=int, help="temporal exclusion half-window")
    g.add_argument("--n-targets", type=int)
    g.add_argument("--steps-per-day", type=int, help="catalog time steps per day")
    g.add_argument("--smooth-window-days", type=float,
                   help="Gaussian smoothing window (sigma = window/4)")
    g.add_argument("--hist-bins", type=int)
    g.add_argument("--out", required=True, help="output directory")

    g = command("rerun", "re-run an experiment from its manifest and verify hashes")
    g.add_argument("manifest_path", metavar="manifest",
                   help="manifest.json written by a previous run")
    g.add_argument("--out", help="regenerate outputs here instead of in place")

    return parser


def main(argv=None) -> int:
    kwargs = vars(build_parser().parse_args(argv))
    command = kwargs.pop("command")
    try:
        if command == "rerun":
            result, status = experiments.run_rerun(**kwargs)
        else:
            result, status = experiments.RUNNERS[command][0](**kwargs), None
        for line in result.summary:
            print(line)
        if status is None:
            print(f"manifest: {result.manifest_path}")
            return EXIT_OK
        for rel in sorted(status):
            print(f"{'ok      ' if status[rel] else 'MISMATCH'} {rel}")
        if not all(status.values()):
            print("error: regenerated outputs differ from the manifest", file=sys.stderr)
            return EXIT_NUMERIC
        return EXIT_OK
    except (NonFiniteError, DegenerateDistancesError, CovarianceCollapseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (TooLargeError, NotEnoughAnalogsError, DimensionMismatchError, ValueError,
            MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
