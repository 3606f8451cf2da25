"""Command-line entry point: one subcommand per experiment driver.

Subcommands are generated from the driver signatures, and option text is
read by the rule that binding applies to a manifest's values.

Exit codes follow a fixed convention so scripts can branch on failures:
0 success, 2 invalid arguments or request (including argparse errors and
a request too large to allocate), 3 numeric failure (diverging
integration, degenerate distances, collapsed covariances), 4 I/O or
file-format trouble.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Annotated, get_args, get_origin

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


# Flags other than the dashed keyword; a (command, keyword) entry comes first.
_FLAGS = {"catalog_size": "--L", "l_list": "--L-list", "l_eff": "--L-eff", "n_analogs": "--K",
          "n_analogs_dim": "--K-dim", "seeds_per_candidate": "--seeds",
          ("mc-distances", "target_index"): "--target"}

_OUT_HELP = {"file": "output .anacat path", "dir": "output directory"}

_HELP = {
    "n": "number of stored states",
    "dt": "integration step",
    "burn_in": "discarded initial steps",
    "stride": "steps between stored samples",
    "seed": "random seed",
    "modes": "number of independent phases",
    "grid": "spatial grid points per component",
    "noise": "additive noise std",
    "components": "stacked field components",
    "decay": "geometric mode-amplitude decay",
    "k_list": "distinct analog ranks",
    "d_list": "dimensions",
    "catalog_size": "catalog size entering the law",
    "catalog": ".anacat file",
    "catalog_source": "large .anacat to subsample",
    "n_analogs": "analogs per target",
    "n_analogs_dim": "analogs per target for the dimension estimate",
    "exclusion_gap": "temporal exclusion half-window",
    "l_list": "catalog sizes",
    "n_catalogs": "catalogs per size",
    "k_markers": "distinct ranks whose rescaled distances are tested",
    "bw_dim": "KDE bandwidth, dimension panel",
    "bw_rho": "KDE bandwidth, rescaling panel",
    "bw_rescaled": "KDE bandwidth, rescaled panel",
    "k_max": "largest rank to pool",
    "bandwidth": "KDE bandwidth",
    "epsilon": "tolerated mean rank-k distance as a fraction of RMSD",
    "eof_counts": "EOF truncations to test",
    "l_eff": "effective decorrelated catalog size (default: length/24)",
    "rho_bar": "typical density rescaling",
    "n_eof": "EOF components kept",
    "candidates": "mixture sizes to score",
    "seeds_per_candidate": "EM restarts per candidate",
    "covariance": "full or diag",
    "standardize": "scale projected components to unit variance before fitting",
    "steps_per_day": "catalog time steps per day",
    "smooth_window_days": "Gaussian smoothing window (sigma = window/4)",
}


@functools.cache
def _text_parser(kind):
    """The argparse type of a parameter annotated `kind`: experiments._coerce,
    the rule that reads a manifest's values, with the domain checks left to
    binding; a `tuple[T, ...]` takes comma-separated items and gives a list."""
    origin, args = get_origin(kind), get_args(kind)
    if origin is Annotated or type(None) in args:
        return _text_parser(args[0])
    if origin is tuple:
        item = _text_parser(args[0])
        return lambda text: [item(tok) for tok in text.split(",") if tok.strip()]

    def parse(text: str):
        try:
            return experiments._coerce(kind, text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"not {noun}: {text!r}") from None

    return parse


def build_parser() -> argparse.ArgumentParser:
    """One subparser per entry of experiments.RUNNERS, plus rerun.

    Each is generated from the driver's signature: one option per keyword,
    `--out` last, with the keyword as dest, required exactly where the
    keyword has no default; a bool is a switch. An option left out is left
    out of the call, so every default lives once, in the driver.
    """
    parser = argparse.ArgumentParser(
        prog="analogdist",
        description="Analog-distance experiments: catalogs, dimension estimates, "
        "distance-law checks, and reduction/clustering pipelines.",
    )
    parser.add_argument("--version", action="version", version=f"analogdist {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    for command, (runner, kind) in experiments.RUNNERS.items():
        g = sub.add_parser(command, help=runner.__doc__.partition("\n")[0],
                           argument_default=argparse.SUPPRESS)
        params = experiments._signature(runner).parameters
        for param in sorted(params.values(), key=lambda p: p.name == "out"):
            name = param.name
            flag = _FLAGS.get((command, name)) or _FLAGS.get(name) or f"--{name.replace('_', '-')}"
            help = _OUT_HELP[kind] if name == "out" else _HELP.get(name)
            if param.annotation is bool:
                g.add_argument(flag, dest=name, action="store_true", help=help)
            else:
                g.add_argument(flag, dest=name, type=_text_parser(param.annotation),
                               required=param.default is param.empty, help=help)

    g = sub.add_parser("rerun", help="re-run an experiment from its manifest and verify hashes",
                       argument_default=argparse.SUPPRESS)
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
    # ValueError first: io.UnsupportedOperation, also an OSError, exits 2.
    except (TooLargeError, NotEnoughAnalogsError, DimensionMismatchError, ValueError,
            MemoryError) as exc:
        error, code = exc, EXIT_VALIDATION
    except (NonFiniteError, DegenerateDistancesError, CovarianceCollapseError,
            ArithmeticError) as exc:
        error, code = exc, EXIT_NUMERIC
    except (FormatError, OSError) as exc:
        error, code = exc, EXIT_IO
    print(f"error: {error}", file=sys.stderr)
    return code
