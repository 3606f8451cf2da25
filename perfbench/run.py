#!/usr/bin/env python3
"""Benchmark of the analogdist commands.

    python3 perfbench/run.py --workload l63 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It runs one workload (l63, wind or
mixture) at one seed in this process, repeating whole rounds of its
commands for at least --seconds, and checks every output. The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1). The line
before it records the seed, the unscaled round and reference times, commit,
CPU count, thread settings and library versions. Scratch files go under .perfbench/ and are removed at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> dict:
    """Cap the package's worker pool at the CPU count (and the package's
    own limit of 8) and run BLAS single-threaded, so that pool threads do
    not compete with BLAS threads for the cores. Must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    os.environ["ANALOG_DIST_THREADS"] = str(min(nproc, 8))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return {"nproc": nproc, "ANALOG_DIST_THREADS": os.environ["ANALOG_DIST_THREADS"], "blas_threads": 1}


def commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree; read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    source = hashlib.sha256()
    for path in sorted((SRC / "analogdist").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        **threads,
        "commit": commit(),
        "source_sha256": source.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("l63", "wind", "mixture"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run whole rounds until this long has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "analogdist" / "cli.py").is_file():
        print(f"error: no analogdist sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    threads = pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import run_workload

    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir, SRC)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": result.pop("rounds"),
        "commands_s": result.pop("commands_s"),
        "host": result.pop("host"),
        "environment": environment(threads),
    }
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
