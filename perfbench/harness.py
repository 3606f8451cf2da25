"""Run one workload: set up its inputs, repeat whole rounds of its commands
for the requested time, check every output, and collect the metrics.

Commands run in this process through analogdist.cli.main, with the
argument lists a user would type. With tracing on, each untraced round is
followed by a traced one, so the per-layer figures and the tracing overhead
come from the same process and seed.

The first round is a warm-up: it is checked but not timed, and the peak
memory is read after it. Each later round is scaled to the host's speed:
the reference computation in reference.py runs before and after it, and
`wall_ref_s` is NOMINAL_S times the median of round time over the mean of
those two reference times. Set-up time is reported as measured.
"""

from __future__ import annotations

import contextlib
import io
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from analogdist import cli

import checks
from reference import NOMINAL_S, reference_seconds
from tracer import PER_LAYER, Tracer
from workloads import WORKLOADS

SETUP_REPEATS = 3
COMMAND_METRICS = (
    "gen_l63", "mc_distances", "rerun", "dim_stats", "rescaled_density", "dmax_scan",
    "cluster_full", "cluster_diag",
)


def call_cli(argv, env: dict | None = None) -> tuple[int, str]:
    """Run one command in this process; return its exit code and stderr."""
    saved = {key: os.environ.get(key) for key in env or {}}
    os.environ.update(env or {})
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                code = 1
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, err.getvalue()


def import_seconds(src: Path) -> float:
    """Interpreter start-up plus package import, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import analogdist.cli"], env=env, check=True)
    return perf_counter() - start


def build_inputs(workload, inputs: Path, seed: int, sizes: dict) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for argv in workload.setup(inputs, seed, sizes):
        code, err = call_cli(argv)
        if code != 0:
            raise RuntimeError(f"set-up command {' '.join(argv)} exited {code}: {err}")


def run_round(workload, rdir: Path, inputs: Path, seed: int, sizes: dict) -> dict:
    """Run the workload's commands once, back to back, and check each."""
    rdir.mkdir(parents=True)
    times, spans, hashes, failed = {}, [], {}, []
    for op in workload.ops(rdir, inputs, seed, sizes):
        start = perf_counter()
        code, err = call_cli(op.argv, op.env)
        end = perf_counter()
        times[op.label] = end - start
        spans.append((op.label, start, end))
        try:
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.strip()}")
            op.check()
            hashes[op.label] = checks.manifest_outputs(op.manifest)
        except Exception as exc:  # any failed check or unreadable output fails the operation
            failed.append(op.label)
            print(f"FAILED {op.label}: {exc}", file=sys.stderr)
    shutil.rmtree(rdir)
    return {"times": times, "spans": spans, "hashes": hashes, "failed": failed}


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path, src: Path,
                 sizes: dict | None = None) -> dict:
    """Run `name` at `seed` for at least `seconds`; return the result record."""
    workload = WORKLOADS[name]
    sizes = sizes or workload.full
    inputs = workdir / "inputs"
    tracer = Tracer() if trace else None
    setup = []
    if trace:
        tracer.install()
        try:
            build_inputs(workload, inputs, seed, sizes)
        finally:
            tracer.uninstall()
    else:
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            import_seconds(src)
            build_inputs(workload, inputs, seed, sizes)
            setup.append(perf_counter() - start)

    plain, traced, refs = [], [], []
    start = perf_counter()
    while len(plain) < 2 or perf_counter() - start < seconds:
        if plain:
            refs.append(reference_seconds())
        plain.append(run_round(workload, workdir / f"round-{len(plain) + len(traced)}", inputs, seed, sizes))
        if len(plain) == 1:  # later rounds only let the allocator grow
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            reference_seconds()  # untimed: its first run is slower
        if trace:
            tracer.install()
            try:
                traced.append(run_round(workload, workdir / f"round-{len(plain) + len(traced)}", inputs, seed, sizes))
            finally:
                tracer.uninstall()
    refs.append(reference_seconds())

    rounds = plain + traced
    failed = sum(len(r["failed"]) for r in rounds)
    first_hashes = rounds[0]["hashes"]
    for r in rounds[1:]:
        for label, outputs in r["hashes"].items():
            if first_hashes.get(label) != outputs:
                failed += 1
                print(f"FAILED {label}: output hashes differ between rounds of one seed", file=sys.stderr)
    attempted = sum(len(r["times"]) for r in rounds)

    def median_of(key, group):
        return statistics.median(r["times"][key] for r in group) if key in group[0]["times"] else 0.0

    def wall(group):
        return statistics.median(sum(r["times"].values()) for r in group)

    timed = plain[1:]
    scaled = [sum(r["times"].values()) / (0.5 * (a + b)) for r, a, b in zip(timed, refs, refs[1:])]
    host = {
        "reference_s": statistics.median(refs),
        "wall_s": wall(timed),
    }
    commands = {label: median_of(label, timed) for label in timed[0]["times"]}
    if trace:
        metrics = tracer.metrics([s for r in traced for s in r["spans"]], len(traced))
        metrics["trace.overhead_s"] = wall(traced) - host["wall_s"]
        metrics.update({f"{label}_s": median_of(label, timed) for label in COMMAND_METRICS})
        metrics.update({"round.wall_s": host["wall_s"], "host.reference_s": host["reference_s"]})
        units = {name: unit for name, unit, _ in PER_LAYER} | {f"{label}_s": "s" for label in COMMAND_METRICS}
        units.update({"round.wall_s": "s", "host.reference_s": "s"})
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_ref_s": NOMINAL_S * statistics.median(scaled),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "wall_ref_s": "s", "peak_rss_mb": "MB"}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
        "rounds": {"untraced": len(plain), "traced": len(traced)},
        "commands_s": commands,
        "host": host,
    }
