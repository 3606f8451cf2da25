"""Outside-in per-layer trace of the analogdist package.

Tracer.install() replaces every public function of each layer module (the
names in its __all__, minus the run_* drivers, which the benchmark times as
commands) and the NeighborIndex methods with timing wrappers, and rebinds
every module-level reference to them, so calls made through
`from .x import f` names are seen too. Nothing in the package changes on
disk; uninstall() puts the originals back.

Each call becomes a span with a parent: the innermost traced call on the
same thread. A module's busy time sums its spans whose parent lies in
another module (or that have none), so calls a module makes into itself
are not counted twice. Spans without a parent are the children of the
command that is running; their union, subtracted from the command's wall
time, is the drivers' self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from analogdist.errors import CovarianceCollapseError

LAYERS = (
    "lorenz", "surrogate", "catalog", "neighbors", "dimension", "disttheory",
    "density", "dimred", "clustering", "manifest", "svgplot", "experiments",
)
INDEX_METHODS = ("__init__", "query", "query_radius")

# Per-layer metrics: (name, unit, better), in the order they are reported.
PER_LAYER = (
    ("lorenz.busy_s", "s", "lower"),
    ("lorenz.steps_per_s", "steps/s", "higher"),
    ("surrogate.busy_s", "s", "lower"),
    ("catalog.load_s", "s", "lower"),
    ("catalog.load_mb_per_s", "MB/s", "higher"),
    ("catalog.save_s", "s", "lower"),
    ("catalog.subsample_s", "s", "lower"),
    ("catalog.exclusion_s", "s", "lower"),
    ("neighbors.builds", "count", "lower"),
    ("neighbors.build_s", "s", "lower"),
    ("neighbors.kdtree.query_s", "s", "lower"),
    ("neighbors.kdtree.query_us", "us", "lower"),
    ("neighbors.exhaustive.query_s", "s", "lower"),
    ("neighbors.exhaustive.query_us", "us", "lower"),
    ("neighbors.exclusion_rounds_per_query", "rounds", "lower"),
    ("neighbors.kept_per_examined", "ratio", "higher"),
    ("dimension.busy_s", "s", "lower"),
    ("disttheory.busy_s", "s", "lower"),
    ("density.busy_s", "s", "lower"),
    ("dimred.eof_fits", "count", "lower"),
    ("dimred.eof_fit_s", "s", "lower"),
    ("dimred.project_s", "s", "lower"),
    ("dimred.rmsd_s", "s", "lower"),
    ("dimred.scan_queries", "count", "lower"),
    ("clustering.gmm_fits", "count", "lower"),
    ("clustering.em_iterations", "count", "lower"),
    ("clustering.full.em_iter_ms", "ms", "lower"),
    ("clustering.diag.em_iter_ms", "ms", "lower"),
    ("clustering.gmm_fit_s", "s", "lower"),
    ("clustering.score_s", "s", "lower"),
    ("clustering.collapsed_fits", "count", "lower"),
    ("manifest.busy_s", "s", "lower"),
    ("manifest.hash_mb_per_s", "MB/s", "higher"),
    ("svgplot.busy_s", "s", "lower"),
    ("experiments.write_csv_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.pool_occupancy", "ratio", "higher"),
    ("trace.overhead_s", "s", "lower"),
)


@dataclass(frozen=True)
class Call:
    """One finished call, as its hook sees it; `stack` holds the traced
    calls still open on the same thread."""

    fn: object
    args: tuple
    kwargs: dict
    result: object
    error: BaseException | None
    seconds: float
    stack: list

    def arg(self, name: str):
        bound = inspect.signature(self.fn).bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


class Tracer:
    """Counts and busy times of calls into the package's layers."""

    def __init__(self):
        self._patches = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.busy = defaultdict(float)
        self.counts = defaultdict(float)
        self.top_spans = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"analogdist.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("run_"):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", layer, fn)
        index = importlib.import_module("analogdist.neighbors").NeighborIndex
        for meth in INDEX_METHODS:
            fn = vars(index)[meth]
            self._patch(index, meth, fn, self._wrap(f"neighbors.NeighborIndex.{meth}", "neighbors", fn))
        modules = [m for name, m in list(sys.modules.items()) if name.startswith("analogdist.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(mod, attr, value, wrappers[value])

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, layer: str, fn):
        tracer = self
        hook = getattr(self, "_on_" + name.split(".", 1)[1].replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            stack.append((name, layer))
            start = perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer._record(name, layer, parent, start, end)
                if hook is not None:
                    hook(Call(fn, args, kwargs, result, error, end - start, stack))

        return traced

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, layer, parent, start, end) -> None:
        with self._lock:
            self.calls[name] += 1
            self.seconds[name] += end - start
            if parent is None or parent[1] != layer:
                self.busy[layer] += end - start
            if parent is None:
                self.top_spans.append((start, end))

    def _count(self, **amounts) -> None:
        with self._lock:
            for key, value in amounts.items():
                self.counts[key] += value

    # -- hooks: counts taken from arguments and results ----------------------

    def _on_generate_trajectory(self, call):
        steps = call.arg("burn_in") + (call.arg("n_steps") - 1) * call.arg("stride")
        self._count(lorenz_steps=steps)

    def _on_load_catalog(self, call):
        self._count(load_bytes=os.path.getsize(call.arg("path")))

    def _on_file_sha256(self, call):
        self._count(hash_bytes=os.path.getsize(call.arg("path")))

    def _on_NeighborIndex_query(self, call):
        # Positional look-ups: this runs once per query, bind() would cost more.
        backend = call.args[0].backend
        policy = call.args[3] if len(call.args) > 3 else call.kwargs.get("policy")
        amounts = {f"{backend}_queries": 1, f"{backend}_query_s": call.seconds}
        if policy is not None and call.error is None:
            amounts.update(policy_queries=1, kept=len(call.result))
        if any(frame[0] == "dimred.criterion_scan" for frame in call.stack):
            amounts["scan_queries"] = 1
        self._count(**amounts)

    def _on_apply_exclusion(self, call):
        if call.stack and call.stack[-1][0] == "neighbors.NeighborIndex.query":
            self._count(exclusion_rounds=1, examined=len(call.args[0]))

    def _on_gmm_fit(self, call):
        if isinstance(call.error, CovarianceCollapseError):
            self._count(collapsed_fits=1)
        elif call.error is None:
            cov = call.arg("covariance")
            self._count(**{f"{cov}_iterations": len(call.result.log_likelihood_path), f"{cov}_fit_s": call.seconds})

    # -- metrics --------------------------------------------------------------

    def metrics(self, commands, rounds: int) -> dict[str, float]:
        """Per-layer metrics per traced round. `commands` holds the
        (label, start, end) of each traced command."""
        s, c, n = self.seconds, self.counts, self.calls
        per = 1.0 / max(rounds, 1)
        self_s, pool_busy, pool_wall = 0.0, 0.0, 0.0
        for label, start, end in commands:
            inside = [(a, b) for a, b in self.top_spans if a >= start and b <= end]
            self_s += (end - start) - _union_length(inside)
            if label == "mc_distances":
                pool_busy += sum(b - a for a, b in inside)
                pool_wall += end - start
        iterations = c["full_iterations"] + c["diag_iterations"]
        return {
            "lorenz.busy_s": self.busy["lorenz"] * per,
            "lorenz.steps_per_s": _ratio(c["lorenz_steps"], s["lorenz.generate_trajectory"]),
            "surrogate.busy_s": self.busy["surrogate"] * per,
            "catalog.load_s": s["catalog.load_catalog"] * per,
            "catalog.load_mb_per_s": _ratio(c["load_bytes"] / 1e6, s["catalog.load_catalog"]),
            "catalog.save_s": s["catalog.save_catalog"] * per,
            "catalog.subsample_s": s["catalog.subsample_without_replacement"] * per,
            "catalog.exclusion_s": s["catalog.apply_exclusion"] * per,
            "neighbors.builds": n["neighbors.NeighborIndex.__init__"] * per,
            "neighbors.build_s": s["neighbors.NeighborIndex.__init__"] * per,
            "neighbors.kdtree.query_s": c["kdtree_query_s"] * per,
            "neighbors.kdtree.query_us": 1e6 * _ratio(c["kdtree_query_s"], c["kdtree_queries"]),
            "neighbors.exhaustive.query_s": c["exhaustive_query_s"] * per,
            "neighbors.exhaustive.query_us": 1e6 * _ratio(c["exhaustive_query_s"], c["exhaustive_queries"]),
            "neighbors.exclusion_rounds_per_query": _ratio(c["exclusion_rounds"], c["policy_queries"]),
            "neighbors.kept_per_examined": _ratio(c["kept"], c["examined"]),
            "dimension.busy_s": self.busy["dimension"] * per,
            "disttheory.busy_s": self.busy["disttheory"] * per,
            "density.busy_s": self.busy["density"] * per,
            "dimred.eof_fits": n["dimred.eof_fit"] * per,
            "dimred.eof_fit_s": s["dimred.eof_fit"] * per,
            "dimred.project_s": s["dimred.project"] * per,
            "dimred.rmsd_s": s["dimred.rmsd"] * per,
            "dimred.scan_queries": c["scan_queries"] * per,
            "clustering.gmm_fits": n["clustering.gmm_fit"] * per,
            "clustering.em_iterations": iterations * per,
            "clustering.full.em_iter_ms": 1e3 * _ratio(c["full_fit_s"], c["full_iterations"]),
            "clustering.diag.em_iter_ms": 1e3 * _ratio(c["diag_fit_s"], c["diag_iterations"]),
            "clustering.gmm_fit_s": s["clustering.gmm_fit"] * per,
            "clustering.score_s": (s["clustering.bic"] + s["clustering.responsibilities"]) * per,
            "clustering.collapsed_fits": c["collapsed_fits"] * per,
            "manifest.busy_s": self.busy["manifest"] * per,
            "manifest.hash_mb_per_s": _ratio(c["hash_bytes"] / 1e6, s["manifest.file_sha256"]),
            "svgplot.busy_s": self.busy["svgplot"] * per,
            "experiments.write_csv_s": s["experiments.write_csv"] * per,
            "experiments.self_s": self_s * per,
            "experiments.pool_occupancy": _ratio(pool_busy, pool_wall),
        }
