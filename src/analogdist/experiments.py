"""Experiment drivers: seeded pipelines that write CSV, SVG, and manifests.

Each driver takes its output location first, runs one self-contained
experiment, writes versioned CSV artifacts plus minimal SVG renderings of
them, and drops a manifest recording parameters, seeds, and output hashes.
A driver's signature is its record of parameters: each call is bound to it,
defaults applied and every argument coerced to its annotation, which also
holds the parameter's fixed domain, so a value outside it raises ValueError
naming the parameter before any file is read or written. The manifest
records the bound arguments. Drivers are deterministic functions of their
arguments, so re-running from a manifest reproduces every artifact bit for
bit; a manifest whose parameters do not bind to the signature (unknown,
missing, uncoercible or out of domain) raises FormatError before the driver
runs. Monte Carlo work is spread over a thread pool (its large numpy calls
release the GIL), each catalog filling its own row of one array sized up
front, keeping results independent of the worker count;
ANALOG_DIST_THREADS sets the pool size, at most MAX_WORKERS. The cluster command fits its candidate counts on as many
forked processes instead: EM's many short numpy calls hold the GIL, and two
threads running them at once on 2 cores made each call 1.9-3.5 times
slower than one.
"""

from __future__ import annotations

import csv as _csvmod
import functools
import inspect
import io
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Annotated, get_args, get_origin

import numpy as np

from .catalog import Catalog, ExclusionPolicy, load_catalog, save_catalog
from .clustering import assign_spatial_clusters, select_n_clusters
from .density import gaussian_kde, gaussian_smooth, ks_test, wasserstein1
from .dimension import estimate_local_dimension, fit_prefactor, rescale_distances
from .dimred import criterion_scan, eof_fit, project
from .disttheory import (
    DistParams,
    distance_mean,
    distance_mean_approx,
    distance_mode,
    distance_pdf,
    distance_survival,
    distance_variance,
    rescaled_pdf,
)
from .errors import FormatError, TooLargeError
from .lorenz import DEFAULT_BURN_IN, DEFAULT_DT, generate_trajectory
from .manifest import build_manifest, load_manifest, save_manifest, verify_outputs
from .neighbors import NeighborIndex
from .surrogate import traveling_modes_surrogate
from .svgplot import line_plot

__all__ = [
    "ExperimentResult",
    "worker_count",
    "write_csv",
    "run_gen_l63",
    "run_gen_surrogate",
    "run_theory_curves",
    "run_fit_target",
    "run_mc_distances",
    "run_rescaled_density",
    "run_dmax_scan",
    "run_cluster",
    "run_dim_stats",
    "run_rerun",
    "RUNNERS",
]

CSV_SCHEMA = "analogdist-csv/v1"
# Ceiling on ANALOG_DIST_THREADS: the pools run numpy work on a few cores,
# and an unbounded value would ask the OS for that many threads or processes.
MAX_WORKERS = 64
_DENSITY_GRID = 512


@dataclass(frozen=True)
class ExperimentResult:
    """What a driver produced: artifact paths, the manifest, and a printable summary."""

    outputs: tuple[Path, ...]
    manifest_path: Path
    summary: tuple[str, ...]


def worker_count() -> int:
    """Worker-pool size: ANALOG_DIST_THREADS if set, else cpu count capped at
    8. A set value above MAX_WORKERS is cut to MAX_WORKERS."""
    env = os.environ.get("ANALOG_DIST_THREADS")
    if env is None:
        return min(8, os.cpu_count() or 1)
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"ANALOG_DIST_THREADS must be an integer >= 1, got {env!r}")
    return min(n, MAX_WORKERS)


def _cell(value) -> str:
    # Exact-type checks first: after .tolist() nearly every cell is one of these.
    kind = type(value)
    if kind is float:
        return "" if math.isnan(value) else repr(value)
    if kind is str:
        return value
    if kind is int:
        return str(value)
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return "" if math.isnan(v) else repr(v)
    return str(value)


def write_csv(path, name: str, columns: dict) -> Path:
    """Write named columns as CSV with a schema comment line.

    Floats are rendered with repr (shortest round-trip form) and NaN as an
    empty cell, so output bytes are a pure function of the values.
    """
    cols = {
        key: values.tolist() if isinstance(values, np.ndarray) and values.ndim == 1 else list(values)
        for key, values in columns.items()
    }
    if len({len(v) for v in cols.values()}) != 1:
        raise ValueError("CSV columns must all have the same length")
    buf = io.StringIO()
    writer = _csvmod.writer(buf, lineterminator="\n")
    writer.writerow(cols.keys())
    writer.writerows(zip(*[list(map(_cell, col)) for col in cols.values()]))
    path = Path(path)
    path.write_text(f"# {CSV_SCHEMA} {name}\n" + buf.getvalue(), encoding="utf-8")
    return path


def _plot(svg_path: Path, columns: dict, x, y, **style) -> Path:
    """Render the columns of a table the driver writes to CSV as an SVG line plot."""
    svg_path.write_text(line_plot(columns, x, y, **style), encoding="utf-8")
    return svg_path


def _long_form(curves: dict) -> dict:
    """One long-form table from {label: {column: values or scalar}}.

    The `series` column repeats each label along its curve and every other
    column stacks the curves in order; a scalar fills its curve's length.
    """
    table = {"series": []}
    for label, columns in curves.items():
        n = next(len(v) for v in columns.values() if isinstance(v, (list, np.ndarray)))
        table["series"] += [label] * n
        for name, values in columns.items():
            if isinstance(values, np.ndarray):
                values = values.tolist()
            elif not isinstance(values, list):
                values = [values] * n
            table.setdefault(name, []).extend(values)
    return table


def _distinct(values: tuple) -> tuple:
    """The values unchanged; a value given twice raises ValueError."""
    repeated = sorted({v for v in values if values.count(v) > 1})
    if repeated:
        raise ValueError(f"repeats {repeated} in {list(values)}")
    return values


def _nonempty(values: tuple) -> tuple:
    """The values unchanged; an empty list raises ValueError."""
    if not values:
        raise ValueError("must not be empty")
    return values


@dataclass(frozen=True)
class _at_least:
    """A count's domain: the count unchanged; one below floor raises ValueError."""

    floor: int

    def __call__(self, value: int) -> int:
        if value < self.floor:
            raise ValueError(f"must be >= {self.floor}, got {value}")
        return value


def _positive_finite(value: float) -> float:
    """The value unchanged; zero, a negative, infinity or NaN raises ValueError."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"must be a positive finite number, got {value:g}")
    return value


def _coerce(kind, value):
    """Convert one argument to its annotated type.

    Only `T | None` admits None; `tuple[T, ...]` takes any iterable but a
    string; `Annotated[T, f, ...]` applies each f in turn after converting
    to T. Each f returns its value or raises ValueError: the domain checks
    above (on a tuple or on its element type), and `sorted` for ranks.
    """
    origin, args = get_origin(kind), get_args(kind)
    if type(None) in args:
        return None if value is None else _coerce(args[0], value)
    if value is None:
        raise TypeError(f"null where {inspect.formatannotation(kind)} is required")
    if origin is Annotated:
        value = _coerce(args[0], value)
        for f in args[1:]:
            value = _coerce(args[0], f(value))
        return value
    if origin is tuple:
        if isinstance(value, str):
            raise TypeError(f"string {value!r} where {inspect.formatannotation(kind)} is required")
        return tuple(_coerce(args[0], v) for v in value)
    return kind(value)


def _arguments(func, *args, **kwargs) -> dict:
    """Bind a call to a driver's signature, with defaults, each argument coerced;
    a ValueError (a value outside its domain) comes back led by the parameter's name."""
    signature = inspect.signature(func, eval_str=True)
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    typed = {}
    for name, value in bound.arguments.items():
        try:
            typed[name] = _coerce(signature.parameters[name].annotation, value)
        except ValueError as exc:
            raise ValueError(f"{name} {exc}") from None
    return typed


# command -> (driver, kind), filled in by _driver as each driver is defined.
RUNNERS = {}


def _driver(command: str, kind: str):
    """Register a driver body in RUNNERS as `command`, inside the frame all runs share.

    The wrapper binds the call with _arguments, which runs every domain
    check, and records the typed arguments as the manifest's parameters:
    `out` becomes a Path, so it is recorded normalised, while catalogs stay
    the strings given. Only then does it create the manifest's directory,
    which is `out` for a "dir" driver and the parent of `out` for a "file"
    driver (whose manifest is `<out>.manifest.json`), run the body on the
    typed arguments, and write the manifest. The body returns its outputs
    and summary lines; dmax-scan adds the parameters it records in place of
    the requested ones, because which EOF counts a catalog can hold is
    known only once it is loaded.
    """

    def register(body):
        @functools.wraps(body)
        def run(*args, **kwargs) -> ExperimentResult:
            parameters = _arguments(body, *args, **kwargs)
            out = parameters["out"]
            manifest_path = out / "manifest.json" if kind == "dir" else Path(f"{out}.manifest.json")
            manifest_path.parent.mkdir(parents=True, exist_ok=True)
            outputs, summary, *recorded = body(**parameters)
            parameters.update(*recorded)
            manifest = build_manifest(command, parameters, outputs, base_dir=manifest_path.parent)
            save_manifest(manifest, manifest_path)
            return ExperimentResult(tuple(outputs), manifest_path, tuple(summary))

        RUNNERS[command] = (run, kind)
        return run

    return register


def _unit_params(rank: int, dim: float, catalog_size: int) -> DistParams:
    """Parameters whose law reduces to the catalog-size-free form.

    Setting the physical scale to L^(1/d) cancels the size dependence, so
    distances x = r / C follow d x^(dk-1) exp(-x^d) / Gamma(k) regardless
    of L while the k <= L invariant stays honored.
    """
    return DistParams(
        rank=rank, dim=dim, catalog_size=catalog_size, scale=float(catalog_size) ** (1.0 / dim)
    )


# ---------------------------------------------------------------------------
# catalog generation


@_driver("gen-l63", "file")
def run_gen_l63(
    out: Path,
    n: int = 20_000,
    dt: float = DEFAULT_DT,
    burn_in: int = DEFAULT_BURN_IN,
    stride: int = 1,
    seed: int | None = None,
) -> ExperimentResult:
    """Integrate the three-variable convection system and save the samples."""
    states = generate_trajectory(n_steps=n, dt=dt, burn_in=burn_in, stride=stride, seed=seed)
    cat = Catalog(
        states=states,
        name="lorenz-63",
        units="model units",
    )
    save_catalog(cat, out)
    mean = cat.states.mean(axis=0)
    std = cat.states.std(axis=0, ddof=1)
    summary = [
        f"wrote {out}: L={cat.length} D={cat.dim} (dt={dt:g}, stride={stride}, burn_in={burn_in})",
        "coordinate mean/std: "
        + "  ".join(f"{m:.3f}/{s:.3f}" for m, s in zip(mean, std)),
    ]
    return [out], summary


@_driver("gen-surrogate", "file")
def run_gen_surrogate(
    out: Path,
    modes: int,
    grid: int = 64,
    n: int = 30_000,
    noise: float = 1e-3,
    seed: int = 0,
    components: int = 1,
    decay: float = 0.85,
) -> ExperimentResult:
    """Save a traveling-modes surrogate catalog with known effective dimension."""
    cat = traveling_modes_surrogate(
        modes,
        n_grid=grid,
        n_samples=n,
        noise=noise,
        seed=seed,
        n_components=components,
        amplitude_decay=decay,
    )
    save_catalog(cat, out)
    summary = [
        f"wrote {out}: L={cat.length} D={cat.dim} ({modes} modes, decay {decay:g}, noise {noise:g})",
    ]
    return [out], summary


# ---------------------------------------------------------------------------
# theory curves


@_driver("theory-curves", "dir")
def run_theory_curves(
    out: Path,
    k_list: Annotated[tuple[int, ...], _nonempty, _distinct] = (1, 5, 30),
    d_list: Annotated[
        tuple[Annotated[float, _positive_finite], ...], _nonempty, _distinct
    ] = (1.3, 2.0, 5.0),
    catalog_size: int = 100_000,
    grid_points: Annotated[int, _at_least(2)] = _DENSITY_GRID,
) -> ExperimentResult:
    """Tabulate rank-distance densities in catalog-size-free coordinates.

    Distances are expressed as x = r * L^(1/d), which collapses every
    catalog size onto the unit-catalog law; densities are normalized by
    their maximum so curves of different rank share one vertical scale.
    Mean, approximate mean, and mode markers are tabulated alongside.
    """
    curves = {}
    marker_cols = {"d": [], "k": [], "mean": [], "mean_approx": [], "mode": []}
    for d in d_list:
        x_max = 0.0
        try:
            for k in k_list:
                unit = _unit_params(k, d, catalog_size)
                x_max = max(x_max, distance_mean(unit) + 5.0 * math.sqrt(distance_variance(unit)))
        except OverflowError:  # L^(1/d) or a moment is beyond the doubles
            raise ValueError(
                f"dimension must be large enough for finite moments at L={catalog_size}, got d={d:g}"
            ) from None
        grid = np.linspace(0.0, x_max, grid_points)
        to_r = float(catalog_size) ** (-1.0 / d)
        for k in k_list:
            p = DistParams(rank=k, dim=d, catalog_size=catalog_size)
            pdf = np.asarray(distance_pdf(grid * to_r, p))
            finite = np.isfinite(pdf)
            top = pdf[finite].max(initial=0.0)
            if not top > 0.0:
                raise ValueError(
                    f"dimension must be small enough for a positive density on the grid, "
                    f"got d={d:g} (k={k})"
                )
            normed = np.where(finite, pdf / top, np.nan)
            curves[f"d={d:g} k={k}"] = {"d": d, "k": k, "x": grid, "density": normed}
            marker_cols["d"].append(d)
            marker_cols["k"].append(k)
            marker_cols["mean"].append(distance_mean(p) / to_r)
            marker_cols["mean_approx"].append(distance_mean_approx(p) / to_r)
            marker_cols["mode"].append(distance_mode(p) / to_r)

    curve_cols = _long_form(curves)
    curves_csv = write_csv(out / "curves.csv", "theory-curves", curve_cols)
    markers = write_csv(out / "markers.csv", "theory-markers", marker_cols)
    svg = _plot(out / "curves.svg", curve_cols, "x", "density", group="series",
                title="Rank-distance densities (catalog-size-free units)",
                x_label="r * L^(1/d)", y_label="p_k / max p_k")
    summary = [
        f"tabulated {len(k_list) * len(d_list)} curves on {grid_points}-point grids",
        f"wrote {curves_csv.name}, {markers.name}, {svg.name} in {out}",
    ]
    return [curves_csv, markers, svg], summary


# ---------------------------------------------------------------------------
# single-target fit


@_driver("fit-target", "dir")
def run_fit_target(
    out: Path, catalog: str, target_index: Annotated[int, _at_least(0)],
    n_analogs: Annotated[int, _at_least(3)] = 40, exclusion_gap: Annotated[int, _at_least(0)] = 0,
) -> ExperimentResult:
    """Fit the power-law distance profile r_k ~ C k^(1/d) at one target."""
    cat = load_catalog(catalog)
    if target_index >= len(cat):
        raise ValueError(f"target_index {target_index} outside catalog of length {len(cat)}")

    distances = NeighborIndex(cat).row_distances([target_index], n_analogs, exclusion_gap)[0]
    dim = estimate_local_dimension(distances)
    fit = fit_prefactor(distances, dim, len(cat))

    ranks = np.arange(1, n_analogs + 1, dtype=np.float64)
    curve = fit.prefactor * ranks ** (1.0 / dim)
    band = curve / (dim * np.sqrt(ranks))
    fit_cols = _long_form({
        "observed": {"k": ranks, "distance": distances},
        "fit": {"k": ranks, "distance": curve},
        "fit-std": {"k": ranks, "distance": curve - band},
        "fit+std": {"k": ranks, "distance": curve + band},
    })
    fit_csv = write_csv(out / "fit.csv", "fit-target", fit_cols)
    summary_csv = write_csv(
        out / "summary.csv",
        "fit-target-summary",
        {
            "target_index": [target_index],
            "n_analogs": [n_analogs],
            "catalog_size": [len(cat)],
            "dim": [dim],
            "prefactor": [fit.prefactor],
            "rescaling": [fit.rescaling],
            "residual": [fit.residual],
        },
    )
    svg = _plot(out / "fit.svg", fit_cols, "k", "distance", group="series",
                dashed=("fit-std", "fit+std"), title=f"Analog distances at target {target_index}",
                x_label="rank k", y_label="distance")
    summary = [
        f"target {target_index}: dim={dim:.3f} prefactor={fit.prefactor:.4g} "
        f"rescaling={fit.rescaling:.4g} (residual {fit.residual:.3g})",
    ]
    return [fit_csv, summary_csv, svg], summary


# ---------------------------------------------------------------------------
# Monte Carlo over catalogs


def _kde_columns(samples_by_label: dict, bandwidth: float, theory=None):
    """Shared-grid KDE curves (plus optional closed-form overlays) in long form."""
    pooled = np.concatenate(list(samples_by_label.values()))
    lo = pooled.min() - 4.0 * bandwidth
    hi = pooled.max() + 4.0 * bandwidth
    grid = np.linspace(lo, hi, _DENSITY_GRID)
    curves = {}
    for label, samples in samples_by_label.items():
        curves[label] = {"x": grid, "density": gaussian_kde(samples, bandwidth, grid)}
        if theory is not None:
            curves[f"{label} theory"] = {"x": grid, "density": theory(label, grid)}
    return _long_form(curves)


@_driver("mc-distances", "dir")
def run_mc_distances(
    out: Path,
    catalog_source: str,
    l_list: Annotated[tuple[int, ...], _distinct] = (10_000, 100_000),
    n_catalogs: Annotated[int, _at_least(2)] = 200,
    target_index: Annotated[int, _at_least(0)] = 0,
    n_analogs_dim: Annotated[int, _at_least(3)] = 150,
    k_markers: Annotated[tuple[Annotated[int, _at_least(1)], ...], _distinct, sorted] = (1, 15, 30),
    bw_dim: Annotated[float, _positive_finite] = 0.15,
    bw_rho: Annotated[float, _positive_finite] = 4.0,
    bw_rescaled: Annotated[float, _positive_finite] = 0.3,
    seed: int = 0,
) -> ExperimentResult:
    """Distance statistics of one target across independent random catalogs.

    For each requested size L (above n_analogs_dim, at most the source's
    length), n_catalogs sub-catalogs of L source rows are drawn. Each takes
    as its analogs the best-placed rows it holds in the target's one ranking
    over the source. The local dimension is estimated per catalog and its
    pooled mean over all sizes fixes the exponent for every fit and overlay.
    Per size this yields the spread of the estimated dimension, the density
    rescaling rho = C L^(1/d) (whose distribution should not depend on L),
    and distances rescaled by the per-size mean prefactor to the
    unit-catalog law, compared with the closed-form density by a KS test at
    the marker ranks. Rescaling by the mean rather than each catalog's own
    prefactor keeps the catalog-to-catalog scale fluctuation in the samples;
    that fluctuation is part of what the closed-form law predicts, and
    dividing it out per catalog would deflate the sample variance.
    """
    if k_markers and k_markers[-1] > n_analogs_dim:
        raise ValueError("k_markers must lie within 1..n_analogs_dim")
    if not l_list or min(l_list) <= n_analogs_dim:
        raise ValueError(f"l_list must hold sizes > n_analogs_dim = {n_analogs_dim}, got {list(l_list)}")
    # Sized before anything per catalog exists: a request beyond physical
    # memory would otherwise grow until the process is killed from outside.
    rows = len(l_list) * n_catalogs
    need = rows * n_analogs_dim * 8
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise TooLargeError(
            f"{rows} catalogs of {n_analogs_dim} distances need {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory"
        )
    source = load_catalog(catalog_source)
    if target_index >= len(source):
        raise ValueError(f"target_index {target_index} outside source of length {len(source)}")
    if max(l_list) > len(source):
        raise TooLargeError(f"requested {max(l_list)} rows from a catalog of {len(source)}")

    # Gap one drops the target's own row from the ranking; it is placed last,
    # behind the n_analogs_dim best places of any sub-catalog that holds it,
    # as every size exceeds n_analogs_dim. A copy of the target at another
    # time stays in and fails the fit.
    ranked = NeighborIndex(source, backend="exhaustive").query(
        source.states[target_index], len(source) - 1, ExclusionPolicy(min_target_gap=1),
        int(source.times[target_index]),
    )
    place = np.empty(len(source), dtype=np.int64)
    place[ranked.indices] = np.arange(len(ranked))
    place[target_index] = len(ranked)

    # Row li * n_catalogs + i holds catalog i of size l_list[li], drawn from
    # its own stream, so the rows do not depend on how the blocks are run.
    all_dists = np.empty((rows, n_analogs_dim))

    def fill(block):
        for row in block:
            rng = np.random.default_rng(seed + row)
            places = place[rng.choice(len(source), l_list[row // n_catalogs], replace=False)]
            nearest = np.sort(np.partition(places, n_analogs_dim - 1)[:n_analogs_dim])
            all_dists[row] = ranked.distances[nearest]

    # A few strided blocks per worker, not a task per catalog: a task object
    # outweighs the row it fills, and striding mixes the sizes in each block.
    workers = worker_count()
    blocks = 4 * workers
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill, [range(b, rows, blocks) for b in range(blocks)]))
    all_dims = estimate_local_dimension(all_dists)

    # One exponent for everything downstream: the pooled mean keeps the KS
    # overlays and the rho distributions of every size on a common scale.
    dbar = float(np.mean(all_dims))

    outputs = []
    cat_cols = {"L": [], "catalog": [], "dim": [], "prefactor": [], "rho": []}
    dims_by_label, rho_by_label = {}, {}
    rescaled: dict[int, dict[str, np.ndarray]] = {k: {} for k in k_markers}
    ks_cols = {"L": [], "k": [], "stat": [], "p_value": []}
    p_bits: dict[int, list[str]] = {k: [] for k in k_markers}
    summary = []

    for size, dims, dists in zip(l_list, np.split(all_dims, len(l_list)),
                                 np.split(all_dists, len(l_list))):
        fit = fit_prefactor(dists, dbar, size)
        prefs, rho = fit.prefactor, fit.rescaling
        label = f"L={size}"
        dims_by_label[label] = dims
        rho_by_label[label] = rho
        cat_cols["L"].extend([size] * n_catalogs)
        cat_cols["catalog"].extend(range(n_catalogs))
        cat_cols["dim"].extend(dims.tolist())
        cat_cols["prefactor"].extend(prefs.tolist())
        cat_cols["rho"].extend(rho.tolist())
        c_mean = float(prefs.mean())
        for k in k_markers:
            samples = dists[:, k - 1] / c_mean
            rescaled[k][label] = samples
            unit = _unit_params(k, dbar, size)
            stat, p = ks_test(samples, lambda v, unit=unit: 1.0 - distance_survival(v, unit))
            ks_cols["L"].append(size)
            ks_cols["k"].append(k)
            ks_cols["stat"].append(stat)
            ks_cols["p_value"].append(p)
            p_bits[k].append(f"{label}: {p:.3f}")
        summary.append(
            f"L={size}: dim mean {dims.mean():.3f} std {dims.std(ddof=1):.3f}, "
            f"rho mean {rho.mean():.3f} std {rho.std(ddof=1):.3f}"
        )

    summary.insert(0, f"pooled dim {dbar:.4f} over {len(all_dims)} catalogs")

    outputs.append(write_csv(out / "catalogs.csv", "mc-catalogs", cat_cols))
    outputs.append(write_csv(out / "ks.csv", "mc-ks-tests", ks_cols))

    overlap_cols = {"l_a": [], "l_b": [], "w1": [], "pooled_std": [], "ratio": []}
    for (la, ra), (lb, rb) in combinations(rho_by_label.items(), 2):
        w1 = wasserstein1(ra, rb)
        pooled_std = float(np.concatenate([ra, rb]).std(ddof=1))
        overlap_cols["l_a"].append(la)
        overlap_cols["l_b"].append(lb)
        overlap_cols["w1"].append(w1)
        overlap_cols["pooled_std"].append(pooled_std)
        overlap_cols["ratio"].append(w1 / pooled_std)
        summary.append(
            f"rho overlap {la} vs {lb}: W1={w1:.4g} ({w1 / pooled_std:.1%} of pooled std)"
        )
    if overlap_cols["l_a"]:
        outputs.append(write_csv(out / "rho_overlap.csv", "mc-rho-overlap", overlap_cols))

    dim_cols = _kde_columns(dims_by_label, bw_dim)
    rho_cols = _kde_columns(rho_by_label, bw_rho)
    outputs += [
        write_csv(out / "dim_density.csv", "mc-dim-density", dim_cols),
        write_csv(out / "rho_density.csv", "mc-rho-density", rho_cols),
        _plot(out / "dim.svg", dim_cols, "x", "density", group="series",
              title="Estimated dimension across random catalogs", x_label="dim"),
        _plot(out / "rho.svg", rho_cols, "x", "density", group="series",
              title="Density rescaling rho across random catalogs", x_label="rho"),
    ]
    size_by_label = {f"L={size}": size for size in l_list}
    for k in k_markers:
        def theory(label, grid, k=k):
            return distance_pdf(grid, _unit_params(k, dbar, size_by_label[label]))

        k_cols = _kde_columns(rescaled[k], bw_rescaled, theory=theory)
        outputs += [
            write_csv(out / f"rescaled_k{k}.csv", f"mc-rescaled-k{k}", k_cols),
            _plot(out / f"rescaled_k{k}.svg", k_cols, "x", "density", group="series",
                  dashed=tuple(f"L={size} theory" for size in l_list),
                  title=f"Rescaled distance r_{k} / C vs unit-catalog law", x_label="r / C"),
        ]
        summary.append(f"KS p-values at k={k}: {', '.join(p_bits[k])}")

    return outputs, summary


# ---------------------------------------------------------------------------
# rescaled fluctuation densities


@_driver("rescaled-density", "dir")
def run_rescaled_density(
    out: Path,
    catalog: str,
    k_max: Annotated[int, _at_least(1)] = 8,
    bandwidth: Annotated[float, _positive_finite] = 0.3,
    n_analogs_dim: Annotated[int, _at_least(3)] = 40,
    n_targets: Annotated[int, _at_least(2)] = 400,
    exclusion_gap: Annotated[int, _at_least(0)] = 36,
    seed: int = 0,
) -> ExperimentResult:
    """Pool rescaled analog-distance fluctuations over targets, rank by rank.

    Each target's distances are centered and scaled with its own fitted
    dimension and prefactor, u_k = d sqrt(k) (r_k / (C k^(1/d)) - 1); the
    pooled u_k densities are then compared with the closed-form fluctuation
    law evaluated at the mean fitted dimension.
    """
    if n_analogs_dim < k_max:
        raise ValueError("n_analogs_dim must be >= max(3, k_max)")
    cat = load_catalog(catalog)

    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(len(cat), size=min(n_targets, len(cat)), replace=False))
    distances = NeighborIndex(cat).row_distances(picks, n_analogs_dim, exclusion_gap)
    dims = estimate_local_dimension(distances)
    prefs = fit_prefactor(distances, dims, len(cat)).prefactor
    u_rows = rescale_distances(distances, dims, prefs)[:, :k_max]
    dbar = float(dims.mean())

    targets_csv = write_csv(
        out / "targets.csv",
        "rescaled-targets",
        {
            "target": picks,
            "time": cat.times[picks],
            "dim": dims,
            "prefactor": prefs,
        },
    )

    lo = min(-4.5, float(u_rows.min()) - 4.0 * bandwidth)
    hi = max(4.5, float(u_rows.max()) + 4.0 * bandwidth)
    grid = np.linspace(lo, hi, _DENSITY_GRID)
    curves = {}
    for k in range(1, k_max + 1):
        density = gaussian_kde(u_rows[:, k - 1], bandwidth, grid)
        curves[f"k={k}"] = {"k": k, "u": grid, "density": density}
        curves[f"k={k} theory"] = {"k": k, "u": grid, "density": rescaled_pdf(grid, k, dbar)}
    curve_cols = _long_form(curves)
    curves_csv = write_csv(out / "curves.csv", "rescaled-densities", curve_cols)
    svg = _plot(out / "rescaled.svg", curve_cols, "u", "density", group="series",
                dashed=tuple(f"k={k} theory" for k in range(1, k_max + 1)),
                title=f"Rescaled fluctuations, mean dim {dbar:.2f}", x_label="u")
    summary = [
        f"{len(picks)} targets: mean dim {dbar:.3f} (std {dims.std(ddof=1):.3f}), "
        f"ranks 1..{k_max} pooled",
    ]
    return [targets_csv, curves_csv, svg], summary


# ---------------------------------------------------------------------------
# dimension-budget scan


@_driver("dmax-scan", "dir")
def run_dmax_scan(
    out: Path,
    catalog: str,
    epsilon: float,
    k_list: Annotated[tuple[int, ...], _distinct, sorted] = (1, 5, 25, 100),
    eof_counts: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50),
    l_eff: int | None = None,
    rho_bar: float = 0.55,
    n_analogs: int = 40,
    n_targets: int = 200,
    seed: int = 0,
    rmsd_pairs: int = 50_000,
) -> ExperimentResult:
    """Scan EOF truncations against the analog-quality criterion per rank,
    all ranks in one scan. Records the EOF counts the catalog can hold."""
    data = load_catalog(catalog).states
    limit = min(data.shape[0], data.shape[1])
    eof_counts = tuple(sorted({c for c in eof_counts if 1 <= c <= limit}))
    if not eof_counts:
        raise ValueError("no usable eof_counts for this catalog")

    scans = criterion_scan(data, epsilon, k_list, eof_counts, l_eff=l_eff, rho_bar=rho_bar,
                           n_analogs=n_analogs, n_targets=n_targets, seed=seed,
                           rmsd_pairs=rmsd_pairs)
    scan_cols = _long_form({f"k={k}": {"k": k, **cols} for k, cols in zip(k_list, scans)})
    boundary_cols = {"series": [], "k": [], "dmax": []}
    summary = []
    for k, cols in zip(k_list, scans):
        passing = [n for n, ok in zip(cols["n_eof"], cols["passed"]) if ok]
        empirical = float(max(passing)) if passing else math.nan
        boundary_cols["series"].extend(["empirical", "theory"])
        boundary_cols["k"].extend([k, k])
        boundary_cols["dmax"].extend([empirical, cols["dmax_theory"]])
        shown = "none" if math.isnan(empirical) else f"{empirical:g}"
        summary.append(
            f"k={k}: largest passing truncation {shown}, theory bound {cols['dmax_theory']:.2f}"
        )

    scan_csv = write_csv(out / "scan.csv", "dmax-scan", scan_cols)
    boundary_csv = write_csv(out / "boundary.csv", "dmax-boundary", boundary_cols)
    ratio_svg = _plot(out / "ratio.svg", scan_cols, "n_eof", "ratio", group="series",
                      title=f"Mean rank-k distance / RMSD (epsilon={epsilon:g})",
                      x_label="EOF count")
    boundary_svg = _plot(out / "boundary.svg", boundary_cols, "k", "dmax", group="series",
                         dashed=("theory",), log_x=True,
                         title="Largest truncation passing the criterion", x_label="rank k",
                         y_label="dimension budget")
    return [scan_csv, boundary_csv, ratio_svg, boundary_svg], summary, {"eof_counts": eof_counts}


# ---------------------------------------------------------------------------
# clustering pipeline


@_driver("cluster", "dir")
def run_cluster(
    out: Path,
    catalog: str,
    n_eof: Annotated[int, _at_least(1)] = 50,
    candidates: Annotated[
        tuple[Annotated[int, _at_least(1)], ...], _nonempty
    ] = (1, 2, 3, 4, 5, 6, 7, 8),
    seeds_per_candidate: Annotated[int, _at_least(1)] = 5,
    covariance: str = "full",
    standardize: bool = False,
    seed: int = 0,
) -> ExperimentResult:
    """EOF-reduce a catalog, select a mixture size by BIC, assign clusters."""
    cat = load_catalog(catalog)
    basis = eof_fit(cat.states, n_eof)
    features = project(basis, cat.states)
    if standardize:
        spread = features.std(axis=0, ddof=1)
        spread = np.where(spread > 0.0, spread, 1.0)
        features = features / spread
    selection = select_n_clusters(
        features,
        candidates,
        seeds_per_candidate=seeds_per_candidate,
        base_seed=seed,
        covariance=covariance,
        workers=worker_count(),
    )
    labels = assign_spatial_clusters(selection.best_model, features)
    counts = np.bincount(labels, minlength=selection.best_n)

    bic_cols = {
        "n_components": [n for n, _ in selection.bic_curve],
        "bic": [b for _, b in selection.bic_curve],
    }
    bic_csv = write_csv(out / "bic.csv", "cluster-bic", bic_cols)
    assign_csv = write_csv(
        out / "assignments.csv",
        "cluster-assignments",
        {"index": np.arange(len(cat)), "time": cat.times, "cluster": labels},
    )
    eof_csv = write_csv(
        out / "eof.csv",
        "cluster-eof-spectrum",
        {
            "component": np.arange(1, basis.n_components + 1),
            "explained_variance": basis.explained_variance,
        },
    )
    model_path = out / "model.json"
    model_path.write_text(selection.best_model.to_json() + "\n", encoding="utf-8")
    bic_svg = _plot(out / "bic.svg", bic_cols, "n_components", "bic",
                    title="BIC across mixture sizes", x_label="components")
    summary = [
        f"selected {selection.best_n} components (BIC curve over "
        f"{[n for n, _ in selection.bic_curve]})",
        "cluster sizes: " + " ".join(str(int(c)) for c in counts),
    ]
    return [bic_csv, assign_csv, eof_csv, model_path, bic_svg], summary


# ---------------------------------------------------------------------------
# dimension time series


@_driver("dim-stats", "dir")
def run_dim_stats(
    out: Path,
    catalog: str,
    n_analogs: Annotated[int, _at_least(3)] = 40,
    exclusion_gap: Annotated[int, _at_least(0)] = 36,
    n_targets: Annotated[int, _at_least(2)] = 2000,
    steps_per_day: Annotated[int, _at_least(1)] = 24,
    smooth_window_days: Annotated[float, _positive_finite] = 80,
    hist_bins: Annotated[int, _at_least(1)] = 40,
) -> ExperimentResult:
    """Local-dimension series over a catalog with daily/weekly statistics.

    Targets are evenly strided catalog rows; temporal exclusion keeps the
    trajectory's own immediate past and future out of each analog set. The
    series is aggregated into daily means (smoothed with a Gaussian window
    whose sigma is a quarter of smooth_window_days), weekly 10-90 %
    quantile spreads, and a histogram.
    """
    cat = load_catalog(catalog)

    picks = np.unique(np.linspace(0, len(cat) - 1, min(n_targets, len(cat))).round().astype(np.int64))
    distances = NeighborIndex(cat).row_distances(picks, n_analogs, exclusion_gap)
    dims = estimate_local_dimension(distances)
    tvals = cat.times[picks]

    # First, so that bins too many to allocate leave no file written.
    density, edges = np.histogram(dims, bins=hist_bins, density=True)
    dims_csv = write_csv(
        out / "dims.csv", "dim-series", {"target": picks, "time": tvals, "dim": dims}
    )
    hist_cols = {"bin_center": 0.5 * (edges[:-1] + edges[1:]), "density": density}
    hist_csv = write_csv(out / "hist.csv", "dim-histogram", hist_cols)

    days = tvals // steps_per_day
    uniq_days, inverse = np.unique(days, return_inverse=True)
    sums = np.bincount(inverse, weights=dims)
    counts = np.bincount(inverse)
    daily_mean = sums / counts
    smoothed = gaussian_smooth(daily_mean, sigma=smooth_window_days / 4.0)
    daily_cols = {"day": uniq_days, "mean_dim": daily_mean, "smoothed": smoothed,
                  "n_samples": counts}
    daily_csv = write_csv(out / "daily.csv", "dim-daily", daily_cols)

    weeks = tvals // (7 * steps_per_day)
    uniq_weeks, w_inverse = np.unique(weeks, return_inverse=True)
    q10, q90 = np.array(
        [np.quantile(dims[w_inverse == wi], (0.10, 0.90)) for wi in range(len(uniq_weeks))]
    ).T
    weekly_cols = {"week": uniq_weeks, "q10": q10, "q90": q90, "spread": q90 - q10}
    weekly_csv = write_csv(out / "weekly.csv", "dim-weekly-spread", weekly_cols)

    hist_svg = _plot(out / "hist.svg", hist_cols, "bin_center", "density",
                     title="Local dimension histogram", x_label="dim")
    daily_lines = _long_form({
        "mean_dim": {"day": uniq_days, "dim": daily_mean},
        "smoothed": {"day": uniq_days, "dim": smoothed},
    })
    daily_svg = _plot(out / "daily.svg", daily_lines, "day", "dim", group="series",
                      title="Daily mean local dimension", x_label="day", y_label="dim")
    weekly_svg = _plot(out / "weekly.svg", weekly_cols, "week", "spread",
                       title="Weekly 10-90 % dimension spread", x_label="week")
    summary = [
        f"{len(picks)} targets: dim mean {dims.mean():.3f} std {dims.std(ddof=1):.3f} "
        f"min {dims.min():.3f} max {dims.max():.3f}",
        f"{len(uniq_days)} daily bins, {len(uniq_weeks)} weekly bins",
    ]
    return [dims_csv, hist_csv, daily_csv, weekly_csv, hist_svg, daily_svg, weekly_svg], summary


# ---------------------------------------------------------------------------
# re-running from manifests


def run_rerun(manifest_path, out=None) -> tuple[ExperimentResult, dict[str, bool]]:
    """Re-run the experiment a manifest records and re-verify output hashes.

    Without `out`, artifacts are regenerated in place (next to the
    manifest). Returns the fresh result plus, per recorded output, whether
    the regenerated file matches the recorded SHA-256. Recorded parameters
    that do not bind to the driver's signature (an unknown or missing name,
    or a value that does not coerce or lies outside its domain) raise
    FormatError before it runs.
    """
    manifest_path = Path(manifest_path)
    recorded = load_manifest(manifest_path)
    if recorded.command not in RUNNERS:
        raise ValueError(f"manifest names unknown command {recorded.command!r}")
    func, kind = RUNNERS[recorded.command]
    expected, given = set(inspect.signature(func).parameters), set(recorded.parameters)
    if expected != given:
        raise FormatError(
            f"{recorded.command} manifest parameters do not bind: unknown "
            f"{sorted(given - expected)}, missing {sorted(expected - given)}"
        )
    try:
        params = _arguments(func, **recorded.parameters)
    except (TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{recorded.command} manifest parameters do not coerce: {exc}") from exc
    if out is None:
        out = manifest_path.parent if kind == "dir" else manifest_path.parent / params["out"].name
    result = func(**{**params, "out": out})
    status = verify_outputs(recorded, Path(result.manifest_path).parent)
    return result, status
