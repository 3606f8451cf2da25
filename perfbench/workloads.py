"""The three workloads: their inputs, the commands they run, and the checks
applied to each command's output.

A workload's round is the list of Ops it returns; a run repeats whole
rounds. Every input is a function of the seed, so the same seed gives the
same output bytes in every round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks


@dataclass(frozen=True)
class Op:
    """One command invocation: the argv a user would type, the manifest it
    writes, and the check of its output."""

    label: str
    argv: tuple[str, ...]
    manifest: Path
    check: Callable[[], None]
    env: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    full: dict
    tiny: dict
    setup: Callable[[Path, int, dict], list[tuple[str, ...]]]
    ops: Callable[[Path, Path, int, dict], list[Op]]


def _s(*args) -> tuple[str, ...]:
    return tuple(str(a) for a in args)


# ---------------------------------------------------------------------------
# l63: RK4, k-d tree builds and queries, temporal exclusion

L63_DT = 0.01
L63_GAP = 36
L63_K = 40
L63_DIM_RANGE = (1.90, 2.20)


def l63_ops(rdir: Path, inputs: Path, seed: int, z: dict) -> list[Op]:
    cat = rdir / "l63.anacat"
    fit_row, mc_row = (int(v) for v in np.random.default_rng(seed).integers(z["n"], size=2))
    mc_sizes = [int(v) for v in z["mc_sizes"].split(",")]
    rng = partial(np.random.default_rng, seed)
    return [
        Op("gen_l63",
           _s("gen-l63", "--n", z["n"], "--dt", L63_DT, "--burn-in", z["burn_in"], "--stride", z["stride"],
              "--seed", seed, "--out", cat),
           Path(f"{cat}.manifest.json"),
           lambda: checks.check_gen_l63(cat, z["n"], L63_DT, z["stride"])),
        Op("theory_curves",
           _s("theory-curves", "--k-list", "1,5,30", "--d-list", "1.3,2,5", "--L", "1e5", "--out", rdir / "theory"),
           rdir / "theory" / "manifest.json",
           lambda: checks.check_theory_curves(rdir / "theory")),
        Op("fit_target",
           _s("fit-target", "--catalog", cat, "--target-index", fit_row, "--K", L63_K,
              "--exclusion-gap", L63_GAP, "--out", rdir / "fit"),
           rdir / "fit" / "manifest.json",
           lambda: checks.check_fit_target(rdir / "fit", cat, fit_row, L63_K, L63_GAP)),
        Op("mc_distances",
           _s("mc-distances", "--catalog-source", cat, "--L-list", z["mc_sizes"], "--n-catalogs", z["n_catalogs"],
              "--target", mc_row, "--K-dim", z["k_dim"], "--k-markers", z["k_markers"], "--seed", seed,
              "--out", rdir / "mc"),
           rdir / "mc" / "manifest.json",
           lambda: checks.check_mc_distances(rdir / "mc", cat, mc_row, mc_sizes, z["n_catalogs"], z["k_dim"], seed)),
        Op("rerun",
           _s("rerun", rdir / "mc" / "manifest.json", "--out", rdir / "mc-rerun"),
           rdir / "mc-rerun" / "manifest.json",
           lambda: checks.check_rerun(rdir / "mc" / "manifest.json", rdir / "mc-rerun"),
           env={"ANALOG_DIST_THREADS": "1"}),
        Op("rescaled_density",
           _s("rescaled-density", "--catalog", cat, "--k-max", 8, "--K-dim", L63_K, "--n-targets", z["resc_targets"],
              "--exclusion-gap", L63_GAP, "--seed", seed, "--out", rdir / "resc"),
           rdir / "resc" / "manifest.json",
           lambda: checks.check_rescaled_density(rdir / "resc", cat, L63_K, L63_GAP, L63_DIM_RANGE, rng())),
        Op("dim_stats",
           _s("dim-stats", "--catalog", cat, "--K", L63_K, "--exclusion-gap", L63_GAP,
              "--n-targets", z["dim_targets"], "--smooth-window-days", z["smooth_days"], "--out", rdir / "dims"),
           rdir / "dims" / "manifest.json",
           lambda: checks.check_dim_stats(rdir / "dims", cat, L63_K, L63_GAP, L63_DIM_RANGE, rng())),
        Op("dmax_scan",
           _s("dmax-scan", "--catalog", cat, "--epsilon", 0.5, "--k-list", "1,5,25", "--eof-counts", "1,2,3",
              "--L-eff", z["l_eff"], "--rho-bar", 0.55, "--n-targets", z["dmax_targets"], "--seed", seed,
              "--out", rdir / "dmax"),
           rdir / "dmax" / "manifest.json",
           lambda: checks.check_dmax_scan(rdir / "dmax", 0.5, 0.55, z["l_eff"], [1, 5, 25])),
    ]


# ---------------------------------------------------------------------------
# wind: 128-wide catalog, exhaustive scans, EOF fits and projections

WIND_GAP = 36
WIND_K = 40


def wind_ops(rdir: Path, inputs: Path, seed: int, z: dict) -> list[Op]:
    cat = rdir / "wind.anacat"
    modes = z["modes"]
    dim_range = (0.7 * modes, 1.3 * modes)
    rng = partial(np.random.default_rng, seed)
    return [
        Op("gen_surrogate",
           _s("gen-surrogate", "--modes", modes, "--grid", z["grid"], "--components", 2, "--n", z["n"],
              "--seed", seed, "--out", cat),
           Path(f"{cat}.manifest.json"),
           lambda: checks.check_gen_surrogate(cat, z["n"], 2 * z["grid"], modes)),
        Op("dim_stats",
           _s("dim-stats", "--catalog", cat, "--K", WIND_K, "--exclusion-gap", WIND_GAP,
              "--n-targets", z["dim_targets"], "--smooth-window-days", z["smooth_days"], "--out", rdir / "dims"),
           rdir / "dims" / "manifest.json",
           lambda: checks.check_dim_stats(rdir / "dims", cat, WIND_K, WIND_GAP, dim_range, rng())),
        Op("rescaled_density",
           _s("rescaled-density", "--catalog", cat, "--k-max", 8, "--K-dim", WIND_K, "--n-targets", z["resc_targets"],
              "--exclusion-gap", WIND_GAP, "--seed", seed, "--out", rdir / "resc"),
           rdir / "resc" / "manifest.json",
           lambda: checks.check_rescaled_density(rdir / "resc", cat, WIND_K, WIND_GAP, dim_range, rng())),
        Op("dmax_scan",
           _s("dmax-scan", "--catalog", cat, "--epsilon", 0.4, "--k-list", "1,5", "--eof-counts", z["eof_counts"],
              "--L-eff", z["l_eff"], "--rho-bar", 0.55, "--n-targets", z["dmax_targets"], "--seed", seed,
              "--out", rdir / "dmax"),
           rdir / "dmax" / "manifest.json",
           lambda: checks.check_dmax_scan(rdir / "dmax", 0.4, 0.55, z["l_eff"], [1, 5])),
    ]


# ---------------------------------------------------------------------------
# mixture: EM with full and diagonal covariance

# EM restarts keep one seed for every run: the iteration count depends far
# more on the k-means++ seeding than on the catalog (on the surrogate, a
# seed-derived EM seed spread the total iterations by 20% between seeds, a
# fixed one by under 1%), and a run's time should not depend on its seed.
EM_SEED = 0
# Far enough apart that k-means++ rarely seeds two centres in one blob: at 12
# such seedings made the planted-count fit take 3-4 times its usual
# iterations on some seeds.
BLOB_SEPARATION = 20.0


def planted_blobs(seed: int, n: int, dim: int, count: int) -> np.ndarray:
    """`count` equally large isotropic Gaussian blobs, spreads 0.6 to 1.4,
    whose centres sit BLOB_SEPARATION apart on randomly rotated orthogonal
    axes; rows are grouped by blob.

    Isotropic blobs stay diagonal under the EOF rotation the cluster command
    applies. Only the rotation and the draws depend on the seed; EM's work
    on them still varies by about a tenth between seeds (see README.md)."""
    rng = np.random.default_rng(seed)
    axes, _ = np.linalg.qr(rng.normal(size=(dim, count)))
    centres = BLOB_SEPARATION / np.sqrt(2.0) * axes.T
    spread = np.linspace(0.6, 1.4, count)
    labels = np.arange(n) * count // n
    return centres[labels] + spread[labels, None] * rng.normal(size=(n, dim))


def mixture_setup(inputs: Path, seed: int, z: dict) -> list[tuple[str, ...]]:
    """Build the blob catalog here; return the command that builds the surrogate."""
    blobs = planted_blobs(seed, z["blob_n"], z["blob_dim"], z["blob_count"])
    checks.write_anacat(inputs / "blobs.anacat", blobs, "planted blobs")
    return [_s("gen-surrogate", "--modes", z["modes"], "--grid", z["grid"], "--components", 2, "--n", z["surr_n"],
               "--seed", seed, "--out", inputs / "surrogate.anacat")]


def mixture_ops(rdir: Path, inputs: Path, seed: int, z: dict) -> list[Op]:
    surrogate, blobs = inputs / "surrogate.anacat", inputs / "blobs.anacat"
    return [
        Op("cluster_full",
           _s("cluster", "--catalog", surrogate, "--n-eof", z["n_eof"], "--candidates", z["full_candidates"],
              "--seeds", z["full_seeds"], "--covariance", "full", "--seed", EM_SEED, "--out", rdir / "full"),
           rdir / "full" / "manifest.json",
           lambda: checks.check_cluster(rdir / "full", surrogate, z["n_eof"], "full", None)),
        Op("cluster_diag",
           _s("cluster", "--catalog", blobs, "--n-eof", z["blob_dim"], "--candidates", z["diag_candidates"],
              "--seeds", z["diag_seeds"], "--covariance", "diag", "--seed", EM_SEED, "--out", rdir / "diag"),
           rdir / "diag" / "manifest.json",
           lambda: checks.check_cluster(rdir / "diag", blobs, z["blob_dim"], "diag", z["blob_count"])),
    ]


def _no_setup(inputs: Path, seed: int, z: dict) -> list[tuple[str, ...]]:
    return []


# `tiny` is for the benchmark's tests. Its dim-stats runs sample fewer days
# than the default 80-day smoothing window spans, which the command cannot
# handle (see CHANGES.md), so it shortens the window.
WORKLOADS = {
    "l63": Workload(
        full=dict(n=20_000, burn_in=2000, stride=5, mc_sizes="2000,5000", n_catalogs=40, k_dim=150,
                  k_markers="1,15,30", resc_targets=600, dim_targets=1000, smooth_days=80, l_eff=800,
                  dmax_targets=100),
        tiny=dict(n=20_000, burn_in=1000, stride=5, mc_sizes="2000,5000", n_catalogs=4, k_dim=40,
                  k_markers="1,15,30", resc_targets=200, dim_targets=300, smooth_days=10, l_eff=800,
                  dmax_targets=20),
        setup=_no_setup,
        ops=l63_ops,
    ),
    "wind": Workload(
        full=dict(n=10_000, modes=13, grid=64, dim_targets=170, smooth_days=80, resc_targets=60,
                  eof_counts="4,16,32", l_eff=1250, dmax_targets=50),
        tiny=dict(n=4000, modes=5, grid=16, dim_targets=40, smooth_days=2, resc_targets=20,
                  eof_counts="2,24", l_eff=125, dmax_targets=10),
        setup=_no_setup,
        ops=wind_ops,
    ),
    "mixture": Workload(
        full=dict(surr_n=2500, modes=13, grid=64, n_eof=12, full_candidates="1,2,3,4", full_seeds=3,
                  blob_n=3000, blob_dim=8, blob_count=4, diag_candidates="2,3,4,5", diag_seeds=6),
        tiny=dict(surr_n=600, modes=3, grid=16, n_eof=4, full_candidates="1,2", full_seeds=2,
                  blob_n=600, blob_dim=4, blob_count=3, diag_candidates="2,3,4", diag_seeds=2),
        setup=mixture_setup,
        ops=mixture_ops,
    ),
}
