"""Acceptance suite: one test per shipped guarantee.

Every test times its own body and asserts the stated wall-clock budget, so
a regression in speed fails the gate just like a regression in accuracy.
The conftest terminal hook prints one PASS/FAIL line per test here.

Statistical checks run on frozen seeds that were verified to sit well away
from their thresholds, so failures indicate real behavior changes rather
than unlucky draws.
"""

import csv
import math
import time

import numpy as np
from scipy import stats
from scipy.integrate import quad
from scipy.special import gammaincinv

from analogdist.catalog import Catalog
from analogdist.clustering import select_n_clusters
from analogdist.dimension import estimate_local_dimension
from analogdist.dimred import criterion_scan, dmax_for_rank
from analogdist.disttheory import (
    DistParams,
    distance_mean,
    distance_mean_approx,
    distance_pdf,
    distance_variance,
    poisson_count_pmf,
    rescaled_pdf,
)
from analogdist.experiments import run_dim_stats, run_gen_surrogate, run_mc_distances
from analogdist.neighbors import NeighborIndex


def _read_rows(path):
    """Rows of an experiment CSV as dicts, skipping the schema comment."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def _assert_budget(t0: float, limit: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"runtime {elapsed:.1f}s exceeds the {limit:.0f}s budget"


def test_01_attractor_dimension_mean_and_spread(l63_source):
    """Local dimension over the attractor: mean in [1.90, 2.20], std in [0.15, 0.40].

    100 targets, catalog of 10^5 states subsampled from the long trajectory,
    dimension estimated from the nearest 150 analogs of each target.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    sub_idx = np.sort(rng.choice(l63_source.length, size=100_000, replace=False))
    targets = rng.choice(l63_source.length, size=100, replace=False)
    catalog = Catalog(
        l63_source.states[sub_idx],
        np.arange(len(sub_idx), dtype=np.int64),
        name="l63-sub",
        units=l63_source.units,
    )
    index = NeighborIndex(catalog)

    dims = np.empty(len(targets))
    for j, row in enumerate(targets):
        # One extra neighbor absorbs a possible zero-distance self match.
        found = index.query(l63_source.states[row], 151).distances
        dims[j] = estimate_local_dimension(found[found > 0.0][:150])

    mean, std = float(dims.mean()), float(dims.std(ddof=1))
    assert 1.90 <= mean <= 2.20, f"mean dimension {mean:.4f} outside [1.90, 2.20]"
    assert 0.15 <= std <= 0.40, f"dimension std {std:.4f} outside [0.15, 0.40]"
    _assert_budget(t0, 120.0)


def test_02_rescaling_overlap_and_rank_law_fit(l63_source_path, tmp_path):
    """Monte Carlo catalogs: rescaling densities overlap across catalog sizes
    and rescaled analog distances pass KS against the rank-distance law.

    Uses the shipped mc-distances pipeline at its desk-scale defaults
    (200 catalogs per size, sizes 10^4 and 10^5, ranks 1/15/30).
    """
    t0 = time.perf_counter()
    run_mc_distances(tmp_path / "mc", l63_source_path, target_index=1_907_541, seed=0)

    for row in _read_rows(tmp_path / "mc" / "ks.csv"):
        p = float(row["p_value"])
        assert p > 0.01, (
            f"KS rejection at L={row['L']} k={row['k']}: p={p:.4f} <= 0.01"
        )
    overlap = _read_rows(tmp_path / "mc" / "rho_overlap.csv")
    assert overlap, "no rescaling-overlap rows produced"
    for row in overlap:
        ratio = float(row["ratio"])
        assert ratio < 0.25, (
            f"rescaling W1 between L={row['l_a']} and L={row['l_b']} is "
            f"{ratio:.1%} of pooled std (limit 25%)"
        )
    _assert_budget(t0, 600.0)


def test_03_moment_identities_match_quadrature():
    """Closed-form mean and variance agree with quadrature to relative 1e-8."""
    t0 = time.perf_counter()
    for k in (1, 2, 5, 30, 100):
        for d in (1.3, 2.0, 5.0, 15.0):
            for size in (10**3, 10**6):
                p = DistParams(rank=k, dim=d, catalog_size=size)
                # Upper limit where the survival mass drops to 1e-16.
                r_up = (gammaincinv(k, 1.0 - 1e-16) / size) ** (1.0 / d)
                m_quad, _ = quad(
                    lambda r: r * distance_pdf(r, p), 0.0, r_up,
                    epsabs=0.0, epsrel=1e-12, limit=400,
                )
                s_quad, _ = quad(
                    lambda r: r * r * distance_pdf(r, p), 0.0, r_up,
                    epsabs=0.0, epsrel=1e-12, limit=400,
                )
                mean = distance_mean(p)
                second = distance_variance(p) + mean**2
                rel_m = abs(m_quad - mean) / mean
                rel_s = abs(s_quad - second) / second
                assert rel_m <= 1e-8, (
                    f"mean mismatch at k={k} d={d} L={size}: rel {rel_m:.3e}"
                )
                assert rel_s <= 1e-8, (
                    f"second-moment mismatch at k={k} d={d} L={size}: rel {rel_s:.3e}"
                )
    _assert_budget(t0, 60.0)


def test_04_mean_approximation_error_bounds():
    """Closed-form approximate mean within 5% at rank 2 and 0.5% at rank 100."""
    t0 = time.perf_counter()
    bad = []
    for k, limit in ((2, 0.05), (100, 0.005)):
        for d in (2.0, 5.0, 15.0):
            p = DistParams(rank=k, dim=d, catalog_size=10**5)
            exact = distance_mean(p)
            rel = abs(distance_mean_approx(p) - exact) / exact
            if rel >= limit:
                bad.append(f"rank {k}, dim {d}: relative error {rel:.4%} (limit {limit:.1%})")
    assert not bad, "approximate mean outside tolerance: " + "; ".join(bad)
    _assert_budget(t0, 60.0)


def test_05_rescaled_law_approaches_normal():
    """Sup-norm gap to the standard normal density shrinks with rank and is
    below 0.02 by rank 500 (dimension 2)."""
    t0 = time.perf_counter()
    u = np.linspace(-4.0, 4.0, 4001)
    phi = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    sups = []
    for k in (1, 10, 100, 500):
        h = np.asarray(rescaled_pdf(u, k, 2.0))
        sups.append(float(np.max(np.abs(h - phi))))
    for a, b in zip(sups, sups[1:]):
        assert b < a, f"sup-norm gaps not decreasing: {sups}"
    assert sups[-1] < 0.02, f"rank-500 sup-norm gap {sups[-1]:.4f} >= 0.02"
    _assert_budget(t0, 60.0)


def test_06_ball_counts_match_poisson():
    """Ball occupancy over random uniform catalogs follows the predicted
    Poisson count law (chi-square, 10^4 catalog redraws).

    Interior target on the unit square, so the ball measure is exactly
    pi r^2 and the count pmf needs no boundary correction.
    """
    t0 = time.perf_counter()
    size = 20_000
    mu = 10.0
    radius = math.sqrt(mu / (math.pi * size))
    n_redraws = 10_000

    rng = np.random.default_rng(1)
    counts = np.empty(n_redraws, dtype=np.int64)
    chunk = 250  # bounds the redraw buffer to ~80 MB
    for start in range(0, n_redraws, chunk):
        pts = rng.random((chunk, size, 2))
        d2 = (pts[..., 0] - 0.5) ** 2 + (pts[..., 1] - 0.5) ** 2
        counts[start : start + chunk] = (d2 <= radius * radius).sum(axis=1)

    top = int(counts.max()) + 1
    observed = np.bincount(counts, minlength=top + 1).astype(float)
    probs = np.asarray(poisson_count_pmf(np.arange(top + 1), size, math.pi * radius**2))
    probs[-1] = 1.0 - probs[:-1].sum()  # right tail lumped into the last cell
    expected = n_redraws * probs

    # Merge adjacent cells until every expected count reaches 5.
    bins, acc_o, acc_e = [], 0.0, 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            bins.append((acc_o, acc_e))
            acc_o = acc_e = 0.0
    if acc_e > 0.0:
        o, e = bins.pop()
        bins.append((o + acc_o, e + acc_e))
    obs_m = np.array([b[0] for b in bins])
    exp_m = np.array([b[1] for b in bins])

    stat = float(np.sum((obs_m - exp_m) ** 2 / exp_m))
    p_value = float(stats.chi2.sf(stat, len(bins) - 1))
    assert p_value > 0.01, f"chi-square p={p_value:.4f} <= 0.01 (stat {stat:.2f})"
    _assert_budget(t0, 300.0)


def test_07_neighbor_search_matches_exhaustive():
    """Tree-accelerated search equals a brute-force oracle exactly on 500
    random instances: same indices, bit-identical distances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    for _ in range(500):
        length = int(rng.integers(10, 2001))
        dim = int(rng.integers(1, 11))
        k = int(rng.integers(1, min(length, 32) + 1))
        states = rng.standard_normal((length, dim))
        catalog = Catalog(
            states, np.arange(length, dtype=np.int64), name="rand", units="none"
        )
        index = NeighborIndex(catalog, backend="kdtree")
        # Half the targets are catalog rows, exercising exact ties at zero.
        if rng.random() < 0.5:
            z = states[int(rng.integers(length))]
        else:
            z = rng.standard_normal(dim)

        got = index.query(z, k)
        diff = states - z
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        order = np.lexsort((np.arange(length), dist))[:k]
        assert np.array_equal(got.indices, order), "index mismatch vs brute force"
        assert np.array_equal(got.distances, dist[order]), "distance mismatch vs brute force"
    _assert_budget(t0, 60.0)


def test_08_dimension_budget_boundary_scaling():
    """Admissible-dimension budget: the rank-25 value lands in [6, 7], and on
    synthetic data the pass/fail boundary of the reduction scan is linear in
    log rank with the slope fixed by the rank-1 budget.

    The synthetic catalog is a uniform box with power-law coordinate scales,
    which keeps the distance prefactor flat across retained-component counts
    so the boundary slope is identifiable.
    """
    t0 = time.perf_counter()
    value = dmax_for_rank(10.0, 10_000, 25)
    assert 6.0 <= value <= 7.0, f"rank-25 budget {value:.4f} outside [6, 7]"

    n, width = 20_000, 40
    rng = np.random.default_rng(2026)
    data = (rng.random((n, width)) - 0.5) * np.arange(1, width + 1) ** -0.25
    eps = 0.12
    counts = tuple(range(2, 13))

    ranks = (1, 2, 4, 8, 16, 32, 64, 128)
    scans = criterion_scan(
        data,
        eps,
        ranks,
        counts,
        l_eff=n,
        n_analogs=40,
        n_targets=200,
        seed=0,
        rmsd_pairs=50_000,
    )
    points = []
    for rank, cols in zip(ranks, scans):
        ratios = np.array(cols["ratio"])
        above = ratios > eps
        if above.all() or not above.any() or int(np.argmax(above)) == 0:
            continue
        # Log-interpolate the component count where the ratio crosses eps.
        i = int(np.argmax(above))
        m_lo, m_hi = cols["n_eof"][i - 1], cols["n_eof"][i]
        y0, y1 = math.log(ratios[i - 1]), math.log(ratios[i])
        boundary = m_lo + (math.log(eps) - y0) * (m_hi - m_lo) / (y1 - y0)
        points.append((math.log(rank), boundary))

    assert len(points) >= 4, f"only {len(points)} boundary points resolved"
    lx = np.array([p[0] for p in points])
    by = np.array([p[1] for p in points])
    design = np.vstack([lx, np.ones_like(lx)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, by, rcond=None)
    fitted = design @ [slope, intercept]
    r2 = 1.0 - ((by - fitted) ** 2).sum() / ((by - by.mean()) ** 2).sum()
    predicted = -intercept / math.log(n)

    assert r2 >= 0.98, f"boundary not linear in log rank: R^2={r2:.4f}"
    assert abs(slope / predicted - 1.0) <= 0.20, (
        f"boundary slope {slope:.4f} deviates {abs(slope / predicted - 1.0):.1%} "
        f"from the rank-1 prediction {predicted:.4f} (limit 20%)"
    )
    _assert_budget(t0, 600.0)


def test_09_bic_recovers_component_count():
    """BIC model selection finds 1, 3, and 10 well-separated mixture
    components in 20 dimensions in at least 9 of 10 seeded runs each.

    Diagonal covariances: with 3000 samples in 20 dimensions a full
    covariance costs 231 parameters per component and BIC then prefers
    merging well-separated blobs, since the merge penalty grows only
    logarithmically with separation.
    """
    t0 = time.perf_counter()
    width = 20
    n_samples = 3000
    candidates = (1, 2, 3, 4, 5, 6, 8, 10, 12)

    def draw(true_n, seed):
        rng = np.random.default_rng(1000 * true_n + seed)
        means = np.zeros((true_n, width))
        for i in range(1, true_n):
            means[i, i - 1] = 12.0
        labels = rng.integers(0, true_n, size=n_samples)
        return means[labels] + rng.normal(size=(n_samples, width))

    for true_n in (1, 3, 10):
        hits = 0
        for run in range(10):
            selection = select_n_clusters(
                draw(true_n, run),
                candidates,
                seeds_per_candidate=5,
                base_seed=run,
                covariance="diag",
                max_iter=60,
                tol=1e-5,
            )
            hits += selection.best_n == true_n
        assert hits >= 9, f"true count {true_n} recovered in only {hits}/10 runs"
    _assert_budget(t0, 300.0)


def test_10_surrogate_dimension_recovery(tmp_path):
    """Dimension statistics on the traveling-modes surrogate recover the
    known effective dimension within 30% for 5 and 13 modes."""
    t0 = time.perf_counter()
    for modes in (5, 13):
        catalog = tmp_path / f"sur{modes}.anacat"
        run_gen_surrogate(catalog, modes=modes, grid=64, n=30_000, seed=3)
        run_dim_stats(
            tmp_path / f"ds{modes}", catalog,
            n_analogs=40, exclusion_gap=36, n_targets=300,
        )
        dims = [float(r["dim"]) for r in _read_rows(tmp_path / f"ds{modes}" / "dims.csv")]
        mean = sum(dims) / len(dims)
        assert 0.7 * modes <= mean <= 1.3 * modes, (
            f"{modes}-mode surrogate: mean dimension {mean:.3f} outside "
            f"[{0.7 * modes:.1f}, {1.3 * modes:.1f}]"
        )
    _assert_budget(t0, 600.0)
