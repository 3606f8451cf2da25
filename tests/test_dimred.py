"""Orthogonal bases, pair-distance scale, and the dimension budget.

The EOF fit is checked against an independent eigendecomposition of the
sample covariance, the distance budget against its defining inequality, and
the scan against a catalog with a known decaying variance spectrum.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from analogdist import dimred
from analogdist.dimred import (
    EofBasis,
    criterion_scan,
    dmax_for_rank,
    dmax_from_threshold,
    eof_fit,
    project,
    reconstruct,
    rmsd,
)
from analogdist.errors import DimensionMismatchError, RankDeficientWarning


# ---------------------------------------------------------------------------
# eof_fit


def test_eof_matches_covariance_eigenvalues():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(300, 5)) @ rng.normal(size=(5, 5))
    basis = eof_fit(x, 5)
    eig = np.sort(np.linalg.eigvalsh(np.cov(x.T, ddof=1)))[::-1]
    assert_allclose(basis.explained_variance, eig, rtol=1e-9)


def test_eof_components_orthonormal_and_ordered():
    rng = np.random.default_rng(2)
    basis = eof_fit(rng.normal(size=(200, 6)), 4)
    assert_allclose(basis.components @ basis.components.T, np.eye(4), atol=1e-12)
    assert np.all(np.diff(basis.explained_variance) <= 0.0)
    assert basis.n_components == 4
    assert basis.dim == 6


def test_eof_recovers_line_direction():
    t = np.linspace(-1.0, 1.0, 50)
    data = np.stack([3.0 * t, -4.0 * t], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RankDeficientWarning)
        basis = eof_fit(data, 2)
    # Unit direction of the line, sign fixed by the largest-entry rule.
    assert_allclose(basis.components[0], [-0.6, 0.8], atol=1e-12)
    assert basis.explained_variance[1] == pytest.approx(0.0, abs=1e-25)


def test_eof_anisotropic_variances():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20_000, 2)) * np.array([3.0, 0.5])
    basis = eof_fit(x, 2)
    assert basis.explained_variance[0] == pytest.approx(9.0, rel=0.05)
    assert basis.explained_variance[1] == pytest.approx(0.25, rel=0.05)
    assert abs(basis.components[0][0]) == pytest.approx(1.0, abs=1e-2)


def test_eof_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(100, 3))
    a, b = eof_fit(x, 3), eof_fit(x.copy(), 3)
    assert_allclose(a.components, b.components, rtol=0)
    for row in a.components:
        assert row[np.argmax(np.abs(row))] > 0.0


def test_eof_rank_deficient_warning():
    x = np.ones((10, 3))
    x[:, 0] = np.arange(10)
    with pytest.warns(RankDeficientWarning):
        eof_fit(x, 2)


@pytest.mark.parametrize("n_components", [0, 4, -1])
def test_eof_component_count_validation(n_components):
    with pytest.raises(ValueError):
        eof_fit(np.eye(3), n_components)


def test_eof_needs_two_rows():
    with pytest.raises(ValueError):
        eof_fit(np.ones((1, 3)), 1)


# A decaying spectrum over a tall catalog, as the gridded surrogates have.
# At these shapes an SVD of the centred data gives different bytes at 1 and
# 2 BLAS threads; widths up to 96 and multiples of 8 up to 200 must not.
_THREAD_PROBE = """
import hashlib, sys
import numpy as np
from analogdist.dimred import eof_fit, project
rng = np.random.default_rng(8)
width = int(sys.argv[1])
x = rng.normal(size=(10_000, width)) @ rng.normal(size=(width, width))
x *= np.exp(-np.arange(width) / 8.0)
basis = eof_fit(x, 20)
out = hashlib.sha256()
for part in (basis.mean_state, basis.components, basis.explained_variance, project(basis, x)):
    out.update(part.tobytes())
print(out.hexdigest())
"""


def _digests_at_blas_threads(probe: str, *args: str) -> list[str]:
    # OpenBLAS reads its thread count once, when numpy loads, so each count
    # needs a fresh interpreter.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-c", probe, *args],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        digests.append(run.stdout.strip())
    return digests


@pytest.mark.parametrize("width", [64, 128])
def test_eof_bytes_do_not_depend_on_blas_threads(width):
    digests = _digests_at_blas_threads(_THREAD_PROBE, str(width))
    assert digests[0] == digests[1]


# The wind workload's search: 128-wide states, K = 40 and a 36-hour gap, on
# the exhaustive backend, whose norm forms come from one matrix product per
# block of targets.
_ROW_DISTANCE_PROBE = """
import hashlib
import numpy as np
from analogdist.neighbors import NeighborIndex
from analogdist.surrogate import traveling_modes_surrogate
cat = traveling_modes_surrogate(13, 64, 10_000, seed=3, n_components=2)
rows = np.random.default_rng(9).choice(cat.length, 200, replace=False)
index = NeighborIndex(cat)
assert index.backend == "exhaustive"
print(hashlib.sha256(index.row_distances(rows, 40, 36).tobytes()).hexdigest())
"""


def test_row_distance_bytes_do_not_depend_on_blas_threads():
    digests = _digests_at_blas_threads(_ROW_DISTANCE_PROBE)
    assert digests[0] == digests[1]


# ---------------------------------------------------------------------------
# project / reconstruct


def test_round_trip_full_rank():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(50, 6))
    basis = eof_fit(x, 6)
    assert_allclose(reconstruct(basis, project(basis, x)), x, atol=1e-10)


def test_projection_of_mean_is_zero():
    rng = np.random.default_rng(6)
    x = rng.normal(loc=3.0, size=(80, 4))
    basis = eof_fit(x, 3)
    assert_allclose(project(basis, basis.mean_state), np.zeros(3), atol=1e-12)


def test_projection_is_non_expansive():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(60, 5))
    basis = eof_fit(x, 3)
    for _ in range(20):
        a, b = rng.normal(size=5), rng.normal(size=5)
        da = np.linalg.norm(project(basis, a) - project(basis, b))
        assert da <= np.linalg.norm(a - b) + 1e-12


def test_project_prefix_consistency_and_squeeze():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 4))
    basis = eof_fit(x, 3)
    full = project(basis, x)
    # Same math, different BLAS path per width: equal only to rounding.
    assert_allclose(project(basis, x, n=1), full[:, :1], rtol=1e-12, atol=1e-14)
    single = project(basis, x[0])
    assert single.shape == (3,)
    assert_allclose(single, full[0], rtol=1e-12, atol=1e-14)
    assert reconstruct(basis, single).shape == (4,)


def test_project_width_mismatch():
    basis = eof_fit(np.random.default_rng(9).normal(size=(30, 4)), 2)
    with pytest.raises(DimensionMismatchError):
        project(basis, np.ones(5))
    with pytest.raises(DimensionMismatchError):
        reconstruct(basis, np.ones((2, 3)))
    with pytest.raises(ValueError):
        project(basis, np.ones(4), n=3)


# ---------------------------------------------------------------------------
# rmsd


def test_rmsd_two_rows_exact():
    assert rmsd(np.array([[0.0, 0.0], [3.0, 0.0]]), n_pairs=64) == 3.0


def test_rmsd_uniform_square():
    # E|x - y|^2 = 2 * Var per axis = 2/12 per axis, so rmsd = sqrt(1/3) in
    # 2-d; with 1e5 pairs the estimate lands well within 1%.
    rng = np.random.default_rng(10)
    data = rng.uniform(size=(20_000, 2))
    assert rmsd(data, seed=1) == pytest.approx(math.sqrt(1.0 / 3.0), rel=0.01)


def test_rmsd_scales_linearly():
    rng = np.random.default_rng(11)
    data = rng.normal(size=(500, 3))
    assert rmsd(2.5 * data, n_pairs=10_000, seed=2) == pytest.approx(
        2.5 * rmsd(data, n_pairs=10_000, seed=2), rel=1e-12
    )


def test_rmsd_validation():
    with pytest.raises(ValueError):
        rmsd(np.ones((1, 2)))
    with pytest.raises(ValueError):
        rmsd(np.ones((3, 2)), n_pairs=0)


# ---------------------------------------------------------------------------
# dimension budget


def test_dmax_for_rank_reference_value():
    assert dmax_for_rank(10.0, 10_000, 25) == pytest.approx(6.505149978319906, rel=1e-12)


def test_dmax_for_rank_endpoints():
    assert dmax_for_rank(7.0, 1000, 1) == 7.0
    assert dmax_for_rank(7.0, 1000, 1000) == pytest.approx(0.0, abs=1e-12)


def test_dmax_for_rank_linear_in_log_rank():
    # The budget decreases linearly in log k; three points must be collinear.
    d1, d2, d3 = (dmax_for_rank(9.0, 5000, k) for k in (4, 16, 64))
    assert d1 - d2 == pytest.approx(d2 - d3, rel=1e-12)


def test_dmax_threshold_consistent_with_rank_form():
    # With dmax_first = log L / log(rho/eps) both routes must agree.
    eps, rho, size, rank = 0.3, 0.6, 40_000, 12
    dmax_first = math.log(size) / math.log(rho / eps)
    assert dmax_from_threshold(eps, rho, size, rank) == pytest.approx(
        dmax_for_rank(dmax_first, size, rank), rel=1e-12
    )


def test_dmax_threshold_satisfies_defining_inequality():
    eps, rho, size, rank = 0.25, 0.55, 30_000, 25
    d = dmax_from_threshold(eps, rho, size, rank)
    # At the admissible dimension the typical distance hits epsilon exactly.
    assert rho * (rank / size) ** (1.0 / d) == pytest.approx(eps, rel=1e-12)
    assert rho * (rank / size) ** (1.0 / (0.9 * d)) < eps
    assert rho * (rank / size) ** (1.0 / (1.1 * d)) > eps


def test_dmax_threshold_infinite_when_tolerance_exceeds_scale():
    assert dmax_from_threshold(0.7, 0.55, 1000, 5) == math.inf
    assert dmax_from_threshold(0.55, 0.55, 1000, 5) == math.inf


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 10_000, 25),
        (-1.0, 10_000, 25),
        (10.0, 1, 1),
        (10.0, 100, 0),
        (10.0, 100, 101),
    ],
)
def test_dmax_for_rank_validation(args):
    with pytest.raises(ValueError):
        dmax_for_rank(*args)


@pytest.mark.parametrize(
    "args",
    [
        (0.0, 0.5, 100, 1),
        (0.3, 0.0, 100, 1),
        (0.3, 0.5, 1, 1),
        (0.3, 0.5, 100, 0),
    ],
)
def test_dmax_threshold_validation(args):
    with pytest.raises(ValueError):
        dmax_from_threshold(*args)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["epsilon", "rho_bar"])
def test_dmax_threshold_rejects_non_finite_tolerance(name, value):
    # An infinite epsilon would give an infinite budget, an infinite rho_bar
    # a zero one.
    settings = {"epsilon": 0.4, "rho_bar": 0.55, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value}"):
        dmax_from_threshold(settings["epsilon"], settings["rho_bar"], 100, 1)


# ---------------------------------------------------------------------------
# criterion_scan


@pytest.fixture(scope="module")
def decaying_catalog():
    # Variance spectrum 0.7^(2j): most variance in the leading axes, so
    # truncation barely moves the RMSD while adding resolved dimensions.
    rng = np.random.default_rng(11)
    return rng.normal(size=(4000, 12)) * 0.7 ** np.arange(12)


def test_scan_on_decaying_spectrum(decaying_catalog):
    [cols] = criterion_scan(decaying_catalog, 0.35, [25], (1, 2, 4, 8, 12), n_targets=120, seed=0)
    assert list(cols) == ["n_eof", "mean_dim", "ratio", "passed", "dmax_theory"]
    assert cols["n_eof"] == [1, 2, 4, 8, 12]
    ratios = cols["ratio"]
    assert_allclose(
        ratios,
        [0.011978, 0.089731, 0.238306, 0.303190, 0.308024],
        atol=2e-4,
    )
    assert cols["passed"] == [True] * 5
    assert np.all(np.diff(ratios) > 0.0)
    # Resolved dimension grows with truncation and tops out near the spectrum's
    # effective dimensionality, well below the nominal 12.
    assert cols["mean_dim"][0] == pytest.approx(1.0, abs=0.1)
    assert cols["mean_dim"][2] == pytest.approx(4.2, abs=0.4)
    assert cols["mean_dim"][-1] < 8.0
    assert cols["dmax_theory"] == pytest.approx(
        dmax_from_threshold(0.35, 0.55, 4000 // 24, 25), rel=1e-12
    )


def test_scan_all_pass_when_tolerance_huge(decaying_catalog):
    [cols] = criterion_scan(decaying_catalog, 1.0, [25], (2, 12), n_targets=40, seed=3)
    assert all(cols["passed"])
    assert cols["dmax_theory"] == math.inf


def _no_eof_fit(*args, **kwargs):
    raise AssertionError("eof_fit ran before the request was validated")


def test_scan_validation(decaying_catalog, monkeypatch):
    monkeypatch.setattr(dimred, "eof_fit", _no_eof_fit)
    with pytest.raises(ValueError):
        criterion_scan(decaying_catalog, 0.3, [25], ())
    with pytest.raises(ValueError):
        criterion_scan(decaying_catalog, 0.3, [25], (0, 2))
    with pytest.raises(ValueError):
        criterion_scan(decaying_catalog, 0.3, [25], (1, 13))
    with pytest.raises(ValueError):
        criterion_scan(np.ones((30, 4)) * np.arange(30)[:, None], 0.3, [25], (1,), n_analogs=40)


def test_reduction_criterion_validation(decaying_catalog, monkeypatch):
    # The checks of the former ReductionCriterion run in criterion_scan, before the fit.
    monkeypatch.setattr(dimred, "eof_fit", _no_eof_fit)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        criterion_scan(decaying_catalog, 0.0, [25], (1, 2))
    with pytest.raises(ValueError, match="rank must be >= 1"):
        criterion_scan(decaying_catalog, 0.3, [0], (1, 2))
    with pytest.raises(ValueError, match="l_eff must be >= 2"):
        criterion_scan(decaying_catalog, 0.3, [25], (1, 2), l_eff=1)
    with pytest.raises(ValueError, match="rho_bar must be positive"):
        criterion_scan(decaying_catalog, 0.3, [25], (1, 2), rho_bar=0.0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("name", ["epsilon", "rho_bar"])
def test_non_finite_tolerance_is_rejected(name, value, decaying_catalog, monkeypatch):
    # An infinite epsilon passes every truncation and an infinite rho_bar
    # gives a zero theory bound, so neither is a usable setting.
    monkeypatch.setattr(dimred, "eof_fit", _no_eof_fit)
    settings = {"epsilon": 0.3, "rho_bar": 0.55, name: value}
    with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value}"):
        criterion_scan(decaying_catalog, settings["epsilon"], [25], (1, 2),
                       rho_bar=settings["rho_bar"])


@pytest.mark.parametrize("width,counts", [(12, (2, 5, 12)), (26, (3, 21, 26))])
def test_scan_of_several_criteria_equals_scans_of_each(width, counts):
    # Truncations up to 20 search with the k-d tree, wider ones exhaustively;
    # rank 100 makes the shared query 2.5 times as long as a lone rank-25 one.
    rng = np.random.default_rng(width)
    data = rng.normal(size=(1200, width)) * 0.8 ** np.arange(width)
    ranks = (1, 5, 25, 100)
    scans = criterion_scan(data, 0.3, ranks, counts, l_eff=1200, n_targets=40, seed=2,
                           rmsd_pairs=5000)
    assert len(scans) == len(ranks)
    for rank, cols in zip(ranks, scans):
        [alone] = criterion_scan(data, 0.3, [rank], counts, l_eff=1200, n_targets=40, seed=2,
                                 rmsd_pairs=5000)
        assert cols == alone


def test_scan_rejects_bad_requests_before_fitting(decaying_catalog, monkeypatch):
    monkeypatch.setattr(dimred, "eof_fit", _no_eof_fit)
    with pytest.raises(ValueError, match="ranks must be non-empty"):
        criterion_scan(decaying_catalog, 0.3, [], (1, 2))
    with pytest.raises(ValueError, match="ranks must be distinct"):
        criterion_scan(decaying_catalog, 0.3, [5, 1, 5], (1, 2))
    with pytest.raises(ValueError, match="n_targets must be >= 1"):
        criterion_scan(decaying_catalog, 0.3, [5], (1, 2), n_targets=0)
    for n_analogs in (0, 1, 2):
        with pytest.raises(ValueError, match=f"n_analogs must be >= 3, got {n_analogs}"):
            criterion_scan(decaying_catalog, 0.3, [5], (1, 2), n_analogs=n_analogs)
    with pytest.raises(ValueError, match="rmsd_pairs must be >= 1"):
        criterion_scan(decaying_catalog, 0.3, [5], (1, 2), rmsd_pairs=0)
    # 4000 rows default to L_eff = 4000 // 24 = 166.
    with pytest.raises(ValueError, match="rank 200 .*L_eff = 166"):
        criterion_scan(decaying_catalog, 0.3, [5, 200], (1, 2), n_analogs=10)
