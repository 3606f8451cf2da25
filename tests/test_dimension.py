"""Local-dimension estimator and prefactor fit.

The power-law fixtures have closed-form estimates (computed below with
plain math.log loops, independently of the numpy implementation), so the
estimator can be pinned to its exact value, not just a tolerance band.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analogdist.dimension import (
    estimate_local_dimension,
    fit_prefactor,
    rescale_distances,
)
from analogdist.catalog import Catalog
from analogdist.disttheory import sample_joint_distances
from analogdist.errors import DegenerateDistancesError
from analogdist.lorenz import generate_trajectory
from analogdist.neighbors import NeighborIndex


def _power_law_distances(n, exponent):
    k = np.arange(1, n + 1, dtype=np.float64)
    return (k / n) ** exponent


def _oracle_dim(r):
    s = sum(math.log(r[-1] / rk) for rk in r[:-1])
    return (len(r) - 1) / s


@pytest.mark.parametrize("exponent,target", [(0.5, 2.0), (1.0, 1.0), (0.25, 4.0)])
def test_power_law_distances_recover_exponent(exponent, target):
    r = _power_law_distances(1000, exponent)
    dim = estimate_local_dimension(r)
    assert dim == pytest.approx(_oracle_dim(r), rel=1e-12)
    assert abs(dim - target) < 0.05


def test_estimate_requires_three_positive_distances():
    with pytest.raises(ValueError):
        estimate_local_dimension(np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        estimate_local_dimension(np.array([0.0, 0.1, 0.2]))
    with pytest.raises(ValueError):
        estimate_local_dimension(np.array([-0.1, 0.1, 0.2]))


def test_tied_largest_rank_is_degenerate():
    with pytest.raises(DegenerateDistancesError):
        estimate_local_dimension(np.array([0.1, 0.3, 0.3]))


def test_estimate_is_scale_invariant():
    r = _power_law_distances(100, 0.4)
    base = estimate_local_dimension(r)
    # Power-of-two scalings are exact in binary floats.
    for factor in (0.5, 2.0, 4096.0):
        assert estimate_local_dimension(factor * r) == base
    assert estimate_local_dimension(3.7 * r) == pytest.approx(base, rel=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(5, 60))
def test_estimate_scale_invariance_property(seed, n):
    rng = np.random.default_rng(seed)
    r = np.sort(rng.uniform(0.01, 1.0, size=n))
    r[-1] += 0.1  # guarantee scale separation at the top rank
    base = estimate_local_dimension(r)
    scaled = estimate_local_dimension(2.0 ** rng.integers(-20, 20) * r)
    assert scaled == base


def test_estimator_matches_sampled_law():
    # Distances drawn from the joint rank law should average back to the
    # dimension that generated them.
    draws = sample_joint_distances(150, 2.4, 100_000, n_samples=400, seed=6)
    dims = np.array([estimate_local_dimension(row) for row in draws])
    se = dims.std(ddof=1) / math.sqrt(len(dims))
    assert abs(dims.mean() - 2.4) < 4 * se + 0.02


# ------------------------------------------------------------- prefactor fit


def test_exact_power_law_fit_has_zero_residual():
    k = np.arange(1, 41, dtype=np.float64)
    r = 0.3 * k ** 0.5
    fit = fit_prefactor(r, dim=2.0, catalog_size=1000)
    assert fit.prefactor == pytest.approx(0.3, rel=1e-12)
    assert fit.residual == pytest.approx(0.0, abs=1e-12)
    assert fit.rescaling == pytest.approx(0.3 * 1000 ** 0.5, rel=1e-12)


def test_fit_recovers_density_free_rescaling():
    # Building distances from a target rescaling must invert exactly.
    rho, dim, L = 4.2, 2.0, 50_000
    c = rho / L ** (1.0 / dim)
    k = np.arange(1, 31, dtype=np.float64)
    fit = fit_prefactor(c * k ** (1.0 / dim), dim=dim, catalog_size=L)
    assert fit.rescaling == pytest.approx(rho, rel=1e-12)


def test_fit_validation():
    r = np.array([0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        fit_prefactor(r, dim=0.0, catalog_size=10)
    with pytest.raises(ValueError):
        fit_prefactor(r, dim=2.0, catalog_size=2)
    with pytest.raises(ValueError):
        fit_prefactor(np.array([0.0, 0.1]), dim=2.0, catalog_size=10)


def test_fit_residual_measures_log_scatter():
    rng = np.random.default_rng(8)
    k = np.arange(1, 101, dtype=np.float64)
    noise = rng.normal(0.0, 0.05, size=100)
    r = 0.2 * k ** 0.5 * np.exp(noise)
    fit = fit_prefactor(r, dim=2.0, catalog_size=10_000)
    assert fit.residual == pytest.approx(noise.std(), rel=0.05)


# --------------------------------------------------------- rescaled distances


def test_rescaling_direct_substitution():
    # k=1, d=2, C=1 and r_1=1.5 gives u = 2*1*(1.5/1 - 1) = 1.
    u = rescale_distances(np.array([1.5]), dim=2.0, prefactor=1.0)
    assert u[0] == pytest.approx(1.0, rel=1e-15)


def test_rescaling_zero_for_exact_power_law():
    k = np.arange(1, 21, dtype=np.float64)
    r = 0.7 * k ** (1.0 / 3.0)
    u = rescale_distances(r, dim=3.0, prefactor=0.7)
    np.testing.assert_allclose(u, 0.0, atol=1e-12)


def test_rescaling_validation():
    with pytest.raises(ValueError):
        rescale_distances(np.array([1.0]), dim=-1.0, prefactor=1.0)
    with pytest.raises(ValueError):
        rescale_distances(np.array([1.0]), dim=2.0, prefactor=0.0)


def test_rescaling_round_trip_through_fit():
    # estimate -> fit -> rescale on self-consistent data lands near zero.
    k = np.arange(1, 151, dtype=np.float64)
    r = 0.05 * k ** (1.0 / 2.05)
    dim = estimate_local_dimension(r)
    fit = fit_prefactor(r, dim, catalog_size=10**6)
    u = rescale_distances(r, dim, fit.prefactor)
    assert np.abs(np.mean(u)) < 0.05


# ------------------------------------------------------------------- blocks


def _sampled_block():
    return sample_joint_distances(30, 2.4, 50_000, n_samples=200, seed=11)


def _searched_block():
    states = generate_trajectory(n_steps=3000, stride=5, seed=2)
    return NeighborIndex(Catalog(states)).row_distances(np.arange(0, 3000, 15), 30, 10)


def _assert_same_bytes(block, rows):
    assert block.dtype == np.float64
    assert block.tobytes() == np.array(rows, dtype=np.float64).tobytes()


@pytest.mark.parametrize("make_block", [_sampled_block, _searched_block],
                         ids=["sampled", "searched"])
@pytest.mark.parametrize("n", [30, 12, 3])
def test_block_estimators_equal_stacked_rows_bitwise(make_block, n):
    # n < 30 takes the non-contiguous view dist[:, :n] that criterion_scan uses.
    block = make_block()[:, :n]
    assert block.flags.c_contiguous == (n == 30)
    catalog_size = 50_000
    dims = estimate_local_dimension(block)
    _assert_same_bytes(dims, [estimate_local_dimension(r) for r in block])
    assert all(isinstance(estimate_local_dimension(r), float) for r in block[:3])

    # Per-row dims, as rescaled-density fits, and one pooled dim, as mc-distances does.
    for dim in (dims, float(dims.mean())):
        row_dims = np.broadcast_to(dim, dims.shape)
        fit = fit_prefactor(block, dim, catalog_size)
        rows = [fit_prefactor(r, d, catalog_size) for r, d in zip(block, row_dims)]
        for field in ("prefactor", "rescaling", "residual"):
            _assert_same_bytes(getattr(fit, field), [getattr(f, field) for f in rows])
        u = rescale_distances(block, dim, fit.prefactor)
        _assert_same_bytes(u, [rescale_distances(r, d, c)
                               for r, d, c in zip(block, row_dims, fit.prefactor)])


def test_one_row_gives_scalars():
    r = _sampled_block()[0]
    dim = estimate_local_dimension(r)
    fit = fit_prefactor(r, dim, 50_000)
    assert type(dim) is np.float64
    assert all(type(v) is np.float64 for v in (fit.prefactor, fit.rescaling, fit.residual))
    assert rescale_distances(r, dim, fit.prefactor).shape == r.shape


def test_tied_row_inside_a_block_is_degenerate():
    block = _sampled_block()[:, :10].copy()
    block[57, -1] = block[57, -2]
    with pytest.raises(DegenerateDistancesError):
        estimate_local_dimension(block)
    estimate_local_dimension(np.delete(block, 57, axis=0))


def test_block_checks_cover_every_row():
    block = _sampled_block()[:5, :10].copy()
    with pytest.raises(ValueError, match="at least 3 analogs, got 2"):
        estimate_local_dimension(block[:, :2])
    block[3, 0] = 0.0
    with pytest.raises(ValueError, match="positive"):
        estimate_local_dimension(block)
    with pytest.raises(ValueError, match="dim must be positive"):
        fit_prefactor(block[:3], np.array([2.0, -1.0, 2.0]), 100)
    with pytest.raises(ValueError, match="must be positive"):
        rescale_distances(block[:3], np.array([2.0, 2.0, 2.0]), np.array([0.1, 0.0, 0.1]))
