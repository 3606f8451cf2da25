"""Kernel density, KS, and Wasserstein utilities against closed forms.

The KDE has an exact finite-sample identity (mean of Gaussian bumps), the
KS statistic has small hand-checkable cases plus scipy as an independent
implementation, and W1 is cross-checked against scipy's wasserstein_distance.
"""

import ast
import collections
import inspect
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from analogdist import _kstwo, density
from analogdist.density import (
    gaussian_kde,
    gaussian_smooth,
    ks_distance,
    ks_test,
    wasserstein1,
)


# ---------------------------------------------------------------------------
# gaussian_kde


def _padded_grid(samples, bandwidth):
    """The drivers' KDE grid: the sample range padded by 4 bandwidths, 512 points."""
    samples = np.asarray(samples)
    return np.linspace(samples.min() - 4.0 * bandwidth, samples.max() + 4.0 * bandwidth, 512)


def test_kde_of_repeated_point_is_single_gaussian():
    # n copies of one value: the density is exactly one Gaussian bump.
    grid = _padded_grid([2.5], 0.4)
    values = gaussian_kde(np.full(7, 2.5), bandwidth=0.4, grid=grid)
    assert_allclose(values, stats.norm.pdf(grid, loc=2.5, scale=0.4), rtol=1e-12)


def test_kde_is_mean_of_per_sample_kernels():
    rng = np.random.default_rng(3)
    samples = rng.normal(size=40)
    grid = np.linspace(-4.0, 4.0, 257)
    values = gaussian_kde(samples, bandwidth=0.25, grid=grid)
    oracle = np.mean([stats.norm.pdf(grid, loc=s, scale=0.25) for s in samples], axis=0)
    assert_allclose(values, oracle, rtol=1e-12, atol=1e-300)


def test_kde_union_is_weighted_mean_of_parts():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=30), rng.normal(loc=2.0, size=50)
    grid = np.linspace(-5.0, 7.0, 101)
    va = gaussian_kde(a, 0.3, grid)
    vb = gaussian_kde(b, 0.3, grid)
    vu = gaussian_kde(np.concatenate([a, b]), 0.3, grid)
    assert_allclose(vu, (30 * va + 50 * vb) / 80, rtol=1e-12)


def test_kde_integrates_to_one_on_default_grid():
    rng = np.random.default_rng(5)
    samples = rng.normal(size=500)
    grid = _padded_grid(samples, 0.35)
    values = gaussian_kde(samples, bandwidth=0.35, grid=grid)
    # 4-bandwidth padding leaves ~3e-5 of mass outside the grid.
    assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_estimates_smoothed_normal_density():
    # E[KDE] with bandwidth h on N(0,1) samples is exactly N(0, 1 + h^2).
    rng = np.random.default_rng(6)
    h = 0.3
    samples = rng.normal(size=100_000)
    grid = _padded_grid(samples, h)
    values = gaussian_kde(samples, bandwidth=h, grid=grid)
    target = stats.norm.pdf(grid, scale=math.sqrt(1.0 + h * h))
    assert np.max(np.abs(values - target)) < 0.01


@pytest.mark.parametrize(
    "samples,bandwidth",
    [([], 0.3), ([1.0], 0.0), ([1.0], -2.0)],
)
def test_kde_validation(samples, bandwidth):
    with pytest.raises(ValueError):
        gaussian_kde(samples, bandwidth, np.linspace(-1.0, 1.0, 5))


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def test_ks_distance_hand_value():
    # Three points against the uniform CDF: the largest gap is 7/30, at the
    # lower side of the third sample (2/3 vs 0.9).
    d = ks_distance([0.1, 0.5, 0.9], lambda x: x)
    assert d == pytest.approx(7.0 / 30.0, abs=1e-15)


def test_ks_matches_scipy_on_continuous_samples():
    rng = np.random.default_rng(7)
    samples = rng.normal(size=401)
    d, p = ks_test(samples, stats.norm.cdf)
    ref = stats.kstest(samples, stats.norm.cdf, method="exact")
    assert d == pytest.approx(ref.statistic, rel=1e-12)
    assert p == pytest.approx(ref.pvalue, rel=1e-9)


def test_ks_true_model_passes_and_wrong_model_fails():
    rng = np.random.default_rng(8)
    samples = rng.normal(size=400)
    d, p = ks_test(samples, stats.norm.cdf)
    assert d < 1.63 / math.sqrt(400)  # 1% critical value
    assert p > 0.01
    _, p_bad = ks_test(rng.uniform(size=400), stats.norm.cdf)
    assert p_bad < 1e-6


def test_ks_invariant_under_monotone_transform():
    # D only depends on the CDF values at the samples, so pushing both the
    # samples and the model through exp() changes nothing.
    rng = np.random.default_rng(9)
    samples = rng.normal(size=101)
    d_normal = ks_distance(samples, stats.norm.cdf)
    d_lognormal = ks_distance(np.exp(samples), lambda x: stats.norm.cdf(np.log(x)))
    assert d_lognormal == pytest.approx(d_normal, abs=1e-14)


def test_ks_distance_empty():
    with pytest.raises(ValueError):
        ks_distance([], lambda x: x)


# (n, d) pairs that reach every path of the ported survival function; the
# id names the path. n d^2 decides among the exact and asymptotic methods.
_KS_PATHS = {
    "nan": (5, math.nan),
    "negative": (5, -0.25),
    "zero": (5, 0.0),
    "one": (5, 1.0),
    "above-one": (5, 1.5),
    "support-end": (10, 0.05),
    # Above 1/(2n) = 0.16666666666666666, yet 3 d rounds to exactly 0.5.
    "nd-rounds-to-half": (3, 0.16666666666666669),
    "ruben-gambino-low-n10": (10, 0.08),
    "ruben-gambino-low-n140": (140, 0.007),
    "ruben-gambino-low-n141": (141, 0.007),
    "ruben-gambino-low-n2000": (2000, 0.0004),
    "ruben-gambino-high-n1": (1, 0.7),
    "ruben-gambino-high-n2": (2, 0.75),
    "ruben-gambino-high-n10": (10, 0.95),
    "smirnov-exact-n10": (10, 0.6),
    "smirnov-exact-n1000": (1000, 0.5),
    "dmtw-n100": (100, 0.05),
    "dmtw-n140": (140, 0.05),
    "pomeranz-n20": (20, 0.3),
    "pomeranz-n100": (100, 0.15),
    "pomeranz-n140": (140, 0.1),
    "miller-n100": (100, 0.3),
    "miller-n140": (140, 0.2),
    "zero-tail-n2000": (2000, 0.45),
    "zero-tail-n5000": (5000, 0.3),
    "smirnov-tail-n141": (141, 0.2),
    "smirnov-tail-n1000": (1000, 0.05),
    "dmtw-n141": (141, 0.04),
    "dmtw-n1000": (1000, 0.01),
    "dmtw-n5000": (5000, 0.004),
    # The matrix power and n!/n^n leave a net long-double rescaling to undo.
    "dmtw-unscaled-n100000": (100_000, 0.0003),
    # n d^1.5 is 1.4 within rounding: a 0-d array rounds it to at most 1.4
    # (DMTW, as SciPy does), a float to just above (Pelz-Good).
    "dmtw-at-the-pelz-good-edge-n155": (155, 0.043370812512879386),
    "pelz-good-n141": (141, 0.05),
    "pelz-good-n1000": (1000, 0.02),
    "pelz-good-n200000": (200_000, 0.002),
    "pelz-good-underflow-n1000000": (1_000_000, 2e-6),
}


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


def _ks_p_for(monkeypatch, n: int, d: float) -> float:
    """ks_test's p-value for n samples whose statistic is exactly d."""
    monkeypatch.setattr(density, "ks_distance", lambda samples, cdf: d)
    return ks_test(np.zeros(n), None)[1]


@pytest.mark.parametrize("n,d", _KS_PATHS.values(), ids=_KS_PATHS.keys())
def test_ks_p_value_equals_scipy_kstwo_bit_for_bit(monkeypatch, n, d):
    expected = min(1.0, max(0.0, float(stats.kstwo.sf(d, n))))
    assert _bits(_ks_p_for(monkeypatch, n, d)) == _bits(expected)


def test_ks_p_value_equals_scipy_kstwo_on_random_pairs(monkeypatch):
    rng = np.random.default_rng(26)
    ns = np.unique(np.rint(np.exp(rng.uniform(0.0, math.log(5000), 120)))).astype(int)
    mismatched = []
    for n in ns.tolist():
        for d in [*rng.uniform(0.0, 1.0, 2), *rng.uniform(0.0, 3.0 / math.sqrt(n), 2),
                  1.0 / n, 1.0 - 1.0 / n]:
            expected = min(1.0, max(0.0, float(stats.kstwo.sf(d, n))))
            if _bits(_ks_p_for(monkeypatch, n, d)) != _bits(expected):
                mismatched.append((n, d))
    assert mismatched == []


def _statement_lines(module) -> set[int]:
    """First line of every statement inside the functions of module."""
    tree = ast.parse(inspect.getsource(module))
    lines = set()
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef):
            body = fn.body[1:] if ast.get_docstring(fn) else fn.body
            lines |= {node.lineno for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.stmt)}
    return lines


def test_ks_path_grid_runs_every_statement_of_the_port():
    # A grid that misses a path fails here: each statement of _kstwo,
    # including the long-double rescaling steps, must run at least once.
    source = _kstwo.__file__
    hits = collections.Counter()

    def trace(frame, event, arg):
        if frame.f_code.co_filename != source:
            return None
        if event == "line":
            hits[frame.f_lineno] += 1
        return trace

    sys.settrace(trace)
    try:
        for n, d in _KS_PATHS.values():
            _kstwo.kstwo_sf(d, n)
    finally:
        sys.settrace(None)
    missed = sorted(_statement_lines(_kstwo) - set(hits))
    assert missed == [], [inspect.getsource(_kstwo).splitlines()[i - 1].strip() for i in missed]


# ---------------------------------------------------------------------------
# Wasserstein distance


def test_wasserstein_identity_and_shift():
    rng = np.random.default_rng(10)
    a = rng.normal(size=64)
    assert wasserstein1(a, a) == 0.0
    assert wasserstein1(a, a + 0.75) == pytest.approx(0.75, rel=1e-12)
    assert wasserstein1(a - 1.5, a) == pytest.approx(1.5, rel=1e-12)


def test_wasserstein_matches_scipy_equal_sizes():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=200), rng.normal(loc=0.3, scale=1.4, size=200)
    assert wasserstein1(a, b) == pytest.approx(stats.wasserstein_distance(a, b), rel=1e-12)


def test_wasserstein_matches_scipy_unequal_sizes():
    rng = np.random.default_rng(12)
    a, b = rng.exponential(size=150), rng.exponential(scale=2.0, size=77)
    assert wasserstein1(a, b) == pytest.approx(stats.wasserstein_distance(a, b), rel=1e-12)


def test_wasserstein_empty():
    with pytest.raises(ValueError):
        wasserstein1([], [1.0])


@settings(max_examples=40, deadline=None)
@given(
    a=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
    b=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30),
)
def test_wasserstein_symmetric_and_scipy_consistent(a, b):
    w_ab = wasserstein1(a, b)
    assert w_ab == pytest.approx(wasserstein1(b, a), rel=1e-12, abs=1e-12)
    assert w_ab == pytest.approx(stats.wasserstein_distance(a, b), rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# gaussian_smooth


def test_smooth_preserves_constant_series():
    out = gaussian_smooth(np.full(25, 3.25), sigma=2.0)
    assert_allclose(out, 3.25, rtol=1e-12)


def test_smooth_keeps_linear_interior():
    # A symmetric kernel leaves a linear ramp unchanged away from the edges.
    x = np.linspace(0.0, 1.0, 50)
    out = gaussian_smooth(x, sigma=1.5)
    half = int(math.ceil(4 * 1.5))
    assert_allclose(out[half:-half], x[half:-half], rtol=1e-9)


def test_smooth_impulse_is_symmetric_bump():
    series = np.zeros(41)
    series[20] = 1.0
    out = gaussian_smooth(series, sigma=3.0)
    assert np.argmax(out) == 20
    assert_allclose(out[:20], out[21:][::-1], rtol=1e-12)


def test_smooth_of_series_shorter_than_kernel_keeps_its_length():
    # sigma 20 spans 161 samples, far more than the 12 given.
    values = np.random.default_rng(3).normal(size=12)
    out = gaussian_smooth(values, sigma=20.0)
    assert out.shape == values.shape
    lags = np.arange(12)[:, None] - np.arange(12)[None, :]
    weights = np.exp(-0.5 * (lags / 20.0) ** 2)
    assert_allclose(out, weights @ values / weights.sum(axis=1), rtol=1e-12)


def test_smooth_of_long_series_equals_same_mode_convolution():
    values = np.random.default_rng(4).normal(size=300)
    sigma = 5.5
    half = int(math.ceil(4.0 * sigma))
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1) / sigma) ** 2)
    expected = np.convolve(values, kernel, mode="same") / np.convolve(
        np.ones_like(values), kernel, mode="same"
    )
    assert gaussian_smooth(values, sigma).tobytes() == expected.tobytes()


def _smooth_unclipped(values, sigma):
    """gaussian_smooth with the kernel at its full 4-sigma half-width."""
    values = np.asarray(values, dtype=np.float64)
    half = max(1, int(math.ceil(4.0 * sigma)))
    kernel = np.exp(-0.5 * (np.arange(-half, half + 1, dtype=np.float64) / sigma) ** 2)
    span = slice(half, half + len(values))
    num = np.convolve(values, kernel, mode="full")[span]
    den = np.convolve(np.ones_like(values), kernel, mode="full")[span]
    return num / den


@pytest.mark.parametrize("length", [1, 2, 3, 7, 60, 161, 400])
@pytest.mark.parametrize("window_days", [0.3, 1.0, 80.0, 640.0, 1e4])
def test_smooth_with_clipped_kernel_equals_unclipped_bitwise(length, window_days):
    values = np.random.default_rng(length).normal(size=length)
    sigma = window_days / 4.0
    expected = _smooth_unclipped(values, sigma)
    assert gaussian_smooth(values, sigma).tobytes() == expected.tobytes()


def test_smooth_memory_is_bounded_by_series_length():
    # Unclipped, a 1e9-day window would ask for a 2e9-sample kernel (16 GB).
    values = np.random.default_rng(5).normal(size=60)
    tracemalloc.start()
    try:
        out = gaussian_smooth(values, sigma=1e9 / 4.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert_allclose(out, values.mean(), rtol=0.0, atol=1e-12)


def test_smooth_validation():
    with pytest.raises(ValueError):
        gaussian_smooth([1.0, 2.0], sigma=0.0)
