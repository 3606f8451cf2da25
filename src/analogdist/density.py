"""One-dimensional density and distribution-comparison utilities.

Kernel density estimates mirror the figure conventions of the experiment
drivers: Gaussian kernels with an explicit, caller-chosen bandwidth.
"""

from __future__ import annotations

import math

import numpy as np

from ._kstwo import kstwo_sf

__all__ = [
    "gaussian_kde",
    "ks_distance",
    "ks_test",
    "wasserstein1",
    "gaussian_smooth",
]

# Chunk KDE evaluation so sample x grid broadcasting stays within ~40 MB.
_KDE_CHUNK = 64


def gaussian_kde(samples, bandwidth: float, grid) -> np.ndarray:
    """Kernel density (1/(n h)) sum phi((x - s_i)/h) at each point of grid.

    There is no automatic bandwidth rule: the figures this feeds fix the
    bandwidth explicitly.
    """
    samples = np.asarray(samples, dtype=np.float64).reshape(-1)
    if len(samples) < 1:
        raise ValueError("need at least one sample")
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    grid = np.asarray(grid, dtype=np.float64).reshape(-1)

    norm = 1.0 / (len(samples) * bandwidth * math.sqrt(2.0 * math.pi))
    values = np.empty_like(grid)
    for start in range(0, len(grid), _KDE_CHUNK):
        block = grid[start : start + _KDE_CHUNK, None]
        z = (block - samples[None, :]) / bandwidth
        values[start : start + _KDE_CHUNK] = norm * np.exp(-0.5 * z * z).sum(axis=1)
    return values


def ks_distance(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    s = np.sort(np.asarray(samples, dtype=np.float64).reshape(-1))
    n = len(s)
    if n < 1:
        raise ValueError("need at least one sample")
    f = np.asarray(cdf(s), dtype=np.float64)
    steps_hi = np.arange(1, n + 1) / n
    steps_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(steps_hi - f, f - steps_lo)))


def ks_test(samples, cdf) -> tuple[float, float]:
    """KS statistic plus its exact one-sample p-value, Pr(D_n >= d).

    The p-value is `scipy.stats.kstwo.sf(d, n)` to the bit, computed by a
    port of SciPy's method (`_kstwo`) that needs only `scipy.special`;
    loading `scipy.stats` would cost every `mc-distances` run more time and
    memory than its own work. A NaN statistic gives p = 0.
    """
    n = len(np.asarray(samples).reshape(-1))
    d = ks_distance(samples, cdf)
    return d, min(1.0, max(0.0, kstwo_sf(d, n)))


def wasserstein1(a, b) -> float:
    """Empirical 1-Wasserstein distance between two samples.

    Computed as the area between the two empirical CDFs, which for samples
    of equal size reduces to the mean absolute difference of the sorted
    values.
    """
    a = np.sort(np.asarray(a, dtype=np.float64).reshape(-1))
    b = np.sort(np.asarray(b, dtype=np.float64).reshape(-1))
    if len(a) < 1 or len(b) < 1:
        raise ValueError("both samples must be non-empty")
    if len(a) == len(b):
        return float(np.mean(np.abs(a - b)))
    support = np.concatenate([a, b])
    support.sort(kind="mergesort")
    deltas = np.diff(support)
    cdf_a = np.searchsorted(a, support[:-1], side="right") / len(a)
    cdf_b = np.searchsorted(b, support[:-1], side="right") / len(b)
    return float(np.sum(np.abs(cdf_a - cdf_b) * deltas))


def gaussian_smooth(values, sigma: float) -> np.ndarray:
    """Convolve a series with a Gaussian kernel (sigma in sample units).

    The kernel is truncated at 4 sigma and renormalized near the edges, so
    the output has the same length as the input.
    """
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    # Kernel taps farther than len(values) - 1 from the centre never meet a
    # sample, so clipping there leaves every output value unchanged.
    half = max(1, min(int(math.ceil(4.0 * sigma)), len(values) - 1))
    x = np.arange(-half, half + 1, dtype=np.float64)
    kernel = np.exp(-0.5 * (x / sigma) ** 2)
    # The centred slice of the full convolution; mode="same" would return
    # max(len(values), len(kernel)) samples.
    span = slice(half, half + len(values))
    num = np.convolve(values, kernel, mode="full")[span]
    den = np.convolve(np.ones_like(values), kernel, mode="full")[span]
    return num / den
