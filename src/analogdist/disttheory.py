"""Analytic distribution of the k-th nearest-analog distance.

For a catalog of catalog_size independent draws from the invariant measure,
the number of catalog members inside a ball around the target is Poisson
once distances are expressed in measure units (ball mass = r**dim). The
distance to the rank-k analog then follows a generalized Gamma law

    pdf(r) = dim * catalog_size * r**(dim-1) * (catalog_size * r**dim)**(rank-1)
             * exp(-catalog_size * r**dim) / (rank-1)!

with survival function equal to the regularized upper incomplete Gamma in
catalog_size * r**dim. Physical distances are scale * r, where the scale
factor absorbs the local density of the measure. Everything here is
evaluated in log space so that ranks up to 1e4 stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# scipy.special is imported inside the functions that call it: loading it
# would add about a quarter second to the start-up of every CLI command,
# and only theory-curves, mc-distances and rescaled-density use these laws.

__all__ = [
    "DistParams",
    "MinCatalogSize",
    "poisson_count_pmf",
    "distance_pdf",
    "log_distance_pdf",
    "distance_survival",
    "survival_inverse",
    "distance_mean",
    "distance_variance",
    "distance_mean_approx",
    "distance_rel_std_approx",
    "distance_mode",
    "rescaled_pdf",
    "log_rescaled_pdf",
    "joint_distance_pdf",
    "log_joint_distance_pdf",
    "sample_distances",
    "sample_joint_distances",
    "min_catalog_size",
]


@dataclass(frozen=True)
class DistParams:
    """Parameters of the rank-distance law.

    rank: analog rank k >= 1.
    dim: local dimension at the analog resolution, > 0.
    catalog_size: number of catalog members the target is compared against.
    scale: physical distance per measure unit (1.0 for normalized distances).
    """

    rank: int
    dim: float
    catalog_size: int
    scale: float = 1.0

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not self.dim > 0.0:
            raise ValueError("dim must be positive")
        if self.catalog_size < 1:
            raise ValueError("catalog_size must be >= 1")
        if self.rank > self.catalog_size:
            raise ValueError("rank cannot exceed catalog_size")
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")


class MinCatalogSize(NamedTuple):
    """Exact integer requirement plus the continuous approximation it rounds."""

    size: int
    van_den_dool: float


def poisson_count_pmf(count, catalog_size: int, measure) -> np.ndarray | float:
    """Probability of finding ``count`` catalog members in a ball of the given
    invariant-measure mass. Vectorized over count and measure."""
    from scipy import special

    count = np.asarray(count)
    if np.any(count < 0) or not np.issubdtype(count.dtype, np.integer):
        raise ValueError("count must be a non-negative integer")
    measure = np.asarray(measure, dtype=np.float64)
    if np.any(measure < 0.0) or np.any(measure > 1.0):
        raise ValueError("measure must lie in [0, 1]")
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")

    lam = catalog_size * measure
    with np.errstate(divide="ignore", invalid="ignore"):
        logp = count * np.log(lam) - lam - special.gammaln(count + 1)
    # lam == 0 concentrates all mass on count == 0.
    logp = np.where(lam == 0.0, np.where(count == 0, 0.0, -np.inf), logp)
    out = np.exp(logp)
    return out if out.ndim else float(out)


def log_distance_pdf(r, p: DistParams) -> np.ndarray | float:
    """Natural log of the rank-distance density; -inf outside the support."""
    from scipy import special

    r = np.asarray(r, dtype=np.float64)
    x = r / p.scale
    k, d, size = p.rank, p.dim, p.catalog_size
    out = np.full(x.shape, -np.inf, dtype=np.float64)

    pos = x > 0.0
    xp = x[pos]
    out[pos] = (
        math.log(d)
        + k * math.log(size)
        + (d * k - 1.0) * np.log(xp)
        - size * xp**d
        - special.gammaln(k)
        - math.log(p.scale)
    )
    # The density diverges at the origin when rank*dim <= 1.
    out[x == 0.0] = np.inf if k * d <= 1.0 else -np.inf
    return out if out.ndim else float(out)


def distance_pdf(r, p: DistParams) -> np.ndarray | float:
    """Density of the distance to the rank-k analog (physical units)."""
    return np.exp(log_distance_pdf(r, p))


def distance_survival(r, p: DistParams) -> np.ndarray | float:
    """P(rank-distance > r), the regularized upper incomplete Gamma."""
    from scipy import special

    r = np.asarray(r, dtype=np.float64)
    x = np.maximum(r, 0.0) / p.scale
    out = special.gammaincc(p.rank, p.catalog_size * x**p.dim)
    return out if out.ndim else float(out)


def survival_inverse(q: float, p: DistParams) -> float:
    """Distance whose survival probability equals q (used for plot and
    quadrature upper limits)."""
    from scipy import special

    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    x = special.gammainccinv(p.rank, q) / p.catalog_size
    return p.scale * float(x) ** (1.0 / p.dim)


def distance_mean(p: DistParams) -> float:
    """Exact mean, Gamma(rank + 1/dim) / (catalog_size**(1/dim) Gamma(rank))."""
    from scipy import special

    k, d = p.rank, p.dim
    return p.scale * math.exp(
        special.gammaln(k + 1.0 / d)
        - special.gammaln(k)
        - math.log(p.catalog_size) / d
    )


def distance_variance(p: DistParams) -> float:
    """Exact variance via the first two moments, in log-Gamma arithmetic."""
    from scipy import special

    k, d, size = p.rank, p.dim, p.catalog_size
    lg_k = special.gammaln(k)
    m1 = math.exp(special.gammaln(k + 1.0 / d) - lg_k - math.log(size) / d)
    m2 = math.exp(special.gammaln(k + 2.0 / d) - lg_k - 2.0 * math.log(size) / d)
    return p.scale**2 * (m2 - m1 * m1)


def distance_mean_approx(p: DistParams) -> float:
    """Saddle-point mean (rank/catalog_size)**(1/dim).

    This is the leading-order term of the expansion of the exact mean
    Gamma(k + a) / (L**a Gamma(k)), a = 1/dim, k = rank, L = catalog_size.
    Its relative error is about |a*(1-a)|/(2k) (6.4% at rank 2, dim 2).
    For dim > 1 it overestimates the exact mean, by Wendel's inequality
    never by more than a*(1-a)/k; it is exact at dim = 1 and underestimates
    for dim < 1. The dmax budget laws invert this same form.

    The underlying expansion is stated for rank >= 2; evaluating at rank 1
    extrapolates it.
    """
    return p.scale * (p.rank / p.catalog_size) ** (1.0 / p.dim)


def distance_rel_std_approx(p: DistParams) -> float:
    """Saddle-point relative standard deviation 1 / (dim * sqrt(rank))."""
    return 1.0 / (p.dim * math.sqrt(p.rank))


def distance_mode(p: DistParams) -> float:
    """Most probable distance; 0 when rank*dim <= 1 (density diverging at 0)."""
    k, d = p.rank, p.dim
    if k * d <= 1.0:
        return 0.0
    return p.scale * ((k - 1.0 / d) / p.catalog_size) ** (1.0 / d)


def log_rescaled_pdf(u, rank: int, dim: float) -> np.ndarray | float:
    """Log density of the centred fluctuation u = dim*sqrt(rank)*(r/r_typ - 1).

    Exact change-of-variables form

        k**(k-1/2)/(k-1)! * (1+u/(d sqrt(k)))**(dk-1)
                          * exp(-k * (1+u/(d sqrt(k)))**d),

    supported on u > -dim*sqrt(rank) and approaching the standard normal as
    the rank grows. Evaluated via log-Gamma so that ranks beyond 170 do not
    overflow the leading factor.
    """
    from scipy import special

    if rank < 1:
        raise ValueError("rank must be >= 1")
    if not dim > 0.0:
        raise ValueError("dim must be positive")
    u = np.asarray(u, dtype=np.float64)
    k = float(rank)
    span = dim * math.sqrt(k)
    t = u / span
    out = np.full(u.shape, -np.inf, dtype=np.float64)
    inside = t > -1.0
    ti = t[inside]
    out[inside] = (
        (k - 0.5) * math.log(k)
        - special.gammaln(k)
        + (dim * k - 1.0) * np.log1p(ti)
        - k * np.exp(dim * np.log1p(ti))
    )
    return out if out.ndim else float(out)


def rescaled_pdf(u, rank: int, dim: float) -> np.ndarray | float:
    """Density of the centred fluctuation variable; see log_rescaled_pdf."""
    return np.exp(log_rescaled_pdf(u, rank, dim))


def log_joint_distance_pdf(r, dim: float, catalog_size: int, scale: float = 1.0) -> float:
    """Log joint density of the first K analog distances.

    Zero probability (-inf) unless 0 < r_1 < r_2 < ... < r_K.
    """
    if not dim > 0.0:
        raise ValueError("dim must be positive")
    if catalog_size < 1:
        raise ValueError("catalog_size must be >= 1")
    if not scale > 0.0:
        raise ValueError("scale must be positive")
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if len(r) < 1:
        raise ValueError("need at least one distance")
    x = r / scale
    if x[0] <= 0.0 or np.any(np.diff(x) <= 0.0):
        return -math.inf
    n = len(x)
    return float(
        n * math.log(dim * catalog_size)
        + (dim - 1.0) * np.sum(np.log(x))
        - catalog_size * x[-1] ** dim
        - n * math.log(scale)
    )


def joint_distance_pdf(r, dim: float, catalog_size: int, scale: float = 1.0) -> float:
    """Joint density of the ordered analog distances; 0 off the ordered cone."""
    return math.exp(log_joint_distance_pdf(r, dim, catalog_size, scale))


def sample_distances(p: DistParams, n_samples: int, seed: int) -> np.ndarray:
    """Exact draws of the rank-distance: scale * (Gamma(rank)/catalog_size)**(1/dim)."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    g = rng.gamma(shape=p.rank, scale=1.0, size=n_samples)
    return p.scale * (g / p.catalog_size) ** (1.0 / p.dim)


def sample_joint_distances(
    n_ranks: int,
    dim: float,
    catalog_size: int,
    n_samples: int,
    seed: int,
    scale: float = 1.0,
) -> np.ndarray:
    """Joint draws of the first n_ranks distances via the Poisson-process
    representation: cumulative sums of unit exponentials transformed by the
    inverse ball mass. Rows are strictly increasing."""
    if n_ranks < 1 or n_samples < 1:
        raise ValueError("n_ranks and n_samples must be >= 1")
    if not dim > 0.0 or catalog_size < 1:
        raise ValueError("invalid dim or catalog_size")
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(size=(n_samples, n_ranks))
    arrivals = np.cumsum(gaps, axis=1)
    return scale * (arrivals / catalog_size) ** (1.0 / dim)


def min_catalog_size(epsilon: float, dim: float, confidence: float = 0.95) -> MinCatalogSize:
    """Smallest catalog such that the nearest analog lands within epsilon with
    the given confidence, i.e. 1 - exp(-size * epsilon**dim) >= confidence.

    Also reports the continuous Van den Dool estimate
    -log(1 - confidence) / epsilon**dim. Raises OverflowError when
    epsilon**dim underflows and the requirement is effectively infinite.
    """
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if not dim > 0.0:
        raise ValueError("dim must be positive")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")

    eps_d = epsilon**dim
    needed = -math.log1p(-confidence)
    if eps_d == 0.0 or math.isinf(needed / eps_d):
        raise OverflowError(
            f"epsilon**dim underflowed (epsilon={epsilon}, dim={dim}); "
            "required catalog size is +inf"
        )
    approx = needed / eps_d
    return MinCatalogSize(size=max(1, math.ceil(approx)), van_den_dool=approx)
