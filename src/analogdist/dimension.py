"""Finite-resolution local dimension and power-law prefactor fits.

The dimension estimate inverts the mean log distance ratio between the
largest-rank analog and all closer ones, which is the maximum-likelihood
exponent of an exponential fit to those log ratios. The prefactor fit is a
least-squares fit of log distances against (1/d) log rank with fixed slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistancesError

__all__ = [
    "PrefactorFit",
    "estimate_local_dimension",
    "fit_prefactor",
    "rescale_distances",
]


@dataclass(frozen=True)
class PrefactorFit:
    """prefactor: fitted C in r_k ~ C * k**(1/dim); rescaling: prefactor
    expressed in units of the catalog density, C * L**(1/dim); residual:
    RMS of the log-space fit residuals."""

    prefactor: float
    rescaling: float
    residual: float


def estimate_local_dimension(distances) -> float:
    """Local dimension from sorted analog distances, at the resolution of
    the largest one.

    Requires at least 3 strictly positive distances; a zero distance means
    the target itself, or a copy of it, sits in the catalog, and the target
    must be excluded upstream (NeighborIndex.row_distances does so). Raises
    DegenerateDistancesError when the distances are tied at the largest rank
    and carry no scaling information.
    """
    r = np.asarray(distances, dtype=np.float64)
    n = len(r)
    if n < 3:
        raise ValueError(f"need at least 3 analogs, got {n}")
    if np.any(r <= 0.0):
        raise ValueError("all distances must be positive; drop self-matches first")
    r_top = r[-1]
    if r[-2] >= r_top:
        raise DegenerateDistancesError(
            "largest-rank distance is tied; no scale separation between analogs"
        )
    mean_log_ratio = float(np.mean(np.log(r_top / r[:-1])))
    return 1.0 / mean_log_ratio


def fit_prefactor(distances, dim: float, catalog_size: int) -> PrefactorFit:
    """Least-squares prefactor of r_k ~ C * k**(1/dim) in log space.

    The slope 1/dim is held fixed, so the optimum is the mean of
    log(r_k) - (1/dim) log(k). catalog_size converts the prefactor into the
    density-free rescaling C * catalog_size**(1/dim).
    """
    r = np.asarray(distances, dtype=np.float64)
    if len(r) < 1:
        raise ValueError("need at least one analog")
    if np.any(r <= 0.0):
        raise ValueError("all distances must be positive")
    if not dim > 0.0:
        raise ValueError("dim must be positive")
    if catalog_size < len(r):
        raise ValueError("catalog_size cannot be smaller than the analog count")
    k = np.arange(1, len(r) + 1, dtype=np.float64)
    resid = np.log(r) - np.log(k) / dim
    log_c = float(np.mean(resid))
    residual = float(np.sqrt(np.mean((resid - log_c) ** 2)))
    prefactor = math.exp(log_c)
    rescaling = prefactor * catalog_size ** (1.0 / dim)
    return PrefactorFit(prefactor=prefactor, rescaling=rescaling, residual=residual)


def rescale_distances(distances, dim: float, prefactor: float) -> np.ndarray:
    """Centred, rank-normalized distances d*sqrt(k)*(r_k/(C k**(1/dim)) - 1).

    In the large-catalog limit these fluctuations approach a standard normal
    as the rank grows, making curves for different ranks comparable.
    """
    r = np.asarray(distances, dtype=np.float64)
    if not dim > 0.0 or not prefactor > 0.0:
        raise ValueError("dim and prefactor must be positive")
    k = np.arange(1, len(r) + 1, dtype=np.float64)
    return dim * np.sqrt(k) * (r / (prefactor * k ** (1.0 / dim)) - 1.0)
