"""Finite-resolution local dimension and power-law prefactor fits.

The dimension estimate inverts the mean log distance ratio between the
largest-rank analog and all closer ones, which is the maximum-likelihood
exponent of an exponential fit to those log ratios (Levina & Bickel, 2004).
The prefactor fit is a least-squares fit of log distances against
(1/d) log rank with fixed slope. Each function takes a (targets, K) block
of sorted distances, ranks on the last axis, and gives one result per row,
bitwise the one that row gets alone; a single (K,) row gives scalars.
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
    """One value per row. prefactor: fitted C in r_k ~ C * k**(1/dim);
    rescaling: prefactor expressed in units of the catalog density,
    C * L**(1/dim); residual: RMS of the log-space fit residuals."""

    prefactor: np.ndarray
    rescaling: np.ndarray
    residual: np.ndarray


def estimate_local_dimension(distances) -> np.ndarray:
    """Local dimension from sorted analog distances, at the resolution of
    the largest one, for each row.

    Requires at least 3 strictly positive distances per row; a zero distance
    means the target itself, or a copy of it, sits in the catalog, and the
    target must be excluded upstream (NeighborIndex.row_distances does so).
    Raises DegenerateDistancesError when any row is tied at its largest rank
    and carries no scaling information.
    """
    r = np.asarray(distances, dtype=np.float64)
    n = r.shape[-1]
    if n < 3:
        raise ValueError(f"need at least 3 analogs, got {n}")
    if np.any(r <= 0.0):
        raise ValueError("all distances must be positive; drop self-matches first")
    if np.any(r[..., -2] >= r[..., -1]):
        raise DegenerateDistancesError(
            "largest-rank distance is tied; no scale separation between analogs"
        )
    return 1.0 / np.mean(np.log(r[..., -1:] / r[..., :-1]), axis=-1)


def fit_prefactor(distances, dim, catalog_size: int) -> PrefactorFit:
    """Least-squares prefactor of r_k ~ C * k**(1/dim) in log space.

    The slope 1/dim, one scalar or one per row, is held fixed, so the optimum
    is the mean of log(r_k) - (1/dim) log(k). catalog_size converts the
    prefactor into the density-free rescaling C * catalog_size**(1/dim).
    """
    r = np.asarray(distances, dtype=np.float64)
    dim = np.asarray(dim, dtype=np.float64)
    n = r.shape[-1]
    if n < 1:
        raise ValueError("need at least one analog")
    if np.any(r <= 0.0):
        raise ValueError("all distances must be positive")
    if not np.all(dim > 0.0):
        raise ValueError("dim must be positive")
    if catalog_size < n:
        raise ValueError("catalog_size cannot be smaller than the analog count")
    k = np.arange(1, n + 1, dtype=np.float64)
    resid = np.log(r) - np.log(k) / dim[..., None]
    log_c = np.mean(resid, axis=-1)
    residual = np.sqrt(np.mean((resid - log_c[..., None]) ** 2, axis=-1))
    # Python's exp and power per row: NumPy's vector loops differ in the last bit.
    prefactor = np.vectorize(math.exp, otypes=[float])(log_c)[()]
    scale = np.vectorize(lambda d: catalog_size ** (1.0 / float(d)), otypes=[float])(dim)
    return PrefactorFit(prefactor=prefactor, rescaling=prefactor * scale, residual=residual)


def rescale_distances(distances, dim, prefactor) -> np.ndarray:
    """Centred, rank-normalized distances d*sqrt(k)*(r_k/(C k**(1/dim)) - 1),
    with dim and prefactor each one scalar or one per row.

    In the large-catalog limit these fluctuations approach a standard normal
    as the rank grows, making curves for different ranks comparable.
    """
    r = np.asarray(distances, dtype=np.float64)
    dim = np.asarray(dim, dtype=np.float64)[..., None]
    prefactor = np.asarray(prefactor, dtype=np.float64)[..., None]
    if not (np.all(dim > 0.0) and np.all(prefactor > 0.0)):
        raise ValueError("dim and prefactor must be positive")
    k = np.arange(1, r.shape[-1] + 1, dtype=np.float64)
    return dim * np.sqrt(k) * (r / (prefactor * k ** (1.0 / dim)) - 1.0)
