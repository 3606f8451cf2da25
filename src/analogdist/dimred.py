"""Orthogonal (EOF) bases, catalog-scale statistics, and the dimension budget
that decides how many components an analog catalog of a given size can
support.

The budget compares the typical rank-k analog distance, which grows like
rho_bar * (k / L_eff)**(1/d), against a tolerated fraction epsilon of the
root-mean-square distance between random catalog members. Solving for d
gives the admissible dimension

    dmax_k = log(L_eff / k) / log(rho_bar / epsilon)
           = dmax_1 * (1 - log k / log L_eff).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .dimension import estimate_local_dimension
from .errors import DimensionMismatchError, RankDeficientWarning
from .neighbors import NeighborIndex

__all__ = [
    "EofBasis",
    "eof_fit",
    "project",
    "reconstruct",
    "rmsd",
    "dmax_for_rank",
    "dmax_from_threshold",
    "criterion_scan",
]

_RANK_TOL = 1e-12


@dataclass(frozen=True)
class EofBasis:
    """Orthonormal components ordered by decreasing covariance eigenvalue.

    Signs are normalized so each component's largest-magnitude entry is
    positive, making the fit deterministic.
    """

    mean_state: np.ndarray
    components: np.ndarray  # (n, D), rows orthonormal
    explained_variance: np.ndarray  # (n,)

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def dim(self) -> int:
        return self.components.shape[1]


def _as_matrix(data) -> np.ndarray:
    out = np.asarray(data, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("data must be a 2-d array")
    return out


def eof_fit(data, n_components: int) -> EofBasis:
    """Fit an orthonormal basis from the eigenvectors of the centred data's
    Gram matrix X^T X, leading eigenvalue first.

    Each explained variance is the Rayleigh quotient |X v|^2 / (n - 1) of
    its component, not the eigenvalue, so a direction the data do not span
    reads as zero to within the rounding of the projection, not of the
    product X^T X.

    Checked with OpenBLAS 0.3.31 (Haswell kernels) at 1-4 threads on
    3000-30000 rows: the bytes do not depend on the BLAS thread count at
    widths up to 96, nor at multiples of 8 up to 200. At other widths from
    97 the Gram product, and from 145 (every width from 208) eigh itself,
    can differ in the last bits between thread counts.

    Warns with RankDeficientWarning when the requested components reach into
    the numerical null space (trailing variance below 1e-12 of the leading).
    """
    x = _as_matrix(data)
    n_rows, dim = x.shape
    if n_rows < 2:
        raise ValueError("need at least two rows to estimate variance")
    if not 1 <= n_components <= min(n_rows, dim):
        raise ValueError(
            f"n_components must lie in [1, {min(n_rows, dim)}], got {n_components}"
        )
    mean_state = x.mean(axis=0)
    centred = x - mean_state
    # eigh returns ascending eigenvalues with eigenvectors as columns.
    vectors = np.linalg.eigh(centred.T @ centred)[1]
    components = vectors[:, : -n_components - 1 : -1].T.copy()

    # Sign convention: largest-magnitude entry of each component positive.
    for row in components:
        peak = np.argmax(np.abs(row))
        if row[peak] < 0.0:
            row *= -1.0

    scores = centred @ components.T
    explained = np.einsum("ij,ij->j", scores, scores) / (n_rows - 1)

    if explained[-1] < _RANK_TOL * max(explained[0], np.finfo(float).tiny):
        warnings.warn(
            "requested components extend into the null space of the data",
            RankDeficientWarning,
            stacklevel=2,
        )
    return EofBasis(mean_state=mean_state, components=components, explained_variance=explained)


def _check_n(basis: EofBasis, n: int | None) -> int:
    if n is None:
        return basis.n_components
    if not 1 <= n <= basis.n_components:
        raise ValueError(f"n must lie in [1, {basis.n_components}]")
    return n


def project(basis: EofBasis, states, n: int | None = None) -> np.ndarray:
    """Coordinates of states in the first n components (non-expansive map)."""
    x = np.asarray(states, dtype=np.float64)
    squeeze = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != basis.dim:
        raise DimensionMismatchError(
            f"states have width {x.shape[1]}, basis expects {basis.dim}"
        )
    n = _check_n(basis, n)
    out = (x - basis.mean_state) @ basis.components[:n].T
    return out[0] if squeeze else out


def reconstruct(basis: EofBasis, reduced) -> np.ndarray:
    """Map reduced coordinates back to state space (adds the mean back)."""
    y = np.asarray(reduced, dtype=np.float64)
    squeeze = y.ndim == 1
    y = np.atleast_2d(y)
    if y.shape[1] > basis.n_components:
        raise DimensionMismatchError(
            f"reduced width {y.shape[1]} exceeds basis components {basis.n_components}"
        )
    out = basis.mean_state + y @ basis.components[: y.shape[1]]
    return out[0] if squeeze else out


def rmsd(data, n_pairs: int = 100_000, seed: int = 0) -> float:
    """Root-mean-square distance between random distinct pairs of rows."""
    x = _as_matrix(data)
    n_rows = len(x)
    if n_rows < 2:
        raise ValueError("need at least two rows")
    if n_pairs < 1:
        raise ValueError("n_pairs must be >= 1")
    rng = np.random.default_rng(seed)
    left = rng.integers(0, n_rows, size=n_pairs)
    right = rng.integers(0, n_rows, size=n_pairs)
    clash = left == right
    while np.any(clash):
        right[clash] = rng.integers(0, n_rows, size=int(clash.sum()))
        clash = left == right
    diff = x[left] - x[right]
    return float(np.sqrt(np.mean(np.einsum("ij,ij->i", diff, diff))))


def dmax_for_rank(dmax_first: float, catalog_size: int, rank: int) -> float:
    """Admissible dimension for the rank-k analog given the rank-1 budget."""
    if not dmax_first > 0.0:
        raise ValueError("dmax_first must be positive")
    if catalog_size < 2:
        raise ValueError("catalog_size must be >= 2")
    if not 1 <= rank <= catalog_size:
        raise ValueError("rank must lie in [1, catalog_size]")
    return dmax_first * (1.0 - math.log(rank) / math.log(catalog_size))


def dmax_from_threshold(epsilon: float, rho_bar: float, catalog_size: int, rank: int) -> float:
    """Admissible dimension from the distance criterion
    rho_bar * (rank / catalog_size)**(1/d) < epsilon.

    Returns +inf when epsilon >= rho_bar (the criterion holds for any d).
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0.0 < rho_bar < math.inf:
        raise ValueError(f"rho_bar must be positive and finite, got {rho_bar}")
    if catalog_size < 2:
        raise ValueError("catalog_size must be >= 2")
    if not 1 <= rank <= catalog_size:
        raise ValueError("rank must lie in [1, catalog_size]")
    if epsilon >= rho_bar:
        return math.inf
    return math.log(catalog_size / rank) / math.log(rho_bar / epsilon)


def criterion_scan(
    data,
    epsilon: float,
    ranks,
    eof_counts,
    l_eff: int | None = None,
    rho_bar: float = 0.55,
    n_analogs: int = 40,
    n_targets: int = 200,
    seed: int = 0,
    rmsd_pairs: int = 50_000,
) -> list[dict]:
    """Evaluate the reduction criterion of each rank across EOF truncations.

    epsilon: tolerated mean analog distance as a fraction of the RMSD.
    ranks: which analogs' mean distances are constrained, one criterion each.
    l_eff: effective (decorrelated) catalog size entering the theory line;
        None resolves to length/24, i.e. roughly daily decorrelation for
        hourly catalogs.
    rho_bar: typical density rescaling of targets, usually in 0.4-0.7.

    For each count, the catalog is projected on its leading components, the
    local dimension is estimated at n_analogs analogs over a fixed random
    target subset, and for each rank k the mean rank-k distance is compared
    with the RMSD of the projected catalog. Targets, RMSD pairs, the basis
    and one analog query per target are shared across counts and ranks, so
    results differ only by truncation and rank. Returns, per rank in the
    given order, the columns n_eof, mean_dim, ratio and passed (one entry
    per count, ascending) and the scalar dmax_theory; since neighbour search
    returns a (distance, index)-ordered prefix, each equals a scan of that
    rank alone. Every check runs before the EOF fit.
    """
    x = _as_matrix(data)
    n_rows = len(x)
    ranks = [int(k) for k in ranks]
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    if not 0.0 < rho_bar < math.inf:
        raise ValueError(f"rho_bar must be positive and finite, got {rho_bar}")
    if l_eff is None:
        l_eff = max(2, n_rows // 24)
    elif l_eff < 2:
        raise ValueError("l_eff must be >= 2")
    if not ranks:
        raise ValueError("ranks must be non-empty")
    if min(ranks) < 1:
        raise ValueError("rank must be >= 1")
    if len(set(ranks)) < len(ranks):
        raise ValueError(f"ranks must be distinct, got {ranks}")
    if n_targets < 1:
        raise ValueError("n_targets must be >= 1")
    if n_analogs < 3:
        raise ValueError(f"n_analogs must be >= 3, got {n_analogs}")
    if rmsd_pairs < 1:
        raise ValueError(f"rmsd_pairs must be >= 1, got {rmsd_pairs}")
    counts = sorted(set(int(n) for n in eof_counts))
    if not counts:
        raise ValueError("eof_counts must be non-empty")
    if counts[0] < 1 or counts[-1] > min(n_rows, x.shape[1]):
        raise ValueError("eof_counts out of range for the data")
    k_query = max(n_analogs, *ranks)
    if k_query + 1 > n_rows:
        raise ValueError("catalog too small for the requested analog count")
    for k in ranks:
        if k > l_eff:
            raise ValueError(f"rank {k} exceeds the effective catalog size L_eff = {l_eff}")

    rng = np.random.default_rng(seed)
    targets = rng.choice(n_rows, size=min(n_targets, n_rows), replace=False)
    basis = eof_fit(x, counts[-1])

    scans = [
        {"n_eof": [], "mean_dim": [], "ratio": [], "passed": [],
         "dmax_theory": dmax_from_threshold(epsilon, rho_bar, l_eff, k)}
        for k in ranks
    ]
    for n in counts:
        reduced = project(basis, x, n)
        scale = rmsd(reduced, n_pairs=rmsd_pairs, seed=seed)
        dist = NeighborIndex(Catalog(reduced)).row_distances(targets, k_query)
        mean_dim = float(np.mean(estimate_local_dimension(dist[:, :n_analogs])))
        for k, cols in zip(ranks, scans):
            ratio = float(np.mean(dist[:, k - 1])) / scale
            cols["n_eof"].append(n)
            cols["mean_dim"].append(mean_dim)
            cols["ratio"].append(ratio)
            cols["passed"].append(bool(ratio < epsilon))
    return scans
