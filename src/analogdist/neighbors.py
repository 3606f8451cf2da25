"""Exact nearest-neighbour search over catalogs.

Two interchangeable backends return identical results: an exhaustive scan
and a k-d tree for low-dimensional states. Distances are plain Euclidean,
each computed as sqrt(sum((x - z)**2)); ties are broken by ascending
catalog index.

The backends only nominate candidates, each in one step for a block of
target rows (_nominate; a query is a block of one). One exact tail then
computes the candidates' distances, cuts at the m-th with its ties and
orders by (distance, index), so the two agree bitwise with each other and
with a full scan. The exhaustive scan nominates from the norm form
|x|^2 + |z|^2 - 2 x.z (one matrix product per block against cached row
norms), widened by a bound on its rounding error: a row is nominated
unless its lower bound exceeds the m-th smallest upper bound, the
exact-kNN scheme of Johnson, Douze & Jegou (arXiv:1702.08734). The bound
holds for any summation order, so the bytes do not depend on the block or
the BLAS threads. Where that bound is not finite it nominates every row.
The k-d tree makes one query per block for one neighbour more than needed
and nominates each row's first m, or the ball just beyond its m-th
distance when that extra neighbour may tie with the cut. row_distances
bounds each block's norm form, or the tree's distances and indices, to
_BLOCK_ELEMS numbers. Radius queries scan every row exactly on either backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, ExclusionPolicy, apply_exclusion
from .errors import DimensionMismatchError, NonFiniteError, NotEnoughAnalogsError

__all__ = [
    "AnalogSet",
    "NeighborIndex",
    "KDTREE_MAX_DIM",
]

# Above this dimension the tree degenerates to a scan with extra overhead.
KDTREE_MAX_DIM = 20
# Below this size building a tree costs more than one full scan.
_KDTREE_MIN_ROWS = 256
_EPS = float(np.finfo(np.float64).eps)
_SUBNORMAL = float(np.finfo(np.float64).smallest_subnormal)
# A row_distances block holds at most this many numbers: the scan's
# (rows, L) norm form (4 MB: 52 target rows against a 10000-row catalog),
# or the tree's (rows, m + 1) distances and indices together.
_BLOCK_ELEMS = 1 << 19


@dataclass(frozen=True)
class AnalogSet:
    """Result of a neighbour query: distances sorted ascending with their
    catalog row indices. May be empty for radius queries."""

    distances: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "distances", np.asarray(self.distances, dtype=np.float64))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        if self.distances.shape != self.indices.shape:
            raise ValueError("distances and indices must have equal length")
        if len(self.distances) > 1 and np.any(np.diff(self.distances) < 0):
            raise ValueError("distances must be non-decreasing")

    def __len__(self) -> int:
        return len(self.distances)


class NeighborIndex:
    """Reusable search structure over one catalog.

    backend: "auto" picks a k-d tree for D <= 20 on catalogs large enough to
    amortize the build, otherwise the exhaustive scan. Both produce identical
    output. The index is read-only after construction. Both backends raise
    NonFiniteError for a catalog or target holding NaN or infinity.
    """

    def __init__(self, catalog: Catalog, backend: str = "auto"):
        if backend not in ("auto", "exhaustive", "kdtree"):
            raise ValueError(f"unknown backend {backend!r}")
        if backend == "auto":
            backend = (
                "kdtree"
                if catalog.dim <= KDTREE_MAX_DIM and catalog.length >= _KDTREE_MIN_ROWS
                else "exhaustive"
            )
        if backend == "kdtree" and catalog.dim > KDTREE_MAX_DIM:
            raise ValueError(
                f"kdtree backend supports D <= {KDTREE_MAX_DIM}, got D={catalog.dim}"
            )
        finite = np.isfinite(catalog.states)
        if not finite.all():
            bad = ~finite.all(axis=1)
            raise NonFiniteError(
                f"catalog has {int(bad.sum())} non-finite rows, first at row {int(np.argmax(bad))}"
            )
        self.catalog = catalog
        self.backend = backend
        if backend == "kdtree":
            # Loaded on first use, so commands that build no tree skip it.
            from scipy.spatial import cKDTree

            self._tree = cKDTree(catalog.states)
        else:
            self._tree = None
            # einsum overflows to inf without a warning; an infinite norm
            # only sends queries to the full scan (see _preselect).
            self._sqnorms = np.einsum("ij,ij->i", catalog.states, catalog.states)
            self._max_sqnorm = float(self._sqnorms.max())

    def _check_target(self, target) -> np.ndarray:
        z = np.asarray(target, dtype=np.float64).reshape(-1)
        if z.shape[0] != self.catalog.dim:
            raise DimensionMismatchError(
                f"target has dimension {z.shape[0]}, catalog has {self.catalog.dim}"
            )
        if not np.isfinite(z).all():
            raise NonFiniteError("target holds non-finite values")
        return z

    def _exact_distances(self, z: np.ndarray, idx=slice(None)) -> np.ndarray:
        diff = self.catalog.states[idx] - z
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def _preselect(self, Z: np.ndarray, m: int) -> list:
        """For each row z of the (b, D) block Z, the catalog rows that may
        lie among z's m nearest: every row, as slice(None) so the scan
        copies no state, when m >= L or z's norm-form bounds are not finite.

        One product Z @ states.T gives every norm form of the block. With
        h = max |x|^2 + |z|^2, the norm form |x|^2 + |z|^2 - 2 x.z and the
        exact square sum((x - z)**2) of any row, both as computed, differ by
        at most (4D + 8) u h (u = eps/2, any summation order), plus 2D
        smallest subnormals where products underflow. The margin is twice
        that. At least m rows have an exact square no larger than thr, the
        m-th smallest upper bound (norm form + margin), so every row of the
        prefix, ties at the cut after sqrt included, has an exact square of
        at most thr (1 + 4.1u). A row is kept unless its lower bound (norm
        form - margin) exceeds that; the 8 eps slack also covers rounding
        the limit.
        """
        zz = np.einsum("ij,ij->i", Z, Z)
        with np.errstate(over="ignore"):
            h = self._max_sqnorm + zz
            # |norm form| <= 2h, so nothing below overflows when 4h is finite.
            bounded = np.isfinite(4.0 * h)
        sel = [slice(None)] * len(Z)
        rows = np.flatnonzero(bounded) if m < self.catalog.length else []
        if len(rows) == 0:
            return sel
        margin = 4.0 * (self.catalog.dim + 4) * (_EPS * h[rows] + _SUBNORMAL)
        form = Z[rows] @ self.catalog.states.T
        form *= -2.0
        form += self._sqnorms
        form += zz[rows, None]
        for j, f, pad in zip(rows, form, 2.0 * margin):
            limit = (np.partition(f, m - 1)[m - 1] + pad) * (1.0 + 8.0 * _EPS)
            sel[j] = np.flatnonzero(f <= limit)
        return sel

    def _exact_prefix(self, z: np.ndarray, sel, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of the m nearest of the nominated rows sel
        and their ties at the m-th distance, ordered by (distance, index)."""
        dist = self._exact_distances(z, sel)
        if isinstance(sel, slice):
            sel = np.arange(self.catalog.length)
        if len(sel) > m:
            # Extend across ties at the cut so index order stays exact.
            keep = dist <= np.partition(dist, m - 1)[m - 1]
            sel, dist = sel[keep], dist[keep]
        order = np.lexsort((sel, dist))
        return sel[order], dist[order]

    def _nominate(self, Z: np.ndarray, m: int):
        """Yields, for each row z of the (b, D) block Z, catalog rows holding
        z's m nearest (m <= L) and every row that ties with the m-th:
        _preselect on the scan, one tree query for the whole block on the
        tree.

        The tree asks for one neighbour more than needed, which shows
        whether a row outside its m may tie with the cut; such a row of Z
        nominates the ball just beyond its m-th distance instead. The tree's
        m-th distance lies a few ulps from the exact one, far inside the
        ball's widening. Each nomination is a copy, so none keeps the
        block's (b, m + 1) result alive."""
        if self._tree is None:
            yield from self._preselect(Z, m)
            return
        L = self.catalog.length
        tree_dist, idx = (a.reshape(len(Z), -1) for a in self._tree.query(Z, k=min(m + 1, L)))
        radius = tree_dist[:, m - 1] * (1.0 + 1e-12) + 1e-300
        ties = tree_dist[:, m] <= radius if m < L else np.zeros(len(Z), dtype=bool)
        balls = iter(self._tree.query_ball_point(Z[ties], radius[ties]))
        for row, tie in zip(idx, ties):
            yield np.asarray(next(balls), dtype=np.int64) if tie else row[:m].copy()

    def query(
        self,
        target,
        n_analogs: int,
        policy: ExclusionPolicy | None = None,
        target_time: int | None = None,
    ) -> AnalogSet:
        """The n_analogs nearest admissible rows.

        With a policy of gap = min_target_gap, the nearest
        n_analogs + 2*gap - 1 rows are retrieved in distance order and the
        gap rule is applied to them once. Catalog times are strictly
        increasing integers, so at most 2*gap - 1 rows fall inside the
        target's gap: the prefix holds the n_analogs nearest admissible rows,
        or is the whole catalog. Raises NotEnoughAnalogsError reporting the
        admissible count when the catalog cannot supply enough rows.
        """
        z = self._check_target(target)
        if n_analogs < 1:
            raise ValueError("n_analogs must be >= 1")
        gap = policy.min_target_gap if policy is not None else 0
        m = min(n_analogs + max(2 * gap - 1, 0), self.catalog.length)
        idx, dist = self._exact_prefix(z, next(self._nominate(z[None], m)), m)
        if policy is not None:
            idx, dist = apply_exclusion(idx, dist, target_time, self.catalog.times, policy)
        if len(idx) < n_analogs:
            raise NotEnoughAnalogsError(n_analogs, len(idx))
        return AnalogSet(dist[:n_analogs], idx[:n_analogs])

    def row_distances(self, rows, n_analogs: int, gap: int = 0) -> np.ndarray:
        """(len(rows), n_analogs) distances from each catalog row to its
        nearest rows at least gap away in time. Gap 0 acts as gap 1: the
        row's own time is always dropped, so the row never counts and an
        exact duplicate at another time does.

        Both backends nominate for a block of rows at once (see _nominate)
        and run query's exact tail per row, then drop the rows inside the
        gap; no query call is made. The bytes are those of stacked query
        calls."""
        if n_analogs < 1:
            raise ValueError("n_analogs must be >= 1")
        if gap < 0:
            raise ValueError("gap must be >= 0")
        gap = max(gap, 1)
        states, times = self.catalog.states, self.catalog.times
        rows = np.asarray(rows)
        # A row is written only once it has n_analogs <= L analogs, so a
        # larger request raises NotEnoughAnalogsError, not a MemoryError.
        out = np.empty((len(rows), min(n_analogs, self.catalog.length)))
        # As in query: the prefix holds the n_analogs nearest admissible rows.
        m = min(n_analogs + 2 * gap - 1, self.catalog.length)
        # Per target row the scan's norm form holds L doubles, and the tree's
        # result m + 1 distances with as many indices.
        width = self.catalog.length if self._tree is None else 2 * (m + 1)
        step = max(1, _BLOCK_ELEMS // width)
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            for j, (row, sel) in enumerate(zip(block, self._nominate(states[block], m)), start):
                idx, dist = self._exact_prefix(states[row], sel, m)
                dist = dist[np.abs(times[idx] - times[row]) >= gap]
                if len(dist) < n_analogs:
                    raise NotEnoughAnalogsError(n_analogs, len(dist))
                out[j] = dist[:n_analogs]
        return out

    def query_radius(
        self,
        target,
        radius: float,
        policy: ExclusionPolicy | None = None,
        target_time: int | None = None,
    ) -> AnalogSet:
        """All admissible rows with distance strictly below radius.

        Either backend scans every row exactly, so the two agree at the
        boundary as everywhere else."""
        z = self._check_target(target)
        if not radius > 0.0:
            raise ValueError("radius must be positive")
        dist = self._exact_distances(z)
        sel = np.flatnonzero(dist < radius)
        dist = dist[sel]
        order = np.lexsort((sel, dist))
        sel, dist = sel[order], dist[order]
        if policy is not None:
            sel, dist = apply_exclusion(sel, dist, target_time, self.catalog.times, policy)
        return AnalogSet(dist, sel)
