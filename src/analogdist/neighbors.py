"""Exact nearest-neighbour search over catalogs.

Two interchangeable backends return identical results: an exhaustive scan
(the reference implementation) and a k-d tree for low-dimensional states.
Distances are plain Euclidean; ties are broken by ascending catalog index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

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


@dataclass(frozen=True)
class AnalogSet:
    """Result of a neighbour query: distances sorted ascending with their
    catalog row indices. May be empty for radius queries."""

    target: np.ndarray
    distances: np.ndarray
    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "target", np.asarray(self.target, dtype=np.float64))
        object.__setattr__(self, "distances", np.asarray(self.distances, dtype=np.float64))
        object.__setattr__(self, "indices", np.asarray(self.indices, dtype=np.int64))
        if self.distances.shape != self.indices.shape:
            raise ValueError("distances and indices must have equal length")
        if len(self.distances) > 1 and np.any(np.diff(self.distances) < 0):
            raise ValueError("distances must be non-decreasing")

    def __len__(self) -> int:
        return len(self.distances)

    def without_self_match(self) -> "AnalogSet":
        """Drop the target itself: entries at zero distance."""
        keep = self.distances > 0.0
        return AnalogSet(self.target, self.distances[keep], self.indices[keep])


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
        self._tree = cKDTree(catalog.states) if backend == "kdtree" else None

    def _check_target(self, target) -> np.ndarray:
        z = np.asarray(target, dtype=np.float64).reshape(-1)
        if z.shape[0] != self.catalog.dim:
            raise DimensionMismatchError(
                f"target has dimension {z.shape[0]}, catalog has {self.catalog.dim}"
            )
        if not np.isfinite(z).all():
            raise NonFiniteError("target holds non-finite values")
        return z

    def _exact_distances(self, z: np.ndarray, idx: np.ndarray) -> np.ndarray:
        diff = self.catalog.states[idx] - z
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def _candidates_prefix(self, z: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
        """Indices and distances of (at least) the m nearest rows, globally
        ordered by (distance, index)."""
        L = self.catalog.length
        m = min(m, L)
        if self._tree is None:
            diff = self.catalog.states - z
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            if m < L:
                part = np.argpartition(dist, m - 1)[:m]
                # Extend across ties at the cutoff so index order stays exact.
                cut = dist[part].max()
                sel = np.flatnonzero(dist <= cut)
            else:
                sel = np.arange(L)
            order = np.lexsort((sel, dist[sel]))
            sel = sel[order]
            return sel, dist[sel]

        _, idx = self._tree.query(z, k=m)
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        dist = self._exact_distances(z, idx)
        cut = dist.max()
        # Re-query by radius so boundary ties missing from the tree result
        # are included; the ball is a superset of the true prefix.
        ball = np.asarray(self._tree.query_ball_point(z, cut * (1.0 + 1e-12) + 1e-300), dtype=np.int64)
        dist = self._exact_distances(z, ball)
        keep = dist <= cut
        ball, dist = ball[keep], dist[keep]
        order = np.lexsort((ball, dist))
        return ball[order], dist[order]

    def query(
        self,
        target,
        n_analogs: int,
        policy: ExclusionPolicy | None = None,
        target_time: int | None = None,
    ) -> AnalogSet:
        """The n_analogs nearest admissible rows.

        With a policy, candidates are retrieved in distance order and the
        exclusion rules are applied to that candidate set, growing it until
        n_analogs survivors remain. Raises NotEnoughAnalogsError reporting
        the admissible count when the catalog cannot supply enough rows.
        """
        z = self._check_target(target)
        if n_analogs < 1:
            raise ValueError("n_analogs must be >= 1")
        L = self.catalog.length

        if policy is None:
            if n_analogs > L:
                raise NotEnoughAnalogsError(n_analogs, L)
            idx, dist = self._candidates_prefix(z, n_analogs)
            return AnalogSet(z, dist[:n_analogs], idx[:n_analogs])

        # Catalog times are distinct integers, so at most 2*gap - 1 rows fall
        # inside the target's gap and one round suffices; the set grows only
        # when dedup_neighbor_runs drops more.
        m = n_analogs + max(2 * policy.min_target_gap - 1, 0)
        while True:
            idx, dist = self._candidates_prefix(z, m)
            kept_idx, kept_dist = apply_exclusion(
                idx, dist, target_time, self.catalog.times, policy
            )
            if len(kept_idx) >= n_analogs:
                return AnalogSet(z, kept_dist[:n_analogs], kept_idx[:n_analogs])
            if len(idx) >= L:
                raise NotEnoughAnalogsError(n_analogs, len(kept_idx))
            m = min(L, max(2 * m, m + n_analogs - len(kept_idx)))

    def row_distances(self, rows, n_analogs: int, gap: int = 0) -> np.ndarray:
        """(len(rows), n_analogs) distances from each catalog row to its
        nearest admissible rows, never counting the row itself. A positive gap
        applies temporal exclusion, which drops the row (time offset zero);
        otherwise the row is dropped by index, so an exact duplicate counts."""
        if n_analogs < 1:
            raise ValueError("n_analogs must be >= 1")
        if gap > 0 and self.catalog.times is None:
            raise ValueError("temporal exclusion needs catalog times")
        policy = ExclusionPolicy(min_target_gap=gap)
        out = np.empty((len(rows), n_analogs))
        for j, row in enumerate(rows):
            z = self.catalog.states[row]
            if gap > 0:
                out[j] = self.query(z, n_analogs, policy, target_time=int(self.catalog.times[row])).distances
            else:
                found = self.query(z, n_analogs + 1)
                out[j] = found.distances[found.indices != row][:n_analogs]
        return out

    def query_radius(
        self,
        target,
        radius: float,
        policy: ExclusionPolicy | None = None,
        target_time: int | None = None,
    ) -> AnalogSet:
        """All admissible rows with distance strictly below radius."""
        z = self._check_target(target)
        if not radius > 0.0:
            raise ValueError("radius must be positive")

        if self._tree is not None and np.isfinite(radius):
            sel = np.asarray(self._tree.query_ball_point(z, radius), dtype=np.int64)
            dist = self._exact_distances(z, sel)
        else:
            diff = self.catalog.states - z
            dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            sel = np.arange(self.catalog.length)
        keep = dist < radius
        sel, dist = sel[keep], dist[keep]
        order = np.lexsort((sel, dist))
        sel, dist = sel[order], dist[order]

        if policy is not None:
            sel, dist = apply_exclusion(sel, dist, target_time, self.catalog.times, policy)
        return AnalogSet(z, dist, sel)
