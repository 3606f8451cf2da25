"""Nearest-neighbour search: exactness against a brute-force oracle,
tie-breaking, prefix consistency, and exclusion-policy integration."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analogdist import neighbors
from analogdist.catalog import Catalog, ExclusionPolicy
from analogdist.errors import DimensionMismatchError, NonFiniteError, NotEnoughAnalogsError
from analogdist.neighbors import KDTREE_MAX_DIM, AnalogSet, NeighborIndex


def _euclidean(a, b) -> float:
    """Scalar reference metric, one coordinate pair at a time."""
    return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) ** 0.5


def _brute_force(states, z, k):
    """Reference result: full sort by (distance, index).

    Distances come from np.linalg.norm, which accumulates in a different
    order than the package, so comparisons against this oracle allow a few
    ulps; the two package backends themselves must agree bitwise.
    """
    dist = np.linalg.norm(states - z, axis=1)
    order = np.lexsort((np.arange(len(states)), dist))[:k]
    return dist[order], order


def _assert_close_to_oracle(found, exp_dist, exp_idx):
    np.testing.assert_array_equal(found.indices, exp_idx)
    np.testing.assert_allclose(found.distances, exp_dist, rtol=1e-12, atol=1e-15)


def test_three_point_line_example():
    c = Catalog(np.array([[0.0], [1.0], [3.0]]))
    found = NeighborIndex(c).query([0.0], 2)
    np.testing.assert_array_equal(found.distances, [0.0, 1.0])
    np.testing.assert_array_equal(found.indices, [0, 1])


def test_target_equal_to_member_gives_zero_distance():
    states = np.random.default_rng(1).normal(size=(40, 3))
    found = NeighborIndex(Catalog(states)).query(states[17], 1)
    assert found.distances[0] == 0.0
    assert found.indices[0] == 17


def test_ties_break_by_ascending_index():
    c = Catalog(np.array([[1.0], [-1.0], [2.0], [-2.0]]))
    found = NeighborIndex(c).query([0.0], 4)
    np.testing.assert_array_equal(found.distances, [1.0, 1.0, 2.0, 2.0])
    np.testing.assert_array_equal(found.indices, [0, 1, 2, 3])


def test_backends_match_brute_force_oracle():
    rng = np.random.default_rng(7)
    states = rng.uniform(size=(1000, 3))
    cat = Catalog(states)
    fast = NeighborIndex(cat, backend="kdtree")
    scan = NeighborIndex(cat, backend="exhaustive")
    for z in rng.uniform(size=(20, 3)):
        a, b = fast.query(z, 10), scan.query(z, 10)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.distances, b.distances)  # bitwise
        _assert_close_to_oracle(a, *_brute_force(states, z, 10))


def test_backends_agree_under_heavy_ties():
    # Quantized coordinates produce many exactly equal distances.
    rng = np.random.default_rng(3)
    states = rng.integers(0, 4, size=(500, 3)).astype(np.float64)
    cat = Catalog(states)
    z = np.array([1.0, 2.0, 1.0])
    a = NeighborIndex(cat, backend="kdtree").query(z, 25)
    b = NeighborIndex(cat, backend="exhaustive").query(z, 25)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.distances, b.distances)
    exp_dist, exp_idx = _brute_force(states, z, 25)
    np.testing.assert_array_equal(a.indices, exp_idx)
    np.testing.assert_array_equal(a.distances, exp_dist)  # integer coords: exact


def test_query_results_are_a_prefix_of_larger_queries():
    rng = np.random.default_rng(5)
    states = rng.normal(size=(300, 4))
    index = NeighborIndex(Catalog(states))
    z = rng.normal(size=4)
    full = index.query(z, 50)
    for k in (1, 7, 49):
        part = index.query(z, k)
        np.testing.assert_array_equal(part.indices, full.indices[:k])
        np.testing.assert_array_equal(part.distances, full.distances[:k])


def test_distances_match_scalar_metric():
    rng = np.random.default_rng(11)
    states = rng.normal(size=(64, 5)) * 100
    z = rng.normal(size=5)
    found = NeighborIndex(Catalog(states)).query(z, 64)
    for d, i in zip(found.distances, found.indices):
        ref = _euclidean(states[i], z)
        assert abs(d - ref) <= 4 * np.finfo(np.float64).eps * max(ref, 1.0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 60),
    d=st.integers(1, 5),
    k=st.integers(1, 10),
    seed=st.integers(0, 1000),
)
def test_exactness_property(n, d, k, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(n, d))
    z = rng.normal(size=d)
    k = min(k, n)
    found = NeighborIndex(Catalog(states)).query(z, k)
    _assert_close_to_oracle(found, *_brute_force(states, z, k))


# ------------------------------------------------ preselection stays exact


def _full_scan(states, z, k):
    """Bitwise oracle: the package's distance formula over every row at once."""
    diff = states - z
    dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    order = np.lexsort((np.arange(len(states)), dist))[:k]
    return dist[order], order


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 300),
    d=st.integers(1, 128),
    log_offset=st.floats(0.0, 8.0),
    log_spread=st.floats(-6.0, 2.0),
    member=st.booleans(),
    k=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
def test_exhaustive_preselection_is_bitwise_exact(n, d, log_offset, log_spread, member, k, seed):
    # A large offset against a small spread is where the norm form
    # |x|^2 + |z|^2 - 2 x.z loses the most digits to cancellation.
    rng = np.random.default_rng(seed)
    offset, spread = 10.0**log_offset, 10.0**log_spread
    states = offset + spread * rng.standard_normal((n, d))
    z = states[rng.integers(n)] if member else offset + spread * rng.standard_normal(d)
    k = min(k, n)
    found = NeighborIndex(Catalog(states), backend="exhaustive").query(z, k)
    exp_dist, exp_idx = _full_scan(states, z, k)
    np.testing.assert_array_equal(found.indices, exp_idx)
    np.testing.assert_array_equal(found.distances, exp_dist)


@pytest.mark.parametrize("gap", [0, 3])
def test_backends_agree_when_ties_straddle_the_cut(gap):
    # Coordinates on a coarse grid tie many rows at each distance, so for
    # some k the k-th and (k+1)-th admissible rows sit at the same distance.
    rng = np.random.default_rng(29)
    states = rng.integers(0, 5, size=(400, 3)).astype(np.float64)
    cat = Catalog(states, np.arange(400, dtype=np.int64))
    tree = NeighborIndex(cat, backend="kdtree")
    scan = NeighborIndex(cat, backend="exhaustive")
    policy = ExclusionPolicy(min_target_gap=gap) if gap else None
    straddled = 0
    for row in (0, 137, 399):
        # Row 0's target sits off the grid, between catalog rows.
        z = states[row] + (0.0 if row else 0.5)
        for k in range(1, 41):
            a = tree.query(z, k, policy, target_time=row)
            b = scan.query(z, k, policy, target_time=row)
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.distances, b.distances)
            longer = scan.query(z, k + 1, policy, target_time=row)
            np.testing.assert_array_equal(longer.indices[:k], b.indices)
            straddled += longer.distances[k] == longer.distances[k - 1]
        if not gap:
            exp_dist, exp_idx = _full_scan(states, z, 40)
            np.testing.assert_array_equal(b.indices, exp_idx)
            np.testing.assert_array_equal(b.distances, exp_dist)
    assert straddled > 0


@pytest.mark.parametrize("member", [True, False])
def test_exhaustive_search_with_overflowing_norms(member):
    # Rows near 1e160 have squared norms beyond the float range, while their
    # differences stay finite. The search must scan them exactly, as before,
    # and warn about nothing. (The ranks stop short of the rows near zero,
    # which lie at infinite distance.)
    rng = np.random.default_rng(31)
    near = rng.standard_normal((150, 4))
    far = 1e160 * (1.0 + 1e-10 * rng.standard_normal((150, 4)))
    states = np.concatenate([near, far])
    z = states[200] if member else far[0] * (1.0 + 1e-11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        index = NeighborIndex(Catalog(states), backend="exhaustive")
        for k in (1, 10, 149, 150):
            found = index.query(z, k)
            exp_dist, exp_idx = _full_scan(states, z, k)
            np.testing.assert_array_equal(found.indices, exp_idx)
            np.testing.assert_array_equal(found.distances, exp_dist)


def test_whole_catalog_query_copies_no_state_row():
    # A query for every other row (mc-distances' ranking of the target over
    # its source) scans the states in place: one difference array the size
    # of the states plus index and distance vectors, and no gathered copy
    # of every row on top.
    rng = np.random.default_rng(37)
    n = 200_000
    cat = Catalog(rng.normal(size=(n, 3)))
    index = NeighborIndex(cat, backend="exhaustive")
    tracemalloc.start()
    try:
        found = index.query(cat.states[123], n - 1, ExclusionPolicy(1), target_time=123)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.2 * cat.states.nbytes
    exp_dist, exp_idx = _full_scan(cat.states, cat.states[123], n)
    others = exp_idx != 123
    np.testing.assert_array_equal(found.indices, exp_idx[others])
    np.testing.assert_array_equal(found.distances, exp_dist[others])


# -------------------------------------------------------------- radius query


def test_radius_query_below_min_distance_is_empty():
    states = np.array([[1.0, 0.0], [0.0, 2.0]])
    found = NeighborIndex(Catalog(states)).query_radius([0.0, 0.0], 0.5)
    assert len(found.indices) == 0


def test_radius_query_with_infinite_radius_returns_all():
    states = np.random.default_rng(0).normal(size=(30, 2))
    found = NeighborIndex(Catalog(states)).query_radius([0.0, 0.0], np.inf)
    assert len(found.indices) == 30
    assert np.all(np.diff(found.distances) >= 0)


@pytest.mark.parametrize("backend", ["exhaustive", "kdtree"])
def test_radius_query_matches_linear_scan(backend):
    rng = np.random.default_rng(13)
    states = rng.uniform(size=(800, 3))
    z = np.full(3, 0.5)
    index = NeighborIndex(Catalog(states), backend=backend)
    found = index.query_radius(z, 0.2)
    dist = np.linalg.norm(states - z, axis=1)
    expected = np.flatnonzero(dist < 0.2)
    assert set(found.indices) == set(expected)
    assert np.all(found.distances < 0.2)
    assert np.all(np.diff(found.distances) >= 0)


@pytest.mark.parametrize("seed", [0, 12, 72, 134, 299])
def test_radius_query_backends_agree_at_the_boundary(seed):
    # The radius is a row's exact distance and 1 and 2 ulps above it. Seeds
    # 12, 72, 134 and 299 each hold a row one ulp below such a radius, which
    # a k-d tree ball query, filtering by the tree's own rounding, drops.
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    scale = 10.0 ** rng.uniform(-3, 3)
    states = scale * rng.standard_normal((400, d))
    cat = Catalog(states)
    tree = NeighborIndex(cat, backend="kdtree")
    scan = NeighborIndex(cat, backend="exhaustive")
    z = scale * rng.standard_normal(d)
    exact, order = _full_scan(states, z, 400)
    for row in rng.choice(400, 20, replace=False):
        radius = exact[np.flatnonzero(order == row)[0]]
        for _ in range(3):
            a, b = tree.query_radius(z, radius), scan.query_radius(z, radius)
            inside = exact < radius
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.distances, b.distances)
            np.testing.assert_array_equal(b.indices, order[inside])
            np.testing.assert_array_equal(b.distances, exact[inside])
            radius = np.nextafter(radius, np.inf)


def test_radius_query_rejects_nonpositive_radius():
    c = Catalog(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        NeighborIndex(c).query_radius([0.0, 0.0], 0.0)


# ---------------------------------------------------------- policy integration


def _timed_catalog():
    rng = np.random.default_rng(21)
    states = rng.normal(size=(50, 2))
    return Catalog(states, np.arange(50, dtype=np.int64) * 6)


def test_policy_excludes_temporal_neighbours_of_target():
    c = _timed_catalog()
    index = NeighborIndex(c)
    z = c.states[20]
    policy = ExclusionPolicy(min_target_gap=36)
    found = index.query(z, 5, policy=policy, target_time=int(c.times[20]))
    assert np.all(np.abs(c.times[found.indices] - c.times[20]) >= 36)
    # The self match at distance zero sits inside the gap.
    assert 20 not in found.indices


def test_policy_requests_grow_until_enough_survivors():
    c = _timed_catalog()
    index = NeighborIndex(c)
    policy = ExclusionPolicy(min_target_gap=36)
    strict = index.query(c.states[10], 30, policy=policy, target_time=int(c.times[10]))
    free = index.query(c.states[10], 50)
    kept = [i for i in free.indices if abs(c.times[i] - c.times[10]) >= 36]
    np.testing.assert_array_equal(strict.indices, kept[:30])


@pytest.mark.parametrize("backend", ["kdtree", "exhaustive"])
def test_policy_query_takes_one_exclusion_round(backend, monkeypatch):
    # Strictly increasing integer times put at most 2*gap - 1 rows inside the
    # target's gap, so one prefix of n + 2*gap - 1 rows settles every query.
    rng = np.random.default_rng(17)
    states = np.cumsum(rng.normal(size=(600, 3)), axis=0)
    contiguous = np.arange(600, dtype=np.int64)
    irregular = np.cumsum(rng.integers(1, 4, size=600)).astype(np.int64)
    real, calls = neighbors.apply_exclusion, []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(neighbors, "apply_exclusion", counting)
    short = []
    # The last two gaps exceed the catalog's 600 rows.
    for times, gap, k in [(contiguous, 12, 15), (irregular, 12, 15), (irregular, 700, 15), (irregular, 700, 250)]:
        index = NeighborIndex(Catalog(states, times), backend=backend)
        policy = ExclusionPolicy(min_target_gap=gap)
        for row in (0, 250, 599):
            calls.clear()
            dist, order = _brute_force(states, states[row], len(states))
            admissible = np.abs(times[order] - times[row]) >= gap
            if admissible.sum() < k:
                with pytest.raises(NotEnoughAnalogsError) as err:
                    index.query(states[row], k, policy, target_time=int(times[row]))
                assert (err.value.requested, err.value.admissible) == (k, admissible.sum())
                short.append(err.value.admissible)
            else:
                found = index.query(states[row], k, policy, target_time=int(times[row]))
                _assert_close_to_oracle(found, dist[admissible][:k], order[admissible][:k])
            assert len(calls) == 1
    # Exhaustion is reached both with no admissible row and with a few.
    assert 0 in short and max(short) > 0


# ----------------------------------------------------------- row distances


def _catalog_with_duplicate():
    # Row 30 repeats row 7, far apart in time: for row 7 the nearest other
    # row sits at distance zero, so dropping the row's own time keeps it
    # where dropping zero distances would not.
    rng = np.random.default_rng(23)
    states = np.cumsum(rng.normal(size=(300, 3)), axis=0)
    states[30] = states[7]
    return Catalog(states, np.arange(0, 600, 2, dtype=np.int64))


@pytest.mark.parametrize("gap", [0, 1, 5])
@pytest.mark.parametrize("backend", ["kdtree", "exhaustive"])
def test_row_distances_equal_stacked_queries(backend, gap):
    cat = _catalog_with_duplicate()
    index = NeighborIndex(cat, backend=backend)
    rows, k = np.array([7, 30, 0, 151, 299]), 12
    got = index.row_distances(rows, k, gap)
    assert got.shape == (len(rows), k)
    for row, dist in zip(rows, got):
        oracle, order = _brute_force(cat.states, cat.states[row], len(cat))
        if gap:
            policy = ExclusionPolicy(min_target_gap=gap)
            expected = index.query(cat.states[row], k, policy, target_time=int(cat.times[row])).distances
            admissible = np.abs(cat.times[order] - cat.times[row]) >= gap
        else:
            found = index.query(cat.states[row], len(cat))
            expected = found.distances[found.indices != row][:k]
            admissible = order != row
        np.testing.assert_array_equal(dist, expected)
        np.testing.assert_allclose(dist, oracle[admissible][:k], rtol=1e-12, atol=1e-15)
    # Rows 7 and 30 each count the other at distance zero.
    assert got[0, 0] == got[1, 0] == 0.0
    assert (got[2:] > 0.0).all()
    if gap == 1:
        # Dropping the row's own time drops exactly the row and keeps its
        # duplicate at another time, so gap 0 acts as gap 1, bitwise.
        np.testing.assert_array_equal(got, index.row_distances(rows, k, 0))


def test_row_distances_validation():
    states = np.arange(20.0).reshape(10, 2)
    index = NeighborIndex(Catalog(states))
    with pytest.raises(ValueError, match="n_analogs"):
        index.row_distances([0], 0)
    # A catalog built without times is numbered 0..L-1.
    numbered = NeighborIndex(Catalog(states, np.arange(10)))
    np.testing.assert_array_equal(
        index.row_distances([0, 4, 9], 3, gap=2), numbered.row_distances([0, 4, 9], 3, gap=2)
    )
    with pytest.raises(ValueError):
        index.row_distances([0], 3, gap=-1)
    # Every row but the target's own is admissible.
    with pytest.raises(NotEnoughAnalogsError) as err:
        index.row_distances([0], 10)
    assert (err.value.requested, err.value.admissible) == (10, 9)
    assert index.row_distances([], 3).shape == (0, 3)
    # Row numbers are indices: a fractional one is not rounded to a row.
    with pytest.raises(IndexError):
        index.row_distances([0, 1.5], 3)


# ------------------------------------------- row distances in target blocks


def _small_blocks(monkeypatch, length, rows_per_block=7):
    # A scan block of 7 target rows, so a few hundred rows take many blocks
    # and end on a partial one. A tree block holds 2(m + 1) numbers per row,
    # so at these sizes it takes tens of rows: still several blocks.
    monkeypatch.setattr(neighbors, "_BLOCK_ELEMS", rows_per_block * length)


# Both backends at gaps 0, 1 and 5; the scan's cases are named by gap alone.
_BLOCK_CASES = [pytest.param("exhaustive", gap, id=str(gap)) for gap in (0, 1, 5)] + [
    pytest.param("kdtree", gap, id=f"kdtree-{gap}") for gap in (0, 1, 5)
]


class _CountingTree:
    """Proxy over a k-d tree that records how many points each tree query
    and each ball query receives."""

    def __init__(self, tree):
        self._tree, self.queries, self.balls = tree, [], []

    def query(self, points, *args, **kwargs):
        self.queries.append(len(points))
        return self._tree.query(points, *args, **kwargs)

    def query_ball_point(self, points, *args, **kwargs):
        self.balls.append(len(points))
        return self._tree.query_ball_point(points, *args, **kwargs)


def _stacked_rows(index, rows, k, gap):
    policy = ExclusionPolicy(min_target_gap=max(gap, 1))
    cat = index.catalog
    return np.array(
        [index.query(cat.states[r], k, policy, target_time=int(cat.times[r])).distances for r in rows]
    )


def _scanned_rows(cat, rows, k, gap):
    """Bitwise oracle: a full scan per row, then the gap rule."""
    out = []
    for r in rows:
        dist, order = _full_scan(cat.states, cat.states[r], len(cat))
        out.append(dist[np.abs(cat.times[order] - cat.times[r]) >= max(gap, 1)][:k])
    return np.array(out)


def _assert_block_path_exact(index, rows, k, gap):
    got = index.row_distances(rows, k, gap)
    assert got.shape == (len(rows), k)
    np.testing.assert_array_equal(got, _stacked_rows(index, rows, k, gap))
    np.testing.assert_array_equal(got, _scanned_rows(index.catalog, rows, k, gap))
    return got


@pytest.mark.parametrize("backend,gap", _BLOCK_CASES)
def test_block_row_distances_equal_queries_and_full_scan(backend, gap, monkeypatch):
    cat = _catalog_with_duplicate()
    _small_blocks(monkeypatch, len(cat))
    index = NeighborIndex(cat, backend=backend)
    # 250 rows in a shuffled order: on the scan 35 full blocks and one of 5
    # rows, on the tree 3 to 5 full blocks and a partial one.
    rows = np.random.default_rng(41).permutation(len(cat))[:250]
    got = _assert_block_path_exact(index, rows, 12, gap)
    # Rows 7 and 30 each count the other at distance zero.
    assert got[rows == 7][0, 0] == got[rows == 30][0, 0] == 0.0


@pytest.mark.parametrize("backend,gap", _BLOCK_CASES)
def test_block_row_distances_when_ties_straddle_the_cut(backend, gap, monkeypatch):
    # A coarse grid: squared distances are small integers, so many rows tie
    # at the k-th admissible distance. The offset leaves the differences
    # exact, while the norm form's rounding error exceeds the unit steps
    # between squared distances: only the margin keeps the right rows
    # nominated. The scan's grid lies above the k-d tree limit; the tree's
    # is 3-d, where the ties send most rows of a block to the ball.
    rng = np.random.default_rng(43)
    dim = 3 if backend == "kdtree" else KDTREE_MAX_DIM + 4
    states = 1e8 + rng.integers(0, 3, size=(400, dim)).astype(np.float64)
    cat = Catalog(states)
    _small_blocks(monkeypatch, len(cat))
    index = NeighborIndex(cat)
    assert index.backend == backend
    rows, k = np.arange(0, 400, 2), 10
    _assert_block_path_exact(index, rows, k, gap)
    longer = _scanned_rows(cat, rows, k + 1, gap)
    assert (longer[:, k] == longer[:, k - 1]).sum() > 10
    if backend == "kdtree":
        # The blocks' rows split between the tree's m and the ball.
        tree = index._tree = _CountingTree(index._tree)
        index.row_distances(rows, k, gap)
        assert len(tree.queries) > 1
        assert 0 < sum(tree.balls) < len(rows)


def test_block_row_distances_with_overflowing_norms(monkeypatch):
    # Rows near 1e160 have squared norms beyond the float range, so every
    # target is scanned in full. Rows near 2.7e153 keep their squared norms
    # finite but overflow 4h for their own targets only: those blocks mix
    # full scans with the product. Nothing may warn.
    rng = np.random.default_rng(31)
    near = rng.standard_normal((150, 4))
    beyond = 1e160 * (1.0 + 1e-10 * rng.standard_normal((150, 4)))
    edge = 2.7e153 * (1.0 + 1e-10 * rng.standard_normal((150, 4)))
    rows = np.random.default_rng(47).permutation(300)
    for far in (beyond, edge):
        cat = Catalog(np.concatenate([near, far]))
        _small_blocks(monkeypatch, len(cat))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            index = NeighborIndex(cat, backend="exhaustive")
            for gap, k in ((0, 1), (5, 10)):
                _assert_block_path_exact(index, rows, k, gap)


def test_block_norm_forms_stay_within_their_bound():
    # 1000 targets against 5000 rows would make a 40 MB form at once; the
    # blocks keep it to _BLOCK_ELEMS doubles (4 MB).
    rng = np.random.default_rng(53)
    cat = Catalog(rng.normal(size=(5000, 24)))
    index = NeighborIndex(cat, backend="exhaustive")
    tracemalloc.start()
    try:
        got = index.row_distances(np.arange(1000), 5, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * neighbors._BLOCK_ELEMS
    np.testing.assert_array_equal(got[::97], _scanned_rows(cat, np.arange(1000)[::97], 5, 3))


def test_tree_blocks_stay_within_their_bound():
    # 4000 targets with m = 404 would make 26 MB of tree distances and
    # indices at once; the blocks keep them to _BLOCK_ELEMS numbers (4 MB).
    rng = np.random.default_rng(59)
    cat = Catalog(rng.normal(size=(5000, 3)))
    index = NeighborIndex(cat, backend="kdtree")
    tracemalloc.start()
    try:
        got = index.row_distances(np.arange(4000), 5, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * neighbors._BLOCK_ELEMS
    np.testing.assert_array_equal(got[::397], _scanned_rows(cat, np.arange(4000)[::397], 5, 200))


def test_tree_row_distances_query_the_tree_once_per_block(monkeypatch):
    # The tree's row path nominates for a block of rows with one tree query
    # and makes no query call, so no exclusion round either.
    cat = _catalog_with_duplicate()
    _small_blocks(monkeypatch, len(cat))
    index = NeighborIndex(cat, backend="kdtree")
    rows, k, gap = np.random.default_rng(61).permutation(len(cat)), 12, 5
    expected = _stacked_rows(index, rows, k, gap)
    tree = index._tree = _CountingTree(index._tree)
    calls = []

    def counting(real):
        def wrapper(*args, **kwargs):
            calls.append(real.__name__)
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(NeighborIndex, "query", counting(NeighborIndex.query))
    monkeypatch.setattr(neighbors, "apply_exclusion", counting(neighbors.apply_exclusion))
    got = index.row_distances(rows, k, gap)
    np.testing.assert_array_equal(got, expected)
    assert calls == []
    # m + 1 = k + 2 gap neighbours per row, distances and indices.
    step = neighbors._BLOCK_ELEMS // (2 * (k + 2 * gap))
    assert tree.queries == [len(rows[i : i + step]) for i in range(0, len(rows), step)]
    assert len(tree.queries) > 1


def test_block_row_distances_report_the_admissible_count(monkeypatch):
    # Irregular times and a gap near the catalog's span: the middle rows
    # have too few admissible rows, the outer rows enough. row_distances
    # raises for the first short row in the order given, as stacked
    # queries do, on either backend. The tree takes the first 3 of the 30
    # columns.
    rng = np.random.default_rng(17)
    states = rng.normal(size=(300, 30))
    times = np.cumsum(rng.integers(1, 4, size=300)).astype(np.int64)
    _small_blocks(monkeypatch, len(states))
    gap, k = int(times[-1] - times[0]) // 2, 40
    rows = np.arange(0, 300, 3)
    admissible = np.array([(np.abs(times - times[r]) >= gap).sum() for r in rows])
    first = int(np.argmax(admissible < k))
    assert first > 7 and admissible[first] > 0
    for backend, dim in (("exhaustive", 30), ("kdtree", 3)):
        index = NeighborIndex(Catalog(states[:, :dim], times), backend=backend)
        with pytest.raises(NotEnoughAnalogsError) as err:
            index.row_distances(rows, k, gap)
        assert (err.value.requested, err.value.admissible) == (k, admissible[first])
        with pytest.raises(NotEnoughAnalogsError) as stacked:
            _stacked_rows(index, rows, k, gap)
        assert (stacked.value.requested, stacked.value.admissible) == (k, admissible[first])
        fine = rows[admissible >= k]
        _assert_block_path_exact(index, fine, k, gap)


def test_policy_exhaustion_reports_admissible_count():
    c = _timed_catalog()
    index = NeighborIndex(c)
    policy = ExclusionPolicy(min_target_gap=10_000)
    with pytest.raises(NotEnoughAnalogsError) as err:
        index.query(c.states[0], 1, policy=policy, target_time=0)
    assert err.value.admissible == 0
    assert err.value.requested == 1


def test_oversized_request_raises():
    c = Catalog(np.zeros((4, 2)))
    with pytest.raises(NotEnoughAnalogsError):
        NeighborIndex(c).query([0.0, 0.0], 5)


def test_dimension_mismatch_raises():
    c = Catalog(np.zeros((4, 3)))
    with pytest.raises(DimensionMismatchError):
        NeighborIndex(c).query([0.0, 0.0], 1)


# Both explicit backends, and "auto" on each side of the k-d tree limit.
_NON_FINITE_CASES = [
    ("kdtree", 3),
    ("exhaustive", 3),
    ("auto", KDTREE_MAX_DIM),
    ("auto", KDTREE_MAX_DIM + 1),
]


@pytest.mark.parametrize("backend,dim", _NON_FINITE_CASES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_catalog_row_is_rejected(backend, dim, bad):
    states = np.random.default_rng(dim).normal(size=(300, dim))
    states[123, dim - 1] = bad
    with pytest.raises(NonFiniteError, match="row 123"):
        NeighborIndex(Catalog(states), backend=backend)


@pytest.mark.parametrize("backend,dim", _NON_FINITE_CASES)
def test_non_finite_target_is_rejected(backend, dim):
    states = np.random.default_rng(dim).normal(size=(300, dim))
    index = NeighborIndex(Catalog(states), backend=backend)
    target = states[0].copy()
    target[0] = np.nan
    with pytest.raises(NonFiniteError):
        index.query(target, 3)
    with pytest.raises(NonFiniteError):
        index.query_radius(target, 1.0)


def test_auto_backend_sides_of_the_tree_limit():
    rng = np.random.default_rng(0)
    assert NeighborIndex(Catalog(rng.normal(size=(300, KDTREE_MAX_DIM)))).backend == "kdtree"
    assert NeighborIndex(Catalog(rng.normal(size=(300, KDTREE_MAX_DIM + 1)))).backend == "exhaustive"


def test_invalid_backend_and_k():
    c = Catalog(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        NeighborIndex(c, backend="annoy")
    with pytest.raises(ValueError):
        NeighborIndex(c).query([0.0, 0.0], 0)


# ------------------------------------------------------------------ AnalogSet


def test_analog_set_requires_sorted_distances():
    with pytest.raises(ValueError):
        AnalogSet(np.array([0.5, 0.2]), np.array([0, 1]))
