"""Catalog container, file round-trips, and temporal exclusion."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from analogdist.catalog import (
    Catalog,
    ExclusionPolicy,
    apply_exclusion,
    load_catalog,
    save_catalog,
)
from analogdist.errors import FormatError


def _sample_catalog(rng=None, n=57, d=4):
    rng = rng or np.random.default_rng(42)
    states = rng.normal(size=(n, d))
    times = np.cumsum(rng.integers(1, 5, size=n)).astype(np.int64)
    return Catalog(states, times, name="wind æøå", units="m/s")


# ---------------------------------------------------------------- container


def test_catalog_coerces_and_validates():
    c = Catalog([[1, 2], [3, 4]])
    assert c.states.dtype == np.float64
    assert (c.length, c.dim) == (2, 2)
    assert len(c) == 2
    np.testing.assert_array_equal(c.times, [0, 1])
    assert c.times.dtype == np.int64


@pytest.mark.parametrize(
    "states,times",
    [
        (np.zeros(3), None),  # 1-d
        (np.zeros((0, 3)), None),  # empty
        (np.zeros((3, 0)), None),  # zero columns
        (np.zeros((3, 2)), [1, 2]),  # times length mismatch
        (np.zeros((3, 2)), [1, 1, 2]),  # not strictly increasing
    ],
)
def test_catalog_rejects_bad_shapes(states, times):
    with pytest.raises(ValueError):
        Catalog(states, times)


# ------------------------------------------------------------------ file IO


def test_roundtrip_preserves_everything(tmp_path):
    c = _sample_catalog()
    path = tmp_path / "c.anacat"
    save_catalog(c, path)
    back = load_catalog(path)
    np.testing.assert_array_equal(back.states, c.states)
    np.testing.assert_array_equal(back.times, c.times)
    assert back.states.dtype == np.float64 and back.times.dtype == np.int64
    assert back.name == c.name and back.units == c.units


def test_roundtrip_without_times(tmp_path):
    # A file written without times loads with times 0..L-1 and is written
    # back with them.
    states = np.random.default_rng(0).normal(size=(5, 2))
    header = {"schema_version": 1, "L": 5, "D": 2, "dtype": "f64", "has_times": False}
    path = tmp_path / "c.anacat"
    path.write_bytes(json.dumps(header).encode() + b"\n" + states.astype("<f8").tobytes())
    c = load_catalog(path)
    np.testing.assert_array_equal(c.states, states)
    np.testing.assert_array_equal(c.times, np.arange(5))
    again = tmp_path / "again.anacat"
    save_catalog(c, again)
    assert json.loads(again.read_bytes().split(b"\n", 1)[0])["has_times"] is True
    np.testing.assert_array_equal(load_catalog(again).times, np.arange(5))


def test_save_is_deterministic(tmp_path):
    c = _sample_catalog()
    p1, p2 = tmp_path / "a.anacat", tmp_path / "b.anacat"
    save_catalog(c, p1)
    save_catalog(c, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_roundtrip_preserves_nan_payload(tmp_path):
    states = np.array([[np.nan, 1.0], [np.inf, -0.0]])
    path = tmp_path / "c.anacat"
    save_catalog(Catalog(states), path)
    back = load_catalog(path)
    np.testing.assert_array_equal(back.states, states)  # equal treats nan==nan


@settings(max_examples=50, deadline=None)
@given(
    states=npst.arrays(
        np.float64,
        npst.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6),
    ),
    name=st.text(max_size=20),
    units=st.text(max_size=10),
)
def test_roundtrip_property(tmp_path_factory, states, name, units):
    path = tmp_path_factory.mktemp("rt") / "c.anacat"
    save_catalog(Catalog(states, name=name, units=units), path)
    back = load_catalog(path)
    np.testing.assert_array_equal(back.states, states)
    assert back.name == name and back.units == units


def _valid_file(tmp_path):
    path = tmp_path / "c.anacat"
    save_catalog(_sample_catalog(n=8, d=3), path)
    return path


def test_load_rejects_truncated_payload(tmp_path):
    path = _valid_file(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(FormatError, match="truncated") as err:
        load_catalog(path)
    assert err.value.byte_offset == len(raw) - 8


def test_load_rejects_trailing_bytes(tmp_path):
    path = _valid_file(tmp_path)
    raw = path.read_bytes()
    path.write_bytes(raw + b"xx")
    with pytest.raises(FormatError, match="trailing") as err:
        load_catalog(path)
    assert err.value.byte_offset == len(raw)


def test_load_rejects_header_only_empty_catalog(tmp_path):
    header = {
        "schema_version": 1,
        "L": 0,
        "D": 3,
        "dtype": "f64",
        "has_times": False,
        "metadata": {},
    }
    path = tmp_path / "c.anacat"
    path.write_bytes(json.dumps(header).encode() + b"\n")
    with pytest.raises(FormatError, match="invalid shape"):
        load_catalog(path)


@pytest.mark.parametrize(
    "payload,match",
    [
        (b"", "header"),
        (b"not json at all\n", "JSON"),
        (b"[1, 2]\n", "object"),
        (b'{"L": 3}\n', "missing"),
        (
            b'{"schema_version": 99, "L": 1, "D": 1, "dtype": "f64", "has_times": false}\n'
            + b"\x00" * 8,
            "schema_version",
        ),
        (
            b'{"schema_version": 1, "L": 1, "D": 1, "dtype": "f32", "has_times": false}\n'
            + b"\x00" * 8,
            "dtype",
        ),
    ],
)
def test_load_rejects_malformed_headers(tmp_path, payload, match):
    path = tmp_path / "bad.anacat"
    path.write_bytes(payload)
    with pytest.raises(FormatError, match=match):
        load_catalog(path)


def test_load_peak_memory_is_about_the_payload(tmp_path):
    # The payload is read into the arrays the catalog keeps, not into a
    # whole-file buffer that is then copied.
    rng = np.random.default_rng(5)
    c = Catalog(rng.normal(size=(100_000, 10)), np.arange(100_000, dtype=np.int64))
    path = tmp_path / "big.anacat"
    save_catalog(c, path)
    tracemalloc.start()
    try:
        back = load_catalog(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * path.stat().st_size
    np.testing.assert_array_equal(back.states, c.states)
    np.testing.assert_array_equal(back.times, c.times)


def test_format_error_carries_byte_offset(tmp_path):
    path = tmp_path / "bad.anacat"
    path.write_bytes(b"garbage without newline")
    with pytest.raises(FormatError) as err:
        load_catalog(path)
    assert err.value.byte_offset == 0


# ---------------------------------------------------------------- exclusion


def test_exclusion_drops_candidates_near_target_time():
    t0 = 1000
    times = np.array([t0 + 1, t0 + 2, t0 + 100], dtype=np.int64)
    idx = np.array([0, 1, 2])
    dist = np.array([0.1, 0.2, 0.3])
    keep_idx, keep_dist = apply_exclusion(
        idx, dist, t0, times, ExclusionPolicy(min_target_gap=36)
    )
    np.testing.assert_array_equal(keep_idx, [2])
    np.testing.assert_array_equal(keep_dist, [0.3])


def test_exclusion_empty_input_passes_through():
    out_idx, out_dist = apply_exclusion(
        np.array([], dtype=np.int64),
        np.array([]),
        5,
        np.arange(4, dtype=np.int64),
        ExclusionPolicy(),
    )
    assert len(out_idx) == 0 and len(out_dist) == 0


def test_exclusion_requires_times_when_needed():
    with pytest.raises(ValueError):
        apply_exclusion(np.array([0]), np.array([1.0]), None, np.array([3]), ExclusionPolicy())


def test_exclusion_policy_validation():
    with pytest.raises(ValueError):
        ExclusionPolicy(min_target_gap=-1)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 30),
    gap=st.integers(0, 50),
    seed=st.integers(0, 5),
)
def test_exclusion_output_is_sorted_subset(n, gap, seed):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.integers(1, 4, size=100)).astype(np.int64)
    idx = rng.choice(100, size=n, replace=False)
    dist = rng.uniform(0.1, 2.0, size=n)
    # Callers pass candidates in (distance, index) order; the rule keeps it.
    order = np.lexsort((idx, dist))
    idx, dist = idx[order], dist[order]
    policy = ExclusionPolicy(min_target_gap=gap)
    out_idx, out_dist = apply_exclusion(idx, dist, int(times[50]), times, policy)
    keep = np.abs(times[idx] - times[50]) >= gap
    np.testing.assert_array_equal(out_idx, idx[keep])
    np.testing.assert_array_equal(out_dist, dist[keep])
    assert np.all(np.diff(out_dist) >= 0)
