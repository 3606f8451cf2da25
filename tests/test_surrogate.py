"""Traveling-mode surrogate catalogs: exact structural properties.

With the noise floor off, each traveling mode contributes a sin/cos pair to
the state matrix, so the matrix rank pins the mode count; single-mode rows
have closed-form mean and rms over a full spatial period.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from analogdist.catalog import Catalog
from analogdist.dimension import estimate_local_dimension
from analogdist.neighbors import NeighborIndex
from analogdist.surrogate import _primes, traveling_modes_surrogate


def test_shapes_times_and_metadata():
    cat = traveling_modes_surrogate(4, n_grid=32, n_samples=100)
    assert isinstance(cat, Catalog)
    assert cat.states.shape == (100, 32)
    assert cat.times.dtype == np.int64
    assert_array_equal(cat.times, np.arange(100))
    assert "m=4" in cat.name
    assert cat.units == "arbitrary"


def test_component_blocks_widen_state():
    cat = traveling_modes_surrogate(3, n_grid=16, n_samples=20, n_components=2)
    assert cat.states.shape == (20, 32)


def test_deterministic_per_seed():
    a = traveling_modes_surrogate(3, n_samples=50, seed=7)
    b = traveling_modes_surrogate(3, n_samples=50, seed=7)
    c = traveling_modes_surrogate(3, n_samples=50, seed=8)
    assert_array_equal(a.states, b.states)
    assert np.any(a.states != c.states)


def test_single_mode_rows_have_zero_mean_and_fixed_rms():
    # One unit-amplitude sinusoid sampled over a full period: the grid sum
    # vanishes and the mean square is exactly 1/2.
    cat = traveling_modes_surrogate(1, n_grid=8, n_samples=40, noise=0.0, amplitude_decay=1.0)
    assert_allclose(cat.states.sum(axis=1), 0.0, atol=1e-12)
    assert_allclose(np.mean(cat.states**2, axis=1), 0.5, rtol=1e-12)


@pytest.mark.parametrize("n_modes", [1, 2, 5])
def test_noise_free_rank_is_twice_mode_count(n_modes):
    cat = traveling_modes_surrogate(n_modes, n_grid=24, n_samples=300, noise=0.0)
    assert np.linalg.matrix_rank(cat.states) == 2 * n_modes


def test_spectrum_invariant_under_seed():
    # The seed rotates phases and permutes wavenumber assignment; neither
    # changes the singular value spectrum of the mode expansion.
    sv = []
    for seed in (1, 2):
        cat = traveling_modes_surrogate(3, n_grid=24, n_samples=5000, noise=0.0, seed=seed)
        sv.append(np.linalg.svd(cat.states, compute_uv=False)[: 2 * 3])
    assert_allclose(sv[0], sv[1], rtol=0.05)


def test_noise_floor_adds_requested_spread():
    clean = traveling_modes_surrogate(2, n_samples=200, noise=0.0, seed=3)
    noisy = traveling_modes_surrogate(2, n_samples=200, noise=1e-3, seed=3)
    diff = noisy.states - clean.states
    assert np.std(diff) == pytest.approx(1e-3, rel=0.1)


def test_local_dimension_tracks_mode_count():
    cat = traveling_modes_surrogate(2, n_grid=16, n_samples=20_000, seed=5)
    index = NeighborIndex(cat)
    rng = np.random.default_rng(6)
    distances = index.row_distances(rng.choice(len(cat), size=50, replace=False), 40)
    dims = [estimate_local_dimension(r) for r in distances]
    assert 1.4 < float(np.mean(dims)) < 2.8


def _per_mode_sines(n_modes, n_grid, n_samples, seed, n_components, amplitude_decay=0.85):
    """The noise-free field summed one mode at a time, one sine of the
    phase difference per mode, with the generator's draws in its order."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    speeds = np.sqrt(_primes(n_modes)).astype(np.float64)
    phases = np.outer(np.arange(n_samples, dtype=np.float64), speeds)
    phases += rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    blocks = []
    for _ in range(n_components):
        wavenumbers = rng.permutation(np.arange(1, n_modes + 1))
        pattern_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
        field = np.zeros((n_samples, n_grid))
        for j in range(n_modes):
            spatial = wavenumbers[j] * x + pattern_phase[j]
            field += amplitude_decay**j * np.sin(phases[:, j : j + 1] - spatial[None, :])
        blocks.append(field)
    return np.concatenate(blocks, axis=1)


@pytest.mark.parametrize("seed", [0, 41])
def test_matches_per_mode_sines(seed):
    # The wind shape (13 modes, 64 points, two components) at a small n.
    cat = traveling_modes_surrogate(13, n_grid=64, n_samples=2000, noise=0.0, seed=seed,
                                    n_components=2)
    assert_allclose(cat.states, _per_mode_sines(13, 64, 2000, seed, 2), rtol=0, atol=1e-9)


# The wind shape at a width (100) that is not a multiple of 8.
_GEN_ARGS = ["gen-surrogate", "--modes", "13", "--grid", "50", "--components", "2",
             "--n", "10000", "--seed", "41"]


def test_gen_surrogate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count once, when numpy loads, so each count
    # needs a fresh interpreter.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"wind{threads}.anacat"
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        run = subprocess.run(
            [sys.executable, "-m", "analogdist", *_GEN_ARGS, "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert run.returncode == 0, run.stderr
        digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert digests[0] == digests[1]


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_modes": 0},
        {"n_modes": 5, "n_grid": 9},
        {"n_modes": 2, "n_samples": 1},
        {"n_modes": 2, "noise": -1e-6},
        {"n_modes": 2, "noise": float("nan")},
        {"n_modes": 2, "noise": float("inf")},
        {"n_modes": 2, "n_components": 0},
        {"n_modes": 2, "amplitude_decay": 0.0},
        {"n_modes": 2, "amplitude_decay": 1.0001},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ValueError):
        traveling_modes_surrogate(**kwargs)
