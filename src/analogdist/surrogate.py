"""Synthetic gridded-field surrogates with a controlled effective dimension.

A surrogate state is a 1-d spatial field sampled on a regular grid, built
from a fixed number of traveling sinusoidal modes with incommensurate
frequencies plus a small noise floor. Each mode contributes one phase
angle, so the trajectory fills an m-torus and the local dimension of the
sampled states is the mode count.

Each component is built by angle addition, sin(a - b) = sin a cos b -
cos a sin b: the sines and cosines of the (samples, modes) phases and of
the (modes, grid) patterns make the field two small matrix products, with
no full-field sine. The phases grow to n_samples * sqrt(largest prime)
radians (6.4e4 at 10000 samples and 13 modes). Summing one sine of the
phase difference per mode rounds that difference at this magnitude first:
at that shape, with two 64-point components and |field| <= 5.3, such a
sum was off by up to 7.4e-12 against the same sum in extended precision,
and the angle-addition form by 3.4e-15.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Catalog

__all__ = ["traveling_modes_surrogate"]


def _primes(count: int) -> np.ndarray:
    """First `count` primes, by trial division (counts here are tiny)."""
    found: list[int] = []
    candidate = 2
    while len(found) < count:
        if all(candidate % p for p in found):
            found.append(candidate)
        candidate += 1
    return np.asarray(found, dtype=np.int64)


def traveling_modes_surrogate(
    n_modes: int,
    n_grid: int = 64,
    n_samples: int = 20_000,
    noise: float = 1e-3,
    seed: int = 0,
    n_components: int = 1,
    amplitude_decay: float = 0.85,
) -> Catalog:
    """Catalog of hourly snapshots of a traveling-mode field.

    n_modes: number of independent phases (the effective dimension).
    n_grid: spatial grid points per field component.
    noise: standard deviation of additive Gaussian noise, in units of the
        O(1) mode amplitudes; a finite number >= 0.
    n_components: stacked field components sharing the same phases (use 2
        for a wind-like zonal/meridional pair); the state width is
        n_components * n_grid.
    amplitude_decay: geometric factor applied to successive mode amplitudes.
        Equal amplitudes (1.0) make the state manifold a flat torus whose
        chordal geometry inflates coarse-resolution dimension estimates on
        sparse catalogs; the default mild decay offsets that so rank-based
        estimates on a few-times-1e4 catalog land near n_modes.

    Component c is sum_j a_j sin(phi_j(t) - k_cj x - p_cj), computed as
    (a sin phi) @ cos(k x + p) - (a cos phi) @ sin(k x + p): two GEMMs with
    inner dimension n_modes. For the accuracy see the module docstring.
    With OpenBLAS 0.3.31 the bytes were the same at 1 to 4 BLAS threads on
    every shape checked (1-40 modes, grids of 50-256 points, 900-30000
    samples, one or two components). The seed fixes the
    draws, in this order: initial phases, then per component the
    wavenumber permutation and pattern phases, then the noise.
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    if n_grid < 2 * n_modes:
        raise ValueError("n_grid must resolve the modes (need >= 2*n_modes)")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if not 0.0 <= noise < math.inf:
        raise ValueError(f"noise must be a finite number >= 0, got {noise:g}")
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if not 0.0 < amplitude_decay <= 1.0:
        raise ValueError("amplitude_decay must lie in (0, 1]")

    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    t = np.arange(n_samples, dtype=np.float64)

    # Square roots of primes give pairwise incommensurate angular speeds, so
    # the orbit equidistributes on the torus without near-resonances; above
    # one radian per step consecutive samples are effectively independent.
    speeds = np.sqrt(_primes(n_modes)).astype(np.float64)
    phases0 = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
    phases = np.outer(t, speeds) + phases0  # (n_samples, n_modes)
    amplitudes = amplitude_decay ** np.arange(n_modes)
    sin_t = amplitudes * np.sin(phases)
    cos_t = amplitudes * np.cos(phases)

    blocks = []
    for _ in range(n_components):
        wavenumbers = rng.permutation(np.arange(1, n_modes + 1))
        pattern_phase = rng.uniform(0.0, 2.0 * np.pi, size=n_modes)
        spatial = np.outer(wavenumbers, x) + pattern_phase[:, None]  # (n_modes, n_grid)
        field = sin_t @ np.cos(spatial)
        field -= cos_t @ np.sin(spatial)
        blocks.append(field)
    states = np.concatenate(blocks, axis=1)
    if noise > 0.0:
        states += rng.normal(0.0, noise, size=states.shape)

    return Catalog(
        states=states,
        name=f"traveling-modes m={n_modes}",
        units="arbitrary",
    )
