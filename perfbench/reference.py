"""A fixed reference computation that measures how fast the host runs right now.

The benchmark runs on a shared machine whose speed drifts: on a 2-core
virtual machine the median of 30 s of wind rounds changed by up to 2x from
one minute to the next, and a pure-Python loop, small numpy arithmetic and
a scan over a 10 MB array each slowed by different amounts. The time of one
round divided by the time of this computation, run just before it, follows
the program and not the host.

The computation mixes the three kinds of work the commands do: an
interpreted Python loop (RK4 steps of the three-variable convection system
in plain floats, about a fifth of its time), arithmetic on small numpy
arrays (as in EM on a few thousand rows, two fifths), and distance scans
over an array larger than the CPU caches (as in the exhaustive neighbour
search, two fifths). The three slow down by different amounts when the host
is busy. Over five-minute streams of rounds of each workload, this mix left
about the least spread in round time over reference time on all three
together.
It does not use the analogdist package, and its inputs do not depend on the
benchmark's seed, so no change to the program changes its work.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Its median time on the machine the reference figures in README.md come
# from; reported times are scaled to it, so they read about as wall seconds
# there.
NOMINAL_S = 0.1

_RNG = np.random.default_rng(0)
_ROWS = _RNG.normal(size=(3000, 12))
_MIX = _RNG.normal(size=(12, 12))
_BLOCK = _RNG.normal(size=(250, 128))


def _rk4_steps(n: int) -> float:
    x, y, z, dt = 1.0, 1.0, 1.0, 0.01

    def f(x, y, z):
        return 10.0 * (y - x), x * (28.0 - z) - y, x * y - 8.0 / 3.0 * z

    for _ in range(n):
        a = f(x, y, z)
        b = f(x + 0.5 * dt * a[0], y + 0.5 * dt * a[1], z + 0.5 * dt * a[2])
        c = f(x + 0.5 * dt * b[0], y + 0.5 * dt * b[1], z + 0.5 * dt * b[2])
        d = f(x + dt * c[0], y + dt * c[1], z + dt * c[2])
        x += dt / 6.0 * (a[0] + 2.0 * b[0] + 2.0 * c[0] + d[0])
        y += dt / 6.0 * (a[1] + 2.0 * b[1] + 2.0 * c[1] + d[1])
        z += dt / 6.0 * (a[2] + 2.0 * b[2] + 2.0 * c[2] + d[2])
    return x + y + z


def _small_arrays(n: int) -> float:
    total = 0.0
    for _ in range(n):
        y = _ROWS @ _MIX
        total += float(np.exp(-0.5 * (y * y).sum(axis=1)).sum()) + float(np.sort(y[:, 0])[0])
    return total


def _scans(n: int) -> float:
    # Built on each call and freed on return, so that the process keeps no
    # extra 10 MB resident while the program runs.
    field = np.tile(_BLOCK, (40, 1))
    total = 0.0
    for i in range(n):
        total += float(np.partition(((field - field[i]) ** 2).sum(axis=1), 40)[40])
    return total


def reference_seconds() -> float:
    """Run the reference computation once and return its wall time."""
    start = perf_counter()
    _rk4_steps(14_000)
    _small_arrays(200)
    _scans(7)
    return perf_counter() - start
