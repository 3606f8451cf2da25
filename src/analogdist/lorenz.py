"""Lorenz-63 system and a fixed-step RK4 integrator.

The three-variable convective model is used as a reference chaotic system
with a well known attractor dimension slightly above 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteError

__all__ = [
    "L63Params",
    "generate_trajectory",
    "DEFAULT_DT",
    "DEFAULT_BURN_IN",
    "DEFAULT_INITIAL_STATE",
]

DEFAULT_DT = 0.01
DEFAULT_BURN_IN = 10_000
DEFAULT_INITIAL_STATE = (1.0, 1.0, 1.0)

# States beyond this amplitude are treated as diverged; the attractor itself
# stays within a box of roughly |x1|,|x2| < 30, 0 < x3 < 50.
_FINITE_BOUND = 1.0e6
# Standard deviation of the seeded perturbation of the initial state.
_JITTER = 1e-3


@dataclass(frozen=True)
class L63Params:
    """Classical parameter set of the convective model."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0


def _rk4(x1, x2, x3, sigma, rho, beta, dt):
    # Inlined stages; this function is the hot loop of generate_trajectory.
    a1 = sigma * (x2 - x1)
    a2 = x1 * (rho - x3) - x2
    a3 = x1 * x2 - beta * x3

    h = 0.5 * dt
    y1 = x1 + h * a1
    y2 = x2 + h * a2
    y3 = x3 + h * a3
    b1 = sigma * (y2 - y1)
    b2 = y1 * (rho - y3) - y2
    b3 = y1 * y2 - beta * y3

    y1 = x1 + h * b1
    y2 = x2 + h * b2
    y3 = x3 + h * b3
    c1 = sigma * (y2 - y1)
    c2 = y1 * (rho - y3) - y2
    c3 = y1 * y2 - beta * y3

    y1 = x1 + dt * c1
    y2 = x2 + dt * c2
    y3 = x3 + dt * c3
    d1 = sigma * (y2 - y1)
    d2 = y1 * (rho - y3) - y2
    d3 = y1 * y2 - beta * y3

    w = dt / 6.0
    return (
        x1 + w * (a1 + 2.0 * (b1 + c1) + d1),
        x2 + w * (a2 + 2.0 * (b2 + c2) + d2),
        x3 + w * (a3 + 2.0 * (b3 + c3) + d3),
    )


def generate_trajectory(
    s0: tuple[float, float, float] = DEFAULT_INITIAL_STATE,
    n_steps: int = 1000,
    dt: float = DEFAULT_DT,
    burn_in: int = DEFAULT_BURN_IN,
    stride: int = 1,
    params: L63Params = L63Params(),
    seed: int | None = None,
) -> np.ndarray:
    """Integrate from s0 and return the (n_steps, 3) samples taken every
    ``stride`` steps: row i is the state after ``burn_in + i*stride`` steps.

    The first ``burn_in`` steps are discarded so that samples start on the
    attractor. The ODE itself is deterministic; ``seed`` only controls an
    optional Gaussian jitter of standard deviation 1e-3 applied to the
    initial condition, which yields independent trajectories through chaotic
    divergence during burn-in.

    Raises NonFiniteError as soon as any coordinate exceeds 1e6 in magnitude
    or becomes non-finite, which signals an unstable dt.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")

    # Everything entering the RK4 loop is a Python float: one numpy scalar
    # (a jitter draw, a numpy-typed dt or parameter) would turn every stage
    # into numpy-scalar arithmetic, about four times slower, same values.
    x1, x2, x3 = map(float, s0)
    if seed is not None:
        rng = np.random.default_rng(seed)
        dx = rng.normal(0.0, _JITTER, size=3)
        x1 += float(dx[0])
        x2 += float(dx[1])
        x3 += float(dx[2])

    dt = float(dt)
    sigma, rho, beta = float(params.sigma), float(params.rho), float(params.beta)
    bound = _FINITE_BOUND
    out = np.empty((n_steps, 3), dtype=np.float64)

    step = _rk4
    for i in range(burn_in):
        x1, x2, x3 = step(x1, x2, x3, sigma, rho, beta, dt)
        if not (-bound < x1 < bound and -bound < x2 < bound and -bound < x3 < bound):
            raise NonFiniteError(
                f"state diverged during burn-in at step {i + 1} (dt={dt})"
            )

    out[0, 0] = x1
    out[0, 1] = x2
    out[0, 2] = x3
    for i in range(1, n_steps):
        for _ in range(stride):
            x1, x2, x3 = step(x1, x2, x3, sigma, rho, beta, dt)
        if not (-bound < x1 < bound and -bound < x2 < bound and -bound < x3 < bound):
            raise NonFiniteError(
                f"state diverged at sample {i} (dt={dt}, stride={stride})"
            )
        out[i, 0] = x1
        out[i, 1] = x2
        out[i, 2] = x3

    return out
