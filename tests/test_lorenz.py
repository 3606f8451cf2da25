"""Integrator tests.

Step-order checks use the integrator itself at a much finer step as the
reference solution, so the expected O(dt^5) local and O(dt^4) global errors
appear as log-log slopes rather than hand-derived constants.
"""

import math

import numpy as np
import pytest

from analogdist import lorenz
from analogdist.errors import NonFiniteError
from analogdist.lorenz import L63Params, generate_trajectory


def _step(s, dt=0.01, params=L63Params()) -> np.ndarray:
    """One RK4 step of size dt from s."""
    return generate_trajectory(s, n_steps=2, burn_in=0, dt=dt, params=params)[1]


def _derivative(s, params=L63Params()) -> np.ndarray:
    """Right-hand side at s, Richardson-extrapolated from two one-step
    difference quotients: (phi_h(s) - s)/h = f(s) + O(h)."""
    s = np.asarray(s, dtype=np.float64)
    h = 1e-5
    rate = lambda dt: (_step(s, dt, params) - s) / dt
    return 2.0 * rate(h / 2) - rate(h)


def _on_attractor_state() -> np.ndarray:
    return generate_trajectory(n_steps=1, burn_in=2_000)[0]


def test_derivative_at_origin_is_zero():
    np.testing.assert_array_equal(_derivative((0.0, 0.0, 0.0)), [0.0, 0.0, 0.0])


def test_derivative_at_nontrivial_equilibrium():
    c = math.sqrt(72.0)
    d = _derivative((c, c, 27.0))
    # sqrt(72)**2 rounds to 72 + 1.4e-14, so demand a small absolute bound, not 0.
    np.testing.assert_allclose(d, 0.0, atol=1e-8)


def test_derivative_at_unit_point():
    d = _derivative((1.0, 1.0, 1.0))
    np.testing.assert_allclose(d, [0.0, 26.0, 1.0 - 8.0 / 3.0], rtol=1e-7, atol=1e-7)


def test_derivative_respects_custom_parameters():
    p = L63Params(sigma=2.0, rho=3.0, beta=1.0)
    d = _derivative((1.0, 2.0, 3.0), p)
    np.testing.assert_allclose(d, [2.0, 1.0 * (3.0 - 3.0) - 2.0, 1.0 * 2.0 - 3.0], atol=1e-7)


def test_rk4_step_fixes_equilibria():
    origin = _step((0.0, 0.0, 0.0), dt=0.37)
    np.testing.assert_array_equal(origin, [0.0, 0.0, 0.0])

    c = math.sqrt(72.0)
    moved = _step((c, c, 27.0), dt=0.01)
    np.testing.assert_allclose(moved, [c, c, 27.0], rtol=1e-12, atol=0.0)


def test_local_truncation_error_is_fifth_order():
    s = _on_attractor_state()
    dts = [0.02, 0.01, 0.005]
    errs = []
    for dt in dts:
        ref = generate_trajectory(s, n_steps=33, burn_in=0, dt=dt / 32)[-1]
        errs.append(np.linalg.norm(_step(s, dt=dt) - ref))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 4.6 < slope < 5.4


def test_global_error_is_fourth_order():
    s = _on_attractor_state()

    def integrate(dt, horizon=1.0):
        return generate_trajectory(s, n_steps=round(horizon / dt) + 1, burn_in=0, dt=dt)[-1]

    ref = integrate(0.000625)
    errs = [np.linalg.norm(integrate(dt) - ref) for dt in (0.02, 0.01)]
    slope = math.log2(errs[0] / errs[1])
    assert 3.4 < slope < 4.6


def test_trajectory_stays_in_attractor_box():
    states = generate_trajectory(n_steps=20_000, burn_in=10_000, seed=1)
    assert np.all(np.abs(states[:, 0]) < 30.0)
    assert np.all(np.abs(states[:, 1]) < 30.0)
    assert np.all(np.abs(states[:, 2]) < 60.0)


def test_unstable_dt_raises_non_finite():
    with pytest.raises(NonFiniteError, match="diverged"):
        generate_trajectory(n_steps=10, dt=10.0, burn_in=100)


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf])
def test_non_finite_dt_is_a_bad_setting(dt):
    # A step that is not a finite number is rejected before the first step,
    # not reported as a diverged integration.
    with pytest.raises(ValueError, match=f"dt must be positive and finite, got {dt}"):
        generate_trajectory(n_steps=10, dt=dt, burn_in=100)


def test_sample_count_and_shape():
    states = generate_trajectory(n_steps=137, burn_in=50, stride=3)
    assert states.shape == (137, 3)
    assert states.dtype == np.float64


def test_sampling_matches_manual_stepping():
    # The fused loop must agree exactly with single steps taken one call at
    # a time: sample 0 after burn_in steps, each later sample after stride more.
    burn_in, stride, n = 7, 3, 5
    states = generate_trajectory(n_steps=n, burn_in=burn_in, stride=stride)

    s = np.array([1.0, 1.0, 1.0])
    for _ in range(burn_in):
        s = _step(s)
    expected = [s]
    for _ in range(n - 1):
        for _ in range(stride):
            s = _step(s)
        expected.append(s)
    np.testing.assert_array_equal(states, np.array(expected))


def test_seeding_controls_initial_jitter():
    a = generate_trajectory(n_steps=50, burn_in=100, seed=9)
    b = generate_trajectory(n_steps=50, burn_in=100, seed=9)
    c = generate_trajectory(n_steps=50, burn_in=100, seed=10)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seeded_rk4_runs_in_python_floats(monkeypatch):
    # A numpy scalar anywhere in the loop state (the jitter draw, a numpy dt
    # or parameter) makes every stage numpy-scalar arithmetic: same values,
    # several times slower. Every argument of every step must be a float.
    inner = lorenz._rk4
    calls = []

    def checked(*args):
        assert [type(a) for a in args] == [float] * 7, [type(a).__name__ for a in args]
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(lorenz, "_rk4", checked)
    plain = generate_trajectory(n_steps=5, burn_in=10, stride=2, seed=3)
    numpy_typed = generate_trajectory(
        n_steps=5,
        burn_in=10,
        stride=2,
        seed=3,
        dt=np.float64(0.01),
        params=L63Params(np.float64(10.0), np.float64(28.0), np.float64(8.0 / 3.0)),
    )
    assert len(calls) == 2 * (10 + 4 * 2)
    np.testing.assert_array_equal(plain, numpy_typed)


def test_unseeded_run_is_deterministic():
    a = generate_trajectory(n_steps=20, burn_in=30)
    b = generate_trajectory(n_steps=20, burn_in=30)
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_steps": 0},
        {"stride": 0},
        {"dt": 0.0},
        {"dt": -0.01},
        {"burn_in": -1},
    ],
)
def test_argument_validation(kwargs):
    with pytest.raises(ValueError):
        generate_trajectory(**{"n_steps": 10, "burn_in": 0, **kwargs})
