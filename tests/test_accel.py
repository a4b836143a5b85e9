"""The Gauss-Kronrod constants and the numeric kernels of ``fraclab._accel``."""

import numpy as np

from fraclab import _accel


def test_kronrod_weights_sum_to_two():
    assert abs(_accel.GK_WEIGHTS_K.sum() - 2.0) < 1e-14
    assert abs(_accel.GK_WEIGHTS_G.sum() - 2.0) < 1e-14


def test_panel_reduce_integrates_polynomials_exactly():
    # Gauss-7 is exact through degree 13, Kronrod-15 through degree 22; a
    # degree-9 polynomial must give zero embedded error.
    fvals = (_accel.GK_NODES**9 + 3.0 * _accel.GK_NODES**2)[None, :]
    values, errors = _accel.panel_reduce(fvals, np.array([1.0]))
    assert abs(values[0] - 2.0) < 1e-14
    assert errors[0] < 1e-13


def test_panel_reduce_flags_rough_integrands():
    fvals = np.abs(_accel.GK_NODES)[None, :]
    _, errors = _accel.panel_reduce(fvals, np.array([1.0]))
    assert errors[0] > 1e-6


def test_panel_reduce_matches_the_loop_reference():
    # The matrix-vector products sum in another order than the per-panel
    # loop, so allow a few ulps of the absolute weighted sum.
    rng = np.random.default_rng(7)
    fvals = rng.standard_normal((50, 15))
    halves = rng.uniform(0.1, 2.0, 50)
    values, errors = _accel.panel_reduce(fvals, halves)
    for i in range(50):
        k = g = scale = 0.0
        for j in range(15):
            k += _accel.GK_WEIGHTS_K[j] * fvals[i, j]
            g += _accel.GK_WEIGHTS_G[j] * fvals[i, j]
            scale += abs(fvals[i, j])
        assert abs(values[i] - k * halves[i]) <= 1e-15 * scale * halves[i]
        assert abs(errors[i] - abs(k - g) * halves[i]) <= 2e-15 * scale * halves[i]


def test_kahan_sum_beats_naive_on_adversarial_input():
    vals = np.array([1e16, 1.0, -1e16, 1.0] * 50)
    assert _accel.kahan_sum(vals) == 100.0

