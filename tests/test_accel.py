"""The Gauss-Kronrod constants and the numeric kernels of ``fraclab._accel``."""

import numpy as np
import pytest

from fraclab import _accel


def test_kronrod_weights_sum_to_two():
    assert abs(_accel.GK_WEIGHTS_K.sum() - 2.0) < 1e-14
    assert abs(_accel.GK_WEIGHTS_G.sum() - 2.0) < 1e-14


def test_panel_reduce_integrates_polynomials_exactly():
    # Gauss-7 is exact through degree 13, Kronrod-15 through degree 22; a
    # degree-9 polynomial must give zero embedded error.
    fvals = (_accel.GK_NODES**9 + 3.0 * _accel.GK_NODES**2)[None, :]
    values, errors, folded = _accel.panel_reduce(fvals, np.zeros((1, 15)),
                                                 np.array([1.0]))
    assert abs(values[0] - 2.0) < 1e-14
    assert errors[0] < 1e-13
    assert folded[0] == 0.0


def test_panel_reduce_flags_rough_integrands():
    fvals = np.abs(_accel.GK_NODES)[None, :]
    _, errors, _ = _accel.panel_reduce(fvals, np.zeros((1, 15)), np.array([1.0]))
    assert errors[0] > 1e-6


def test_panel_reduce_matches_the_loop_reference():
    # einsum sums each row in its own order, not the loop's, so allow a few
    # ulps of the absolute weighted sum.
    rng = np.random.default_rng(7)
    fvals = rng.standard_normal((50, 15))
    ferrs = rng.uniform(0.0, 1e-6, (50, 15))
    halves = rng.uniform(0.1, 2.0, 50)
    values, errors, folded = _accel.panel_reduce(fvals, ferrs, halves)
    for i in range(50):
        k = g = e = scale = 0.0
        for j in range(15):
            k += _accel.GK_WEIGHTS_K[j] * fvals[i, j]
            g += _accel.GK_WEIGHTS_G[j] * fvals[i, j]
            e += _accel.GK_WEIGHTS_K[j] * ferrs[i, j]
            scale += abs(fvals[i, j])
        assert abs(values[i] - k * halves[i]) <= 1e-15 * scale * halves[i]
        assert abs(errors[i] - abs(k - g) * halves[i]) <= 2e-15 * scale * halves[i]
        assert abs(folded[i] - e * halves[i]) <= 1e-15 * e * halves[i]


def test_panel_reduce_rounds_a_row_as_it_does_alone():
    # A panel's three numbers do not depend on where its row sits in the
    # array or on how many rows there are, so a batch of integrals gets
    # each integral's own bits.  Offsets that are not multiples of 4 are the
    # ones a matrix-vector product rounds differently.
    rng = np.random.default_rng(11)
    fvals = rng.standard_normal((300, 15)) * 10.0 ** rng.uniform(-12, 12, (300, 15))
    ferrs = np.abs(fvals) * 10.0 ** rng.uniform(-16, -8, (300, 15))
    halves = 10.0 ** rng.uniform(-6, 1, 300)
    full = _accel.panel_reduce(fvals, ferrs, halves)
    for n in (1, 2, 3, 5, 64):
        for s in (1, 2, 3, 5, 7, 10, 33, 97, 131, 230):
            rows = slice(s, s + n)
            part = _accel.panel_reduce(fvals[rows], ferrs[rows], halves[rows])
            for a, b in zip(part, full):
                assert np.array_equal(a, b[rows]), (n, s)


@pytest.mark.parametrize("layout", ["reversed", "shuffled", "tiled", "strided"])
def test_panel_reduce_gives_a_row_its_bits_in_any_row_order(layout):
    # The rows of a batch may come in any order, repeat, or be every other
    # row of a larger array: each keeps its three numbers, bit for bit.
    rng = np.random.default_rng(13)
    fvals = rng.standard_normal((200, 15)) * 10.0 ** rng.uniform(-12, 12, (200, 15))
    ferrs = np.abs(fvals) * 10.0 ** rng.uniform(-16, -8, (200, 15))
    halves = 10.0 ** rng.uniform(-6, 1, 200)
    full = _accel.panel_reduce(fvals, ferrs, halves)
    if layout == "strided":
        rows = np.arange(200)

        def take(a):
            wide = np.zeros((2 * len(a),) + a.shape[1:])
            wide[1::2] = a
            return wide[1::2]
    else:
        rows = {"reversed": np.arange(199, -1, -1),
                "shuffled": rng.permutation(200),
                "tiled": np.tile(np.arange(200), 2)}[layout]

        def take(a):
            return a[rows]
    part = _accel.panel_reduce(take(fvals), take(ferrs), take(halves))
    for a, b in zip(part, full):
        assert np.array_equal(a, b[rows])


def test_kahan_sum_beats_naive_on_adversarial_input():
    vals = np.array([1e16, 1.0, -1e16, 1.0] * 50)
    assert _accel.kahan_sum(vals) == 100.0

