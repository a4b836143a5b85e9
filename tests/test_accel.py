"""The Gauss-Kronrod constants and the numeric kernels of ``fraclab._accel``."""

import os
import subprocess
import sys

import numpy as np

import fraclab
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


def test_poisson_kernel_values_match_formula():
    y2 = np.array([4.0, 9.0])
    dist2 = np.array([4.0, 16.0])
    out = _accel.poisson_kernel_values(1.0, y2, dist2, 0.5, 1, 1.0 / np.pi)
    expect = (1.0 / np.pi) * (1.0 / (y2 - 1.0)) ** 0.5 / np.sqrt(dist2)
    np.testing.assert_allclose(out, expect, rtol=1e-15)


def test_kahan_sum_beats_naive_on_adversarial_input():
    vals = np.array([1e16, 1.0, -1e16, 1.0] * 50)
    assert _accel.kahan_sum(vals) == 100.0


def test_fallback_path_gives_identical_results():
    """``FRACLAB_NO_NUMBA=1`` turns numba off and changes no result.

    A fresh interpreter runs with ``FRACLAB_NO_NUMBA=1`` on top of this
    process's environment and imports the same ``fraclab`` source tree. It
    checks that the variable turns the switch off and that ``panel_reduce``
    (plain numpy matrix-vector products on either path) gives the same bits
    as in this process.
    """
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(fraclab.__file__)))
    env = dict(os.environ, FRACLAB_NO_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    code = (
        "import numpy as np\n"
        "import fraclab\n"
        "from fraclab import _accel\n"
        "assert not _accel.NUMBA_ACTIVE\n"
        "fv = (_accel.GK_NODES**7 - _accel.GK_NODES)[None, :]\n"
        "v, e = _accel.panel_reduce(fv, np.array([0.5]))\n"
        "print(fraclab.__file__)\n"
        "print(repr(float(v[0])), repr(float(e[0])))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    child_file, values = out.stdout.splitlines()
    assert child_file == fraclab.__file__
    fv = (_accel.GK_NODES**7 - _accel.GK_NODES)[None, :]
    v, e = _accel.panel_reduce(fv, np.array([0.5]))
    got_v, got_e = (float(eval(tok)) for tok in values.split())
    assert got_v == float(v[0])
    assert got_e == float(e[0])
