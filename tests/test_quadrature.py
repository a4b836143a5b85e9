"""Quadrature: closed-form oracles and error-contract properties."""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from fraclab import quadrature
from fraclab.quadrature import (
    EvaluationReport,
    QuadratureError,
    QuadratureSpec,
    integrate_1d,
    integrate_exterior_ball,
    integrate_radial_singular,
    integrate_radial_unbounded,
    sphere_integrals,
    PANELS_PER_CALL,
    _adaptive,
    _first,
    _frame,
)


class TestSpecValidation:
    def test_rejects_nonpositive_tolerances(self):
        with pytest.raises(QuadratureError):
            QuadratureSpec(rel_tol=0.0)
        with pytest.raises(QuadratureError):
            QuadratureSpec(abs_tol=-1.0)

    @pytest.mark.parametrize("field", ["rel_tol", "abs_tol"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_non_finite_tolerances(self, field, value):
        with pytest.raises(QuadratureError, match="positive and finite"):
            QuadratureSpec(**{field: value})

    def test_rejects_tiny_budget(self):
        with pytest.raises(QuadratureError):
            QuadratureSpec(max_subdivisions=10)

    def test_tolerance_combines_rel_and_abs(self):
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-8)
        assert spec.tolerance(10.0) == 1e-2
        assert spec.tolerance(0.0) == 1e-8


class TestIntegrate1d:
    def test_constant(self, spec):
        rep = integrate_1d(lambda x: np.ones_like(x), 0.0, 1.0, spec)
        assert abs(rep.value - 1.0) < 1e-14
        assert rep.converged

    def test_sine(self, spec):
        rep = integrate_1d(np.sin, 0.0, np.pi, spec)
        assert abs(rep.value - 2.0) <= max(rep.error_estimate, 1e-12)

    def test_sqrt_singularity_via_substitution(self, spec):
        # int_0^1 x^{-1/2} dx = 2 after x = w^2
        rep = integrate_1d(lambda w: 2.0 * np.ones_like(w), 0.0, 1.0, spec)
        assert abs(rep.value - 2.0) < 1e-12

    def test_rejects_bad_interval(self, spec):
        with pytest.raises(QuadratureError):
            integrate_1d(np.sin, 1.0, 1.0, spec)

    def test_rejects_non_finite_integrand(self, spec):
        with pytest.raises(QuadratureError):
            integrate_1d(lambda x: 1.0 / x, 0.0, 1.0, spec)

    def test_breakpoints_capture_kinks(self, spec):
        f = lambda x: np.abs(x - 0.3)
        rep = integrate_1d(f, 0.0, 1.0, spec, breakpoints=[0.3])
        exact = 0.5 * (0.3**2 + 0.7**2)
        assert abs(rep.value - exact) < 1e-13

    def test_converged_error_meets_tolerance_contract(self, spec):
        rep = integrate_1d(lambda x: np.exp(-x * x), -3.0, 3.0, spec)
        assert rep.converged
        assert rep.error_estimate <= max(spec.abs_tol, spec.rel_tol * abs(rep.value))

    def test_refinement_monotonicity(self):
        f = lambda x: np.sqrt(np.abs(np.sin(5.0 * x)))
        loose = integrate_1d(f, 0.0, 2.0, QuadratureSpec(rel_tol=1e-4))
        tight = integrate_1d(f, 0.0, 2.0, QuadratureSpec(rel_tol=5e-5))
        assert tight.error_estimate <= loose.error_estimate
        assert abs(tight.value - loose.value) <= (
            tight.error_estimate + loose.error_estimate
        )

    @settings(max_examples=40, deadline=None)
    @given(
        c0=st.floats(-2.0, 2.0),
        c1=st.floats(-2.0, 2.0),
        c2=st.floats(-2.0, 2.0),
        b=st.floats(0.5, 3.0),
    )
    def test_quadratics_are_exact(self, c0, c1, c2, b):
        f = lambda x: c0 + c1 * x + c2 * x * x
        rep = integrate_1d(f, 0.0, b, QuadratureSpec())
        exact = c0 * b + c1 * b * b / 2.0 + c2 * b**3 / 3.0
        assert abs(rep.value - exact) <= 1e-12 * max(1.0, abs(exact))


def _reported(values, errors, evals=1):
    """An integrand report: per-point values and errors, ``evals`` leaf
    evaluations per point, converged."""
    return EvaluationReport(values, errors,
                            np.full(np.shape(values), evals, dtype=int), True)


# Integrands and initial partitions for the batched driver: smooth, kinked
# off the partition, a jump, reports with small errors and with dominating
# errors (and two leaf evaluations per point), a zero integrand and an empty
# partition.
BATCH_CASES = [
    (np.sin, [0.0, np.pi]),
    (lambda x: np.exp(-x * x), [-3.0, 0.0, 3.0]),
    (lambda x: np.abs(x - 0.3), [0.0, 1.0]),
    (lambda x: np.sqrt(np.abs(np.sin(5.0 * x))), [0.0, 0.7, 2.0]),
    (lambda x: (x > 1.0 / 3.0).astype(float), [0.0, 0.25, 1.0]),
    (lambda x: _reported(np.cos(x), 1e-12 * np.ones_like(x)), [0.0, 1.0, 1.5]),
    (lambda x: _reported(x * x, 1e-3 * np.abs(x), 2), [0.0, 0.5, 2.0]),
    (lambda x: np.zeros_like(x), [0.0, 1.0]),
    (np.sin, [1.0, 1.0]),
]


def _padded(partitions):
    # rows of equal length, each partition padded by repeating its last point
    width = max(len(p) for p in partitions)
    return np.array([list(p) + [p[-1]] * (width - len(p)) for p in partitions])


def _batched(cases, sizes=None):
    """The batch integrand of ``cases``: integral i is ``cases[i][0]``;
    ``sizes``, if given, collects the number of abscissae of each call."""
    def batched(x, ids, tol):
        if sizes is not None:
            sizes.append(x.size)
        vals, errs = np.empty_like(x), np.zeros_like(x)
        evals = np.ones(x.shape, dtype=int)
        for i, (g, _) in enumerate(cases):
            sel = ids == i
            if sel.any():
                rep = quadrature._as_report(g(x[sel]))
                vals[sel], errs[sel] = rep.value, rep.error_estimate
                evals[sel] = rep.function_evals
        return EvaluationReport(vals, errs, evals, True)
    return batched


class TestBatchedDriver:
    @pytest.mark.parametrize("rel_tol, max_subdivisions", [(1e-10, 64), (1e-7, 2000)])
    def test_batch_matches_one_integral_at_a_time(self, rel_tol, max_subdivisions):
        sizes = []
        args = (rel_tol, 1e-13, max_subdivisions)
        vals, errs, evals, ok = _adaptive(
            _batched(BATCH_CASES, sizes), _padded([p for _, p in BATCH_CASES]), *args
        )
        oks = []
        for i, (g, p) in enumerate(BATCH_CASES):
            v1, e1, n1, ok1 = _adaptive(lambda x, ids, tol: g(x),
                                        np.array([p]), *args)
            assert vals[i] == v1[0] and errs[i] == e1[0], i
            assert evals[i] == n1[0], i
            oks.append(ok1)
        assert ok == all(oks)
        assert not all(oks)  # the error-dominated report stops unconverged
        assert evals[-1] == 0 and vals[-1] == 0.0
        assert evals[6] % 30 == 0  # two leaf evaluations per Kronrod node
        assert max(sizes) <= 15 * PANELS_PER_CALL

    @pytest.mark.parametrize("order", [
        [8, 7, 6, 5, 4, 3, 2, 1, 0], [3, 0, 6, 8, 1, 5, 2, 7, 4], [2, 2, 6], [4],
    ], ids=["reversed", "shuffled", "repeated", "alone"])
    def test_other_integrals_do_not_change_an_integral(self, order):
        # Reordering, repeating or dropping the other integrals of a batch
        # leaves each integral's value, error and evals bit for bit.
        args = (1e-10, 1e-13, 64)
        full = _adaptive(_batched(BATCH_CASES),
                         _padded([p for _, p in BATCH_CASES]), *args)
        cases = [BATCH_CASES[i] for i in order]
        part = _adaptive(_batched(cases), _padded([p for _, p in cases]), *args)
        for u, v in zip(part[:3], full[:3]):
            assert np.array_equal(u, v[order])

    def test_empty_integral_raises_no_floating_point_error(self):
        # The zero-length partition [1, 1] gets no budget and no points.
        with np.errstate(all="raise"):
            out = _adaptive(_batched(BATCH_CASES),
                            _padded([p for _, p in BATCH_CASES]),
                            1e-10, 1e-13, 64)
        assert out[2][-1] == 0 and out[0][-1] == 0.0

    def test_repeated_points_are_dropped(self):
        # A 2-D array whose rows repeat points (the padding of unequal
        # partitions) gives the array of its deduplicated rows, bit for bit.
        rows = np.array([[0.0, 0.5, 0.5, 1.0, 1.0], [0.0, 0.0, 0.2, 1.0, 1.0]])
        f = lambda x, ids, tol: np.exp((1.0 + ids) * x)
        args = (1e-10, 1e-13, 2000)
        a = _adaptive(f, rows, *args)
        b = _adaptive(f, np.array([np.unique(r) for r in rows]), *args)
        for u, v in zip(a[:3], b[:3]):
            assert np.array_equal(u, v)
        assert a[3] == b[3]

    def test_padded_rows_are_their_integrals_one_at_a_time(self):
        rows = np.array([[0.0, 0.5, 0.5, 1.0, 1.0], [0.0, 0.0, 0.2, 1.0, 1.0]])
        f = lambda x, ids, tol: np.exp((1.0 + ids) * x)
        args = (1e-10, 1e-13, 2000)
        a = _adaptive(f, rows, *args)
        ones = [_adaptive(lambda x, ids, tol, i=i: f(x, ids + i, tol),
                          np.unique(r)[None], *args)
                for i, r in enumerate(rows)]
        for j in range(3):
            assert np.array_equal(a[j], np.concatenate([o[j] for o in ones]))
        assert a[3] == all(o[3] for o in ones)

    def test_zero_integrals_are_rejected(self, spec):
        f = lambda x, ids, tol: np.ones_like(x)
        with pytest.raises(QuadratureError):
            integrate_radial_singular(f, 0.5, 1.0, spec, [])
        with pytest.raises(QuadratureError):
            integrate_radial_unbounded(f, 1.0, 1.0, spec, [])
        with pytest.raises(QuadratureError):
            integrate_exterior_ball(lambda points, norm2m1, ids: ids * 0.0,
                                    np.zeros(2), 0.5, spec, [], support_radius=2.0)


class TestRadialSingular:
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9])
    def test_offset_protocol_closed_form(self, s, spec):
        # int_0^L q^{-s} dq = L^{1-s}/(1-s); the integrand receives the
        # offset q exactly
        L = 1.0
        rep = _first(integrate_radial_singular(
            lambda q, ids, tol: q ** (-s), s, L, spec, [()]))
        exact = L ** (1.0 - s) / (1.0 - s)
        assert abs(rep.value - exact) <= max(rep.error_estimate, 1e-12 * exact)

    def test_s_half_weighted_by_rho(self, spec):
        # int_1^2 (rho-1)^{-1/4} * rho drho, reference by dense graded mesh
        s = 0.25
        rep = _first(integrate_radial_singular(
            lambda q, ids, tol: q ** (-s) * (1.0 + q), s, 1.0, spec, [()]
        ))
        w = np.linspace(0.0, 1.0, 2_000_001) ** (1.0 / (1.0 - s))
        rho = 1.0 + w[1:]
        ref = np.trapezoid((rho - 1.0) ** (-s) * rho, rho)
        assert abs(rep.value - ref) < 5e-6

    def test_offset_argument_is_exact_near_boundary(self, spec):
        # the integrand sees the offset q exactly, so the q^{-s} weight
        # stays finite and the closed form is reproduced
        s = 0.75
        L = 1e-8
        rep = _first(integrate_radial_singular(
            lambda q, ids, tol: q ** (-s), s, L, spec, [()]))
        exact = L ** (1.0 - s) / (1.0 - s)
        assert abs(rep.value - exact) <= 1e-12 * exact + 1e-15

    def test_zero_function(self, spec):
        rep = _first(integrate_radial_singular(
            lambda q, ids, tol: np.zeros_like(q), 0.5, 2.0, spec, [()]
        ))
        assert rep.value == 0.0

    def test_rejects_bad_parameters(self, spec):
        with pytest.raises(QuadratureError):
            integrate_radial_singular(lambda q, ids, tol: q, 0.5, 0.0, spec, [()])
        with pytest.raises(QuadratureError):
            integrate_radial_singular(lambda q, ids, tol: q, 1.0, 1.0, spec, [()])
        with pytest.raises(QuadratureError):
            integrate_radial_singular(lambda q, ids, tol: q, -1.0, 1.0, spec, [()])


class TestRadialUnbounded:
    def test_inverse_square(self, spec):
        rep = _first(integrate_radial_unbounded(
            lambda r, ids, tol: r**-2.0, 1.0, 1.0, spec, [spec.abs_tol]))
        assert abs(rep.value - 1.0) <= max(rep.error_estimate, 1e-12)

    def test_tail_of_constant_matches_antiderivative(self, spec):
        # int_{1/2}^inf r^{-2} dr = 2 (the s = 1/2 tail weight)
        rep = _first(integrate_radial_unbounded(
            lambda r, ids, tol: r**-2.0, 0.5, 1.0, spec, [spec.abs_tol]))
        assert abs(rep.value - 2.0) <= max(rep.error_estimate, 1e-11)

    def test_slow_decay_uses_endpoint_flattening(self, spec):
        # decay 0.5: int_1^inf r^{-1.5} dr = 2
        rep = _first(integrate_radial_unbounded(
            lambda r, ids, tol: r**-1.5, 1.0, 0.5, spec, [spec.abs_tol]))
        assert abs(rep.value - 2.0) <= max(rep.error_estimate, 1e-10)
        assert rep.converged

    def test_zero(self, spec):
        rep = _first(integrate_radial_unbounded(
            lambda r, ids, tol: np.zeros_like(r), 1.0, 1.0, spec, [spec.abs_tol]
        ))
        assert rep.value == 0.0

    def test_rejects_nonpositive_decay(self, spec):
        with pytest.raises(QuadratureError):
            integrate_radial_unbounded(lambda r, ids, tol: r, 1.0, 0.0, spec,
                                       [spec.abs_tol])

    @pytest.mark.parametrize("decay", [1.0, 0.5])
    @pytest.mark.parametrize("rho0", [2.001, 3.0, 40.0])
    def test_breakpoint_resolves_a_far_jump(self, decay, rho0, spec):
        # int_R^inf 1_{rho > rho0} rho^{-2} drho = 1/rho0: the jump maps to a
        # panel end, v = R/rho0 (z = v^decay), and the rule is exact.  Blind,
        # the rule misses the jump at 2.001 and returns 0.5 with an estimate
        # of 3e-17.
        rep = _first(integrate_radial_unbounded(
            lambda r, ids, tol: (r > rho0) * r**-2.0, 2.0, decay, spec,
            [spec.abs_tol], [(rho0,)]))
        assert rep.converged
        assert abs(rep.value - 1.0 / rho0) <= 4.0 * math.ulp(1.0 / rho0)

    @pytest.mark.parametrize("decay, value, error, evals", [
        (1.0, [0.3333333275733019, 0.25], [2.3888210967163927e-08, 0.0], 630),
        (0.5, [0.33333333720478137, 0.250000015931689],
         [2.029189985440982e-08, 1.7573301219663888e-08], 1260),
    ])
    def test_no_far_breakpoint_keeps_the_partition(self, decay, value, error,
                                                   evals, spec, monkeypatch):
        # No breakpoints, or only radii at or inside R, leave every integral
        # the partition 0, 0.5, 1 and the pinned result of the blind rule,
        # which bisects toward the jumps at 3 and 4 (v = 0.5 for decay 1).
        rows = []
        integrate = quadrature._integrate

        def spy(f, partitions, *args):
            rows.extend(partitions)
            return integrate(f, partitions, *args)

        monkeypatch.setattr(quadrature, "_integrate", spy)
        f = lambda r, ids, tol: (r > 3.0 + ids) * r**-2.0
        for bps in (None, [(), (2.0, 1.5)]):
            rep = integrate_radial_unbounded(f, 2.0, decay, spec,
                                             [spec.abs_tol] * 2, bps)
            assert rep.value.tolist() == value
            assert rep.error_estimate.tolist() == error
            assert (rep.function_evals, rep.converged) == (evals, True)
        assert len(rows) == 4
        assert all(list(p) == [0.0, 0.5, 1.0] for p in rows)

    def test_rejects_breakpoints_that_do_not_match_the_integrals(self, spec):
        with pytest.raises(QuadratureError, match="one sequence"):
            integrate_radial_unbounded(lambda r, ids, tol: r**-2.0, 1.0, 1.0, spec,
                                       [spec.abs_tol] * 2, [(3.0,)])


def _assert_share(tol_times_factor_times_length, abs_tol):
    want = quadrature.INNER_SHARE * np.asarray(abs_tol)
    got = np.asarray(tol_times_factor_times_length)
    assert got.size and np.all(np.abs(got - want) <= 1e-14 * want)


class TestErrorBudget:
    """Each point's tol times the factor that multiplies its value and the
    length of its integral's interval is INNER_SHARE of the integral's
    abs_tol."""

    @staticmethod
    def _recording(calls, f):
        def g(x, ids, tol):
            calls.append((x, ids, tol))
            return f(x)
        return g

    def test_adaptive(self):
        calls = []
        parts = np.array([[0.0, 0.5, 2.0], [-1.0, 0.0, 0.3]])
        abs_tol = np.array([1e-9, 3e-7])
        _adaptive(self._recording(calls, np.exp), parts, 1e-12, abs_tol, 2000)
        x, ids, tol = map(np.concatenate, zip(*calls))
        _assert_share(tol * (parts[:, -1] - parts[:, 0])[ids], abs_tol[ids])

    def test_radial_singular(self, spec):
        # q = w^{1/(1-s)} on w in (0, L^{1-s}): the Jacobian is
        # q^s / (1 - s)
        calls, s, L = [], 0.5, 2.0
        integrate_radial_singular(self._recording(calls, np.cos), s, L, spec,
                                  [(), (0.5,)])
        q, ids, tol = map(np.concatenate, zip(*calls))
        _assert_share(tol * q**s / (1.0 - s) * L ** (1.0 - s),
                      np.full(q.size, spec.abs_tol))

    @pytest.mark.parametrize("decay", [2.0, 0.5])
    def test_radial_unbounded(self, decay, spec):
        # rho = R / v on v in (0, 1]: the Jacobian is R / v^2, times
        # (1 / decay) z^{1/decay - 1} for v = z^{1/decay} when decay < 1
        calls, R = [], 2.0
        abs_tol = np.array([1e-9, 3e-7])
        integrate_radial_unbounded(self._recording(calls, lambda r: r**-3.0),
                                   R, decay, spec, abs_tol)
        rho, ids, tol = map(np.concatenate, zip(*calls))
        v = R / rho
        factor = R / v**2
        if decay < 1.0:
            factor *= v ** (1.0 - decay) / decay
        _assert_share(tol * factor, abs_tol[ids])

    def test_nested_sphere(self, rng, monkeypatch):
        # d = 3: the polar rule over (0, pi) hands each polar angle phi its
        # tol, and the circle there, weighted by sin phi, takes tol / sin phi
        # as its abs_tol.
        adaptive, depth, polar, circles = quadrature._adaptive, [0], [], []

        def spy(f, partitions, rel_tol, abs_tol, max_subdivisions):
            level = depth[0]
            if level == 1:
                circles.append(np.array(abs_tol))

            def f_spy(x, ids, tol):
                if level == 0:
                    polar.append((x, ids, tol))
                depth[0] += 1
                try:
                    return f(x, ids, tol)
                finally:
                    depth[0] -= 1

            return adaptive(f_spy, partitions, rel_tol, abs_tol,
                            max_subdivisions)

        monkeypatch.setattr(quadrature, "_adaptive", spy)
        frame, a = _random_frame(rng, 3), rng.standard_normal(3)
        abs_tol = np.array([1e-9, 3e-7])
        sphere_integrals(lambda y, ids: np.exp(y @ a), frame,
                         np.array([0.5, 2.0]), None,
                         QuadratureSpec(rel_tol=1e-10), abs_tol=abs_tol)
        assert len(polar) == len(circles) > 0
        phi, ids, _ = map(np.concatenate, zip(*polar))
        _assert_share(np.concatenate(circles) * np.sin(phi) * np.pi,
                      abs_tol[ids])


def _poisson_F(x, s, d):
    x = np.asarray(x, dtype=float)
    nx = float(np.linalg.norm(x))
    c = math.gamma(0.5 * d) * math.sin(math.pi * s) / math.pi ** (0.5 * d + 1.0)
    one_minus = (1.0 - nx) * (1.0 + nx)

    def F(points, norm2m1, ids):
        diff = points - x[None, :]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        return c * (one_minus / norm2m1) ** s / dist2 ** (0.5 * d)

    return F


def _random_frame(rng, d):
    return list(np.linalg.qr(rng.standard_normal((d, d)))[0].T)


def _near_axis_directions(d):
    # +-e_i tilted by eps toward the next axis, the remaining components
    # 0, 1e-20 or eps; then a direction within 1e-6 of -e1, where
    # Gram-Schmidt started from e1 loses orthogonality
    out = []
    for i in range(d):
        for sign in (1.0, -1.0):
            for eps in (1e-3, 7.94e-7, 1e-9, 1e-13):
                for rest in (0.0, 1e-20, eps):
                    v = np.full(d, rest)
                    v[i], v[(i + 1) % d] = sign, eps
                    out.append(v)
    if d == 3:
        out.append(np.array([-0.9131337914689075, 7.940973710992278e-07, 0.0]))
    return out


class TestFrame:
    @pytest.mark.parametrize("d", [2, 3])
    def test_orthonormal_along_near_axis_directions(self, d):
        for v in _near_axis_directions(d):
            frame = np.array(_frame(0.03 * v, d))
            assert np.abs(frame @ frame.T - np.eye(d)).max() <= 1e-14, v
            assert np.allclose(frame[0], v / np.linalg.norm(v), atol=1e-15), v

    def test_axes_at_the_origin(self):
        assert np.array_equal(np.array(_frame(np.zeros(3), 3)), np.eye(3))


class TestSphereIntegrals:
    def test_sphere_area(self):
        # 2 pi^{d/2} / Gamma(d/2), and in d <= 3 bitwise the values 2, 2 pi
        # and 4 pi
        for d in range(1, 9):
            exact = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
            assert abs(quadrature._sphere_area(d) - exact) <= 1e-15 * exact, d
        assert [quadrature._sphere_area(d) for d in (1, 2, 3)] == [
            2.0, 2.0 * np.pi, 4.0 * np.pi]

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_moments_in_a_random_frame(self, d, rng):
        frame = _random_frame(rng, d)
        radii = np.array([0.3, 1.0, 2.5, 10.0])
        parts = np.tile([0.0, np.pi], (radii.size, 1))
        rule = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)
        area = 2.0 * math.pi ** (d / 2) / math.gamma(d / 2)
        a = rng.standard_normal(d)

        def const(y, ids):
            # one call on exactly mirrored pairs: the halves differ along the
            # frame's last vector only
            n = len(y) // 2
            assert np.array_equal(ids[:n], ids[n:])
            assert np.allclose(np.linalg.norm(y, axis=1), radii[ids], rtol=1e-14)
            diff, mid = y[:n] - y[n:], y[:n] + y[n:]
            assert np.allclose(diff - np.outer(diff @ frame[-1], frame[-1]), 0.0,
                               atol=1e-14 * radii.max())
            assert np.allclose(mid @ frame[-1], 0.0, atol=1e-14 * radii.max())
            return np.ones(len(y))

        rep = sphere_integrals(const, frame, radii, parts, rule)
        assert rep.converged
        assert np.allclose(rep.value, area, rtol=1e-12, atol=0.0)

        rep = sphere_integrals(lambda y, ids: (y @ a) ** 2, frame, radii,
                               None, rule)
        exact = radii**2 * (a @ a) * area / d
        assert rep.converged
        assert np.all(np.abs(rep.value - exact)
                      <= rep.error_estimate + 1e-10 * exact)

        if d == 3:
            # exp(y . frame[0]) is symmetric about the axis of frame[0]: the
            # polar level alone gives 4 pi sinh(r) / r, as the full rule does
            def along_axis(y, ids):
                return np.exp(y @ frame[0])

            exact = 4.0 * np.pi * np.sinh(radii) / radii
            for axisymmetric in (True, False):
                rep = sphere_integrals(along_axis, frame, radii, None, rule,
                                       axisymmetric=axisymmetric)
                assert rep.converged
                assert np.all(np.abs(rep.value - exact)
                              <= rep.error_estimate + 1e-10 * exact)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("axisymmetric", [False, True])
    @pytest.mark.parametrize("evals", [None, 3])
    def test_function_evals_are_the_rows_of_g(self, d, axisymmetric, evals, rng):
        # per radius: the rows handed to g, or the evaluations g reports
        frame = _random_frame(rng, d)
        radii = np.array([0.5, 2.0, 3.0])
        rows = np.zeros(radii.size, dtype=int)

        def g(y, ids):
            rows[:] += np.bincount(ids, minlength=radii.size)
            vals = np.exp(y @ frame[0])
            return vals if evals is None else _reported(vals, 0.0 * vals, evals)

        rep = sphere_integrals(g, frame, radii, None,
                               QuadratureSpec(rel_tol=1e-8),
                               axisymmetric=axisymmetric)
        assert rep.converged
        assert rows.min() > 0
        assert np.array_equal(rep.function_evals, (evals or 1) * rows)

    def test_longitude_at_its_panel_cap_is_reported(self, rng, monkeypatch):
        # cos(K alpha) in the longitude alpha alone: every longitude integral
        # has the same value, so the polar integral converges, while the
        # oscillation keeps each longitude integral at its panel cap.
        frame = _random_frame(rng, 3)
        flags = []

        def spy(*args):
            out = _adaptive(*args)
            flags.append(out[3])
            return out

        def g(y, ids):
            alpha = np.arctan2(np.abs(y @ frame[2]), y @ frame[1])
            return 1.0 + 3e-10 * np.cos(100000.5 * alpha)

        monkeypatch.setattr(quadrature, "_adaptive", spy)
        rule = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-9, max_subdivisions=64)
        rep = sphere_integrals(
            g, frame, np.array([1.0]), np.array([[0.0, np.pi]]), rule
        )
        # the longitude batch, then the polar one, which carries its flag up
        assert flags == [False, False]
        assert abs(rep.value[0] - 4.0 * np.pi) <= rep.error_estimate[0] + 1e-9
        assert not rep.converged

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_the_flag_keeps_the_integral_of_a_symmetric_g(self, d, rng):
        # g, symmetric about the line of each radius's frame[0], gets the
        # same integral from the flagged rule as from the full recursion,
        # within their summed estimates, at fewer evaluations per radius.
        frames = np.array([_random_frame(rng, d) for _ in range(4)])
        radii = np.array([0.5, 2.0, 3.0, 1.5])
        rule = QuadratureSpec(rel_tol=1e-8)

        def g(y, ids):
            axial = np.einsum("ij,ij->i", y, frames[ids, 0])
            return np.exp(axial) * (1.0 + np.einsum("ij,ij->i", y, y) - axial**2)

        flagged = sphere_integrals(g, frames, radii, None, rule, axisymmetric=True)
        full = sphere_integrals(g, frames, radii, None, rule)
        assert flagged.converged and full.converged
        assert np.all(np.abs(flagged.value - full.value)
                      <= flagged.error_estimate + full.error_estimate)
        assert np.all(flagged.function_evals < full.function_evals)

    def test_declarations_are_keyword_only(self):
        # A value passed positionally after the rule cannot land in a flag.
        with pytest.raises(TypeError):
            sphere_integrals(lambda y, ids: np.ones(len(y)), np.eye(2),
                             np.array([1.0]), None, QuadratureSpec(),
                             np.array([1e-10]))

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("axisymmetric", [False, True])
    def test_one_frame_per_radius_is_one_call_per_frame(self, d, axisymmetric, rng):
        # An (n, d, d) array of frames: each radius is integrated in its own
        # frame, as a call with that frame alone integrates it.
        frames = np.array([_random_frame(rng, d) for _ in range(3)])
        radii = np.array([0.5, 2.0, 3.0])
        a = rng.standard_normal(d)
        rule = QuadratureSpec(rel_tol=1e-8)

        def g(y, ids):
            return np.exp(y @ a) * (1.0 + (y @ a) ** 2)

        rep = sphere_integrals(g, frames, radii, None, rule,
                               axisymmetric=axisymmetric)
        one = [sphere_integrals(g, frames[i], radii[i:i + 1], None, rule,
                                axisymmetric=axisymmetric) for i in range(3)]
        assert rep.value.shape == (3,)
        assert np.array_equal(rep.value, [r.value[0] for r in one])
        assert np.array_equal(rep.error_estimate,
                              [r.error_estimate[0] for r in one])
        assert np.array_equal(rep.function_evals,
                              [r.function_evals[0] for r in one])
        assert rep.converged == all(r.converged for r in one)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_other_radii_do_not_change_a_radius(self, d, rng):
        # Reordering, repeating or dropping the other radii of a call, each
        # in its own frame, leaves each radius's value, error and evals bit
        # for bit.
        frames = np.array([_random_frame(rng, d) for _ in range(4)])
        radii = np.array([0.5, 2.0, 3.0, 1.5])
        a = rng.standard_normal(d)
        rule = QuadratureSpec(rel_tol=1e-8)

        def g(y, ids):
            return np.exp(y @ a) * (1.0 + (y @ a) ** 2)

        full = sphere_integrals(g, frames, radii, None, rule)
        order = [3, 0, 3, 1]
        part = sphere_integrals(g, frames[order], radii[order], None, rule)
        assert np.array_equal(part.value, full.value[order])
        assert np.array_equal(part.error_estimate, full.error_estimate[order])
        assert np.array_equal(part.function_evals, full.function_evals[order])

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_end_map_resolves_a_power_at_the_polar_ends(self, d, a, rng):
        # g = |y'|^a with y' the part of y normal to frame[0]: its integral
        # is r^a |S^{d-2}| B(1/2, (a+d-1)/2).  Radius 0.5 has the interior
        # cuts 0.1, 1 and 3, radius 2 none (the halves of (0, pi) are mapped).
        frame = np.array(_random_frame(rng, d))
        radii = np.array([0.5, 2.0])
        parts = np.array([[0.0, 0.1, 1.0, 3.0, np.pi], [0.0] + [np.pi] * 4])
        rule = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-13)

        def g(y, ids):
            return np.linalg.norm(y @ frame[1:].T, axis=1) ** a

        exact = (radii**a * quadrature._sphere_area(d - 1)
                 * scipy.special.beta(0.5, 0.5 * (a + d - 1)))

        def call(rows, end_exponent):
            return sphere_integrals(g, frame, radii[rows], parts[rows], rule,
                                    axisymmetric=True, end_exponent=end_exponent)

        mapped, plain = call([0, 1], a), call([0, 1], None)
        assert mapped.converged
        assert np.all(np.abs(mapped.value - exact)
                      <= mapped.error_estimate + 1e-13 * exact)
        assert np.all(mapped.function_evals < plain.function_evals)
        # each radius of the call is mapped as it is alone, bit for bit
        for i in range(2):
            one = call([i], a)
            assert mapped.value[i] == one.value[0]
            assert mapped.error_estimate[i] == one.error_estimate[0]
            assert mapped.function_evals[i] == one.function_evals[0]

    @pytest.mark.parametrize("a", [0.0, 1.0, -0.5, np.inf])
    def test_end_exponents_outside_zero_one_are_rejected(self, a):
        with pytest.raises(QuadratureError, match="end exponents"):
            sphere_integrals(lambda y, ids: np.ones(len(y)), np.eye(2),
                             np.array([1.0]), None, QuadratureSpec(),
                             end_exponent=a)


class TestExteriorBall:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kernel_normalization_sample(self, d, spec):
        s = 0.5
        x = np.zeros(d)
        x[0] = 0.99
        rep = _first(integrate_exterior_ball(
            _poisson_F(x, s, d), x, s, spec, [()], decay_exponent=2.0 * s,
            axisymmetric=(d == 3),
        ))
        assert abs(rep.value - 1.0) <= 1e-7

    def test_zero_integrand(self, spec):
        def F(points, norm2m1, ids):
            return np.zeros(points.shape[0])

        rep = _first(integrate_exterior_ball(
            F, np.array([0.0, 0.0]), 0.5, spec, [()], support_radius=3.0
        ))
        assert rep.value == 0.0

    def test_odd_integrand_cancels_exactly(self, spec):
        # odd in y_2 with x on the e1-axis: mirrored angular nodes cancel
        def F(points, norm2m1, ids):
            return points[:, 1] / (1.0 + norm2m1)

        rep = _first(integrate_exterior_ball(
            F, np.array([0.4, 0.0]), 0.5, spec, [()], support_radius=5.0
        ))
        assert rep.value == 0.0

    def test_unconverged_angular_integral_is_reported(self):
        # A square wave of 40 periods in the polar angle, phase-shifted off
        # the angular breakpoints: every inner integral hits its panel cap
        # while the outer estimate alone meets the tolerance.
        def F(points, norm2m1, ids):
            theta = np.arctan2(points[:, 1], points[:, 0])
            return 1.0 + np.floor(40.0 * theta / np.pi + 0.3) % 2

        spec = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-12, max_subdivisions=64)
        rep = _first(integrate_exterior_ball(
            F, np.array([0.0, 0.0]), 0.5, spec, [()], support_radius=2.0
        ))
        assert rep.error_estimate <= spec.tolerance(rep.value)
        assert not rep.converged

    @pytest.mark.parametrize("d, axisymmetric, support", [
        (1, False, None), (2, False, None), (2, False, 3.0),
        (3, True, None), (3, False, None),
    ])
    def test_k_integrals_are_k_one_integral_calls(self, d, axisymmetric, support):
        # Each integral gets its own radial and angular breakpoints, under
        # either far field: the same values, errors, evals and flags as
        # alone, bit for bit.
        s = 0.5
        x = np.array([0.6, -0.3, 0.2][:d])
        P = _poisson_F(x, s, d)
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
        far = ({"decay_exponent": 2.0 * s} if support is None
               else {"support_radius": support})
        weight, cut = np.array([1.0, 2.5, 0.5]), np.array([0.3, 0.6, 0.3])
        radial = [(1.5, 1.7), (1.2,), ()]

        def call(rows):
            return integrate_exterior_ball(
                lambda points, norm2m1, ids: weight[rows[ids]] * P(points, norm2m1, ids),
                x, s, spec, [radial[i] for i in rows],
                angular_breakpoints=lambda rho, ids: np.column_stack(
                    [cut[rows[ids]] / rho, np.full(rho.shape, np.nan)]),
                axisymmetric=axisymmetric, **far)

        rep = call(np.arange(3))
        one = [call(np.array([i])) for i in range(3)]
        assert rep.value.shape == rep.error_estimate.shape == (3,)
        assert np.array_equal(rep.value, [r.value[0] for r in one])
        assert np.array_equal(rep.error_estimate,
                              [r.error_estimate[0] for r in one])
        assert rep.function_evals == sum(r.function_evals for r in one)
        assert rep.converged == all(r.converged for r in one)

    @pytest.mark.parametrize("d, axisymmetric, support", [
        (1, False, None), (2, False, 3.0), (3, True, None), (3, False, None),
    ])
    def test_point_order_does_not_change_a_point(self, d, axisymmetric, support):
        # The points of x_eval in reverse order: each point's integral keeps
        # its value and error bit for bit, and the batch its evals and flag.
        s = 0.5
        x = np.zeros((4, d))
        x[1, 0], x[2, 0], x[3] = 0.5, -0.99, (1.0 - 1e-4) / math.sqrt(d)
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
        far = ({"decay_exponent": 2.0 * s} if support is None
               else {"support_radius": support})
        P = [_poisson_F(p, s, d) for p in x]

        def call(rows):
            def batch(points, norm2m1, ids):
                out = np.empty(len(points))
                for i in np.unique(ids):
                    sel = ids == i
                    out[sel] = P[rows[i]](points[sel], norm2m1[sel], ids[sel])
                return out * (2.0 + np.tanh(points[:, 0]))
            return integrate_exterior_ball(batch, x[rows], s, spec, [()] * len(rows),
                                           axisymmetric=axisymmetric, **far)

        rep = call(np.arange(4))
        rev = call(np.arange(3, -1, -1))
        assert np.array_equal(rev.value, rep.value[::-1])
        assert np.array_equal(rev.error_estimate, rep.error_estimate[::-1])
        assert rev.function_evals == rep.function_evals
        assert rev.converged == rep.converged

    @pytest.mark.parametrize("d, axisymmetric, support", [
        (1, False, None), (2, False, 3.0), (3, True, None), (3, False, None),
    ])
    def test_one_point_per_integral_is_one_call_per_point(self, d, axisymmetric,
                                                          support):
        # x_eval of shape (k, d): integral i about its own point x_i, with its
        # own frame and gradings, as a one-point call computes it; at 0, on
        # and off the first axis, from 1 - |x| = 0.5 to 1e-4.
        s = 0.5
        x = np.zeros((4, d))
        x[1, 0], x[2, 0], x[3] = 0.5, -0.99, (1.0 - 1e-4) / math.sqrt(d)
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
        far = ({"decay_exponent": 2.0 * s} if support is None
               else {"support_radius": support})
        P = [_poisson_F(p, s, d) for p in x]

        def F(rows):
            def batch(points, norm2m1, ids):
                out = np.empty(len(points))
                for i in np.unique(ids):
                    sel = ids == i
                    out[sel] = P[rows[i]](points[sel], norm2m1[sel], ids[sel])
                return out * (2.0 + np.tanh(points[:, 0]))
            return batch

        rep = integrate_exterior_ball(F(np.arange(4)), x, s, spec, [()] * 4,
                                      axisymmetric=axisymmetric, **far)
        one = [integrate_exterior_ball(F([i]), x[i], s, spec, [()],
                                       axisymmetric=axisymmetric, **far)
               for i in range(4)]
        assert rep.value.shape == rep.error_estimate.shape == (4,)
        assert np.array_equal(rep.value, [r.value[0] for r in one])
        assert np.array_equal(rep.error_estimate,
                              [r.error_estimate[0] for r in one])
        assert rep.function_evals == sum(r.function_evals for r in one)
        assert rep.converged == all(r.converged for r in one)

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_flag_holds_for_every_integral_of_a_call(self, d):
        # The kernel P(x_i, .) is symmetric about the line through 0 and x_i,
        # so every integral of a flagged call may take the polar-only rule at
        # its x_i (off the axes too): kernel mass 1, as alone, at fewer
        # evaluations than the full recursion.
        s = 0.5
        x = np.zeros((3, d))
        x[1, 0], x[2] = 0.5, 0.4 / math.sqrt(d)
        P = [_poisson_F(p, s, d) for p in x]
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)

        def F(rows):
            def batch(points, norm2m1, ids):
                out = np.empty(len(points))
                for i in np.unique(ids):
                    sel = ids == i
                    out[sel] = P[rows[i]](points[sel], norm2m1[sel], ids[sel])
                return out
            return batch

        def call(rows, axisymmetric):
            return integrate_exterior_ball(F(rows), x[rows], s, spec,
                                           [()] * len(rows), decay_exponent=2.0 * s,
                                           axisymmetric=axisymmetric)

        rep = call(np.arange(3), True)
        one = [call([i], True) for i in range(3)]
        full = [call([i], False) for i in range(3)]
        assert np.array_equal(rep.value, [r.value[0] for r in one])
        assert np.array_equal(rep.error_estimate,
                              [r.error_estimate[0] for r in one])
        assert rep.function_evals == sum(r.function_evals for r in one)
        assert rep.converged and np.all(np.abs(rep.value - 1.0) <= 1e-12)
        for r, f in zip(one, full):
            assert r.function_evals < f.function_evals

    def test_rejects_points_that_do_not_match_the_integrals(self, spec):
        def F(points, norm2m1, ids):
            return np.zeros(points.shape[0])

        for x in (np.zeros((3, 2)), np.zeros((2, 2, 2))):
            with pytest.raises(QuadratureError, match="one per integral"):
                integrate_exterior_ball(F, x, 0.5, spec, [(), ()],
                                        support_radius=2.0)
        with pytest.raises(QuadratureError, match="open unit ball"):
            integrate_exterior_ball(F, np.array([[0.0, 0.0], [np.nan, 0.0]]),
                                    0.5, spec, [(), ()], support_radius=2.0)

    def test_requires_far_field_declaration(self, spec):
        def F(points, norm2m1, ids):
            return np.zeros(points.shape[0])

        with pytest.raises(QuadratureError):
            integrate_exterior_ball(F, np.array([0.0, 0.0]), 0.5, spec, [()])

    def test_rejects_exterior_evaluation_point(self, spec):
        def F(points, norm2m1, ids):
            return np.zeros(points.shape[0])

        with pytest.raises(QuadratureError):
            integrate_exterior_ball(
                F, np.array([1.5]), 0.5, spec, [()], support_radius=2.0
            )

    def test_rejects_dimension_zero(self, spec):
        def F(points, norm2m1, ids):
            return np.zeros(points.shape[0])

        with pytest.raises(QuadratureError):
            integrate_exterior_ball(
                F, np.zeros(0), 0.5, spec, [()], support_radius=2.0
            )
