"""Poisson kernel, ball solutions, model solutions, and the boundary check."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.special import beta, betainc

from fraclab import ball_poisson, quadrature

from fraclab.ball_poisson import (
    BallProblem,
    DomainError,
    PoissonKernel,
    harmonicity_check,
    interior_to_boundary_check,
    poisson_kernel_eval,
    solve,
    solve_vt,
)
from fraclab.exterior_data import (
    CutoffFunction,
    ExteriorDatum,
    constant_datum,
    halfline_modulus_datum,
    radial_indicator_datum,
    sign_changing_datum,
    transverse_modulus_datum,
)
from fraclab.moduli import ModulusFunction
from fraclab.quadrature import QuadratureSpec, integrate_exterior_ball


class TestKernel:
    def test_normalization_d1_half(self):
        assert abs(PoissonKernel(1, 0.5).normalization - 1.0 / math.pi) < 1e-16

    def test_normalization_lower_bound_d1(self):
        for s in (0.1, 0.3, 0.5, 0.7, 0.9):
            assert PoissonKernel(1, s).normalization >= s * (1.0 - s) / math.pi

    def test_point_value_d1(self):
        # (1/pi) * ((1 - 0) / (4 - 1))^{1/2} / |2 - 0| = 1/(2 pi sqrt(3))
        val = poisson_kernel_eval(PoissonKernel(1, 0.5), [0.0], [2.0])
        assert abs(val - 1.0 / (2.0 * math.pi * math.sqrt(3.0))) < 1e-16
        assert abs(val - 0.09189) < 5e-6

    def test_formula_at_random_points(self, rng):
        k = PoissonKernel(2, 0.3)
        x = np.array([0.2, -0.1])
        y = rng.uniform(-3.0, 3.0, size=(200, 2))
        y = y[np.linalg.norm(y, axis=1) > 1.001]
        got = poisson_kernel_eval(k, x, y)
        ny2 = np.einsum("ij,ij->i", y, y)
        d2 = np.einsum("ij,ij->i", y - x, y - x)
        expect = (
            k.normalization
            * ((1.0 - 0.05) / (ny2 - 1.0)) ** 0.3
            / d2
        )
        np.testing.assert_allclose(got, expect, rtol=1e-13)

    def test_rotation_symmetry_d2(self):
        k = PoissonKernel(2, 0.6)
        th = 0.7
        R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        x = np.array([0.3, 0.4])
        y = np.array([1.5, -0.8])
        a = poisson_kernel_eval(k, x, y)
        b = poisson_kernel_eval(k, R @ x, R @ y)
        assert abs(a - b) < 1e-15

    def test_domain_errors(self):
        k = PoissonKernel(1, 0.5)
        with pytest.raises(DomainError):
            poisson_kernel_eval(k, [1.0], [2.0])
        with pytest.raises(DomainError):
            poisson_kernel_eval(k, [0.0], [0.5])
        with pytest.raises(DomainError, match="dimension mismatch"):
            poisson_kernel_eval(PoissonKernel(2, 0.5), [[0.2, 0.1]], [2.0, 0.0])
        with pytest.raises(DomainError):
            PoissonKernel(0, 0.5)
        with pytest.raises(DomainError):
            PoissonKernel(2, 1.0)

    def test_problem_validates_growth(self):
        from fraclab.exterior_data import ExteriorDatum

        g = ExteriorDatum(
            eval=lambda pts: np.sqrt(np.linalg.norm(pts, axis=1)),
            dimension=2,
            support_radius=None,
            growth_exponent=0.5,
            boundary_bound=1.0,
        )
        # |y|^{1/2} growth outpaces the kernel decay when 2s <= 1/2
        with pytest.raises(DomainError):
            BallProblem(PoissonKernel(2, 0.2), g)

    def test_problem_validates_dimension(self):
        with pytest.raises(DomainError):
            BallProblem(PoissonKernel(1, 0.5), sign_changing_datum(0.5, 2))


class TestSolve:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant_datum_reproduced(self, d, spec):
        problem = BallProblem(PoissonKernel(d, 0.5), constant_datum(1.0, d))
        x = np.zeros(d)
        x[0] = 0.4
        rep = solve(problem, x, spec)
        assert abs(rep.value - 1.0) <= 1e-7

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [(0.5, 0.0, 0.0, 0.0), (0.2, -0.3, 0.1, 0.25)],
                             ids=["on-axis", "off-axis"])
    def test_kernel_mass_d4(self, x, s):
        # the constant datum is symmetric about e1: the polar-only rule on
        # the axis, the full sphere recursion off it
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
        problem = BallProblem(PoissonKernel(4, s), constant_datum(1.0, 4))
        rep = solve(problem, x, spec)
        assert rep.converged
        assert abs(rep.value - 1.0) <= rep.error_estimate

    @pytest.mark.parametrize("s", [0.5, 0.75])
    @pytest.mark.parametrize("x1", [0.0, 0.5, 0.999])
    def test_kernel_mass_d5_on_the_axis(self, x1, s):
        # The full recursion made 236,290,500 evaluations at 0.999 e1 (s = 1/2).
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
        problem = BallProblem(PoissonKernel(5, s), constant_datum(1.0, 5))
        rep = solve(problem, [x1, 0.0, 0.0, 0.0, 0.0], spec)
        assert rep.converged
        assert abs(rep.value - 1.0) <= rep.error_estimate
        assert rep.function_evals <= 236_290_500 // 100

    @pytest.mark.parametrize("d", [5, 8])
    @pytest.mark.parametrize("x1", [0.0, 0.5, 0.999])
    def test_kernel_mass_in_high_d(self, d, x1, spec):
        # The polar-only rule, where rho^{d-1} and the far map's R / v^2
        # multiply each polar integral, whose tolerance must divide them out.
        x = np.zeros(d)
        x[0] = x1
        problem = BallProblem(PoissonKernel(d, 0.25), constant_datum(1.0, d))
        rep = solve(problem, x, spec)
        assert rep.converged
        assert abs(rep.value - 1.0) <= rep.error_estimate

    def test_odd_datum_vanishes_on_the_d3_axis(self):
        # The full recursion at the CLI spec: u = 0 on e1, so only abs_tol
        # binds, and each inner integral must get its share of its parent's.
        problem = BallProblem(PoissonKernel(3, 0.5), sign_changing_datum(0.5, 3))
        rep = solve(problem, [0.99, 0.0, 0.0],
                    QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11))
        assert rep.converged
        assert abs(rep.value) <= rep.error_estimate

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("x", [(0.3, 0.4, 0.5), (0.0, -0.99, 0.0)])
    def test_general_rule_kernel_mass_in_d3(self, x, rel_tol):
        datum = dataclasses.replace(constant_datum(1.0, 3), axisymmetric=False)
        rep = solve(BallProblem(PoissonKernel(3, 0.5), datum), np.array(x),
                    QuadratureSpec(rel_tol=rel_tol))
        assert rep.converged
        assert abs(rep.value - 1.0) <= rep.error_estimate

    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-5])
    def test_general_rule_transverse_datum_off_the_axis(self, rel_tol):
        # thm15 in d = 3 at 0.5 e2 on the full recursion, against a reference
        # known to 2e-8.
        datum = dataclasses.replace(
            transverse_modulus_datum(ModulusFunction.power(0.5), 3),
            axisymmetric=False)
        rep = solve(BallProblem(PoissonKernel(3, 0.5), datum),
                    np.array([0.0, 0.5, 0.0]), QuadratureSpec(rel_tol=rel_tol))
        assert rep.converged
        assert abs(rep.value - 0.94268852503) <= rep.error_estimate + 2e-8

    def test_linearity_in_datum(self, spec):
        k = PoissonKernel(1, 0.5)
        u1 = solve(BallProblem(k, constant_datum(1.0, 1)), [0.3], spec)
        u2 = solve(BallProblem(k, constant_datum(2.5, 1)), [0.3], spec)
        assert abs(u2.value - 2.5 * u1.value) <= 2.5 * (
            u1.error_estimate + u2.error_estimate
        ) + 1e-12

    def test_odd_datum_cancels_on_axis(self, spec):
        problem = BallProblem(PoissonKernel(2, 0.5), sign_changing_datum(0.5, 2))
        rep = solve(problem, [0.5, 0.0], spec)
        assert rep.value == 0.0

    def test_positive_datum_gives_positive_solution(self, spec):
        problem = BallProblem(
            PoissonKernel(1, 0.5), radial_indicator_datum(0.5, 1)
        )
        rep = solve(problem, [0.0], spec)
        assert 0.0 < rep.value < 1.0

    def test_comparison_with_full_mass(self, spec):
        # indicator datum <= 1 everywhere, so its solution sits below 1
        k = PoissonKernel(2, 0.5)
        part = solve(BallProblem(k, radial_indicator_datum(0.5, 2)), [0.2, 0.1], spec)
        full = solve(BallProblem(k, constant_datum(1.0, 2)), [0.2, 0.1], spec)
        assert part.value <= full.value + part.error_estimate + full.error_estimate

    def test_rejects_exterior_point(self, spec):
        problem = BallProblem(PoissonKernel(1, 0.5), constant_datum(1.0, 1))
        with pytest.raises(DomainError):
            solve(problem, [1.0], spec)

    def test_rejects_a_non_finite_point_before_any_work(self, spec, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrated before x was checked")

        monkeypatch.setattr(ball_poisson, "integrate_exterior_ball", no_quadrature)
        problem = BallProblem(PoissonKernel(2, 0.5), constant_datum(1.0, 2))
        for x in ([np.nan, 0.0], [0.1, np.inf]):
            with pytest.raises(DomainError, match="finite"):
                solve(problem, x, spec)

    @settings(max_examples=30, deadline=None)
    @given(
        d=st.sampled_from([2, 3, 4]),
        direction=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
        radius=st.floats(0.0, 0.9),
    )
    # Radii where the squares in |x| underflow: the solver's frame must
    # still be orthonormal.
    @example(d=3, direction=[0.3, 0.4, 0.5], radius=3.692846355438777e-162)
    @example(d=3, direction=[0.3, 0.4, 0.5], radius=5e-162)
    @example(d=3, direction=[0.3, 0.4, 0.5], radius=5e-324)
    # A direction within 1e-6 of -e1, where the frame must not degenerate.
    @example(d=3, direction=[-0.9131337914689075, 7.940973710992278e-07, 8.6e-69],
             radius=0.030261775741958083)
    @example(d=4, direction=[-0.9131337914689075, 7.940973710992278e-07, 8.6e-69,
                             0.0], radius=0.030261775741958083)
    def test_general_rule_is_rotation_invariant(self, d, direction, radius):
        # The kernel mass is 1 at every x, so the constant datum on the
        # general (non-axisymmetric) angular rule must give 1 at any point.
        v = np.array(direction[:d])
        norm = float(np.linalg.norm(v))
        x = radius * v / norm if norm > 1e-3 else np.zeros(d)
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
        datum = dataclasses.replace(constant_datum(1.0, d), axisymmetric=False)
        rep = solve(BallProblem(PoissonKernel(d, 0.5), datum), x, spec)
        assert rep.converged
        assert abs(rep.value - 1.0) <= rep.error_estimate + spec.tolerance(1.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("a", [0.5, 2.0, 4.0])
    def test_radial_step_at_the_origin(self, d, s, a):
        # g = 1_{|y| >= 1+a}: u(0) = I_{(1+a)^{-2}}(s, 1-s) in every d (the
        # kernel mass of |y| > 1+a, with u = rho^{-2}).  For a >= 1 the step
        # lies in the far field, beyond radius 2.
        spec = QuadratureSpec(rel_tol=1e-8)
        problem = BallProblem(PoissonKernel(d, s), radial_indicator_datum(a, d))
        rep = solve(problem, np.zeros(d), spec)
        oracle = float(betainc(s, 1.0 - s, (1.0 + a) ** -2))
        assert rep.converged
        assert abs(rep.value - oracle) <= rep.error_estimate + spec.tolerance(oracle)

    def test_radial_breakpoints_are_exact_offsets(self, spec, monkeypatch):
        # The graded scales delta 16^k reach the radial rule as the offsets
        # themselves, not as (1 + g) - 1, which rounds them.
        calls, rule = [], quadrature.integrate_radial_singular

        def spy(f, s, L, spec, breakpoints, decay):
            calls.append((L, breakpoints))
            return rule(f, s, L, spec, breakpoints, decay)

        monkeypatch.setattr(quadrature, "integrate_radial_singular", spy)
        # 1 - |x| is a multiple of 2^-53, and an odd one at one of these two
        # neighbours, where 1 + delta rounds.
        xs = np.array([[1.0 - 1e-4], [np.nextafter(1.0 - 1e-4, 0.0)]])
        solve(BallProblem(PoissonKernel(1, 0.5), constant_datum(1.0, 1)), xs, spec)
        [(L, bps)] = calls
        rounded = []
        for x, b in zip(xs, bps):
            delta = 1.0 - float(np.linalg.norm(x))
            graded = quadrature._graded_scales(delta, L, quadrature.RADIAL_GRADING)
            assert set(graded) <= set(b)
            rounded += [(1.0 + g) - 1.0 != g for g in graded]
        assert any(rounded)


def _axial_datum(d, axisymmetric=True):
    """g(y) = (4 - |y|^2)_+^2 e^{y_1} |y'|: symmetric about e1, not radial,
    and supported in |y| <= 2, which keeps the full recursion in d = 5 to
    about a second."""
    def g(pts):
        r2 = np.einsum("ij,ij->i", pts, pts)
        trans = np.sqrt(np.einsum("ij,ij->i", pts[:, 1:], pts[:, 1:]))
        return np.maximum(4.0 - r2, 0.0) ** 2 * np.exp(pts[:, 0]) * trans

    return ExteriorDatum(eval=g, dimension=d, support_radius=2.0,
                         growth_exponent=0.0, boundary_bound=0.0,
                         axisymmetric=axisymmetric, radial_breakpoints=(2.0,))


class TestAxisShortcut:
    # Data symmetric about e1 take the polar-only rule at points on e1 in
    # every d >= 2, and in d = 3 at every point.
    spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)

    def _pair(self, d, x):
        kernel = PoissonKernel(d, 0.5)
        return [solve(BallProblem(kernel, _axial_datum(d, flag)), x, self.spec)
                for flag in (True, False)]

    # d = 5 at 0.999 e1 is left out: its full recursion takes about 6 s.
    @pytest.mark.parametrize("d, x1", [(2, 0.0), (2, 0.5), (2, -0.999),
                                       (4, 0.0), (4, -0.5), (4, 0.999),
                                       (5, 0.0), (5, 0.5)])
    def test_on_the_axis_matches_the_full_rule(self, d, x1):
        x = np.zeros(d)
        x[0] = x1
        flagged, full = self._pair(d, x)
        assert flagged.converged and full.converged
        assert (abs(flagged.value - full.value)
                <= flagged.error_estimate + full.error_estimate)
        assert flagged.function_evals < full.function_evals
        if d == 2:
            # one point of each mirror pair, whose twin has the same bits
            assert 2 * flagged.function_evals == full.function_evals
            assert (flagged.value, flagged.error_estimate) == (
                full.value, full.error_estimate)

    @pytest.mark.parametrize("x", [(0.3, 0.4), (0.0, -0.5), (1e-300, 1e-300),
                                   (0.2, -0.3, 0.1, 0.25), (0.0, 0.0, 0.0, 0.5)])
    def test_off_the_axis_the_flag_changes_nothing(self, x):
        flagged, full = self._pair(len(x), np.array(x))
        assert repr(flagged) == repr(full)

    @pytest.mark.parametrize("x, report", [
        # 2.0e-13 from the rel_tol 1e-10 solve 0.8718087059154749 without
        # the end map (8355 evals without it)
        ((0.5, 0.0, 0.0), (0.8718087059156703, 2.827793077615231e-08, 2655)),
        # the open axisym-offaxis defect: the reference is 0.94268852503;
        # 3.6e-7 (2.2 times the estimate) from the rel_tol 1e-10 solve
        # 0.7664556544517235 of the same polar-only integral
        ((0.0, 0.5, 0.0), (0.7664560162058885, 1.6471534658553986e-07, 17115)),
    ])
    def test_d3_takes_the_polar_rule_at_every_point(self, x, report):
        problem = BallProblem(PoissonKernel(3, 0.5),
                              transverse_modulus_datum(ModulusFunction.power(0.5), 3))
        rep = solve(problem, x, QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9))
        assert (rep.value, rep.error_estimate, rep.function_evals) == report
        assert rep.converged


class TestAxisExponent:
    # The transverse datum omega(|y'|) eta(|y|) with omega = t^a declares a:
    # on e1 the polar ends lie on the axis, and the rule maps its end panels.
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)

    @staticmethod
    def _at_origin(d, s, a):
        """u(0) = c_{d,s} |S^{d-2}| B(1/2, (a+d-1)/2)
        int_1^4.5 (rho^2-1)^{-s} rho^{a-1} eta(rho) d rho, by QUADPACK with
        the algebraic weight at rho = 1 and a break at the cutoff's plateau
        end 4."""
        eta = CutoffFunction()
        near = quad(lambda r: (r + 1.0) ** -s * r ** (a - 1.0), 1.0, 4.0,
                    weight="alg", wvar=(-s, 0.0), epsabs=0.0, epsrel=1e-13)[0]
        far = quad(lambda r: (r * r - 1.0) ** -s * r ** (a - 1.0) * eta(r),
                   4.0, 4.5, epsabs=0.0, epsrel=1e-13)[0]
        return (PoissonKernel(d, s).normalization * quadrature._sphere_area(d - 1)
                * beta(0.5, 0.5 * (a + d - 1)) * (near + far))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_origin_matches_its_closed_form(self, d, s, a):
        datum = transverse_modulus_datum(ModulusFunction.power(a), d)
        assert datum.axis_exponent == a
        rep = solve(BallProblem(PoissonKernel(d, s), datum), np.zeros(d), self.spec)
        assert rep.converged
        assert abs(rep.value - self._at_origin(d, s, a)) <= rep.error_estimate

    def test_closed_form_at_one_case(self):
        # mpmath.quad at 30 digits, with rho = 1 + v^2, gives
        # 0.799386324946120982843
        assert abs(self._at_origin(2, 0.5, 0.5) - 0.799386324946121) <= 2e-15

    def test_a_log_modulus_declares_no_exponent(self):
        # omega = log^{-1}(e/t) is no power of t: the rule maps no end, and
        # the solve at 0 stays within its estimate of the mpmath value.
        datum = transverse_modulus_datum(ModulusFunction.power_log(0.0, 1.0), 2)
        assert datum.axis_exponent is None
        rep = solve(BallProblem(PoissonKernel(2, 0.5), datum), [0.0, 0.0],
                    self.spec)
        assert rep.converged
        assert abs(rep.value - 0.675411209705380) <= rep.error_estimate

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_map_keeps_the_values_of_the_unmapped_rule(self, d):
        # The sweep grid t = 0, 0.9, ..., 0.9999 on both sides of 0: the same
        # datum with and without its exponent agrees within the summed
        # estimates, u(t e1) and u(-t e1) have the same bits, and in d = 2
        # the exponent cuts the evaluations at least threefold.
        t = np.array([0.0, 0.9, 0.99, 0.999, 0.9999])
        x = np.zeros((10, d))
        x[:5, 0], x[5:, 0] = t, -t
        datum = transverse_modulus_datum(ModulusFunction.power(0.5), d)
        kernel = PoissonKernel(d, 0.5)
        mapped = solve(BallProblem(kernel, datum), x, self.spec)
        plain = solve(BallProblem(kernel, dataclasses.replace(
            datum, axis_exponent=None)), x, self.spec)
        assert mapped.converged and plain.converged
        assert np.all(np.abs(mapped.value - plain.value)
                      <= mapped.error_estimate + plain.error_estimate)
        for rep in (mapped, plain):
            assert np.array_equal(rep.value[:5], rep.value[5:])
            assert np.array_equal(rep.error_estimate[:5], rep.error_estimate[5:])
        if d == 2:
            assert 3 * mapped.function_evals <= plain.function_evals
        assert mapped.function_evals < plain.function_evals


def _many_points(d):
    """Points at 1 - |x| = 1e-1 ... 1e-4 on both sides of the first axis and
    off it, and x = 0; in d = 4, whose solves cost about a million kernel
    evaluations each, 1 - |x| = 1e-1 and 1e-2 and x = 0 only."""
    if d == 4:
        return np.array([[0.9, 0.0, 0.0, 0.0], [0.0, 0.0, -0.99, 0.0], np.zeros(4)])
    x = np.zeros((6, d))
    x[:4, 0] = [0.9, -0.99, 0.999, -0.9999]
    x[4] = (1.0 - 1e-3) / math.sqrt(d)
    return x


class TestManyPoints:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("far", ["compact", "decaying"])
    def test_batch_matches_one_point_at_a_time(self, d, far):
        # An (n, d) array is one exterior integral in which each point gets
        # exactly what it gets alone: its compactly supported or decaying
        # datum, its gradings and its frame (on the axis of the
        # axisymmetric data, or off it), and its value and error bit for bit.
        if far == "decaying":
            datum = radial_indicator_datum(0.5, d)
        elif d == 1:
            datum = halfline_modulus_datum(ModulusFunction.power(0.5))
        else:
            datum = transverse_modulus_datum(ModulusFunction.power(0.5), d)
        assert (datum.support_radius is None) == (far == "decaying")
        spec = (QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9) if d < 4
                else QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6))
        problem = BallProblem(PoissonKernel(d, 0.5), datum)
        x = _many_points(d)
        rep = solve(problem, x, spec)
        one = [solve(problem, p, spec) for p in x]
        value = np.array([r.value for r in one])
        error = np.array([r.error_estimate for r in one])
        assert rep.value.shape == rep.error_estimate.shape == (len(x),)
        assert np.array_equal(rep.value, value)
        assert np.array_equal(rep.error_estimate, error)
        assert rep.function_evals == sum(r.function_evals for r in one)
        assert rep.converged == all(r.converged for r in one)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("far", ["compact", "decaying"])
    def test_point_order_does_not_change_a_point(self, d, far):
        # The points in reverse order: each keeps its value and error bit
        # for bit, and the solve its evals and flag.
        if far == "decaying":
            datum = radial_indicator_datum(0.5, d)
        elif d == 1:
            datum = halfline_modulus_datum(ModulusFunction.power(0.5))
        else:
            datum = transverse_modulus_datum(ModulusFunction.power(0.5), d)
        spec = (QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9) if d < 4
                else QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6))
        problem = BallProblem(PoissonKernel(d, 0.5), datum)
        x = _many_points(d)
        rep = solve(problem, x, spec)
        rev = solve(problem, x[::-1], spec)
        assert np.array_equal(rev.value, rep.value[::-1])
        assert np.array_equal(rev.error_estimate, rep.error_estimate[::-1])
        assert rev.function_evals == rep.function_evals
        assert rev.converged == rep.converged

    @pytest.mark.parametrize("d", [2, 3])
    def test_one_exterior_integral_per_declaration(self, d, monkeypatch):
        # The transverse datum declares its symmetry about e1 and an axis
        # exponent: its points on e1 take both in one call, and its point
        # off e1 the flag alone in d = 3 and neither in d = 2, in another.
        calls = []

        def spy(F, x, *args, **kwargs):
            calls.append((len(x), kwargs["axisymmetric"], kwargs["end_exponent"]))
            return integrate_exterior_ball(F, x, *args, **kwargs)

        monkeypatch.setattr(ball_poisson, "integrate_exterior_ball", spy)
        datum = transverse_modulus_datum(ModulusFunction.power(0.5), d)
        problem = BallProblem(PoissonKernel(d, 0.5), datum)
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
        x = _many_points(d)
        solve(problem, x, spec)
        assert calls == [(5, True, 0.5), (1, d == 3, None)]
        calls.clear()
        solve(problem, x[:4], spec)
        assert calls == [(4, True, 0.5)]

    def test_one_point_array_is_a_batch_of_one(self, fast_spec):
        problem = BallProblem(PoissonKernel(2, 0.5), radial_indicator_datum(0.5, 2))
        one = solve(problem, [0.3, 0.4], fast_spec)
        rep = solve(problem, [[0.3, 0.4]], fast_spec)
        assert (rep.value[0], rep.error_estimate[0], rep.function_evals,
                rep.converged) == (one.value, one.error_estimate,
                                   one.function_evals, one.converged)

    @pytest.mark.parametrize("x, message", [
        (np.zeros((2, 3)), "dimension mismatch"),
        (np.zeros((2, 2, 2)), "dimension mismatch"),
        (np.zeros((0, 2)), "at least one point"),
        ([[0.0, 0.0], [0.0, 1.0]], "open unit ball"),
        ([[0.0, 0.0], [2.0, 0.0]], "open unit ball"),
        ([[0.0, 0.0], [0.5, np.nan]], "finite"),
    ])
    def test_checks_every_point_before_any_work(self, x, message, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("integrated before every point was checked")

        monkeypatch.setattr(ball_poisson, "integrate_exterior_ball", no_quadrature)
        problem = BallProblem(PoissonKernel(2, 0.5), constant_datum(1.0, 2))
        with pytest.raises(DomainError, match=message):
            solve(problem, x)


def _vt_oracle_d2(x, z, t, s):
    """v_t(x) in d = 2 by scipy: polar coordinates about 0, QUADPACK's
    algebraic weight for (rho - 1)^{-s} at the sphere, and the angular range
    outside the cap |y - z| <= t as the limits of the inner integral."""
    x0, x1 = x
    phi_z = math.atan2(z[1], z[0])

    def outside_cap(rho):
        a = math.acos(max(-1.0, min((rho * rho + 1.0 - t * t) / (2.0 * rho), 1.0)))
        return quad(
            lambda p: 1.0 / ((rho * math.cos(p) - x0) ** 2
                             + (rho * math.sin(p) - x1) ** 2),
            phi_z + a, phi_z + 2.0 * math.pi - a, epsabs=1e-13, epsrel=1e-12,
        )[0]

    def g(rho):
        return rho * (rho + 1.0) ** -s * outside_cap(rho)

    near = quad(g, 1.0, 1.0 + t, weight="alg", wvar=(-s, 0.0), epsabs=1e-13,
                epsrel=1e-12, limit=200)[0]
    far = quad(lambda r: g(r) * (r - 1.0) ** -s, 1.0 + t, np.inf,
               epsabs=1e-13, epsrel=1e-12)[0]
    c = math.sin(math.pi * s) / math.pi**2
    return c * (1.0 - x0 * x0 - x1 * x1) ** s * (near + far)


def _full_rule(*args, **kwargs):
    """integrate_exterior_ball with the full sphere recursion everywhere."""
    return integrate_exterior_ball(*args, **dict(kwargs, axisymmetric=False))


def _axis(d, name):
    """e1, -e2 or e_d of R^d."""
    z = np.zeros(d)
    z[{"e1": 0, "-e2": 1, "ed": d - 1}[name]] = -1.0 if name == "-e2" else 1.0
    return z


class TestModelSolutions:
    @pytest.mark.parametrize("x", [[0.0, 0.0], [0.3, 0.0]])
    def test_rejects_boundary_point_of_the_wrong_dimension(self, x, spec):
        with pytest.raises(DomainError, match="dimension mismatch"):
            solve_vt(PoissonKernel(2, 0.5), [1.0], 0.5, x, spec)

    def test_t_zero_is_full_mass(self, spec):
        k = PoissonKernel(2, 0.5)
        z = np.array([1.0, 0.0])
        rep = solve_vt(k, z, 0.0, [0.3, 0.0], spec)
        assert abs(rep.value - 1.0) <= 1e-7

    def test_monotone_nonincreasing_in_t(self, fast_spec):
        k = PoissonKernel(1, 0.5)
        vals = [
            solve_vt(k, [1.0], t, [0.5], fast_spec).value
            for t in (0.0, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a >= b - 1e-8 for a, b in zip(vals, vals[1:]))

    def test_values_between_zero_and_one(self, fast_spec):
        k = PoissonKernel(2, 0.7)
        z = np.array([0.0, 1.0])
        for t in (0.1, 1.0, 3.0):
            v = solve_vt(k, z, t, [0.0, 0.6], fast_spec).value
            assert -1e-9 <= v <= 1.0 + 1e-9

    def test_rotation_equivariance(self, fast_spec):
        k = PoissonKernel(2, 0.5)
        a = solve_vt(k, [1.0, 0.0], 0.8, [0.7, 0.0], fast_spec)
        b = solve_vt(k, [0.0, 1.0], 0.8, [0.0, 0.7], fast_spec)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-9

    def test_antipodal_point_sees_larger_values(self, fast_spec):
        # the excised cap around z removes more mass from solutions near z
        k = PoissonKernel(1, 0.5)
        near = solve_vt(k, [1.0], 0.5, [0.8], fast_spec).value
        far = solve_vt(k, [1.0], 0.5, [-0.8], fast_spec).value
        assert far > near

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_off_axis_d2_matches_scipy(self, t, fast_spec):
        # x off the line through z: the cap is still an angular interval
        # about z, whose two folded edges go to the angular rule.
        k = PoissonKernel(2, 0.5)
        x, z = np.array([0.3, 0.2]), np.array([0.0, 1.0])
        rep = solve_vt(k, z, t, x, fast_spec)
        oracle = _vt_oracle_d2(x, z, t, 0.5)
        assert rep.converged
        assert abs(rep.value - oracle) <= (rep.error_estimate
                                           + fast_spec.tolerance(oracle))
        aligned = solve_vt(k, z, t, float(np.linalg.norm(x)) * z, fast_spec)
        assert rep.function_evals <= 3 * aligned.function_evals

    @pytest.mark.parametrize("t", [1.40625, 2.15625])
    def test_on_axis_d2_far_cap_matches_scipy(self, t, fast_spec):
        # For t > 1 the cap's outer kink radius 1 + t lies in the far field,
        # which breaks there too: blind, the far rule missed v_t at
        # t = 2.15625 by 3.1e-6 against an estimate of 7.4e-8.
        k = PoissonKernel(2, 0.5)
        x, z = np.array([0.8947316871891812, 0.0]), np.array([1.0, 0.0])
        rep = solve_vt(k, z, t, x, fast_spec)
        oracle = _vt_oracle_d2(x, z, t, 0.5)
        assert rep.converged
        assert abs(rep.value - oracle) <= (rep.error_estimate
                                           + fast_spec.tolerance(oracle))

    def test_off_axis_d3_gets_the_cap_edges(self):
        # beta = atan2(|x ^ z|, x . z) places the cap's edges at every x: the
        # nested rule no longer bisects toward the rim, which took 1,711,320
        # evaluations here.  Reference: this rule at rel_tol 1e-6.
        k = PoissonKernel(3, 0.5)
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
        rep = solve_vt(k, [0.0, 1.0, 0.0], 0.5, [0.3, 0.2, 0.0], spec)
        ref, ref_err = 0.96216166, 3.5e-7
        assert rep.converged
        assert abs(rep.value - ref) <= (rep.error_estimate + spec.tolerance(ref)
                                        + ref_err)
        assert rep.function_evals < 500_000

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("axis", ["e1", "-e2", "ed"])
    @pytest.mark.parametrize("c", [0.0, 0.5, -0.9])
    def test_on_the_z_line_takes_the_polar_rule(self, d, axis, c, monkeypatch):
        # 1_{|y - z| > t} is symmetric about the line through 0 and z, so at
        # x = c z the polar-only rule agrees with the full recursion within
        # their summed estimates, at fewer evaluations; in d = 2 it evaluates
        # one point of each exactly mirrored pair: the same bits at half.
        k, z = PoissonKernel(d, 0.5), _axis(d, axis)
        spec = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-7)
        ts = np.array([0.3, 1.5])
        polar = solve_vt(k, z, ts, c * z, spec)
        monkeypatch.setattr(ball_poisson, "integrate_exterior_ball", _full_rule)
        full = solve_vt(k, z, ts, c * z, spec)
        assert polar.converged and full.converged
        assert np.all(np.abs(polar.value - full.value)
                      <= polar.error_estimate + full.error_estimate)
        assert polar.function_evals < full.function_evals
        if d == 2:
            assert 2 * polar.function_evals == full.function_evals
            assert np.array_equal(polar.value, full.value)
            assert np.array_equal(polar.error_estimate, full.error_estimate)

    # d = 4 at c = 0 is left out: z is then at 90 degrees from x, where its
    # full recursion takes 65M evaluations (about 9 s).
    @pytest.mark.parametrize("d, c", [(2, 0.0), (2, 0.5), (3, 0.0), (3, 0.5),
                                      (4, 0.5)])
    def test_one_ulp_off_the_z_line_takes_the_full_rule(self, d, c, monkeypatch):
        # The line test is exact: one ulp off it, in x1 (from 0 to the
        # smallest subnormal), the rule is the full recursion.
        k, z = PoissonKernel(d, 0.5), _axis(d, "ed")
        spec = QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)
        x = c * z
        x[0] = np.nextafter(0.0, 1.0)
        flags = []

        def spy(*args, **kwargs):
            flags.append(bool(kwargs["axisymmetric"]))
            return integrate_exterior_ball(*args, **kwargs)

        monkeypatch.setattr(ball_poisson, "integrate_exterior_ball", spy)
        off = solve_vt(k, z, 0.3, x, spec)
        on = solve_vt(k, z, 0.3, c * z, spec)
        assert flags == [False, True]
        assert off.converged and off.function_evals > on.function_evals
        assert abs(off.value - on.value) <= (off.error_estimate + on.error_estimate
                                             + spec.tolerance(on.value))

    @pytest.mark.parametrize("z", [[0.6, 0.8], [0.0, -1.0], [0.0, 1.0, 0.0],
                                   [0.48, 0.6, -0.64]])
    def test_rotation_invariant_at_origin(self, z, fast_spec):
        d = len(z)
        k = PoissonKernel(d, 0.5)
        e1 = solve_vt(k, np.eye(d)[0], 2.0, np.zeros(d), fast_spec)
        rep = solve_vt(k, z, 2.0, np.zeros(d), fast_spec)
        assert rep.converged
        assert abs(rep.value - e1.value) <= rep.error_estimate + e1.error_estimate
        assert rep.function_evals <= 3 * e1.function_evals

    @pytest.mark.parametrize("z, x", [
        ([1.0], [0.9]), ([1.0], [-0.5]),
        ([1.0, 0.0], [0.9, 0.0]), ([0.0, 1.0], [0.3, 0.2]),
    ])
    def test_batch_matches_one_t_at_a_time(self, z, x, fast_spec):
        k = PoissonKernel(len(z), 0.5)
        ts = np.array([0.0, 0.05, 0.3, 1.0, 1.9, 2.0, 2.5, 3.5])
        rep = solve_vt(k, z, ts, x, fast_spec)
        one = [solve_vt(k, z, t, x, fast_spec) for t in ts]
        assert rep.value.shape == rep.error_estimate.shape == ts.shape
        assert np.array_equal(rep.value, [r.value for r in one])
        assert np.array_equal(rep.error_estimate, [r.error_estimate for r in one])
        assert rep.function_evals == sum(r.function_evals for r in one)
        assert rep.converged == all(r.converged for r in one)

    @pytest.mark.parametrize("z, x", [
        ([1.0], [0.9]), ([1.0], [-0.5]),
        ([1.0, 0.0], [0.9, 0.0]), ([0.0, 1.0], [0.3, 0.2]),
    ])
    def test_other_ts_do_not_change_a_t(self, z, x, fast_spec):
        # Reordering, repeating or dropping the other t of a batch leaves
        # each v_t's value and error bit for bit.
        k = PoissonKernel(len(z), 0.5)
        ts = np.array([0.0, 0.05, 0.3, 1.0, 1.9, 2.0, 2.5, 3.5])
        order = [7, 3, 3, 0, 5, 1]
        rep = solve_vt(k, z, ts, x, fast_spec)
        part = solve_vt(k, z, ts[order], x, fast_spec)
        assert np.array_equal(part.value, rep.value[order])
        assert np.array_equal(part.error_estimate, rep.error_estimate[order])

    def test_validates_inputs(self, spec):
        k = PoissonKernel(1, 0.5)
        with pytest.raises(DomainError):
            solve_vt(k, [1.0], [0.5, -0.1], [0.0], spec)
        with pytest.raises(DomainError):
            solve_vt(k, [1.0], [[0.5]], [0.0], spec)
        with pytest.raises(DomainError):
            solve_vt(k, [0.5], 1.0, [0.0], spec)
        with pytest.raises(DomainError):
            solve_vt(k, [1.0], -0.1, [0.0], spec)
        with pytest.raises(DomainError):
            solve_vt(k, [1.0], 1.0, [1.2], spec)
        # A point of shape (1, d) has d coordinates but is not one point.
        k2 = PoissonKernel(2, 0.5)
        for z, x in (([[1.0, 0.0]], [0.5, 0.0]), ([1.0, 0.0], [[0.5, 0.0]])):
            with pytest.raises(DomainError, match="dimension mismatch"):
                solve_vt(k2, z, [0.1, 0.5], x, spec)

    @pytest.mark.parametrize("z, x", [
        ([np.nan, 0.0], [0.5, 0.0]), ([1.0, 0.0], [0.5, np.nan]),
    ])
    def test_rejects_a_non_finite_point(self, z, x, spec):
        with pytest.raises(DomainError, match="finite"):
            solve_vt(PoissonKernel(2, 0.5), z, 0.3, x, spec)


class TestBoundaryCheck:
    def test_constant_datum_trivial_case(self):
        problem = BallProblem(PoissonKernel(1, 0.5), constant_datum(1.0, 1))
        chk = interior_to_boundary_check(problem, [0.9], [1.0], t_max=2.0)
        assert chk.holds
        assert chk.lhs <= 1e-6

    def test_halfline_datum_near_boundary(self):
        g = halfline_modulus_datum(ModulusFunction.power(0.5))
        problem = BallProblem(PoissonKernel(1, 0.5), g)
        chk = interior_to_boundary_check(problem, [0.9], [1.0])
        assert chk.holds and chk.converged
        assert chk.rhs >= chk.lhs
        assert chk.slack >= 0.0

    def test_reports_an_unconverged_model_solution(self, monkeypatch):
        problem = BallProblem(PoissonKernel(1, 0.5),
                              halfline_modulus_datum(ModulusFunction.power(0.5)))
        ref = interior_to_boundary_check(problem, [0.9], [1.0], tol=2e-2)
        solve_vt_converged = ball_poisson.solve_vt

        def unconverged(*args, **kwargs):
            rep = solve_vt_converged(*args, **kwargs)
            return dataclasses.replace(rep, converged=False)

        monkeypatch.setattr(ball_poisson, "solve_vt", unconverged)
        chk = interior_to_boundary_check(problem, [0.9], [1.0], tol=2e-2)
        assert ref.converged and not chk.converged
        assert (chk.lhs, chk.rhs, chk.holds) == (ref.lhs, ref.rhs, ref.holds)

    @pytest.mark.parametrize("z, message", [
        ([1.0, 0.0, 0.0], "dimension mismatch"),
        ([0.9, 0.0], "unit sphere"),
        ([np.nan, 0.0], "finite"),
    ])
    def test_checks_z_before_any_work(self, z, message, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before z was checked")

        monkeypatch.setattr(ball_poisson, "solve", no_solve)
        problem = BallProblem(PoissonKernel(2, 0.5), transverse_modulus_datum(
            ModulusFunction.power(0.5), 2))
        with pytest.raises(DomainError, match=message):
            interior_to_boundary_check(problem, [0.5, 0.0], z)

    def test_checks_x_before_any_work(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before x was checked")

        monkeypatch.setattr(ball_poisson, "solve", no_solve)
        problem = BallProblem(PoissonKernel(2, 0.5), transverse_modulus_datum(
            ModulusFunction.power(0.5), 2))
        with pytest.raises(DomainError, match="finite"):
            interior_to_boundary_check(problem, [np.nan, 0.0], [1.0, 0.0])

    def test_requires_t_max_for_unbounded_data(self):
        problem = BallProblem(PoissonKernel(1, 0.5), constant_datum(1.0, 1))
        assert problem.datum.support_radius is None
        with pytest.raises(DomainError):
            interior_to_boundary_check(problem, [0.5], [1.0])


class TestHarmonicity:
    def test_residual_vanishes_for_indicator_datum(self):
        problem = BallProblem(
            PoissonKernel(1, 0.5), radial_indicator_datum(0.5, 1)
        )
        rep = harmonicity_check(problem, [0.0])
        assert abs(rep.value) <= 1e-4

    def test_calibration_independence(self):
        problem = BallProblem(
            PoissonKernel(1, 0.5), radial_indicator_datum(0.5, 1)
        )
        a = harmonicity_check(problem, [0.2], calibration=1.0)
        b = harmonicity_check(problem, [0.2], calibration=3.0)
        assert abs(a.value) <= 1e-4
        assert abs(b.value) <= 3e-4

    def test_reports_the_interior_solves(self, monkeypatch):
        # function_evals counts every datum row, those of the interior solves
        # included, and one unconverged interior solve clears the flag.
        datum = radial_indicator_datum(0.5, 1)
        rows = []

        def counted(pts):
            rows.append(len(pts))
            return datum.eval(pts)

        problem = BallProblem(PoissonKernel(1, 0.5),
                              dataclasses.replace(datum, eval=counted))
        ref = harmonicity_check(problem, [0.0])
        assert ref.converged
        assert ref.function_evals == sum(rows)

        solve_converged = ball_poisson.solve
        solves = []

        def third_unconverged(*args, **kwargs):
            solves.append(solve_converged(*args, **kwargs))
            return dataclasses.replace(solves[-1], converged=len(solves) != 3)

        monkeypatch.setattr(ball_poisson, "solve", third_unconverged)
        rep = harmonicity_check(problem, [0.0])
        assert len(solves) > 3
        assert not rep.converged
        assert (rep.value, rep.error_estimate, rep.function_evals) == (
            ref.value, ref.error_estimate, ref.function_evals)

    def test_solves_once_per_call_of_u(self, monkeypatch):
        # The interior points of one call of u are one many-point solve.
        from fraclab import stable_operator

        calls = []
        apply_operator = stable_operator.apply_operator
        solve_at = ball_poisson.solve

        def counted_apply(op, u, *args, **kwargs):
            def counted_u(points):
                calls.append(["u"])
                return u(points)

            return apply_operator(op, counted_u, *args, **kwargs)

        def counted_solve(problem, x, spec=None):
            calls[-1].append(np.shape(x))
            return solve_at(problem, x, spec)

        monkeypatch.setattr(stable_operator, "apply_operator", counted_apply)
        monkeypatch.setattr(ball_poisson, "solve", counted_solve)
        problem = BallProblem(PoissonKernel(1, 0.5), radial_indicator_datum(0.5, 1))
        harmonicity_check(problem, [0.0])
        solves = [shape for call in calls for shape in call[1:]]
        assert all(len(call) <= 2 for call in calls)
        assert len(solves) <= len(calls)
        assert all(len(shape) == 2 for shape in solves)
        assert sum(shape[0] for shape in solves) > 100
