"""Datum constructors, cutoff, oscillation closed forms."""

import math

import numpy as np
import pytest
import scipy.integrate

from fraclab.exterior_data import (
    CutoffFunction,
    DimensionError,
    constant_datum,
    halfline_modulus_datum,
    non_dini_datum,
    radial_indicator_datum,
    sign_changing_datum,
    transverse_modulus_datum,
)
from fraclab.moduli import ModulusFunction, seminorm_ext, weighted_integral


class TestCutoff:
    def test_plateau_and_support(self):
        eta = CutoffFunction()
        assert eta(2.0) == 1.0
        assert eta(4.0) == 1.0
        assert eta(4.5) == 0.0
        assert eta(5.0) == 0.0

    def test_midpoint_value(self):
        eta = CutoffFunction()
        # w = 1/2: 10/8 - 15/16 + 6/32 = 1/2
        assert abs(eta(4.25) - 0.5) < 1e-15

    def test_monotone_on_transition(self):
        eta = CutoffFunction()
        r = np.linspace(4.0, 4.5, 101)
        assert np.all(np.diff(eta(r)) <= 0.0)

    def test_bitwise_the_clipped_quintic(self):
        # The quintic runs beyond the plateau only; everywhere it is the
        # clip-and-polynomial formula bit for bit.
        eta = CutoffFunction()
        edges = np.array([4.0, 4.5])
        r = np.concatenate([
            np.linspace(-1.0, 6.0, 7001), edges, np.nextafter(edges, 0.0),
            np.nextafter(edges, 9.0), [1e300, np.inf, -np.inf, 0.0, -0.0],
        ])
        w = np.clip((r - eta.plateau_end) / eta.width, 0.0, 1.0)
        old = 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w**2)
        assert np.array_equal(eta(r), old)
        assert np.array_equal(eta(r.reshape(-1, 4)), old.reshape(-1, 4))

    def test_nan_gives_nan(self):
        eta = CutoffFunction()
        out = eta(np.array([np.nan, 2.0, np.nan, 4.25]))
        assert np.isnan(out[[0, 2]]).all()
        assert np.array_equal(out[[1, 3]], [1.0, 0.5])
        assert np.isnan(eta(np.nan))

    @pytest.mark.parametrize("r", [2.0, 4.2, 4.5, 7.0])
    def test_scalar_keeps_its_shape(self, r):
        eta = CutoffFunction()
        assert np.shape(eta(r)) == ()
        assert np.shape(eta(np.array(r))) == ()
        assert float(eta(r)) == float(eta(np.array([r]))[0])


def _norm_formulas(pts, s):
    """The transverse (omega = t^s), sign-changing (exponent s) and radial
    (offset 1/2) data written with ``np.linalg.norm``."""
    eta = CutoffFunction()
    r = np.linalg.norm(pts, axis=1)
    y2 = pts[:, 1]
    odd = np.zeros(y2.shape)
    nz = y2 != 0.0
    odd[nz] = y2[nz] * np.abs(y2[nz]) ** (s - 1.0)
    return (np.linalg.norm(pts[:, 1:], axis=1) ** s * eta(r),
            odd * eta(r),
            (r >= 1.5).astype(float))


class TestNormsFromOneEinsum:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_data_match_their_norm_formulas(self, d, rng):
        # |y| and |y'| from one einsum each are within 2 ulp of
        # np.linalg.norm's (equal in d = 2), so each datum is within 2 ulp of
        # its norm formula, plus, across the cutoff's transition, its slope
        # 15 / (8 width) times 2 ulp of |y|, times the factor the cutoff
        # multiplies.
        s = 0.5
        pts = rng.uniform(-5.0, 5.0, size=(20000, d))
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
        r = np.linalg.norm(pts, axis=1)
        got = (transverse_modulus_datum(ModulusFunction.power(s), d)(pts),
               sign_changing_datum(s, d)(pts),
               radial_indicator_datum(0.5, d)(pts))
        factors = (np.linalg.norm(pts[:, 1:], axis=1) ** s,
                   np.abs(pts[:, 1]) ** s, np.zeros(len(pts)))
        slope = 15.0 / (8.0 * CutoffFunction().width)
        for g, ref, factor in zip(got, _norm_formulas(pts, s), factors):
            tol = 2.0 * np.spacing(np.abs(ref)) + slope * 2.0 * np.spacing(r) * factor
            assert np.all(np.abs(g - ref) <= tol)
            if d == 2:
                assert np.array_equal(g, ref)


class TestTransverseDatum:
    def setup_method(self):
        self.om = ModulusFunction.power(0.5)
        self.g = transverse_modulus_datum(self.om, 2)

    def test_vanishes_at_e1(self):
        assert self.g(np.array([[1.0, 0.0]]))[0] == 0.0

    def test_zero_beyond_cutoff(self):
        assert self.g(np.array([[5.0, 1.0]]))[0] == 0.0

    def test_transverse_profile_inside_plateau(self):
        t = 0.3
        val = self.g(np.array([[1.0, t]]))[0]
        assert abs(val - self.om(t)) < 1e-15

    def test_nonnegative(self, rng):
        pts = rng.uniform(-5.0, 5.0, size=(500, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
        assert np.all(self.g(pts) >= 0.0)

    def test_rejects_dimension_one(self):
        with pytest.raises(DimensionError):
            transverse_modulus_datum(self.om, 1)

    def test_oscillation_closed_form_at_e1(self):
        xi = self.g.oscillation_closed_form(np.array([1.0, 0.0]))
        t = np.array([0.1, 0.5, 1.5])
        np.testing.assert_allclose(xi(t), self.om(t), rtol=0, atol=1e-15)
        # profile saturates but stays monotone past the plateau reach
        big = xi(np.array([4.0, 5.0, 6.0]))
        assert np.all(np.diff(big) >= -1e-14)

    def test_oscillation_lower_bound_at_half_offset(self):
        # g(e1 + t e2 / 2) = omega(t/2) for small t, so xi(t) >= omega(t/2)
        xi = self.g.oscillation_closed_form(np.array([1.0, 0.0]))
        for t in (0.05, 0.2, 0.8):
            assert xi(np.array([t]))[0] >= self.om(t / 2.0) - 1e-15

    def test_continuous_along_rays(self):
        theta = np.array([0.8, 0.6])
        ts = np.linspace(1.0, 6.0, 4001)
        vals = self.g(ts[:, None] * theta[None, :])
        assert np.max(np.abs(np.diff(vals))) < 0.01

    def test_membership_diagnostic_finite(self):
        est = seminorm_ext(self.g, self.om, sample_pairs=5000, seed=2)
        assert math.isfinite(est.seminorm)


class TestHalflineDatum:
    def setup_method(self):
        self.om = ModulusFunction.power(0.5)
        self.g = halfline_modulus_datum(self.om)

    def test_values_on_support(self):
        assert self.g(np.array([[1.0]]))[0] == 0.0
        assert abs(self.g(np.array([[2.0]]))[0] - self.om(1.0)) < 1e-15
        assert self.g(np.array([[4.0]]))[0] == 0.0
        assert self.g(np.array([[-2.0]]))[0] == 0.0

    def test_oscillation_closed_form(self):
        xi = self.g.oscillation_closed_form(np.array([1.0]))
        assert abs(xi(np.array([0.5]))[0] - self.om(0.5)) < 1e-15
        assert abs(xi(np.array([3.0]))[0] - self.om(2.0)) < 1e-15

    def test_membership_diagnostic_finite(self):
        est = seminorm_ext(self.g, self.om, sample_pairs=5000, seed=4)
        assert math.isfinite(est.seminorm)


def test_table_knots_become_kink_radii():
    om = ModulusFunction.table([[0.0, 0.0], [0.3, 0.2], [1.5, 0.9], [5.0, 1.0]])
    assert halfline_modulus_datum(om).radial_breakpoints == (
        3.0, 1.0 + 0.3, 1.0 + 1.5)
    assert transverse_modulus_datum(om, 2).radial_breakpoints == (
        4.0, 4.5, math.sqrt(1.0 + 0.3**2), math.sqrt(1.0 + 1.5**2))
    power = ModulusFunction.power(0.5)
    assert halfline_modulus_datum(power).radial_breakpoints == (3.0,)


@pytest.mark.parametrize("omega, a", [
    (ModulusFunction.power(0.25), 0.25),
    (ModulusFunction.power(0.5), 0.5),
    (ModulusFunction.power(1.0), None),
    (ModulusFunction.power(1.5), None),
    (ModulusFunction.power_log(0.5, 1.0), None),
    (ModulusFunction.log_inverse(1.0), None),
    (ModulusFunction.table([[0.0, 0.0], [1.0, 1.0]]), None),
    (ModulusFunction.custom(np.sqrt), None),
    (ModulusFunction.zero(), None),
])
def test_axis_exponent_is_a_pure_power_below_one(omega, a):
    assert transverse_modulus_datum(omega, 2).axis_exponent == a


class TestNonDiniDatum:
    def test_log_arithmetic(self):
        # omega(0.01) = 0.1 / log(100 e) for iota = log^{-1}(e/t), s = 0.5
        g = non_dini_datum(ModulusFunction.log_inverse(1.0), 0.5, 1)
        expect = 0.1 / math.log(100.0 * math.e)
        assert abs(g.modulus(0.01) - expect) < 1e-15
        assert abs(expect - 0.01784) < 5e-5

    def test_zero_iota_gives_zero_datum(self):
        g = non_dini_datum(ModulusFunction.zero(), 0.5, 1)
        pts = np.array([[1.5], [2.5], [-3.0]])
        assert np.all(g(pts) == 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_power_iota_has_a_closed_form(self, d):
        # iota = t^0.3 at s = 0.5 gives omega = t^0.8, no quadrature
        om = non_dini_datum(ModulusFunction.power(0.3), 0.5, d).modulus
        assert weighted_integral(om, 0.5, 1e-4).function_evals == 0
        for t in (1e-4, 0.05, 0.5):
            closed = om.weighted_primitive(t, 0.5)
            ref, err = scipy.integrate.quad(
                lambda r: om(r) / r**1.5, t, 1.0, epsabs=1e-14, epsrel=1e-13)
            assert abs(closed - ref) <= 1e-12 * max(1.0, abs(ref)) + err

    def test_axis_exponent_in_d_at_least_two(self):
        # omega = t^{0.3+s}, declared below 1 in d >= 2 only
        assert non_dini_datum(ModulusFunction.power(0.3), 0.5, 3).axis_exponent == 0.3 + 0.5
        assert non_dini_datum(ModulusFunction.power(0.3), 0.5, 1).axis_exponent is None
        assert non_dini_datum(ModulusFunction.power(0.5), 0.5, 2).axis_exponent is None
        assert non_dini_datum(ModulusFunction.log_inverse(1.0), 0.5, 2).axis_exponent is None

    def test_membership_with_its_own_modulus(self):
        g = non_dini_datum(ModulusFunction.log_inverse(1.0), 0.5, 2)
        est = seminorm_ext(g, g.modulus, sample_pairs=5000, seed=5)
        assert math.isfinite(est.seminorm)


class TestSignChangingDatum:
    def setup_method(self):
        self.g = sign_changing_datum(0.5, 2)

    def test_zero_on_axis(self):
        pts = np.array([[2.0, 0.0], [-3.0, 0.0]])
        assert np.all(self.g(pts) == 0.0)

    def test_oddness_is_bit_exact(self, rng):
        pts = rng.uniform(-4.0, 4.0, size=(300, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 1.0]
        mirrored = pts.copy()
        mirrored[:, 1] = -mirrored[:, 1]
        assert np.array_equal(self.g(mirrored), -self.g(pts))

    def test_sign_matches_y2(self):
        assert self.g(np.array([[1.0, 0.5]]))[0] > 0.0
        assert self.g(np.array([[1.0, -0.5]]))[0] < 0.0

    def test_rejects_dimension_one(self):
        with pytest.raises(DimensionError):
            sign_changing_datum(0.5, 1)


class TestPointDimension:
    @pytest.mark.parametrize("g", [
        constant_datum(1.0, 1), radial_indicator_datum(0.5, 1),
        halfline_modulus_datum(ModulusFunction.power(0.5)),
    ])
    def test_d1_rejects_a_row_of_two_coordinates(self, g):
        with pytest.raises(DimensionError):
            g(np.array([1.5, 2.0]))
        assert g(np.array([[1.5], [2.0]])).shape == (2,)

    @pytest.mark.parametrize("points", [
        np.array([1.5, 0.0, 3.0]), np.array([[1.5, 0.0, 3.0]]), np.array([1.5]),
        np.zeros((2, 2, 2)), np.zeros((3, 1)),
    ])
    def test_d2_rejects_points_of_another_dimension(self, points):
        for g in (transverse_modulus_datum(ModulusFunction.power(0.5), 2),
                  sign_changing_datum(0.5, 2), constant_datum(1.0, 2)):
            with pytest.raises(DimensionError):
                g(points)

    def test_one_point_of_shape_d_is_one_point(self):
        g = transverse_modulus_datum(ModulusFunction.power(0.5), 3)
        one = g(np.array([1.5, 0.0, 0.3]))
        assert one.shape == (1,)
        assert one[0] == g(np.array([[1.5, 0.0, 0.3]]))[0]


class TestOtherData:
    def test_constant_datum(self):
        g = constant_datum(2.5, 3)
        assert np.all(g(np.array([[2.0, 0.0, 0.0]])) == 2.5)
        xi = g.oscillation_closed_form(np.array([1.0, 0.0, 0.0]))
        assert np.all(xi(np.linspace(0, 3, 7)) == 0.0)

    def test_radial_indicator(self):
        g = radial_indicator_datum(0.5, 1)
        assert g(np.array([[1.2]]))[0] == 0.0
        assert g(np.array([[1.8]]))[0] == 1.0
