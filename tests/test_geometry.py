"""Exterior-paraboloid containment checks and Dini-class classification."""

import numpy as np
import pytest

from fraclab.geometry import (
    DomainOracle,
    GeometryError,
    Paraboloid,
    ball_domain,
    check_dini_class,
    check_exterior_dini,
    cusp_domain,
    halfspace_domain,
)
from fraclab.moduli import ModulusFunction


class TestDomains:
    def test_ball_membership(self):
        dom = ball_domain(2)
        assert dom.membership(np.array([[0.5, 0.0]]))[0]
        assert not dom.membership(np.array([[1.5, 0.0]]))[0]

    def test_ball_frames_map_inward_normal_to_ed(self):
        dom = ball_domain(3, boundary_count=16, seed=1)
        for z, R in dom.boundary_points:
            assert abs(np.linalg.norm(z) - 1.0) < 1e-12
            np.testing.assert_allclose(R @ (-z), [0.0, 0.0, 1.0], atol=1e-12)
            np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)

    def test_halfspace(self):
        dom = halfspace_domain(2)
        assert dom.membership(np.array([[3.0, 0.1]]))[0]
        assert not dom.membership(np.array([[3.0, -0.1]]))[0]

    @pytest.mark.parametrize("d, count", [(0, 32), (2, 0), (2, -1)])
    def test_ball_validation(self, d, count):
        with pytest.raises(GeometryError):
            ball_domain(d, boundary_count=count)

    def test_halfspace_validation(self):
        with pytest.raises(GeometryError):
            halfspace_domain(0)

    def test_cusp_validation(self):
        with pytest.raises(GeometryError):
            cusp_domain(2, beta=1.5)
        with pytest.raises(GeometryError):
            cusp_domain(1)


class TestParaboloid:
    def test_requires_positive_depth(self):
        with pytest.raises(GeometryError):
            Paraboloid(ModulusFunction.power(1.0), depth=0.0)

    @pytest.mark.parametrize("depth", [np.nan, np.inf])
    def test_requires_finite_depth(self, depth):
        with pytest.raises(GeometryError):
            Paraboloid(ModulusFunction.power(1.0), depth=depth)

    def test_samples_lie_in_region(self):
        p = Paraboloid(ModulusFunction.power(1.0), depth=0.5)
        pts = p.sample(3, 5000, seed=7)
        trans = np.linalg.norm(pts[:, :-1], axis=1)
        assert np.all(pts[:, -1] > -0.5)
        assert np.all(pts[:, -1] < -trans * trans)  # omega(t) = t here

    def test_samples_reach_the_apex_region(self):
        p = Paraboloid(ModulusFunction.power(1.0))
        pts = p.sample(2, 20000, seed=3)
        assert np.min(np.abs(pts[:, 0])) < 1e-5


class TestExteriorDini:
    def test_ball_passes_everywhere(self):
        dom = ball_domain(2, boundary_count=8, seed=2)
        p = Paraboloid(ModulusFunction.power(1.0), depth=0.5)
        for z, _ in dom.boundary_points:
            rep = check_exterior_dini(dom, z, p, samples=2000, seed=11)
            assert rep.holds_on_samples
            assert rep.witness is None

    def test_halfspace_passes(self):
        dom = halfspace_domain(3)
        p = Paraboloid(ModulusFunction.power(0.5), depth=0.25)
        rep = check_exterior_dini(dom, np.zeros(3), p, samples=5000, seed=0)
        assert rep.holds_on_samples

    def test_cusp_produces_witness(self):
        dom = cusp_domain(2, beta=0.5)
        p = Paraboloid(ModulusFunction.power(1.0), depth=0.5)
        rep = check_exterior_dini(dom, np.zeros(2), p, samples=10000, seed=0)
        assert not rep.holds_on_samples
        assert dom.membership(rep.witness[None, :])[0]

    def test_unknown_boundary_point_rejected(self):
        dom = halfspace_domain(2)
        p = Paraboloid(ModulusFunction.power(1.0))
        with pytest.raises(GeometryError):
            check_exterior_dini(dom, np.array([1.0, 0.0]), p)

    @pytest.mark.parametrize("samples", [0, -5])
    def test_needs_a_sample(self, samples):
        dom = halfspace_domain(2)
        p = Paraboloid(ModulusFunction.power(1.0))
        with pytest.raises(GeometryError, match="samples"):
            check_exterior_dini(dom, np.zeros(2), p, samples=samples)


class TestDiniClass:
    def test_plain_variants(self):
        assert check_dini_class(ModulusFunction.power(0.5)).satisfied
        assert check_dini_class(ModulusFunction.power_log(0.5, 2.0)).satisfied
        assert not check_dini_class(ModulusFunction.log_inverse(1.0)).satisfied

    def test_two_s_sharpens_the_class(self):
        # omega = log^{-1} fails the plain test, but omega^{2s} with
        # 2s = 1.5 integrates
        om = ModulusFunction.log_inverse(1.0)
        assert check_dini_class(om, s=0.75, variant="two_s").satisfied

    def test_two_s_requires_s(self):
        with pytest.raises(GeometryError):
            check_dini_class(ModulusFunction.power(0.5), variant="two_s")
        with pytest.raises(GeometryError):
            check_dini_class(ModulusFunction.power(0.5), variant="bogus")

    def test_monotone_comparison_property(self, rng):
        # if omega2 <= omega1 pointwise and omega1 is Dini then so is omega2
        om1 = ModulusFunction.power(0.5)
        om2 = ModulusFunction.power(0.8)  # t^{0.8} <= t^{0.5} on (0, 1]
        t = rng.uniform(1e-9, 1.0, size=1000)
        assert np.all(om2(t) <= om1(t) + 1e-15)
        r1 = check_dini_class(om1)
        r2 = check_dini_class(om2)
        assert r1.satisfied and r2.satisfied
        assert r2.report.value <= r1.report.value + 1e-9
