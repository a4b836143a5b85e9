"""Spectral measures, the stable operator, tails, and their invariances."""

import math
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import example, given, settings, strategies as st

from fraclab import stable_operator
from fraclab.exterior_data import halfline_modulus_datum
from fraclab.moduli import ModulusFunction
from fraclab.quadrature import EvaluationReport, QuadratureError, QuadratureSpec
from fraclab.stable_operator import (
    MeasureError,
    OperatorSpec,
    SpectralMeasure,
    apply_operator,
    nondegeneracy_constant,
    sphere_crossing_radii,
    tail,
    tail_space_norm,
)


def pm_atoms_1d(w=1.0):
    return SpectralMeasure.atomic(1, [((1.0,), w), ((-1.0,), w)])


def bump(s):
    # (1-|x|^2)_+^s: A bump = (1-s) m pi / (2 sin(pi s)) inside the ball for
    # the uniform measure of total mass m, and for atoms of total mass m
    def u(pts):
        return np.maximum(1.0 - np.einsum("ij,ij->i", pts, pts), 0.0) ** s

    return u


def gaussian(c):
    """exp(-|y - c|^2), symmetric about no line through 0 unless c is on it."""
    c = np.asarray(c, dtype=float)

    def u(pts):
        diff = pts - c
        return np.exp(-np.einsum("ij,ij->i", diff, diff))

    return u


class TestSpectralMeasure:
    def test_uniform_requires_positive_mass(self):
        with pytest.raises(MeasureError):
            SpectralMeasure.uniform(2, 0.0)

    def test_atomic_requires_symmetry(self):
        with pytest.raises(MeasureError):
            SpectralMeasure.atomic(2, [((1.0, 0.0), 1.0)])

    def test_atomic_requires_unit_directions(self):
        with pytest.raises(MeasureError):
            SpectralMeasure.atomic(2, [((2.0, 0.0), 1.0), ((-2.0, 0.0), 1.0)])

    def test_atomic_total_mass(self):
        m = SpectralMeasure.coordinate_axes(2, weight=0.5)
        assert m.total_mass == 2.0

    def test_operator_spec_validates_order(self):
        with pytest.raises(MeasureError):
            OperatorSpec(pm_atoms_1d(), s=1.0)


class TestNondegeneracy:
    def test_two_point_measure_d1(self):
        # |theta . xi| = 1 on S^0, so the value is the total mass
        for s in (0.25, 0.5, 0.75):
            assert nondegeneracy_constant(pm_atoms_1d(), s) == 2.0

    def test_uniform_d2_is_direction_independent(self):
        m = SpectralMeasure.uniform(2, 2.0 * math.pi)
        # int_0^{2 pi} |cos phi| dphi = 4 for mass 2 pi
        assert abs(nondegeneracy_constant(m, 0.5) - 4.0) < 1e-9
        # 180 equally spaced atom pairs of the same mass: the minimum over
        # the direction grid approaches the uniform value
        phi = np.arange(360) * math.pi / 180.0
        atoms = SpectralMeasure.atomic(2, [
            ((math.cos(a), math.sin(a)), 2.0 * math.pi / 360) for a in phi])
        for s in (0.25, 0.5, 0.75):
            uniform = nondegeneracy_constant(m, s)
            assert abs(nondegeneracy_constant(atoms, s) - uniform) <= 5e-4 * uniform

    def test_uniform_d3_closed_form(self):
        m = SpectralMeasure.uniform(3, 4.0 * math.pi)
        s = 0.3
        assert abs(nondegeneracy_constant(m, s) - 4.0 * math.pi / (2 * s + 1)) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_uniform_is_the_mean_of_a_coordinate_power(self, d):
        # m times the mean of |theta_1|^{2s} over S^{d-1}: the atoms +-1 in
        # d = 1, else an integral over the polar angle weighted by sin^{d-2}
        m = 3.0
        for s in (0.25, 0.5, 0.75):
            got = nondegeneracy_constant(SpectralMeasure.uniform(d, m), s)
            if d == 1:
                expect = m
            else:
                def mean(f):
                    return scipy.integrate.quad(
                        lambda p: f(p) * math.sin(p) ** (d - 2), 0.0,
                        0.5 * math.pi, epsabs=0.0, epsrel=1e-13)[0]

                expect = m * mean(lambda p: math.cos(p) ** (2 * s)) / mean(
                    lambda p: 1.0)
            assert abs(got - expect) <= 1e-11 * expect, (d, s)

    def test_axes_in_d4_take_the_minimum_on_the_axes(self):
        # sum_i 2 |xi_i| >= 2 |xi| with equality on the axes, which the d >= 4
        # direction grid holds
        m = SpectralMeasure.coordinate_axes(4)
        assert nondegeneracy_constant(m, 0.5) == 2.0

    def test_degenerate_atomic_pair_in_d2(self):
        m = SpectralMeasure.atomic(2, [((1.0, 0.0), 1.0), ((-1.0, 0.0), 1.0)])
        # xi = e2 is orthogonal to both atoms
        assert nondegeneracy_constant(m, 0.5, xi_samples=720) == 0.0

    @pytest.mark.parametrize("d, directions, s", [
        (2, [(math.cos(0.1234), math.sin(0.1234))], 0.5),
        (2, [(math.cos(0.1234), math.sin(0.1234))], 0.25),
        (3, [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)], 0.5),
        (4, [(1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.6, 0.8)], 0.5),
    ])
    def test_atoms_that_do_not_span_give_zero(self, d, directions, s):
        # some xi is orthogonal to every atom +-theta, so the infimum is 0;
        # in d = 4 this needs no direction grid
        atoms = [(sign * np.array(t), 1.0) for t in directions
                 for sign in (1.0, -1.0)]
        m = SpectralMeasure.atomic(d, atoms)
        assert nondegeneracy_constant(m, s) == 0.0

    def test_positive_for_axes_measure(self):
        m = SpectralMeasure.coordinate_axes(3)
        assert nondegeneracy_constant(m, 0.5) > 0.5
        assert nondegeneracy_constant(SpectralMeasure.coordinate_axes(2), 0.5) == 2.0


class TestApplyOperator:
    def test_constant_function_is_annihilated(self, spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.5)
        u = lambda pts: np.full(pts.shape[0], 7.0)
        rep = apply_operator(op, u, [0.2], spec, growth_exponent=0.0)
        assert abs(rep.value) <= 1e-10

    def test_linear_function_cancels_under_symmetry(self, spec):
        op = OperatorSpec(SpectralMeasure.uniform(1, 2.0), s=0.6)
        u = lambda pts: 3.0 * pts[:, 0]
        # growth 1 < 2s = 1.2
        rep = apply_operator(op, u, [0.1], spec, growth_exponent=1.0)
        assert abs(rep.value) <= max(rep.error_estimate, 1e-8)

    def test_bump_profile_constant_inside_ball(self, spec):
        s = 0.5
        op = OperatorSpec(SpectralMeasure.uniform(1, 2.0), s=s)
        vals = []
        for x in (0.0, 0.5):
            rep = apply_operator(op, bump(s), [x], spec, support_radius=1.0,
                                 radial_breakpoints=sphere_crossing_radii(
                                     op.measure, [x]))
            vals.append(rep.value)
        assert abs(vals[0] - vals[1]) <= 1e-3 * abs(vals[0])

    def test_rejects_undeclared_growth(self, spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.25)
        u = lambda pts: pts[:, 0] ** 2
        with pytest.raises(QuadratureError):
            apply_operator(op, u, [0.0], spec, growth_exponent=2.0)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    @pytest.mark.parametrize("fn", [apply_operator, tail])
    def test_rejects_a_non_finite_point(self, fn, x, spec):
        # unchecked, tail's partition at y = nan is [0.5, nan]: no panel, 0
        op = OperatorSpec(pm_atoms_1d(), s=0.5)
        with pytest.raises(QuadratureError, match="must be finite"):
            fn(op, bump(0.5), [x], spec, support_radius=1.0)

    def test_linearity(self, fast_spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.5)
        u = lambda pts: np.cos(pts[:, 0])
        v = lambda pts: np.exp(-pts[:, 0] ** 2)
        w = lambda pts: 2.0 * u(pts) - 3.0 * v(pts)
        ru = apply_operator(op, u, [0.3], fast_spec)
        rv = apply_operator(op, v, [0.3], fast_spec)
        rw = apply_operator(op, w, [0.3], fast_spec)
        tol = 2.0 * ru.error_estimate + 3.0 * rv.error_estimate + rw.error_estimate
        assert abs(rw.value - (2.0 * ru.value - 3.0 * rv.value)) <= tol + 1e-9

    def test_translation_invariance(self, fast_spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.5)
        h = 0.7
        u = lambda pts: np.exp(-pts[:, 0] ** 2)
        u_shift = lambda pts: np.exp(-((pts[:, 0] - h) ** 2))
        a = apply_operator(op, u, [0.2], fast_spec)
        b = apply_operator(op, u_shift, [0.2 + h], fast_spec)
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate + 1e-8

    def test_scaling_relation(self, fast_spec):
        # u_lambda(x) = u(lambda x): A u_lambda(x/lambda) = lambda^{2s} A u(x)
        s, lam = 0.5, 2.0
        op = OperatorSpec(SpectralMeasure.uniform(1, 2.0), s=s)
        u = lambda pts: np.exp(-pts[:, 0] ** 2)
        u_lam = lambda pts: np.exp(-((lam * pts[:, 0]) ** 2))
        x = 0.4
        a = apply_operator(op, u_lam, [x / lam], fast_spec)
        b = apply_operator(op, u, [x], fast_spec)
        assert abs(a.value - lam ** (2 * s) * b.value) <= 1e-6 + 4.0 * (
            a.error_estimate + b.error_estimate
        )

    def test_d2_uniform_on_radial_gaussian(self, fast_spec):
        # cross-check the d=2 angular rule against the atomic axes measure on
        # a radially symmetric function (both measures see the same radial
        # profile, mass for mass)
        s = 0.5
        u = lambda pts: np.exp(-np.einsum("ij,ij->i", pts, pts))
        uni = OperatorSpec(SpectralMeasure.uniform(2, 4.0), s=s)
        axes = OperatorSpec(SpectralMeasure.coordinate_axes(2, 1.0), s=s)
        a = apply_operator(uni, u, [0.0, 0.0], fast_spec)
        b = apply_operator(axes, u, [0.0, 0.0], fast_spec)
        assert abs(a.value - b.value) <= 1e-5 + a.error_estimate + b.error_estimate

    @pytest.mark.parametrize(
        "x",
        [
            (0.5, 0.0),
            (0.5 * math.cos(math.pi / 4), 0.5 * math.sin(math.pi / 4)),
            (0.3, -0.4),
            (0.5, 0.0, 0.0),
            tuple(0.5 / math.sqrt(3.0) * np.ones(3)),
            (0.3, 0.2, -0.3),
            (0.0, 0.0, 0.0, 0.3),
        ],
        ids=["d2-axis", "d2-diagonal", "d2-generic",
             "d3-axis", "d3-diagonal", "d3-generic", "d4-axis"],
    )
    @pytest.mark.parametrize("measure", ["uniform", "axes"])
    def test_bump_value_is_the_same_at_every_point(self, x, measure, fast_spec):
        # A (1-|x|^2)_+^s = (1-s) m pi / (2 sin(pi s)) at every |x| < 1, in any
        # dimension, for the uniform measure of total mass m.  Each atom pair
        # of the axes measure sees a 1-D bump of the same profile, so the
        # value is the same for atoms of total mass m.
        s, m, d = 0.5, 2.0, len(x)
        if measure == "uniform":
            mu = SpectralMeasure.uniform(d, m)
        else:
            mu = SpectralMeasure.coordinate_axes(d, m / (2 * d))
        op = OperatorSpec(mu, s=s)
        rep = apply_operator(op, bump(s), x, fast_spec, support_radius=1.0,
                             radial_breakpoints=sphere_crossing_radii(mu, x))
        exact = (1.0 - s) * m * math.pi / (2.0 * math.sin(math.pi * s))
        assert rep.converged
        miss = abs(rep.value - exact)
        assert miss <= rep.error_estimate + fast_spec.abs_tol

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_translated_gaussian_against_its_closed_form(self, d, s):
        # For the uniform measure of mass m, A exp(-|. - c|^2)(x) is
        # (1-s) m pi / (2 sin(pi s)) / Gamma(1+s) 1F1(d/2+s; d/2; -|x-c|^2)
        # (Dyda, FCAA 15, 2012).  c lies off the line through 0 and x, so u
        # is symmetric about no line the sphere rule could assume.
        spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
        m = 2.0
        x, c = 0.3 * np.eye(d)[0], 0.3 * np.eye(d)[1]
        rep = apply_operator(OperatorSpec(SpectralMeasure.uniform(d, m), s=s),
                             gaussian(c), x, spec)
        exact = ((1.0 - s) * m * math.pi / (2.0 * math.sin(math.pi * s))
                 / math.gamma(1.0 + s)
                 * scipy.special.hyp1f1(0.5 * d + s, 0.5 * d, -(x - c) @ (x - c)))
        assert rep.converged
        assert abs(rep.value - exact) <= rep.error_estimate

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_converged_bump_values_are_within_their_estimates(self, d,
                                                              fast_spec):
        # The sphere rule runs at its inner rule's own abs_tol.  A converged
        # value must be within its estimate; an unconverged one may miss (at
        # s = 3/4 and 0.9 from the centre the first difference is roundoff
        # at tiny r, and r^{-1-2s} blows it up).
        m = 2.0
        mu = SpectralMeasure.uniform(d, m)
        points = ([[0.5], [-0.5], [-0.9]] if d == 1 else
                  [0.5 * np.eye(d)[0], 0.5 * np.ones(d) / math.sqrt(d),
                   -0.9 * np.eye(d)[1]])
        flags = []
        for s in (0.25, 0.5, 0.75):
            exact = (1.0 - s) * m * math.pi / (2.0 * math.sin(math.pi * s))
            for x in points:
                rep = apply_operator(OperatorSpec(mu, s=s), bump(s), x,
                                     fast_spec, support_radius=1.0)
                if rep.converged:
                    assert abs(rep.value - exact) <= rep.error_estimate, (s, x)
                flags.append(rep.converged)
        assert sum(flags) >= len(flags) // 2

    @pytest.mark.parametrize(
        "x", [(0.22054855, -0.21983425), (0.3, -0.2, 0.15)], ids=["d2", "d3"]
    )
    def test_atomic_bump_kinks_are_breakpoints(self, x, fast_spec):
        # Along an atom theta the bump kinks where |x + r theta| = 1, not at
        # 1 -+ |x|; with 1 -+ |x| the d = 2 value misses pi/2 by 1.7e-6
        # against an estimate of 5.5e-7.
        s, d = 0.5, len(x)
        mu = SpectralMeasure.coordinate_axes(d, 1.0 / d)
        rep = apply_operator(OperatorSpec(mu, s=s), bump(s), x, fast_spec,
                             support_radius=1.0,
                             radial_breakpoints=sphere_crossing_radii(mu, x))
        assert rep.converged
        assert abs(rep.value - 0.5 * math.pi) <= rep.error_estimate + fast_spec.abs_tol


class TestSphereCrossingRadii:
    @pytest.mark.parametrize("x", [[0.3], [-0.7], [0.0], [0.3, -0.4],
                                   [0.1, 0.2, -0.3]])
    def test_uniform_gives_nearest_and_farthest_distance(self, x):
        r = float(np.linalg.norm(np.asarray(x)))
        radii = sphere_crossing_radii(SpectralMeasure.uniform(len(x), 2.0), x)
        assert radii == (1.0 - r, 1.0 + r)

    def test_atoms_meet_the_unit_sphere(self, rng):
        x = np.array([0.3, -0.2, 0.15])
        pairs = []
        for v in rng.standard_normal((3, 3)):
            v /= np.linalg.norm(v)
            pairs += [(v, 0.5), (-v, 0.5)]
        mu = SpectralMeasure.atomic(3, pairs)
        radii = sphere_crossing_radii(mu, x)
        assert len(radii) == len(mu.atoms)
        for (theta, _), r in zip(mu.atoms, radii):
            assert r > 0.0
            assert abs(np.linalg.norm(x + r * np.asarray(theta)) - 1.0) <= 1e-15

    def test_point_outside_the_ball_gives_the_real_positive_radii(self):
        # From x = (1.5, 0): the ray along +e1 leaves the sphere behind it,
        # the rays along +-e2 miss it, and the ray along -e1 enters at 0.5
        # and leaves at 2.5.
        x = np.array([1.5, 0.0])
        mu = SpectralMeasure.coordinate_axes(2, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            radii = sphere_crossing_radii(mu, x)
            uniform = sphere_crossing_radii(SpectralMeasure.uniform(2, 2.0), x)
        assert sorted(radii) == [0.5, 2.5]
        assert uniform == (0.5, 2.5)

    def test_support_sphere_radii_follow_the_unit_ones(self):
        mu = SpectralMeasure.uniform(2, 1.0)
        radii = sphere_crossing_radii(mu, [0.3, 0.4], support_radius=3.0)
        assert np.allclose(radii, [0.5, 1.5, 2.5, 3.5], rtol=1e-15, atol=0.0)
        # a support of radius 0 (u vanishes off the origin) adds no sphere
        assert (sphere_crossing_radii(mu, [0.3, 0.4], 0.0)
                == sphere_crossing_radii(mu, [0.3, 0.4]))

    def test_rejects_point_of_the_wrong_dimension(self):
        mu = SpectralMeasure.coordinate_axes(2, 0.5)
        with pytest.raises(QuadratureError, match="dimension mismatch"):
            sphere_crossing_radii(mu, [0.1, 0.2, 0.3])


class TestTail:
    def test_constant_closed_form(self, spec):
        # (1-s) m 2^{2s} / (2s): s = 0.5, m = 2 -> 2
        op = OperatorSpec(pm_atoms_1d(), s=0.5)
        u = lambda pts: np.ones(pts.shape[0])
        rep = tail(op, u, [0.0], spec)
        assert abs(rep.value - 2.0) <= max(rep.error_estimate, 1e-9)

    def test_constant_d2_uniform(self, spec):
        op = OperatorSpec(SpectralMeasure.uniform(2, 2.0 * math.pi), s=0.5)
        u = lambda pts: np.ones(pts.shape[0])
        rep = tail(op, u, [0.0, 0.0], spec)
        assert abs(rep.value - 2.0 * math.pi) <= max(rep.error_estimate, 1e-8)

    def test_zero(self, spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.5)
        u = lambda pts: np.zeros(pts.shape[0])
        rep = tail(op, u, [0.0], spec)
        assert rep.value == 0.0

    def test_monotone_in_absolute_value(self, fast_spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.5)
        u = lambda pts: np.sin(pts[:, 0])
        w = lambda pts: np.ones(pts.shape[0])
        ru = tail(op, u, [0.3], fast_spec)
        rw = tail(op, w, [0.3], fast_spec)
        assert ru.value <= rw.value + ru.error_estimate + rw.error_estimate

    def test_nonnegative(self, fast_spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.7)
        u = lambda pts: np.sin(3.0 * pts[:, 0])
        rep = tail(op, u, [0.1], fast_spec)
        assert rep.value >= 0.0

    def test_rejects_growth_violation(self, spec):
        op = OperatorSpec(pm_atoms_1d(), s=0.25)
        u = lambda pts: pts[:, 0]
        with pytest.raises(QuadratureError):
            tail(op, u, [0.0], spec, growth_exponent=1.0)

    def test_halfline_datum_against_quadpack(self, spec):
        # (y + t - 1)^s on y + t in [1, 3]: a root kink where y + t crosses
        # the unit sphere and a jump at the support sphere; without radial
        # breakpoints there the rule missed by 9.2e-6, 2,300x its estimate
        s, y = 0.5, -0.2017
        op = OperatorSpec(SpectralMeasure.uniform(1, 1.0), s=s)
        datum = halfline_modulus_datum(ModulusFunction.power(s))
        rep = tail(op, datum, [y], spec, support_radius=3.0)
        val, err = scipy.integrate.quad(
            lambda t: t ** (-1.0 - 2.0 * s), 1.0 - y, 3.0 - y,
            weight="alg", wvar=(s, 0.0), epsabs=1e-14, epsrel=1e-13)
        ref = (1.0 - s) * 0.5 * val
        assert rep.converged
        assert abs(rep.value - ref) <= (rep.error_estimate + spec.tolerance(ref)
                                        + (1.0 - s) * 0.5 * err)


def _rotation(d, entries):
    """The orthogonal factor of a d x d matrix, turned to determinant 1."""
    q = np.linalg.qr(np.reshape(entries[:d * d], (d, d)))[0]
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([2, 3]),
    s=st.sampled_from([0.25, 0.5, 0.75]),
    x=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    c=st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3),
    entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9),
)
# A quarter turn in d = 2, which reverses the second vector of the solver's
# frame between x and Rx: a rule that assumed a symmetry about the line
# through x would read the other point of each mirror pair on one side.
@example(d=2, s=0.5, x=[0.3, 0.0, 0.0], c=[0.0, 0.3, 0.0],
         entries=[0.0, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
def test_uniform_measure_is_rotation_invariant(d, s, x, c, entries):
    # The uniform measure is rotation invariant: A u(x) = A (u o R^-1)(Rx)
    # for the non-radial u = exp(-|y - c|^2), whose u o R^-1 is the same
    # Gaussian about Rc, and likewise for the tail.  Both sides converge and
    # agree within their summed estimates.
    spec = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    R = _rotation(d, entries)
    x, c = np.array(x[:d]), np.array(c[:d])
    op = OperatorSpec(SpectralMeasure.uniform(d, 2.0), s=s)
    for fn in (apply_operator, tail):
        a = fn(op, gaussian(c), x, spec)
        b = fn(op, gaussian(R @ c), R @ x, spec)
        assert a.converged and b.converged, fn.__name__
        assert abs(a.value - b.value) <= a.error_estimate + b.error_estimate, \
            fn.__name__


@pytest.mark.parametrize("norm", ["tail", "tail_space_norm"])
def test_unconverged_sphere_is_reported(norm, monkeypatch):
    # An oscillation in the angle alone, 1e-6 in size: its sphere rule, at
    # the inner rule of rel_tol 1e-10 and a 64-panel cap (2.5e-11 and 512
    # panels), cannot resolve it and reports so, and the flag reaches the
    # result.
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12, max_subdivisions=64)
    flags = []
    sphere_integrals = stable_operator.sphere_integrals

    def spy(*args):
        rep = sphere_integrals(*args)
        flags.append(rep.converged)
        return rep

    monkeypatch.setattr(stable_operator, "sphere_integrals", spy)
    u = lambda pts: 1.0 + 1e-6 * np.cos(
        100000.5 * np.arctan2(pts[:, 1], pts[:, 0]))
    if norm == "tail":
        op = OperatorSpec(SpectralMeasure.uniform(2, 1.0), s=0.5)
        rep = tail(op, u, [0.0, 0.0], spec)
    else:
        rep = tail_space_norm(u, 0.5, 2, spec)
    assert np.isfinite(rep.value)
    assert not all(flags)
    assert not rep.converged


class _CountingU:
    """u with the number of rows it was called on; with ``evals`` it returns
    a report of that many leaf evaluations per point, converged unless
    ``unconverged``."""

    def __init__(self, u, evals=None, unconverged=False):
        self.u, self.evals, self.unconverged, self.rows = u, evals, unconverged, 0

    def __call__(self, pts):
        self.rows += len(pts)
        vals = self.u(pts)
        if self.evals is None:
            return vals
        return EvaluationReport(vals, np.zeros_like(vals),
                                np.full(len(pts), self.evals),
                                not self.unconverged)


@pytest.mark.parametrize("measure", [
    SpectralMeasure.uniform(1, 2.0), SpectralMeasure.uniform(2, 2.0),
    SpectralMeasure.coordinate_axes(2),
], ids=["uniform-d1", "uniform-d2", "axes-d2"])
def test_function_evals_are_the_rows_of_u(measure, fast_spec):
    s = 0.5
    op = OperatorSpec(measure, s=s)
    d = measure.dimension
    x = np.linspace(0.3, -0.2, d)
    for run in (
        lambda u: apply_operator(op, u, x, fast_spec, support_radius=1.0),
        lambda u: apply_operator(op, u, x, fast_spec),
        lambda u: tail(op, u, x, fast_spec, support_radius=1.0),
        lambda u: tail_space_norm(u, s, d, fast_spec),
    ):
        u = _CountingU(bump(s))
        rep = run(u)
        assert rep.converged
        assert rep.function_evals == u.rows > 0
        # a u that reports its own work and flag passes both on
        reporting = _CountingU(bump(s), evals=3, unconverged=True)
        rep3 = run(reporting)
        assert (rep3.value, rep3.error_estimate) == (rep.value, rep.error_estimate)
        assert rep3.function_evals == 3 * reporting.rows == 3 * u.rows
        assert not rep3.converged


class TestTailSpaceNorm:
    def test_zero(self, spec):
        u = lambda pts: np.zeros(pts.shape[0])
        assert tail_space_norm(u, 0.5, 1, spec).value == 0.0

    def test_constant_d1(self, spec):
        # (1-s) int_R (1+|x|)^{-2} dx = 0.5 * 2 = 1 for s = 1/2
        u = lambda pts: np.ones(pts.shape[0])
        rep = tail_space_norm(u, 0.5, 1, spec)
        assert abs(rep.value - 1.0) <= max(rep.error_estimate, 1e-9)

    def test_constant_d4(self, spec):
        # (1-s) |S^3| B(4, 2s) = 0.5 * 2 pi^2 * 1/4 for s = 1/2
        u = lambda pts: np.ones(pts.shape[0])
        rep = tail_space_norm(u, 0.5, 4, spec)
        assert rep.converged
        assert abs(rep.value - 0.25 * math.pi**2) <= max(rep.error_estimate, 1e-9)

    def test_non_radial_d2_against_quadpack(self):
        # The Gaussian about c averages to exp(-r^2 - |c|^2) I0(2 r |c|) over
        # the circle of radius r, so the norm is a 1-D integral.  u is
        # symmetric about no line through 0 but the one through c.
        s, c = 0.5, 0.5
        spec = QuadratureSpec(rel_tol=1e-8)
        rep = tail_space_norm(gaussian([0.6 * c, -0.8 * c]), s, 2, spec)
        ref, err = scipy.integrate.quad(
            lambda r: (2.0 * math.pi * r * math.exp(-(r - c) ** 2)
                       * scipy.special.i0e(2.0 * r * c) / (1.0 + r) ** (2.0 + 2.0 * s)),
            0.0, np.inf, epsabs=1e-14, epsrel=1e-13)
        ref *= 1.0 - s
        assert rep.converged
        assert abs(rep.value - ref) <= rep.error_estimate + (1.0 - s) * err

    def test_power_growth_against_reference(self, spec):
        s = 0.5
        u = lambda pts: np.abs(pts[:, 0]) ** (s / 2.0)
        rep = tail_space_norm(u, s, 1, spec, growth_exponent=s / 2.0)
        x = np.linspace(0.0, 2000.0, 2_000_001)
        ref = 2.0 * (1.0 - s) * np.trapezoid(
            x ** (s / 2.0) / (1.0 + x) ** 2.0, x
        )
        # analytic correction for the truncated tail: int_X^inf x^{1/4-2} dx
        ref += 2.0 * (1.0 - s) * 2000.0 ** (-0.75) / 0.75
        assert abs(rep.value - ref) < 2e-4

