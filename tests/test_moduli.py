"""Moduli of continuity, Dini integrals, sigma/kappa, Stieltjes, seminorms."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from fraclab import moduli
from fraclab.moduli import (
    InvalidModulusError,
    ModulusFunction,
    dini_integral,
    kappa,
    oscillation_profile,
    power_transform,
    seminorm_ext,
    seminorm_interior,
    sigma,
    stieltjes_integral,
    weighted_integral,
)
from fraclab.exterior_data import constant_datum, halfline_modulus_datum
from fraclab.quadrature import EvaluationReport


def random_table_modulus(rng, n_max=8):
    n = int(rng.integers(3, n_max + 1))
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 4.0, n - 1))])
    incs = np.concatenate([[0.0], rng.uniform(0.0, 0.5, n - 1)])
    return ModulusFunction.table(np.column_stack([knots, np.cumsum(incs)]))


def _closed_form_cases():
    """(modulus, s) for every closed form of weighted_primitive."""
    M = ModulusFunction
    table = M.table([[0.0, 0.0], [0.3, 0.2], [1.5, 0.9]])
    cases = []
    for s in (0.0, 0.25, 0.5, 0.75):
        cases += [pytest.param(M.zero(), s, id=f"zero-s{s}"),
                  pytest.param(M.power(0.7), s, id=f"power0.7-s{s}"),
                  pytest.param(M.power_log(0.7, 0.0), s,
                               id=f"power_log0.7,0-s{s}"),
                  pytest.param(table, s, id=f"table-s{s}")]
        if s > 0.0:
            cases.append(pytest.param(M.power(s), s, id=f"power=s-s{s}"))
            cases += [pytest.param(M.power_log(s, p), s, id=f"power_log=s,{p}-s{s}")
                      for p in (0.0, 1.0, 2.0)]
    cases += [pytest.param(M.log_inverse(p), 0.0, id=f"log_inverse{p}-s0.0")
              for p in (0.5, 1.0, 2.0)]
    cases += [pytest.param(M.power_log(a, p), s, id=f"power_log{a},{p}-s{s}")
              for a, p, s in ((0.7, 1.0, 0.25), (0.0, 2.0, 0.5), (4.0, 0.5, 0.0))]
    return cases


CLOSED_FORM_CASES = _closed_form_cases()

#: Abscissae for the family's bitwise checks: 0, subnormal-adjacent, inside
#: (0, 1), the frozen point 1 and beyond it.
FAMILY_GRID = np.array([0.0, 1e-300, 1e-12, 0.05, 0.5, 1.0, 3.0])


class TestModulusFunction:
    def test_power_eval(self):
        om = ModulusFunction.power(0.5)
        assert om(0.25) == 0.5
        assert om(0.0) == 0.0

    def test_log_inverse_flagged_nonvanishing(self):
        om = ModulusFunction.log_inverse(1.0)
        assert om(1.0) == 1.0
        assert om(math.exp(-1.0)) == 0.5

    def test_log_types_frozen_beyond_one(self):
        om = ModulusFunction.log_inverse(2.0)
        assert om(3.0) == om(1.0)
        pl = ModulusFunction.power_log(0.5, 1.0)
        assert pl(4.0) == 2.0 * pl(1.0)

    def test_table_is_piecewise_linear_and_clamped(self):
        om = ModulusFunction.table([[0.0, 0.0], [1.0, 2.0], [2.0, 3.0]])
        assert om(0.5) == 1.0
        assert om(5.0) == 3.0

    def test_table_rejects_decreasing_values(self):
        with pytest.raises(InvalidModulusError):
            ModulusFunction.table([[0.0, 1.0], [1.0, 0.5]])

    def test_table_rejects_nonzero_start_abscissa(self):
        with pytest.raises(InvalidModulusError):
            ModulusFunction.table([[0.5, 0.0], [1.0, 1.0]])

    def test_rejects_negative_argument(self):
        with pytest.raises(InvalidModulusError):
            ModulusFunction.power(0.5)(-0.1)

    def test_monotonicity_check_catches_custom_decrease(self):
        bad = ModulusFunction.custom(lambda t: 1.0 / (1.0 + t))
        with pytest.raises(InvalidModulusError):
            bad.check_monotone()

    def test_finiteness_check_names_the_sampled_range(self):
        # dini_integral samples [0, 1]; the message names that range.
        bad = ModulusFunction.custom(lambda t: np.where(t > 0.9, np.nan, t))
        with pytest.raises(InvalidModulusError,
                           match=r"not finite on \[0, 1\]"):
            dini_integral(bad)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 1, 2.0])
    def test_power_is_the_plain_power(self, alpha):
        om = ModulusFunction.power(alpha)
        assert np.array_equal(om(FAMILY_GRID), FAMILY_GRID ** alpha)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_log_inverse_is_the_family_at_a0(self, p):
        assert np.array_equal(ModulusFunction.log_inverse(p)(FAMILY_GRID),
                              ModulusFunction.power_log(0, p)(FAMILY_GRID))

    @pytest.mark.parametrize("a, p", [(0.0, 0.0), (-0.1, 1.0), (0.5, -1.0),
                                      (math.nan, 1.0), (0.5, math.nan)])
    def test_family_rejects_bad_exponents(self, a, p):
        with pytest.raises(InvalidModulusError):
            ModulusFunction.power_log(a, p)

    def test_power_exponent_is_that_of_a_pure_power(self):
        assert ModulusFunction.power(0.5).power_exponent == 0.5
        assert ModulusFunction.power_log(1.5, 0.0).power_exponent == 1.5
        for om in (ModulusFunction.power_log(0.5, 1.0),
                   ModulusFunction.log_inverse(1.0),
                   ModulusFunction.table([[0.0, 0.0], [1.0, 1.0]]),
                   ModulusFunction.custom(np.sqrt), ModulusFunction.zero()):
            assert om.power_exponent is None, om

    def test_power_transform_on_closed_forms(self):
        om = power_transform(ModulusFunction.log_inverse(1.0), 1.5)
        assert (om.params["a"], om.params["p"]) == (0.0, 1.5)
        assert om.weighted_primitive(0.05, 0.0) is not None
        om2 = power_transform(ModulusFunction.power(0.5), 2.0)
        assert (om2.params["a"], om2.params["p"]) == (1.0, 0.0)
        assert om2.weighted_primitive(0.05, 0.5) is not None

    @pytest.mark.parametrize("om, s", CLOSED_FORM_CASES)
    def test_weighted_primitive_matches_quadrature(self, om, s):
        t = 0.05
        closed = om.weighted_primitive(t, s)
        knots = [k for k in om.knots if t < k < 1.0]
        ref, err = scipy.integrate.quad(
            lambda r: om(r) / r ** (1.0 + s), t, 1.0, points=knots or None,
            epsabs=1e-14, epsrel=1e-13)
        assert abs(closed - ref) <= 1e-12 * max(1.0, abs(ref)) + err


#: The oracle grid's t, from deep inside to 1e-12 below 1.
ORACLE_T = (1e-300, 1e-12, 1e-4, 0.05, 0.5, 0.999, 1 - 1e-8, 1 - 1e-12)
NEAR_ONE_T = (0.999, 1 - 1e-8, 1 - 1e-12)


def _family_reference(a, p, s, ts):
    """mpmath.quad at 30 digits of int_t^1 r^{a-s-1} log^{-p}(e/r) dr =
    int_0^X e^{-bx} (1+x)^{-p} dx, X = log(1/t) and b = a - s, for each t.

    The integral is summed over the pieces between consecutive X.  Each piece
    is written so that e^{-|b|y} decays from one of its ends, and is split at
    y = (2^k - 1) min(1, 1/|b|) up to 80/|b|; for p <= 3 the rest of the
    piece holds less than e^{-70} of it.
    """
    with mpmath.workdps(30):
        b = mpmath.mpf(a) - mpmath.mpf(s)
        c = abs(b)
        step = min(1, 1 / c) if c else 1
        xs = {t: -mpmath.log(mpmath.mpf(t)) for t in ts}
        out, total, x0 = {}, mpmath.mpf(0), mpmath.mpf(0)
        for t in sorted(ts, reverse=True):
            x1 = xs[t]
            o, d = (x0, 1) if b >= 0 else (x1, -1)
            end = min(x1 - x0, 80 / c) if c else x1 - x0
            pts = [mpmath.mpf(0)]
            while pts[-1] < end:
                pts.append(min(end, 2 * pts[-1] + step))
            total += mpmath.exp(-b * o) * mpmath.quad(
                lambda y: mpmath.exp(-c * y) * (1 + o + d * y) ** -p, pts,
                method="gauss-legendre")
            out[t], x0 = total, x1
        return out


def _table_reference(om, s, t):
    """mpmath.quad at 30 digits of int_t^1 omega(r)/r^{1+s} dr for a table,
    one piece between consecutive knots."""
    with mpmath.workdps(30):
        knots = [mpmath.mpf(k) for k in om.params["t"]]
        vals = [mpmath.mpf(v) for v in om.params["v"]]

        def omega(r):
            if r >= knots[-1]:
                return vals[-1]
            j = max(i for i in range(len(knots)) if knots[i] <= r)
            slope = (vals[j + 1] - vals[j]) / (knots[j + 1] - knots[j])
            return vals[j] + slope * (r - knots[j])

        edges = [mpmath.mpf(t)] + [k for k in knots if t < k < 1] + [1]
        return mpmath.quad(lambda r: omega(r) * r ** (-1 - s), edges)


def _assert_within_bound(rep, exact, case):
    """The closed form's miss is within its error bound, which is at most
    1e-11 of its value, and it took no evaluation."""
    miss = abs(mpmath.mpf(rep.value) - exact)
    assert miss <= rep.error_estimate, (case, rep, float(miss))
    assert rep.error_estimate <= 1e-11 * abs(rep.value) + 1e-300, (case, rep)
    assert rep.function_evals == 0, case


class TestClosedFormErrors:
    @pytest.mark.parametrize("a", [0.0, 0.3, 0.7, 1.5, 4.0])
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.0])
    def test_family_against_mpmath(self, a, p):
        om = ModulusFunction.power_log(a, p)
        for s in (0.0, 0.25, 0.5, 0.75):
            exact = _family_reference(a, p, s, ORACLE_T)
            for t in ORACLE_T:
                _assert_within_bound(weighted_integral(om, s, t), exact[t],
                                     (a, p, s, t))
                if s:
                    assert sigma(om, s, t).function_evals == 0

    @pytest.mark.parametrize("om, s", CLOSED_FORM_CASES)
    def test_near_one_against_mpmath(self, om, s):
        # 1 - t^(a-s), log(1/t) and a^-s - b^-s formed directly lose digits
        if om.kind == "table":
            exact = {t: _table_reference(om, s, t) for t in NEAR_ONE_T}
        elif om.kind == "zero":
            exact = dict.fromkeys(NEAR_ONE_T, 0)
        else:
            exact = _family_reference(om.params["a"], om.params["p"], s,
                                      NEAR_ONE_T)
        for t in NEAR_ONE_T:
            _assert_within_bound(weighted_integral(om, s, t), exact[t],
                                 (om, s, t))

    @pytest.mark.parametrize("a, p, s", [(0.0, 150.0, 0.5), (1.0, 150.0, 0.5),
                                         (0.0, 30.0, 0.99)])
    def test_steep_log_factor_against_mpmath(self, a, p, s):
        # U^{1-p} alone underflows at t = 1e-300, and e^{(s-a)x} (1+x)^{-p}
        # dips by hundreds of decades inside (0, X): split at 2^k from both
        # ends
        t = 1e-300
        with mpmath.workdps(30):
            x_end = -mpmath.log(mpmath.mpf(t))
            pts = {mpmath.mpf(0), x_end}
            for k in range(-4, 10):
                pts |= {mpmath.mpf(2) ** k, x_end - mpmath.mpf(2) ** k}
            exact = mpmath.quad(
                lambda x: mpmath.exp((mpmath.mpf(s) - a) * x) * (1 + x) ** -p,
                sorted(pts))
        _assert_within_bound(weighted_integral(ModulusFunction.power_log(a, p),
                                               s, t), exact, (a, p, s, t))

    def test_only_custom_moduli_reach_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the adaptive driver was called")

        monkeypatch.setattr(moduli, "integrate_1d", refuse)
        M = ModulusFunction
        closed = [M.power_log(a, p) for a in (0.0, 0.3, 0.7, 1.5, 4.0)
                  for p in (0.0, 0.5, 1.0, 2.0, 3.0) if a or p]
        closed += [M.zero(), M.table([[0.0, 0.0], [0.3, 0.2], [1.5, 0.9]])]
        for om in closed:
            for s in (0.25, 0.5, 0.75):
                for t in (1e-12, 0.05, 0.5, 0.999, 3.0):
                    assert sigma(om, s, t).function_evals == 0
            dini_integral(om)
        with pytest.raises(AssertionError, match="adaptive driver"):
            sigma(M.custom(lambda t: np.asarray(t) ** 0.5), 0.5, 0.05)


class TestDiniIntegral:
    def test_log_squared_oracle(self):
        # substitution u = log(e/t): int_1^inf u^{-2} du = 1
        rep = dini_integral(ModulusFunction.log_inverse(2.0))
        assert rep.convergent
        assert abs(rep.value - 1.0) <= 1e-3

    def test_zero_modulus(self):
        rep = dini_integral(ModulusFunction.zero())
        assert rep.convergent
        assert rep.value == 0.0

    def test_log_inverse_divergent(self):
        rep = dini_integral(ModulusFunction.log_inverse(1.0))
        assert not rep.convergent
        # increments follow loglog growth: slowly decaying, all positive
        assert np.all(rep.increments > 0)

    def test_power_modulus_value(self):
        rep = dini_integral(ModulusFunction.power(0.5))
        assert rep.convergent
        assert abs(rep.value - 2.0) <= 1e-6

    def test_decision_stable_under_depth_doubling(self):
        for om, expect in [
            (ModulusFunction.log_inverse(2.0), True),
            (ModulusFunction.log_inverse(1.0), False),
            (ModulusFunction.power(0.3), True),
        ]:
            shallow = dini_integral(om)
            deep = dini_integral(
                om, lower_cutoffs=[10.0 ** (-k) for k in range(1, 25)]
            )
            assert shallow.convergent == deep.convergent == expect

    def test_rejects_decreasing_iota(self):
        bad = ModulusFunction.custom(lambda t: 2.0 - t)
        with pytest.raises(InvalidModulusError):
            dini_integral(bad)


class TestSigmaKappa:
    def test_power_closed_form(self):
        s = 0.5
        rep = sigma(ModulusFunction.power(s), s, 0.1)
        exact = 0.1**s * (1.0 + math.log(10.0))
        assert abs(rep.value - exact) <= 1e-6 * exact

    def test_zero_modulus_gives_ts(self):
        rep = sigma(ModulusFunction.zero(), 0.5, 0.25)
        assert rep.value == 0.5

    def test_general_power_closed_form(self):
        s, alpha, t = 0.5, 0.9, 0.01
        rep = sigma(ModulusFunction.power(alpha), s, t)
        exact = t**s * (1.0 + (1.0 - t ** (alpha - s)) / (alpha - s))
        assert abs(rep.value - exact) <= 1e-9 * exact

    def test_t_above_one_is_ts(self):
        rep = sigma(ModulusFunction.power(0.3), 0.5, 2.0)
        assert rep.value == 2.0**0.5
        assert rep.error_estimate == 0.0

    def test_kappa_examples(self):
        assert kappa(ModulusFunction.zero(), 0.5, 0.3) == 1.0
        assert abs(kappa(ModulusFunction.power(0.5), 0.5, math.exp(-1.0)) - 2.0) < 1e-9
        assert kappa(ModulusFunction.power(0.5), 0.5, 1.5) == 1.0

    def test_custom_modulus_falls_back_to_quadrature(self):
        om_closed = ModulusFunction.power(0.7)
        om_custom = ModulusFunction.custom(lambda t: np.asarray(t) ** 0.7)
        a = sigma(om_closed, 0.4, 0.05).value
        b = sigma(om_custom, 0.4, 0.05).value
        assert abs(a - b) <= 1e-8 * a

    @pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
    def test_power_log_without_log_factor_is_power(self, s):
        # t^s log^0(e/t) is t^s
        for t in (1e-6, 1e-3, 0.05, 0.3, 0.7, 0.999):
            a = sigma(ModulusFunction.power_log(s, 0.0), s, t)
            b = sigma(ModulusFunction.power(s), s, t)
            assert abs(a.value - b.value) <= a.error_estimate

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sigma(ModulusFunction.power(0.5), 0.5, 0.0)
        with pytest.raises(ValueError):
            sigma(ModulusFunction.power(0.5), 1.5, 0.5)


class TestLemmaProperties:
    """Property suites for the sigma-transform inequalities."""

    def test_scaling_inequality_random_pairs(self, rng):
        # sigma(a t) <= a sigma(t) for a >= 1 (10^4 random (a, t))
        s_vals = [0.25, 0.5, 0.75]
        oms = [ModulusFunction.power(0.6), ModulusFunction.power_log(0.5, 1.0)] + [
            random_table_modulus(rng) for _ in range(4)
        ]
        count = 0
        for om in oms:
            for s in s_vals:
                a = 1.0 + rng.random(600) * 5.0
                t = 10.0 ** rng.uniform(-4.0, 0.3, 600)
                for ai, ti in zip(a, t):
                    lhs = sigma(om, s, ai * ti).value
                    rhs = ai * sigma(om, s, ti).value
                    assert lhs <= rhs * (1.0 + 1e-9) + 1e-12
                    count += 1
        assert count >= 10000

    def test_modulus_dominated_by_sigma(self, rng):
        # omega(t) <= (2 omega(2) v 2) sigma(t) on [0, 2]
        for _ in range(200):
            om = random_table_modulus(rng)
            s = float(rng.choice([0.25, 0.5, 0.75]))
            C = max(2.0 * om(2.0), 2.0)
            for t in rng.uniform(1e-4, 2.0, 50):
                assert om(t) <= C * sigma(om, s, t).value * (1.0 + 1e-9) + 1e-12

    def test_kappa_nonincreasing_pairwise(self, rng):
        # the pairwise embedding inequality reduces to kappa(t1) >= kappa(t2)
        # for t1 <= t2 (kappa nonincreasing); 10^4 random pairs
        oms = [ModulusFunction.power(0.5), random_table_modulus(rng),
               random_table_modulus(rng), ModulusFunction.power_log(0.5, 2.0)]
        s = 0.5
        checked = 0
        for om in oms:
            ts = np.sort(10.0 ** rng.uniform(-4.0, 0.5, 72))
            ks = [kappa(om, s, float(t)) for t in ts]
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    assert ks[i] >= ks[j] - 1e-9 * max(1.0, ks[i])
                    checked += 1
        assert checked >= 10000


class TestOscillationProfile:
    def test_constant_datum_profile_is_zero(self):
        g = constant_datum(3.0, 2)
        prof = oscillation_profile(g, [1.0, 0.0], np.linspace(0.0, 2.0, 9))
        assert np.all(np.asarray(prof(np.linspace(0.0, 2.0, 9))) == 0.0)

    def test_halfline_closed_form(self):
        om = ModulusFunction.power(0.5)
        g = halfline_modulus_datum(om)
        prof = oscillation_profile(g, [1.0], np.linspace(0.0, 3.0, 13))
        assert abs(prof(0.25) - om(0.25)) < 1e-14
        assert abs(prof(2.5) - om(2.0)) < 1e-14

    def test_sampled_profile_is_monotone_lower_bound(self):
        om = ModulusFunction.power(0.5)
        g = halfline_modulus_datum(om)
        # off the closed-form base point: sampled path
        prof = oscillation_profile(g, [1.5], np.linspace(0.0, 2.0, 21))
        vals = np.asarray(prof(np.linspace(0.0, 2.0, 21)))
        assert np.all(np.diff(vals) >= -1e-14)
        assert prof.sample_count > 0


def _pointwise_stieltjes(f, xi, t_max, tol):
    """Reference: the Darboux bracket refined with scalar calls, one per t."""
    pts = set(np.linspace(0.0, t_max, 17))
    pts = sorted(pts | {t_max * 10.0 ** (-k) for k in range(1, 7)})
    while True:
        fs = np.array([f(t) for t in pts])
        dxi = np.diff([xi(t) for t in pts])
        upper = float(np.sum(fs[:-1] * dxi))
        lower = float(np.sum(fs[1:] * dxi))
        if upper - lower <= 2.0 * tol:
            return 0.5 * (upper + lower), 0.5 * (upper - lower)
        gaps = (fs[:-1] - fs[1:]) * dxi
        thresh = (upper - lower) / (2.0 * gaps.size)
        pts = sorted(set(pts) | {
            0.5 * (a + b) for a, b, g in zip(pts[:-1], pts[1:], gaps)
            if g > thresh or g == gaps.max()
        })


class TestStieltjes:
    def test_total_variation_of_constant_integrand(self):
        om = ModulusFunction.power(0.5)
        rep = stieltjes_integral(np.ones_like, om, 2.0, tol=1e-9)
        assert abs(rep.value - om(2.0)) <= rep.error_estimate + 1e-9

    def test_indicator_integrand(self):
        a = 0.6
        f = lambda t: np.where(t < a, 1.0, 0.0)
        xi = lambda t: np.minimum(t, 1.0)
        rep = stieltjes_integral(f, xi, 2.0, tol=1e-6)
        assert abs(rep.value - a) <= rep.error_estimate + 1e-6

    def test_against_dense_riemann_stieltjes_sum(self):
        c, s = 0.3, 0.5
        # min(1, (c/t)^s), which is 1 on [0, c]
        f = lambda t: np.minimum(1.0, (c / np.maximum(t, c)) ** s)
        xi = lambda t: np.minimum(t, 1.0)
        rep = stieltjes_integral(f, xi, 2.0, tol=1e-7)
        ts = np.linspace(0.0, 2.0, 1_000_001)
        fs = f(ts)
        xs = np.minimum(ts, 1.0)
        ref = float(np.sum(0.5 * (fs[:-1] + fs[1:]) * np.diff(xs)))
        assert abs(rep.value - ref) < 5e-6

    def test_calls_f_once_per_level(self):
        # Same value and error as the point-by-point loop, with one call of
        # f and one of xi per refinement level.
        f_calls, xi_calls = [], []

        def f(t):
            f_calls.append(t.size)
            return 1.0 / (1.0 + t)

        def xi(t):
            xi_calls.append(t.size)
            return np.sqrt(t)

        rep = stieltjes_integral(f, xi, 1.0, tol=1e-4)
        ref = _pointwise_stieltjes(lambda t: 1.0 / (1.0 + t), math.sqrt, 1.0, 1e-4)
        assert (rep.value, rep.error_estimate) == ref
        assert len(f_calls) == len(xi_calls) > 1
        assert f_calls == xi_calls
        assert sum(f_calls) == rep.function_evals

    def test_reported_errors_and_flags_are_charged(self):
        # f's worst error times xi(t_max) - xi(0) = 1 goes on top of the
        # bracket; the bracket, and so the points, are those of the values
        xi = lambda t: np.minimum(t, 1.0)
        plain = stieltjes_integral(lambda t: np.exp(-t), xi, 2.0, tol=1e-6)

        def reported(t, converged=True):
            return EvaluationReport(np.exp(-t), 1e-4 * t,
                                    np.full(t.shape, 5), converged)

        rep = stieltjes_integral(reported, xi, 2.0, tol=1e-6)
        assert rep.value == plain.value
        assert rep.error_estimate == plain.error_estimate + 2e-4
        assert rep.function_evals == 5 * plain.function_evals
        assert rep.converged
        # t_max is in the first level only
        rep = stieltjes_integral(lambda t: reported(t, 2.0 not in t), xi, 2.0,
                                 tol=1e-6)
        assert rep.value == plain.value
        assert not rep.converged

    def test_brackets_are_nested(self):
        # The refinement does not depend on tol, so a smaller tol runs on
        # from the same points and its bracket [value - error, value + error]
        # lies inside the one before.
        f = lambda t: 1.0 / (1.0 + t)
        xi = np.sqrt
        reps = [stieltjes_integral(f, xi, 1.0, tol=tol)
                for tol in (1e-2, 1e-3, 1e-4, 1e-5)]
        for a, b in zip(reps[:-1], reps[1:]):
            assert b.value + b.error_estimate <= a.value + a.error_estimate + 1e-14
            assert b.value - b.error_estimate >= a.value - a.error_estimate - 1e-14
            assert b.function_evals > a.function_evals
        for r in reps:
            assert r.converged
            assert abs(r.value - math.pi / 4.0) <= r.error_estimate

    def test_rejects_nonmonotone_integrand(self):
        with pytest.raises(InvalidModulusError):
            stieltjes_integral(lambda t: np.sin(5.0 * t), lambda t: t, 2.0)


class TestSeminorms:
    def test_constant_exterior_function(self):
        g = constant_datum(5.0, 2)
        est = seminorm_ext(g, ModulusFunction.power(0.5), sample_pairs=2000)
        assert est.seminorm == 0.0

    def test_radial_modulus_profile_bounded_by_one(self):
        om = ModulusFunction.power(0.5)
        g = halfline_modulus_datum(om)
        est = seminorm_ext(g, om, sample_pairs=20000, seed=3)
        # |g(y)-g(z)| <= omega(|y-z| + d_y + d_z) for this construction
        assert est.seminorm <= 1.0 + 1e-9

    def test_interior_linear_function_slope(self):
        u = lambda pts: 2.0 * pts[:, 0]
        est = seminorm_interior(u, [0.0, 0.0], 0.5, ModulusFunction.power(1.0),
                                sample_pairs=20000, seed=1)
        assert 1.8 <= est.seminorm <= 2.0 + 1e-9

    def test_interior_zero_function(self):
        u = lambda pts: np.zeros(pts.shape[0])
        est = seminorm_interior(u, [0.0], 0.5, ModulusFunction.power(0.5))
        assert est.seminorm == 0.0

    def test_deterministic_given_seed(self):
        om = ModulusFunction.power(0.5)
        g = halfline_modulus_datum(om)
        a = seminorm_ext(g, om, sample_pairs=5000, seed=9)
        b = seminorm_ext(g, om, sample_pairs=5000, seed=9)
        assert a.seminorm == b.seminorm
