"""Modulus-of-continuity algebra.

Moduli are nondecreasing functions on [0, infinity).  Both transforms the
boundary estimates are stated with come from one weighted integral,

    int omega(r) / r^{1+s} dr,   0 <= s < 1,

computed in one routine: in closed form for every kind but ``custom``, whose
moduli alone take log-substituted quadrature.  s = 0 is the Dini integral,
whose convergence ``dini_integral`` decides from its per-decade increments.
``weighted_integral`` returns it on [t, 1]; for s > 0 that gives the
solution modulus

    sigma(t) = t^s (1 + int_t^1 omega(r) / r^{1+s} dr)

and its integral factor kappa(t) = sigma(t)/t^s.  The module also holds
oscillation profiles of exterior data, Darboux-bracketed Riemann-Stieltjes
integration against nondecreasing integrators, and sampled estimates of the
interior and exterior generalized Hoelder seminorms.

The smooth moduli form one family, t^a log^{-p}(e/t) with a, p >= 0 not both
0: ``power(a)`` is its p = 0 edge and ``log_inverse(p)`` its a = 0 edge.  For
p > 0 the log factor is frozen at its t = 1 value beyond t = 1, so the modulus
stays nondecreasing on the half-line; every transform here probes (0, 1] only.
With x = log(1/r), the weighted integral of a member on [t, 1] is
int_0^X e^{-(a-s)x} (1+x)^{-p} dx, X = log(1/t): elementary on the edges a = s
and p = 0, and else a generalized exponential integral (DLMF 8.19), summed
from series and a continued fraction with an error bound counted from the
roundings they make.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import EvaluationReport, QuadratureSpec, _as_report, integrate_1d

#: Unit roundoff of double precision.  The closed forms bound their error by
#: counting roundings in this unit, one ulp (two units) per libm call.
_U = 2.0 ** -53


class InvalidModulusError(ValueError):
    """A purported modulus failed a monotonicity or positivity check."""


class BudgetExceededError(RuntimeError):
    """Quadrature budget exhausted."""


class ModulusFunction:
    """A modulus of continuity with optional closed-form weighted integrals.

    Kinds: ``zero``, ``table``, ``custom`` and the family ``power_log``
    (see the module docstring).  ``weighted_primitive(t, s)`` is
    int_t^1 omega(r)/r^{1+s} dr in closed form for 0 <= s < 1; every kind
    but ``custom`` has one.  Other modules read ``knots``,
    ``power_exponent`` and ``times_power``.
    """

    def __init__(self, kind, params, label):
        self.kind = kind
        self.params = params
        self.label = label

    def __repr__(self):
        return f"ModulusFunction({self.label})"

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls("zero", {}, "0")

    @classmethod
    def power(cls, alpha):
        return cls.power_log(alpha, 0.0)

    @classmethod
    def power_log(cls, a, p):
        """t^a * log^{-p}(e/t), the product of a power and a log factor."""
        if not (a >= 0 and p >= 0) or a == p == 0:  # NaN fails too
            raise InvalidModulusError("need exponents a, p >= 0, not both 0")
        label = " ".join(([f"t^{a:g}"] if a else [])
                         + ([f"log^-{p:g}(e/t)"] if p else []))
        return cls("power_log", {"a": a, "p": p}, label)

    @classmethod
    def log_inverse(cls, p):
        """log^{-p}(e/t): positive for t > 0, tends to 0 at 0 only in the
        limit."""
        return cls.power_log(0.0, p)

    @classmethod
    def table(cls, points):
        """Piecewise-linear monotone interpolant, constant beyond the last
        breakpoint."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
            raise InvalidModulusError("table needs at least two (t, value) rows")
        t, v = pts[:, 0], pts[:, 1]
        if np.any(np.diff(t) <= 0):
            raise InvalidModulusError("table abscissae must strictly increase")
        if np.any(np.diff(v) < 0) or v[0] < 0:
            raise InvalidModulusError("table values must be nondecreasing and >= 0")
        if t[0] != 0.0:
            raise InvalidModulusError("table must start at t = 0")
        return cls("table", {"t": t, "v": v}, f"table[{len(t)} pts]")

    @classmethod
    def custom(cls, fn, label="custom"):
        return cls("custom", {"fn": fn}, label)

    @property
    def knots(self):
        """Where the modulus kinks: a table's abscissae, else none."""
        return self.params["t"] if self.kind == "table" else ()

    @property
    def power_exponent(self):
        """a when the modulus is the pure power t^a (``power_log(a, 0)``),
        else None: a log factor, a table, ``custom`` or ``zero``."""
        k, p = self.kind, self.params
        return p["a"] if k == "power_log" and p["p"] == 0 else None

    def times_power(self, s):
        """The modulus t^s omega(t), s > 0; a family member when omega is."""
        k, p = self.kind, self.params
        if k == "zero":
            return self
        if k == "power_log":
            return ModulusFunction.power_log(p["a"] + s, p["p"])
        return ModulusFunction.custom(
            lambda t: np.asarray(t, dtype=float) ** s * self(t),
            label=f"t^{s:g}*{self.label}",
        )

    # -- evaluation ----------------------------------------------------------

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        if np.any(t < 0):
            raise InvalidModulusError("moduli are defined on t >= 0")
        out = self._eval(t)
        return float(out[0]) if scalar else out

    def _eval(self, t):
        k, p = self.kind, self.params
        if k == "zero":
            return np.zeros_like(t)
        if k == "power_log" and p["p"] == 0:
            return t ** p["a"]
        if k == "power_log":
            out = np.zeros_like(t)
            pos = t > 0
            out[pos] = (t[pos] ** p["a"]
                        * np.log(np.e / np.minimum(t[pos], 1.0)) ** (-p["p"]))
            return out
        if k == "table":
            return np.interp(t, p["t"], p["v"])
        return np.asarray(p["fn"](t), dtype=float)

    # -- closed-form weighted integrals on [t, 1] ----------------------------

    def weighted_primitive(self, t, s):
        """int_t^1 omega(r)/r^{1+s} dr in closed form, or None; s = 0 is the
        Dini integral.  Every kind but ``custom`` has one."""
        closed = self._weighted_primitive(t, s)
        return None if closed is None else closed[0]

    def _weighted_primitive(self, t, s):
        """``weighted_primitive`` with a bound on its error, as a pair."""
        if not 0.0 < t <= 1.0:
            raise ValueError("t must lie in (0, 1]")
        if not 0.0 <= s < 1.0:
            raise ValueError("s must lie in [0, 1)")
        k, p = self.kind, self.params
        if k == "custom":
            return None
        if k == "zero" or t == 1.0:
            return 0.0, 0.0
        if k == "table":
            return self._table_weighted(t, s)
        return _family_primitive(p["a"] - s, p["p"], -math.log(t))

    def _table_weighted(self, t, s):
        """Exact int_t^1 omega(r)/r^{1+s} dr for the piecewise-linear table,
        with a bound on its rounding error."""
        knots, vals = self.params["t"].tolist(), self.params["v"].tolist()
        total = size = 0.0
        edges = [t] + [k for k in knots if t < k < 1.0] + [1.0]
        j = 0  # the first knot at or beyond the piece's midpoint
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            while j < len(knots) and knots[j] < mid:
                j += 1
            idx = min(max(j - 1, 0), len(knots) - 2)
            t0, t1 = knots[idx], knots[idx + 1]
            if mid > knots[-1]:
                slope, icpt = 0.0, vals[-1]
            else:
                slope = (vals[idx + 1] - vals[idx]) / (t1 - t0)
                icpt = vals[idx] - slope * t0
            # icpt w0 + slope w1, w_k = int_a^b r^{k-1-s} dr, from l = log(b/a)
            l = math.log1p((b - a) / a) if b <= 2.0 * a else math.log(b / a)
            if s == 0.0:
                w0, w1 = l, b - a
            else:
                w0 = a ** -s * -math.expm1(-s * l) / s
                w1 = b * b ** -s * -math.expm1((s - 1.0) * l) / (1.0 - s)
            total += icpt * w0
            total += slope * w1
            size += (abs(icpt) + 2.0 * abs(slope * t0)) * w0 + abs(slope) * w1
        # 17 units per piece, for the slope, intercept and w_k, and the sums
        return total, (17 + 2 * len(edges)) * _U * size

    def check_monotone(self, t_max=8.0):
        t = np.concatenate([[0.0], np.geomspace(1e-12, t_max, 512)])
        v = self(t)
        if not np.all(np.isfinite(v)):
            raise InvalidModulusError(f"modulus is not finite on [0, {t_max:g}]")
        if np.any(np.diff(v) < -1e-14 * max(1.0, v[-1])):
            raise InvalidModulusError("modulus is not nondecreasing")


def power_transform(omega, exponent):
    """The modulus t -> omega(t)^exponent (used for the 2s-Dini variant)."""
    k, p = omega.kind, omega.params
    if k == "zero":
        return ModulusFunction.zero()
    if k == "power_log":
        return ModulusFunction.power_log(p["a"] * exponent, p["p"] * exponent)
    return ModulusFunction.custom(
        lambda t: omega(t) ** exponent,
        label=f"({omega.label})^{exponent:g}",
    )


# ---------------------------------------------------------------------------
# The family's weighted primitive in closed form
# ---------------------------------------------------------------------------

def _family_primitive(b, p, X):
    """int_t^1 r^{b-1} log^{-p}(e/r) dr = int_0^X e^{-bx} (1+x)^{-p} dx for
    X = log(1/t) > 0 and p >= 0, with a bound on its error; b = a - s.

    Every form is built from X with expm1 and log1p, so that no digit is
    lost as t -> 1.  The edge p = 0 is elementary.  Otherwise, with
    U = 1 + X, the integral is the Taylor series of ``_taylor_at_zero`` for
    b > 1 and (b + p)X <= 1; the series of ``_exp_series`` for bU <= 3,
    which covers b <= 0 and is the one term (U^{1-p} - 1)/(1 - p) at b = 0;
    and else that series up to U1 = max(1, 2/b) plus the difference of the
    tails ``_exp_tail`` at U1 and U, of which the second is at most e^{-2/3}
    times the first.  The bound also charges the rounding of b = a - s,
    which moves the value by at most min(bX, 1) (b > 0) or |b|X (b < 0)
    units of its size.
    """
    if p == 0.0:
        if b == 0.0:
            return X, 2.0 * _U * X
        z = -b * X
        value = -math.expm1(z) / b
        err = _U * (6.0 + 3.0 * max(z, 0.0)) * value
    elif b > 1.0 and (b + p) * X <= 1.0:
        value, err = _taylor_at_zero(b, p, X)
    elif b * (1.0 + X) <= 3.0:
        value, err = _exp_series(b, p, X)
    else:
        x1 = 2.0 / b - 1.0 if b < 2.0 else 0.0
        value, err = _exp_series(b, p, x1) if x1 else (0.0, 0.0)
        (h1, e1), (h, e) = _exp_tail(b, p, x1), _exp_tail(b, p, X)
        value += h1 - h
        err += e1 + e + 2.0 * _U * value
    return value, err + _U * value * (min(b * X, 1.0) if b > 0.0 else -b * X)


def _exp_series(b, p, X):
    """int_1^U e^{-b(L-1)} L^{-p} dL for U = 1 + X, X > 0, as the series
    e^b sum_n (-b)^n/n! int_1^U L^{n-p} dL, with a bound on its error.

    Term n, signed (-1)^n for b > 0, is c_n (U^m - 1)/m with c_n =
    e^b |b|^n/n! and m = n + 1 - p, or log U at m = 0.  From the first
    m >= 0 on it is q_n (1 - U^-m)/m with q_n = c_n U^m, so a term overflows
    only where the sum nearly does; for b < 0 every term is positive.
    Since int_1^U L^{n+1-p} dL <= U int_1^U L^{n-p} dL, term n+1 is at most
    |b|U/(n+1) times term n, which bounds the tail left off.
    """
    y, bU = math.log1p(X), abs(b) * (1.0 + X)
    c, q = math.exp(b), None
    terms, size, weighted, n = [], 0.0, 0.0, 0
    while True:
        m = n + 1.0 - p
        z = m * y
        if m < 0.0:
            term = c * math.expm1(z) / m
        else:
            if q is None:
                q = c * math.exp(z)
            term = q * (-math.expm1(-z) / m if z else y)
        terms.append(-term if b > 0.0 and n % 2 else term)
        size += term
        # c_n and q_n gain at most 6 units a step; y has 4
        weighted += term * (6.0 * (n + y) + 16.0)
        n += 1
        rho = bU / n
        tail = term * rho / (1.0 - rho) if rho < 1.0 else math.inf
        if tail <= _U * size:
            break
        c *= abs(b) / n
        if q is not None:
            q *= bU / n
    value = math.fsum(terms)
    return value, _U * (weighted + abs(value)) + tail


def _taylor_at_zero(b, p, X):
    """int_0^X e^{-bx} (1+x)^{-p} dx from the integrand's Taylor series
    sum c_n x^n at 0, for (b + p)X <= 1; with a bound on its error.

    The coefficients obey (n+1) c_{n+1} = -(n+b+p) c_n - b c_{n-1}, with a
    running bound on their rounding, and |c_n| <= (b+p)_n/n!, the
    coefficients of (1-x)^{-(b+p)}, which bounds the tail left off.
    """
    c_prev, c, e_prev, e = 0.0, 1.0, 0.0, 0.0
    majorant, xn = 1.0, X  # (b+p)_n/n!, X^{n+1}
    terms, size, err, n = [], 0.0, 0.0, 0
    while True:
        term = c * xn / (n + 1)
        terms.append(term)
        size += abs(term)
        err += e * xn / (n + 1) + _U * (3 * n + 4) * abs(term)
        q = n + b + p
        c_next = -(q * c + b * c_prev) / (n + 1)
        e_next = ((q * e + b * e_prev
                   + _U * (4.0 * q * abs(c) + 2.0 * b * abs(c_prev))) / (n + 1)
                  + _U * abs(c_next))
        c_prev, c, e_prev, e = c, c_next, e, e_next
        majorant *= q / (n + 1)
        xn *= X
        n += 1
        rho = X * (n + b + p) / (n + 1)
        tail = majorant * xn / (n + 1) / (1.0 - rho) if rho < 1.0 else math.inf
        if tail <= _U * size:
            break
    value = math.fsum(terms)
    return value, err + tail + _U * abs(value)


def _exp_tail(b, p, X):
    """int_U^inf e^{-b(L-1)} L^{-p} dL = U^{1-p} e^{-bX} e^{bU} E_p(bU) for
    U = 1 + X and bU >= 2, with a bound on its error: E_p by the modified
    Lentz continued fraction (DLMF 8.19.17), charged 2k + 8 units after k
    steps (against mpmath it erred by at most 22 units in up to 53 steps)."""
    x = b + b * X
    bk, c, d = x + p, math.inf, 1.0 / (x + p)
    cf, k = d, 0
    while True:
        k += 1
        ak = -k * (p - 1.0 + k)
        bk += 2.0
        d = 1.0 / (ak * d + bk)
        c = bk + ak / c
        cf *= c * d
        if abs(c * d - 1.0) <= _U:
            break
    log_power = (1.0 - p) * math.log1p(X)
    w = log_power - b * X
    value = math.exp(w) * cf
    return value, _U * (6.0 * abs(log_power) + 3.0 * abs(b * X) + abs(w)
                        + 2 * k + 15) * value


# ---------------------------------------------------------------------------
# The weighted integral int omega(r) / r^{1+s} dr, sigma and kappa
# ---------------------------------------------------------------------------

def _modulus_integral(omega, s, lo, hi, abs_tol):
    """int_lo^hi omega(r)/r^{1+s} dr for 0 < lo < hi <= 1 and 0 <= s < 1:
    the closed form every kind but ``custom`` has, with its error bound (the
    bounds of both primitives for hi < 1), else the G7/K15 rule in
    x = log(1/r) with breakpoints at the decades r = 10^-k, to ``abs_tol``
    (at least 1e-14); ``BudgetExceededError`` if that does not converge."""
    closed = omega._weighted_primitive(lo, s)
    if closed is not None:
        value, err = closed
        if hi < 1.0:  # the primitive vanishes at 1
            value_hi, err_hi = omega._weighted_primitive(hi, s)
            value -= value_hi
            err += err_hi + _U * abs(value)
        return EvaluationReport(value, err, 0, True)
    # r = e^{-x}: the integral of omega(e^{-x}) e^{sx} over x
    bps = [k * math.log(10.0) for k in range(1, 13) if lo < 10.0 ** -k < hi]
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=max(abs_tol, 1e-14),
                          max_subdivisions=8000)
    rep = integrate_1d(lambda x: omega(np.exp(-x)) * np.exp(s * x),
                       math.log(1.0 / hi), math.log(1.0 / lo), spec,
                       breakpoints=bps)
    if not rep.converged:
        raise BudgetExceededError("weighted modulus integral did not converge")
    return rep


def weighted_integral(omega, s, t, tol=1e-9):
    """int_t^1 omega(r)/r^{1+s} dr for 0 <= s < 1 to about ``tol``, as an
    ``EvaluationReport``; 0 for t >= 1.  s = 0 is the Dini integral."""
    if t <= 0 or tol <= 0:
        raise ValueError("need t > 0 and tol > 0")
    if t >= 1.0:
        return EvaluationReport(0.0, 0.0, 0, True)
    return _modulus_integral(omega, s, t, 1.0, 0.5 * tol)


def sigma(omega, s, t, tol=1e-9):
    """The solution modulus sigma(t) = t^s (1 + int_t^1 omega(r)/r^{1+s} dr),
    with the integral from ``weighted_integral`` to ``tol / t^s``.

    For t >= 1 the integral term is empty and sigma(t) = t^s exactly.
    """
    if t <= 0 or tol <= 0:
        raise ValueError("need t > 0 and tol > 0")
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    ts = t**s
    rep = weighted_integral(omega, s, t, tol / ts)
    return EvaluationReport(ts * (1.0 + rep.value), ts * rep.error_estimate,
                            rep.function_evals, True)


def kappa(omega, s, t, tol=1e-9):
    """kappa(t) = 1 + int_t^1 omega(r)/r^{1+s} dr  (= sigma(t)/t^s for t <= 1),
    with the integral from ``weighted_integral``; nonincreasing in t,
    identically 1 for t >= 1."""
    return 1.0 + weighted_integral(omega, s, t, tol).value


# ---------------------------------------------------------------------------
# Dini integral with convergence decision
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiniReport:
    convergent: bool
    value: float | None
    error: float | None
    increments: np.ndarray


#: Increment-decay ratio below which the partial integrals are declared
#: convergent (checked across the last four decades).
DINI_RATIO_THRESHOLD = 0.9


def dini_integral(iota, lower_cutoffs=None, tol=1e-6):
    """Decide convergence of int_0^1 iota(t)/t dt and estimate its value.

    The increments are the weighted integral at s = 0 between consecutive
    cutoffs (default 10^-k for k = 1..12), each to ``tol * 1e-3``.  The
    decision rule is geometric decay of the increments: convergent iff every
    ratio among the last four is below ``DINI_RATIO_THRESHOLD``.  The
    convergent value extrapolates the remaining tail with a geometric model
    for fast decay and a fitted power-law model otherwise.
    """
    iota.check_monotone(t_max=1.0)
    if lower_cutoffs is None:
        cutoffs = np.array([10.0 ** (-k) for k in range(1, 13)])
    else:
        cutoffs = np.asarray(lower_cutoffs, dtype=float)
        if np.any(np.diff(cutoffs) >= 0) or np.any(cutoffs <= 0) or cutoffs[0] >= 1:
            raise ValueError("cutoffs must be a decreasing list in (0, 1)")

    edges = np.concatenate([[1.0], cutoffs])
    increments = np.empty(len(cutoffs))
    quad_err = 0.0
    for i in range(len(cutoffs)):
        rep = _modulus_integral(iota, 0.0, edges[i + 1], edges[i], tol * 1e-3)
        increments[i] = rep.value
        quad_err += rep.error_estimate
    partials = np.cumsum(increments)

    scale = max(partials[-1], 1.0)
    tail_incs = increments[-4:]
    K = len(increments)
    if np.all(np.abs(tail_incs) <= 1e-14 * scale):
        convergent, ratios = True, np.zeros(3)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = tail_incs[1:] / tail_incs[:-1]
        ratios = np.nan_to_num(ratios, nan=0.0, posinf=np.inf)
        convergent = bool(np.all(ratios < DINI_RATIO_THRESHOLD))
        if not convergent and np.all(ratios < 1.0):
            # Slowly decaying increments: discriminate algebraic decay
            # Delta_k ~ k^{-q}.  q > 1 sums; the geometric ratio test alone
            # would flip its answer for log-type moduli as the cutoff list
            # deepens, so the fitted exponent keeps the decision depth-stable.
            q = math.log(increments[-2] / increments[-1]) / math.log(K / (K - 1.0))
            convergent = q >= 1.2

    if not convergent:
        return DiniReport(False, None, None, increments)

    last = increments[-1]
    if last <= 1e-14 * scale:
        tail = 0.0
    elif np.max(ratios) <= 0.7:
        r = float(ratios[-1])
        tail = last * r / (1.0 - r)
    else:
        # Algebraic decay Delta_k ~ c k^{-q}: fit q from the final ratio and
        # sum the remaining tail with a midpoint-corrected power-law model.
        q = math.log(increments[-2] / last) / math.log(K / (K - 1.0))
        q = max(q, 1.2)
        tail = last * K**q * (K + 0.5) ** (1.0 - q) / (q - 1.0)
    value = partials[-1] + tail
    error = quad_err + 0.25 * tail + 1e-12
    return DiniReport(True, value, error, increments)


# ---------------------------------------------------------------------------
# Oscillation profiles
# ---------------------------------------------------------------------------

@dataclass
class OscillationProfile:
    """Monotone profile xi(t) = max |g(z) - g(w)| over exterior w within
    distance t of the base point; sampled values are lower bounds."""

    t: np.ndarray
    xi: np.ndarray
    sample_count: int
    closed_form: object = None

    def __call__(self, tq):
        if self.closed_form is not None:
            return self.closed_form(tq)
        return np.interp(tq, self.t, self.xi)


def oscillation_profile(g, z, t_grid):
    """Sampled oscillation profile of an exterior datum about z.

    Uses the datum's closed-form profile when it provides one for this base
    point; otherwise maximizes |g(z) - g(w)| over sampled exterior points w
    with |z - w| <= t, with a running maximum enforcing monotonicity.  In
    d >= 2 the directions from z are 96 seeded random ones and the
    coordinate axes.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    t_grid = np.asarray(sorted(t_grid), dtype=float)
    d = g.dimension
    closed = g.oscillation_closed_form(z)
    if closed is not None:
        return OscillationProfile(t_grid, np.asarray(closed(t_grid)), 0, closed)

    gz = float(g(z[None, :])[0])
    if d == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        dirs = np.random.default_rng(0).standard_normal((96, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        dirs = np.concatenate([dirs, np.eye(d), -np.eye(d)])
    fracs = np.concatenate([np.linspace(0.02, 1.0, 25), [0.999, 1.0]])
    xi = np.empty(len(t_grid))
    best = 0.0
    count = 0
    for i, t in enumerate(t_grid):
        radii = t * fracs
        w = z[None, None, :] + radii[:, None, None] * dirs[None, :, :]
        w = w.reshape(-1, d)
        exterior = np.linalg.norm(w, axis=1) >= 1.0
        w = w[exterior]
        if w.size:
            vals = np.abs(np.asarray(g(w), dtype=float) - gz)
            best = max(best, float(vals.max()))
        count += len(w)
        xi[i] = best
    return OscillationProfile(t_grid, xi, count, None)


# ---------------------------------------------------------------------------
# Riemann-Stieltjes integration
# ---------------------------------------------------------------------------

def stieltjes_integral(f, xi, t_max, tol=1e-6, mono_slack=None):
    """Darboux-bracketed Stieltjes integral int_0^{t_max} f(t) d xi(t).

    f must be nonincreasing and xi nondecreasing on [0, t_max]; the upper and
    lower Darboux-Stieltjes sums then bracket the true value and the bracket
    is nested under refinement.  Returns the bracket midpoint with the
    half-width as the error estimate.  The bracket starts from 16 equal
    panels and is refined at most 60 times.

    f and xi are vectorized: each refinement level calls each of them once,
    on the array of that level's new abscissae.  An f that returns a report
    has max |f error| (xi(t_max) - xi(0)) charged on top of the half-width,
    its flags ANDed into converged and its evaluations summed.
    """
    if t_max <= 0 or tol <= 0:
        raise ValueError("need t_max > 0 and tol > 0")

    # geometric points resolve integrators that vary on log scales near 0
    pts = set(np.linspace(0.0, t_max, 16 + 1))
    pts |= {t_max * 10.0 ** (-k) for k in range(1, 7)}
    pts = np.array(sorted(pts))
    f_reps = [_as_report(f(pts))]  # f's report on each level's new points
    fs, xs = f_reps[0].value, np.asarray(xi(pts), dtype=float)

    for _ in range(60 + 1):
        slack = mono_slack
        if slack is None:
            slack = 1e-9 * max(1.0, np.abs(fs).max(), np.abs(xs).max())
        if np.any(np.diff(fs) > slack):
            raise InvalidModulusError("integrand is not nonincreasing")
        if np.any(np.diff(xs) < -slack):
            raise InvalidModulusError("integrator is not nondecreasing")
        dxi = np.diff(xs)
        upper = float(np.sum(fs[:-1] * dxi))
        lower = float(np.sum(fs[1:] * dxi))
        converged = upper - lower <= 2.0 * tol
        if converged:
            break
        # Bisect only the intervals holding more than their share of the
        # bracket width; the bracket is still nested since points are only
        # ever added.  Each level evaluates f and xi at its new points only.
        gaps = (fs[:-1] - fs[1:]) * dxi
        thresh = (upper - lower) / (2.0 * gaps.size)
        split = (gaps > thresh) | (gaps == gaps.max())
        a, b = pts[:-1][split], pts[1:][split]
        mids = 0.5 * (a + b)
        mids = mids[(a < mids) & (mids < b)]  # between adjacent floats: none
        if mids.size:
            at = np.searchsorted(pts, mids)
            f_reps.append(_as_report(f(mids)))
            fs = np.insert(fs, at, f_reps[-1].value)
            xs = np.insert(xs, at, np.asarray(xi(mids), dtype=float))
            pts = np.insert(pts, at, mids)
    f_err = max(float(np.max(np.abs(r.error_estimate))) for r in f_reps)
    return EvaluationReport(
        0.5 * (upper + lower),
        0.5 * (upper - lower) + f_err * float(xs[-1] - xs[0]),
        sum(int(np.sum(r.function_evals)) for r in f_reps),
        converged and all(r.converged for r in f_reps),
    )


# ---------------------------------------------------------------------------
# Sampled generalized Hoelder seminorms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HoelderEstimate:
    """A sampled lower bound for a (generalized) Hoelder seminorm."""

    seminorm: float


def _pairwise_max(values, denominators):
    """Max ratio |v_i - v_j| / den(i, j) over all pairs; den is a callable on
    index arrays."""
    ii, jj = np.triu_indices(len(values), k=1)
    num = np.abs(values[ii] - values[jj])
    den = denominators(ii, jj)
    ratios = np.full(num.shape, 0.0)
    ok = den > 0.0
    ratios[ok] = num[ok] / den[ok]
    ratios[~ok & (num > 0)] = np.inf
    return float(ratios.max())


def seminorm_ext(g, omega, sample_pairs=20000, seed=0):
    """Sampled exterior seminorm sup |g(y)-g(z)| / omega(|y-z| + d_y + d_z).

    Samples are stratified toward the unit sphere (radii 1 + 10^{-k}) and
    reach one past the datum's support radius (radius 8 without one); the
    result is a lower bound, attained by one sampled pair.
    """
    rng = np.random.default_rng(seed)
    d = g.dimension
    n = max(8, int(math.isqrt(2 * sample_pairs)) + 1)
    max_radius = g.support_radius + 1.0 if g.support_radius else 8.0
    shell_radii = 1.0 + np.concatenate([
        10.0 ** (-np.arange(0.0, 7.0, 0.5)),
        np.linspace(0.05, max_radius - 1.0, 12),
    ])
    radii = rng.choice(shell_radii, size=n)
    if d == 1:
        signs = rng.choice([-1.0, 1.0], size=n)
        pts = (radii * signs)[:, None]
    else:
        dirs = rng.standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = radii[:, None] * dirs
    vals = np.asarray(g(pts), dtype=float)
    dist_bdry = np.linalg.norm(pts, axis=1) - 1.0

    def den(ii, jj):
        sep = np.linalg.norm(pts[ii] - pts[jj], axis=1)
        return np.asarray(omega(sep + dist_bdry[ii] + dist_bdry[jj]))

    return HoelderEstimate(_pairwise_max(vals, den))


def seminorm_interior(u, center, radius, omega, sample_pairs=20000, seed=0):
    """Sampled interior seminorm sup |u(x)-u(y)| / omega(|x-y|) over a ball."""
    rng = np.random.default_rng(seed)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.size
    n = max(8, int(math.isqrt(2 * sample_pairs)) + 1)
    raw = rng.standard_normal((n, d))
    raw /= np.linalg.norm(raw, axis=1, keepdims=True)
    rad = radius * rng.random(n) ** (1.0 / d)
    pts = center[None, :] + rad[:, None] * raw
    pts[0] = center
    vals = np.asarray(u(pts), dtype=float)

    def den(ii, jj):
        sep = np.linalg.norm(pts[ii] - pts[jj], axis=1)
        return np.asarray(omega(sep))

    return HoelderEstimate(_pairwise_max(vals, den))
