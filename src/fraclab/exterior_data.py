"""Exterior data for the unit-ball Dirichlet problem.

Each constructor returns an :class:`ExteriorDatum`: a vectorized function on
the complement of the open unit ball together with the metadata the solver
and the diagnostics need (support radius, growth declaration, the defining
modulus, closed-form oscillation profiles where available).
"""

import math
from dataclasses import dataclass

import numpy as np

from .moduli import ModulusFunction


class DimensionError(ValueError):
    """Datum constructed or evaluated with an unsupported dimension."""


@dataclass(frozen=True)
class CutoffFunction:
    """C^2 quintic smoothstep cutoff: 1 on [0, plateau_end], 0 beyond
    plateau_end + width, monotone in between."""

    plateau_end: float = 4.0
    width: float = 0.5

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.ones(r.shape)
        # The quintic only beyond the plateau (NaN included), where it is not
        # identically 1.
        beyond = ~(r <= self.plateau_end)
        w = np.minimum((r[beyond] - self.plateau_end) / self.width, 1.0)
        out[beyond] = 1.0 - w**3 * (10.0 - 15.0 * w + 6.0 * w**2)
        return out[()]

    @property
    def support_radius(self):
        return self.plateau_end + self.width


@dataclass(frozen=True)
class ExteriorDatum:
    """A function on the exterior of the unit ball with solver metadata.

    ``axisymmetric`` declares g symmetric about the e1 axis: g(y) depends on
    y_1 and |y'| only, y = (y_1, y').  The solver takes the polar-only
    sphere rule where that makes g symmetric about the line through the
    evaluation point.  ``axis_exponent`` declares g = |y'|^a h(y) near the
    e1 axis with h smooth and 0 < a < 1 (None: no such power): the solver
    then maps the ends of that polar rule, which lie on the axis.
    """

    eval: object
    dimension: int
    support_radius: float | None
    growth_exponent: float
    boundary_bound: float
    modulus: ModulusFunction | None = None
    axisymmetric: bool = False
    axis_exponent: float | None = None
    radial_breakpoints: tuple = ()
    label: str = "datum"
    _oscillation: object = None

    def __call__(self, points):
        """g at an (n, d) array of points, or at one point of shape (d,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != self.dimension:
            raise DimensionError(
                f"points of shape {np.shape(points)} for a datum in "
                f"d = {self.dimension}")
        return np.asarray(self.eval(pts), dtype=float)

    def oscillation_closed_form(self, z):
        """Closed-form oscillation profile about base point z, or None."""
        if self._oscillation is None:
            return None
        return self._oscillation(np.atleast_1d(np.asarray(z, dtype=float)))


def _norm2(pts):
    """|y|^2 of each row of an (n, m) array."""
    return np.einsum("ij,ij->i", pts, pts)


def constant_datum(value, d):
    """g identically equal to ``value`` on the exterior."""
    return ExteriorDatum(
        eval=lambda pts: np.full(pts.shape[0], float(value)),
        dimension=d,
        support_radius=None,
        growth_exponent=0.0,
        boundary_bound=abs(float(value)),
        axisymmetric=True,
        label=f"const[{value:g}]",
        _oscillation=lambda z: (lambda t: np.zeros_like(np.asarray(t, dtype=float))),
    )


def radial_indicator_datum(a, d):
    """g(y) = 1 for |y| >= 1 + a, else 0 (a radial step away from the ball)."""
    if a <= 0:
        raise ValueError("offset a must be positive")

    def g(pts):
        return (np.sqrt(_norm2(pts)) >= 1.0 + a).astype(float)

    return ExteriorDatum(
        eval=g,
        dimension=d,
        support_radius=None,
        growth_exponent=0.0,
        boundary_bound=0.0,
        axisymmetric=True,
        radial_breakpoints=(1.0 + a,),
        label=f"radial-step[{a:g}]",
    )


def transverse_modulus_datum(omega, d):
    """g(y) = omega(|y'|) eta(|y|) with y = (y_1, y'), for d >= 2.

    Vanishes at e_1, is smooth along rays for smooth omega, and has the
    closed-form oscillation profile xi(t) = omega(t) about e_1 for
    t <= sqrt(15) (the largest transverse offset reachable inside the
    cutoff's plateau).  For omega = t^a with 0 < a < 1 it declares a as its
    axis exponent.
    """
    if d < 2:
        raise DimensionError("transverse datum needs d >= 2")
    eta = CutoffFunction()

    def g(pts):
        trans = np.sqrt(_norm2(pts[:, 1:]))
        return omega(trans) * eta(np.sqrt(_norm2(pts)))

    t_plateau = math.sqrt(eta.plateau_end**2 - 1.0)

    def oscillation(z):
        if not np.allclose(z, np.eye(d)[0], atol=1e-12):
            return None

        def xi(t):
            t = np.asarray(t, dtype=float)
            out = np.asarray(omega(np.minimum(t, t_plateau)), dtype=float).copy()
            big = t > t_plateau
            if np.any(big):
                # beyond the plateau reach: maximize omega(c) eta(|y|) over
                # transverse offsets c on a fine grid (near-exact, monotone)
                c = np.linspace(t_plateau, eta.support_radius, 257)
                prof = omega(c) * eta(c)
                reach = np.sqrt(np.maximum(t[big] ** 2 - 1.0, t_plateau**2))
                sat = np.array(
                    [max(omega(t_plateau), prof[c <= r].max()) for r in reach]
                )
                out[big] = np.maximum(out[big], sat)
            return out

        return xi

    kinks = tuple(math.sqrt(1.0 + k**2) for k in omega.knots
                  if 0.0 < k < eta.support_radius)
    a = omega.power_exponent
    return ExteriorDatum(
        eval=g,
        dimension=d,
        support_radius=eta.support_radius,
        growth_exponent=0.0,
        boundary_bound=float(omega(1.0)),
        modulus=omega,
        axisymmetric=True,
        axis_exponent=a if a is not None and 0.0 < a < 1.0 else None,
        radial_breakpoints=(eta.plateau_end, eta.support_radius) + kinks,
        label=f"transverse[{omega.label}]",
        _oscillation=oscillation,
    )


def halfline_modulus_datum(omega):
    """One-dimensional g(y) = omega(y - 1) on [1, 3], zero elsewhere.

    Closed-form oscillation about y = 1: xi(t) = omega(min(t, 2)).
    """

    def g(pts):
        y = pts[:, 0]
        out = np.zeros(y.shape)
        on = (y >= 1.0) & (y <= 3.0)
        out[on] = omega(y[on] - 1.0)
        return out

    def oscillation(z):
        if abs(float(z[0]) - 1.0) > 1e-12:
            return None
        return lambda t: omega(np.minimum(np.asarray(t, dtype=float), 2.0))

    kinks = tuple(1.0 + k for k in omega.knots if 0.0 < k < 2.0)
    return ExteriorDatum(
        eval=g,
        dimension=1,
        support_radius=3.0,
        growth_exponent=0.0,
        boundary_bound=0.0,
        modulus=omega,
        axisymmetric=True,
        radial_breakpoints=(3.0,) + kinks,
        label=f"halfline[{omega.label}]",
        _oscillation=oscillation,
    )


def non_dini_datum(iota, s, d):
    """Datum with modulus omega(t) = t^s iota(t); the C^s-blow-up datum when
    iota fails the Dini condition (which the caller should establish via
    ``dini_integral`` and record).  For iota = t^a log^{-p}(e/t), omega is
    the family member t^{a+s} log^{-p}(e/t) and has its closed forms."""
    omega = iota.times_power(s)
    if d == 1:
        return halfline_modulus_datum(omega)
    return transverse_modulus_datum(omega, d)


def sign_changing_datum(s, d):
    """g(y) = y_2 |y_2|^{s-1} eta(|y|): odd in y_2, so the on-axis solution
    vanishes by cancellation."""
    if d < 2:
        raise DimensionError("sign-changing datum needs d >= 2")
    if not 0.0 < s < 1.0:
        raise ValueError("s must lie in (0, 1)")
    eta = CutoffFunction()

    def g(pts):
        y2 = pts[:, 1]
        out = np.zeros(y2.shape)
        nz = y2 != 0.0
        out[nz] = y2[nz] * np.abs(y2[nz]) ** (s - 1.0)
        return out * eta(np.sqrt(_norm2(pts)))

    return ExteriorDatum(
        eval=g,
        dimension=d,
        support_radius=eta.support_radius,
        growth_exponent=0.0,
        boundary_bound=1.0,
        axisymmetric=False,
        radial_breakpoints=(eta.plateau_end, eta.support_radius),
        label=f"sign-changing[s={s:g}]",
    )
