"""Pointwise application of 2s-stable integro-differential operators.

The operator acts on a function u at a point x as

    A u(x) = (1 - s) pv int_0^inf int_{S^{d-1}}
                 (u(x) - u(x + r theta)) / r^{1+2s}  mu(dtheta) dr

for a finite symmetric spectral measure mu on the sphere.  The principal
value is realized through the symmetrized second difference
(2u(x) - u(x+r theta) - u(x-r theta)) / 2, which the symmetry of mu makes
exactly equivalent and which is O(r^2) near r = 0 for u twice
differentiable, so no epsilon-excision is needed.

Functions u are numpy-vectorized over an (n, d) array of points; they may
return a pair (values, errors) when their own evaluation carries numerical
uncertainty (e.g. a quadrature-based solution), and those errors propagate
into the report.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (
    EvaluationReport,
    QuadratureError,
    QuadratureSpec,
    integrate_1d,
    integrate_radial_unbounded,
    _adaptive,
    _integrate,
)


class MeasureError(ValueError):
    """Invalid spectral-measure construction."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite symmetric measure on the unit sphere S^{d-1}.

    variant "uniform": the rotation-invariant measure with the given total
    mass.  variant "atomic": point masses, required to come in symmetric
    pairs (theta, w), (-theta, w).
    """

    variant: str
    dimension: int
    total_mass: float = 0.0
    atoms: tuple = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise MeasureError("dimension must be >= 1")
        if self.variant == "uniform":
            if self.total_mass <= 0:
                raise MeasureError("uniform measure needs positive total mass")
        elif self.variant == "atomic":
            if not self.atoms:
                raise MeasureError("atomic measure needs at least one atom")
            for theta, w in self.atoms:
                theta = np.asarray(theta, dtype=float)
                if theta.size != self.dimension:
                    raise MeasureError("atom direction dimension mismatch")
                if abs(np.linalg.norm(theta) - 1.0) > 1e-12:
                    raise MeasureError("atom directions must be unit vectors")
                if w <= 0:
                    raise MeasureError("atom weights must be positive")
                if not any(
                    np.allclose(np.asarray(phi, dtype=float), -theta, atol=1e-12)
                    and abs(v - w) <= 1e-12 * max(1.0, abs(w))
                    for phi, v in self.atoms
                ):
                    raise MeasureError(
                        "atomic measure must be symmetric: missing (-theta, w)"
                    )
            object.__setattr__(
                self, "total_mass", float(sum(w for _, w in self.atoms))
            )
        else:
            raise MeasureError(f"unknown measure variant {self.variant!r}")

    @classmethod
    def uniform(cls, dimension, total_mass):
        return cls(variant="uniform", dimension=dimension, total_mass=total_mass)

    @classmethod
    def atomic(cls, dimension, atoms):
        atoms = tuple(
            (tuple(float(c) for c in np.atleast_1d(theta)), float(w))
            for theta, w in atoms
        )
        return cls(variant="atomic", dimension=dimension, atoms=atoms)

    @classmethod
    def coordinate_axes(cls, dimension, weight=1.0):
        eye = np.eye(dimension)
        atoms = []
        for i in range(dimension):
            atoms.append((eye[i], weight))
            atoms.append((-eye[i], weight))
        return cls.atomic(dimension, atoms)

    def half_atoms(self):
        """One representative per symmetric atom pair, with the pair weight."""
        out = []
        for theta, w in self.atoms:
            t = np.asarray(theta, dtype=float)
            if any(np.allclose(t, -np.asarray(p, dtype=float)) for p, _ in out):
                continue
            out.append((t, w))
        return out


@dataclass(frozen=True)
class OperatorSpec:
    """A 2s-stable operator: spectral measure plus the order s."""

    measure: SpectralMeasure
    s: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise MeasureError("order s must lie in (0, 1)")


def _sphere_grid(d, n):
    """Quasi-uniform direction grid on S^{d-1}."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        phi = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        return np.column_stack([np.cos(phi), np.sin(phi)])
    # Fibonacci sphere
    k = np.arange(n)
    z = 1.0 - (2.0 * k + 1.0) / n
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    golden = np.pi * (3.0 - math.sqrt(5.0))
    a = golden * k
    return np.column_stack([r * np.cos(a), r * np.sin(a), z])


def nondegeneracy_constant(measure, s, xi_samples=720):
    """Lower-bound estimate of inf_xi int |theta.xi|^{2s} mu(dtheta).

    Atomic measures are summed exactly per grid direction; the uniform
    measure uses an angular quadrature (its value is xi-independent by
    rotation invariance, which the tests check on the grid).
    """
    if not 0.0 < s < 1.0:
        raise MeasureError("order s must lie in (0, 1)")
    d = measure.dimension
    xis = _sphere_grid(d, xi_samples)
    if measure.variant == "atomic":
        thetas = np.array([np.asarray(t, dtype=float) for t, _ in measure.atoms])
        weights = np.array([w for _, w in measure.atoms])
        vals = np.abs(xis @ thetas.T) ** (2.0 * s) @ weights
        return float(vals.min())
    m = measure.total_mass
    if d == 1:
        return m
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    if d == 2:
        # (m / 2pi) int_0^{2pi} |cos|^{2s} = (2m/pi) int_0^{pi/2} cos^{2s}
        rep = integrate_1d(lambda p: np.cos(p) ** (2.0 * s), 0.0, 0.5 * np.pi, spec)
        return m * 2.0 / np.pi * rep.value
    # (m / 4pi) int |cos phi|^{2s} dS = (m/2) int_0^pi |cos|^{2s} sin = m/(2s+1)
    return m / (2.0 * s + 1.0)


def _as_val_err(res, n):
    if isinstance(res, tuple):
        return (
            np.asarray(res[0], dtype=float),
            np.abs(np.asarray(res[1], dtype=float)),
        )
    return np.asarray(res, dtype=float), np.zeros(n)


# Adaptive rule of the angular integrals inside the radial integrands.
_SPHERE_RULE = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, max_subdivisions=2048)


def _sphere_integrals(d, n, g, circle_span=2.0 * np.pi):
    """(vals, errs) of n integrals over S^{d-1}, d in {2, 3}, as one batch.

    ``g(theta, ids)`` returns (values, errors) at the unit directions theta
    (one row per abscissa) for the integrals ``ids``.  In d = 2 the angle
    runs over (0, circle_span); in d = 3 each latitude node opens a
    longitude integral over (0, 2 pi), and those run as one nested batch.
    """
    rule = _SPHERE_RULE

    def batch(f, span, count):
        vals, errs, _, _ = _adaptive(
            f, [(0.0, span)] * count, rule.rel_tol, rule.abs_tol,
            rule.max_subdivisions,
        )
        return vals, errs

    if d == 2:
        return batch(
            lambda phi, ids: g(np.column_stack([np.cos(phi), np.sin(phi)]), ids),
            circle_span, n,
        )

    def lat(phi, ids):
        sp, cp = np.sin(phi), np.cos(phi)

        def lon(alpha, j):
            theta = np.column_stack(
                [sp[j] * np.cos(alpha), sp[j] * np.sin(alpha), cp[j]]
            )
            return g(theta, ids[j])

        vals, errs = batch(lon, 2.0 * np.pi, phi.size)
        return sp * vals, sp * errs

    return batch(lat, np.pi, n)


def _second_difference(op, u, x, r):
    """(vals, errs) of D(r) = int (2u(x) - u(x+r th) - u(x-r th))/2 mu(dth)
    for a batch of radii r."""
    measure = op.measure
    d = measure.dimension
    u0, u0_err = _as_val_err(u(x[None, :]), 1)
    u0, u0_err = float(u0[0]), float(u0_err[0])
    if measure.variant == "atomic":
        vals = np.zeros(r.size)
        errs = np.zeros(r.size)
        for theta, w in measure.half_atoms():
            plus = x[None, :] + r[:, None] * theta[None, :]
            minus = x[None, :] - r[:, None] * theta[None, :]
            vp, ep = _as_val_err(u(plus), r.size)
            vm, em = _as_val_err(u(minus), r.size)
            # w is the per-atom weight; the symmetrized difference over the
            # pair {theta, -theta} carries the pair mass 2w, i.e. w without
            # the 1/2 of the symmetrization.
            vals += w * (2.0 * u0 - vp - vm)
            errs += w * (2.0 * u0_err + ep + em)
        return vals, errs

    m = measure.total_mass
    if d == 1:
        plus = x[None, :] + r[:, None]
        minus = x[None, :] - r[:, None]
        vp, ep = _as_val_err(u(plus), r.size)
        vm, em = _as_val_err(u(minus), r.size)
        return (
            0.5 * m * (2.0 * u0 - vp - vm) / 2.0 * 2.0,
            0.5 * m * (2.0 * u0_err + ep + em) / 2.0 * 2.0,
        )

    def sym(theta, ids):
        steps = r[ids, None] * theta
        v, e = _as_val_err(
            u(np.concatenate([x[None, :] + steps, x[None, :] - steps])),
            2 * ids.size,
        )
        vp, vm = np.split(v, 2)
        ep, em = np.split(e, 2)
        return (2.0 * u0 - vp - vm) / 2.0, u0_err + (ep + em) / 2.0

    if d == 2:
        # int over S^1 of the symmetrized difference = 2 x half-range
        vals, errs = _sphere_integrals(2, r.size, sym, np.pi)
        return m / (2.0 * np.pi) * 2.0 * vals, m / (2.0 * np.pi) * 2.0 * errs
    vals, errs = _sphere_integrals(3, r.size, sym)
    return m / (4.0 * np.pi) * vals, m / (4.0 * np.pi) * errs


def apply_operator(
    op,
    u,
    x,
    spec=None,
    growth_exponent=0.0,
    support_radius=None,
    radial_breakpoints=(),
):
    """Evaluate the operator at x on a function u that is C^2 near x.

    ``growth_exponent`` declares |u(y)| = O(|y|^growth) at infinity and must
    be < 2s for the tail integral to converge.  If ``support_radius`` is
    given (u vanishes for |y| > support_radius) the far tail reduces to a
    closed form of u(x).
    """
    spec = spec or QuadratureSpec()
    s = op.s
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != op.measure.dimension:
        raise QuadratureError("point dimension mismatch")
    if growth_exponent >= 2.0 * s:
        raise QuadratureError(
            "growth_exponent must be < 2s for the operator to be defined"
        )

    def core(r):
        vals, errs = _second_difference(op, u, x, r)
        w = r ** (-1.0 - 2.0 * s)
        return vals * w, errs * w

    # Near r = 0 the substitution r = w^{1/(2-2s)} turns the O(r^{1-2s})
    # integrand into a bounded one.
    b = 1.0 / (2.0 - 2.0 * s)

    def near(w):
        r = w**b
        jac = b * w ** (b - 1.0)
        vals, errs = core(r)
        return vals * jac, errs * jac

    w_lo = 1e-200 ** (1.0 / b)
    near_pts = sorted(
        {w_lo, 1.0}
        | {p ** (1.0 / b) for p in radial_breakpoints if w_lo < p < 1.0}
    )
    rep_near = _integrate(near, np.array(near_pts), spec)

    if support_radius is not None:
        r_end = float(np.linalg.norm(x)) + support_radius + 0.5
        pts = sorted({1.0, r_end} | {p for p in radial_breakpoints if 1.0 < p < r_end})
        rep_mid = _integrate(core, np.array(pts), spec)
        # Beyond r_end every u(x +- r theta) vanishes, so the integrand is
        # exactly total_mass * u(x) * r^{-1-2s}.
        u0, u0_err = _as_val_err(u(x[None, :]), 1)
        c = op.measure.total_mass * r_end ** (-2.0 * s) / (2.0 * s)
        rep_far = EvaluationReport(float(u0[0]) * c, float(u0_err[0]) * c, 1, True)
        total = rep_near + rep_mid + rep_far
    else:
        pts = sorted({1.0, 2.0} | {p for p in radial_breakpoints if 1.0 < p < 2.0})
        rep_mid = _integrate(core, np.array(pts), spec)
        rep_far = integrate_radial_unbounded(
            core, 2.0, 2.0 * s - growth_exponent, spec
        )
        total = rep_near + rep_mid + rep_far
    return total.scaled(1.0 - s)


def _abs_average(op, u, y, r):
    """(vals, errs) of int |u(y + r theta)| mu(dtheta) over a radius batch."""
    measure = op.measure
    d = measure.dimension
    if measure.variant == "atomic":
        vals = np.zeros(r.size)
        errs = np.zeros(r.size)
        for theta, w in measure.atoms:
            theta = np.asarray(theta, dtype=float)
            v, e = _as_val_err(u(y[None, :] + r[:, None] * theta[None, :]), r.size)
            vals += w * np.abs(v)
            errs += w * e
        return vals, errs
    m = measure.total_mass
    if d == 1:
        vp, ep = _as_val_err(u(y[None, :] + r[:, None]), r.size)
        vm, em = _as_val_err(u(y[None, :] - r[:, None]), r.size)
        return 0.5 * m * (np.abs(vp) + np.abs(vm)), 0.5 * m * (ep + em)

    def absolute(theta, ids):
        v, e = _as_val_err(u(y[None, :] + r[ids, None] * theta), ids.size)
        return np.abs(v), e

    vals, errs = _sphere_integrals(d, r.size, absolute)
    c = m / (2.0 * np.pi) if d == 2 else m / (4.0 * np.pi)
    return c * vals, c * errs


def tail(op, u, y, spec=None, growth_exponent=0.0, support_radius=None):
    """(1-s) int_{1/2}^inf int |u(y + t theta)| / t^{1+2s} mu(dtheta) dt."""
    spec = spec or QuadratureSpec()
    s = op.s
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != op.measure.dimension:
        raise QuadratureError("point dimension mismatch")
    if growth_exponent >= 2.0 * s:
        raise QuadratureError("growth_exponent must be < 2s for a finite tail")

    def integrand(t):
        vals, errs = _abs_average(op, u, y, t)
        w = t ** (-1.0 - 2.0 * s)
        return vals * w, errs * w

    if support_radius is not None:
        r_end = float(np.linalg.norm(y)) + support_radius + 0.5
        rep = _integrate(integrand, np.array([0.5, r_end]), spec)
    else:
        rep = _integrate(
            integrand, np.array([0.5, 2.0]), spec
        ) + integrate_radial_unbounded(
            integrand, 2.0, 2.0 * s - growth_exponent, spec
        )
    return rep.scaled(1.0 - s)


def tail_space_norm(u, s, d, spec=None, growth_exponent=0.0):
    """(1-s) int_{R^d} |u(x)| / (1+|x|)^{d+2s} dx for d in {1, 2, 3}."""
    spec = spec or QuadratureSpec()
    if d not in (1, 2, 3):
        raise QuadratureError("only d in {1, 2, 3} is supported")
    if not 0.0 < s < 1.0:
        raise QuadratureError("s must lie in (0, 1)")
    if growth_exponent >= 2.0 * s:
        raise QuadratureError("growth_exponent must be < 2s for a finite norm")
    # Reuse the spherical-average machinery with the uniform probability-like
    # measure of mass = surface area, centered at the origin.
    surface = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    op = OperatorSpec(SpectralMeasure.uniform(d, surface), s=s)
    origin = np.zeros(d)

    def integrand(rho):
        vals, errs = _abs_average(op, u, origin, rho)
        w = rho ** (d - 1.0) / (1.0 + rho) ** (d + 2.0 * s)
        return vals * w, errs * w

    rep = _integrate(
        integrand, np.array([1e-290, 1.0, 2.0]), spec
    ) + integrate_radial_unbounded(
        integrand, 2.0, 2.0 * s - growth_exponent, spec
    )
    return rep.scaled(1.0 - s)
