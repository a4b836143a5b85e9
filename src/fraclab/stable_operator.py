"""Pointwise application of 2s-stable integro-differential operators.

The operator acts on a function u at a point x as

    A u(x) = (1 - s) pv int_0^inf int_{S^{d-1}}
                 (u(x) - u(x + r theta)) / r^{1+2s}  mu(dtheta) dr

for a finite symmetric spectral measure mu on the sphere.  By the symmetry
of mu the inner integral D(r) equals that of the symmetrized second
difference (2u(x) - u(x+r theta) - u(x-r theta)) / 2, so D(r) = O(r^2)
near r = 0 for u twice differentiable and no epsilon-excision is needed.
Atomic measures (and the uniform measure in d = 1, the atoms +-1 of half
the mass each) are summed over symmetric atom pairs.  The uniform measure
in d = 2, 3 integrates the first difference u(x) - u(x + r theta) over the
sphere with ``quadrature.sphere_integrals``, in a frame along x and folded
by a mirror.

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
    sphere_integrals,
    # Not called here: perfbench/tracer.py patches this module's binding.
    _adaptive,  # noqa: F401
    _frame,
    _integrate,
    _scaled,
    _values_errors,
)


class MeasureError(ValueError):
    """Invalid spectral-measure construction."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite symmetric measure on the unit sphere S^{d-1}.

    variant "uniform": the rotation-invariant measure with the given total
    mass; in d = 1 it is stored as its two atoms +-1 of half the mass each.
    variant "atomic": point masses, required to come in symmetric pairs
    (theta, w), (-theta, w).
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
            half = 0.5 * self.total_mass
            object.__setattr__(
                self, "atoms",
                (((1.0,), half), ((-1.0,), half)) if self.dimension == 1 else (),
            )
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
    if measure.atoms:
        thetas = np.array([np.asarray(t, dtype=float) for t, _ in measure.atoms])
        weights = np.array([w for _, w in measure.atoms])
        vals = np.abs(xis @ thetas.T) ** (2.0 * s) @ weights
        return float(vals.min())
    m = measure.total_mass
    spec = QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12)
    if d == 2:
        # (m / 2pi) int_0^{2pi} |cos|^{2s} = (2m/pi) int_0^{pi/2} cos^{2s}
        rep = integrate_1d(lambda p: np.cos(p) ** (2.0 * s), 0.0, 0.5 * np.pi, spec)
        return m * 2.0 / np.pi * rep.value
    # (m / 4pi) int |cos phi|^{2s} dS = (m/2) int_0^pi |cos|^{2s} sin = m/(2s+1)
    return m / (2.0 * s + 1.0)


# Adaptive rule of the angular integrals inside the radial integrands.
_SPHERE_RULE = QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13, max_subdivisions=2048)

_SPHERE_AREA = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


def _uniform_average(measure, g, x, r):
    """(vals, errs) of int g(r theta) mu(dtheta) for the uniform measure mu
    in d = 2, 3 over a batch of radii r, in a frame along x."""
    d = measure.dimension
    vals, errs, _ = sphere_integrals(
        g, _frame(x, d), r, [(0.0, np.pi)] * r.size, _SPHERE_RULE
    )
    c = measure.total_mass / _SPHERE_AREA[d]
    return c * vals, c * errs


def _second_difference(op, u, x, r):
    """(vals, errs) of D(r) = int (u(x) - u(x + r th)) mu(dth) for a batch of
    radii r; atoms are summed as symmetrized pairs."""
    measure = op.measure
    u0, u0_err = _values_errors(u(x[None, :]))
    u0, u0_err = float(u0[0]), float(u0_err[0])
    if measure.atoms:
        vals = np.zeros(r.size)
        errs = np.zeros(r.size)
        for theta, w in measure.half_atoms():
            vp, ep = _values_errors(u(x + np.outer(r, theta)))
            vm, em = _values_errors(u(x - np.outer(r, theta)))
            # w is the per-atom weight; the symmetrized difference over the
            # pair {theta, -theta} carries the pair mass 2w, i.e. w without
            # the 1/2 of the symmetrization.
            vals += w * (2.0 * u0 - vp - vm)
            errs += w * (2.0 * u0_err + ep + em)
        return vals, errs

    def first_difference(y, ids):
        v, e = _values_errors(u(x + y))
        return u0 - v, u0_err + e

    return _uniform_average(measure, first_difference, x, r)


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
        return _scaled(_second_difference(op, u, x, r), r ** (-1.0 - 2.0 * s))

    # Near r = 0 the substitution r = w^{1/(2-2s)} turns the O(r^{1-2s})
    # integrand into a bounded one.
    b = 1.0 / (2.0 - 2.0 * s)

    def near(w):
        return _scaled(core(w**b), b * w ** (b - 1.0))

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
        u0, u0_err = _values_errors(u(x[None, :]))
        c = op.measure.total_mass * r_end ** (-2.0 * s) / (2.0 * s)
        rep_far = EvaluationReport(float(u0[0]) * c, float(u0_err[0]) * c, 1, True)
    else:
        pts = sorted({1.0, 2.0} | {p for p in radial_breakpoints if 1.0 < p < 2.0})
        rep_mid = _integrate(core, np.array(pts), spec)
        rep_far = integrate_radial_unbounded(
            core, 2.0, 2.0 * s - growth_exponent, spec
        )
    return (rep_near + rep_mid + rep_far).scaled(1.0 - s)


def _abs_average(op, u, y, r):
    """(vals, errs) of int |u(y + r theta)| mu(dtheta) over a radius batch."""
    measure = op.measure
    if measure.atoms:
        vals = np.zeros(r.size)
        errs = np.zeros(r.size)
        for theta, w in measure.atoms:
            v, e = _values_errors(u(y + np.outer(r, theta)))
            vals += w * np.abs(v)
            errs += w * e
        return vals, errs

    def absolute(z, ids):
        v, e = _values_errors(u(y + z))
        return np.abs(v), e

    return _uniform_average(measure, absolute, y, r)


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
        return _scaled(_abs_average(op, u, y, t), t ** (-1.0 - 2.0 * s))

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
    op = OperatorSpec(SpectralMeasure.uniform(d, _SPHERE_AREA[d]), s=s)
    origin = np.zeros(d)

    def integrand(rho):
        return _scaled(_abs_average(op, u, origin, rho),
                       rho ** (d - 1.0) / (1.0 + rho) ** (d + 2.0 * s))

    rep = _integrate(
        integrand, np.array([1e-290, 1.0, 2.0]), spec
    ) + integrate_radial_unbounded(
        integrand, 2.0, 2.0 * s - growth_exponent, spec
    )
    return rep.scaled(1.0 - s)
