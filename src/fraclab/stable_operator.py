"""Pointwise application of 2s-stable integro-differential operators.

The operator acts on a function u at a point x as

    A u(x) = (1 - s) pv int_0^inf int_{S^{d-1}}
                 (u(x) - u(x + r theta)) / r^{1+2s}  mu(dtheta) dr

for a finite symmetric spectral measure mu on the sphere.  Atoms and sphere
alike integrate this first difference: by the symmetry of mu its average
D(r) over mu equals that of the symmetrized second difference
(2u(x) - u(x+r theta) - u(x-r theta)) / 2, so D(r) = O(r^2) near r = 0 for
u twice differentiable and no epsilon-excision is needed.  Atomic measures
are summed over their atoms; the uniform measure is integrated with
``quadrature.sphere_integrals``, in a frame along x and folded by a mirror
(in d = 1 that is the pair x +- r, with no adaptive rule).

The radial integrand r^{-1-2s} D(r) is O(r^{1-2s}) at r = 0, so
``apply_operator`` integrates it with the quadrature module's endpoint rule
``integrate_radial_singular``, r the offset and 2s - 1 the exponent.

The sphere rule nested in each radial rule is the general one (no symmetry
is declared: u need not be symmetric about any line through x), under
``_inner_rule`` of the caller's spec at that rule's own abs_tol.  The
``tol`` the radial rule hands each node is not passed on: below r ~ 1e-8
the first difference is roundoff, which the weight r^{-1-2s} amplifies, and
a sphere rule held to that budget recurses into it.

Functions u are numpy-vectorized over an (n, d) array of points.  They
return values, or an ``EvaluationReport`` of per-point arrays when their
own evaluation is a computation (e.g. a quadrature-based solution): its
errors, evaluation counts and flag then flow into the operator's report.
function_evals counts leaf evaluations: the rows u was given, or the counts
u reports for them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import (
    EvaluationReport,
    QuadratureError,
    QuadratureSpec,
    integrate_radial_singular,
    integrate_radial_unbounded,
    sphere_integrals,
    # Not called here: perfbench/tracer.py patches this module's bindings.
    _adaptive,  # noqa: F401
    integrate_1d,  # noqa: F401
    _as_report,
    _first,
    _frame,
    _inner_rule,
    _integrate,
    _sphere_area,
)


class MeasureError(ValueError):
    """Invalid spectral-measure construction."""


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite symmetric measure on the unit sphere S^{d-1}.

    variant "uniform": the rotation-invariant measure of the given mass.
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


@dataclass(frozen=True)
class OperatorSpec:
    """A 2s-stable operator: spectral measure plus the order s."""

    measure: SpectralMeasure
    s: float

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise MeasureError("order s must lie in (0, 1)")


def _sphere_grid(d, n):
    """Direction grid on S^{d-1}: quasi-uniform for d <= 3, else n seeded
    random directions and the coordinate axes +-e_i."""
    if d > 3:
        dirs = np.random.default_rng(0).standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return np.concatenate([dirs, np.eye(d), -np.eye(d)])
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


def sphere_crossing_radii(measure, x, support_radius=None):
    """Radii r > 0 at which x + r theta crosses the unit sphere, and the
    sphere |y| = support_radius if that is given and nonzero, for theta in
    the support of ``measure``: where the mu-average of a function that
    kinks or jumps on those spheres does.  For the unit sphere and the
    uniform measure they are |1 - |x|| and 1 + |x|; along an atom theta,
    the positive ones of r = -x.theta +- sqrt((x.theta)^2 + 1 - |x|^2)
    (only the + root when |x| < 1, none when the ray misses the sphere)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != measure.dimension:
        raise QuadratureError("point dimension mismatch")
    if support_radius:
        outer = sphere_crossing_radii(measure, x / support_radius)
        return sphere_crossing_radii(measure, x) + tuple(support_radius * r
                                                         for r in outer)
    nx = float(np.linalg.norm(x))
    if measure.variant == "uniform":
        return (abs(1.0 - nx), 1.0 + nx)
    c = np.array([theta for theta, _ in measure.atoms]) @ x
    radicand = c * c + (1.0 - nx) * (1.0 + nx)
    c, root = c[radicand >= 0.0], np.sqrt(radicand[radicand >= 0.0])
    r = np.concatenate([root - c, -root - c])
    return tuple(r[r > 0.0].tolist())


def nondegeneracy_constant(measure, s, xi_samples=720):
    """inf_xi int |theta.xi|^{2s} mu(dtheta), the nondegeneracy constant.

    Atoms that do not span R^d give 0 (some xi is orthogonal to all), else
    the minimum of the exact atom sum over a direction grid, an upper bound
    for the infimum.  The uniform measure of mass m gives, at
    every xi, m Gamma(d/2) Gamma(s + 1/2) / (sqrt(pi) Gamma(d/2 + s)).
    """
    if not 0.0 < s < 1.0:
        raise MeasureError("order s must lie in (0, 1)")
    d = measure.dimension
    if measure.variant == "uniform":
        return (measure.total_mass * math.gamma(0.5 * d) * math.gamma(s + 0.5)
                / (math.sqrt(math.pi) * math.gamma(0.5 * d + s)))
    thetas = np.array([np.asarray(t, dtype=float) for t, _ in measure.atoms])
    if np.linalg.matrix_rank(thetas) < d:
        return 0.0
    xis = _sphere_grid(d, xi_samples)
    weights = np.array([w for _, w in measure.atoms])
    vals = np.abs(xis @ thetas.T) ** (2.0 * s) @ weights
    return float(vals.min())


def _average(measure, phi, frame, r, spec):
    """The report of int phi(r theta) mu(dtheta) over a batch of radii r.

    ``phi`` takes an (n, d) array of offsets y = r theta and returns values
    or a report.  Atoms are summed with one call of phi; the uniform measure
    is integrated with the general rule of ``sphere_integrals`` in
    ``frame``, under ``_inner_rule(spec)``.
    """
    d = measure.dimension
    if measure.variant == "atomic":
        thetas = np.array([theta for theta, _ in measure.atoms])
        weights = np.array([w for _, w in measure.atoms])
        rep = _as_report(phi((r[:, None, None] * thetas).reshape(-1, d)))
        return EvaluationReport(
            rep.value.reshape(r.size, -1) @ weights,
            rep.error_estimate.reshape(r.size, -1) @ weights,
            rep.function_evals.reshape(r.size, -1).sum(axis=1),
            rep.converged,
        )
    density = measure.total_mass / _sphere_area(d)
    return sphere_integrals(lambda y, ids: phi(y), frame, r, None,
                            _inner_rule(spec)) * density


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
    closed form of u(x), else to ``integrate_radial_unbounded`` beyond
    r = 2.  One endpoint rule integrates up to there, breaking at r = 1, at
    ``radial_breakpoints`` and where x + r theta crosses the unit or the
    support sphere.  function_evals counts the rows of u, u(x) included.
    """
    spec = spec or QuadratureSpec()
    s = op.s
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.size != op.measure.dimension:
        raise QuadratureError("point dimension mismatch")
    if not np.isfinite(x).all():
        raise QuadratureError("x must be finite")
    if growth_exponent >= 2.0 * s:
        raise QuadratureError(
            "growth_exponent must be < 2s for the operator to be defined"
        )
    u0 = _as_report(u(x[None, :]))
    u0_value, u0_error = float(u0.value[0]), float(u0.error_estimate[0])
    frame = _frame(x, x.size)

    def first_difference(y):
        rep = _as_report(u(x + y))
        return EvaluationReport(u0_value - rep.value, u0_error + rep.error_estimate,
                                rep.function_evals, rep.converged)

    def core(r, ids, tol):
        weight = r ** (-1.0 - 2.0 * s)
        return _average(op.measure, first_difference, frame, r, spec) * weight

    r_end = (2.0 if support_radius is None
             else float(np.linalg.norm(x)) + support_radius + 0.5)
    bps = {1.0, *radial_breakpoints,
           *sphere_crossing_radii(op.measure, x, support_radius)}
    rep = _first(integrate_radial_singular(core, 2.0 * s - 1.0, r_end, spec,
                                           [sorted(bps)]))
    if support_radius is None:
        rep = rep + _first(integrate_radial_unbounded(
            core, r_end, 2.0 * s - growth_exponent, spec, [spec.abs_tol]))
    # u(x) adds its evaluation and flag, and with a support radius the tail:
    # beyond r_end every u(x + r theta) vanishes, so the integrand is exactly
    # total_mass * u(x) * r^{-1-2s}.
    c = (0.0 if support_radius is None
         else op.measure.total_mass * r_end ** (-2.0 * s) / (2.0 * s))
    rep = rep + EvaluationReport(u0_value * c, u0_error * c,
                                 int(u0.function_evals[0]), u0.converged)
    return rep * (1.0 - s)


def _abs_integral(measure, u, y, weight, points, spec, decay=None):
    """int weight(t) int |u(y + t theta)| mu(dtheta) dt over the partition
    ``points``, plus over (points[-1], inf) when ``decay`` is given
    (|integrand(t)| <= M t^{-1-decay} there)."""
    frame = _frame(y, y.size)

    def absolute(z):
        rep = _as_report(u(y + z))
        return EvaluationReport(np.abs(rep.value), rep.error_estimate,
                                rep.function_evals, rep.converged)

    def integrand(t, ids, tol):
        return _average(measure, absolute, frame, t, spec) * weight(t)

    rep = _integrate(integrand, [points], spec)
    if decay is not None:
        rep = rep + integrate_radial_unbounded(integrand, points[-1], decay,
                                               spec, [spec.abs_tol])
    return _first(rep)


def tail(op, u, y, spec=None, growth_exponent=0.0, support_radius=None):
    """(1-s) int_{1/2}^inf int |u(y + t theta)| / t^{1+2s} mu(dtheta) dt,
    breaking where y + t theta crosses the unit or the support sphere."""
    spec = spec or QuadratureSpec()
    s = op.s
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.size != op.measure.dimension:
        raise QuadratureError("point dimension mismatch")
    if not np.isfinite(y).all():
        raise QuadratureError("y must be finite")
    if growth_exponent >= 2.0 * s:
        raise QuadratureError("growth_exponent must be < 2s for a finite tail")
    if support_radius is None:
        r_end, decay = 2.0, 2.0 * s - growth_exponent
    else:
        r_end, decay = float(np.linalg.norm(y)) + support_radius + 0.5, None
    kinks = sphere_crossing_radii(op.measure, y, support_radius)
    points = sorted({0.5, r_end} | {t for t in kinks if 0.5 < t < r_end})
    return _abs_integral(op.measure, u, y, lambda t: t ** (-1.0 - 2.0 * s),
                         points, spec, decay) * (1.0 - s)


def tail_space_norm(u, s, d, spec=None, growth_exponent=0.0):
    """(1-s) int_{R^d} |u(x)| / (1+|x|)^{d+2s} dx."""
    spec = spec or QuadratureSpec()
    if not 0.0 < s < 1.0:
        raise QuadratureError("s must lie in (0, 1)")
    if growth_exponent >= 2.0 * s:
        raise QuadratureError("growth_exponent must be < 2s for a finite norm")
    # Polar coordinates about the origin: the uniform measure of mass equal
    # to the sphere's area turns the spherical average into the surface
    # integral.
    area = SpectralMeasure.uniform(d, _sphere_area(d))
    return _abs_integral(
        area, u, np.zeros(d),
        lambda rho: rho ** (d - 1.0) / (1.0 + rho) ** (d + 2.0 * s),
        [1e-290, 1.0, 2.0], spec, 2.0 * s - growth_exponent) * (1.0 - s)
