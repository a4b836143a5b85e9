"""Dirichlet problem for the fractional Laplacian on the unit ball.

The solution with exterior datum g is represented exactly by the Poisson
integral

    u(x) = c_{d,s} int_{|y|>1} ((1-|x|^2)/(|y|^2-1))^s |x-y|^{-d} g(y) dy,

with c_{d,s} = Gamma(d/2) sin(pi s) / pi^{d/2+1}.  Everything in this module
is a quadrature of that formula with an estimated error: point solutions,
the model solutions v_t for complement-of-ball data, the interior-to-boundary
oscillation estimate, and a solver/operator cross-validation.
"""

import math
from dataclasses import dataclass

import numpy as np

from .moduli import oscillation_profile, stieltjes_integral
from .quadrature import (EvaluationReport, QuadratureSpec, _first,
                         integrate_exterior_ball)


class DomainError(ValueError):
    """Point on the wrong side of the unit sphere."""


@dataclass(frozen=True)
class PoissonKernel:
    """Poisson kernel of the unit ball for the fractional Laplacian."""

    d: int
    s: float

    def __post_init__(self):
        if self.d < 1:
            raise DomainError("dimension must be >= 1")
        if not 0.0 < self.s < 1.0:
            raise DomainError("s must lie in (0, 1)")

    @property
    def normalization(self):
        """c_{d,s} = Gamma(d/2) sin(pi s) / pi^{d/2 + 1} (> 0 on (0,1))."""
        return (
            math.gamma(0.5 * self.d)
            * math.sin(math.pi * self.s)
            / math.pi ** (0.5 * self.d + 1.0)
        )


def _interior_point(kernel, x):
    """x as a 1-D array, checked to be a finite point of the open unit ball
    of R^d."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (kernel.d,):
        raise DomainError("point dimension mismatch")
    if not np.isfinite(x).all():
        raise DomainError("x must be finite")
    if np.linalg.norm(x) >= 1.0:
        raise DomainError("x must lie in the open unit ball")
    return x


def _interior_points(kernel, x):
    """x as an (n, d) array of n >= 1 points, each checked as by
    ``_interior_point``."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != kernel.d:
        raise DomainError("point dimension mismatch")
    if not len(x):
        raise DomainError("need at least one point")
    for p in x:
        _interior_point(kernel, p)
    return x


def _boundary_point(kernel, z):
    """z as a 1-D array, checked to be a finite point of the unit sphere of
    R^d."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.shape != (kernel.d,):
        raise DomainError("point dimension mismatch")
    if not np.isfinite(z).all():
        raise DomainError("z must be finite")
    if abs(np.linalg.norm(z) - 1.0) > 1e-12:
        raise DomainError("z must lie on the unit sphere")
    return z


def poisson_kernel_eval(kernel, x, y):
    """P(x, y) for |x| < 1 and one or many exterior points |y| > 1."""
    x = _interior_point(kernel, x)
    y_arr = np.asarray(y, dtype=float)
    single = y_arr.ndim <= 1
    pts = np.atleast_2d(y_arr)
    if pts.shape[1] != kernel.d:
        raise DomainError("point dimension mismatch")
    y_norm2 = np.einsum("ij,ij->i", pts, pts)
    if np.any(y_norm2 <= 1.0):
        raise DomainError("y must lie outside the closed unit ball")
    out = _kernel_integrand(kernel, x)(pts, y_norm2 - 1.0, None)
    return float(out[0]) if single else out


@dataclass(frozen=True)
class BallProblem:
    """Unit-ball Dirichlet problem: kernel order/dimension plus the datum."""

    kernel: PoissonKernel
    datum: object

    def __post_init__(self):
        if self.datum.dimension != self.kernel.d:
            raise DomainError("datum dimension does not match the kernel")
        if self.datum.growth_exponent >= 2.0 * self.kernel.s:
            raise DomainError(
                "datum must grow slower than |y|^{2s} for the Poisson "
                "integral to converge"
            )


def _kernel_integrand(kernel, x, weight_fn=None):
    """Exterior integrand P(x, .) [* weight], using the exact boundary offset
    channel to avoid cancellation in |y|^2 - 1 near the sphere.  x is one
    point of shape (d,) or (1, d), broadcast to every row, or one per
    integral of shape (k, d), indexed by the ids of
    ``integrate_exterior_ball``; they are passed on to
    ``weight_fn(points, ids)``."""
    xs = np.atleast_2d(x)
    nx = np.array([np.linalg.norm(p) for p in xs])
    one_minus_x2 = (1.0 - nx) * (1.0 + nx)
    s, d, c = kernel.s, kernel.d, kernel.normalization

    def F(points, norm2m1, ids):
        j = 0 if len(xs) == 1 else ids
        diff = points - xs[j]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        vals = (
            c * (one_minus_x2[j] / norm2m1) ** s / dist2 ** (0.5 * d)
        )
        if weight_fn is not None:
            vals = vals * weight_fn(points, ids)
        return vals

    return F


def solve(problem, x, spec=None):
    """u(x) = int_{|y|>1} P(x, y) g(y) dy with an estimated error.

    x is one point, or an (n, d) array of n points: these are solved in
    batched exterior integrals, in which each point returns exactly what it
    returns alone, and the report's value and error_estimate are length-n
    arrays, function_evals is the total over the points and converged is
    False if any point's integral ends unconverged.  Every point is checked
    before any work.

    A datum flagged ``axisymmetric`` takes the polar-only sphere rule at the
    points on e1 (x = 0 included), and in d = 3 at every point.  At the
    points on e1 the polar ends lie on the axis, and a declared
    ``axis_exponent`` a maps the end panels of that rule (the
    ``end_exponent`` of ``integrate_exterior_ball``).  The points under one
    declaration are one ``integrate_exterior_ball`` call: at most two calls,
    for the points on e1 and those off it.
    """
    spec = spec or QuadratureSpec()
    kernel, g = problem.kernel, problem.datum
    many = np.ndim(x) == 2
    points = (_interior_points(kernel, x) if many
              else _interior_point(kernel, x)[None, :])
    decay = None
    if g.support_radius is None:
        # rho^{d-1} x kernel ~ rho^{-1-2s+growth} after the angular average
        decay = 2.0 * kernel.s - g.growth_exponent
    # Data symmetric about e1 are symmetric about the line through x when x
    # is on e1 (x = 0 included); d = 3 takes the polar-only rule at every x,
    # off the axis too, where it is wrong (the open axisym-offaxis defect).
    # Only on e1 do the polar ends lie on the axis, where g ~ |y'|^a.
    groups = {}
    for i, on_axis in enumerate((~points[:, 1:].any(axis=1)).tolist()):
        polar = bool(g.axisymmetric) and (on_axis or kernel.d == 3)
        exponent = g.axis_exponent if polar and on_axis else None
        groups.setdefault((polar, exponent), []).append(i)
    value, error = np.empty(len(points)), np.empty(len(points))
    evals, converged = 0, True
    for (polar, exponent), rows in groups.items():
        xs = points[rows]
        rep = integrate_exterior_ball(
            _kernel_integrand(kernel, xs, weight_fn=lambda pts, ids: g(pts)),
            xs, kernel.s, spec, [g.radial_breakpoints] * len(rows),
            support_radius=g.support_radius, decay_exponent=decay,
            axisymmetric=polar, end_exponent=exponent)
        value[rows], error[rows] = rep.value, rep.error_estimate
        evals += rep.function_evals
        converged = converged and rep.converged
    rep = EvaluationReport(value, error, evals, converged)
    return rep if many else _first(rep)


def solve_vt(kernel, z, t, x, spec=None):
    """Model solution v_t(x): Poisson integral of 1_{|y - z| > t}.

    z is a boundary point; the datum vanishes on B_t(z) and equals 1 on the
    rest of the exterior, so v_t decreases from the full kernel mass (= 1)
    at t = 0 toward 0 as t covers the exterior near the ball.

    ``t`` may be a 1-D array of radii: all of them are then solved in one
    batched exterior integral (each v_t returns exactly what it returns
    alone), and the report's value and error_estimate are arrays over t.

    The cap's edges are handed to the angular rule at every x in every d,
    and its kink radii t -+ 1 to the radial rule, far field included.  When
    x lies exactly on the line through 0 and z (every x_i z_j - x_j z_i is
    0, x = 0 included) the datum is symmetric about the line through x, so
    the sphere rule takes its polar level only.
    """
    spec = spec or QuadratureSpec()
    z = _boundary_point(kernel, z)
    x = _interior_point(kernel, x)
    t = np.asarray(t, dtype=float)
    ts = np.atleast_1d(t)
    if t.ndim > 1 or np.any(ts < 0.0):
        raise DomainError("t must be a nonnegative radius or 1-D array of them")

    if not x.any():
        # P(0, .) is radial, so v_t(0) is the same for every z: take the one
        # on the first axis of the solver's frame at 0.
        z = np.eye(kernel.d)[0]
    t2 = ts * ts

    def indicator(points, ids):
        diff = points - z[None, :]
        return (np.einsum("ij,ij->i", diff, diff) > t2[ids]).astype(float)

    F = _kernel_integrand(kernel, x, weight_fn=indicator)

    # The excised cap meets the sphere of radius rho in the polar angles
    # beta -+ alpha from x, beta = atan2(|x ^ z|, x . z) the angle of z and
    # alpha the cap's half width; folded by the solver's mirror they are
    # |beta - alpha| and min(beta + alpha, 2 pi - beta - alpha).  On the
    # z-line the wedge is exactly 0, so beta is exactly 0 or pi.
    wedge = [x[i] * z[j] - x[j] * z[i]
             for i in range(kernel.d) for j in range(i + 1, kernel.d)]
    on_line = not any(wedge)
    beta = math.atan2(math.hypot(*wedge), float(x @ z))
    angular_bps = None
    if kernel.d > 1:
        def angular_bps(rho, ids):
            c = (rho * rho + 1.0 - t2[ids]) / (2.0 * rho)
            cap = (ts[ids] > 0.0) & (np.abs(c) <= 1.0)
            alpha = np.full(c.shape, np.nan)
            # math.acos: the edges stay bitwise those of one-t solves.
            alpha[cap] = [math.acos(v) for v in c[cap].tolist()]
            return np.column_stack([
                np.abs(beta - alpha),
                np.minimum(beta + alpha, (2.0 * math.pi - beta) - alpha),
            ])

    bps = [tuple(p for p in (1.0 + ti, ti - 1.0) if p > 1.0) for ti in ts.tolist()]
    rep = integrate_exterior_ball(
        F, x, kernel.s, spec, bps, decay_exponent=2.0 * kernel.s,
        angular_breakpoints=angular_bps, axisymmetric=on_line,
    )
    return _first(rep) if t.ndim == 0 else rep


@dataclass(frozen=True)
class BoundaryCheck:
    """Both sides of the interior-to-boundary oscillation estimate.

    ``holds`` is the inequality with every estimated error charged against
    it; ``converged`` is True when u(x), every v_t and the Stieltjes bracket
    met their tolerances.
    """

    lhs: float
    lhs_error: float
    rhs: float
    rhs_error: float
    holds: bool
    converged: bool

    @property
    def slack(self):
        return self.rhs - self.lhs


def interior_to_boundary_check(problem, x, z, t_max=None, spec=None, tol=5e-3):
    """Check |u(x) - g(z)| <= int_0^{t_max} v_t(x) d xi_z(t).

    xi_z is the datum's oscillation profile about z; v_t is nonincreasing in
    t, so the Stieltjes integral is bracketed by monotone upper/lower sums.
    Returns both sides with their estimated errors folded into ``holds``;
    x and z are checked before any work.
    """
    spec = spec or QuadratureSpec()
    kernel, g = problem.kernel, problem.datum
    x = _interior_point(kernel, x)
    z = _boundary_point(kernel, z)
    if t_max is None:
        if g.support_radius is None:
            raise DomainError("t_max required for data of unbounded support")
        t_max = float(np.linalg.norm(z)) + g.support_radius + 0.5

    u = solve(problem, x, spec)
    gz = float(g(z[None, :])[0])
    lhs = abs(u.value - gz)

    t_grid = np.linspace(0.0, t_max, 65)
    xi = oscillation_profile(g, z, t_grid)

    vt_spec = QuadratureSpec(
        rel_tol=max(spec.rel_tol, 1e-6),
        abs_tol=max(spec.abs_tol, 1e-9),
        max_subdivisions=spec.max_subdivisions,
    )
    # The bracket charges the worst v_t error and ANDs the v_t flags.
    rhs = stieltjes_integral(lambda ts: solve_vt(kernel, z, ts, x, vt_spec),
                             xi, t_max, tol=tol, mono_slack=1e-6)
    holds = lhs <= rhs.value + rhs.error_estimate + u.error_estimate + spec.abs_tol
    return BoundaryCheck(
        lhs=lhs,
        lhs_error=u.error_estimate,
        rhs=rhs.value,
        rhs_error=rhs.error_estimate,
        holds=bool(holds),
        converged=bool(u.converged and rhs.converged),
    )


# Rule of the interior solves of ``harmonicity_check``: two digits finer than
# its default operator rule.
_HARMONICITY_SOLVE_SPEC = QuadratureSpec(
    rel_tol=1e-8, abs_tol=1e-11, max_subdivisions=4096
)


def harmonicity_check(problem, x, calibration=1.0, spec=None):
    """Residual of the stable operator applied to the Poisson solution at x.

    The solution is extended by the datum outside the closed ball and solved
    inside at every point the operator asks for: the interior points of one
    call of u are one many-point ``solve``.  With the rotation-invariant
    measure (total mass = ``calibration``) the operator is a constant
    multiple of the fractional Laplacian, so the residual should vanish for
    every calibration.  The report's function_evals counts the datum rows
    and the kernel evaluations of the interior solves (each batch's total),
    and converged is False if any batch of interior solves is unconverged.
    """
    from .stable_operator import OperatorSpec, SpectralMeasure, apply_operator

    spec = spec or QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_subdivisions=4096)
    kernel, g = problem.kernel, problem.datum

    def u_ext(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.zeros(pts.shape[0])
        errs = np.zeros(pts.shape[0])
        evals = np.ones(pts.shape[0], dtype=int)
        outside = np.linalg.norm(pts, axis=1) >= 1.0
        if outside.any():
            vals[outside] = g(pts[outside])
        inside = np.flatnonzero(~outside)
        if not inside.size:
            return EvaluationReport(vals, errs, evals, True)
        rep = solve(problem, pts[inside], _HARMONICITY_SOLVE_SPEC)
        vals[inside], errs[inside] = rep.value, rep.error_estimate
        # The batch reports its total evaluations; the operator reads only
        # their sum, so the first inside point carries them all.
        evals[inside] = 0
        evals[inside[0]] = rep.function_evals
        return EvaluationReport(vals, errs, evals, rep.converged)

    return apply_operator(
        OperatorSpec(SpectralMeasure.uniform(kernel.d, calibration), s=kernel.s),
        u_ext,
        x,
        spec,
        growth_exponent=g.growth_exponent,
        support_radius=g.support_radius,
    )
