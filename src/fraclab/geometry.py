"""Exterior-paraboloid regularity checkers.

A domain satisfies the exterior Dini property at a boundary point z when a
fixed paraboloid

    C = {(x', x_d) : -depth < x_d < -|x'| omega(|x'|)}

(with Dini modulus omega) can be attached at z, rotated so its axis points
along the inward normal, without meeting the domain.  The checker here is a
sampled falsifier: it strains stratified samples of the paraboloid through
the domain's membership oracle and reports the first violation, if any.
"""

from dataclasses import dataclass

import numpy as np

from .moduli import ModulusFunction, dini_integral, power_transform


class GeometryError(ValueError):
    """Invalid geometric configuration."""


@dataclass(frozen=True)
class DomainOracle:
    """Membership oracle with exact boundary frames.

    ``membership(points)`` maps an (n, d) array to a boolean array (True =
    inside the open domain).  ``boundary_points`` is a list of (z, R_z)
    pairs where the rotation R_z maps the inward normal at z to +e_d.
    """

    name: str
    dimension: int
    membership: object
    boundary_points: tuple


def _rotation_to_ed(normal, d):
    """Rotation R with R @ normal = e_d (Householder construction)."""
    n = np.asarray(normal, dtype=float)
    n = n / np.linalg.norm(n)
    e = np.zeros(d)
    e[-1] = 1.0
    v = n + e
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        # normal = -e_d: the point reflection maps it to +e_d
        return -np.eye(d)
    v = v / nv
    H = np.eye(d) - 2.0 * np.outer(v, v)
    # H swaps n and -e_d; -H maps n to e_d but flips orientation, which is
    # irrelevant for containment checks.
    return -H


def _seed(seed):
    """A sampling seed, which numpy takes only when it is >= 0."""
    if seed < 0:
        raise GeometryError("seed must be >= 0")
    return seed


def ball_domain(d, boundary_count=32, seed=0):
    """The open unit ball with evenly spread boundary frames."""
    if d < 1 or boundary_count < 1:
        raise GeometryError("the ball needs d >= 1 and boundary_count >= 1")
    rng = np.random.default_rng(_seed(seed))
    zs = rng.normal(size=(boundary_count, d))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    frames = tuple((z.copy(), _rotation_to_ed(-z, d)) for z in zs)
    return DomainOracle(
        name="ball",
        dimension=d,
        membership=lambda pts: np.linalg.norm(np.atleast_2d(pts), axis=1) < 1.0,
        boundary_points=frames,
    )


def halfspace_domain(d):
    """The open half-space {x_d > 0} with its single natural frame at 0."""
    if d < 1:
        raise GeometryError("the half-space needs d >= 1")
    e = np.zeros(d)
    e[-1] = 1.0
    return DomainOracle(
        name="halfspace",
        dimension=d,
        membership=lambda pts: np.atleast_2d(pts)[:, -1] > 0.0,
        boundary_points=((np.zeros(d), np.eye(d)),),
    )


def cusp_domain(d, beta=0.5):
    """Test domain with an inward cusp at the origin: {x_d > -|x'|^beta}.

    For beta < 1 the domain reaches below every paraboloid with a modulus
    vanishing at 0, so exterior-paraboloid checks must fail at the origin.
    """
    if not 0.0 < beta < 1.0:
        raise GeometryError("beta must lie in (0, 1)")
    if d < 2:
        raise GeometryError("the cusp domain needs d >= 2")

    def member(pts):
        pts = np.atleast_2d(pts)
        trans = np.linalg.norm(pts[:, :-1], axis=1)
        return pts[:, -1] > -(trans**beta)

    return DomainOracle(
        name=f"cusp[{beta:g}]",
        dimension=d,
        membership=member,
        boundary_points=((np.zeros(d), np.eye(d)),),
    )


@dataclass(frozen=True)
class Paraboloid:
    """Exterior comparison region with slope t -> t*omega(t) and finite depth."""

    omega: ModulusFunction
    depth: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.depth < np.inf:
            raise GeometryError("depth must be positive and finite")

    def sample(self, d, count, seed):
        """Stratified samples (x', x_d) of the open region, deepest first.

        Transverse radii are stratified across decades down to 1e-6 so the
        apex neighborhood, where violations concentrate, is well covered.
        """
        rng = np.random.default_rng(_seed(seed))
        decades = 10.0 ** rng.uniform(-6.0, 0.0, size=count)
        radii = np.minimum(decades, 1.0)
        lips = -radii * self.omega(radii)
        lo = -self.depth * (1.0 - 1e-12)
        # where the lip already dips below the floor the stratum is empty;
        # shrink those radii until it reopens (r omega(r) -> 0 with r)
        for _ in range(200):
            empty = lips <= lo
            if not empty.any():
                break
            radii[empty] *= 0.5
            lips[empty] = -radii[empty] * self.omega(radii[empty])
        heights = lo + (lips - lo) * rng.uniform(1e-9, 1.0 - 1e-9, size=count)
        heights = np.minimum(heights, lips - 1e-300)
        if d == 1:
            return heights[:, None]
        dirs = rng.normal(size=(count, d - 1))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        out = np.empty((count, d))
        out[:, :-1] = radii[:, None] * dirs
        out[:, -1] = heights
        return out


@dataclass(frozen=True)
class ContainmentReport:
    holds_on_samples: bool
    witness: object


def check_exterior_dini(domain, z, paraboloid, samples=10000, seed=0):
    """Sampled check that the rotated paraboloid at z avoids the domain.

    Points of the paraboloid are mapped by x -> z + R_z^T x into ambient
    coordinates; every mapped point must lie outside the open domain.  A
    passing report covers only the sampled set.
    """
    if samples < 1:
        raise GeometryError("samples must be >= 1")
    z = np.atleast_1d(np.asarray(z, dtype=float))
    frame = None
    for zb, R in domain.boundary_points:
        if np.allclose(zb, z, atol=1e-12):
            frame = R
            break
    if frame is None:
        raise GeometryError("z is not a listed boundary point of the oracle")
    pts = paraboloid.sample(domain.dimension, samples, seed)
    ambient = z[None, :] + pts @ frame
    inside = np.asarray(domain.membership(ambient), dtype=bool)
    if inside.any():
        idx = int(np.flatnonzero(inside)[0])
        return ContainmentReport(False, ambient[idx].copy())
    return ContainmentReport(True, None)


@dataclass(frozen=True)
class DiniClassReport:
    satisfied: bool
    report: object


def check_dini_class(omega, s=None, variant="plain", tol=1e-6):
    """Dini-class membership of omega (plain) or of omega^{2s} (two_s)."""
    if variant == "plain":
        iota = omega
    elif variant == "two_s":
        if s is None or not 0.0 < s < 1.0:
            raise GeometryError("variant two_s needs s in (0, 1)")
        iota = power_transform(omega, 2.0 * s)
    else:
        raise GeometryError(f"unknown variant {variant!r}")
    rep = dini_integral(iota, tol=tol)
    return DiniClassReport(satisfied=rep.convergent, report=rep)
