"""Adaptive quadrature with estimated errors.

One-dimensional adaptive Gauss-Kronrod (7/15 embedded pair) with panel-wise
error estimates, one endpoint substitution that removes an integrable power
q^{-s} of the offset q from the singular end analytically (the boundary
weight (rho^2-1)^{-s} of the Poisson kernel, the r^{1-2s} of the stable
operator), an unbounded-domain map, one routine for integrals over spheres
in every d (``sphere_integrals``, a polar recursion down to the mirror pair
S^0, whose top level maps its end panels for a declared power phi^a at the
polar ends), and the sphere-times-radius rule over the exterior of the unit
ball in every d, which calls it in a frame along each integral's evaluation
point.

Every rule computes a batch of k integrals in one adaptive pool, and one
integral is the batch of one: k is read from the per-integral inputs (the
initial partitions, breakpoints or tolerances), and the report holds
length-k arrays.  Each integral of a batch returns exactly what it returns
alone, since ``panel_reduce`` reduces each panel by itself.  ``_first``
turns the report of one integral into a scalar report; ``integrate_1d`` is
the public one-integral rule.

Integrands are numpy-vectorized and called as ``f(x, ids, tol)``: abscissae,
per abscissa the index of its integral and the error its value may carry.
They return an ndarray of values, or an ``EvaluationReport`` of per-point
arrays when each value is itself computed (an inner rule, a solve), whose
errors, evaluation counts and flag the rule folds into its own report.  So
function_evals counts leaf evaluations at every level (one per point of a
plain integrand), and the sphere integrals at all radial nodes of one radial
panel sweep cost one ``_adaptive`` call per level.

Nested rules share one error budget, carried by the call.  A rule folds
per-point errors as half-width times the Kronrod-weighted sum, so each
point's ``tol`` is ``INNER_SHARE`` of its integral's abs_tol over its
interval's length.  Each wrapper that multiplies a value by a factor (a Jacobian, a
weight) divides the ``tol`` it hands down by that factor; an inner rule
takes it as its abs_tol, under ``_inner_rule`` of its outer rule.  Leaf
integrands (``integrate_1d``'s f, ``sphere_integrals``' g) take no tol.
"""

from dataclasses import dataclass

import numpy as np

from ._accel import GK_NODES, panel_reduce


class QuadratureError(ValueError):
    """Invalid quadrature input (bad interval, tolerance, or declaration)."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and budgets for the adaptive rules."""

    rel_tol: float = 1e-7
    abs_tol: float = 1e-10
    max_subdivisions: int = 20000

    def __post_init__(self):
        if not (0.0 < self.rel_tol < np.inf and 0.0 < self.abs_tol < np.inf):
            raise QuadratureError("tolerances must be positive and finite")
        if self.max_subdivisions < 64:
            raise QuadratureError("max_subdivisions must be >= 64")

    def tolerance(self, value):
        """max(abs_tol, rel_tol |value|), elementwise for an array."""
        return np.maximum(self.abs_tol, self.rel_tol * np.abs(value))


@dataclass(frozen=True)
class EvaluationReport:
    """A computed value with an estimated error, its work and a flag.

    function_evals counts leaf evaluations; converged is True when every
    rule at every level below met its tolerance.  An integrand's report
    holds per-point arrays of value, error_estimate and function_evals.
    The rules return one report for their k integrals: length-k value and
    error_estimate and the total function_evals (``sphere_integrals`` keeps
    it per radius: its report is an integrand result).  The one-integral
    functions return the scalar report ``_first`` makes of it.  Reports add
    (parts of one integral), and ``report * factor`` scales value and error.
    """

    value: float
    error_estimate: float
    function_evals: int
    converged: bool

    def __add__(self, other):
        return EvaluationReport(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            function_evals=self.function_evals + other.function_evals,
            converged=self.converged and other.converged,
        )

    def __mul__(self, factor):
        return EvaluationReport(self.value * factor,
                                self.error_estimate * abs(factor),
                                self.function_evals, self.converged)


def _first(rep):
    """The scalar report of a report on one integral."""
    return EvaluationReport(float(rep.value[0]), float(rep.error_estimate[0]),
                            rep.function_evals, rep.converged)


def _as_report(res):
    """An integrand result as a report of per-point arrays: a report as it
    is, plain values with zero errors, one evaluation each and converged."""
    if isinstance(res, EvaluationReport):
        return res
    values = np.asarray(res, dtype=float)
    return EvaluationReport(values, np.zeros(values.shape),
                            np.ones(values.shape, dtype=int), True)


# Panels evaluated per integrand call: bounds the size of the abscissa
# arrays (and so the memory) of nested batches.
PANELS_PER_CALL = 64

# Share of an integral's abs_tol that the errors of its points may carry.
INNER_SHARE = 0.25

# Ratio of consecutive offsets rho - 1 of the radial breakpoints graded away
# from the sphere, starting at the Poisson-kernel concentration scale 1 - |x|.
RADIAL_GRADING = 16.0


def _evaluate_panels(f, lo, hi, ids, budget):
    """Evaluate f on the 15 Kronrod nodes of each panel.

    ``f(x, ids, tol)`` is called on at most ``PANELS_PER_CALL`` panels at a
    time, with ``ids[j]`` the integral that abscissa ``x[j]`` belongs to and
    ``tol[j] = budget[ids[j]]`` the error its value may carry.  Returns
    (pool, panel_evals, converged): pool is a (5, n) array whose rows are
    lo, hi, the panel values, their Kronrod errors and the integrand's
    per-point errors folded over each panel; panel_evals folds its
    evaluation counts, and converged ANDs its flags.
    """
    halves = 0.5 * (hi - lo)
    x = 0.5 * (lo + hi)[:, None] + halves[:, None] * GK_NODES[None, :]
    fv, fe, fn = np.empty(x.shape), np.zeros(x.shape), np.empty(x.shape)
    converged = True
    for k in range(0, len(lo), PANELS_PER_CALL):
        rows = slice(k, k + PANELS_PER_CALL)
        at = np.repeat(ids[rows], 15)
        res = f(x[rows].ravel(), at, budget[at])
        if isinstance(res, EvaluationReport):
            fe[rows] = res.error_estimate.reshape(-1, 15)
            fn[rows] = res.function_evals.reshape(-1, 15)
            converged = converged and bool(res.converged)
            res = res.value
        else:
            fn[rows] = 1
        fv[rows] = np.asarray(res, dtype=float).reshape(-1, 15)
    if not np.isfinite(fv).all():
        raise QuadratureError("integrand returned a non-finite value")
    pool = np.empty((5, len(lo)))
    pool[0], pool[1] = lo, hi
    pool[2], pool[3], pool[4] = panel_reduce(fv, fe, halves)
    return pool, fn.sum(axis=1), converged


def _adaptive(f, partitions, rel_tol, abs_tol, max_subdivisions):
    """Adaptive bisection of a batch of integrals, one per initial partition.

    ``partitions`` is a 2-D array whose rows are the partitions (a repeated
    point gives an empty panel, which is dropped), and ``abs_tol`` is one
    value or one per integral.  All panels share one pool, each tagged with
    the id (row of ``partitions``) of its integral, and every refinement
    sweep evaluates the new panels of all ids together through
    ``f(x, ids, tol)`` (tol as in the module docstring; an id of length 0
    has no points).  Each id follows the scalar rules on its own panels: it
    stops when its error meets ``max(abs_tol, rel_tol |value|)``, when it
    holds ``max_subdivisions`` panels, or when integrand-supplied error
    dominates; otherwise it splits every panel above ``tol / (2 n_panels)``
    and at least its worst one.

    Returns (values, errors, function_evals, converged): per-id arrays, the
    evaluations counted as the integrand reports them, and one bool that is
    True when every id met its tolerance and the integrand reported no
    unconverged point.  Each id gets exactly what it gets in a pool alone.
    """
    n = len(partitions)
    lo, hi = partitions[:, :-1].ravel(), partitions[:, 1:].ravel()
    ids = np.repeat(np.arange(n), partitions.shape[1] - 1)
    keep = hi > lo
    ids = ids[keep]
    values, errors = np.zeros(n), np.zeros(n)
    length = partitions[:, -1] - partitions[:, 0]
    budget = np.divide(INNER_SHARE * abs_tol, length, out=np.zeros(n),
                       where=length > 0)
    # The panels, as the columns of ``pool`` (see _evaluate_panels), and ids.
    pool, pn, converged = _evaluate_panels(f, lo[keep], hi[keep], ids, budget)
    n_evals = np.bincount(ids, pn, n)
    while ids.size:
        count = np.bincount(ids, minlength=n)
        total = np.bincount(ids, pool[2], n)
        gk_err = np.bincount(ids, pool[3], n)
        aux_err = np.bincount(ids, pool[4], n)
        err = gk_err + aux_err
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        ok = err <= tol
        # An id whose estimate is dominated by integrand-supplied (inner-rule)
        # uncertainty, which panel splitting cannot reduce, stops too.
        done = (count > 0) & (
            ok | (count >= max_subdivisions)
            | ((aux_err > 0.5 * tol) & (gk_err <= 0.5 * tol))
        )
        if done.any():
            values[done], errors[done] = total[done], err[done]
            converged = converged and bool(ok[done].all())
            live = ~done[ids]
            pool, ids = pool.compress(live, axis=1), ids[live]
            if not ids.size:
                break
        # Split every panel holding more than its share of the budget; always
        # split at least the worst one (the first, on ties).
        pe = pool[3]
        split = pe > tol[ids] / (2.0 * count[ids])
        lacking = np.flatnonzero(np.bincount(ids[split], minlength=n)[ids] == 0)
        if lacking.size:
            worst = np.zeros(n)
            np.maximum.at(worst, ids[lacking], pe[lacking])
            ties = lacking[pe[lacking] == worst[ids[lacking]]]
            split[ties[np.unique(ids[ties], return_index=True)[1]]] = True
        s_lo, s_hi = pool[:2].compress(split, axis=1)
        s_ids = ids[split]
        mid = 0.5 * (s_lo + s_hi)
        new_ids = np.concatenate([s_ids, s_ids])
        new, nn, new_ok = _evaluate_panels(
            f, np.concatenate([s_lo, mid]), np.concatenate([mid, s_hi]),
            new_ids, budget)
        n_evals += np.bincount(new_ids, nn, n)
        converged = converged and new_ok
        old = ~split
        pool = np.concatenate([pool.compress(old, axis=1), new], axis=1)
        ids = np.concatenate([ids[old], new_ids])
    return values, errors, n_evals.astype(int), converged


def _integrate(f, partitions, spec, abs_tol=None):
    """The integrals of f(x, ids, tol) over the initial partitions
    ``partitions[i]`` in one pool, with one absolute tolerance per integral
    if ``abs_tol`` is given.  Partitions of unequal length are padded by
    repeating their last point."""
    if not len(partitions):
        raise QuadratureError("need at least one integral")
    width = max(len(p) for p in partitions)
    rows = np.array([list(p) + [p[-1]] * (width - len(p)) for p in partitions],
                    dtype=float)
    values, errors, n_evals, ok = _adaptive(
        f, rows, spec.rel_tol, spec.abs_tol if abs_tol is None else abs_tol,
        spec.max_subdivisions,
    )
    return EvaluationReport(values, errors, int(n_evals.sum()), ok)


def _partition(a, b, breakpoints=None):
    pts = [a, b]
    if breakpoints is not None:
        pts.extend(p for p in breakpoints if a < p < b)
    return np.array(sorted(set(pts)))


def integrate_1d(f, a, b, spec, breakpoints=None):
    """Adaptive Gauss-Kronrod integration of ``f(x)`` over (a, b)."""
    if not a < b:
        raise QuadratureError(f"need a < b, got [{a}, {b}]")
    return _first(_integrate(lambda x, ids, tol: f(x),
                             [_partition(a, b, breakpoints)], spec))


def integrate_radial_singular(f, s, L, spec, breakpoints):
    """Integrate q^{-s} h_i(q) over the offset q in (0, L), each h_i bounded
    near 0, for -1 < s < 1.

    Uses the substitution q = w^{1/(1-s)}; its Jacobian w^{s/(1-s)}/(1-s)
    cancels the endpoint power identically, so the transformed integrand is
    bounded and the plain adaptive rule applies.  The offset q is the
    distance from the singular end (rho - 1 for a radius rho > 1, r itself
    for a radius r > 0), computed without cancellation.

    The integrand is called as f(q, ids, tol) on the exact offset q, so
    kernel-type integrands evaluate the singular weight accurately
    arbitrarily close to the singular end; ids[j] is the integral that q[j]
    belongs to, and tol[j] its budget over the Jacobian.  ``breakpoints``
    holds one sequence of offsets per integral (those outside (0, L) are
    ignored), so there are k = len(breakpoints) integrals.
    """
    if not L > 0.0:
        raise QuadratureError("L must be positive")
    if not -1.0 < s < 1.0:
        raise QuadratureError("singular exponent must lie in (-1, 1)")
    p = 1.0 / (1.0 - s)

    def transformed(w, ids, tol):
        jac = p * w ** (p - 1.0)
        return f(w**p, ids, tol / jac) * jac

    # Start marginally above zero so q never underflows to an exact 0 (the
    # omitted mass is O(w_lo) times a bounded transformed integrand).
    w_lo = 1e-290 ** (1.0 - s)

    def w_partition(bps):
        return sorted({w_lo, L ** (1.0 - s)}
                      | {q ** (1.0 - s) for q in bps if 0.0 < q < L})

    return _integrate(transformed, [w_partition(b) for b in breakpoints], spec)


def integrate_radial_unbounded(f, R, decay_exponent, spec, abs_tol,
                               breakpoints=None):
    """Integrate f_i over (R, infinity) given |f_i(rho)| <= M rho^{-1-decay}.

    Maps (R, inf) onto (0, 1] via rho = R/v.  The mapped integrand behaves
    like v^{decay-1} at v = 0, so for decay < 1 a further power substitution
    v = z^{1/decay} flattens the endpoint.  No truncation is performed, hence
    no analytic remainder term enters the estimate.

    The integrand is called as f(rho, ids, tol), ids[j] the integral that
    rho[j] belongs to and tol[j] its budget over the Jacobians of the maps.
    Integral i gets the absolute tolerance ``abs_tol[i]``, so there are
    k = len(abs_tol) integrals.  ``breakpoints``, if given, holds one
    sequence of radii per integral where f_i may kink; each radius
    rho_b > R becomes the breakpoint R/rho_b of v (its z = v^decay when
    decay < 1), added to the partition 0, 0.5, 1 that every integral starts
    from, so an integral without breakpoints gets the partition it gets
    alone.
    """
    if decay_exponent <= 0:
        raise QuadratureError("decay_exponent must be positive")
    if R <= 0:
        raise QuadratureError("R must be positive")
    abs_tol = np.asarray(abs_tol, dtype=float)
    if breakpoints is None:
        breakpoints = [()] * abs_tol.size
    if len(breakpoints) != abs_tol.size:
        raise QuadratureError("need one sequence of breakpoints per integral")

    def mapped(v, ids, tol):
        jac = R / v**2
        return f(R / v, ids, tol / jac) * jac

    if decay_exponent >= 1.0:
        integrand = mapped
    else:
        q = 1.0 / decay_exponent

        def integrand(z, ids, tol):
            jac = q * z ** (q - 1.0)
            return mapped(z**q, ids, tol / jac) * jac

    def partition(bps):
        v = [R / rho for rho in bps if rho > R]
        if decay_exponent < 1.0:
            v = [w**decay_exponent for w in v]
        return sorted({0.0, 0.5, 1.0, *v})

    return _integrate(integrand, [partition(b) for b in breakpoints], spec,
                      abs_tol)


def _frame(x_eval, d):
    """Orthonormal frame (u, v1, ...), the rows of a (d, d) array, with u
    pointing along x_eval.

    Falls back to the coordinate axes when x_eval = 0, so evaluation grids
    stay mirror-symmetric in the second coordinate for on-axis points.
    x_eval is scaled to unit max-norm before normalizing: the squares in
    ``np.linalg.norm`` underflow for |x_eval| below about 1e-154.  The other
    vectors orthogonalize, in index order, every coordinate axis but the one
    most aligned with u; each residual then has norm at least 1/sqrt(3).
    """
    x = np.asarray(x_eval, dtype=float)
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return np.eye(d)
    x = x / scale
    u = x / np.linalg.norm(x)
    basis = [u]
    for e in np.delete(np.eye(d), np.argmax(np.abs(u)), axis=0):
        w = e - sum(np.dot(e, b) * b for b in basis)
        basis.append(w / np.linalg.norm(w))
    return np.array(basis)


def _graded_scales(scale, upper, factor):
    out = []
    v = scale
    while v < upper:
        out.append(v)
        v *= factor
    return out


# Powers 4^k of the polar grading: from the smallest scale 1e-14 they pass pi.
_POLAR_GRADES = 4.0 ** np.arange(26)


def _inner_rule(spec):
    """The rule of an integral nested in one under ``spec``: ``INNER_SHARE``
    of its rel_tol (not below 1e-13) and an eighth of its panel cap (at
    least 512).  Its abs_tol is the ``tol`` its outer rule hands it."""
    return QuadratureSpec(
        rel_tol=max(spec.rel_tol * INNER_SHARE, 1e-13),
        max_subdivisions=max(512, spec.max_subdivisions // 8),
    )


def _sphere_area(d):
    """|S^{d-1}| of R^d: 2, 2 pi, then 2 pi / (d - 2) |S^{d-3}|."""
    if d <= 2:
        return 2.0 * np.pi ** (d - 1)
    return 2.0 * np.pi / (d - 2) * _sphere_area(d - 2)


def _end_map(u, first, last):
    """The polar angle phi and d phi/du at u in (0, pi): phi = u^2/first on
    the end panel (0, first), its mirror image pi - (pi - u)^2/(pi - last)
    on (last, pi), and phi = u in between, per point.  A power phi^a at an
    end becomes v^{2a+1} in the panel's own variable v = u/first (or its
    mirror), and the panel ends stay where they are.  With first = last
    the map covers (0, pi), continuously differentiable at first."""
    phi, jac = u.copy(), np.ones(u.shape)
    lo, hi = u <= first, u > last
    v, c = u[lo], first[lo]
    phi[lo], jac[lo] = v * v / c, 2.0 * v / c
    w, c = np.pi - u[hi], np.pi - last[hi]
    phi[hi], jac[hi] = np.pi - w * w / c, 2.0 * w / c
    return phi, jac


def _end_panels(partitions, n):
    """(first, last) per radius: the first and last interior points of its
    row of ``partitions`` (None: (0, pi) for each of the n radii), both pi/2
    for a row without one."""
    parts = (np.tile([0.0, np.pi], (n, 1)) if partitions is None
             else np.asarray(partitions, dtype=float))
    inner = (parts > 0.0) & (parts < np.pi)
    first = np.min(parts, axis=1, where=inner, initial=np.pi)
    last = np.max(parts, axis=1, where=inner, initial=0.0)
    whole = ~inner.any(axis=1)
    first[whole] = last[whole] = 0.5 * np.pi
    return first, last


def sphere_integrals(g, frame, radii, partitions, rule, *, axisymmetric=False,
                     abs_tol=None, end_exponent=None):
    """Integrals over the unit sphere S^{d-1} of theta -> g(radii[i] theta).

    ``frame`` is an orthonormal basis of R^d, the rows of a (d, d) array, for
    all radii, or one such basis per radius, an (n, d, d) array for n radii.
    The sphere is one recursion over the frame: S^{d-1} is the polar angle
    phi from frame[0], weighted by sin^{d-2} phi, times S^{d-2} in
    frame[1:], down to S^0, the mirror pair in frame[-1].  ``g(y, ids)``
    gets the stacked pairs [y; y'] and ``ids[j]`` the radius index of row j,
    and returns values or a report of per-point arrays, whose two halves are
    summed.  The top polar level runs over the rows ``partitions[i]`` of
    (0, pi) of a 2-D array (None: (0, pi) for every radius) under ``rule``,
    with the absolute tolerance ``abs_tol``, one for all radii or one per
    radius (None: ``rule.abs_tol``).  Each nested level runs over (0, pi) as
    one batch under ``_inner_rule`` of its parent's rule, a nested S^{m-1}
    at polar angle phi of its parent S^m taking as its abs_tol the ``tol``
    its parent's rule hands that point over the weight sin^{m-1} phi.

    Two keyword-only declarations hold for every radius of the call.
    ``axisymmetric`` True declares g symmetric about the line of frame[0]:
    the integrals then stop after the top level, each nested sphere
    contributing its area times g at one point.  ``end_exponent`` a in
    (0, 1) declares g = |y'|^a h near that line, y' the part of y normal to
    it and h smooth, so that the top level's integrand carries phi^a and
    (pi - phi)^a at its ends; each radius's end panels (0, phi_1) and
    (phi_N, pi), phi_1 and phi_N the first and last interior points of its
    partition (pi/2 both, if it has none), then take the quadratic map of
    ``_end_map``.  A caller with radii under different declarations makes
    one call per declaration.

    Returns one report per radius (in d = 1 the pair sum, with no rule):
    value, error_estimate and function_evals (the rows handed to g, or the
    evaluations g reports for them) are arrays over the radii, and converged
    is True when g reported no unconverged point and every integral at
    every level met its tolerance.
    """
    frame = np.asarray(frame, dtype=float)
    d = frame.shape[-1]
    ends = None
    if end_exponent is not None:
        if not 0.0 < float(end_exponent) < 1.0:
            raise QuadratureError("end exponents must lie in (0, 1)")
        ends = _end_panels(partitions, radii.size)
    rules = [rule]
    while len(rules) < d - 1:
        rules.append(_inner_rule(rules[-1]))

    def axis(k, ids):
        # frame[k] of the radii ids: one vector, or one row per radius
        return frame[k] if frame.ndim == 2 else frame[ids, k]

    def folded(base, off, ids):
        # g(base + off) + g(base - off) with one call of g; base None is 0
        y = np.concatenate([off, -off] if base is None else [base + off, base - off])
        res = g(y, np.concatenate([ids, ids]))
        n = ids.size
        # Plain values, those of the innermost and most called integrand,
        # are summed alone: two evaluations and no error per pair.
        if isinstance(res, EvaluationReport):
            pairs = (res.value, res.error_estimate, res.function_evals)
            return EvaluationReport(*(a[:n] + a[n:] for a in pairs), res.converged)
        return EvaluationReport(res[:n] + res[n:], np.zeros(n), np.full(n, 2), True)

    def sphere(k, base, scale, ids, abs_tol, level):
        # Row j: the sphere of radius scale[j] about base[j] in frame[k:],
        # to the absolute tolerance abs_tol[j].  ``level`` is this function,
        # passed rather than closed over: a closure over its own name is a
        # cycle that keeps each call's arrays until gc.
        if k == d - 1:
            return folded(base, scale[:, None] * axis(k, ids), ids)
        m = d - 1 - k  # the sphere is S^m

        def ring(phi, j, tol):
            # The nested spheres S^{m-1} at polar angles phi, times sin^{m-1}.
            radius, sin = scale[j], np.sin(phi)
            axial = (radius * np.cos(phi))[:, None] * axis(k, ids[j])
            b = axial if base is None else base[j] + axial
            t = radius * sin
            if axisymmetric:
                # Only the top level runs: a declared sphere never recurses.
                w = _sphere_area(m) * sin ** (m - 1)
                return g(b + t[:, None] * axis(k + 1, ids[j]), ids[j]) * w
            if m == 1:
                return level(k + 1, b, t, ids[j], None, level)
            w = sin ** (m - 1)
            return level(k + 1, b, t, ids[j], tol / w, level) * w

        def mapped(u, j, tol):
            phi, jac = _end_map(u, ends[0][j], ends[1][j])
            return ring(phi, j, tol / jac) * jac

        parts = (partitions if k == 0 and partitions is not None
                 else np.tile([0.0, np.pi], (scale.size, 1)))
        return EvaluationReport(*_adaptive(
            mapped if k == 0 and ends is not None else ring, parts,
            rules[k].rel_tol, abs_tol, rules[k].max_subdivisions
        ))

    tol = np.full(radii.shape, rule.abs_tol if abs_tol is None else abs_tol)
    return sphere(0, None, radii, np.arange(radii.size), tol, sphere)


def integrate_exterior_ball(
    F,
    x_eval,
    s,
    spec,
    radial_breakpoints,
    support_radius=None,
    decay_exponent=None,
    angular_breakpoints=None,
    *,
    axisymmetric=False,
    end_exponent=None,
):
    """Integrate k integrands F_i over the exterior of the unit ball in R^d.

    ``radial_breakpoints`` holds one sequence of radii where F_i may kink
    per integral, so there are k = len(radial_breakpoints) integrals.
    ``x_eval`` broadcasts against them: one evaluation point of shape (d,)
    for all, or one per integral, shape (k, d); d >= 1.  F is called as
    F(points, norm2m1, ids) on an (n, d) array of points, the per-point
    array of |y|^2 - 1, computed without cancellation, and the per-point
    index in 0..k-1 of the integral, and returns n values; it is assumed to
    carry the boundary weight (|y|^2-1)^{-s} near the unit sphere.  Each
    integral is computed about its own point x_i: the radial direction is
    ``integrate_radial_singular`` over the offset rho - 1, broken at the
    kink radii r as r - 1 and at the graded offsets (1-|x_i|) 16^k, keyed
    to the Poisson-kernel concentration scale, as they are.  The angular
    direction is one ``sphere_integrals`` call, in every d, in each radial
    node's frame along its x_i: the pair {rho, -rho} in d = 1, else the
    polar angle from x_i, graded toward the Poisson-kernel peak, with the
    sphere folded by a mirror so that mirror-symmetric integrands are
    resolved on exactly mirrored nodes.  ``angular_breakpoints(rho, ids)``
    maps an array of radii and their integrals to an (n, m) array of polar
    angles in that folded range where F may kink on each sphere; entries
    outside (0, pi), NaN included, are ignored.

    Two keyword-only declarations hold for every integral of the call.
    ``axisymmetric`` True declares each F_i symmetric about the line through
    0 and x_i (about the e1 axis, the frame's first vector, when x_i = 0),
    and the sphere rule stops after the polar level in every d >= 2 (in
    d = 2 one point of each mirror pair).  ``end_exponent`` a in (0, 1)
    declares each F_i = |y'|^a (smooth) near the line of the polar ends, y'
    the part of y normal to x_i (to e1 at x_i = 0), and the polar level maps
    its two end panels, from 0 to the first cut and from the last cut to pi,
    by phi = phi_1 v^2 and its mirror image (see ``sphere_integrals``); the
    cuts stay where they are.  The caller decides, and makes one call per
    declaration; the rule checks neither the symmetry nor the power, only
    that a lies in (0, 1).

    Either ``support_radius`` (F vanishes beyond it) or ``decay_exponent``
    (|rho^{d-1} x angular-average| <= M rho^{-1-decay}) must describe the far
    field; each integral's far field gets its own tolerance, and its radial
    breakpoints beyond the near part's end (radius 2) break the far rule
    too.  The sphere rule at each radial node takes as its abs_tol the
    ``tol`` the radial rule hands that node over rho^{d-1}, the area element
    that multiplies its value (see the module docstring).  Each radial and
    angular rule is one adaptive pool over the k integrals, and each
    integral returns exactly what it returns alone; the angular integrals of
    all radial nodes in one radial panel sweep run as one batch.  The
    report's value and error_estimate are length-k arrays, function_evals
    counts the rows passed to F for all k integrals, and converged is False
    if any integral, angular ones included, ends unconverged.
    """
    k = len(radial_breakpoints)
    x = np.atleast_1d(np.asarray(x_eval, dtype=float))
    d = x.shape[-1]
    if d < 1:
        raise QuadratureError("x_eval needs at least one coordinate")
    if x.ndim > 2 or (x.ndim == 2 and len(x) != k):
        raise QuadratureError(
            "x_eval must be one point (d,) or one per integral (k, d)")
    points = x.reshape(-1, d)
    # The norm of each point alone: over the rows of ``points`` it may round
    # differently, and one point must give what it gives in a batch.
    delta = np.array([1.0 - float(np.linalg.norm(p)) for p in points])
    if not (delta > 0.0).all():
        raise QuadratureError("x_eval must lie in the open unit ball")
    if support_radius is None and decay_exponent is None:
        raise QuadratureError(
            "declare either support_radius or decay_exponent for the far field"
        )
    frames = np.array([_frame(p, d) for p in points])
    delta = np.broadcast_to(delta, (k,))
    inner = _inner_rule(spec)

    def polar_partitions(q, ids):
        # Per radial node, one row: the folded range (0, pi), graded toward
        # the Poisson-kernel peak, plus any caller-supplied angular
        # breakpoints.  Points outside (0, pi) become pi, i.e. empty panels.
        cuts = np.maximum(np.maximum(delta[ids], q), 1e-14)[:, None] * _POLAR_GRADES
        if angular_breakpoints is not None:
            cuts = np.concatenate([cuts, angular_breakpoints(1.0 + q, ids)], axis=1)
        cuts = np.where((cuts > 0.0) & (cuts < np.pi), cuts, np.pi)
        cuts.sort(axis=1)
        ends = np.ones((q.size, 1))
        return np.concatenate([0.0 * ends, cuts, np.pi * ends], axis=1)

    def radial_q(q, ids, tol):
        # q holds the exact boundary offset |y| - 1 of each radial node;
        # kernel integrands use it to form |y|^2 - 1 = q(2+q) without
        # cancellation.
        rho, norm2m1 = 1.0 + q, q * (2.0 + q)
        area = rho ** (d - 1)
        return sphere_integrals(
            lambda y, j: F(y, norm2m1[j], ids[j]),
            frames[0] if len(frames) == 1 else frames[ids], rho,
            polar_partitions(q, ids) if d > 1 else None, inner,
            axisymmetric=axisymmetric, abs_tol=tol / area,
            end_exponent=end_exponent,
        ) * area

    # Radial decomposition: a singular-substituted near part graded toward
    # the boundary, then (if needed) an unbounded far part.
    r_near_end = 2.0 if support_radius is None else max(2.0, support_radius)
    graded = {di: _graded_scales(di, r_near_end - 1.0, RADIAL_GRADING)
              for di in set(delta.tolist())}
    bps = [[*graded[di], *(r - 1.0 for r in b)]
           for di, b in zip(delta.tolist(), radial_breakpoints)]

    total = integrate_radial_singular(radial_q, s, r_near_end - 1.0, spec, bps)
    if support_radius is None:
        # The far field's error budget is relative to the whole integral, not
        # to its own (possibly tiny) value.
        far_tol = np.maximum(spec.abs_tol, 0.25 * spec.tolerance(total.value))

        far = integrate_radial_unbounded(
            lambda rho, ids, tol: radial_q(rho - 1.0, ids, tol), r_near_end,
            decay_exponent, spec, far_tol, radial_breakpoints)
        total = total + far
    return total
