"""The benchmark's workloads: fixed task lists built from a seed, with oracles.

Each task calls fraclab's public API and is checked against an oracle that
does not come from the code under test (a closed form, ``scipy``, or a stored
reference).  A task fails if it raises, returns ``converged=False``, misses
its oracle by more than its own error estimate plus the stated tolerance
(the tolerance the task asked for, ``spec.tolerance(oracle)``, plus the
reference's own uncertainty), returns a ``BoundaryCheck`` with
``holds=False``, or returns a sweep row flagged ``violated`` or
``non-converged``.

Tasks tagged with a ``defect`` probe a defect of the program that is known
at the commit the benchmark was written for (listed in ``DEFECTS``).  They
are run and checked like every other task and count as failed while the
defect is present; only an untagged failure makes a run incorrect.

The seed moves evaluation points within fixed distributions.  Where a
continuous move would change the amount of quadrature work (the d = 3
general rule, the d = 2 operator), it moves points between mirror images that
the program handles with identical work, so the cost of a pass stays the same
across seeds.

Callables look fraclab functions up on their modules at call time, so a
tracer that patches those modules sees every call.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.integrate
import scipy.special

from fraclab import ball_poisson as bp
from fraclab import experiments as ex
from fraclab import exterior_data as ed
from fraclab import moduli as mo
from fraclab import stable_operator as so
from fraclab.quadrature import QuadratureSpec

#: d = 3 transverse (thm15) datum at x = (0, +-0.5, 0), s = 1/2, from the
#: general (non-axisymmetric) path at rel_tol 1e-6, and its uncertainty.
THM15_REFERENCE = (0.94268852503, 2e-8)

DEFECTS = {
    "d3-mirror": "d = 3 general rule mirrors the ambient x3 coordinate instead "
                 "of the frame vector v2; the constant datum at (0.3, 0.4, 0.5) "
                 "gives 1.2989 with converged=True",
    "axisym-offaxis": "data flagged axisymmetric about e1 take the axisymmetric "
                      "d = 3 rule at off-axis points; thm15 at (0, 0.5, 0) gives "
                      "0.7665 against 0.9427",
    "harmonicity-d1": "harmonicity_check in d = 1 returns converged=False",
    "operator-d2-diagonal": "apply_operator in d = 2 on the bump at "
                            "x = 0.5 (cos pi/4, sin pi/4) misses pi/2 by 6.2e-6, "
                            "9x its error estimate, with converged=True",
    "tail-nonsmooth": "tail() has no breakpoints, and the G7/K15 estimate "
                      "misses a jump in the datum: the half-line datum at "
                      "y = -0.2017 gives 0.0974135 (estimate 4e-9) against "
                      "0.0974227; 35 of 601 y in [-0.3, 0.3] miss",
}

WORKLOADS = ("boundary_sweep", "sphere_general", "oscillation_bound",
             "operator_moduli")


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple]
    defect: str | None = None


@dataclass
class Workload:
    name: str
    seed: int
    tasks: list
    warmup: Callable[[], object]


def _late(module, name, *args, **kwargs):
    """Call ``module.name`` as bound when the call happens."""
    return lambda: getattr(module, name)(*args, **kwargs)


def near(oracle, spec, uncertainty=0.0):
    """Check an EvaluationReport computed with ``spec`` against an oracle
    value known to within ``uncertainty``."""
    tol = spec.tolerance(oracle) + uncertainty

    def check(rep):
        miss = abs(rep.value - oracle)
        ok = bool(rep.converged and miss <= rep.error_estimate + tol)
        return ok, (
            f"value {rep.value:.12g}, oracle {oracle:.12g}, miss {miss:.2e}, "
            f"estimate {rep.error_estimate:.2e}, converged={rep.converged}"
        )

    return check


def sweep_rows_ok(rows):
    bad = [(r.t, r.flags) for r in rows
           if r.flags in ("violated", "non-converged")
           or not math.isfinite(r.value)]
    return not bad, f"{len(rows)} rows, flagged {bad}"


def bound_holds(chk):
    return bool(chk.holds), (
        f"lhs {chk.lhs:.6g} +- {chk.lhs_error:.2e}, "
        f"rhs {chk.rhs:.6g} +- {chk.rhs_error:.2e}, holds={chk.holds}"
    )


def no_violations(out):
    return out["violations"] == 0, (
        f"{out['violations']} violations in {out['checked']} checks"
    )


def _fmt(x):
    return "(" + ", ".join(f"{float(c):.4g}" for c in x) + ")"


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _problem(d, s, datum):
    return bp.BallProblem(bp.PoissonKernel(d, s), datum)


# ---------------------------------------------------------------------------
# boundary_sweep
# ---------------------------------------------------------------------------

def halfline_indicator():
    """g = 1 on y >= 1 and 0 on y <= -1: the harmonic measure of the
    half-line, u(x) = I_{(1+x)/2}(s, s)."""
    return ed.ExteriorDatum(
        eval=lambda pts: (pts[:, 0] > 0.0).astype(float),
        dimension=1,
        support_radius=None,
        growth_exponent=0.0,
        boundary_bound=1.0,
        axisymmetric=True,
        label="halfline-indicator",
    )


def boundary_sweep(rng):
    tasks = []
    for d, datum in ((1, "prop42"), (2, "thm15"), (3, "thm15")):
        for kind, fn in (("upper", "run_upper_bound_sweep"),
                         ("lower", "run_lower_bound_sweep")):
            cfg = ex.ExperimentConfig(
                experiment=f"sweep-{kind}", d=d, s=0.5, datum=datum,
                modulus="power:0.5", grid_k_max=4.0, grid_k_step=1.0,
            )
            tasks.append(Task(f"sweep-{kind} d={d} {datum}",
                              _late(ex, fn, cfg), sweep_rows_ok))

    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
    for d in (1, 2, 3):
        problem = _problem(d, 0.5, ed.constant_datum(1.0, d))
        for k in (1, 2, 3, 4):
            x = (1.0 - 10.0 ** (-k)) * _unit(rng, d)
            tasks.append(Task(f"kernel-mass d={d} 1-|x|=1e-{k}",
                              _late(bp, "solve", problem, x, spec),
                              near(1.0, spec)))

    for s in (0.25, 0.5, 0.75):
        problem = _problem(1, s, halfline_indicator())
        for x in rng.uniform(-0.9, 0.99, 2):
            oracle = float(scipy.special.betainc(s, s, 0.5 * (1.0 + x)))
            tasks.append(Task(f"harmonic-measure d=1 s={s} x={x:.4f}",
                              _late(bp, "solve", problem, [x], spec),
                              near(oracle, spec)))

    warm = _problem(2, 0.5, ed.constant_datum(1.0, 2))
    return tasks, _late(bp, "solve", warm, [0.5, 0.0], spec)


# ---------------------------------------------------------------------------
# sphere_general
# ---------------------------------------------------------------------------

def sphere_general(rng):
    s = 0.5
    tasks = []

    # The odd datum vanishes on the axis; x -> -x is a mirror image.
    odd = _problem(3, s, ed.sign_changing_datum(s, 3))
    x = [0.5 * float(rng.choice([-1.0, 1.0])), 0.0, 0.0]
    loose = QuadratureSpec(rel_tol=1e-4, abs_tol=1e-7)
    tasks.append(Task(f"odd-datum d=3 x={_fmt(x)}",
                      _late(bp, "solve", odd, x, loose), near(0.0, loose)))

    # Constant datum on the general path: kernel mass 1 at any point.  Sign
    # flips of x1 and x3 give the same work.
    general = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8)
    const = _problem(3, s, dataclasses.replace(ed.constant_datum(1.0, 3),
                                               axisymmetric=False))
    flips = rng.choice([-1.0, 1.0], 2)
    for x in ([0.3, 0.4, 0.5], [0.3 * flips[0], 0.4, 0.5 * flips[1]]):
        tasks.append(Task(f"const-general d=3 x={_fmt(x)}",
                          _late(bp, "solve", const, x, general),
                          near(1.0, general), defect="d3-mirror"))

    # thm15 at an off-axis point, where the general path is right: once on
    # the general path and once as constructed (flagged axisymmetric).
    transverse = ed.transverse_modulus_datum(mo.ModulusFunction.power(s), 3)
    x = [0.0, 0.5 * float(rng.choice([-1.0, 1.0])), 0.0]
    ref, ref_err = THM15_REFERENCE
    tasks.append(Task(
        f"thm15-general d=3 x={_fmt(x)}",
        _late(bp, "solve",
              _problem(3, s, dataclasses.replace(transverse, axisymmetric=False)),
              x, loose),
        near(ref, loose, ref_err)))
    tasks.append(Task(
        f"thm15-axisymmetric d=3 x={_fmt(x)}",
        _late(bp, "solve", _problem(3, s, transverse), x, general),
        near(ref, general, ref_err), defect="axisym-offaxis"))

    warm = _problem(3, s, ed.constant_datum(1.0, 3))
    return tasks, _late(bp, "solve", warm, [0.5, 0.0, 0.0], general)


# ---------------------------------------------------------------------------
# oscillation_bound
# ---------------------------------------------------------------------------

def oscillation_bound(rng):
    s = 0.5
    omega = mo.ModulusFunction.power(s)
    tasks = []
    halfline = _problem(1, s, ed.halfline_modulus_datum(omega))
    # The seed moves 1 - t by up to 0.05 decades, which changes the work of
    # a check by about 1%.
    for k in (1, 2, 3):
        t = 1.0 - 10.0 ** -(k + rng.uniform(-0.05, 0.05))
        tasks.append(Task(
            f"check d=1 halfline t={t:.6f}",
            _late(bp, "interior_to_boundary_check", halfline, [t], [1.0],
                  tol=1e-3),
            bound_holds))
    transverse = _problem(2, s, ed.transverse_modulus_datum(omega, 2))
    t = 1.0 - 10.0 ** -(1 + rng.uniform(-0.05, 0.05))
    tasks.append(Task(
        f"check d=2 transverse t={t:.6f}",
        _late(bp, "interior_to_boundary_check", transverse, [t, 0.0],
              [1.0, 0.0], tol=2e-2),
        bound_holds))

    kernel = bp.PoissonKernel(1, s)
    return tasks, _late(bp, "solve_vt", kernel, [1.0], 0.5, [0.5])


# ---------------------------------------------------------------------------
# operator_moduli
# ---------------------------------------------------------------------------

def bump(s):
    """(1 - |x|^2)_+^s, on which the operator is constant inside the ball."""

    def u(pts):
        r2 = np.einsum("ij,ij->i", pts, pts)
        return np.maximum(1.0 - r2, 0.0) ** s

    return u


def bump_operator_value(s, mass):
    """A (1-|x|^2)_+^s for |x| < 1 and the uniform measure of total mass
    ``mass``, in any dimension: (1-s) mass pi / (2 sin(pi s))."""
    return (1.0 - s) * mass * math.pi / (2.0 * math.sin(math.pi * s))


def gaussian(pts):
    return np.exp(-np.einsum("ij,ij->i", pts, pts))


def gaussian_tail_value(s, mass, y):
    """tail of exp(-|x|^2) in d = 1: (1-s) (mass/2) int_{1/2}^inf
    (exp(-(y+t)^2) + exp(-(y-t)^2)) t^{-1-2s} dt."""
    val, err = scipy.integrate.quad(
        lambda t: (math.exp(-(y + t) ** 2) + math.exp(-(y - t) ** 2))
        * t ** (-1.0 - 2.0 * s), 0.5, math.inf, epsabs=1e-14, epsrel=1e-13)
    return (1.0 - s) * 0.5 * mass * val, (1.0 - s) * 0.5 * mass * err


def halfline_tail_value(s, mass, y):
    """tail of the d = 1 half-line datum (y - 1)^s on [1, 3] at |y| < 1/2:
    (1-s) (mass/2) int_{1-y}^{3-y} (t - (1-y))^s t^{-1-2s} dt, with the
    endpoint power handled by QUADPACK's algebraic weight."""
    val, err = scipy.integrate.quad(
        lambda t: t ** (-1.0 - 2.0 * s), 1.0 - y, 3.0 - y,
        weight="alg", wvar=(s, 0.0), epsabs=1e-14, epsrel=1e-13)
    return (1.0 - s) * 0.5 * mass * val, (1.0 - s) * 0.5 * mass * err


def random_table_modulus(rng):
    n = int(rng.integers(3, 9))
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 4.0, n - 1))])
    incs = np.concatenate([[0.0], rng.uniform(0.0, 0.5, n - 1)])
    return mo.ModulusFunction.table(np.column_stack([knots, np.cumsum(incs)]))


def _kappa_family(rng):
    """kappa(t) is nonincreasing: all ordered pairs of 72 seeded t, for four
    moduli."""
    M = mo.ModulusFunction
    cases = [(om, np.sort(10.0 ** rng.uniform(-4.0, 0.5, 72)))
             for om in (M.power(0.5), random_table_modulus(rng),
                        random_table_modulus(rng), M.power_log(0.5, 2.0))]

    def run():
        checked = violations = 0
        for om, ts in cases:
            ks = [mo.kappa(om, 0.5, float(t)) for t in ts]
            for i in range(len(ks)):
                for j in range(i + 1, len(ks)):
                    violations += ks[i] < ks[j] - 1e-9 * max(1.0, ks[i])
                    checked += 1
        return {"checked": checked, "violations": int(violations)}

    return run


def _sigma_scaling_family(rng):
    """sigma(a t) <= a sigma(t) for a >= 1, 300 seeded pairs per case."""
    M = mo.ModulusFunction
    pairs = 300
    cases = []
    for om in (M.power(0.6), M.power_log(0.5, 1.0), random_table_modulus(rng),
               random_table_modulus(rng)):
        for s in (0.25, 0.5, 0.75):
            cases.append((om, s, 1.0 + rng.random(pairs) * 5.0,
                          10.0 ** rng.uniform(-4.0, 0.3, pairs)))

    def run():
        checked = violations = 0
        for om, s, a, t in cases:
            for ai, ti in zip(a, t):
                lhs = mo.sigma(om, s, ai * ti).value
                rhs = ai * mo.sigma(om, s, ti).value
                violations += lhs > rhs * (1.0 + 1e-9) + 1e-12
                checked += 1
        return {"checked": checked, "violations": int(violations)}

    return run


def _sigma_domination_family(rng):
    """omega(t) <= max(2 omega(2), 2) sigma(t) for 100 random table moduli
    at 50 seeded t each."""
    cases = [(random_table_modulus(rng), float(rng.choice([0.25, 0.5, 0.75])),
              rng.uniform(1e-4, 2.0, 50)) for _ in range(100)]

    def run():
        checked = violations = 0
        for om, s, ts in cases:
            c = max(2.0 * om(2.0), 2.0)
            for t in ts:
                violations += om(t) > c * mo.sigma(om, s, t).value * (
                    1.0 + 1e-9) + 1e-12
                checked += 1
        return {"checked": checked, "violations": int(violations)}

    return run


def _sigma_closed_form_family(rng):
    """sigma of omega(t) = t^s (no closed form in fraclab, so quadrature)
    equals t^s (1 + log(1/t)) at 20 seeded t."""
    s = 0.5
    om = mo.ModulusFunction.custom(lambda t: np.asarray(t, dtype=float) ** s)
    ts = 10.0 ** rng.uniform(-4.0, -0.1, 20)
    tol = 1e-9

    def run():
        violations = 0
        for t in ts:
            rep = mo.sigma(om, s, t, tol)
            exact = t**s * (1.0 + math.log(1.0 / t))
            violations += abs(rep.value - exact) > rep.error_estimate + tol
        return {"checked": len(ts), "violations": int(violations)}

    return run


def _dini_family(rng):
    """Dini integral oracles: log^-2 -> 1, zero -> 0, log^-1 divergent, and
    a seeded power t^a without closed form in fraclab -> 1/a."""
    M = mo.ModulusFunction
    a = float(rng.uniform(0.3, 0.9))
    cases = [(M.log_inverse(2.0), 1.0), (M.zero(), 0.0),
             (M.log_inverse(1.0), None),
             (M.custom(lambda t: np.asarray(t, dtype=float) ** a), 1.0 / a)]

    def run():
        violations = 0
        for om, oracle in cases:
            rep = mo.dini_integral(om)
            if oracle is None:
                violations += rep.convergent
            else:
                violations += not (rep.convergent
                                   and abs(rep.value - oracle) <= rep.error)
        return {"checked": len(cases), "violations": int(violations)}

    return run


def operator_moduli(rng):
    s = 0.5
    u = bump(s)
    coarse = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    tasks = []

    op1 = so.OperatorSpec(so.SpectralMeasure.uniform(1, 2.0), s=s)
    value = bump_operator_value(s, 2.0)
    for x in rng.uniform(-0.7, 0.7, 4):
        bps = (1.0 - abs(x), 1.0 + abs(x))
        tasks.append(Task(
            f"apply-bump d=1 x={x:.4f}",
            _late(so, "apply_operator", op1, u, [x], coarse,
                  support_radius=1.0, radial_breakpoints=bps),
            near(value, coarse)))

    # d = 2: points on the coordinate axes at |x| = 1/2 give the same work;
    # the diagonal point is the defect probe.
    op2 = so.OperatorSpec(so.SpectralMeasure.uniform(2, 2.0), s=s)
    axis_points = [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5], [0.0, -0.5]]
    chosen = [axis_points[i] for i in rng.choice(4, 2, replace=False)]
    diagonal = [0.5 * math.cos(math.pi / 4), 0.5 * math.sin(math.pi / 4)]
    for x in chosen + [diagonal]:
        tasks.append(Task(
            f"apply-bump d=2 x={_fmt(x)}",
            _late(so, "apply_operator", op2, u, x, coarse,
                  support_radius=1.0, radial_breakpoints=(0.5, 1.5)),
            near(value, coarse),
            defect="operator-d2-diagonal" if x is diagonal else None))

    default = QuadratureSpec()
    op_unit = so.OperatorSpec(so.SpectralMeasure.uniform(1, 1.0), s=s)
    for y in rng.uniform(-0.5, 0.5, 2):
        oracle, oracle_err = gaussian_tail_value(s, 1.0, y)
        tasks.append(Task(
            f"tail d=1 gaussian y={y:.4f}",
            _late(so, "tail", op_unit, gaussian, [y], default),
            near(oracle, default, oracle_err)))
    datum = ed.halfline_modulus_datum(mo.ModulusFunction.power(s))
    y = -0.2017
    oracle, oracle_err = halfline_tail_value(s, 1.0, y)
    tasks.append(Task(
        f"tail d=1 halfline y={y}",
        _late(so, "tail", op_unit, datum, [y], default, support_radius=3.0),
        near(oracle, default, oracle_err), defect="tail-nonsmooth"))

    mass = float(rng.uniform(0.5, 2.0))
    op_mass = so.OperatorSpec(so.SpectralMeasure.uniform(2, mass), s=s)
    # (1-s) mass int_{1/2}^1 (1-t^2)^{1/2} t^{-2} dt at s = 1/2
    tail_bump = (1.0 - s) * mass * (math.sqrt(3.0) - math.pi / 3.0)
    tasks.append(Task(
        f"tail d=2 bump y=0 mass={mass:.4f}",
        _late(so, "tail", op_mass, u, [0.0, 0.0], default, support_radius=1.0),
        near(tail_bump, default)))

    # The half-line datum's Poisson solution is harmonic: residual 0.  The
    # spec is harmonicity_check's default, passed to state the tolerance.
    harmonic = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9, max_subdivisions=4096)
    tasks.append(Task(
        "harmonicity d=1 halfline x=0",
        _late(bp, "harmonicity_check", _problem(1, s, datum), [0.0],
              spec=harmonic),
        near(0.0, harmonic), defect="harmonicity-d1"))

    for name, family in (("kappa-monotone", _kappa_family),
                         ("sigma-scaling", _sigma_scaling_family),
                         ("sigma-domination", _sigma_domination_family),
                         ("sigma-closed-form", _sigma_closed_form_family),
                         ("dini-oracles", _dini_family)):
        tasks.append(Task(f"moduli {name}", family(rng), no_violations))

    return tasks, _late(so, "apply_operator", op1, u, [0.0], coarse,
                        support_radius=1.0, radial_breakpoints=(1.0,))


def build(name, seed):
    """The workload ``name`` for ``seed``: its tasks and a warm-up call."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    tasks, warmup = globals()[name](rng)
    return Workload(name, seed, tasks, warmup)
