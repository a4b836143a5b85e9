"""Acceptance suite: one check per shipped guarantee, one printed line each.

Each test emits a single ``[PASS]``/``[FAIL]`` line; the lines are printed
immediately (visible with ``pytest -s``) and echoed in the terminal summary
(visible under default capture).
"""

import math
import time

import numpy as np

from fraclab.ball_poisson import (
    BallProblem,
    PoissonKernel,
    harmonicity_check,
    interior_to_boundary_check,
    solve,
)
from fraclab.experiments import (
    ExperimentConfig,
    run_blowup_experiment,
    run_cancellation_experiment,
    run_lower_bound_sweep,
)
from fraclab.exterior_data import (
    constant_datum,
    halfline_modulus_datum,
    transverse_modulus_datum,
)
from fraclab.geometry import (
    Paraboloid,
    ball_domain,
    check_exterior_dini,
    cusp_domain,
)
from fraclab.moduli import ModulusFunction, dini_integral, kappa, sigma
from fraclab.quadrature import QuadratureSpec
from fraclab.stable_operator import (
    OperatorSpec,
    SpectralMeasure,
    apply_operator,
    sphere_crossing_radii,
    tail,
)


import _verdicts


def report(number, name, ok, detail=""):
    line = f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    _verdicts.LINES.append(line)
    assert ok, line


def random_table_modulus(rng, n_max=8):
    n = int(rng.integers(3, n_max + 1))
    knots = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 4.0, n - 1))])
    incs = np.concatenate([[0.0], rng.uniform(0.0, 0.5, n - 1)])
    return ModulusFunction.table(np.column_stack([knots, np.cumsum(incs)]))


def test_criterion_01_kernel_normalization():
    t0 = time.monotonic()
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
    worst = 0.0
    for d in (1, 2, 3):
        for s in (0.25, 0.5, 0.75):
            problem = BallProblem(PoissonKernel(d, s), constant_datum(1.0, d))
            for k in (1, 2, 3, 4):
                x = np.zeros(d)
                x[0] = 1.0 - 10.0 ** (-k)
                rep = solve(problem, x, spec)
                worst = max(worst, abs(rep.value - 1.0))
    elapsed = time.monotonic() - t0
    report(
        1, "kernel mass equals 1 across 36 (d, s, x) cases",
        worst <= 1e-6 and elapsed < 120.0,
        f"max |mass-1| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_explicit_lower_bound_d1():
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
    ok = True
    worst_margin = math.inf
    for s in (0.3, 0.5, 0.7):
        problem = BallProblem(
            PoissonKernel(1, s), halfline_modulus_datum(ModulusFunction.power(s))
        )
        for t in (0.9, 0.99, 0.999):
            rep = solve(problem, [t], spec)
            lhs = rep.value - rep.error_estimate  # g(1) = 0
            rhs = (
                (math.pi / 8.0) * s * (1.0 - s)
                * (1.0 - t) ** s * math.log(1.0 / (1.0 - t))
            )
            ok = ok and lhs >= rhs
            worst_margin = min(worst_margin, lhs / rhs)
    report(
        2, "explicit boundary growth bound holds in d = 1",
        ok, f"min lhs/rhs = {worst_margin:.3f}",
    )


def test_criterion_03_ratio_floor_d2():
    cfg = ExperimentConfig(
        experiment="sweep-lower", d=2, s=0.5, datum="thm15",
        modulus="power:0.5", rel_tol=1e-7, abs_tol=1e-10,
    )
    rows = run_lower_bound_sweep(cfg)
    rats = [r.ratio for r in rows if r.flags != "predictor-zero"]
    ok = min(rats) > 0.0 and max(rats) / min(rats) < 10.0
    report(
        3, "d = 2 boundary ratio is positive with bounded spread",
        ok, f"spread = {max(rats) / min(rats):.3g}",
    )


def test_criterion_04_blowup_dichotomy():
    base = dict(d=1, s=0.5, datum="cex14", grid_k_max=4.0, grid_k_step=1.0,
                rel_tol=1e-8, abs_tol=1e-11, experiment="blowup")
    rows = run_blowup_experiment(
        ExperimentConfig(modulus="log_inverse:1", **base)
    )
    rows = [r for r in rows if r.t > 0.0]
    qs = [r.value for r in rows]
    preds = [r.predictor for r in rows]
    increasing = all(b > a for a, b in zip(qs, qs[1:]))
    tracks = all(
        q >= 0.5 * qs[0] * (p / preds[0]) for q, p in zip(qs, preds)
    )
    slope = np.polyfit(preds, qs, 1)[0]
    tagged = all(r.flags == "divergent" for r in rows)

    rows2 = run_blowup_experiment(
        ExperimentConfig(modulus="log_inverse:2", **base)
    )
    qs2 = [r.value for r in rows2 if r.t > 0.0]
    bounded = max(qs2) / min(qs2) <= 3.0
    ok = increasing and tracks and slope > 0.0 and tagged and bounded
    report(
        4, "difference quotient blows up iff the datum modulus is non-Dini",
        ok,
        f"growth slope = {slope:.3f}, bounded spread = {max(qs2) / min(qs2):.3f}",
    )


def test_criterion_05_odd_datum_cancellation():
    cfg = ExperimentConfig(
        experiment="cancellation", d=2, s=0.5, datum="ex43",
        rel_tol=1e-8, abs_tol=1e-11,
    )
    rows = run_cancellation_experiment(cfg)
    worst = max(r.value for r in rows)
    report(
        5, "odd-datum solution vanishes on the symmetry axis",
        worst <= 1e-8, f"max |u| = {worst:.2e}",
    )


def test_criterion_06_dini_oracle():
    r2 = dini_integral(ModulusFunction.log_inverse(2.0))
    rz = dini_integral(ModulusFunction.zero())
    r1 = dini_integral(ModulusFunction.log_inverse(1.0))
    ok = (
        r2.convergent and abs(r2.value - 1.0) <= 1e-3
        and rz.convergent and rz.value == 0.0
        and not r1.convergent
    )
    report(
        6, "Dini integral oracle (1.0 / 0 / divergent)",
        ok, f"log^-2 integral = {r2.value:.6f}",
    )


def test_criterion_07_sigma_closed_forms():
    s = 0.5
    om = ModulusFunction.custom(lambda t: np.asarray(t, dtype=float) ** s)
    worst = 0.0
    for t in (1e-1, 1e-3):
        exact = t**s * (1.0 + math.log(1.0 / t))
        got = sigma(om, s, t).value
        worst = max(worst, abs(got - exact) / exact)
    zero_exact = sigma(ModulusFunction.zero(), s, 0.3).value == 0.3**s
    report(
        7, "sigma transform matches its closed forms",
        worst <= 1e-6 and zero_exact, f"max rel err = {worst:.2e}",
    )


def test_criterion_08_modulus_inequality_suite():
    rng = np.random.default_rng(20260824)
    violations = 0

    # pairwise embedding: kappa is nonincreasing (>= 10^4 ordered pairs)
    checked_pairs = 0
    oms = [ModulusFunction.power(0.5), random_table_modulus(rng),
           random_table_modulus(rng), ModulusFunction.power_log(0.5, 2.0)]
    for om in oms:
        ts = np.sort(10.0 ** rng.uniform(-4.0, 0.5, 72))
        ks = [kappa(om, 0.5, float(t)) for t in ts]
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                if ks[i] < ks[j] - 1e-9 * max(1.0, ks[i]):
                    violations += 1
                checked_pairs += 1
    assert checked_pairs >= 10000

    # scaling: sigma(a t) <= a sigma(t) for a >= 1 (>= 10^4 pairs)
    checked_scale = 0
    for om in [ModulusFunction.power(0.6), ModulusFunction.power_log(0.5, 1.0),
               random_table_modulus(rng), random_table_modulus(rng)]:
        for s in (0.25, 0.5, 0.75):
            a = 1.0 + rng.random(900) * 5.0
            t = 10.0 ** rng.uniform(-4.0, 0.3, 900)
            for ai, ti in zip(a, t):
                if sigma(om, s, ai * ti).value > ai * sigma(om, s, ti).value * (
                    1.0 + 1e-9
                ) + 1e-12:
                    violations += 1
                checked_scale += 1
    assert checked_scale >= 10000

    # domination: omega(t) <= (2 omega(2) v 2) sigma(t), 200 moduli x 50 t
    for _ in range(200):
        om = random_table_modulus(rng)
        s = float(rng.choice([0.25, 0.5, 0.75]))
        C = max(2.0 * om(2.0), 2.0)
        for t in rng.uniform(1e-4, 2.0, 50):
            if om(t) > C * sigma(om, s, t).value * (1.0 + 1e-9) + 1e-12:
                violations += 1

    report(
        8, "sigma-transform inequality suite has zero violations",
        violations == 0, f"{checked_pairs + checked_scale + 10000} checks",
    )


def test_criterion_09_operator_cross_validation():
    s = 0.5
    problem = BallProblem(
        PoissonKernel(1, s), halfline_modulus_datum(ModulusFunction.power(s))
    )
    residual = harmonicity_check(problem, [0.0])
    op = OperatorSpec(SpectralMeasure.uniform(1, 1.0), s=s)
    scale = tail(
        op, problem.datum, [0.0], QuadratureSpec(), support_radius=3.0
    ).value
    part_a = abs(residual.value) <= 1e-3 * scale

    def bump(pts):
        r2 = np.einsum("ij,ij->i", pts, pts)
        return np.maximum(1.0 - r2, 0.0) ** s

    op2 = OperatorSpec(SpectralMeasure.uniform(1, 2.0), s=s)
    coarse = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    fine = QuadratureSpec(rel_tol=1e-7, abs_tol=1e-10)
    part_b = True
    rel_worst = 0.0
    for x in (0.0, 0.5):
        bps = sphere_crossing_radii(op2.measure, [x])
        a = apply_operator(op2, bump, [x], coarse, support_radius=1.0,
                           radial_breakpoints=bps)
        b = apply_operator(op2, bump, [x], fine, support_radius=1.0,
                           radial_breakpoints=bps)
        rel = abs(a.value - b.value) / abs(b.value)
        rel_worst = max(rel_worst, rel)
        part_b = part_b and rel <= 1e-3
    report(
        9, "operator annihilates the solution and matches its fine reference",
        part_a and part_b,
        f"residual = {abs(residual.value):.2e} vs tail {scale:.3f}, "
        f"bump rel dev = {rel_worst:.2e}",
    )


def test_criterion_10_oscillation_stieltjes_bound():
    s = 0.5
    cases = []
    p1 = BallProblem(
        PoissonKernel(1, s), halfline_modulus_datum(ModulusFunction.power(s))
    )
    for t in (0.9, 0.99):
        cases.append(("halfline", p1, [t], [1.0]))
    p2 = BallProblem(
        PoissonKernel(2, s),
        transverse_modulus_datum(ModulusFunction.power(s), 2),
    )
    for t in (0.9, 0.99):
        cases.append(("transverse", p2, [t, 0.0], [1.0, 0.0]))
    ok = True
    slacks = []
    for label, problem, x, z in cases:
        chk = interior_to_boundary_check(problem, x, z)
        ok = ok and chk.holds and chk.converged
        slacks.append(f"{label}@{x[0]:g}: {chk.slack:+.3f}")
    report(
        10, "interior oscillation bounded by the Stieltjes integral",
        ok, "; ".join(slacks),
    )


def test_criterion_11_geometry_checks():
    dom = ball_domain(2, boundary_count=32, seed=0)
    p = Paraboloid(ModulusFunction.power(1.0), depth=0.5)
    ball_ok = all(
        check_exterior_dini(dom, z, p, samples=10000, seed=5).holds_on_samples
        for z, _ in dom.boundary_points
    )
    cusp = cusp_domain(2, beta=0.5)
    rep = check_exterior_dini(cusp, np.zeros(2), p, samples=10000, seed=5)
    cusp_ok = (not rep.holds_on_samples) and rep.witness is not None
    report(
        11, "ball admits exterior paraboloids everywhere; cusp yields witness",
        ball_ok and cusp_ok,
        "witness found" if cusp_ok else "no witness",
    )
