"""Command-line harness for the fractional Dirichlet laboratory.

Subcommands mirror the experiment sweeps plus direct evaluation helpers.
Every asserting subcommand exits 0 exactly when its criteria pass and 1
when they fail; an invalid input exits 2 with a one-line message.  Outputs
are deterministic for a fixed config.
"""

import argparse
import math
import sys

import numpy as np

from .ball_poisson import BallProblem, DomainError, PoissonKernel, solve
from .experiments import (
    ConfigError,
    build_datum,
    emit_outputs,
    load_config,
    parse_modulus,
    parse_number,
    run_blowup_experiment,
    run_cancellation_experiment,
    run_lower_bound_sweep,
    run_upper_bound_sweep,
)
from .exterior_data import DimensionError
from .geometry import (
    GeometryError,
    Paraboloid,
    ball_domain,
    check_dini_class,
    check_exterior_dini,
    cusp_domain,
    halfspace_domain,
)
from .moduli import InvalidModulusError, ModulusFunction, dini_integral, sigma
from .quadrature import QuadratureError, QuadratureSpec
from .stable_operator import (
    MeasureError,
    OperatorSpec,
    SpectralMeasure,
    apply_operator,
)


def _config_from(args, experiment):
    overrides = {
        "experiment": experiment,
        "d": getattr(args, "d", None),
        "s": getattr(args, "s", None),
        "datum": getattr(args, "datum", None),
        "modulus": getattr(args, "modulus", None),
        "out_dir": args.out_dir,
    }
    if args.tol is not None:
        overrides["rel_tol"] = args.tol
    return load_config(args.config, overrides)


def _emit(tables, config, quiet=False):
    paths = emit_outputs(tables, config)
    if not quiet:
        for p in paths:
            print(f"wrote {p}")


def cmd_solve(args):
    config = _config_from(args, "solve")
    datum = build_datum(config)
    problem = BallProblem(PoissonKernel(config.d, config.s), datum)
    x = np.array([parse_number(v) for v in args.x.split(",")])
    rep = solve(problem, x, config.quadrature)
    print(
        f"u({args.x}) = {rep.value:.12g}  +/- {rep.error_estimate:.3g}  "
        f"(evals={rep.function_evals}, converged={rep.converged})"
    )
    return 0 if rep.converged else 1


def cmd_sweep_upper(args):
    config = _config_from(args, "sweep-upper")
    rows = run_upper_bound_sweep(config)
    _emit([rows], config)
    ratios = [r.ratio for r in rows if math.isfinite(r.ratio)]
    ok = all("non-converged" not in r.flags for r in rows)
    print(f"upper sweep: ratio in [{min(ratios):.4g}, {max(ratios):.4g}], "
          f"{'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_sweep_lower(args):
    config = _config_from(args, "sweep-lower")
    rows = run_lower_bound_sweep(config)
    _emit([rows], config)
    if config.d == 1:
        ok = all(r.flags == "holds" for r in rows if r.flags != "predictor-zero")
        print(f"lower sweep (explicit bound): {'holds' if ok else 'FAIL'}")
    else:
        rats = [r.ratio for r in rows if r.flags != "predictor-zero"]
        ok = min(rats) > 0 and max(rats) / min(rats) < 10.0
        print(
            f"lower sweep: ratio floor {min(rats):.4g}, "
            f"spread {max(rats)/min(rats):.3g} ({'ok' if ok else 'FAIL'})"
        )
    return 0 if ok else 1


def cmd_blowup(args):
    config = _config_from(args, "blowup")
    rows = run_blowup_experiment(config)
    _emit([rows], config)
    inner = [r for r in rows if 0.0 < 1.0 - r.t < 1.0]
    qs = [r.value for r in inner]
    if rows and rows[0].flags == "divergent":
        ok = all(b > a for a, b in zip(qs, qs[1:]))
        print(f"blow-up quotient strictly increasing: {ok}")
    else:
        ok = max(qs) <= 3.0 * min(qs)
        print(f"bounded quotient (Dini case): in [{min(qs):.3g}, {max(qs):.3g}]")
    return 0 if ok else 1


def cmd_cancellation(args):
    config = _config_from(args, "cancellation")
    rows = run_cancellation_experiment(config)
    _emit([rows], config)
    worst = max(r.value for r in rows)
    ok = worst <= 1e-8
    print(f"max |u(t e1)| = {worst:.3g} ({'ok' if ok else 'FAIL'})")
    return 0 if ok else 1


def cmd_check_dini(args):
    omega = parse_modulus(args.modulus)
    rep = check_dini_class(omega, s=args.s, variant=args.variant)
    verdict = "satisfied" if rep.satisfied else "not satisfied"
    value = f", integral = {rep.report.value:.6g}" if rep.satisfied else ""
    print(f"Dini condition ({args.variant}): {verdict}{value}")
    return 0


def cmd_check_geometry(args):
    omega = parse_modulus(args.modulus)
    P = Paraboloid(omega, depth=args.depth)
    if args.domain == "ball":
        dom = ball_domain(args.d, boundary_count=args.boundary_points,
                          seed=args.seed)
        expect_pass = True
    elif args.domain == "halfspace":
        dom = halfspace_domain(args.d)
        expect_pass = True
    else:
        dom = cusp_domain(args.d, beta=args.beta)
        expect_pass = False
    witnesses = []
    for z, _ in dom.boundary_points:
        rep = check_exterior_dini(dom, z, P, samples=args.samples,
                                  seed=args.seed)
        if not rep.holds_on_samples:
            witnesses.append(rep.witness)
    if expect_pass:
        ok = not witnesses
        print(f"{dom.name}: {'passes' if ok else 'violated'} at "
              f"{len(dom.boundary_points)} boundary point(s)")
    else:
        ok = bool(witnesses)
        w = witnesses[0] if witnesses else None
        print(f"{dom.name}: violation witness = {w}")
    return 0 if ok else 1


def cmd_apply_operator(args):
    s = args.s
    if args.measure.startswith("uniform:"):
        mass = parse_number(args.measure.split(":", 1)[1], MeasureError)
        measure = SpectralMeasure.uniform(args.d, mass)
    elif args.measure.startswith("atomic:"):
        parts = args.measure.split(":", 1)[1].split(";")
        atoms = []
        for part in parts:
            *coords, w = (parse_number(v, MeasureError) for v in part.split(","))
            atoms.append((np.array(coords), w))
        measure = SpectralMeasure.atomic(args.d, atoms)
    else:
        raise MeasureError(f"unknown measure {args.measure!r}")
    op = OperatorSpec(measure, s=s)

    def u(points):
        r2 = np.einsum("ij,ij->i", points, points)
        return np.maximum(1.0 - r2, 0.0) ** s

    x = np.array([parse_number(v) for v in args.x.split(",")])
    rep = apply_operator(op, u, x, QuadratureSpec(), support_radius=1.0)
    print(f"A u({args.x}) = {rep.value:.12g} +/- {rep.error_estimate:.3g}  "
          f"(evals={rep.function_evals}, converged={rep.converged})")
    return 0 if rep.converged else 1


def cmd_selftest(args):
    failures = []

    def check(name, ok):
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    spec = QuadratureSpec()
    from .exterior_data import constant_datum

    for d in (1, 2):
        pb = BallProblem(PoissonKernel(d, 0.5), constant_datum(1.0, d))
        x = np.zeros(d)
        x[0] = 0.9
        rep = solve(pb, x, spec)
        check(f"kernel normalization d={d}", abs(rep.value - 1.0) <= 1e-6)

    rep = dini_integral(ModulusFunction.log_inverse(2.0))
    check("Dini oracle log^-2 = 1", rep.convergent and abs(rep.value - 1.0) <= 1e-3)
    rep = dini_integral(ModulusFunction.log_inverse(1.0))
    check("Dini oracle log^-1 divergent", not rep.convergent)

    sg = sigma(ModulusFunction.power(0.5), 0.5, 0.1)
    exact = 0.1**0.5 * (1.0 + math.log(10.0))
    check("sigma closed form", abs(sg.value - exact) <= 1e-6 * exact)

    print("selftest:", "ok" if not failures else f"{len(failures)} failure(s)")
    return 0 if not failures else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Experiments on fractional Dirichlet boundary behavior "
                    "in the unit ball, with estimated errors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, datum=True):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--tol", type=float, default=None,
                       help="override relative quadrature tolerance")
        p.add_argument("--d", type=int, default=None)
        p.add_argument("--s", type=float, default=None)
        if datum:
            p.add_argument("--datum", default=None,
                           choices=["thm15", "prop42", "cex14", "ex43"])
            p.add_argument("--modulus", default=None)

    p = sub.add_parser("solve", help="evaluate u at one interior point")
    common(p)
    p.add_argument("--x", required=True, help="comma-separated coordinates")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("sweep-upper", help="modulus upper-bound sweep")
    common(p)
    p.set_defaults(fn=cmd_sweep_upper)

    p = sub.add_parser("sweep-lower", help="boundary lower-bound sweep")
    common(p)
    p.set_defaults(fn=cmd_sweep_lower)

    p = sub.add_parser("blowup", help="C^s difference-quotient sweep")
    common(p)
    p.set_defaults(fn=cmd_blowup)

    p = sub.add_parser("cancellation", help="odd-datum cancellation sweep")
    common(p)
    p.set_defaults(fn=cmd_cancellation)

    p = sub.add_parser("check-dini", help="Dini-class membership of a modulus")
    p.add_argument("--modulus", required=True)
    p.add_argument("--variant", default="plain", choices=["plain", "two_s"])
    p.add_argument("--s", type=float, default=None)
    p.set_defaults(fn=cmd_check_dini)

    p = sub.add_parser("check-geometry", help="exterior-paraboloid check")
    p.add_argument("--domain", default="ball",
                   choices=["ball", "halfspace", "cusp"])
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--modulus", default="power:1")
    p.add_argument("--depth", type=float, default=0.5)
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--boundary-points", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_check_geometry)

    p = sub.add_parser("apply-operator",
                       help="apply the stable operator to the reference bump")
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--s", type=float, default=0.5)
    p.add_argument("--measure", default="uniform:2")
    p.add_argument("--x", required=True)
    p.set_defaults(fn=cmd_apply_operator)

    p = sub.add_parser("selftest", help="fast subset of the acceptance checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, DimensionError, DomainError, GeometryError,
            InvalidModulusError, MeasureError, QuadratureError) as exc:
        # fraclab's own input errors; anything else is a fault and propagates
        print(f"fraclab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
