"""Tests of the benchmark itself: tracer hygiene, tracing that changes no
result, oracles at known points, and seeded inputs.

    python3 -m pytest perfbench
"""

import dataclasses
import importlib
import math
import sys
from pathlib import Path

import pytest
import scipy.integrate
import scipy.special

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import MODULES, SPANS, Tracer  # noqa: E402

from fraclab import ball_poisson as bp  # noqa: E402
from fraclab import exterior_data as ed  # noqa: E402
from fraclab import moduli as mo  # noqa: E402
from fraclab.quadrature import QuadratureSpec  # noqa: E402


def _bindings():
    out = {}
    for name in MODULES:
        mod = importlib.import_module(name)
        for attr, value in vars(mod).items():
            if callable(value):
                out[(name, attr)] = value
    out[("ExteriorDatum", "__call__")] = ed.ExteriorDatum.__dict__["__call__"]
    return out


def test_tracer_patches_every_binding_and_restores_it():
    before = _bindings()
    tracer = Tracer()
    with tracer:
        during = _bindings()
        for binding in [
            ("fraclab.quadrature", "_adaptive"),
            ("fraclab.stable_operator", "_adaptive"),
            ("fraclab.quadrature", "integrate_1d"),
            ("fraclab.moduli", "integrate_1d"),
            ("fraclab.stable_operator", "integrate_1d"),
            ("fraclab.quadrature", "panel_reduce"),
            ("fraclab.experiments", "sigma"),
            ("fraclab.ball_poisson", "stieltjes_integral"),
            ("fraclab.ball_poisson", "integrate_exterior_ball"),
            ("ExteriorDatum", "__call__"),
        ]:
            assert during[binding] is not before[binding], binding
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def _small_tasks():
    """A few seconds of tasks that reach every traced layer."""
    keep = ("kernel-mass d=2 1-|x|=1e-1", "kernel-mass d=3",
            "harmonic-measure", "apply-bump d=1", "tail", "moduli")
    tasks = [t for name in ("boundary_sweep", "operator_moduli")
             for t in workloads.build(name, 7).tasks
             if t.name.startswith(keep) and t.defect is None]
    s = 0.5
    general = bp.BallProblem(
        bp.PoissonKernel(3, s),
        dataclasses.replace(ed.constant_datum(1.0, 3), axisymmetric=False))
    halfline = bp.BallProblem(
        bp.PoissonKernel(1, s),
        ed.halfline_modulus_datum(mo.ModulusFunction.power(s)))
    tasks.append(workloads.Task(
        "general d=3", workloads._late(
            bp, "solve", general, [0.0, 0.3, 0.0],
            QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6)),
        workloads.near(1.0, QuadratureSpec(rel_tol=1e-3, abs_tol=1e-6))))
    tasks.append(workloads.Task(
        "check d=1", workloads._late(
            bp, "interior_to_boundary_check", halfline, [0.9], [1.0],
            tol=2e-2),
        workloads.bound_holds))
    return tasks


def test_traced_pass_is_bit_identical_and_self_times_add_up():
    tasks = _small_tasks()
    _, plain, _ = run.run_pass(tasks)
    tracer = Tracer()
    with tracer:
        wall, traced, _ = run.run_pass(tasks, tracer)
    assert repr(traced) == repr(plain)
    assert all(ok for _, ok, _ in run.check_pass(tasks, plain))

    self_s, calls, spanned = tracer.self_times()
    assert self_s.min() > -1e-9
    assert math.isclose(self_s.sum(), spanned, rel_tol=1e-9)
    assert spanned <= wall
    for span in ("quadrature.angular", "quadrature.radial", "moduli.stieltjes",
                 "ball_poisson.solve_vt", "stable_operator.tail",
                 "moduli.dini", "exterior_data.eval"):
        assert calls[SPANS.index(span)] > 0, span
    assert tracer.counts["moduli.stieltjes.f_evals"] > 0
    assert tracer.counts["stable_operator.u.points"] > 0
    assert tracer.counts["ball_poisson.kernel.points"] == \
        tracer.counts["quadrature.exterior.points"]


def test_oracles_at_known_points():
    for s in (0.25, 0.5, 0.75):
        assert scipy.special.betainc(s, s, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert workloads.bump_operator_value(0.5, 2.0) == pytest.approx(math.pi / 2)
    # tail of (y-1)^{1/2} on [1, 3] at y = 0: (1/4)(arctan sqrt 2 - sqrt 2 / 3)
    val, _ = workloads.halfline_tail_value(0.5, 1.0, 0.0)
    exact = 0.25 * (math.atan(math.sqrt(2.0)) - math.sqrt(2.0) / 3.0)
    assert val == pytest.approx(exact, rel=1e-12)
    # int_{1/2}^1 (1-t^2)^{1/2} t^{-2} dt = sqrt 3 - pi / 3
    num, _ = scipy.integrate.quad(lambda t: math.sqrt(1.0 - t * t) / t**2,
                                  0.5, 1.0, epsabs=1e-13)
    assert num == pytest.approx(math.sqrt(3.0) - math.pi / 3.0, rel=1e-10)


def test_halfline_indicator_solution_is_the_incomplete_beta():
    s = 0.5
    problem = bp.BallProblem(bp.PoissonKernel(1, s),
                             workloads.halfline_indicator())
    spec = QuadratureSpec(rel_tol=1e-8, abs_tol=1e-11)
    for x in (0.0, 0.5):
        rep = bp.solve(problem, [x], spec)
        oracle = scipy.special.betainc(s, s, 0.5 * (1 + x))
        assert workloads.near(oracle, spec)(rep)[0]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    a = [t.name for t in workloads.build(name, 3).tasks]
    assert a == [t.name for t in workloads.build(name, 3).tasks]
    assert any(a != [t.name for t in workloads.build(name, s).tasks]
               for s in range(4, 12))
