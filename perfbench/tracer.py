"""Span tracer that wraps fraclab's module-level entry points from outside.

``Tracer.install()`` replaces each traced function in every fraclab module
that binds it (a name imported with ``from .x import f`` is a separate
binding and is patched too) and ``uninstall()`` puts every original back.
Spans are kept in flat in-memory arrays (name, start, end, parent, task) and
written out with ``dump()`` when the run ends; nothing is written while a
pass runs.

A span's self time is its duration minus the durations of its direct
children.  Caller-supplied integrands that are not themselves traced entry
points (the closures inside ``integrate_exterior_ball``, the benchmark's own
bump function) run inside the innermost open span and count toward its self
time.
"""

import functools
import importlib
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = (
    "fraclab._accel",
    "fraclab.quadrature",
    "fraclab.moduli",
    "fraclab.exterior_data",
    "fraclab.ball_poisson",
    "fraclab.stable_operator",
    "fraclab.experiments",
    "fraclab.geometry",
    "fraclab.cli",
)

# Every span name the tracer can open; each has a ``<name>.self_s`` metric.
SPANS = (
    "accel.panel_reduce",
    "accel.kahan_sum",
    "quadrature.driver",
    "quadrature.angular",
    "quadrature.radial",
    "quadrature.exterior",
    "ball_poisson.solve",
    "ball_poisson.solve_vt",
    "ball_poisson.kernel",
    "ball_poisson.check",
    "ball_poisson.harmonicity",
    "exterior_data.eval",
    "moduli.stieltjes",
    "moduli.oscillation_profile",
    "moduli.sigma",
    "moduli.kappa",
    "moduli.dini",
    "stable_operator.apply",
    "stable_operator.tail",
    "experiments.sweep",
)

# Spans whose number of calls is reported as ``<span>.calls``.
CALL_COUNTS = (
    "accel.panel_reduce",
    "accel.kahan_sum",
    "quadrature.driver",
    "quadrature.angular",
    "quadrature.radial",
    "quadrature.exterior",
    "ball_poisson.solve",
    "ball_poisson.solve_vt",
    "moduli.stieltjes",
    "moduli.sigma",
    "stable_operator.apply",
    "experiments.sweep",
)

# Work counters incremented by the wrappers.
WORK_COUNTS = (
    "accel.panel_reduce.panels",
    "quadrature.driver.unconverged",
    "quadrature.angular.unconverged",
    "quadrature.exterior.points",
    "ball_poisson.kernel.points",
    "exterior_data.eval.points",
    "moduli.stieltjes.f_evals",
    "stable_operator.u.points",
)

_DRIVER = SPANS.index("quadrature.driver")
_ANGULAR = SPANS.index("quadrature.angular")


def _rows(points):
    return int(np.shape(points)[0]) if np.ndim(points) else 1


class Tracer:
    """Collects spans and work counts for one benchmark process."""

    def __init__(self):
        self.task = -1
        self.counts = Counter()
        self._name = array("H")
        self._parent = array("q")
        self._task = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = []
        self._radial_depth = 0
        self._patches = []

    # -- spans -------------------------------------------------------------

    def _open(self, nid):
        i = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._task.append(self.task)
        self._end.append(0.0)
        self._stack.append(i)
        self._start.append(perf_counter())
        return i

    def _close(self, i):
        self._end[i] = perf_counter()
        self._stack.pop()

    def _call(self, nid, fn, args, kwargs):
        i = self._open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(i)

    @property
    def span_count(self):
        return len(self._start)

    def spans(self, first=0):
        """Span arrays from index ``first`` on, as numpy arrays."""
        return {
            "name": np.array(self._name[first:], dtype=np.uint16),
            "parent": np.array(self._parent[first:], dtype=np.int64),
            "task": np.array(self._task[first:], dtype=np.int64),
            "start": np.array(self._start[first:], dtype=np.float64),
            "end": np.array(self._end[first:], dtype=np.float64),
        }

    def self_times(self, first=0):
        """(per-name self seconds, per-name span count, top-level seconds)
        over the spans from index ``first`` on, which must all be closed."""
        sp = self.spans(first)
        dur = sp["end"] - sp["start"]
        parent = sp["parent"] - first
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        own = dur - child
        n = len(SPANS)
        self_s = np.bincount(sp["name"], weights=own, minlength=n)
        calls = np.bincount(sp["name"], minlength=n)
        return self_s, calls, float(dur[~nested].sum())

    def dump(self, path):
        """Write every recorded span to ``path`` (numpy .npz)."""
        np.savez(path, names=np.array(SPANS), **self.spans())

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _patch_everywhere(self, home, name, make):
        original = getattr(importlib.import_module(home), name)
        wrapper = functools.wraps(original)(make(original))
        for mod_name in MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapper)

    def _span_wrapper(self, span, after=None):
        nid = SPANS.index(span)

        def make(fn):
            def traced(*args, **kwargs):
                out = self._call(nid, fn, args, kwargs)
                if after is not None:
                    after(self.counts, args, out)
                return out

            return traced

        return make

    def _adaptive_wrapper(self, fn):
        # The d = 3 latitude rule calls _adaptive directly from inside a
        # radial panel evaluation; that call is an inner (angular) integral.
        def traced(*args, **kwargs):
            angular = (
                self._radial_depth > 0
                and self._name[self._stack[-1]] == _DRIVER
            )
            outer = self._open(_ANGULAR) if angular else None
            try:
                out = self._call(_DRIVER, fn, args, kwargs)
            finally:
                if outer is not None:
                    self._close(outer)
            if not out[3]:
                self.counts["quadrature.driver.unconverged"] += 1
                if angular:
                    self.counts["quadrature.angular.unconverged"] += 1
            return out

        return traced

    def _integrate_1d_wrapper(self, fn):
        # Only integrals opened below a radial span are angular; elsewhere
        # integrate_1d is a thin shell around the (traced) driver.
        def traced(*args, **kwargs):
            if self._radial_depth == 0:
                return fn(*args, **kwargs)
            out = self._call(_ANGULAR, fn, args, kwargs)
            if not out.converged:
                self.counts["quadrature.angular.unconverged"] += 1
            return out

        return traced

    def _radial_wrapper(self, fn):
        nid = SPANS.index("quadrature.radial")

        def traced(*args, **kwargs):
            self._radial_depth += 1
            try:
                return self._call(nid, fn, args, kwargs)
            finally:
                self._radial_depth -= 1

        return traced

    def _kernel_wrapper(self, fn):
        nid = SPANS.index("ball_poisson.kernel")

        def traced(*args, **kwargs):
            F = fn(*args, **kwargs)

            def kernel(points, *rest):
                self.counts["ball_poisson.kernel.points"] += _rows(points)
                return self._call(nid, F, (points,) + rest, {})

            kernel.accepts_norm2m1 = getattr(F, "accepts_norm2m1", False)
            return kernel

        return traced

    def _counting_argument(self, span, index, counter, by_rows):
        """Wrapper that also counts, in ``counter``, the calls made to its
        callable positional argument ``index`` (or the rows passed to it)."""
        nid = SPANS.index(span)

        def make(fn):
            def traced(*args, **kwargs):
                inner = args[index]

                def counted(x, *rest):
                    self.counts[counter] += _rows(x) if by_rows else 1
                    return inner(x, *rest)

                args = args[:index] + (counted,) + args[index + 1:]
                return self._call(nid, fn, args, kwargs)

            return traced

        return make

    def install(self):
        """Patch every traced entry point; ``uninstall`` reverses it."""
        if self._patches:
            raise RuntimeError("tracer already installed")

        def panels(counts, args, out):
            counts["accel.panel_reduce.panels"] += int(args[0].shape[0])

        def exterior_points(counts, args, out):
            counts["quadrature.exterior.points"] += int(out.function_evals)

        everywhere = self._patch_everywhere
        everywhere("fraclab._accel", "panel_reduce",
                   self._span_wrapper("accel.panel_reduce", panels))
        everywhere("fraclab._accel", "kahan_sum",
                   self._span_wrapper("accel.kahan_sum"))
        everywhere("fraclab.quadrature", "_adaptive", self._adaptive_wrapper)
        everywhere("fraclab.quadrature", "integrate_1d",
                   self._integrate_1d_wrapper)
        for name in ("integrate_radial_singular", "integrate_radial_unbounded"):
            everywhere("fraclab.quadrature", name, self._radial_wrapper)
        everywhere("fraclab.quadrature", "integrate_exterior_ball",
                   self._span_wrapper("quadrature.exterior", exterior_points))
        everywhere("fraclab.ball_poisson", "solve",
                   self._span_wrapper("ball_poisson.solve"))
        everywhere("fraclab.ball_poisson", "solve_vt",
                   self._span_wrapper("ball_poisson.solve_vt"))
        everywhere("fraclab.ball_poisson", "_kernel_integrand",
                   self._kernel_wrapper)
        everywhere("fraclab.ball_poisson", "interior_to_boundary_check",
                   self._span_wrapper("ball_poisson.check"))
        everywhere("fraclab.ball_poisson", "harmonicity_check",
                   self._span_wrapper("ball_poisson.harmonicity"))
        everywhere("fraclab.moduli", "stieltjes_integral",
                   self._counting_argument("moduli.stieltjes", 0,
                                           "moduli.stieltjes.f_evals", False))
        everywhere("fraclab.moduli", "oscillation_profile",
                   self._span_wrapper("moduli.oscillation_profile"))
        everywhere("fraclab.moduli", "sigma", self._span_wrapper("moduli.sigma"))
        everywhere("fraclab.moduli", "kappa", self._span_wrapper("moduli.kappa"))
        everywhere("fraclab.moduli", "dini_integral",
                   self._span_wrapper("moduli.dini"))
        for name, span in (("apply_operator", "stable_operator.apply"),
                           ("tail", "stable_operator.tail")):
            everywhere("fraclab.stable_operator", name,
                       self._counting_argument(span, 1,
                                               "stable_operator.u.points", True))
        for name in ("run_upper_bound_sweep", "run_lower_bound_sweep"):
            everywhere("fraclab.experiments", name,
                       self._span_wrapper("experiments.sweep"))

        # Datum evaluation is a method; patch it on the class.
        datum_cls = importlib.import_module("fraclab.exterior_data").ExteriorDatum
        original = datum_cls.__dict__["__call__"]
        eval_id = SPANS.index("exterior_data.eval")

        @functools.wraps(original)
        def datum_call(datum, points):
            self.counts["exterior_data.eval.points"] += _rows(points)
            return self._call(eval_id, original, (datum, points), {})

        self._patch(datum_cls, "__call__", original, datum_call)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
