"""Experiment sweeps: configuration, boundary-approach grids, CSV emission.

Each sweep walks the solution u(t e_1) toward the boundary on the grid
t = 1 - 10^{-k} and compares it against a predictor:

* upper sweep: the predicted interior modulus sigma(1-t),
* lower sweep: the boundary lower bound (1-t)^s int_{1-t}^1 omega(r) r^{-1-s} dr
  (with the explicit constant (pi/8) s (1-s) in d = 1),
* blow-up sweep: the C^s difference quotient |u - g| / (1-t)^s,
* cancellation sweep: |u(t e_1)| for the odd datum, with an even contrast.

All rows carry estimated quadrature errors; inequality flags are evaluated
with the error subtracted from the favorable side.
"""

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ball_poisson import BallProblem, PoissonKernel, solve
from .exterior_data import (
    halfline_modulus_datum,
    non_dini_datum,
    sign_changing_datum,
    transverse_modulus_datum,
)
from .moduli import ModulusFunction, dini_integral, sigma, weighted_integral
from .quadrature import QuadratureSpec


class ConfigError(ValueError):
    """Invalid experiment configuration."""


CSV_HEADER = "experiment,d,s,t,value,abs_err,predictor,ratio,flags"


@dataclass(frozen=True)
class ExperimentRow:
    experiment: str
    d: int
    s: float
    t: float
    value: float
    abs_err: float
    predictor: float
    ratio: float
    flags: str

    def csv(self):
        return (
            f"{self.experiment},{self.d},{self.s:.6g},{self.t:.10g},"
            f"{self.value:.12g},{self.abs_err:.6g},{self.predictor:.12g},"
            f"{self.ratio:.12g},{self.flags}"
        )


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = "sweep-upper"
    d: int = 1
    s: float = 0.5
    datum: str = "prop42"
    modulus: str = "power:0.5"
    grid_k_max: float = 4.0
    grid_k_step: float = 0.5
    rel_tol: float = 1e-8
    abs_tol: float = 1e-11
    out_dir: str = "out"

    def __post_init__(self):
        if self.datum not in ("thm15", "prop42", "cex14", "ex43"):
            raise ConfigError(f"unknown datum {self.datum!r}")
        if not 0.0 < self.s < 1.0:
            raise ConfigError("s must lie in (0, 1)")
        if self.grid_k_max <= 0 or self.grid_k_step <= 0:
            raise ConfigError("grid parameters must be positive")
        if len(self.grid_k) < 2:
            raise ConfigError("the k grid needs at least two points")

    @property
    def grid_k(self):
        # No step past grid_k_max; the 1e-9 keeps 0.3 / 0.1 (< 3) at 3 steps.
        n = math.floor(self.grid_k_max / self.grid_k_step + 1e-9)
        return [i * self.grid_k_step for i in range(n + 1)]

    @property
    def grid_t(self):
        return [1.0 - 10.0 ** (-k) for k in self.grid_k]

    @property
    def quadrature(self):
        return QuadratureSpec(rel_tol=self.rel_tol, abs_tol=self.abs_tol)


def parse_number(text, error=ConfigError):
    """float(text); a malformed number raises ``error``, an input error."""
    try:
        return float(text)
    except ValueError:
        raise error(f"malformed number {text!r}") from None


def _parse_int(text):
    """An integer from ``parse_number``; anything else is a ``ConfigError``."""
    value = parse_number(text)
    if not value.is_integer():
        raise ConfigError(f"not an integer: {text!r}")
    return int(value)


def parse_modulus(text):
    """Parse 'power:0.5', 'log_inverse:2', 'power_log:0.5,1', 'zero', or
    'table:t1:v1,t2:v2,...'."""
    text = text.strip()
    if ":" not in text:
        kind, arg = text, ""
    else:
        kind, arg = text.split(":", 1)
    if kind == "zero":
        return ModulusFunction.zero()
    if kind == "power":
        return ModulusFunction.power(parse_number(arg))
    if kind == "log_inverse":
        return ModulusFunction.log_inverse(parse_number(arg))
    if kind == "power_log" and arg.count(",") == 1:
        a, p = (parse_number(v) for v in arg.split(","))
        return ModulusFunction.power_log(a, p)
    if kind == "table":
        pairs = [tuple(parse_number(v) for v in pc.split(":"))
                 for pc in arg.split(",")]
        return ModulusFunction.table(pairs)
    raise ConfigError(f"unknown modulus description {text!r}")


def load_config(path=None, overrides=None):
    """Read an INI-style config; later overrides (a dict) win."""
    values = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        for section in ("experiment", "quadrature", "output"):
            if parser.has_section(section):
                values.update(dict(parser.items(section)))
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    kwargs = {}
    casts = {
        "experiment": str, "d": _parse_int, "s": parse_number, "datum": str,
        "modulus": str, "grid_k_max": parse_number,
        "grid_k_step": parse_number, "rel_tol": parse_number,
        "abs_tol": parse_number, "out_dir": str,
    }
    for key, cast in casts.items():
        if key in values:
            kwargs[key] = cast(values[key])
    unknown = set(values) - set(casts)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**kwargs)


def build_datum(config):
    omega = parse_modulus(config.modulus)
    if config.datum == "prop42":
        if config.d != 1:
            raise ConfigError("the half-line datum is one-dimensional")
        return halfline_modulus_datum(omega)
    if config.datum == "thm15":
        return transverse_modulus_datum(omega, config.d)
    if config.datum == "cex14":
        return non_dini_datum(omega, config.s, config.d)
    return sign_changing_datum(config.s, config.d)


def _solve_on_grid(config, datum):
    """(g(e_1), [(t, report of u(t e_1)) for t on the grid])."""
    problem = BallProblem(PoissonKernel(config.d, config.s), datum)
    e1 = np.eye(config.d)[0]
    rows = [(t, solve(problem, t * e1, config.quadrature)) for t in config.grid_t]
    return float(datum(e1[None, :])[0]), rows


def run_upper_bound_sweep(config):
    """|u(t e_1) - g(e_1)| against the predicted modulus sigma(1 - t)."""
    datum = build_datum(config)
    omega = datum.modulus or ModulusFunction.zero()
    gz, sol = _solve_on_grid(config, datum)
    rows = []
    for t, rep in sol:
        numer = abs(rep.value - gz)
        pred = sigma(omega, config.s, 1.0 - t).value
        ratio = (numer + rep.error_estimate) / pred
        flags = "converged" if rep.converged else "non-converged"
        rows.append(ExperimentRow(
            "sweep-upper", config.d, config.s, t, numer,
            rep.error_estimate, pred, ratio, flags,
        ))
    return rows


def run_lower_bound_sweep(config):
    """u(t e_1) - g(e_1) against the boundary lower-bound predictor.

    d = 1 checks the fully explicit inequality with constant (pi/8) s (1-s);
    d >= 2 records the ratio for the floor assertion.  The t = 0 grid point
    has a vanishing predictor (the weighted integral from 1 to 1) and is
    flagged instead of ratioed.
    """
    datum = build_datum(config)
    omega = datum.modulus
    if omega is None or omega(1.0) == 0.0:  # omega = 0 on [0, 1]: predictor 0
        raise ConfigError("the lower-bound sweep needs a modulus-based datum "
                          "with omega(1) > 0")
    gz, sol = _solve_on_grid(config, datum)
    s = config.s
    rows = []
    for t, rep in sol:
        delta = 1.0 - t
        ds = delta**s
        # the integral to 1e-9 / delta^s, as sigma(delta) takes it
        base = ds * weighted_integral(omega, s, delta, 1e-9 / ds).value
        if config.d == 1:
            pred = (math.pi / 8.0) * s * (1.0 - s) * base
        else:
            pred = base
        value = rep.value - gz
        adjusted = value - rep.error_estimate
        if pred <= 0.0:
            ratio = math.nan
            flags = "predictor-zero"
        else:
            ratio = adjusted / pred
            if config.d == 1:
                flags = "holds" if adjusted >= pred else "violated"
            else:
                flags = "converged" if rep.converged else "non-converged"
        rows.append(ExperimentRow(
            "sweep-lower", config.d, config.s, t, value,
            rep.error_estimate, pred, ratio, flags,
        ))
    return rows


def run_blowup_experiment(config):
    """C^s difference quotient across decades for a (possibly) non-Dini datum.

    The iota modulus from the config is first classified by dini_integral;
    each row's flag records 'divergent' or 'convergent'.  The predictor
    column is the weighted integral int_{1-t}^1 omega(r) r^{-1-s} dr whose
    growth the quotient must track when iota is non-Dini.
    """
    iota = parse_modulus(config.modulus)
    dini = dini_integral(iota)
    datum = non_dini_datum(iota, config.s, config.d)
    omega = datum.modulus
    gz, sol = _solve_on_grid(config, datum)
    s = config.s
    tag = "divergent" if not dini.convergent else "convergent"
    rows = []
    for t, rep in sol:
        delta = 1.0 - t
        ds = delta**s
        q = abs(rep.value - gz) / ds
        # the integral to 1e-9 / delta^s, as sigma(delta) takes it
        pred = weighted_integral(omega, s, delta, 1e-9 / ds).value
        ratio = q / pred if pred > 0 else math.nan
        rows.append(ExperimentRow(
            "blowup", config.d, config.s, t, q,
            rep.error_estimate / ds, pred, ratio, tag,
        ))
    return rows


def run_cancellation_experiment(config):
    """|u(t e_1)| for the odd datum, with the even datum as contrast."""
    if config.d < 2:
        raise ConfigError("the cancellation experiment needs d >= 2")
    odd = sign_changing_datum(config.s, config.d)
    even = transverse_modulus_datum(ModulusFunction.power(config.s), config.d)
    _, sol_odd = _solve_on_grid(config, odd)
    _, sol_even = _solve_on_grid(config, even)
    rows = []
    for (t, ro), (_, re_) in zip(sol_odd, sol_even):
        contrast = re_.value
        ratio = abs(ro.value) / contrast if contrast > 0 else math.nan
        flags = "converged" if ro.converged else "non-converged"
        rows.append(ExperimentRow(
            "cancellation", config.d, config.s, t, abs(ro.value),
            ro.error_estimate, contrast, ratio, flags,
        ))
    return rows


def emit_outputs(tables, config, out_dir=None):
    """Write rows.csv, per-experiment plot data, and a plain-text summary.

    Output bytes depend only on the rows (hence on the config).
    Returns the list of written paths.
    """
    out = Path(out_dir or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = [r for table in tables for r in table]
    paths = []

    csv_path = out / "rows.csv"
    with open(csv_path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(r.csv() + "\n")
    paths.append(csv_path)

    for name in sorted({r.experiment for r in rows}):
        data_path = out / f"{name}.dat"
        with open(data_path, "w") as fh:
            fh.write("# t value predictor\n")
            for r in rows:
                if r.experiment == name:
                    fh.write(f"{r.t:.10g} {r.value:.12g} {r.predictor:.12g}\n")
        paths.append(data_path)

    summary_path = out / "summary.txt"
    with open(summary_path, "w") as fh:
        n_conv = sum(1 for r in rows if "non-converged" not in r.flags)
        fh.write(f"{len(rows)} row(s), {n_conv} converged\n")
        for name in sorted({r.experiment for r in rows}):
            sub = [r for r in rows if r.experiment == name]
            bad = [r for r in sub if r.flags == "violated"]
            fh.write(
                f"{name}: {len(sub)} row(s), "
                f"{'FAIL' if bad else 'ok'}\n"
            )
    paths.append(summary_path)
    return paths
