"""Experiment configuration, sweeps, and deterministic output emission."""

import math

import pytest

from fraclab.experiments import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    build_datum,
    emit_outputs,
    load_config,
    parse_modulus,
    run_blowup_experiment,
    run_cancellation_experiment,
    run_lower_bound_sweep,
    run_upper_bound_sweep,
)


class TestParseModulus:
    def test_kinds(self):
        assert parse_modulus("zero").kind == "zero"
        assert abs(parse_modulus("power:0.5")(0.25) - 0.5) < 1e-15
        assert parse_modulus("log_inverse:2")(0.5) > 0.0
        assert parse_modulus("power_log:0.5,1")(0.5) > 0.0
        tab = parse_modulus("table:0:0,0.5:0.25,1:1")
        assert abs(tab(1.0) - 1.0) < 1e-15

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_modulus("mystery:3")


class TestConfig:
    def test_defaults_and_grid(self):
        cfg = ExperimentConfig()
        assert cfg.grid_k == [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0]
        assert cfg.grid_t[0] == 0.0
        assert abs(cfg.grid_t[-1] - (1.0 - 1e-4)) < 1e-15

    @pytest.mark.parametrize("k_max, step, grid", [
        (4.0, 1.0, [0.0, 1.0, 2.0, 3.0, 4.0]),
        # A maximum between two steps ends the grid at the step below it,
        # whichever way half a step would round.
        (2.5, 1.0, [0.0, 1.0, 2.0]),
        (3.5, 1.0, [0.0, 1.0, 2.0, 3.0]),
        # 0.3 / 0.1 is 2.9999999999999996 in floating point.
        (0.3, 0.1, [0.0, 0.1, 0.2, 0.30000000000000004]),
    ])
    def test_grid_stops_at_its_maximum(self, k_max, step, grid):
        assert ExperimentConfig(grid_k_max=k_max, grid_k_step=step).grid_k == grid

    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(datum="nope")
        with pytest.raises(ConfigError):
            ExperimentConfig(s=1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(grid_k_step=0.0)
        with pytest.raises(ConfigError, match="at least two points"):
            ExperimentConfig(grid_k_max=1.0, grid_k_step=3.0)

    def test_load_config_ini_with_overrides(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(
            "[experiment]\nd = 2\ns = 0.6\ndatum = thm15\n"
            "[quadrature]\nrel_tol = 1e-6\n"
            "[output]\nout_dir = results\n"
        )
        cfg = load_config(p, overrides={"s": "0.7"})
        assert cfg.d == 2
        assert cfg.s == 0.7
        assert cfg.datum == "thm15"
        assert cfg.rel_tol == 1e-6
        assert cfg.out_dir == "results"
        # nothing in a sweep is random, so there is no seed to set
        with pytest.raises(ConfigError):
            load_config(p, overrides={"seed": 3})

    def test_load_config_rejects_unknown_keys(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text("[experiment]\nwhatever = 1\n")
        with pytest.raises(ConfigError):
            load_config(p)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.ini")

    def test_build_datum_dimension_guard(self):
        with pytest.raises(ConfigError):
            build_datum(ExperimentConfig(datum="prop42", d=2))


def small_cfg(**kw):
    base = dict(
        d=1, s=0.5, datum="prop42", modulus="power:0.5",
        grid_k_max=2.0, grid_k_step=1.0, rel_tol=1e-7, abs_tol=1e-10,
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestSweeps:
    def test_upper_sweep_rows(self):
        rows = run_upper_bound_sweep(small_cfg(experiment="sweep-upper"))
        assert [r.t for r in rows] == [0.0, 0.9, 0.99]
        for r in rows:
            assert r.experiment == "sweep-upper"
            assert r.flags == "converged"
            assert r.predictor > 0.0
            assert math.isfinite(r.ratio)
        # the oscillation shrinks toward the boundary
        assert rows[-1].value < rows[0].value

    def test_lower_sweep_d1_holds(self):
        rows = run_lower_bound_sweep(small_cfg(experiment="sweep-lower"))
        assert rows[0].flags == "predictor-zero"
        for r in rows[1:]:
            assert r.flags == "holds"
            assert r.ratio >= 1.0

    def test_blowup_tags_divergent_modulus(self):
        rows = run_blowup_experiment(
            small_cfg(experiment="blowup", datum="cex14",
                      modulus="log_inverse:1")
        )
        assert all(r.flags == "divergent" for r in rows)
        qs = [r.value for r in rows]
        assert qs == sorted(qs)

    def test_cancellation_needs_planar_geometry(self):
        with pytest.raises(ConfigError):
            run_cancellation_experiment(small_cfg(datum="ex43"))

    def test_cancellation_values_vanish(self):
        rows = run_cancellation_experiment(
            small_cfg(experiment="cancellation", d=2, datum="ex43",
                      grid_k_max=1.0, rel_tol=1e-6, abs_tol=1e-9)
        )
        for r in rows:
            assert r.value == 0.0
            assert r.predictor > 0.0


class TestEmitOutputs:
    def test_files_and_determinism(self, tmp_path):
        cfg = small_cfg()
        rows = run_lower_bound_sweep(cfg)
        p1 = emit_outputs([rows], cfg, out_dir=tmp_path / "a")
        p2 = emit_outputs([rows], cfg, out_dir=tmp_path / "b")
        names = sorted(p.name for p in p1)
        assert names == ["rows.csv", "summary.txt", "sweep-lower.dat"]
        for a, b in zip(sorted(p1), sorted(p2)):
            assert a.read_bytes() == b.read_bytes()
        csv = (tmp_path / "a" / "rows.csv").read_text().splitlines()
        assert csv[0] == CSV_HEADER
        assert len(csv) == 1 + len(rows)

    def test_summary_reports_ok(self, tmp_path):
        cfg = small_cfg()
        rows = run_lower_bound_sweep(cfg)
        emit_outputs([rows], cfg, out_dir=tmp_path)
        text = (tmp_path / "summary.txt").read_text()
        assert "sweep-lower" in text
        assert "FAIL" not in text
