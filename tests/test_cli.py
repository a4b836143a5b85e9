"""End-to-end command-line interface behavior."""

import math
import re

import pytest

from fraclab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run(capsys, "selftest")
        assert code == 0
        assert "[FAIL]" not in out
        assert out.count("[PASS]") >= 5
        assert "selftest: ok" in out


class TestSolve:
    def test_prints_converged_value(self, capsys):
        code, out = run(
            capsys, "solve", "--d", "1", "--s", "0.5",
            "--datum", "prop42", "--x", "0.5",
        )
        assert code == 0
        assert "u(0.5) =" in out
        assert "converged=True" in out


class TestSweeps:
    def test_lower_sweep_d1_exits_clean(self, capsys, tmp_path):
        code, out = run(
            capsys, "sweep-lower", "--d", "1", "--datum", "prop42",
            "--tol", "1e-7", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "holds" in out
        assert (tmp_path / "rows.csv").exists()

    def test_blowup_divergent_case(self, capsys, tmp_path):
        code, out = run(
            capsys, "blowup", "--d", "1", "--datum", "cex14",
            "--modulus", "log_inverse:1", "--tol", "1e-7",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "strictly increasing: True" in out

    @pytest.mark.parametrize("d", ["1", "2"])
    def test_blowup_zero_modulus_is_bounded(self, capsys, tmp_path, d):
        # iota = 0 is Dini and every quotient is 0
        code, out = run(
            capsys, "blowup", "--d", d, "--datum", "cex14",
            "--modulus", "zero", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert "bounded quotient (Dini case): in [0, 0]" in out


class TestChecks:
    def test_check_dini(self, capsys):
        code, out = run(capsys, "check-dini", "--modulus", "log_inverse:2")
        assert code == 0
        assert "satisfied" in out

    def test_check_geometry_ball(self, capsys):
        code, out = run(
            capsys, "check-geometry", "--domain", "ball", "--d", "2",
            "--samples", "2000", "--boundary-points", "4",
        )
        assert code == 0
        assert "passes" in out

    def test_check_geometry_cusp_finds_witness(self, capsys):
        code, out = run(
            capsys, "check-geometry", "--domain", "cusp", "--d", "2",
            "--samples", "5000",
        )
        assert code == 0
        assert "witness" in out


class TestApplyOperator:
    def test_bump_reference(self, capsys):
        code, out = run(
            capsys, "apply-operator", "--d", "1", "--s", "0.5",
            "--measure", "uniform:2", "--x", "0",
        )
        assert code == 0
        assert "A u(0) =" in out
        assert re.search(r"\(evals=[1-9]\d*, converged=True\)", out)

    def test_bump_in_d4(self, capsys):
        # the bump's value is pi/2 at every point inside the ball
        code, out = run(capsys, "apply-operator", "--d", "4", "--x", "0,0,0,0.3")
        assert code == 0
        value, estimate = (float(v) for v in re.search(
            r"= (\S+) \+/- (\S+)  \(evals=\d+, converged=True\)", out).groups())
        assert abs(value - math.pi / 2) <= estimate


def test_unknown_command_exits_with_usage_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv, message",
    [
        (("check-dini", "--modulus", "bogus"), "unknown modulus description"),
        (("solve", "--d", "1", "--datum", "prop42", "--x", "0.5,0.1"),
         "dimension mismatch"),
        (("check-dini", "--modulus", "power:0.5", "--variant", "two_s"),
         "variant two_s needs s"),
        (("sweep-upper", "--d", "1", "--s", "1.5"), "s must lie in (0, 1)"),
        (("check-dini", "--modulus", "power:abc"), "malformed number 'abc'"),
        (("solve", "--d", "1", "--datum", "prop42", "--x", "0.5,abc"),
         "malformed number 'abc'"),
        (("apply-operator", "--d", "2", "--measure", "uniform:x", "--x", "0,0"),
         "malformed number 'x'"),
        (("apply-operator", "--d", "2", "--measure", "atomic:1,0,1;-1,0,1",
          "--x", "0.1,0.2,0.3"), "point dimension mismatch"),
        (("sweep-upper", "--config", "[experiment]\ns = abc\n"),
         "malformed number 'abc'"),
        (("sweep-upper", "--config", "[experiment]\nd = 2.5\n"),
         "not an integer: '2.5'"),
        (("sweep-lower", "--d", "2", "--config",
          "[experiment]\ngrid_k_max = 1\ngrid_k_step = 3\n"),
         "at least two points"),
        (("blowup", "--d", "1", "--datum", "cex14", "--config",
          "[experiment]\ngrid_k_max = 1\ngrid_k_step = 3\n"),
         "at least two points"),
        (("sweep-lower", "--d", "2", "--datum", "thm15", "--modulus", "zero"),
         "omega(1) > 0"),
        (("solve", "--d", "1", "--datum", "prop42", "--x", "0.5", "--tol", "nan"),
         "tolerances must be positive and finite"),
        (("solve", "--d", "1", "--datum", "prop42", "--x", "0.5", "--tol", "inf"),
         "tolerances must be positive and finite"),
        (("check-geometry", "--samples", "-5"), "samples must be >= 1"),
        (("check-geometry", "--samples", "0"), "samples must be >= 1"),
        (("check-geometry", "--boundary-points", "-1"), "boundary_count >= 1"),
        (("check-geometry", "--boundary-points", "0"), "boundary_count >= 1"),
        (("check-geometry", "--domain", "ball", "--d", "0"), "d >= 1"),
        (("check-geometry", "--domain", "halfspace", "--d", "0"), "d >= 1"),
        (("check-geometry", "--depth", "nan"), "depth must be positive and finite"),
        (("check-geometry", "--depth", "inf"), "depth must be positive and finite"),
        (("check-geometry", "--seed", "-1"), "seed must be >= 0"),
        (("check-geometry", "--domain", "cusp", "--d", "2", "--seed", "-1"),
         "seed must be >= 0"),
    ],
)
def test_input_errors_exit_2_with_one_line(capsys, tmp_path, argv, message):
    argv = list(argv)
    if "--config" in argv:
        # the argument after --config is the INI text; pass it as a file
        i = argv.index("--config") + 1
        ini = tmp_path / "config.ini"
        ini.write_text(argv[i])
        argv[i] = str(ini)
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("fraclab: error: ")
    assert message in lines[0]
