import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hespinor import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scan_row_count_and_header(capsys):
    code, out, _ = run(capsys, "scan", "--sigma-min", "0.01", "--sigma-max", "0.5",
                       "--points", "100")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 101
    assert lines[0] == "sigma,delta_e_hartree,rho0_bohr,r10_bohr,r20_bohr"


def test_scan_row_nearest_reference_sigma(capsys):
    code, out, _ = run(capsys, "scan", "--sigma-min", "0.01", "--sigma-max", "0.5",
                       "--points", "100")
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    nearest = min(rows, key=lambda r: abs(float(r[0]) - 0.1775))
    assert abs(float(nearest[1]) - (-2.90589)) < 0.01


def test_scan_json_fields(capsys):
    code, out, _ = run(capsys, "scan", "--points", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert len(data) == 5
    assert set(data[0]) == {"sigma", "delta_e_hartree", "rho0_bohr", "r10_bohr", "r20_bohr"}


def test_scan_output_deterministic_bytes(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code = cli.main(["scan", "--points", "40", "--output", str(path)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_scan_csv_round_trips_exactly(tmp_path, capsys):
    from hespinor import optimize
    path = tmp_path / "scan.csv"
    assert cli.main(["scan", "--sigma-min", "0.05", "--sigma-max", "0.4",
                     "--points", "23", "--output", str(path)]) == 0
    rows = optimize.scan_sigma(optimize.ScanConfig(0.05, 0.4, 23))
    lines = path.read_text().strip().split("\n")[1:]
    assert len(lines) == 23
    for line, pt in zip(lines, rows):
        parsed = [float(tok) for tok in line.split(",")]
        assert parsed == [pt.sigma, pt.delta_e, pt.rho0, pt.r10, pt.r20]


def test_minimize_defaults(capsys):
    code, out, _ = run(capsys, "minimize")
    assert code == 0
    values = {}
    for line in out.strip().split("\n"):
        if " = " in line:
            key, _, val = line.partition(" = ")
            values[key] = float(val)
    assert values["sigma0"] == pytest.approx(0.1775, abs=0.001)
    assert values["delta_e_hartree"] == pytest.approx(-2.90589, abs=0.005)
    assert values["rho0_bohr"] == pytest.approx(0.862, abs=0.005)
    assert "experimental excess energy -2.9033: deviation 0.0026" in out
    assert "0.090%" in out  # below the 0.1 percent mark


def test_minimize_json(tmp_path, capsys):
    path = tmp_path / "min.json"
    code, out, _ = run(capsys, "minimize", "--format", "json", "--output", str(path))
    assert code == 0
    record = json.loads(path.read_text())
    assert set(record) == {"sigma0", "delta_e_hartree", "rho0_bohr", "r10_bohr",
                           "r20_bohr", "iterations"}
    assert record["sigma0"] == pytest.approx(0.1775, abs=0.001)
    assert isinstance(record["iterations"], int)


def test_verify_fast_exits_zero(capsys):
    code, out, _ = run(capsys, "verify", "--fast")
    assert code == 0
    assert "[FAIL]" not in out
    assert "checks passed" in out
    # arbitration outcomes are part of the report
    assert "squared reading selected" in out
    assert "gamma5 product phase" in out


def test_verify_fault_injection_exits_one_and_names_pair(capsys):
    code, out, _ = run(capsys, "verify", "--fast", "--inject-gamma-fault")
    assert code == 1
    fail_lines = [line for line in out.split("\n") if line.startswith("[FAIL]")]
    assert any("clifford anticommutation" in line and "(1," in line for line in fail_lines)


def test_usage_error_exit_code(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["scan", "--format", "xml"]) == 2


@pytest.mark.parametrize("argv, name", [
    (["scan", "--alpha", "-1"], "alpha"),
    (["scan", "--alpha", "nan"], "alpha"),
    (["scan", "--alpha", "inf"], "alpha"),
    (["scan", "--j1", "0.001"], "j1"),
    (["scan", "--mass", "0"], "mass"),
    (["scan", "--points", "1"], "points"),
    (["scan", "--points", "0"], "points"),
    (["scan", "--sigma-min", "0.5", "--sigma-max", "0.1"], "sigma_min"),
    (["minimize", "--alpha", "nan"], "alpha"),
    (["minimize", "--tol", "0"], "tol"),
    (["ion-limit", "--sigmas", "0,0.1"], "sigma"),
])
def test_invalid_parameter_is_usage_error(tmp_path, capsys, argv, name):
    path = tmp_path / "out.txt"
    code, _, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert err.startswith("invalid arguments: " + name)
    assert not path.exists()


def _run_cli(*argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "hespinor.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_minimize_tolerance_below_one_ulp_exits_two_and_the_floor_terminates(tmp_path):
    proc = _run_cli("minimize", "--tol", "1e-20", timeout=60)
    assert proc.returncode == 2
    assert "tol" in proc.stderr
    path = tmp_path / "min.json"
    proc = _run_cli("minimize", "--tol", repr(math.ulp(0.5)), "--format", "json",
                    "--output", str(path), timeout=60)
    assert proc.returncode == 0
    assert json.loads(path.read_text())["sigma0"] == pytest.approx(0.17711646742155152, abs=1e-6)


def test_numeric_error_exit_code(capsys):
    # increasing objective on (0.3, 0.9): the pre-scan rejects the bracket
    code, _, err = run(capsys, "minimize", "--sigma-min", "0.3", "--sigma-max", "0.9")
    assert code == 3
    assert "numeric error" in err


def test_ion_limit_command(capsys):
    code, out, _ = run(capsys, "ion-limit")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "sigma,delta_e_hartree"
    assert len(lines) == 4
    de = [float(line.split(",")[1]) for line in lines[1:]]
    assert abs(de[-1] - (-2.0001)) < 1e-3


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0


def test_verify_full_battery_exits_zero(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "[FAIL]" not in out
    assert out.strip().split("\n")[-1] == "38/38 checks passed"
