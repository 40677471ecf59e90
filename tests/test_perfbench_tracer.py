"""perfbench/tracer.py patches functions by name; a rename in the package must fail here."""

import importlib.util
from pathlib import Path

import pytest

import hespinor
import hespinor.cli
from hespinor import verify


def _load_tracer():
    path = Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_the_tracer_patches_exists():
    tracer_module = _load_tracer()
    run_all = verify.run_all
    tracer = tracer_module.Tracer()
    try:
        # getattr on a missing binding raises AttributeError here
        tracer_module.instrument(tracer, hespinor)
        report = verify.run_all()
    finally:
        tracer.restore()
    assert verify.run_all is run_all
    assert tracer.counts["verify.checks_total"] == len(report.results)
    assert tracer.counts["verify.checks_failed"] == 0
    assert [s[0] for s in tracer.spans][:2] == ["verify.run_all", "clifford.checks"]


def test_tracer_sees_the_ion_limit_closed_form(capsys):
    # ion_limit_report looks closed_form up in optimize's namespace, where the tracer wraps it
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer, hespinor)
        assert hespinor.cli.main(["ion-limit"]) == 0
    finally:
        tracer.restore()
    capsys.readouterr()
    assert tracer.counts["spectrum.closed_form"] >= 1


def test_tracer_sees_each_scan_chunk(tmp_path):
    # scan_sigma makes each chunk through optimize's namespace, where the tracer wraps
    # equilibrium_point; the scan_sigma span ends once its checks are done
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    rows = 3 * hespinor.optimize.SCAN_CHUNK_ROWS + 1
    try:
        tracer_module.instrument(tracer, hespinor)
        assert hespinor.cli.main(["scan", "--points", str(rows),
                                  "--output", str(tmp_path / "scan.csv")]) == 0
    finally:
        tracer.restore()
    assert tracer.counts["spectrum.equilibrium_point"] == 4
    assert [s[0] for s in tracer.spans] == ["cli.main", "optimize.scan_sigma"]


def test_full_battery_counts():
    # a battery that routes around radial's decay-rate relation or the closed form fails here
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer, hespinor)
        verify.run_all()
    finally:
        tracer.restore()
    assert {name: tracer.counts[name] for name in (
        "operators.field_evals", "angular.field_evals", "radial.fundamental_residual",
        "spectrum.closed_form", "verify.checks_total", "verify.checks_failed")} == {
        "operators.field_evals": 13, "angular.field_evals": 2,
        "radial.fundamental_residual": 300, "spectrum.closed_form": 15,
        "verify.checks_total": 39, "verify.checks_failed": 0}


@pytest.mark.parametrize("bracket", [(0.05, 0.5), (0.01, 0.99)], ids=["direct", "walk"])
def test_traced_minimize_counts_each_slope_once(monkeypatch, bracket):
    # the slope calls delta_e through optimize's namespace, once per sigma: a slope routed
    # around it, or an end slope evaluated twice, moves optimize.objective_evals
    optimize = hespinor.optimize
    slopes, c_params = [], optimize.c_params
    with monkeypatch.context() as patch:
        patch.setattr(optimize, "c_params",
                      lambda sigma, *args: slopes.append(sigma) or c_params(sigma, *args))
        untraced = optimize.minimize_delta_e(bracket)
    sigmas = [sigma.real for sigma in slopes if isinstance(sigma, complex)]
    tracer_module = _load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.instrument(tracer, hespinor)
        result = optimize.minimize_delta_e(bracket)
    finally:
        tracer.restore()
    assert result == untraced
    assert len(set(sigmas)) == len(sigmas) == tracer.counts["optimize.objective_evals"]
    assert tracer.counts["optimize.iterations"] == result.iterations
    assert tracer.counts["spectrum.equilibrium_point"] == 1
