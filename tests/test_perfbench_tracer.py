"""perfbench/tracer.py patches functions by name; a rename in the package must fail here."""

import importlib.util
from pathlib import Path

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
        report = verify.run_all(fast=True)
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
