"""Workload process: imports hespinor from the checkout and runs one closed loop.

Started by ``run.py`` as ``python3 perfbench/worker.py SPEC OUT``.  SPEC is a
JSON file with the workload name, run length, trace flag and the inputs
generated from the seed; OUT receives the raw results: per-operation
latencies, the outputs the harness checks against the oracle, peak RSS and,
for a traced run, the per-layer figures and the spans.

The loop is closed with one client: each operation starts after the
previous one returned.  After one untimed warm-up operation (one pass for
the sweep) it runs for ``seconds``, interleaving the speed probe between
blocks of operations.  A traced run spends the first half untraced and the
second half traced, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy

ROOT = Path(__file__).resolve().parent.parent
BLOCK_SECONDS = 0.2
PROBE_STEPS = 6000
PROBE_MATRIX = numpy.array([[0.5, 0.1, 0.0, 0.0], [0.1, 0.5, 0.2, 0.0],
                            [0.0, 0.2, 0.5, 0.1], [0.0, 0.0, 0.1, 0.5]])


def _import_hespinor():
    sys.path.insert(0, str(ROOT / "src"))
    import hespinor
    import hespinor.angular
    import hespinor.cli
    import hespinor.radial
    import hespinor.verify

    origin = Path(hespinor.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        raise SystemExit(f"hespinor imported from {origin}, not from this checkout")
    return hespinor


class VerifyFull:
    """Full ``hespinor verify`` batteries through ``cli.main`` with stdout captured."""

    pass_length = 1

    def __init__(self, hespinor, inputs, work_dir):
        self.cli = hespinor.cli
        self.outputs = {}

    def __call__(self, i):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["verify"])
        return rc, buf.getvalue()

    def record(self, i, result):
        self.outputs[result] = self.outputs.get(result, 0) + 1

    def results(self):
        return {"outputs": [[rc, text, n] for (rc, text), n in self.outputs.items()]}


class ScanDense:
    """A dense ``hespinor scan`` written as CSV to a file in the work directory."""

    pass_length = 1

    def __init__(self, hespinor, inputs, work_dir):
        self.cli = hespinor.cli
        self.path = Path(work_dir) / "scan.csv"
        self.argv = ["scan", "--sigma-min", repr(inputs["sigma_min"]),
                     "--sigma-max", repr(inputs["sigma_max"]),
                     "--points", str(inputs["points"]), "--output", str(self.path)]
        self.sample = set(inputs["sample"])
        self.digests = {}
        self.first = None

    def __call__(self, i):
        return self.cli.main(self.argv)

    def record(self, i, rc):
        digest = hashlib.sha256()
        size = 0
        if rc == 0:
            with open(self.path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
                    size += len(chunk)
        key = f"{rc}:{digest.hexdigest()}"
        self.digests[key] = self.digests.get(key, 0) + 1
        if self.first is None and rc == 0:
            self.first = dict(self._parse(), digest=key, bytes=size)

    def _parse(self):
        sampled, best = [], None
        with open(self.path, encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
            rows = 0
            for index, line in enumerate(fh):
                values = [float(v) for v in line.split(",")]
                if index in self.sample:
                    sampled.append([index] + values)
                if best is None or values[1] < best[2]:
                    best = [index] + values
                rows += 1
        return {"header": header, "rows": rows, "sampled": sampled, "argmin": best}

    def results(self):
        return {"first": self.first, "digests": self.digests}


class GroundStateSweep:
    """Ground-state solves over (alpha, j1, j2, bracket), each cross-checked
    by the independent consistency root-finder at the returned sigma0."""

    def __init__(self, hespinor, inputs, work_dir):
        self.optimize, self.spectrum = hespinor.optimize, hespinor.spectrum
        codata = hespinor.FINE_STRUCTURE_ALPHA
        self.configs = [dict(c, alpha=codata if c["alpha"] == "codata" else c["alpha"])
                        for c in inputs["configs"]]
        self.tol = inputs["tol"]
        self.pass_length = len(self.configs)
        self.first = [None] * len(self.configs)
        self.runs = [0] * len(self.configs)
        self.mismatched = [0] * len(self.configs)

    def __call__(self, i):
        c = self.configs[i % len(self.configs)]
        try:
            res = self.optimize.minimize_delta_e(c["bracket"], tol=self.tol, alpha=c["alpha"],
                                                 j1=c["j1"], j2=c["j2"])
            pt = res.point
            cf = self.spectrum.closed_form(pt.sigma, alpha=c["alpha"], j1=c["j1"], j2=c["j2"])
            e_root = self.spectrum.energy_consistency_solve(
                pt.sigma, self.spectrum.rho0_natural(cf), cf)
        except Exception as exc:  # a raising solve is a failed operation, recorded by type
            return ["raised", f"{type(exc).__name__}: {exc}"]
        return [pt.sigma, pt.delta_e, pt.rho0, pt.r10, pt.r20, pt.energy, e_root]

    def record(self, i, result):
        k = i % len(self.configs)
        self.runs[k] += 1
        if self.first[k] is None:
            self.first[k] = result
        elif result != self.first[k]:
            self.mismatched[k] += 1

    def results(self):
        return {"configs": [dict(c, result=r, runs=n, mismatched=m) for c, r, n, m in
                            zip(self.configs, self.first, self.runs, self.mismatched)]}


WORKLOADS = {"verify-full": VerifyFull, "scan-dense": ScanDense,
             "ground-state-sweep": GroundStateSweep}


def probe():
    """Fixed reference work, timed between blocks of operations.

    The host's speed drifts by up to 2x over tens of seconds on a shared
    machine; it slows this probe and the program alike, so latencies are
    reported in units of the probe time measured around them.  The work
    mixes what the workloads do: Python float arithmetic, 4x4 numpy
    products and 17-digit float formatting.
    """
    start = perf_counter()
    x, v, text = 0.0, numpy.ones(4), []
    for k in range(PROBE_STEPS):
        x += math.sqrt(k + 1.0) * math.exp(-1e-4 * k)
        v = PROBE_MATRIX @ v
        text.append(f"{x:.17g},{v[0]:.17g}")
    return perf_counter() - start


def _loop(workload, first_op, seconds, tracer=None):
    """Closed loop for ``seconds`` in blocks of whole passes, each block lasting
    at least BLOCK_SECONDS and followed by a probe.

    Returns the latencies (s) of the operations and the same latencies
    divided by the mean of the probes before and after their block.
    """
    latencies, relative = array("d"), array("d")
    i = first_op
    t_end = perf_counter() + seconds
    before = probe()
    while perf_counter() < t_end:
        block = array("d")
        t_block = perf_counter() + BLOCK_SECONDS
        while perf_counter() < t_block:
            for _ in range(workload.pass_length):
                if tracer is not None:
                    tracer.op = i
                t0 = perf_counter()
                result = workload(i)
                block.append(perf_counter() - t0)
                workload.record(i, result)
                i += 1
        after = probe()
        unit = (before + after) / 2
        latencies.extend(block)
        relative.extend(t / unit for t in block)
        before = after
    return latencies, relative


def main(spec_path, out_path):
    spec = json.loads(Path(spec_path).read_text())
    hespinor = _import_hespinor()
    import scipy

    workload = WORKLOADS[spec["workload"]](hespinor, spec["inputs"], spec["work_dir"])
    for i in range(workload.pass_length):  # warm-up, untimed and unchecked
        workload(i)
    probe()

    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__, "alpha_codata": hespinor.FINE_STRUCTURE_ALPHA}
    if not spec["trace"]:
        out["latencies"], out["relative"] = _loop(workload, 0, spec["seconds"])
    else:
        from tracer import Tracer, instrument, layer_metrics

        out["latencies"], out["relative"] = _loop(workload, 0, spec["seconds"] / 2)
        tracer = Tracer()
        instrument(tracer, hespinor)
        try:
            traced, out["traced_relative"] = _loop(
                workload, len(out["latencies"]), spec["seconds"] / 2, tracer)
        finally:
            tracer.restore()
        out["layers"] = layer_metrics(tracer, len(traced))
        out["spans"] = tracer.spans
    out["results"] = workload.results()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(out_path).write_text(json.dumps(out, default=list))


if __name__ == "__main__":
    main(*sys.argv[1:3])
