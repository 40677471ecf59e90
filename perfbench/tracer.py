"""In-memory spans and counters recorded around calls into hespinor modules.

Each instrumented function is replaced, for the duration of a traced phase,
by a wrapper installed where its caller looks it up (``verify.operator_checks``,
``optimize.closed_form``, ...), so the program itself is not modified.

Boundary calls become spans ``[name, start, end, parent, op]``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``op`` the index of the
workload operation (battery, scan or solve) the span belongs to.  Functions
called thousands of times per operation only bump a counter, optionally
with accumulated time, so that tracing does not swamp the work it measures.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.seconds = Counter()
        self.op = -1
        self.section = "other"
        self._stack = []
        self._patches = []

    def _patch(self, owner, attr, make_wrapper):
        original = getattr(owner, attr)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def span(self, owner, attr, name, section=None, on_result=None):
        """Record a span per call; ``section`` names the layer whose counters
        calls made inside it are charged to."""

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                record = [name, perf_counter(), 0.0,
                          self._stack[-1] if self._stack else -1, self.op]
                self._stack.append(len(self.spans))
                self.spans.append(record)
                outer = self.section
                if section is not None:
                    self.section = section
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record[2] = perf_counter()
                    self._stack.pop()
                    self.section = outer
                if on_result is not None:
                    on_result(self, result)
                return result
            return wrapper

        self._patch(owner, attr, make_wrapper)

    def count(self, owner, attr, name, per_section=False):
        """Count calls; with ``per_section`` the counter is named after the
        enclosing section, as in ``operators.field_evals``."""

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                self.counts[f"{self.section}.{name}" if per_section else name] += 1
                return fn(*args, **kwargs)
            return wrapper

        self._patch(owner, attr, make_wrapper)

    def timed(self, owner, attr, name):
        """Count calls and accumulate their wall time under ``name``."""

        def make_wrapper(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.seconds[name] += perf_counter() - start
                    self.counts[name] += 1
            return wrapper

        self._patch(owner, attr, make_wrapper)

    def total(self, name, parent=None):
        """Summed duration (s) of spans called ``name``, optionally only those
        whose enclosing span is called ``parent``."""
        return sum(end - start for n, start, end, up, _ in self.spans
                   if n == name and (parent is None or (up >= 0 and self.spans[up][0] == parent)))

    def self_time(self, name):
        """Summed duration of ``name`` spans minus the time their child spans cover."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans) if s[0] == name}
        for n, start, end, up, _ in self.spans:
            if up in own:
                own[up] -= end - start
        return sum(own.values())


def instrument(tracer, hespinor):
    """Install every wrapper the per-layer metrics are computed from."""
    cli, verify, operators, angular, radial, spectrum, optimize = (
        hespinor.cli, hespinor.verify, hespinor.operators, hespinor.angular,
        hespinor.radial, hespinor.spectrum, hespinor.optimize)

    def count_checks(t, report):
        t.counts["verify.checks_total"] += len(report.results)
        t.counts["verify.checks_failed"] += sum(not r.passed for r in report.results)

    def count_iterations(t, result):
        t.counts["optimize.iterations"] += result.iterations

    tracer.span(cli, "main", "cli.main")
    tracer.span(verify, "run_all", "verify.run_all", on_result=count_checks)
    for layer in ("clifford", "operators", "angular", "radial", "spectrum"):
        fn = "operator_checks" if layer == "operators" else f"{layer}_checks"
        tracer.span(verify, fn, f"{layer}.checks", section=layer)
    tracer.span(verify, "optimizer_checks", "optimize.checks", section="optimize")
    for fn in ("commutator_residual", "scan_derivative_assignments",
               "component_system_residual", "covariant_form_residual"):
        tracer.span(verify, fn, f"operators.{fn}")
    tracer.span(angular, "separation_residual", "angular.separation_residual")
    tracer.count(operators.SpinorField, "__call__", "field_evals", per_section=True)
    tracer.count(radial, "fundamental_residual", "radial.fundamental_residual")
    tracer.count(spectrum, "closed_form", "spectrum.closed_form")
    tracer.count(optimize, "closed_form", "spectrum.closed_form")
    tracer.timed(spectrum, "equilibrium_point", "spectrum.equilibrium_point")
    tracer.timed(optimize, "equilibrium_point", "spectrum.equilibrium_point")
    tracer.span(spectrum, "energy_consistency_solve", "spectrum.energy_consistency_solve")
    tracer.count(optimize, "delta_e", "optimize.objective_evals")
    tracer.span(optimize, "scan_sigma", "optimize.scan_sigma")
    tracer.span(optimize, "minimize_delta_e", "optimize.minimize_delta_e",
                on_result=count_iterations)


def layer_metrics(tracer, ops):
    """Per-operation layer figures from one traced phase of ``ops`` operations."""
    ms = 1e3 / ops
    calls = tracer.counts
    n_minimize = sum(1 for s in tracer.spans if s[0] == "optimize.minimize_delta_e")
    n_solve = sum(1 for s in tracer.spans if s[0] == "spectrum.energy_consistency_solve")
    n_points = calls["spectrum.equilibrium_point"]
    return {
        "clifford.checks_ms": tracer.total("clifford.checks") * ms,
        "operators.checks_ms": tracer.total("operators.checks") * ms,
        "operators.commutator_ms": tracer.total("operators.commutator_residual") * ms,
        "operators.assignment_scan_ms": tracer.total("operators.scan_derivative_assignments") * ms,
        "operators.expansion_ms": (
            tracer.total("operators.component_system_residual", parent="operators.checks")
            + tracer.total("operators.covariant_form_residual", parent="operators.checks")) * ms,
        "operators.field_evals": calls["operators.field_evals"] / ops,
        "angular.checks_ms": tracer.total("angular.checks") * ms,
        "angular.separation_ms": tracer.total("angular.separation_residual") * ms,
        "angular.field_evals": calls["angular.field_evals"] / ops,
        "radial.checks_ms": tracer.total("radial.checks") * ms,
        "radial.fundamental_residual_calls": calls["radial.fundamental_residual"] / ops,
        "spectrum.checks_ms": tracer.total("spectrum.checks") * ms,
        "spectrum.closed_form_calls": calls["spectrum.closed_form"] / ops,
        "spectrum.equilibrium_point_us": (
            1e6 * tracer.seconds["spectrum.equilibrium_point"] / n_points if n_points else 0.0),
        "spectrum.consistency_solve_ms": (
            1e3 * tracer.total("spectrum.energy_consistency_solve") / n_solve if n_solve else 0.0),
        "optimize.scan_sigma_ms": tracer.total("optimize.scan_sigma") * ms,
        "optimize.minimize_ms": (
            1e3 * tracer.total("optimize.minimize_delta_e") / n_minimize if n_minimize else 0.0),
        "optimize.objective_evals": (
            calls["optimize.objective_evals"] / n_minimize if n_minimize else 0.0),
        "optimize.iterations": calls["optimize.iterations"] / n_minimize if n_minimize else 0.0,
        "verify.checks_total": calls["verify.checks_total"] / ops,
        "verify.checks_failed": calls["verify.checks_failed"] / ops,
        "cli.scan_format_ms": (tracer.self_time("cli.main") * ms
                               if any(s[0] == "optimize.scan_sigma" for s in tracer.spans)
                               else 0.0),
    }
