"""hespinor benchmark: three closed-loop workloads checked against a 50-digit oracle.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; hespinor is imported from ``src/``.
Workloads (see README.md for the reasons behind each):

  verify-full         repeated full ``hespinor verify`` batteries
  scan-dense          ``hespinor scan`` of 1e5 sigma points written as CSV
  ground-state-sweep  minimize_delta_e + consistency cross-check over
                      (alpha, j1, j2, bracket)

With ``--trace 0`` the last line reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics; both report the operations attempted
and failed.  The lines before it name the environment and the figures of
the workload under their own names.  Raw results, and the spans of a traced
run, are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread in every process the benchmark starts, so that timings
# measure the program rather than the thread scheduler.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

SETUP_SAMPLES = 3  # fresh interpreters before the workload, and as many after it
IMPORT_REPEATS = 5
SETUP_CODE = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
              "import hespinor.cli; hespinor.cli.build_parser(); "
              "print(time.perf_counter() - t)")
IMPORT_CODE = "import sys; sys.path.insert(0, 'src'); import hespinor.spectrum"

SCAN_POINTS = 100_000
SCAN_SAMPLE = 1000
SCAN_HEADER = "sigma,delta_e_hartree,rho0_bohr,r10_bohr,r20_bohr"
SWEEP_J = (1.0, 1.5, 2.0)
SWEEP_BRACKETS = ((0.05, 0.5), (0.01, 0.99))
SWEEP_SEEDED_ALPHAS = 3
SWEEP_ALPHA_MAX = 0.1
SOLVE_TOL = 1e-6

# Pass/fail limits of one output against the oracle.  Values are compared on
# the scale max(|reference|, 1) in atomic units (Hartree, Bohr), so that the
# excess energy is judged in absolute terms where it crosses zero.
VALUE_TOL = 1e-10
ENERGY_TOL = 1e-12   # relative, total energy of the closed form and of the root-finder
SIGMA0_TOL = SOLVE_TOL

# Reference values quoted by the source paper, to their quoted digits.
PAPER = {"sigma0": (0.1771, 4), "delta_e": (-2.9059, 4),
         "r10": (0.130, 3), "r20": (0.735, 3), "rho0": (0.865, 3)}
# Global minimum at CODATA alpha, j1 = j2 = 1, used to test the oracle itself.
ORACLE_SIGMA0 = 0.17711646742155152


def reproduces_paper(**values):
    return all(abs(values[k] - ref) <= 0.5 * 10.0 ** -digits
               for k, (ref, digits) in PAPER.items())


def make_inputs(workload, seed):
    rng = random.Random(seed)
    if workload == "verify-full":
        return {}  # the battery's inputs are fixed by its own internal seeds
    if workload == "scan-dense":
        return {"sigma_min": rng.uniform(0.001, 0.05), "sigma_max": rng.uniform(0.6, 1.0),
                "points": SCAN_POINTS,
                "sample": sorted(rng.sample(range(SCAN_POINTS), SCAN_SAMPLE))}
    alphas = ["codata"] + [rng.uniform(0.0073, SWEEP_ALPHA_MAX) for _ in range(SWEEP_SEEDED_ALPHAS)]
    configs = [{"alpha": a, "j1": j1, "j2": j2, "bracket": list(b)}
               for a in alphas for j1 in SWEEP_J for j2 in SWEEP_J for b in SWEEP_BRACKETS]
    rng.shuffle(configs)
    return {"configs": configs, "tol": SOLVE_TOL}


def environment(worker_out):
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=False).stdout.strip() or sha
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16],
            "python": worker_out["python"], "numpy": worker_out["numpy"],
            "scipy": worker_out["scipy"], "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"]}


def _python(args, timeout):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=True)


def setup_times(n):
    """Seconds to import hespinor.cli and build its parser, in n fresh interpreters."""
    return [float(_python(["-c", SETUP_CODE], 60).stdout) for _ in range(n)]


def measure_spectrum_import():
    """Median cumulative import time (ms) of hespinor.spectrum, from -X importtime."""
    times = []
    for _ in range(IMPORT_REPEATS):
        stderr = _python(["-X", "importtime", "-c", IMPORT_CODE], 60).stderr
        match = re.search(r"^import time:\s+\d+ \|\s+(\d+) \| hespinor\.spectrum$", stderr, re.M)
        times.append(int(match.group(1)) / 1e3)
    return statistics.median(times)


def run_worker(workload, seed, seconds, trace, inputs):
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        spec, out = work / "spec.json", work / "out.json"
        spec.write_text(json.dumps({"workload": workload, "seconds": seconds, "trace": trace,
                                    "inputs": inputs, "work_dir": str(work)}))
        _python([str(HERE / "worker.py"), str(spec), str(out)], seconds + 100)
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def scaled_error(value, reference):
    return float(abs(value - reference) / max(abs(reference), 1))


# --- checks against the oracle: each returns (attempted, failed, correct, figures)

def check_verify(results, reference):
    attempted = failed = 0
    correct = bool(results["outputs"])
    figures = {"output_bytes": 0}
    sigma_star, de_star = reference
    for rc, text, n in results["outputs"]:
        attempted += n
        lines = text.splitlines()
        summary = re.fullmatch(r"(\d+)/(\d+) checks passed", lines[-1]) if lines else None
        if not summary:
            correct = False
            failed += n
            continue
        passed, total = map(int, summary.groups())
        if rc != 0 or passed != total or total != len(lines) - 1 or "[FAIL]" in text:
            failed += n
        notes = dict(re.findall(r"-- (sigma0|delta_e|r10|r20|rho0) = (-?[\d.]+)$", text, re.M))
        if len(notes) != len(PAPER):
            correct = False
            continue
        v = {k: float(x) for k, x in notes.items()}
        correct &= reproduces_paper(**v)
        # printed to 6 decimals: rounding plus the minimizer's tolerance
        correct &= abs(v["sigma0"] - float(sigma_star)) <= 5e-7 + SOLVE_TOL
        correct &= abs(v["delta_e"] - float(de_star)) <= 5e-7 + 1e-9
        figures["output_bytes"] = len(text.encode())
    return attempted, failed, correct, figures


def check_scan(results, inputs, alpha, oracle):
    first, digests = results["first"], results["digests"]
    scans = sum(digests.values())
    attempted = scans * len(inputs["sample"])
    if first is None:
        return attempted, attempted, False, {"max_err": 0.0, "output_bytes": 0}
    lo, hi, n = inputs["sigma_min"], inputs["sigma_max"], inputs["points"]
    bad_rows, worst = 0, 0.0
    for i, sigma, *values in first["sampled"]:
        on_grid = abs(sigma - (lo + (hi - lo) * i / (n - 1))) <= 1e-14
        errors = [scaled_error(v, r) for v, r in zip(values, oracle.point(sigma, alpha))]
        worst = max([worst, *errors])
        bad_rows += not (on_grid and max(errors) <= VALUE_TOL)
    failed = sum(len(inputs["sample"]) * k for d, k in digests.items() if d != first["digest"])
    failed += bad_rows * digests[first["digest"]]
    _, sigma, de, rho0, r10, r20 = first["argmin"]
    correct = (first["header"] == SCAN_HEADER and first["rows"] == n
               and len(first["sampled"]) == len(inputs["sample"])
               and reproduces_paper(sigma0=sigma, delta_e=de, r10=r10, r20=r20, rho0=rho0))
    return attempted, failed, correct, {"max_err": worst, "output_bytes": first["bytes"]}


def check_sweep(results, oracle):
    attempted = failed = 0
    correct = True
    worst_sigma = worst_value = 0.0
    for c in results["configs"]:
        attempted += c["runs"]
        res = c["result"]
        if c["runs"] == 0 or res is None:
            correct = False
            continue
        if res[0] == "raised":
            failed += c["runs"]
            continue
        sigma0, de, rho0, r10, r20, energy, e_root = res
        sigma_star, _ = oracle.global_minimum(*c["bracket"], c["alpha"], c["j1"], c["j2"])
        ref = oracle.point(sigma0, c["alpha"], c["j1"], c["j2"])
        e_ref = 1 + sigma0 + c["alpha"] ** 2 * ref[0]
        sigma_err = float(abs(sigma0 - sigma_star))
        value_err = max(scaled_error(v, r) for v, r in zip((de, rho0, r10, r20), ref))
        energy_err = max(float(abs(e - e_ref) / e_ref) for e in (energy, e_root))
        if sigma_err <= SIGMA0_TOL and value_err <= VALUE_TOL and energy_err <= ENERGY_TOL:
            failed += c["mismatched"]
            worst_sigma = max(worst_sigma, sigma_err)
            worst_value = max(worst_value, value_err)
        else:
            failed += c["runs"]
        if c["alpha"] == results["alpha_codata"] and (c["j1"], c["j2"]) == (1.0, 1.0) \
                and c["bracket"] == [0.05, 0.5]:
            correct &= reproduces_paper(sigma0=sigma0, delta_e=de, r10=r10, r20=r20, rho0=rho0)
    return attempted, failed, correct, {"sigma0_max_abs_err": worst_sigma,
                                        "max_err": worst_value}


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-full", "scan-dense", "ground-state-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hespinor" / "__init__.py").is_file():
        print(f"no hespinor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)

    inputs = make_inputs(args.workload, args.seed)
    setup_s = import_ms = None
    if args.trace:
        import_ms = measure_spectrum_import()
        worker = run_worker(args.workload, args.seed, args.seconds, args.trace, inputs)
    else:
        # samples on both sides of the workload, so that the median spans the
        # run rather than a few seconds of it; the first interpreter only
        # compiles the bytecode
        setups = setup_times(1 + SETUP_SAMPLES)[1:]
        worker = run_worker(args.workload, args.seed, args.seconds, args.trace, inputs)
        setup_s = statistics.median(setups + setup_times(SETUP_SAMPLES))

    import oracle  # mpmath is imported only here, after every timed region

    alpha = worker["alpha_codata"]
    reference = oracle.global_minimum(0.05, 0.5, alpha)
    if abs(float(reference[0]) - ORACLE_SIGMA0) > 1e-16:
        raise RuntimeError(f"oracle self-test: sigma0 {reference[0]} != {ORACLE_SIGMA0}")
    results = dict(worker["results"], alpha_codata=alpha)
    if args.workload == "verify-full":
        attempted, failed, correct, fig = check_verify(results, reference)
    elif args.workload == "scan-dense":
        attempted, failed, correct, fig = check_scan(results, inputs, alpha, oracle)
    else:
        attempted, failed, correct, fig = check_sweep(results, oracle)

    lat_ms = [1e3 * t for t in worker["latencies"]]
    rel = worker["relative"]
    p50, p99 = statistics.median(lat_ms), percentile(lat_ms, 99)
    peak_mb = worker["peak_rss_kb"] / 1024
    env = environment(worker)
    print("env " + json.dumps(env))
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"),
             "op_p50_probes": (statistics.median(rel), "1")}
    if args.workload == "verify-full":
        named["verify_s"] = (p50 / 1e3, "s")
    elif args.workload == "scan-dense":
        named["scan_rows_per_s"] = (inputs["points"] / (p50 / 1e3), "1/s")
        named["scan_max_rel_err"] = (fig["max_err"], "1")
    else:
        named["solve_p50_ms"] = (p50, "ms")
        named["solve_p99_ms"] = (p99, "ms")
        named["op_p99_probes"] = (percentile(rel, 99), "1")
        named["sigma0_max_abs_err"] = (fig["sigma0_max_abs_err"], "1")
    for name, (value, unit) in named.items():
        if value is not None:
            print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} operations: {len(lat_ms)} timed, {attempted} checked, "
          f"{failed} failed")

    if args.trace:
        values = dict(worker["layers"])
        values.update({
            "spectrum.import_ms": import_ms,
            "spectrum.max_err": fig.get("max_err", 0.0),
            "optimize.sigma0_max_abs_err": fig.get("sigma0_max_abs_err", 0.0),
            "cli.output_bytes": fig.get("output_bytes", 0),
            "trace.overhead_pct": 100 * (statistics.median(worker["traced_relative"])
                                         / statistics.median(rel) - 1),
        })
    else:
        values = {k: v for k, (v, _) in named.items()}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}

    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "inputs": inputs, "metrics": metrics,
              "named": named, "spans": worker.get("spans", [])}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
