"""Command-line interface: verify, scan, minimize, ion-limit.

Data output is deterministic (identical configuration gives byte-identical
files): floats are written with 17 significant digits, which round-trips
binary64 exactly, and no timestamps are emitted.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numeric
error (no root / non-unimodal bracket).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import clifford, optimize, spectrum, verify
from .operators import FINE_STRUCTURE_ALPHA

SCAN_FIELDS = ("sigma", "delta_e_hartree", "rho0_bohr", "r10_bohr", "r20_bohr")
REFERENCE_DELTA_E = -2.90589      # model ground-state excess energy
EXPERIMENTAL_DELTA_E = -2.90330   # measured helium ground-state excess energy


@dataclass(frozen=True)
class RunConfig:
    command: str
    alpha: float
    m: float
    j1: float
    j2: float
    sigma_min: float = 0.01
    sigma_max: float = 0.5
    points: int = 100
    tol: float = 1e-6
    output: str = ""
    fmt: str = "csv"
    sigmas: tuple = (1e-2, 1e-3, 1e-4)
    fast: bool = False
    inject_gamma_fault: bool = False

    def __post_init__(self):
        # the library's parameter checks, before any numeric work: a bad value exits 2
        if self.command == "scan":
            optimize.ScanConfig(self.sigma_min, self.sigma_max, self.points,
                                self.j1, self.j2, self.alpha, self.m)
        sigmas = {"minimize": (self.sigma_min, self.sigma_max), "ion-limit": self.sigmas}
        optimize.check_parameters(self.alpha, self.m, self.j1, self.j2,
                                  sigmas.get(self.command, ()),
                                  self.tol if self.command == "minimize" else None)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit(text: str, output: str):
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rows_to_csv(rows, fields) -> str:
    lines = [",".join(fields)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _rows_to_json(rows, fields) -> str:
    return json.dumps([dict(zip(fields, row)) for row in rows], indent=2) + "\n"


def _rows_to_text(rows, fields, fmt: str) -> str:
    return _rows_to_csv(rows, fields) if fmt == "csv" else _rows_to_json(rows, fields)


def cmd_verify(config: RunConfig) -> int:
    override = None
    if config.inject_gamma_fault:
        bad = clifford.gamma(1)
        bad[0, 3] = -bad[0, 3]  # flip one sign; the report must name the pair
        override = {1: bad}
    report = verify.run_all(gamma_override=override, fast=config.fast)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _scan_rows(config: RunConfig):
    scan = optimize.scan_sigma(optimize.ScanConfig(
        sigma_min=config.sigma_min, sigma_max=config.sigma_max, n_points=config.points,
        j1=config.j1, j2=config.j2, alpha=config.alpha, m=config.m))
    return [(p.sigma, p.delta_e, p.rho0, p.r10, p.r20) for p in scan]


def cmd_scan(config: RunConfig) -> int:
    _emit(_rows_to_text(_scan_rows(config), SCAN_FIELDS, config.fmt), config.output)
    return 0


def cmd_minimize(config: RunConfig) -> int:
    result = optimize.minimize_delta_e(
        (config.sigma_min, config.sigma_max), tol=config.tol,
        alpha=config.alpha, m=config.m, j1=config.j1, j2=config.j2)
    pt = result.point
    record = {
        "sigma0": pt.sigma,
        "delta_e_hartree": pt.delta_e,
        "rho0_bohr": pt.rho0,
        "r10_bohr": pt.r10,
        "r20_bohr": pt.r20,
        "iterations": result.iterations,
    }
    if config.fmt == "json":
        text = json.dumps({k: (v if isinstance(v, int) else float(_fmt(v)))
                           for k, v in record.items()}, indent=2) + "\n"
    else:
        lines = [f"{k} = {_fmt(v) if not isinstance(v, int) else v}" for k, v in record.items()]
        text = "\n".join(lines) + "\n"
    _emit(text, config.output)
    _print_minimize_summary(record)
    return 0


def _print_minimize_summary(record):
    print(f"reference excess energy {REFERENCE_DELTA_E}: "
          f"deviation {abs(record['delta_e_hartree'] - REFERENCE_DELTA_E):.2e}")
    dev_exp = abs(record["delta_e_hartree"] - EXPERIMENTAL_DELTA_E)
    rel = dev_exp / abs(EXPERIMENTAL_DELTA_E)
    print(f"experimental excess energy {EXPERIMENTAL_DELTA_E}: "
          f"deviation {dev_exp:.4f} ({100 * rel:.3f}%)")


def cmd_ion_limit(config: RunConfig) -> int:
    rows = optimize.ion_limit_report(config.sigmas, alpha=config.alpha, m=config.m,
                                     j1=config.j1, j2=config.j2)
    _emit(_rows_to_text(rows, ("sigma", "delta_e_hartree"), config.fmt), config.output)
    if config.output:
        print(f"limit value {_fmt(spectrum.ion_limit(config.alpha, config.j1))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hespinor",
        description="Four-spinor two-electron model: verification, sigma scans and "
                    "ground-state minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_physics(p):
        p.add_argument("--alpha", type=float, default=FINE_STRUCTURE_ALPHA,
                       help="fine-structure constant (default CODATA)")
        p.add_argument("--mass", type=float, default=1.0, help="electron mass, natural units")
        p.add_argument("--j1", type=float, default=1.0, help="inner-electron quantum number")
        p.add_argument("--j2", type=float, default=1.0, help="outer-electron quantum number")

    def add_output(p):
        p.add_argument("--output", default="", help="write data to this path instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", help="run the full identity-check battery")
    add_physics(p)
    p.add_argument("--fast", action="store_true", help="skip the operator and angular batteries")
    p.add_argument("--inject-gamma-fault", action="store_true",
                   help="flip one gamma-table sign (self-test of failure reporting)")

    p = sub.add_parser("scan", help="tabulate excess energy and geometry over sigma")
    add_physics(p)
    add_output(p)
    p.add_argument("--sigma-min", type=float, default=0.01)
    p.add_argument("--sigma-max", type=float, default=0.5)
    p.add_argument("--points", type=int, default=100)

    p = sub.add_parser("minimize", help="locate the equilibrium configuration")
    add_physics(p)
    add_output(p)
    p.add_argument("--sigma-min", type=float, default=0.05)
    p.add_argument("--sigma-max", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("ion-limit", help="excess energy along a sigma -> 0 sequence")
    add_physics(p)
    add_output(p)
    p.add_argument("--sigmas", default="0.01,0.001,0.0001",
                   help="comma-separated sigma sequence")
    return parser


def _config_from_args(args) -> RunConfig:
    kwargs = dict(command=args.command, alpha=args.alpha, m=args.mass,
                  j1=args.j1, j2=args.j2)
    for name in ("sigma_min", "sigma_max", "points", "tol", "output", "fmt",
                 "fast", "inject_gamma_fault"):
        if hasattr(args, name):
            kwargs[name] = getattr(args, name)
    if hasattr(args, "sigmas"):
        kwargs["sigmas"] = tuple(float(tok) for tok in args.sigmas.split(",") if tok)
    return RunConfig(**kwargs)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on --help
        return int(exc.code or 0)
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    handlers = {"verify": cmd_verify, "scan": cmd_scan,
                "minimize": cmd_minimize, "ion-limit": cmd_ion_limit}
    try:
        return handlers[config.command](config)
    except (optimize.NonUnimodalError, spectrum.NoRootInBracketError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
