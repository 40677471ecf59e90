"""Command-line interface: verify, scan, minimize, ion-limit.

Stdout, or the ``--output`` file, holds only data; summary lines (minimize's
deviations from the reference and experimental energies, ion-limit's limit
value) go to stderr.  Data output is deterministic (identical configuration
gives byte-identical files) and round-trips binary64 exactly; no timestamps
are emitted.  CSV writes each float as the bytes of ``"%.17g" % x`` (17
significant digits); JSON goes through ``json.dumps``, which writes the
shortest repr that round-trips.

Exit codes: 0 success, 1 verification failure, 2 usage error (an argparse
error, a ``ParameterError`` from the library call, or an ``--output`` path
that cannot be opened for writing), 3 numeric error (no root /
non-unimodal bracket).  The handlers take the argparse namespace; the
parser holds the only defaults and the library the only checks.
"""

import argparse
import contextlib
import os
import sys

from . import optimize, spectrum
from .model import FINE_STRUCTURE_ALPHA, ParameterError

SCAN_FIELDS = ("sigma", "delta_e_hartree", "rho0_bohr", "r10_bohr", "r20_bohr")
REFERENCE_DELTA_E = -2.90589      # model ground-state excess energy
EXPERIMENTAL_DELTA_E = -2.90330   # measured helium ground-state excess energy


@contextlib.contextmanager
def _data_stream(output: str):
    """The text stream a command's data goes to: the ``--output`` file, else stdout."""
    if not output:
        yield sys.stdout
        return
    try:
        fh = open(output, "w", encoding="utf-8")
    except OSError as exc:
        raise ParameterError(f"output = {output!r}: {exc.strerror}") from exc
    with fh:
        yield fh


def _write_csv(chunks, fields, stream):
    """A header line, then one line per row of each chunk of float64 columns,
    each chunk encoded and written as it arrives."""
    import numpy as np

    from .csv17g import _format_17g

    stream.write(",".join(fields) + "\n")
    for columns in chunks:
        parts = []
        for column in columns:
            parts += [_format_17g(column), np.full((len(column), 1), ord(","), np.uint8)]
        parts[-1][:] = ord("\n")
        # ``text`` lives on until the next chunk's replaces it.  Freed at once, it
        # left glibc's heap top empty after each chunk, the top was trimmed and the
        # next chunk faulted its pages back in: about 4400 minor faults per warm
        # 1e5-row scan, against 1400-2200 this way (Linux, CPython 3.11)
        text = np.concatenate(parts, axis=1).tobytes().replace(b"\0", b"").decode("ascii")
        stream.write(text)


def _write_json(chunks, fields, stream):
    """``json.dumps(rows, indent=2) + "\\n"`` of all rows, at least one, written
    chunk by chunk: each chunk's list without its brackets, joined by commas."""
    import json

    separator = "[\n"
    for columns in chunks:
        text = json.dumps([dict(zip(fields, row)) for row in zip(*columns)], indent=2)
        stream.write(separator + text[2:-2])
        separator = ",\n"
    stream.write("\n]\n")


def _write_table(chunks, fields, fmt: str, output: str):
    with _data_stream(output) as stream:
        (_write_csv if fmt == "csv" else _write_json)(chunks, fields, stream)


def cmd_verify(args) -> int:
    from . import verify

    report = verify.run_all(fast=args.fast)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_scan(args) -> int:
    chunks = optimize.scan_sigma(args.sigma_min, args.sigma_max, args.points,
                                 alpha=args.alpha, j1=args.j1, j2=args.j2)
    _write_table(((t.sigma, t.delta_e, t.rho0, t.r10, t.r20) for t in chunks),
                 SCAN_FIELDS, args.fmt, args.output)
    return 0


def cmd_minimize(args) -> int:
    result = optimize.minimize_delta_e(
        (args.sigma_min, args.sigma_max), tol=args.tol,
        alpha=args.alpha, j1=args.j1, j2=args.j2)
    pt = result.point
    record = {
        "sigma0": pt.sigma,
        "delta_e_hartree": pt.delta_e,
        "rho0_bohr": pt.rho0,
        "r10_bohr": pt.r10,
        "r20_bohr": pt.r20,
        "iterations": result.iterations,
    }
    if args.fmt == "json":
        import json

        text = json.dumps(record, indent=2) + "\n"
    else:
        lines = [f"{k} = {v:.17g}" for k, v in record.items()]
        text = "\n".join(lines) + "\n"
    with _data_stream(args.output) as stream:
        stream.write(text)
    _print_minimize_summary(record)
    return 0


def _print_minimize_summary(record):
    print(f"reference excess energy {REFERENCE_DELTA_E}: "
          f"deviation {abs(record['delta_e_hartree'] - REFERENCE_DELTA_E):.2e}", file=sys.stderr)
    dev_exp = abs(record["delta_e_hartree"] - EXPERIMENTAL_DELTA_E)
    rel = dev_exp / abs(EXPERIMENTAL_DELTA_E)
    print(f"experimental excess energy {EXPERIMENTAL_DELTA_E}: "
          f"deviation {dev_exp:.4f} ({100 * rel:.3f}%)", file=sys.stderr)


def cmd_ion_limit(args) -> int:
    columns = optimize.ion_limit_report(args.sigmas, alpha=args.alpha, j1=args.j1, j2=args.j2)
    _write_table((columns,), ("sigma", "delta_e_hartree"), args.fmt, args.output)
    print(f"limit value {spectrum.ion_limit(args.alpha, args.j1):.17g}", file=sys.stderr)
    return 0


def sigma_list(text: str) -> tuple:
    """argparse type of ``--sigmas``: comma-separated floats, empty tokens skipped."""
    return tuple(float(tok) for tok in text.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hespinor",
        description="Four-spinor two-electron model: verification, sigma scans and "
                    "ground-state minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_physics(p):
        p.add_argument("--alpha", type=float, default=FINE_STRUCTURE_ALPHA,
                       help="fine-structure constant (default CODATA)")
        p.add_argument("--j1", type=float, default=1.0, help="inner-electron quantum number")
        p.add_argument("--j2", type=float, default=1.0, help="outer-electron quantum number")

    def add_output(p):
        p.add_argument("--output", default="", help="write data to this path instead of stdout")
        p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")

    # no physics flags: the battery runs at its own fixed constants
    p = sub.add_parser("verify", help="run the full identity-check battery")
    p.add_argument("--fast", action="store_true", help="skip the operator and angular batteries")

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
    p.add_argument("--sigmas", type=sigma_list, default="0.01,0.001,0.0001",
                   help="comma-separated sigma sequence")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage error, 0 on --help
        return int(exc.code or 0)
    handlers = {"verify": cmd_verify, "scan": cmd_scan,
                "minimize": cmd_minimize, "ion-limit": cmd_ion_limit}
    try:
        return handlers[args.command](args)
    except ParameterError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


def entry():
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early (``hespinor scan | head``): drop the rest of
        # the data quietly, including what the interpreter would flush at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    entry()
