"""Command-line interface: verify, scan, minimize, ion-limit.

Data output is deterministic (identical configuration gives byte-identical
files) and round-trips binary64 exactly; no timestamps are emitted.  CSV
writes each float as the bytes of ``"%.17g" % x`` (17 significant digits);
JSON goes through ``json.dumps``, which writes the shortest repr that
round-trips.

Exit codes: 0 success, 1 verification failure, 2 usage error (an argparse
error, a ``ParameterError`` from the library call, or an ``--output`` path
that cannot be opened for writing), 3 numeric error (no root /
non-unimodal bracket).  The handlers take the argparse namespace; the
parser holds the only defaults and the library the only checks.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from . import optimize, spectrum, verify
from .operators import FINE_STRUCTURE_ALPHA, ParameterError

SCAN_FIELDS = ("sigma", "delta_e_hartree", "rho0_bohr", "r10_bohr", "r20_bohr")
REFERENCE_DELTA_E = -2.90589      # model ground-state excess energy
EXPERIMENTAL_DELTA_E = -2.90330   # measured helium ground-state excess energy
CSV_CHUNK_ROWS = 8192             # rows encoded and written per step


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# "%.17g" of |x| in [1e-4, 1e16) is fixed notation with 17 significant
# digits; the vectorised encoder below writes exactly those bytes, and every
# other value (exponent notation, +-0, inf, nan, subnormals) goes through "%".
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e16
_VELTKAMP = 2.0 ** 27 + 1
_POW10_F = 10.0 ** np.arange(22)          # exact in binary64 up to 1e22
_POW10_F_HI = _VELTKAMP * _POW10_F - (_VELTKAMP * _POW10_F - _POW10_F)
_POW10_F_LO = _POW10_F - _POW10_F_HI
_POW10 = 10 ** np.arange(18, dtype=np.int64)


@functools.cache  # built on first use, so commands that write no CSV never pay for it
def _quad_tables():
    """ASCII of 0..9999 as four digits (entries 0..9999), then the same with
    trailing zeros turned into NUL (10000..19999), each packed in a uint32,
    and the number of non-NUL bytes of every entry."""
    n = np.arange(10_000)
    full = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + ord("0")
    length = 4 - (n % 10 == 0) - (n % 100 == 0) - (n % 1000 == 0) - (n == 0)
    stripped = np.where(np.arange(4) < length[:, None], full, 0)
    ascii_ = np.concatenate([full, stripped]).astype(np.uint8)
    return ascii_.view(np.uint32).ravel(), np.concatenate([np.full(10_000, 4), length])


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


def _round_scaled(mag, k):
    """mag * 10**k rounded half to even, as int64; exact wherever the result
    is at least 2**53, which covers every result in [10**16, 10**17].

    Dekker's two-product splits the float product p into p + err exactly;
    p is then an even integer, so p + rint(err) is the correctly rounded value.
    """
    p = mag * _POW10_F[k]
    c = _VELTKAMP * mag
    hi = c - (c - mag)
    lo = mag - hi
    b_hi, b_lo = _POW10_F_HI[k], _POW10_F_LO[k]
    err = lo * b_lo - (((p - hi * b_hi) - lo * b_hi) - hi * b_lo)
    return p.astype(np.int64) + np.rint(err).astype(np.int64)


def _split_quads(v, out):
    """The four 4-digit groups of v < 10**16, most significant first, into out[0..3]."""
    hi, lo = np.divmod(v, 10 ** 8)
    np.divmod(hi, 10 ** 4, out=(out[0], out[1]))
    np.divmod(lo, 10 ** 4, out=(out[2], out[3]))


def _fixed_17g(mag, negative):
    """Fixed-notation "%.17g" bytes of ``mag`` (in [_FIXED_MIN, _FIXED_MAX)),
    signed by ``negative``: an (n, width) uint8 array whose non-NUL bytes
    are the text."""
    n = len(mag)
    quad, quad_len = _quad_tables()
    # decimal exponent e and the 17 significant digits.  Within a few ulps of
    # a power of ten floor(log10) can be one off, which puts the digits
    # outside [10**16, 10**17); those rows are redone at e +- 1 from the
    # unrounded value, so no digit is ever rounded twice
    e = np.floor(np.log10(mag)).astype(np.int64)
    digits = _round_scaled(mag, 16 - e)
    redo = (digits < 10 ** 16) | (digits >= 10 ** 17)
    if redo.any():
        e[redo] += np.where(digits[redo] >= 10 ** 17, 1, -1)
        digits[redo] = _round_scaled(mag[redo], 16 - e[redo])

    # split at the decimal point: 16 - e fraction digits (1..20), the fraction
    # left-aligned to 20 digits as five 4-digit groups
    places = 16 - e
    whole, frac = np.divmod(digits, _POW10[np.minimum(places, 17)])
    head, tail = np.divmod(frac, _POW10[np.maximum(places - 4, 0)])
    quads = np.empty((n, 5), np.int64)
    np.multiply(head, _POW10[np.maximum(4 - places, 0)], out=quads[:, 0])
    _split_quads(tail * _POW10[np.minimum(20 - places, 16)], quads[:, 1:].T)
    # the last nonzero group and the zero groups after it drop trailing zeros
    zero_tail = np.ones(n, bool)
    for group in quads.T[::-1]:
        np.add(group, 10_000, out=group, where=zero_tail)
        zero_tail &= group == 10_000
    frac_width = 0
    for j in range(4, -1, -1):  # the last group holding text in any row sets the width
        if (quads[:, j] != 10_000).any():
            frac_width = 4 * j + int(quad_len[quads[:, j]].max())
            break

    sign = int(negative.any())
    whole_width = max(int(e.max()), 0) + 1
    point = sign + whole_width
    text = np.empty((n, point + (frac_width > 0) + frac_width), np.uint8)
    if sign:
        text[:, 0] = np.where(negative, ord("-"), 0)
    if whole_width == 1:
        text[:, sign] = whole + ord("0")
    else:
        whole_quads = np.empty((n, 4), np.int64)
        _split_quads(whole, whole_quads.T)
        text[:, sign:point] = quad[whole_quads].view(np.uint8)[:, 16 - whole_width:]
        text[:, sign:point - 1] *= np.arange(whole_width - 1, 0, -1) <= e[:, None]
    if frac_width:
        text[:, point] = np.where(zero_tail, 0, ord("."))
        text[:, point + 1:] = quad[quads].view(np.uint8)[:, :frac_width]
    return text


def _format_17g(x) -> np.ndarray:
    """The bytes of ``"%.17g" % v`` for each v of the float64 array ``x``: an
    (len(x), width) uint8 array, the text of row i being its non-NUL bytes."""
    mag = np.abs(x)
    fixed = (mag >= _FIXED_MIN) & (mag < _FIXED_MAX)
    if fixed.all():
        return _fixed_17g(mag, x < 0)
    rest = {i: b"%.17g" % x[i] for i in np.flatnonzero(~fixed).tolist()}
    text = _fixed_17g(mag[fixed], x[fixed] < 0) if fixed.any() else np.zeros((0, 0), np.uint8)
    out = np.zeros((len(x), max(text.shape[1], *map(len, rest.values()))), np.uint8)
    out[fixed, :text.shape[1]] = text
    for i, chars in rest.items():
        out[i, :len(chars)] = np.frombuffer(chars, np.uint8)
    return out


def _write_csv(columns, fields, stream):
    """A header line, then one line per row of the float64 ``columns``,
    encoded and written CSV_CHUNK_ROWS rows at a time."""
    stream.write(",".join(fields) + "\n")
    rows = len(columns[0])
    for start in range(0, rows, CSV_CHUNK_ROWS):
        stop = min(start + CSV_CHUNK_ROWS, rows)
        parts = []
        for column in columns:
            parts += [_format_17g(column[start:stop]), np.full((stop - start, 1), ord(","), np.uint8)]
        parts[-1][:] = ord("\n")
        stream.write(np.concatenate(parts, axis=1).tobytes().translate(None, b"\0").decode("ascii"))


def _write_json(columns, fields, stream):
    """``json.dumps(rows, indent=2) + "\\n"`` for at least one row, CSV_CHUNK_ROWS
    rows at a time: each chunk's list without its brackets, joined by commas."""
    for start in range(0, len(columns[0]), CSV_CHUNK_ROWS):
        rows = zip(*(column[start:start + CSV_CHUNK_ROWS] for column in columns))
        text = json.dumps([dict(zip(fields, row)) for row in rows], indent=2)
        stream.write(("[\n" if start == 0 else ",\n") + text[2:-2])
    stream.write("\n]\n")


def _write_table(columns, fields, fmt: str, output: str):
    with _data_stream(output) as stream:
        (_write_csv if fmt == "csv" else _write_json)(columns, fields, stream)


def cmd_verify(args) -> int:
    report = verify.run_all(fast=args.fast)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def cmd_scan(args) -> int:
    table = optimize.scan_sigma(args.sigma_min, args.sigma_max, args.points,
                                alpha=args.alpha, j1=args.j1, j2=args.j2)
    _write_table((table.sigma, table.delta_e, table.rho0, table.r10, table.r20),
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
        text = json.dumps(record, indent=2) + "\n"
    else:
        lines = [f"{k} = {_fmt(v) if not isinstance(v, int) else v}" for k, v in record.items()]
        text = "\n".join(lines) + "\n"
    with _data_stream(args.output) as stream:
        stream.write(text)
    _print_minimize_summary(record)
    return 0


def _print_minimize_summary(record):
    print(f"reference excess energy {REFERENCE_DELTA_E}: "
          f"deviation {abs(record['delta_e_hartree'] - REFERENCE_DELTA_E):.2e}")
    dev_exp = abs(record["delta_e_hartree"] - EXPERIMENTAL_DELTA_E)
    rel = dev_exp / abs(EXPERIMENTAL_DELTA_E)
    print(f"experimental excess energy {EXPERIMENTAL_DELTA_E}: "
          f"deviation {dev_exp:.4f} ({100 * rel:.3f}%)")


def cmd_ion_limit(args) -> int:
    rows = optimize.ion_limit_report(args.sigmas, alpha=args.alpha, j1=args.j1, j2=args.j2)
    _write_table(np.array(rows).T, ("sigma", "delta_e_hartree"), args.fmt, args.output)
    if args.output:
        print(f"limit value {_fmt(spectrum.ion_limit(args.alpha, args.j1))}")
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
