import errno
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hespinor import cli, clifford, csv17g, optimize, spectrum
from hespinor.model import J_MAX, SIGMA_MIN


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_output(got, want):
    """got == want for two outputs, str or bytes, a failure naming the first line
    that differs: pytest's diff of two large outputs runs for minutes."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, pair in enumerate(zip(got_lines, want_lines)) if pair[0] != pair[1]),
             min(len(got_lines), len(want_lines)))
    raise AssertionError(f"{len(got_lines)} lines, expected {len(want_lines)}; line {i + 1} "
                         f"differs: {got_lines[i:i + 1]!r} != {want_lines[i:i + 1]!r}")


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
    assert_same_output(paths[0].read_bytes(), paths[1].read_bytes())


def test_scan_csv_round_trips_exactly(tmp_path, capsys):
    from hespinor import optimize
    path = tmp_path / "scan.csv"
    assert cli.main(["scan", "--sigma-min", "0.05", "--sigma-max", "0.4",
                     "--points", "23", "--output", str(path)]) == 0
    (table,) = optimize.scan_sigma(0.05, 0.4, 23)  # 23 rows: one chunk
    lines = path.read_text().strip().split("\n")[1:]
    assert len(lines) == len(table.sigma) == 23
    for i, line in enumerate(lines):
        parsed = [float(tok) for tok in line.split(",")]
        assert parsed == [table.sigma[i], table.delta_e[i], table.rho0[i],
                          table.r10[i], table.r20[i]]


def _reference_scan_csv(lo, hi, n, **physics):
    # independent rendering: the closed form on the grid, one f"{x:.17g}" per value
    table = spectrum.equilibrium_point(np.linspace(lo, hi, n), **physics)
    columns = [table.sigma, table.delta_e, table.rho0, table.r10, table.r20]
    lines = ["sigma,delta_e_hartree,rho0_bohr,r10_bohr,r20_bohr"]
    lines += [",".join(f"{float(x):.17g}" for x in row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


# delta_e changes sign near sigma = 0.3858, and the rows next to the crossing
# that fall below 1e-4 are where "%.17g" switches to exponent notation; 8191
# to 16385 rows sit on the edges of the scan's 8192-row chunks; at j1 = 3, j2 = 40
# on [1e-6, 1], 12 of the 65 column-chunks hold more than one decimal exponent and
# the 10 smallest sigmas print in exponent notation
@pytest.mark.parametrize("lo, hi, n, below_1e4, physics", [
    (0.05, 0.4, 23, 0, {}), (0.05, 0.4, 2000, 0, {}), (0.05, 0.4, 8191, 1, {}),
    (0.05, 0.4, 8192, 1, {}), (0.05, 0.4, 8193, 1, {}), (0.05, 0.4, 16385, 1, {}),
    (0.01, 0.9, 100000, 2, {}), (1e-6, 1.0, 100000, 0, {"j1": 3.0, "j2": 40.0}),
], ids=["23", "2000", "8191", "8192", "8193", "16385", "100000", "100000-j1=3-j2=40"])
def test_scan_bytes_pinned_to_per_value_rendering(tmp_path, capsys, lo, hi, n, below_1e4,
                                                  physics):
    argv = ["scan", "--sigma-min", repr(lo), "--sigma-max", repr(hi), "--points", str(n)]
    argv += [arg for name, value in physics.items() for arg in (f"--{name}", repr(value))]
    path = tmp_path / "scan.csv"
    assert cli.main([*argv, "--output", str(path)]) == 0
    assert_same_output(path.read_bytes(), _reference_scan_csv(lo, hi, n, **physics))
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert_same_output(out.encode(), path.read_bytes())
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    table = spectrum.equilibrium_point(np.linspace(lo, hi, n), **physics)
    expected = [[float(x) for x in row]
                for row in zip(table.sigma, table.delta_e, table.rho0, table.r10, table.r20)]
    assert [list(record.values()) for record in json.loads(out)] == expected
    assert np.count_nonzero(np.abs(table.delta_e) < 1e-4) == below_1e4


@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
def test_ion_limit_csv_pinned_to_per_value_rendering(tmp_path, capsys, to_file):
    sigmas = [1e-155, SIGMA_MIN, 1e-9, 0.0001]
    lines = ["sigma,delta_e_hartree"]
    lines += [f"{s:.17g},{d:.17g}" for s, d in zip(*optimize.ion_limit_report(sigmas))]
    expected = "\n".join(lines) + "\n"
    path = tmp_path / "ion.csv"
    argv = ["ion-limit", "--sigmas", ",".join(map(repr, sigmas))]
    code, out, _ = run(capsys, *argv, *(["--output", str(path)] if to_file else []))
    assert code == 0
    assert (path.read_text() if to_file else out) == expected


def _csv_via_encoder(columns):
    stream = io.StringIO()
    csv17g.write_csv([[np.array(c, dtype=np.float64) for c in columns]], ["a", "b"], stream)
    return stream.getvalue()


def _csv_per_value(columns):
    return "a,b\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(*columns))


def _exact_ties():
    # m / 2**(k+1) with m odd lies halfway between two 17-digit decimals at
    # 10**-k; one per k whose "%.17g" is fixed notation (1e-4 <= x < 1e16)
    ties = []
    for k in range(1, 21):
        m = (math.ceil(Fraction(10) ** (16 - k) * 2 ** (k + 1)) + 12345) | 1
        tie = m / 2 ** (k + 1)
        assert Fraction(tie) * 10 ** k % 1 == Fraction(1, 2)
        ties.append(tie)
    return ties


def _edge_values():
    values = [0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, sys.float_info.max,
              1e-4, 1e16, 1.0, 100.0, 1000000000000001.0, 1234567890123456.0, 0.1, 0.5,
              1 + 2 ** -17]
    for k in range(-5, 18):
        p = float(f"1e{k}")
        values += [math.nextafter(p, 0.0), p, math.nextafter(p, math.inf)]
    values += [math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), *_exact_ties()]
    return values + [-v for v in values]


def test_encoder_tie_rounds_half_to_even():
    assert _csv_via_encoder([[1 + 2 ** -17], [-(1 + 2 ** -17)]]) == \
        "a,b\n1.0000076293945312,-1.0000076293945312\n"


def test_encoder_edge_table_equals_percent_17g():
    # runs with RuntimeWarning as an error (pyproject): log10 never sees 0, inf or nan
    values = _edge_values()
    assert _csv_via_encoder([values, values[::-1]]) == _csv_per_value([values, values[::-1]])
    # every value alone, so a row never borrows its width or layout from others
    for v in values:
        assert _csv_via_encoder([[v], [v]]) == _csv_per_value([[v], [v]]), v


def test_encoder_equals_percent_17g_on_any_float():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                         allow_subnormal=True), min_size=1, max_size=64))
    def check(values):
        assert _csv_via_encoder([values, values[::-1]]) == _csv_per_value([values, values[::-1]])

    check()


def _csv_via_stream(values, stream):
    # the columns values and values[::-1], split into the scan's chunks
    columns = [np.array(values, dtype=np.float64), np.array(values[::-1], dtype=np.float64)]
    rows = optimize.SCAN_CHUNK_ROWS
    chunks = [[c[i:i + rows] for c in columns] for i in range(0, len(values), rows)]
    csv17g.write_csv(chunks, ["a", "b"], stream)
    stream.flush()
    return stream.getvalue() if isinstance(stream, io.StringIO) else stream.buffer.getvalue().decode()


_FIXED_EDGES = [v for v in _edge_values() if 1e-4 <= abs(v) < 1e16]


def test_encoder_equals_percent_17g_on_fixed_notation_floats():
    # every value takes the vectorised path; up to three chunks, and the
    # exponents inside a chunk mixed
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    magnitude = st.floats(min_value=1e-4, max_value=1e16, exclude_max=True)
    signed = st.one_of(magnitude, magnitude.map(lambda v: -v))

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 2 * optimize.SCAN_CHUNK_ROWS + 1),
                      st.lists(signed, min_size=1, max_size=64))
    @hypothesis.example(len(_FIXED_EDGES), _FIXED_EDGES)
    @hypothesis.example(2 * optimize.SCAN_CHUNK_ROWS + 1, _FIXED_EDGES)
    def check(n, pool):
        values = [pool[i % len(pool)] for i in range(n)]
        expected = _csv_per_value([values, values[::-1]])
        assert_same_output(_csv_via_stream(values, io.StringIO()), expected)
        text = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        assert_same_output(_csv_via_stream(values, text), expected)

    check()


def _ending_at(e, p, rng):
    """A float that "%.17g" writes with exponent e and whose last nonzero
    significant digit is the (p + 1)-th, so its 17 digits end in 16 - p zeros."""
    for _ in range(200):
        digits = str(rng.integers(10 ** p, 10 ** (p + 1)))
        if digits[-1] == "0":
            continue
        near = float(f"{digits[0]}.{digits[1:]}e{e}")
        for v in (near, math.nextafter(near, 0.0), math.nextafter(near, math.inf)):
            mantissa, exponent = f"{v:.16e}".split("e")
            if int(exponent) == e and mantissa.replace(".", "").rstrip("0") == digits:
                return v
    raise AssertionError(f"no float of exponent {e} ends at digit {p + 1}")


@pytest.mark.parametrize("e", range(-4, 16))
def test_encoder_on_columns_of_one_exponent(e):
    # each column of both chunks holds one exponent, so every value is rounded
    # at one scale and the point moves whole words; the last nonzero digit
    # falls in every place of every 4-digit group, and the column holds the
    # smallest and the largest float of exponent e
    rng = np.random.default_rng(e + 4)
    rows = optimize.SCAN_CHUNK_ROWS + 1
    special = [_ending_at(e, p, rng) for p in range(17)]
    special += [float(f"1e{e}"), math.nextafter(float(f"1e{e + 1}"), 0.0)]
    column = rng.uniform(float(f"1e{e}"), float(f"1e{e + 1}"), rows)
    column[rng.choice(rows - 1, len(special) - 1, replace=False)] = special[:-1]
    column[-1] = special[-1]  # the second chunk's one row
    signs = rng.choice([-1.0, 1.0], rows)
    columns = [column, -column, signs * column]
    chunk = optimize.SCAN_CHUNK_ROWS
    chunks = [[c[:chunk] for c in columns], [c[chunk:] for c in columns]]
    for part in chunks[0] + chunks[1]:
        width, sign, low, high, rest = csv17g._extent(part)
        assert (sign, low, high, rest) == (int((part < 0).any()), e, e, [])
        assert width >= max(len(b"%.17g" % v) for v in part.tolist())
    stream = io.StringIO()
    csv17g.write_csv(chunks, ["p", "n", "m"], stream)
    expected = "p,n,m\n" + "".join(f"{a:.17g},{b:.17g},{c:.17g}\n" for a, b, c in zip(*columns))
    assert_same_output(stream.getvalue(), expected)


def test_encoder_exponent_routes_agree_on_fixed_edges():
    # one "%.16e" per value against floor(log10) with its redo, on every
    # nextafter of a power of ten and every exact tie: the same exponent, and
    # the digits rounded at that one scale equal the per-row digits
    mag = np.abs(np.array(_FIXED_EDGES))
    e, digits = csv17g._exponent_digits(mag, -4, 15)
    for v, row_e, row_digits in zip(mag.tolist(), e.tolist(), digits.tolist()):
        low = csv17g._exponent(v)
        assert low == row_e == int(f"{v:.16e}".split("e")[1]), v
        one_e, one_digits = csv17g._exponent_digits(np.array([v]), low, low)
        assert (one_e, one_digits.tolist()) == (low, [row_digits]), v


class _CountingBytesIO(io.BytesIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return super().write(data)


class _TextLayer(io.TextIOWrapper):
    def __init__(self, raw):
        super().__init__(raw, encoding="utf-8")
        self.text = []

    def write(self, text):
        self.text.append(text)
        return super().write(text)


def test_csv_header_and_each_chunk_are_one_binary_write():
    # no row goes through the text layer: it would decode and re-encode every byte
    raw = _CountingBytesIO()
    stream = _TextLayer(raw)
    chunks = [(t.sigma, t.delta_e, t.rho0, t.r10, t.r20)
              for t in optimize.scan_sigma(0.01, 0.5, 2 * optimize.SCAN_CHUNK_ROWS + 1)]
    csv17g.write_csv(chunks, cli.SCAN_FIELDS, stream)
    stream.flush()
    assert stream.text == []
    assert [data.count(b"\n") for data in raw.writes] == [1, *(len(c[0]) for c in chunks)]
    assert len(raw.writes) == 1 + len(chunks) == 4
    lines = ["sigma,delta_e_hartree,rho0_bohr,r10_bohr,r20_bohr"]
    lines += [",".join(f"{x:.17g}" for x in row) for c in chunks for row in zip(*c)]
    assert_same_output(b"".join(raw.writes).decode(), "\n".join(lines) + "\n")


class _ShortWrites(io.RawIOBase):
    """A raw stream that takes at most 1000 bytes a call, as a raw stdout may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, data):
        self.data += bytes(data[:1000])
        return min(len(data), 1000)


def test_csv_to_a_raw_stream_taking_part_of_each_write_is_complete():
    raw = _ShortWrites()
    stream = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    chunks = [(t.sigma, t.delta_e) for t in optimize.scan_sigma(0.01, 0.5, 10_000)]
    csv17g.write_csv(chunks, ["a", "b"], stream)
    expected = _csv_per_value([np.concatenate(c) for c in zip(*chunks)])
    assert_same_output(raw.data.decode(), expected)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_scan_stdout_equals_output_file(tmp_path, unbuffered):
    # unbuffered, stdout's binary layer is the raw file, whose writes may be short
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "hespinor.cli", "scan", "--points", "100000"]
    path = tmp_path / "scan.csv"
    subprocess.run([*argv, "--output", str(path)], env=env, check=True, timeout=60)
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert_same_output(proc.stdout, path.read_bytes())


def test_minimize_defaults(capsys):
    code, out, err = run(capsys, "minimize")
    assert code == 0
    values = {}
    for line in out.strip().split("\n"):
        key, _, val = line.partition(" = ")
        values[key] = float(val)
    assert values["sigma0"] == pytest.approx(0.1775, abs=0.001)
    assert values["delta_e_hartree"] == pytest.approx(-2.90589, abs=0.005)
    assert values["rho0_bohr"] == pytest.approx(0.862, abs=0.005)
    assert "experimental excess energy -2.9033: deviation 0.0026" in err
    assert "0.090%" in err  # below the 0.1 percent mark


MINIMIZE_SUMMARY = ("reference excess energy -2.90589: deviation 8.68e-06\n"
                    "experimental excess energy -2.9033: deviation 0.0026 (0.090%)\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, summary", [
    (["scan", "--points", "7"], ""),
    (["minimize"], MINIMIZE_SUMMARY),
    (["ion-limit"], "limit value -2.0001065140533782\n"),
    (["ion-limit", "--alpha", "1e-10"], "limit value -2\n"),
], ids=["scan", "minimize", "ion-limit", "ion-limit-alpha=1e-10"])
def test_stdout_holds_only_data(tmp_path, capsys, argv, summary, fmt):
    path = tmp_path / "data"
    code, out, err = run(capsys, *argv, "--format", fmt, "--output", str(path))
    assert (code, out, err) == (0, "", summary)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, err) == (0, summary)
    assert_same_output(out.encode(), path.read_bytes())
    if fmt == "json":
        json.loads(out)


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


@pytest.mark.parametrize("flag", ["--alpha", "--j1", "--j2"])
def test_verify_rejects_physics_flags(capsys, flag):
    # the battery runs at fixed constants, so a physics value it would ignore is a usage error
    code, _, err = run(capsys, "verify", "--fast", flag, "0.1")
    assert code == 2
    assert "unrecognized arguments" in err
    assert run(capsys, "verify", "--fast")[0] == 0


GAMMA1_FLIP_FAILS = [  # every check of the full battery that one sign flip in GAMMA[1] fails
    "clifford anticommutation, 15 pairs",
    "gamma5 product phase",
    "alpha_z product identities",
    "[H,M] second-order decay (|ratio - 4|)",
    "[H,M] limit below [H,Jz] by 1e3",
    "component expansion equals g0(H-E)",
    "canonical assignment in the exact commuting set",
    "canonical assignment commutes with M",
]


def test_verify_fault_injection_exits_one_and_names_pair(capsys, monkeypatch):
    import hespinor.verify  # noqa: F401 -- the flip below comes after every layer is imported

    bad = clifford.GAMMA[1].copy()
    bad[0, 3] = -bad[0, 3]  # flip one sign; the report must name the pair
    monkeypatch.setitem(clifford.GAMMA, 1, bad)
    for argv, names in ((["verify"], GAMMA1_FLIP_FAILS),
                        (["verify", "--fast"], GAMMA1_FLIP_FAILS[:3])):
        code, out, err = run(capsys, *argv)
        assert code == 1
        fail_lines = [line for line in out.split("\n") if line.startswith("[FAIL]")]
        assert [line[len("[FAIL] "):].split(": value")[0] for line in fail_lines] == names
        assert fail_lines[0].endswith("worst pair (1,1)")
        assert err == ""


def test_usage_error_exit_code(tmp_path, capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["scan", "--format", "xml"]) == 2
    assert cli.main(["scan", "--mass", "1"]) == 2  # natural units: m = 1 is not a flag
    path = tmp_path / "out.txt"
    assert cli.main(["ion-limit", "--sigmas", "abc", "--output", str(path)]) == 2
    assert not path.exists()


@pytest.mark.parametrize("argv, name", [
    (["scan", "--alpha", "-1"], "alpha"),
    (["scan", "--alpha", "nan"], "alpha"),
    (["scan", "--alpha", "inf"], "alpha"),
    (["scan", "--j1", "0.001"], "j1"),
    (["scan", "--j2", "nan"], "j2"),
    (["scan", "--points", "1"], "points"),
    (["scan", "--points", "0"], "points"),
    (["scan", "--sigma-min", "0.5", "--sigma-max", "0.1"], "sigma_min"),
    (["minimize", "--sigma-min", "0.3", "--sigma-max", "0.3"], "sigma_min"),  # no bracket
    (["minimize", "--alpha", "nan"], "alpha"),
    (["minimize", "--tol", "0"], "tol"),
    (["ion-limit", "--sigmas", "0,0.1"], "sigma"),
    (["ion-limit", "--sigmas", ""], "sigmas"),
    (["ion-limit", "--sigmas", ","], "sigmas"),
    (["scan", "--points", "3", "--alpha", "1e-170"], "alpha"),  # alpha^2 would underflow
    (["minimize", "--alpha", "1e-170"], "alpha"),
    (["ion-limit", "--alpha", "1e-170"], "alpha"),
    (["scan", "--points", "3", "--j1", "1e78"], "j1"),  # B*B would overflow
    (["scan", "--points", "3", "--j2", "1e78"], "j2"),
    (["ion-limit", "--alpha", "nan"], "alpha"),
    (["minimize", "--j2", "inf"], "j2"),
    (["scan", "--sigma-min", "5e-324", "--sigma-max", "1e-300"], "sigma"),  # subnormal
])
def test_invalid_parameter_is_usage_error(tmp_path, capsys, argv, name):
    path = tmp_path / "out.txt"
    code, _, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert err.startswith("invalid arguments: " + name)
    assert not path.exists()


@pytest.mark.parametrize("flags", [["--j1"], ["--j2"], ["--j1", "--j2"]],
                         ids=["j1", "j2", "both"])
def test_largest_j_prints_finite_rows_and_the_next_float_is_rejected(capsys, flags):
    bound = J_MAX
    assert bound == 2.0**254
    argv = [arg for flag in flags for arg in (flag, repr(bound))]
    code, out, _ = run(capsys, "scan", "--sigma-min", "1e-6", "--sigma-max", "1",
                       "--points", "50", *argv)
    assert code == 0
    rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
    assert rows.shape == (50, 5) and np.isfinite(rows).all()
    code, out, _ = run(capsys, "ion-limit", "--sigmas", f"1,1e-155,{SIGMA_MIN!r}", *argv)
    assert code == 0
    assert np.isfinite([float(x) for line in out.splitlines()[1:] for x in line.split(",")]).all()
    above = [arg for flag in flags for arg in (flag, repr(math.nextafter(bound, math.inf)))]
    for command in ("scan", "minimize", "ion-limit"):
        code, out, err = run(capsys, command, *above)
        assert code == 2
        assert err.startswith("invalid arguments: " + flags[0][2:])
        assert out == ""


def _json_numbers(path):
    data = json.loads(path.read_text())
    return [v for record in (data if isinstance(data, list) else [data]) for v in record.values()]


@pytest.mark.parametrize("flags", [[], ["--j1", "--j2"]], ids=["j=1", "j=J_MAX"])
def test_smallest_sigma_prints_finite_columns_and_the_next_float_is_rejected(
        tmp_path, capsys, flags):
    # r20 = r10 / sigma, and r10 is about j1^2 / 2 at sigma -> 0: 2**1023 at j1 = 2**254
    assert SIGMA_MIN == 2.0**-516
    physics = [arg for flag in flags for arg in (flag, repr(J_MAX))]

    def commands(sigma):
        return {"scan": ["--sigma-min", repr(sigma), "--sigma-max", "1", "--points", "50"],
                "minimize": ["--sigma-min", repr(sigma), "--sigma-max", "1"],
                "ion-limit": ["--sigmas", f"{sigma!r},1e-155,1"]}

    path = tmp_path / "out.json"
    for command, argv in commands(SIGMA_MIN).items():
        code, _, err = run(capsys, command, *argv, *physics, "--format", "json",
                           "--output", str(path))
        assert code == 0, err
        assert np.isfinite(_json_numbers(path)).all(), command
    for command, argv in commands(math.nextafter(SIGMA_MIN, 0)).items():
        code, out, err = run(capsys, command, *argv, *physics)
        assert code == 2, command
        assert err.startswith("invalid arguments: sigma"), command
        assert out == ""


@pytest.mark.parametrize("argv", [
    ["--j1", "6.277101735386681e+57", "--j2", "6.277101735386681e+57"],
    ["--j1", repr(2.0**254), "--j2", repr(2.0**254), "--sigma-min", "1e-6", "--sigma-max", "1"],
], ids=["j=2**192", "j=2**254"])
def test_minimize_on_a_slope_flat_to_rounding_prints_finite_values(tmp_path, capsys, argv):
    # brentq's extrapolation divisor underflows to 0 there; it bisects as scipy does
    path = tmp_path / "min.json"
    code, _, err = run(capsys, "minimize", *argv, "--format", "json", "--output", str(path))
    assert code == 0, err
    record = json.loads(path.read_text())
    assert np.isfinite(list(record.values())).all()
    assert 0 < record["sigma0"] < 1


S1_ZERO = ["--j1", "0.5", "--alpha", "1e-10"]  # s1 = -4e-20; -1/2 + sqrt(j1^2 - 4 alpha^2) gives 0


def test_s1_zero_scan_and_ion_limit_print_finite_rows(capsys):
    # no printed column reads the decay-rate ratio sigma s2 / s1
    code, out, err = run(capsys, "scan", *S1_ZERO, "--points", "3")
    assert code == 0, err
    rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
    assert rows.shape == (3, 5) and np.isfinite(rows).all()
    code, out, err = run(capsys, "ion-limit", *S1_ZERO)
    assert code == 0, err
    rows = np.array([[float(x) for x in line.split(",")] for line in out.splitlines()[1:]])
    assert rows.shape == (3, 2) and np.isfinite(rows).all()


def test_s1_zero_minimize_finds_no_interior_minimum(capsys):
    code, out, err = run(capsys, "minimize", *S1_ZERO)
    assert code == 3
    assert err.startswith("numeric error: no interior minimum")
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_s1_zero_scan_where_b_squared_underflows_exits_three(capsys):
    # s1 = -4e-200, so B ~ s1 / 2 = -2e-200 at sigma <= 1e-140 and B^2 is 0 in binary64
    code, out, err = run(capsys, "scan", "--j1", "0.5", "--alpha", "1e-100",
                         "--sigma-min", "1e-150", "--sigma-max", "1e-140", "--points", "3")
    assert code == 3
    assert err.startswith("numeric error: B^2")
    assert out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("to_file", [True, False], ids=["file", "stdout"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_b_squared_zero_in_the_last_chunk_writes_nothing(tmp_path, capsys, fmt, to_file):
    # s2 = -4e-200: B = 6 s2 underflows B^2 only at sigma = 1, the last of 100000 rows;
    # the check of every chunk comes before the first is written
    path = tmp_path / "scan.out"
    code, out, err = run(capsys, "scan", "--j2", "0.5", "--alpha", "1e-100", "--sigma-min", "0.5",
                         "--sigma-max", "1", "--points", "100000", "--format", fmt,
                         *(["--output", str(path)] if to_file else []))
    assert code == 3
    assert err == "numeric error: B^2 of the shape bracket is 0; C2 is undefined\n"
    assert out == ""
    assert not path.exists()


def test_s1_near_zero_scan_matches_50_digit_oracle(capsys):
    # perfbench/oracle.point at each sigma, rounded to binary64; the subtraction
    # -1/2 + sqrt(j1^2 - 4 alpha^2) made s1 = 0 and the first row read 1e60
    oracle = [
        (-8.0, 1.0000000000000001e30, 1.0000000000000001e-20, 1.0000000000000001e30),
        (333335189630.80743, 2.9999777477778707e-12, 9.9999257925931498e-21,
         2.9999777377779449e-12),
        (666696315237.71482, 1.4999110811118522e-12, 9.999407140749634e-21,
         1.4999110711124451e-12),
        (1000150060001.9987, 9.9979997000250055e-13, 9.9979996000450097e-21,
         9.9979996000450095e-13),
    ]
    code, out, err = run(capsys, "scan", *S1_ZERO, "--points", "4", "--sigma-min", "1e-50",
                         "--sigma-max", "1e-8")
    assert code == 0, err
    rows = [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == [1e-50, 1e-8 / 3, 2e-8 / 3, 1e-8]
    for row, ref in zip(rows, oracle, strict=True):
        assert row[1:] == pytest.approx(ref, rel=1e-12, abs=0)


def test_minimize_where_b_squared_underflows_names_the_cause(capsys):
    # |j| ~ 1e-23 and sigma ~ 1e-122: B^2 is 0 in binary64 on the float path of the
    # slope; the default tol, 1e-6, is wider than this bracket
    code, out, err = run(capsys, "minimize", "--alpha=1.2457268173565584e-107",
                         "--j1=-5.942966867006111e-24", "--j2=-2.5450831915338916e-23",
                         "--sigma-min=5.6e-141", "--sigma-max=2.9e-122", "--tol=1e-130")
    assert code == 3
    assert err == "numeric error: B^2 of the shape bracket is 0; C2 is undefined\n"
    assert out == ""


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 7])
def test_json_written_in_chunks_equals_one_dumps(monkeypatch, capsys, rows):
    monkeypatch.setattr(optimize, "SCAN_CHUNK_ROWS", 3)
    sigmas = [10.0 ** -k for k in range(1, rows + 1)]
    code, out, _ = run(capsys, "ion-limit", "--sigmas", ",".join(map(repr, sigmas)),
                       "--format", "json")
    assert code == 0
    expected = [{"sigma": s, "delta_e_hartree": d}
                for s, d in zip(*optimize.ion_limit_report(sigmas))]
    assert out == json.dumps(expected, indent=2) + "\n"
    if rows < 2:
        return  # scan needs two grid points
    code, out, _ = run(capsys, "scan", "--points", str(rows), "--format", "json")
    assert code == 0
    table = spectrum.equilibrium_point(np.linspace(0.01, 0.5, rows))
    columns = (table.sigma, table.delta_e, table.rho0, table.r10, table.r20)
    expected = [dict(zip(cli.SCAN_FIELDS, map(float, row))) for row in zip(*columns)]
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("argv", [["scan", "--points", "5"], ["minimize"], ["ion-limit"]],
                         ids=["scan", "minimize", "ion-limit"])
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_unwritable_output_is_usage_error(tmp_path, capsys, argv, target):
    path = tmp_path / "missing" / "x.csv" if target == "missing-directory" else tmp_path
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert code == 2
    assert err.startswith(f"invalid arguments: output = {str(path)!r}: ")
    assert err.count("\n") == 1
    assert out == ""


FULL_DEVICE = "/dev/full"  # every write to it fails with ENOSPC
requires_full_device = pytest.mark.skipif(not os.path.exists(FULL_DEVICE),
                                          reason=f"{FULL_DEVICE} does not exist")


@requires_full_device
@pytest.mark.parametrize("argv", [["scan", "--points", "100000"], ["minimize"], ["ion-limit"]],
                         ids=["scan", "minimize", "ion-limit"])
def test_failed_write_to_output_is_usage_error(argv):
    proc = _run_cli(*argv, "--output", FULL_DEVICE, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (f"invalid arguments: output = {FULL_DEVICE!r}: "
                           f"{os.strerror(errno.ENOSPC)}\n")
    assert proc.stdout == ""


@requires_full_device
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["verify", "--fast"], ["scan", "--points", "100000"],
                                  ["minimize"], ["ion-limit"]],
                         ids=["verify", "scan", "minimize", "ion-limit"])
def test_failed_write_to_stdout_is_usage_error(argv, unbuffered):
    # a passing battery whose report cannot be written must not read as a failed one (exit 1)
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    with open(FULL_DEVICE, "w") as full:
        proc = subprocess.run([sys.executable, "-m", "hespinor.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (f"invalid arguments: output = '<stdout>': "
                           f"{os.strerror(errno.ENOSPC)}\n")


@requires_full_device
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["--help"], ["scan", "--help"]], ids=["hespinor", "scan"])
def test_help_to_a_full_stdout_is_usage_error(argv, unbuffered):
    # argparse itself drops a failed write: unbuffered, --help would exit 0
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    with open(FULL_DEVICE, "w") as full:
        proc = subprocess.run([sys.executable, "-m", "hespinor.cli", *argv], env=env,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr == (f"invalid arguments: output = '<stdout>': "
                           f"{os.strerror(errno.ENOSPC)}\n")


@requires_full_device
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv, stdout_full", [
    (["minimize"], False), (["ion-limit"], False), (["scan", "--alpha", "1e-170"], False),
    (["minimize", "--sigma-min", "0.3", "--sigma-max", "0.9"], False),
    (["scan", "--bogus"], False), (["verify", "--fast"], True)],
    ids=["minimize", "ion-limit", "usage-error", "numeric-error", "argparse-error", "verify"])
def test_failed_write_to_stderr_exits_two(argv, stdout_full, unbuffered):
    # a summary or error line that cannot be written is an I/O failure (2), not a
    # failed battery (1); the data written before it reaches stdout intact
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    with open(FULL_DEVICE, "w") as full:
        proc = subprocess.run([sys.executable, "-m", "hespinor.cli", *argv], env=env,
                              stdout=full if stdout_full else subprocess.PIPE, stderr=full,
                              text=True, timeout=60)
    assert proc.returncode == 2
    if not stdout_full:
        assert proc.stdout == _run_cli(*argv, timeout=60).stdout


def _run_cli(*argv, timeout):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "hespinor.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_scan_to_a_pipe_closed_early_exits_zero_quietly(unbuffered):
    # ``hespinor scan | head``: the CSV is written in chunks, and the chunks
    # after the reader has gone are dropped without a traceback
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "hespinor.cli", "scan", "--points", "100000"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(100).startswith(b"sigma,delta_e_hartree,")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


def _scan_peak_rss_kb(points):
    # an interpreter that only starts the scan, so RUSAGE_CHILDREN is the scan's peak alone
    code = ("import os, resource, subprocess, sys\n"
            "subprocess.run([sys.executable, '-m', 'hespinor.cli', 'scan', '--points', sys.argv[1],\n"
            "                '--output', os.devnull], check=True)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(points)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in kB on Linux")
def test_scan_peak_memory_does_not_grow_with_points():
    # the scan is made and written chunk by chunk: no array of --points length
    small, large = _scan_peak_rss_kb(10_000), _scan_peak_rss_kb(1_000_000)
    assert large - small <= 5 * 1024, (small, large)


def test_minimize_tolerance_below_one_ulp_exits_two_and_the_floor_terminates(tmp_path):
    proc = _run_cli("minimize", "--tol", "1e-20", timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("invalid arguments: tol")
    path = tmp_path / "min.json"
    proc = _run_cli("minimize", "--tol", repr(math.ulp(0.5)), "--format", "json",
                    "--output", str(path), timeout=60)
    assert proc.returncode == 0
    assert json.loads(path.read_text())["sigma0"] == pytest.approx(0.17711646742155152, abs=1e-6)


@pytest.mark.parametrize("tol", ["inf", "1e300", repr(0.5 - 0.05)],
                         ids=["inf", "1e300", "bracket-width"])
def test_minimize_tolerance_not_below_the_bracket_width_exits_two(capsys, tol):
    # a tol as wide as the bracket would print a bracket end as the ground state
    code, out, err = run(capsys, "minimize", "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"invalid arguments: tol = {float(tol)!r}: need tol < 0.45, the bracket width\n"


@pytest.mark.parametrize("tol, end", [("0.44999999999999996", "0.5"), ("0.3", "0.05")],
                         ids=["widest-accepted", "lo"])
def test_minimize_stopping_at_a_bracket_end_exits_two(capsys, tol, end):
    # a tol below the bracket width may still let brentq stop at an end: no ground state there
    code, out, err = run(capsys, "minimize", "--tol", tol)
    assert (code, out) == (2, "")
    assert err == (f"invalid arguments: tol = {tol}: the solve stopped at the bracket end "
                   f"sigma = {end}; need a smaller tol\n")


# every byte of ``minimize --format json`` on the direct route (the default bracket,
# whose end slopes enclose sigma0) and on the walk route (the 32-point grid first)
MINIMIZE_JSON = {
    "direct": ([], (b'{\n  "sigma0": 0.17711643414645833,\n'
                    b'  "delta_e_hartree": -2.9058986787203875,\n'
                    b'  "rho0_bohr": 0.8651607333077722,\n  "r10_bohr": 0.1301775929737313,\n'
                    b'  "r20_bohr": 0.7349831403340409,\n  "iterations": 9\n}\n')),
    "walk": (["--sigma-min", "0.01", "--sigma-max", "0.99"],
             (b'{\n  "sigma0": 0.17711645754576363,\n'
              b'  "delta_e_hartree": -2.905898678720451,\n'
              b'  "rho0_bohr": 0.865160576769843,\n  "r10_bohr": 0.13017758403039478,\n'
              b'  "r20_bohr": 0.7349829927394482,\n  "iterations": 6\n}\n')),
}


@pytest.mark.parametrize("route", MINIMIZE_JSON)
def test_minimize_json_bytes_are_pinned(capsys, route):
    argv, want = MINIMIZE_JSON[route]
    code, out, _ = run(capsys, "minimize", *argv, "--format", "json")
    assert (code, out.encode()) == (0, want)


def test_minimize_tolerance_of_half_the_bracket_width_still_solves(capsys):
    code, out, _ = run(capsys, "minimize", "--tol", repr((0.5 - 0.05) / 2), "--format", "json")
    assert code == 0
    assert abs(json.loads(out)["sigma0"] - 0.17711646742155152) <= (0.5 - 0.05) / 2


def test_scan_points_past_an_exact_float64_row_index_exits_two():
    # n - 1 > 2**53: the row index k of _grid_chunk is no longer exact as a float64
    proc = _run_cli("scan", "--points", str(2**53 + 2), timeout=10)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("invalid arguments: points = 9007199254740994: "
                           "need at most 2**53 + 1 grid points\n")


def test_no_command_imports_scipy():
    # numpy is the only runtime dependency: both root-finders use spectrum.brentq
    code = ("import sys; from hespinor import cli\n"
            "for argv in (['verify', '--fast'], ['minimize'], ['scan', '--points', '10'],\n"
            "             ['ion-limit']):\n"
            "    assert cli.main(argv) == 0, argv\n"
            "print('scipy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_cli_startup_loads_no_dataclasses_json_radial_or_numpy():
    # -S: no site hook may preload any of them and hide an import on the command path
    code = ("import contextlib, io, sys\n"
            "import hespinor.cli\n"
            "hespinor.cli.build_parser()\n"
            "names = ('dataclasses', 'json', 'hespinor.radial', 'numpy')\n"
            "print(*(name in sys.modules for name in names))\n"
            "for argv, exit_code in ((['minimize'], 0),\n"
            "                        (['minimize', '--sigma-min', '0.01', '--sigma-max', '0.99'], 0),\n"
            "                        (['minimize', '--sigma-min', '0.3', '--sigma-max', '0.9'], 3),\n"
            "                        (['minimize', '--format', 'json'], 0)):\n"
            "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
            "            contextlib.redirect_stderr(io.StringIO()):\n"
            "        assert hespinor.cli.main(argv) == exit_code, argv\n"
            "    print(*(name in sys.modules for name in names))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    # the grid walk on (0.01, 0.99), and its rejection of (0.3, 0.9), load none of them either
    assert proc.stdout.splitlines() == ["False False False False",  # import and parser
                                        "False False False False",  # minimize
                                        "False False False False",  # (0.01, 0.99)
                                        "False False False False",  # (0.3, 0.9), exit 3
                                        "False True False False"]   # minimize --format json


def test_verify_scan_and_ion_limit_load_no_dataclasses():
    # every record is a namedtuple, so no command needs dataclasses, and verify reads a
    # fixed point set, so none draws from numpy.random; numpy lives in site-packages, so
    # this interpreter keeps its site hook and checks it preloaded no dataclasses.
    # numpy 1.x imports numpy.random in `import numpy` and numpy 2.x only on first use,
    # so the second column is whether a command added numpy.random to what numpy loaded.
    # --fast runs first: the full battery runs everything it runs
    code = ("import contextlib, io, sys\n"
            "assert 'dataclasses' not in sys.modules, 'preloaded'\n"
            "import numpy\n"
            "numpy_loaded = set(sys.modules)\n"
            "from hespinor import cli\n"
            "for argv in (['verify', '--fast'], ['verify'], ['scan', '--points', '10'],\n"
            "             ['ion-limit']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    print('dataclasses' in sys.modules,\n"
            "          'numpy.random' in set(sys.modules) - numpy_loaded)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["False False"] * 4


def test_package_exports_only_alpha_and_version():
    import hespinor
    from hespinor import model
    assert hespinor.FINE_STRUCTURE_ALPHA is model.FINE_STRUCTURE_ALPHA
    assert hespinor.__version__
    # -S, as in the start-up test: no site hook may preload a module that the import would load
    code = ("import sys, hespinor\n"
            "print(*(name in sys.modules for name in "
            "('hespinor.spectrum', 'hespinor.optimize', 'numpy')))")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False"]


@pytest.mark.parametrize("argv", [
    # delta_e rises from 0.3 to its maximum near 0.6, then falls: the grid walk rejects (0.3, 0.9)
    ["--sigma-min", "0.3", "--sigma-max", "0.9"],
    # the coarse scan of the default bracket bottoms out at its edge
    ["--alpha", "0.45"],
], ids=["walk", "alpha=0.45"])
def test_numeric_error_exit_code(capsys, argv):
    code, _, err = run(capsys, "minimize", *argv)
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


def test_main_builds_one_parser_per_process():
    # a fresh interpreter counts the argparse parsers made: the parser and its
    # four subcommands' parsers, in the first call only
    code = ("import argparse, contextlib, io\n"
            "from hespinor import cli\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **kw: (\n"
            "    built.append(self) or init(self, *a, **kw))\n"
            "for argv in (['verify', '--fast'], ['scan', '--points', '3']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0, argv\n"
            "    print(len(built))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["5", "5"]


def _runs_as_fresh_processes(capsys, *argvs):
    """Each call's exit code, stdout and stderr in this process, where every call
    parses with the same parser, checked against a fresh interpreter's."""
    results = []
    for argv in argvs:
        fresh = _run_cli(*argv, timeout=60)
        results.append(run(capsys, *argv))
        assert results[-1] == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    return results


def test_a_value_given_once_does_not_leak_into_the_next_call(capsys):
    _runs_as_fresh_processes(capsys, ["scan", "--points", "3", "--j1", "1.5"],
                             ["scan", "--points", "3"])


def test_usage_errors_and_help_between_calls_print_as_fresh_runs(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # the fresh runs print to a pipe, not this terminal
    _runs_as_fresh_processes(
        capsys, ["scan", "--j1", "1.5", "--points", "x"], ["scan", "--points", "3"],
        ["--help"], ["minimize", "--format", "json"], ["minimize", "--tol"], ["scan", "--help"],
        ["verify", "--fast"])


def test_help_wraps_to_the_columns_of_its_own_call(capsys, monkeypatch):
    widths = []
    for columns in (60, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        ((_, out, _),) = _runs_as_fresh_processes(capsys, ["scan", "--help"])
        widths.append(max(map(len, out.splitlines())))
    assert widths[0] <= 60 - 2 < widths[1] <= 200 - 2  # argparse wraps to COLUMNS - 2


def test_verify_full_battery_exits_zero(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "[FAIL]" not in out
    assert out.count("[INFO]") == 1
    assert out.strip().split("\n")[-1] == "39/39 checks passed"
