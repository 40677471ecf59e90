"""Exact vectorised ``"%.17g"`` encoder and writer of the CSV tables
``hespinor.cli`` writes.

``write_csv`` writes a header line, then each chunk of float64 columns as
one byte string to the binary layer under the text stream it is given.
``_csv_rows`` makes that string: each value the bytes of ``"%.17g" % v``.
Where that is fixed notation, the 17 significant digits of every value take
one layout, a leading digit and four 4-digit groups split by constant
divisors, held in three uint64 words.  The point, or the leading ``0.000``,
is then placed by shifting those words, once per exponent value the column
holds (one or two in a chunk of a scan).  Each column is stored straight
into its slice of one row buffer, NUL-padded to the column's width, and one
``replace`` drops the padding.  It lives apart from ``cli`` because it
builds numpy tables at import, and only the commands that write CSV import
it.
"""

import numpy as np

# "%.17g" of |x| in [1e-4, 1e16) is fixed notation with 17 significant
# digits; the vectorised encoder below writes exactly those bytes, and every
# other value (exponent notation, +-0, inf, nan, subnormals) goes through "%".
_FIXED_MIN, _FIXED_MAX = 1e-4, 1e16
_VELTKAMP = 2.0 ** 27 + 1
_POW10_F = 10.0 ** np.arange(22)          # exact in binary64 up to 1e22
_POW10_F_HI = _VELTKAMP * _POW10_F - (_VELTKAMP * _POW10_F - _POW10_F)
_POW10_F_LO = _POW10_F - _POW10_F_HI
_ZERO, _POINT = ord("0"), ord(".")
_ZEROS = int.from_bytes(b"0" * 8, "little")  # "00000000" as a little-endian word


def _quad_table():
    """ASCII of 0..9999 as four digits (entries 0..9999), then the same with
    trailing zeros turned into NUL (10000..19999), each the low four bytes
    of a little-endian uint64."""
    n = np.arange(10_000)
    full = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + _ZERO
    length = 4 - (n % 10 == 0) - (n % 100 == 0) - (n % 1000 == 0) - (n == 0)
    stripped = np.where(np.arange(4) < length[:, None], full, 0)
    return np.concatenate([full, stripped]).astype(np.uint8).view("<u4").ravel().astype(np.uint64)


_QUAD = _quad_table()


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


def _exponent_digits(mag):
    """Decimal exponent e of each value of ``mag`` (in [_FIXED_MIN, _FIXED_MAX))
    and its 17 significant digits, an int64 in [10**16, 10**17)."""
    # within a few ulps of a power of ten floor(log10) can be one off, which
    # puts the digits outside [10**16, 10**17); those rows are redone at e +- 1
    # from the unrounded value, so no digit is ever rounded twice
    e = np.floor(np.log10(mag)).astype(np.int64)
    digits = _round_scaled(mag, 16 - e)
    redo = (digits < 10 ** 16) | (digits >= 10 ** 17)
    if redo.any():
        e[redo] += np.where(digits[redo] >= 10 ** 17, 1, -1)
        digits[redo] = _round_scaled(mag[redo], 16 - e[redo])
    return e, digits


def _digit_words(digits):
    """The 17 digits as ASCII, trailing zeros as NUL, in three little-endian
    uint64 words: bytes 0..7, 8..15 and byte 16.  The digits are a leading
    one and four 4-digit groups."""
    # each split is `//` by a constant, which numpy turns into a multiplication,
    # then a multiply-subtract
    groups = np.empty((5, len(digits)), np.int64)
    high = digits // 10 ** 8
    low = digits - high * 10 ** 8
    top = high // 10 ** 4
    groups[0] = top // 10 ** 4
    groups[1] = top - groups[0] * 10 ** 4
    groups[2] = high - top * 10 ** 4
    groups[3] = low // 10 ** 4
    groups[4] = low - groups[3] * 10 ** 4
    # the last nonzero group and the zero groups after it drop trailing zeros
    zero_tail = np.ones(len(digits), bool)
    for group in groups[:0:-1]:
        np.add(group, 10_000, out=group, where=zero_tail)
        zero_tail &= group == 10_000
        if not zero_tail.any():
            break
    lead = groups[0].astype(np.uint64) + _ZERO
    q1, q2, q3, q4 = (_QUAD.take(group) for group in groups[1:])
    return [lead | q1 << 8 | q2 << 40, q2 >> 24 | q3 << 8 | q4 << 40, q4 >> 24]


def _layout(words, e):
    """The text of every row as if its exponent were ``e``, in three words
    like ``words``: the digits with a point after the first e + 1 of them,
    or after ``0.000``."""
    # the bytes from the point on move up by the point (one byte) or by 0.000
    point, shift = (e + 1, 8) if e >= 0 else (0, 8 * (1 - e))
    text, carry = [], 0
    for j, word in enumerate(words):
        before = (1 << 8 * min(max(point - 8 * j, 0), 8)) - 1  # bytes before the point
        kept = word & before
        moved = word ^ kept
        # a NUL before the point is a trailing zero of an integer: ORed with
        # "0", which leaves every digit as it is, it becomes one
        text.append(kept | _ZEROS & before | moved << shift | carry)
        carry = moved >> (64 - shift)
    if e < 0:
        text[0] |= int.from_bytes(b"0.000"[:1 - e], "little")
    else:  # the point, unless no digit follows it
        at = 8 * (point % 8)
        digit = words[point // 8] >> at & 0xFF
        text[point // 8] |= np.where(digit != 0, np.uint64(_POINT << at), np.uint64(0))
    return text


def _store(dst, word):
    """The first ``dst.shape[1]`` (at most 8) bytes of each little-endian
    ``word`` into its row of ``dst``, as 1-D strided stores: numpy's cost per
    row makes a 2-D copy of rows this narrow several times slower."""
    start = 0
    for dtype in ("<u8", "<u4", "<u2", "u1"):
        size = np.dtype(dtype).itemsize
        if dst.shape[1] - start >= size:
            dst[:, start:start + size].view(dtype)[:, 0] = word >> 8 * start if start else word
            start += size


def _fixed(x):
    """|x| and where "%.17g" writes x in fixed notation."""
    mag = np.abs(x)
    return mag, (mag >= _FIXED_MIN) & (mag < _FIXED_MAX)


def _width(x):
    """The bytes column ``x`` takes in a row: a sign if any value is negative,
    then its widest text, which its smallest exponent sets in fixed notation."""
    mag, fixed = _fixed(x)
    smallest = mag.min(where=fixed, initial=_FIXED_MAX)
    low = int(_exponent_digits(np.array([smallest]))[0][0]) if smallest < _FIXED_MAX else 0
    return max([int((x < 0).any()) + 18 - min(low, 0),
                *(len(b"%.17g" % v) for v in x[~fixed].tolist())])


def _write_column(slot, x):
    """The text of each value of column ``x`` into its row of ``slot``."""
    mag, fixed = _fixed(x)
    rest = np.flatnonzero(~fixed).tolist()
    if rest:
        mag = np.where(fixed, mag, 1.0)  # a stand-in, overwritten below
    negative = x < 0
    sign = int(negative.any())
    np.copyto(slot[:, 0], ord("-"), where=negative)
    e, digits = _exponent_digits(mag)
    words = _digit_words(digits)
    low, high = int(e.min()), int(e.max())
    text = _layout(words, low)
    for value in range(low + 1, high + 1):
        rows = e == value
        for part, other in zip(text, _layout(words, value)):
            np.copyto(part, other, where=rows)
    for j, part in enumerate(text):
        _store(slot[:, sign + 8 * j:sign + 8 * j + 8], part)
    for i in rest:
        slot[i] = np.frombuffer((b"%.17g" % x[i]).ljust(slot.shape[1], b"\0"), np.uint8)


def _csv_rows(columns, buffer: bytearray) -> bytearray:
    """The CSV lines of the equal-length float64 ``columns``: each value the
    bytes of ``"%.17g" % v``, comma-separated, each line ending in a newline.

    ``buffer`` is the row buffer, kept by the caller from chunk to chunk:
    resized and overwritten here, it keeps its pages, which a fresh buffer
    for each chunk faults in again."""
    widths = [_width(column) for column in columns]
    # each column's NUL-padded slot, then a comma or the newline
    template = bytearray(b"".join(bytes(width) + b"," for width in widths))
    template[-1] = ord("\n")
    size = len(template) * len(columns[0])
    del buffer[size:]
    buffer.extend(bytes(size - len(buffer)))
    rows = np.frombuffer(buffer, np.uint8).reshape(len(columns[0]), len(template))
    rows[:] = np.frombuffer(template, np.uint8)
    end = 0
    for column, width in zip(columns, widths):
        _write_column(rows[:, end:end + width], column)
        end += width + 1
    return buffer.replace(b"\0", b"")


def write_csv(chunks, fields, stream):
    """A header line, then one line per row of each chunk of float64 columns,
    each chunk encoded as it arrives and written as one byte string."""
    _write_bytes(stream, (",".join(fields) + "\n").encode("ascii"))
    buffer = bytearray()  # the row buffer every chunk is encoded in
    for columns in chunks:
        _write_bytes(stream, _csv_rows(columns, buffer))


def _write_bytes(stream, data):
    """Write ASCII ``data`` to the binary layer under the text ``stream``, all
    of it (a raw, unbuffered stdout may take part of a write), or as text to
    a stream without one."""
    raw = getattr(stream, "buffer", None)
    if raw is None:
        stream.write(data.decode("ascii"))
        return
    stream.flush()  # text written before goes first
    view = memoryview(data)
    while view:
        view = view[raw.write(view):]
