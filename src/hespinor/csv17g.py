"""Exact vectorised ``"%.17g"`` encoder and writer of the CSV tables
``hespinor.cli`` writes.

``write_csv`` writes a header line, then each chunk of float64 columns as
one byte string to the binary layer under the text stream it is given.
``_csv_rows`` makes that string: each value the bytes of ``"%.17g" % v``.
A first pass over each column reads, from one ``"%.16e"`` each, the
exponents of its smallest and largest value in fixed notation, which set
its width.  Where those are equal, as in most columns of a chunk of a scan,
every value's 17 significant digits are rounded at one scale; otherwise
each value's exponent is found first.  The digits take one layout, a
leading digit and four 4-digit groups split by constant divisors, held in
three uint64 words.  The point, or the leading ``0.000``, is then placed by
shifting those words, a word wholly before or after the point whole: once
for the smallest exponent, and again on the rows of each larger one.  Each
column is stored straight into its slice of one row buffer, NUL-padded to
the column's width, and one ``replace`` drops the padding.  It lives apart
from ``cli`` because it builds numpy tables at import, and only the
commands that write CSV import it.
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
    # in place where it can be, so that few row-long temporaries live at once
    p = mag * _POW10_F[k]
    hi = _VELTKAMP * mag
    hi -= hi - mag
    lo = mag - hi
    b_hi, b_lo = _POW10_F_HI[k], _POW10_F_LO[k]
    err = p - hi * b_hi
    err -= lo * b_hi
    err -= hi * b_lo
    np.subtract(lo * b_lo, err, out=err)
    digits = p.astype(np.int64)
    digits += np.rint(err, out=err).astype(np.int64)
    return digits


def _exponent(v):
    """The decimal exponent "%.17g" writes the float ``v`` > 0 with: that of
    ``v`` rounded to 17 significant digits, as "%.16e" writes it."""
    return int((b"%.16e" % v).partition(b"e")[2])


def _exponent_digits(mag, low, high):
    """Decimal exponent e of each value of ``mag`` (in [_FIXED_MIN, _FIXED_MAX),
    each e in [low, high]) and its 17 significant digits, an int64 in
    [10**16, 10**17).  Where ``low == high``, e is that one int, and every
    value is rounded at one scale."""
    if low == high:
        return low, _round_scaled(mag, 16 - low)
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
    # then a multiply-subtract; below 10**9 they run in int32, at half the
    # cost of int64
    high = digits // 10 ** 8
    low = (digits - high * 10 ** 8).astype(np.int32)
    high = high.astype(np.int32)
    top = high // 10 ** 4
    lead = top // 10 ** 4
    third = low // 10 ** 4
    groups = [top - lead * 10 ** 4, high - top * 10 ** 4, third, low - third * 10 ** 4]
    # the last nonzero group and the zero groups after it drop trailing zeros
    groups[3] += 10_000
    zero_tail = groups[3] == 10_000
    for group in groups[2::-1]:
        if not zero_tail.any():
            break
        np.add(group, 10_000, out=group, where=zero_tail)
        zero_tail &= group == 10_000
    q1, q2, q3, q4 = (_QUAD.take(group) for group in groups)
    lead = lead.astype(np.uint64) + _ZERO
    return [lead | q1 << 8 | q2 << 40, q2 >> 24 | q3 << 8 | q4 << 40, q4 >> 24]


def _layout(words, e):
    """The text of every row as if its exponent were ``e``, in three words
    like ``words``: the digits with a point after the first e + 1 of them,
    or after ``0.000``."""
    # the bytes from the point on move up by the point (one byte) or by 0.000,
    # and a word wholly before or after the point is kept or moved whole; a
    # NUL before the point is a trailing zero of an integer: ORed with "0",
    # which leaves every digit as it is, it becomes one
    point, shift = (e + 1, 8) if e >= 0 else (0, 8 * (1 - e))
    text, carry = [], None
    for j, word in enumerate(words):
        before = min(max(point - 8 * j, 0), 8)  # bytes before the point
        if before == 8:
            text.append(word | _ZEROS)
            continue
        moved = word
        if before:
            mask = (1 << 8 * before) - 1
            kept = word & mask
            moved = word ^ kept
            part = kept | _ZEROS & mask | moved << shift
        else:
            part = moved << shift
        if carry is not None:
            part |= carry
        text.append(part)
        if j + 1 < len(words):
            carry = moved >> (64 - shift)
    if e < 0:
        text[0] |= int.from_bytes(b"0.000"[:1 - e], "little")
    else:  # the point, unless no digit follows it: a digit has bit 5 set, a NUL not
        at = 8 * (point % 8)
        text[point // 8] |= (words[point // 8] >> at + 5 & 1) * np.uint64(_POINT << at)
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


def _extent(x):
    """How column ``x`` is laid out: the bytes it takes in a row (a sign if
    any value is negative, then its widest text, which its smallest exponent
    sets in fixed notation); the sign's width, 0 or 1; the exponents of its
    smallest and largest magnitude that "%.17g" writes in fixed notation (0
    and 0 if it writes none so); and the rows it writes otherwise."""
    mag = np.abs(x)
    smallest, largest = float(mag.min()), float(mag.max())
    rest = []
    if not (smallest >= _FIXED_MIN and largest < _FIXED_MAX):  # nan fails both
        fixed = (mag >= _FIXED_MIN) & (mag < _FIXED_MAX)
        rest = np.flatnonzero(~fixed).tolist()
        smallest = float(mag.min(where=fixed, initial=_FIXED_MAX))
        largest = float(mag.max(where=fixed, initial=0.0))
    low, high = (_exponent(smallest), _exponent(largest)) if largest else (0, 0)
    sign = int((x < 0).any())
    width = max([sign + 18 - min(low, 0), *(len(b"%.17g" % x[i]) for i in rest)])
    return width, sign, low, high, rest


def _write_column(slot, x, sign, low, high, rest):
    """The text of each value of column ``x`` into its row of ``slot``, as
    ``_extent(x)`` lays it out."""
    mag = np.abs(x)
    if rest:
        mag[rest] = 10.0 ** low  # a stand-in of exponent low, overwritten below
    if sign:
        np.copyto(slot[:, 0], ord("-"), where=x < 0)
    e, digits = _exponent_digits(mag, low, high)
    words = _digit_words(digits)
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
    extents = [_extent(column) for column in columns]
    # each column's NUL-padded slot, then a comma or the newline
    template = bytearray(b"".join(bytes(extent[0]) + b"," for extent in extents))
    template[-1] = ord("\n")
    size = len(template) * len(columns[0])
    del buffer[size:]
    buffer.extend(bytes(size - len(buffer)))
    rows = np.frombuffer(buffer, np.uint8).reshape(len(columns[0]), len(template))
    rows[:] = np.frombuffer(template, np.uint8)
    end = 0
    for column, (width, *layout) in zip(columns, extents):
        _write_column(rows[:, end:end + width], column, *layout)
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
