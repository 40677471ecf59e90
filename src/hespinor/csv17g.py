"""Exact vectorised ``"%.17g"`` encoder of the CSV tables ``hespinor.cli`` writes.

``_format_17g`` turns a float64 array into the bytes of ``"%.17g" % v`` for
each value v.  It lives apart from ``cli`` because it builds numpy tables
at import, and only the commands that write CSV import it.
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
_POW10 = 10 ** np.arange(18, dtype=np.int64)


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


_QUAD, _QUAD_LEN = _quad_tables()


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
            frac_width = 4 * j + int(_QUAD_LEN[quads[:, j]].max())
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
        text[:, sign:point] = _QUAD[whole_quads].view(np.uint8)[:, 16 - whole_width:]
        text[:, sign:point - 1] *= np.arange(whole_width - 1, 0, -1) <= e[:, None]
    if frac_width:
        text[:, point] = np.where(zero_tail, 0, ord("."))
        text[:, point + 1:] = _QUAD[quads].view(np.uint8)[:, :frac_width]
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
