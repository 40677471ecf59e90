"""50-digit reference values for the closed-form ground-state model.

Evaluates the same closed-form energy and geometry as ``hespinor.spectrum``
in mpmath arithmetic, so the only difference from the program's numbers is
the program's binary64 rounding, and locates the global minimum of the
excess energy inside a bracket by a grid search followed by golden-section
refinement of every interior grid minimum.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50
GRID_POINTS = 129
GOLDEN_WIDTH = mp.mpf("1e-22")


def _exponent(j, alpha):
    return -mp.mpf(1) / 2 + mp.sqrt(mp.mpf(j) ** 2 - 4 * alpha**2)


def point(sigma, alpha, j1=1.0, j2=1.0):
    """(delta_e, rho0, r10, r20) at sigma, in Hartree and Bohr radii.

    Inputs are binary64 numbers taken exactly; m = 1.
    """
    with mp.workdps(DIGITS):
        s, a = mp.mpf(sigma), mp.mpf(alpha)
        s1, s2 = _exponent(j1, a), _exponent(j2, a)
        b = (1 - s) ** 2 * (s1 + mp.mpf(1) / 2) * s1 + 4 * s**3 * (s2 + mp.mpf(3) / 2) * s2
        d = 4 * a**2 * (1 + s) ** 2 * ((1 - s) ** 2 * s1**2 + 4 * s**4 * s2**2)
        c1 = mp.sqrt(b * b + d)
        c2 = mp.sqrt(1 + d / (b * b))
        delta_e = 2 * s * (1 + s) ** 2 / c1 + (1 + s) * (1 - c2) / (c2 * a**2)
        r10 = c1 / (2 * (1 + s) ** 2)
        r20 = c1 / (2 * s * (1 + s) ** 2)
        return delta_e, r10 + r20, r10, r20


def delta_e(sigma, alpha, j1=1.0, j2=1.0):
    return point(sigma, alpha, j1, j2)[0]


def global_minimum(lo, hi, alpha, j1=1.0, j2=1.0):
    """(sigma0, delta_e) of the lowest excess energy on the closed bracket [lo, hi]."""
    with mp.workdps(DIGITS):
        lo, hi = mp.mpf(lo), mp.mpf(hi)
        grid = [lo + (hi - lo) * k / (GRID_POINTS - 1) for k in range(GRID_POINTS)]
        values = [delta_e(s, alpha, j1, j2) for s in grid]
        candidates = [(values[0], grid[0]), (values[-1], grid[-1])]
        for k in range(1, GRID_POINTS - 1):
            if values[k] <= values[k - 1] and values[k] <= values[k + 1]:
                s = _golden(grid[k - 1], grid[k + 1], alpha, j1, j2)
                candidates.append((delta_e(s, alpha, j1, j2), s))
        value, sigma = min(candidates)
        return sigma, value


def _golden(a, b, alpha, j1, j2):
    inv_phi = (mp.sqrt(5) - 1) / 2
    c, d = b - inv_phi * (b - a), a + inv_phi * (b - a)
    fc, fd = delta_e(c, alpha, j1, j2), delta_e(d, alpha, j1, j2)
    while b - a > GOLDEN_WIDTH:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = delta_e(c, alpha, j1, j2)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = delta_e(d, alpha, j1, j2)
    return (a + b) / 2
