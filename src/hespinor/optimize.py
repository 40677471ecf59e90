"""Sigma scan and ground-state search: Brent's method on the complex-step slope of the excess energy."""

import math
from collections import namedtuple

from .model import FINE_STRUCTURE_ALPHA, SIGMA_MIN, ParameterError, exponents
from .spectrum import (brentq, c_params, closed_form, delta_e, equilibrium_point,
                       shape_bracket)

_GRID_POINTS = 32
SCAN_CHUNK_ROWS = 8192  # rows per EquilibriumPoint a scan yields, and per write of its table


class NonUnimodalError(ValueError):
    """The bracket's end slopes do not enclose a minimum, and the walk over the
    coarse grid found no interior minimum either."""


def check_parameters(alpha: float, j1: float, j2: float, sigmas, tol: float | None = None):
    """The exponents (s1, s2), or a ParameterError naming the first parameter
    outside the model's domain.

    ``exponents`` checks alpha, j1 and j2.  ``sigmas`` must be non-empty
    with every sigma in [SIGMA_MIN, 1], and ``tol``, the root-finder's
    absolute sigma tolerance, must be at least one ulp of the largest sigma,
    since no sigma can be located more finely than that.  ``scan_sigma``,
    ``minimize_delta_e`` and ``ion_limit_report`` each call this before any
    numeric work.
    """
    s1, s2 = exponents(j1, j2, alpha)
    if not len(sigmas):
        raise ParameterError("sigmas is empty: need at least one sigma")
    for sigma in sigmas:
        if not SIGMA_MIN <= sigma <= 1:
            raise ParameterError(f"sigma = {sigma!r}: need 2**-516 <= sigma <= 1")
    if tol is not None and not tol >= (floor := math.ulp(max(sigmas))):
        raise ParameterError(f"tol = {tol!r}: need tol >= {floor:.3g}, one ulp of sigma")
    return s1, s2


class MinimizeResult(namedtuple("MinimizeResult", "point iterations")):
    """The ground state's EquilibriumPoint, and the Brent steps taken on the
    bracket, or on the grid cell around the walk's minimum."""

    __slots__ = ()


def _grid(lo: float, hi: float, n: int):
    """k -> np.linspace(lo, hi, n)[k], bit for bit, on Python floats: numpy's
    k * step + lo with step = (hi - lo) / (n - 1), and exactly hi at k = n - 1.
    For SIGMA_MIN <= lo < hi the step cannot underflow to 0, so numpy's
    step == 0 branch never applies."""
    step = (hi - lo) / (n - 1)
    return lambda k: hi if k == n - 1 else k * step + lo


def _grid_chunk(lo: float, hi: float, n: int, start: int):
    """np.linspace(lo, hi, n)[start:start + SCAN_CHUNK_ROWS], bit for bit: ``_grid``'s
    rule on a float64 arange."""
    import numpy as np
    stop = min(start + SCAN_CHUNK_ROWS, n)
    sigma = np.arange(start, stop, dtype=np.float64) * ((hi - lo) / (n - 1)) + lo
    if stop == n:
        sigma[-1] = hi
    return sigma


def scan_sigma(sigma_min: float, sigma_max: float, n_points: int,
               alpha: float = FINE_STRUCTURE_ALPHA, j1: float = 1.0, j2: float = 1.0):
    """Equilibrium columns on the grid np.linspace(sigma_min, sigma_max, n_points),
    ascending: an iterator of EquilibriumPoint chunks of arrays, SCAN_CHUNK_ROWS
    rows each but the last, so no array of n_points is built.

    Every parameter, and B^2 on every chunk of the grid, is checked before this
    returns: a ParameterError, or the ZeroDivisionError of a zero B^2, comes
    before the first chunk, however late in the grid its cause lies.
    """
    s1, s2 = check_parameters(alpha, j1, j2, (sigma_min, sigma_max))
    if not sigma_min < sigma_max:
        raise ParameterError(f"sigma_min = {sigma_min!r}: need sigma_min < sigma_max")
    if n_points < 2:
        raise ParameterError(f"points = {n_points!r}: need at least two grid points")
    starts = range(0, n_points, SCAN_CHUNK_ROWS)
    for start in starts:
        shape_bracket(_grid_chunk(sigma_min, sigma_max, n_points, start), s1, s2)
    return (equilibrium_point(_grid_chunk(sigma_min, sigma_max, n_points, start),
                              alpha=alpha, j1=j1, j2=j2) for start in starts)


def minimize_delta_e(bracket, tol: float = 1e-6, alpha: float = FINE_STRUCTURE_ALPHA,
                     j1: float = 1.0, j2: float = 1.0) -> MinimizeResult:
    """Ground state: the root of d(delta_e)/d(sigma) at the minimum inside the bracket.

    The slope is the complex step Im delta_e(sigma + i h) / h, exact to
    rounding through the one closed-form path, and ``spectrum.brentq``
    solves for its zero, so sigma0 obeys Brent's contract
    |sigma0 - sigma*| <= tol + 4 eps |sigma0|.

    Where B > 0 the excess energy is made of two polynomials in sigma,

        delta_e = N / (a^2 sqrt(P)) - (1 + sigma) / a^2,
        N = 2 a^2 sigma (1 + sigma)^2 + (1 + sigma) B   (degree 4),
        P = B^2 + D = C1^2                            (degree 6),

    so its stationary points are the roots of the degree-18 polynomial
    Q = (2 N' P - N P')^2 - 4 P^3 at which 2 N' P - N P' > 0 (the others
    come from the squaring).  The certificate (tests/test_optimize.py)
    isolates the real roots of Q exactly, with sympy, and finds two such
    roots in (0, 1) for alpha in {CODATA, 0.02, 0.05, 0.1} and j1, j2 in
    {1, 1.5, 2}: the minimum sigma0 and, after it, a maximum.  The slope
    runs -, +, -, so a bracket whose end slopes are negative then positive
    holds sigma0 and no other stationary point: brentq then starts on the
    bracket itself.  Other (alpha, j1, j2) take the same rule unproven.

    Otherwise (an end past the maximum, or a bracket without sigma0) a
    walk over the 32-point grid lo + k (hi - lo) / 31 must find a point
    strictly below both bracket ends, and brentq solves between the lowest
    point's two neighbours; without one, or on a NaN, it raises
    NonUnimodalError.  Where s1, s2 > 0 the walk stops at its first strict
    rise: past it delta_e climbs to the maximum and then only falls, so
    the grid's lowest point is the walk's minimum or hi.  At s1 <= 0 or
    s2 <= 0 it walks all 32 points, as the slope may change sign more often.

    B > 0 holds on (0, 1] when s1, s2 > 0, that is j^2 - 4 a^2 > 1/4 for
    both electrons.  Below that B can change sign inside the bracket; the
    closed form, which takes |B|, then has a kink there, Q no longer
    describes delta_e, and the certificate does not apply.  Either path
    then returns a sign change of the slope, which may be the kink.
    """
    lo, hi = sorted(map(float, bracket))
    s1, s2 = check_parameters(alpha, j1, j2, (lo, hi), tol)
    if lo == hi:
        raise ParameterError(f"sigma_min = {lo!r}: need sigma_min != sigma_max")

    def excess(sigma):
        return delta_e(c_params(sigma, s1, s2, alpha))

    def slope(sigma):
        return excess(sigma + 1e-30j).imag / 1e-30

    ends = {lo: slope(lo), hi: slope(hi)}
    if not ends[lo] < 0 < ends[hi]:
        grid, stop_at_rise = _grid(lo, hi, _GRID_POINTS), s1 > 0 and s2 > 0
        first = least = excess(lo)
        k_least = 0
        for k in range(1, _GRID_POINTS - 1):
            value = excess(grid(k))
            if value < least:
                least, k_least = value, k
            elif value != value:
                least = value  # a NaN fails the test below
                break
            elif stop_at_rise and value > least:
                break
        if not first > least < excess(hi):
            raise NonUnimodalError(f"no interior minimum on [{lo}, {hi}]: coarse scan bottoms "
                                   "out at the bracket edge; widen or reposition the bracket")
        lo, hi = grid(k_least - 1), grid(k_least + 1)
    # brentq starts by evaluating both ends: reuse the rule's two slopes
    sigma0, iterations = brentq(lambda s: ends[s] if s in ends else slope(s), lo, hi, xtol=tol)
    return MinimizeResult(point=equilibrium_point(sigma0, alpha=alpha, j1=j1, j2=j2),
                          iterations=iterations)


def ion_limit_report(sigmas, alpha: float = FINE_STRUCTURE_ALPHA,
                     j1: float = 1.0, j2: float = 1.0) -> tuple:
    """(sigma, delta_e) float64 columns approaching the one-electron limit as sigma -> 0+."""
    sigmas = [float(sigma) for sigma in sigmas]
    check_parameters(alpha, j1, j2, sigmas)
    import numpy as np
    sigma = np.array(sigmas)
    return sigma, delta_e(closed_form(sigma, alpha=alpha, j1=j1, j2=j2))

