"""Sigma scan and ground-state search: Brent's method on the complex-step slope of the excess energy."""

import math
from collections import namedtuple

from .model import FINE_STRUCTURE_ALPHA, SIGMA_MIN, ParameterError, exponents
from .spectrum import (brentq, c_params, closed_form, delta_e, equilibrium_point,
                       shape_bracket)

_GRID_POINTS = 32
SCAN_CHUNK_ROWS = 8192  # rows per EquilibriumPoint a scan yields, and per write of its table


class NonUnimodalError(ValueError):
    """The bracket's end slopes do not enclose a minimum, and no cell of the
    coarse grid has end slopes that run (-, +) either."""


def check_parameters(alpha: float, j1: float, j2: float, sigmas, tol: float | None = None):
    """The exponents (s1, s2), or a ParameterError naming the first parameter
    outside the model's domain.

    ``exponents`` checks alpha, j1 and j2.  ``sigmas`` must be non-empty
    with every sigma in [SIGMA_MIN, 1], and ``tol``, the root-finder's
    absolute sigma tolerance, must be at least one ulp of the largest sigma,
    since no sigma can be located more finely than that, and below the
    width of sigmas that span a bracket, where an end would pass for the
    root.  ``scan_sigma``,
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
    if tol is not None and tol >= (width := max(sigmas) - min(sigmas)) > 0:
        raise ParameterError(f"tol = {tol!r}: need tol < {width!r}, the bracket width")
    return s1, s2


class MinimizeResult(namedtuple("MinimizeResult", "point iterations")):
    """The ground state's EquilibriumPoint, and the Brent steps taken on the
    bracket, or on the first grid cell whose end slopes run (-, +)."""

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
    if n_points > 2**53 + 1:  # past it the float64 row index of _grid_chunk is inexact
        raise ParameterError(f"points = {n_points!r}: need at most 2**53 + 1 grid points")
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
    |sigma0 - sigma*| <= tol + 4 eps |sigma0|.  A sigma0 at an end of the
    bracket raises ParameterError: tol is then too wide to tell it from the root.

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

    Otherwise (an end past the maximum, or a bracket without sigma0) the
    slope is walked up the 32-point grid lo + k (hi - lo) / 31 to its
    first cell whose end slopes run (-, +), and brentq solves on that
    cell; under the -, +, - pattern it holds sigma0 and nothing else.  No
    such cell, or a NaN slope, raises NonUnimodalError.

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

    shape_bracket(lo, s1, s2)  # on floats: the slope's complex step hides a B^2 of 0

    def slope(sigma):  # delta_e's complex step in line: one frame per slope
        return delta_e(c_params(sigma + 1e-30j, s1, s2, alpha)).imag / 1e-30

    ends = {lo: slope(lo), hi: slope(hi)}
    a, b = lo, hi
    if not ends[lo] < 0 < ends[hi]:
        grid, fa = _grid(lo, hi, _GRID_POINTS), ends[lo]
        for k in range(1, _GRID_POINTS):
            b = grid(k)
            fb = ends[b] if b in ends else slope(b)
            if fa < 0 < fb or fa != fa:  # a NaN stops the walk and fails the test below
                break
            a, fa = b, fb
        if not fa < 0 < fb:
            raise NonUnimodalError(f"no interior minimum on [{lo}, {hi}]: no cell of the "
                                   "slope grid runs (-, +); widen or reposition the bracket")
        ends = {a: fa, b: fb}
    # brentq starts by evaluating both ends: reuse the two slopes that chose them
    sigma0, iterations = brentq(lambda s: ends[s] if s in ends else slope(s), a, b, xtol=tol)
    if sigma0 == lo or sigma0 == hi:  # a tol this wide lets brentq stop at an end of the bracket
        raise ParameterError(f"tol = {tol!r}: the solve stopped at the bracket end "
                             f"sigma = {sigma0!r}; need a smaller tol")
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

