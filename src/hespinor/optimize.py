"""Sigma scan and ground-state search: Brent's method on the complex-step slope of the excess energy."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import FINE_STRUCTURE_ALPHA, SIGMA_MIN, ModelParams, ParameterError
from .radial import exponents
from .spectrum import EquilibriumPoint, brentq, c_params, closed_form, delta_e, equilibrium_point

_PRESCAN_POINTS = 32


class NonUnimodalError(ValueError):
    """The bracket's end slopes do not enclose a minimum, and the coarse pre-scan
    found no interior minimum either."""


def check_parameters(alpha: float, j1: float, j2: float, sigmas, tol: float | None = None):
    """Raise a ParameterError naming the first parameter outside the model's domain.

    ``ModelParams`` checks alpha, j1 and j2.  ``sigmas`` must be non-empty
    with every sigma in [SIGMA_MIN, 1], and ``tol``, the root-finder's
    absolute sigma tolerance, must be at least one ulp of the largest sigma,
    since no sigma can be located more finely than that.  ``scan_sigma``,
    ``minimize_delta_e`` and ``ion_limit_report`` each call this before any
    numeric work.
    """
    ModelParams(sigma=1.0, alpha=alpha, j1=j1, j2=j2)
    if not len(sigmas):
        raise ParameterError("sigmas is empty: need at least one sigma")
    for sigma in sigmas:
        if not SIGMA_MIN <= sigma <= 1:
            raise ParameterError(f"sigma = {sigma!r}: need 2**-516 <= sigma <= 1")
    if tol is not None and not tol >= (floor := math.ulp(max(sigmas))):
        raise ParameterError(f"tol = {tol!r}: need tol >= {floor:.3g}, one ulp of sigma")


@dataclass(frozen=True)
class MinimizeResult:
    point: EquilibriumPoint
    iterations: int  # Brent steps on the bracket, or on the pre-scan's cell around its minimum


def scan_sigma(sigma_min: float, sigma_max: float, n_points: int,
               alpha: float = FINE_STRUCTURE_ALPHA, j1: float = 1.0,
               j2: float = 1.0) -> EquilibriumPoint:
    """Equilibrium columns on a uniform sigma grid, ascending: one EquilibriumPoint of arrays."""
    check_parameters(alpha, j1, j2, (sigma_min, sigma_max))
    if not sigma_min < sigma_max:
        raise ParameterError(f"sigma_min = {sigma_min!r}: need sigma_min < sigma_max")
    if n_points < 2:
        raise ParameterError(f"points = {n_points!r}: need at least two grid points")
    import numpy as np
    grid = np.linspace(sigma_min, sigma_max, n_points)
    return equilibrium_point(grid, alpha=alpha, j1=j1, j2=j2)


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
    32-point pre-scan must find some interior grid point strictly below
    both bracket ends, and brentq solves between that point's two
    neighbours; without one it raises NonUnimodalError.

    B > 0 holds on (0, 1] when s1, s2 > 0, that is j^2 - 4 a^2 > 1/4 for
    both electrons.  Below that B can change sign inside the bracket; the
    closed form, which takes |B|, then has a kink there, Q no longer
    describes delta_e, and the certificate does not apply.  Either path
    then returns a sign change of the slope, which may be the kink.
    """
    lo, hi = sorted(map(float, bracket))
    check_parameters(alpha, j1, j2, (lo, hi), tol)

    s1, s2 = exponents(j1, j2, alpha)

    def slope(sigma):
        return delta_e(c_params(sigma + 1e-30j, s1, s2, alpha, j1=j1, j2=j2)).imag / 1e-30

    ends = {lo: slope(lo), hi: slope(hi)}
    if not ends[lo] < 0 < ends[hi]:
        import numpy as np
        grid = np.linspace(lo, hi, _PRESCAN_POINTS)
        values = delta_e(c_params(grid, s1, s2, alpha, j1=j1, j2=j2))
        if not values[0] > values.min() < values[-1]:
            raise NonUnimodalError(
                f"no interior minimum on [{lo}, {hi}]: coarse scan bottoms out at the "
                "bracket edge; widen or reposition the bracket"
            )
        k = int(np.argmin(values))
        lo, hi = grid[k - 1], grid[k + 1]
    # brentq starts by evaluating both ends: reuse the rule's two slopes
    sigma0, iterations = brentq(lambda s: ends[s] if s in ends else slope(s), lo, hi, xtol=tol)
    return MinimizeResult(point=equilibrium_point(sigma0, alpha=alpha, j1=j1, j2=j2),
                          iterations=iterations)


def ion_limit_report(sigmas, alpha: float = FINE_STRUCTURE_ALPHA,
                     j1: float = 1.0, j2: float = 1.0) -> list:
    """(sigma, delta_e) rows approaching the one-electron limit as sigma -> 0+."""
    sigmas = [float(sigma) for sigma in sigmas]
    check_parameters(alpha, j1, j2, sigmas)
    import numpy as np
    values = delta_e(closed_form(np.array(sigmas), alpha=alpha, j1=j1, j2=j2))
    return list(zip(sigmas, values.tolist()))


__all__ = [
    "MinimizeResult",
    "NonUnimodalError",
    "ParameterError",
    "check_parameters",
    "ion_limit_report",
    "minimize_delta_e",
    "scan_sigma",
]
