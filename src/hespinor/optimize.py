"""Sigma scan and ground-state search: Brent's method on the complex-step slope of the excess energy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import FINE_STRUCTURE_ALPHA, ModelParams, ParameterError
from .radial import exponents
from .spectrum import EquilibriumPoint, brentq, c_params, closed_form, delta_e, equilibrium_point

_PRESCAN_POINTS = 32


class NonUnimodalError(ValueError):
    """Coarse pre-scan found no interior minimum inside the bracket."""


def check_parameters(alpha: float, j1: float, j2: float, sigmas, tol: float | None = None):
    """Raise a ParameterError naming the first parameter outside the model's domain.

    ``ModelParams`` checks alpha, j1 and j2.  ``sigmas`` must be non-empty
    with every sigma in (0, 1], and ``tol``, the root-finder's
    absolute sigma tolerance, must be at least one ulp of the largest sigma,
    since no sigma can be located more finely than that.  ``scan_sigma``,
    ``minimize_delta_e`` and ``ion_limit_report`` each call this before any
    numeric work.
    """
    ModelParams(sigma=1.0, alpha=alpha, j1=j1, j2=j2)
    if not len(sigmas):
        raise ParameterError("sigmas is empty: need at least one sigma")
    for sigma in sigmas:
        if not 0 < sigma <= 1:
            raise ParameterError(f"sigma = {sigma!r}: need 0 < sigma <= 1")
    if tol is not None and not tol >= (floor := math.ulp(max(sigmas))):
        raise ParameterError(f"tol = {tol!r}: need tol >= {floor:.3g}, one ulp of sigma")


@dataclass(frozen=True)
class MinimizeResult:
    point: EquilibriumPoint
    iterations: int  # Brent steps in the cell around the pre-scan's minimum


def scan_sigma(sigma_min: float, sigma_max: float, n_points: int,
               alpha: float = FINE_STRUCTURE_ALPHA, j1: float = 1.0,
               j2: float = 1.0) -> EquilibriumPoint:
    """Equilibrium columns on a uniform sigma grid, ascending: one EquilibriumPoint of arrays."""
    check_parameters(alpha, j1, j2, (sigma_min, sigma_max))
    if not sigma_min < sigma_max:
        raise ParameterError(f"sigma_min = {sigma_min!r}: need sigma_min < sigma_max")
    if n_points < 2:
        raise ParameterError(f"points = {n_points!r}: need at least two grid points")
    grid = np.linspace(sigma_min, sigma_max, n_points)
    return equilibrium_point(grid, alpha=alpha, j1=j1, j2=j2)


def minimize_delta_e(bracket, tol: float = 1e-6, alpha: float = FINE_STRUCTURE_ALPHA,
                     j1: float = 1.0, j2: float = 1.0) -> MinimizeResult:
    """Ground state: the root of d(delta_e)/d(sigma) next to the lowest pre-scan point.

    A 32-point pre-scan must find some interior grid point strictly below
    both bracket ends; ``spectrum.brentq`` then solves for the zero slope
    between that point's two neighbours.  The slope is the complex step
    Im delta_e(sigma + i h) / h, exact to rounding through the one closed-form
    path, so sigma0 obeys Brent's contract |sigma0 - sigma*| <= tol + 4 eps |sigma0|.
    """
    lo, hi = sorted(map(float, bracket))
    check_parameters(alpha, j1, j2, (lo, hi), tol)

    s1, s2 = exponents(j1, j2, alpha)
    grid = np.linspace(lo, hi, _PRESCAN_POINTS)
    values = delta_e(c_params(grid, s1, s2, alpha, j1=j1, j2=j2))
    if not values[0] > values.min() < values[-1]:
        raise NonUnimodalError(
            f"no interior minimum on [{lo}, {hi}]: coarse scan bottoms out at the "
            "bracket edge; widen or reposition the bracket"
        )

    def slope(sigma):
        return delta_e(c_params(sigma + 1e-30j, s1, s2, alpha, j1=j1, j2=j2)).imag / 1e-30

    k = int(np.argmin(values))
    sigma0, iterations = brentq(slope, grid[k - 1], grid[k + 1], xtol=tol)
    return MinimizeResult(point=equilibrium_point(sigma0, alpha=alpha, j1=j1, j2=j2),
                          iterations=iterations)


def ion_limit_report(sigmas, alpha: float = FINE_STRUCTURE_ALPHA,
                     j1: float = 1.0, j2: float = 1.0) -> list:
    """(sigma, delta_e) rows approaching the one-electron limit as sigma -> 0+."""
    sigmas = [float(sigma) for sigma in sigmas]
    check_parameters(alpha, j1, j2, sigmas)
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
