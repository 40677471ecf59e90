"""Sigma scan and derivative-free minimization of the excess energy."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .operators import FINE_STRUCTURE_ALPHA, ModelParams
from .spectrum import EquilibriumPoint, closed_form, delta_e, equilibrium_point, ion_limit

_INV_PHI = (math.sqrt(5) - 1) / 2
_PRESCAN_POINTS = 32


class NonUnimodalError(ValueError):
    """Coarse pre-scan found no interior minimum inside the bracket."""


def check_parameters(alpha: float, m: float, j1: float, j2: float, sigmas=(),
                     tol: float | None = None):
    """Raise a ValueError naming the first parameter outside the model's domain.

    ``ModelParams`` checks alpha, m, j1 and j2.  Every sigma must lie in
    (0, 1], and ``tol``, a golden-section bracket width, must be at least
    one ulp of the largest sigma, since the bracket cannot shrink below that.
    """
    ModelParams(sigma=1.0, alpha=alpha, m=m, j1=j1, j2=j2)
    for sigma in sigmas:
        if not 0 < sigma <= 1:
            raise ValueError(f"sigma = {sigma!r}: need 0 < sigma <= 1")
    if tol is not None and not tol >= (floor := math.ulp(max(sigmas))):
        raise ValueError(f"tol = {tol!r}: need tol >= {floor:.3g}, one ulp of sigma")


@dataclass(frozen=True)
class ScanConfig:
    sigma_min: float
    sigma_max: float
    n_points: int
    j1: float = 1.0
    j2: float = 1.0
    alpha: float = FINE_STRUCTURE_ALPHA
    m: float = 1.0

    def __post_init__(self):
        check_parameters(self.alpha, self.m, self.j1, self.j2, (self.sigma_min, self.sigma_max))
        if not self.sigma_min < self.sigma_max:
            raise ValueError(f"sigma_min = {self.sigma_min!r}: need sigma_min < sigma_max")
        if self.n_points < 2:
            raise ValueError(f"points = {self.n_points!r}: need at least two grid points")


@dataclass(frozen=True)
class MinimizeResult:
    point: EquilibriumPoint
    iterations: int
    bracket: tuple
    tolerance_achieved: float


def scan_sigma(config: ScanConfig) -> list:
    """Equilibrium rows on a uniform sigma grid, ascending, from one array evaluation."""
    grid = np.linspace(config.sigma_min, config.sigma_max, config.n_points)
    table = equilibrium_point(grid, alpha=config.alpha, m=config.m, j1=config.j1, j2=config.j2)
    columns = [getattr(table, f.name).tolist() for f in fields(EquilibriumPoint)]
    return [EquilibriumPoint(*row) for row in zip(*columns)]


def minimize_delta_e(bracket, tol: float = 1e-6, alpha: float = FINE_STRUCTURE_ALPHA,
                     m: float = 1.0, j1: float = 1.0, j2: float = 1.0) -> MinimizeResult:
    """Golden-section minimization of the excess energy over sigma.

    A coarse pre-scan first verifies unimodality (some interior grid point
    must lie strictly below both bracket ends).
    """
    lo, hi = sorted(map(float, bracket))
    check_parameters(alpha, m, j1, j2, (lo, hi), tol)

    def objective(sigma):
        return delta_e(closed_form(sigma, alpha=alpha, m=m, j1=j1, j2=j2))

    values = objective(np.linspace(lo, hi, _PRESCAN_POINTS))
    if not values[0] > values.min() < values[-1]:
        raise NonUnimodalError(
            f"no interior minimum on [{lo}, {hi}]: coarse scan bottoms out at the "
            "bracket edge; widen or reposition the bracket"
        )

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    iterations = 0
    while abs(b - a) > tol:
        iterations += 1
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    sigma0 = 0.5 * (a + b)
    return MinimizeResult(point=equilibrium_point(sigma0, alpha=alpha, m=m, j1=j1, j2=j2),
                          iterations=iterations, bracket=(a, b),
                          tolerance_achieved=abs(b - a))


def ion_limit_report(sigmas, alpha: float = FINE_STRUCTURE_ALPHA, m: float = 1.0,
                     j1: float = 1.0, j2: float = 1.0) -> list:
    """(sigma, delta_e) rows approaching the one-electron limit as sigma -> 0+."""
    sigmas = [float(sigma) for sigma in sigmas]
    check_parameters(alpha, m, j1, j2, sigmas)
    values = delta_e(closed_form(np.array(sigmas), alpha=alpha, m=m, j1=j1, j2=j2))
    return list(zip(sigmas, values.tolist()))


__all__ = [
    "MinimizeResult",
    "NonUnimodalError",
    "ScanConfig",
    "check_parameters",
    "ion_limit",
    "ion_limit_report",
    "minimize_delta_e",
    "scan_sigma",
]
