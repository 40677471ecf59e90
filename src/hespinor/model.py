"""Physical constants and the parameter domain of the two-electron model.

Every layer checks its parameters through ``ModelParams``.  This module
imports no numpy, so a command that needs no arrays (``hespinor minimize``)
never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

FINE_STRUCTURE_ALPHA = 1.0 / 137.035999084
J_MAX = 2.0**254  # largest |j|: above it B ~ 4 j^2 at sigma = 1 has an infinite square
SIGMA_MIN = 2.0**-516  # smallest sigma the commands take: r20 = r10 / sigma <= 2**1023 at |j1| <= J_MAX


class ParameterError(ValueError):
    """A parameter lies outside the model's domain; the message starts with its name."""


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and quantum numbers of the two-electron model.

    sigma is the penetration factor mixing the two one-electron
    Hamiltonians, H = (1 - sigma) H1 + 2 sigma H2.  j1 and j2 must satisfy
    j^2 > 4 alpha^2 so the radial exponents stay real, and |j| <= J_MAX so
    the closed form stays finite.
    """

    sigma: float
    alpha: float = FINE_STRUCTURE_ALPHA
    j1: float = 1.0
    j2: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ParameterError(f"sigma must lie in [0, 1], got {self.sigma}")
        # below 2**-511 alpha^2 is subnormal, and delta_e = (E - 1 - sigma) / alpha^2 loses digits
        if not 2.0**-511 <= self.alpha < math.inf:
            raise ParameterError(f"alpha = {self.alpha!r}: need a finite alpha >= 2**-511")
        for name, j in (("j1", self.j1), ("j2", self.j2)):
            if not 4 * self.alpha**2 < j * j <= J_MAX * J_MAX:
                raise ParameterError(f"{name} = {j!r}: need {name}^2 > 4 alpha^2 for real "
                                     f"exponents and |{name}| <= 2**254")
