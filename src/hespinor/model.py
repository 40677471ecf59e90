"""Physical constants and the parameter domain of the two-electron model.

``exponents`` checks alpha, j1 and j2 for every layer: each entry point
takes the radial exponents from it, the closed form and ``ModelParams``
included.  This module imports no numpy, so a command that needs no
arrays (``hespinor minimize``) loads no numpy.  Every record of the package is
a ``namedtuple`` subclass, as ``ModelParams`` is, so no command loads
dataclasses.
"""

import math
from collections import namedtuple

FINE_STRUCTURE_ALPHA = 1.0 / 137.035999084
J_MAX = 2.0**254  # largest |j|: above it B ~ 4 j^2 at sigma = 1 has an infinite square
SIGMA_MIN = 2.0**-516  # smallest sigma the commands take: r20 = r10 / sigma <= 2**1023 at |j1| <= J_MAX


class ParameterError(ValueError):
    """A parameter lies outside the model's domain; the message starts with its name."""


class ModelParams(namedtuple("ModelParams", "sigma alpha j1 j2")):
    """Physical constants and quantum numbers of the two-electron model.

    sigma is the penetration factor mixing the two one-electron
    Hamiltonians, H = (1 - sigma) H1 + 2 sigma H2; it must lie in [0, 1].
    ``exponents`` checks alpha, j1 and j2.  Every instance is checked,
    ``_replace`` and ``_make`` included.
    """

    __slots__ = ()

    def __new__(cls, sigma, alpha=FINE_STRUCTURE_ALPHA, j1=1.0, j2=1.0):
        if not 0.0 <= sigma <= 1.0:
            raise ParameterError(f"sigma must lie in [0, 1], got {sigma}")
        exponents(j1, j2, alpha)
        return super().__new__(cls, sigma, alpha, j1, j2)

    @classmethod
    def _make(cls, iterable):  # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def exponents(j1: float, j2: float, alpha: float) -> tuple:
    """Leading radial exponents s_k = -1/2 + sqrt(j_k^2 - 4 alpha^2).

    Raises a ParameterError naming the first of alpha, j1, j2 outside the
    domain: alpha finite and at least 2**-511, j^2 > 4 alpha^2 so that s_k
    is real, and |j| <= J_MAX so that the closed form stays finite.
    """
    # below 2**-511 alpha^2 is subnormal, and delta_e = (E - 1 - sigma) / alpha^2 loses digits
    if not 2.0**-511 <= alpha < math.inf:
        raise ParameterError(f"alpha = {alpha!r}: need a finite alpha >= 2**-511")
    # an int 4: an int alpha past the float range then gives an exact int, not OverflowError
    four_a2 = 4 * alpha * alpha  # not alpha**2: a float's ** raises OverflowError where * gives inf
    for name, j in (("j1", j1), ("j2", j2)):
        if not four_a2 < j * j <= J_MAX * J_MAX:
            raise ParameterError(f"{name} = {j!r}: need {name}^2 > 4 alpha^2 for real "
                                 f"exponents and |{name}| <= 2**254")
    # not -1/2 + sqrt(...): near j = 1/2 that cancels, while (j - 1/2)(j + 1/2) is exact
    return (((j1 - 0.5) * (j1 + 0.5) - four_a2) / (0.5 + math.sqrt(j1 * j1 - four_a2)),
            ((j2 - 0.5) * (j2 + 0.5) - four_a2) / (0.5 + math.sqrt(j2 * j2 - four_a2)))
