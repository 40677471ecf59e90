"""Radial profiles with their partials written by hand: the tests' reference route.

``angular.radial_system_residual`` takes a profile's partials by complex step;
the tests compare it with these analytic partials, which do not depend on that
step.  Each profile here is a triple (value, d/dr1, d/dr2) of callables of
(r1, r2).
"""

import numpy as np


def power_exponential(coef, s1, s2, beta1, beta2):
    """coef r1^s1 r2^s2 exp(-beta1 r1 - beta2 r2) and its two partials."""

    def value(r1, r2):
        return coef * r1**s1 * r2**s2 * np.exp(-beta1 * r1 - beta2 * r2)

    return (value,
            lambda r1, r2: (s1 / r1 - beta1) * value(r1, r2),
            lambda r1, r2: (s2 / r2 - beta2) * value(r1, r2))


def _bump(r1, r2):
    return np.exp(-((r1 - 1.0) ** 2 + (r2 - 1.3) ** 2) / 2)


def _decay(r1, r2):
    return np.exp(-0.8 * r1 - 1.1 * r2)


# generic smooth profiles unrelated to any exact solution, the ones verify's angular checks use
SMOOTH = (
    (_bump,
     lambda r1, r2: -(r1 - 1.0) * _bump(r1, r2),
     lambda r1, r2: -(r2 - 1.3) * _bump(r1, r2)),
    power_exponential(0.8, 1.0, 0.5, 0.9, 0.4),
    power_exponential(-0.6, 0.5, 1.0, 0.7, 0.8),
    (lambda r1, r2: _decay(r1, r2) * (1 + 0.3 * r2),
     lambda r1, r2: -0.8 * _decay(r1, r2) * (1 + 0.3 * r2),
     lambda r1, r2: _decay(r1, r2) * (0.3 - 1.1 * (1 + 0.3 * r2))),
)


def values(triples) -> list:
    """The profiles themselves, as ``angular`` takes them."""
    return [value for value, _, _ in triples]


def partials(triples, r1, r2) -> tuple:
    """Values, d/dr1 and d/dr2 at (r1, r2), each stacked along a last axis of 4."""
    return tuple(np.stack([part(r1, r2) for part in parts], axis=-1) for parts in zip(*triples))
