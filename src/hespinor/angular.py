"""Angular eigenfunction ansatz and separation of the component system.

Each spinor component is written f_k(r1, r2) * exp(i Phi_k) with phase
Phi_k = m1_k theta1 + m2_k theta2.  For the accepted coefficient
assignment the angular dependence cancels row by row from the component
system (with the interelectron distance frozen), leaving a purely radial
system whose rows are evaluated here in closed form as well.
"""

from collections import namedtuple
from itertools import product

import numpy as np

from .model import ModelParams
from .operators import (ConfigPoint, SpinorField, component_system_residual, gradient,
                        potential_radii)


class PhaseAssignment(namedtuple("PhaseAssignment", "pairs")):
    """Four (theta1, theta2) winding coefficient pairs, one per component."""

    __slots__ = ()

    def __new__(cls, pairs):
        if len(pairs) != 4:
            raise ValueError("a phase assignment needs exactly four coefficient pairs")
        return super().__new__(cls, pairs)

    @classmethod
    def _make(cls, iterable):  # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @classmethod
    def canonical(cls, j1: float, j2: float) -> "PhaseAssignment":
        """The unique assignment with coefficients in {j +- 1/2} for which
        the angular dependence cancels and every component carries the same
        M eigenvalue j1 + j2."""
        return cls(
            pairs=(
                (j1 + 0.5, j2 + 0.5),
                (j1 - 0.5, j2 - 0.5),
                (j1 - 0.5, j2 + 0.5),
                (j1 + 0.5, j2 - 0.5),
            )
        )

    def phase_vector(self, theta1, theta2) -> np.ndarray:
        """exp(i Phi_k) of the four components, along a trailing axis of the angles."""
        return np.exp(
            1j * (np.array([p[0] for p in self.pairs]) * np.expand_dims(theta1, -1)
                  + np.array([p[1] for p in self.pairs]) * np.expand_dims(theta2, -1))
        )

    def in_half_step_band(self, j1: float, j2: float) -> bool:
        """True when every coefficient differs from its j by +-1/2, to within 1e-12."""
        tol = 1e-12
        return all(
            min(abs(m1 - (j1 - 0.5)), abs(m1 - (j1 + 0.5))) <= tol
            and min(abs(m2 - (j2 - 0.5)), abs(m2 - (j2 + 0.5))) <= tol
            for m1, m2 in self.pairs
        )


class RadialProfile(namedtuple("RadialProfile", "value d_r1 d_r2")):
    """Radial factor of one spinor component with its analytic partials.

    The callables map r1, r2 (floats or arrays of one shape) to that shape."""

    __slots__ = ()

    @classmethod
    def power_exponential(cls, coef, s1, s2, beta1, beta2) -> "RadialProfile":
        """coef * r1^s1 * r2^s2 * exp(-beta1 r1 - beta2 r2)."""

        def value(r1, r2):
            return coef * r1**s1 * r2**s2 * np.exp(-beta1 * r1 - beta2 * r2)

        def d_r1(r1, r2):
            return (s1 / r1 - beta1) * value(r1, r2)

        def d_r2(r1, r2):
            return (s2 / r2 - beta2) * value(r1, r2)

        return cls(value=value, d_r1=d_r1, d_r2=d_r2)


def build_spinor(assignment: PhaseAssignment, profiles) -> SpinorField:
    """Assemble the four-spinor f_k(r1, r2) exp(i Phi_k(theta1, theta2))."""
    if len(profiles) != 4:
        raise ValueError("need one radial profile per spinor component")

    def fn(p: ConfigPoint) -> np.ndarray:
        r1, r2 = p.r1, p.r2
        values = np.stack([prof.value(r1, r2) for prof in profiles], axis=-1)
        return values * assignment.phase_vector(p.theta1, p.theta2)

    return SpinorField(fn)


def point_from_polar(r1, theta1, r2, theta2) -> ConfigPoint:
    return ConfigPoint(
        r1 * np.cos(theta1), r1 * np.sin(theta1),
        r2 * np.cos(theta2), r2 * np.sin(theta2),
    )


def separation_residual(params: ModelParams, assignment: PhaseAssignment, profiles,
                        energy, angle_samples, radial_point, rho0, step) -> np.ndarray:
    """Phase-stripped component residuals at every radius and angle sample.

    The four component equations are evaluated for all (theta1, theta2)
    samples in one batch by finite differences with the interelectron
    distance frozen at rho0, and divided componentwise by exp(i Phi_k).
    ``radial_point`` is (r1, r2), two floats or two arrays of one shape S;
    for A angle samples the rows have shape S + (A, 4).  Full angular
    cancellation means they agree along the angle axis, with the rows of
    ``radial_system_residual``.

    The stripping phases are computed from the constructed point's own
    atan2 angles: with half-integer winding coefficients the raw sample
    angle and its principal value can differ by 2 pi, which flips the
    phase sign.
    """
    angles = np.asarray(angle_samples, dtype=float).reshape(-1, 2)
    r1, r2 = (np.expand_dims(r, -1) for r in radial_point)
    p = point_from_polar(r1, angles[:, 0], r2, angles[:, 1])
    f0, d = gradient(build_spinor(assignment, profiles), p, step)
    res = component_system_residual(params, p, f0, d, energy, rho_freeze=rho0)
    return res / assignment.phase_vector(p.theta1, p.theta2)


def radial_system_residual(params: ModelParams, profiles, energy, rho0, point) -> np.ndarray:
    """Four rows of the separated radial system, via analytic derivatives.

    Agrees with every angle sample of ``separation_residual`` up to the
    O(step^2) finite-difference error of the latter.  ``point`` is (r1, r2):
    two floats give shape (4,), two arrays of shape S give S + (4,).
    """
    r1, r2 = point
    if np.any(r1 <= 0) or np.any(r2 <= 0):
        raise ValueError("radial evaluation needs r1 > 0 and r2 > 0")
    s, j1, j2 = params.sigma, params.j1, params.j2
    phi = potential_radii(params, r1, r2, rho0)
    qp = (1 + s) + (phi - energy)
    qm = (1 + s) - (phi - energy)
    f = [prof.value(r1, r2) for prof in profiles]
    d1 = [prof.d_r1(r1, r2) for prof in profiles]
    d2 = [prof.d_r2(r1, r2) for prof in profiles]
    w1, w2 = 1 - s, 2 * s
    return np.stack(
        [
            qp * f[0] - w1 * (d1[2] - (j1 - 0.5) / r1 * f[2]) - w2 * (d2[3] - (j2 - 0.5) / r2 * f[3]),
            qp * f[1] + w1 * (d1[3] + (j1 + 0.5) / r1 * f[3]) - w2 * (d2[2] + (j2 + 0.5) / r2 * f[2]),
            qm * f[2] - w1 * (d1[0] + (j1 + 0.5) / r1 * f[0]) - w2 * (d2[1] - (j2 - 0.5) / r2 * f[1]),
            qm * f[3] + w1 * (d1[1] - (j1 - 0.5) / r1 * f[1]) - w2 * (d2[0] + (j2 + 0.5) / r2 * f[0]),
        ],
        axis=-1,
    )


def find_cancelling_assignments(j1: float, j2: float) -> list:
    """Enumerate winding assignments that cancel the angular dependence.

    Coefficients are drawn from {+-(j - 1/2), +-(j + 1/2)}.  An assignment
    cancels exactly when the row phases match term by term:

        Phi1 - Phi3 = theta1     Phi4 - Phi2 = theta1
        Phi3 - Phi2 = theta2     Phi1 - Phi4 = theta2

    These fix components 2-4 from component 1's pair (a, b): they are
    (a-1, b-1), (a-1, b) and (a, b-1), so the 16 choices of (a, b) are
    kept when all four pairs lie in the coefficient sets.  Solutions come
    in ladders shifted by whole windings; exactly one lies in the
    (j +- 1/2) band and ``PhaseAssignment.canonical`` returns it.
    """
    m1_opts = {j1 - 0.5, j1 + 0.5, -(j1 - 0.5), -(j1 + 0.5)}
    m2_opts = {j2 - 0.5, j2 + 0.5, -(j2 - 0.5), -(j2 + 0.5)}

    def below(opts, m):
        return [o for o in opts if abs(m - 1 - o) <= 1e-12]

    return [PhaseAssignment(pairs=((a, b), (a1, b1), (a1, b), (a, b1)))
            for a, b in product(m1_opts, m2_opts)
            for a1, b1 in product(below(m1_opts, a), below(m2_opts, b))]
