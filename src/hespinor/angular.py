"""Angular eigenfunction ansatz and separation of the component system.

Each spinor component is written f_k(r1, r2) * exp(i Phi_k) with phase
Phi_k = m1_k theta1 + m2_k theta2.  For the accepted coefficient
assignment the angular dependence cancels row by row from the component
system (with the interelectron distance frozen), leaving a purely radial
system: the operator of ``radial.operator_rows`` on the profiles.

A radial profile is one callable f(r1, r2), real for real radii and analytic
in each radius, as numpy arithmetic and ufuncs are (no ``abs``, ``maximum`` or
``math``): the radial rows take its partials by complex step.
"""

from collections import namedtuple
from itertools import product

import numpy as np

from . import radial
from .model import ModelParams
from .operators import ConfigPoint, SpinorField, component_system_residual, gradient


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


def power_exponential(coef, s1, s2, beta1, beta2):
    """The radial profile coef * r1^s1 * r2^s2 * exp(-beta1 r1 - beta2 r2)."""
    return lambda r1, r2: coef * r1**s1 * r2**s2 * np.exp(-beta1 * r1 - beta2 * r2)


def build_spinor(assignment: PhaseAssignment, profiles) -> SpinorField:
    """Assemble the four-spinor f_k(r1, r2) exp(i Phi_k(theta1, theta2))."""
    if len(profiles) != 4:
        raise ValueError("need one radial profile per spinor component")

    def fn(p: ConfigPoint) -> np.ndarray:
        r1, r2 = p.r1, p.r2
        values = np.stack([prof(r1, r2) for prof in profiles], axis=-1)
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
    """Four rows of the separated radial system: the operator of
    ``radial.operator_rows`` on the profiles' values and partials.

    Both partials come by complex step, two profile calls per component:
    f(r1 + ih, r2) holds the value and h d/dr1, f(r1, r2 + ih) holds h d/dr2,
    exact to rounding for h = 1e-30.  Agrees with every angle sample of
    ``separation_residual`` up to the O(step^2) finite-difference error of the
    latter.  ``point`` is (r1, r2): two floats give shape (4,), two arrays of
    shape S give S + (4,).
    """
    # on shape S + (1,): a float point takes numpy's array loops too, since its complex
    # scalars round a power's imaginary part otherwise (x**0.5 is csqrt only on arrays)
    r1, r2 = (np.expand_dims(r, -1) for r in point)
    if not (np.all(r1 > 0) and np.all(r2 > 0)):
        raise ValueError("radial evaluation needs r1 > 0 and r2 > 0")
    z1 = np.concatenate([prof(r1 + 1e-30j, r2) for prof in profiles], axis=-1)
    z2 = np.concatenate([prof(r1, r2 + 1e-30j) for prof in profiles], axis=-1)
    return radial.operator_rows(params, energy, rho0, point,
                                z1.real, z1.imag / 1e-30, z2.imag / 1e-30)


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
