"""Closed-form ground-state machinery.

Combining the spectral determinant condition, the fundamental decay-rate
relation, the orbit-radius relations r10 = s1/beta1, r20 = s2/beta2 and
the equilibrium constraints rho0 = r10 + r20, r10 = sigma r20 collapses
the whole radial problem to two shape parameters

    B  = (1-s)^2 (s1 + 1/2) s1 + 4 s^3 (s2 + 3/2) s2
    D  = 4 a^2 (1+s)^2 [(1-s)^2 s1^2 + 4 s^4 s2^2]
    C1 = sqrt(B^2 + D),   C2 = sqrt(1 + D / B^2)

with h = sigma s2 / s1.  Energies are reported in natural units and, for
the excess energy, in Hartree (m a^2); lengths in Bohr radii (1/(m a)).

An independent check is provided by ``energy_consistency_solve``, which
recovers the energy by root-finding on the radial module's
``fundamental_residual`` instead of using the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import radial
from .operators import FINE_STRUCTURE_ALPHA, ModelParams


@dataclass
class ClosedFormParams:
    """Shape parameters of the closed-form energy at a float sigma, or at an
    array of sigma (then sigma, h, bracket, c1, c2 and c2sq_minus_1 are arrays)."""

    sigma: float
    alpha: float
    m: float
    j1: float
    j2: float
    s1: float
    s2: float
    h: float
    bracket: float  # B above
    c1: float
    c2: float
    c2sq_minus_1: float  # D / B^2, exact where C2^2 - 1 would cancel


@dataclass(frozen=True)
class EquilibriumPoint:
    """Excess energy and equilibrium geometry at one sigma, or a whole scan.

    delta_e is in Hartree; rho0, r10, r20 in Bohr radii; energy in natural
    units.  rho0 = r10 + r20 and r10 = sigma r20 hold by construction.
    For an array sigma every field is an array of sigma's shape.
    """

    sigma: float
    delta_e: float
    rho0: float
    r10: float
    r20: float
    energy: float


def h_ratio(sigma: float, s1: float, s2: float) -> float:
    """Decay-rate ratio beta2/beta1 = sigma s2 / s1 at equilibrium."""
    if s1 == 0:
        raise ZeroDivisionError("s1 = 0 in the decay-rate ratio")
    return sigma * s2 / s1


def c_params(sigma, s1: float, s2: float, alpha: float,
             m: float = 1.0, j1: float = 1.0, j2: float = 1.0) -> ClosedFormParams:
    """Evaluate B, C1, C2 and h for given exponents, at a float or an array sigma.

    A complex sigma follows the float path (the minimizer's complex-step
    slope relies on it).  A vanishing B raises ZeroDivisionError:
    by Python's division, or by one check of the whole array, which numpy
    would divide silently.
    """
    w = (1 - sigma) * (1 - sigma)
    cube = sigma * sigma * sigma
    b = w * (s1 + 0.5) * s1 + 4 * cube * (s2 + 1.5) * s2
    if type(b) not in (float, complex) and not np.all(b):
        raise ZeroDivisionError("shape bracket B vanished; C2 is undefined")
    d = 4 * alpha**2 * (1 + sigma) * (1 + sigma) * (w * s1**2 + 4 * cube * sigma * s2**2)
    c2sq_minus_1 = d / (b * b)
    return ClosedFormParams(sigma=sigma, alpha=alpha, m=m, j1=j1, j2=j2,
                            s1=s1, s2=s2, h=h_ratio(sigma, s1, s2), bracket=b,
                            c1=(b * b + d) ** 0.5, c2=(1 + c2sq_minus_1) ** 0.5,
                            c2sq_minus_1=c2sq_minus_1)


def closed_form(sigma, alpha: float = FINE_STRUCTURE_ALPHA, m: float = 1.0,
                j1: float = 1.0, j2: float = 1.0) -> ClosedFormParams:
    """c_params with the exponents derived from (j1, j2, alpha)."""
    s1, s2 = radial.exponents(j1, j2, alpha)
    return c_params(sigma, s1, s2, alpha, m=m, j1=j1, j2=j2)


def delta_e(cf: ClosedFormParams):
    """Excess energy (E - (1+sigma) m) / (m alpha^2), dimensionless Hartree.

    The second term is evaluated as (1+sigma)(1 - C2)/(C2 alpha^2) with
    1 - C2 = -(D/B^2)/(1 + C2), which avoids the catastrophic cancellation
    of the naive difference near sigma = 0.  At alpha = 0 the relativistic
    term is defined to vanish and the first term remains.
    """
    s = cf.sigma
    lead = 2 * s * (1 + s) * (1 + s) / cf.c1
    if cf.alpha == 0:
        return lead
    return lead - (1 + s) * cf.c2sq_minus_1 / ((1 + cf.c2) * cf.c2 * cf.alpha**2)


def radii_bohr(cf: ClosedFormParams) -> tuple:
    """(r10, r20) with r10 = C1 / (2 (1+sigma)^2) and r20 = r10 / sigma, Bohr.

    r10 stays finite at sigma = 0, where the partner electron recedes to
    infinity: r20 is inf there, for a float sigma as for an array (numpy warns).
    """
    r10 = cf.c1 / (2 * (1 + cf.sigma) * (1 + cf.sigma))
    try:
        r20 = r10 / cf.sigma
    except ZeroDivisionError:  # a float sigma = 0
        r20 = math.inf
    return r10, r20


def rho0_bohr(cf: ClosedFormParams):
    """Equilibrium interelectron distance r10 + r20 = C1 / (2 sigma (1 + sigma)), Bohr."""
    r10, r20 = radii_bohr(cf)
    return r10 + r20


def rho0_natural(cf: ClosedFormParams):
    """Same distance in natural length units, rho0_bohr / (m alpha)."""
    return rho0_bohr(cf) / (cf.m * cf.alpha)


def energy_closed_form(cf: ClosedFormParams):
    """Total energy 2 sigma m a^2 (1+sigma)^2 / C1 + (1+sigma) m / C2."""
    s = cf.sigma
    return (2 * s * cf.m * cf.alpha**2 * (1 + s) * (1 + s) / cf.c1
            + (1 + s) * cf.m / cf.c2)


def equilibrium_point(sigma, alpha: float = FINE_STRUCTURE_ALPHA, m: float = 1.0,
                      j1: float = 1.0, j2: float = 1.0) -> EquilibriumPoint:
    """Excess energy and geometry at a float sigma, or at every sigma of an array."""
    cf = closed_form(sigma, alpha=alpha, m=m, j1=j1, j2=j2)
    r10, r20 = radii_bohr(cf)
    return EquilibriumPoint(sigma=sigma, delta_e=delta_e(cf), rho0=r10 + r20,
                            r10=r10, r20=r20, energy=energy_closed_form(cf))


def _one_electron_energy(cf: ClosedFormParams) -> float:
    # sigma -> 0 limit: m g1 / sqrt(g1^2 + 4 a^2); equals m sqrt(1 - 4 a^2) at j1 = 1
    g1 = cf.s1 + 0.5
    return cf.m * g1 / math.sqrt(g1 * g1 + 4 * cf.alpha**2)


class NoRootInBracketError(ValueError):
    """The decay-rate residual does not change sign over the energy bracket."""


def energy_consistency_solve(sigma: float, rho: float, cf: ClosedFormParams,
                             variant: str = "default") -> float:
    """Solve the decay-rate consistency condition for the energy.

    Finds the E in ((1+s) a / rho, (1+s) m + (1+s) a / rho) at which the
    determinant-route and fundamental-relation decay rates coincide
    (``radial.fundamental_residual`` = 0), with rho in natural units and
    beta2 = h beta1.  This is independent of the closed form: at
    rho = rho0(sigma) the root must reproduce ``energy_closed_form``.

    sigma = 0 is the degenerate one-electron case and is answered with its
    limiting relation directly.
    """
    from scipy.optimize import brentq

    if sigma == 0:
        return _one_electron_energy(cf)
    params = ModelParams(sigma=sigma, alpha=cf.alpha, m=cf.m, j1=cf.j1, j2=cf.j2)
    residual = partial(radial.fundamental_residual,
                       radial.fundamental_relation(params, rho, cf.h, variant))
    margin = 1e-12 * cf.m
    lo = (1 + sigma) * cf.alpha / rho + margin
    hi = (1 + sigma) * cf.m + (1 + sigma) * cf.alpha / rho - margin
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo * f_hi > 0:
        raise NoRootInBracketError(
            f"residual has the same sign at both bracket ends: "
            f"f({lo:.6g}) = {f_lo:.3e}, f({hi:.6g}) = {f_hi:.3e}"
        )
    return brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16)


def energy_shifted_literal(cf: ClosedFormParams, rho: float, squared: bool = True) -> float:
    """Direct energy formula E = (1+s) a / rho + (1+s) m / sqrt(1 + N / den).

    N = 4 a^2 (1+s)^2 [(1-s)^2 + 4 s^2 h^2] and den is the fundamental
    denominator, squared or not according to ``squared``.  Only the
    squared reading is dimensionally consistent and matches the closed
    form; both are kept so the verify report can state the arbitration.
    """
    params = ModelParams(sigma=cf.sigma, alpha=cf.alpha, m=cf.m, j1=cf.j1, j2=cf.j2)
    mass, coulomb, weight, _, dval = radial.fundamental_relation(params, rho, cf.h)
    den = dval * dval if squared else dval
    num = 4 * cf.alpha**2 * (1 + cf.sigma) ** 2 * weight
    return coulomb + mass / math.sqrt(1 + num / den)


def consistency_table(sigmas) -> dict:
    """Worst relative deviation of the consistency root from the closed form, default constants.

    Evaluated for every fundamental-denominator variant; the verify report
    uses this to state which reading agrees (the 'default') and by how
    much the alternatives miss.
    """
    points = [(cf, energy_closed_form(cf), rho0_natural(cf)) for cf in map(closed_form, sigmas)]
    out = {}
    for variant in radial.FUNDAMENTAL_DENOMINATORS:
        worst = 0.0
        for cf, e_ref, rho in points:
            try:
                e_root = energy_consistency_solve(cf.sigma, rho, cf, variant)
            except (NoRootInBracketError, radial.NoRealDecayError):
                worst = math.inf
                break
            worst = max(worst, abs(e_root - e_ref) / abs(e_ref))
        out[variant] = worst
    return out


def squared_reading_table(sigmas) -> dict:
    """Worst closed-form deviation of the literal energy formula, by reading, default constants."""
    points = [(cf, energy_closed_form(cf), rho0_natural(cf)) for cf in map(closed_form, sigmas)]
    out = {}
    for squared in (True, False):
        worst = 0.0
        for cf, e_ref, rho in points:
            e_lit = energy_shifted_literal(cf, rho, squared=squared)
            worst = max(worst, abs(e_lit - e_ref) / abs(e_ref))
        out[squared] = worst
    return out


def ion_limit(alpha: float = FINE_STRUCTURE_ALPHA, j1: float = 1.0) -> float:
    """sigma -> 0+ limit of the excess energy, in Hartree.

    For j1 = 1 this is (sqrt(1 - 4 a^2) - 1)/a^2 = -2 - 2 a^2 + O(a^4),
    the one-electron (charge 2) ground state measured from the rest mass.
    """
    s1, _ = radial.exponents(j1, j1, alpha)
    g1 = s1 + 0.5
    ratio = g1 / math.sqrt(g1 * g1 + 4 * alpha**2)  # E(0)/m
    return (ratio - 1) / alpha**2
