"""Closed-form ground-state machinery.

Combining the spectral determinant condition, the fundamental decay-rate
relation, the orbit-radius relations r10 = s1/beta1, r20 = s2/beta2 and
the equilibrium constraints rho0 = r10 + r20, r10 = sigma r20 collapses
the whole radial problem to two shape parameters

    B  = (1-s)^2 (s1 + 1/2) s1 + 4 s^3 (s2 + 3/2) s2
    D  = 4 a^2 (1+s)^2 [(1-s)^2 s1^2 + 4 s^4 s2^2]
    C1 = sqrt(B^2 + D),   C2 = sqrt(1 + D / B^2)

and the decay-rate ratio h = beta2 / beta1 = sigma s2 / s1.  Units are
natural with the electron mass m = 1: energies are in units of m c^2 and,
for the excess energy, in Hartree (m c^2 a^2); lengths in Bohr radii
(hbar / (m c a)).

An independent check is provided by ``energy_consistency_solve``, which finds
the shift X = E - (1+sigma) alpha / rho as a root of the radial module's
``fundamental_residual`` instead of using the closed form.  It and
``energy_shifted_literal`` import ``radial`` inside, so the closed form
alone, like ``hespinor minimize``, does not load it.
"""

import math
from collections import namedtuple
from functools import partial

from .model import FINE_STRUCTURE_ALPHA, exponents

_RTOL = 4 * math.ulp(1.0)  # brentq's relative tolerance, scipy's default 4 eps


class ClosedFormParams(namedtuple("ClosedFormParams",
                                  "sigma alpha s1 s2 bracket c1 c2 c2sq_minus_1")):
    """Shape parameters of the closed-form energy at a float sigma, or at an
    array of sigma (then sigma, bracket, c1, c2 and c2sq_minus_1 are arrays).

    ``bracket`` is B above, and ``c2sq_minus_1`` is D / B^2, exact where
    C2^2 - 1 would cancel.
    """

    __slots__ = ()


class EquilibriumPoint(namedtuple("EquilibriumPoint", "sigma delta_e rho0 r10 r20 energy")):
    """Excess energy and equilibrium geometry at one sigma, or a whole scan.

    delta_e is in Hartree; rho0, r10, r20 in Bohr radii; energy in units
    of m c^2.  rho0 = r10 + r20 and r10 = sigma r20 hold by construction.
    For an array sigma every field is an array of sigma's shape.
    """

    __slots__ = ()


def c_params(sigma, s1: float, s2: float, alpha: float) -> ClosedFormParams:
    """Evaluate B, C1 and C2 for given exponents, at a float or an array sigma.

    A complex or an mpmath sigma follows the float path (the minimizer's
    complex-step slope relies on it).  A zero B^2, where B vanishes or B^2
    underflows (at s1 = 0, B ~ sigma^3), raises ZeroDivisionError with one
    message on a scalar and on an array; numpy would divide an array by it
    silently; ``optimize`` checks B^2 here where it cannot prove it > 0.
    ``tuple.__new__`` builds the record without the namedtuple's ``__new__`` frame.
    """
    # int literals: on CPython 3.11, int + complex (the slope's sigma) beats float + complex
    one_minus = 1 - sigma
    w = one_minus * one_minus
    cube = sigma * sigma * sigma
    b = w * (s1 + 0.5) * s1 + 4 * cube * (s2 + 1.5) * s2
    bb = b * b
    try:
        zero = not bb
    except ValueError:  # an array of more than one sigma
        zero = not bb.all()
    if zero:
        raise ZeroDivisionError("B^2 of the shape bracket is 0; C2 is undefined")
    one_plus = 1 + sigma
    d = 4 * alpha**2 * one_plus * one_plus * (w * s1**2 + 4 * cube * sigma * s2**2)
    c2sq_minus_1 = d / bb
    return tuple.__new__(ClosedFormParams, (sigma, alpha, s1, s2, b, (bb + d) ** 0.5,
                                            (1 + c2sq_minus_1) ** 0.5, c2sq_minus_1))


def closed_form(sigma, alpha: float = FINE_STRUCTURE_ALPHA,
                j1: float = 1.0, j2: float = 1.0) -> ClosedFormParams:
    """c_params with the exponents derived from (j1, j2, alpha)."""
    return c_params(sigma, *exponents(j1, j2, alpha), alpha)


def delta_e(cf: ClosedFormParams):
    """Excess energy (E - (1+sigma)) / alpha^2 above the two rest masses, in Hartree.

    The second term is evaluated as (1+sigma)(1 - C2)/(C2 alpha^2) with
    1 - C2 = -(D/B^2)/(1 + C2), which avoids the catastrophic cancellation
    of the naive difference near sigma = 0.  alpha must be nonzero.
    """
    s, c2 = cf.sigma, cf.c2
    one_plus = 1 + s  # an int literal, as in c_params: sigma is complex on the slope
    return (2 * s * one_plus * one_plus / cf.c1
            - one_plus * cf.c2sq_minus_1 / ((1 + c2) * c2 * cf.alpha**2))


def radii_bohr(cf: ClosedFormParams) -> tuple:
    """(r10, r20) with r10 = C1 / (2 (1+sigma)^2) and r20 = r10 / sigma, Bohr.

    r10 stays finite at sigma = 0, where the partner electron recedes to
    infinity: r20 is inf there, for a float sigma as for an array (numpy warns).
    """
    one_plus = 1.0 + cf.sigma
    r10 = cf.c1 / (2.0 * one_plus * one_plus)
    try:
        r20 = r10 / cf.sigma
    except ZeroDivisionError:  # a float sigma = 0
        r20 = math.inf
    return r10, r20


def rho0_natural(cf: ClosedFormParams):
    """Equilibrium interelectron distance r10 + r20 = C1 / (2 sigma (1 + sigma)) in
    natural length units (hbar / (m c)): the distance in Bohr radii over alpha."""
    r10, r20 = radii_bohr(cf)
    return (r10 + r20) / cf.alpha


def energy_closed_form(cf: ClosedFormParams):
    """Total energy 2 sigma a^2 (1+sigma)^2 / C1 + (1+sigma) / C2, in units of m c^2."""
    s = cf.sigma
    one_plus = 1.0 + s
    return 2.0 * s * cf.alpha**2 * one_plus * one_plus / cf.c1 + one_plus / cf.c2


def equilibrium_point(sigma, alpha: float = FINE_STRUCTURE_ALPHA,
                      j1: float = 1.0, j2: float = 1.0) -> EquilibriumPoint:
    """Excess energy and geometry at a float sigma, or at every sigma of an array."""
    cf = closed_form(sigma, alpha=alpha, j1=j1, j2=j2)
    r10, r20 = radii_bohr(cf)
    return tuple.__new__(EquilibriumPoint,
                         (sigma, delta_e(cf), r10 + r20, r10, r20, energy_closed_form(cf)))


class NoRootInBracketError(ValueError):
    """The function handed to ``brentq`` does not change sign over the bracket."""


def brentq(f, a: float, b: float, xtol: float, fa: float | None = None,
           fb: float | None = None) -> tuple:
    """Root of f between a and b by Brent's method, as (root, iterations).

    A line-for-line transcription of scipy's ``brentq.c`` (R. P. Brent,
    Algorithms for Minimization without Derivatives, 1973, ch. 4): each step
    interpolates (secant or inverse quadratic) and bisects instead whenever
    the interpolated step would not shrink the bracket fast enough.  The
    root x0 obeys |x0 - x*| <= xtol + rtol |x0|, with rtol fixed at scipy's
    default 4 eps.  Its float constants 2.0 and 3.0 are the doubles of
    ``brentq.c``.  The ends are turned into Python floats first, as scipy's
    wrapper does, so f sees the same x.  The loop calls f once per point,
    with no wrapper around it, and tests each value for NaN in line.  ``fa``
    and ``fb``, where given, are f(a) and f(b) already known to the caller:
    they are taken as f's values there, so f is not called at that end.

    Raises NoRootInBracketError if f(a) and f(b) have the same sign, and
    ValueError on a NaN value of f, given or evaluated, or after 100 steps
    without convergence.  A root at a bracket end is returned after 0 steps.
    """
    xpre, xcur = float(a), float(b)
    fpre = f(xpre) if fa is None else fa
    if fpre != fpre:
        raise ValueError(f"The function value at x={xpre} is NaN; solver cannot continue.")
    fcur = f(xcur) if fb is None else fb
    if fcur != fcur:
        raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    if fpre == 0:
        return xpre, 0
    if fcur == 0:
        return xcur, 0
    if (fpre < 0) == (fcur < 0):
        raise NoRootInBracketError(
            f"residual has the same sign at both bracket ends: "
            f"f({xpre:.6g}) = {fpre:.3e}, f({xcur:.6g}) = {fcur:.3e}"
        )
    xblk = fblk = spre = scur = 0.0
    for iterations in range(1, 101):  # scipy's default maxiter
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0 or abs(sbis) < delta:
            return xcur, iterations
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                # a zero divisor gives inf or nan in C, which fails the test below: bisect
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            # good short step, 2|stry| < min(|spre|, 3|sbis| - delta): neither bound is NaN here
            step = 2.0 * abs(stry)
            if step < abs(spre) and step < 3.0 * abs(sbis) - delta:
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        if fcur != fcur:
            raise ValueError(f"The function value at x={xcur} is NaN; solver cannot continue.")
    raise ValueError(f"Brent's method did not converge in 100 steps: x = {xcur!r}")


def energy_consistency_solve(sigma: float, rho: float, cf: ClosedFormParams,
                             variant: str = "default") -> float:
    """Solve the decay-rate consistency condition for the energy.

    Finds the shift X = E - (1+s) a / rho at which the determinant-route and
    fundamental-relation decay rates coincide (``radial.fundamental_residual``
    = 0), with rho in natural units, and returns E.  The bracket [0, 1+s] is
    exact: the residual is positive at X = 0 (gamma1 = gamma2) and negative at
    X = 1+s (gamma2 = 0).  The relation reads sigma, alpha and the exponents
    from ``cf``, a record at the float ``sigma``, and none of its closed-form
    values: at rho = rho0(sigma) the root must reproduce ``energy_closed_form``,
    at sigma = 0 (rho = inf) the one-electron g1 / sqrt(g1^2 + 4 a^2).
    """
    from . import radial

    relation = radial.fundamental_relation(cf, rho, variant)
    shift = brentq(partial(radial.fundamental_residual, relation), 0.0, 1 + sigma, xtol=1e-15)[0]
    return relation[1] + shift


def energy_shifted_literal(cf: ClosedFormParams, rho: float, squared: bool = True) -> float:
    """Direct energy formula E = (1+s) a / rho + (1+s) / sqrt(1 + N / den).

    N = 4 a^2 (1+s)^2 [(1-s)^2 + 4 s^2 h^2] with h = sigma s2 / s1, and den
    is the fundamental denominator, squared or not according to ``squared``.
    Only the squared reading is dimensionally consistent and matches the
    closed form; both are kept so the verify report can state the arbitration.
    """
    from . import radial

    rest, coulomb, weight, _, dval = radial.fundamental_relation(cf, rho)
    den = dval * dval if squared else dval
    num = 4 * cf.alpha**2 * (1 + cf.sigma) ** 2 * weight
    return coulomb + rest / math.sqrt(1 + num / den)


def ion_limit(alpha: float = FINE_STRUCTURE_ALPHA, j1: float = 1.0) -> float:
    """sigma -> 0+ limit of the excess energy, in Hartree.

    (E(0) - 1) / a^2 with E(0) = g1 / R, R = sqrt(g1^2 + 4 a^2), g1 = s1 + 1/2,
    formed without the cancelling subtraction as -4 / (R (R + g1)).  For
    j1 = 1 this is (sqrt(1 - 4 a^2) - 1)/a^2 = -2 - 2 a^2 + O(a^4), the
    one-electron (charge 2) ground state measured from the rest mass.
    """
    s1, _ = exponents(j1, j1, alpha)
    g1 = s1 + 0.5
    r = math.sqrt(g1 * g1 + 4 * alpha**2)
    return -4 / (r * (r + g1))
