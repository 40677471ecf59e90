"""Radial power-exponential ansatz: indicial systems, spectral matrix,
kernel vectors, recurrence functions and the fundamental decay-rate
relation.

Substituting f_k = a_k00 r1^s1 r2^s2 exp(-beta1 r1 - beta2 r2) into the
separated radial system and sorting by powers produces three layers of
linear conditions on the leading coefficients:

  * the 1/r1 and 1/r2 terms give two 4x4 indicial systems whose vanishing
    determinants fix the exponents s1, s2;
  * the power-free terms give the spectral matrix whose determinant
    condition fixes beta1 as a function of beta2;
  * contracting the first-order recurrence with a spectral kernel vector
    eliminates the leading coefficients and yields the fundamental
    relation between beta1 and the energy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import ModelParams


class ExponentDomainError(ValueError):
    """j^2 <= 4 alpha^2: the indicial exponent would be complex."""


class NoRealDecayError(ValueError):
    """Negative discriminant: no real bound-state decay rate."""


class DegenerateKernelError(ZeroDivisionError):
    """gamma2 = 0 makes the closed-form kernel vectors singular."""


def exponents(j1: float, j2: float, alpha: float) -> tuple:
    """Leading radial exponents s_k = -1/2 + sqrt(j_k^2 - 4 alpha^2)."""
    out = []
    for name, j in (("j1", j1), ("j2", j2)):
        disc = j * j - 4 * alpha * alpha
        if disc <= 0:
            raise ExponentDomainError(
                f"{name}^2 = {j * j} does not exceed 4*alpha^2 = {4 * alpha * alpha}"
            )
        out.append(-0.5 + math.sqrt(disc))
    return tuple(out)


def indicial_matrix(which: int, j: float, s: float, alpha: float) -> np.ndarray:
    """Coefficient matrix of the 1/r_k conditions on (a100, a200, a300, a400).

    which=1 collects the 1/r1 terms (nuclear coupling 2*alpha); which=2
    collects the 1/r2 terms, where the derivative terms enter with twice
    the weight of the Coulomb term, giving entries 4*alpha against
    2*(j -+ (s + 1/2)).  Both determinants vanish exactly at
    s = -1/2 + sqrt(j^2 - 4 alpha^2).
    """
    u = j - s - 0.5
    v = j + s + 0.5
    if which == 1:
        c = 2 * alpha
        return np.array(
            [
                [-c, 0.0, u, 0.0],
                [0.0, -c, 0.0, v],
                [-v, 0.0, c, 0.0],
                [0.0, -u, 0.0, c],
            ]
        )
    if which == 2:
        c = 4 * alpha
        return np.array(
            [
                [-c, 0.0, 0.0, 2 * u],
                [0.0, -c, -2 * v, 0.0],
                [0.0, 2 * u, c, 0.0],
                [-2 * v, 0.0, 0.0, c],
            ]
        )
    raise ValueError(f"which must be 1 or 2, got {which!r}")


@dataclass(frozen=True)
class IndicialKernel:
    """Coefficient ratios spanning the kernel of one indicial system.

    For which=1 the blocks pair (a100, a300) and (a200, a400); for which=2
    they pair (a100, a400) and (a200, a300).  ``ratio`` and ``ratio_alt``
    are the two equivalent closed forms of the first block's ratio, equal
    exactly when the determinant vanishes.  ``degenerate`` flags alpha = 0,
    where the kernel collapses onto a100 = a200 = 0.
    """

    ratio: float
    ratio_alt: float
    second_ratio: float
    degenerate: bool


def indicial_kernel(which: int, j: float, alpha: float) -> IndicialKernel:
    """Kernel ratios at the vanishing-determinant exponent."""
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    if alpha == 0:
        return IndicialKernel(ratio=math.inf, ratio_alt=math.inf, second_ratio=0.0,
                              degenerate=True)
    s, _ = exponents(j, j, alpha)
    v = j + s + 0.5
    u = j - s - 0.5
    ratio = v / (2 * alpha)          # a300/a100 (which=1) or a400/a100 (which=2)
    ratio_alt = 2 * alpha / u        # same number via the complementary row
    if which == 1:
        second = u / (2 * alpha)     # a400/a200
    else:
        second = -u / (2 * alpha)    # a300/a200
    return IndicialKernel(ratio=ratio, ratio_alt=ratio_alt, second_ratio=second,
                          degenerate=False)


def indicial_kernel_angles(j1: float, j2: float, alpha: float) -> np.ndarray:
    """Principal angles (radians) between the two 2-D indicial kernels.

    The two systems constrain the same leading coefficients; a nonzero
    angle measures how far they are from being jointly solvable (they are
    not, in general: the joint kernel is trivial).
    """
    k1 = indicial_kernel(1, j1, alpha)
    k2 = indicial_kernel(2, j2, alpha)
    basis1 = np.array([[1.0, 0.0, k1.ratio, 0.0], [0.0, 1.0, 0.0, k1.second_ratio]]).T
    basis2 = np.array([[1.0, 0.0, 0.0, k2.ratio], [0.0, 1.0, k2.second_ratio, 0.0]]).T
    q1, _ = np.linalg.qr(basis1)
    q2, _ = np.linalg.qr(basis2)
    svals = np.clip(np.linalg.svd(q1.T @ q2, compute_uv=False), -1.0, 1.0)
    return np.arccos(svals)


@dataclass(frozen=True)
class GammaRho:
    """Energy/potential combinations entering the radial coefficients.

    gamma1 = (1+sigma) m + E - (1+sigma) alpha / rho
    gamma2 = (1+sigma) m - E + (1+sigma) alpha / rho

    Their sum is 2 (1+sigma) m identically.
    """

    gamma1: float
    gamma2: float

    @classmethod
    def from_energy(cls, sigma, m, alpha, energy, rho) -> "GammaRho":
        shift = energy - (1 + sigma) * alpha / rho
        return cls(gamma1=(1 + sigma) * m + shift, gamma2=(1 + sigma) * m - shift)


@dataclass(frozen=True)
class RadialAnsatz:
    """Decay rates and leading coefficients of the power-exponential solution;
    j1, j2 and the exponents come from the ModelParams it is used with."""

    beta1: float
    beta2: float
    a100: float
    a200: float
    a300: float
    a400: float


def first_order_brackets(params: ModelParams) -> tuple:
    """Brackets (1 + g1 - j1, 1 + g1 + j1, 1 + g2 - j2, 1 + g2 + j2) of the first-order
    recurrence, with g_k = s_k + 1/2 = sqrt(j_k^2 - 4 alpha^2) from ``exponents``."""
    s1, s2 = exponents(params.j1, params.j2, params.alpha)
    g1, g2 = s1 + 0.5, s2 + 0.5
    return 1 + g1 - params.j1, 1 + g1 + params.j1, 1 + g2 - params.j2, 1 + g2 + params.j2


def recurrence_R(params: ModelParams, gr: GammaRho, ansatz: RadialAnsatz,
                 a110=0.0, a210=0.0, a310=0.0, a410=0.0) -> np.ndarray:
    """First-order recurrence functions R1..R4, shape S + (4,) for inputs of shape S.

    With all first-order coefficients zero this reduces exactly to the
    spectral matrix acting on (a100, a200, a300, a400).  The sign of the
    beta1 a400 term in R2 is fixed by that reduction.
    """
    s, a = params.sigma, params.alpha
    b1, b2 = ansatz.beta1, ansatz.beta2
    a1m, a1p, a2m, a2p = first_order_brackets(params)
    w1, w2 = 1 - s, 2 * s
    cmix = 2 * a * (1 + s)
    r1 = (gr.gamma2 * ansatz.a100 - cmix * a110 - w1 * a1m * a310
          + w1 * b1 * ansatz.a300 - w2 * a2m * a410 + w2 * b2 * ansatz.a400)
    r2 = (gr.gamma2 * ansatz.a200 - cmix * a210 - w2 * a2p * a310
          + w2 * b2 * ansatz.a300 + w1 * a1p * a410 - w1 * b1 * ansatz.a400)
    r3 = (gr.gamma1 * ansatz.a300 + cmix * a310 - w1 * a1p * a110
          + w1 * b1 * ansatz.a100 - w2 * a2m * a210 + w2 * b2 * ansatz.a200)
    r4 = (gr.gamma1 * ansatz.a400 + cmix * a410 - w2 * a2p * a110
          + w2 * b2 * ansatz.a100 + w1 * a1m * a210 - w1 * b1 * ansatz.a200)
    return np.stack(np.broadcast_arrays(r1, r2, r3, r4), axis=-1)


def spectral_matrix(gr: GammaRho, sigma, beta1, beta2) -> np.ndarray:
    """4x4 matrix of the power-free conditions on the leading coefficients,
    shape S + (4, 4) for inputs of shape S."""
    g1, g2, a, b = np.broadcast_arrays(gr.gamma1, gr.gamma2, (1 - sigma) * beta1,
                                       2 * sigma * beta2)
    z = np.zeros(a.shape)
    rows = ((g2, z, a, b), (z, g2, b, -a), (a, b, g1, z), (b, -a, z, g1))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def spectral_quadratic(gr: GammaRho, sigma, beta1, beta2) -> float:
    """gamma1 gamma2 - (1-sigma)^2 beta1^2 - 4 sigma^2 beta2^2.

    The spectral determinant equals this quantity squared.
    """
    return gr.gamma1 * gr.gamma2 - (1 - sigma) ** 2 * beta1**2 - 4 * sigma**2 * beta2**2


def beta1_from_determinant(gr: GammaRho, sigma, beta2):
    """Nonnegative root of the spectral determinant condition, shape S for inputs of shape S.

    Raises if any entry has sigma >= 1 or a negative discriminant.
    """
    if np.any(sigma >= 1):
        raise ZeroDivisionError("sigma = 1 removes beta1 from the determinant condition")
    disc = gr.gamma1 * gr.gamma2 - 4 * sigma**2 * beta2**2
    if np.any(disc < 0):
        raise NoRealDecayError(f"discriminant {np.min(disc):.3e} is negative")
    return np.sqrt(disc) / (1 - sigma)


def kernel_vectors(gr: GammaRho, sigma, beta1, beta2) -> tuple:
    """Two independent null vectors of the spectral matrix at the beta1 root,
    each of shape S + (4,) for inputs of shape S.

    psi1 = (-(1-s) b1 / g2, -2 s b2 / g2, 1, 0)
    psi2 = (-2 s b2 / g2, +(1-s) b1 / g2, 0, 1)

    The + sign on psi2's second entry is required for annihilation: the
    second spectral row reads g2 a2 + 2 s b2 a3 - (1-s) b1 a4.
    """
    if np.any(gr.gamma2 == 0):
        raise DegenerateKernelError("gamma2 = 0")
    p, q = np.broadcast_arrays((1 - sigma) * beta1 / gr.gamma2, 2 * sigma * beta2 / gr.gamma2)
    one, zero = np.ones(p.shape), np.zeros(p.shape)
    return np.stack([-p, -q, one, zero], axis=-1), np.stack([-q, p, zero, one], axis=-1)


def kernel_contraction(params: ModelParams, gr: GammaRho, beta1: float, beta2: float,
                       a110: float, a210: float, a310: float) -> float:
    """First kernel vector dotted into the recurrence, leading terms removed.

    Equals psi1 . (R1, R2, R3, R4) whenever a410 = 0: contracting with a
    null vector of the (symmetric) spectral matrix cancels the a_k00
    columns identically, so only the first-order coefficients survive.
    Every 1/gamma2 weight below comes from the kernel vector entries.
    """
    s, a = params.sigma, params.alpha
    a1m, a1p, a2m, a2p = first_order_brackets(params)
    g2 = gr.gamma2
    c110 = 2 * a * (1 - s**2) * beta1 / g2 - (1 - s) * a1p
    c210 = 2 * s * (2 * a * (1 + s) * beta2 / g2 - a2m)
    c310 = (1 - s) ** 2 * beta1 * a1m / g2 + 4 * s**2 * beta2 * a2p / g2 + 2 * a * (1 + s)
    return c110 * a110 + c210 * a210 + c310 * a310


FUNDAMENTAL_DENOMINATORS = ("default", "alt-weight", "alt-shift")


def fundamental_denominator(params: ModelParams, h: float, variant: str = "default") -> float:
    """Denominator of the fundamental beta1 relation, with g_k = s_k + 1/2 = sqrt(j_k^2-4a^2).

    default:    (1-s)^2 g1 + 4 s^2 h (1 + g2)
    alt-weight: same with (1-s^2) replacing (1-s)^2
    alt-shift:  same with (1 + g1) replacing g1

    Only the default closes the loop against the closed-form energy; the
    two alternatives are retained so the verify report can show their
    disagreement (1e-4 level over the physical sigma range).
    """
    s = params.sigma
    s1, s2 = exponents(params.j1, params.j2, params.alpha)
    g1, g2 = s1 + 0.5, s2 + 0.5
    tail = 4 * s**2 * h * (1 + g2)
    if variant == "default":
        return (1 - s) ** 2 * g1 + tail
    if variant == "alt-weight":
        return (1 - s**2) * g1 + tail
    if variant == "alt-shift":
        return (1 - s) ** 2 * (1 + g1) + tail
    raise ValueError(f"unknown denominator variant {variant!r}")


def fundamental_relation(params: ModelParams, rho: float, h: float,
                         variant: str = "default") -> tuple:
    """Per-solve terms ((1+s) m, (1+s) a / rho, (1-s)^2 + 4 s^2 h^2, a (1+s), denominator)
    of the decay-rate relation; a vanishing denominator raises ZeroDivisionError."""
    s, a = params.sigma, params.alpha
    den = fundamental_denominator(params, h, variant)
    if den == 0:
        raise ZeroDivisionError("fundamental relation denominator vanished")
    return (1 + s) * params.m, (1 + s) * a / rho, (1 - s) ** 2 + 4 * s**2 * h**2, a * (1 + s), den


def fundamental_residual(relation: tuple, energy: float) -> float:
    """Decay-rate mismatch beta1(determinant route) - beta1(fundamental relation) at one energy.

    The determinant route eliminates beta2 = h beta1 self-consistently:
    beta1^2 [(1-s)^2 + 4 s^2 h^2] = gamma1 gamma2 (``GammaRho.from_energy``);
    the contracted recurrence gives beta1 = a(1+s)(gamma1-gamma2)/denominator.
    A zero in the energy characterizes the bound state for the relation's sigma, rho and h.
    """
    mass, coulomb, weight, coupling, den = relation
    shift = energy - coulomb
    gamma1 = mass + shift
    gamma2 = mass - shift
    disc = gamma1 * gamma2
    if disc < 0:
        raise NoRealDecayError(f"gamma1*gamma2 = {disc:.3e} is negative")
    return math.sqrt(disc / weight) - coupling * (gamma1 - gamma2) / den
