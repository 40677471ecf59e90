"""The separated radial operator and its power-exponential ansatz: the
operator's rows, indicial systems, spectral matrix, kernel vectors,
recurrence functions and the fundamental decay-rate relation.

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

The energy enters as gamma1,2 = (1+sigma) +- (E - (1+sigma) alpha / rho),
whose sum is the two rest masses 2 (1+sigma).  The spectral and recurrence
functions take gamma1 and gamma2 (``kernel_vectors`` and ``kernel_contraction``
gamma2 only) as floats or arrays of one shape; the identities ``verify``
checks hold for any pair.  ``operator_rows`` takes component values and
partials instead, the indicial functions take j, s and alpha
(``indicial_matrix`` sympy symbols too), and ``fundamental_relation`` a
closed-form record.

Units are natural with the electron mass m = 1: energies are in units of
m c^2, decay rates and inverse radii in units of m c / hbar.
"""

import math

import numpy as np

from .model import ModelParams, exponents


class NoRealDecayError(ValueError):
    """Negative discriminant: no real bound-state decay rate."""


class DegenerateKernelError(ZeroDivisionError):
    """gamma2 = 0 makes the closed-form kernel vectors singular."""


# The separated radial operator, stated once.  Electron k contributes
#     w_k [P_k d/dr_k + (P_k / 2 + j_k Q_k - 2 alpha Z) / r_k],   w1 = 1 - sigma, w2 = 2 sigma,
# to the rows on (f1, f2, f3, f4), and the energy adds diag(gamma2, gamma2, gamma1, gamma1).
# Z = diag(1, 1, -1, -1).  P_k and Q_k are signed permutations on one pairing: row i of
# either reads component _PAIRS[k, i], with the sign in _P_SIGNS[k, i] or _Q_SIGNS[k, i].
# operator_rows, indicial_matrix and spectral_matrix read it; recurrence_R, kernel_vectors and
# kernel_contraction stay derived by hand, the second routes of verify's identities.
_ROWS = np.arange(4)
_Z = np.array([1.0, 1.0, -1.0, -1.0])
_PAIRS = np.array([[2, 3, 0, 1], [3, 2, 1, 0]])
_P_SIGNS = np.array([[-1.0, 1.0, -1.0, 1.0], [-1.0, -1.0, -1.0, -1.0]])
_Q_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])


def operator_rows(params: ModelParams, energy, rho0, point, f, d1, d2) -> np.ndarray:
    """The separated radial operator on component values ``f`` and their partials ``d1``,
    ``d2`` along r1 and r2, each of shape S + (4,) at ``point`` = (r1, r2) of shape S."""
    s, a = params.sigma, params.alpha
    rows = ((1 + s) - np.multiply.outer(energy - (1 + s) * a / rho0, _Z)) * f
    coulomb = (2 * a) * _Z * f
    for k, (w, j, r, d) in enumerate(zip((1 - s, 2 * s), (params.j1, params.j2), point, (d1, d2))):
        pair, p = _PAIRS[k], _P_SIGNS[k]
        at_r = (p / 2 + j * _Q_SIGNS[k]) * f[..., pair] - coulomb
        rows = rows + w * (p * d[..., pair] + at_r / np.expand_dims(r, -1))
    return rows


def indicial_matrix(which: int, j: float, s: float, alpha: float) -> np.ndarray:
    """Coefficient matrix of the 1/r_k conditions on (a100, a200, a300, a400):
    which * ((s + 1/2) P_k + j Q_k - 2 alpha Z) from the operator's table.

    The 1/r_k order of the operator on r1^s1 r2^s2 exp(-beta1 r1 - beta2 r2) is
    (1 - sigma) times the first and sigma times the second.  Both determinants
    vanish exactly at s = -1/2 + sqrt(j^2 - 4 alpha^2).
    """
    if which not in (1, 2):
        raise ValueError(f"which must be 1 or 2, got {which!r}")
    m = np.diag(_Z * (-2 * which * alpha))
    m[_ROWS, _PAIRS[which - 1]] = which * (_P_SIGNS[which - 1] * (s + 0.5)
                                           + _Q_SIGNS[which - 1] * j)
    return m


def indicial_kernel_angles(j1: float, j2: float, alpha: float) -> np.ndarray:
    """Principal angles (radians) between the two 2-D indicial kernels.

    Each kernel is read from its ``indicial_matrix`` at the exponent from
    ``exponents``: the last two right singular vectors, orthonormal rows.
    The two systems constrain the same leading coefficients; a nonzero
    angle measures how far they are from being jointly solvable (they are
    not, in general: the joint kernel is trivial).
    """
    k1, k2 = (np.linalg.svd(indicial_matrix(which, j, s, alpha))[2][2:]
              for which, j, s in zip((1, 2), (j1, j2), exponents(j1, j2, alpha)))
    return np.arccos(np.clip(np.linalg.svd(k1 @ k2.T, compute_uv=False), -1.0, 1.0))


def first_order_brackets(params: ModelParams) -> tuple:
    """Brackets (1 + g1 - j1, 1 + g1 + j1, 1 + g2 - j2, 1 + g2 + j2) of the first-order
    recurrence, with g_k = s_k + 1/2 = sqrt(j_k^2 - 4 alpha^2) from ``exponents``."""
    s1, s2 = exponents(params.j1, params.j2, params.alpha)
    g1, g2 = s1 + 0.5, s2 + 0.5
    return 1 + g1 - params.j1, 1 + g1 + params.j1, 1 + g2 - params.j2, 1 + g2 + params.j2


def recurrence_R(params: ModelParams, gamma1, gamma2, beta1, beta2, a00,
                 a110=0.0, a210=0.0, a310=0.0, a410=0.0) -> np.ndarray:
    """First-order recurrence functions R1..R4, shape S + (4,) for inputs of shape S
    and leading coefficients ``a00`` = (a100, a200, a300, a400) of shape S + (4,).

    With all first-order coefficients zero this reduces exactly to the
    spectral matrix acting on ``a00``.  The sign of the beta1 a400 term in
    R2 is fixed by that reduction.
    """
    s, a = params.sigma, params.alpha
    a100, a200, a300, a400 = np.moveaxis(a00, -1, 0)
    a1m, a1p, a2m, a2p = first_order_brackets(params)
    w1, w2 = 1 - s, 2 * s
    cmix = 2 * a * (1 + s)
    r1 = (gamma2 * a100 - cmix * a110 - w1 * a1m * a310
          + w1 * beta1 * a300 - w2 * a2m * a410 + w2 * beta2 * a400)
    r2 = (gamma2 * a200 - cmix * a210 - w2 * a2p * a310
          + w2 * beta2 * a300 + w1 * a1p * a410 - w1 * beta1 * a400)
    r3 = (gamma1 * a300 + cmix * a310 - w1 * a1p * a110
          + w1 * beta1 * a100 - w2 * a2m * a210 + w2 * beta2 * a200)
    r4 = (gamma1 * a400 + cmix * a410 - w2 * a2p * a110
          + w2 * beta2 * a100 + w1 * a1m * a210 - w1 * beta1 * a200)
    return np.stack(np.broadcast_arrays(r1, r2, r3, r4), axis=-1)


def spectral_matrix(gamma1, gamma2, sigma, beta1, beta2) -> np.ndarray:
    """4x4 matrix of the power-free conditions on the leading coefficients,
    diag(gamma2, gamma2, gamma1, gamma1) - (1-sigma) beta1 P_1 - 2 sigma beta2 P_2 from the
    operator's table, shape S + (4, 4) for inputs of shape S."""
    g1, g2, a, b = np.broadcast_arrays(gamma1, gamma2, (1 - sigma) * beta1, 2 * sigma * beta2)
    m = np.zeros(a.shape + (4, 4), np.result_type(g1, g2, a, b))
    m[..., _ROWS, _ROWS] = np.stack((g2, g2, g1, g1), axis=-1)
    for k, w_beta in enumerate((a, b)):  # the diagonal, P_1 and P_2 fill disjoint entries
        m[..., _ROWS, _PAIRS[k]] = np.multiply.outer(w_beta, -_P_SIGNS[k])
    return m


def spectral_quadratic(gamma1, gamma2, sigma, beta1, beta2) -> float:
    """gamma1 gamma2 - (1-sigma)^2 beta1^2 - 4 sigma^2 beta2^2.

    The spectral determinant equals this quantity squared.
    """
    return gamma1 * gamma2 - (1 - sigma) ** 2 * beta1**2 - 4 * sigma**2 * beta2**2


def beta1_from_determinant(gamma1, gamma2, sigma, beta2):
    """Nonnegative root of the spectral determinant condition, shape S for inputs of shape S.

    Raises if any entry has sigma >= 1 or a negative discriminant.
    """
    if np.any(sigma >= 1):
        raise ZeroDivisionError("sigma = 1 removes beta1 from the determinant condition")
    disc = spectral_quadratic(gamma1, gamma2, sigma, 0.0, beta2)
    if np.any(disc < 0):
        raise NoRealDecayError(f"discriminant {np.min(disc):.3e} is negative")
    return np.sqrt(disc) / (1 - sigma)


def kernel_vectors(gamma2, sigma, beta1, beta2) -> tuple:
    """Two independent null vectors of the spectral matrix at the beta1 root,
    each of shape S + (4,) for inputs of shape S.

    psi1 = (-(1-s) b1 / g2, -2 s b2 / g2, 1, 0)
    psi2 = (-2 s b2 / g2, +(1-s) b1 / g2, 0, 1)

    The + sign on psi2's second entry is required for annihilation: the
    second spectral row reads g2 a2 + 2 s b2 a3 - (1-s) b1 a4.
    """
    if np.any(gamma2 == 0):
        raise DegenerateKernelError("gamma2 = 0")
    p, q = np.broadcast_arrays((1 - sigma) * beta1 / gamma2, 2 * sigma * beta2 / gamma2)
    one, zero = np.ones(p.shape), np.zeros(p.shape)
    return np.stack([-p, -q, one, zero], axis=-1), np.stack([-q, p, zero, one], axis=-1)


def kernel_contraction(params: ModelParams, gamma2, beta1, beta2, a110, a210, a310):
    """First kernel vector dotted into the recurrence, leading terms removed.

    Equals psi1 . (R1, R2, R3, R4) whenever a410 = 0: contracting with a
    null vector of the (symmetric) spectral matrix cancels the a_k00
    columns identically, so only the first-order coefficients survive.
    Every 1/gamma2 weight below comes from the kernel vector entries.
    """
    s, a = params.sigma, params.alpha
    a1m, a1p, a2m, a2p = first_order_brackets(params)
    c110 = 2 * a * (1 - s**2) * beta1 / gamma2 - (1 - s) * a1p
    c210 = 2 * s * (2 * a * (1 + s) * beta2 / gamma2 - a2m)
    c310 = ((1 - s) ** 2 * beta1 * a1m / gamma2 + 4 * s**2 * beta2 * a2p / gamma2
            + 2 * a * (1 + s))
    return c110 * a110 + c210 * a210 + c310 * a310


FUNDAMENTAL_DENOMINATORS = ("default", "alt-weight", "alt-shift")  # the selected reading first


def fundamental_relation(cf, rho: float, variant: str = "default") -> tuple:
    """Per-solve terms (1+s, (1+s) a / rho, (1-s)^2 + 4 s^2 h^2, a (1+s), denominator)
    of the decay-rate relation, with sigma, alpha and the exponents read from
    a float-sigma ``spectrum.ClosedFormParams``, h = sigma s2 / s1 and g_k = s_k + 1/2.

    The denominator of the fundamental beta1 relation is

    default:    (1-s)^2 g1 + 4 s^2 h (1 + g2)
    alt-weight: same with (1-s^2) replacing (1-s)^2
    alt-shift:  same with (1 + g1) replacing g1

    Only the default closes the loop against the closed-form energy; the
    two alternatives are retained so the verify report can show their
    disagreement (1e-4 level over the physical sigma range).  A vanishing
    denominator raises ZeroDivisionError.
    """
    s, a = cf.sigma, cf.alpha
    h = s * cf.s2 / cf.s1
    g1, g2 = cf.s1 + 0.5, cf.s2 + 0.5
    s_sq, w, rest = s**2, (1.0 - s) ** 2, 1.0 + s
    tail = 4.0 * s_sq * h * (1.0 + g2)
    if variant == "default":
        den = w * g1 + tail
    elif variant == "alt-weight":
        den = (1.0 - s_sq) * g1 + tail
    elif variant == "alt-shift":
        den = w * (1.0 + g1) + tail
    else:
        raise ValueError(f"unknown denominator variant {variant!r}")
    if den == 0:
        raise ZeroDivisionError("fundamental relation denominator vanished")
    return rest, rest * a / rho, w + 4.0 * s_sq * h**2, a * rest, den


def fundamental_residual(relation: tuple, shift: float) -> float:
    """Decay-rate mismatch beta1(determinant route) - beta1(fundamental relation) at one shift.

    The determinant route eliminates beta2 = h beta1 self-consistently:
    beta1^2 [(1-s)^2 + 4 s^2 h^2] = gamma1 gamma2, with gamma1,2 = (1+s) +- X and
    the shift X = E - (1+s) a / rho;
    the contracted recurrence gives beta1 = a(1+s)(gamma1-gamma2)/denominator.
    A zero in X characterizes the bound state for the relation's sigma, rho and h.
    """
    rest, _, weight, coupling, den = relation
    gamma1 = rest + shift
    gamma2 = rest - shift
    disc = gamma1 * gamma2
    if disc < 0.0:
        raise NoRealDecayError(f"gamma1*gamma2 = {disc:.3e} is negative")
    return math.sqrt(disc / weight) - coupling * (gamma1 - gamma2) / den
