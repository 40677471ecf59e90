"""Matrix-valued differential operators acting on four-spinor test fields.

The Hamiltonian, the orbital angular momentum Jz and the conserved
combination M = Jz + (alpha_1z + alpha_2z)/2 are applied to smooth test
fields through second-order central differences.  Everything here is set
up so that operator identities (commutation, the componentwise expansion,
the covariant contraction) can be verified numerically with an O(step^2)
truncation error.

Configuration space is planar: (x1, y1) and (x2, y2) are the two electron
coordinates and the nucleus sits at the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from . import clifford

FINE_STRUCTURE_ALPHA = 1.0 / 137.035999084

_GAMMA = {i: clifford.gamma(i) for i in clifford.GAMMA_INDICES}
_SPIN_SHIFT = clifford.spin_shift_matrix()
_I4 = np.eye(4, dtype=complex)

# Stencil offsets: the centre, then +step and -step along each of the four axes.
_STENCIL = np.concatenate([np.zeros((1, 4)), np.kron(np.eye(4), [[1.0], [-1.0]])])


def _col(x) -> np.ndarray:
    """Per-point values with a trailing axis, to scale spinors of shape (..., 4)."""
    return np.asarray(x)[..., None]


class SingularPointError(ValueError):
    """Evaluation point too close to a Coulomb singularity for the stencil."""


@dataclass(frozen=True)
class ConfigPoint:
    """Planar configuration of the two electrons; a batch of N if coordinates have shape (N,)."""

    x1: float
    y1: float
    x2: float
    y2: float

    @classmethod
    def stack(cls, points) -> "ConfigPoint":
        """One batch holding the coordinates of a sequence of points."""
        coords = np.array([(p.x1, p.y1, p.x2, p.y2) for p in points], dtype=float)
        if len(coords) == 0:
            raise ValueError("points must hold at least one ConfigPoint")
        return cls(*coords.T)

    @property
    def r1(self):
        return np.hypot(self.x1, self.y1)

    @property
    def r2(self):
        return np.hypot(self.x2, self.y2)

    @property
    def r12(self):
        return np.hypot(self.x1 - self.x2, self.y1 - self.y2)

    @property
    def theta1(self):
        return np.arctan2(self.y1, self.x1)

    @property
    def theta2(self):
        return np.arctan2(self.y2, self.x2)

    def min_radius(self):
        return np.minimum(np.minimum(self.r1, self.r2), self.r12)


@dataclass(frozen=True)
class ModelParams:
    """Physical constants and quantum numbers of the two-electron model.

    sigma is the penetration factor mixing the two one-electron
    Hamiltonians, H = (1 - sigma) H1 + 2 sigma H2.  j1 and j2 must satisfy
    j^2 > 4 alpha^2 so the radial exponents stay real.
    """

    sigma: float
    alpha: float = FINE_STRUCTURE_ALPHA
    m: float = 1.0
    j1: float = 1.0
    j2: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.sigma <= 1.0:
            raise ValueError(f"sigma must lie in [0, 1], got {self.sigma}")
        for name, value in (("alpha", self.alpha), ("mass m", self.m)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} = {value!r}: need a finite {name} > 0")
        for name, j in (("j1", self.j1), ("j2", self.j2)):
            if not 4 * self.alpha**2 < j * j < math.inf:
                raise ValueError(f"{name} = {j!r}: need a finite {name} with "
                                 f"{name}^2 > 4 alpha^2 for real exponents")


@dataclass(frozen=True)
class SpinorField:
    """Smooth map from configuration space to four complex components.

    ``fn`` takes a point or a batch: coordinates of shape S give spinors of
    shape S + (4,), i.e. (4,) for one point and (N, 4) for N points."""

    fn: Callable[[ConfigPoint], np.ndarray]

    def __call__(self, point: ConfigPoint) -> np.ndarray:
        return self.fn(point)

    @staticmethod
    def constant(values) -> "SpinorField":
        v = np.asarray(values, dtype=complex)
        return SpinorField(lambda p: np.broadcast_to(v, np.shape(p.x1) + v.shape).copy())

    @staticmethod
    def plane_wave(wavevector, values) -> "SpinorField":
        """exp(i k.x) times a fixed spinor; k has one entry per coordinate."""
        k = np.asarray(wavevector, dtype=float)
        v = np.asarray(values, dtype=complex)

        def fn(p: ConfigPoint) -> np.ndarray:
            phase = k[0] * p.x1 + k[1] * p.y1 + k[2] * p.x2 + k[3] * p.y2
            return v * _col(np.exp(1j * phase))

        return SpinorField(fn)

    @staticmethod
    def gaussian(center, width, values, winding=(0, 0), linear=None) -> "SpinorField":
        """Gaussian envelope times an optional linear polynomial and
        angular winding phases exp(i(n1*theta1 + n2*theta2))."""
        c = np.asarray(center, dtype=float)
        v = np.asarray(values, dtype=complex)
        n1, n2 = winding
        lin = np.zeros(4) if linear is None else np.asarray(linear, dtype=float)

        def fn(p: ConfigPoint) -> np.ndarray:
            x = np.stack([p.x1, p.y1, p.x2, p.y2], axis=-1)
            env = np.exp(-np.sum((x - c) ** 2, axis=-1) / width**2)
            poly = 1.0 + np.sum(lin * x, axis=-1)
            phase = np.exp(1j * (n1 * p.theta1 + n2 * p.theta2))
            return v * _col(env * poly * phase)

        return SpinorField(fn)


@dataclass(frozen=True)
class DerivativeAssignment:
    """Gamma matrix (index, sign) attached to each first derivative.

    e1 and e2 hold ((idx, sign) for d/dx, (idx, sign) for d/dy) of the
    corresponding electron; the derivative block of the Hamiltonian is
    i * (sign_x * gamma(idx_x) d/dx + sign_y * gamma(idx_y) d/dy).
    """

    e1: tuple
    e2: tuple

    def label(self) -> str:
        (ax, sx), (ay, sy) = self.e1
        (bx, tx), (by, ty) = self.e2
        def term(i, s, var):
            return f"{'+' if s > 0 else '-'}g{i}*d{var}"
        return (
            f"e1[{term(ax, sx, 'x1')} {term(ay, sy, 'y1')}] "
            f"e2[{term(bx, tx, 'x2')} {term(by, ty, 'y2')}]"
        )


# Assignment under which [H, M] vanishes and the componentwise expansion
# below holds with real radial coefficients.
CANONICAL_ASSIGNMENT = DerivativeAssignment(e1=((3, +1), (5, -1)), e2=((1, +1), (2, -1)))

# Electron-2 pair attached to the opposite axes; breaks [H, M] = 0 and is
# kept only as input to the assignment scan / verify report.
E2_EXCHANGED_ASSIGNMENT = DerivativeAssignment(e1=((3, +1), (5, -1)), e2=((2, +1), (1, -1)))


def potential(params: ModelParams, point: ConfigPoint) -> float:
    """Total potential energy function of the mixed Hamiltonian."""
    return potential_radii(params, point.r1, point.r2, point.r12)


def potential_radii(params: ModelParams, r1: float, r2: float, r12: float) -> float:
    s, a = params.sigma, params.alpha
    return -2 * (1 - s) * a / r1 - 4 * s * a / r2 + (1 + s) * a / r12


def _require_clearance(point: ConfigPoint, margin: float):
    closest = float(np.min(point.min_radius()))
    if closest <= margin:
        raise SingularPointError(f"point with min radius {closest:.3e} is within "
                                 f"{margin:.3e} of a Coulomb singularity")


def _gradient(field: SpinorField, point: ConfigPoint, step: float):
    """Field values (shape S + (4,) for points of shape S) and central-difference
    derivatives along x1, y1, x2, y2 (shape (4,) + S + (4,)), from one field
    call on the stacked 9-point stencil of every point."""
    if step <= 0:
        raise ValueError("step must be positive")
    coords = (point.x1, point.y1, point.x2, point.y2)
    f = field(ConfigPoint(*(np.add.outer(step * _STENCIL[:, k], x) for k, x in enumerate(coords))))
    return f[0], (f[1::2] - f[2::2]) / (2 * step)


def _h_terms(params, point, f0, d, assignment) -> np.ndarray:
    s, a = params.sigma, params.alpha
    (ix1, sx1), (iy1, sy1) = assignment.e1
    (ix2, sx2), (iy2, sy2) = assignment.e2
    out = (1 - s) * (1j * (sx1 * (d[0] @ _GAMMA[ix1].T) + sy1 * (d[1] @ _GAMMA[iy1].T))
                     - _col(2 * a / point.r1) * f0)
    out = out + 2 * s * (1j * (sx2 * (d[2] @ _GAMMA[ix2].T) + sy2 * (d[3] @ _GAMMA[iy2].T))
                         - _col(2 * a / point.r2) * f0)
    return out + (1 + s) * (params.m * (f0 @ _GAMMA[0].T) + _col(a / point.r12) * f0)


def _jz_terms(point, d) -> np.ndarray:
    return 1j * (_col(point.y1) * d[0] - _col(point.x1) * d[1]
                 + _col(point.y2) * d[2] - _col(point.x2) * d[3])


def apply_H(params, field, point, step, assignment=CANONICAL_ASSIGNMENT) -> np.ndarray:
    """Central-difference application of the Hamiltonian at a point or batch.

    Every point must keep all three radii r1, r2, r12 above 4*step so the
    stencil stays clear of the Coulomb singularities.
    """
    _require_clearance(point, 4 * step)
    return _h_terms(params, point, *_gradient(field, point, step), assignment)


def apply_Jz(field, point, step) -> np.ndarray:
    """Central-difference application of the orbital angular momentum Jz.

    Convention check: Jz e^{i theta1} = +1 e^{i theta1}, i.e. a phase
    winding +n in either angle carries Jz eigenvalue +n.  There are no
    Coulomb coefficients here, so no singularity clearance is required.
    """
    return _jz_terms(point, _gradient(field, point, step)[1])


def apply_M(field, point, step) -> np.ndarray:
    """Jz plus the constant spin shift diag(-1, 1, 0, 0)."""
    f0, d = _gradient(field, point, step)
    return _jz_terms(point, d) + f0 @ _SPIN_SHIFT.T


def operator_factories(params, step, assignment=CANONICAL_ASSIGNMENT) -> dict:
    """Lazy field -> field operators, nestable for commutator evaluation.

    Nested applications reuse the same step on both levels; inner
    evaluations run with a reduced (2*step) singularity clearance so the
    outer stencil may shift points toward a singularity by one step.
    """

    def H(field):
        def apply(p):
            _require_clearance(p, 2 * step)
            return _h_terms(params, p, *_gradient(field, p, step), assignment)
        return SpinorField(apply)

    def Jz(field):
        return SpinorField(lambda p: apply_Jz(field, p, step))

    def M(field):
        return SpinorField(lambda p: apply_M(field, p, step))

    return {"H": H, "Jz": Jz, "M": M}


def commutator_residual(op_a, op_b, params, field, points, step,
                        assignment=CANONICAL_ASSIGNMENT) -> float:
    """max over points, taken as one batch, of |(A B - B A) field| for tags 'H'/'Jz'/'M'."""
    ops = operator_factories(params, step, assignment)
    if op_a not in ops or op_b not in ops:
        raise ValueError(f"operator tags must be in {sorted(ops)}")
    batch = ConfigPoint.stack(points)
    _require_clearance(batch, 4 * step)
    ab = ops[op_a](ops[op_b](field))
    ba = ops[op_b](ops[op_a](field))
    return float(np.abs(ab(batch) - ba(batch)).max())


def component_system_residual(params, field, point, step, energy,
                              rho_freeze=None) -> np.ndarray:
    """Evaluate the four componentwise equations of the energy eigenproblem.

    Returns the left-hand sides, shape (4,) for one point and (N, 4) for a
    batch; they equal gamma(0) (H - E) field up to the O(step^2) difference
    of independently taken stencils.  With ``rho_freeze`` set, the
    interelectron distance inside the potential is held at that constant
    (the separation constraint) while the derivative terms are untouched.
    """
    _require_clearance(point, 4 * step)
    s, a = params.sigma, params.alpha
    r12 = point.r12 if rho_freeze is None else rho_freeze
    phi = potential_radii(params, point.r1, point.r2, r12)
    qp = (1 + s) * params.m + (phi - energy)
    qm = (1 + s) * params.m - (phi - energy)
    f0, (dx1, dy1, dx2, dy2) = _gradient(field, point, step)
    # component-first views, so f0[k] holds component k at every point
    f0, dx1, dy1, dx2, dy2 = (np.moveaxis(v, -1, 0) for v in (f0, dx1, dy1, dx2, dy2))
    w1, w2 = 1 - s, 2 * s
    return np.stack([
        qp * f0[0] - w1 * (dx1[2] + 1j * dy1[2]) - w2 * (dx2[3] + 1j * dy2[3]),
        qp * f0[1] + w1 * (dx1[3] - 1j * dy1[3]) - w2 * (dx2[2] - 1j * dy2[2]),
        qm * f0[2] - w1 * (dx1[0] - 1j * dy1[0]) - w2 * (dx2[1] + 1j * dy2[1]),
        qm * f0[3] + w1 * (dx1[1] + 1j * dy1[1]) - w2 * (dx2[0] - 1j * dy2[0]),
    ], axis=-1)


def covariant_zetas() -> tuple:
    """Matrix four-vectors of the covariant contraction, one per electron."""
    z1 = (_I4, -(_GAMMA[0] @ _GAMMA[3]), _GAMMA[0] @ _GAMMA[5], _GAMMA[0])
    z2 = (_I4, -(_GAMMA[0] @ _GAMMA[1]), _GAMMA[0] @ _GAMMA[2], _GAMMA[0])
    return z1, z2


def covariant_form_residual(params, field, point, step, energy):
    """Max-norm difference between the covariant contraction and gamma(0)(H - E).

    The contraction is (1-sigma) zeta_1.pi_1 + 2 sigma zeta_2.pi_2 with
    effective momenta pi_k = (m, -i d/dx_k, -i d/dy_k, -2a/r_k + a/r12 - E'),
    where E' = E / (1 + sigma).  The energy component must carry that
    weight because the mixing prefactors sum to 1 + sigma while E enters
    the eigenproblem exactly once.  Returns a float for one point and an
    array of shape (N,) for a batch.
    """
    _require_clearance(point, 4 * step)
    s, a = params.sigma, params.alpha
    f0, d = _gradient(field, point, step)
    z1, z2 = covariant_zetas()
    eshift = energy / (1 + s)
    pi1 = (params.m * f0, -1j * d[0], -1j * d[1],
           _col(-2 * a / point.r1 + a / point.r12 - eshift) * f0)
    pi2 = (params.m * f0, -1j * d[2], -1j * d[3],
           _col(-2 * a / point.r2 + a / point.r12 - eshift) * f0)
    total = sum((1 - s) * (pvec @ zmat.T) for zmat, pvec in zip(z1, pi1))
    total = total + sum(2 * s * (pvec @ zmat.T) for zmat, pvec in zip(z2, pi2))
    reference = (_h_terms(params, point, f0, d, CANONICAL_ASSIGNMENT) - energy * f0) @ _GAMMA[0].T
    return np.abs(total - reference).max(axis=-1)


def scan_derivative_assignments(params, field, points, step) -> list:
    """[H, M] residual for every pairing/sign variant of the derivative terms.

    Both electrons are scanned over their two axis pairings and four sign
    combinations (64 variants).  Returns (assignment, residual) sorted by
    residual; the commuting variants sit at the top separated from the
    rest by many orders of magnitude.
    """
    results = []
    for (a1, b1), s1x, s1y, (a2, b2), s2x, s2y in product(
        ((3, 5), (5, 3)), (+1, -1), (+1, -1), ((1, 2), (2, 1)), (+1, -1), (+1, -1)
    ):
        assignment = DerivativeAssignment(
            e1=((a1, s1x), (b1, s1y)), e2=((a2, s2x), (b2, s2y))
        )
        res = commutator_residual("H", "M", params, field, points, step, assignment)
        results.append((assignment, res))
    results.sort(key=lambda t: t[1])
    return results
