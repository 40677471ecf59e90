"""Matrix-valued differential operators acting on four-spinor test fields.

The Hamiltonian, the orbital angular momentum Jz and the conserved
combination M = Jz + (alpha_1z + alpha_2z)/2 are applied to smooth test
fields through second-order central differences.  Everything here is set
up so that operator identities (commutation, the componentwise expansion,
the covariant contraction) can be verified numerically with an O(step^2)
truncation error.

Configuration space is planar: (x1, y1) and (x2, y2) are the two electron
coordinates and the nucleus sits at the origin.  Units are natural with
the electron mass m = 1: energies are in units of m c^2.
"""

from collections import namedtuple
from itertools import product

import numpy as np

from .clifford import GAMMA, SPIN_SHIFT
from .model import ModelParams

_I4 = np.eye(4, dtype=complex)

# Stencil offsets: the centre, then +step and -step along each of the four axes.
_STENCIL = np.concatenate([np.zeros((1, 4)), np.kron(np.eye(4), [[1.0], [-1.0]])])


def _col(x) -> np.ndarray:
    """Per-point values with a trailing axis, to scale spinors of shape (..., 4)."""
    return np.asarray(x)[..., None]


class SingularPointError(ValueError):
    """Evaluation point too close to a Coulomb singularity for the stencil."""


class ConfigPoint(namedtuple("ConfigPoint", "x1 y1 x2 y2")):
    """Planar configuration of the two electrons; a batch of N if coordinates have shape (N,)."""

    __slots__ = ()

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


class SpinorField(namedtuple("SpinorField", "fn")):
    """Smooth map from configuration space to four complex components.

    ``fn`` takes a point or a batch: coordinates of shape S give spinors of
    shape S + (4,), i.e. (4,) for one point and (N, 4) for N points."""

    __slots__ = ()

    def __call__(self, point: ConfigPoint) -> np.ndarray:
        return self.fn(point)

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
            # per coordinate, summed in the order np.sum takes over a length-4 axis
            q = [np.square(p[k] - c[k]) for k in range(4)]
            env = np.exp(-(((q[0] + q[1]) + q[2]) + q[3]) / width**2)
            poly = 1.0 + (((lin[0] * p[0] + lin[1] * p[1]) + lin[2] * p[2]) + lin[3] * p[3])
            angle = n1 * p.theta1 + n2 * p.theta2
            phase = np.empty(np.shape(angle), complex)
            np.cos(angle, out=phase.real)
            np.sin(angle, out=phase.imag)
            return v * _col(env * poly * phase)

        return SpinorField(fn)


class DerivativeAssignment(namedtuple("DerivativeAssignment", "e1 e2")):
    """Gamma matrix (index, sign) attached to each first derivative.

    e1 and e2 hold ((idx, sign) for d/dx, (idx, sign) for d/dy) of the
    corresponding electron; the derivative block of the Hamiltonian is
    i * (sign_x * GAMMA[idx_x] d/dx + sign_y * GAMMA[idx_y] d/dy).
    """

    __slots__ = ()


# Assignment under which [H, M] vanishes and the componentwise expansion
# below holds with real radial coefficients.
CANONICAL_ASSIGNMENT = DerivativeAssignment(e1=((3, +1), (5, -1)), e2=((1, +1), (2, -1)))

# Electron-2 pair attached to the opposite axes; breaks [H, M] = 0 and is
# kept as the contrast case of the verify report.
E2_EXCHANGED_ASSIGNMENT = DerivativeAssignment(e1=((3, +1), (5, -1)), e2=((2, +1), (1, -1)))


def potential_radii(params: ModelParams, r1: float, r2: float, r12: float) -> float:
    """Total potential energy function of the mixed Hamiltonian."""
    s, a = params.sigma, params.alpha
    return -2 * (1 - s) * a / r1 - 4 * s * a / r2 + (1 + s) * a / r12


def _require_clearance(point: ConfigPoint, margin: float):
    closest = float(np.min(point.min_radius(), initial=np.inf))  # an empty batch clears
    if not closest > margin:  # a NaN radius propagates through np.min and fails here
        raise SingularPointError(f"point with min radius {closest:.3e} is not clear of "
                                 f"a Coulomb singularity by more than {margin:.3e}")


def _stencil(point: ConfigPoint, step: float) -> ConfigPoint:
    """The 9-point stencil of every point: coordinates of shape (9,) + S for points of shape S."""
    if step <= 0:
        raise ValueError("step must be positive")
    return ConfigPoint(*(np.add.outer(step * _STENCIL[:, k], x) for k, x in enumerate(point)))


def _differences(f, step: float):
    """Centre values and central differences along x1, y1, x2, y2 of stencil values f."""
    return f[0], (f[1::2] - f[2::2]) / (2 * step)


def gradient(field: SpinorField, point: ConfigPoint, step: float):
    """Field values f0 (shape S + (4,) for points of shape S) and central-difference
    derivatives d along x1, y1, x2, y2 (shape (4,) + S + (4,)), from one field
    call on the stacked 9-point stencil of every point.

    Every point must keep all three radii r1, r2, r12 above 4*step so the
    stencil stays clear of the Coulomb singularities; a NaN radius fails.
    The operators below act on the (f0, d) of one such pass, so H, Jz, M and
    both expansions of one field share its stencil.
    """
    _require_clearance(point, 4 * step)
    return _differences(field(_stencil(point, step)), step)


def apply_H(params, point, f0, d, assignment=CANONICAL_ASSIGNMENT) -> np.ndarray:
    """The Hamiltonian applied to a field with values f0 and derivatives d at
    a point or batch, as ``gradient`` returns them."""
    s, a = params.sigma, params.alpha
    (ix1, sx1), (iy1, sy1) = assignment.e1
    (ix2, sx2), (iy2, sy2) = assignment.e2
    out = (1 - s) * (1j * (sx1 * (d[0] @ GAMMA[ix1].T) + sy1 * (d[1] @ GAMMA[iy1].T))
                     - _col(2 * a / point.r1) * f0)
    out = out + 2 * s * (1j * (sx2 * (d[2] @ GAMMA[ix2].T) + sy2 * (d[3] @ GAMMA[iy2].T))
                         - _col(2 * a / point.r2) * f0)
    return out + (1 + s) * (f0 @ GAMMA[0].T + _col(a / point.r12) * f0)


def apply_Jz(point, f0, d) -> np.ndarray:
    """The orbital angular momentum Jz applied to a field with values f0 and derivatives d.

    Convention check: Jz e^{i theta1} = +1 e^{i theta1}, i.e. a phase
    winding +n in either angle carries Jz eigenvalue +n.
    """
    return 1j * (_col(point.y1) * d[0] - _col(point.x1) * d[1]
                 + _col(point.y2) * d[2] - _col(point.x2) * d[3])


def apply_M(point, f0, d) -> np.ndarray:
    """Jz plus the constant spin shift diag(-1, 1, 0, 0)."""
    return apply_Jz(point, f0, d) + f0 @ SPIN_SHIFT.T


def commutator_residual(params, fields, batch, step, assignment=CANONICAL_ASSIGNMENT) -> tuple:
    """The rows (H M - M H) field and (H Jz - Jz H) field of every field and point.

    For F fields and a batch of shape S each array has shape (F,) + S + (4,),
    the rows of ``apply_H``; floats are a batch of shape (), an empty batch
    gives empty rows.  Each field is called once, on the nested stencil of
    the flattened batch, of shape (9, 9, N).  The field values are
    concatenated along the point axis, so the operator algebra runs once on
    the F * N batch.  Each field's gradient on the outer 9-point stencil
    gives H field, M field and Jz field at every stencil point, and each
    outer difference then takes the other operator at the batch, with the
    same step on both levels.  The 4*step clearance of the batch covers both
    levels: a stencil point moves one step along one coordinate, so r1, r2
    and r12 each change by at most one step, and every outer stencil point
    keeps them above 3*step, every inner one above 2*step.
    """
    _require_clearance(batch, 4 * step)
    shape = (len(fields),) + np.shape(batch.x1) + (4,)
    coords = [np.ravel(x) for x in batch]
    nested = _stencil(_stencil(ConfigPoint(*coords), step), step)
    f0, d = _differences(np.concatenate([f(nested) for f in fields], axis=2), step)
    # one copy of the batch per field, to match the concatenated values
    batch = ConfigPoint(*(np.tile(x, len(fields)) for x in coords))
    outer = _stencil(batch, step)
    h_inner = _differences(apply_H(params, outer, f0, d, assignment), step)
    return tuple((apply_H(params, batch, *_differences(q(outer, f0, d), step), assignment)
                  - q(batch, *h_inner)).reshape(shape) for q in (apply_M, apply_Jz))


def component_system_residual(params, point, f0, d, energy, rho_freeze=None) -> np.ndarray:
    """Evaluate the four componentwise equations of the energy eigenproblem.

    Takes a field's values f0 and derivatives d at a point or batch, as
    ``gradient`` returns them, and returns the left-hand sides, shape (4,)
    for one point and (N, 4) for a batch; they equal GAMMA[0] (H - E) field
    up to rounding.  With ``rho_freeze`` set, the interelectron distance
    inside the potential is held at that constant (the separation
    constraint) while the derivative terms are untouched.
    """
    s, a = params.sigma, params.alpha
    r12 = point.r12 if rho_freeze is None else rho_freeze
    phi = potential_radii(params, point.r1, point.r2, r12)
    qp = (1 + s) + (phi - energy)
    qm = (1 + s) - (phi - energy)
    # component-first views, so f0[k] holds component k at every point
    f0, dx1, dy1, dx2, dy2 = (np.moveaxis(v, -1, 0) for v in (f0, *d))
    w1, w2 = 1 - s, 2 * s
    return np.stack([
        qp * f0[0] - w1 * (dx1[2] + 1j * dy1[2]) - w2 * (dx2[3] + 1j * dy2[3]),
        qp * f0[1] + w1 * (dx1[3] - 1j * dy1[3]) - w2 * (dx2[2] - 1j * dy2[2]),
        qm * f0[2] - w1 * (dx1[0] - 1j * dy1[0]) - w2 * (dx2[1] + 1j * dy2[1]),
        qm * f0[3] + w1 * (dx1[1] + 1j * dy1[1]) - w2 * (dx2[0] - 1j * dy2[0]),
    ], axis=-1)


def covariant_form_residual(params, point, f0, d, energy) -> np.ndarray:
    """The covariant contraction (1-sigma) zeta_1.pi_1 + 2 sigma zeta_2.pi_2 applied to a field
    with values f0 and derivatives d, as ``gradient`` returns them.

    The effective momenta are pi_k = (1, -i d/dx_k, -i d/dy_k, -2a/r_k + a/r12 - E')
    with E' = E / (1 + sigma): the energy component carries that weight
    because the mixing prefactors sum to 1 + sigma while E enters the
    eigenproblem exactly once.  The rows, shape (4,) for one point and
    (N, 4) for a batch, equal GAMMA[0] (H - E) field up to rounding, as
    those of ``component_system_residual`` do.
    """
    s, a = params.sigma, params.alpha
    # matrix four-vectors of the contraction, one per electron
    z1 = (_I4, -(GAMMA[0] @ GAMMA[3]), GAMMA[0] @ GAMMA[5], GAMMA[0])
    z2 = (_I4, -(GAMMA[0] @ GAMMA[1]), GAMMA[0] @ GAMMA[2], GAMMA[0])
    eshift = energy / (1 + s)
    pi1 = (f0, -1j * d[0], -1j * d[1],
           _col(-2 * a / point.r1 + a / point.r12 - eshift) * f0)
    pi2 = (f0, -1j * d[2], -1j * d[3],
           _col(-2 * a / point.r2 + a / point.r12 - eshift) * f0)
    total = sum((1 - s) * (pvec @ zmat.T) for zmat, pvec in zip(z1, pi1))
    return total + sum(2 * s * (pvec @ zmat.T) for zmat, pvec in zip(z2, pi2))


def scan_derivative_assignments() -> list:
    """Exact [H, M] test of every pairing/sign variant of the derivative terms.

    Per electron Jz = i(y d/dx - x d/dy), so [Jz, d/dx] = i d/dy and [Jz, d/dy] = -i d/dx.
    So i(P d/dx + Q d/dy) commutes with M = Jz + S, S = diag(-1, 1, 0, 0),
    exactly when i[S, P] = -Q and i[S, Q] = P.
    The rest of H commutes with M: [S, GAMMA[0]] = 0 and the potential is rotation-invariant.

    Both electrons are scanned over their two axis pairings and four sign
    combinations (64 variants).  Returns (assignment, residual) sorted by
    residual: the largest entry of i[S, P] + Q, i[S, Q] - P (either
    electron) and [S, GAMMA[0]].  The entries are 0, +-1 and +-1j, so a
    commuting variant reads exactly 0.0.
    """
    def comm(a):
        return SPIN_SHIFT @ a - a @ SPIN_SHIFT

    # the 8 (d/dx, d/dy) pairs of electron 1, then the 8 of electron 2, stacked
    pairs = [((ix, sx), (iy, sy)) for axes in (((3, 5), (5, 3)), ((1, 2), (2, 1)))
             for (ix, iy), sx, sy in product(axes, (+1, -1), (+1, -1))]
    p = np.array([sx * GAMMA[ix] for (ix, sx), _ in pairs])
    q = np.array([sy * GAMMA[iy] for _, (iy, sy) in pairs])
    residual = np.maximum(np.abs(1j * comm(p) + q).max(axis=(1, 2)),
                          np.abs(1j * comm(q) - p).max(axis=(1, 2)))
    mass = np.abs(comm(GAMMA[0])).max()
    table = np.maximum(np.maximum.outer(residual[:8], residual[8:]), mass).ravel()
    variants = (DerivativeAssignment(e1=e1, e2=e2) for e1, e2 in product(pairs[:8], pairs[8:]))
    return sorted(zip(variants, table.tolist()), key=lambda t: t[1])
