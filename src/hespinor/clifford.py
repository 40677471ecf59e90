"""Gamma-matrix tables and the electron spin projections built from them.

The model is built on five mutually anticommuting, unitary 4x4 matrices
indexed 0, 1, 2, 3, 5.  They satisfy the all-plus relation

    gamma(mu) gamma(nu) + gamma(nu) gamma(mu) = 2 delta_{mu,nu} I

so every one of them squares to +I.  All entries are 0, +-1 or +-1j, so
the relations hold to machine exactness; ``verify.clifford_checks``
checks them entrywise with an explicit absolute tolerance.
"""

from __future__ import annotations

import numpy as np

GAMMA_INDICES = (0, 1, 2, 3, 5)

# Block convention: gamma(0) = diag(I2, -I2); gamma(k) for k = 1, 2, 3 has
# upper-right block +i*sigma_k and lower-left block -i*sigma_k with the
# standard Pauli matrices; gamma(5) has identity off-diagonal blocks.
_GAMMA_TABLES = {
    0: np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, -1, 0],
            [0, 0, 0, -1],
        ],
        dtype=complex,
    ),
    1: np.array(
        [
            [0, 0, 0, 1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [-1j, 0, 0, 0],
        ],
        dtype=complex,
    ),
    2: np.array(
        [
            [0, 0, 0, 1],
            [0, 0, -1, 0],
            [0, -1, 0, 0],
            [1, 0, 0, 0],
        ],
        dtype=complex,
    ),
    3: np.array(
        [
            [0, 0, 1j, 0],
            [0, 0, 0, -1j],
            [-1j, 0, 0, 0],
            [0, 1j, 0, 0],
        ],
        dtype=complex,
    ),
    5: np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
        dtype=complex,
    ),
}

# Spin projections entering M = Jz + (alpha_1z + alpha_2z)/2, as explicit
# block matrices: alpha_z(1) = diag(-sigma_z, sigma_z) = -i g5 g3 and
# alpha_z(2) = diag(-sigma_z, -sigma_z) = -i g2 g1.  Note the electron-2
# product order: -i g1 g2 gives the opposite sign and is *not* used.
_ALPHA_Z = {
    1: np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex),
    2: np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex),
}


def gamma(idx: int) -> np.ndarray:
    """Return a copy of the gamma matrix with the given index (0, 1, 2, 3 or 5)."""
    if idx not in _GAMMA_TABLES:
        raise ValueError(f"gamma index must be one of {GAMMA_INDICES}, got {idx!r}")
    return _GAMMA_TABLES[idx].copy()


def alpha_z(which: int) -> np.ndarray:
    """Return the z spin projection matrix of electron 1 or 2."""
    if which not in (1, 2):
        raise ValueError(f"electron label must be 1 or 2, got {which!r}")
    return _ALPHA_Z[which].copy()


def spin_shift_matrix() -> np.ndarray:
    """(alpha_z(1) + alpha_z(2)) / 2 = diag(-1, 1, 0, 0)."""
    return 0.5 * (_ALPHA_Z[1] + _ALPHA_Z[2])

