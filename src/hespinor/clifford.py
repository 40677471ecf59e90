"""Gamma-matrix tables and the electron spin projections built from them.

The model is built on five mutually anticommuting, unitary 4x4 matrices
indexed 0, 1, 2, 3, 5.  They satisfy the all-plus relation

    GAMMA[mu] GAMMA[nu] + GAMMA[nu] GAMMA[mu] = 2 delta_{mu,nu} I

so every one of them squares to +I.  All entries are 0, +-1 or +-1j, so
the relations hold to machine exactness; ``verify.clifford_checks``
checks them entrywise with an explicit absolute tolerance.

``GAMMA``, ``ALPHA_Z`` and ``SPIN_SHIFT`` are the one copy of each table:
every layer reads them here, and every array is read-only.
"""

import numpy as np

GAMMA_INDICES = (0, 1, 2, 3, 5)

# Block convention: GAMMA[0] = diag(I2, -I2); GAMMA[k] for k = 1, 2, 3 has
# upper-right block +i*sigma_k and lower-left block -i*sigma_k with the
# standard Pauli matrices; GAMMA[5] has identity off-diagonal blocks.
GAMMA = {
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
# block matrices: ALPHA_Z[1] = diag(-sigma_z, sigma_z) = -i g5 g3 and
# ALPHA_Z[2] = diag(-sigma_z, -sigma_z) = -i g2 g1.  Note the electron-2
# product order: -i g1 g2 gives the opposite sign and is *not* used.
ALPHA_Z = {
    1: np.diag([-1.0, 1.0, 1.0, -1.0]).astype(complex),
    2: np.diag([-1.0, 1.0, -1.0, 1.0]).astype(complex),
}

# (ALPHA_Z[1] + ALPHA_Z[2]) / 2 = diag(-1, 1, 0, 0)
SPIN_SHIFT = (ALPHA_Z[1] + ALPHA_Z[2]) / 2

for table in (*GAMMA.values(), *ALPHA_Z.values(), SPIN_SHIFT):
    table.flags.writeable = False
del table
