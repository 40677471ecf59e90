"""Gamma-matrix tables and the electron spin projections built from them.

The model is built on five mutually anticommuting, unitary 4x4 matrices
indexed 0, 1, 2, 3, 5, built from the Pauli matrices in the Dirac block
convention.  They satisfy the all-plus relation

    GAMMA[mu] GAMMA[nu] + GAMMA[nu] GAMMA[mu] = 2 delta_{mu,nu} I

so every one of them squares to +I.  All entries are 0, +-1 or +-1j, so
the relations hold to machine exactness; ``verify.clifford_checks``
checks them entrywise with an explicit absolute tolerance.

``GAMMA``, ``ALPHA_Z`` and ``SPIN_SHIFT`` are the one copy of each table:
every layer reads them here, and every array is read-only.
"""

import numpy as np

GAMMA_INDICES = (0, 1, 2, 3, 5)

# Dirac block convention: g0 = diag(I2, -I2), off-diagonal blocks +-i sigma_k for gk, I2 for g5
pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
GAMMA = {
    0: np.kron(pauli[2], np.eye(2)),
    **{k: np.kron([[0, 1], [-1, 0]], 1j * pauli[k - 1]) for k in (1, 2, 3)},
    5: np.kron(pauli[0], np.eye(2)),
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
del pauli, table
