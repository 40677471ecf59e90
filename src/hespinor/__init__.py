"""Four-spinor model of a planar two-electron atom.

Subpackages by role:

* ``clifford``  -- gamma-matrix tables and spin projections
* ``operators`` -- finite-difference Hamiltonian / angular-momentum lab
* ``angular``   -- phase ansatz and separation into a radial system
* ``radial``    -- indicial and spectral linear algebra, decay-rate relation
* ``spectrum``  -- closed-form energy, geometry and consistency solver
* ``optimize``  -- sigma scans and the Brent ground-state search
* ``verify``    -- the aggregated identity-check battery, gamma algebra included
* ``cli``       -- command-line entry points

A parameter outside the model's domain raises ``ParameterError`` (a
``ValueError``) from the library function that uses it; the CLI maps it
to exit code 2.
"""

from .operators import (
    FINE_STRUCTURE_ALPHA,
    ConfigPoint,
    ModelParams,
    ParameterError,
    SingularPointError,
    SpinorField,
)
from .spectrum import ClosedFormParams, EquilibriumPoint, closed_form, delta_e, equilibrium_point
from .optimize import MinimizeResult, minimize_delta_e, scan_sigma

__version__ = "0.1.0"

__all__ = [
    "FINE_STRUCTURE_ALPHA",
    "ClosedFormParams",
    "ConfigPoint",
    "EquilibriumPoint",
    "MinimizeResult",
    "ModelParams",
    "ParameterError",
    "SingularPointError",
    "SpinorField",
    "closed_form",
    "delta_e",
    "equilibrium_point",
    "minimize_delta_e",
    "scan_sigma",
    "__version__",
]
