"""Four-spinor model of a planar two-electron atom.

Subpackages by role:

* ``clifford``  -- gamma-matrix tables and exact algebra checks
* ``operators`` -- finite-difference Hamiltonian / angular-momentum lab
* ``angular``   -- phase ansatz and separation into a radial system
* ``radial``    -- indicial and spectral linear algebra, decay-rate relation
* ``spectrum``  -- closed-form energy, geometry and consistency solver
* ``optimize``  -- sigma scans and the brentq ground-state search
* ``verify``    -- the aggregated identity-check battery
* ``cli``       -- command-line entry points
"""

from .operators import (
    FINE_STRUCTURE_ALPHA,
    ConfigPoint,
    ModelParams,
    SingularPointError,
    SpinorField,
)
from .spectrum import ClosedFormParams, EquilibriumPoint, closed_form, delta_e, equilibrium_point
from .optimize import MinimizeResult, ScanConfig, minimize_delta_e, scan_sigma

__version__ = "0.1.0"

__all__ = [
    "FINE_STRUCTURE_ALPHA",
    "ClosedFormParams",
    "ConfigPoint",
    "EquilibriumPoint",
    "MinimizeResult",
    "ModelParams",
    "ScanConfig",
    "SingularPointError",
    "SpinorField",
    "closed_form",
    "delta_e",
    "equilibrium_point",
    "minimize_delta_e",
    "scan_sigma",
    "__version__",
]
