"""Four-spinor model of a planar two-electron atom.

Subpackages by role:

* ``model``     -- constants, the parameter domain and the radial exponents
* ``clifford``  -- gamma-matrix tables and spin projections
* ``operators`` -- finite-difference Hamiltonian / angular-momentum lab
* ``angular``   -- phase ansatz and separation into a radial system
* ``radial``    -- indicial and spectral linear algebra, decay-rate relation
* ``spectrum``  -- closed-form energy, geometry and consistency solver
* ``optimize``  -- sigma scans and the Brent ground-state search
* ``verify``    -- the aggregated identity-check battery, gamma algebra included
* ``cli``       -- command-line entry points
* ``csv17g``    -- the exact vectorised ``"%.17g"`` CSV encoder

A parameter outside the model's domain raises ``ParameterError`` (a
``ValueError``) from the library function that uses it; the CLI maps it
to exit code 2.

The names of the finite-difference lab (``ConfigPoint``, ``SpinorField``,
``SingularPointError``) are resolved on first use, so that importing the
package, like ``hespinor minimize``, loads no numpy.  Nor does it load
``dataclasses``, ``json`` or ``radial``: the records of ``model``,
``spectrum`` and ``optimize`` are ``collections.namedtuple`` subclasses,
and ``spectrum`` imports ``radial`` only inside the consistency solve.
"""

from .model import FINE_STRUCTURE_ALPHA, ModelParams, ParameterError
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


def __getattr__(name):
    if name in ("ConfigPoint", "SingularPointError", "SpinorField"):
        from . import operators
        return getattr(operators, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
