"""Four-spinor model of a planar two-electron atom.

Modules by role:

* ``model``     -- constants, the parameter domain and the radial exponents
* ``clifford``  -- gamma-matrix tables and spin projections
* ``operators`` -- finite-difference Hamiltonian / angular-momentum lab
* ``angular``   -- phase ansatz, separation into a radial system, complex-step radial rows
* ``radial``    -- the radial operator's table and rows, indicial and spectral
                   linear algebra, decay-rate relation
* ``spectrum``  -- closed-form energy, geometry and consistency solver
* ``optimize``  -- sigma scans and the Brent ground-state search
* ``verify``    -- the aggregated identity-check battery, gamma algebra included
* ``cli``       -- command-line entry points
* ``csv17g``    -- the exact vectorised ``"%.17g"`` CSV encoder

Each name lives in its module (``from hespinor.spectrum import closed_form``);
the package itself exports only ``FINE_STRUCTURE_ALPHA`` and ``__version__``,
so ``import hespinor`` loads no other module of it and no numpy.

A parameter outside the model's domain raises ``model.ParameterError`` (a
``ValueError``) from the library function that uses it; the CLI maps it
to exit code 2.
"""

from .model import FINE_STRUCTURE_ALPHA

__version__ = "0.1.0"
