"""Measurement-induced state filtration for many-body spin chains.

The protocol alternates unitary evolution U(tau) with post-selected
non-detection of one product state, iterating the filtration operator
F = (1 - |psi_r><psi_r|) U(tau).  Engineered degeneracies of U(tau)
leave dark states that survive filtration; everything else is depleted,
steering the system into tailored superpositions of scar eigenstates
such as GHZ-type cat states of the spin-1 XY chain.

Subpackages:

* ``spin_model``  -- chain Hamiltonians, the bi-magnon tower, protocol states;
* ``filtration``  -- engines, trajectory iteration, dark subspaces;
* ``spectral``    -- secular equation, charge picture, scaling laws;
* ``experiments`` -- reproducible preset studies writing CSV artifacts;
* ``cli``         -- the ``darkfilter`` command-line entry point.
"""

from darkfilter.basis import BasisEncoding
from darkfilter.errors import DarkfilterError, NumericsError, ValidationError
from darkfilter.spin_model import (
    ChainParams,
    ManyBodyOperator,
    ScarTower,
    SgaReport,
    StateVector,
    bimagnon_raising,
    build_hamiltonian,
    build_tower,
    protocol_states,
    sga_residual,
)
from darkfilter.filtration import (
    DarkSubspace,
    FiltrationSetup,
    FiltrationTime,
    RotatingTarget,
    Trajectory,
    dark_projection,
    dark_subspace,
    degeneracy_groups,
    filtration_time,
    full_setup,
    generic_setup,
    reduced_setup,
    resonance_period,
    run_filtration,
)
from darkfilter.spectral import (
    BrightSpectrum,
    ChargePicture,
    bright_secular_roots,
    charge_picture,
    convex_hull_violation,
    scaling_predictions,
)

__version__ = "0.1.0"

__all__ = [
    "BasisEncoding",
    "BrightSpectrum",
    "ChainParams",
    "ChargePicture",
    "DarkSubspace",
    "DarkfilterError",
    "FiltrationSetup",
    "FiltrationTime",
    "ManyBodyOperator",
    "NumericsError",
    "RotatingTarget",
    "ScarTower",
    "SgaReport",
    "StateVector",
    "Trajectory",
    "ValidationError",
    "bimagnon_raising",
    "bright_secular_roots",
    "build_hamiltonian",
    "build_tower",
    "charge_picture",
    "convex_hull_violation",
    "dark_projection",
    "dark_subspace",
    "degeneracy_groups",
    "filtration_time",
    "full_setup",
    "generic_setup",
    "protocol_states",
    "reduced_setup",
    "resonance_period",
    "run_filtration",
    "scaling_predictions",
    "sga_residual",
    "__version__",
]
