"""Measurement-induced state filtration for many-body spin chains.

The protocol alternates unitary evolution U(tau) with post-selected
non-detection of one product state, iterating the filtration operator
F = (1 - |psi_r><psi_r|) U(tau).  Engineered degeneracies of U(tau)
leave dark states that survive filtration; everything else is depleted,
steering the system into tailored superpositions of scar eigenstates
such as GHZ-type cat states of the spin-1 XY chain.

Subpackages:

* ``spin_model``  -- chain Hamiltonians, the bi-magnon tower, protocol states;
* ``filtration``  -- engines and trajectory iteration;
* ``spectral``    -- the spectrum of F: phase groups, dark subspaces,
  secular equation, jump-ahead filtration time, scaling laws;
* ``experiments`` -- reproducible preset studies writing CSV artifacts;
* ``cli``         -- the ``darkfilter`` command-line entry point.
"""

from darkfilter.errors import DarkfilterError, NumericsError, ValidationError
from darkfilter.spin_model import (
    ChainParams,
    ManyBodyOperator,
    SgaReport,
    bimagnon_raising,
    build_hamiltonian,
    build_tower,
    protocol_states,
    sga_residual,
)
from darkfilter.filtration import (
    FiltrationSetup,
    RotatingTarget,
    Trajectory,
    filtration_time,
    full_setup,
    generic_setup,
    reduced_setup,
    resonance_period,
    run_filtration,
)
from darkfilter.spectral import (
    DarkSubspace,
    bright_secular_roots,
    convex_hull_violation,
    dark_projection,
    dark_subspace,
    degeneracy_groups,
    scaling_predictions,
)

__version__ = "0.1.0"

__all__ = [
    "ChainParams",
    "DarkSubspace",
    "DarkfilterError",
    "FiltrationSetup",
    "ManyBodyOperator",
    "NumericsError",
    "RotatingTarget",
    "SgaReport",
    "Trajectory",
    "ValidationError",
    "bimagnon_raising",
    "bright_secular_roots",
    "build_hamiltonian",
    "build_tower",
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
