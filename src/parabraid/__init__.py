"""Verification and exploration engine for parafermion braiding.

Builds the qudit operators behind Z_d parafermion exchange, solves and
verifies the braid-group constraint equations, compiles braid words into
logical qudit gates, and certifies the induced gate groups by explicit
closure at small d.
"""

from .phases import CyclotomicPhase, phase_from_complex
from .systems import (
    DenseOperator,
    QuditSystem,
    SizeBoundError,
    controlled_phase,
    controlled_shift,
    equal_up_to_phase,
    fourier_gate,
    pauli_x,
    pauli_z,
)
from .parafermions import (
    ParafermionSystem,
    build_parafermions,
    check_parity_algebra,
    parity,
    parity_eigenbasis,
)
from .constraints import (
    CoefficientVector,
    FZCParams,
    apply_symmetry,
    d4_family,
    fzc_coefficients,
    gauge_fix,
    trivial_vector,
    unitarity_residual,
    yang_baxter_residual,
)
from .solver import SolverConfig, SolutionCluster, manifold_dimension, solve_all
from .braiding import (
    BraidRepresentation,
    BraidWord,
    canonical_word,
    check_representation,
    compose_braid,
    conjugation_action,
    diagonal_phases,
)
from .encoding import (
    Encoding,
    LogicalGateID,
    braid_generator_tableaux,
    build_encoding,
    entangling_words,
    identify_gate,
    parity_conjugation_table,
    restrict_word,
)
from .clifford import (
    CliffordTableau,
    PauliLabel,
    clifford_membership,
    closure,
    reference_generators,
)

__version__ = "0.1.0"
