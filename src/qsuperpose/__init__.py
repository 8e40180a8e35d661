"""Deterministic simulation toolkit for pure-state superposition protocols.

Gate-level, qudit-generalized, enhanced-probability and NMR pulse-level
pipelines for superposing pure states whose overlaps with a referential
state are known, cross-verified against their closed-form success
probabilities.
"""

from .datasets import TABLE1, Dataset, dataset
from .direct import (
    ProtocolResult,
    SuperpositionSpec,
    ancilla_hadamard,
    encode_two_qubit,
    measure_ancilla,
    phase_gate,
    run_direct,
)
from .enhanced import (
    EnhancedResult,
    chi_perp,
    geometry_classify,
    run_enhanced,
    u_chi,
)
from .errors import ArgumentError, DegenerateInputError, ToolkitError, ZeroOverlapError
from .hybrid import HybridResult, fourier, run_hybrid
from .linalg import (
    ATOL,
    EPS_OVERLAP,
    DensityMatrix,
    OverlapInfo,
    QubitParams,
    StateVector,
    basis_state,
    fidelity,
    make_qubit,
    overlap_decompose,
    partial_trace,
    phase_equivalent,
    pure_density,
    tensor,
)
from .nmr import (
    PulseEvent,
    PulseSequence,
    SpinSystem,
    compile_sequence,
    evolve_free,
    gradient_crush,
    hamiltonian,
    partial_tomography,
    rf_pulse,
    run_sequence,
)
from .reference import (
    ReferenceSpec,
    build_initial,
    controlled_swap_cascade,
    project_onto_reference,
    run_three_qubit,
    run_two_qubit_reduced,
)
from .analysis import (
    SweepGrid,
    reproduce_table1,
    success_ratio,
    sweep_rp,
    verify_probability_formulas,
)

__version__ = "0.1.0"
