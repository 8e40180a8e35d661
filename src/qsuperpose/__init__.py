"""Deterministic simulation toolkit for pure-state superposition protocols.

Gate-level, qudit-generalized, enhanced-probability and NMR pulse-level
pipelines for superposing pure states whose overlaps with a referential
state are known, cross-verified against their closed-form success
probabilities.

The package root exports the problem-building names of the README and the
error types; each pipeline lives in its own module.
"""

from .errors import ArgumentError, DegenerateInputError, ToolkitError, ZeroOverlapError
from .linalg import QubitParams, basis_state, make_qubit
from .linalg import overlap_decompose  # noqa: F401  (bench/test_bench.py reads it here)
from .reference import ReferenceSpec

# Load every pipeline module with the package: bench/tracer.py looks each
# traced module up in sys.modules, and no benchmark workload imports enhanced.
from . import analysis, direct, enhanced, hybrid, nmr, reference  # noqa: E402,F401
