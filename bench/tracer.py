"""Outside-in span tracer for qsuperpose's public functions.

The tracer changes no file of the package. While installed it rebinds each
traced function, in every ``qsuperpose`` module that binds it, to one
wrapper that records a span: call count, total time, and self time (span
time minus the time of the traced spans inside it). Classes are traced
around ``__post_init__``, which holds their construction-time validation.

Modules bind most names by import (``from .linalg import tensor``), so one
function is reachable under several names. Each original is wrapped exactly
once, by identity, and every binding of it gets the same wrapper; otherwise a
re-exported name would be counted once per binding. ``uninstall`` puts every
original object back.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, Optional

PACKAGE = "qsuperpose"

# The traced names, by layer (module). Classes are timed around __post_init__.
LAYERS: dict[str, tuple[str, ...]] = {
    "linalg": (
        "StateVector",
        "DensityMatrix",
        "tensor",
        "overlap_decompose",
        "fidelity",
        "partial_trace",
        "pure_density",
        "make_qubit",
    ),
    "direct": ("run_direct", "encode_two_qubit"),
    "reference": (
        "ReferenceSpec",
        "build_initial",
        "controlled_swap_cascade",
        "project_onto_reference",
        "run_three_qubit",
        "run_two_qubit_reduced",
        "kappa_weighted_sum",
    ),
    "hybrid": ("run_hybrid", "closed_form_hybrid", "fourier"),
    "enhanced": ("run_enhanced", "geometry_classify", "chi_perp"),
    "nmr": (
        "compile_sequence",
        "run_sequence",
        "rf_pulse",
        "evolve_free",
        "gradient_crush",
        "partial_tomography",
    ),
    "analysis": ("verify_probability_formulas", "reproduce_table1", "table1_csv"),
}

# Pipeline entry points, whose total (inclusive) time is reported as well.
ENTRY_POINTS = (
    "direct.run_direct",
    "reference.run_three_qubit",
    "reference.run_two_qubit_reduced",
    "hybrid.run_hybrid",
    "hybrid.closed_form_hybrid",
    "enhanced.run_enhanced",
    "nmr.compile_sequence",
    "nmr.run_sequence",
    "analysis.verify_probability_formulas",
    "analysis.reproduce_table1",
    "analysis.table1_csv",
)

# Spans that also count the bytes of the array they return (computed from
# nbytes, not measured traffic).
BYTES_OUT: dict[str, Callable[[Any], int]] = {
    "reference.project_onto_reference": lambda out: out[0].amps.nbytes,
}


def span_keys() -> list[str]:
    return [f"{module}.{name}" for module, names in LAYERS.items() for name in names]


@dataclass
class SpanStats:
    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    bytes_out: int = 0


class Tracer:
    """Installs span wrappers on ``install`` and restores on ``uninstall``.

    Statistics accumulate across installs. Use as a context manager to trace
    one block of calls.
    """

    def __init__(self) -> None:
        self.stats = {key: SpanStats() for key in span_keys()}
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        try:
            for key in self.stats:
                module, name = key.split(".")
                original = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
                if isinstance(original, type):
                    init = original.__dict__["__post_init__"]
                    self._bind(original, "__post_init__", self._span(key, init))
                    continue
                wrapper = self._span(key, original, BYTES_OUT.get(key))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _bind(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(
        self, key: str, fn: Callable, bytes_out: Optional[Callable[[Any], int]] = None
    ) -> Callable:
        stat = self.stats[key]
        stack = self._stack
        clock = time.perf_counter_ns

        @wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if bytes_out is not None:
                stat.bytes_out += bytes_out(out)
            return out

        return span
