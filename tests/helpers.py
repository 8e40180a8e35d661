"""Helpers the tests share."""
import math
from pathlib import Path

import numpy as np

from qsuperpose.errors import ArgumentError, DegenerateInputError
from qsuperpose.linalg import ATOL, StateVector

GOLDEN_TABLE1 = Path(__file__).resolve().parents[1] / "bench" / "golden_table1.csv"
# Each table1 mode and the fidelity column it leaves empty: the pulse one for
# gate, the gate one for pulse.
TABLE1_MODES = [("both", None), ("gate", 9), ("pulse", 8)]


def phase_equivalent(u: StateVector, v: StateVector, tol: float = 1e-9) -> bool:
    """True iff u and v are the same state up to a global phase."""
    if u.dims != v.dims:
        raise ArgumentError(f"dimension mismatch: {u.dims} vs {v.dims}")
    nu = math.sqrt(u.norm_sq)
    nv = math.sqrt(v.norm_sq)
    if nu < ATOL or nv < ATOL:
        raise DegenerateInputError("phase comparison of a zero state is undefined")
    return abs(np.vdot(u.amps, v.amps)) / (nu * nv) >= 1.0 - tol


def three_products(rho_e, rho_t):
    """fidelity_batch's traces as three stacked matrix products, kept as its
    reference: fidelity_batch stays within 1e-15 of it."""
    ee, tt, et = (np.trace(a @ b, axis1=1, axis2=2).real for a, b in
                  ((rho_e, rho_e), (rho_t, rho_t), (rho_e, rho_t)))
    return et / np.sqrt(ee * tt)


def runs_sequence(runs: int) -> dict:
    """Sequence JSON of ``runs`` gradient-separated runs: (iv) is cut before
    the last run, (v) after it."""
    pulse = {"kind": "rf", "spin": "X", "flip_angle": 1.0, "axis_phase": 0.5}
    events = [{"kind": "gradient"}, pulse] * (runs - 1)
    return {"events": events, "checkpoints": {"iv": len(events) - 2, "v": len(events)}}


def golden_table1(blank) -> str:
    """The benchmark's golden Table 1 CSV with column ``blank`` (if not None)
    empty, as a mode without one pipeline writes it."""
    lines = GOLDEN_TABLE1.read_text(encoding="utf-8").splitlines(keepends=True)
    expected = lines[:1]
    for line in lines[1:]:
        fields = line.split(",")
        if blank is not None:
            fields[blank] = ""
        expected.append(",".join(fields))
    return "".join(expected)
