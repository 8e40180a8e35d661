"""The benchmark's workloads: inputs from a seed, one operation, one check.

Each workload calls exactly the public function its CLI subcommand calls:

* ``verify``: ``analysis.verify_probability_formulas(trials=20, seed=s_i)``;
  one item is one trial.
* ``table1``: ``analysis.table1_csv(analysis.reproduce_table1("both"))``;
  one item is one dataset row.
* ``qudit``: ``reference.ReferenceSpec``, then ``hybrid.run_hybrid`` and
  ``hybrid.closed_form_hybrid``; one item is one instance.

Inputs are plain integers and numpy arrays drawn from the workload seed, so
the program receives only the generated inputs. A check raises
``CheckFailed`` when an operation's output is wrong.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from qsuperpose import analysis, hybrid, reference
from qsuperpose.linalg import StateVector

# The closed-form oracle's bound, and criterion 2's gate/pulse bound.
FORMULA_TOL = 1e-9
PULSE_TOL = 1e-6

GOLDEN_TABLE1 = Path(__file__).with_name("golden_table1.csv")

VERIFY_TRIALS = 20
# Every shape sits at or near the n * d^n <= 4096 dense-pipeline cap.
QUDIT_SHAPES = ((2, 45), (3, 11), (4, 5), (5, 3), (8, 2))
OVERLAP_FLOOR = 0.05

VERIFY_POOL = 4096
QUDIT_POOL = 200


class CheckFailed(Exception):
    """An operation returned a result that fails the workload's check."""


@dataclass(frozen=True)
class Workload:
    """One named workload: its inputs, its operation and its output check."""

    name: str
    item: str
    items_per_op: int
    # Operations per traced round; each round repeats the same inputs so
    # that per-item call counts repeat exactly.
    trace_block: int
    make_inputs: Callable[[int], list]
    run: Callable[[Any], Any]
    check: Callable[[Any, Any], None]
    note: str = ""


# --- verify ----------------------------------------------------------------


def verify_inputs(seed: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**32, size=VERIFY_POOL)]


def verify_run(trial_seed: int) -> analysis.VerifyReport:
    return analysis.verify_probability_formulas(trials=VERIFY_TRIALS, seed=trial_seed)


def verify_check(trial_seed: int, report: analysis.VerifyReport) -> None:
    if report.trials != VERIFY_TRIALS or report.seed != trial_seed:
        raise CheckFailed(f"verify seed {trial_seed}: report describes another run")
    if not report.ok:
        raise CheckFailed(
            f"verify seed {trial_seed}: {len(report.failures)} checks exceed the oracle bound"
        )
    if not report.max_deviation:
        raise CheckFailed(f"verify seed {trial_seed}: no deviations recorded")
    worst = max(report.max_deviation.values())
    if not worst <= FORMULA_TOL:
        raise CheckFailed(f"verify seed {trial_seed}: deviation {worst} > {FORMULA_TOL}")


# --- table1 ----------------------------------------------------------------


def table1_inputs(seed: int) -> list[None]:
    # The eleven built-in datasets are the only inputs; the seed is unused.
    return [None]


def table1_run(_: None) -> tuple[list[analysis.Table1Row], str]:
    rows = analysis.reproduce_table1("both")
    return rows, analysis.table1_csv(rows)


def table1_check(_: None, out: tuple[list[analysis.Table1Row], str]) -> None:
    rows, csv = out
    if len(rows) != 11:
        raise CheckFailed(f"table1: {len(rows)} rows, expected 11")
    for row in rows:
        if not row.sim_fidelity_gate >= 1.0 - FORMULA_TOL:
            raise CheckFailed(
                f"table1 dataset {row.dataset_id}: gate fidelity {row.sim_fidelity_gate}"
            )
        if not row.sim_fidelity_pulse >= 1.0 - PULSE_TOL:
            raise CheckFailed(
                f"table1 dataset {row.dataset_id}: pulse fidelity {row.sim_fidelity_pulse}"
            )
    if csv != golden_table1():
        raise CheckFailed("table1: CSV differs from the golden CSV")


@functools.cache
def golden_table1() -> str:
    return GOLDEN_TABLE1.read_text(encoding="utf-8")


# --- qudit -----------------------------------------------------------------


@dataclass(frozen=True)
class QuditInstance:
    """n unit d-vectors, their weights and the reference chi, as raw arrays."""

    n: int
    d: int
    chi: np.ndarray
    states: tuple[np.ndarray, ...]
    weights: tuple[complex, ...]


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    amps = rng.normal(size=d) + 1j * rng.normal(size=d)
    return amps / np.linalg.norm(amps)


def _overlapping(rng: np.random.Generator, chi: np.ndarray) -> np.ndarray:
    while True:
        amps = _unit(rng, chi.size)
        if abs(np.vdot(chi, amps)) >= OVERLAP_FLOOR:
            return amps


def qudit_inputs(seed: int) -> list[QuditInstance]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(QUDIT_POOL):
        n, d = QUDIT_SHAPES[i % len(QUDIT_SHAPES)]
        chi = _unit(rng, d)
        states = tuple(_overlapping(rng, chi) for _ in range(n))
        weights = tuple(complex(w) for w in _unit(rng, n))
        out.append(QuditInstance(n, d, chi, states, weights))
    return out


def qudit_run(inst: QuditInstance) -> tuple[hybrid.HybridResult, float]:
    chi = StateVector((inst.d,), inst.chi, normalized=True)
    states = tuple(StateVector((inst.d,), s, normalized=True) for s in inst.states)
    spec = reference.ReferenceSpec(
        n=inst.n, d=inst.d, weights=inst.weights, states=states, chi=chi
    )
    return hybrid.run_hybrid(spec), hybrid.closed_form_hybrid(spec)


def qudit_check(inst: QuditInstance, out: tuple[hybrid.HybridResult, float]) -> None:
    result, closed = out
    shape = f"qudit (n={inst.n}, d={inst.d})"
    if not abs(result.success_prob - closed) <= FORMULA_TOL:
        raise CheckFailed(f"{shape}: P={result.success_prob} vs closed form {closed}")
    u, v = result.final_state.amps, result.target_state.amps
    overlap = abs(np.vdot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    if not overlap >= 1.0 - FORMULA_TOL:
        raise CheckFailed(f"{shape}: final state off target, |<f|t>| = {overlap}")


WORKLOADS = {
    "verify": Workload(
        name="verify",
        item="trial",
        items_per_op=VERIFY_TRIALS,
        trace_block=4,
        make_inputs=verify_inputs,
        run=verify_run,
        check=verify_check,
    ),
    "table1": Workload(
        name="table1",
        item="dataset row",
        items_per_op=11,
        trace_block=10,
        make_inputs=table1_inputs,
        run=table1_run,
        check=table1_check,
        note="inputs are the 11 built-in datasets; the seed does not change them",
    ),
    "qudit": Workload(
        name="qudit",
        item="instance",
        items_per_op=1,
        trace_block=200,
        make_inputs=qudit_inputs,
        run=qudit_run,
        check=qudit_check,
    ),
}
