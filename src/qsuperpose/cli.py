"""Command-line interface.

Every command exits 0 on success. Argument, zero-overlap and
degenerate-input failures print one machine-readable JSON object to
stderr ({"error": {"type": ..., "message": ...}}) and exit nonzero.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import analysis, enhanced, hybrid, kernel, nmr, reference
from .datasets import dataset
from .direct import SuperpositionSpec, run_direct
from .errors import ArgumentError, ToolkitError
from .linalg import ATOL, DensityMatrix, QubitParams, StateVector, basis_state, make_qubit

# Typed weights whose sum |a_k|^2 misses 1 by at most this much (8-digit
# decimals such as 0.70710678) are rescaled to unit norm; the specs hold
# every weight batch to the internal ATOL.
INPUT_TOL = 1e-6


class _CliArgumentError(Exception):
    """Raised by the parser so main() can emit the JSON error envelope."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliArgumentError(message)


def _flag_type(parse):
    """An argparse type whose error names the rule broken: argparse keeps the
    message of an ArgumentTypeError, not of a ValueError (a ToolkitError)."""

    def convert(text: str):
        try:
            return parse(text)
        except ArgumentError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


@_flag_type
def _parse_angles(text: str) -> QubitParams:
    parts = text.split(",")
    if len(parts) not in (2, 3):
        raise ArgumentError(f"expects 'theta,phi[,gamma]', got {text!r}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ArgumentError(str(exc)) from exc
    # Reduced mod 2 pi, inf would reach QubitParams as nan: reject it as typed.
    if not all(map(math.isfinite, values)):
        raise ArgumentError(f"angles must be finite, got {text!r}")
    gamma = values[2] if len(values) == 3 else 0.0
    return QubitParams(
        values[0], values[1] % (2.0 * math.pi), gamma % (2.0 * math.pi)
    )


@_flag_type
def _parse_weight(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise ArgumentError(f"expects 'RE[,IM]', got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError as exc:
        raise ArgumentError(str(exc)) from exc
    return complex(re, im)


def _parse_weight_list(text: str) -> list[complex]:
    try:
        return [complex(p) for p in text.split(",")]
    except ValueError as exc:
        raise ArgumentError(f"--weights: {exc}") from exc


def _unit_weights(weights: Sequence[complex]) -> tuple[complex, ...]:
    """The weight flags, rescaled when sum |a_k|^2 lies in (ATOL, INPUT_TOL] of 1;
    any other input reaches the spec's own check unchanged."""
    total = float(kernel.norm_sq(np.asarray([weights], dtype=complex))[0])
    if ATOL < abs(total - 1.0) <= INPUT_TOL:
        return tuple(w / math.sqrt(total) for w in weights)
    return tuple(weights)


def _load_json(path: str) -> object:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ArgumentError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArgumentError(f"{path} is not valid JSON: {exc}") from exc


def _reference_spec_from_args(args) -> reference.ReferenceSpec:
    states = (make_qubit(args.psi1), make_qubit(args.psi2))
    weights = _unit_weights((args.a, args.b))
    return reference.ReferenceSpec(
        n=2, d=2, weights=weights, states=states, chi=make_qubit(args.chi)
    )


def _add_state_flags(parser: _Parser, chi: bool = True) -> None:
    for flag, what in (("--psi1", "first"), ("--psi2", "second")):
        parser.add_argument(flag, required=True, type=_parse_angles,
                            help=f"{what} input state as theta,phi[,gamma]")
    for flag in ("--a", "--b"):
        parser.add_argument(flag, required=True, type=_parse_weight,
                            help=f"weight {flag[2:]} as RE[,IM]")
    if chi:
        parser.add_argument("--chi", type=_parse_angles, default=QubitParams(0.0, 0.0),
                            help="referential state as theta,phi (default |0>)")


def _result_output(result, args) -> str | dict:
    """A protocol result as CSV text with --csv, else as its JSON object."""
    if not args.csv:
        return result.to_json()
    amps = result.final_state.amps
    header = ["success_prob", "norm_sq", "fidelity"]
    values = [
        analysis.fmt9(result.success_prob),
        analysis.fmt9(result.norm_sq),
        analysis.fmt9(result.fidelity_to_target),
    ]
    for k, amp in enumerate(amps):
        header += [f"final{k}_re", f"final{k}_im"]
        values += [analysis.fmt9(amp.real), analysis.fmt9(amp.imag)]
    return ",".join(header) + "\n" + ",".join(values) + "\n"


# Each command returns (output, exit code); main writes the output.
def _cmd_run_direct(args):
    spec = SuperpositionSpec(*_unit_weights((args.a, args.b)), args.psi1, args.psi2)
    return _result_output(run_direct(spec), args), 0


def _cmd_run_reference(args):
    spec = _reference_spec_from_args(args)
    if args.mode == "three-qubit":
        result = reference.run_three_qubit(spec)
    else:
        result = reference.run_two_qubit_reduced(spec)
    return _result_output(result, args), 0


def _cmd_qudit(args):
    raw = _load_json(args.states)
    if not isinstance(raw, list):
        raise ArgumentError(f"{args.states} must hold a JSON array of states")
    states = tuple(StateVector.from_json(obj) for obj in raw)
    weights = _unit_weights(_parse_weight_list(args.weights))
    # chi = |index> allocates d amplitudes: hold --d to the loaded states first.
    if not states or any(s.dims != (args.d,) for s in states):
        raise ArgumentError(f"every state in {args.states} needs dims [{args.d}]")
    if args.chi is not None:
        chi = StateVector.from_json(_load_json(args.chi))
    else:
        chi = basis_state(args.d, args.chi_index)
    spec = reference.ReferenceSpec(
        n=args.n, d=args.d, weights=weights, states=states, chi=chi
    )
    return hybrid.run_hybrid(spec).to_json(), 0


def _cmd_enhanced(args):
    spec = _reference_spec_from_args(args)
    result = enhanced.run_enhanced(spec)
    payload = result.to_json()
    if args.geometry_report:
        payload["geometry_report"] = {
            "geometry": result.geometry,
            "harvest_purity": result.harvest_purity,
            "p1_closed_form": reference.closed_form_p3(spec),
            "p2_closed_form": enhanced.closed_form_p2(spec),
        }
    return payload, 0


def _cmd_pulse(args):
    try:
        sys_params = nmr.SpinSystem(j_coupling=2.0 * math.pi * args.j)
    except ArgumentError as exc:
        # Name the Hz value typed: 2 pi J can overflow where J does not.
        raise ArgumentError(
            f"the scalar coupling J (--j) must be finite and nonzero, got {args.j!r} Hz"
        ) from exc
    if args.sequence is not None:
        seq = nmr.PulseSequence.from_json(_load_json(args.sequence))
    else:
        seq = nmr.compile_sequence(dataset(args.dataset).spec(), sys_params)
    rho = nmr.run_sequence([seq], sys_params, args.checkpoint, epsilon=args.epsilon)
    payload = {
        "dataset": args.dataset,
        "checkpoint": args.checkpoint,
        "rho": DensityMatrix((2, 2), rho[0]).to_json(),
        "sequence": seq.to_json(),
    }
    if args.dataset is None:
        del payload["dataset"]  # a --sequence run names no dataset
    if args.checkpoint == "iv":
        blocks, norms = nmr.partial_tomography(rho)
        payload["qubit_state"] = DensityMatrix((2,), blocks[0]).to_json()
        payload["normalization"] = float(norms[0])
    return payload, 0


def _cmd_sweep_rp(args):
    if args.rc_steps < 1:
        raise ArgumentError("--rc-steps must be at least 1")
    for flag, value in (("--rc-min", args.rc_min), ("--rc-max", args.rc_max)):
        if not math.isfinite(value):
            raise ArgumentError(f"{flag} must be finite, got {value!r}")
    if args.rc_steps == 1:
        r_c_values = [args.rc_min]
    else:
        step = (args.rc_max - args.rc_min) / (args.rc_steps - 1)
        r_c_values = [args.rc_min + k * step for k in range(args.rc_steps)]
    try:
        b_sq_values = [float(p) for p in args.bsq.split(",")]
    except ValueError as exc:
        raise ArgumentError(f"--bsq: {exc}") from exc
    return analysis.sweep_csv(analysis.sweep_rp(r_c_values, b_sq_values)), 0


def _cmd_table1(args):
    return analysis.table1_csv(analysis.reproduce_table1(args.mode)), 0


def _cmd_verify(args):
    report = analysis.verify_probability_formulas(args.trials, args.seed)
    return report.to_json(), 0 if report.ok else 1


def build_parser() -> _Parser:
    parser = _Parser(prog="qsuperpose", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run-direct", help="gate-level two-qubit protocol")
    _add_state_flags(p, chi=False)
    p.add_argument("--csv", action="store_true", help="CSV output instead of JSON")
    p.set_defaults(func=_cmd_run_direct)

    p = sub.add_parser("run-reference", help="reference-projection protocols")
    p.add_argument("--mode", required=True, choices=("three-qubit", "reduced"))
    _add_state_flags(p)
    p.add_argument("--csv", action="store_true", help="CSV output instead of JSON")
    p.set_defaults(func=_cmd_run_reference)

    p = sub.add_parser("qudit", help="hybrid qunit-qudit protocol")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--d", required=True, type=int)
    p.add_argument("--states", required=True, help="JSON file with n states")
    p.add_argument("--weights", required=True, help="comma list of complex weights")
    chi = p.add_mutually_exclusive_group(required=True)
    chi.add_argument("--chi-index", type=int, help="basis index of the reference")
    chi.add_argument("--chi", help="JSON file with the reference state")
    p.set_defaults(func=_cmd_qudit)

    p = sub.add_parser("enhanced", help="dual-outcome enhanced protocol")
    _add_state_flags(p)
    p.add_argument("--geometry-report", action="store_true")
    p.set_defaults(func=_cmd_enhanced)

    p = sub.add_parser("pulse", help="NMR pulse-level pipeline on a dataset")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", type=int, help="built-in dataset 1..11")
    src.add_argument("--sequence", help="JSON file with a pulse sequence to run")
    p.add_argument("--checkpoint", default="iv", choices=nmr.CHECKPOINT_LABELS)
    p.add_argument("--j", type=float, default=215.0, help="scalar coupling in Hz")
    p.add_argument("--epsilon", type=float, default=1.0, help="pseudo-pure purity")
    p.set_defaults(func=_cmd_pulse)

    p = sub.add_parser("sweep-rp", help="P2/P3 ratio sweep to CSV")
    p.add_argument("--rc-min", required=True, type=float)
    p.add_argument("--rc-max", required=True, type=float)
    p.add_argument("--rc-steps", required=True, type=int)
    p.add_argument("--bsq", required=True, help="comma list of |b|^2 values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep_rp)

    p = sub.add_parser("table1", help="reproduce the experiment table to CSV")
    p.add_argument("--mode", required=True, choices=("gate", "pulse", "both"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("verify", help="randomized closed-form verification")
    p.add_argument("--trials", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.set_defaults(func=_cmd_verify)
    return parser


def _emit_error(kind: str, message: str) -> None:
    json.dump({"error": {"type": kind, "message": message}}, sys.stderr)
    sys.stderr.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        output, code = args.func(args)
        if isinstance(output, dict):
            output = json.dumps(output) + "\n"
        if getattr(args, "out", None) is None:
            sys.stdout.write(output)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        sys.stdout.flush()
        return code
    except _CliArgumentError as exc:
        _emit_error("argument", str(exc))
        return 2
    except ToolkitError as exc:
        _emit_error(exc.kind, str(exc))
        return 1
    except BrokenPipeError:
        # The reader closed stdout: say nothing more, and keep the interpreter's
        # final flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        _emit_error("argument", str(exc))
        return 1


if __name__ == "__main__":
    sys.exit(main())
