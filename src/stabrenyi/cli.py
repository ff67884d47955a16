"""Command-line interface.

Subcommands cover the full workflow: exact oracle values, simulated
randomized-measurement data, estimation from record files, noise-model
fitting, resource calibration, and noisy-observable prediction.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

from . import __version__
from .calibration import (
    CalibrationError,
    default_shot_grid,
    default_unit_grid,
    fit_resource_scaling,
    grid_search,
    select_optimal,
)
from .estimator import estimate, simulate_experiment
from .fitting import fit_noise
from .noise import (
    InfeasibleNoiseError,
    NoiseParams,
    predict_noisy_observables,
)
from .oracle import (
    max_offidentity_pauli,
    purity_exact,
    stab_purity_exact,
    stabilizer_renyi,
)
from .recordio import (
    BIT_ORDER,
    RecordFormatError,
    _is_int,
    noise_fit_section,
    read_records,
    report_from_estimate,
    report_header,
    write_records,
    write_report,
)
from .states import StateVector, gamma_state, plus_state, ptheta_state, zero_state

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4
EXIT_DOMAIN = 5

_EPILOG = f"""\
conventions:
  bitstrings are {BIT_ORDER}: qubit 0 is the leftmost character of every
  outcome string in record files.

exit codes:
  {EXIT_OK}  success
  {EXIT_USAGE}  usage error (bad flags or arguments)
  {EXIT_DATA}  unreadable or malformed input file
  {EXIT_INFEASIBLE}  measured values outside the model's feasible range
  {EXIT_DOMAIN}  invalid parameter values
"""


#: Family -> (constructor, its flags in label order as (name, type)). The
#: --state choices, build_state's labels and state_from_label all read it.
_FAMILIES = {
    "gamma": (gamma_state, (("n", int), ("t", int))),
    "ptheta": (ptheta_state, (("theta", float),)),
    "zero": (zero_state, (("n", int),)),
    "plus": (plus_state, (("n", int),)),
}


def _add_state_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--state",
        required=True,
        choices=tuple(_FAMILIES),
        help="target state family",
    )
    parser.add_argument("--n", type=int, help="number of qubits")
    parser.add_argument("--t", type=int, help="non-Clifford phase-gate count (gamma)")
    parser.add_argument("--theta", type=float, help="phase angle (ptheta)")


def build_state(args: argparse.Namespace) -> tuple[StateVector, str]:
    """The state the flags name, at full precision, and its label (12 digits)."""
    make, flags = _FAMILIES[args.state]
    values = [getattr(args, name) for name, _ in flags]
    if None in values:
        raise ValueError(f"--state {args.state} needs "
                         + " and ".join(f"--{name}" for name, _ in flags))
    fields = [f"{v:.12g}" if kind is float else str(v)
              for (_, kind), v in zip(flags, values)]
    return make(*values), "-".join([args.state, *fields])


def state_from_label(label: str) -> StateVector:
    """Rebuild a state from a record-file state_label."""
    family, dash, rest = label.partition("-")
    if family in _FAMILIES and dash:
        make, flags = _FAMILIES[family]
        # The last field takes the rest, so a ptheta angle may hold a "-".
        fields = rest.split("-", len(flags) - 1)
        if len(fields) == len(flags):
            try:
                return make(*(kind(f) for (_, kind), f in zip(flags, fields)))
            except ValueError as exc:
                raise RecordFormatError(
                    f"malformed state_label {label!r}: {exc}") from exc
    expected = ", ".join("-".join([name, *(f.upper() for f, _ in flags)])
                         for name, (_, flags) in _FAMILIES.items())
    raise RecordFormatError(f"state_label {label!r} does not name a "
                            f"reconstructible state (expected {expected})")


def _parse_noise(spec: str | None) -> NoiseParams:
    if spec is None:
        return NoiseParams()
    parts = spec.split(",")
    if len(parts) != 3:
        raise ValueError("--noise takes three comma-separated values: p,q,epsilon")
    p, q, eps = (float(x) for x in parts)
    return NoiseParams(p=p, q=q, epsilon=eps)


def _emit(doc: Any, out: str | None) -> None:
    write_report(doc, sys.stdout if out in (None, "-") else out)


def _parse_alpha(token: str) -> float:
    if token.strip().lower() in ("inf", "infinity"):
        return math.inf
    return float(token)


def _cmd_oracle(args: argparse.Namespace) -> int:
    state, label = build_state(args)
    alphas = [a.strip() for a in args.alpha.split(",") if a.strip()]
    if not alphas:
        raise ValueError("--alpha needs at least one value")
    doc = {
        "state_label": label,
        "n": state.n,
        "stab_purity": stab_purity_exact(state),
        "purity": purity_exact(state),
        "stab_renyi": {a: stabilizer_renyi(state, _parse_alpha(a)) for a in alphas},
        "stab_renyi2": stabilizer_renyi(state, 2.0),
        "max_offidentity_pauli": max_offidentity_pauli(state),
    }
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    state, label = build_state(args)
    noise = _parse_noise(args.noise)
    data = simulate_experiment(
        state, args.nu, args.nm, seed=args.seed, noise=noise, state_label=label
    )
    write_records(data, sys.stdout if args.out in (None, "-") else args.out)
    return EXIT_OK


def _read_records_arg(path: str):
    return read_records(sys.stdin if path == "-" else path)


def _cmd_estimate(args: argparse.Namespace) -> int:
    data = _read_records_arg(args.records)
    report = estimate(data, args.method)
    doc = report_from_estimate(
        report, data.state_label, seed=data.seed, verbose=args.verbose
    )
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_fit_noise(args: argparse.Namespace) -> int:
    zero_data = _read_records_arg(args.records_zero)
    target_data = _read_records_arg(args.records)
    zero_label, label = zero_data.state_label, target_data.state_label
    if zero_label != f"zero-{zero_data.n}":
        raise RecordFormatError(f"{args.records_zero}: state_label {zero_label!r} "
                                f"is not 'zero-{zero_data.n}'")
    state = state_from_label(label)
    if state.n != target_data.n:
        raise RecordFormatError(f"{args.records}: state_label {label!r} names "
                                f"{state.n} qubits, its header n = {target_data.n}")
    zero_report = estimate(zero_data, args.method)
    target_report = estimate(target_data, args.method)
    fit = fit_noise(zero_report, target_report, state)
    doc = report_from_estimate(target_report, label, seed=target_data.seed)
    doc["zero_estimates"] = report_from_estimate(zero_report, zero_label)["estimates"]
    doc["zero_seed"] = zero_data.seed
    doc["noise_fit"] = noise_fit_section(fit)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_calibrate(args: argparse.Namespace) -> int:
    state, label = build_state(args)
    if args.grid == "default":
        units, shots = default_unit_grid(), default_shot_grid()
    else:
        with open(args.grid, encoding="utf-8") as handle:
            try:
                spec = json.load(handle)
            except json.JSONDecodeError as exc:
                raise RecordFormatError(
                    f"grid file {args.grid}: invalid JSON ({exc.msg})"
                ) from exc
            except UnicodeDecodeError as exc:
                raise RecordFormatError(
                    f"grid file {args.grid}: bytes that are not UTF-8 ({exc.reason})"
                ) from None
        spec = spec if isinstance(spec, dict) else {}
        units, shots = spec.get("unit_grid"), spec.get("shot_grid")
        for grid in (units, shots):
            if not isinstance(grid, list) or not grid or not all(
                _is_int(v) and v > 0 for v in grid
            ):
                raise RecordFormatError(f"grid file {args.grid} needs arrays "
                                        "unit_grid and shot_grid of positive integers")
    cells = grid_search(
        state,
        units,
        shots,
        trials=args.trials,
        seed=args.seed,
        method=args.method,
        reference=args.reference,
    )
    doc = report_header(state.n, label, args.method, args.seed)
    doc["calibration"] = {
        "trials": args.trials,
        "reference": args.reference,
        "cells": [
            {
                "n_units": c.n_units,
                "n_shots": c.n_shots,
                "delta": c.delta,
                "purity_dev": c.purity_dev,
                "cost": c.cost,
            }
            for c in cells
        ],
    }
    try:
        best = select_optimal(cells)
        doc["calibration"]["selected"] = {
            "n_units": best.n_units,
            "n_shots": best.n_shots,
            "cost": best.cost,
        }
    except CalibrationError as exc:
        doc["calibration"]["selected"] = None
        doc["calibration"]["selection_error"] = str(exc)
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    state, label = build_state(args)
    pred = predict_noisy_observables(state, args.p, args.eps)
    doc = {"state_label": label, "p": args.p, "epsilon": args.eps, **pred}
    _emit(doc, args.out)
    return EXIT_OK


def _cmd_fit_scaling(args: argparse.Namespace) -> int:
    points = json.loads(args.points)
    for point in points if isinstance(points, list) else [points]:
        # JSON numbers parse to int or float exactly; type() also excludes bool.
        # The bound compares exactly: it refuses NaN, inf and ints a float cannot hold.
        if not (isinstance(point, list) and len(point) == 2 and _is_int(point[0])
                and type(point[1]) in (int, float)
                and all(abs(v) <= sys.float_info.max for v in point)):
            raise ValueError(f"--points entry {json.dumps(point)} is not a "
                             "[t, n_total] pair of an integer and a number, "
                             "both within the float range")
    fit = fit_resource_scaling([p[0] for p in points], [p[1] for p in points], args.n)
    _emit({"a": fit.a, "b": fit.b, "r_squared": fit.r_squared}, args.out)
    return EXIT_OK


def _add_command(sub, name: str, help_text: str) -> argparse.ArgumentParser:
    """A subcommand parser whose help ends with the shared conventions."""
    return sub.add_parser(
        name, help=help_text, epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabrenyi",
        description="Randomized-measurement estimation of stabilizer Renyi entropy",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_oracle = _add_command(sub, "oracle", "exact values for a named state")
    _add_state_args(p_oracle)
    p_oracle.add_argument(
        "--alpha", default="2",
        help="comma-separated Renyi orders, e.g. '0.5,1,2,inf' (default '2')",
    )
    p_oracle.add_argument("--out", help="output file (default stdout)")
    p_oracle.set_defaults(func=_cmd_oracle)

    p_sim = _add_command(sub, "simulate", "sample a randomized-measurement record file")
    _add_state_args(p_sim)
    p_sim.add_argument("--nu", type=int, required=True, help="number of Clifford words")
    p_sim.add_argument("--nm", type=int, required=True, help="shots per word")
    p_sim.add_argument("--seed", type=int, required=True, help="master seed")
    p_sim.add_argument(
        "--noise", help="noise parameters p,q,epsilon (default 1,1,0)"
    )
    p_sim.add_argument("--out", help="record file (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_est = _add_command(sub, "estimate", "estimate from a record file")
    p_est.add_argument("--records", required=True, help="record file ('-' for stdin)")
    p_est.add_argument(
        "--method", choices=("ustat", "plugin"), default="ustat",
        help="unbiased U-statistic (default) or biased plugin",
    )
    p_est.add_argument(
        "--verbose", action="store_true", help="include per-word statistics"
    )
    p_est.add_argument("--out", help="report file (default stdout)")
    p_est.set_defaults(func=_cmd_estimate)

    p_fit = _add_command(
        sub, "fit-noise", "fit (p, q, epsilon) from zero-state and target records"
    )
    p_fit.add_argument(
        "--records-zero", required=True, help="record file measured on |0...0>"
    )
    p_fit.add_argument("--records", required=True, help="target-state record file")
    p_fit.add_argument(
        "--method", choices=("ustat", "plugin"), default="ustat",
        help="estimation method for both files",
    )
    p_fit.add_argument("--out", help="report file (default stdout)")
    p_fit.set_defaults(func=_cmd_fit_noise)

    p_cal = _add_command(sub, "calibrate", "grid-search resource requirements")
    _add_state_args(p_cal)
    p_cal.add_argument(
        "--grid", default="default",
        help="'default' or a JSON file with unit_grid and shot_grid arrays",
    )
    p_cal.add_argument("--trials", type=int, default=100, help="trials per cell")
    p_cal.add_argument("--seed", type=int, required=True, help="master seed")
    p_cal.add_argument(
        "--method", choices=("ustat", "plugin"), default="ustat",
        help="estimation method",
    )
    p_cal.add_argument(
        "--reference", choices=("ensemble", "oracle"), default="ensemble",
        help="reference value for the relative spread",
    )
    p_cal.add_argument("--out", help="report file (default stdout)")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_pred = _add_command(sub, "predict", "exact noisy-observable predictions")
    _add_state_args(p_pred)
    p_pred.add_argument("--p", type=float, required=True, help="survival probability")
    p_pred.add_argument(
        "--eps", type=float, default=0.0, help="phase displacement (default 0)"
    )
    p_pred.add_argument("--out", help="output file (default stdout)")
    p_pred.set_defaults(func=_cmd_predict)

    p_scale = _add_command(sub, "fit-scaling", "fit the resource scaling law over t")
    p_scale.add_argument(
        "--points", required=True,
        help='JSON array of [t, n_total] pairs, e.g. "[[1,7000],[2,5000]]"',
    )
    p_scale.add_argument("--n", type=int, required=True, help="number of qubits")
    p_scale.add_argument("--out", help="output file (default stdout)")
    p_scale.set_defaults(func=_cmd_fit_scaling)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RecordFormatError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (InfeasibleNoiseError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
