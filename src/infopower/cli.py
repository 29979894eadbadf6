"""Command-line front end.

Subcommands: validate | solve | duality | capacity. Structured output goes
to stdout as JSON; diagnostics go to stderr. Exit codes: 0 success,
1 domain failure (invalid POVM, non-stochastic channel, ...), 2 parse or
I/O failure. The environment variable INFOPOWER_SEED supplies the seed
when --seed is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import serialize
from .errors import InfopowerError, SchemaError
from .information import LogBase, blahut_arimoto
from .objects import (
    DensityOperator,
    Povm,
    ensemble_average,
    hesse_sic_povm,
    maximally_mixed,
    standard_projective_povm,
    tetrahedral_sic_povm,
    trine_povm,
    validate_povm,
)
from .duality import ZERO_PRIOR_TOL, _round_trip_report, ensemble_from_povm, povm_from_ensemble
from .solver import SolverConfig, informational_power

_EXAMPLE_POVMS = {
    "sic": tetrahedral_sic_povm,
    "hesse": hesse_sic_povm,
    "projective2": lambda: standard_projective_povm(2),
    "projective3": lambda: standard_projective_povm(3),
    "trine": trine_povm,
    "trivial": lambda: Povm(np.eye(2, dtype=complex)[None, :, :]),
}
EXAMPLES = tuple(_EXAMPLE_POVMS)


def example_povm(name: str) -> Povm:
    if name not in _EXAMPLE_POVMS:
        raise ValueError(f"unknown example {name!r}")
    return _EXAMPLE_POVMS[name]()


def _emit(doc: dict) -> None:
    sys.stdout.write(serialize.dumps(doc))


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("INFOPOWER_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise SchemaError(f"INFOPOWER_SEED must be an integer, got {env!r}") from exc
    return 0


def _load_povm_input(args: argparse.Namespace) -> Povm:
    if args.example is not None:
        return example_povm(args.example)
    if args.path is None:
        raise SchemaError("either a file path or --example is required")
    return serialize.povm_from_document(serialize.load_document(args.path))


def cmd_validate(args: argparse.Namespace) -> int:
    if args.example is not None:
        report = validate_povm(example_povm(args.example), tol=args.tol)
    else:
        if args.path is None:
            raise SchemaError("either a file path or --example is required")
        doc = serialize.load_document(args.path)
        elements = serialize.povm_elements_from_document(doc)
        report = validate_povm(elements, tol=args.tol)
    _emit(
        {
            "kind": "validation",
            "passed": report.passed,
            "tol": report.tol,
            "hermiticity_residuals": np.array(report.hermiticity_residuals, dtype=float),
            "psd_residuals": np.array(report.psd_residuals, dtype=float),
            "completeness_residual": report.completeness_residual,
        }
    )
    return 0 if report.passed else 1


def cmd_solve(args: argparse.Namespace) -> int:
    povm = _load_povm_input(args)
    cfg = SolverConfig(tol=args.tol, seed=_resolve_seed(args.seed), base=LogBase(args.base))
    report = informational_power(povm, cfg)
    sys.stdout.write(json.dumps(report.w_estimate) + "\n")
    if args.out:
        serialize.write_document(args.out, serialize.report_to_document(report))
    if not report.converged:
        print("warning: solver did not converge; see the report", file=sys.stderr)
    return 0


def cmd_duality(args: argparse.Namespace) -> int:
    if args.direction == "to-ensemble":
        povm = _load_povm_input(args)
        sigma = _load_sigma(args.sigma, povm.dim)
        ens, dropped = ensemble_from_povm(povm, sigma)
        doc = serialize.ensemble_to_document(ens)
        doc["dropped_outcomes"] = dropped
        if args.check:
            rt = _round_trip_report(povm, ens, dropped)
            doc["round_trip_residual"] = rt.max_residual
            doc["round_trip_passed"] = rt.passed
    else:
        if args.example is not None:
            raise SchemaError("--example provides a POVM; to-povm needs an ensemble file")
        if args.path is None:
            raise SchemaError("an ensemble file path is required")
        ens = serialize.ensemble_from_document(serialize.load_document(args.path))
        povm = povm_from_ensemble(ens)
        doc = serialize.povm_to_document(povm)
        if args.check:
            back, _ = ensemble_from_povm(povm, ensemble_average(ens))
            doc["round_trip_residual"] = _ensemble_distance(ens, back)
    text = serialize.dumps(doc)
    sys.stdout.write(text)
    if args.out:
        serialize.write_text(args.out, text)
    return 0


def _ensemble_distance(a, b) -> float:
    kept = a.priors > ZERO_PRIOR_TOL
    if np.count_nonzero(kept) != len(b):
        return float("inf")
    worst = np.linalg.norm(a.states[kept] - b.states, axis=(1, 2)).max()
    return float(max(np.abs(a.priors[kept] - b.priors).max(), worst))


def _load_sigma(spec: str, dim: int) -> DensityOperator:
    if spec == "maxmix":
        return maximally_mixed(dim)
    return serialize.state_from_document(serialize.load_document(spec))


def cmd_capacity(args: argparse.Namespace) -> int:
    doc = serialize.load_document(args.path)
    channel = serialize.channel_from_document(doc)
    res = blahut_arimoto(channel, tol=args.tol, base=LogBase(args.base))
    _emit(serialize.capacity_to_document(res, args.base))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infopower",
        description="Informational power of quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("path", nargs="?", help="input JSON file")
        p.add_argument("--example", choices=EXAMPLES, help="use a built-in POVM instead of a file")

    p = sub.add_parser("validate", help="check a POVM file against its invariants")
    add_input(p)
    p.add_argument("--tol", type=float, default=serialize.INGEST_TOL)

    p = sub.add_parser("solve", help="compute the informational power of a POVM")
    add_input(p)
    p.add_argument("--tol", type=float, default=SolverConfig.tol,
                   help="certificate margin is max(10*tol, 1e-9) nats; "
                        "commuting POVMs are solved to 1e-12 bits whatever tol")
    p.add_argument("--seed", type=int, default=None,
                   help="seeds the solver's random draws; fallback: INFOPOWER_SEED, then 0")
    p.add_argument("--base", choices=[b.value for b in LogBase], default=SolverConfig.base.value)
    p.add_argument("--out", help="write the full report to this path")

    p = sub.add_parser("duality", help="map a POVM to its dual ensemble or back")
    add_input(p)
    p.add_argument("--direction", choices=["to-ensemble", "to-povm"], required=True)
    p.add_argument("--sigma", default="maxmix", help="reference state file, or 'maxmix' (default)")
    p.add_argument("--check", action="store_true", help="include the round-trip residual")
    p.add_argument("--out", help="also write the result to this path")

    p = sub.add_parser("capacity", help="classical channel capacity via Blahut-Arimoto")
    p.add_argument("path", help="channel JSON file")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--base", choices=[b.value for b in LogBase], default="bits")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process: building it costs over ten times a parse."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so that wrappers bound after the parser was
    # built (such as a tracer's) are the ones called
    commands = {
        "validate": cmd_validate,
        "solve": cmd_solve,
        "duality": cmd_duality,
        "capacity": cmd_capacity,
    }
    try:
        return commands[args.command](args)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InfopowerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
