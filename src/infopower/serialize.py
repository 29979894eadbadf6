"""JSON file schemas for POVMs, ensembles, states, channels, and reports.

Complex numbers are encoded as two-element arrays [re, im]; matrices are
row-major nested arrays; every document carries an explicit "kind" tag so
files cannot be fed to the wrong subcommand. Floats rely on Python's
shortest round-trip repr, so writing and re-reading a document reproduces
every double bit-exactly.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import SchemaError
from .information import BlahutArimotoResult, ClassicalChannel
from .objects import DensityOperator, Ensemble, Povm
from .solver import PowerReport

INGEST_TOL = 1e-8

KIND_POVM = "povm"
KIND_ENSEMBLE = "ensemble"
KIND_CHANNEL = "channel"
KIND_STATE = "state"
KIND_REPORT = "report"


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def decode_matrix(node: Any, dim: int, what: str) -> np.ndarray:
    try:
        m = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: malformed matrix entries") from exc
    if m.shape != (dim, dim, 2):
        raise SchemaError(f"{what}: expected a {dim}x{dim} complex matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise SchemaError(f"{what}: non-finite matrix entries")
    return m[..., 0] + 1j * m[..., 1]


def _require(doc: Any, key: str, what: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"{what}: missing required key {key!r}")
    return doc[key]


def _check_kind(doc: Any, kind: str, what: str) -> None:
    found = _require(doc, "kind", what)
    if found != kind:
        raise SchemaError(f"{what}: kind is {found!r}, expected {kind!r}")


def _dim_of(doc: Any, what: str) -> int:
    dim = _require(doc, "dim", what)
    if not isinstance(dim, int) or dim < 1:
        raise SchemaError(f"{what}: dim must be a positive integer, got {dim!r}")
    return dim


def load_document(path: str) -> dict:
    """Parse a JSON document from disk; raises SchemaError on bad JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return doc


def povm_elements_from_document(doc: dict) -> np.ndarray:
    """Raw element stack from a povm document, without POVM validation."""
    _check_kind(doc, KIND_POVM, "povm file")
    dim = _dim_of(doc, "povm file")
    nodes = _require(doc, "elements", "povm file")
    if not isinstance(nodes, list) or not nodes:
        raise SchemaError("povm file: elements must be a non-empty list")
    return np.stack([decode_matrix(n, dim, f"povm element {j}") for j, n in enumerate(nodes)])


def povm_from_document(doc: dict, tol: float = INGEST_TOL) -> Povm:
    elements = povm_elements_from_document(doc)
    return Povm(elements, psd_tol=tol, completeness_tol=tol)


def ensemble_from_document(doc: dict) -> Ensemble:
    _check_kind(doc, KIND_ENSEMBLE, "ensemble file")
    dim = _dim_of(doc, "ensemble file")
    priors = _require(doc, "priors", "ensemble file")
    nodes = _require(doc, "states", "ensemble file")
    if not isinstance(nodes, list) or not nodes:
        raise SchemaError("ensemble file: states must be a non-empty list")
    if not isinstance(priors, list) or len(priors) != len(nodes):
        raise SchemaError("ensemble file: priors and states must have equal length")
    states = tuple(
        DensityOperator(decode_matrix(n, dim, f"ensemble state {i}")) for i, n in enumerate(nodes)
    )
    return Ensemble(np.asarray(priors, dtype=float), states)


def state_from_document(doc: dict) -> DensityOperator:
    _check_kind(doc, KIND_STATE, "state file")
    dim = _dim_of(doc, "state file")
    return DensityOperator(decode_matrix(_require(doc, "matrix", "state file"), dim, "state file"))


def channel_from_document(doc: dict) -> ClassicalChannel:
    _check_kind(doc, KIND_CHANNEL, "channel file")
    probs = _require(doc, "probs", "channel file")
    try:
        m = np.asarray(probs, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError("channel file: malformed probability matrix") from exc
    if m.ndim != 2:
        raise SchemaError(f"channel file: probs must be a 2-D matrix, got shape {m.shape}")
    return ClassicalChannel(m)


def povm_to_document(p: Povm) -> dict:
    return {
        "kind": KIND_POVM,
        "dim": p.dim,
        "elements": [encode_matrix(m) for m in p.elements],
    }


def ensemble_to_document(e: Ensemble) -> dict:
    return {
        "kind": KIND_ENSEMBLE,
        "dim": e.dim,
        "priors": [float(x) for x in e.priors],
        "states": [encode_matrix(s.matrix) for s in e.states],
    }


def state_to_document(rho: DensityOperator) -> dict:
    return {"kind": KIND_STATE, "dim": rho.dim, "matrix": encode_matrix(rho.matrix)}


def channel_to_document(ch: ClassicalChannel) -> dict:
    return {"kind": KIND_CHANNEL, "probs": [[float(x) for x in row] for row in ch.probs]}


def report_to_document(rep: PowerReport) -> dict:
    bc = rep.bound_check
    return {
        "kind": KIND_REPORT,
        "w_estimate": float(rep.w_estimate),
        "base": rep.base.value,
        "best_ensemble": ensemble_to_document(rep.best_ensemble),
        "per_restart_values": [float(v) for v in rep.per_restart_values],
        "converged": bool(rep.converged),
        "iterations_used": int(rep.iterations_used),
        "fast_path_used": bool(rep.fast_path_used),
        "pruned_to": int(rep.pruned_to),
        "bound_check": {
            "dim": bc.dim,
            "m_eff": bc.m_eff,
            "lower": bc.lower,
            "upper": bc.upper,
            "passed": bc.passed,
            "real_entries": bc.real_entries,
            "real_upper": bc.real_upper,
            "real_passed": bc.real_passed,
        },
    }


def capacity_to_document(res: BlahutArimotoResult, base_name: str) -> dict:
    return {
        "kind": "capacity",
        "capacity": float(res.capacity),
        "base": base_name,
        "optimal_prior": [float(x) for x in res.optimal_prior.probs],
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "gap": float(res.gap),
    }


def dumps(doc: dict) -> str:
    """Deterministic serialization: sorted keys, two-space indent."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_document(path: str, doc: dict) -> None:
    write_text(path, dumps(doc))


def write_text(path: str, text: str) -> None:
    """Write a document already encoded by ``dumps``, byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
