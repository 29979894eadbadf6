"""JSON file schemas for POVMs, ensembles, states, channels, and reports.

Complex numbers are encoded as two-element arrays [re, im]; matrices are
row-major nested arrays; every document carries an explicit "kind" tag so
files cannot be fed to the wrong subcommand. Floats rely on Python's
shortest round-trip repr, so writing and re-reading a document reproduces
every double bit-exactly.

``dumps`` writes exactly the bytes of ``json.dumps(doc, indent=2,
sort_keys=True) + "\n"``, but lays out the indentation itself. Before
Python 3.13, CPython uses its C encoder only when ``indent`` is None, so
json's own indented output runs the pure-Python encoder token by token;
here every scalar, key and rectangular numeric list goes through one
compact C encoder, and only the line breaks are added in Python.
"""

from __future__ import annotations

import dataclasses
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

# json's C encoder; indent=None, so json.JSONEncoder.iterencode takes it
_encode = json.JSONEncoder(separators=(",", ":")).encode


def encode_complex(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def encode_matrix(m: np.ndarray) -> list[list[list[float]]]:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def decode_matrix(node: Any, dim: int, what: str) -> np.ndarray:
    return _decode_complex(node, (dim, dim), what)


def _decode_complex(node: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A complex array of ``shape`` from nested [re, im] pairs."""
    m = _decode_floats(node, what)
    if m.shape != (*shape, 2):
        raise SchemaError(f"{what}: expected complex entries of shape {shape}, got shape {m.shape}")
    return m[..., 0] + 1j * m[..., 1]


def _decode_floats(node: Any, what: str) -> np.ndarray:
    """``node`` as a finite float array."""
    try:
        m = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: malformed numbers") from exc
    if not np.isfinite(m).all():
        raise SchemaError(f"{what}: non-finite numbers")
    return m


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
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise SchemaError(f"{what}: dim must be a positive integer, got {dim!r}")
    return dim


def load_document(path: str) -> dict:
    """Parse a JSON document from disk; raises SchemaError on bad JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
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
    return _decode_complex(nodes, (len(nodes), dim, dim), "povm file elements")


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
    p = _decode_floats(priors, "ensemble file priors")
    return Ensemble(p, _decode_complex(nodes, (len(nodes), dim, dim), "ensemble file states"))


def state_from_document(doc: dict) -> DensityOperator:
    _check_kind(doc, KIND_STATE, "state file")
    dim = _dim_of(doc, "state file")
    return DensityOperator(decode_matrix(_require(doc, "matrix", "state file"), dim, "state file"))


def channel_from_document(doc: dict) -> ClassicalChannel:
    _check_kind(doc, KIND_CHANNEL, "channel file")
    m = _decode_floats(_require(doc, "probs", "channel file"), "channel file probs")
    if m.ndim != 2:
        raise SchemaError(f"channel file: probs must be a 2-D matrix, got shape {m.shape}")
    return ClassicalChannel(m)


def povm_to_document(p: Povm) -> dict:
    return {
        "kind": KIND_POVM,
        "dim": p.dim,
        "elements": encode_matrix(p.elements),
    }


def ensemble_to_document(e: Ensemble) -> dict:
    return {
        "kind": KIND_ENSEMBLE,
        "dim": e.dim,
        "priors": e.priors.tolist(),
        "states": encode_matrix(e.states),
    }


def state_to_document(rho: DensityOperator) -> dict:
    return {"kind": KIND_STATE, "dim": rho.dim, "matrix": encode_matrix(rho.matrix)}


def channel_to_document(ch: ClassicalChannel) -> dict:
    return {"kind": KIND_CHANNEL, "probs": ch.probs.tolist()}


def report_to_document(rep: PowerReport) -> dict:
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
        "bound_check": dataclasses.asdict(rep.bound_check),
    }


def capacity_to_document(res: BlahutArimotoResult, base_name: str) -> dict:
    return {
        "kind": "capacity",
        "capacity": float(res.capacity),
        "base": base_name,
        "optimal_prior": res.optimal_prior.probs.tolist(),
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "gap": float(res.gap),
    }


def dumps(doc: dict) -> str:
    """Deterministic serialization: sorted keys, two-space indent.

    The result equals ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``
    byte for byte; dict keys must be strings. Before Python 3.13 json
    drops its C encoder whenever ``indent`` is set, which made writing a
    large POVM slower than computing it.
    """
    return _layout_value(doc, "\n") + "\n"


def _layout_value(node: Any, newline: str) -> str:
    """``node`` as json's indent=2 layout, its line breaks being ``newline``."""
    if isinstance(node, dict):
        if not node:
            return "{}"
        inner = newline + "  "
        items = []
        for key in sorted(node):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_encode(key) + ": " + _layout_value(node[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(node, (list, tuple)) and node:
        shape = _numeric_shape(node)
        if shape is None:
            inner = newline + "  "
            items = [_layout_value(item, inner) for item in node]
            return "[" + inner + ("," + inner).join(items) + newline + "]"
        # one compact C encode; its leaves are numbers, true or false,
        # so no leaf holds a bracket or a comma
        leaves = _encode(node).translate(str.maketrans("", "", "[]")).split(",")
        return _array_layout(shape, newline) % tuple(leaves)
    return _encode(node)


def _numeric_shape(node: list | tuple) -> tuple[int, ...] | None:
    """Shape of a rectangular, non-empty list of bools, ints or floats."""
    try:
        a = np.asarray(node)
    except ValueError:  # ragged
        return None
    return a.shape if a.size and a.dtype.kind in "biuf" else None


def _array_layout(shape: tuple[int, ...], newline: str) -> str:
    """json's indent=2 layout of an array of ``shape``, one ``%s`` per leaf."""
    row = "%s"
    for k in reversed(range(len(shape))):
        outer = newline + "  " * k
        inner = outer + "  "
        row = "[" + inner + ("," + inner).join([row] * shape[k]) + outer + "]"
    return row


def write_document(path: str, doc: dict) -> None:
    write_text(path, dumps(doc))


def write_text(path: str, text: str) -> None:
    """Write a document already encoded by ``dumps``, byte for byte."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
