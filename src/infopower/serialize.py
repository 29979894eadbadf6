"""JSON file schemas for POVMs, ensembles, states, channels, and reports.

Complex numbers are encoded as two-element arrays [re, im]; matrices are
row-major nested arrays; every document carries an explicit "kind" tag so
files cannot be fed to the wrong subcommand. Floats rely on Python's
shortest round-trip repr, so writing and re-reading a document reproduces
every double bit-exactly, signed zeros included.

A document built here holds each numeric block as a fresh float array;
one read from disk holds nested lists, and the readers take either.
``dumps`` writes exactly ``json.dumps(doc, indent=2, sort_keys=True,
default=np.ndarray.tolist) + "\n"``. Before Python 3.13 json's indented
output runs the pure-Python encoder token by token; ``dumps`` sends each
key, scalar and array's flat leaves through the C encoder and lays out
the line breaks from the array's own shape.
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


def encode_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1)


def decode_matrix(node: Any, dim: int, what: str) -> np.ndarray:
    return _decode_complex(node, (dim, dim), what)


def _decode_complex(node: Any, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A complex array of ``shape`` from nested [re, im] pairs."""
    m = _decode_floats(node, what)
    if m.shape != (*shape, 2):
        raise SchemaError(f"{what}: expected complex entries of shape {shape}, got shape {m.shape}")
    # a copy of the [re, im] pairs viewed as complex: re + 1j*im would turn a -0.0 part into +0.0
    return np.array(m, order="C").view(complex)[..., 0]


def _decode_floats(node: Any, what: str) -> np.ndarray:
    """``node`` as a finite float array."""
    try:
        m = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{what}: malformed numbers") from exc
    if not np.isfinite(m).all():
        raise SchemaError(f"{what}: non-finite numbers")
    return m


def _length(node: Any) -> int:
    """The length of a list or of an array of rank >= 1, else 0."""
    is_sequence = isinstance(node, list) or (isinstance(node, np.ndarray) and node.ndim > 0)
    return len(node) if is_sequence else 0


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
    if not _length(nodes):
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
    if not _length(nodes):
        raise SchemaError("ensemble file: states must be a non-empty list")
    if _length(priors) != len(nodes):
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
        "priors": np.array(e.priors, dtype=float),
        "states": encode_matrix(e.states),
    }


def state_to_document(rho: DensityOperator) -> dict:
    return {"kind": KIND_STATE, "dim": rho.dim, "matrix": encode_matrix(rho.matrix)}


def channel_to_document(ch: ClassicalChannel) -> dict:
    return {"kind": KIND_CHANNEL, "probs": np.array(ch.probs, dtype=float)}


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
        "bound_check": dataclasses.asdict(rep.bound_check),
    }


def capacity_to_document(res: BlahutArimotoResult, base_name: str) -> dict:
    return {
        "kind": "capacity",
        "capacity": float(res.capacity),
        "base": base_name,
        "optimal_prior": np.array(res.optimal_prior.probs, dtype=float),
        "converged": bool(res.converged),
        "iterations": int(res.iterations),
        "gap": float(res.gap),
    }


def dumps(doc: dict) -> str:
    """Deterministic serialization: sorted keys, two-space indent.

    The result equals ``json.dumps(doc, indent=2, sort_keys=True,
    default=np.ndarray.tolist) + "\n"`` byte for byte; keys must be str.
    Before Python 3.13 json drops its C encoder whenever ``indent`` is
    set, which made writing a large POVM slower than computing it.
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
    if isinstance(node, np.ndarray):
        if node.ndim and node.size and node.dtype.kind in "biuf":
            # one C encode of the flat leaves; no number, true or false holds a comma
            leaves = _encode(node.ravel().tolist())[1:-1].split(",")
            return _array_layout(node.shape, newline) % tuple(leaves)
        node = node.tolist()
    if isinstance(node, (list, tuple)) and node:
        inner = newline + "  "
        items = [_layout_value(item, inner) for item in node]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return _encode(node)


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
