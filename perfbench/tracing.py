"""Span tracing of the infopower modules, installed from outside the package.

``instrument`` replaces every public function of the layer modules, and
the ``Povm`` and ``Ensemble`` constructors, with a wrapper that records a
span (name, start, end, parent span, operation id) while the tracer is
active. Spans live in flat arrays in memory; ``write`` saves them and
``layer_table`` derives calls, total and self time per name from them.
Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

PACKAGE = "infopower"
LAYERS = ("cli", "serialize", "duality", "solver", "information", "objects", "linalg")


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack: list[int] = []
        self._op_id = -1
        # counts read off arguments and results at the same boundaries
        self.counters: dict[str, float] = defaultdict(float)
        # work in forked pool workers is not traced
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self.active = False

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id: int, name: str, opaque: bool = False) -> Iterator[None]:
        """Root span of one benchmark operation; ``opaque`` hides its inside."""
        self._op_id = op_id
        self.active = True
        idx = self._open(self._name_id(name))
        if opaque:
            self.active = False
        try:
            yield
        finally:
            self._close(idx)
            self.active = False

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self.counters, args, kwargs, result)
            return result

        return traced

    def layer_table(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        start = np.frombuffer(self.start, dtype=float)
        dur = np.frombuffer(self.end, dtype=float) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - covered, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(own[i])) for i, nm in enumerate(self.names)}

    def write(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
        )


# ---------------------------------------------------------------------------
# counts taken at a layer boundary: (counters, args, kwargs, result) -> None


def _ba_counts(c: dict, args: tuple, kwargs: dict, res: Any) -> None:
    ch = args[0] if args else kwargs["ch"]
    c["blahut_arimoto.iterations"] += res.iterations
    c["blahut_arimoto.cells"] += res.iterations * ch.num_inputs * ch.num_outputs
    c["blahut_arimoto.unconverged"] += not res.converged


def _restart_spread(c: dict, args: tuple, kwargs: dict, rep: Any) -> None:
    spread = max(rep.per_restart_values) - min(rep.per_restart_values)
    c["restart_spread_bits"] = max(c["restart_spread_bits"], spread)


def _bytes_read(c: dict, args: tuple, kwargs: dict, doc: Any) -> None:
    c["bytes_read"] += os.path.getsize(args[0] if args else kwargs["path"])


def _bytes_written(c: dict, args: tuple, kwargs: dict, text: str) -> None:
    c["bytes_written"] += len(text.encode("utf-8"))


HOOKS = {
    "information.blahut_arimoto": _ba_counts,
    "solver.informational_power": _restart_spread,
    "serialize.load_document": _bytes_read,
    "serialize.dumps": _bytes_written,
}


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions of each layer module and rebind every
    reference to them in the package's namespaces, so that calls from
    inside the package go through the wrappers too."""
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    wrapped: dict[int, tuple[Callable, Callable]] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, HOOKS.get(name)))
    targets = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for mod in targets:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    objects = modules["objects"]
    for cls, method, name in (
        (objects.Povm, "__init__", "objects.Povm"),
        (objects.Povm, "max_commutator_norm", "objects.Povm.max_commutator_norm"),
        (objects.Ensemble, "__init__", "objects.Ensemble"),
    ):
        setattr(cls, method, tracer.wrap(name, vars(cls)[method]))
