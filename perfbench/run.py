"""End-to-end and per-layer benchmark of the infopower package.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 25 --trace 0

Run it from anywhere inside a checkout: the package is imported from the
checkout's ``src/``. The workloads are in ``workloads.py``:

- ``ladder``: the fixed see-saw instances (SIC, rand3x5, rand4x8, and
  rand3x5 again at jobs=2);
- ``commuting``: 423 commuting POVMs through the exact fast path;
- ``tools``: 100 in-process CLI calls on JSON files.

The seed makes the inputs. A pass runs every operation of the workload
once, in order, from a single caller. Passes repeat until the next one
would end past ``--seconds`` of measured time, with at least one pass.
Each output is checked, untimed, right after its operation.

Operation times are given in seconds and, for the gated metrics, in
"ref": the operation's time divided by the time of a fixed reference
kernel sampled around it (see ``hostspeed.py``). On a shared host the
seconds swing by up to 2x between runs; the ratio does not.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics. With ``--trace 1`` one traced pass follows the
untraced ones, and the JSON carries its per-layer metrics instead. The
lines before it name every metric with its unit. ``perfbench/work/``
keeps the inputs, a JSON summary and, for traced runs, the spans.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy loads, so that the jobs=2 solve
# runs on two cores and not on two pools of BLAS threads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from workloads import W_TOL_BITS, WORKLOADS, CheckFailed, Op, Outcome  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"

# set-up is repeated this often per run and its median reported
SETUP_REPEATS = 7
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import infopower.cli; print(time.perf_counter() - t)"
)

Metrics = dict[str, tuple[float, str]]


@dataclass(frozen=True)
class Row:
    """One operation as run: when, how long, and what its check found."""

    label: str
    start: float
    end: float
    seconds: float
    outcome: Outcome | None
    failure: str | None


def import_package() -> Any:
    """The package with its layer modules, from this checkout's src/ only."""
    sys.path.insert(0, str(SRC))
    ip = importlib.import_module("infopower")
    if Path(ip.__file__).resolve().parent != SRC / "infopower":
        raise ImportError(f"infopower was imported from {ip.__file__}, not from {SRC}")
    for layer in tracing.LAYERS:
        importlib.import_module(f"infopower.{layer}")
    return ip


def import_seconds() -> float:
    """Import time of the package, numpy included, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(out.stdout)


def set_up(ip: Any, workload: str, seed: int, workdir: Path) -> tuple[list[Op], float]:
    """Build the workload SETUP_REPEATS times; return its operations and the
    median of import time plus build time."""
    times = []
    ops: list[Op] = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t0 = perf_counter()
        ops = WORKLOADS[workload](ip, seed, workdir)
        times.append(imported + perf_counter() - t0)
    return ops, statistics.median(times)


def run_pass(ops: list[Op], host: HostSpeed, tracer: tracing.Tracer | None = None) -> list[Row]:
    rows = []
    for i, op in enumerate(ops):
        stolen = host.stolen
        result, failure = None, None
        t0 = perf_counter()
        try:
            if tracer is None:
                result = op.run()
            else:
                with tracer.operation(i, "bench.pool_solve" if op.opaque else "bench.op", op.opaque):
                    result = op.run()
        except Exception as exc:  # an operation that raises is a failed operation
            failure = _describe(exc)
        t1 = perf_counter()
        outcome = None
        if failure is None:
            outcome, failure = _check(op, result)
        rows.append(Row(op.label, t0, t1, t1 - t0 - (host.stolen - stolen), outcome, failure))
    return rows


def _check(op: Op, result: Any) -> tuple[Outcome | None, str | None]:
    try:
        outcome = op.check(result)
    except CheckFailed as exc:
        return None, str(exc)
    except Exception as exc:  # output the check could not read
        return None, _describe(exc)
    if not outcome.err_bits <= W_TOL_BITS:
        return outcome, f"error {outcome.err_bits:.3e} bits exceeds {W_TOL_BITS:g}"
    return outcome, None


def _describe(exc: Exception) -> str:
    tb = traceback.extract_tb(exc.__traceback__)
    where = f" at {Path(tb[-1].filename).name}:{tb[-1].lineno}" if tb else ""
    return f"{type(exc).__name__}: {exc}{where}"


def measure(ops: list[Op], seconds: float, host: HostSpeed) -> list[list[Row]]:
    """Untraced passes until the next would end past ``seconds`` of op time."""
    passes: list[list[Row]] = []
    busy = 0.0
    host.start()
    try:
        while True:
            passes.append(run_pass(ops, host))
            last = sum(r.seconds for r in passes[-1])
            busy += last
            if busy + last > seconds:
                return passes
    finally:
        host.stop()


# ---------------------------------------------------------------------------
# metrics


def _quartile_spread(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]


def _timing(xs: list[float], unit: str) -> str:
    return f"median {statistics.median(xs):.6g} {unit}, IQR {_quartile_spread(xs):.3g} {unit}, n={len(xs)}"


def _p90(xs: list[float]) -> float:
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def end_to_end(op_costs: list[float], acc: Metrics, setup_s: float) -> Metrics:
    """The gated metrics: cost per operation in ref (each operation's
    median over the passes), accuracy, set-up time and memory."""
    return {
        "op_ref.mean": (statistics.fmean(op_costs), "ref"),
        "op_ref.p50": (statistics.median(op_costs), "ref"),
        "op_ref.p90": (_p90(op_costs), "ref"),
        "w_err_bits": acc["w_err_bits"],
        "certified_frac": acc["certified_frac"],
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def in_seconds(rows: list[Row], host: HostSpeed) -> Metrics:
    secs = [r.seconds for r in rows]
    return {
        "ops_per_s": (len(secs) / sum(secs), "1/s"),
        "op_s.p50": (statistics.median(secs), "s"),
        "op_s.p90": (_p90(secs), "s"),
        "ref_s": (statistics.median(host.refs), "s"),
    }


def accuracy(rows: list[Row]) -> Metrics:
    outcomes = [r.outcome for r in rows if r.outcome is not None]
    solves = [o.converged for o in outcomes if o.converged is not None]
    return {
        "w_err_bits": (max((o.err_bits for o in outcomes), default=float("nan")), "bits"),
        "certified_frac": (sum(solves) / len(solves) if solves else float("nan"), "fraction"),
        "fail_frac": (sum(r.failure is not None for r in rows) / len(rows), "fraction"),
    }


def ladder_times(rows: list[Row], costs: list[float]) -> Metrics:
    secs: dict[str, list[float]] = {}
    refs: dict[str, list[float]] = {}
    for r, c in zip(rows, costs):
        secs.setdefault(r.label, []).append(r.seconds)
        refs.setdefault(r.label, []).append(c)
    out: Metrics = {}
    for label in ("sic", "rand3x5", "rand4x8"):
        out[f"solve_s.{label}"] = (statistics.median(secs[label]), "s")
        out[f"solve_ref.{label}"] = (statistics.median(refs[label]), "ref")
    out["pool_speedup"] = (statistics.median(refs["rand3x5"]) / statistics.median(refs["rand3x5.jobs2"]), "x")
    return out


def per_layer(tracer: tracing.Tracer, overhead_s: float) -> Metrics:
    table = tracer.layer_table()
    c = tracer.counters

    def calls(name: str) -> float:
        return float(table.get(name, (0, 0.0, 0.0))[0])

    def self_s(name: str) -> float:
        return table.get(name, (0, 0.0, 0.0))[2]

    def serialize_self(suffixes: tuple[str, ...], prefix: str) -> float:
        return sum(own for name, (_, _, own) in table.items()
                   if name.startswith("serialize.") and (name.endswith(suffixes) or name.startswith(prefix)))

    ba = "information.blahut_arimoto"
    ba_calls = calls(ba)
    return {
        f"{ba}.calls": (ba_calls, "count"),
        f"{ba}.iterations": (c["blahut_arimoto.iterations"], "count"),
        f"{ba}.self_s": (self_s(ba), "s"),
        f"{ba}.unconverged_frac": (c["blahut_arimoto.unconverged"] / ba_calls if ba_calls else 0.0, "fraction"),
        f"{ba}.cells": (c["blahut_arimoto.cells"], "count"),
        "information.relative_entropy_rows.calls": (calls("information.relative_entropy_rows"), "count"),
        "information.relative_entropy_rows.self_s": (self_s("information.relative_entropy_rows"), "s"),
        "solver.see_saw_power.self_s": (self_s("solver.see_saw_power"), "s"),
        "solver.restart_spread_bits": (c["restart_spread_bits"], "bits"),
        "solver.commuting_fast_path.self_s": (self_s("solver.commuting_fast_path"), "s"),
        "objects.Povm.calls": (calls("objects.Povm"), "count"),
        "objects.Povm.self_s": (self_s("objects.Povm"), "s"),
        "objects.Povm.max_commutator_norm.self_s": (self_s("objects.Povm.max_commutator_norm"), "s"),
        "objects.Ensemble.self_s": (self_s("objects.Ensemble"), "s"),
        "linalg.eigh.calls": (calls("linalg.eigh"), "count"),
        "linalg.eigh.self_s": (self_s("linalg.eigh"), "s"),
        "linalg.commutator_norm.calls": (calls("linalg.commutator_norm"), "count"),
        "linalg.simultaneous_eigenbasis.self_s": (self_s("linalg.simultaneous_eigenbasis"), "s"),
        "duality.ensemble_from_povm.self_s": (self_s("duality.ensemble_from_povm"), "s"),
        "duality.povm_from_ensemble.self_s": (self_s("duality.povm_from_ensemble"), "s"),
        "serialize.decode_s": (serialize_self(("_from_document", ".load_document"), "serialize.decode_"), "s"),
        "serialize.encode_s": (serialize_self(("_to_document", ".dumps", ".write_document"), "serialize.encode_"), "s"),
        "serialize.bytes_read": (c["bytes_read"], "bytes"),
        "serialize.bytes_written": (c["bytes_written"], "bytes"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def environment() -> dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _print_metrics(title: str, metrics: Metrics) -> None:
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0); makes the inputs")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time to fill with passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "infopower" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'infopower'}", file=sys.stderr)
        return 2
    ip = import_package()

    tag = f"{args.seed}" + ("-trace" if args.trace else "")
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment()
    print(f"# environment {json.dumps(env, sort_keys=True)}")

    ops, setup_s = set_up(ip, args.workload, args.seed, workdir)
    host = HostSpeed()
    passes = measure(ops, args.seconds, host)
    rows = [r for rows_now in passes for r in rows_now]
    costs = [host.cost(r.start, r.end, r.seconds) for r in rows]
    pass_seconds = [sum(r.seconds for r in rows_now) for rows_now in passes]
    print(f"# {args.workload}: seed {args.seed}, {len(ops)} operations per pass, {len(passes)} passes; "
          f"pass time {_timing(pass_seconds, 's')}; op cost {_timing(costs, 'ref')}; "
          f"{len(host.refs)} reference samples")

    op_costs = [statistics.median(costs[i::len(ops)]) for i in range(len(ops))]
    acc = accuracy(rows)
    e2e = end_to_end(op_costs, acc, setup_s)
    report = {**e2e, **in_seconds(rows, host), "fail_frac": acc["fail_frac"]}
    if args.workload == "ladder":
        report.update(ladder_times(rows, costs))
    _print_metrics("end-to-end (untraced)", report)

    layers: Metrics = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        # the sampler keeps running, so that the overhead can be taken at
        # equal host speed; its ~2% lands in whichever span is open
        sampled_before = len(host.refs)
        host.start()
        try:
            traced_rows = run_pass(ops, host, tracer)
        finally:
            host.stop()
        traced_cost = sum(host.cost(r.start, r.end, r.seconds) for r in traced_rows)
        overhead = (traced_cost - sum(op_costs)) * statistics.median(host.refs[sampled_before:])
        rows += traced_rows
        layers = per_layer(tracer, overhead)
        _print_metrics("per-layer (one traced pass)", layers)
        table = tracer.layer_table()
        print(f"# {len(tracer.start)} spans; per name: calls, total s, self s")
        for name, (n, total, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
            if n:
                print(f"  {name:44s} {n:9d} {total:11.6f} {own:11.6f}")
        tracer.write(workdir / f"spans-{tag}.npz")

    failures = [r for r in rows if r.failure is not None]
    for r in failures:
        print(f"FAILED {r.label}: {r.failure}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(rows),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in (layers if args.trace else e2e).items()},
    }
    (workdir / f"summary-{tag}.json").write_text(json.dumps({
        **result,
        "environment": env,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in {**report, **layers}.items()},
        "failures": [f"{r.label}: {r.failure}" for r in failures],
        "op_seconds": [[r.seconds for r in rows_now] for rows_now in passes],
        "op_ref": costs,
    }, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
