"""The three benchmark workloads: their inputs, operations and checks.

Each workload is a closed loop with one caller: ``build`` turns the
workload seed into a fixed list of operations (a pass), and the runner
repeats that pass. An operation's ``run`` is the timed call into the
package; its ``check`` runs untimed afterwards and returns an ``Outcome``
or raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle

# An error above this many bits, against a closed form or an independent
# bound, fails the operation. It sits well above the ~2.4e-8 bits by which
# the see-saw stalls on rand4x8, which is reported through w_err_bits.
W_TOL_BITS = 1e-6
# Round trips through the duality maps must recover their input this well.
ROUND_TRIP_TOL = 1e-8


class CheckFailed(Exception):
    """An operation returned a wrong, incomplete or unparsable result."""


@dataclass(frozen=True)
class Outcome:
    """What a check learned: the error in bits, and convergence for solves."""

    err_bits: float = 0.0
    converged: bool | None = None


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    # Traced as one span with nothing inside: its work runs in child processes.
    opaque: bool = False


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, stream))])


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _w_outcome(report: Any, elements: np.ndarray, upper_bits: float | None = None,
               exact_bits: float | None = None) -> Outcome:
    """Error of a PowerReport against the truth, from outside the package.

    The reported W must equal the mutual information of the reported
    ensemble, and lie below ``upper_bits`` or at ``exact_bits``.
    """
    ens = report.best_ensemble
    info, _ = oracle.ensemble_information_bits(ens.priors, ens.states_stack(), elements)
    w = float(report.w_estimate)
    err = abs(w - info)
    for truth in (upper_bits, exact_bits):
        if truth is not None:
            err = max(err, abs(truth - w))
    return Outcome(err_bits=err, converged=bool(report.converged))


# ---------------------------------------------------------------------------
# ladder: the fixed ROADMAP instances through the generic see-saw


def build_ladder(ip: Any, seed: int, workdir: Path) -> list[Op]:
    """SIC, random_povm(3,5,seed=1) and random_povm(4,8,seed=2), plus the
    rand3x5 solve again at jobs=2.

    The seed permutes each instance's outcomes (seed 0 keeps the original
    order). W is invariant under that, while a seed-dependent instance, or
    one in a random unitary frame, changes the solve time by up to 2x and
    would bury any change to the solver in instance-to-instance spread.
    """
    rng = _rng(seed, "ladder")
    instances = {
        "sic": ip.tetrahedral_sic_povm(),
        "rand3x5": ip.random_povm(3, 5, seed=1),
        "rand4x8": ip.random_povm(4, 8, seed=2),
    }
    for name, p in instances.items():
        if seed != 0:
            instances[name] = ip.Povm(p.elements[rng.permutation(p.num_outcomes)])
    check_rng = _rng(seed, "ladder-check")
    jobs1_bytes: dict[str, str] = {}

    def solve(name: str, jobs: int) -> Callable[[], Any]:
        p = instances[name]
        return lambda: ip.informational_power(p, ip.SolverConfig(), jobs=jobs)

    def check_closed_form(report: Any) -> Outcome:
        return _w_outcome(report, instances["sic"].elements, exact_bits=math.log2(4.0 / 3.0))

    def check_dual(name: str) -> Callable[[Any], Outcome]:
        def check(report: Any) -> Outcome:
            elements = instances[name].elements
            ens = report.best_ensemble
            states = ens.states_stack()
            _, q = oracle.ensemble_information_bits(ens.priors, states, elements)
            upper = oracle.dual_upper_bound_bits(
                elements, q, oracle.density_top_vectors(states), check_rng)
            return _w_outcome(report, elements, upper_bits=upper)
        return check

    def report_bytes(report: Any) -> str:
        return ip.serialize.dumps(ip.serialize.report_to_document(report))

    def check_rand3x5(report: Any) -> Outcome:
        jobs1_bytes["rand3x5"] = report_bytes(report)
        return check_dual("rand3x5")(report)

    def check_pool(report: Any) -> Outcome:
        # C11: the report must not depend on the number of worker processes
        _require(report_bytes(report) == jobs1_bytes.get("rand3x5"),
                 "jobs=2 report differs from the jobs=1 report")
        return check_dual("rand3x5")(report)

    return [
        Op("sic", solve("sic", 1), check_closed_form),
        Op("rand3x5", solve("rand3x5", 1), check_rand3x5),
        Op("rand4x8", solve("rand4x8", 1), check_dual("rand4x8")),
        Op("rand3x5.jobs2", solve("rand3x5", 2), check_pool, opaque=True),
    ]


# ---------------------------------------------------------------------------
# commuting: many small POVMs that take the exact fast path

COMMUTING_COPIES = 4
COMMUTING_NOISE = 0.3
# (D, N, channel seed) of channels from the same family at noise 0.5 on
# which Blahut-Arimoto needs 42k and 61k iterations, and on the last one
# runs into its 100000-iteration cap, so the fast path returns
# converged=False. Random channels hit such cases about once in a few
# hundred; fixing them here keeps the cost of a pass the same for every
# workload seed.
HARD_CHANNELS = ((8, 20, 2597), (6, 7, 1051), (8, 11, 23211))


def _block_channel(d: int, n: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Input i puts 1 - noise of its mass evenly on its own block of the
    n outputs and spreads ``noise`` by a flat Dirichlet draw."""
    blocks = np.zeros((d, n))
    for i, cols in enumerate(np.array_split(rng.permutation(n), d)):
        blocks[i, cols] = 1.0 / cols.size
    return (1.0 - noise) * blocks + noise * rng.dirichlet(np.ones(n), size=d)


def build_commuting(ip: Any, seed: int, workdir: Path) -> list[Op]:
    """COMMUTING_COPIES POVMs for every D in 2..8 and N in D+1..4D (420),
    then the HARD_CHANNELS.

    Each POVM is U diag(w(j|.)) U† with a Haar-random U from the seed. At
    COMMUTING_NOISE the inputs of w stay distinguishable and Blahut-Arimoto
    converges in about a hundred iterations; at higher noise or with fully
    random rows, a seed-dependent few of 420 take seconds, and the pass
    time follows how many a seed happens to draw.
    """
    rng = _rng(seed, "commuting")
    ops = []
    for copy in range(COMMUTING_COPIES):
        for d in range(2, 9):
            for n in range(d + 1, 4 * d + 1):
                u = _haar_unitary(d, rng)
                ops.append(_commuting_op(ip, f"D{d}N{n}.{copy}", u, _block_channel(d, n, COMMUTING_NOISE, rng)))
    for d, n, channel_seed in HARD_CHANNELS:
        w = _block_channel(d, n, 0.5, np.random.default_rng(channel_seed))
        ops.append(_commuting_op(ip, f"hard.D{d}N{n}", _haar_unitary(d, rng), w))
    return ops


def _commuting_op(ip: Any, label: str, u: np.ndarray, channel: np.ndarray) -> Op:
    elements = np.einsum("ai,ij,bi->jab", u, channel, u.conj())

    def run() -> Any:
        return ip.informational_power(ip.Povm(elements))

    def check(report: Any) -> Outcome:
        _require(report.fast_path_used, "commuting POVM did not take the fast path")
        ens = report.best_ensemble
        _, q = oracle.ensemble_information_bits(ens.priors, ens.states_stack(), elements)
        # D(.||q) is convex, so over all pure states it peaks on the
        # common eigenbasis: its rows of the generated channel bound W
        upper = float(oracle.relative_entropies(channel, q).max()) / oracle.LN2
        return _w_outcome(report, elements, upper_bits=upper)

    return Op(label, run, check)


# ---------------------------------------------------------------------------
# tools: in-process CLI calls on JSON files

TOOLS_POVM_DIMS = (2, 4, 8, 16)
TOOLS_POVM_COPIES = 2
TOOLS_CHANNEL_SHAPES = ((16, 8), (16, 16), (32, 16), (32, 32), (64, 32), (64, 64))
TOOLS_CHANNEL_COPIES = 4
TOOLS_CHANNEL_NOISE = 0.3
TOOLS_SOLVES = 4


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _random_povm(dim: int, outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """Square-root construction T^-1/2 G_j G_j† T^-1/2 with Gaussian G_j."""
    g = rng.standard_normal((outcomes, dim, dim)) + 1j * rng.standard_normal((outcomes, dim, dim))
    blocks = g @ np.conj(np.swapaxes(g, 1, 2))
    w, v = np.linalg.eigh(blocks.sum(axis=0))
    t = (v / np.sqrt(w)) @ v.conj().T
    return t @ blocks @ t


def _structured_channel(inputs: int, outputs: int, rng: np.random.Generator) -> np.ndarray:
    """Noisy identity rows on the outputs, plus inputs that mix them.

    Mixed rows sit strictly below capacity, so the optimal prior has a
    clean support, and at TOOLS_CHANNEL_NOISE Blahut-Arimoto converges in
    about a hundred iterations. On fully random channels it often runs to
    its 100000-iteration cap; at noise 0.5 a seed-dependent few take
    thousands, enough to move the 90th-percentile operation.
    """
    good = (1.0 - TOOLS_CHANNEL_NOISE) * np.eye(outputs)
    good += TOOLS_CHANNEL_NOISE * rng.dirichlet(np.ones(outputs), size=outputs)
    mixed = rng.dirichlet(np.ones(outputs), size=inputs - outputs) @ good
    return np.concatenate([good, mixed])[rng.permutation(inputs)]


def build_tools(ip: Any, seed: int, workdir: Path) -> list[Op]:
    """100 ``cli.main`` calls: validate and a duality round trip on
    POVMs with D in {2,4,8,16} and N <= 64, capacity on channels from
    16x8 to 64x64, and ``solve --example projective3``.
    """
    rng = _rng(seed, "tools")
    ops: list[Op] = []
    for copy in range(TOOLS_POVM_COPIES):
        for d in TOOLS_POVM_DIMS:
            for n in (d + 1, 2 * d, min(4 * d, 64)):
                elements = _random_povm(d, n, rng)
                stem = workdir / f"povm_D{d}_N{n}_{copy}"
                _write_json(stem.with_suffix(".json"), {
                    "kind": "povm", "dim": d,
                    "elements": np.stack([elements.real, elements.imag], axis=-1).tolist(),
                })
                ops += _duality_ops(ip, f"D{d}N{n}.{copy}", stem, elements)
    for copy in range(TOOLS_CHANNEL_COPIES):
        for m, n in TOOLS_CHANNEL_SHAPES:
            channel = _structured_channel(m, n, rng)
            path = workdir / f"channel_{m}x{n}_{copy}.json"
            _write_json(path, {"kind": "channel", "probs": channel.tolist()})
            ops.append(_capacity_op(ip, f"capacity.{m}x{n}.{copy}", path, channel))
    for k in range(TOOLS_SOLVES):
        ops.append(_solve_example_op(ip, f"solve.projective3.{k}", workdir / f"report_{k}.json"))
    return ops


def _cli(ip: Any, argv: list[str]) -> Callable[[], tuple[int, str]]:
    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = ip.cli.main(argv)
            except SystemExit as exc:  # argparse rejects its input this way
                code = exc.code if isinstance(exc.code, int) else 2
        return code, out.getvalue()
    return run


def _json_result(result: tuple[int, str]) -> Any:
    code, text = result
    _require(code == 0, f"exit code {code}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"unparsable output: {exc}") from exc


def _complex_stack(nodes: Any) -> np.ndarray:
    a = np.asarray(nodes, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _duality_ops(ip: Any, label: str, stem: Path, elements: np.ndarray) -> list[Op]:
    povm_path = str(stem.with_suffix(".json"))
    ens_path = stem.parent / (stem.name + "_ensemble.json")
    dim = elements.shape[1]

    def check_validate(result: Any) -> Outcome:
        doc = _json_result(result)
        _require(doc.get("kind") == "validation" and doc.get("passed") is True,
                 "validate did not pass a valid POVM")
        return Outcome()

    def check_to_ensemble(result: Any) -> Outcome:
        doc = _json_result(result)
        _require(doc.get("round_trip_passed") is True, "to-ensemble round trip failed")
        _require(ens_path.read_text(encoding="utf-8") == result[1], "--out differs from stdout")
        # with sigma = I/D the priors are Tr(Pi_j)/D
        priors = np.trace(elements, axis1=1, axis2=2).real / dim
        _require(np.allclose(doc["priors"], priors, rtol=0, atol=ROUND_TRIP_TOL),
                 "to-ensemble priors are not Tr(Pi_j)/D")
        return Outcome()

    def check_to_povm(result: Any) -> Outcome:
        doc = _json_result(result)
        _require(doc.get("round_trip_residual", math.inf) <= ROUND_TRIP_TOL,
                 "to-povm round trip residual above tolerance")
        back = _complex_stack(doc["elements"])
        _require(back.shape == elements.shape, "to-povm changed the number of elements")
        worst = float(np.max(np.linalg.norm(back - elements, axis=(1, 2))))
        _require(worst <= ROUND_TRIP_TOL, f"to-povm did not recover the POVM ({worst:.2e})")
        return Outcome()

    return [
        Op(f"validate.{label}", _cli(ip, ["validate", povm_path]), check_validate),
        Op(f"to-ensemble.{label}", _cli(ip, ["duality", povm_path, "--direction", "to-ensemble",
                                            "--check", "--out", str(ens_path)]), check_to_ensemble),
        Op(f"to-povm.{label}", _cli(ip, ["duality", str(ens_path), "--direction", "to-povm",
                                        "--check"]), check_to_povm),
    ]


def _capacity_op(ip: Any, label: str, path: Path, channel: np.ndarray) -> Op:
    def check(result: Any) -> Outcome:
        doc = _json_result(result)
        _require(doc.get("converged") is True, "capacity did not converge")
        lower, upper = oracle.channel_bracket_bits(channel, np.asarray(doc["optimal_prior"]))
        c = float(doc["capacity"])
        return Outcome(err_bits=max(abs(c - lower), upper - c), converged=True)

    return Op(label, _cli(ip, ["capacity", str(path)]), check)


def _solve_example_op(ip: Any, label: str, out: Path) -> Op:
    def check(result: Any) -> Outcome:
        w = float(_json_result(result))
        report = json.loads(out.read_text(encoding="utf-8"))
        _require(report.get("kind") == "report" and report.get("fast_path_used") is True,
                 "projective3 report is missing or skipped the fast path")
        _require(report.get("w_estimate") == w, "report W differs from the printed W")
        return Outcome(err_bits=abs(w - math.log2(3.0)), converged=bool(report["converged"]))

    return Op(label, _cli(ip, ["solve", "--example", "projective3", "--out", str(out)]), check)


WORKLOADS: dict[str, Callable[[Any, int, Path], list[Op]]] = {
    "ladder": build_ladder,
    "commuting": build_commuting,
    "tools": build_tools,
}
