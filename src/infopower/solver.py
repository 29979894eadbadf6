"""Informational power W(Pi) = max over ensembles of I(R, Pi).

W is the capacity of the quantum-classical channel psi -> P(.|psi), so it
also has the dual form W = min_q max_psi D(P(.|psi) || q). The generic
path is column generation over the input alphabet (Blahut 1972; Arimoto
1972), dual to the state-update iteration for accessible information of
Rehacek, Englert and Kaszlikowski (PRA 2005). Each multistart restart
keeps a finite ensemble of pure states and repeats one round:

1. polish: joint L-BFGS ascent of I over softmax prior logits and state
   amplitudes, with analytic gradients;
2. compact: drop negligible-prior members and fold duplicates;
3. refit: one warm-started, capped Blahut-Arimoto run on the prior;
4. probe: search for a pure state whose relative entropy to the output
   distribution q beats the rate. When none does by more than a small
   margin, the dual bound certifies the rate; otherwise the best violator
   joins the ensemble with a weight that raises the rate.

POVMs with commuting elements skip all of this: the optimum is achieved on
the common eigenbasis, so a single Blahut-Arimoto run is exact.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from . import linalg
from .errors import NotCommuting
from .information import (
    _TINY,
    LogBase,
    blahut_arimoto,
    channel_mutual_information_nats,
    ClassicalChannel,
    mutual_information,
    relative_entropy_rows,
)
from .objects import Ensemble, Povm

INNER_BA_TOL = 1e-12
INNER_BA_CAP = 2000
MERGE_OVERLAP_TOL = 1e-6
LBFGS_MEMORY = 10
POLISH_MAX_ITER = 500
PROBE_MAX_STEPS = 200
MAX_ROUNDS = 10000
PRUNE_TOL = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the generic solver.

    ``tol`` sets the certificate margin max(10*tol, 1e-9) nats: a restart
    is certified when no pure state beats its rate by more than that.
    ``num_states`` is the starting ensemble size and defaults to D^2 (the
    Davies bound). Each restart runs at most ``MAX_ROUNDS`` column-generation
    rounds, and compaction drops ensemble members below ``PRUNE_TOL``.
    """

    num_states: int | None = None
    restarts: int = 20
    tol: float = 1e-9
    seed: int = 0
    base: LogBase = LogBase.BITS

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")

    def resolved_num_states(self, dim: int) -> int:
        m = dim * dim if self.num_states is None else self.num_states
        if m < dim:
            raise ValueError(f"num_states {m} is below the dimension {dim}; D states are required")
        if m > dim * dim:
            warnings.warn(
                f"num_states {m} exceeds D^2 = {dim * dim}; pure-state optima never need more",
                stacklevel=2,
            )
        return m


@dataclass(frozen=True)
class BoundCheck:
    """Davies-type cardinality bounds on the pruned ensemble size.

    ``upper`` (D^2, or D(D+1)/2 for real POVMs) is a theorem: some optimal
    ensemble needs no more pure states. ``lower = D`` is bookkeeping, not a
    necessary condition: an optimum may use fewer than D distinct states
    (the trivial POVM needs one, some noisy full-rank qutrit POVMs two),
    so ``passed`` can be False on a correct answer.
    """

    dim: int
    m_eff: int
    lower: int
    upper: int
    passed: bool
    real_entries: bool
    real_upper: int | None
    real_passed: bool | None


@dataclass(frozen=True)
class PowerReport:
    """Solver output: the W estimate and how it was reached."""

    w_estimate: float
    best_ensemble: Ensemble
    per_restart_values: tuple[float, ...]
    converged: bool
    iterations_used: int
    fast_path_used: bool
    pruned_to: int
    bound_check: BoundCheck
    base: LogBase = field(default=LogBase.BITS)


@dataclass(frozen=True)
class AdditivityReport:
    """W on two POVMs and on their tensor product; theory says gap = 0."""

    w1: float
    w2: float
    w12: float
    gap: float


def _bound_check(p: Povm, m_eff: int) -> BoundCheck:
    d = p.dim
    real = p.is_real()
    real_upper = d * (d + 1) // 2 if real else None
    return BoundCheck(
        dim=d,
        m_eff=m_eff,
        lower=d,
        upper=d * d,
        passed=bool(d <= m_eff <= d * d),
        real_entries=real,
        real_upper=real_upper,
        real_passed=bool(m_eff <= real_upper) if real else None,
    )


# ---------------------------------------------------------------------------
# column-generation internals (all probabilities and rates in nats)


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1)[:, None]


def _channel_probs(vectors: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Outcome probabilities <psi_i|Pi_j|psi_i> for unit row vectors."""
    probs = np.einsum("id,jdc,ic->ij", vectors.conj(), elements, vectors).real
    return np.clip(probs, 0.0, 1.0)


def _log_ratio(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """ln(p_ij / q_j) where both are positive, else 0."""
    mask = (probs > _TINY) & (q[None, :] > _TINY)
    return np.where(
        mask,
        np.log(np.maximum(probs, _TINY)) - np.log(np.maximum(q, _TINY))[None, :],
        0.0,
    )


def _mi_gradient(vectors: np.ndarray, prior: np.ndarray, elements: np.ndarray,
                 probs: np.ndarray) -> np.ndarray:
    """Tangent gradient of I w.r.t. the state vectors, priors fixed."""
    lr = _log_ratio(probs, prior @ probs)
    g = 2.0 * prior[:, None] * np.einsum("ij,jdc,ic->id", lr, elements, vectors)
    radial = np.sum(np.real(vectors.conj() * g), axis=1)
    return g - radial[:, None] * vectors


def _lbfgs_ascent(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    max_iter: int,
) -> np.ndarray:
    """Maximize f from ``x`` by L-BFGS with Armijo backtracking.

    ``fg(x)`` returns ``(f, grad f)``. Curvature pairs are kept only when
    s.y > 0, so the direction ascends wherever the gradient is nonzero.
    Only steps that raise f are taken, so f at the returned point is never
    below f at the start. Stops after ``max_iter`` steps, or when no step
    along the direction raises f, which at the end happens at the
    double-precision resolution of f.
    """
    f, g = fg(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    for _ in range(max_iter):
        d = g.copy()
        alphas = []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ d))
            d -= alphas[-1] * y
        if pairs:
            s, y, _ = pairs[-1]
            d *= (s @ y) / (y @ y)
        else:
            d /= max(1.0, float(np.linalg.norm(g)))
        for (s, y, rho), a in zip(pairs, reversed(alphas)):
            d += (a - rho * (y @ d)) * s
        slope = float(g @ d)
        if slope <= 0.0:
            break
        step = 1.0
        for _ in range(40):
            x_new = x + step * d
            f_new, g_new = fg(x_new)
            if f_new > f + 1e-4 * step * slope:
                break
            step *= 0.5
        else:
            break
        s, y = x_new - x, g - g_new
        if s @ y > 0.0:
            pairs = pairs[-(LBFGS_MEMORY - 1):] + [(s, y, 1.0 / float(s @ y))]
        x, f, g = x_new, f_new, g_new
    return x


def _polish(
    vectors: np.ndarray, prior: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Joint ascent of I over softmax prior logits and state amplitudes.

    The logit gradient is r_i (D_i - I) with D_i = D(p(.|i) || q); the
    amplitude gradient is the tangent state gradient scaled by 1/|z_i|,
    since the states are the normalized amplitudes. Returns the states,
    the prior and their rate, which is never below the starting rate.
    """
    m, dim = vectors.shape

    def unpack(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        z = (x[m::2] + 1j * x[m + 1::2]).reshape(m, dim)
        norms = np.linalg.norm(z, axis=1)
        t = np.exp(x[:m] - x[:m].max())
        return z / norms[:, None], t / t.sum(), norms

    def fg(x: np.ndarray) -> tuple[float, np.ndarray]:
        v, r, norms = unpack(x)
        probs = _channel_probs(v, elements)
        d = relative_entropy_rows(probs, r @ probs)
        value = float(r @ d)
        gv = _mi_gradient(v, r, elements, probs) / norms[:, None]
        return value, np.concatenate([r * (d - value), gv.view(float).ravel()])

    x0 = np.concatenate([np.log(np.maximum(prior, _TINY)), vectors.view(float).ravel()])
    v, r, _ = unpack(_lbfgs_ascent(fg, x0, POLISH_MAX_ITER))
    return v, r, channel_mutual_information_nats(r, _channel_probs(v, elements))


def _compact(vectors: np.ndarray, prior: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop members below ``PRUNE_TOL`` (keeping at least the heaviest) and
    fold members that are the same state up to global phase into their
    heaviest copy; the prior is renormalized."""
    prior = prior.copy()
    keep: list[int] = []
    for i in np.argsort(-prior, kind="stable"):
        if keep and prior[i] < PRUNE_TOL:
            break
        overlaps = np.abs(vectors[keep].conj() @ vectors[i]) ** 2
        dup = np.flatnonzero(overlaps > 1.0 - MERGE_OVERLAP_TOL)
        if dup.size:
            prior[keep[dup[0]]] += prior[i]
        else:
            keep.append(int(i))
    keep.sort()
    return vectors[keep], prior[keep] / prior[keep].sum()


def _refit(
    vectors: np.ndarray, prior: np.ndarray, elements: np.ndarray, tol: float
) -> tuple[np.ndarray, float]:
    """Warm-started, capped Blahut-Arimoto on the prior; returns it with its rate.

    The rows of the channel are divided by their sums, as
    ``joint_statistics`` does: a valid POVM keeps them only within its
    completeness tolerance of 1, while ``ClassicalChannel`` asks for 1e-10.
    """
    probs = _channel_probs(vectors, elements)
    res = blahut_arimoto(
        ClassicalChannel(probs / probs.sum(axis=1, keepdims=True)),
        tol=tol,
        max_iter=INNER_BA_CAP,
        base=LogBase.NATS,
        initial_prior=prior,
    )
    r = res.optimal_prior.probs
    return r, channel_mutual_information_nats(r, probs)


def _max_relative_entropy_states(
    q: np.ndarray,
    elements: np.ndarray,
    rng: np.random.Generator,
    n_init: int,
    extra_inits: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Search for pure states maximizing D(P(.|psi) || q), q held fixed.

    Every start repeatedly jumps to the top eigenvector of
    H = sum_j ln(p_j / q_j) Pi_j. D is convex in |psi><psi| and its
    gradient there is H plus the identity, so the jump maximizes a lower
    bound that is tight at the current state and never lowers D; it needs
    no step size. A start keeps its state when a jump would not raise D
    (outcomes with p_j = 0 are left out of H). ``extra_inits`` rows (e.g.
    the current ensemble) climb alongside ``n_init`` random starts. Stops
    when no start gains 1e-12 nats in a step, or after PROBE_MAX_STEPS
    steps. Returns the final vectors with their relative entropies (nats).
    """
    dim = elements.shape[1]
    vectors = rng.standard_normal((n_init, dim)) + 1j * rng.standard_normal((n_init, dim))
    if extra_inits is not None:
        vectors = np.concatenate([vectors, extra_inits])
    vectors = _normalize_rows(vectors)
    probs = _channel_probs(vectors, elements)
    vals = relative_entropy_rows(probs, q)
    for _ in range(PROBE_MAX_STEPS):
        h = np.einsum("sj,jdc->sdc", _log_ratio(probs, q), elements)
        trial = np.linalg.eigh(h)[1][:, :, -1]
        trial_probs = _channel_probs(trial, elements)
        trial_vals = relative_entropy_rows(trial_probs, q)
        up = trial_vals > vals
        gain = float(np.max(trial_vals - vals, initial=0.0))
        vectors[up], probs[up], vals[up] = trial[up], trial_probs[up], trial_vals[up]
        if gain < 1e-12:
            break
    return vectors, vals


@dataclass(frozen=True)
class _RestartOutcome:
    value_nats: float
    vectors: np.ndarray
    priors: np.ndarray
    iterations: int
    converged: bool
    history: tuple[float, ...]


def _run_restart(
    elements: np.ndarray,
    num_states: int,
    seed: int,
    restart_index: int,
    tol: float,
) -> _RestartOutcome:
    """One seeded column-generation run; deterministic given (seed, restart_index).

    Starts from ``num_states`` random states at a uniform prior and repeats
    rounds of polish, compact, refit and probe until the probe finds no
    pure state beating the rate by more than max(10*tol, 1e-9) nats, or
    ``MAX_ROUNDS`` rounds have run. The running value is exactly the
    mutual information of the current (vectors, priors) pair and does not
    decrease beyond roundoff: the polish and the refit are monotone, a
    violator joins only with a weight that raises the rate, and compaction
    drops members below ``PRUNE_TOL`` and folds copies that the polish has
    already driven together, which moves the rate at roundoff level.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(restart_index,)))
    dim = elements.shape[1]
    vectors = rng.standard_normal((num_states, dim)) + 1j * rng.standard_normal((num_states, dim))
    vectors = _normalize_rows(vectors)
    prior = np.full(num_states, 1.0 / num_states)
    value = channel_mutual_information_nats(prior, _channel_probs(vectors, elements))
    history = [value]
    # The refit leaves max_i D_i - I up to 0.1 * margin on the ensemble
    # itself, so only an excess clearly above that is evidence of a
    # violator.
    margin = max(10.0 * tol, 1e-9)
    n_probe = max(16, 8 * dim)
    element_seeds = np.linalg.eigh(elements)[1][:, :, -1]
    converged = False
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        vectors, prior, value = _polish(vectors, prior, elements)
        history.append(value)
        vectors, prior = _compact(vectors, prior)
        prior, value = _refit(vectors, prior, elements, 0.1 * margin)
        history.append(value)

        q = prior @ _channel_probs(vectors, elements)
        cand_vectors, cand_vals = _max_relative_entropy_states(
            q, elements, rng, n_probe, extra_inits=np.concatenate([vectors, element_seeds])
        )
        best = int(np.argmax(cand_vals))
        if cand_vals[best] <= value + margin:
            converged = True
            break
        vectors = np.concatenate([vectors, cand_vectors[best][None, :]])
        probs = _channel_probs(vectors, elements)
        for beta in 0.5 ** np.arange(1, 41):
            r = np.append((1.0 - beta) * prior, beta)
            rate = channel_mutual_information_nats(r, probs)
            if rate > value:
                prior, value = r, rate
                break
        else:
            # no weight on the violator raises the rate at double precision
            vectors = vectors[:-1]
            break
        history.append(value)
    return _RestartOutcome(
        value_nats=value,
        vectors=vectors,
        priors=prior,
        iterations=rounds,
        converged=converged,
        history=tuple(history),
    )


def _power_report(p: Povm, vectors: np.ndarray, prior: np.ndarray, base: LogBase, *,
                  converged: bool, iterations_used: int, fast_path_used: bool,
                  per_restart_values: tuple[float, ...] | None = None) -> PowerReport:
    """The report on the pure-state ensemble ``(vectors, prior)``, built here
    for both solver paths. W is recomputed from the ensemble itself, and
    ``per_restart_values`` defaults to that W."""
    ensemble = Ensemble.from_pure(prior, vectors)
    w = mutual_information(ensemble, p, base)
    m_eff = vectors.shape[0]
    return PowerReport(
        w_estimate=w,
        best_ensemble=ensemble,
        per_restart_values=(w,) if per_restart_values is None else per_restart_values,
        converged=converged,
        iterations_used=iterations_used,
        fast_path_used=fast_path_used,
        pruned_to=m_eff,
        bound_check=_bound_check(p, m_eff),
        base=base,
    )


def see_saw_power(p: Povm, cfg: SolverConfig | None = None, jobs: int = 1) -> PowerReport:
    """Generic multistart column-generation estimate of W(Pi).

    The name is kept from the see-saw solver this replaced. Runs
    ``cfg.restarts`` independently seeded restarts (optionally on a
    process pool; results are identical for any ``jobs``), keeps the best,
    compacts its ensemble, and reports the recomputed mutual information
    of the final ensemble. Restarts differ in their starting ensembles and
    in the random starts of the violator search, the one non-convex step.

    ``converged`` reflects the winning restart: True when no pure state
    beats the dual optimality bound at its output distribution by more
    than the certificate margin (max(10*tol, 1e-9) nats), False when it
    stopped before that certificate. ``iterations_used`` counts its
    column-generation rounds.
    """
    cfg = cfg or SolverConfig()
    m = cfg.resolved_num_states(p.dim)
    columns = (repeat(p.elements), repeat(m), repeat(cfg.seed), range(cfg.restarts), repeat(cfg.tol))
    if jobs > 1:
        # imported here: the pool machinery costs about 2 MB of resident
        # memory, which callers on one process never need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_restart, *columns))
    else:
        outcomes = list(map(_run_restart, *columns))

    values = [o.value_nats for o in outcomes]
    best = outcomes[int(np.argmax(values))]
    vectors, prior = _compact(best.vectors, best.priors)
    return _power_report(p, vectors, prior, cfg.base, converged=best.converged,
                         iterations_used=best.iterations, fast_path_used=False,
                         per_restart_values=tuple(cfg.base.from_nats(v) for v in values))


def commuting_fast_path(p: Povm, tol: float = 1e-12, base: LogBase = LogBase.BITS) -> PowerReport:
    """Exact W for POVMs with commuting elements.

    A maximally informative ensemble lives on the common eigenbasis, so
    the problem reduces to the classical channel p(j|i) = <i|Pi_j|i> and a
    single Blahut-Arimoto run is exact to its tolerance (``tol``, in
    ``base``). The reported ensemble is the support of that run's prior:
    the eigenvectors with a positive weight. The elements count as
    commuting when the eigenbasis of a fixed random combination of them
    leaves no off-diagonal entry above ``linalg.COMMUTING_TOL`` (1e-10) in
    any element; otherwise this raises NotCommuting.
    """
    basis = linalg.simultaneous_eigenbasis(p.elements)
    probs = _channel_probs(basis.T, p.elements)
    # rows sum to 1 only within the POVM's completeness tolerance (see _refit)
    probs /= probs.sum(axis=1, keepdims=True)
    res = blahut_arimoto(ClassicalChannel(probs), tol=tol, base=base)
    prior = res.optimal_prior.probs
    support = prior > 0
    return _power_report(p, basis.T[support], prior[support], base, converged=res.converged,
                         iterations_used=res.iterations, fast_path_used=True)


def informational_power(p: Povm, cfg: SolverConfig | None = None, jobs: int = 1) -> PowerReport:
    """W(Pi): dispatches to the commuting fast path when applicable.

    Commuting elements admit an exact solution on their common
    eigenbasis. The fast path decides "commuting" itself: the eigenbasis
    of a fixed random combination of the elements must leave no
    off-diagonal entry above 1e-10 in any of them. On NotCommuting the
    multistart generic solver runs; a commuting POVM whose combination
    happens to be nearly degenerate also lands there and is solved more
    slowly, under the generic solver's certificate.
    """
    cfg = cfg or SolverConfig()
    try:
        return commuting_fast_path(p, tol=min(INNER_BA_TOL, cfg.tol), base=cfg.base)
    except NotCommuting:
        return see_saw_power(p, cfg, jobs=jobs)


def state_gradient(e: Ensemble, p: Povm) -> list[np.ndarray]:
    """Tangent gradient of the mutual information at a pure-state ensemble.

    For member i the Euclidean gradient is
    g_i = 2 p_i sum_j ln(p(j|i)/q_j) Pi_j |psi_i>, projected onto the
    tangent space of the unit sphere: g_i - Re<psi_i|g_i> |psi_i>.
    Probabilities are clamped at 1e-300 and zero-probability outcomes
    contribute nothing. Raises on mixed-state members.
    """
    if e.dim != p.dim:
        raise ValueError(f"ensemble dim {e.dim} vs POVM dim {p.dim}")
    vectors = _pure_vectors(e)
    probs = _channel_probs(vectors, p.elements)
    g = _mi_gradient(vectors, e.priors, p.elements, probs)
    return [g[i] for i in range(g.shape[0])]


def _pure_vectors(e: Ensemble, tol: float = 1e-8) -> np.ndarray:
    """Extract amplitude vectors from rank-1 members; error on mixed ones."""
    vectors = []
    for i, s in enumerate(e.states):
        w, v = linalg.eigh(s.matrix)
        if w[-1] < 1.0 - tol:
            raise ValueError(
                f"ensemble member {i} is mixed (top eigenvalue {w[-1]!r}); pure states required"
            )
        vectors.append(v[:, -1])
    return np.stack(vectors)


def additivity_check(p1: Povm, p2: Povm, cfg: SolverConfig | None = None) -> AdditivityReport:
    """Compare W(Pi1 (x) Pi2) against W(Pi1) + W(Pi2); theory: equal."""
    from .objects import tensor_povm

    cfg = cfg or SolverConfig()
    r1 = informational_power(p1, cfg)
    r2 = informational_power(p2, cfg)
    r12 = informational_power(tensor_povm(p1, p2), cfg)
    return AdditivityReport(
        w1=r1.w_estimate,
        w2=r2.w_estimate,
        w12=r12.w_estimate,
        gap=r12.w_estimate - (r1.w_estimate + r2.w_estimate),
    )
