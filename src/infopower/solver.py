"""Informational power W(Pi) = max over ensembles of I(R, Pi).

W is the capacity of the quantum-classical channel psi -> P(.|psi), so it
also has the dual form W = min_q max_psi D(P(.|psi) || q). The generic
path is column generation over the input alphabet (Blahut 1972; Arimoto
1972), dual to the state-update iteration for accessible information of
Rehacek, Englert and Kaszlikowski (PRA 2005). Each multistart restart
keeps a finite ensemble of pure states and repeats one round:

1. polish: L-BFGS ascent of I, with analytic gradients, over the vectors
   u_i = sqrt(r_i) psi_i, whose outer products sum to the average state;
   every member has about the same curvature there, whatever its prior;
2. compact: drop negligible-prior members and fold duplicates;
3. refit: one warm-started, capped Blahut-Arimoto run on the prior;
4. probe: search for a pure state whose relative entropy to the output
   distribution q beats the rate. When none does by more than a small
   margin, the dual bound certifies the rate; otherwise the best violator
   joins the ensemble with a weight that raises the rate.

The dual bound certifies a rate whichever restart produced it, so the
restarts run one at a time and stop at the first that certifies; the
best rate among those that ran is kept. Restart k's run depends on
(seed, k) alone.

POVMs with commuting elements skip all of this: the optimum is achieved on
the common eigenbasis, so a single Blahut-Arimoto run is exact.

Before the restarts, ``informational_power`` tries one probe at the output
q0_j = Tr(Pi_j)/D of the maximally mixed average. Its maxima, folded and
weighted by Blahut-Arimoto, certify W when their rate comes within the
margin of the probed maximum, which bounds W from above by the dual form.
That happens when symmetry makes q0 the optimal output (SICs, the trine,
their tensor powers); on other POVMs the probe fails and the restarts run.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotCommuting
from .information import (
    _TINY,
    _log_ratio,
    LN2,
    LogBase,
    blahut_arimoto,
    channel_mutual_information_nats,
    ClassicalChannel,
    mutual_information,
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
    The commuting fast path reads it in bits instead: it stops at
    min(1e-12, tol) bits in either ``base``.
    ``restarts`` is an upper bound: the restarts run one at a time and
    stop at the first that certifies. Each restart starts from D^2 random
    pure states (the Davies bound), runs at most ``MAX_ROUNDS``
    column-generation rounds, and compaction drops ensemble members below
    ``PRUNE_TOL``.
    """

    restarts: int = 20
    tol: float = 1e-9
    seed: int = 0
    base: LogBase = LogBase.BITS

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    """Outcome probabilities <psi_i|Pi_j|psi_i> for unit row vectors, as
    one real product of the rows of |psi_i><psi_i| against the elements."""
    n, dim, _ = elements.shape
    outer = np.ascontiguousarray(vectors.conj()[:, :, None] * vectors[:, None, :]).reshape(-1, dim * dim)
    layout = np.ascontiguousarray(elements.reshape(n, dim * dim).conj())
    return np.clip(outer.view(float) @ layout.view(float).T, 0.0, 1.0)


def _weighted_elements(lr: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """H_i = sum_j lr_ij Pi_j for every row of ``lr``, as one real product
    against the elements flattened to (N, 2*D*D)."""
    n, dim, _ = elements.shape
    flat = np.ascontiguousarray(elements).reshape(n, dim * dim)
    return (lr @ flat.view(float)).view(complex).reshape(-1, dim, dim)


def _mi_gradient(vectors: np.ndarray, prior: np.ndarray, elements: np.ndarray,
                 lr: np.ndarray) -> np.ndarray:
    """Tangent gradient of I w.r.t. the state vectors (m, D), priors fixed;
    ``lr`` is the log-ratio ln(p_ij / q_j) at the states."""
    hv = (_weighted_elements(lr, elements) @ vectors[:, :, None])[:, :, 0]
    g = 2.0 * prior[:, None] * hv
    radial = np.sum(np.real(vectors.conj() * g), axis=1)
    return g - radial[:, None] * vectors


def _lbfgs_direction(g: np.ndarray, pairs: list[tuple[np.ndarray, np.ndarray, float]]) -> np.ndarray:
    """The L-BFGS two-loop direction at gradient ``g`` from ``pairs``, the
    newest curvature pairs (s, y, 1/s.y), oldest first. With no pairs the
    direction is g scaled down to at most unit length."""
    if not pairs:
        return g / max(1.0, np.sqrt(g @ g))
    d = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alphas.append(rho * (s @ d))
        d -= alphas[-1] * y
    s, y, _ = pairs[-1]
    d *= (s @ y) / (y @ y)
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        d -= (rho * (y @ d) - alpha) * s
    return d


def _lbfgs_ascent(
    fg: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, float]:
    """Maximize f from ``x`` by L-BFGS with Armijo backtracking.

    ``fg(x)`` returns ``(f, grad f)``. Curvature pairs are kept only when
    s.y > 0, so that the direction ascends wherever the gradient is
    nonzero. Only steps that raise f are taken, so f at the returned point
    is never below f at the start. The ascent stops after ``max_iter``
    steps, or when no step along the direction raises f within 40
    halvings, which at the end happens at the double-precision resolution
    of f. Returns the final point and f there.
    """
    f, g = fg(x)
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    d = _lbfgs_direction(g, pairs)
    slope = g @ d
    for _ in range(max_iter):
        if slope <= 0.0:
            break
        for step in 0.5 ** np.arange(40):
            x_new = x + step * d
            f_new, g_new = fg(x_new)
            if f_new > f + 1e-4 * step * slope:
                break
        else:
            break
        s, y = x_new - x, g - g_new
        sy = s @ y
        if sy > 0.0:
            pairs = [*pairs, (s, y, 1.0 / sy)][-LBFGS_MEMORY:]
        x, f, g = x_new, f_new, g_new
        d = _lbfgs_direction(g, pairs)
        slope = g @ d
    return x, f


def _polish_point(x: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states u_i/|u_i|, priors |u_i|^2 / sum_k |u_k|^2 and norms |u_i|
    of the ensemble u_i = sqrt(r_i) psi_i held as a real view in ``x``."""
    u = x.view(complex).reshape(-1, dim)
    norms = np.linalg.norm(u, axis=1)
    return u / norms[:, None], norms**2 / np.sum(norms**2), norms


def _polish_fg(x: np.ndarray, elements: np.ndarray) -> tuple[float, np.ndarray]:
    """I and its gradient at ``x``: along u_i the gradient is
    (t_i + 2 r_i (D_i - I) psi_i) / |u_i|, with t_i the tangent state
    gradient and D_i = D(p(.|i) || q). The second term, equal to
    2 (D_i - I) u_i / sum_k |u_k|^2, comes from the prior. The gradient is
    orthogonal to ``x``, as I does not change with the scale of u."""
    v, r, norms = _polish_point(x, elements.shape[1])
    probs = _channel_probs(v, elements)
    lr = _log_ratio(probs, r @ probs)
    d = np.sum(probs * lr, axis=1)
    value = r @ d
    radial = 2.0 * r * (d - value)
    g = (_mi_gradient(v, r, elements, lr) + radial[:, None] * v) / norms[:, None]
    return value, g.view(float).ravel()


def _polish(
    vectors: np.ndarray, prior: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Ascent of I over the ensemble ``vectors`` (m, D), ``prior`` (m,),
    in u_i = sqrt(r_i) psi_i.

    Over prior logits the curvature of member i scales with r_i; in u it
    is about 1/sum_k |u_k|^2 for every member, so one L-BFGS scale fits
    light and heavy members alike. A zero prior starts at sqrt(_TINY).
    Returns the states, the priors and their rate, which is never below
    the starting rate.
    """
    x0 = (np.sqrt(np.maximum(prior, _TINY))[:, None] * vectors).view(float).ravel()
    x, value = _lbfgs_ascent(lambda x: _polish_fg(x, elements), x0, POLISH_MAX_ITER)
    v, r, _ = _polish_point(x, vectors.shape[1])
    return v, r, float(value)


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


def _stochastic(probs: np.ndarray) -> ClassicalChannel:
    """The channel with rows ``probs`` divided by their sums, as
    ``joint_statistics`` does: a valid POVM keeps the sums only within its
    completeness tolerance of 1, while ``ClassicalChannel`` asks for 1e-10."""
    return ClassicalChannel(probs / probs.sum(axis=1, keepdims=True))


def _refit(probs: np.ndarray, prior: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Warm-started, capped Blahut-Arimoto on the prior of the channel
    ``probs``; returns the prior with its rate."""
    res = blahut_arimoto(_stochastic(probs), tol=tol, max_iter=INNER_BA_CAP, base=LogBase.NATS,
                         initial_prior=prior)
    r = res.optimal_prior.probs
    return r, channel_mutual_information_nats(r, probs)


def _max_relative_entropy_states(
    q: np.ndarray,
    elements: np.ndarray,
    rng: np.random.Generator,
    n_init: int,
    extra: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search for pure states maximizing D(P(.|psi) || q), q held fixed.

    Every start repeatedly jumps to the top eigenvector of
    H = sum_j ln(p_j / q_j) Pi_j. D is convex in |psi><psi| and its
    gradient there is H plus the identity, so the jump maximizes a lower
    bound that is tight at the current state and never lowers D; it needs
    no step size. A start keeps its state when a jump would not raise D
    (outcomes with p_j = 0 are left out of H). The starts are, in order,
    ``n_init`` random states drawn from ``rng``, the rows of ``extra``
    (e.g. the current ensemble) and the top eigenvector of each element;
    without the last, random starts alone can miss a violator and let a
    rate below W certify. The starts step together, for
    at most PROBE_MAX_STEPS steps, and each start leaves on its own:
    - when its jump gains less than 1e-12 nats (a positive gain is kept);
    - when, after a step, its state overlaps a live start with a higher
      value (on a tie, a lower index) by more than 1 - MERGE_OVERLAP_TOL,
      the fold test of ``_compact``: the two climb the same hill, so only
      the better one goes on.
    Returns every start's final vector with its outcome probabilities and
    relative entropy (nats).
    """
    dim = elements.shape[1]
    v = rng.standard_normal((n_init, dim)) + 1j * rng.standard_normal((n_init, dim))
    tops = np.linalg.eigh(elements)[1][:, :, -1]
    vectors = _normalize_rows(np.concatenate([v, tops] if extra is None else [v, extra, tops]))
    probs = _channel_probs(vectors, elements)
    lr = _log_ratio(probs, q)
    vals = np.sum(probs * lr, axis=1)
    live = np.arange(len(vectors))
    for _ in range(PROBE_MAX_STEPS):
        trial = np.linalg.eigh(_weighted_elements(lr[live], elements))[1][:, :, -1]
        trial_probs = _channel_probs(trial, elements)
        trial_lr = _log_ratio(trial_probs, q)
        trial_vals = np.sum(trial_probs * trial_lr, axis=1)
        gain = trial_vals - vals[live]
        up = gain > 0.0
        moved = live[up]
        vectors[moved], probs[moved], lr[moved] = trial[up], trial_probs[up], trial_lr[up]
        vals[moved] = trial_vals[up]
        live = _unmerged(live[gain >= 1e-12], vectors, vals)
        if not live.size:
            break
    return vectors, probs, vals


def _unmerged(live: np.ndarray, vectors: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The sorted start indices ``live`` without each start that overlaps a
    better one by more than 1 - MERGE_OVERLAP_TOL; of equal values the
    lower index is better."""
    v, val = vectors[live], vals[live]
    close = np.abs(v.conj() @ v.T) ** 2 > 1.0 - MERGE_OVERLAP_TOL
    better = (val[None, :] > val[:, None]) | (
        (val[None, :] == val[:, None]) & (live[None, :] < live[:, None]))
    return live[~np.any(close & better, axis=1)]


@dataclass(frozen=True)
class _RestartOutcome:
    value_nats: float
    vectors: np.ndarray
    priors: np.ndarray
    iterations: int
    converged: bool


def _run_restart(elements: np.ndarray, seed: int, index: int, tol: float) -> _RestartOutcome:
    """One seeded column-generation run, deterministic given (seed, index).

    It starts from D^2 random states (the Davies bound) at a uniform prior
    and repeats rounds of polish, compact, refit and probe until the probe
    finds no pure state beating the rate by more than max(10*tol, 1e-9)
    nats, until no weight on the probe's best violator raises the rate, or
    until ``MAX_ROUNDS`` rounds have run. The running value is exactly the
    mutual information of the current (vectors, prior) pair and does not
    decrease beyond roundoff: the polish and the refit are monotone, a
    violator joins only with a weight that raises the rate, and compaction
    drops members below ``PRUNE_TOL`` and folds copies that the polish has
    already driven together, which moves the rate at roundoff level. Each
    probe starts from the current ensemble besides its random starts.
    """
    dim = elements.shape[1]
    # The refit leaves max_i D_i - I up to 0.1 * margin on the ensemble
    # itself, so only an excess clearly above that is evidence of a
    # violator.
    margin = max(10.0 * tol, 1e-9)
    n_probe = max(16, 8 * dim)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    m = dim * dim
    vectors = _normalize_rows(rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim)))
    prior = np.full(m, 1.0 / m)
    converged = False
    for round_ in range(1, MAX_ROUNDS + 1):
        vectors, prior, value = _polish(vectors, prior, elements)
        vectors, prior = _compact(vectors, prior)
        probs = _channel_probs(vectors, elements)
        prior, value = _refit(probs, prior, 0.1 * margin)
        cand_vectors, cand_probs, cand_vals = _max_relative_entropy_states(
            prior @ probs, elements, rng, n_probe, vectors)
        best = int(np.argmax(cand_vals))
        if cand_vals[best] <= value + margin:
            converged = True
            break
        joined = np.concatenate([probs, cand_probs[best][None, :]])
        for beta in 0.5 ** np.arange(1, 41):
            r = np.append((1.0 - beta) * prior, beta)
            rate = channel_mutual_information_nats(r, joined)
            if rate > value:
                vectors = np.concatenate([vectors, cand_vectors[best][None, :]])
                prior, value = r, rate
                break
        else:
            break  # no weight on the violator raises the rate at double precision
    return _RestartOutcome(value_nats=value, vectors=vectors, priors=prior, iterations=round_,
                           converged=converged)


def _power_report(p: Povm, vectors: np.ndarray, prior: np.ndarray, base: LogBase, *,
                  converged: bool, iterations_used: int, fast_path_used: bool,
                  per_restart_values: tuple[float, ...] | None = None) -> PowerReport:
    """The report on the members of the pure-state ensemble
    ``(vectors, prior)`` with a positive prior, built here for all three
    solver paths. W is recomputed from that ensemble, and
    ``per_restart_values`` defaults to that W."""
    vectors, prior = vectors[prior > 0], prior[prior > 0]
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


def see_saw_power(p: Povm, cfg: SolverConfig | None = None) -> PowerReport:
    """Generic multistart column-generation estimate of W(Pi).

    The name is kept from the see-saw solver this replaced. Runs restarts
    0, 1, ... one at a time and stops at the first that certifies, after
    at most ``cfg.restarts`` of them; the best of those that ran is kept.
    Its ensemble is compacted, its prior refit to ``INNER_BA_TOL`` (the
    rounds stop at 0.1 * margin), and the report gives the recomputed
    mutual information of the members the refit keeps. Restarts differ in
    their starting ensembles and in the random starts of the violator
    search, the one non-convex step. The result depends on (seed,
    restarts) alone.

    ``converged`` is True when some restart that ran certified: no pure
    state beats the dual optimality bound at its output distribution by
    more than the certificate margin (max(10*tol, 1e-9) nats), which
    bounds W by that restart's rate plus the margin, and so by the kept
    rate plus the margin. ``iterations_used`` counts the kept restart's
    column-generation rounds. ``per_restart_values`` holds the value of
    every restart that ran.
    """
    cfg = cfg or SolverConfig()
    outcomes = []
    for k in range(cfg.restarts):
        outcomes.append(_run_restart(p.elements, cfg.seed, k, cfg.tol))
        if outcomes[-1].converged:
            break
    values = [o.value_nats for o in outcomes]
    best = outcomes[int(np.argmax(values))]
    vectors, prior = _compact(best.vectors, best.priors)
    prior, _ = _refit(_channel_probs(vectors, p.elements), prior, INNER_BA_TOL)
    return _power_report(p, vectors, prior, cfg.base,
                         converged=any(o.converged for o in outcomes),
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
    res = blahut_arimoto(_stochastic(_channel_probs(basis.T, p.elements)), tol=tol, base=base)
    return _power_report(p, basis.T, res.optimal_prior.probs, base, converged=res.converged,
                         iterations_used=res.iterations, fast_path_used=True)


def _symmetric_power(p: Povm, cfg: SolverConfig) -> PowerReport | None:
    """W certified with one probe at the maximally mixed output, or None.

    The dual form gives W <= M0 = max_psi D(P(.|psi) || q0) for any q0,
    here q0_j = Tr(Pi_j)/D, the output of the ensemble with average I/D.
    The probe's maxima within the certificate margin of the best value
    M0, folded with ``_compact``, are the input alphabet of one capped
    Blahut-Arimoto run; its rate is the mutual information of an ensemble,
    so at most W. When M0 - rate is within the margin, W is certified to
    that margin, with the same heuristic probe as the generic path. The
    test passes when the capacity-achieving output is q0, as it is for a
    POVM covariant under a group acting irreducibly on C^D (SICs, the
    trine, their tensor powers); the group is never needed. Otherwise this
    returns None and costs one failed probe. The report counts one
    iteration and one value.
    """
    elements, dim = p.elements, p.dim
    margin = max(10.0 * cfg.tol, 1e-9)
    q0 = np.trace(elements, axis1=1, axis2=2).real / dim
    # The root of the seed's sequence: restart k draws from its child (k,).
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    vectors, _, vals = _max_relative_entropy_states(q0, elements, rng, max(64, 8 * dim * dim))
    best = float(vals.max())
    near = vals >= best - margin
    vectors, _ = _compact(vectors[near], np.full(np.count_nonzero(near), 1.0))
    m = len(vectors)
    r, rate = _refit(_channel_probs(vectors, elements), np.full(m, 1.0 / m), 0.1 * margin)
    if best - rate > margin:
        return None
    return _power_report(p, vectors, r, cfg.base, converged=True, iterations_used=1,
                         fast_path_used=False)


def informational_power(p: Povm, cfg: SolverConfig | None = None, jobs: int = 1) -> PowerReport:
    """W(Pi): the commuting fast path, else the symmetric certificate, else
    the generic solver.

    Commuting elements admit an exact solution on their common
    eigenbasis. The fast path decides "commuting" itself: the eigenbasis
    of a fixed random combination of the elements must leave no
    off-diagonal entry above 1e-10 in any of them. On NotCommuting one
    probe at the maximally mixed output tries to certify W directly
    (``_symmetric_power``); when that fails, the multistart generic solver
    runs. A commuting POVM whose combination happens to be nearly
    degenerate also lands past the fast path and is solved more slowly,
    under one of the other two certificates. The fast path stops at
    min(INNER_BA_TOL, cfg.tol) bits whatever ``cfg.base``, so a report in
    nats is the report in bits converted. ``jobs`` is accepted for
    compatibility and has no effect.
    """
    cfg = cfg or SolverConfig()
    unit_per_bit = LN2 if cfg.base is LogBase.NATS else 1.0
    try:
        return commuting_fast_path(p, tol=min(INNER_BA_TOL, cfg.tol) * unit_per_bit, base=cfg.base)
    except NotCommuting:
        return _symmetric_power(p, cfg) or see_saw_power(p, cfg)


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
    g = _mi_gradient(vectors, e.priors, p.elements, _log_ratio(probs, e.priors @ probs))
    return [g[i] for i in range(g.shape[0])]


def _pure_vectors(e: Ensemble, tol: float = 1e-8) -> np.ndarray:
    """Extract amplitude vectors from rank-1 members; error on mixed ones."""
    w, v = linalg.eigh(e.states)
    mixed = w[:, -1] < 1.0 - tol
    if mixed.any():
        i = int(mixed.argmax())
        raise ValueError(f"ensemble member {i} is mixed (top eigenvalue {float(w[i, -1])!r}); pure states required")
    return v[:, :, -1]


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
