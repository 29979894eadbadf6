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

The dual bound certifies a rate whichever restart produced it, so
restart 0 runs alone first, and its result is the answer when it
certifies. Only when it ends uncertified do the other restarts run, in
lockstep in one process: each round polishes and probes all running
restarts together, stacked on a leading axis, and a restart leaves as
soon as it stops. No restart's arithmetic depends on which others run
beside it.

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

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotCommuting
from .information import (
    _TINY,
    _log_ratio,
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
    ``restarts`` is an upper bound: restarts 1..restarts-1 run only when
    restart 0 ends uncertified. Each restart starts from D^2 random pure
    states (the Davies bound), runs at most ``MAX_ROUNDS``
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
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol!r}")
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot product of each row of ``a`` with the same row of ``b``."""
    return np.einsum("ij,ij->i", a, b)


def _row_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2-D ``a``, where no row's result depends on how many
    rows share the call. numpy hands a one-row product to gemv, which sums
    in another order than gemm, so a single row goes through doubled. The
    BLAS also picks its gemm kernel by the size of the product, and the
    kernels sum alike only when ``b`` is in C order with whole groups of 8
    columns, so ``b`` goes in as such a copy, padded with zero columns."""
    rows, cols = len(a), b.shape[1]
    padded = np.zeros((b.shape[0], -(-cols // 8) * 8))
    padded[:, :cols] = b
    if rows == 1:
        a = np.concatenate([a, a])
    return (a @ padded)[:rows, :cols]


def _channel_probs(vectors: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Outcome probabilities <psi_i|Pi_j|psi_i> for unit row vectors, as
    one real product of the rows of |psi_i><psi_i| against the elements; a
    stack (..., m, D) of ensembles goes through as one block of rows."""
    n, dim, _ = elements.shape
    flat = vectors.reshape(-1, dim)
    outer = np.ascontiguousarray(flat.conj()[:, :, None] * flat[:, None, :]).reshape(-1, dim * dim)
    layout = np.ascontiguousarray(elements.reshape(n, dim * dim).conj())
    probs = _row_product(outer.view(float), layout.view(float).T)
    return np.clip(probs, 0.0, 1.0).reshape(*vectors.shape[:-1], n)


def _weighted_elements(lr: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """H_i = sum_j lr_ij Pi_j for every row of ``lr`` (any leading shape),
    as one real product against the elements flattened to (N, 2*D*D)."""
    n, dim, _ = elements.shape
    flat = np.ascontiguousarray(elements).reshape(n, dim * dim)
    h = _row_product(lr.reshape(-1, n), flat.view(float))
    return h.view(complex).reshape(*lr.shape[:-1], dim, dim)


def _mi_gradient(vectors: np.ndarray, prior: np.ndarray, elements: np.ndarray,
                 lr: np.ndarray) -> np.ndarray:
    """Tangent gradient of I w.r.t. the state vectors, priors fixed; ``lr``
    is the log-ratio ln(p_ij / q_j) at the states. Takes one ensemble,
    (m, D), or a stack of them, (R, m, D)."""
    hv = (_weighted_elements(lr, elements) @ vectors[..., None])[..., 0]
    g = 2.0 * prior[..., None] * hv
    radial = np.sum(np.real(vectors.conj() * g), axis=-1)
    return g - radial[..., None] * vectors


def _lbfgs_direction(g: np.ndarray, s_mem: np.ndarray, y_mem: np.ndarray, rho: np.ndarray,
                     held: np.ndarray) -> np.ndarray:
    """The L-BFGS two-loop direction for every row of ``g``.

    Row r holds its ``held[r]`` newest curvature pairs in the last slots
    of ``s_mem[:, r]``, ``y_mem[:, r]`` and ``rho[:, r]``, oldest first.
    The slots before them are zero, so the updates they would make are
    exact no-ops and a row's direction does not depend on the other rows.
    With no pairs the direction is g scaled down to at most unit length.
    """
    d = g.copy()
    slots = range(LBFGS_MEMORY - int(held.max()), LBFGS_MEMORY)
    alphas = {}
    for j in reversed(slots):
        alphas[j] = rho[j] * _rowdot(s_mem[j], d)[:, None]
        d -= alphas[j] * y_mem[j]
    s, y, some = s_mem[-1], y_mem[-1], (held > 0)[:, None]
    gamma = _rowdot(s, y)[:, None] / np.where(some, _rowdot(y, y)[:, None], 1.0)
    d = np.where(some, d * gamma, d / np.maximum(1.0, np.linalg.norm(g, axis=1))[:, None])
    for j in slots:
        d -= (rho[j] * _rowdot(y_mem[j], d)[:, None] - alphas[j]) * s_mem[j]
    return d


def _lbfgs_ascent(
    fg: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximize f from every row of ``x`` by L-BFGS with Armijo backtracking.

    The rows are independent problems run in lockstep: ``fg(x)`` returns
    ``(f, grad f)`` row by row for any subset of the rows, and each tick
    evaluates one trial point per live row. Each row keeps its own
    curvature pairs, kept only when s.y > 0 so that the direction ascends
    wherever the gradient is nonzero, and backtracks on its own. Only
    steps that raise f are taken, so f at a returned row is never below f
    at its start. A row stops after ``max_iter`` steps, or when no step
    along its direction raises f within 40 halvings, which at the end
    happens at the double-precision resolution of f; a stopped row is
    never evaluated again. Returns the final points and f there.
    """
    x, x_end, f_end = x.copy(), np.empty_like(x), np.empty(len(x))
    f, g = fg(x)
    at = np.arange(len(x))  # the row of x that each live row came from
    s_mem = np.zeros((LBFGS_MEMORY, *x.shape))
    y_mem = np.zeros((LBFGS_MEMORY, *x.shape))
    rho = np.zeros((LBFGS_MEMORY, len(x), 1))
    held, steps, halvings = (np.zeros(len(x), dtype=int) for _ in range(3))
    step = np.ones(len(x))
    d = _lbfgs_direction(g, s_mem, y_mem, rho, held)
    slope = _rowdot(g, d)
    stop = (slope <= 0.0) | (max_iter <= 0)
    while True:
        if stop.any():
            x_end[at[stop]], f_end[at[stop]] = x[stop], f[stop]
            go = ~stop
            if not go.any():
                return x_end, f_end
            at, x, f, g, d, slope, step, held, steps, halvings = (
                a[go] for a in (at, x, f, g, d, slope, step, held, steps, halvings))
            s_mem, y_mem, rho = s_mem[:, go], y_mem[:, go], rho[:, go]
        x_new = x + step[:, None] * d
        f_new, g_new = fg(x_new)
        ok = f_new > f + 1e-4 * step * slope
        s, y = x_new - x, g - g_new
        sy = _rowdot(s, y)
        pair = ok & (sy > 0.0)
        for mem, new in ((s_mem, s[pair]), (y_mem, y[pair]), (rho, 1.0 / sy[pair, None])):
            mem[:-1, pair] = mem[1:, pair]
            mem[-1, pair] = new
        held = np.minimum(held + pair, LBFGS_MEMORY)
        np.copyto(x, x_new, where=ok[:, None])
        np.copyto(f, f_new, where=ok)
        np.copyto(g, g_new, where=ok[:, None])
        steps += ok
        halvings = np.where(ok, 0, halvings + 1)
        step = np.where(ok, 1.0, step * 0.5)
        stop = np.where(ok, steps >= max_iter, halvings >= 40)
        if ok.any():
            np.copyto(d, _lbfgs_direction(g, s_mem, y_mem, rho, held), where=ok[:, None])
            np.copyto(slope, _rowdot(g, d), where=ok)
            stop |= slope <= 0.0


def _polish_point(x: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The states u_i/|u_i|, priors |u_i|^2 / sum_k |u_k|^2 and norms |u_i|
    of the ensembles u_i = sqrt(r_i) psi_i held as real views in ``x``."""
    u = x.view(complex).reshape(len(x), -1, dim)
    norms = np.linalg.norm(u, axis=2)
    return u / norms[..., None], norms**2 / np.sum(norms**2, axis=1, keepdims=True), norms


def _polish_fg(x: np.ndarray, elements: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """I and its gradient at every row of ``x``: along u_i the gradient is
    (t_i + 2 r_i (D_i - I) psi_i) / |u_i|, with t_i the tangent state
    gradient and D_i = D(p(.|i) || q). The second term, equal to
    2 (D_i - I) u_i / sum_k |u_k|^2, comes from the prior. The gradient is
    orthogonal to each row, as I does not change with the scale of u."""
    v, r, norms = _polish_point(x, elements.shape[1])
    probs = _channel_probs(v, elements)
    lr = _log_ratio(probs, (r[:, None, :] @ probs)[:, 0])
    d = np.sum(probs * lr, axis=2)
    value = (r[:, None, :] @ d[:, :, None])[:, 0, 0]
    radial = 2.0 * r * (d - value[:, None])
    g = (_mi_gradient(v, r, elements, lr) + radial[..., None] * v) / norms[..., None]
    return value, g.view(float).reshape(len(x), -1)


def _polish(
    vectors: np.ndarray, prior: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint ascent of I over a stack of ensembles of equal size,
    ``vectors`` (R, m, D) and ``prior`` (R, m), in u_i = sqrt(r_i) psi_i.

    Over prior logits the curvature of member i scales with r_i; in u it
    is about 1/sum_k |u_k|^2 for every member, so one L-BFGS scale per row
    fits light and heavy members alike. A zero prior starts at
    sqrt(_TINY). Returns the states, the priors and their rates, shape
    (R,); each rate is never below its starting rate, and each ensemble's
    result does not depend on the others in the stack.
    """
    rows, _, dim = vectors.shape
    x0 = (np.sqrt(np.maximum(prior, _TINY))[..., None] * vectors).view(float).reshape(rows, -1)
    x, value = _lbfgs_ascent(lambda x: _polish_fg(x, elements), x0, POLISH_MAX_ITER)
    v, r, _ = _polish_point(x, dim)
    return v, r, value


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
    rngs: list[np.random.Generator],
    n_init: int,
    extra_inits: list[np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Search for pure states maximizing D(P(.|psi) || q_k), q held fixed,
    once for every row q_k of ``q``.

    Every start repeatedly jumps to the top eigenvector of
    H = sum_j ln(p_j / q_j) Pi_j. D is convex in |psi><psi| and its
    gradient there is H plus the identity, so the jump maximizes a lower
    bound that is tight at the current state and never lowers D; it needs
    no step size. A start keeps its state when a jump would not raise D
    (outcomes with p_j = 0 are left out of H). Search k draws ``n_init``
    random starts from ``rngs[k]``, and the rows of ``extra_inits[k]``
    (e.g. the current ensemble) climb alongside them. The starts of all
    searches step together, for at most PROBE_MAX_STEPS steps, and each
    start leaves on its own:
    - when its jump gains less than 1e-12 nats (a positive gain is kept);
    - when, after a step, its state overlaps a live start of its own
      search with a higher value (on a tie, a lower index) by more than
      1 - MERGE_OVERLAP_TOL, the fold test of ``_compact``: the two climb
      the same hill, so only the better one goes on.
    Both rules look only at the start's own search, so no search depends
    on the others beside it. Returns, per search, every start's final
    vector with its outcome probabilities and relative entropy (nats).
    """
    dim = elements.shape[1]
    starts = []
    for rng, extra in zip(rngs, extra_inits):
        v = rng.standard_normal((n_init, dim)) + 1j * rng.standard_normal((n_init, dim))
        starts.append(np.concatenate([v, extra]))
    sizes = np.array([len(s) for s in starts])
    owner = np.repeat(np.arange(len(starts)), sizes)
    vectors = _normalize_rows(np.concatenate(starts))
    q_rows = q[owner]
    probs = _channel_probs(vectors, elements)
    lr = _log_ratio(probs[:, None, :], q_rows)[:, 0]
    vals = np.sum(probs * lr, axis=1)
    live = np.arange(len(vectors))
    for _ in range(PROBE_MAX_STEPS):
        trial = np.linalg.eigh(_weighted_elements(lr[live], elements))[1][:, :, -1]
        trial_probs = _channel_probs(trial, elements)
        trial_lr = _log_ratio(trial_probs[:, None, :], q_rows[live])[:, 0]
        trial_vals = np.sum(trial_probs * trial_lr, axis=1)
        gain = trial_vals - vals[live]
        up = gain > 0.0
        moved = live[up]
        vectors[moved], probs[moved], lr[moved] = trial[up], trial_probs[up], trial_lr[up]
        vals[moved] = trial_vals[up]
        live = _unmerged(live[gain >= 1e-12], owner, vectors, vals)
        if not live.size:
            break
    bounds = np.cumsum(sizes)
    return [(vectors[a - s:a], probs[a - s:a], vals[a - s:a]) for a, s in zip(bounds, sizes)]


def _unmerged(live: np.ndarray, owner: np.ndarray, vectors: np.ndarray,
              vals: np.ndarray) -> np.ndarray:
    """The sorted start indices ``live`` without each start that overlaps a
    better start of its own search (``owner``) by more than
    1 - MERGE_OVERLAP_TOL; of equal values the lower index is better."""
    keep = []
    for rows in np.split(live, np.flatnonzero(np.diff(owner[live])) + 1):
        v, val = vectors[rows], vals[rows]
        close = np.abs(v.conj() @ v.T) ** 2 > 1.0 - MERGE_OVERLAP_TOL
        lower = np.arange(len(rows))
        better = (val[None, :] > val[:, None]) | (
            (val[None, :] == val[:, None]) & (lower[None, :] < lower[:, None]))
        keep.append(rows[~np.any(close & better, axis=1)])
    return np.concatenate(keep)


@dataclass(frozen=True)
class _RestartOutcome:
    value_nats: float
    vectors: np.ndarray
    priors: np.ndarray
    iterations: int
    converged: bool
    history: tuple[float, ...]


def _run_restarts(
    elements: np.ndarray,
    num_states: int,
    seed: int,
    restart_indices: Iterable[int],
    tol: float,
) -> list[_RestartOutcome]:
    """Seeded column-generation runs, one per restart index, advanced in
    lockstep. Each is deterministic given (seed, restart_index) and does
    not depend on which other restarts run beside it.

    A restart starts from ``num_states`` random states at a uniform prior
    and repeats rounds of polish, compact, refit and probe until the probe
    finds no pure state beating the rate by more than max(10*tol, 1e-9)
    nats, or ``MAX_ROUNDS`` rounds have run. The running value is exactly
    the mutual information of the current (vectors, priors) pair and does
    not decrease beyond roundoff: the polish and the refit are monotone, a
    violator joins only with a weight that raises the rate, and compaction
    drops members below ``PRUNE_TOL`` and folds copies that the polish has
    already driven together, which moves the rate at roundoff level.

    Each round polishes the running restarts together, one call per
    ensemble size, and probes them together; compaction, the refit and the
    violator's weight run restart by restart. A restart leaves the
    lockstep when it certifies, when no weight on its violator raises the
    rate, or after the last round.
    """
    dim = elements.shape[1]
    # The refit leaves max_i D_i - I up to 0.1 * margin on the ensemble
    # itself, so only an excess clearly above that is evidence of a
    # violator.
    margin = max(10.0 * tol, 1e-9)
    n_probe = max(16, 8 * dim)
    element_seeds = np.linalg.eigh(elements)[1][:, :, -1]
    rngs, vectors, priors, histories = [], [], [], []
    for k in restart_indices:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        v = rng.standard_normal((num_states, dim)) + 1j * rng.standard_normal((num_states, dim))
        v = _normalize_rows(v)
        prior = np.full(num_states, 1.0 / num_states)
        rngs.append(rng)
        vectors.append(v)
        priors.append(prior)
        histories.append([channel_mutual_information_nats(prior, _channel_probs(v, elements))])
    values = [h[0] for h in histories]
    rounds = [0] * len(rngs)
    converged = [False] * len(rngs)
    running = list(range(len(rngs)))
    for round_ in range(1, MAX_ROUNDS + 1):
        if not running:
            break
        for size in sorted({len(vectors[i]) for i in running}):
            group = [i for i in running if len(vectors[i]) == size]
            v, r, rates = _polish(np.stack([vectors[i] for i in group]),
                                  np.stack([priors[i] for i in group]), elements)
            for i, vi, ri, rate in zip(group, v, r, rates):
                vectors[i], priors[i], values[i] = vi, ri, float(rate)
        probs = {}
        for i in running:
            rounds[i] = round_
            histories[i].append(values[i])
            vectors[i], priors[i] = _compact(vectors[i], priors[i])
            probs[i] = _channel_probs(vectors[i], elements)
            priors[i], values[i] = _refit(probs[i], priors[i], 0.1 * margin)
            histories[i].append(values[i])
        found = _max_relative_entropy_states(
            np.stack([priors[i] @ probs[i] for i in running]), elements,
            [rngs[i] for i in running], n_probe,
            [np.concatenate([vectors[i], element_seeds]) for i in running],
        )
        still = []
        for i, (cand_vectors, cand_probs, cand_vals) in zip(running, found):
            best = int(np.argmax(cand_vals))
            if cand_vals[best] <= values[i] + margin:
                converged[i] = True
                continue
            joined = np.concatenate([probs[i], cand_probs[best][None, :]])
            for beta in 0.5 ** np.arange(1, 41):
                r = np.append((1.0 - beta) * priors[i], beta)
                rate = channel_mutual_information_nats(r, joined)
                if rate > values[i]:
                    vectors[i] = np.concatenate([vectors[i], cand_vectors[best][None, :]])
                    priors[i], values[i] = r, rate
                    histories[i].append(rate)
                    still.append(i)
                    break
            # else no weight on the violator raises the rate at double precision
        running = still
    return [
        _RestartOutcome(value_nats=values[i], vectors=vectors[i], priors=priors[i],
                        iterations=rounds[i], converged=converged[i], history=tuple(histories[i]))
        for i in range(len(rngs))
    ]


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

    The name is kept from the see-saw solver this replaced. Runs restart
    0 alone; when it certifies, it is the answer. Otherwise the other
    ``cfg.restarts - 1`` independently seeded restarts run in lockstep and
    the best of all of them is kept. The kept restart's ensemble is
    compacted, its prior refit to ``INNER_BA_TOL`` (the rounds stop at
    0.1 * margin), and the report gives the recomputed mutual information
    of the final ensemble. Restarts differ in their starting ensembles and
    in the random starts of the violator search, the one non-convex step.
    The result depends on (seed, restarts) alone. ``jobs`` is accepted for
    compatibility and has no effect: the restarts share one process.

    ``converged`` reflects the winning restart: True when no pure state
    beats the dual optimality bound at its output distribution by more
    than the certificate margin (max(10*tol, 1e-9) nats), False when it
    stopped before that certificate. ``iterations_used`` counts its
    column-generation rounds. ``per_restart_values`` holds the value of
    every restart that ran: one entry when restart 0 certified, else
    ``cfg.restarts``.
    """
    cfg = cfg or SolverConfig()
    outcomes = _run_restarts(p.elements, p.dim ** 2, cfg.seed, [0], cfg.tol)
    if not outcomes[0].converged and cfg.restarts > 1:
        outcomes += _run_restarts(p.elements, p.dim ** 2, cfg.seed, range(1, cfg.restarts), cfg.tol)
    values = [o.value_nats for o in outcomes]
    best = outcomes[int(np.argmax(values))]
    vectors, prior = _compact(best.vectors, best.priors)
    prior, _ = _refit(_channel_probs(vectors, p.elements), prior, INNER_BA_TOL)
    vectors, prior = vectors[prior > 0], prior[prior > 0]
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
    res = blahut_arimoto(_stochastic(_channel_probs(basis.T, p.elements)), tol=tol, base=base)
    prior = res.optimal_prior.probs
    support = prior > 0
    return _power_report(p, basis.T[support], prior[support], base, converged=res.converged,
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
    element_seeds = np.linalg.eigh(elements)[1][:, :, -1]
    vectors, _, vals = _max_relative_entropy_states(
        q0[None], elements, [rng], max(64, 8 * dim * dim), [element_seeds])[0]
    best = float(vals.max())
    near = vals >= best - margin
    vectors, _ = _compact(vectors[near], np.full(np.count_nonzero(near), 1.0))
    m = len(vectors)
    r, rate = _refit(_channel_probs(vectors, elements), np.full(m, 1.0 / m), 0.1 * margin)
    if best - rate > margin:
        return None
    return _power_report(p, vectors[r > 0], r[r > 0], cfg.base, converged=True,
                         iterations_used=1, fast_path_used=False)


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
    under one of the other two certificates. ``jobs`` is accepted for
    compatibility and has no effect, as in ``see_saw_power``.
    """
    cfg = cfg or SolverConfig()
    try:
        return commuting_fast_path(p, tol=min(INNER_BA_TOL, cfg.tol), base=cfg.base)
    except NotCommuting:
        return _symmetric_power(p, cfg) or see_saw_power(p, cfg, jobs=jobs)


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
        raise ValueError(f"ensemble member {i} is mixed (top eigenvalue {w[i, -1]!r}); pure states required")
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
