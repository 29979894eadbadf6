"""Informational power W(Pi) = max over ensembles of I(R, Pi).

W is the capacity of the quantum-classical channel psi -> P(.|psi), so it
also has the dual form W = min_q max_psi D(P(.|psi) || q). The generic
path is column generation over the input alphabet (Blahut 1972; Arimoto
1972), dual to the state-update iteration for accessible information of
Rehacek, Englert and Kaszlikowski (PRA 2005). One seeded run keeps a
finite ensemble of pure states and repeats one round:

1. polish: L-BFGS ascent of I, with analytic gradients, over the vectors
   u_i = sqrt(r_i) psi_i, whose outer products sum to the average state;
   every member has about the same curvature there, whatever its prior;
   a line-search trial costs I alone, the gradient only where it steps;
2. compact: drop negligible-prior members and fold duplicates;
3. refit: one warm-started, capped Blahut-Arimoto run on the prior;
4. probe: search for a pure state whose relative entropy to the output
   distribution q beats the rate, by jumps to the top eigenvector of the
   gradient, each also tried extrapolated past the jump. When none does
   by more than a small margin, the dual bound certifies the rate;
   otherwise the best violator joins the ensemble with a weight that
   raises the rate.

The dual bound certifies the run's rate on its own, so the run is the
answer: when it certifies, more runs could add nothing, and when it does
not, the report says so. The run depends on the seed alone.

POVMs with commuting elements skip all of this: the optimum is achieved on
the common eigenbasis, so a single Blahut-Arimoto run is exact.

Before the run, when two distinct elements share a spectrum,
``informational_power`` tries one probe at the output q0_j = Tr(Pi_j)/D
of the maximally mixed average. Its maxima, folded and weighted by
Blahut-Arimoto, certify W when their rate comes within the margin of the
probed maximum, which bounds W from above by the dual form. That happens
when symmetry makes q0 the optimal output (SICs, the trine, their tensor
powers), and such a symmetry always repeats a spectrum. A screen at the
generic run's start count comes first: when its maxima fold to one state,
the full probe is skipped and the generic run follows. Random POVMs repeat
no spectrum, so they go straight to the generic run.
"""

from __future__ import annotations

import functools
import numbers
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotCommuting
from .information import (
    _TINY,
    _log_ratio,
    _stochastic,
    LogBase,
    blahut_arimoto,
    channel_mutual_information_nats,
    mutual_information,
)
from .objects import Ensemble, Povm, tensor_povm

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
    """Knobs of every solver entry point: ``informational_power``,
    ``see_saw_power`` and ``commuting_fast_path``.

    ``tol`` sets the certificate margin max(10*tol, 1e-9) nats: the run
    is certified when no pure state beats its rate by more than that.
    The commuting fast path has no margin and reads only ``base``.
    ``seed`` decides the run's random draws. The run starts from D^2
    random pure states (the Davies bound), runs at most ``MAX_ROUNDS``
    column-generation rounds, and compaction drops ensemble members below
    ``PRUNE_TOL``. ``tol`` must be a positive and finite real and ``seed``
    an integer >= 0, a bool being neither, and ``base`` a ``LogBase``;
    anything else raises ValueError.
    """

    tol: float = 1e-9
    seed: int = 0
    base: LogBase = LogBase.BITS

    def __post_init__(self) -> None:
        tol = self.tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {tol!r}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        if not isinstance(self.base, LogBase):
            raise ValueError(f"base must be a LogBase, got {self.base!r}")


@dataclass(frozen=True)
class BoundCheck:
    """Davies-type cardinality bounds on the pruned ensemble size.

    ``upper`` (D^2, or D(D+1)/2 for real POVMs) is a theorem: some optimal
    ensemble needs no more pure states, and ``passed`` checks it. No lower
    bound is checked: an optimum may use fewer than D distinct states (the
    trivial POVM needs one, some noisy full-rank qutrit POVMs two).
    """

    dim: int
    m_eff: int
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
        upper=d * d,
        passed=bool(m_eff <= d * d),
        real_entries=real,
        real_upper=real_upper,
        real_passed=bool(m_eff <= real_upper) if real else None,
    )


# ---------------------------------------------------------------------------
# column-generation internals (all probabilities and rates in nats)


def _normalize_rows(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v, axis=1)[:, None]


def _margin(tol: float) -> float:
    """The certificate margin in nats: a rate is certified when no pure
    state beats it by more than this. Refits stop well below it (the
    run's at ``INNER_BA_TOL``, the symmetric fold's at a tenth of it), so
    that only an excess clearly above what a refit leaves is evidence of
    a violator."""
    return max(10.0 * tol, 1e-9)


class _Kernel:
    """The channel psi -> <psi|Pi_j|psi> of one POVM, built once per solve:
    the elements (N, D, D), D, the elements flattened to the real
    (N, 2*D*D) right factor of ``_channel_probs`` and
    ``_weighted_elements``, and, on first use, each element's ascending
    eigenvalues and top eigenvector, from one ``eigh`` of the stack: the
    spectrum test reads the eigenvalues and every probe starts from the
    top eigenvectors."""

    def __init__(self, elements: np.ndarray) -> None:
        n, dim, _ = elements.shape
        self.elements, self.dim = elements, dim
        self.weights_layout = np.ascontiguousarray(elements).reshape(n, dim * dim).view(float)

    @functools.cached_property
    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.elements)

    @property
    def spectra(self) -> np.ndarray:
        return self._eigh[0]

    @property
    def tops(self) -> np.ndarray:
        return self._eigh[1][:, :, -1]


def _channel_probs(vectors: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """Outcome probabilities <psi_i|Pi_j|psi_i> for unit row vectors, as
    one real product of the rows of |psi_i><psi_i| against the elements:
    the dot product of two flattened complex matrices' real views is
    Re Tr(A^dagger B)."""
    dim = kernel.dim
    outer = np.ascontiguousarray(vectors[:, :, None] * vectors.conj()[:, None, :]).reshape(-1, dim * dim)
    # np.clip's wrapper costs more than its two ufuncs at these sizes
    return np.minimum(np.maximum(outer.view(float) @ kernel.weights_layout.T, 0.0), 1.0)


def _weighted_elements(lr: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """H_i = sum_j lr_ij Pi_j for every row of ``lr``, as one real product
    against the elements flattened to (N, 2*D*D)."""
    return (lr @ kernel.weights_layout).view(complex).reshape(-1, kernel.dim, kernel.dim)


def _mi_gradient(vectors: np.ndarray, prior: np.ndarray, kernel: _Kernel, lr: np.ndarray) -> np.ndarray:
    """Tangent gradient of I w.r.t. the state vectors (m, D), priors fixed;
    ``lr`` is the log-ratio ln(p_ij / q_j) at the states."""
    hv = (_weighted_elements(lr, kernel) @ vectors[:, :, None])[:, :, 0]
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
    fg: Callable[[np.ndarray], tuple[float, Callable[[], np.ndarray]]],
    x: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, float]:
    """Maximize f from ``x`` by L-BFGS with Armijo backtracking.

    ``fg(x)`` returns ``(f, grad)``, where ``grad()`` computes the gradient
    of f at ``x``. The ascent calls ``grad`` once at the start and once at
    every point it steps to, so a rejected trial point costs f alone.
    Curvature pairs are kept only when s.y > 0, so that the direction
    ascends wherever the gradient is nonzero. Only steps that raise f are
    taken, so f at the returned point is never below f at the start. The
    ascent stops after ``max_iter`` steps, or when no step along the
    direction raises f within 40 halvings, which at the end happens at the
    double-precision resolution of f. Returns the final point and f there.
    """
    f, grad = fg(x)
    g = grad()
    pairs: list[tuple[np.ndarray, np.ndarray, float]] = []
    d = _lbfgs_direction(g, pairs)
    slope = g @ d
    for _ in range(max_iter):
        if slope <= 0.0:
            break
        for step in 0.5 ** np.arange(40):
            x_new = x + step * d
            f_new, grad = fg(x_new)
            if f_new > f + 1e-4 * step * slope:
                break
        else:
            break
        g_new = grad()
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
    # np.linalg.norm(u, axis=1) and np.sum, as the ufunc reductions they wrap
    norms = np.sqrt(np.add.reduce((u.conj() * u).real, axis=1))
    return u / norms[:, None], norms**2 / np.add.reduce(norms**2), norms


def _polish_fg(x: np.ndarray, kernel: _Kernel) -> tuple[float, Callable[[], np.ndarray]]:
    """I at ``x`` with a callable for its gradient, in the contract of
    ``_lbfgs_ascent``. Along u_i the gradient is
    (t_i + 2 r_i (D_i - I) psi_i) / |u_i|, with t_i the tangent state
    gradient and D_i = D(p(.|i) || q). The second term, equal to
    2 (D_i - I) u_i / sum_k |u_k|^2, comes from the prior. The gradient is
    orthogonal to ``x``, as I does not change with the scale of u. The
    callable finishes it from this evaluation's own states, priors, norms,
    probabilities, log-ratios and D_i, so it computes only what I did
    not."""
    v, r, norms = _polish_point(x, kernel.dim)
    probs = _channel_probs(v, kernel)
    lr = _log_ratio(probs, r @ probs)
    d = np.add.reduce(probs * lr, axis=1)  # np.sum without its wrapper
    value = r @ d

    def grad() -> np.ndarray:
        radial = 2.0 * r * (d - value)
        g = (_mi_gradient(v, r, kernel, lr) + radial[:, None] * v) / norms[:, None]
        return g.view(float).ravel()

    return value, grad


def _polish(
    vectors: np.ndarray, prior: np.ndarray, kernel: _Kernel
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
    x, value = _lbfgs_ascent(lambda x: _polish_fg(x, kernel), x0, POLISH_MAX_ITER)
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


def _refit(probs: np.ndarray, prior: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Warm-started, capped Blahut-Arimoto on the prior of the channel
    ``probs``; returns the prior with its rate."""
    res = blahut_arimoto(_stochastic(probs), tol=tol, max_iter=INNER_BA_CAP, base=LogBase.NATS,
                         initial_prior=prior)
    r = res.optimal_prior.probs
    return r, channel_mutual_information_nats(r, probs)


def _max_relative_entropy_states(
    q: np.ndarray,
    kernel: _Kernel,
    rng: np.random.Generator,
    n_init: int,
    extra: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search for pure states maximizing D(P(.|psi) || q), q held fixed.

    Every start repeatedly jumps to the top eigenvector of
    H = sum_j ln(p_j / q_j) Pi_j. D is convex in |psi><psi| and its
    gradient there is H plus the identity, so the jump maximizes a lower
    bound that is tight at the current state and never lowers D
    (outcomes with p_j = 0 are left out of H). Near a maximum the jumps
    converge linearly, so each step also scores the extrapolated point
    normalize(jump + beta (jump - psi)), with the jump phase-aligned to
    psi, and the start moves to the better of the two. Where the start's
    last two accepted gains shrink, 0 < g1 < g0, beta = rho / (1 - rho)
    with rho = sqrt(g1 / g0), Aitken's (1926) estimate of the remaining
    distance for a linear rate rho (a gain is quadratic in the distance);
    elsewhere beta = 1, a doubled jump. A start keeps its state when
    neither point would raise D. The starts are, in order,
    ``n_init`` random states drawn from ``rng``, the rows of ``extra``
    (e.g. the current ensemble) and the top eigenvector of each element;
    without the last, random starts alone can miss a violator and let a
    rate below W certify. The starts step together, for
    at most PROBE_MAX_STEPS steps, and each start leaves on its own:
    - when its step gains less than 1e-12 nats (a positive gain is kept);
      the kept point is never below the plain jump, so this happens only
      once the jump alone gains less than that;
    - when, after a step, its state overlaps a live start with a higher
      value (on a tie, a lower index) by more than 1 - MERGE_OVERLAP_TOL,
      the fold test of ``_compact``: the two climb the same hill, so only
      the better one goes on.
    Returns every start's final vector with its outcome probabilities and
    relative entropy (nats).
    """
    dim = kernel.dim
    v = rng.standard_normal((n_init, dim)) + 1j * rng.standard_normal((n_init, dim))
    starts = [v, kernel.tops] if extra is None else [v, extra, kernel.tops]
    vectors = _normalize_rows(np.concatenate(starts))
    probs = _channel_probs(vectors, kernel)
    lr = _log_ratio(probs, q)
    vals = np.sum(probs * lr, axis=1)
    live = np.arange(len(vectors))
    gains = np.zeros((len(vectors), 2))  # each start's last two accepted gains, older first
    for _ in range(PROBE_MAX_STEPS):
        cur = vectors[live]
        jump = np.linalg.eigh(_weighted_elements(lr[live], kernel))[1][:, :, -1]
        jump *= np.exp(-1j * np.angle(np.sum(cur.conj() * jump, axis=1)))[:, None]
        g0, g1 = gains[live].T
        shrinking = (0.0 < g1) & (g1 < g0)
        rho = np.sqrt(np.divide(g1, g0, out=np.zeros_like(g1), where=shrinking))
        beta = np.divide(rho, 1.0 - rho, out=np.ones_like(rho), where=shrinking)
        trial = np.concatenate([jump, _normalize_rows(jump + beta[:, None] * (jump - cur))])
        trial_probs = _channel_probs(trial, kernel)
        trial_lr = _log_ratio(trial_probs, q)
        trial_vals = np.sum(trial_probs * trial_lr, axis=1)
        n = live.size
        pick = np.arange(n) + n * (trial_vals[n:] > trial_vals[:n])  # the better of jump and extrapolation
        gain = trial_vals[pick] - vals[live]
        up = gain > 0.0
        moved, kept = live[up], pick[up]
        vectors[moved], probs[moved], lr[moved] = trial[kept], trial_probs[kept], trial_lr[kept]
        vals[moved] = trial_vals[kept]
        gains[moved, 0] = gains[moved, 1]
        gains[moved, 1] = gain[up]
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
    if np.count_nonzero(close) == live.size:  # only the diagonal: no start is near another
        return live
    better = (val[None, :] > val[:, None]) | (
        (val[None, :] == val[:, None]) & (live[None, :] < live[:, None]))
    return live[~np.any(close & better, axis=1)]


@dataclass(frozen=True)
class _RunOutcome:
    value_nats: float
    vectors: np.ndarray
    priors: np.ndarray
    iterations: int
    converged: bool


def _run(kernel: _Kernel, seed: int, tol: float) -> _RunOutcome:
    """One seeded column-generation run, deterministic given the seed.

    It starts from D^2 random states (the Davies bound) at a uniform prior
    and repeats rounds of polish, compact, refit to ``INNER_BA_TOL`` and
    probe until the probe finds no pure state beating the rate by more
    than max(10*tol, 1e-9) nats, until no weight on the probe's best
    violator raises the rate, or until ``MAX_ROUNDS`` rounds have run.
    The running value is exactly the mutual information of the current
    (vectors, prior) pair, the one returned, and does not decrease beyond
    roundoff: the polish and the refit are monotone, a violator joins only
    with a weight that raises the rate, and compaction drops members below
    ``PRUNE_TOL`` and folds copies that the polish has already driven
    together, which moves the rate at roundoff level. Each probe starts
    from the current ensemble besides its random starts.
    """
    dim = kernel.dim
    margin = _margin(tol)
    n_probe = max(16, 8 * dim)
    # The child (0,) of the seed's sequence; the symmetric probe draws from its root.
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    m = dim * dim
    vectors = _normalize_rows(rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim)))
    prior = np.full(m, 1.0 / m)
    converged = False
    for round_ in range(1, MAX_ROUNDS + 1):
        vectors, prior, value = _polish(vectors, prior, kernel)
        vectors, prior = _compact(vectors, prior)
        probs = _channel_probs(vectors, kernel)
        prior, value = _refit(probs, prior, INNER_BA_TOL)
        cand_vectors, cand_probs, cand_vals = _max_relative_entropy_states(
            prior @ probs, kernel, rng, n_probe, vectors)
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
    return _RunOutcome(value_nats=value, vectors=vectors, priors=prior, iterations=round_,
                       converged=converged)


def _power_report(p: Povm, vectors: np.ndarray, prior: np.ndarray, base: LogBase, *,
                  converged: bool, iterations_used: int, fast_path_used: bool) -> PowerReport:
    """The report on the members of the pure-state ensemble
    ``(vectors, prior)`` with a positive prior, built here for all three
    solver paths. W is recomputed from that ensemble, and
    ``per_restart_values`` holds that W alone."""
    vectors, prior = vectors[prior > 0], prior[prior > 0]
    ensemble = Ensemble.from_pure(prior, vectors)
    w = mutual_information(ensemble, p, base)
    return PowerReport(
        w_estimate=w,
        best_ensemble=ensemble,
        per_restart_values=(w,),
        converged=converged,
        iterations_used=iterations_used,
        fast_path_used=fast_path_used,
        bound_check=_bound_check(p, vectors.shape[0]),
        base=base,
    )


def see_saw_power(p: Povm, cfg: SolverConfig | None = None) -> PowerReport:
    """Generic column-generation estimate of W(Pi): one seeded run.

    The name is kept from the see-saw solver this replaced. The report is
    the run's last ensemble as it stands: its members with a positive
    prior and their recomputed mutual information. The result depends on
    ``cfg.seed`` alone, which decides the starting ensemble and the random
    starts of the violator search, the one non-convex step.

    ``converged`` is True when the run certified: no pure state beats the
    dual optimality bound at its output distribution by more than the
    certificate margin (max(10*tol, 1e-9) nats), which bounds W by the
    run's rate plus the margin. When it did not, the report says so and
    nothing else runs. ``iterations_used`` counts the run's
    column-generation rounds.

    A corpus of 414 POVMs certified from this single run at the default
    configuration, in about 20 s on one core of a 2-vCPU x86 host:
    - 192 random POVMs: D 2-6, N in {D, D+1, 2D, D^2, 2D^2}, seeds 0-3,
      complex and real;
    - 204 edge inputs: rank-one elements at D 2-6; for D 3-5 and 4 seeds
      each, two zero elements appended, one element split in two, two
      elements split in three, rank-2 elements, real rank-(D-1) elements,
      30 % depolarised elements, commuting elements plus a 1e-6
      perturbation (past the fast path) and near-projective elements;
      and N >> D^2: 2x64, 3x100 and rank-one 4x64;
    - 6 symmetric POVMs forced through this solver: SIC, trine, Hesse SIC,
      SIC(x)SIC, trine(x)SIC and trine(x)trine;
    - 6 large POVMs: rand(12,24), rand(8,128) and rand(16,32), seeds 0-1.
    The D = 1 and one-element POVMs certify too.
    """
    return _generic_power(p, _Kernel(p.elements), cfg or SolverConfig())


def _generic_power(p: Povm, kernel: _Kernel, cfg: SolverConfig) -> PowerReport:
    """``see_saw_power`` on the kernel of ``p`` that the caller built."""
    run = _run(kernel, cfg.seed, cfg.tol)
    return _power_report(p, run.vectors, run.priors, cfg.base, converged=run.converged,
                         iterations_used=run.iterations, fast_path_used=False)


def commuting_fast_path(p: Povm, cfg: SolverConfig | None = None) -> PowerReport:
    """Exact W for POVMs with commuting elements.

    A maximally informative ensemble lives on the common eigenbasis, so
    the problem reduces to the classical channel p(j|i) = <i|Pi_j|i> and a
    single Blahut-Arimoto run is exact to its tolerance, ``INNER_BA_TOL``
    (1e-12) bits whatever ``cfg.tol``; of ``cfg`` only ``base`` is read,
    so a report in nats is the report in bits converted. The run tries
    the Newton step on pass 1 when the D inputs are no more than the
    nonzero elements (on pass 8 otherwise), and on every pass after a
    step lands; a run that ends on such steps stops at a gap of 1e-12 / 16
    bits.
    The reported ensemble is the support of that run's prior:
    the eigenvectors with a positive weight. The elements count as
    commuting when the eigenbasis of a fixed random combination of them
    leaves no off-diagonal entry above ``linalg.COMMUTING_TOL`` (1e-10) in
    any element; otherwise this raises NotCommuting.
    """
    cfg = cfg or SolverConfig()
    basis = linalg.simultaneous_eigenbasis(p.elements)
    res = blahut_arimoto(_stochastic(_channel_probs(basis.T, _Kernel(p.elements))),
                         tol=INNER_BA_TOL, base=LogBase.BITS)
    return _power_report(p, basis.T, res.optimal_prior.probs, cfg.base, converged=res.converged,
                         iterations_used=res.iterations, fast_path_used=True)


def _shares_a_spectrum(kernel: _Kernel) -> bool:
    """True when two unequal elements have the same ascending eigenvalues,
    to within 1e-9 of the largest eigenvalue.

    Every POVM covariant under a group acting irreducibly on C^D, the case
    that ``_symmetric_power`` certifies, has such a pair. By Schur's lemma
    an element fixed by every U_g is proportional to I, so every other
    element has a different partner in its orbit with the same spectrum;
    a POVM whose elements are all proportional to I commutes. Equal
    elements, such as split copies or appended zeros, are no evidence of
    symmetry and do not count. The elements are sorted on a weighted sum
    of their eigenvalues, in which two matching spectra lie within
    D(D+1)/2 tolerances of each other, and each is compared with the
    neighbours in that window only.
    """
    spectra = kernel.spectra
    n, dim = spectra.shape
    tol = 1e-9 * spectra.max()
    key = spectra @ np.arange(1.0, dim + 1.0)
    order = np.argsort(key)
    key = key[order]
    window = tol * dim * (dim + 1) / 2
    for shift in range(1, n):
        # keys are sorted, so once no pair this far apart is close enough, none further is
        near = np.flatnonzero(key[shift:] - key[:-shift] <= window)
        if not near.size:
            return False
        i, j = order[near], order[near + shift]
        same = np.max(np.abs(spectra[i] - spectra[j]), axis=1) <= tol
        i, j = i[same], j[same]
        if np.any(np.max(np.abs(kernel.elements[i] - kernel.elements[j]), axis=(1, 2)) > tol):
            return True
    return False


def _symmetric_power(p: Povm, kernel: _Kernel, cfg: SolverConfig) -> PowerReport | None:
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
    trine, their tensor powers); the group is never needed.

    The probe runs twice from the same seed: first as a screen of
    max(16, 8D) random starts, the generic run's count, then with
    max(64, 8D^2). When either folds to one state with M0 above the
    margin, the test cannot pass (one state has rate 0) and this returns
    None. Symmetric POVMs fold to several states at the screen, and so
    does a POVM such as trine(x)rand2x3, which repeats spectra without
    making q0 optimal; it fails after the full probe. Only the second
    probe can certify: the screen's fewer starts can leave a maximum
    short of the margin. ``informational_power`` calls this only where
    ``_shares_a_spectrum``, so random POVMs never reach it. The report
    counts one iteration.
    """
    dim = p.dim
    margin = _margin(cfg.tol)
    q0 = np.trace(p.elements, axis1=1, axis2=2).real / dim
    for n_init in (max(16, 8 * dim), max(64, 8 * dim * dim)):
        # The root of the seed's sequence: the generic run draws from its child (0,).
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
        vectors, _, vals = _max_relative_entropy_states(q0, kernel, rng, n_init)
        best = float(vals.max())
        # Best first, so that _compact folds each state into its best copy.
        near = np.flatnonzero(vals >= best - margin)
        near = near[np.argsort(-vals[near], kind="stable")]
        vectors, _ = _compact(vectors[near], np.full(near.size, 1.0))
        if len(vectors) == 1 and best > margin:
            return None  # one state has rate 0
    m = len(vectors)
    r, rate = _refit(_channel_probs(vectors, kernel), np.full(m, 1.0 / m), 0.1 * margin)
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
    off-diagonal entry above 1e-10 in any of them. On NotCommuting, if
    two unequal elements share a spectrum (``_shares_a_spectrum``; every
    POVM covariant under an irreducible group does), a probe at the
    maximally mixed output tries to certify W directly
    (``_symmetric_power``), with a screen of max(16, 8D) starts before
    the full probe. A random POVM shares no spectrum and skips the
    probe. When there is no certificate, the generic solver runs once on
    the same kernel; it draws from its own child seed, so its report does
    not depend on whether the probe ran. A commuting POVM
    whose combination happens to be nearly degenerate also lands past the
    fast path and is solved more slowly, under one of the other two
    certificates. ``jobs`` is accepted for compatibility and has no effect.
    """
    cfg = cfg or SolverConfig()
    try:
        return commuting_fast_path(p, cfg)
    except NotCommuting:
        # one kernel for the spectrum test and both certificates: one eigh of the elements
        kernel = _Kernel(p.elements)
        symmetric = _symmetric_power(p, kernel, cfg) if _shares_a_spectrum(kernel) else None
        return symmetric or _generic_power(p, kernel, cfg)


def state_gradient(e: Ensemble, p: Povm) -> list[np.ndarray]:
    """Tangent gradient of the mutual information at a pure-state ensemble.

    For member i the Euclidean gradient is
    g_i = 2 p_i sum_j ln(p(j|i)/q_j) Pi_j |psi_i>, projected onto the
    tangent space of the unit sphere: g_i - Re<psi_i|g_i> |psi_i>.
    Probabilities are clamped at 1e-300 and zero-probability outcomes
    contribute nothing. Raises ValueError on mixed-state members and
    DimensionMismatch when the ensemble and the POVM differ in dimension.
    """
    if e.dim != p.dim:
        raise DimensionMismatch(f"ensemble dim {e.dim} vs POVM dim {p.dim}")
    vectors = _pure_vectors(e)
    kernel = _Kernel(p.elements)
    probs = _channel_probs(vectors, kernel)
    g = _mi_gradient(vectors, e.priors, kernel, _log_ratio(probs, e.priors @ probs))
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
