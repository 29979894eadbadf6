"""Classical information measures over ensemble/POVM outcome statistics.

All public results default to bits; pass ``LogBase.NATS`` for natural units.
Internally everything is computed in nats. Terms with probability below
1e-300 are skipped (continuous extension of x log x), and zero-probability
output columns are skipped entirely.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .objects import DensityOperator, Ensemble, Povm, _probability_rows

_TINY = 1e-300
LN2 = float(np.log(2.0))
# Blahut-Arimoto tries a Newton step on the prior every this many passes
# (and right after each accepted one).
_NEWTON_EVERY = 8
# While a Newton try is due, Blahut-Arimoto stops only at a gap of tol
# times this. Newton steps converge quadratically, so the one that meets
# tol leaves a gap anywhere in [0, tol]; one more step costs a pass and
# lands near roundoff, and the returned gap no longer depends on where
# the last step happened to land.
_NEWTON_STOP = 1.0 / 16.0


class LogBase(enum.Enum):
    """Reporting unit for entropies and capacities."""

    BITS = "bits"
    NATS = "nats"

    def from_nats(self, value: float) -> float:
        return value / LN2 if self is LogBase.BITS else value

    def to_nats(self, value: float) -> float:
        return value * LN2 if self is LogBase.BITS else value


@dataclass(frozen=True)
class Distribution:
    """Probability vector: non-negative, sums to 1 within 1e-12."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _probability_rows(np.ravel(self.probs), 1, 1e-12, "distribution"))

    def __len__(self) -> int:
        return self.probs.shape[0]


@dataclass(frozen=True)
class ClassicalChannel:
    """Row-stochastic conditional distribution p(j|i) as an (M, N) matrix."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "probs", _probability_rows(self.probs, 2, 1e-10, "channel"))

    @property
    def num_inputs(self) -> int:
        return self.probs.shape[0]

    @property
    def num_outputs(self) -> int:
        return self.probs.shape[1]


def _povm_slack(p: Povm) -> float:
    """How far a valid POVM lets Tr[rho Pi_j] leave [0, 1] and their sum leave 1.

    The elements may dip below zero by ``psd_tol`` and sum to the identity
    within ``completeness_tol``, so for a density matrix rho each
    probability lies in [-psd_tol, 1 + completeness_tol + N psd_tol] and
    the clipped row sums lie within completeness_tol + N psd_tol of 1.
    """
    return p.completeness_tol + p.num_outcomes * p.psd_tol


def outcome_probabilities(e: Ensemble, p: Povm) -> np.ndarray:
    """Raw matrix Tr[rho_i Pi_j], clamped to [0, 1].

    Values outside [0, 1] by more than the POVM's own tolerances (see
    ``_povm_slack``) plus 1e-12 raise.
    """
    return _outcomes(e.states, p)


def _outcomes(states: np.ndarray, p: Povm) -> np.ndarray:
    """``outcome_probabilities`` of a checked stack of density matrices."""
    if states.shape[1] != p.dim:
        raise DimensionMismatch(f"ensemble dim {states.shape[1]} vs POVM dim {p.dim}")
    probs = np.einsum("idc,jcd->ij", states, p.elements).real
    slack = 1e-12 + _povm_slack(p)
    if probs.min() < -slack or probs.max() > 1.0 + slack:
        raise ValueError(
            f"outcome probability outside [0,1] beyond slack: min {float(probs.min())!r}, "
            f"max {float(probs.max())!r}"
        )
    return np.clip(probs, 0.0, 1.0)


def _channel_rows(states: np.ndarray, p: Povm) -> np.ndarray:
    """The rows of ``_outcomes(states, p)`` divided by their sums, once
    checked: the entries against the POVM's slack there, and the sums here
    within 1e-10 plus that slack of 1. The quotient needs no second check."""
    probs = _probability_rows(_outcomes(states, p), 2, 1e-10 + _povm_slack(p), "Tr[rho Pi]")
    return probs / probs.sum(axis=1, keepdims=True)


def _stochastic(probs: np.ndarray) -> ClassicalChannel:
    """The channel of the rows of ``probs`` divided by their sums, which a
    valid POVM keeps only within ``_povm_slack`` of 1."""
    return ClassicalChannel(probs / probs.sum(axis=1, keepdims=True))


def joint_statistics(e: Ensemble, p: Povm) -> ClassicalChannel:
    """The classical channel p(j|i) = Tr[rho_i Pi_j] induced by measuring the POVM.

    Rows are divided by their sums, which must lie within 1e-10 plus the
    POVM's own tolerances of 1 (see ``_povm_slack``); these are the rows
    ``mutual_information`` uses, wrapped in a ``ClassicalChannel``.
    """
    return ClassicalChannel(_channel_rows(e.states, p))


def shannon_entropy(d: Distribution | np.ndarray, base: LogBase = LogBase.BITS) -> float:
    """H(p) = -sum p log p, with 0 log 0 = 0."""
    p = d.probs if isinstance(d, Distribution) else np.asarray(d, dtype=float)
    mask = p > _TINY
    h = -float(np.sum(p[mask] * np.log(p[mask])))
    return base.from_nats(max(h, 0.0))


def _log_ratio(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """ln(p_ij / q_j) for the channel ``probs`` (M, N) and the output row
    ``q`` (N,) where both are positive, else 0; the one masking rule of
    ``relative_entropy_rows``, the state gradient and the violator probe."""
    mask = (probs > _TINY) & (q > _TINY)
    return np.where(
        mask,
        np.log(np.maximum(probs, _TINY)) - np.log(np.maximum(q, _TINY)),
        0.0,
    )


def relative_entropy_rows(probs: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p(.|i) || q) in nats for every row of a channel matrix.

    Terms with p_ij = 0 or q_j = 0 contribute 0; a column with q_j = 0
    carries zero output probability.
    """
    return np.add.reduce(probs * _log_ratio(probs, q), axis=1)


def channel_mutual_information_nats(prior: np.ndarray, probs: np.ndarray) -> float:
    """I(prior, channel) in nats: sum_i r_i D(p(.|i) || q)."""
    return float(prior @ relative_entropy_rows(probs, prior @ probs))


def mutual_information(e: Ensemble, p: Povm, base: LogBase = LogBase.BITS) -> float:
    """Mutual information between message index and outcome index.

    I = sum_ij p_i p(j|i) log(p(j|i)/q_j) with q_j = sum_k p_k p(k|j);
    zero-probability terms contribute 0. The channel rows are those of
    ``joint_statistics``, checked once and not wrapped in a
    ``ClassicalChannel``.
    """
    return base.from_nats(channel_mutual_information_nats(e.priors, _channel_rows(e.states, p)))


def apply_qc_channel(p: Povm, rho: DensityOperator) -> Distribution:
    """Outcome distribution Tr[rho Pi_j] of measuring rho with the POVM:
    the one-member case of ``joint_statistics``, with its tolerances."""
    return Distribution(_channel_rows(rho.matrix[None], p)[0])


@dataclass(frozen=True)
class BlahutArimotoResult:
    """Capacity estimate with its optimality certificate.

    ``gap`` is the final value of max_i D(p(.|i)||q) - I(r, p), an upper
    bound on the distance to the true capacity, in the requested base.
    """

    capacity: float
    optimal_prior: Distribution
    converged: bool
    iterations: int
    gap: float


def _newton_prior(p: np.ndarray, r: np.ndarray, q: np.ndarray, d: np.ndarray,
                  value: float) -> np.ndarray | None:
    """One active-set Newton step on the capacity KKT conditions at the
    prior ``r`` with output ``q = r p``, or None.

    The active set S holds the inputs with r_i > 1e-3 max r or D_i >= I
    (that is, D_i >= max D - gap), so an input at zero, whether the
    starting prior put it there or the run did, re-enters when it is
    worth sending. On S the conditions D_i = C are linearised at q = r p:

        sum_k H_ik r'_k + lambda = D_i + 1,  sum_k r'_k = 1,
        H_ik = sum_j p_ij p_kj / q_j.

    An LU solve is used unless it returns entries beyond 1e6, the sign of
    a (nearly) singular system, which is then solved through its
    eigendecomposition. When S has more inputs than independent rows the
    system is singular; along its null direction q stays put and I is
    linear with slope v.D, so the input whose weight reaches zero first
    on the way uphill is dropped. A solution with negative entries drops
    its most negative entry. Either way S shrinks and the system is
    solved again.

    A step that would leave an output with q_j > 0 unfed is refused: an
    input that alone feeds an output has D_i -> infinity as r_i -> 0, so it
    belongs to the support, and at q_j = 0 the linearisation breaks down.
    """
    inv_q = np.where(q > _TINY, 1.0 / np.maximum(q, _TINY), 0.0)
    s = ((r > 1e-3 * r.max()) | (d >= value)).nonzero()[0]
    while s.size:
        k = s.size
        ps = p[s]
        kkt = np.ones((k + 1, k + 1))
        kkt[:k, :k] = (ps * inv_q) @ ps.T
        kkt[k, k] = 0.0
        rhs = np.ones(k + 1)
        rhs[:k] = d[s] + 1.0
        try:
            x = np.linalg.solve(kkt, rhs)[:k]
        except np.linalg.LinAlgError:
            x = np.full(k, np.inf)
        v = None
        if not np.abs(x).max() < 1e6:
            # (nearly) singular: the eigendecomposition of the symmetric
            # system gives its least-squares solution and a null direction
            w, vecs = np.linalg.eigh(kkt)
            big = np.abs(w) > np.abs(w).max() * (k + 1) * np.finfo(float).eps
            x = vecs[:k, big] @ (vecs[:, big].T @ rhs / w[big])
            if not big.all():
                v = vecs[:k, int(np.argmin(np.abs(w)))]
        if v is not None:
            v = v if v @ d[s] >= 0 else -v
            down = v < 0
            drop = int(np.argmin(np.where(down, x / np.where(down, -v, 1.0), np.inf)))
        elif x.min() < 0:
            drop = int(np.argmin(x))
        else:
            trial = np.zeros(r.shape[0])
            trial[s] = x / x.sum()
            return trial if (trial @ p)[q > 0].min() > 0 else None
        s = np.delete(s, drop)
    return None


def _model_step(p: np.ndarray, r: np.ndarray, q: np.ndarray, d: np.ndarray, trial: np.ndarray) -> float:
    """The t maximising the quadratic model of I(r + t (trial - r)) at the
    prior ``r`` with output ``q = r p``.

    Its slope at t = 0 is D.(trial - r) and its curvature -sum_j dq_j^2 / q_j
    with dq = (trial - r) p.
    """
    step = trial - r
    dq = step @ p
    fed = q > _TINY
    curvature = float(np.sum(dq[fed] ** 2 / q[fed]))
    return float(d @ step) / curvature if curvature > 0 else 0.0


def _improves(d: np.ndarray, value: float, d_trial: np.ndarray, value_trial: float) -> bool:
    """I rises, or stays within roundoff (1e-14 nats) while max D falls.

    Near the optimum I is flat to second order and its change drowns in
    roundoff, while max D, which bounds the capacity from above, still
    moves to first order.
    """
    return value_trial > value or (value_trial > value - 1e-14 and d_trial.max() < d.max())


def blahut_arimoto(
    ch: ClassicalChannel,
    tol: float = 1e-12,
    max_iter: int = 100000,
    base: LogBase = LogBase.BITS,
    initial_prior: np.ndarray | None = None,
) -> BlahutArimotoResult:
    """Discrete memoryless channel capacity by alternating maximization.

    Stops when the capacity gap max_i D_i - sum_i r_i D_i, taken over all
    inputs, falls to ``tol`` (interpreted in ``base``; lower while a Newton
    try is due, see below), which certifies the returned capacity is
    within ``tol`` of the true value. Exceeding
    ``max_iter`` loop passes returns the last iterate flagged
    ``converged=False``.

    A pass is the multiplicative update r_i <- r_i exp(D_i) / Z, except
    that some passes first try an active-set Newton step on the optimality
    conditions (``_newton_prior``) and take it instead when it improves the
    iterate (``_improves``); a full step that does not is cut back to the
    peak of the quadratic model of I along it. A try comes on every
    ``_NEWTON_EVERY``-th pass and on the pass right after an accepted step,
    and on pass 1 when the channel has no more inputs than fed outputs;
    after a refused try the next waits for the next multiple of
    ``_NEWTON_EVERY``. While a try is due, the run stops only at a gap of
    ``tol * _NEWTON_STOP`` (tol / 16). The plain update converges
    sublinearly when the optimal prior sits on a face of the simplex; the
    Newton step finds that face and lands on its optimum, quadratically
    once it may step on every pass, so the step that meets ``tol`` can
    leave a gap anywhere below it and one more step takes it to roundoff.
    ``iterations`` counts every pass, Newton steps included. ``tol`` must
    be positive and finite and ``max_iter`` an integer >= 1; a bool is
    neither.

    ``initial_prior`` only sets where the iteration starts: an entry at
    exact zero, given or reached, can re-enter through the Newton step's
    active set.
    """
    if isinstance(tol, bool) or not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    probs = ch.probs
    m = probs.shape[0]
    if initial_prior is None:
        r = np.full(m, 1.0 / m)
    else:
        r = _probability_rows(np.ravel(initial_prior), 1, 1e-9, "initial_prior")
        if r.shape[0] != m:
            raise ValueError(f"initial_prior has {r.shape[0]} entries for {m} channel inputs")
        r = r / r.sum()
    tol_nats = base.to_nats(tol)

    # Quantities that never change across iterations are hoisted: the set of
    # output columns carrying any mass and the per-row entropy term sum_j p log p.
    keep = probs.max(axis=0) > _TINY
    # The boolean index makes a column-major copy, whatever the order of
    # ``probs`` and even when every column is kept. It stays: BLAS sums
    # row-major and column-major operands in different orders, so r @ p and
    # p @ log q, and with them every report and capacity, would move in
    # their last bits without it, and the result would depend on the memory
    # order of the channel.
    p = probs[:, keep]
    plogp = np.add.reduce(np.where(p > _TINY, p * np.log(np.maximum(p, _TINY)), 0.0), axis=1)

    def rates(r: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
        """D_i, I and the output q = r p at the prior r."""
        q = r @ p
        d = plogp - p @ np.log(np.maximum(q, _TINY))
        return d, float(r @ d), q

    d, value, q = rates(r)
    # a channel with no more inputs than fed outputs tries Newton at once;
    # after that, a try follows every accepted step
    newton = m <= p.shape[1]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if d.max() - value <= (tol_nats * _NEWTON_STOP if newton else tol_nats):
            break
        if newton or iterations % _NEWTON_EVERY == 0:
            newton = False
            trial = _newton_prior(p, r, q, d, value)
            if trial is not None:
                d_trial, value_trial, q_trial = rates(trial)
                if not _improves(d, value, d_trial, value_trial):
                    # the full step overshoots: stop where the quadratic
                    # model of I along it peaks
                    t = _model_step(p, r, q, d, trial)
                    if 0.0 < t < 1.0:
                        trial = r + t * (trial - r)
                        d_trial, value_trial, q_trial = rates(trial)
                if _improves(d, value, d_trial, value_trial):
                    r, d, value, q = trial, d_trial, value_trial, q_trial
                    newton = True
                    continue
        pos = r > 0
        d_pos = d[pos]
        w = r[pos] * np.exp(d_pos - d_pos.max())
        r = np.zeros(m)
        r[pos] = w / w.sum()
        d, value, q = rates(r)
    gap = float(d.max() - value)
    return BlahutArimotoResult(
        capacity=base.from_nats(value),
        optimal_prior=Distribution(r),
        converged=gap <= tol_nats,
        iterations=iterations,
        gap=base.from_nats(max(gap, 0.0)),
    )
