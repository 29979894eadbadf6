"""Test-local oracles and generators, independent of the library internals.

Everything here is computed straight from the definitions with plain numpy
so that library results are checked against a second, separately written
code path: mutual information via joint-distribution entropies (not via
per-row relative entropies), channel capacity via a tiny standalone
alternating-maximization loop, and closed forms where they exist.
"""

from __future__ import annotations

import numpy as np

LN2 = float(np.log(2.0))


# ---------------------------------------------------------------------------
# independent information quantities


def entropy_bits(p: np.ndarray) -> float:
    p = np.asarray(p, dtype=float).reshape(-1)
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def mi_bits_from_joint(joint: np.ndarray) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) on a joint probability table."""
    return entropy_bits(joint.sum(axis=1)) + entropy_bits(joint.sum(axis=0)) - entropy_bits(joint)


def mi_bits_direct(priors: np.ndarray, states: np.ndarray, elements: np.ndarray) -> float:
    """Mutual information of measuring density matrices with a POVM, in bits.

    ``states``: (M, D, D) density matrices; ``elements``: (N, D, D).
    """
    cond = np.einsum("idc,jcd->ij", states, elements).real
    joint = np.asarray(priors, dtype=float)[:, None] * np.clip(cond, 0.0, 1.0)
    return mi_bits_from_joint(joint)


def mi_bits_pure(priors: np.ndarray, vectors: np.ndarray, elements: np.ndarray) -> float:
    """Same as mi_bits_direct but from unit state vectors (M, D)."""
    cond = np.einsum("id,jdc,ic->ij", vectors.conj(), elements, vectors).real
    joint = np.asarray(priors, dtype=float)[:, None] * np.clip(cond, 0.0, 1.0)
    return mi_bits_from_joint(joint)


def capacity_bits_oracle(probs: np.ndarray, iters: int = 20000) -> float:
    """Standalone channel capacity: classic multiplicative update, then the
    dual bound max_i D_i as a sandwich; returns the midpoint when the
    sandwich is tight (always is at these iteration counts for tiny
    channels)."""
    probs = np.asarray(probs, dtype=float)
    m = probs.shape[0]
    r = np.full(m, 1.0 / m)
    mask = probs > 0
    logp = np.where(mask, np.log(np.where(mask, probs, 1.0)), 0.0)
    plogp = (np.where(mask, probs * logp, 0.0)).sum(axis=1)
    lo = hi = 0.0
    for _ in range(iters):
        q = r @ probs
        logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
        d = plogp - (np.where(mask, probs, 0.0) @ logq)
        lo = float(r @ d)
        hi = float(d.max())
        if hi - lo < 1e-14:
            break
        w = r * np.exp(d - hi)
        r = w / w.sum()
    return 0.5 * (lo + hi) / LN2


def capacity_gap_bits(probs: np.ndarray, prior: np.ndarray) -> float:
    """max_i D(p(.|i) || q) - I(prior, p) in bits, straight from the
    definition; it bounds how far I(prior, p) is below the capacity."""
    probs = np.asarray(probs, dtype=float)
    q = np.asarray(prior, dtype=float) @ probs
    with np.errstate(divide="ignore", invalid="ignore"):
        # an input feeding an output with q_j = 0 gets D_i = inf
        d = np.where(probs > 0, probs * np.log2(probs / q), 0.0).sum(axis=1)
        return float(d.max() - prior @ np.where(prior > 0, d, 0.0))


def h2(p: float) -> float:
    """Binary entropy in bits."""
    if p in (0.0, 1.0):
        return 0.0
    return float(-(p * np.log2(p) + (1 - p) * np.log2(1 - p)))


# ---------------------------------------------------------------------------
# generators


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart-style)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T + 1e-3 * np.eye(dim)
    return m / np.trace(m).real


def random_commuting_elements(dim: int, outcomes: int, rng: np.random.Generator) -> np.ndarray:
    """POVM elements diagonal in a random common basis."""
    u = random_unitary(dim, rng)
    w = rng.random((outcomes, dim)) + 0.05
    w = w / w.sum(axis=0)
    return np.stack([(u * w[j]) @ u.conj().T for j in range(outcomes)])


# (D, N, seed) of near-degenerate block channels at noise 0.5 on which the
# plain Blahut-Arimoto update needs 42k, 61k and over 100k iterations.
HARD_BLOCK_CHANNELS = ((8, 20, 2597), (6, 7, 1051), (8, 11, 23211))


def block_channel(d: int, n: int, noise: float, rng: np.random.Generator) -> np.ndarray:
    """Input i puts 1 - noise of its mass evenly on its own block of the
    n outputs and spreads ``noise`` by a flat Dirichlet draw."""
    blocks = np.zeros((d, n))
    for i, cols in enumerate(np.array_split(rng.permutation(n), d)):
        blocks[i, cols] = 1.0 / cols.size
    return (1.0 - noise) * blocks + noise * rng.dirichlet(np.ones(n), size=d)


def random_pure_vectors(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]


def random_rank_one_elements(
    dim: int, outcomes: int, rng: np.random.Generator, real: bool = False
) -> np.ndarray:
    """Rank-one POVM elements from square-root-normalized random directions.

    With ``outcomes`` Gaussian directions g_j (``outcomes >= dim`` so their
    Gram operator T is invertible), the elements T^{-1/2} |g_j><g_j| T^{-1/2}
    are rank one and sum to the identity.
    """
    if real:
        g = rng.standard_normal((outcomes, dim))
    else:
        g = rng.standard_normal((outcomes, dim)) + 1j * rng.standard_normal((outcomes, dim))
    a = np.einsum("jd,jc->jdc", g, g.conj())
    t = a.sum(axis=0)
    w, v = np.linalg.eigh(t)
    ti = (v / np.sqrt(w)) @ v.conj().T
    return np.einsum("dc,jce,ef->jdf", ti, a, ti)


def top_eigenvector(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return v[:, -1]


def _divergence_and_field(
    v: np.ndarray, q: np.ndarray, elements: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """D(P(.|psi) || q) in nats for each unit row psi of ``v``, with the
    field sum_j ln(p_j / q_j) Pi_j whose top eigenvector is the next jump;
    outcomes with q_j = 0 or p_j = 0 are left out."""
    live = q > 0
    p = np.clip(np.einsum("sd,jdc,sc->sj", v.conj(), elements, v).real, 0.0, 1.0)[:, live]
    lr = np.where(p > 0, np.log(np.where(p > 0, p, 1.0)) - np.log(q[live]), 0.0)
    return (p * lr).sum(axis=1), np.einsum("sj,jdc->sdc", lr, elements[live])


def dual_bound_bits(
    priors: np.ndarray,
    vectors: np.ndarray,
    elements: np.ndarray,
    n_random: int = 256,
    seed: int = 20261017,
    max_steps: int = 5000,
) -> float:
    """Multistart estimate of max_psi D(P(.|psi) || q) in bits at the output
    distribution q of a pure-state ensemble.

    By the dual form W = min_q max_psi D(P(.|psi) || q), the maximum bounds
    W from above for every q. Each start repeatedly jumps to the top
    eigenvector of sum_j ln(p_j / q_j) Pi_j, which never lowers D because
    D is convex in |psi><psi|. The starts are the ensemble's own states
    plus ``n_random`` Gaussian vectors; each keeps its best value, and the
    climb stops when no start gains more than 1e-16 nats in a step.
    """
    vectors = np.asarray(vectors, dtype=complex)
    cond = np.clip(np.einsum("id,jdc,ic->ij", vectors.conj(), elements, vectors).real, 0.0, 1.0)
    q = np.asarray(priors, dtype=float) @ cond
    rng = np.random.default_rng(seed)
    dim = elements.shape[1]
    z = rng.standard_normal((n_random, dim)) + 1j * rng.standard_normal((n_random, dim))
    v = np.concatenate([vectors, z])
    v = v / np.linalg.norm(v, axis=1)[:, None]
    best, field = _divergence_and_field(v, q, elements)
    for _ in range(max_steps):
        v = np.linalg.eigh(field)[1][:, :, -1]
        value, field = _divergence_and_field(v, q, elements)
        gain = float(np.max(value - best))
        best = np.maximum(best, value)
        if gain < 1e-16:
            break
    return float(best.max()) / LN2


def reference_probe_values(
    q: np.ndarray, elements: np.ndarray, vectors: np.ndarray, steps: int
) -> np.ndarray:
    """max D(P(.|psi) || q) in nats reached from each start, by the plain
    climb: every start jumps to the top eigenvector of
    sum_j ln(p_j / q_j) Pi_j for ``steps`` steps with no early exit, and
    keeps a jump only when it raises D. The reference for the solver's
    probe, which lets starts leave early."""
    v = vectors / np.linalg.norm(vectors, axis=1)[:, None]
    best, field = _divergence_and_field(v, q, elements)
    for _ in range(steps):
        trial = np.linalg.eigh(field)[1][:, :, -1]
        value, trial_field = _divergence_and_field(trial, q, elements)
        up = value > best
        v[up], best[up], field[up] = trial[up], value[up], trial_field[up]
    return best


def eager_lbfgs_ascent(fg, x: np.ndarray, max_iter: int, direction, memory: int):
    """L-BFGS ascent with Armijo backtracking that takes ``fg(x) = (f, grad
    f)`` at every trial point, rejected ones included: the solver's ascent
    before it deferred the gradient to accepted points. ``direction(g,
    pairs)`` is the two-loop direction and ``memory`` the number of pairs
    kept; the constants 1e-4 and 40 halvings and the s.y > 0 pair rule are
    the solver's. Returns the final point and f there."""
    f, g = fg(x)
    pairs: list = []
    d = direction(g, pairs)
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
            pairs = [*pairs, (s, y, 1.0 / sy)][-memory:]
        x, f, g = x_new, f_new, g_new
        d = direction(g, pairs)
        slope = g @ d
    return x, f


def fd_state_gradient(ensemble, povm, i: int, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of I (nats) in the i-th member's amplitudes.

    Perturbations are renormalized before evaluating, so this approximates
    the gradient restricted to the unit sphere.
    """
    vectors = np.stack([np.linalg.eigh(s)[1][:, -1] for s in ensemble.states])

    def value(v: np.ndarray) -> float:
        vecs = vectors.copy()
        vecs[i] = v / np.linalg.norm(v)
        return mi_bits_pure(ensemble.priors, vecs, povm.elements) * LN2

    dim = vectors.shape[1]
    g = np.zeros(dim, dtype=complex)
    for k in range(dim):
        for unit in (1.0, 1j):
            ek = np.zeros(dim, dtype=complex)
            ek[k] = unit
            deriv = (value(vectors[i] + h * ek) - value(vectors[i] - h * ek)) / (2 * h)
            g[k] += unit * deriv
    return g


# ---------------------------------------------------------------------------
# closed forms for the structured instances

SIC_W_BITS = float(np.log2(4.0 / 3.0))  # 0.41503749927884381
TRINE_W_BITS = float(np.log2(3.0 / 2.0))  # 0.5849625007211562
HESSE_W_BITS = TRINE_W_BITS  # Hesse SIC in C^3: Szymusiak, J. Phys. A 47, 445301 (2014)


def trine_bruteforce_oracle_bits(
    elements: np.ndarray, n_inits: int = 10000, seed: int = 20260816
) -> float:
    """Independent dense multistart estimate of W for a qubit 3-outcome POVM.

    Anti-trine ansatz (closed-form candidate) plus ``n_inits`` random
    2-state and 3-state ensembles, each locally optimized by alternating
    exact-prior updates (tiny standalone Blahut-Arimoto) with fixed-step
    projected gradient ascent on the states. Returns the best value found.
    """
    rng = np.random.default_rng(seed)

    def channel(vecs: np.ndarray) -> np.ndarray:
        # (batch, M, 2) vectors -> (batch, M, N) outcome probabilities
        return np.clip(
            np.einsum("bid,jdc,bic->bij", vecs.conj(), elements, vecs).real, 0.0, 1.0
        )

    def batch_value_and_priors(
        vecs: np.ndarray, priors: np.ndarray, ba_iters: int
    ) -> tuple[np.ndarray, np.ndarray]:
        probs = channel(vecs)
        mask = probs > 0
        plogp = np.where(mask, probs * np.log(np.where(mask, probs, 1.0)), 0.0).sum(axis=2)
        logp = np.where(mask, np.log(np.where(mask, probs, 1.0)), 0.0)
        r = priors
        for _ in range(ba_iters):
            q = np.einsum("bi,bij->bj", r, probs)
            logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
            d = plogp - np.einsum("bij,bj->bi", np.where(mask, probs, 0.0), logq)
            w = r * np.exp(d - d.max(axis=1, keepdims=True))
            r = w / w.sum(axis=1, keepdims=True)
        q = np.einsum("bi,bij->bj", r, probs)
        logq = np.where(q > 0, np.log(np.where(q > 0, q, 1.0)), 0.0)
        d = plogp - np.einsum("bij,bj->bi", np.where(mask, probs, 0.0), logq)
        del logp
        return np.einsum("bi,bi->b", r, d), r

    def gradient_step(vecs: np.ndarray, priors: np.ndarray, step: float) -> np.ndarray:
        probs = channel(vecs)
        q = np.einsum("bi,bij->bj", priors, probs)
        both = (probs > 0) & (q[:, None, :] > 0)
        lr = np.where(
            both,
            np.log(np.where(probs > 0, probs, 1.0)) - np.log(np.where(q > 0, q, 1.0))[:, None, :],
            0.0,
        )
        g = 2.0 * priors[..., None] * np.einsum("bij,jdc,bic->bid", lr, elements, vecs)
        radial = np.sum(np.real(vecs.conj() * g), axis=2)
        g = g - radial[..., None] * vecs
        out = vecs + step * g
        return out / np.linalg.norm(out, axis=2, keepdims=True)

    best = -np.inf
    for m in (2, 3):
        n_batch = n_inits // 2
        vecs = rng.standard_normal((n_batch, m, 2)) + 1j * rng.standard_normal((n_batch, m, 2))
        vecs = vecs / np.linalg.norm(vecs, axis=2, keepdims=True)
        priors = np.full((n_batch, m), 1.0 / m)
        for _ in range(60):
            _, priors = batch_value_and_priors(vecs, priors, 30)
            vecs = gradient_step(vecs, priors, 0.5)
        vals, priors = batch_value_and_priors(vecs, priors, 400)
        best = max(best, float(vals.max()))

    # anti-trine ansatz: per element, the state orthogonal to its range
    # (bottom eigenvector), uniform priors; for the trine this achieves
    # log2(3/2) in closed form and anchors the oracle from below
    anti = np.stack([np.linalg.eigh(m)[1][:, 0] for m in elements])
    vals, _ = batch_value_and_priors(anti[None, :, :], np.full((1, 3), 1.0 / 3), 2000)
    best = max(best, float(vals[0]))
    return best / LN2
