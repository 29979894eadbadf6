"""Answers the benchmark checks against, computed without the package.

Everything here is plain numpy. Rates are in nats internally and
returned in bits where the name says so.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
_TINY = 1e-300
RANDOM_STARTS = 64
ASCENT_MAX_STEPS = 5000
ASCENT_TOL = 1e-16


def relative_entropies(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """D(p_i || q) in nats for each row p_i; terms with p_ij = 0 add nothing."""
    logq = np.log(np.maximum(q, _TINY))
    terms = np.where(p > _TINY, p * (np.log(np.maximum(p, _TINY)) - logq), 0.0)
    return terms.sum(axis=-1)


def ensemble_information_bits(priors: np.ndarray, states: np.ndarray,
                              elements: np.ndarray) -> tuple[float, np.ndarray]:
    """I(ensemble; POVM) in bits, with the output distribution q.

    ``states`` is an (M, D, D) stack of density matrices and ``elements``
    an (N, D, D) stack of POVM elements.
    """
    probs = np.clip(np.einsum("idc,jcd->ij", states, elements).real, 0.0, 1.0)
    probs /= probs.sum(axis=1, keepdims=True)
    q = priors @ probs
    return float(priors @ relative_entropies(probs, q)) / LN2, q


def channel_bracket_bits(channel: np.ndarray, prior: np.ndarray) -> tuple[float, float]:
    """Blahut-Arimoto bracket (I(prior), max_i D(p_i || q)) of a channel, in bits.

    The capacity lies between the two for any prior.
    """
    q = prior @ channel
    d = relative_entropies(channel, q)
    return float(prior @ d) / LN2, float(d.max()) / LN2


def _top_eigvecs(h: np.ndarray) -> np.ndarray:
    return np.linalg.eigh(h)[1][..., -1]


def dual_upper_bound_bits(elements: np.ndarray, q: np.ndarray, seeds: np.ndarray,
                          rng: np.random.Generator) -> float:
    """Multistart ascent of max_psi D(P(.|psi) || q), in bits.

    By the dual form W = min_q max_psi D(P(.|psi) || q), the maximum is an
    upper bound on the informational power for every q. Each step moves a
    state to the top eigenvector of sum_j ln(p_j / q_j) Pi_j; since the
    objective is convex in |psi><psi|, that step never lowers it. The
    starts are ``seeds`` (rows, e.g. the reported ensemble) plus
    RANDOM_STARTS Gaussian vectors from ``rng``; each climbs until no start
    gains more than ASCENT_TOL nats in a step, or ASCENT_MAX_STEPS.
    """
    dim = elements.shape[1]
    z = rng.standard_normal((RANDOM_STARTS, dim)) + 1j * rng.standard_normal((RANDOM_STARTS, dim))
    v = np.concatenate([np.asarray(seeds, dtype=complex), z])
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    logq = np.log(np.maximum(q, _TINY))

    def value_and_field(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = np.clip(np.einsum("sd,jdc,sc->sj", v.conj(), elements, v).real, 0.0, 1.0)
        lr = np.where(p > _TINY, np.log(np.maximum(p, _TINY)) - logq, 0.0)
        return relative_entropies(p, q), np.einsum("sj,jdc->sdc", lr, elements)

    best, field = value_and_field(v)
    for _ in range(ASCENT_MAX_STEPS):
        v = _top_eigvecs(field)
        value, field = value_and_field(v)
        gain = float(np.max(value - best))
        best = np.maximum(best, value)
        if gain < ASCENT_TOL:
            break
    return float(best.max()) / LN2


def density_top_vectors(states: np.ndarray) -> np.ndarray:
    """Top eigenvector of each density matrix in an (M, D, D) stack."""
    return _top_eigvecs(states)
