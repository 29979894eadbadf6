"""Duality maps between ensembles and POVMs.

An ensemble S = {q_i, sigma_i} with average sigma_S induces the POVM
Pi(S) = {q_i sigma_S^{-1/2} sigma_i sigma_S^{-1/2}}, and a POVM Lambda
with a reference state sigma induces the ensemble
R(Lambda, sigma) = {Tr[sigma Lambda_j], sigma^{1/2} Lambda_j sigma^{1/2} / Tr[sigma Lambda_j]}.
For full-rank sigma the round trip Lambda -> R(Lambda, sigma) -> Pi(.)
recovers Lambda, since the average of R(Lambda, sigma) is sigma itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch
from .objects import DensityOperator, Ensemble, Povm

ZERO_PRIOR_TOL = 1e-14
ROUND_TRIP_TOL = 1e-8


def povm_from_ensemble(s: Ensemble) -> Povm:
    """The POVM Pi(S) induced by an ensemble.

    Zero-prior members are dropped before mapping (they would produce zero
    operators). When the ensemble average sigma_S is rank-deficient, the
    inverse square root acts on its support and the kernel projector
    I - P_support is appended as a final element to restore completeness.
    """
    keep = s.priors > ZERO_PRIOR_TOL
    if not keep.any():
        raise ValueError("povm_from_ensemble: all ensemble members have zero prior")
    priors = s.priors[keep]
    states = s.states[keep]

    sigma_s = np.einsum("i,idc->dc", priors, states)
    w = linalg.pinv_sqrt(sigma_s)
    proj = linalg.hermitize(w @ sigma_s @ w)

    # every member must live on the support of sigma_S
    kernel = np.eye(s.dim) - proj
    leaks = np.linalg.norm(kernel @ states @ kernel, axis=(1, 2)) * priors
    if (leaks > 1e-8).any():
        i = int((leaks > 1e-8).argmax())
        raise ValueError(f"povm_from_ensemble: member {i} leaks {leaks[i]:.3e} outside the support of sigma_S")

    elements = priors[:, None, None] * (w @ states @ w)
    if np.trace(kernel).real > 0.5:  # sigma_S is rank-deficient
        elements = np.concatenate([elements, kernel[None]])
    return Povm(elements)


def ensemble_from_povm(l: Povm, sigma: DensityOperator) -> tuple[Ensemble, list[int]]:
    """The ensemble R(Lambda, sigma) induced by a POVM and a reference state.

    Returns the ensemble together with the indices of outcomes dropped for
    having probability Tr[sigma Lambda_j] <= ZERO_PRIOR_TOL. Remaining priors are
    renormalized (the dropped mass is below numerical resolution), and
    ensemble_average of the result equals sigma within 1e-9.
    """
    if l.dim != sigma.dim:
        raise DimensionMismatch(f"POVM dim {l.dim} vs state dim {sigma.dim}")
    root = linalg.matrix_sqrt(sigma.matrix)
    q = np.einsum("dc,jcd->j", sigma.matrix, l.elements).real
    keep = q > ZERO_PRIOR_TOL
    if not keep.any():
        raise ValueError("ensemble_from_povm: every outcome has zero probability on sigma")
    states = root @ l.elements[keep] @ root
    # Hermitian only to roundoff, which dividing by a small Tr[sigma Lambda_j]
    # can lift above the Ensemble's Hermiticity check
    states = linalg.hermitize(states / np.trace(states, axis1=1, axis2=2).real[:, None, None])
    priors = q[keep] / q[keep].sum()
    return Ensemble(priors, states), np.flatnonzero(~keep).tolist()


@dataclass(frozen=True)
class RoundTripReport:
    """Residuals of the round trip Lambda -> R(Lambda, sigma) -> Pi(.).

    ``element_residuals`` holds the Frobenius deviation per original
    outcome (dropped outcomes are compared against the zero matrix); any
    extra completion element produced on the way back contributes its norm
    via ``extra_element_norm``.
    """

    max_residual: float
    element_residuals: tuple[float, ...]
    dropped_outcomes: tuple[int, ...]
    extra_element_norm: float
    tol: float
    passed: bool


def duality_round_trip_check(l: Povm, sigma: DensityOperator) -> RoundTripReport:
    """Check that mapping a POVM to its ensemble and back recovers it.

    Exact recovery requires full-rank sigma; the report carries the
    residuals either way, and passes when none exceeds ROUND_TRIP_TOL.
    """
    ens, dropped = ensemble_from_povm(l, sigma)
    return _round_trip_report(l, ens, dropped)


def _round_trip_report(l: Povm, ens: Ensemble, dropped: list[int]) -> RoundTripReport:
    """The round-trip report on ``(ens, dropped)``, the result of
    ``ensemble_from_povm`` on ``l``, mapped already by the caller."""
    back = povm_from_ensemble(ens).elements
    # back[pos] is the image of the pos-th kept outcome; a dropped one's is 0
    kept = np.setdiff1d(np.arange(l.num_outcomes), dropped)
    target = np.zeros_like(l.elements)
    target[kept] = back[: kept.size]
    residuals = [float(np.linalg.norm(t - m)) for t, m in zip(target, l.elements)]
    extra = float(sum(np.linalg.norm(m) for m in back[kept.size:]))
    worst = max(*residuals, extra)
    return RoundTripReport(
        max_residual=worst,
        element_residuals=tuple(residuals),
        dropped_outcomes=tuple(dropped),
        extra_element_norm=extra,
        tol=ROUND_TRIP_TOL,
        passed=worst <= ROUND_TRIP_TOL,
    )
