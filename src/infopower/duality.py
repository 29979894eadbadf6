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


def povm_from_ensemble(s: Ensemble, rank_tol: float = linalg.DEFAULT_RANK_TOL) -> Povm:
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
    states = s.states_stack()[keep]

    sigma_s = np.einsum("i,idc->dc", priors, states)
    w = linalg.pinv_sqrt(sigma_s, rank_tol)
    proj = linalg.hermitize(w @ sigma_s @ w)

    # every member must live on the support of sigma_S
    kernel = np.eye(s.dim) - proj
    for i, (q, sig) in enumerate(zip(priors, states)):
        leak = float(np.linalg.norm(kernel @ sig @ kernel)) * q
        if leak > 1e-8:
            raise ValueError(
                f"povm_from_ensemble: member {i} leaks {leak:.3e} outside the support of sigma_S"
            )

    elements = [q * (w @ sig @ w) for q, sig in zip(priors, states)]
    deficiency = float(np.trace(kernel).real)
    if deficiency > 0.5:
        elements.append(kernel)
    return Povm(np.stack(elements))


def ensemble_from_povm(
    l: Povm, sigma: DensityOperator, zero_tol: float = ZERO_PRIOR_TOL
) -> tuple[Ensemble, list[int]]:
    """The ensemble R(Lambda, sigma) induced by a POVM and a reference state.

    Returns the ensemble together with the indices of outcomes dropped for
    having probability Tr[sigma Lambda_j] <= zero_tol. Remaining priors are
    renormalized (the dropped mass is below numerical resolution), and
    ensemble_average of the result equals sigma within 1e-9.
    """
    if l.dim != sigma.dim:
        raise DimensionMismatch(f"POVM dim {l.dim} vs state dim {sigma.dim}")
    root = linalg.matrix_sqrt(sigma.matrix)
    q = np.einsum("dc,jcd->j", sigma.matrix, l.elements).real
    kept = [j for j in range(l.num_outcomes) if q[j] > zero_tol]
    dropped = [j for j in range(l.num_outcomes) if q[j] <= zero_tol]
    if not kept:
        raise ValueError("ensemble_from_povm: every outcome has zero probability on sigma")
    states = []
    for j in kept:
        m = root @ l.elements[j] @ root
        states.append(DensityOperator(m / float(np.trace(m).real)))
    priors = q[kept] / q[kept].sum()
    return Ensemble(priors, tuple(states)), dropped


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "element_residuals", tuple(self.element_residuals))
        object.__setattr__(self, "dropped_outcomes", tuple(self.dropped_outcomes))


def duality_round_trip_check(
    l: Povm, sigma: DensityOperator, tol: float = 1e-8
) -> RoundTripReport:
    """Check that mapping a POVM to its ensemble and back recovers it.

    Exact recovery requires full-rank sigma; the report carries the
    residuals either way.
    """
    ens, dropped = ensemble_from_povm(l, sigma)
    back = povm_from_ensemble(ens)
    residuals = np.zeros(l.num_outcomes)
    kept = [j for j in range(l.num_outcomes) if j not in set(dropped)]
    for pos, j in enumerate(kept):
        residuals[j] = float(np.linalg.norm(back.elements[pos] - l.elements[j]))
    for j in dropped:
        residuals[j] = float(np.linalg.norm(l.elements[j]))
    extra = 0.0
    if back.num_outcomes > len(kept):
        extra = float(sum(np.linalg.norm(m) for m in back.elements[len(kept):]))
    worst = float(max(residuals.max(), extra))
    return RoundTripReport(
        max_residual=worst,
        element_residuals=tuple(float(r) for r in residuals),
        dropped_outcomes=tuple(dropped),
        extra_element_norm=extra,
        tol=tol,
        passed=worst <= tol,
    )
