import numpy as np
import pytest
from hypothesis import given, strategies as st

from infopower import linalg
from infopower.duality import (
    RoundTripReport,
    duality_round_trip_check,
    ensemble_from_povm,
    povm_from_ensemble,
)
from infopower.errors import DimensionMismatch
from infopower.information import mutual_information
from infopower.objects import (
    DensityOperator,
    Ensemble,
    Povm,
    anti_tetrahedral_ensemble,
    ensemble_average,
    maximally_mixed,
    projective_povm,
    random_povm,
    standard_projective_povm,
    tetrahedral_sic_povm,
    trine_povm,
    validate_povm,
)
from infopower.solver import informational_power

from helpers import SIC_W_BITS, random_density


# ---------------------------------------------------------------------------
# closed-form dual pairs


def test_povm_from_anti_tetrahedral_ensemble_is_anti_sic():
    """With sigma = I/2, Pi(S) = {q_i sigma^-1/2 rho_i sigma^-1/2} = {rho_i / 2}."""
    e = anti_tetrahedral_ensemble()
    p = povm_from_ensemble(e)
    assert p.num_outcomes == 4
    for element, s in zip(p.elements, e.states):
        assert np.allclose(element, s / 2.0, atol=1e-12)


def test_ensemble_from_sic_povm_is_tetrahedral():
    """With sigma = I/2, R(Lambda): q_j = 1/4 and states = normalized elements."""
    p = tetrahedral_sic_povm()
    e, dropped = ensemble_from_povm(p, maximally_mixed(2))
    assert dropped == []
    assert np.allclose(e.priors, 0.25, atol=1e-12)
    for s, element in zip(e.states, p.elements):
        assert np.allclose(s, element / np.trace(element).real, atol=1e-12)


def test_trivial_povm_maps_to_reference_state():
    sigma = DensityOperator(np.diag([0.7, 0.3]))
    e, dropped = ensemble_from_povm(Povm(np.eye(2)[None, :, :]), sigma)
    assert dropped == []
    assert len(e) == 1
    assert e.priors[0] == pytest.approx(1.0)
    assert np.allclose(e.states[0], sigma.matrix, atol=1e-12)


def test_duality_consistency_at_sic_optimum():
    """The dual pair of the solved SIC instance reproduces its power."""
    p = tetrahedral_sic_povm()
    dual_ensemble, _ = ensemble_from_povm(p, maximally_mixed(2))
    dual_povm = povm_from_ensemble(anti_tetrahedral_ensemble())
    assert mutual_information(dual_ensemble, dual_povm) == pytest.approx(SIC_W_BITS, abs=1e-6)


SECOND_CHARACTERIZATION_POVMS = {
    "sic": tetrahedral_sic_povm,
    "trine": trine_povm,
    "rand2x3.0": lambda: random_povm(2, 3, seed=0),
    "rand3x5.1": lambda: random_povm(3, 5, seed=1),
    "rand4x8.2": lambda: random_povm(4, 8, seed=2),
    "rand3x9.3": lambda: random_povm(3, 9, seed=3),
    "rand5x10.4": lambda: random_povm(5, 10, seed=4),
}


@pytest.mark.parametrize("name", sorted(SECOND_CHARACTERIZATION_POVMS))
def test_second_characterization_reaches_w_at_the_solved_average(name):
    """W(Pi) = max over sigma of the accessible information of R(Pi, sigma),
    reached at sigma*, the average of the solved ensemble R*: measuring
    R(Pi, sigma*) with the POVM that R* induces gives W."""
    p = SECOND_CHARACTERIZATION_POVMS[name]()
    report = informational_power(p)
    assert report.converged
    dual, _ = ensemble_from_povm(p, ensemble_average(report.best_ensemble))
    reached = mutual_information(dual, povm_from_ensemble(report.best_ensemble))
    assert abs(reached - report.w_estimate) <= 1e-12


# ---------------------------------------------------------------------------
# round trips


@pytest.mark.parametrize("seed", range(10))
def test_round_trip_random_povm(seed):
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    p = random_povm(dim, 2 + seed % 3, seed=seed + 50)
    sigma = DensityOperator(random_density(dim, rng))
    rep = duality_round_trip_check(p, sigma)
    assert isinstance(rep, RoundTripReport)
    assert rep.passed, f"round trip residual {rep.max_residual}"
    assert rep.max_residual <= 1e-8


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_ensemble_average_recovers_sigma(seed):
    rng = np.random.default_rng(seed)
    dim = 2 + seed % 2
    p = random_povm(dim, 3, seed=seed % 1000)
    sigma = DensityOperator(random_density(dim, rng))
    e, _ = ensemble_from_povm(p, sigma)
    avg = ensemble_average(e)
    assert np.linalg.norm(avg.matrix - sigma.matrix) <= 1e-9


def test_povm_from_ensemble_output_is_valid_povm():
    e = anti_tetrahedral_ensemble()
    assert validate_povm(povm_from_ensemble(e), tol=1e-9).passed


# ---------------------------------------------------------------------------
# the batched maps equal a per-outcome reference, bit for bit


def _ensemble_from_povm_reference(l, sigma):
    root = linalg.matrix_sqrt(sigma.matrix)
    q = np.einsum("dc,jcd->j", sigma.matrix, l.elements).real
    kept = [j for j in range(l.num_outcomes) if q[j] > 1e-14]
    states = []
    for j in kept:
        m = root @ l.elements[j] @ root
        states.append(linalg.hermitize(m / float(np.trace(m).real)))
    dropped = [j for j in range(l.num_outcomes) if j not in kept]
    return q[kept] / q[kept].sum(), np.stack(states), dropped


def _povm_from_ensemble_reference(e):
    kept = [i for i in range(len(e)) if e.priors[i] > 1e-14]
    priors, states = e.priors[kept], e.states[kept]
    sigma_s = np.einsum("i,idc->dc", priors, states)
    w = linalg.pinv_sqrt(sigma_s)
    kernel = np.eye(e.dim) - linalg.hermitize(w @ sigma_s @ w)
    elements = [q * (w @ sig @ w) for q, sig in zip(priors, states)]
    if np.trace(kernel).real > 0.5:
        elements.append(kernel)
    return linalg.hermitize(np.stack(elements))


def _assert_ensemble_equals_reference(l, sigma):
    e, dropped = ensemble_from_povm(l, sigma)
    priors, states, ref_dropped = _ensemble_from_povm_reference(l, sigma)
    assert dropped == ref_dropped
    assert np.array_equal(e.priors, priors)
    assert np.array_equal(e.states, states)
    return e, dropped


def test_ensemble_from_povm_equals_per_outcome_reference():
    l = random_povm(16, 64, seed=11)
    e, dropped = _assert_ensemble_equals_reference(l, maximally_mixed(16))
    assert dropped == [] and len(e) == 64
    assert np.array_equal(povm_from_ensemble(e).elements, _povm_from_ensemble_reference(e))


def test_ensemble_from_povm_equals_reference_when_an_outcome_drops():
    # rank-2 sigma in C^3; the last element lives on its kernel
    elements = np.zeros((5, 3, 3), dtype=complex)
    elements[:4, :2, :2] = random_povm(2, 4, seed=3).elements
    elements[4, 2, 2] = 1.0
    sigma = np.zeros((3, 3), dtype=complex)
    sigma[:2, :2] = random_density(2, np.random.default_rng(5))
    _, dropped = _assert_ensemble_equals_reference(Povm(elements), DensityOperator(sigma))
    assert dropped == [4]


def test_povm_from_ensemble_equals_reference_with_kernel_element():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    v[:2, 2] = 0.0  # two members span a plane of C^3
    v /= np.linalg.norm(v, axis=1)[:, None]
    e = Ensemble.from_pure(np.array([0.3, 0.7, 0.0]), v)
    p = povm_from_ensemble(e)
    assert p.num_outcomes == 3  # two members and the kernel element
    assert np.array_equal(p.elements, _povm_from_ensemble_reference(e))


def test_ensemble_from_povm_state_of_a_tiny_outcome_passes_the_hermiticity_check():
    # Tr[sigma Pi_1] = 1e-10: dividing root Pi_1 root by it lifts its
    # roundoff skew to about 1e-7, above the states' 1e-10 check
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    sigma = DensityOperator(linalg.hermitize((u * [1 - 1e-10, 1e-10]) @ u.conj().T))
    e, dropped = ensemble_from_povm(projective_povm(u), sigma)
    assert dropped == []
    assert np.array_equal(e.states, np.conj(np.swapaxes(e.states, 1, 2)))
    assert np.allclose(e.states[1], np.outer(u[:, 1], u[:, 1].conj()), atol=1e-6)


# ---------------------------------------------------------------------------
# degenerate cases


def test_povm_from_ensemble_drops_zero_prior_members():
    basis = np.eye(2, dtype=complex)
    e = Ensemble(
        np.array([0.5, 0.5, 0.0]),
        np.stack([
            np.outer(v, v.conj())
            for v in (basis[0], basis[1], (basis[0] + basis[1]) / np.sqrt(2))
        ]),
    )
    p = povm_from_ensemble(e)
    assert p.num_outcomes == 2
    assert np.allclose(p.elements[0], np.diag([1.0, 0.0]), atol=1e-12)


def test_povm_from_ensemble_completes_rank_deficient_support():
    # both members live in a 2-dim subspace of C^3: a kernel element is appended
    vecs = np.zeros((2, 3), dtype=complex)
    vecs[0, 0] = 1.0
    vecs[1, 1] = 1.0
    e = Ensemble.from_pure(np.array([0.5, 0.5]), vecs)
    p = povm_from_ensemble(e)
    assert p.num_outcomes == 3
    assert np.allclose(p.elements[-1], np.diag([0.0, 0.0, 1.0]), atol=1e-10)
    assert validate_povm(p, tol=1e-9).passed


def test_ensemble_from_povm_drops_zero_probability_outcome():
    # sigma concentrated on |0> gives outcome 2 (projector on |1>) zero mass
    p = standard_projective_povm(2)
    sigma = DensityOperator(np.diag([1.0, 0.0]))
    e, dropped = ensemble_from_povm(p, sigma)
    assert dropped == [1]
    assert len(e) == 1
    assert e.priors[0] == pytest.approx(1.0)


def test_round_trip_reports_dropped_outcome_residual():
    p = standard_projective_povm(2)
    sigma = DensityOperator(np.diag([1.0, 0.0]))
    rep = duality_round_trip_check(p, sigma)
    assert rep.dropped_outcomes == (1,)
    assert not rep.passed  # the dropped projector cannot be recovered
    assert rep.element_residuals[1] == pytest.approx(1.0, abs=1e-12)


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatch):
        ensemble_from_povm(standard_projective_povm(3), maximally_mixed(2))
