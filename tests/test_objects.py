import numpy as np
import pytest
from hypothesis import given, strategies as st

from infopower.errors import DimensionMismatch, NotPositiveSemidefinite
from infopower.objects import (
    DensityOperator,
    Ensemble,
    Povm,
    anti_tetrahedral_ensemble,
    ensemble_average,
    hesse_sic_povm,
    maximally_mixed,
    projective_povm,
    random_povm,
    random_pure_states,
    standard_projective_povm,
    tensor_povm,
    tensor_power,
    tetrahedral_sic_povm,
    trine_povm,
    validate_povm,
)

from helpers import random_unitary


# ---------------------------------------------------------------------------
# states


def test_density_operator_valid():
    rho = DensityOperator(np.diag([0.25, 0.75]))
    assert rho.dim == 2


def test_density_operator_rejects_negative():
    with pytest.raises(NotPositiveSemidefinite):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_operator_rejects_wrong_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.diag([0.6, 0.6]))


def test_density_operator_hermitizes_tiny_asymmetry():
    m = np.diag([0.5, 0.5]).astype(complex)
    m[0, 1] = 1e-13j
    rho = DensityOperator(m)
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)


# ---------------------------------------------------------------------------
# POVMs


def test_povm_requires_completeness():
    with pytest.raises(ValueError):
        Povm(np.stack([np.diag([0.5, 0.5]), np.diag([0.5, 0.4])]))


def test_povm_requires_psd_elements():
    els = np.stack([np.diag([1.5, 0.5]), np.diag([-0.5, 0.5])])
    with pytest.raises(NotPositiveSemidefinite):
        Povm(els)


def test_povm_psd_error_names_first_failing_element():
    els = np.stack([np.diag([1.0, 0.2]), np.diag([-0.5, 0.5]), np.diag([0.5, -0.2]),
                    np.diag([0.0, 0.5])])
    with pytest.raises(NotPositiveSemidefinite, match=r"POVM element 1 has eigenvalue -5\.000e-01"):
        Povm(els)


# anti-Hermitian part K cancels in I/3 + K + I/3 - K, so hermitizing the
# stack alone would leave a valid POVM behind
SKEW = np.array([[0.0, 0.3], [-0.3, 0.0]])


def test_povm_refuses_a_non_hermitian_stack_naming_its_first_bad_element():
    els = np.stack([np.eye(2) / 3, np.eye(2) / 3 + SKEW, np.eye(2) / 3 - SKEW])
    with pytest.raises(ValueError, match=r"POVM element 1 is not Hermitian: \|m - m†\|_F = 8\.485e-01"):
        Povm(els)
    # the tolerance is psd_tol: a looser one admits the stack, hermitized
    p = Povm(els, psd_tol=1.0)
    assert np.allclose(p.elements, np.eye(2) / 3)


def test_density_matrices_refuse_a_non_hermitian_matrix():
    with pytest.raises(ValueError, match="density operator is not Hermitian"):
        DensityOperator(np.eye(2) / 2 + SKEW)
    with pytest.raises(ValueError, match="ensemble state 1 is not Hermitian"):
        Ensemble(np.full(3, 1 / 3), np.stack([np.eye(2) / 2, np.eye(2) / 2 + SKEW, np.eye(2) / 2 - SKEW]))


def test_validate_povm_reports_each_elements_hermiticity_residual():
    els = np.stack([np.eye(2) / 3, np.eye(2) / 3 + SKEW, np.eye(2) / 3 - 2 * SKEW])
    rep = validate_povm(els)
    assert not rep.passed
    assert rep.hermiticity_residuals == pytest.approx([np.linalg.norm(m - m.conj().T) for m in els], abs=1e-15)
    assert all(type(x) is float for x in rep.hermiticity_residuals + rep.psd_residuals)
    assert type(rep.passed) is bool


def test_povm_requires_at_least_one_element():
    with pytest.raises(ValueError):
        Povm(np.zeros((0, 2, 2)))


def test_povm_indexing():
    p = standard_projective_povm(3)
    assert len(p) == 3
    assert p.num_outcomes == 3
    assert np.allclose(p[1], np.diag([0.0, 1.0, 0.0]))


def test_validate_povm_passes_sic():
    rep = validate_povm(tetrahedral_sic_povm(), tol=1e-9)
    assert rep.passed
    assert len(rep.psd_residuals) == 4


def test_validate_povm_reports_completeness_failure():
    els = np.stack([np.diag([0.5, 0.5]), np.diag([0.5, 0.5 - 3e-6])])
    rep = validate_povm(els, tol=1e-8)
    assert not rep.passed
    assert rep.completeness_residual > 1e-8


def test_validate_povm_accepts_raw_stack():
    rep = validate_povm([np.eye(2)], tol=1e-10)
    assert rep.passed


def test_validate_povm_rejects_a_negative_or_non_finite_tol():
    for tol in (-1e-9, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            validate_povm(tetrahedral_sic_povm(), tol=tol)


def test_validate_povm_raises_on_a_non_finite_element():
    # a NaN residual that is not the first one would drop out of max()
    els = np.concatenate([tetrahedral_sic_povm().elements, np.full((1, 2, 2), np.nan)])
    with pytest.raises(ValueError, match="non-finite"):
        validate_povm(els)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Povm(np.zeros((1, 0, 0))),
        lambda: validate_povm(np.zeros((1, 0, 0))),
        lambda: DensityOperator(np.zeros((0, 0))),
        lambda: Ensemble(np.ones(1), np.zeros((1, 0, 0))),
        lambda: projective_povm(np.zeros((0, 0))),
    ],
    ids=["Povm", "validate_povm", "DensityOperator", "Ensemble", "projective_povm"],
)
def test_dimension_zero_is_refused(build):
    with pytest.raises(ValueError, match="non-empty"):
        build()


# ---------------------------------------------------------------------------
# ensembles


def test_ensemble_validation():
    with pytest.raises(ValueError):
        Ensemble(np.array([0.7, 0.4]), np.stack([maximally_mixed(2).matrix] * 2))
    with pytest.raises(ValueError):
        Ensemble(np.array([1.2, -0.2]), np.stack([maximally_mixed(2).matrix] * 2))


def test_ensemble_states_are_one_validated_stack():
    e = anti_tetrahedral_ensemble()
    assert isinstance(e.states, np.ndarray)
    assert e.states.shape == (4, 2, 2) and e.states.dtype == complex
    assert np.array_equal(e.states, np.conj(np.swapaxes(e.states, 1, 2)))


def test_ensemble_names_its_first_failing_member():
    good = np.eye(2) / 2
    not_psd = np.diag([1.5, -0.5])
    bad_trace = np.eye(2) * 0.6
    with pytest.raises(NotPositiveSemidefinite, match="ensemble state 1 "):
        Ensemble(np.full(4, 0.25), np.stack([good, not_psd, good, not_psd]))
    with pytest.raises(ValueError, match="ensemble state 2 trace"):
        Ensemble(np.full(4, 0.25), np.stack([good, good, bad_trace, bad_trace]))


def test_ensemble_rejects_malformed_stacks():
    with pytest.raises(ValueError):
        Ensemble(np.ones(1), np.ones((1, 2, 3)) / 2)  # not square
    with pytest.raises(ValueError):
        Ensemble(np.ones(1), np.eye(2) / 2)  # one matrix, not a stack
    with pytest.raises(ValueError):
        Ensemble(np.ones(1), np.ones((1, 1, 2, 2)) / 2)  # 4-D
    with pytest.raises(ValueError, match="2 priors but 3 states"):
        Ensemble(np.full(2, 0.5), np.stack([np.eye(2) / 2] * 3))


def test_ensemble_from_pure_checks_every_row_norm():
    vecs = np.eye(3, dtype=complex)
    vecs[2, 2] = 1.0 + 1e-9
    with pytest.raises(ValueError, match="is not 1 within 1e-12"):
        Ensemble.from_pure(np.full(3, 1 / 3), vecs)
    vecs[2, 2] = 1.0 + 1e-13
    assert len(Ensemble.from_pure(np.full(3, 1 / 3), vecs)) == 3


def test_ensemble_from_pure_and_average():
    vecs = np.eye(2, dtype=complex)
    e = Ensemble.from_pure(np.array([0.5, 0.5]), vecs)
    assert e.dim == 2 and len(e) == 2
    avg = ensemble_average(e)
    assert np.allclose(avg.matrix, np.eye(2) / 2)


def test_maximally_mixed():
    assert np.allclose(maximally_mixed(3).matrix, np.eye(3) / 3)


# ---------------------------------------------------------------------------
# structured instances


def test_sic_povm_symmetry():
    p = tetrahedral_sic_povm()
    assert p.dim == 2 and len(p) == 4
    assert np.allclose(sum(p.elements), np.eye(2), atol=1e-12)
    # defining SIC property: Tr[Pi_i Pi_j] = 1/12 off-diagonal, 1/4 diagonal
    for i in range(4):
        for j in range(4):
            val = np.trace(p.elements[i] @ p.elements[j]).real
            assert val == pytest.approx(0.25 if i == j else 1.0 / 12.0, abs=1e-12)
    assert not p.is_real()


def test_anti_tetrahedral_ensemble_is_orthogonal_to_matching_outcome():
    p = tetrahedral_sic_povm()
    e = anti_tetrahedral_ensemble()
    assert np.allclose(e.priors, 0.25)
    for i, s in enumerate(e.states):
        # <psi_i| Pi_i |psi_i> = 0: each state avoids its matching outcome
        assert np.trace(s @ p.elements[i]).real == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(ensemble_average(e).matrix, np.eye(2) / 2, atol=1e-12)


def test_projective_povm_requires_orthonormal_basis():
    with pytest.raises(ValueError):
        projective_povm(np.array([[1.0, 0.0], [1.0, 0.0]]).T)


def test_standard_projective_povm():
    p = standard_projective_povm(4)
    assert p.dim == 4 and len(p) == 4
    assert p.max_commutator_norm() <= 1e-14


def test_trine_povm_is_real_and_complete():
    p = trine_povm()
    assert p.dim == 2 and len(p) == 3
    assert p.is_real()
    assert np.allclose(sum(p.elements), np.eye(2), atol=1e-12)
    for m in p.elements:
        w = np.linalg.eigvalsh(m)
        assert w[0] == pytest.approx(0.0, abs=1e-12)
        assert w[1] == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_tensor_povm_order_and_completeness():
    a = standard_projective_povm(2)
    b = trine_povm()
    t = tensor_povm(a, b)
    assert t.dim == 4 and len(t) == 6
    # first-factor-major ordering: element i*len(b)+j is A_i (x) B_j
    for i in range(2):
        for j in range(3):
            assert np.allclose(t.elements[i * 3 + j], np.kron(a.elements[i], b.elements[j]))


def test_hesse_sic_is_a_sic_in_dimension_three():
    p = hesse_sic_povm()
    assert p.dim == 3 and len(p) == 9
    assert np.allclose(sum(p.elements), np.eye(3), atol=1e-12)
    vectors = np.stack([np.linalg.eigh(m)[1][:, -1] for m in p.elements])
    assert np.allclose(np.linalg.eigvalsh(p.elements)[:, -1], 1.0 / 3.0, atol=1e-12)
    # |<psi_i|psi_j>|^2 = 1/(D + 1) = 1/4 for every pair i != j
    overlaps = np.abs(vectors.conj() @ vectors.T) ** 2
    assert np.allclose(overlaps, np.where(np.eye(9, dtype=bool), 1.0, 0.25), atol=1e-12)


def test_tensor_power_repeats_tensor_povm():
    s = tetrahedral_sic_povm()
    assert np.array_equal(tensor_power(s, 1).elements, s.elements)
    assert np.array_equal(tensor_power(s, 3).elements,
                          tensor_povm(tensor_povm(s, s), s).elements)
    with pytest.raises(ValueError):
        tensor_power(s, 0)


def test_sic_tensor_sic_commutators_nonzero():
    s = tetrahedral_sic_povm()
    t = tensor_povm(s, s)
    assert t.max_commutator_norm() > 1e-3


@pytest.mark.parametrize(
    "povm",
    [random_povm(3, 5, seed=1), random_povm(4, 8, seed=2), tetrahedral_sic_povm()],
    ids=["rand3x5", "rand4x8", "sic"],
)
def test_max_commutator_norm_matches_pairwise_norms(povm):
    e = povm.elements
    expected = max(
        np.linalg.norm(e[i] @ e[j] - e[j] @ e[i])
        for i in range(len(e)) for j in range(i + 1, len(e))
    )
    assert expected > 1e-3
    assert povm.max_commutator_norm() == pytest.approx(expected, rel=0, abs=1e-14)


def test_max_commutator_norm_is_zero_for_projective():
    assert standard_projective_povm(3).max_commutator_norm() == 0.0


# ---------------------------------------------------------------------------
# random generators


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_povm_is_always_valid(dim, outcomes, seed):
    p = random_povm(dim, outcomes, seed)
    assert p.dim == dim and len(p) == outcomes
    assert validate_povm(p, tol=1e-9).passed


def test_random_povm_seeded_reproducibility():
    a = random_povm(3, 4, seed=123)
    b = random_povm(3, 4, seed=123)
    assert np.array_equal(a.elements, b.elements)
    c = random_povm(3, 4, seed=124)
    assert not np.allclose(a.elements, c.elements)


def test_random_povm_real_flag():
    p = random_povm(2, 3, seed=5, real=True)
    assert p.is_real()
    assert validate_povm(p, tol=1e-9).passed
    assert not random_povm(2, 3, seed=5).is_real()


def test_random_pure_states():
    states = random_pure_states(3, 5, seed=9)
    assert states.shape == (5, 3)
    assert np.allclose(np.linalg.norm(states, axis=1), 1.0, rtol=0, atol=1e-12)
    assert np.array_equal(states, random_pure_states(3, 5, seed=9))
    assert len(Ensemble.from_pure(np.full(5, 0.2), states)) == 5


def test_povm_unitary_conjugation_stays_valid():
    rng = np.random.default_rng(17)
    u = random_unitary(2, rng)
    p = tetrahedral_sic_povm()
    q = Povm(np.stack([u @ m @ u.conj().T for m in p.elements]))
    assert validate_povm(q, tol=1e-9).passed
