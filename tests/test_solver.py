import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infopower import solver
from infopower.errors import NotCommuting
from infopower.information import LN2, LogBase, channel_mutual_information_nats, mutual_information
from infopower.objects import (
    Ensemble,
    Povm,
    anti_tetrahedral_ensemble,
    maximally_mixed,
    random_povm,
    random_pure_states,
    standard_projective_povm,
    tensor_povm,
    tetrahedral_sic_povm,
    trine_povm,
)
from infopower.solver import (
    AdditivityReport,
    PowerReport,
    SolverConfig,
    additivity_check,
    commuting_fast_path,
    informational_power,
    see_saw_power,
    state_gradient,
)

from helpers import (
    HARD_BLOCK_CHANNELS,
    SIC_W_BITS,
    TRINE_W_BITS,
    block_channel,
    dual_bound_bits,
    fd_state_gradient,
    mi_bits_pure,
    random_commuting_elements,
    random_rank_one_elements,
    random_unitary,
    top_eigenvector,
)


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)


def test_num_states_default_and_bounds():
    cfg = SolverConfig()
    assert cfg.resolved_num_states(3) == 9
    with pytest.raises(ValueError):
        SolverConfig(num_states=2).resolved_num_states(3)
    with pytest.warns(UserWarning):
        assert SolverConfig(num_states=10).resolved_num_states(3) == 10


# ---------------------------------------------------------------------------
# commuting fast path


def test_fast_path_projective_baselines():
    for dim in (2, 3, 4):
        rep = commuting_fast_path(standard_projective_povm(dim))
        assert rep.fast_path_used
        assert rep.w_estimate == pytest.approx(np.log2(dim), abs=1e-9)
        assert rep.pruned_to == dim


def test_fast_path_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commuting_fast_path(tetrahedral_sic_povm())


def test_fast_path_m_eff_at_most_dim():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        p = Povm(random_commuting_elements(dim, dim + 2, rng))
        rep = commuting_fast_path(p)
        assert rep.pruned_to <= dim
        assert rep.converged


def test_fast_path_certifies_near_degenerate_channel():
    d, n, seed = HARD_BLOCK_CHANNELS[2]
    channel = block_channel(d, n, 0.5, np.random.default_rng(seed))
    u = random_unitary(d, np.random.default_rng(7))
    elements = np.einsum("ai,ij,bi->jab", u, channel, u.conj())
    rep = commuting_fast_path(Povm(elements))
    assert rep.fast_path_used
    assert rep.converged
    # every row of the channel bounds W through its divergence from the
    # report's output distribution (D(.||q) is convex, so the eigenbasis
    # states are the worst case among all states)
    ens = rep.best_ensemble
    q = ens.priors @ np.einsum("idc,jcd->ij", ens.states_stack(), elements).real
    upper = float(np.max(np.sum(channel * np.log2(channel / q), axis=1)))
    assert -1e-12 <= upper - rep.w_estimate <= 1e-9


def test_fast_path_accepts_completeness_residual_within_tolerance():
    els = standard_projective_povm(3).elements.copy()
    els[0] += 5e-10 * np.eye(3)
    rep = commuting_fast_path(Povm(els))
    assert rep.converged
    assert rep.w_estimate == pytest.approx(np.log2(3.0), abs=1e-6)


def test_generic_path_accepts_completeness_residual_within_tolerance():
    els = tetrahedral_sic_povm().elements.copy()
    els[0] += 4e-10 * np.eye(2)
    rep = informational_power(Povm(els), SolverConfig(restarts=2, seed=0))
    assert not rep.fast_path_used
    assert rep.converged
    assert rep.w_estimate == pytest.approx(SIC_W_BITS, abs=1e-6)


def test_dispatch_uses_fast_path_only_when_commuting():
    assert informational_power(standard_projective_povm(2)).fast_path_used
    cfg = SolverConfig(restarts=2, seed=0)
    assert not informational_power(tetrahedral_sic_povm(), cfg).fast_path_used


def test_trivial_povm_power_is_zero():
    rep = informational_power(Povm(np.eye(2)[None, :, :]))
    assert abs(rep.w_estimate) <= 1e-12


def _rotated(u: np.ndarray, channel: np.ndarray) -> np.ndarray:
    """Elements U diag(channel[:, j]) U† of the commuting POVM with this channel."""
    return np.einsum("ai,ij,bi->jab", u, channel, u.conj())


def _edge_corpus() -> list:
    u = random_unitary(3, np.random.default_rng(41))
    proj = standard_projective_povm(3).elements
    nearly_equal_rows = np.array([[1.0, 0.0], [1.0 - 1e-9, 1e-9], [0.0, 1.0]])
    return [
        pytest.param(np.array([0.2, 0.3, 0.5])[:, None, None], 0.0, id="D1N3"),
        pytest.param(np.concatenate([proj, np.zeros((1, 3, 3))]), np.log2(3.0), id="projective3_plus_zero"),
        pytest.param(np.concatenate([proj[:1] / 2, proj[:1] / 2, proj[1:]]), np.log2(3.0), id="projective3_split"),
        pytest.param(_rotated(u, np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), 1.0, id="rank2_plus_rank1"),
        # inputs 0 and 1 differ by 1e-9; inputs 0 and 2 are a noiseless bit
        pytest.param(_rotated(u, nearly_equal_rows), 1.0, id="rows_within_1e-9"),
    ]


@pytest.mark.parametrize("elements,w_bits", _edge_corpus())
def test_edge_corpus_takes_fast_path_with_exact_power(elements, w_bits):
    rep = informational_power(Povm(elements))
    assert rep.fast_path_used
    assert rep.converged
    assert rep.w_estimate == pytest.approx(w_bits, abs=1e-9)


def _generic_edge_corpus() -> list:
    return [
        pytest.param(random_povm(2, 40, seed=5).elements, id="D2N40"),
        pytest.param(random_rank_one_elements(3, 4, np.random.default_rng(12)), id="rank1_D3N4"),
        pytest.param(random_rank_one_elements(3, 5, np.random.default_rng(11)), id="rank1_D3N5"),
    ]


@pytest.mark.parametrize("elements", _generic_edge_corpus())
def test_generic_edge_corpus_certifies_within_dual_bound(elements):
    p = Povm(elements)
    rep = informational_power(p, SolverConfig(restarts=2))
    assert not rep.fast_path_used
    assert rep.converged
    assert 0.0 <= rep.w_estimate <= np.log2(min(p.dim, p.num_outcomes))
    ens = rep.best_ensemble
    vectors = np.stack([top_eigenvector(s.matrix) for s in ens.states])
    upper = dual_bound_bits(ens.priors, vectors, p.elements)
    assert -1e-12 <= upper - rep.w_estimate <= 1e-8


@pytest.mark.parametrize("eps", [1e-9, 1e-6])
def test_slightly_noncommuting_povm_takes_generic_path(eps):
    # a commuting D3N5 POVM, with a non-commuting Hermitian term added to
    # element 0 and taken from element 1 (completeness and PSD survive)
    rng = np.random.default_rng(1)
    elements = _rotated(random_unitary(3, rng), block_channel(3, 5, 0.3, rng))
    exact = commuting_fast_path(Povm(elements)).w_estimate
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    term = eps * (g + g.conj().T) / np.linalg.norm(g + g.conj().T)
    elements[0] += term
    elements[1] -= term
    rep = informational_power(Povm(elements), SolverConfig(restarts=2, seed=0))
    assert not rep.fast_path_used
    assert rep.converged
    if eps == 1e-9:
        assert rep.w_estimate == pytest.approx(exact, abs=1e-7)


@given(
    dim=st.integers(min_value=1, max_value=4),
    outcomes=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_fast_path_power_bounds_and_invariances(dim, outcomes, seed):
    rng = np.random.default_rng(seed)
    elements = random_commuting_elements(dim, outcomes, rng)

    def power(els: np.ndarray) -> float:
        rep = informational_power(Povm(els))
        assert rep.fast_path_used
        return rep.w_estimate

    w = power(elements)
    assert -1e-12 <= w <= np.log2(min(dim, outcomes)) + 1e-12
    v = random_unitary(dim, rng)
    variants = {
        "permuted": elements[rng.permutation(outcomes)],
        "split": np.concatenate([elements[:1] / 2, elements[:1] / 2, elements[1:]]),
        "zero_appended": np.concatenate([elements, np.zeros((1, dim, dim))]),
        "conjugated": v @ elements @ v.conj().T,
    }
    for name, els in variants.items():
        assert power(els) == pytest.approx(w, abs=1e-9), name


# ---------------------------------------------------------------------------
# see-saw on analytic instances


def test_see_saw_sic():
    rep = see_saw_power(tetrahedral_sic_povm(), SolverConfig(restarts=6, seed=0))
    assert rep.w_estimate == pytest.approx(SIC_W_BITS, abs=1e-9)
    assert rep.converged
    assert rep.pruned_to == 4


def test_see_saw_trine():
    rep = see_saw_power(trine_povm(), SolverConfig(restarts=6, seed=0))
    assert rep.w_estimate == pytest.approx(TRINE_W_BITS, abs=1e-9)
    assert rep.pruned_to == 3
    assert rep.bound_check.real_entries
    assert rep.bound_check.real_passed


def test_report_invariants():
    p = tetrahedral_sic_povm()
    cfg = SolverConfig(restarts=4, seed=1)
    rep = see_saw_power(p, cfg)
    assert isinstance(rep, PowerReport)
    # lower-bound soundness: the reported value is the recomputed mutual
    # information of the reported ensemble
    assert rep.w_estimate == pytest.approx(
        mutual_information(rep.best_ensemble, p), abs=1e-12
    )
    assert len(rep.per_restart_values) == 4
    assert max(rep.per_restart_values) <= rep.w_estimate + 1e-9
    assert rep.pruned_to == len(rep.best_ensemble)
    assert rep.bound_check.m_eff == rep.pruned_to
    assert rep.base is LogBase.BITS


def test_power_in_nats():
    cfg = SolverConfig(restarts=4, seed=0, base=LogBase.NATS)
    rep = see_saw_power(trine_povm(), cfg)
    assert rep.w_estimate == pytest.approx(TRINE_W_BITS * LN2, abs=1e-9)


@pytest.mark.parametrize(
    "dim, outcomes, povm_seed, seed",
    [(4, 8, 2, 0), (3, 4, 3041, 3041), (4, 5, 4052, 4052)],
)
def test_certifies_random_povms_within_dual_bound(dim, outcomes, povm_seed, seed):
    """Instances on which an alternating see-saw with revivals stopped
    uncertified; the reported W must sit within 1e-8 bits of the dual
    bound at its own output distribution."""
    p = random_povm(dim, outcomes, seed=povm_seed)
    rep = informational_power(p, SolverConfig(restarts=3, seed=seed))
    assert rep.converged
    ens = rep.best_ensemble
    vectors = np.stack([top_eigenvector(s.matrix) for s in ens.states])
    upper = dual_bound_bits(ens.priors, vectors, p.elements)
    assert -1e-12 <= upper - rep.w_estimate <= 1e-8


# ---------------------------------------------------------------------------
# solver internals: documented invariants


def test_restart_history_is_monotone():
    for povm in (trine_povm(), tetrahedral_sic_povm()):
        for k in range(4):
            out = solver._run_restart(povm.elements, 4, 0, k, 1e-9)
            h = np.array(out.history)
            assert np.all(np.diff(h) >= -1e-12), "see-saw objective must not decrease"


def test_restart_value_is_soundly_recomputable():
    """Per-restart lower-bound soundness against an independent MI formula."""
    p = tetrahedral_sic_povm()
    for k in range(3):
        out = solver._run_restart(p.elements, 4, 0, k, 1e-9)
        independent = mi_bits_pure(out.priors, out.vectors, p.elements) * LN2
        assert out.value_nats == pytest.approx(independent, abs=1e-12)


def test_polish_reports_the_rate_of_its_result():
    p = random_povm(3, 5, seed=1)
    vectors = np.stack([s.amplitudes for s in random_pure_states(3, 9, seed=7)])
    v, r, rate = solver._polish(vectors, np.full(9, 1 / 9), p.elements)
    assert rate == channel_mutual_information_nats(r, solver._channel_probs(v, p.elements))


def test_unitary_covariance_of_power():
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    p = trine_povm()
    q = Povm(np.stack([u @ m @ u.conj().T for m in p.elements]))
    cfg = SolverConfig(restarts=6, seed=2)
    w1 = see_saw_power(p, cfg).w_estimate
    w2 = see_saw_power(q, cfg).w_estimate
    assert abs(w1 - w2) <= 2e-6


def test_deterministic_across_runs_and_jobs():
    cfg = SolverConfig(restarts=4, seed=9)
    p = trine_povm()
    a = see_saw_power(p, cfg)
    b = see_saw_power(p, cfg)
    c = see_saw_power(p, cfg, jobs=2)
    assert a.w_estimate == b.w_estimate == c.w_estimate
    assert a.per_restart_values == b.per_restart_values == c.per_restart_values
    assert np.array_equal(a.best_ensemble.priors, c.best_ensemble.priors)


@settings(max_examples=10)
@given(
    shape=st.integers(min_value=2, max_value=3).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(min_value=d + 1, max_value=2 * d))
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_generic_power_bounds_and_invariances(shape, seed):
    dim, outcomes = shape
    elements = random_povm(dim, outcomes, seed=seed).elements
    rng = np.random.default_rng(seed)

    def power(els: np.ndarray) -> float:
        rep = see_saw_power(Povm(els), SolverConfig(restarts=2, seed=0))
        assert rep.converged
        return rep.w_estimate

    w = power(elements)
    assert 0.0 <= w <= np.log2(min(dim, outcomes))
    v = random_unitary(dim, rng)
    variants = {
        "permuted": elements[rng.permutation(outcomes)],
        "split": np.concatenate([elements[:1] / 2, elements[:1] / 2, elements[1:]]),
        "zero_appended": np.concatenate([elements, np.zeros((1, dim, dim))]),
        "conjugated": v @ elements @ v.conj().T,
    }
    for name, els in variants.items():
        assert power(els) == pytest.approx(w, abs=1e-7), name
    merged = np.concatenate([elements[:1] + elements[1:2], elements[2:]])
    assert power(merged) <= w + 1e-7


# ---------------------------------------------------------------------------
# gradients


def test_state_gradient_matches_finite_differences():
    rng = np.random.default_rng(0)
    for seed in range(6):
        dim = 2 + seed % 2
        p = random_povm(dim, dim + 1, seed=seed)
        states = random_pure_states(dim, 3, seed=seed + 40)
        priors = rng.random(3)
        priors /= priors.sum()
        e = Ensemble(priors, tuple(s.to_density() for s in states))
        grads = state_gradient(e, p)
        for i in range(3):
            fd = fd_state_gradient(e, p, i)
            rel = np.linalg.norm(grads[i] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5, f"seed {seed} member {i}: rel err {rel}"


def test_state_gradient_vanishes_at_optimum():
    grads = state_gradient(anti_tetrahedral_ensemble(), tetrahedral_sic_povm())
    assert max(np.linalg.norm(g) for g in grads) <= 1e-6


def test_state_gradient_rejects_mixed_members():
    e = Ensemble(np.array([1.0]), (maximally_mixed(2),))
    with pytest.raises(ValueError):
        state_gradient(e, tetrahedral_sic_povm())


def test_state_gradient_dimension_mismatch():
    with pytest.raises(ValueError):
        state_gradient(anti_tetrahedral_ensemble(), standard_projective_povm(3))


# ---------------------------------------------------------------------------
# additivity


def test_additivity_of_projective_pair():
    cfg = SolverConfig(restarts=4, seed=0)
    rep = additivity_check(standard_projective_povm(2), standard_projective_povm(3), cfg)
    assert isinstance(rep, AdditivityReport)
    assert rep.w1 == pytest.approx(1.0, abs=1e-9)
    assert rep.w2 == pytest.approx(np.log2(3.0), abs=1e-9)
    assert rep.w12 == pytest.approx(1.0 + np.log2(3.0), abs=1e-9)
    assert abs(rep.gap) <= 1e-8


@settings(max_examples=10)
@given(
    n1=st.integers(min_value=3, max_value=4),
    s1=st.integers(min_value=0, max_value=2**31 - 1),
    n2=st.integers(min_value=3, max_value=4),
    s2=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_power_is_additive_on_qubit_pairs(n1, s1, n2, s2):
    cfg = SolverConfig(restarts=2, seed=0)
    p1, p2 = random_povm(2, n1, seed=s1), random_povm(2, n2, seed=s2)
    r1, r2 = informational_power(p1, cfg), informational_power(p2, cfg)
    r12 = informational_power(tensor_povm(p1, p2), cfg)
    assert r1.converged and r2.converged and r12.converged
    assert not r12.fast_path_used
    # three certificate margins of 1e-8 nats
    assert abs(r12.w_estimate - r1.w_estimate - r2.w_estimate) <= 3e-8 / LN2


def test_tensor_of_commuting_povms_stays_on_fast_path():
    p = tensor_povm(standard_projective_povm(2), standard_projective_povm(2))
    rep = informational_power(p)
    assert rep.fast_path_used
    assert rep.w_estimate == pytest.approx(2.0, abs=1e-9)
