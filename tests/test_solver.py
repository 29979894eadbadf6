import copy

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
    hesse_sic_povm,
    maximally_mixed,
    random_povm,
    random_pure_states,
    standard_projective_povm,
    tensor_povm,
    tensor_power,
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
    HESSE_W_BITS,
    SIC_W_BITS,
    TRINE_W_BITS,
    block_channel,
    dual_bound_bits,
    fd_state_gradient,
    mi_bits_pure,
    random_commuting_elements,
    random_rank_one_elements,
    random_unitary,
    reference_probe_values,
    top_eigenvector,
)


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(restarts=0)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(seed=-1)


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


def test_commuting_reports_do_not_depend_on_the_unit():
    """The fast path stops at 1e-12 bits in either unit, so on random
    commuting POVMs a report in nats is the report in bits converted."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        channel = rng.dirichlet(np.full(int(rng.integers(dim + 1, 3 * dim + 1)), 0.5), size=dim)
        p = Povm(_rotated(random_unitary(dim, rng), channel))
        bits = informational_power(p)
        nats = informational_power(p, SolverConfig(base=LogBase.NATS))
        assert bits.fast_path_used and nats.fast_path_used
        assert bits.iterations_used == nats.iterations_used
        assert bits.pruned_to == nats.pruned_to
        assert np.array_equal(bits.best_ensemble.priors, nats.best_ensemble.priors)
        assert bits.w_estimate * LN2 == pytest.approx(nats.w_estimate, abs=1e-15)


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
    vectors = np.stack([top_eigenvector(s) for s in ens.states])
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


def test_see_saw_joins_violators_on_the_sic_squared():
    """Restart 0 on SIC(x)SIC certifies only after several rounds, each
    joining the probe's best violator to the ensemble."""
    rep = see_saw_power(tensor_power(tetrahedral_sic_povm(), 2))
    assert rep.converged
    assert rep.iterations_used > 1
    assert rep.w_estimate == pytest.approx(2 * SIC_W_BITS, abs=1e-9)


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
    # restarts is an upper bound: restart 0 certifies the SIC alone
    assert len(rep.per_restart_values) == 1
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
    [(4, 8, 2, 0), (3, 4, 3041, 3041), (4, 5, 4052, 4052), (3, 5, 1, 0)],
)
def test_certifies_random_povms_within_dual_bound(dim, outcomes, povm_seed, seed):
    """Instances on which an alternating see-saw with revivals stopped
    uncertified, and rand3x5. The reported prior is refit to the inner
    Blahut-Arimoto tolerance (1e-12 nats, 1.44e-12 bits), so W must sit
    within it of the dual bound at its own output distribution."""
    p = random_povm(dim, outcomes, seed=povm_seed)
    rep = informational_power(p, SolverConfig(restarts=3, seed=seed))
    assert rep.converged
    ens = rep.best_ensemble
    vectors = np.stack([top_eigenvector(s) for s in ens.states])
    upper = dual_bound_bits(ens.priors, vectors, p.elements)
    assert -1e-12 <= upper - rep.w_estimate <= solver.INNER_BA_TOL / LN2


# ---------------------------------------------------------------------------
# solver internals: documented invariants


def test_restart_history_is_monotone(monkeypatch):
    """The rates a restart's polishes and refits return, in order, never
    fall by more than roundoff; SIC(x)SIC restart 0 runs several rounds,
    so the violator joins between them are covered too."""
    rates: list[float] = []

    def recorded(step):
        def wrapped(*args):
            out = step(*args)
            rates.append(out[-1])
            return out
        return wrapped

    monkeypatch.setattr(solver, "_polish", recorded(solver._polish))
    monkeypatch.setattr(solver, "_refit", recorded(solver._refit))
    sic = tetrahedral_sic_povm()
    runs = [(povm, k) for povm in (trine_povm(), sic) for k in range(4)]
    for povm, k in [*runs, (tensor_power(sic, 2), 0)]:
        rates.clear()
        out = solver._run_restart(povm.elements, 0, k, 1e-9)
        assert len(rates) == 2 * out.iterations
        assert np.all(np.diff(rates) >= -1e-12), "the rate must not decrease"


def test_restart_value_is_soundly_recomputable():
    """Per-restart lower-bound soundness against an independent MI formula."""
    p = tetrahedral_sic_povm()
    for k in range(3):
        out = solver._run_restart(p.elements, 0, k, 1e-9)
        independent = mi_bits_pure(out.priors, out.vectors, p.elements) * LN2
        assert out.value_nats == pytest.approx(independent, abs=1e-12)


def test_polish_reports_the_rate_of_its_result():
    p = random_povm(3, 5, seed=1)
    vectors = random_pure_states(3, 9, seed=7)
    v, r, rate = solver._polish(vectors, np.full(9, 1 / 9), p.elements)
    assert rate == channel_mutual_information_nats(r, solver._channel_probs(v, p.elements))


def test_polish_gradient_matches_central_differences():
    """The gradient in u_i = sqrt(r_i) psi_i, at two points of six members;
    I does not change with the scale of u, so the gradient is orthogonal
    to the point."""
    p = random_povm(4, 8, seed=2)
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((2, 2 * 6 * 4)):
        _, g = solver._polish_fg(x, p.elements)
        h = 1e-6
        fd = np.empty_like(x)
        for k in range(len(x)):
            e = np.zeros(len(x))
            e[k] = h
            fd[k] = (solver._polish_fg(x + e, p.elements)[0]
                     - solver._polish_fg(x - e, p.elements)[0]) / (2 * h)
        assert np.max(np.abs(fd - g)) <= 1e-8
        assert abs(np.sum(x * g)) <= 1e-12


def test_polish_takes_zero_priors():
    """A member at prior 0 starts at |u| = sqrt(1e-300) and may shrink
    further; the polish must still return finite unit states and priors,
    without a RuntimeWarning, at a rate no lower than the start's."""
    for seed in range(30):
        p = random_povm(3, 6, seed=seed)
        vectors = random_pure_states(3, 9, seed=seed)
        prior = np.array([1 / 6] * 6 + [0.0] * 3)
        start = channel_mutual_information_nats(prior, solver._channel_probs(vectors, p.elements))
        v, r, rate = solver._polish(vectors, prior, p.elements)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(r))
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert rate >= start


def test_first_polish_ends_well_before_its_cap(monkeypatch):
    """The first polish of each of the default 20 restarts of rand4x8
    ends on its own, far below POLISH_MAX_ITER. A parametrization in
    which a member's curvature scales with its prior, such as softmax
    prior logits, crawls here for up to 603 evaluations, some restarts up
    to the cap."""
    ticks: list[int] = []
    ascent = solver._lbfgs_ascent

    def counted(fg, x, max_iter):
        ticks.append(0)

        def fg_counted(y):
            ticks[-1] += 1
            return fg(y)

        return ascent(fg_counted, x, max_iter)

    monkeypatch.setattr(solver, "_lbfgs_ascent", counted)
    p = random_povm(4, 8, seed=2)
    first = []
    for k in range(20):
        ticks.clear()
        solver._run_restart(p.elements, 0, k, 1e-9)
        first.append(ticks[0])
    assert max(first) <= 300


@pytest.mark.parametrize("rows", [1, 2, 151])
def test_kernels_match_their_einsum_references(rows):
    """numpy hands a single row to gemv and a block to gemm; both must give
    <psi_i|Pi_j|psi_i> and H_i = sum_j lr_ij Pi_j."""
    povm = random_povm(4, 8, seed=2)
    elements = povm.elements
    vectors = random_pure_states(povm.dim, rows, seed=3)
    probs = solver._channel_probs(vectors, elements)
    reference = np.einsum("ia,jab,ib->ij", vectors.conj(), elements, vectors).real
    assert probs.shape == (rows, 8)
    assert np.max(np.abs(probs - reference)) <= 1e-14
    lr = np.log(probs + 0.1)
    h = solver._weighted_elements(lr, elements)
    assert h.shape == (rows, 4, 4)
    assert np.max(np.abs(h - np.tensordot(lr, elements, 1))) <= 1e-14


def _assert_same_run(alone, together) -> None:
    assert alone.value_nats == together.value_nats
    assert np.array_equal(alone.vectors, together.vectors)
    assert np.array_equal(alone.priors, together.priors)
    assert alone.iterations == together.iterations
    assert alone.converged == together.converged


@pytest.mark.parametrize(
    "povm",
    [trine_povm(), tetrahedral_sic_povm(), random_povm(3, 5, seed=1), random_povm(4, 8, seed=2)],
    ids=["trine", "sic", "rand3x5", "rand4x8"],
)
def test_restart_does_not_depend_on_the_runs_before_it(povm):
    """(seed, restart_index) alone decide a restart: run in reverse order,
    each is exactly the run it is in order, and see_saw_power reports the
    values of those runs."""
    in_order = [solver._run_restart(povm.elements, 0, k, 1e-9) for k in range(6)]
    for k in reversed(range(6)):
        _assert_same_run(solver._run_restart(povm.elements, 0, k, 1e-9), in_order[k])
    values = see_saw_power(povm, SolverConfig(restarts=6)).per_restart_values
    assert values == tuple(LogBase.BITS.from_nats(o.value_nats) for o in in_order[:len(values)])


def test_lbfgs_rows_stop_on_their_own(monkeypatch):
    """One separable concave quadratic per row of conditionings: no step
    the ascent takes lowers f, and it stops on its own before max_iter at
    the maximum 0, within 1e-12."""
    centre = np.array([1.0, -2.0, 0.5])
    direction = solver._lbfgs_direction
    for a in np.array([[1.0, 1.0, 1.0], [1.0, 30.0, 1e3], [1.0, 1e3, 1e6]]):
        evaluated = []
        stepped = []  # f at the start and at every point stepped to

        def fg(x):
            dx = x - centre
            evaluated.append((-0.5 * np.sum(a * dx**2), -a * dx))
            return evaluated[-1]

        def recorded(g, pairs):
            # the ascent takes a new direction only where it stands
            stepped.append(next(f for f, h in evaluated if h is g))
            return direction(g, pairs)

        monkeypatch.setattr(solver, "_lbfgs_direction", recorded)
        _, f = solver._lbfgs_ascent(fg, np.zeros(3), solver.POLISH_MAX_ITER)
        assert np.all(np.diff(stepped) >= 0.0)
        assert len(stepped) - 1 < solver.POLISH_MAX_ITER
        assert stepped[-1] == f and -1e-12 < f <= 0.0


def test_certified_restarts_sit_within_the_margin_of_the_best():
    """A restart may certify only within the margin of the best rate any
    restart found; one stopped on another's probe would fall short."""
    p = random_povm(4, 8, seed=2)
    tol = 1e-9
    outcomes = [solver._run_restart(p.elements, 0, k, tol) for k in range(20)]
    best = max(o.value_nats for o in outcomes)
    for o in outcomes:
        if o.converged:
            assert o.value_nats >= best - max(10 * tol, 1e-9)


@pytest.mark.parametrize("fallback", [False, True], ids=["rand4x8", "sic2_one_round"])
def test_other_restarts_run_only_when_restart_zero_does_not_certify(fallback, monkeypatch):
    """The restarts stop at the first that certifies: on rand4x8 that is
    restart 0, and its value is the only one reported. One round is too
    few for any restart to certify SIC(x)SIC; then all R run, and the
    report is the best of them."""
    if fallback:
        monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
        p, restarts, ran = tensor_power(tetrahedral_sic_povm(), 2), 3, range(3)
    else:
        p, restarts, ran = random_povm(4, 8, seed=2), 4, [0]
    rep = see_saw_power(p, SolverConfig(restarts=restarts))
    outcomes = [solver._run_restart(p.elements, 0, k, 1e-9) for k in ran]
    values = tuple(LogBase.BITS.from_nats(o.value_nats) for o in outcomes)
    assert rep.per_restart_values == values
    assert rep.converged is not fallback
    assert rep.w_estimate >= max(values)


def test_a_certificate_from_any_restart_converges_the_report(monkeypatch):
    """Restart 1 certifies below the rate restart 0 reached uncertified:
    the restarts stop there, restart 0's ensemble is kept, and the report
    is converged, since W is at most restart 1's rate plus the margin."""
    p = tetrahedral_sic_povm()
    ensembles = {0: anti_tetrahedral_ensemble(), 1: Ensemble.from_pure(
        np.full(4, 0.25), random_pure_states(2, 4, seed=3))}
    ran = []

    def fake(elements, seed, index, tol):
        ran.append(index)
        e = ensembles[index]
        vectors = np.stack([top_eigenvector(s) for s in e.states])
        value = mi_bits_pure(e.priors, vectors, elements) * LN2
        return solver._RestartOutcome(value_nats=value, vectors=vectors, priors=e.priors,
                                      iterations=index + 1, converged=index == 1)

    monkeypatch.setattr(solver, "_run_restart", fake)
    rep = see_saw_power(p, SolverConfig(restarts=5))
    assert ran == [0, 1]
    assert rep.per_restart_values[0] > rep.per_restart_values[1]
    assert rep.w_estimate == pytest.approx(SIC_W_BITS, abs=1e-12)
    assert rep.converged
    assert rep.iterations_used == 1


def test_unitary_covariance_of_power():
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    p = trine_povm()
    q = Povm(np.stack([u @ m @ u.conj().T for m in p.elements]))
    cfg = SolverConfig(restarts=6, seed=2)
    w1 = see_saw_power(p, cfg).w_estimate
    w2 = see_saw_power(q, cfg).w_estimate
    assert abs(w1 - w2) <= 2e-6


def test_deterministic_across_runs():
    cfg = SolverConfig(restarts=4, seed=9)
    p = trine_povm()
    a = see_saw_power(p, cfg)
    b = see_saw_power(p, cfg)
    assert a.w_estimate == b.w_estimate
    assert a.per_restart_values == b.per_restart_values
    assert np.array_equal(a.best_ensemble.priors, b.best_ensemble.priors)


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
# symmetric certificate and the probe behind it

COVARIANT = {"sic": tetrahedral_sic_povm, "trine": trine_povm, "hesse": hesse_sic_povm}


def _is_symmetric_report(rep: PowerReport) -> bool:
    return (rep.converged and rep.iterations_used == 1 and not rep.fast_path_used
            and rep.per_restart_values == (rep.w_estimate,))


def test_hesse_sic_power_on_both_paths():
    p = hesse_sic_povm()
    sym = informational_power(p)
    assert _is_symmetric_report(sym)
    assert sym.w_estimate == pytest.approx(HESSE_W_BITS, abs=1e-9)
    generic = see_saw_power(p, SolverConfig(restarts=4))
    assert generic.converged
    assert generic.w_estimate == pytest.approx(HESSE_W_BITS, abs=1e-9)


def test_symmetric_path_certifies_the_sic_cubed():
    rep = informational_power(tensor_power(tetrahedral_sic_povm(), 3))
    assert _is_symmetric_report(rep)
    assert rep.w_estimate == pytest.approx(3 * SIC_W_BITS, abs=1e-9)


@settings(max_examples=6)
@given(name=st.sampled_from(sorted(COVARIANT)), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_symmetric_path_agrees_with_the_generic_solver_on_rotated_covariant_povms(name, seed):
    base = COVARIANT[name]()
    u = random_unitary(base.dim, np.random.default_rng(seed))
    p = Povm(u @ base.elements @ u.conj().T)
    cfg = SolverConfig(restarts=4, seed=seed)
    sym = solver._symmetric_power(p, cfg)
    assert sym is not None and _is_symmetric_report(sym)
    assert sym.w_estimate == pytest.approx(see_saw_power(p, cfg).w_estimate, abs=1e-9)


@pytest.mark.parametrize("dim, outcomes, povm_seed", [(3, 5, 1), (4, 8, 2), (4, 5, 4052)])
def test_symmetric_path_falls_through_on_random_povms(dim, outcomes, povm_seed):
    p = random_povm(dim, outcomes, seed=povm_seed)
    cfg = SolverConfig(restarts=3, seed=0)
    assert solver._symmetric_power(p, cfg) is None
    rep, generic = informational_power(p, cfg), see_saw_power(p, cfg)
    assert rep.w_estimate == generic.w_estimate
    assert rep.per_restart_values == generic.per_restart_values
    assert rep.iterations_used == generic.iterations_used


def test_sic_probe_maxima_at_the_uniform_output_are_the_anti_aligned_states():
    p = tetrahedral_sic_povm()
    directions = np.linalg.eigh(p.elements)[1][:, :, -1]
    vectors, _, vals = solver._max_relative_entropy_states(
        np.full(4, 0.25), p.elements, np.random.default_rng(0), 64)
    assert vals.max() == pytest.approx(np.log(4.0 / 3.0), abs=1e-12)
    near = vals >= vals.max() - 1e-8
    folded, _ = solver._compact(vectors[near], np.full(near.sum(), 1.0 / near.sum()))
    assert len(folded) == 4
    # state k is orthogonal to SIC direction k, under some matching
    overlaps = np.abs(directions.conj() @ folded.T)
    assert sorted(np.argmin(overlaps, axis=0)) == [0, 1, 2, 3]
    assert np.all(overlaps.min(axis=0) <= 1e-6)


class _Captured(Exception):
    pass


@pytest.mark.parametrize(
    "povm", [random_povm(4, 8, seed=2), random_povm(6, 12, seed=4)], ids=["rand4x8", "rand6x12"]
)
def test_probe_reaches_the_plain_climb(povm, monkeypatch):
    """On the first probe of each of three seeded restarts, the best value
    must come within 1e-10 nats of every start climbing PROBE_MAX_STEPS
    steps with no early exit."""
    for k in range(3):
        seen = {}

        def capture(q, elements, rng, n_init, extra):
            seen.update(q=q.copy(), rng=copy.deepcopy(rng), n_init=n_init, extra=extra.copy())
            raise _Captured

        with monkeypatch.context() as m:
            m.setattr(solver, "_max_relative_entropy_states", capture)
            with pytest.raises(_Captured):
                solver._run_restart(povm.elements, 0, k, 1e-9)
        _, _, vals = solver._max_relative_entropy_states(
            seen["q"], povm.elements, copy.deepcopy(seen["rng"]), seen["n_init"], seen["extra"])
        dim, n_init, rng = povm.dim, seen["n_init"], seen["rng"]
        z = rng.standard_normal((n_init, dim)) + 1j * rng.standard_normal((n_init, dim))
        tops = np.linalg.eigh(povm.elements)[1][:, :, -1]
        reference = reference_probe_values(seen["q"], povm.elements, np.concatenate([z, seen["extra"], tops]),
                                           solver.PROBE_MAX_STEPS)
        assert vals.max() >= reference.max() - 1e-10


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
        e = Ensemble.from_pure(priors, states)
        grads = state_gradient(e, p)
        for i in range(3):
            fd = fd_state_gradient(e, p, i)
            rel = np.linalg.norm(grads[i] - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel <= 1e-5, f"seed {seed} member {i}: rel err {rel}"


def test_state_gradient_vanishes_at_optimum():
    grads = state_gradient(anti_tetrahedral_ensemble(), tetrahedral_sic_povm())
    assert max(np.linalg.norm(g) for g in grads) <= 1e-6


def test_state_gradient_rejects_mixed_members():
    e = Ensemble(np.array([1.0]), maximally_mixed(2).matrix[None])
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
