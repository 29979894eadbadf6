import copy
from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infopower import linalg, serialize, solver
from infopower.errors import DimensionMismatch, NotCommuting
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
    eager_lbfgs_ascent,
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
    for tol in (0.0, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)
    for seed in (-1, 1.5, True, "3", np.float64(2.0)):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=seed)
    assert SolverConfig(seed=np.int64(3)).seed == 3


# ---------------------------------------------------------------------------
# commuting fast path


def test_fast_path_projective_baselines():
    for dim in (2, 3, 4):
        rep = commuting_fast_path(standard_projective_povm(dim))
        assert rep.fast_path_used
        assert rep.w_estimate == pytest.approx(np.log2(dim), abs=1e-9)
        assert len(rep.best_ensemble) == dim


def test_fast_path_rejects_noncommuting():
    with pytest.raises(NotCommuting):
        commuting_fast_path(tetrahedral_sic_povm())


def test_fast_path_m_eff_at_most_dim():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        dim = 2 + seed % 2
        p = Povm(random_commuting_elements(dim, dim + 2, rng))
        rep = commuting_fast_path(p)
        assert len(rep.best_ensemble) <= dim
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
    rep = informational_power(Povm(els), SolverConfig(seed=0))
    assert not rep.fast_path_used
    assert rep.converged
    assert rep.w_estimate == pytest.approx(SIC_W_BITS, abs=1e-6)


def test_dispatch_uses_fast_path_only_when_commuting():
    assert informational_power(standard_projective_povm(2)).fast_path_used
    cfg = SolverConfig(seed=0)
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
        assert len(bits.best_ensemble) == len(nats.best_ensemble)
        assert np.array_equal(bits.best_ensemble.priors, nats.best_ensemble.priors)
        assert bits.w_estimate * LN2 == pytest.approx(nats.w_estimate, abs=1e-15)


def test_commuting_reports_do_not_depend_on_tol():
    """The fast path solves to ``INNER_BA_TOL`` bits whatever ``tol``,
    which sets only the certificate margin of the other two paths."""
    rng = np.random.default_rng(2)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        channel = rng.dirichlet(np.full(int(rng.integers(dim + 1, 3 * dim + 1)), 0.5), size=dim)
        p = Povm(_rotated(random_unitary(dim, rng), channel))
        reports = [informational_power(p, SolverConfig(tol=tol)) for tol in (1e-15, 1e-12, 1e-9, 1e-6)]
        assert all(rep.fast_path_used for rep in reports)
        assert len({_report_bytes(rep) for rep in reports}) == 1


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
    rep = informational_power(p)
    assert not rep.fast_path_used
    assert rep.converged
    assert 0.0 <= rep.w_estimate <= np.log2(min(p.dim, p.num_outcomes))
    ens = rep.best_ensemble
    vectors = np.stack([top_eigenvector(s) for s in ens.states])
    upper = dual_bound_bits(ens.priors, vectors, p.elements)
    assert -1e-12 <= upper - rep.w_estimate <= 1e-8


def _sqrt_normalized(blocks: np.ndarray) -> np.ndarray:
    """The POVM T^(-1/2) A_j T^(-1/2) from PSD blocks A_j, T = sum_j A_j."""
    t = linalg.pinv_sqrt(blocks.sum(axis=0))
    return t @ blocks @ t


def _edge_family(name: str, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = random_povm(dim, dim + 1, seed=seed).elements
    if name == "rank1":
        return random_rank_one_elements(dim, 2 * dim, rng)
    if name == "zeros_appended":
        return np.concatenate([base, np.zeros((2, dim, dim))])
    if name == "split_in_two":
        return np.concatenate([base[:1] / 2, base[:1] / 2, base[1:]])
    if name == "two_split_in_three":
        return np.concatenate([np.repeat(base[:2] / 3, 3, axis=0), base[2:]])
    if name == "rank2":
        g = rng.standard_normal((dim + 1, dim, 2)) + 1j * rng.standard_normal((dim + 1, dim, 2))
        return _sqrt_normalized(g @ g.conj().transpose(0, 2, 1))
    if name == "real_rank_d_minus_1":
        g = rng.standard_normal((dim + 1, dim, dim - 1))
        return _sqrt_normalized(g @ g.transpose(0, 2, 1)).astype(complex)
    if name == "depolarised":
        e = random_povm(dim, 2 * dim, seed=seed).elements
        return 0.7 * e + 0.3 * np.trace(e, axis1=1, axis2=2).real[:, None, None] * np.eye(dim) / dim
    if name == "commuting_plus_1e-6":
        e = random_commuting_elements(dim, dim + 2, rng)
        h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = 1e-6 * (h + h.conj().T) / np.linalg.norm(h + h.conj().T)
        e[0] += h
        e[1] -= h
        return e
    if name == "near_projective":
        u = random_unitary(dim, rng)
        return 0.95 * np.einsum("aj,bj->jab", u, u.conj()) + 0.05 * random_povm(dim, dim, seed=seed).elements
    raise ValueError(name)


EDGE_FAMILIES = ("rank1", "zeros_appended", "split_in_two", "two_split_in_three", "rank2",
                 "real_rank_d_minus_1", "depolarised", "commuting_plus_1e-6", "near_projective")


def _single_run_corpus() -> list:
    cases = [pytest.param(_edge_family(name, dim, 0), id=f"{name}_D{dim}")
             for name in EDGE_FAMILIES for dim in (3, 4, 5)]
    return cases + [pytest.param(random_povm(d, n, seed=0).elements, id=f"rand{d}x{n}")
                    for d, n in ((2, 64), (3, 100), (12, 24))]


@pytest.mark.parametrize("elements", _single_run_corpus())
def test_edge_inputs_certify_from_the_single_run(elements):
    """The generic solver runs once; on edge inputs (zero, split, low-rank,
    real, noisy, nearly commuting and nearly projective elements, and
    N >> D^2) that one run must certify at the default configuration."""
    assert see_saw_power(Povm(elements)).converged


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
    rep = informational_power(Povm(elements), SolverConfig(seed=0))
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
    rep = see_saw_power(tetrahedral_sic_povm(), SolverConfig(seed=0))
    assert rep.w_estimate == pytest.approx(SIC_W_BITS, abs=1e-9)
    assert rep.converged
    assert len(rep.best_ensemble) == 4


def test_see_saw_trine():
    rep = see_saw_power(trine_povm(), SolverConfig(seed=0))
    assert rep.w_estimate == pytest.approx(TRINE_W_BITS, abs=1e-9)
    assert len(rep.best_ensemble) == 3
    assert rep.bound_check.real_entries
    assert rep.bound_check.real_passed


def test_see_saw_joins_violators_on_the_sic_squared():
    """The run on SIC(x)SIC certifies only after several rounds, each
    joining the probe's best violator to the ensemble."""
    rep = see_saw_power(tensor_power(tetrahedral_sic_povm(), 2))
    assert rep.converged
    assert rep.iterations_used > 1
    assert rep.w_estimate == pytest.approx(2 * SIC_W_BITS, abs=1e-9)


@pytest.mark.parametrize(
    "solve, p",
    [
        pytest.param(commuting_fast_path, standard_projective_povm(3), id="commuting"),
        pytest.param(informational_power, tetrahedral_sic_povm(), id="symmetric"),
        pytest.param(see_saw_power, tetrahedral_sic_povm(), id="generic"),
    ],
)
def test_report_invariants(solve, p):
    """Each path states each fact once: W is the recomputed mutual
    information of the reported ensemble, ``per_restart_values`` is that
    W alone, and the bound check counts the reported members."""
    rep = solve(p, SolverConfig(seed=1))
    assert isinstance(rep, PowerReport)
    assert rep.w_estimate == mutual_information(rep.best_ensemble, p)
    assert rep.per_restart_values == (rep.w_estimate,)
    assert rep.bound_check.m_eff == len(rep.best_ensemble)
    assert rep.base is LogBase.BITS


def test_power_in_nats():
    cfg = SolverConfig(seed=0, base=LogBase.NATS)
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
    rep = informational_power(p, SolverConfig(seed=seed))
    assert rep.converged
    ens = rep.best_ensemble
    vectors = np.stack([top_eigenvector(s) for s in ens.states])
    upper = dual_bound_bits(ens.priors, vectors, p.elements)
    assert -1e-12 <= upper - rep.w_estimate <= solver.INNER_BA_TOL / LN2


# ---------------------------------------------------------------------------
# solver internals: documented invariants


def test_restart_history_is_monotone(monkeypatch):
    """The rates a run's polishes and refits return, in order, never fall
    by more than roundoff; the SIC(x)SIC run at seed 0 takes several
    rounds, so the violator joins between them are covered too."""
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
    runs = [(povm, seed) for povm in (trine_povm(), sic) for seed in range(4)]
    for povm, seed in [*runs, (tensor_power(sic, 2), 0)]:
        rates.clear()
        out = solver._run(solver._Kernel(povm.elements), seed, 1e-9)
        assert len(rates) == 2 * out.iterations
        assert np.all(np.diff(rates) >= -1e-12), "the rate must not decrease"


def test_restart_value_is_soundly_recomputable():
    """Per-run lower-bound soundness against an independent MI formula."""
    p = tetrahedral_sic_povm()
    for seed in range(3):
        out = solver._run(solver._Kernel(p.elements), seed, 1e-9)
        independent = mi_bits_pure(out.priors, out.vectors, p.elements) * LN2
        assert out.value_nats == pytest.approx(independent, abs=1e-12)


def test_polish_reports_the_rate_of_its_result():
    p = random_povm(3, 5, seed=1)
    vectors = random_pure_states(3, 9, seed=7)
    kernel = solver._Kernel(p.elements)
    v, r, rate = solver._polish(vectors, np.full(9, 1 / 9), kernel)
    assert rate == channel_mutual_information_nats(r, solver._channel_probs(v, kernel))


def test_polish_gradient_matches_central_differences():
    """The gradient in u_i = sqrt(r_i) psi_i, at two points of six members;
    I does not change with the scale of u, so the gradient is orthogonal
    to the point."""
    kernel = solver._Kernel(random_povm(4, 8, seed=2).elements)
    rng = np.random.default_rng(5)
    for x in rng.standard_normal((2, 2 * 6 * 4)):
        g = solver._polish_fg(x, kernel)[1]()
        h = 1e-6
        fd = np.empty_like(x)
        for k in range(len(x)):
            e = np.zeros(len(x))
            e[k] = h
            fd[k] = (solver._polish_fg(x + e, kernel)[0]
                     - solver._polish_fg(x - e, kernel)[0]) / (2 * h)
        assert np.max(np.abs(fd - g)) <= 1e-8
        assert abs(np.sum(x * g)) <= 1e-12


def test_polish_takes_zero_priors():
    """A member at prior 0 starts at |u| = sqrt(1e-300) and may shrink
    further; the polish must still return finite unit states and priors,
    without a RuntimeWarning, at a rate no lower than the start's."""
    for seed in range(30):
        kernel = solver._Kernel(random_povm(3, 6, seed=seed).elements)
        vectors = random_pure_states(3, 9, seed=seed)
        prior = np.array([1 / 6] * 6 + [0.0] * 3)
        start = channel_mutual_information_nats(prior, solver._channel_probs(vectors, kernel))
        v, r, rate = solver._polish(vectors, prior, kernel)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(r))
        assert np.allclose(np.linalg.norm(v, axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert rate >= start


def _run_start(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The D^2 states and uniform prior that the run at seed 0 starts from."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0, spawn_key=(0,)))
    m = dim * dim
    vectors = rng.standard_normal((m, dim)) + 1j * rng.standard_normal((m, dim))
    return solver._normalize_rows(vectors), np.full(m, 1.0 / m)


POLISH_INPUTS = {
    "rand3x5": lambda: (random_povm(3, 5, seed=1), *_run_start(3)),
    "rand4x8": lambda: (random_povm(4, 8, seed=2), *_run_start(4)),
    "zero_priors": lambda: (random_povm(3, 6, seed=0), random_pure_states(3, 9, seed=0),
                            np.array([1 / 6] * 6 + [0.0] * 3)),
}


@pytest.mark.parametrize("name", sorted(POLISH_INPUTS))
def test_polish_matches_the_eager_ascent(monkeypatch, name):
    """Deferring the gradient to accepted points changes no bit: the
    polish driven by an ascent that takes (f, grad f) at every trial point
    returns equal states, priors and rate."""
    p, vectors, prior = POLISH_INPUTS[name]()
    kernel = solver._Kernel(p.elements)
    lazy = solver._polish(vectors, prior, kernel)

    def eager(fg, x, max_iter):
        def fg_eager(y):
            f, grad = fg(y)
            return f, grad()

        return eager_lbfgs_ascent(fg_eager, x, max_iter, solver._lbfgs_direction, solver.LBFGS_MEMORY)

    monkeypatch.setattr(solver, "_lbfgs_ascent", eager)
    reference = solver._polish(vectors, prior, kernel)
    assert np.array_equal(lazy[0], reference[0])
    assert np.array_equal(lazy[1], reference[1])
    assert lazy[2] == reference[2]


@pytest.mark.parametrize("name", sorted(POLISH_INPUTS))
def test_polish_computes_the_gradient_once_per_step(monkeypatch, name):
    """The ascent asks for the gradient at its start and at every point it
    steps to, never at a rejected trial. A new direction is taken exactly
    there, so the gradient count is the direction count; and the closing
    search, which fails, leaves rejected trials."""
    p, vectors, prior = POLISH_INPUTS[name]()
    counts = {"f": 0, "grad": 0, "direction": 0}
    polish_fg, direction = solver._polish_fg, solver._lbfgs_direction

    def counted_fg(*args):
        counts["f"] += 1
        f, grad = polish_fg(*args)

        def counted_grad():
            counts["grad"] += 1
            return grad()

        return f, counted_grad

    def counted_direction(g, pairs):
        counts["direction"] += 1
        return direction(g, pairs)

    monkeypatch.setattr(solver, "_polish_fg", counted_fg)
    monkeypatch.setattr(solver, "_lbfgs_direction", counted_direction)
    solver._polish(vectors, prior, solver._Kernel(p.elements))
    steps = counts["direction"] - 1
    assert counts["grad"] == steps + 1
    assert counts["f"] >= steps + 1 + 40


def test_first_polish_ends_well_before_its_cap(monkeypatch):
    """The first polish of the run of rand4x8 at each of seeds 0-19 ends
    on its own, far below POLISH_MAX_ITER. A parametrization in which a
    member's curvature scales with its prior, such as softmax prior
    logits, crawls here for up to 603 evaluations, some runs up to the
    cap."""
    ticks: list[int] = []
    ascent = solver._lbfgs_ascent

    def counted(fg, x, max_iter):
        ticks.append(0)

        def fg_counted(y):
            ticks[-1] += 1
            return fg(y)

        return ascent(fg_counted, x, max_iter)

    monkeypatch.setattr(solver, "_lbfgs_ascent", counted)
    kernel = solver._Kernel(random_povm(4, 8, seed=2).elements)
    first = []
    for seed in range(20):
        ticks.clear()
        solver._run(kernel, seed, 1e-9)
        first.append(ticks[0])
    assert max(first) <= 300


@pytest.mark.parametrize("rows", [1, 2, 151])
def test_kernels_match_their_einsum_references(rows):
    """numpy hands a single row to gemv and a block to gemm; both must give
    <psi_i|Pi_j|psi_i> and H_i = sum_j lr_ij Pi_j."""
    povm = random_povm(4, 8, seed=2)
    elements = povm.elements
    kernel = solver._Kernel(elements)
    vectors = random_pure_states(povm.dim, rows, seed=3)
    probs = solver._channel_probs(vectors, kernel)
    reference = np.einsum("ia,jab,ib->ij", vectors.conj(), elements, vectors).real
    assert probs.shape == (rows, 8)
    assert np.max(np.abs(probs - reference)) <= 1e-14
    lr = np.log(probs + 0.1)
    h = solver._weighted_elements(lr, kernel)
    assert h.shape == (rows, 4, 4)
    assert np.max(np.abs(h - np.tensordot(lr, elements, 1))) <= 1e-14


@pytest.mark.parametrize(
    "make, solve, calls",
    [
        pytest.param(lambda: tensor_power(tetrahedral_sic_povm(), 2), see_saw_power, 1, id="sic2-generic"),
        pytest.param(hesse_sic_povm, informational_power, 1, id="hesse-symmetric"),
        pytest.param(lambda: random_povm(4, 8, seed=2), informational_power, 1, id="rand4x8-screened"),
        pytest.param(lambda: standard_projective_povm(3), informational_power, 0, id="projective3"),
    ],
)
def test_element_stack_is_diagonalized_once_per_kernel(make, solve, calls, monkeypatch):
    """Every probe starts from the elements' top eigenvectors, which one
    solve computes once: SIC(x)SIC's generic run probes once per round,
    the Hesse SIC's symmetric path probes twice, rand4x8's screen and its
    generic run share one kernel, and the commuting path never
    diagonalizes the elements at all."""
    p = make()
    eigh = np.linalg.eigh
    seen = []

    def spy(a, *args, **kwargs):
        if np.shape(a) == p.elements.shape and np.array_equal(a, p.elements):
            seen.append(a)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    rep = solve(p)
    assert len(seen) == calls
    assert rep.converged
    if solve is see_saw_power:
        assert rep.iterations_used > 1


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
    """The seed alone decides a run: over seeds in reverse order, each run
    is exactly the run it is in order, and see_saw_power reports the value
    of the run at its seed and, unchanged, the members of its ensemble with
    a positive prior."""
    kernel = solver._Kernel(povm.elements)
    in_order = [solver._run(kernel, seed, 1e-9) for seed in range(6)]
    for seed in reversed(range(6)):
        run = in_order[seed]
        _assert_same_run(solver._run(kernel, seed, 1e-9), run)
        rep = see_saw_power(povm, SolverConfig(seed=seed))
        assert rep.per_restart_values == (rep.w_estimate,)
        assert rep.w_estimate == pytest.approx(LogBase.BITS.from_nats(run.value_nats), abs=1e-14)
        kept = run.priors > 0
        certified = Ensemble.from_pure(run.priors[kept], run.vectors[kept])
        assert np.array_equal(rep.best_ensemble.priors, certified.priors)
        assert np.array_equal(rep.best_ensemble.states, certified.states)


def test_lbfgs_rows_stop_on_their_own(monkeypatch):
    """One separable concave quadratic per row of conditionings: no step
    the ascent takes lowers f, and it stops on its own before max_iter at
    the maximum 0, within 1e-12. The gradient is asked for only at the
    start and where a step lands."""
    centre = np.array([1.0, -2.0, 0.5])
    direction = solver._lbfgs_direction
    for a in np.array([[1.0, 1.0, 1.0], [1.0, 30.0, 1e3], [1.0, 1e3, 1e6]]):
        evaluated = []
        stepped = []  # f at the start and at every point stepped to
        asked = []  # f wherever the gradient was asked for

        def fg(x):
            dx = x - centre
            evaluated.append((-0.5 * np.sum(a * dx**2), -a * dx))
            f, g = evaluated[-1]

            def grad():
                asked.append(f)
                return g

            return f, grad

        def recorded(g, pairs):
            # the ascent takes a new direction only where it stands
            stepped.append(next(f for f, h in evaluated if h is g))
            return direction(g, pairs)

        monkeypatch.setattr(solver, "_lbfgs_direction", recorded)
        _, f = solver._lbfgs_ascent(fg, np.zeros(3), solver.POLISH_MAX_ITER)
        assert np.all(np.diff(stepped) >= 0.0)
        assert len(stepped) - 1 < solver.POLISH_MAX_ITER
        assert stepped[-1] == f and -1e-12 < f <= 0.0
        assert asked == stepped


def test_certified_restarts_sit_within_the_margin_of_the_best():
    """A run may certify only within the margin of the best rate any of
    seeds 0-19 found; one stopped on another's probe would fall short."""
    p = random_povm(4, 8, seed=2)
    tol = 1e-9
    kernel = solver._Kernel(p.elements)
    outcomes = [solver._run(kernel, seed, tol) for seed in range(20)]
    best = max(o.value_nats for o in outcomes)
    for o in outcomes:
        if o.converged:
            assert o.value_nats >= best - max(10 * tol, 1e-9)


def test_an_uncertified_run_is_reported_as_it_stands(monkeypatch):
    """One round is too few for the run to certify SIC(x)SIC. Nothing else
    runs: the report says converged=False and carries the run's own value
    and rounds."""
    monkeypatch.setattr(solver, "MAX_ROUNDS", 1)
    p = tensor_power(tetrahedral_sic_povm(), 2)
    run = solver._run(solver._Kernel(p.elements), 0, 1e-9)
    rep = see_saw_power(p)
    assert not run.converged
    assert rep.converged is False
    assert rep.per_restart_values == (rep.w_estimate,)
    assert rep.w_estimate == pytest.approx(LogBase.BITS.from_nats(run.value_nats), abs=1e-14)
    assert rep.iterations_used == run.iterations == 1


def test_run_stops_when_no_weight_on_the_violator_raises_the_rate(monkeypatch):
    """A claimed violator whose outcome row is the current output q gives
    the rate (1 - beta) * rate at every weight beta, so the run stops after
    round 1, uncertified and with no member joined."""
    members = []

    def probe(q, kernel, rng, n_init, extra=None):
        members.append(len(extra))
        return extra[:1], q[None, :], np.array([np.inf])

    monkeypatch.setattr(solver, "_max_relative_entropy_states", probe)
    p = random_povm(3, 5, seed=1)
    run = solver._run(solver._Kernel(p.elements), 0, 1e-9)
    assert run.iterations == 1 and not run.converged
    assert members == [len(run.vectors)]
    rep = see_saw_power(p)
    assert rep.converged is False
    assert rep.w_estimate == mutual_information(rep.best_ensemble, p)


def test_unitary_covariance_of_power():
    rng = np.random.default_rng(5)
    u = random_unitary(2, rng)
    p = trine_povm()
    q = Povm(np.stack([u @ m @ u.conj().T for m in p.elements]))
    cfg = SolverConfig(seed=2)
    w1 = see_saw_power(p, cfg).w_estimate
    w2 = see_saw_power(q, cfg).w_estimate
    assert abs(w1 - w2) <= 2e-6


def test_deterministic_across_runs():
    cfg = SolverConfig(seed=9)
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
        rep = see_saw_power(Povm(els), SolverConfig(seed=0))
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


@given(
    shape=st.integers(min_value=2, max_value=4).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(min_value=3, max_value=8))
    ),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    data=st.data(),
)
def test_coarse_graining_never_raises_power(shape, seed, data):
    """Summing groups of outcomes is post-processing, so W(coarse) <= W(Pi).
    Each estimate is certified within the margin below its W, which
    bounds W(coarse) by the estimate of W(Pi) plus one margin."""
    dim, outcomes = shape
    labels = np.array(data.draw(st.lists(st.integers(min_value=0, max_value=outcomes - 1),
                                         min_size=outcomes, max_size=outcomes)))
    elements = random_povm(dim, outcomes, seed=seed).elements
    coarse = np.stack([elements[labels == g].sum(axis=0) for g in np.unique(labels)])
    cfg = SolverConfig(seed=0)
    fine_rep = informational_power(Povm(elements), cfg)
    assert fine_rep.converged
    coarse_w = informational_power(Povm(coarse), cfg).w_estimate
    assert coarse_w <= fine_rep.w_estimate + solver._margin(cfg.tol) / LN2


# ---------------------------------------------------------------------------
# symmetric certificate and the probe behind it

COVARIANT = {"sic": tetrahedral_sic_povm, "trine": trine_povm, "hesse": hesse_sic_povm}


def _symmetric_report(solve: Callable[[], PowerReport | None]) -> PowerReport:
    """The report ``solve()`` returns, checked to come from the symmetric
    path: certified in one iteration past the fast path, with the generic
    run, ``solver._run``, never called."""
    runs = []
    run = solver._run

    def spy(*args):
        runs.append(args)
        return run(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_run", spy)
        rep = solve()
    assert not runs
    assert rep is not None and rep.converged and rep.iterations_used == 1 and not rep.fast_path_used
    return rep


def test_hesse_sic_power_on_both_paths():
    p = hesse_sic_povm()
    sym = _symmetric_report(lambda: informational_power(p))
    assert sym.w_estimate == pytest.approx(HESSE_W_BITS, abs=1e-9)
    generic = see_saw_power(p)
    assert generic.converged
    assert generic.w_estimate == pytest.approx(HESSE_W_BITS, abs=1e-9)


def test_symmetric_path_certifies_the_sic_cubed():
    rep = _symmetric_report(lambda: informational_power(tensor_power(tetrahedral_sic_povm(), 3)))
    assert rep.w_estimate == pytest.approx(3 * SIC_W_BITS, abs=1e-9)


@settings(max_examples=6)
@given(name=st.sampled_from(sorted(COVARIANT)), seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_symmetric_path_agrees_with_the_generic_solver_on_rotated_covariant_povms(name, seed):
    base = COVARIANT[name]()
    u = random_unitary(base.dim, np.random.default_rng(seed))
    p = Povm(u @ base.elements @ u.conj().T)
    cfg = SolverConfig(seed=seed)
    sym = _symmetric_report(lambda: solver._symmetric_power(p, solver._Kernel(p.elements), cfg))
    assert sym.w_estimate == pytest.approx(see_saw_power(p, cfg).w_estimate, abs=1e-9)


@pytest.mark.parametrize("name", sorted(COVARIANT))
def test_symmetric_reports_of_rotated_covariant_povms_hit_the_closed_form(name):
    base = COVARIANT[name]()
    exact = {"sic": SIC_W_BITS, "trine": TRINE_W_BITS, "hesse": HESSE_W_BITS}[name]
    for seed in range(25):
        u = random_unitary(base.dim, np.random.default_rng(seed))
        p = Povm(u @ base.elements @ u.conj().T)
        rep = _symmetric_report(
            lambda: solver._symmetric_power(p, solver._Kernel(p.elements), SolverConfig(seed=seed)))
        assert rep.w_estimate == pytest.approx(exact, abs=1e-12), seed


def test_symmetric_fold_keeps_the_best_copy_of_each_maximum(monkeypatch):
    """A probe maximum can come back twice: once exact and, at a lower
    index, once stopped a little below it, still within the margin and
    within the fold overlap. The fold must keep the exact copy."""
    p = tetrahedral_sic_povm()
    kernel = solver._Kernel(p.elements)
    q0 = np.full(4, 0.25)
    anti = np.linalg.eigh(p.elements)[1][:, :, 0]

    def values(vectors):
        probs = solver._channel_probs(vectors, kernel)
        return probs, np.sum(probs * solver._log_ratio(probs, q0), axis=1)

    # D falls quadratically away from a maximum: scale the step to a 5e-9 nat loss
    step = anti[1] - (anti[0].conj() @ anti[1]) * anti[0]
    step /= np.linalg.norm(step)
    drop = values(anti[:1])[1][0] - values(solver._normalize_rows(anti[:1] + 1e-4 * step))[1][0]
    below = solver._normalize_rows(anti[:1] + 1e-4 * np.sqrt(5e-9 / drop) * step)
    vectors = np.concatenate([below, anti])
    probs, vals = values(vectors)
    assert 4e-9 < vals.max() - vals[0] < 6e-9
    assert np.abs(below[0].conj() @ anti[0]) ** 2 > 1.0 - solver.MERGE_OVERLAP_TOL

    monkeypatch.setattr(solver, "_max_relative_entropy_states", lambda *args: (vectors, probs, vals))
    rep = _symmetric_report(lambda: solver._symmetric_power(p, kernel, SolverConfig()))
    assert rep.w_estimate == pytest.approx(SIC_W_BITS, abs=1e-12)


def _q0_probe_starts(p, monkeypatch) -> list[int]:
    """The list that takes the start count of each probe at q0 of ``p``
    run from here on; the generic run's probes also start from its
    ensemble, so they pass ``extra``."""
    q0 = np.trace(p.elements, axis1=1, axis2=2).real / p.dim
    probe = solver._max_relative_entropy_states
    starts = []

    def spy(q, kernel, rng, n_init, extra=None):
        if extra is None:
            assert np.array_equal(q, q0)
            starts.append(n_init)
        return probe(q, kernel, rng, n_init, extra)

    monkeypatch.setattr(solver, "_max_relative_entropy_states", spy)
    return starts


def _report_bytes(rep: PowerReport) -> str:
    return serialize.dumps(serialize.report_to_document(rep))


@pytest.mark.parametrize(
    "dim, outcomes, povm_seed", [(3, 5, 1), (4, 8, 2), (4, 5, 4052), (8, 16, 0), (16, 32, 0)]
)
def test_symmetric_path_falls_through_on_random_povms(dim, outcomes, povm_seed, monkeypatch):
    """The screen alone, one probe of max(16, 8D) starts at q0, turns a
    random POVM away, and the report is the generic solver's."""
    p = random_povm(dim, outcomes, seed=povm_seed)
    cfg = SolverConfig(seed=0)
    assert solver._symmetric_power(p, solver._Kernel(p.elements), cfg) is None
    starts = _q0_probe_starts(p, monkeypatch)
    rep = informational_power(p)
    assert starts == [max(16, 8 * dim)]
    assert _report_bytes(rep) == _report_bytes(see_saw_power(p, cfg))


def test_symmetric_probe_short_of_its_maximum_falls_through():
    """trine(x)rand2x3 folds to 3 states at q0, whose rate ln(3/2) nats
    stays short of the probed maximum, so the symmetric path gives up past
    the screen and the generic run certifies W(trine) + W(rand2x3)."""
    p = tensor_povm(trine_povm(), random_povm(2, 3, seed=0))
    assert solver._symmetric_power(p, solver._Kernel(p.elements), SolverConfig()) is None
    rep = informational_power(p)
    assert rep.converged and not rep.fast_path_used
    parts = informational_power(trine_povm()).w_estimate + informational_power(random_povm(2, 3, seed=0)).w_estimate
    assert rep.w_estimate == pytest.approx(parts, abs=1e-12)


@pytest.mark.parametrize("name", ["sic", "trine", "hesse", "sic2"])
def test_screen_passes_symmetric_povms_to_the_full_probe(name, monkeypatch):
    """A symmetric POVM passes the screen, and the second probe at q0, of
    max(64, 8D^2) starts, certifies it."""
    p = {**COVARIANT, "sic2": lambda: tensor_power(tetrahedral_sic_povm(), 2)}[name]()
    starts = _q0_probe_starts(p, monkeypatch)
    _symmetric_report(lambda: informational_power(p))
    assert starts == [max(16, 8 * p.dim), max(64, 8 * p.dim**2)]


def test_sic_probe_maxima_at_the_uniform_output_are_the_anti_aligned_states():
    p = tetrahedral_sic_povm()
    directions = np.linalg.eigh(p.elements)[1][:, :, -1]
    vectors, _, vals = solver._max_relative_entropy_states(
        np.full(4, 0.25), solver._Kernel(p.elements), np.random.default_rng(0), 64)
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
    "povm, q0_probes",
    [
        pytest.param(random_povm(4, 8, seed=2), 1, id="rand4x8"),
        pytest.param(random_povm(6, 12, seed=4), 1, id="rand6x12"),
        pytest.param(hesse_sic_povm(), 2, id="hesse"),
        pytest.param(tensor_power(tetrahedral_sic_povm(), 2), 2, id="sic2"),
    ],
)
def test_probe_reaches_the_plain_climb(povm, q0_probes, monkeypatch):
    """On each of the symmetric path's probes at q0 (the screen, and on a
    POVM that passes it the full probe) and on the first probe of the run
    at each of seeds 0-2, the best value must come within 1e-10 nats of
    every start climbing PROBE_MAX_STEPS steps with no early exit."""
    kernel = solver._Kernel(povm.elements)
    runs = [(lambda: solver._symmetric_power(povm, kernel, SolverConfig()), k) for k in range(q0_probes)]
    runs += [(lambda seed=seed: solver._run(kernel, seed, 1e-9), 0) for seed in range(3)]
    probe = solver._max_relative_entropy_states
    for run, k in runs:
        seen = {}
        calls = []

        def capture(q, kern, rng, n_init, extra=None):
            calls.append(n_init)
            if len(calls) <= k:
                return probe(q, kern, rng, n_init, extra)
            seen.update(q=q.copy(), rng=copy.deepcopy(rng), n_init=n_init,
                        extra=None if extra is None else extra.copy())
            raise _Captured

        with monkeypatch.context() as m:
            m.setattr(solver, "_max_relative_entropy_states", capture)
            with pytest.raises(_Captured):
                run()
        q, n_init, extra, rng = seen["q"], seen["n_init"], seen["extra"], seen["rng"]
        _, _, vals = solver._max_relative_entropy_states(q, kernel, copy.deepcopy(rng), n_init, extra)
        z = rng.standard_normal((n_init, povm.dim)) + 1j * rng.standard_normal((n_init, povm.dim))
        tops = np.linalg.eigh(povm.elements)[1][:, :, -1]
        starts = [z, tops] if extra is None else [z, extra, tops]
        reference = reference_probe_values(q, povm.elements, np.concatenate(starts), solver.PROBE_MAX_STEPS)
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
    with pytest.raises(DimensionMismatch):
        state_gradient(anti_tetrahedral_ensemble(), standard_projective_povm(3))


# ---------------------------------------------------------------------------
# additivity


def test_additivity_of_projective_pair():
    cfg = SolverConfig(seed=0)
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
    cfg = SolverConfig(seed=0)
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
