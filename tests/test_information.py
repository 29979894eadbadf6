import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from infopower import information, serialize
from infopower.errors import DimensionMismatch
from infopower.information import (
    LN2,
    BlahutArimotoResult,
    ClassicalChannel,
    Distribution,
    LogBase,
    apply_qc_channel,
    blahut_arimoto,
    joint_statistics,
    mutual_information,
    outcome_probabilities,
    relative_entropy_rows,
    shannon_entropy,
)
from infopower.objects import (
    Ensemble,
    Povm,
    anti_tetrahedral_ensemble,
    maximally_mixed,
    random_povm,
    random_pure_states,
    standard_projective_povm,
    tetrahedral_sic_povm,
    trine_povm,
)

from helpers import (
    HARD_BLOCK_CHANNELS,
    SIC_W_BITS,
    TRINE_W_BITS,
    block_channel,
    capacity_bits_oracle,
    capacity_gap_bits,
    h2,
    mi_bits_direct,
)


def _random_channel(m: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    p = rng.random((m, n)) + 1e-3
    return p / p.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# containers


def test_distribution_validation():
    Distribution(np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        Distribution(np.array([1.5, -0.5]))
    with pytest.raises(ValueError):
        Distribution(np.array([]))


def test_channel_validation():
    ClassicalChannel(np.array([[0.25, 0.75]]))
    with pytest.raises(ValueError):
        ClassicalChannel(np.array([[0.5, 0.4]]))
    with pytest.raises(ValueError):
        ClassicalChannel(np.array([[1.1, -0.1]]))


def test_log_base_round_trip():
    assert LogBase.BITS.from_nats(LN2) == pytest.approx(1.0)
    assert LogBase.BITS.to_nats(1.0) == pytest.approx(LN2)
    assert LogBase.NATS.from_nats(0.7) == 0.7
    assert LogBase.NATS.to_nats(0.7) == 0.7


# ---------------------------------------------------------------------------
# entropies


def test_shannon_entropy_uniform_and_point():
    assert shannon_entropy(np.full(8, 0.125)) == pytest.approx(3.0, abs=1e-12)
    assert shannon_entropy(np.array([1.0, 0.0])) == 0.0
    assert shannon_entropy(np.full(4, 0.25), base=LogBase.NATS) == pytest.approx(
        np.log(4.0), abs=1e-12
    )


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=8))
def test_shannon_entropy_bounds_and_permutation(weights):
    p = np.array(weights) / np.sum(weights)
    h = shannon_entropy(Distribution(p / p.sum()))
    assert -1e-12 <= h <= np.log2(len(p)) + 1e-12
    assert shannon_entropy(np.sort(p / p.sum())) == pytest.approx(h, abs=1e-9)


def test_relative_entropy_rows_hand_computed():
    probs = np.array([[0.5, 0.5], [0.9, 0.1]])
    q = np.array([0.7, 0.3])
    expected0 = 0.5 * np.log(0.5 / 0.7) + 0.5 * np.log(0.5 / 0.3)
    expected1 = 0.9 * np.log(0.9 / 0.7) + 0.1 * np.log(0.1 / 0.3)
    d = relative_entropy_rows(probs, q)
    assert d[0] == pytest.approx(expected0, abs=1e-14)
    assert d[1] == pytest.approx(expected1, abs=1e-14)


def test_relative_entropy_rows_skips_zero_probabilities():
    # p = 0 terms and the q = 0 column contribute nothing
    probs = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    d = relative_entropy_rows(probs, np.array([0.75, 0.25, 0.0]))
    assert d[0] == pytest.approx(0.5 * np.log(0.5 / 0.75) + 0.5 * np.log(0.5 / 0.25), abs=1e-15)
    assert d[1] == pytest.approx(np.log(1.0 / 0.75), abs=1e-15)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_relative_entropy_rows_nonnegative_and_zero_at_q(seed):
    probs = _random_channel(3, 4, seed)
    q = probs.mean(axis=0)
    d = relative_entropy_rows(probs, q / q.sum())
    assert (d >= -1e-12).all()
    assert relative_entropy_rows(q[None, :] / q.sum(), q / q.sum())[0] == pytest.approx(
        0.0, abs=1e-14
    )


# ---------------------------------------------------------------------------
# ensemble/POVM statistics


def test_outcome_probabilities_anti_tetra_sic_closed_form():
    # <psi_i|Pi_j|psi_i> = (1 - n_i . n_j)/4: zero on the diagonal, 1/3 off it
    probs = outcome_probabilities(anti_tetrahedral_ensemble(), tetrahedral_sic_povm())
    expected = (np.ones((4, 4)) - np.eye(4)) / 3.0
    assert np.allclose(probs, expected, atol=1e-12)


def test_joint_statistics_rows_normalized():
    ch = joint_statistics(anti_tetrahedral_ensemble(), tetrahedral_sic_povm())
    assert np.allclose(ch.probs.sum(axis=1), 1.0, atol=1e-12)


def test_outcome_probabilities_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        outcome_probabilities(anti_tetrahedral_ensemble(), standard_projective_povm(3))


def test_mutual_information_sic_closed_form():
    # the anti-tetrahedral ensemble achieves the SIC informational power
    got = mutual_information(anti_tetrahedral_ensemble(), tetrahedral_sic_povm())
    assert got == pytest.approx(SIC_W_BITS, abs=1e-12)


def test_mutual_information_trine_closed_form():
    # anti-trine ensemble: states orthogonal to each element's direction
    els = trine_povm().elements
    anti = np.stack([np.linalg.eigh(m)[1][:, 0] for m in els])
    e = Ensemble.from_pure(np.full(3, 1.0 / 3.0), anti)
    assert mutual_information(e, trine_povm()) == pytest.approx(TRINE_W_BITS, abs=1e-12)


def test_mutual_information_matches_independent_formula():
    rng = np.random.default_rng(42)
    for seed in range(5):
        p = random_povm(3, 4, seed=seed)
        states = random_pure_states(3, 5, seed=seed + 100)
        priors = rng.random(5)
        priors /= priors.sum()
        e = Ensemble.from_pure(priors, states)
        direct = mi_bits_direct(priors, e.states_stack(), p.elements)
        assert mutual_information(e, p) == pytest.approx(direct, abs=1e-10)


def test_mutual_information_nats_base():
    v_bits = mutual_information(anti_tetrahedral_ensemble(), tetrahedral_sic_povm())
    v_nats = mutual_information(
        anti_tetrahedral_ensemble(), tetrahedral_sic_povm(), base=LogBase.NATS
    )
    assert v_nats == pytest.approx(v_bits * LN2, abs=1e-12)


def test_apply_qc_channel_uniform_on_sic():
    d = apply_qc_channel(tetrahedral_sic_povm(), maximally_mixed(2))
    assert np.allclose(d.probs, 0.25, atol=1e-12)


def test_apply_qc_channel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        apply_qc_channel(standard_projective_povm(3), maximally_mixed(2))


def test_apply_qc_channel_accepts_povms_within_their_own_tolerance():
    # residual 5.7e-10: inside Povm's default completeness tolerance
    els = tetrahedral_sic_povm().elements.copy()
    els[0] += 4e-10 * np.eye(2)
    d = apply_qc_channel(Povm(els), maximally_mixed(2))
    assert d.probs.sum() == pytest.approx(1.0, abs=1e-15)
    # residual 3e-9: inside the 1e-8 tolerance of a POVM read from a file
    els = standard_projective_povm(3).elements.copy()
    els[0] += 3e-9 * np.eye(3)
    p = serialize.povm_from_document(serialize.povm_to_document(Povm(els, completeness_tol=1e-8)))
    d = apply_qc_channel(p, maximally_mixed(3))
    assert np.allclose(d.probs, 1 / 3, atol=1e-8)


# ---------------------------------------------------------------------------
# Blahut-Arimoto


def test_ba_bsc_closed_forms():
    for p in (0.0, 0.1, 0.25, 0.5):
        ch = ClassicalChannel(np.array([[1 - p, p], [p, 1 - p]]))
        res = blahut_arimoto(ch, tol=1e-12)
        assert res.converged
        assert res.capacity == pytest.approx(1.0 - h2(p), abs=1e-9)
        assert np.allclose(res.optimal_prior.probs, 0.5, atol=1e-6)


def test_ba_identity_channel():
    res = blahut_arimoto(ClassicalChannel(np.eye(5)))
    assert res.capacity == pytest.approx(np.log2(5.0), abs=1e-9)


def test_ba_useless_channel():
    res = blahut_arimoto(ClassicalChannel(np.tile([0.3, 0.7], (4, 1))))
    assert abs(res.capacity) <= 1e-12


def test_ba_erasure_channel():
    # capacity of the binary erasure channel is 1 - e bits
    e = 0.35
    probs = np.array([[1 - e, 0.0, e], [0.0, 1 - e, e]])
    res = blahut_arimoto(ClassicalChannel(probs))
    assert res.capacity == pytest.approx(1.0 - e, abs=1e-9)


def test_ba_z_channel_closed_form():
    # Z-channel capacity: log2(1 + (1-p) p^(p/(1-p)))
    p = 0.3
    probs = np.array([[1.0, 0.0], [p, 1 - p]])
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
    exact = np.log2(1.0 + (1.0 - p) * p ** (p / (1.0 - p)))
    assert res.capacity == pytest.approx(exact, abs=1e-9)


def test_ba_matches_independent_oracle_on_random_channels():
    for seed in range(8):
        probs = _random_channel(3 + seed % 3, 2 + seed % 4, seed)
        res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
        assert res.capacity == pytest.approx(capacity_bits_oracle(probs), abs=1e-9)


def test_ba_gap_is_a_certificate():
    probs = _random_channel(4, 3, 77)
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-10)
    assert res.converged
    assert 0.0 <= res.gap <= 1e-10


def test_ba_respects_max_iter_and_flags_nonconvergence():
    probs = _random_channel(5, 4, 3)
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-15, max_iter=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.gap > 0


def test_ba_warm_start_zero_entries_reenter():
    """A warm start only sets where the run starts: a support input given
    at zero re-enters through the Newton active set, while a useless
    input given at zero stays there."""
    # BSC(0.1) in the first two rows plus a useless input; the optimum is (1/2, 1/2, 0)
    ch = ClassicalChannel(np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]))
    for prior in ([0.5, 0.0, 0.5], [1.0, 0.0, 0.0]):
        res = blahut_arimoto(ch, initial_prior=np.array(prior), tol=1e-12)
        assert res.converged
        assert res.iterations <= 20
        assert res.capacity == pytest.approx(1.0 - h2(0.1), abs=1e-9)
    res = blahut_arimoto(ch, initial_prior=np.array([0.5, 0.5, 0.0]), tol=1e-12)
    assert res.converged
    assert res.optimal_prior.probs[2] == 0.0
    assert res.capacity == pytest.approx(1.0 - h2(0.1), abs=1e-9)


def test_ba_rejects_bad_inputs():
    ch = ClassicalChannel(np.array([[0.5, 0.5]]))
    for tol in (0.0, float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match="tol"):
            blahut_arimoto(ch, tol=tol)
    with pytest.raises(ValueError):
        blahut_arimoto(ch, initial_prior=np.array([0.5, 0.5]))


def test_ba_refuses_a_bad_max_iter():
    ch = ClassicalChannel(np.eye(3))
    for max_iter in (0, -3, True, 2.5, "3", np.float64(2.0)):
        with pytest.raises(ValueError, match="max_iter"):
            blahut_arimoto(ch, max_iter=max_iter)
    assert blahut_arimoto(ch, max_iter=np.int64(3)).converged


def test_ba_refuses_a_non_finite_initial_prior():
    ch = ClassicalChannel(np.eye(3))
    for prior in ([np.nan, 0.5, 0.5], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError, match="initial_prior"):
            blahut_arimoto(ch, initial_prior=np.array(prior))


def test_ba_nats_base():
    probs = np.array([[0.9, 0.1], [0.1, 0.9]])
    bits = blahut_arimoto(ClassicalChannel(probs)).capacity
    nats = blahut_arimoto(ClassicalChannel(probs), base=LogBase.NATS).capacity
    assert nats == pytest.approx(bits * LN2, abs=1e-12)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_ba_capacity_dominates_any_prior(seed):
    """The optimal value must beat the mutual information of random priors."""
    rng = np.random.default_rng(seed)
    probs = _random_channel(4, 3, seed)
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-11)
    r = rng.random(4)
    r /= r.sum()
    q = r @ probs
    mi = float(r @ relative_entropy_rows(probs, q)) / LN2
    assert res.capacity >= mi - 1e-9


def test_ba_does_not_depend_on_the_memory_order_of_its_channel():
    """The same capacity, gap, pass count and prior, bit for bit, from a
    row-major and a column-major copy of one channel: block channels, wide
    and tall, and Dirichlet channels with unfed outputs, capped at 200
    passes so that an unconverged run is compared too."""
    rng = np.random.default_rng(2024)
    for k in range(200):
        m, n = (int(x) for x in rng.integers(1, 9, size=2))
        if k % 2:
            probs = block_channel(m, max(n, m), 0.3, rng)
        else:
            probs = rng.dirichlet(np.full(n + 2, 0.5), size=m)
            probs[:, rng.integers(n + 2)] = 0.0
            probs /= probs.sum(axis=1, keepdims=True)
        c, f = (blahut_arimoto(ClassicalChannel(x), tol=1e-12, max_iter=200)
                for x in (np.ascontiguousarray(probs), np.asfortranarray(probs)))
        assert (c.capacity, c.gap, c.iterations, c.converged) == (f.capacity, f.gap, f.iterations, f.converged)
        assert c.optimal_prior.probs.tobytes() == f.optimal_prior.probs.tobytes()


def test_ba_result_is_dataclass_with_expected_fields():
    res = blahut_arimoto(ClassicalChannel(np.eye(2)))
    assert isinstance(res, BlahutArimotoResult)
    assert set(res.__dataclass_fields__) == {
        "capacity",
        "optimal_prior",
        "converged",
        "iterations",
        "gap",
    }


@pytest.mark.parametrize("d, n, seed", HARD_BLOCK_CHANNELS)
def test_ba_certifies_near_degenerate_block_channels(d, n, seed):
    """The plain update needs 42k to over 100k passes on these channels.
    The uniform prior given runs as the cold start: the same passes,
    capacity and gap (its prior, renormalised, can differ by an ulp)."""
    probs = block_channel(d, n, 0.5, np.random.default_rng(seed))
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
    assert res.converged
    assert res.iterations <= 1000
    assert capacity_gap_bits(probs, res.optimal_prior.probs) <= 1e-12
    warm = blahut_arimoto(ClassicalChannel(probs), tol=1e-12, initial_prior=np.full(d, 1.0 / d))
    assert (warm.iterations, warm.capacity, warm.gap) == (res.iterations, res.capacity, res.gap)


def _block_channels():
    """HARD_BLOCK_CHANNELS, then noise-0.3 block channels for D 2-8 and
    N D..4D, as the commuting fast path meets them."""
    for d, n, seed in HARD_BLOCK_CHANNELS:
        yield block_channel(d, n, 0.5, np.random.default_rng(seed))
    for d in range(2, 9):
        for n in range(d, 4 * d + 1):
            yield block_channel(d, n, 0.3, np.random.default_rng(100 * d + n))


def test_ba_cold_start_certifies_block_channels_in_a_few_passes():
    """Newton from pass 1, and on every pass after a step lands: at most
    6 passes where a try every 8th pass alone takes 10 to 25 (median 17).
    The step that meets tol leaves a gap anywhere below it (above tol / 16
    on 16 of these channels); while a try is due the run goes on to
    tol / 16, so the gap returned does not hang on where that step lands."""
    for probs in _block_channels():
        res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
        assert res.converged
        assert res.iterations <= 6, probs.shape
        assert res.gap <= 1e-12 / 16, probs.shape
        assert capacity_gap_bits(probs, res.optimal_prior.probs) <= 1e-12 / 16


def _newton_tries(monkeypatch, probs, passes, refuse=False, **kwargs):
    """The passes, up to ``passes``, on which ``blahut_arimoto`` tries a
    Newton step; with ``refuse`` every try is refused."""
    calls = []
    real = information._newton_prior

    def spy(*args):
        calls.append(None)
        return None if refuse else real(*args)

    monkeypatch.setattr(information, "_newton_prior", spy)
    tries, before = [], 0
    for max_iter in range(1, passes + 1):
        calls.clear()
        blahut_arimoto(ClassicalChannel(probs), tol=1e-12, max_iter=max_iter, **kwargs)
        if len(calls) > before:
            tries.append(max_iter)
        before = len(calls)
    return tries


def test_ba_first_newton_try_depends_on_the_channel_alone(monkeypatch):
    """Pass 1 tries Newton when the channel has no more inputs than fed
    outputs, whatever the starting prior; a wide channel waits for pass 8."""
    d, n, seed = HARD_BLOCK_CHANNELS[0]
    square = block_channel(d, n, 0.5, np.random.default_rng(seed))
    wide = np.random.default_rng(0).dirichlet(np.ones(3), size=6)
    for probs, first in ((square, 1), (wide, 8)):
        m = probs.shape[0]
        for prior in (None, np.full(m, 1.0 / m), np.random.default_rng(1).dirichlet(np.ones(m))):
            assert _newton_tries(monkeypatch, probs, 8, initial_prior=prior)[0] == first


def test_ba_tries_newton_after_an_accepted_step_only(monkeypatch):
    d, n, seed = HARD_BLOCK_CHANNELS[0]
    probs = block_channel(d, n, 0.5, np.random.default_rng(seed))
    # every step lands, and the fifth pass certifies
    assert _newton_tries(monkeypatch, probs, 10) == [1, 2, 3, 4]
    # a refused try waits for the next multiple of 8
    assert _newton_tries(monkeypatch, probs, 17, refuse=True) == [1, 8, 16]
    # more inputs than fed outputs: no try on pass 1
    wide = np.random.default_rng(0).dirichlet(np.ones(3), size=6)
    assert _newton_tries(monkeypatch, wide, 9, refuse=True) == [8]


@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.sampled_from([0.3, 1.0]),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=2, max_value=12),
)
# two-output channels on which the plain update, and a Newton step without
# the singular-system handling, both take more than 3000 passes
@example(seed=6, alpha=0.3, m=10, n=2)
@example(seed=3, alpha=0.3, m=6, n=2)
def test_ba_certifies_dirichlet_channels(seed, alpha, m, n):
    """Near-sparse rows (alpha 0.3) and two-output channels, where the
    Newton active set can hold more inputs than there are outputs."""
    probs = np.random.default_rng(seed).dirichlet(np.full(n, alpha), size=m)
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
    assert res.converged
    assert res.iterations <= 1000
    assert capacity_gap_bits(probs, res.optimal_prior.probs) <= 1e-12


def test_ba_support_input_reenters_from_tiny_prior():
    # BSC(0.1) plus a useless input; the optimum is (1/2, 1/2, 0)
    probs = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
    res = blahut_arimoto(
        ClassicalChannel(probs), initial_prior=np.array([1e-300, 0.5, 0.5]), tol=1e-12
    )
    assert res.converged
    # the plain update needs about 1000 passes to grow it back
    assert res.iterations <= 100
    assert res.optimal_prior.probs[0] == pytest.approx(0.5, abs=1e-6)
    assert res.capacity == pytest.approx(1.0 - h2(0.1), abs=1e-9)


def test_ba_recovers_input_that_nearly_alone_feeds_an_output():
    """Input 2 is almost the only sender into output 0. Once a Newton step
    zeroes it, q_0 is near 6e-26 and I no longer resolves the steps that
    bring it back, while max_i D_i does."""
    probs = np.array([
        [6.48e-31, 0.0, 3.44e-17, 0.818, 0.0, 0.182],
        [8.76e-26, 0.0, 1.17e-05, 0.0476, 0.952, 0.0],
        [0.135, 0.0, 0.0, 0.732, 0.0476, 0.0845],
    ])
    probs /= probs.sum(axis=1, keepdims=True)
    prior = np.array([0.06196374832736306, 0.702800301669915, 0.235235950002722])
    res = blahut_arimoto(ClassicalChannel(probs), initial_prior=prior, tol=1e-12)
    assert res.converged
    assert capacity_gap_bits(probs, res.optimal_prior.probs) <= 1e-12


def test_ba_cuts_back_an_overshooting_newton_step():
    """From a fixed point of the plain update on this channel, the full
    Newton step lands on a worse face every time; the shortened step
    gets past it."""
    probs = np.random.default_rng(857381565).dirichlet(np.full(7, 0.3), size=12)
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
    assert res.converged
    assert res.iterations <= 1000
    assert capacity_gap_bits(probs, res.optimal_prior.probs) <= 1e-12


def test_ba_singular_newton_system_drops_along_null_direction():
    """24 inputs and 2 outputs: the Newton system is singular until the
    active set has at most 2 inputs, and which inputs go matters."""
    probs = np.random.default_rng(125670846).dirichlet(np.full(2, 0.05), size=24)
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
    assert res.converged
    assert res.iterations <= 1000
    assert capacity_gap_bits(probs, res.optimal_prior.probs) <= 1e-12


def test_ba_newton_step_never_leaves_an_output_unfed():
    """Input 1 alone sends into output 3. A Newton step that zeroed it
    would leave D_1 infinite and no update able to restore it."""
    probs = np.array([
        [0.0, 0.0, 0.0757, 0.0, 0.2185, 0.7058],
        [0.0, 0.0, 0.5242, 0.0212, 0.0, 0.4546],
        [0.4579, 0.0, 0.5421, 0.0, 0.0, 0.0],
        [0.0, 0.9405, 0.0, 0.0, 0.0595, 0.0],
    ])
    probs /= probs.sum(axis=1, keepdims=True)
    res = blahut_arimoto(ClassicalChannel(probs), tol=1e-12)
    assert res.converged
    assert res.optimal_prior.probs[1] > 0
    assert capacity_gap_bits(probs, res.optimal_prior.probs) <= 1e-12
