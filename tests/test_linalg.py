import numpy as np
import pytest
from hypothesis import given, strategies as st

from infopower import linalg
from infopower.errors import (
    NotCommuting,
    NotPositiveSemidefinite,
    ZeroOperator,
)

from helpers import random_unitary


def _random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def test_hermitize_halves_antihermitian_part():
    m = np.array([[1.0, 1.0 + 2.0j], [1.0 - 1.0j, 3.0]])
    h = linalg.hermitize(m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, np.array([[1.0, 1.0 + 1.5j], [1.0 - 1.5j, 3.0]]))


def test_hermitize_acts_on_each_matrix_of_a_stack():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    h = linalg.hermitize(stack)
    assert h.shape == stack.shape
    for k in range(4):
        np.testing.assert_array_equal(h[k], linalg.hermitize(stack[k]))


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_eigh_reconstructs_input(dim, seed):
    rng = np.random.default_rng(seed)
    m = _random_hermitian(dim, rng)
    w, v = linalg.eigh(m)
    assert np.all(np.diff(w) >= 0), "eigenvalues must come back ascending"
    recon = (v * w) @ v.conj().T
    assert np.linalg.norm(recon - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
    assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-12)


def test_matrix_sqrt_squares_back():
    rng = np.random.default_rng(7)
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    m = g @ g.conj().T
    r = linalg.matrix_sqrt(m)
    assert np.linalg.norm(r @ r - m) <= 1e-10 * max(1.0, np.linalg.norm(m))
    assert np.allclose(r, r.conj().T)


def test_matrix_sqrt_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveSemidefinite):
        linalg.matrix_sqrt(np.diag([1.0, -1.0]))


def test_matrix_sqrt_tolerance_boundary():
    # a -5e-11 eigenvalue is inside the -1e-10 slack and clamps to zero
    r = linalg.matrix_sqrt(np.diag([1.0, -5e-11]))
    assert np.allclose(r, np.diag([1.0, 0.0]), atol=1e-5)
    with pytest.raises(NotPositiveSemidefinite):
        linalg.matrix_sqrt(np.diag([1.0, -2e-10]))


def test_pinv_sqrt_inverts_on_support():
    m = np.diag([4.0, 1.0, 0.0])
    r = linalg.pinv_sqrt(m)
    assert np.allclose(r, np.diag([0.5, 1.0, 0.0]))


def test_pinv_sqrt_rank_tol_cutoff():
    m = np.diag([1.0, 1e-15])
    r = linalg.pinv_sqrt(m)
    assert r[1, 1] == 0.0, "eigenvalue below DEFAULT_RANK_TOL * lambda_max is treated as zero"


def test_pinv_sqrt_zero_matrix_raises():
    with pytest.raises(ZeroOperator):
        linalg.pinv_sqrt(np.zeros((2, 2)))


def test_tensor_matches_kron():
    rng = np.random.default_rng(3)
    a = _random_hermitian(2, rng)
    b = _random_hermitian(3, rng)
    assert np.array_equal(linalg.tensor(a, b), np.kron(a, b))


def test_simultaneous_eigenbasis_diagonalizes_family():
    rng = np.random.default_rng(11)
    dim = 3
    u = random_unitary(dim, rng)
    family = [(u * rng.random(dim)) @ u.conj().T for _ in range(4)]
    v = linalg.simultaneous_eigenbasis(family)
    for m in family:
        d = v.conj().T @ m @ v
        off = d - np.diag(np.diag(d))
        assert np.linalg.norm(off) <= 1e-8


def test_simultaneous_eigenbasis_handles_degenerate_members():
    # first member is degenerate (identity); the rest pin the basis
    rng = np.random.default_rng(29)
    u = random_unitary(3, rng)
    family = [np.eye(3), (u * np.array([0.1, 0.5, 0.4])) @ u.conj().T]
    v = linalg.simultaneous_eigenbasis(family)
    for m in family:
        d = v.conj().T @ m @ v
        assert np.linalg.norm(d - np.diag(np.diag(d))) <= 1e-8


def test_simultaneous_eigenbasis_rejects_noncommuting():
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    z = np.diag([1.0, -1.0])
    with pytest.raises(NotCommuting):
        linalg.simultaneous_eigenbasis([x, z])


def test_simultaneous_eigenbasis_names_first_noncommuting_matrix():
    # matrix 0 commutes with both others; X and Z on the lower block do not
    a = np.diag([1.0, 0.0, 0.0])
    x = np.zeros((3, 3))
    x[1, 2] = x[2, 1] = 1.0
    z = np.diag([0.0, 1.0, -1.0])
    with pytest.raises(NotCommuting, match="matrix 1 "):
        linalg.simultaneous_eigenbasis([a, x, z])


def test_simultaneous_eigenbasis_combination_is_cached_and_read_only():
    """The seeded combination is drawn once per length and cannot be
    written, so no caller can change a later commuting decision through
    it; the basis is the one the uncached tensordot combination gives."""
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 32):
        coeffs = linalg._combination(n)
        assert coeffs is linalg._combination(n)
        assert np.array_equal(coeffs, np.random.default_rng(0).standard_normal(n))
        with pytest.raises(ValueError):
            coeffs[0] = 0.0
        u = random_unitary(3, rng)
        family = linalg.hermitize(np.stack([(u * rng.random(3)) @ u.conj().T for _ in range(n)]))
        _, v = linalg.eigh(np.tensordot(np.random.default_rng(0).standard_normal(n), family, axes=1))
        assert np.array_equal(linalg.simultaneous_eigenbasis(family), v)
