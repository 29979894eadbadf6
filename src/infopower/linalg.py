"""Dense complex Hermitian linear algebra primitives.

Everything here operates on plain ``numpy.ndarray`` values. Inputs are
symmetrized (``(m + m†)/2``) before decomposition so that roundoff-level
Hermiticity violations never reach the eigensolver.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatch,
    EigendecompositionError,
    NotCommuting,
    NotPositiveSemidefinite,
    ZeroOperator,
)

PSD_TOL = 1e-10
DEFAULT_RANK_TOL = 1e-12
COMMUTING_TOL = 1e-10


def hermitize(m: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (m + m†)/2 as a complex array.

    A stack of matrices is accepted: the last two axes are the matrix axes.
    """
    m = np.asarray(m, dtype=complex)
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthonormal
    eigenvectors in the columns of ``v``, so ``m = v @ diag(w) @ v†``.

    Raises
    ------
    EigendecompositionError
        If the LAPACK routine fails to converge; the message carries the
        matrix norm and dimension for diagnosis.
    """
    h = hermitize(m)
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(
            f"eigh failed to converge on a {h.shape[0]}x{h.shape[0]} matrix "
            f"with Frobenius norm {np.linalg.norm(h):.3e}: {exc}"
        ) from exc
    return w, v


def matrix_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues down to ``-PSD_TOL`` are clamped to 0.

    Raises
    ------
    NotPositiveSemidefinite
        If any eigenvalue lies below ``-PSD_TOL``.
    """
    w, v = eigh(m)
    if w[0] < -PSD_TOL:
        raise NotPositiveSemidefinite(
            f"matrix_sqrt: eigenvalue {w[0]:.3e} below tolerance {-PSD_TOL:.0e}"
        )
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def pinv_sqrt(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Pseudo-inverse square root of a PSD Hermitian matrix.

    Eigenvalues above ``rank_tol * max(eigenvalue)`` map to ``1/sqrt``,
    the rest to 0, so the result acts only on the support of ``m``.

    Raises
    ------
    ZeroOperator
        If ``m`` has no eigenvalue above the rank cutoff.
    NotPositiveSemidefinite
        If any eigenvalue lies below ``-PSD_TOL``.
    """
    w, v = eigh(m)
    if w[0] < -PSD_TOL:
        raise NotPositiveSemidefinite(
            f"pinv_sqrt: eigenvalue {w[0]:.3e} below tolerance {-PSD_TOL:.0e}"
        )
    cutoff = rank_tol * max(w[-1], 0.0)
    keep = w > cutoff
    if not keep.any():
        raise ZeroOperator("pinv_sqrt of the zero matrix is undefined")
    inv = np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)
    return (v * inv) @ v.conj().T


def support_projector(m: np.ndarray, rank_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the support (range) of a PSD matrix."""
    w, v = eigh(m)
    keep = w > rank_tol * max(w[-1], 0.0)
    if not keep.any():
        return np.zeros_like(np.asarray(m, dtype=complex))
    vk = v[:, keep]
    return vk @ vk.conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with row-major composite indexing (a-index major)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def commutator_norm(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the commutator ab - ba."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatch(f"commutator_norm: shapes {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a @ b - b @ a))


def simultaneous_eigenbasis(ms: np.ndarray | list[np.ndarray]) -> np.ndarray:
    """Common orthonormal eigenbasis of a family of commuting Hermitian matrices.

    Hermitian matrices commute exactly when one unitary basis diagonalizes
    them all, so the basis is also the test: the eigenbasis of one fixed,
    seeded, random real combination of the inputs must leave no
    off-diagonal entry above ``COMMUTING_TOL`` in any of them.

    Returns the basis as columns of a unitary matrix.

    Raises
    ------
    NotCommuting
        Naming the first matrix with an off-diagonal entry above
        ``COMMUTING_TOL`` in that basis. This also happens, rarely, for a
        commuting family whose combination is nearly degenerate where its
        members are not.
    """
    if not len(ms):
        raise ValueError("simultaneous_eigenbasis: empty matrix list")
    ms = hermitize(ms)
    coeffs = np.random.default_rng(0).standard_normal(len(ms))
    _, v = eigh(np.tensordot(coeffs, ms, axes=1))
    rotated = v.conj().T @ ms @ v
    offdiag = np.abs(rotated * (1.0 - np.eye(v.shape[0]))).max(axis=(1, 2))
    bad = np.flatnonzero(offdiag > COMMUTING_TOL)
    if bad.size:
        j = int(bad[0])
        raise NotCommuting(
            f"matrix {j} keeps an off-diagonal entry {offdiag[j]:.3e} > {COMMUTING_TOL:.0e} "
            "in the eigenbasis of a random combination"
        )
    return v
