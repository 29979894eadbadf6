"""Domain types: density operators, POVMs, ensembles, pure states.

All types are frozen dataclasses over numpy arrays; constructors symmetrize
Hermitian inputs and enforce the type invariants (PSD within -1e-10,
completeness within 1e-9 Frobenius, unit traces and norms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NotPositiveSemidefinite

CONSTRUCTION_COMPLETENESS_TOL = 1e-9

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

# Tetrahedral Bloch directions, n0 = +z; pairwise inner products -1/3.
TETRAHEDRON = np.array(
    [
        [0.0, 0.0, 1.0],
        [2.0 * np.sqrt(2.0) / 3.0, 0.0, -1.0 / 3.0],
        [-np.sqrt(2.0) / 3.0, np.sqrt(2.0 / 3.0), -1.0 / 3.0],
        [-np.sqrt(2.0) / 3.0, -np.sqrt(2.0 / 3.0), -1.0 / 3.0],
    ]
)


def bloch_operator(n: np.ndarray) -> np.ndarray:
    """Qubit operator (I + n.sigma)/2 for a real 3-vector n."""
    n = np.asarray(n, dtype=float)
    return 0.5 * (np.eye(2, dtype=complex) + n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z)


@dataclass(frozen=True)
class DensityOperator:
    """PSD unit-trace operator; the matrix is symmetrized at construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = linalg.hermitize(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"density operator must be square, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density operator contains non-finite entries")
        w = np.linalg.eigvalsh(m)
        if w[0] < -linalg.PSD_TOL:
            raise NotPositiveSemidefinite(
                f"density operator eigenvalue {w[0]:.3e} below -{linalg.PSD_TOL:.0e}"
            )
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"density operator trace {tr!r} is not 1 within 1e-10")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_full_rank(self, rank_tol: float = linalg.DEFAULT_RANK_TOL) -> bool:
        w = np.linalg.eigvalsh(self.matrix)
        return bool(w[0] > rank_tol * max(w[-1], 0.0))


@dataclass(frozen=True)
class PureState:
    """Unit vector in C^D."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if not np.isfinite(a).all():
            raise ValueError("pure state contains non-finite amplitudes")
        norm = float(np.linalg.norm(a))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"pure state norm {norm!r} is not 1 within 1e-12")
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def to_density(self) -> DensityOperator:
        return DensityOperator(self.projector())


@dataclass(frozen=True)
class Povm:
    """Ordered list of PSD operators summing to the identity.

    ``elements`` is stored as a single (N, D, D) complex array.
    """

    elements: np.ndarray
    psd_tol: float = field(default=linalg.PSD_TOL, repr=False)
    completeness_tol: float = field(default=CONSTRUCTION_COMPLETENESS_TOL, repr=False)

    def __post_init__(self) -> None:
        e = np.asarray(self.elements, dtype=complex)
        if e.ndim != 3 or e.shape[1] != e.shape[2]:
            raise ValueError(f"POVM elements must be a stack of square matrices, got shape {e.shape}")
        if e.shape[0] < 1:
            raise ValueError("POVM needs at least one element")
        if not np.isfinite(e).all():
            raise ValueError("POVM contains non-finite entries")
        e = linalg.hermitize(e)
        w0 = np.linalg.eigvalsh(e)[:, 0]
        bad = np.flatnonzero(w0 < -self.psd_tol)
        if bad.size:
            j = int(bad[0])
            raise NotPositiveSemidefinite(
                f"POVM element {j} has eigenvalue {w0[j]:.3e} below -{self.psd_tol:.0e}"
            )
        residual = float(np.linalg.norm(e.sum(axis=0) - np.eye(e.shape[1])))
        if residual > self.completeness_tol:
            raise ValueError(
                f"POVM completeness residual {residual:.3e} exceeds {self.completeness_tol:.0e}"
            )
        object.__setattr__(self, "elements", e)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @property
    def num_outcomes(self) -> int:
        return self.elements.shape[0]

    def __len__(self) -> int:
        return self.num_outcomes

    def __getitem__(self, j: int) -> np.ndarray:
        return self.elements[j]

    def is_real(self, tol: float = 1e-14) -> bool:
        """True when every element has purely real entries (within tol)."""
        return bool(np.max(np.abs(self.elements.imag)) <= tol)

    def max_commutator_norm(self) -> float:
        worst = 0.0
        for i in range(self.num_outcomes):
            for j in range(i + 1, self.num_outcomes):
                worst = max(worst, linalg.commutator_norm(self.elements[i], self.elements[j]))
        return worst


@dataclass(frozen=True)
class Ensemble:
    """Prior probabilities paired with density operators of a common dimension."""

    priors: np.ndarray
    states: tuple[DensityOperator, ...]

    def __post_init__(self) -> None:
        p = np.asarray(self.priors, dtype=float).reshape(-1)
        states = tuple(self.states)
        if p.shape[0] != len(states):
            raise ValueError(f"{p.shape[0]} priors but {len(states)} states")
        if p.shape[0] < 1:
            raise ValueError("ensemble needs at least one member")
        if not np.isfinite(p).all():
            raise ValueError("ensemble priors contain non-finite entries")
        if (p < 0).any():
            raise ValueError(f"negative prior {p.min()!r}")
        if abs(p.sum() - 1.0) > 1e-12:
            raise ValueError(f"priors sum to {p.sum()!r}, not 1 within 1e-12")
        dims = {s.dim for s in states}
        if len(dims) != 1:
            raise DimensionMismatch(f"ensemble states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "priors", p)
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return self.priors.shape[0]

    def states_stack(self) -> np.ndarray:
        """All member matrices as one (M, D, D) array."""
        return np.stack([s.matrix for s in self.states])

    @staticmethod
    def from_pure(priors: np.ndarray, vectors: np.ndarray) -> "Ensemble":
        """Build an ensemble of pure states from unit row vectors (M, D)."""
        vectors = np.asarray(vectors, dtype=complex)
        states = tuple(PureState(v).to_density() for v in vectors)
        return Ensemble(np.asarray(priors, dtype=float), states)


@dataclass(frozen=True)
class ValidationReport:
    """Per-check residuals for a POVM candidate; pass iff all are <= tol."""

    tol: float
    hermiticity_residuals: tuple[float, ...]
    psd_residuals: tuple[float, ...]
    completeness_residual: float
    passed: bool

    def worst(self) -> float:
        return max(
            max(self.hermiticity_residuals),
            max(self.psd_residuals),
            self.completeness_residual,
        )


def validate_povm(p: Povm | np.ndarray | list, tol: float = 1e-8) -> ValidationReport:
    """Validate POVM data without constructing a Povm.

    Accepts a ``Povm`` or a raw stack/list of square matrices, so that
    violating inputs can still be diagnosed. Reports per-element
    Hermiticity residuals ``|m - m†|_F``, PSD residuals ``max(0, -min
    eigenvalue)``, and the completeness residual ``|sum - I|_F``.
    """
    e = p.elements if isinstance(p, Povm) else np.asarray(p, dtype=complex)
    if e.ndim != 3 or e.shape[1] != e.shape[2] or e.shape[0] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {e.shape}")
    herm = tuple(float(np.linalg.norm(m - m.conj().T)) for m in e)
    psd = tuple(float(max(0.0, -w0)) for w0 in np.linalg.eigvalsh(linalg.hermitize(e))[:, 0])
    completeness = float(np.linalg.norm(e.sum(axis=0) - np.eye(e.shape[1])))
    passed = max(max(herm), max(psd), completeness) <= tol
    return ValidationReport(
        tol=tol,
        hermiticity_residuals=herm,
        psd_residuals=psd,
        completeness_residual=completeness,
        passed=passed,
    )


def ensemble_average(e: Ensemble) -> DensityOperator:
    """The average state sigma_S = sum_i p_i rho_i."""
    avg = np.einsum("i,idc->dc", e.priors, e.states_stack())
    return DensityOperator(avg)


def maximally_mixed(dim: int) -> DensityOperator:
    """I/D."""
    return DensityOperator(np.eye(dim, dtype=complex) / dim)


def tetrahedral_sic_povm() -> Povm:
    """Qubit SIC POVM: four elements (I + n_j.sigma)/4 along tetrahedral Bloch directions."""
    return Povm(np.stack([0.5 * bloch_operator(n) for n in TETRAHEDRON]))


def anti_tetrahedral_ensemble() -> Ensemble:
    """Uniform ensemble of pure states along the antipodal tetrahedral directions.

    Each member is orthogonal to the matching SIC element's direction:
    <pi_i|psi_i> = 0.
    """
    priors = np.full(4, 0.25)
    states = tuple(DensityOperator(bloch_operator(-n)) for n in TETRAHEDRON)
    return Ensemble(priors, states)


def projective_povm(basis: np.ndarray) -> Povm:
    """Rank-1 projective POVM from an orthonormal set of basis columns."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError(f"expected a square matrix of basis columns, got shape {basis.shape}")
    gram = basis.conj().T @ basis
    if float(np.linalg.norm(gram - np.eye(basis.shape[1]))) > 1e-10:
        raise ValueError("basis columns are not orthonormal within 1e-10")
    return Povm(np.stack([np.outer(basis[:, k], basis[:, k].conj()) for k in range(basis.shape[1])]))


def standard_projective_povm(dim: int) -> Povm:
    """Projective POVM in the standard basis."""
    return projective_povm(np.eye(dim, dtype=complex))


def trine_povm() -> Povm:
    """Three real qubit elements (2/3)|phi_k><phi_k| at 120 degrees in the x-z plane."""
    elements = []
    for k in range(3):
        a = 2.0 * np.pi * k / 3.0
        elements.append((2.0 / 3.0) * bloch_operator([np.sin(a), 0.0, np.cos(a)]).real.astype(complex))
    return Povm(np.stack(elements))


def tensor_povm(a: Povm, b: Povm) -> Povm:
    """Product POVM {A_j (x) B_k}, ordered with the first factor's index major."""
    elements = [linalg.tensor(x, y) for x in a.elements for y in b.elements]
    return Povm(np.stack(elements))


def random_povm(dim: int, outcomes: int, seed: int, real: bool = False) -> Povm:
    """Random POVM via the square-root construction.

    Draws ``outcomes`` Gaussian matrices G_j, forms T = sum G_j G_j†, and
    returns {T^{-1/2} G_j G_j† T^{-1/2}}. Deterministic for a fixed seed;
    ``real=True`` restricts the draw to real entries so every element is a
    real matrix.
    """
    if dim < 1 or outcomes < 1:
        raise ValueError(f"need dim >= 1 and outcomes >= 1, got {dim}, {outcomes}")
    rng = np.random.default_rng(seed)
    for _ in range(3):
        g = rng.standard_normal((outcomes, dim, dim))
        if not real:
            g = g + 1j * rng.standard_normal((outcomes, dim, dim))
        blocks = np.einsum("jab,jcb->jac", g, g.conj())
        total = blocks.sum(axis=0)
        w = np.linalg.eigvalsh(total)
        if w[0] > linalg.DEFAULT_RANK_TOL * w[-1]:
            t = linalg.pinv_sqrt(total)
            if real:
                t = t.real.astype(complex)
            return Povm(np.einsum("ab,jbc,cd->jad", t, blocks, t))
    raise ValueError(f"random_povm: singular normalization after 3 draws (dim={dim}, outcomes={outcomes})")


def random_pure_states(dim: int, count: int, seed: int) -> list[PureState]:
    """Normalized complex Gaussian vectors; deterministic for a fixed seed."""
    if dim < 1 or count < 1:
        raise ValueError(f"need dim >= 1 and count >= 1, got {dim}, {count}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return [PureState(row) for row in v]
