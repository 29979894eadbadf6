"""Domain types: density operators, POVMs, ensembles.

All types are frozen dataclasses over numpy arrays. Each invariant is
checked in one function, which every constructor calls:

- ``_hermitian``: one matrix, or a non-empty stack, is square with D >= 1
  and finite; each matrix's |m - m†|_F is taken, then it is hermitized and
  its lowest eigenvalue taken. Density matrices (``DensityOperator``,
  ``Ensemble`` states) are then Hermitian and PSD within ``linalg.PSD_TOL``
  (1e-10) and of unit trace within 1e-10.
  ``Ensemble.from_pure`` proves this from its rows instead: |v><v| of a
  finite unit row (within 1e-12) is Hermitian, PSD and of unit trace.
- ``_povm_residuals``: those residuals and eigenvalues, each within
  ``psd_tol`` (PSD_TOL) in a ``Povm``, and |sum - I|_F of the stack as
  given, at most ``completeness_tol`` (1e-9); ``validate_povm`` reports
  all three.
- ``_probability_rows``: a vector, or each row of a matrix, is non-empty,
  finite, non-negative and sums to 1 within 1e-12 (``Distribution``,
  ``Ensemble`` priors), 1e-10 (``ClassicalChannel``), 1e-9
  (``blahut_arimoto``'s ``initial_prior``) or 1e-10 plus the POVM's slack
  (the raw Tr[rho Pi] rows, once per ``mutual_information``,
  ``joint_statistics`` or ``apply_qc_channel`` call).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import NotPositiveSemidefinite

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


def _hermitian(m: np.ndarray, ndim: int, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``m`` (``ndim`` 2: one matrix, 3: a stack) hermitized, with each of its
    matrices' lowest eigenvalue and |m - m†|_F, once checked as the module
    docstring says."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != ndim or m.shape[-1] != m.shape[-2] or 0 in m.shape:
        raise ValueError(f"{what} must be {ndim}-D, square and non-empty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{what} contains non-finite entries")
    mh = np.conj(np.swapaxes(m, -1, -2))
    skew = _row_norms((m - mh).reshape(-1, m.shape[-1] ** 2))
    m = 0.5 * (m + mh)  # linalg.hermitize, sharing m†
    return m, np.linalg.eigvalsh(m.reshape(-1, *m.shape[-2:]))[:, 0], skew


def _row_norms(x: np.ndarray) -> np.ndarray:
    """The 2-norm of each row of a complex matrix: the reduction that
    ``np.linalg.norm(x, axis=-1)`` runs, without its argument handling."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def _probability_rows(p: np.ndarray, ndim: int, tol: float, what: str) -> np.ndarray:
    """``p`` as floats, once checked to be a probability vector (``ndim`` 1)
    or matrix of rows (``ndim`` 2) whose sums are 1 within ``tol``."""
    p = np.asarray(p, dtype=float)
    if p.ndim != ndim or 0 in p.shape:
        raise ValueError(f"{what} must be {ndim}-D and non-empty, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError(f"{what} contains non-finite entries")
    if p.min() < 0:
        raise ValueError(f"{what}: negative entry {float(p.min())!r}")
    sums = p.sum(axis=-1)
    dev = abs(sums - 1.0)
    if dev.max() > tol:
        i = int(np.argmax(dev))
        row = f" row {i}" if ndim == 2 else ""
        raise ValueError(f"{what}{row}: entries sum to {float(sums.flat[i])!r}, not 1 within {tol:g}")
    return p


def _density_matrices(m: np.ndarray, ndim: int, what: str) -> np.ndarray:
    """``m`` hermitized, once checked to hold density matrices (errors name a stack's first bad one)."""
    m, w0, skew = _hermitian(m, ndim, what)
    tr = m.trace(axis1=-2, axis2=-1).real.reshape(-1)
    bad = ((skew > linalg.PSD_TOL) | (w0 < -linalg.PSD_TOL) | (np.abs(tr - 1.0) > 1e-10)).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        name = what if ndim == 2 else f"{what} {i}"
        if skew[i] > linalg.PSD_TOL:
            raise ValueError(f"{name} is not Hermitian: |m - m†|_F = {skew[i]:.3e} above {linalg.PSD_TOL:.0e}")
        if w0[i] < -linalg.PSD_TOL:
            raise NotPositiveSemidefinite(f"{name} eigenvalue {w0[i]:.3e} below -{linalg.PSD_TOL:.0e}")
        raise ValueError(f"{name} trace {float(tr[i])!r} is not 1 within 1e-10")
    return m


def _povm_residuals(elements: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The stack hermitized, each element's lowest eigenvalue and
    |m - m†|_F, and |sum - I|_F of the stack as given."""
    e = np.asarray(elements, dtype=complex)
    h, w0, skew = _hermitian(e, 3, "POVM")
    # |sum - I|_F as np.linalg.norm computes it, from the real and imaginary parts
    dev = (e.sum(axis=0) - np.eye(e.shape[1])).ravel()
    return h, w0, skew, float(np.sqrt(dev.real.dot(dev.real) + dev.imag.dot(dev.imag)))


@dataclass(frozen=True)
class DensityOperator:
    """PSD unit-trace operator; the matrix is symmetrized at construction."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _density_matrices(self.matrix, 2, "density operator"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Povm:
    """Ordered list of Hermitian PSD operators summing to the identity.

    ``elements`` is stored as a single (N, D, D) complex array.
    """

    elements: np.ndarray
    psd_tol: float = field(default=linalg.PSD_TOL, repr=False)
    completeness_tol: float = field(default=CONSTRUCTION_COMPLETENESS_TOL, repr=False)

    def __post_init__(self) -> None:
        e, w0, skew, residual = _povm_residuals(self.elements)
        bad = (skew > self.psd_tol).nonzero()[0]
        if bad.size:
            j = int(bad[0])
            raise ValueError(f"POVM element {j} is not Hermitian: |m - m†|_F = {skew[j]:.3e} "
                             f"above {self.psd_tol:.0e}")
        bad = (w0 < -self.psd_tol).nonzero()[0]
        if bad.size:
            j = int(bad[0])
            raise NotPositiveSemidefinite(f"POVM element {j} has eigenvalue {w0[j]:.3e} "
                                          f"below -{self.psd_tol:.0e}")
        if residual > self.completeness_tol:
            raise ValueError(f"POVM completeness residual {residual:.3e} exceeds {self.completeness_tol:.0e}")
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

    def is_real(self) -> bool:
        """True when every element has purely real entries (within 1e-14)."""
        return bool(np.max(np.abs(self.elements.imag)) <= 1e-14)

    def max_commutator_norm(self) -> float:
        """Largest Frobenius norm of a commutator [Pi_i, Pi_j] over all pairs."""
        e = self.elements
        products = e[:, None] @ e[None, :]
        return float(np.linalg.norm(products - np.swapaxes(products, 0, 1), axis=(2, 3)).max())


@dataclass(frozen=True)
class Ensemble:
    """Prior probabilities paired with density operators of a common dimension.

    ``states`` is stored as a single (M, D, D) complex array, as ``Povm.elements`` is.
    """

    priors: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.priors, dtype=float).reshape(-1)
        states = _density_matrices(self.states, 3, "ensemble state")
        if p.shape[0] != states.shape[0]:
            raise ValueError(f"{p.shape[0]} priors but {states.shape[0]} states")
        object.__setattr__(self, "priors", _probability_rows(p, 1, 1e-12, "ensemble priors"))
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def __len__(self) -> int:
        return self.priors.shape[0]

    def states_stack(self) -> np.ndarray:
        """``states``, the (M, D, D) array itself."""
        return self.states

    @staticmethod
    def from_pure(priors: np.ndarray, vectors: np.ndarray) -> "Ensemble":
        """Build an ensemble of pure states from unit row vectors (M, D).

        Checks the rows and the priors only, and stores each |v><v|
        hermitized, as the constructor would, without diagonalizing it."""
        v = np.asarray(vectors, dtype=complex)
        if v.ndim != 2 or 0 in v.shape:
            raise ValueError(f"pure state vectors must be 2-D (M, D) and non-empty, got shape {v.shape}")
        norms = _row_norms(v)
        bad = np.abs(norms - 1.0) > 1e-12
        if bad.any():
            raise ValueError(f"pure state norm {float(norms[bad][0])!r} is not 1 within 1e-12")
        # a row holding NaN passes the norm check as NaN
        if not np.isfinite(v).all():
            raise ValueError("ensemble state contains non-finite entries")
        p = np.asarray(priors, dtype=float).reshape(-1)
        if p.shape[0] != v.shape[0]:
            raise ValueError(f"{p.shape[0]} priors but {v.shape[0]} states")
        e = object.__new__(Ensemble)
        object.__setattr__(e, "priors", _probability_rows(p, 1, 1e-12, "ensemble priors"))
        object.__setattr__(e, "states", linalg.hermitize(v[:, :, None] * v[:, None, :].conj()))
        return e


@dataclass(frozen=True)
class ValidationReport:
    """Per-check residuals for a POVM candidate; pass iff all are <= tol."""

    tol: float
    hermiticity_residuals: tuple[float, ...]
    psd_residuals: tuple[float, ...]
    completeness_residual: float
    passed: bool


def validate_povm(p: Povm | np.ndarray | list, tol: float = 1e-8) -> ValidationReport:
    """Validate POVM data without constructing a Povm.

    Accepts a ``Povm`` or a raw stack/list of square matrices, so that
    violating inputs can still be diagnosed. Reports per-element
    Hermiticity residuals ``|m - m†|_F``, PSD residuals ``max(0, -min
    eigenvalue)``, and the completeness residual ``|sum - I|_F``, the
    residuals ``Povm`` checks. A stack that ``_hermitian`` refuses (not
    square, D = 0, empty, non-finite entries) raises ``ValueError``.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol!r}")
    _, w0, skew, completeness = _povm_residuals(p.elements if isinstance(p, Povm) else p)
    psd = np.maximum(0.0, -w0)
    passed = bool(max(skew.max(), psd.max(), completeness) <= tol)
    return ValidationReport(tol=tol, hermiticity_residuals=tuple(skew.tolist()),
                            psd_residuals=tuple(psd.tolist()), completeness_residual=completeness,
                            passed=passed)


def ensemble_average(e: Ensemble) -> DensityOperator:
    """The average state sigma_S = sum_i p_i rho_i."""
    return DensityOperator(np.einsum("i,idc->dc", e.priors, e.states))


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
    return Ensemble(np.full(4, 0.25), np.stack([bloch_operator(-n) for n in TETRAHEDRON]))


def projective_povm(basis: np.ndarray) -> Povm:
    """Rank-1 projective POVM from an orthonormal set of basis columns."""
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1] or basis.shape[0] < 1:
        raise ValueError(f"expected a non-empty square matrix of basis columns, got shape {basis.shape}")
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


def tensor_power(p: Povm, k: int) -> Povm:
    """The k-fold product POVM p (x) ... (x) p, as ``tensor_povm`` orders it."""
    if k < 1:
        raise ValueError(f"tensor_power needs k >= 1, got {k}")
    out = p
    for _ in range(k - 1):
        out = tensor_povm(out, p)
    return out


def hesse_sic_povm() -> Povm:
    """The Hesse SIC POVM in C^3: elements |v><v|/3 over the Weyl-Heisenberg
    orbit X^a Z^b (0, 1, -1)/sqrt(2), with |<v_i|v_j>|^2 = 1/4 for i != j.
    Its informational power is log2(3/2) bits (Szymusiak, J. Phys. A 47,
    445301, 2014)."""
    shift = np.roll(np.eye(3, dtype=complex), 1, axis=0)
    clock = np.diag(np.exp(2j * np.pi * np.arange(3) / 3))
    fiducial = np.array([0.0, 1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    vectors = [np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) @ fiducial
               for a in range(3) for b in range(3)]
    return Povm(np.stack([np.outer(v, v.conj()) / 3.0 for v in vectors]))


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


def random_pure_states(dim: int, count: int, seed: int) -> np.ndarray:
    """A (count, dim) array of normalized complex Gaussian rows, as
    ``Ensemble.from_pure`` takes them; deterministic for a fixed seed."""
    if dim < 1 or count < 1:
        raise ValueError(f"need dim >= 1 and count >= 1, got {dim}, {count}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return v / np.linalg.norm(v, axis=1)[:, None]
