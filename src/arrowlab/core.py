"""Dense linear-algebra primitives for small bipartite quantum systems.

States, unitaries and Hamiltonians are plain complex matrices wrapped in thin
immutable containers that validate the defining invariants (Hermiticity, unit
trace, positivity, U†U = I) on construction.  All matrix functions (exp, log,
sqrt) go through Hermitian eigendecompositions; nothing is iterative or
series-based.

Conventions, fixed once for the whole package:

* entropies and relative entropies are in nats (natural log),
* composite bases are ordered lexicographically with subsystem S as the left
  (slow) tensor factor, so index ``i = s * dim_r + r``,
* randomness flows only through :class:`RandomSource` (numpy PCG64, children
  derived via SeedSequence spawn keys), so every sampling routine is a
  deterministic function of its source.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Literal

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10  # eigenvalues in [-PSD_TOL, 0) count as roundoff and clamp to 0
UNITARITY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10
SUPPORT_TOL = 1e-12  # eigenvalue threshold defining the support of a state

RNG_ALGORITHM = "numpy-PCG64"


def _as_square_complex(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a.setflags(write=False)
    return a


def _hermiticity_defect(m: np.ndarray) -> float:
    return float(np.abs(m - m.conj().T).max())


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, positive-semidefinite, unit-trace complex matrix.

    ``spectrum`` is the ascending, read-only ``eigvalsh`` of ``matrix`` that
    validation computes; entropies read it instead of decomposing again.
    """

    matrix: np.ndarray
    dim: int = field(init=False)
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        defect = _hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"state is not Hermitian (max deviation {defect:.3e})")
        trace_err = abs(m.trace() - 1.0)
        if trace_err > TRACE_TOL:
            raise ValueError(f"state trace deviates from 1 by {trace_err:.3e}")
        spectrum = np.linalg.eigvalsh(m)
        lam_min = float(spectrum.min())
        if lam_min < -PSD_TOL:
            raise ValueError(f"state has negative eigenvalue {lam_min:.3e}")
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "spectrum", spectrum)

    def eigenvalues(self) -> np.ndarray:
        """Ascending real spectrum, roundoff negatives clamped to zero."""
        return np.clip(self.spectrum, 0.0, None)


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Complex matrix with U†U = I."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        defect = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if defect > UNITARITY_TOL:
            raise ValueError(f"matrix is not unitary (max deviation {defect:.3e})")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    """Hermitian generator; eigendecomposition is computed once and cached."""

    matrix: np.ndarray
    dim: int = field(init=False)
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        defect = _hermiticity_defect(m)
        if defect > HERMITICITY_TOL:
            raise ValueError(f"Hamiltonian is not Hermitian (max deviation {defect:.3e})")
        evals, evecs = np.linalg.eigh(m)
        recon = float(np.abs((evecs * evals) @ evecs.conj().T - m).max())
        if recon > RECONSTRUCTION_TOL:
            raise ValueError(f"eigendecomposition fails to reconstruct to {recon:.3e}")
        evals.setflags(write=False)
        evecs.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "eigenvalues", evals)
        object.__setattr__(self, "eigenvectors", evecs)


@dataclass(frozen=True)
class BipartitionLayout:
    """How a joint space factors into system (left factor) and rest."""

    dim_s: int
    dim_r: int

    def __post_init__(self):
        if self.dim_s < 2 or self.dim_r < 2:
            raise ValueError("bipartite operations need dim_s >= 2 and dim_r >= 2")

    @property
    def dim(self) -> int:
        return self.dim_s * self.dim_r


@dataclass(frozen=True)
class RandomSource:
    """Deterministic randomness root: a 64-bit seed plus a split key.

    The generator algorithm is fixed to numpy's PCG64.  Children derived via
    :meth:`child` use SeedSequence spawn keys, so parallel trials get
    independent, reproducible streams.  Every call to :meth:`generator`
    returns a fresh generator at the start of the stream; sampling functions
    are therefore pure functions of their RandomSource argument.
    """

    seed: int
    key: tuple[int, ...] = ()

    algorithm = RNG_ALGORITHM

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.key)))

    def child(self, index: int) -> "RandomSource":
        return RandomSource(self.seed, self.key + (int(index),))


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def pure_state(amplitudes: Iterable[complex]) -> DensityOperator:
    """Projector onto the given (normalized if needed) state vector."""
    v = np.asarray(list(amplitudes) if not isinstance(amplitudes, np.ndarray) else amplitudes, dtype=complex).ravel()
    norm = np.linalg.norm(v)
    if norm < 1e-15:
        raise ValueError("cannot normalize the zero vector")
    v = v / norm
    return DensityOperator(np.outer(v, v.conj()))


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim) / dim)


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def identity_unitary(dim: int) -> UnitaryOperator:
    return UnitaryOperator(np.eye(dim, dtype=complex))


# ---------------------------------------------------------------------------
# composition and reduction
# ---------------------------------------------------------------------------

def tensor_product(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    return DensityOperator(np.kron(a.matrix, b.matrix))


def _partial_trace_matrix(m: np.ndarray, dim_s: int, dim_r: int, keep: str) -> np.ndarray:
    t = m.reshape(dim_s, dim_r, dim_s, dim_r)
    if keep == "S":
        return np.einsum("ikjk->ij", t)
    if keep == "R":
        return np.einsum("kikj->ij", t)
    raise ValueError(f"keep must be 'S' or 'R', got {keep!r}")


def partial_trace(rho: DensityOperator, layout: BipartitionLayout, keep: Literal["S", "R"]) -> DensityOperator:
    if rho.dim != layout.dim:
        raise ValueError(f"state dim {rho.dim} does not match layout {layout.dim_s}x{layout.dim_r}")
    return DensityOperator(_partial_trace_matrix(rho.matrix, layout.dim_s, layout.dim_r, keep))


# ---------------------------------------------------------------------------
# entropies and correlation measures
# ---------------------------------------------------------------------------

def _clamped_probabilities(eigs: np.ndarray, what: str = "state") -> np.ndarray:
    lam_min = float(eigs.min())
    if lam_min < -PSD_TOL:
        raise ValueError(f"{what} has negative eigenvalue {lam_min:.3e}")
    return np.clip(eigs, 0.0, None)


def _entropy_of_spectrum(eigs: np.ndarray) -> float:
    lam = _clamped_probabilities(eigs)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def entropy_of_matrix(m: np.ndarray) -> float:
    """-tr m ln m in nats of a raw Hermitian matrix, without building a
    DensityOperator; raises on eigenvalues below -PSD_TOL."""
    return _entropy_of_spectrum(np.linalg.eigvalsh(m))


def renyi2_of_matrix(m: np.ndarray) -> float:
    """Collision (Renyi-2) entropy -ln tr m^2 in nats of a raw Hermitian
    matrix, from its squared Frobenius norm: O(d^2), no eigendecomposition."""
    return -float(np.log(np.vdot(m, m).real))


def von_neumann_entropy(rho: DensityOperator) -> float:
    """S(rho) = -tr rho ln rho in nats, with 0 ln 0 := 0, from the spectrum
    the state was validated with."""
    return _entropy_of_spectrum(rho.spectrum)


def marginal_entropies(matrix: np.ndarray, layout: BipartitionLayout) -> tuple[float, float]:
    """(S(rho_S), S(rho_R)) of a joint matrix, in nats.

    The matrix is taken as given, without building a DensityOperator; each
    marginal spectrum is still checked for eigenvalues below -PSD_TOL.
    """
    if matrix.shape != (layout.dim, layout.dim):
        raise ValueError(f"state dim {matrix.shape[0]} does not match layout {layout.dim_s}x{layout.dim_r}")
    return (
        entropy_of_matrix(_partial_trace_matrix(matrix, layout.dim_s, layout.dim_r, "S")),
        entropy_of_matrix(_partial_trace_matrix(matrix, layout.dim_s, layout.dim_r, "R")),
    )


def bipartite_entropies(matrix: np.ndarray, layout: BipartitionLayout) -> tuple[float, float, float]:
    """(S(rho_S), S(rho_R), S(rho_SR)) of a raw joint matrix, in nats; see
    :func:`marginal_entropies`."""
    return (*marginal_entropies(matrix, layout), entropy_of_matrix(matrix))


def mutual_information(rho: DensityOperator, layout: BipartitionLayout) -> float:
    """I(S:R) = S(rho_S) + S(rho_R) - S(rho_SR), total correlations in nats."""
    s_s, s_r = marginal_entropies(rho.matrix, layout)
    return s_s + s_r - von_neumann_entropy(rho)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma; in [0, 1]."""
    if rho.dim != sigma.dim:
        raise ValueError("states must have equal dimension")
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix)).sum())


def relative_entropy(rho: DensityOperator, sigma: DensityOperator) -> float:
    """tr rho (ln rho - ln sigma) in nats.

    Raises if rho has weight outside the support of sigma (the divergence
    would be infinite); support membership uses the 1e-12 eigenvalue
    threshold.
    """
    if rho.dim != sigma.dim:
        raise ValueError("states must have equal dimension")
    p = _clamped_probabilities(np.linalg.eigvalsh(rho.matrix))
    q, vq = np.linalg.eigh(sigma.matrix)
    q = _clamped_probabilities(q)
    # weight of rho along each eigenvector of sigma
    w = np.real(np.einsum("ji,jk,ki->i", vq.conj(), rho.matrix, vq))
    w = np.clip(w, 0.0, None)
    outside = q <= SUPPORT_TOL
    if np.any(w[outside] > SUPPORT_TOL):
        raise ValueError("support of rho is not contained in support of sigma (infinite relative entropy)")
    plogp = float(np.sum(p[p > 0.0] * np.log(p[p > 0.0])))
    inside = ~outside
    cross = float(np.sum(w[inside] * np.log(q[inside])))
    return max(plogp - cross, 0.0)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def evolve(rho: DensityOperator, u: UnitaryOperator) -> DensityOperator:
    if rho.dim != u.dim:
        raise ValueError(f"state dim {rho.dim} does not match unitary dim {u.dim}")
    return DensityOperator(u.matrix @ rho.matrix @ u.matrix.conj().T)


def unitary_from_hamiltonian(h: Hamiltonian, t: float) -> UnitaryOperator:
    """exp(-i H t) through the cached eigendecomposition."""
    with np.errstate(over="ignore"):
        angles = h.eigenvalues * t
    if not np.all(np.isfinite(angles)):
        raise ValueError(f"H t overflows: largest |eigenvalue| {float(np.abs(h.eigenvalues).max())!r} at t = {t!r}")
    phases = np.exp(-1j * angles)
    return UnitaryOperator((h.eigenvectors * phases) @ h.eigenvectors.conj().T)


def gibbs_state(h: Hamiltonian, beta: float) -> DensityOperator:
    """Thermal state exp(-beta H)/Z; the spectrum is shifted by its minimum
    before exponentiating so large beta cannot overflow."""
    if not np.isfinite(beta) or beta < 0.0:
        raise ValueError("beta must be finite and >= 0")
    w = np.exp(-beta * (h.eigenvalues - h.eigenvalues.min()))
    p = w / w.sum()
    return DensityOperator((h.eigenvectors * p) @ h.eigenvectors.conj().T)


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def haar_random_unitary(dim: int, rng: RandomSource) -> UnitaryOperator:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the
    standard phase-fixing correction on the diagonal of R."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    g = rng.generator()
    z = (g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r) / np.abs(np.diag(r))
    return UnitaryOperator(q * phases)


def random_density_operator(dim: int, rank: int, rng: RandomSource) -> DensityOperator:
    """G G† / tr(G G†) with G a dim x rank complex Gaussian matrix."""
    if not 1 <= rank <= dim:
        raise ValueError("rank must satisfy 1 <= rank <= dim")
    g = rng.generator()
    z = (g.standard_normal((dim, rank)) + 1j * g.standard_normal((dim, rank))) / np.sqrt(2.0)
    m = z @ z.conj().T
    return DensityOperator(m / m.trace().real)
