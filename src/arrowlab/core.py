"""Dense linear-algebra primitives for small bipartite quantum systems.

States, unitaries and Hamiltonians are plain complex matrices wrapped in thin
immutable containers that validate the defining invariants (Hermiticity, unit
trace, positivity, U†U = I) on construction.  All matrix functions (exp, log,
sqrt) go through Hermitian eigendecompositions; nothing is iterative or
series-based.

Conventions, fixed once for the whole package:

* entropies are in nats (natural log),
* composite bases are ordered lexicographically with subsystem S as the left
  (slow) tensor factor, so index ``i = s * dim_r + r``,
* randomness flows only through :class:`RandomSource`, a stack of streams:
  one seed and an (n, m) spawn-key array, a lone source being a stack of
  one.  Row k's stream is numpy's PCG64 seeded from SeedSequence with the
  seed and key k, and the samplers derive every row's stream of a stack in
  one pass (:func:`pcg64_states`), so every sampling routine is a
  deterministic function of its sources.

Experiments run their trials as stacks: the validators, samplers and
kernels with plural names act on (n, d, d) arrays, one trial per leading
index.  The single-state containers and constructors left validate library
input at its boundary; past it, every entropy, distance, partial trace,
evolution or Haar draw is a stacked kernel, one state a stack of one.
Every stacked numpy call used here rounds exactly like the per-matrix call,
so a trial's numbers do not depend on the stack it runs in.
"""

from __future__ import annotations

import contextlib
import functools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10  # eigenvalues in [-PSD_TOL, 0) count as roundoff and clamp to 0
UNITARITY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10

RNG_ALGORITHM = "numpy-PCG64"

T = TypeVar("T")


# Stacked arrays are cut into chunks of at most this many entries each: 2^16
# complex128 entries are 1 MiB, one 256x256 joint state.  Chunks shared with
# helper threads may hold a few trials more (see experiments._by_chunks).
STACK_ENTRIES = 2**16


def trial_chunks(trials: int, entries_per_trial: int, least: int = 1) -> list[range]:
    """Consecutive trial index ranges whose stacks hold at most
    STACK_ENTRIES entries per array, or ``least`` trials where that is
    more (at least one trial per chunk).  A chunk's numbers do not depend
    on the chunks beside it, so the experiments run chunks at once on the
    cores that a pinned BLAS leaves idle, and join them in trial order."""
    size = max(least, STACK_ENTRIES // entries_per_trial)
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


def _as_square_complex(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    a.setflags(write=False)
    return a


def _dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def raise_first_failure(checks) -> None:
    """Raise for the first trial of a stack that fails any check.

    ``checks`` lists (failed mask over trials, message for trial k) in the
    order one trial is checked, so that trial's first failing check names
    the error, as if the trials had been checked one at a time.
    """
    if not any(np.count_nonzero(mask) for mask, _ in checks):
        return
    k = np.flatnonzero(np.any([mask for mask, _ in checks], axis=0))[0]
    raise ValueError(next(message(k) for mask, message in checks if mask[k]))


def _hermiticity_defects(m: np.ndarray) -> np.ndarray:
    return np.abs(m - _dagger(m)).max(axis=(-2, -1))


def state_checks(m: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The ascending ``eigvalsh`` spectra of a stack (n, d, d) of density
    matrices and their Hermiticity, unit-trace and positivity checks, in the
    form :func:`raise_first_failure` takes; nothing is raised here."""
    defect = _hermiticity_defects(m)
    trace_err = np.abs(m.trace(axis1=-2, axis2=-1) - 1.0)
    spectra = np.linalg.eigvalsh(m)
    lam_min = spectra.min(axis=-1)
    return spectra, (
        (defect > HERMITICITY_TOL, lambda k: f"state is not Hermitian (max deviation {defect[k]:.3e})"),
        (trace_err > TRACE_TOL, lambda k: f"state trace deviates from 1 by {trace_err[k]:.3e}"),
        (lam_min < -PSD_TOL, lambda k: f"state has negative eigenvalue {lam_min[k]:.3e}"),
    )


def validate_states(m: np.ndarray) -> np.ndarray:
    """Check a stack (n, d, d) of density matrices for Hermiticity, unit
    trace and positivity; return their ascending ``eigvalsh`` spectra."""
    spectra, checks = state_checks(m)
    raise_first_failure(checks)
    return spectra


def _unitarity_defects(m: np.ndarray) -> np.ndarray:
    gram = _dagger(m) @ m
    # U+U - I, with I taken off the diagonal in place
    np.einsum("...ii->...i", gram)[...] -= 1.0
    return np.abs(gram).max(axis=(-2, -1))


def unitary_checks(m: np.ndarray) -> tuple:
    """The U+U = I check of a stack (n, d, d) of matrices, in the form
    :func:`raise_first_failure` takes; nothing is raised here."""
    defect = _unitarity_defects(m)
    return ((defect > UNITARITY_TOL, lambda k: f"matrix is not unitary (max deviation {defect[k]:.3e})"),)


def validate_unitaries(m: np.ndarray) -> None:
    """Check a stack (n, d, d) of matrices for U+U = I."""
    raise_first_failure(unitary_checks(m))


def validate_hamiltonians(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check a stack (n, d, d) of Hamiltonians for Hermiticity and return
    their ``eigh`` eigenvalues and eigenvectors, checked to reconstruct them."""
    defect = _hermiticity_defects(m)
    evals, evecs = np.linalg.eigh(m)
    recon = np.abs((evecs * evals[..., None, :]) @ _dagger(evecs) - m).max(axis=(-2, -1))
    raise_first_failure((
        (defect > HERMITICITY_TOL, lambda k: f"Hamiltonian is not Hermitian (max deviation {defect[k]:.3e})"),
        (recon > RECONSTRUCTION_TOL, lambda k: f"eigendecomposition fails to reconstruct to {recon[k]:.3e}"),
    ))
    return evals, evecs


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
        spectrum = validate_states(m[None])[0]
        spectrum.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])
        object.__setattr__(self, "spectrum", spectrum)


@dataclass(frozen=True, eq=False)
class UnitaryOperator:
    """Complex matrix with U†U = I."""

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = _as_square_complex(self.matrix)
        validate_unitaries(m[None])
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
        evals, evecs = validate_hamiltonians(m[None])
        evals, evecs = evals[0], evecs[0]
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


def _integer(value) -> int:
    """``value`` as an int, refused as numpy's SeedSequence refuses a
    non-integer seed word (a float is not truncated)."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError("seed must be integer") from None


def _key_column(entries: Sequence[int]) -> np.ndarray:
    """One spawn-key entry per row: uint32 when every entry is a single
    SeedSequence word, else an object array of Python ints."""
    if min(entries, default=0) < 0:
        raise ValueError("expected non-negative integer")
    return np.array(entries, dtype=np.uint32 if max(entries, default=0) <= _MASK32 else object)


def _key_array(keys) -> np.ndarray:
    """A read-only (n, m) spawn-key array, every entry checked."""
    if not (isinstance(keys, np.ndarray) and keys.dtype == np.uint32 and keys.ndim == 2):
        rows = [[_integer(entry) for entry in key] for key in keys]
        if len({len(key) for key in rows}) > 1:
            raise ValueError("every spawn key of a stack must have the same length")
        flat = _key_column([entry for key in rows for entry in key])
        keys = flat.reshape(len(rows), len(rows[0]) if rows else 0)
    else:
        keys = keys.copy()
    keys.setflags(write=False)
    return keys


@dataclass(frozen=True, eq=False, init=False)
class RandomSource:
    """A stack of reproducible random streams: one 64-bit seed plus an
    (n, m) array of spawn keys, one row per stream.

    ``keys`` is a sequence of equal-length spawn keys, and row k's stream is
    numpy's PCG64 seeded from ``SeedSequence(seed, spawn_key=keys[k])``.
    ``RandomSource(seed)`` is a lone source, a stack of one with an empty
    key.  :meth:`child` appends one index to every row's key,
    :meth:`children` gives each row one child per index, so parallel trials
    get independent, reproducible streams.  The samplers derive every row's
    stream of a stack in one pass (:func:`pcg64_states`); :meth:`generator`
    builds a lone source's stream through numpy's own ``SeedSequence``.
    Every stream starts at its beginning, so sampling functions are pure
    functions of their sources.  The seed, each key entry and each child
    index must be integers, as numpy's ``SeedSequence`` requires.

    Key entries are uint32 while every entry is one SeedSequence word, and
    Python ints once one is 2^32 or more.
    """

    seed: int
    keys: np.ndarray

    algorithm = RNG_ALGORITHM

    def __init__(self, seed: int, keys=((),)):
        seed = _integer(seed)
        if not 0 <= seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "keys", _key_array(keys))

    def __len__(self) -> int:
        return len(self.keys)

    def generator(self) -> np.random.Generator:
        """The stream of a lone source, from numpy's own ``SeedSequence``."""
        if len(self) != 1:
            raise ValueError(f"a stack of {len(self)} sources has no single generator")
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed, spawn_key=self.keys[0].tolist())))

    def child(self, index: int) -> "RandomSource":
        """Every row's child ``index``: the keys gain one column."""
        return self.children((index,))

    def children(self, indices: Iterable[int]) -> "RandomSource":
        """Row r's children at ``indices``, rows in order and the indices
        within each: a stack of len(self) * len(indices) sources."""
        column = _key_column([_integer(i) for i in indices])
        keys = self.keys
        if keys.dtype != column.dtype:
            keys, column = keys.astype(object), column.astype(object)
        rows = np.repeat(keys, len(column), axis=0)
        return RandomSource(self.seed, np.concatenate((rows, np.tile(column, len(keys))[:, None]), axis=1))


# ---------------------------------------------------------------------------
# stream derivation
# ---------------------------------------------------------------------------
# numpy's SeedSequence -> PCG64 seeding (numpy/random/bit_generator.pyx and
# pcg64.h) is fixed arithmetic that NEP 19 keeps stable: a uint32 hashmix of
# the entropy words into a 4-word pool, generate_state(4, uint64) from the
# pool, and two steps of PCG64's 128-bit LCG.  The entropy words are the
# seed's, zero-padded to the pool size, then the spawn key's.  Every hash
# constant depends only on the position of its word, so the constants are
# tables, and the pool after the seed words depends only on the seed.

_MASK32 = 2**32 - 1
_MASK128 = 2**128 - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_POOL_SIZE = 4
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult**t mod 2^32 for t = 0 .. count - 1."""
    return np.array([init * pow(mult, t, 2**32) & _MASK32 for t in range(count)], dtype=np.uint32)


# generate_state(4, uint64) hashes the pool twice round into 8 words; word t
# is xor-ed with constant t and multiplied by constant t + 1
_STATE_HASH = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
_STATE_XOR = _STATE_HASH[:-1].reshape(2, _POOL_SIZE)
_STATE_MULT = _STATE_HASH[1:].reshape(2, _POOL_SIZE)
# the seed words take the first 4 + 4 * 3 hashmix calls of mix_entropy;
# spawn word j then takes one call per pool word
_SEED_CALLS = _POOL_SIZE * _POOL_SIZE


@functools.lru_cache(maxsize=64)
def _spawn_hash(words: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) constants (words, 4) of each spawn word's hashmix
    into each pool word."""
    a = _hash_constants(_INIT_A, _MULT_A, _SEED_CALLS + _POOL_SIZE * words + 1)[_SEED_CALLS:]
    a.setflags(write=False)
    return a[:-1].reshape(words, _POOL_SIZE), a[1:].reshape(words, _POOL_SIZE)


@functools.lru_cache(maxsize=64)
def _seed_pool(seed: int) -> np.ndarray:
    """The 4-word pool once the seed's words are mixed in: numpy's pool for
    this seed with an empty spawn key."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (int(_MIX_MULT_L) * x - int(_MIX_MULT_R) * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(word) for word in (seed & _MASK32, seed >> 32, 0, 0)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    pool = np.array(pool, dtype=np.uint32)
    pool.setflags(write=False)
    return pool


def pcg64_states(sources: RandomSource) -> list[tuple[int, int]]:
    """(state, inc) of each row's PCG64, as numpy seeds it from
    ``SeedSequence(seed, spawn_key=key)``.  A uint32 key array is its own
    spawn words, and the whole stack is derived at once; a key holding an
    entry of 2^32 or more spans several words, and numpy seeds those rows
    itself."""
    if sources.keys.dtype != np.uint32:
        states = []
        for key in sources.keys.tolist():
            pcg = np.random.PCG64(np.random.SeedSequence(sources.seed, spawn_key=key)).state["state"]
            states.append((pcg["state"], pcg["inc"]))
        return states
    spawn = sources.keys
    xor, mult = _spawn_hash(spawn.shape[1])
    # a spawn word's hashmix depends on its position alone, not on the pool
    hashed = spawn[:, :, None] ^ xor
    hashed *= mult
    hashed ^= hashed >> _XSHIFT
    hashed *= _MIX_MULT_R
    pool = _seed_pool(sources.seed)
    for j in range(spawn.shape[1]):
        pool = pool * _MIX_MULT_L - hashed[:, j]
        pool ^= pool >> _XSHIFT
    words = np.empty((len(spawn), 2, _POOL_SIZE), dtype=np.uint32)
    np.bitwise_xor(pool[..., None, :], _STATE_XOR, out=words)
    words *= _STATE_MULT
    words ^= words >> _XSHIFT
    # numpy reads the 8 words as 4 little-endian uint64; PCG64 takes each
    # pair of those as (high, low) halves of a 128-bit seed and increment
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.reshape(len(spawn), 2 * _POOL_SIZE).astype("<u4", copy=False).view("<u8").tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128, inc))
    return states


@functools.cache
def _shared_generator() -> np.random.Generator:
    """The one generator whose state is set to each source's in turn.  Built
    on first use: numpy imports ``numpy.random`` lazily, and importing
    arrowlab need not pay for it."""
    return np.random.Generator(np.random.PCG64(0))


@contextlib.contextmanager
def _stream_rows(sources: RandomSource) -> Iterator[Iterator[np.random.Generator]]:
    """An iterator over the rows of the stack that yields, for each row in
    turn, one shared numpy Generator set to the start of that row's stream.
    The bit generator's lock is held until the block exits, so concurrent
    callers cannot interleave; the Generator must not be kept."""
    g = _shared_generator()
    bit_generator = g.bit_generator
    # one state dict, refilled per row: the setter copies the values out
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}

    def rows() -> Iterator[np.random.Generator]:
        for pcg["state"], pcg["inc"] in pcg64_states(sources):
            bit_generator.state = full
            yield g

    with bit_generator.lock:
        yield rows()


def draw_streams(sources: RandomSource, draw: Callable[[np.random.Generator], T]) -> list[T]:
    """``draw(g)`` per row of the stack, with ``g`` a numpy Generator at the
    start of that row's stream.  ``g`` is shared: ``draw`` must not keep it.
    Its bit generator's lock is held across the stack, so concurrent callers
    cannot interleave."""
    with _stream_rows(sources) as rows:
        return [draw(g) for g in rows]


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


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


# ---------------------------------------------------------------------------
# composition and reduction
# ---------------------------------------------------------------------------

def product_spectra(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Ascending spectra (n, p * q) of the Kronecker products a_k (x) b_k,
    from the spectra (n, p) and (n, q) of their factors: every product of
    one eigenvalue of each, sorted.  No eigendecomposition is made."""
    return np.sort((a[:, :, None] * b[:, None, :]).reshape(len(a), -1), axis=-1)


def partial_traces(m: np.ndarray, dim_s: int, dim_r: int, keep: str, out: np.ndarray | None = None) -> np.ndarray:
    """Reduced matrices of a stack (n, D, D) of joint matrices, keeping S or
    R, written into ``out`` when it is given."""
    t = m.reshape(len(m), dim_s, dim_r, dim_s, dim_r)
    if keep == "S":
        return np.einsum("nikjk->nij", t, out=out)
    if keep == "R":
        return np.einsum("nkikj->nij", t, out=out)
    raise ValueError(f"keep must be 'S' or 'R', got {keep!r}")


# ---------------------------------------------------------------------------
# entropies and correlation measures
# ---------------------------------------------------------------------------

def masked_row_sums(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Sum of each row of x (n, m) over the entries where ``mask`` holds.

    A row with an entry masked out is summed over its selected entries
    alone, as one array: summing zeros in their place would regroup
    numpy's pairwise summation from 8 entries up and move the last bits.
    """
    sums = x.sum(axis=-1)
    if np.count_nonzero(mask) < mask.size:
        for k in np.flatnonzero(~mask.all(axis=-1)):
            sums[k] = x[k][mask[k]].sum()
    return sums


def spectrum_entropies(eigs: np.ndarray) -> np.ndarray:
    """-sum lam ln lam in nats of each spectrum in a stack (n, d), with
    0 ln 0 := 0; raises on eigenvalues below -PSD_TOL."""
    lam_min = eigs.min(axis=-1)
    raise_first_failure(((lam_min < -PSD_TOL, lambda k: f"state has negative eigenvalue {lam_min[k]:.3e}"),))
    lam = np.clip(eigs, 0.0, None)
    positive = lam > 0.0
    return -masked_row_sums(lam * np.log(np.where(positive, lam, 1.0)), positive)


def renyi2_of_matrix(m: np.ndarray) -> float:
    """Collision (Renyi-2) entropy -ln tr m^2 in nats of a raw Hermitian
    matrix, from its squared Frobenius norm: O(d^2), no eigendecomposition.
    The norm is summed by einsum over the real and imaginary views, not by
    BLAS, whose summation order depends on its thread count."""
    return -float(np.log(np.einsum("ij,ij->", m.real, m.real) + np.einsum("ij,ij->", m.imag, m.imag)))


def marginal_entropies_of_stack(m: np.ndarray, layout: BipartitionLayout) -> tuple[np.ndarray, np.ndarray]:
    """(S(rho_S), S(rho_R)) in nats of each joint matrix in a stack (n, D, D).

    The matrices are taken as given, without validating them as states;
    each marginal spectrum is still checked for eigenvalues below -PSD_TOL.
    """
    return tuple(
        spectrum_entropies(np.linalg.eigvalsh(partial_traces(m, layout.dim_s, layout.dim_r, keep))) for keep in "SR"
    )


def mutual_informations(m: np.ndarray, spectra: np.ndarray, layout: BipartitionLayout) -> np.ndarray:
    """I(S:R) = S(rho_S) + S(rho_R) - S(rho_SR) in nats of each joint state
    of a stack (n, D, D), given their spectra (n, D) as
    :func:`validate_states` returns them."""
    s_s, s_r = marginal_entropies_of_stack(m, layout)
    return s_s + s_r - spectrum_entropies(spectra)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Half the sum of absolute eigenvalues of each a_k - b_k, for two
    stacks (n, d, d) of states or a stack and one (d, d) state; each in
    [0, 1].  One ``eigvalsh`` decomposes every difference."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------

def evolve_states(rho: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U rho U+ for a stack (n, D, D) of matrices under a stack of
    unitaries; nothing is validated."""
    return u @ rho @ _dagger(u)


def evolve_products(rho_s: np.ndarray, rho_r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """U (rho_S (x) rho_R) U+ for stacks of factors (n, d_S, d_S) and
    (n, d_R, d_R) under a stack of unitaries (n, D, D), D = d_S d_R, without
    building the D x D product: U's column index (s, r) is contracted with
    rho_S, then with rho_R, each one batched matmul of O(D^2 (d_S + d_R)),
    and one D^3 product with U+ remains.  Nothing is validated."""
    n, d_s, d_r = len(u), rho_s.shape[-1], rho_r.shape[-1]
    d = d_s * d_r
    # U as rows (i, r) and columns s, times rho_S: x[i, r, s']
    x = u.reshape(n, d, d_s, d_r).swapaxes(-1, -2).reshape(n, d * d_r, d_s) @ rho_s
    # x as rows (i, s') and columns r, times rho_R: x[i, s', r'] = (U rho)[i, (s', r')]
    x = x.reshape(n, d, d_r, d_s).swapaxes(-1, -2).reshape(n, d * d_s, d_r) @ rho_r
    return x.reshape(n, d, d) @ _dagger(u)


def unitaries_from_hamiltonian(h: Hamiltonian, times) -> np.ndarray:
    """exp(-i H t) for each t of a sequence, through the cached
    eigendecomposition; the stack (n, d, d) is not validated
    (:func:`validate_unitaries` checks it)."""
    with np.errstate(over="ignore"):
        angles = np.asarray(times, dtype=float)[:, None] * h.eigenvalues
    raise_first_failure(((
        ~np.isfinite(angles).all(axis=-1),
        lambda k: f"H t overflows: largest |eigenvalue| {float(np.abs(h.eigenvalues).max())!r} at t = {times[k]!r}",
    ),))
    phases = np.exp(-1j * angles)
    return (h.eigenvectors * phases[:, None, :]) @ h.eigenvectors.conj().T


def gibbs_matrices(h: Hamiltonian, betas) -> np.ndarray:
    """Thermal states exp(-beta H)/Z for each beta of a sequence; the
    spectrum is shifted by its minimum before exponentiating so large beta
    cannot overflow.  The stack (n, d, d) is not validated
    (:func:`validate_states` checks it)."""
    betas = np.asarray(betas, dtype=float)
    raise_first_failure(((~(np.isfinite(betas) & (betas >= 0.0)), lambda k: "beta must be finite and >= 0"),))
    w = np.exp(-betas[:, None] * (h.eigenvalues - h.eigenvalues.min()))
    p = w / w.sum(axis=-1, keepdims=True)
    return (h.eigenvectors * p[:, None, :]) @ h.eigenvectors.conj().T


def gibbs_state(h: Hamiltonian, beta: float) -> DensityOperator:
    """Thermal state exp(-beta H)/Z; see :func:`gibbs_matrices`."""
    return DensityOperator(gibbs_matrices(h, [beta])[0])


# ---------------------------------------------------------------------------
# random sampling
# ---------------------------------------------------------------------------

def gaussian_matrices(sources: RandomSource, rows: int, cols: int) -> np.ndarray:
    """Stack (n, rows, cols) of complex Gaussian matrices X + iY, one per
    row of the source stack, each drawn from the start of its row's stream:
    all of X, then all of Y.  The streams are derived for the whole stack
    in one pass and drawn in the one loop that :func:`draw_streams` also
    runs."""
    # a Generator fills only contiguous arrays: X then Y are one call into
    # each source's contiguous (2, rows, cols) slab, the same stream bits as
    # two calls, then written into the parts of one complex stack
    parts = np.empty((len(sources), 2, rows, cols))
    with _stream_rows(sources) as streams:
        for g, slab in zip(streams, parts):
            g.standard_normal(out=slab)
    z = np.empty((len(sources), rows, cols), dtype=complex)
    z.real = parts[:, 0]
    z.imag = parts[:, 1]
    return z


def random_hermitians(dim: int, sources: RandomSource) -> np.ndarray:
    """(Z + Z†)/2 per row of the source stack, with Z a dim x dim complex
    Gaussian matrix.  The stack is not validated
    (:func:`validate_hamiltonians` checks it)."""
    z = gaussian_matrices(sources, dim, dim)
    return (z + _dagger(z)) / 2.0


def haar_unitaries(dim: int, sources: RandomSource) -> np.ndarray:
    """Haar-distributed unitaries, one per row of the source stack: QR of a
    complex Ginibre matrix with the standard phase-fixing correction on the
    diagonal of R.
    The stack is not validated (:func:`validate_unitaries` checks it)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    z = gaussian_matrices(sources, dim, dim)
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diagonal = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (diagonal / np.abs(diagonal))[:, None, :]
    return q


def random_density_matrices(dim: int, rank: int, sources: RandomSource) -> np.ndarray:
    """G G† / tr(G G†) per row of the source stack, with G a dim x rank
    complex Gaussian matrix.  The stack is not validated
    (:func:`validate_states` checks it)."""
    if not 1 <= rank <= dim:
        raise ValueError("rank must satisfy 1 <= rank <= dim")
    z = gaussian_matrices(sources, dim, rank)
    z /= np.sqrt(2.0)
    m = z @ _dagger(z)
    return m / m.trace(axis1=-2, axis2=-1).real[:, None, None]


def random_density_operator(dim: int, rank: int, rng: RandomSource) -> DensityOperator:
    """G G† / tr(G G†) of a lone source, with G a dim x rank complex
    Gaussian matrix; see :func:`random_density_matrices`."""
    (m,) = random_density_matrices(dim, rank, rng)
    return DensityOperator(m)
