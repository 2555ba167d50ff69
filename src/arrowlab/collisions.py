"""Thermalizing collision machine, exactly reversible from its joint state.

A system qubit repeatedly collides with fresh reservoir qubits through a
two-qubit gate.  Two simulation modes exist on purpose:

* reduced mode tracks only the 2-dim system state, which is exact because
  every collision partner is fresh and therefore uncorrelated with the
  system at the moment of impact;
* joint mode retains the full (system + all ancillas) state, capped at 12
  qubits, so the collisions can be undone exactly by replaying the inverse
  gate in reverse order.

The contrast between the two is the point: the forward reduced dynamics
looks irreversible, yet the gate plus the retained joint state recovers the
initial system state to machine precision.  Scramble the replay order and
the recovery fails.  Either way each ancilla meets exactly one inverse gate,
so it is traced out as soon as that gate has acted and the replay continues
on a state half the size: dimensions D, D/2, ..., 4 instead of n times D.
Both modes reduce to the system with core's partial trace and record the
trajectory as one (n + 1, 2, 2) stack, validated by one call.

No full-size state is held twice.  Each ancilla is attached inside its
gate, which forms rho x xi chunk by chunk and never whole, so a forward
collision holds its output and its quarter-size input.  Each inverse gate
traces its ancilla out inside the gate, so a reversal step writes only its
quarter-size output next to the state it reads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DensityOperator,
    UnitaryOperator,
    partial_traces,
    spectrum_entropies,
    trace_distances,
    validate_states,
)

JOINT_DIM_CAP = 2**12
EXACT_DISTANCE_FLOOR = 1e-14
# joint-state elements per chunk of a pair gate: its rows of rho x xi, its ket
# side and its bra-side work each stay within one chunk, 256 KiB, next to
# states of up to 256 MiB at the cap
PAIR_GATE_CHUNK = 2**14

# exchanges two qubits; also the swap coupling of the weak-coupling sweep
SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)
SWAP.setflags(write=False)


def partial_swap_unitary(theta: float) -> UnitaryOperator:
    """cos(theta) I + i sin(theta) SWAP; unitary for every real theta."""
    return UnitaryOperator(np.cos(theta) * np.eye(4, dtype=complex) + 1j * np.sin(theta) * SWAP)


@dataclass(frozen=True)
class ReservoirSpec:
    """Fresh-ancilla reservoir: one qubit state repeated ``count`` times."""

    ancilla_state: DensityOperator
    count: int

    def __post_init__(self):
        if self.ancilla_state.dim != 2:
            raise ValueError("ancilla state must be a qubit")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-collision system state (n + 1, 2, 2), entropy (n + 1,) and
    distance to the incoming ancilla (n + 1,); index 0 is the initial point."""

    states: np.ndarray
    entropies: np.ndarray
    distances_to_ancilla: np.ndarray

    def __post_init__(self):
        n = len(self.states)
        if n < 1 or len(self.entropies) != n or len(self.distances_to_ancilla) != n:
            raise ValueError("trajectory fields must have equal nonzero length")


def _trajectory(system_init: DensityOperator, states: list[np.ndarray], xi: np.ndarray) -> TrajectoryRecord:
    """The record of the states after each collision, validated by one call
    in step order, so the first failing step raises what it raises alone;
    entropies from those spectra, distances from one ``eigvalsh``."""
    stack = np.stack([system_init.matrix, *states])
    spectra = np.concatenate((system_init.spectrum[None], validate_states(stack[1:])))
    return TrajectoryRecord(stack, spectrum_entropies(spectra), trace_distances(stack, xi))


def run_collisions(
    system_init: DensityOperator,
    spec: ReservoirSpec,
    gate: UnitaryOperator,
) -> TrajectoryRecord:
    """Reduced-mode trajectory: rho_{k+1} = tr_anc[gate (rho_k x xi) gate+].

    The pre-collision pair state is product by construction because each
    ancilla is fresh.
    """
    if system_init.dim != 2:
        raise ValueError("system must be a qubit")
    if gate.dim != 4:
        raise ValueError("gate must act on two qubits")
    g = gate.matrix
    rho = system_init.matrix
    xi = spec.ancilla_state.matrix
    states = []
    for _ in range(spec.count):
        joint = g @ np.kron(rho, xi) @ g.conj().T
        rho = partial_traces(joint[None], 2, 2, "S")[0]
        states.append(rho)
    return _trajectory(system_init, states, xi)


# ---------------------------------------------------------------------------
# exact joint-state simulation
# ---------------------------------------------------------------------------

def _mix_pairs(u: np.ndarray, sources, targets, work) -> None:
    """targets[a][b] = sum over (i, j) of u[a, b, i, j] sources[i][j].

    ``targets`` may hold fewer than 2 x 2 entries, one for each (a, b) of u.
    Terms are added in (i, j) order, skipping zero entries of u, and each
    product c x is formed as Re(c) x + i Im(c) x with one rounding per part,
    the way np.einsum forms it; numpy's complex multiply may fuse the two
    parts and round differently.  ``work`` holds two arrays shaped like
    one target; u is unitary, so every target gets at least one term.
    """
    for a, row in enumerate(targets):
        for b, target in enumerate(row):
            first = True
            for i in range(2):
                for j in range(2):
                    c = u[a, b, i, j]
                    if c == 0:
                        continue
                    term = target if first else work[0]
                    if c.real and c.imag:
                        np.multiply(sources[i][j], c.real, out=term)
                        term += np.multiply(sources[i][j], 1j * c.imag, out=work[1])
                    else:
                        np.multiply(sources[i][j], c, out=term)
                    if not first:
                        target += term
                    first = False


def _ket_chunks(state: np.ndarray, u4: np.ndarray, xi: np.ndarray | None = None):
    """The ket side U rho of a two-qubit gate on qubits (0, k), chunk by chunk.

    ``state`` is rho shaped (2, between, 2, after) x 2: index a row as
    (a, m, b, r), with a the bit of qubit 0 and b that of qubit k.  Given
    an ancilla ``xi``, rho is ``state`` x xi instead, with ``state`` shaped
    (2, between, 1, 1) x 2 and xi the last qubit k; each chunk forms its
    own rows of that product with np.kron's complex multiply, so the
    product is never held whole.  The ket side mixes only the four rows
    that share (m, r), so the rows go through in chunks of whole such
    groups.  A chunk holds at most PAIR_GATE_CHUNK elements, or one group
    where a group is larger.  Yields (ms, rs, ket, work) per chunk: its
    group slices, ket[a, b, m, r, p, m', q, r'] and ``work``, room for two
    of ket's (a, b) blocks, for the caller's bra side.  The buffers are
    reused from chunk to chunk.
    """
    between, after = state.shape[1], state.shape[3]
    d = 4 * between * after
    groups = min(between * after, max(1, PAIR_GATE_CHUNK // (4 * d)))
    if groups <= after:
        rb, mb = groups, 1
        chunks = [(slice(m, m + 1), slice(r, r + rb)) for m in range(between) for r in range(0, after, rb)]
    else:
        rb, mb = after, groups // after
        chunks = [(slice(m, m + mb), slice(None)) for m in range(0, between, mb)]
    ket = np.empty((2, 2, mb, rb, 2, between, 2, after), dtype=complex)
    work = np.empty((2, mb * rb * d), dtype=complex)
    ket_work = work.reshape(2, *ket.shape[2:])
    if xi is not None:
        product = np.empty((2, mb, 2, rb, 2, between, 2, after), dtype=complex)
        ancilla = xi.reshape(2, 1, 1, 1, 2, 1)
    u = u4.reshape(2, 2, 2, 2)
    for ms, rs in chunks:
        rows = state[:, ms, :, rs] if xi is None else np.multiply(state[:, ms], ancilla, out=product)
        _mix_pairs(u, [[rows[i, :, j] for j in range(2)] for i in range(2)], ket, ket_work)
        yield ms, rs, ket, work


def _attach_and_gate(joint: np.ndarray, xi: np.ndarray, u4: np.ndarray) -> np.ndarray:
    """U (rho x xi) U+ with the ancilla xi attached as the last qubit, n,
    and U a two-qubit gate on qubits (0, n).

    Chunk by chunk, the gate acts on the rows of rho x xi, then on their
    columns (bra side), straight into the result.  Besides the result, a
    gate allocates 2.5 chunks of temporaries (see :func:`_ket_chunks`).
    """
    between = joint.shape[0] // 2
    d = 4 * between
    out = np.empty((d, d), dtype=complex)
    o = out.reshape(2, between, 2, 1, 2, between, 2, 1)
    u_bra = u4.reshape(2, 2, 2, 2).conj()
    for ms, rs, ket, work in _ket_chunks(joint.reshape(2, between, 1, 1, 2, between, 1, 1), u4, xi):
        dest = o[:, ms, :, rs].transpose(0, 2, 1, 3, 4, 5, 6, 7)
        targets = [[dest[..., c, :, e, :] for e in range(2)] for c in range(2)]
        _mix_pairs(
            u_bra,
            [[ket[..., p, :, q, :] for q in range(2)] for p in range(2)],
            targets,
            work.reshape(2, *targets[0][0].shape),
        )
    return out


def _gate_and_trace(joint: np.ndarray, u4: np.ndarray, n_qubits: int, k: int) -> np.ndarray:
    """tr_k[U rho U+] with U a two-qubit gate on qubits (0, k), 0 < k <
    n_qubits; the other qubits keep their order.

    The ket side is :func:`_ket_chunks`.  The bra side writes only the
    blocks where qubit k's column bit equals its row bit beta, and sums
    beta = 0, 1 straight into the D/2 x D/2 result: half the arithmetic of
    the whole bra side, and no full-size output.  Besides the result, a
    gate allocates 1.5 chunks of temporaries.
    """
    between, after = 2 ** (k - 1), 2 ** (n_qubits - k - 1)
    d = 2**n_qubits
    out = np.empty((d // 2, d // 2), dtype=complex)
    o = out.reshape(2, between, after, 2, between, after)
    u_bra = u4.reshape(2, 2, 2, 2).conj()
    for ms, rs, ket, work in _ket_chunks(joint.reshape(2, between, 2, after, 2, between, 2, after), u4):
        dest = o[:, ms, rs]
        # a term and its imaginary part, then the beta = 1 sums for c = 0, 1
        spare = work.reshape(4, *dest[:, :, :, 0].shape)
        for beta in range(2):
            _mix_pairs(
                u_bra[:, beta : beta + 1],
                [[ket[:, beta, ..., p, :, q, :] for q in range(2)] for p in range(2)],
                [[dest[:, :, :, c] if beta == 0 else spare[2 + c]] for c in range(2)],
                spare,
            )
        for c in range(2):
            dest[:, :, :, c] += spare[2 + c]
    return out


def run_collisions_joint(
    system_init: DensityOperator,
    spec: ReservoirSpec,
    gate: UnitaryOperator,
) -> tuple[TrajectoryRecord, np.ndarray]:
    """Joint-mode trajectory retaining the full post-collision state.

    Each ancilla is attached inside its gate, with the system as qubit 0
    and collision k on qubit k + 1.  Also returns the final joint state,
    read-only, so callers can check global-entropy conservation and reverse
    the collisions with :func:`reverse_collisions`.
    """
    if system_init.dim != 2:
        raise ValueError("system must be a qubit")
    if gate.dim != 4:
        raise ValueError("gate must act on two qubits")
    joint_dim = 2 ** (spec.count + 1)
    if joint_dim > JOINT_DIM_CAP:
        raise ValueError(f"joint dimension {joint_dim} exceeds the cap {JOINT_DIM_CAP}")
    g = gate.matrix
    joint = system_init.matrix
    xi = spec.ancilla_state.matrix
    states = []
    for k in range(spec.count):
        joint = _attach_and_gate(joint, xi, g)
        states.append(partial_traces(joint[None], 2, 2 ** (k + 1), "S")[0])
    joint.setflags(write=False)
    return _trajectory(system_init, states, xi), joint


def reverse_collisions(
    joint_final: np.ndarray,
    gate: UnitaryOperator,
    order: Sequence[int] | None = None,
) -> np.ndarray:
    """Replay the inverse gate on the retained joint state and return the
    recovered system state, a 2 x 2 matrix; a unitary replay of a valid
    state is a state, so it is not validated again.

    Collision k acted on qubits (0, k + 1) of ``joint_final``, the state
    :func:`run_collisions_joint` returns.  The inverse is applied in the
    given order (default: exact reverse).  Any other order demonstrates how
    bookkeeping, not dynamics, is what makes the machine look irreversible.
    No later gate touches an ancilla once its inverse gate has acted, so it
    is traced out inside that gate: the replay runs at dimensions D, D/2,
    ..., 4, and ``joint_final`` is left intact for another replay.
    """
    joint = np.asarray(joint_final)
    if joint.ndim != 2 or joint.shape[0] != joint.shape[1]:
        raise ValueError(f"joint state must be a square matrix, got shape {joint.shape}")
    d = joint.shape[0]
    if not 4 <= d <= JOINT_DIM_CAP or d & (d - 1):
        raise ValueError(f"joint dimension {d} must be a power of two in [4, {JOINT_DIM_CAP}]")
    if gate.dim != 4:
        raise ValueError("gate must act on two qubits")
    n = d.bit_length() - 2
    if order is None:
        replay = list(range(n - 1, -1, -1))
    else:
        try:
            replay = [operator.index(i) for i in order]
        except TypeError:
            raise ValueError("order entries must be integers") from None
    if sorted(replay) != list(range(n)):
        raise ValueError("order must be a permutation of the collision indices")
    inverse = gate.matrix.conj().T
    # collision indices whose ancilla is still held; index k sits on qubit
    # 1 + held.index(k), since tracing a qubit out keeps the others' order
    held = list(range(n))
    for k in replay:
        n_qubits, qubit = len(held) + 1, held.index(k) + 1
        joint = _gate_and_trace(joint, inverse, n_qubits, qubit)
        held.remove(k)
    return joint


@dataclass(frozen=True)
class ConvergenceReport:
    final_distance: float
    rate: float | None
    residual: float | None
    exact: bool


def convergence_report(trajectory: TrajectoryRecord) -> ConvergenceReport:
    """Least-squares fit of ln(distance) against collision index.

    Distances at or below 1e-14 count as exact convergence and are excluded
    from the fit.
    """
    if len(trajectory.distances_to_ancilla) < 3:
        raise ValueError("need a trajectory of length >= 3 to fit a rate")
    distances = trajectory.distances_to_ancilla
    final = float(distances[-1])
    mask = distances > EXACT_DISTANCE_FLOOR
    if mask.sum() < 2:
        return ConvergenceReport(final_distance=final, rate=None, residual=None, exact=True)
    ks = np.flatnonzero(mask).astype(float)
    logs = np.log(distances[mask])
    slope, intercept = np.polyfit(ks, logs, 1)
    resid = float(np.sqrt(np.mean((slope * ks + intercept - logs) ** 2)))
    return ConvergenceReport(final_distance=final, rate=float(slope), residual=resid, exact=False)
