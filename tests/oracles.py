"""Independent oracles shared by the test modules.

Everything here is deliberately written against plain probability vectors
and small hand-built matrices, never through the library paths it checks.
"""

import math

import numpy as np


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -(p * math.log(p) + (1.0 - p) * math.log(1.0 - p))


def shannon_entropy(probs) -> float:
    return float(-sum(p * math.log(p) for p in probs if p > 0.0))


def kl_divergence(p, q) -> float:
    return float(sum(pi * math.log(pi / qi) for pi, qi in zip(p, q) if pi > 0.0))


def ket(*bits) -> np.ndarray:
    """Computational-basis ket of qubits, e.g. ket(0, 1) = |01>."""
    v = np.array([1.0], dtype=complex)
    for b in bits:
        v = np.kron(v, np.eye(2)[b])
    return v


def projector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


BELL_PHI = (ket(0, 0) + ket(1, 1)) / math.sqrt(2)
PSI_PLUS = (ket(0, 1) + ket(1, 0)) / math.sqrt(2)

CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ],
    dtype=complex,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)

SWAP = np.array(
    [
        [1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
    ],
    dtype=complex,
)


def pair_gate_on_qubits(u4, n_qubits: int, k: int) -> np.ndarray:
    """Dense 2^n matrix of a two-qubit gate on qubits (0, k), qubit 0 the
    most significant: the gate on qubits (0, 1) conjugated by the basis
    permutation that exchanges qubits 1 and k."""
    d = 2**n_qubits
    on_first_two = np.kron(u4, np.eye(d // 4))
    exchange = np.zeros((d, d))
    for i in range(d):
        bits = [(i >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        bits[1], bits[k] = bits[k], bits[1]
        exchange[int("".join(map(str, bits)), 2), i] = 1.0
    return exchange @ on_first_two @ exchange


def replay_then_trace(joint, u4, order) -> np.ndarray:
    """System state after applying u4 on qubits (0, k + 1) for each k in
    order, every gate at the full dimension, then tracing out all ancillas."""
    d = joint.shape[0]
    n_qubits = d.bit_length() - 1
    for k in order:
        g = pair_gate_on_qubits(u4, n_qubits, k + 1)
        joint = g @ joint @ g.conj().T
    return np.trace(joint.reshape(2, d // 2, 2, d // 2), axis1=1, axis2=3)


def pair_gate_einsum(rho, u4, n_qubits: int, k: int) -> np.ndarray:
    """U rho U+ for a two-qubit gate on qubits (0, k) as two np.einsum
    contractions, ket side then bra side: the arithmetic the chunked kernel
    must reproduce bit for bit for the partial swap."""
    between, after = 2 ** (k - 1), 2 ** (n_qubits - k - 1)
    t = rho.reshape(2, between, 2, after, 2, between, 2, after)
    u = u4.reshape(2, 2, 2, 2)
    t = np.einsum("abij,iljrpmqs->albrpmqs", u, t)
    t = np.einsum("cdpq,albrpmqs->albrcmds", u.conj(), t)
    return t.reshape(rho.shape)


def transition_matrix_by_pairs(p_projectors, q_projectors, u) -> np.ndarray:
    """t[n, m] = tr(Q_m U P_n U+), one np.einsum per outcome pair."""
    t = np.empty((len(p_projectors), len(q_projectors)))
    for n, p in enumerate(p_projectors):
        rotated = u @ p @ u.conj().T
        for m, q in enumerate(q_projectors):
            t[n, m] = float(np.real(np.einsum("ij,ji->", q, rotated)))
    return np.clip(t, 0.0, None)
