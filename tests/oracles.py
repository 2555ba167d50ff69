"""Independent oracles shared by the test modules.

Everything here is deliberately written against plain probability vectors
and small hand-built matrices, never through the library paths it checks.
"""

import itertools
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


# ---------------------------------------------------------------------------
# per-trial references for the trial-batched experiments
# ---------------------------------------------------------------------------
# The rows of run_balance, run_schrodinger, run_crooks, run_jarzynski and
# run_heatflow as computed one trial at a time, one matrix per numpy call,
# with the arithmetic of every library call written out.  The stacked runs
# must reproduce them bit for bit.  A product input's initial entropies
# come from its factor spectra, as in the library; ``from_factors=False``
# takes them from the eigvalsh of the product and of its marginals instead,
# the independent path the library's rows must agree with to roundoff.

ALIGNMENT_TOL = 1e-10
CLUSTER_GAP_TOL = 1e-9
PROBABILITY_FLOOR = 1e-15


def _ginibre(g, rows, cols) -> np.ndarray:
    return g.standard_normal((rows, cols)) + 1j * g.standard_normal((rows, cols))


def _random_density(dim, src) -> np.ndarray:
    z = _ginibre(src.generator(), dim, dim) / np.sqrt(2.0)
    m = z @ z.conj().T
    return m / m.trace().real


def _haar(dim, src) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(src.generator(), dim, dim) / np.sqrt(2.0))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _entropy(eigs) -> float:
    lam = np.clip(eigs, 0.0, None)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam)))


def _marginal_entropies(m, dim_s, dim_r) -> tuple[float, float]:
    t = m.reshape(dim_s, dim_r, dim_s, dim_r)
    return (
        _entropy(np.linalg.eigvalsh(np.einsum("ikjk->ij", t))),
        _entropy(np.linalg.eigvalsh(np.einsum("kikj->ij", t))),
    )


def _joint_entropies(rho, dim_s, dim_r) -> tuple[float, float, float]:
    """(S(rho_S), S(rho_R), S(rho)) of a joint matrix, each from its own
    eigvalsh."""
    return (*_marginal_entropies(rho, dim_s, dim_r), _entropy(np.linalg.eigvalsh(rho)))


def _factor_entropies(a, b) -> tuple[float, float, float]:
    """(S(a), S(b), S(a (x) b)) from the two factor spectra alone: the
    product's spectrum is every product of one eigenvalue of each, sorted."""
    spec_a, spec_b = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    return _entropy(spec_a), _entropy(spec_b), _entropy(np.sort(np.outer(spec_a, spec_b).ravel()))


def _product_balance(a, b, u, from_factors) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    """(rho, (ds_s, ds_r, mi_initial, mi_final)) of rho = a (x) b under u;
    the initial entropies from the factor spectra, or with ``from_factors``
    False from the eigvalsh of the product and of its two marginals."""
    dim_s, dim_r = len(a), len(b)
    rho = np.kron(a, b)
    initial = _factor_entropies(a, b) if from_factors else _joint_entropies(rho, dim_s, dim_r)
    return rho, _balance(rho, initial, u, dim_s, dim_r)


def _balance(rho, initial, u, dim_s, dim_r) -> tuple[float, float, float, float]:
    """(ds_s, ds_r, mi_initial, mi_final) of rho under u, given the initial
    entropies (S(rho_S), S(rho_R), S(rho))."""
    s_s0, s_r0, s0 = initial
    final = u @ rho @ u.conj().T
    s_s1, s_r1 = _marginal_entropies(final, dim_s, dim_r)
    s1 = _entropy(np.linalg.eigvalsh(final))
    return s_s1 - s_s0, s_r1 - s_r0, s_s0 + s_r0 - s0, s_s1 + s_r1 - s1


def _alignment(product) -> str:
    if product > ALIGNMENT_TOL:
        return "aligned"
    return "anti-aligned" if product < -ALIGNMENT_TOL else "degenerate"


def _product_trial(dim_s, dim_r, src, from_factors):
    a, b = _random_density(dim_s, src.child(0)), _random_density(dim_r, src.child(1))
    return _product_balance(a, b, _haar(dim_s * dim_r, src.child(2)), from_factors)[1]


def balance_rows(trials, dim_s, dim_r, root, from_factors=True) -> list[tuple]:
    rows = []
    for k in range(trials):
        ds_s, ds_r, mi_initial, mi_final = _product_trial(dim_s, dim_r, root.child(k), from_factors)
        total = ds_s + ds_r
        rows.append((k, ds_s, ds_r, total, mi_initial, mi_final, abs(total - mi_final), _alignment(ds_s * ds_r)))
    return rows


def schrodinger_rows(trials, dim_s, dim_r, root, from_factors=True) -> list[tuple]:
    rows = []
    for k in range(trials):
        ds_s, ds_r, _, _ = _product_trial(dim_s, dim_r, root.child(k), from_factors)
        rows.append((k, ds_s, ds_r, ds_s * ds_r, _alignment(ds_s * ds_r), ds_s + ds_r))
    return rows


def _random_hamiltonian(dim, src):
    z = _ginibre(src.generator(), dim, dim)
    return np.linalg.eigh((z + z.conj().T) / 2.0)


def _clusters(evals) -> list[list[int]]:
    clusters = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[clusters[-1][-1]] <= CLUSTER_GAP_TOL:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _cluster_transitions(v_from, v_to, u, c_from, c_to) -> np.ndarray:
    """t[n, m] = sum of |<to_j| U |from_i>|^2 over the levels i of cluster
    n of c_from and j of cluster m of c_to."""
    a = v_to.conj().T @ u @ v_from
    levels = (a.real**2 + a.imag**2).T
    return np.array([[levels[np.ix_(n, m)].sum() for m in c_to] for n in c_from])


def _log_partition(evals, beta) -> float:
    a = -beta * evals
    a_max = a.max()
    top = a == a_max
    count = np.count_nonzero(top)
    rest = np.exp(np.where(top, -np.inf, a) - a_max).sum() / count
    return float(np.log1p(rest) + np.log(count) + a_max)


def two_point(layout, beta, src):
    """(p_f, p_b, W, dF) of the random protocol drawn from src."""
    evals_i, evecs_i = _random_hamiltonian(layout.dim, src.child(0))
    evals_f, evecs_f = _random_hamiltonian(layout.dim, src.child(1))
    u = _haar(layout.dim, src.child(2))
    c_i, c_f = _clusters(evals_i), _clusters(evals_f)
    e_i = np.array([float(np.mean(evals_i[members])) for members in c_i])
    e_f = np.array([float(np.mean(evals_f[members])) for members in c_f])
    log_z_i, log_z_f = _log_partition(evals_i, beta), _log_partition(evals_f, beta)
    pf = np.exp(-beta * e_i - log_z_i)[:, None] * _cluster_transitions(evecs_i, evecs_f, u, c_i, c_f)
    # the backward transitions from U+ on their own, indexed (n, m) like p_f
    t_b = _cluster_transitions(evecs_f, evecs_i, u.conj().T, c_f, c_i).T
    pb = t_b * np.exp(-beta * e_f - log_z_f)[None, :]
    delta_f = -log_z_f / beta - -log_z_i / beta
    return pf, pb, e_f[None, :] - e_i[:, None], delta_f


def crooks_rows(trials, beta, layout, root) -> list[tuple]:
    rows = []
    for k in range(trials):
        pf, pb, w, delta_f = two_point(layout, beta, root.child(k))
        supported = pb > PROBABILITY_FLOOR
        ratio = np.full_like(pf, np.nan)
        ratio[supported] = pf[supported] / pb[supported]
        predicted = np.where(supported, np.exp(beta * (w - delta_f)), np.nan)
        deviation = np.abs(ratio - predicted) / predicted
        finite = deviation[np.isfinite(deviation)]
        lhs = float(np.sum(pf * np.exp(-beta * w)))
        rhs = float(np.exp(-beta * delta_f))
        on = pf > PROBABILITY_FLOOR
        kl = float(np.sum(pf[on] * np.log(pf[on] / pb[on])))
        avg = float(np.sum(pf[on] * (beta * (w - delta_f))[on]))
        max_deviation = float(finite.max()) if finite.size else 0.0
        rows.append((k, delta_f, max_deviation, lhs, rhs, abs(lhs - rhs) / rhs, kl, avg, abs(kl - avg)))
    return rows


def jarzynski_rows(trials, beta, layout, root) -> list[tuple]:
    rows = []
    for k in range(trials):
        pf, _, w, delta_f = two_point(layout, beta, root.child(k))
        lhs = float(np.sum(pf * np.exp(-beta * w)))
        rhs = float(np.exp(-beta * delta_f))
        rows.append((k, lhs, rhs, abs(lhs - rhs) / rhs))
    return rows


def heatflow_rows(trials, root, from_factors=True) -> list[tuple]:
    rows = []
    h_local = np.diag([0.0, 1.0]).astype(complex)
    evals, evecs = np.linalg.eigh(h_local)
    h_s, h_r = np.kron(h_local, np.eye(2)), np.kron(np.eye(2), h_local)
    exchange = np.zeros((4, 4), dtype=complex)
    exchange[1, 2] = exchange[2, 1] = 1.0
    evals_total, evecs_total = np.linalg.eigh(h_s + h_r + 1.0 * exchange)

    def gibbs(beta):
        w = np.exp(-beta * (evals - evals.min()))
        return (evecs * (w / w.sum())) @ evecs.conj().T

    def energy(h, m):
        return float(np.real(np.einsum("ij,ji->", h, m)))

    for k in range(trials):
        g = root.child(k).generator()
        beta_hot = g.uniform(0.2, 1.0)
        beta_cold = beta_hot + g.uniform(0.5, 2.0)
        beta_s, beta_r = (beta_hot, beta_cold) if bool(g.integers(2)) else (beta_cold, beta_hot)
        t = g.uniform(0.5, 1.2)
        u = (evecs_total * np.exp(-1j * (evals_total * t))) @ evecs_total.conj().T
        rho, (ds_s, ds_r, _, _) = _product_balance(gibbs(beta_s), gibbs(beta_r), u, from_factors)
        final = u @ rho @ u.conj().T
        du_s = energy(h_s, final) - energy(h_s, rho)
        du_r = energy(h_r, final) - energy(h_r, rho)
        hotter = "S" if beta_s < beta_r else "R"
        rows.append((k, beta_s, beta_r, hotter, du_s, du_r, ds_s, ds_r, du_s / ds_s, du_r / ds_r, ds_s + ds_r))
    return rows


def spectral_assignment_per_cell(matrix, dim_s: int, dim_r: int) -> np.ndarray:
    """The search's spectral-assignment unitary, each placement of the
    descending spectrum scored on its own: every permutation of the cells up
    to 8 cells, above that the staircase that fills low s + r shells first.
    A later placement wins only by more than 1e-15."""
    dim = dim_s * dim_r
    lam, v = np.linalg.eigh(matrix)
    order = np.argsort(lam)[::-1]
    lam = np.clip(lam[order], 0.0, None)
    vecs = v[:, order]
    if dim <= 8:
        candidates = itertools.permutations(range(dim))
    else:
        candidates = [tuple(sorted(range(dim), key=lambda i: (sum(divmod(i, dim_r)), i)))]
    best_cells, best_val = None, np.inf
    for cells in candidates:
        p_s = np.zeros(dim_s)
        p_r = np.zeros(dim_r)
        for weight, cell in zip(lam, cells):
            s, r = divmod(cell, dim_r)
            p_s[s] += weight
            p_r[r] += weight
        val = -np.sum(p_s[p_s > 0] * np.log(p_s[p_s > 0])) - np.sum(p_r[p_r > 0] * np.log(p_r[p_r > 0]))
        if val < best_val - 1e-15:
            best_val, best_cells = val, cells
    u = np.zeros((dim, dim), dtype=complex)
    for i, cell in enumerate(best_cells):
        u[cell, :] = vecs[:, i].conj()
    return u


def unit_hermitian(dim: int, src) -> np.ndarray:
    """H / ||H||_F with H = A + A+, A a dim x dim complex Gaussian matrix
    drawn from src."""
    g = src.generator()
    a = g.standard_normal((dim, dim)) + 1j * g.standard_normal((dim, dim))
    h = a + a.conj().T
    return h / np.linalg.norm(h)
