"""Independent oracles shared by the test modules.

Everything here is deliberately written against plain probability vectors
and small hand-built matrices, never through the library paths it checks.
"""

import csv
import dataclasses
import io
import itertools
import math
import types

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


def trace_out_qubit(joint, n_qubits: int, k: int) -> np.ndarray:
    """Partial trace over qubit k of a 2^n matrix as one np.einsum; the other
    qubits keep their order."""
    before, after = 2**k, 2 ** (n_qubits - k - 1)
    t = joint.reshape(before, 2, after, before, 2, after)
    return np.einsum("ikjlkm->ijlm", t).reshape(before * after, before * after)


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
# must reproduce them bit for bit.  A product input evolves through its
# factors and takes its initial entropies from their spectra, as in the
# library; ``from_factors=False`` builds the product, evolves it as
# U rho U+ and takes the entropies from the eigvalsh of the product and of
# its marginals instead, the independent path the library's rows must
# agree with to roundoff.

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


def mutual_information(rho, dim_s, dim_r) -> float:
    """S(rho_S) + S(rho_R) - S(rho) in nats of a joint matrix."""
    s_s, s_r, s = _joint_entropies(rho, dim_s, dim_r)
    return s_s + s_r - s


def _factor_entropies(a, b) -> tuple[float, float, float]:
    """(S(a), S(b), S(a (x) b)) from the two factor spectra alone: the
    product's spectrum is every product of one eigenvalue of each, sorted."""
    spec_a, spec_b = np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)
    return _entropy(spec_a), _entropy(spec_b), _entropy(np.sort(np.outer(spec_a, spec_b).ravel()))


def _evolve_factors(a, b, u) -> np.ndarray:
    """U (a (x) b) U+ without the product: U's column index (s, r)
    contracted with a, then with b, each one matmul of the reshaped U."""
    dim_s, dim_r = len(a), len(b)
    d = dim_s * dim_r
    x = u.reshape(d, dim_s, dim_r).swapaxes(1, 2).reshape(d * dim_r, dim_s) @ a
    x = x.reshape(d, dim_r, dim_s).swapaxes(1, 2).reshape(d * dim_s, dim_r) @ b
    return x.reshape(d, d) @ u.conj().T


def _product_balance(a, b, u, from_factors) -> tuple[np.ndarray, tuple[float, float, float, float]]:
    """(final, (ds_s, ds_r, mi_initial, mi_final)) of a (x) b under u: the
    input evolved and its initial entropies taken through the factors, or
    with ``from_factors`` False the product built, evolved as U rho U+ and
    its entropies from the eigvalsh of the product and of its marginals."""
    dim_s, dim_r = len(a), len(b)
    if from_factors:
        final, initial = _evolve_factors(a, b, u), _factor_entropies(a, b)
    else:
        rho = np.kron(a, b)
        final, initial = u @ rho @ u.conj().T, _joint_entropies(rho, dim_s, dim_r)
    return final, _balance(final, initial, dim_s, dim_r)


def _balance(final, initial, dim_s, dim_r) -> tuple[float, float, float, float]:
    """(ds_s, ds_r, mi_initial, mi_final) of an evolved state, given the
    initial entropies (S(rho_S), S(rho_R), S(rho))."""
    s_s0, s_r0, s0 = initial
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
    delta_f = -(log_z_f - log_z_i) / beta
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
    evals_total, evecs_total = np.linalg.eigh(h_s + h_r + exchange)

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
        a, b = gibbs(beta_s), gibbs(beta_r)
        final, (ds_s, ds_r, _, _) = _product_balance(a, b, u, from_factors)
        # the initial energies of the factors, or of the product built
        if from_factors:
            initial_s, initial_r = energy(h_local, a), energy(h_local, b)
        else:
            rho = np.kron(a, b)
            initial_s, initial_r = energy(h_s, rho), energy(h_r, rho)
        du_s = energy(h_s, final) - initial_s
        du_r = energy(h_r, final) - initial_r
        hotter = "S" if beta_s < beta_r else "R"
        rows.append((k, beta_s, beta_r, hotter, du_s, du_r, ds_s, ds_r, du_s / ds_s, du_r / ds_r, ds_s + ds_r))
    return rows


# ---------------------------------------------------------------------------
# single-state references for the restacked paths
# ---------------------------------------------------------------------------
# The one-state forms the library used to compute collide's trajectory,
# damping's heats, the sweep and the near-product and decorrelate reports
# with: S(rho), the trace distance, the damping heat and the balance of a
# correlated state, one matrix per numpy call.  The stacked paths must
# reproduce them bit for bit.


def von_neumann_entropy(rho) -> float:
    """S(rho) in nats from rho's own eigvalsh, with 0 ln 0 := 0."""
    return _entropy(np.linalg.eigvalsh(rho))


def trace_distance(rho, sigma) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    return 0.5 * float(np.abs(np.linalg.eigvalsh(rho - sigma)).sum())


def damping_heat(rho, h, beta) -> float:
    """max(beta tr(rho H) + ln Z - S(rho), 0): the heat of damping rho into
    a bath thermal on h."""
    energy = float(np.real(np.einsum("ij,ji->", rho, h)))
    return max(beta * energy + _log_partition(np.linalg.eigh(h)[0], beta) - von_neumann_entropy(rho), 0.0)


def entropy_balance(rho, u, dim_s, dim_r) -> tuple[float, float, float, float]:
    """(ds_s, ds_r, mi_initial, mi_final) of rho under u, the initial
    entropies from rho's own decompositions."""
    return _balance(u @ rho @ u.conj().T, _joint_entropies(rho, dim_s, dim_r), dim_s, dim_r)


def collision_trajectory(rho0, xi, gate, count, joint=False) -> tuple[np.ndarray, list, list]:
    """(states, entropies, distances to xi) of the collision machine, one
    step and one state at a time.  Reduced mode evolves the 2 x 2 pair;
    ``joint`` keeps the joint state and gates each attached ancilla as two
    np.einsum contractions."""
    states, state = [rho0], rho0
    for k in range(count):
        if joint:
            state = pair_gate_einsum(np.kron(state, xi), gate, k + 2, k + 1)
        else:
            state = gate @ np.kron(states[-1], xi) @ gate.conj().T
        m = len(state) // 2
        states.append(np.einsum("ikjk->ij", state.reshape(2, m, 2, m)))
    return np.array(states), [von_neumann_entropy(s) for s in states], [trace_distance(s, xi) for s in states]


def damping_rows(trials, beta, root) -> list[tuple]:
    """run_damping's rows, one state and one heat at a time."""
    h = np.diag([0.0, 1.0]).astype(complex)
    evals, evecs = np.linalg.eigh(h)

    def gibbs(b):
        w = np.exp(-b * (evals - evals.min()))
        return (evecs * (w / w.sum())) @ evecs.conj().T

    named = [("thermal", gibbs(beta)), ("maximally-mixed", gibbs(0.0)), ("excited", projector(ket(1)))]
    named += [("random", _random_density(2, root.child(k))) for k in range(trials)]
    return [(k, kind, damping_heat(rho, h, beta)) for k, (kind, rho) in enumerate(named)]


def near_product_matrix(eps) -> np.ndarray:
    """(1 - eps)|00><00| + eps |psi+><psi+|."""
    return (1.0 - eps) * np.outer(ket(0, 0), ket(0, 0)) + eps * np.outer(PSI_PLUS, PSI_PLUS)


# |00> and |11> fixed, the triplet (|01> + |10>)/sqrt(2) to |01> and the
# singlet (|01> - |10>)/sqrt(2) to |10>
DECORRELATOR = (
    np.outer(ket(0, 0), ket(0, 0).conj())
    + np.outer(ket(0, 1), PSI_PLUS.conj())
    + np.outer(ket(1, 0), ((ket(0, 1) - ket(1, 0)) / math.sqrt(2)).conj())
    + np.outer(ket(1, 1), ket(1, 1).conj())
)


def near_product_row(eps) -> tuple:
    """run_near_product's row: the near-product state under DECORRELATOR."""
    ds_s, ds_r, mi_initial, mi_final = entropy_balance(near_product_matrix(eps), DECORRELATOR, 2, 2)
    total = ds_s + ds_r
    analytic = -(2.0 * binary_entropy(eps / 2.0) - binary_entropy(eps))
    return (eps, ds_s, ds_r, total, mi_initial, mi_final, analytic, abs(total - analytic))


def decorrelate_row() -> tuple:
    """run_decorrelate's row: (|00><00| + |11><11|)/2 under the controlled
    flip that maps |11> to |10>."""
    rho = 0.5 * np.outer(ket(0, 0), ket(0, 0)) + 0.5 * np.outer(ket(1, 1), ket(1, 1))
    flip = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    ds_s, ds_r, mi_initial, mi_final = entropy_balance(rho, flip, 2, 2)
    return (ds_s, ds_r, ds_s + ds_r, mi_initial, mi_final)


def sweep_sums(g_values, eps_values, t_values, gap_s, gap_r) -> np.ndarray:
    """run_sweep's (n_g, n_eps, n_t) entropy sums, one Hamiltonian per
    coupling and one unitary and one balance per cell."""
    h_local = np.kron(np.diag([0.0, gap_s]).astype(complex), np.eye(2)) + np.kron(np.eye(2), np.diag([0.0, gap_r]).astype(complex))
    sums = np.empty((len(g_values), len(eps_values), len(t_values)))
    for i, g in enumerate(g_values):
        evals, evecs = np.linalg.eigh(h_local + g * SWAP)
        for j, eps in enumerate(eps_values):
            for k, t in enumerate(t_values):
                u = (evecs * np.exp(-1j * (t * evals))) @ evecs.conj().T
                ds_s, ds_r, _, _ = entropy_balance(near_product_matrix(eps), u, 2, 2)
                sums[i, j, k] = ds_s + ds_r
    return sums


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


# ---------------------------------------------------------------------------
# the search's descent probes, one at a time
# ---------------------------------------------------------------------------
# The kicked Riemannian conjugate-gradient descent one probe at a time, one
# 2-D matrix per numpy call.  The search's lockstep stack must reproduce
# each probe's unitary, sums and convergence bit for bit.

PROBE_CONVERGENCE_TOL = 1e-12
ARMIJO_FRACTION = 0.5
ARMIJO_HALVINGS = 60
LOG_FLOOR = 1e-300


def probe_objective(final, dim_s, dim_r):
    """S(rho_S) + S(rho_R) of a joint matrix, with 0 ln 0 := 0, and the
    ``eigh`` of both marginals."""
    t = final.reshape(dim_s, dim_r, dim_s, dim_r)
    eigensystems = [np.linalg.eigh(np.einsum(spec, t)) for spec in ("ikjk->ij", "kikj->ij")]
    total = 0.0
    for p, _ in eigensystems:
        p = p[p > 0.0]
        total -= float(p @ np.log(p))
    return total, eigensystems


def inner(a, b) -> float:
    """<A, B> = Re tr(A+ B)."""
    return float(np.sum(a.real * b.real + a.imag * b.imag))


def descend_probe(rho, dim_s, dim_r, u, s_local0, max_iterations, tries=None):
    """(unitary, sums, converged) of one Armijo-backtracked Riemannian
    conjugate gradient U <- exp(-mu H) U from u, with C = [rho', ln rho'_S
    (x) I + I (x) ln rho'_R] and the Polak-Ribiere+ direction
    H = C + max(0, <C - C_prev, C> / <C_prev, C_prev>) H_prev, restarted as
    H = C on the first step, when <C_prev, C_prev> = 0 or when <H, C> <= 0.
    A list passed as ``tries`` gets how many step sizes each step tried, the
    last one accepted unless the probe stopped there without a step."""
    tries = [] if tries is None else tries
    final = u @ rho @ u.conj().T
    value, eigensystems = probe_objective(final, dim_s, dim_r)
    sums = [value - s_local0]
    eye_s, eye_r = np.eye(dim_s), np.eye(dim_r)
    mu = 1.0
    c_prev = h_prev = None
    for _ in range(max_iterations):
        log_s, log_r = ((v * np.log(np.clip(lam, LOG_FLOOR, None))) @ v.conj().T for lam, v in eigensystems)
        log_sum = log_s[:, None, :, None] * eye_r[None, :, None, :] + eye_s[:, None, :, None] * log_r[None, :, None, :]
        log_sum = log_sum.reshape(dim_s * dim_r, dim_s * dim_r)
        c = final @ log_sum - log_sum @ final
        h = c
        if c_prev is not None and inner(c_prev, c_prev) != 0.0:
            gamma = max(0.0, inner(c - c_prev, c) / inner(c_prev, c_prev))
            h = c + gamma * h_prev
            if inner(h, c) <= 0.0:
                h = c
        slope = inner(c, h)
        lam, v = np.linalg.eigh(1j * h)
        mu *= 2.0
        for tried in range(1, ARMIJO_HALVINGS + 1):
            u_new = ((v * np.exp(1j * mu * lam)) @ v.conj().T) @ u
            final_new = u_new @ rho @ u_new.conj().T
            value_new, eigensystems_new = probe_objective(final_new, dim_s, dim_r)
            if value - value_new >= ARMIJO_FRACTION * mu * slope:
                break
            mu *= 0.5
        else:  # no step lowers the sum measurably
            tries.append(ARMIJO_HALVINGS)
            return u, tuple(sums), True
        tries.append(tried)
        decrease = value - value_new
        u, final, value, eigensystems = u_new, final_new, value_new, eigensystems_new
        c_prev, h_prev = c, h
        sums.append(value - s_local0)
        if decrease < PROBE_CONVERGENCE_TOL:
            return u, tuple(sums), True
    return u, tuple(sums), False


def search_probes(rho, dim_s, dim_r, starts, max_iterations, tries=None) -> list[tuple]:
    """(unitary, sums, converged) of a descent from each start on rho, one
    probe after the other.  A list passed as ``tries`` gets one list per
    probe, filled as :func:`descend_probe` fills it."""
    s_local0, _ = probe_objective(rho, dim_s, dim_r)
    own = [[] for _ in starts]
    if tries is not None:
        tries += own
    return [descend_probe(rho, dim_s, dim_r, u, s_local0, max_iterations, t) for u, t in zip(starts, own)]


def random_states_one_at_a_time(trials, min_mi, root, max_rejected, dim_s=2, dim_r=2):
    """The search's random inputs drawn and scored one at a time: trial k's
    state is the first full-rank draw after trial k - 1's whose mutual
    information exceeds ``min_mi``, draw i from ``root.child(10**6 + i)``.
    Returns (the accepted matrices, None), or, once a trial rejects
    ``max_rejected`` draws, (the matrices accepted before it, the largest
    mutual information that trial drew)."""
    states, drawn = [], 0
    for _ in range(trials):
        largest = -math.inf
        for _ in range(max_rejected):
            rho = _random_density(dim_s * dim_r, root.child(10**6 + drawn))
            drawn += 1
            s_s, s_r, s = _joint_entropies(rho, dim_s, dim_r)
            information = s_s + s_r - s
            if information > min_mi:
                break
            largest = max(largest, information)
        else:
            return states, largest
        states.append(rho)
    return states, None


# ---------------------------------------------------------------------------
# CSV written cell by cell
# ---------------------------------------------------------------------------


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def rows(name: str, columns: dict) -> list:
    """The columns a run of experiment ``name`` returns, as rows of
    built-in values in the record's column order: the rows it writes."""
    from arrowlab import experiments

    return list(zip(*(columns[column].tolist() for column in experiments.EXPERIMENTS[name].columns)))


def trial(report, k: int) -> types.SimpleNamespace:
    """Trial k of a stacked report: its fields as built-in values, read as
    attributes and compared field by field."""
    return types.SimpleNamespace(**{f.name: getattr(report, f.name)[k].item() for f in dataclasses.fields(report)})


def rows_in_bits(columns: dict, rows: list) -> list:
    """Rows in bits: each cell of a column with power p of nats divided by
    (ln 2)^p, one cell at a time."""
    scale = [math.log(2.0) ** power if power else None for power in columns.values()]
    return [tuple(v if s is None else v / s for v, s in zip(row, scale)) for row in rows]


def csv_per_cell(record, rows) -> str:
    """The CSV text of a result record with ``rows`` as its rows, each row
    formatted cell by cell and written through ``csv.writer``."""
    from arrowlab import cli

    buf = io.StringIO()
    for key, value in cli._metadata(record).items():
        buf.write(f"# {key}={_format_cell(value)}\n")
    for key, value in cli.numerics_env().items():
        buf.write(f"# env.{key}={_format_cell(value)}\n")
    for param in cli._schema(record.experiment):
        buf.write(f"# config.{param.key}={cli._config_text(param, record.config[param.key])}\n")
    for key, value in record.extra.items():
        buf.write(f"# extra.{key}={_format_cell(value)}\n")
    for name, summary in record.invariants.items():
        for key, value in summary.items():
            buf.write(f"# invariant.{name}.{key}={_format_cell(value)}\n")
    buf.write(f"# invariant_failures={len(record.invariant_failures)}\n")
    for i, failure in enumerate(record.invariant_failures):
        buf.write(f"# failure.{i}={failure}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(record.columns)
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()
