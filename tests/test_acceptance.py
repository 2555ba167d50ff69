"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Tolerances are pinned here and nowhere else; they match the package's
documented contracts.
"""

import math

import numpy as np
import pytest

from arrowlab.arrow import (
    TWO_QUBITS,
    Alignment,
    classical_correlated_state,
    decorrelating_unitary,
    near_product_state,
    schrodinger_checks,
    search_entropy_decreasing_unitaries,
    state_balances,
)
from arrowlab.cli import main
from arrowlab.collisions import (
    ReservoirSpec,
    convergence_report,
    partial_swap_unitary,
    reverse_collisions,
    run_collisions,
    run_collisions_joint,
)
from arrowlab.core import (
    BipartitionLayout,
    DensityOperator,
    Hamiltonian,
    RandomSource,
    UnitaryOperator,
    gibbs_state,
    haar_unitaries,
    pure_state,
    random_density_operator,
    trace_distances,
)
from arrowlab.fluctuation import (
    ProtocolStack,
    crooks_checks,
    heat_flow_trials,
    jarzynski_checks,
    random_protocols,
)
from oracles import PAULI_X, binary_entropy, ket, mutual_information, trial

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def balance(rho: DensityOperator, layout: BipartitionLayout, u: UnitaryOperator):
    """One state's entropy balance, through the stacked path as a stack of
    one, with its fields as built-in values."""
    return trial(state_balances(rho.matrix[None], rho.spectrum[None], layout, u.matrix[None]), 0)


def report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {index} {status} - {name}{suffix}")


def test_criterion_1_entropy_balance_identity():
    worst_dev, worst_sum, count = 0.0, 0.0, 0
    for dim, trials in ((2, 334), (3, 333), (4, 333)):
        layout = BipartitionLayout(dim, dim)
        root = RandomSource(1000 + dim)
        for k in range(trials):
            src = root.child(k)
            a, b = (random_density_operator(dim, dim, src.child(j)).matrix for j in (0, 1))
            u = UnitaryOperator(haar_unitaries(layout.dim, src.child(2))[0])
            rep = balance(DensityOperator(np.kron(a, b)), layout, u)
            worst_dev = max(worst_dev, abs(rep.sum - rep.mi_final))
            worst_sum = min(worst_sum, rep.sum)
            count += 1
    ok = count == 1000 and worst_dev <= 1e-9 and worst_sum >= -1e-9
    report(1, "entropy balance identity on 1000 product inputs", ok, f"max|sum-I'|={worst_dev:.2e}, min sum={worst_sum:.2e}")
    assert count == 1000
    assert worst_dev <= 1e-9
    assert worst_sum >= -1e-9


def test_criterion_2_near_product_construction():
    u = decorrelating_unitary()
    worst_mi, worst_dev = 0.0, 0.0
    for eps in (0.01, 0.05, 0.1, 0.3):
        rep = balance(near_product_state(eps), TWO_QUBITS, u)
        analytic = -(2.0 * binary_entropy(eps / 2.0) - binary_entropy(eps))
        worst_mi = max(worst_mi, rep.mi_final)
        worst_dev = max(worst_dev, abs(rep.sum - analytic))
    rep_01 = balance(near_product_state(0.1), TWO_QUBITS, u)
    point_ok = abs(rep_01.sum - (-0.0719475133)) <= 1e-9
    ok = worst_mi <= 1e-10 and worst_dev <= 1e-9 and point_ok
    report(2, "near-product decorrelation matches analytic entropy drop", ok, f"max final MI={worst_mi:.2e}, max|sum-analytic|={worst_dev:.2e}")
    assert worst_mi <= 1e-10
    assert worst_dev <= 1e-9
    assert point_ok


def test_criterion_3_optimizer_realizes_entropy_decrease():
    layout = TWO_QUBITS
    root = RandomSource(33)
    states, draws = [], 0
    while len(states) < 100:
        rho = random_density_operator(4, 4, root.child(10**6 + draws))
        draws += 1
        if mutual_information(rho.matrix, layout.dim_s, layout.dim_r) > 0.01:
            states.append(rho)
    # state k searches with root.child(k)
    res = search_entropy_decreasing_unitaries(states, layout, root.children(range(100)))
    negatives = int(np.count_nonzero(res.report.sum < 0.0))

    demo_successes, demo_runs = 0, 0
    feasible_ok = True
    for rho, bound in ((near_product_state(0.1), -0.0719), (classical_correlated_state(), -LN2)):
        res = search_entropy_decreasing_unitaries([rho] * 50, layout, root.children(range(10**7 + demo_runs, 10**7 + demo_runs + 50)))
        demo_runs += 50
        demo_successes += int(np.count_nonzero(res.report.sum < 0.0))
        feasible_ok = feasible_ok and bool(np.all(res.report.sum <= bound + 1e-6))
    ok = negatives >= 95 and demo_successes == 100 and feasible_ok
    report(3, "optimizer decreases local entropy sum", ok, f"random {negatives}/100 negative, demos {demo_successes}/100, feasible bounds {'held' if feasible_ok else 'violated'}")
    assert negatives >= 95
    assert demo_successes == 100
    assert feasible_ok


def test_criterion_4_relative_arrow_violation():
    rep = balance(near_product_state(0.1), TWO_QUBITS, decorrelating_unitary())
    (alignment,) = schrodinger_checks(np.array([rep.schrodinger_product]))
    ok = rep.ds_s < 0.0 < rep.ds_r and alignment is Alignment.ANTI_ALIGNED
    report(4, "near-product construction yields anti-aligned local arrows", ok, f"ds_s={rep.ds_s:.6f}, ds_r={rep.ds_r:.6f}")
    assert rep.ds_s < 0.0
    assert rep.ds_r > 0.0
    assert alignment is Alignment.ANTI_ALIGNED


def test_criterion_5_crooks_and_jarzynski():
    worst_ratio, worst_jarzynski, worst_identity = 0.0, 0.0, 0.0
    root = RandomSource(55)
    stack = random_protocols(TWO_QUBITS, 1.0, root.children(range(100)))
    lhs, rhs = jarzynski_checks(stack)
    for rep in crooks_checks(stack):
        worst_ratio = max(worst_ratio, rep.max_deviation)
        worst_identity = max(worst_identity, abs(rep.entropy_production - rep.average_sigma))
    worst_jarzynski = float(np.max(np.abs(lhs - rhs) / rhs))

    h = np.diag([0.0, 1.0]).astype(complex)
    (flip_report,) = crooks_checks(ProtocolStack.of(h[None], h[None], PAULI_X[None], LN3))
    kl_flip, sigma_flip = flip_report.entropy_production, flip_report.average_sigma
    hand_ok = (
        abs(flip_report.ratio[0, 1] - 3.0) <= 1e-12
        and abs(kl_flip - 0.5 * LN3) <= 1e-12
        and abs(sigma_flip - 0.5 * LN3) <= 1e-12
    )
    ok = worst_ratio <= 1e-9 and worst_jarzynski <= 1e-9 and worst_identity <= 1e-9 and hand_ok
    report(5, "detailed ratio, work average and entropy production identities", ok, f"max devs: ratio {worst_ratio:.2e}, work {worst_jarzynski:.2e}, identity {worst_identity:.2e}")
    assert worst_ratio <= 1e-9
    assert worst_jarzynski <= 1e-9
    assert worst_identity <= 1e-9
    assert hand_ok


def gibbs_weights(evals: np.ndarray, beta: float) -> np.ndarray:
    w = np.exp(-beta * (evals - evals[:, :1]))
    return w / w.sum(axis=-1, keepdims=True)


def test_criterion_6_measurement_symmetry():
    # tr(Q_m U P_n U+) = tr(P_n U+ Q_m U): the forward transition p_f(n, m) / w_n
    # equals the backward one p_b(n, m) / w'_m, which the two-point path
    # computes from U+ on its own
    worst, count = 0.0, 0
    for beta in (1.0, 1e-3):
        stack = random_protocols(TWO_QUBITS, beta, RandomSource(66).children(range(1000)))
        w_initial, w_final = gibbs_weights(stack.evals_initial, beta), gibbs_weights(stack.evals_final, beta)
        for k, rep in enumerate(crooks_checks(stack)):
            assert rep.forward.shape == (4, 4)  # one level per outcome
            forward = rep.forward / w_initial[k][:, None]
            backward = rep.backward / w_final[k][None, :]
            worst = max(worst, float(np.abs(forward - backward).max()))
            count += 1
    ok = count == 2000 and worst <= 1e-12
    report(6, "measurement statistics carry no arrow", ok, f"{count} protocols, max |forward-backward|={worst:.2e}")
    assert count == 2000
    assert worst <= 1e-12


def test_criterion_7_collision_machine():
    xi = gibbs_state(Hamiltonian(np.diag([0.0, 1.0]).astype(complex)), LN3)
    gate = partial_swap_unitary(math.pi / 4.0)

    spec_fit = ReservoirSpec(ancilla_state=xi, count=10)
    record = run_collisions(pure_state(ket(1)), spec_fit, gate)
    fit = convergence_report(record)
    rate_ok = abs(fit.rate - math.log(0.5)) <= 1e-6

    spec_joint = ReservoirSpec(ancilla_state=xi, count=8)
    rho0 = random_density_operator(2, 2, RandomSource(77))
    _, joint_final = run_collisions_joint(rho0, spec_joint, gate)
    recovered = reverse_collisions(joint_final, gate)
    shuffled = reverse_collisions(joint_final, gate, order=[3, 7, 0, 5, 1, 6, 2, 4])
    recover_dist, shuffled_dist = trace_distances(np.stack([recovered, shuffled]), rho0.matrix).tolist()
    ok = rate_ok and recover_dist <= 1e-9 and shuffled_dist > 0.01
    report(7, "collision machine: contraction rate, exact reversal, shuffled failure", ok, f"rate={fit.rate:.8f}, recover={recover_dist:.2e}, shuffled={shuffled_dist:.3f}")
    assert rate_ok
    assert recover_dist <= 1e-9
    assert shuffled_dist > 0.01


def test_criterion_8_heat_flow():
    root = RandomSource(88)
    draws = []
    for k in range(50):
        g = root.child(k).generator()
        beta_hot = g.uniform(0.2, 1.0)
        beta_cold = beta_hot + g.uniform(0.5, 2.0)
        hot_is_s = bool(g.integers(2))
        beta_s, beta_r = (beta_hot, beta_cold) if hot_is_s else (beta_cold, beta_hot)
        draws.append((beta_s, beta_r, g.uniform(0.5, 1.2)))
    beta_s, beta_r, times = map(np.array, zip(*draws))
    rep = heat_flow_trials(beta_s, beta_r, times)
    worst_hot = float(np.where(beta_s < beta_r, rep.du_s, rep.du_r).max())
    worst_clausius = float(rep.balance.sum.min())
    assert np.abs(rep.balance.sum - (rep.balance.ds_s + rep.balance.ds_r)).max() <= 1e-14
    ok = worst_hot <= 0.0 and worst_clausius >= -1e-9
    report(8, "heat flows from hot to cold under energy-conserving exchange", ok, f"max hotter dU={worst_hot:.2e}, min Clausius={worst_clausius:.2e}")
    assert worst_hot <= 0.0
    assert worst_clausius >= -1e-9


def test_criterion_9_cli_determinism(tmp_path):
    commands = (
        ["crooks", "--seed", "7", "--beta", "1.0", "--trials", "10"],
        ["balance", "--trials", "20", "--dims", "2x2", "--seed", "1"],
        ["near-product", "--epsilon", "0.1"],
        ["collide", "--collisions", "6", "--seed", "4"],
        ["search", "--trials", "2", "--seed", "11"],
    )
    ok = True
    for cmd in commands:
        a, b = tmp_path / "a.out", tmp_path / "b.out"
        code_a = main([*cmd, "--out", str(a)])
        code_b = main([*cmd, "--out", str(b)])
        rows_a = [l for l in a.read_text().splitlines() if not l.startswith("#")]
        rows_b = [l for l in b.read_text().splitlines() if not l.startswith("#")]
        ok = ok and code_a == code_b == 0 and rows_a == rows_b and len(rows_a) > 1
    report(9, "repeated CLI runs give byte-identical metric rows", ok)
    assert ok
