"""End-to-end acceptance checks.

Each test pins one externally stated guarantee: optimal values against
closed forms, algebraic identities of the link product and Choi
transfer, causality verification on random networks, symmetry of the
figure-of-merit operators, Monte-Carlo consistency of reported
fidelities, outcome-register recovery, and agreement with brute-force
channel search.  Run with -v to get one pass/fail line per guarantee.
"""

import itertools
from functools import reduce

import numpy as np
import pytest

from qcombs import (
    CombStructure,
    KrausMap,
    LabeledOperator,
    PerformanceOperator,
    ProbabilisticComb,
    SdpProblem,
    Wire,
    apply_choi,
    choi_to_kraus,
    cloning_objective,
    dual_bound,
    kraus_to_choi,
    learning_objective,
    link_product,
    max_entangled,
    random_comb,
    register_comb,
    solve,
    verify_causality,
)

from conftest import (
    brute_force_channel_value,
    cloning_conjugation,
    conjugated,
    learning_conjugation,
    learning_memory,
    mc_gate_fidelity,
    rand_hermitian,
    rand_kraus,
    sample_sequential_network,
    stinespring_value,
)

from qcombs.haar import haar_unitary


@pytest.fixture(scope="module")
def one_to_two_cloning():
    p = SdpProblem(cloning_objective(1, 2, 2), cloning_objective(1, 2, 2).structure)
    return p, solve(p)


def test_one_to_two_cloning_fidelity(one_to_two_cloning):
    p, sol = one_to_two_cloning
    target = (2 + np.sqrt(3)) / 8
    assert sol.converged
    assert sol.value == pytest.approx(target, abs=1e-3)
    assert sol.feas_residual <= 1e-6


def test_cloning_beats_measure_and_prepare(one_to_two_cloning):
    _, sol = one_to_two_cloning
    assert sol.value > 5 / 16


def test_one_use_learning_fidelity():
    po = learning_objective(1, 2)
    sol = solve(SdpProblem(po, po.structure))
    assert sol.converged
    assert sol.value == pytest.approx(0.5, abs=1e-3)


def test_two_use_learning_reference_value():
    po = learning_objective(2, 2)
    p = SdpProblem(po, po.structure)
    sol = solve(p)
    assert sol.converged
    target = 3 / 4
    if abs(sol.value - target) > 1e-3:
        bound = dual_bound(p, sol)
        actual = (3 + np.sqrt(5)) / 8
        pytest.fail(
            f"two-use qubit learning reached {sol.value:.9f}, not the "
            f"quoted 3/d^2 = {target}; the verified dual bound "
            f"{bound:.9f} certifies no strategy exceeds it, and the "
            f"value agrees with (3 + sqrt(5))/8 = {actual:.9f} to "
            f"{abs(sol.value - actual):.1e}.  The quoted constant holds "
            f"for d >= 3 but not for qubits."
        )


def test_qutrit_cloning_fidelity():
    po = cloning_objective(1, 2, 3)
    p = SdpProblem(po, po.structure, tol_gap=1e-4, max_iters=6000)
    sol = solve(p)
    target = (3 + np.sqrt(8)) / 27
    assert sol.converged, f"no certified gap after {sol.iterations} iterations"
    assert sol.value == pytest.approx(target, abs=5e-3)
    assert sol.feas_residual <= 1e-6


def _random_overlapping_pair(rng):
    labels = list("abcdef")
    rng.shuffle(labels)
    n_a = int(rng.integers(1, 4))
    n_shared = int(rng.integers(0, n_a + 1))
    n_b = n_shared + int(rng.integers(0 if n_shared else 1, 3))
    dims = {lbl: int(rng.integers(2, 4)) for lbl in labels}
    a_labels = labels[:n_a]
    b_labels = labels[n_a - n_shared : n_a - n_shared + n_b]
    rng.shuffle(b_labels)

    def rand_op(lbls):
        ws = tuple(Wire(l, dims[l]) for l in lbls)
        d = int(np.prod([w.dim for w in ws]))
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        return LabeledOperator(ws, m)

    return rand_op(a_labels), rand_op(b_labels)


def test_link_product_commutes():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        a, b = _random_overlapping_pair(rng)
        ab = link_product(a, b)
        ba = link_product(b, a).permuted(ab.labels)
        scale = max(1.0, ab.norm(), ba.norm())
        worst = max(worst, (ab - ba).norm() / scale)
    assert worst <= 1e-11


def test_network_assembly_order_independent():
    rng = np.random.default_rng(77)
    for _ in range(10):
        dims = [int(rng.integers(2, 4)) for _ in range(4)]
        labels = ["p", "q", "r", "s"]
        wires = [Wire(l, d) for l, d in zip(labels, dims)]

        def rand_op(ws):
            d = int(np.prod([w.dim for w in ws]))
            m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            return LabeledOperator(tuple(ws), m)

        ops = [
            rand_op(wires[:2]),
            rand_op(wires[1:3]),
            rand_op(wires[2:]),
        ]
        results = []
        for perm in itertools.permutations(ops):
            out = reduce(link_product, perm)
            results.append(out.permuted(("p", "s")).matrix)
        for other in results[1:]:
            assert np.linalg.norm(other - results[0]) <= 1e-10


def test_choi_transfer_matches_kraus_action():
    rng = np.random.default_rng(33)
    for _ in range(200):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        rank = int(rng.integers(1, 4))
        rank = max(rank, -(-d_in // d_out))
        ks = rand_kraus(d_in, d_out, rank, rng)
        kmap = KrausMap(Wire("in", d_in), Wire("out", d_out), ks)
        choi = kraus_to_choi(kmap)
        h = rand_hermitian(d_in, rng)
        rho = h @ h.conj().T
        rho /= np.trace(rho).real
        direct = sum(k @ rho @ k.conj().T for k in ks)
        assert np.linalg.norm(apply_choi(choi, rho) - direct) <= 1e-10


def test_kraus_extraction_roundtrip():
    rng = np.random.default_rng(34)
    for _ in range(200):
        d_in = int(rng.integers(2, 4))
        d_out = int(rng.integers(2, 4))
        rank = int(rng.integers(1, 4))
        rank = max(rank, -(-d_in // d_out))
        ks = rand_kraus(d_in, d_out, rank, rng)
        kmap = KrausMap(Wire("in", d_in), Wire("out", d_out), ks)
        choi = kraus_to_choi(kmap)
        back = kraus_to_choi(choi_to_kraus(choi))
        assert (back.op - choi.op).norm() <= 1e-10


def test_random_networks_satisfy_causality():
    rng = np.random.default_rng(99)
    for _ in range(100):
        comb = sample_sequential_network(rng)
        report = comb.verify(tol=1e-10)
        assert report.passed, str(report)


def test_backwards_signaling_is_rejected():
    v1 = max_entangled((Wire("1", 2), Wire("2", 2)))
    v2 = max_entangled((Wire("3", 2), Wire("0", 2)))
    op = v1.outer().tensor(v2.outer()).permuted(("0", "1", "2", "3"))
    structure = CombStructure.standard([2, 2, 2, 2])
    report = verify_causality(op, structure)
    assert not report.passed
    assert max(report.residuals) > 0.4


def test_objectives_are_twirl_invariant():
    rng = np.random.default_rng(123)
    cases = []
    for n, m, d in [(1, 1, 2), (1, 2, 2), (2, 1, 2), (1, 2, 3)]:
        po = cloning_objective(n, m, d)
        cases.append((po, lambda U, po=po, n=n, m=m: cloning_conjugation(po.omega, U, n, m), d))
    for n, d in [(1, 2), (2, 2)]:
        po = learning_objective(n, d)
        cases.append((po, lambda U, po=po, n=n: learning_conjugation(po.omega, U, n), d))
    for po, conj, d in cases:
        om = po.omega
        worst = 0.0
        for _ in range(100):
            w = conj(haar_unitary(d, rng))
            moved = conjugated(w, om)
            worst = max(worst, (moved - om).norm())
        assert worst <= 1e-9, f"symmetry violated by {worst:.2e}"


def test_objective_value_predicts_monte_carlo_fidelity():
    rng = np.random.default_rng(555)
    checked = 0
    for i in range(20):
        n_uses = 1 if i < 12 else 2
        po = learning_objective(n_uses, 2)
        comb = random_comb(
            po.structure, learning_memory(n_uses), seed=int(rng.integers(2**31))
        )
        exact = po.value(comb.op)
        est, err = mc_gate_fidelity(
            comb, n_uses, 2, n_samples=10_000, seed=1000 + i
        )
        assert abs(est - exact) <= 3 * err + 1e-12, (
            f"comb {i}: exact {exact:.6f}, sampled {est:.6f} +- {err:.6f}"
        )
        checked += 1
    assert checked == 20


def test_outcome_register_recovers_branches():
    rng = np.random.default_rng(808)
    structure = CombStructure.standard([2, 2, 2, 2])
    for trial in range(5):
        comb = random_comb(structure, [int(rng.integers(2, 5))], seed=600 + trial)
        weights = rng.dirichlet(np.ones(3))
        prob = ProbabilisticComb(
            [(f"k{i}", comb.op * w) for i, w in enumerate(weights)],
            structure,
        )
        reg = register_comb(prob)
        assert reg.verify().passed
        last_out = reg.structure.teeth[-1][1]
        assert reg.op.wires[-1] == last_out
        split = LabeledOperator(
            reg.op.wires[:-1] + (Wire("o", 2), Wire("r", len(weights))), reg.op.matrix
        )
        for i, (oid, branch) in enumerate(prob.branches):
            proj = np.zeros((3, 3))
            proj[i, i] = 1.0
            picked = link_product(
                split, LabeledOperator((Wire("r", 3),), proj)
            )
            assert branch.labels[-1] == last_out.label
            expected = LabeledOperator(branch.wires[:-1] + (Wire("o", 2),), branch.matrix)
            assert (picked - expected).norm() <= 1e-12


def test_brute_force_gradient_matches_finite_differences():
    # The search's value is Tr[R om] of the Choi R = sum_e |K_e>><<K_e| of
    # the isometry's Kraus operators, and its gradient matches central
    # differences.
    rng = np.random.default_rng(27)
    om = rand_hermitian(4, rng)
    value_and_grad = stinespring_value(om, 2)
    step = 1e-6
    for _ in range(3):
        x = rng.standard_normal(16)
        value, grad = value_and_grad(x)
        q, _ = np.linalg.qr((x[:8] + 1j * x[8:]).reshape(4, 2))
        k = q.reshape(2, 2, 2)
        choi = np.einsum("eai,ebj->iajb", k, k.conj()).reshape(4, 4)
        assert value == pytest.approx(np.trace(choi @ om).real, abs=1e-12)
        diffs = [
            (value_and_grad(x + step * e)[0] - value_and_grad(x - step * e)[0]) / (2 * step)
            for e in np.eye(16)
        ]
        assert np.abs(grad - diffs).max() < 1e-7 * (1.0 + np.abs(grad).max())


def test_single_slot_optimum_matches_brute_force():
    rng = np.random.default_rng(31415)
    structure = CombStructure.standard([2, 2])
    for trial in range(20):
        om = rand_hermitian(4, rng)
        po = PerformanceOperator(LabeledOperator(structure.wires, om))
        sol = solve(SdpProblem(po, structure, tol_gap=1e-8))
        ref = brute_force_channel_value(om, 2, seed=trial, n_starts=20)
        assert sol.value == pytest.approx(ref, abs=1e-3), (
            f"objective {trial}: solver {sol.value:.8f}, search {ref:.8f}"
        )
