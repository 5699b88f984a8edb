import itertools
from functools import reduce

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcombs import (
    DimMismatchError,
    KrausMap,
    LabeledOperator,
    TooManyWiresError,
    Wire,
    ginibre,
    kraus_to_choi,
    link_product,
)
from conftest import partial_trace, partial_transpose, rand_kraus


def rand_op(wires, rng):
    d = int(np.prod([w.dim for w in wires]))
    return LabeledOperator(wires, ginibre(d, d, rng))


def random_pair(rng):
    """Two operators with a random overlap pattern of shared wires."""
    n_shared = int(rng.integers(0, 3))
    n_a = int(rng.integers(1, 3))
    n_b = int(rng.integers(1, 3))
    mk = lambda tag, n: [
        Wire(f"{tag}{i}", int(rng.integers(2, 4))) for i in range(n)
    ]
    shared = mk("s", n_shared)
    a = rand_op(mk("a", n_a) + shared, rng)
    b = rand_op(shared + mk("b", n_b), rng)
    return a, b


def test_commutative():
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b = random_pair(rng)
        ab = link_product(a, b)
        ba = link_product(b, a)
        norm = max(ab.norm(), 1e-30)
        assert ba.permuted(ab.labels).norm() > 0 or ab.norm() == 0
        diff = (ab - ba).norm() / norm
        assert diff < 1e-12


def padded_link(a, b):
    """Tr_s[(A (x) I_b)^{T_s} (I_a (x) B)]: the definition, with each side
    padded by identities up to the union of both wire sets."""
    shared = [lbl for lbl in a.labels if lbl in b.labels]
    a_only = [w for w in a.wires if w.label not in shared]
    b_only = [w for w in b.wires if w.label not in shared]
    order = [w.label for w in a_only] + shared + [w.label for w in b_only]
    a_full = a.tensor(LabeledOperator.identity(b_only)).permuted(order)
    b_full = LabeledOperator.identity(a_only).tensor(b).permuted(order)
    product = partial_transpose(a_full.wires, a_full.matrix, shared) @ b_full.matrix
    return LabeledOperator(*partial_trace(a_full.wires, product, shared))


@pytest.mark.parametrize(
    "n_shared, n_a, n_b",
    [(0, 2, 2), (1, 1, 2), (2, 2, 1), (2, 0, 1), (3, 0, 0)],
)
def test_matches_padded_definition(n_shared, n_a, n_b):
    rng = np.random.default_rng(100 + 10 * n_shared + n_a)
    pick = lambda tag, n: [
        Wire(f"{tag}{i}", int(rng.integers(1, 4))) for i in range(n)
    ]
    for _ in range(10):
        shared = pick("s", n_shared)
        a_wires = shared + pick("a", n_a)
        b_wires = shared + pick("b", n_b)
        # Shared wires sit at independent positions on each side.
        a = rand_op([a_wires[i] for i in rng.permutation(len(a_wires))], rng)
        b = rand_op([b_wires[i] for i in rng.permutation(len(b_wires))], rng)
        ref = padded_link(a, b)
        got = link_product(a, b)
        assert got.labels == ref.labels
        assert (got - ref).norm() <= 1e-12 * ref.norm()


def test_link_names_the_wire_limit():
    def ident(labels):
        return LabeledOperator.identity([Wire(lbl, 1) for lbl in labels])

    a = ident([f"a{i}" for i in range(14)])
    with pytest.raises(TooManyWiresError, match="28 .* 26"):
        link_product(a, ident([f"b{i}" for i in range(14)]))
    # Shared wires count once: 14 + 14 wires, two of them shared, are 26.
    b = ident([f"a{i}" for i in range(2)] + [f"b{i}" for i in range(12)])
    assert link_product(a, b).labels == a.labels[2:] + b.labels[2:]


def test_link_refuses_a_shared_wire_of_two_dimensions():
    a = LabeledOperator.identity([Wire("s", 2), Wire("a", 2)])
    b = LabeledOperator.identity([Wire("s", 3)])
    with pytest.raises(DimMismatchError, match="'s'"):
        link_product(a, b)


def test_disjoint_labels_is_tensor_product():
    rng = np.random.default_rng(1)
    a = rand_op([Wire("x", 2)], rng)
    b = rand_op([Wire("y", 3)], rng)
    t = link_product(a, b)
    assert set(t.labels) == {"x", "y"}
    assert_allclose(t.permuted(("x", "y")).matrix, np.kron(a.matrix, b.matrix))


def test_full_contraction_gives_transpose_pairing():
    rng = np.random.default_rng(2)
    w = [Wire("s0", 2), Wire("s1", 3)]
    a = rand_op(w, rng)
    b = rand_op(w, rng)
    s = link_product(a, b)
    assert s.labels == ()
    expected = np.trace(a.matrix.T @ b.permuted(a.labels).matrix)
    assert np.trace(s.matrix) == pytest.approx(expected, abs=1e-12)


def test_state_through_channel():
    rng = np.random.default_rng(3)
    kmap = KrausMap(Wire("in", 2), Wire("out", 3), rand_kraus(2, 3, 2, rng))
    choi = kraus_to_choi(kmap)
    h = ginibre(2, 2, rng)
    rho = h @ h.conj().T
    rho = rho / np.trace(rho)
    state = LabeledOperator((Wire("in", 2),), rho)
    pushed = link_product(state, choi.op)
    assert pushed.labels == ("out",)
    assert_allclose(pushed.matrix, kmap.apply(rho), atol=1e-12)


def test_channel_composition():
    rng = np.random.default_rng(4)
    a = KrausMap(Wire("in", 2), Wire("mid", 3), rand_kraus(2, 3, 2, rng))
    b = KrausMap(Wire("mid", 3), Wire("out", 2), rand_kraus(3, 2, 2, rng))
    linked = link_product(kraus_to_choi(a).op, kraus_to_choi(b).op)

    composed = KrausMap(
        Wire("in", 2),
        Wire("out", 2),
        [kb @ ka for ka in a.kraus for kb in b.kraus],
    )
    expected = kraus_to_choi(composed)
    assert_allclose(
        linked.permuted(("out", "in")).matrix, expected.op.matrix, atol=1e-11
    )


def test_sandwich_with_pure_choi():
    # Linking over one factor of a rank-one |V>><<V| is the sandwich
    # <V*| . |V*> on that factor: the defining transpose convention.
    rng = np.random.default_rng(5)
    s = Wire("s", 2)
    k = Wire("k", 3)
    r = rand_op([s, k], rng)
    v = ginibre(2, 1, rng).ravel()
    pure = LabeledOperator((s,), np.outer(v, v.conj()))
    res = link_product(r, pure)
    assert res.labels == ("k",)
    expected = np.einsum(
        "a,akbl,b->kl", v, r.matrix.reshape(2, 3, 2, 3), v.conj()
    )
    assert_allclose(res.matrix, expected, atol=1e-12)


def test_assembly_order_invariance():
    rng = np.random.default_rng(7)
    a = rand_op([Wire("o1", 2), Wire("m1", 3)], rng)
    b = rand_op([Wire("m1", 3), Wire("m2", 2)], rng)
    c = rand_op([Wire("m2", 2), Wire("o2", 3)], rng)
    results = []
    for perm in itertools.permutations([a, b, c]):
        res = reduce(link_product, perm)
        results.append(res.permuted(("o1", "o2")))
    for res in results[1:]:
        assert (res - results[0]).norm() < 1e-10 * max(results[0].norm(), 1)
