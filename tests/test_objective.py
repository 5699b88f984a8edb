import tracemalloc
from functools import lru_cache, reduce
from itertools import permutations, product

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcombs import (
    CombStructure,
    DimMismatchError,
    DimOverflowError,
    InvalidArgumentError,
    LabeledOperator,
    LabelMismatchError,
    NotHermitianError,
    PerformanceOperator,
    SdpProblem,
    TwirlSpec,
    UnsupportedError,
    Wire,
    cloning_objective,
    estimation_reference,
    haar_average,
    haar_unitary,
    learning_objective,
    link_product,
    random_comb,
    solve,
    verify_causality,
)
from qcombs import choi, objective, twirl
from qcombs.choi import _hermitian_defect
from qcombs.labeled import _level_residuals
from qcombs.twirl import (
    _affine_projection,
    _commutant_basis,
    _commutant_blocks,
    _coordinates,
    _Coordinates,
)
from conftest import (
    TransposedCoordinates,
    clifford_twirl,
    cloning_conjugation,
    conjugated,
    depolarize_each_tail,
    gram_average,
    learning_conjugation,
    learning_memory,
    mc_gate_fidelity,
    ptrace_level_residuals,
    rand_hermitian,
    wire_conjugated,
)


# ---------------------------------------------------------------------------
# Exact averaging


def test_clifford_matches_commutant_average():
    # The Clifford group is a unitary 3-design, so its finite sum is an
    # independent oracle for the commutant projection on qubits, degree 3.
    rng = np.random.default_rng(0)
    wires = (Wire("a", 2), Wire("b", 2), Wire("c", 2))
    base = LabeledOperator(wires, rand_hermitian(8, rng))
    pattern = (("a", "U", 1), ("b", "U*", 1), ("c", "U", 1))
    avg = haar_average(TwirlSpec(2, pattern), base).omega
    oracle = clifford_twirl(base, pattern)
    assert (avg - oracle).norm() < 1e-12


def test_single_wire_twirl_depolarizes():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        base = LabeledOperator((Wire("a", d),), rand_hermitian(d, rng))
        avg = haar_average(TwirlSpec(d, (("a", "U", 1),)), base).omega
        assert_allclose(
            avg.matrix, np.eye(d) * np.trace(base.matrix).real / d, atol=1e-12
        )


def test_mixed_twirl_fixed_points():
    # E[(U x U*) X (U x U*)^dag] lives in span{I, |Omega><Omega|} and
    # preserves the trace and the Omega expectation.
    rng = np.random.default_rng(2)
    d = 3
    wires = (Wire("a", d), Wire("b", d))
    base = LabeledOperator(wires, rand_hermitian(d * d, rng))
    avg = haar_average(
        TwirlSpec(d, (("a", "U", 1), ("b", "U*", 1))), base
    ).omega
    omega_vec = np.eye(d).reshape(-1)
    proj = np.outer(omega_vec, omega_vec)
    ident = np.eye(d * d)
    # solve for avg = x I + y P in the two-dimensional fixed-point space;
    # pairings: <I,I> = d^2, <I,P> = d, <P,P> = d^2
    gram = np.array([[d * d, d], [d, d * d]], dtype=float)
    rhs = np.array(
        [np.trace(avg.matrix).real, np.trace(proj @ avg.matrix).real]
    )
    x, y = np.linalg.solve(gram, rhs)
    assert np.linalg.norm(avg.matrix - x * ident - y * proj) < 1e-10
    assert np.trace(avg.matrix).real == pytest.approx(
        np.trace(base.matrix).real, abs=1e-10
    )
    assert np.trace(proj @ avg.matrix).real == pytest.approx(
        np.trace(proj @ base.matrix).real, abs=1e-10
    )


def test_twirl_against_monte_carlo():
    rng = np.random.default_rng(3)
    d = 3
    wires = (Wire("a", d), Wire("b", d))
    base = LabeledOperator(wires, rand_hermitian(d * d, rng))
    avg = haar_average(
        TwirlSpec(d, (("a", "U", 1), ("b", "U*", 1))), base
    ).omega
    acc = np.zeros((d * d, d * d), dtype=complex)
    n = 3000
    for _ in range(n):
        u = haar_unitary(d, rng)
        w = np.kron(u, u.conj())
        acc += w @ base.matrix @ w.conj().T
    acc /= n
    assert np.linalg.norm(acc - avg.matrix) < 0.08 * base.norm()


def test_averaging_is_idempotent():
    rng = np.random.default_rng(4)
    wires = (Wire("a", 2), Wire("b", 2))
    base = LabeledOperator(wires, rand_hermitian(4, rng))
    spec = TwirlSpec(2, (("a", "U", 1), ("b", "U*", 1)))
    once = haar_average(spec, base).omega
    twice = haar_average(spec, once).omega
    assert (once - twice).norm() < 1e-12


def _cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


@pytest.mark.parametrize(
    "d, t", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3)]
)
def test_commutant_gram_counts_cycles(d, t):
    # Partial transposition is a Hilbert-Schmidt isometry, so the Gram
    # matrix of the basis is d**cycles(pi_i^-1 pi_j) at any conjugation.
    perms = list(permutations(range(t)))
    oracle = np.empty((len(perms), len(perms)))
    for i, pi in enumerate(perms):
        inv = [0] * t
        for k, v in enumerate(pi):
            inv[v] = k
        for j, pj in enumerate(perms):
            oracle[i, j] = float(d) ** _cycle_count([inv[pj[k]] for k in range(t)])
    for conj in {(), (0,), tuple(range(t))}:
        basis = _commutant_basis(d, t, conj)
        flat = np.stack([b.reshape(-1) for b in basis])
        assert np.array_equal(flat.conj() @ flat.T, oracle)


# (objective builder, its arguments, the sizes of its irrep blocks)
OBJECTIVES = {
    "clone12-d2": (cloning_objective, (1, 2, 2), [8, 16]),
    "clone12-d3": (cloning_objective, (1, 2, 3), [27, 27, 54]),
    "learn1": (learning_objective, (1, 2), [4, 4]),
    "learn2": (learning_objective, (2, 2), [8, 16]),
    "learn3": (learning_objective, (3, 2), [16, 32, 48]),
    "learn4": (learning_objective, (4, 2), [32, 128, 160]),
    "learn2-d3": (learning_objective, (2, 3), [27, 27, 54]),
}


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_commutant_blocks(name):
    build, args, sizes = OBJECTIVES[name]
    po = build(*args)
    d = po.twirl.d
    _, t, conj = po.twirl._factor(po.structure.wires)
    q, blocks = _commutant_blocks(d, t, conj)
    assert np.abs(q.T @ q - np.eye(d**t)).max() < 1e-12
    basis = _commutant_basis(d, t, conj)
    for el in basis:
        y = q.T @ el @ q
        form = np.zeros_like(y)
        for off, m, copies in blocks:
            span = slice(off, off + m * copies)
            one = y[off : off + m * copies : copies, off : off + m * copies : copies]
            form[span, span] = np.kron(one, np.eye(copies))
        assert np.abs(y - form).max() < 1e-10
    flat = np.stack([b.reshape(-1) for b in basis])
    assert sum(m * m for _, m, _ in blocks) == np.linalg.matrix_rank(flat @ flat.T)
    d_rest = po.structure.dim // d**t
    assert sorted(m * d_rest for _, m, _ in blocks) == sizes


@pytest.mark.parametrize(
    "d, t, conj", [(2, 3, (2,)), (3, 3, (2,)), (2, 4, (0, 1, 2)), (2, 4, (0, 2)), (2, 5, (4,))]
)
def test_complementary_patterns_share_one_change_of_basis(d, t, conj):
    # The complement spans the transposes of the same algebra's elements:
    # built on its own it gives a bitwise equal Q, so one cache entry
    # serves both.
    comp = tuple(i for i in range(t) if i not in conj)
    assert _commutant_blocks(d, t, conj) is _commutant_blocks(d, t, comp)
    own = [twirl._blocks_of.__wrapped__(d, t, c) for c in (conj, comp)]
    assert np.array_equal(own[0][0], own[1][0])
    assert own[0][1] == own[1][1]


def test_the_second_unitary_reuses_the_commutant_of_the_first(monkeypatch):
    calls = []
    basis = twirl._commutant_basis

    def counted(*args):
        calls.append(args)
        return basis(*args)

    monkeypatch.setattr(twirl, "_commutant_basis", counted)
    monkeypatch.setattr(twirl, "_blocks_of", lru_cache(twirl._blocks_of.__wrapped__))
    for po in (learning_objective(3, 2), cloning_objective(1, 2, 3)):
        _Coordinates(po.twirl, po.structure.wires)
    assert len(calls) == 2


@pytest.mark.parametrize("name", list(OBJECTIVES))
def test_objective_matches_gram_average(name, monkeypatch):
    # The same objective built with the Gram pseudo-inverse average in place
    # of the coordinate round trip; this reaches d = 3 and t = 5, past the
    # Clifford oracle's qubit 3-design.
    build, args, _ = OBJECTIVES[name]
    po = build(*args)
    monkeypatch.setattr(objective, "_averaged", gram_average)
    ref = build.__wrapped__(*args)
    assert ref.omega.labels == po.omega.labels
    assert np.abs(ref.omega.matrix - po.omega.matrix).max() < 1e-14


@pytest.mark.parametrize(
    "d, pattern, message",
    [
        (1, (("a", "U", 1),), "at least 2"),
        (2, (("a", "U", 0),), "copies must be"),
        (2, (("a", "U", 1), ("a", "U*", 1)), "repeats"),
        (2, (("a", "none", 1),), "unknown tag"),
        (2, (("a", "V", 1),), "unknown tag"),
    ],
)
def test_twirl_spec_validation(d, pattern, message):
    with pytest.raises(ValueError, match=message):
        TwirlSpec(d, pattern)


def test_task_objectives_refuse_a_dimension_below_2():
    # TwirlSpec owns this check; the task objectives reach it.
    with pytest.raises(ValueError, match="at least 2"):
        cloning_objective(1, 2, 1)
    with pytest.raises(ValueError, match="at least 2"):
        learning_objective(1, 1)


def test_task_objectives_refuse_zero_uses():
    with pytest.raises(InvalidArgumentError, match="N, M >= 1"):
        cloning_objective(0, 2, 2)
    with pytest.raises(InvalidArgumentError, match="N >= 1"):
        learning_objective(0, 2)


def test_twirl_spec_must_match_the_wires():
    base = LabeledOperator.identity((Wire("a", 2), Wire("b", 4)))
    with pytest.raises(LabelMismatchError, match="not on the operator"):
        haar_average(TwirlSpec(2, (("c", "U", 1),)), base)
    with pytest.raises(LabelMismatchError, match="promises 2\\*\\*1"):
        haar_average(TwirlSpec(2, (("b", "U", 1),)), base)
    assert haar_average(TwirlSpec(2, (("b", "U", 2),)), base).twirl is not None


# ---------------------------------------------------------------------------
# Performance operators


def test_performance_operator_validation():
    with pytest.raises(NotHermitianError):
        PerformanceOperator(
            LabeledOperator((Wire("a", 2),), np.array([[0, 1], [0, 0]]))
        )
    # the structure's labels with a different dimension on one wire
    po = cloning_objective(1, 1, 2)
    wider = CombStructure.standard([2, 2, 2, 4])
    with pytest.raises(DimMismatchError):
        PerformanceOperator(po.omega, wider)
    # ||Omega|| overflows: storing its Hermitian part would silently drop
    # the anti-Hermitian half, so it is refused.
    skew = np.array([[1.0, 1.0], [-1.0, 1.0]]) * 2.0**520
    overflowed = LabeledOperator((Wire("a", 2),), skew)
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidArgumentError, match="not finite"):
            PerformanceOperator(overflowed)
        with pytest.raises(InvalidArgumentError, match="not finite"):
            haar_average(TwirlSpec(2, (("a", "U", 1),)), overflowed)


def test_performance_operator_is_exactly_hermitian():
    rng = np.random.default_rng(8)
    skew = rng.standard_normal((4, 4))
    nearly = rand_hermitian(4, rng) + 1e-12 * (skew - skew.T)
    assert not np.array_equal(nearly, nearly.conj().T)
    po = PerformanceOperator(LabeledOperator((Wire("a", 2), Wire("b", 2)), nearly))
    assert np.array_equal(po.omega.matrix, po.omega.matrix.conj().T)
    assert np.array_equal(po.omega.matrix, (nearly + nearly.conj().T) / 2)
    omega = cloning_objective(1, 2, 3).omega
    assert omega.matrix.dtype == np.float64
    assert np.array_equal(omega.matrix, omega.matrix.conj().T)


def test_twirl_is_not_a_constructor_argument():
    po = learning_objective(1, 2)
    with pytest.raises(TypeError):
        PerformanceOperator(po.omega, po.structure, po.twirl)
    assert PerformanceOperator(po.omega, po.structure).twirl is None
    # haar_average attaches the twirl to an Omega it already fixes, unchanged
    again = haar_average(po.twirl, po.omega)
    assert again.twirl == po.twirl
    assert np.abs(again.omega.matrix - po.omega.matrix).max() < 1e-15


def test_an_objective_is_averaged_and_checked_once(monkeypatch):
    calls = {"of": 0, "is_hermitian": 0}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(_Coordinates, "of")
    counted(LabeledOperator, "is_hermitian")
    cloning_objective.__wrapped__(1, 2, 2)
    assert calls == {"of": 1, "is_hermitian": 1}


def test_haar_average_of_a_non_hermitian_base_is_refused():
    # Wire b is not twirled, so the average keeps its non-Hermitian part.
    raised = np.kron(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
    base = LabeledOperator((Wire("a", 2), Wire("b", 2)), raised)
    with pytest.raises(NotHermitianError):
        haar_average(TwirlSpec(2, (("a", "U", 1),)), base)


def test_cloning_objective_shape_and_trace():
    for n, m, d in [(1, 1, 2), (1, 2, 2), (2, 1, 2), (1, 2, 3)]:
        po = cloning_objective(n, m, d)
        assert po.omega.is_hermitian()
        assert po.structure.n_teeth == n + 1
        assert np.trace(po.omega.matrix).real == pytest.approx(
            float(d) ** (n - m), rel=1e-12
        )
    with pytest.raises(DimOverflowError):
        cloning_objective(2, 2, 4)


def pass_through_board(d):
    from qcombs import max_entangled

    v1 = max_entangled((Wire("1", d), Wire("0", d)))
    v2 = max_entangled((Wire("3", d), Wire("2", d)))
    return v1.tensor(v2).outer()


def test_pass_through_board_scores_one_on_matched_cloning():
    for d in (2, 3):
        po = cloning_objective(1, 1, d)
        assert po.value(pass_through_board(d)) == pytest.approx(1.0, abs=1e-12)


def test_value_matches_link_contraction():
    po = cloning_objective(1, 2, 2)
    comb = random_comb(po.structure, [4], 99)
    direct = po.value(comb.op)
    transposed = LabeledOperator(comb.op.wires, comb.op.matrix.T)
    linked = link_product(transposed, po.omega)
    assert linked.labels == ()
    assert abs(direct - np.trace(linked.matrix).real) < 1e-11


def test_cloning_invariance_under_symmetry():
    rng = np.random.default_rng(7)
    for n, m, d in [(1, 2, 2), (2, 1, 2), (1, 1, 3)]:
        po = cloning_objective(n, m, d)
        for _ in range(10):
            u = haar_unitary(d, rng)
            w = cloning_conjugation(po.omega, u, n, m)
            rotated = conjugated(w, po.omega)
            assert (rotated - po.omega).norm() < 1e-9


def test_learning_invariance_under_symmetry():
    rng = np.random.default_rng(8)
    for n in (1, 2):
        po = learning_objective(n, 2)
        for _ in range(10):
            u = haar_unitary(2, rng)
            w = learning_conjugation(po.omega, u, n)
            rotated = conjugated(w, po.omega)
            assert (rotated - po.omega).norm() < 1e-9


# The partner wires of each task, label -> (tag, copies): V* on the partner
# of a U wire, once per copy, and V on that of a U* wire.
PARTNERS = {
    **{
        f"clone{n}{m}-d{d}": (
            lambda n=n, m=m, d=d: cloning_objective(n, m, d),
            {"0": ("U*", m)} | {str(2 * k - 1): ("U", 1) for k in range(1, n + 1)},
        )
        for n, m, d in [(1, 2, 2), (1, 2, 3), (2, 1, 2), (1, 3, 2)]
    },
    **{
        f"learn{n}": (
            lambda n=n: learning_objective(n, 2),
            {str(2 * n + 2): ("U*", 1)} | {str(2 * k - 1): ("U", 1) for k in range(1, n + 1)},
        )
        for n in (1, 2, 3, 4)
    },
}


@pytest.mark.parametrize("name", list(PARTNERS))
def test_objectives_are_invariant_under_the_second_unitary(name):
    # A Haar V, independent of U, on the partner wires fixes Omega, so the
    # twirl declares it.  With V and V* swapped on one partner wire it does
    # not; swapping them on every partner would conjugate the whole action
    # entrywise, which fixes any real Omega.
    build, partners = PARTNERS[name]
    po = build()
    assert {label: (tag, c) for label, tag, c in po.twirl.second} == partners
    d, norm = po.twirl.d, po.omega.norm()
    rng = np.random.default_rng(37)
    for _ in range(2):
        v = haar_unitary(d, rng)
        for swapped in (None, *partners):
            mats = {
                label: reduce(np.kron, [v.conj() if (tag == "U*") != (label == swapped) else v] * c)
                for label, (tag, c) in partners.items()
            }
            moved = (wire_conjugated(po.omega, mats) - po.omega).norm() / norm
            assert moved > 0.1 if swapped else moved <= 1e-12


def test_a_wire_cannot_carry_both_unitaries():
    with pytest.raises(InvalidArgumentError, match="repeats"):
        TwirlSpec(2, (("a", "U", 1),), (("a", "U*", 1),))
    with pytest.raises(InvalidArgumentError, match="unknown tag"):
        TwirlSpec(2, (("a", "U", 1),), (("b", "V", 1),))
    with pytest.raises(InvalidArgumentError, match="needs a pattern"):
        TwirlSpec(2, (), (("b", "U", 1),))


def test_learning_objective_matches_monte_carlo_fidelity():
    for n_uses, seed in [(1, 21), (2, 22)]:
        po = learning_objective(n_uses, 2)
        comb = random_comb(po.structure, learning_memory(n_uses), seed)
        predicted = po.value(comb.op)
        mean, stderr = mc_gate_fidelity(comb, n_uses, 2, 2000, seed)
        assert abs(predicted - mean) < 4 * stderr + 1e-6


def test_estimation_reference():
    assert estimation_reference(1, 2, 2) == pytest.approx(5 / 16)
    assert estimation_reference(1, 2, 3) == pytest.approx(6 / 81)
    assert estimation_reference(1, 2, 4) == pytest.approx(6 / 256)
    with pytest.raises(UnsupportedError):
        estimation_reference(2, 2, 2)
    with pytest.raises(UnsupportedError):
        estimation_reference(1, 2, 1)


# ---------------------------------------------------------------------------
# Coordinates in the twirl's fixed algebra


@pytest.mark.parametrize(
    "build",
    [
        lambda: cloning_objective(1, 2, 2),
        lambda: cloning_objective(1, 2, 3),
        lambda: cloning_objective(2, 1, 2),
        lambda: cloning_objective(1, 1, 2),
        lambda: cloning_objective(1, 1, 3),
        lambda: learning_objective(1, 2),
        lambda: learning_objective(2, 2),
        lambda: learning_objective(3, 2),
        lambda: learning_objective(4, 2),
        lambda: learning_objective(2, 3),
    ],
    ids=[
        "clone12-d2", "clone12-d3", "clone21", "clone11-d2", "clone11-d3",
        "learn1", "learn2", "learn3", "learn4", "learn2-d3",
    ],
)
def test_coordinates_match_the_dense_operator(build):
    po = build()
    s = po.structure
    D = s.dim
    rng = np.random.default_rng(12)
    a = rng.standard_normal((D, D))
    x = haar_average(po.twirl, LabeledOperator(s.wires, a + a.T)).omega
    x = x.permuted(s.labels).matrix.real
    coords = _Coordinates(po.twirl, s.wires)
    k = coords.of(x)
    assert k.dtype == np.float64
    assert np.abs(coords.matrix(k) - x).max() < 1e-12
    assert np.linalg.norm(k) == pytest.approx(np.linalg.norm(x), rel=1e-12)
    assert coords.trace(k) == pytest.approx(np.trace(x), rel=1e-12, abs=1e-12)
    assert np.abs(coords.of(np.eye(D)) - coords.identity).max() < 1e-12
    dense = np.linalg.eigvalsh(x)
    assert abs(coords.min_eigenvalue(k) - dense[0]) < 1e-10
    assert abs(coords.max_eigenvalue(k) - dense[-1]) < 1e-10
    tv = float(s.trace_value)
    projected = _affine_projection(k, coords, tv)
    assert np.abs(coords.matrix(projected) - depolarize_each_tail(x, s.dims, tv)).max() < 1e-12
    # The Hermitian part commutes with the twirl, also for complex input.
    c = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    herm = coords.hermitian(coords.of(c))
    assert np.abs(herm - coords.of((c + c.conj().T) / 2)).max() < 1e-12


def test_coordinates_without_twirl_are_the_matrix():
    po = cloning_objective(1, 2, 2)
    s = po.structure
    rng = np.random.default_rng(13)
    x = rand_hermitian(s.dim, rng)
    coords = _Coordinates(None, s.wires)
    k = coords.of(x)
    assert k.shape == (1, s.dim, s.dim)
    assert np.array_equal(k[0], x)
    assert np.array_equal(coords.matrix(k), x)


def test_coordinates_are_built_once_and_read_only():
    po = learning_objective(3, 2)
    coords = _coordinates(po.twirl, po.structure.wires)
    assert _coordinates(po.twirl, po.structure.wires) is coords
    arrays = [a for a in vars(coords).values() if isinstance(a, np.ndarray)]
    # each level of the mixers is a sum of pairs (A, B), for A (x) B
    mixers = [arr for level in coords.mixers for pair in level for arr in pair]
    for arr in (*arrays, *mixers):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


# The streamed transforms' checks: the twirled wires trail the others
# (cloning), alternate with them (learning) or are all there is, next to a
# wire of dimension 1.
STREAMED = {
    "clone12": lambda: cloning_objective(1, 2, 2),
    "qutrit-clone": lambda: cloning_objective(1, 2, 3),
    "learn3": lambda: learning_objective(3, 2),
    "single-wire": None,
}


def _streamed(name):
    """(twirl, structure) of the check called name."""
    if STREAMED[name] is None:
        return TwirlSpec(2, (("1", "U", 2),)), CombStructure.standard([1, 4])
    po = STREAMED[name]()
    return po.twirl, po.structure


@pytest.mark.parametrize("name", list(STREAMED))
def test_streamed_coordinates_match_the_transposed_copy(name):
    # The slabs of _Coordinates against one transposed copy of the whole
    # operator, on a Hermitian, a complex non-Hermitian and two
    # non-contiguous inputs.
    twirl, s = _streamed(name)
    D = s.dim
    coords = _Coordinates(twirl, s.wires)
    oracle = TransposedCoordinates(twirl, s.wires)
    rng = np.random.default_rng(17)
    c = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
    big = rng.standard_normal((2 * D, 2 * D))
    for mat in (rand_hermitian(D, rng).real, c, c.T, big[::2, 1::2]):
        k_ref, r_ref = oracle.read(mat)
        k, r = coords.read(mat)
        assert np.linalg.norm(k - k_ref) <= 1e-14 * np.linalg.norm(k_ref)
        assert np.linalg.norm(coords.of(mat) - k_ref) <= 1e-14 * np.linalg.norm(k_ref)
        dense, dense_ref = coords.matrix(k), oracle.matrix(k)
        assert np.linalg.norm(dense - dense_ref) <= 1e-14 * np.linalg.norm(dense_ref)
        assert r >= np.linalg.norm(mat - dense)
        assert r == pytest.approx(r_ref, rel=1e-12)


@pytest.mark.parametrize("name", list(STREAMED))
def test_streamed_read_refuses_a_push_off_the_algebra(name):
    # A causal direction orthogonal to the algebra leaves the coordinates of
    # the maximally mixed comb as they are; pushed along it until indefinite,
    # the comb is refused under the twirl, by the distance read bounds.
    twirl, s = _streamed(name)
    D, tv = s.dim, float(s.trace_value)
    oracle = TransposedCoordinates(twirl, s.wires)
    flat = _Coordinates(None, s.wires)
    rng = np.random.default_rng(19)
    y = _affine_projection(flat.of(rand_hermitian(D, rng)), flat, 0.0)[0]
    y = y - oracle.matrix(oracle.of(y))
    y = (y + y.conj().T) / 2
    x = np.eye(D) * (tv / D) - (1.1 * tv / D / np.linalg.eigvalsh(y)[-1]) * y
    assert np.linalg.eigvalsh(x)[0] < -0.05 * tv / D
    report = verify_causality(LabeledOperator(s.wires, x), s, twirl=twirl)
    assert max(report.residuals) < 1e-12
    assert not report.passed


def _peak(f, *args):
    """f(*args) and the most memory traced at once during the call."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_transforms_make_no_dense_temporary():
    # Besides what they return, read and matrix hold less than half a
    # D x D array at once: qutrit cloning (D = 729), whose slabs are rows
    # of the leading untwirled wire, and four-use learning (D = 1024),
    # whose slabs each fix one row of four 2-dimensional untwirled wires.
    for po in (cloning_objective(1, 2, 3), learning_objective(4, 2)):
        s = po.structure
        coords = _Coordinates(po.twirl, s.wires)
        mat = rand_hermitian(s.dim, np.random.default_rng(23))
        (k, _), peak = _peak(coords.read, mat)
        assert peak - k.nbytes < mat.nbytes / 2
        dense, peak = _peak(coords.matrix, k)
        assert peak - dense.nbytes < mat.nbytes / 2



@pytest.mark.parametrize(
    "build",
    [
        lambda: cloning_objective(1, 2, 3),
        lambda: learning_objective(3, 2),
        lambda: learning_objective(4, 2),
    ],
    ids=["clone12-d3", "learn3", "learn4"],
)
def test_block_eigenvalue_floor_never_exceeds_the_dense_minimum(build):
    po = build()
    s = po.structure
    D, tv = s.dim, float(s.trace_value)
    coords = _coordinates(po.twirl, s.wires)
    rng = np.random.default_rng(21)
    for _ in range(2):
        a = rand_hermitian(D, rng)
        inside = coords.matrix(coords.hermitian(coords.of(a)))
        inside = (inside + inside.conj().T) / 2
        dense = np.linalg.eigvalsh(inside)[0]
        lo = coords.eigenvalue_floor(inside)
        assert lo <= dense
        assert dense - lo < 1e-10
        for size in (1e-6, 1.0):
            push = rand_hermitian(D, rng)
            off = inside + size * push / np.linalg.norm(push)
            assert coords.eigenvalue_floor(off) <= np.linalg.eigvalsh(off)[0]

    # A causal direction off the algebra makes the maximally mixed comb
    # indefinite while every level residual stays at rounding: only the
    # positivity check can fail it, and under its twirl it must.
    flat = _Coordinates(None, s.wires)
    y = _affine_projection(flat.of(rand_hermitian(D, rng)), flat, 0.0)[0]
    y = (y + y.conj().T) / 2
    mixed = np.eye(D) * (tv / D)
    x = mixed - (1.1 * tv / D / np.linalg.eigvalsh(y)[-1]) * y
    dense = np.linalg.eigvalsh(x)[0]
    assert dense < -0.05 * tv / D
    report = verify_causality(LabeledOperator(s.wires, x), s, twirl=po.twirl)
    assert max(report.residuals) < 1e-12
    assert report.min_eigenvalue <= dense
    assert not report.passed


# ---------------------------------------------------------------------------
# Judging a twirled board from its coordinates

SOLVED = {
    "clone12": lambda: cloning_objective(1, 2, 2),
    "learn2": lambda: learning_objective(2, 2),
    "learn3": lambda: learning_objective(3, 2),
    "qutrit-clone": lambda: cloning_objective(1, 2, 3),
}


@lru_cache(maxsize=None)
def _solved(name):
    """(twirl, structure, R_star) of the solved problem; R_star carries
    the twirl."""
    po = SOLVED[name]()
    return po.twirl, po.structure, solve(SdpProblem(po, po.structure)).R_star


@pytest.mark.parametrize("name", list(SOLVED))
def test_coordinate_level_residuals_match_the_partial_trace_oracle(name):
    twirl, s, comb = _solved(name)
    r_star = comb.op.permuted(s.labels)
    coords = _coordinates(twirl, s.wires)
    rng = np.random.default_rng(29)
    noise = rng.standard_normal((s.dim, s.dim)) + 1j * rng.standard_normal((s.dim, s.dim))
    boards = [r_star.matrix]
    boards += [coords.matrix(coords.of(m)) for m in (rand_hermitian(s.dim, rng), noise)]
    for mat in boards:
        got = coords.level_residuals(coords.of(mat), s.dims)
        want = ptrace_level_residuals(LabeledOperator(s.wires, mat), s)
        scale = max(np.linalg.norm(mat), *want)
        assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    # The oracle's values are not all at rounding: the noise breaks the
    # comb conditions.
    assert max(want) > 1e-3


def _push(y, coords, inside):
    """y made Hermitian and, unless inside, taken off the algebra, then
    scaled to unit Frobenius norm."""
    y = (y + y.conj().T) / 2
    if not inside:
        y = y - coords.matrix(coords.of(y))
    return y / np.linalg.norm(y)


@pytest.mark.parametrize("name", ["clone12", "qutrit-clone"])
def test_twirled_verdicts_match_the_dense_judgement(name):
    # A board passed from its coordinates passes the dense checks, and a
    # board that is not is judged and reported by them as at the parent:
    # dense residuals and defect, with the floor of the same read.
    twirl, s, comb = _solved(name)
    r_star = comb.op.permuted(s.labels)
    coords = _coordinates(twirl, s.wires)
    flat = _Coordinates(None, s.wires)
    rng = np.random.default_rng(31)
    tol = 1e-9
    causal = _affine_projection(flat.of(rand_hermitian(s.dim, rng)), flat, 0.0)[0]
    # (Delta_1 - Delta_0) z violates level 0 alone, by its whole norm.
    d0, rest = s.dims[0], s.dim // s.dims[0]
    z = rand_hermitian(s.dim, rng)
    level0 = np.kron(np.trace(z.reshape(d0, rest, d0, rest), axis1=1, axis2=3), np.eye(rest))
    level0 = level0 / rest - np.trace(z) / s.dim * np.eye(s.dim)
    w = rng.standard_normal((s.dim, 3))
    directions = {
        # off the algebra: causal, violating level 0, arbitrary, and
        # anti-Hermitian
        "off-causal": _push(causal, coords, inside=False),
        "off-level-0": _push(level0, coords, inside=False),
        "off": _push(rand_hermitian(s.dim, rng), coords, inside=False),
        "anti": 1j * _push(rand_hermitian(s.dim, rng), coords, inside=False),
        # causal violations inside the algebra that keep the board positive
        "in-positive": _push(coords.matrix(coords.of(w @ w.T)), coords, inside=True),
        "in-trace": r_star.matrix / np.linalg.norm(r_star.matrix),
    }
    # The same comb mixed toward I / prod(outs), the maximally mixed comb,
    # so that its least eigenvalue, 30 tol, leaves the floor passing a push
    # of norm up to 10 tol off the algebra: the verdict on those rests on
    # the allowances for r in the residuals and the defect.
    outs = np.prod(s.dims[1::2])
    eps = 30 * tol * outs
    margin = (1 - eps) * r_star.matrix + eps / outs * np.eye(s.dim)
    fast = 0
    for (key, y), base in product(directions.items(), (r_star.matrix, margin)):
        for size in (0.5, 0.7, 2.0, 10.0):
            mat = base + size * tol * y
            report = verify_causality(LabeledOperator(s.wires, mat), s, tol, twirl)
            residuals = tuple(_level_residuals(mat, s.dims))
            defect = _hermitian_defect(mat)
            floor = coords.eigenvalue_floor(mat)
            assert report.min_eigenvalue == floor
            assert report.passed == all(x <= tol for x in (*residuals, defect, -floor))
            if key.startswith("in"):
                flat_report = verify_causality(LabeledOperator(s.wires, mat), s, tol)
                assert report.passed == flat_report.passed
            if not report.passed:
                assert report.residuals == residuals
                assert report.hermiticity == defect
            elif report.residuals != residuals:
                fast += 1
    assert fast >= 2
    # A causal anti-Hermitian part on the algebra just within tol, plus one
    # off it that the residuals' allowances still pass: only the allowance
    # r in the defect keeps this board from passing on its coordinates.
    spin = 1j * _push(coords.matrix(coords.of(causal)), coords, inside=True)
    mat = margin + tol * (0.97 * spin + 0.3 * directions["anti"])
    report = verify_causality(LabeledOperator(s.wires, mat), s, tol, twirl)
    assert report.hermiticity == _hermitian_defect(mat) > tol
    assert not report.passed


def test_passing_twirled_verify_reads_no_dense_residual(monkeypatch):
    twirl, s, comb = _solved("qutrit-clone")
    assert comb.twirl == twirl
    calls = {"_level_residuals": 0, "_hermitian_defect": 0}

    def counted(name):
        real = getattr(choi, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(choi, name, counted(name))
    assert comb.verify().passed
    assert calls == {"_level_residuals": 0, "_hermitian_defect": 0}
    assert verify_causality(comb.op, s).passed
    assert calls == {"_level_residuals": 1, "_hermitian_defect": 1}
