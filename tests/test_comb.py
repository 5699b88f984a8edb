import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from qcombs import (
    ChoiOperator,
    CombStructure,
    DimMismatchError,
    DimOverflowError,
    DuplicateLabelError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidBranchSumError,
    KrausMap,
    LabeledOperator,
    LabelMismatchError,
    NoConvergenceError,
    ProbabilisticComb,
    QuantumComb,
    SlotArityMismatchError,
    UnknownLabelError,
    Wire,
    is_channel,
    kraus_to_choi,
    learning_objective,
    link_product,
    max_entangled,
    project_to_comb,
    random_comb,
    reduced_comb,
    register_comb,
    supermap_apply,
    verify_causality,
)
from qcombs.comb import _register_merge, _register_split
from qcombs.twirl import _affine_projection, _Coordinates, _eigenvalue_floor
from conftest import (
    alternating_projections,
    depolarize_each_tail,
    learning_memory,
    linked_random_comb,
    partial_trace,
    ptrace_level_residuals,
    ptrace_reduced_comb,
    ptrace_trace_residual,
    rand_hermitian,
    rand_kraus,
    sample_sequential_network,
)

S22 = CombStructure.standard([2, 2])
S2222 = CombStructure.standard([2, 2, 2, 2])


def two_tooth_comb(seed=0):
    return random_comb(S2222, [2], seed)


# ---------------------------------------------------------------------------
# Structure


def test_standard_structure_layout():
    s = S2222
    assert s.n_teeth == 2
    assert s.labels == ("0", "1", "2", "3")
    assert s.dims == (2, 2, 2, 2)
    assert s.dim == 16
    assert s.trace_value == 4
    (slot,) = s.slots
    assert (slot[0].label, slot[1].label) == ("1", "2")
    with pytest.raises(ValueError):
        CombStructure.standard([2, 2, 2])
    with pytest.raises(InvalidArgumentError, match="at least one tooth"):
        CombStructure(())
    with pytest.raises(DuplicateLabelError):
        CombStructure(((Wire("x", 2), Wire("x", 2)),))


def test_structure_wire_lookup():
    assert S22.wire("1") == Wire("1", 2)
    with pytest.raises(UnknownLabelError):
        S22.wire("x")


def test_comb_constructor_checks():
    comb = two_tooth_comb()
    reordered = comb.op.permuted(("3", "1", "0", "2"))
    again = QuantumComb(reordered, S2222)
    assert again.op.labels == ("0", "1", "2", "3")
    assert_allclose(again.op.matrix, comb.op.matrix, atol=1e-14)
    with pytest.raises(LabelMismatchError):
        QuantumComb(LabeledOperator((Wire("z", 2),) + comb.op.wires[1:], comb.op.matrix), S2222)
    wrong = LabeledOperator.identity(
        (Wire("0", 2), Wire("1", 2), Wire("2", 2), Wire("3", 4))
    )
    with pytest.raises(DimMismatchError):
        QuantumComb(wrong, S2222)
    with pytest.raises(AttributeError):
        comb.op = comb.op
    assert comb.twirl is None
    with pytest.raises(AttributeError):
        comb.twirl = None


# ---------------------------------------------------------------------------
# Verification and reduction


def test_random_combs_verify():
    rng = np.random.default_rng(10)
    for _ in range(10):
        comb = sample_sequential_network(rng)
        report = comb.verify(tol=1e-10)
        assert report.passed, str(report)
        assert np.trace(comb.op.matrix).real == pytest.approx(comb.structure.trace_value)


def test_pass_through_board_verifies():
    v1 = max_entangled((Wire("1", 2), Wire("0", 2)))
    v2 = max_entangled((Wire("3", 2), Wire("2", 2)))
    op = v1.tensor(v2).outer()
    report = verify_causality(op.permuted(S2222.labels), S2222)
    assert report.passed


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_feasibility_refuses_a_tol_below_zero_or_nan(tol):
    # Every board fails a negative or nan tol, so it is refused, not judged.
    comb = two_tooth_comb()
    choi = kraus_to_choi(KrausMap(Wire("i", 2), Wire("o", 2), [np.eye(2)]))
    checks = (
        comb.verify,
        lambda t: verify_causality(comb.op, S2222, t),
        lambda t: is_channel(choi, t),
    )
    for check in checks:
        with pytest.raises(InvalidArgumentError, match="tol must be >= 0"):
            check(tol)


def test_back_in_time_wiring_fails_at_level_one():
    # Route the second tooth's input to the first tooth's output: the
    # "wire from the future".  Positive, trace 4, but not causal.
    v1 = max_entangled((Wire("1", 2), Wire("2", 2)))
    v2 = max_entangled((Wire("3", 2), Wire("0", 2)))
    op = v1.tensor(v2).outer()
    report = verify_causality(op.permuted(S2222.labels), S2222)
    assert not report.passed
    assert report.residuals[1] > 0.5
    assert "FAIL" in str(report)


def test_reduced_comb_telescopes():
    comb = two_tooth_comb(3)
    full = reduced_comb(comb.op, S2222, 1)
    assert_allclose(full.matrix, comb.op.matrix, atol=1e-14)
    r0 = reduced_comb(comb.op, S2222, 0)
    _, lhs = partial_trace(full.wires, full.matrix, ["3"])
    rhs = np.kron(r0.matrix, np.eye(2))
    assert np.linalg.norm(lhs - rhs) < 1e-12
    scalar = reduced_comb(comb.op, S2222, -1)
    assert scalar.labels == ()
    assert np.trace(scalar.matrix).real == pytest.approx(1.0)
    with pytest.raises(IndexOutOfRangeError):
        reduced_comb(comb.op, S2222, 2)
    with pytest.raises(IndexOutOfRangeError):
        reduced_comb(comb.op, S2222, -2)


def _oracle_board(case):
    """The operator and structure of one board: a random comb, or the
    two-tooth board, a multi-wire Choi operator, that filling the last slot
    of a three-tooth comb leaves."""
    if case == "partial-choi":
        comb = random_comb(CombStructure.standard([2] * 6), [2, 2], 21)
        _, second = slot_channels(comb.structure, np.random.default_rng(22))
        choi = supermap_apply(comb, [second])
        w = {lbl: choi.op.wire(lbl) for lbl in choi.op.labels}
        structure = CombStructure(((w["0"], w["1"]), (w["2"], w["5"])))
        return choi.op, structure
    if case == "learn3":
        structure = learning_objective(3, 2).structure
        return random_comb(structure, learning_memory(3), 23).op, structure
    dims, memory = {
        "qubits6": ([2] * 6, [2, 2]),
        "qutrits4": ([3] * 4, [3]),
        "one-tooth": ([2, 3], []),
    }[case]
    structure = CombStructure.standard(dims)
    return random_comb(structure, memory, 24).op, structure


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want) + 1e-15


@pytest.mark.parametrize("case", ["qubits6", "qutrits4", "learn3", "one-tooth", "partial-choi"])
@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("hermitian", [True, False])
def test_comb_conditions_match_the_partial_trace_loop(case, field, hermitian):
    """verify_causality's level residuals, reduced_comb at every level and
    is_channel's residual agree with the partial_trace loop on boards pushed off
    by perturbations of three sizes; the real part of a comb is a comb."""
    op, structure = _oracle_board(case)
    rng = np.random.default_rng(len(case) + 2 * hermitian)
    D = structure.dim
    base = op.matrix.real if field == "real" else op.matrix
    for size in (1e-9, 1e-2, 1.0):
        g = rng.standard_normal((D, D))
        if field == "complex":
            g = g + 1j * rng.standard_normal((D, D))
        if hermitian:
            g = g + g.conj().T
        r = LabeledOperator(op.wires, base + size * np.linalg.norm(base) / np.linalg.norm(g) * g)
        got = verify_causality(r, structure).residuals
        want = ptrace_level_residuals(r, structure)
        assert len(got) == len(want) == structure.n_teeth
        assert all(_close(a, b) for a, b in zip(got, want)), (got, want)
        for n in range(-1, structure.n_teeth):
            red, ref = reduced_comb(r, structure, n), ptrace_reduced_comb(r, structure, n)
            assert red.wires == ref.wires
            assert (red - ref).norm() <= 1e-12 * ref.norm() + 1e-15
            assert red.matrix.dtype == ref.matrix.dtype
        outs = [o.label for _, o in structure.teeth]
        choi = ChoiOperator(r, outs, [i.label for i, _ in structure.teeth])
        m = choi.op.matrix
        defect = np.linalg.norm(m - m.conj().T) / 2
        lo = _eigenvalue_floor(np.linalg.eigvalsh((m + m.conj().T) / 2))
        _, residual = is_channel(choi)
        want = max(ptrace_trace_residual(choi), defect, -lo)
        assert _close(residual, want), (residual, want)


# ---------------------------------------------------------------------------
# Random generation


def test_random_comb_deterministic():
    a = two_tooth_comb(7)
    b = two_tooth_comb(7)
    assert_allclose(a.op.matrix, b.op.matrix, atol=0)
    c = two_tooth_comb(8)
    assert (a.op - c.op).norm() > 1e-3


def test_random_comb_argument_errors():
    with pytest.raises(ValueError):
        random_comb(S2222, [2, 2], 0)
    s3 = CombStructure.standard([2, 2, 2, 2, 2, 2])
    with pytest.raises(ValueError):
        random_comb(s3, [2, 1], 0)
    # The per-tooth isometry check refuses a memory dim below 1, at its tooth.
    with pytest.raises(InvalidArgumentError, match=r"increase memory_dims\[1\]"):
        random_comb(s3, [2, 0], 0)
    # numpy's own ValueError for a negative seed would escape QCombsError.
    with pytest.raises(InvalidArgumentError, match="seed must be"):
        random_comb(s3, [2, 2], -1)
    big = CombStructure.standard([4, 4, 4, 4, 4, 4, 2, 2])
    with pytest.raises(DimOverflowError, match="random_comb needs dimension 16384"):
        random_comb(big, [4, 4, 4], 0)
    # str() of a dimension of more than 4300 digits raises ValueError.
    huge = CombStructure.standard([2] * 14400)
    with pytest.raises(DimOverflowError, match=r"dimension at least 2\*\*14400, over the cap"):
        random_comb(huge, [2] * 7199, 0)


def test_random_comb_caps_a_tooth_wider_than_the_chain():
    # A 4096-dim memory gives tooth 0 an isometry with 8192 rows on a
    # 16-dim board; the cap must refuse before drawing it.
    with pytest.raises(DimOverflowError, match="isometry of tooth 0 needs dimension 8192"):
        random_comb(S2222, [4096], 0)


RANDOM_BOARDS = {
    "2x2x2x2-mem2": ([2, 2, 2, 2], [2]),
    "2x2x2x2-mem32": ([2, 2, 2, 2], [32]),
    "1x2x2x1-mem2": ([1, 2, 2, 1], [2]),
    "2x1x3x2x1x2-mem2x3": ([2, 1, 3, 2, 1, 2], [2, 3]),
    "network-D64": ([2] * 6, [4, 4]),
    "network-D81": ([3] * 4, [3]),
    "network-D256": ([2] * 8, [2, 2, 2]),
    "learn2": (None, learning_memory(2)),
}
NETWORK_BOARDS = [key for key in RANDOM_BOARDS if key.startswith("network")]


@pytest.mark.parametrize("board", RANDOM_BOARDS)
def test_random_comb_equals_the_linked_teeth(board):
    dims, memory = RANDOM_BOARDS[board]
    if dims is None:
        structure = learning_objective(2, 2).structure
    else:
        structure = CombStructure.standard(dims)
    for seed in range(4):
        got = random_comb(structure, memory, seed)
        want = linked_random_comb(structure, memory, seed)
        assert got.op.wires == want.op.wires
        assert np.max(np.abs(got.op.matrix - want.op.matrix)) <= 1e-13
        assert got.verify().passed


@pytest.mark.parametrize("board", NETWORK_BOARDS)
def test_random_comb_peak_memory_is_of_the_comb(board):
    dims, memory = RANDOM_BOARDS[board]
    # Psi Psi^dagger is the one D x D array a draw builds; the contracted
    # Choi vector Psi has D * (rows of one isometry) entries.
    structure = CombStructure.standard(dims)
    D = structure.dim
    random_comb(structure, memory, 0)
    tracemalloc.start()
    try:
        random_comb(structure, memory, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * D * D * 16, peak


# ---------------------------------------------------------------------------
# Supermap action


def test_pass_through_returns_input():
    v1 = max_entangled((Wire("1", 2), Wire("0", 2)))
    v2 = max_entangled((Wire("3", 2), Wire("2", 2)))
    board = QuantumComb(v1.tensor(v2).outer(), S2222)
    kmap = KrausMap(Wire("1", 2), Wire("2", 2), rand_kraus(2, 2, 2, np.random.default_rng(1)))
    choi = kraus_to_choi(kmap)
    res = supermap_apply(board, [choi.op])
    assert res.out_labels == ("3",)
    assert res.in_labels == ("0",)
    assert choi.op.labels == ("2", "1")
    expected = LabeledOperator((Wire("3", 2), Wire("0", 2)), choi.op.matrix)
    assert (res.op - expected).norm() < 1e-12


def test_full_insertion_yields_channel():
    rng = np.random.default_rng(11)
    for seed in range(5):
        comb = sample_sequential_network(rng)
        slots = comb.structure.slots
        inputs = []
        for out_w, in_w in slots:
            kmap = KrausMap(
                out_w, in_w, rand_kraus(out_w.dim, in_w.dim, 2, rng)
            )
            inputs.append(kraus_to_choi(kmap).op)
        res = supermap_apply(comb, inputs)
        ok, residual = is_channel(res, tol=1e-9)
        assert ok, residual


def test_supermap_argument_errors():
    comb = two_tooth_comb(2)
    kmap = KrausMap(Wire("1", 2), Wire("2", 2), [np.eye(2)])
    op = kraus_to_choi(kmap).op
    with pytest.raises(SlotArityMismatchError):
        supermap_apply(comb, [op, op])
    with pytest.raises(LabelMismatchError):
        supermap_apply(comb, [LabeledOperator((Wire("2", 2), Wire("9", 2)), op.matrix)])
    with pytest.raises(TypeError):
        supermap_apply(comb, [object()])


def slot_channels(structure, rng):
    """The Choi operator of a random channel for each slot of structure."""
    return [
        kraus_to_choi(KrausMap(out_w, in_w, rand_kraus(out_w.dim, in_w.dim, 2, rng))).op
        for out_w, in_w in structure.slots
    ]


def test_an_input_fills_the_slots_of_its_wires():
    comb = random_comb(CombStructure.standard([2] * 6), [2, 2], 3)
    first, second = slot_channels(comb.structure, np.random.default_rng(4))
    partial = supermap_apply(comb, [second])
    assert partial.in_labels == ("0", "2")
    assert partial.out_labels == ("1", "5")
    full = supermap_apply(comb, [first, second])
    assert (link_product(partial.op, first) - full.op).norm() < 1e-14


def test_inputs_in_any_order_give_the_same_board():
    comb = random_comb(CombStructure.standard([2] * 6), [2, 2], 3)
    first, second = slot_channels(comb.structure, np.random.default_rng(4))
    full = supermap_apply(comb, [first, second])
    reverse = supermap_apply(comb, [second, first])
    assert (reverse.op - full.op).norm() < 1e-14
    assert (reverse.in_labels, reverse.out_labels) == (full.in_labels, full.out_labels)


def test_an_input_must_fill_consecutive_slots():
    comb = random_comb(CombStructure.standard([2] * 8), [2, 2, 2], 5)
    first, _, third = slot_channels(comb.structure, np.random.default_rng(6))
    with pytest.raises(LabelMismatchError, match="consecutive slots"):
        supermap_apply(comb, [first.tensor(third)])


# ---------------------------------------------------------------------------
# Projection


def test_projection_from_zero_is_maximally_mixed():
    z = LabeledOperator((Wire("0", 2), Wire("1", 2)), np.zeros((4, 4)))
    comb = project_to_comb(z, S22)
    assert_allclose(comb.op.matrix, np.eye(4) / 2, atol=1e-12)


def test_projection_fixes_combs():
    comb = two_tooth_comb(4)
    again = project_to_comb(comb.op, S2222)
    assert (again.op - comb.op).norm() < 1e-9


def test_projection_of_perturbed_comb_is_comb():
    rng = np.random.default_rng(5)
    comb = two_tooth_comb(5)
    noise = LabeledOperator(comb.op.wires, 0.05 * rand_hermitian(16, rng))
    out = project_to_comb(comb.op + noise, S2222)
    assert out.verify(tol=1e-8).passed


@pytest.mark.parametrize(
    "dims, memory",
    [((2, 2), []), ((2, 2, 2, 2), [2]), ((2,) * 6, [2, 2]), ((3, 3, 3, 3), [3])],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_projection_matches_alternating_projections(dims, memory, seed):
    structure = CombStructure.standard(dims)
    rng = np.random.default_rng(20 + seed)
    comb = random_comb(structure, memory, seed)
    noise = 0.05 * rand_hermitian(structure.dim, rng)
    x = comb.op.matrix + noise
    want = alternating_projections(x, dims, float(structure.trace_value))
    assert want is not None
    got = project_to_comb(LabeledOperator(structure.wires, x), structure)
    assert np.abs(got.op.matrix - want).max() < 1e-12
    # The loop stops within tol of the affine set, and a partial trace can
    # enlarge that distance past TOL_VERIFY; the polished result is exact.
    report = got.verify()
    assert report.passed, report
    assert max(report.residuals) < 1e-14


@pytest.mark.parametrize(
    "dims",
    [
        (2, 2),
        (1, 3),
        (3, 1),
        (2, 3, 1, 2),
        (3, 3, 3, 3),
        (2, 2, 2, 2, 2, 2, 2, 2),
        (2, 1, 3, 2, 1, 2, 2, 1, 2, 1),
    ],
)
@pytest.mark.parametrize("field", ["real", "complex"])
def test_affine_projection_matches_its_definition(dims, field):
    rng = np.random.default_rng(len(dims))
    structure = CombStructure.standard(dims)
    D = structure.dim
    x = rand_hermitian(D, rng)
    if field == "real":
        x = x.real.copy()
    tv = float(structure.trace_value)
    coords = _Coordinates(None, structure.wires)
    k = coords.of(x)
    before = k.copy()
    got = _affine_projection(k, coords, tv)
    assert_array_equal(k, before)
    assert got.dtype == x.dtype
    assert_allclose(coords.matrix(got), depolarize_each_tail(x, dims, tv), atol=1e-12)
    assert_allclose(_affine_projection(got, coords, tv), got, atol=1e-12)
    report = verify_causality(LabeledOperator(structure.wires, coords.matrix(got)), structure)
    assert max(report.residuals) < 1e-12


def test_projection_budget_exhaustion():
    rng = np.random.default_rng(6)
    x = LabeledOperator(S2222.wires, 10.0 * rand_hermitian(16, rng))
    with pytest.raises(NoConvergenceError) as exc:
        project_to_comb(x, S2222, iters=1)
    assert isinstance(exc.value.best, QuantumComb)
    assert exc.value.diagnostics["gap"] > 0


def _anti_hermitian(dim, size, seed):
    """A random anti-Hermitian matrix of Frobenius norm size."""
    k = 1j * rand_hermitian(dim, np.random.default_rng(seed))
    return k * (size / np.linalg.norm(k))


def _forbidden(*args, **kwargs):
    raise AssertionError("a dense check re-formed the Hermitian part")


def test_verify_causality_forms_the_hermitian_part_once(monkeypatch):
    comb = two_tooth_comb(11)
    k = _anti_hermitian(16, 0.3, 11)
    r = LabeledOperator(comb.op.wires, comb.op.matrix + k)
    for name in ("hermitized", "is_hermitian", "eigh"):
        monkeypatch.setattr(LabeledOperator, name, _forbidden)
    report = verify_causality(r, S2222)
    assert not report.passed
    assert report.hermiticity == pytest.approx(0.3, rel=1e-12)
    lo = np.linalg.eigvalsh(comb.op.matrix)[0]
    assert report.min_eigenvalue == pytest.approx(lo, abs=1e-12)


def test_probabilistic_comb_rejects_non_hermitian_branches():
    comb = two_tooth_comb(12)
    k = LabeledOperator(comb.op.wires, _anti_hermitian(16, 0.85, 12))
    half = comb.op * 0.5
    with pytest.raises(InvalidBranchSumError, match="not Hermitian"):
        ProbabilisticComb([("a", half + k), ("b", half - k)], S2222)


# ---------------------------------------------------------------------------
# Probabilistic combs and the outcome register


def split_into_branches(comb, weights):
    return ProbabilisticComb(
        [(f"w{i}", comb.op * w) for i, w in enumerate(weights)],
        comb.structure,
    )


def test_probabilistic_comb_validation():
    comb = two_tooth_comb(9)
    p = split_into_branches(comb, [0.25, 0.75])
    assert p.outcome_ids == ("w0", "w1")
    with pytest.raises(IndexOutOfRangeError, match="'absent'"):
        p.branch("absent")
    with pytest.raises(DuplicateLabelError):
        ProbabilisticComb(
            [("x", comb.op * 0.5), ("x", comb.op * 0.5)], comb.structure
        )
    with pytest.raises(InvalidBranchSumError):
        ProbabilisticComb([], comb.structure)
    with pytest.raises(InvalidBranchSumError):
        split_into_branches(comb, [0.25, -0.25])
    with pytest.raises(InvalidBranchSumError):
        split_into_branches(comb, [0.25, 0.25])


def test_register_split_inverts_the_merge():
    rng = np.random.default_rng(15)
    ops = [LabeledOperator(S2222.wires, rand_hermitian(16, rng)) for _ in range(3)]
    ops[1] = ops[1].permuted(("3", "1", "0", "2"))
    merged, structure = _register_merge(ops, S2222)
    assert structure.teeth[-1][1].dim == 2 * 3
    split = _register_split(merged, S2222)
    assert len(split) == 3
    for got, op in zip(split, ops):
        assert got.wires == S2222.wires
        assert np.array_equal(got.matrix, op.permuted(S2222.labels).matrix)


def test_register_comb_recovers_branches_exactly():
    from qcombs import link_product

    comb = two_tooth_comb(12)
    p = split_into_branches(comb, [0.2, 0.3, 0.5])
    reg = register_comb(p)
    assert reg.verify().passed
    last_out = reg.structure.teeth[-1][1]
    assert last_out.dim == 2 * 3

    assert reg.op.wires[-1] == last_out
    split = LabeledOperator(reg.op.wires[:-1] + (Wire("o", 2), Wire("r", 3)), reg.op.matrix)
    for i, (oid, branch) in enumerate(p.branches):
        proj = np.zeros((3, 3))
        proj[i, i] = 1.0
        picked = link_product(split, LabeledOperator((Wire("r", 3),), proj))
        got = picked.permuted(("0", "1", "2", "o"))
        branch = branch.permuted(("0", "1", "2", "3"))
        want = LabeledOperator(branch.wires[:-1] + (Wire("o", 2),), branch.matrix)
        assert (got - want).norm() < 1e-12
