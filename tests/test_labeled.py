import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcombs import (
    DuplicateLabelError,
    InvalidArgumentError,
    LabeledOperator,
    LabeledVector,
    NotAPermutationError,
    NotHermitianError,
    Wire,
    ginibre,
    haar_isometry,
    link_product,
)
from conftest import partial_trace, partial_transpose

A = Wire("a", 2)
B = Wire("b", 3)
C = Wire("c", 2)


def rand_op(wires, seed):
    rng = np.random.default_rng(seed)
    d = int(np.prod([w.dim for w in wires]))
    return LabeledOperator(wires, ginibre(d, d, rng))


def test_wire_validation():
    with pytest.raises(ValueError):
        Wire("", 2)
    with pytest.raises(ValueError):
        Wire("a", 0)
    with pytest.raises(ValueError):
        Wire("a", 2.0)
    with pytest.raises(ValueError):
        Wire("a", True)


def test_constructor_checks_shape_and_labels():
    with pytest.raises(ValueError):
        LabeledOperator((A, B), np.eye(5))
    with pytest.raises(DuplicateLabelError):
        LabeledOperator((A, Wire("a", 3)), np.eye(6))


def test_identity_scalar_trace():
    ident = LabeledOperator.identity((A, B))
    assert ident.dim == 6
    assert np.trace(ident.matrix) == pytest.approx(6)
    s = LabeledOperator((), [[2.5]])
    assert s.dim == 1
    assert s.labels == ()
    assert np.trace(s.matrix) == pytest.approx(2.5)


def test_arithmetic_aligns_wire_order():
    x = rand_op((A, B), 1)
    y = rand_op((B, A), 2)
    left = (x + y).permuted(("a", "b")).matrix
    right = x.matrix + y.permuted(("a", "b")).matrix
    assert_allclose(left, right, atol=1e-14)
    z = x - y
    assert_allclose((z + y).permuted(x.labels).matrix, x.matrix, atol=1e-14)
    assert_allclose((x * 2.0).matrix, 2.0 * x.matrix)


def test_hermitized():
    x = rand_op((A, B), 3)
    h = x.hermitized()
    assert h.is_hermitian()
    assert_allclose(h.matrix, (x.matrix + x.matrix.conj().T) / 2)


def test_is_hermitian_is_false_when_the_norm_overflows():
    # ||M - M^dagger|| <= eps ||M|| would read inf <= inf and pass.
    skew = np.array([[1.0, 1.0], [-1.0, 1.0]]) * 2.0**520
    with np.errstate(over="ignore"):
        assert not LabeledOperator((A,), skew).is_hermitian()


def test_haar_isometry_needs_dim_out_at_least_dim_in():
    with pytest.raises(InvalidArgumentError, match="dim_out >= dim_in"):
        haar_isometry(1, 2, np.random.default_rng(0))


def test_tensor_is_kron_in_order():
    x = rand_op((A,), 5)
    y = rand_op((B,), 6)
    t = x.tensor(y)
    assert t.labels == ("a", "b")
    assert_allclose(t.matrix, np.kron(x.matrix, y.matrix))


def test_permuted_matches_manual_kron():
    x = rand_op((A,), 7)
    y = rand_op((B,), 8)
    z = rand_op((C,), 9)
    t = x.tensor(y).tensor(z)
    p = t.permuted(("c", "a", "b"))
    manual = np.kron(z.matrix, np.kron(x.matrix, y.matrix))
    assert_allclose(p.matrix, manual, atol=1e-14)
    with pytest.raises(NotAPermutationError):
        t.permuted(("a", "b"))
    with pytest.raises(NotAPermutationError):
        t.permuted(("a", "b", "b"))


def test_ptrace():
    # The tests' partial-trace oracle, on a product whose traces are known.
    x = rand_op((A,), 10)
    y = rand_op((B,), 11)
    t = x.tensor(y)
    wires, rx = partial_trace(t.wires, t.matrix, ["b"])
    assert wires == (A,)
    assert_allclose(rx, x.matrix * np.trace(y.matrix), atol=1e-13)
    # tracing everything leaves a scalar
    wires, s = partial_trace(t.wires, t.matrix, ["a", "b"])
    assert wires == ()
    assert np.trace(s) == pytest.approx(np.trace(x.matrix) * np.trace(y.matrix))
    with pytest.raises(ValueError):
        partial_trace(t.wires, t.matrix, ["nope"])


def test_ptranspose_involution_and_spectrum():
    # The tests' partial-transpose oracle: an involution, and the transpose
    # when it covers every wire.
    x = rand_op((A, B), 12).hermitized()
    pt = partial_transpose(x.wires, x.matrix, ["a"])
    assert_allclose(partial_transpose(x.wires, pt, ["a"]), x.matrix, atol=1e-14)
    full = partial_transpose(x.wires, x.matrix, ["a", "b"])
    assert_allclose(full, x.matrix.T, atol=1e-14)


def test_eigh_requires_hermitian():
    x = rand_op((A,), 14)
    with pytest.raises(NotHermitianError):
        x.eigh()
    h = x.hermitized()
    w, v = h.eigh()
    assert_allclose((v * w) @ v.conj().T, h.matrix, atol=1e-12)


def test_immutability():
    x = rand_op((A,), 16)
    with pytest.raises(AttributeError):
        x.matrix = np.eye(2)
    with pytest.raises(ValueError):
        x.matrix[0, 0] = 1.0


def test_vector_outer_and_tensor():
    rng = np.random.default_rng(17)
    v = LabeledVector((A,), rng.standard_normal(2) + 1j * rng.standard_normal(2))
    w = LabeledVector((B,), rng.standard_normal(3) + 1j * rng.standard_normal(3))
    t = v.tensor(w)
    assert t.labels == ("a", "b")
    norm = np.linalg.norm
    assert norm(t.vector) == pytest.approx(norm(v.vector) * norm(w.vector))
    outer = t.outer()
    assert outer.is_hermitian()
    assert np.trace(outer.matrix) == pytest.approx(norm(t.vector) ** 2)
    perm = t.permuted(("b", "a"))
    assert_allclose(perm.outer().matrix, outer.permuted(("b", "a")).matrix, atol=1e-14)


# ---------------------------------------------------------------------------
# The field of the data


@pytest.mark.parametrize(
    "data, field",
    [
        (np.eye(2, dtype=bool), np.float64),
        (np.eye(2, dtype=np.uint8), np.float64),
        (np.eye(2, dtype=int), np.float64),
        (np.eye(2, dtype=np.float32), np.float64),
        (np.eye(2), np.float64),
        ([[1, 0], [0, 1]], np.float64),
        (np.eye(2, dtype=np.complex64), np.complex128),
        (np.eye(2, dtype=complex), np.complex128),
        ([[1, 0], [0, 1j]], np.complex128),
    ],
)
def test_data_keep_their_field(data, field):
    op = LabeledOperator((A,), data)
    assert op.matrix.dtype == field
    assert not op.matrix.flags.writeable
    assert_allclose(op.matrix, np.asarray(data))
    vec = LabeledVector((A,), np.asarray(data)[1])
    assert vec.vector.dtype == field


@pytest.mark.parametrize("dtype", [float, complex])
def test_objects_copy_the_callers_array(dtype):
    big = np.arange(8, dtype=dtype).reshape(4, 2)
    mat = np.eye(2, dtype=dtype)
    vec = np.array([1, 0], dtype=dtype)
    ops = [LabeledOperator((A,), mat), LabeledOperator((A,), big[:2])]
    vecs = [LabeledVector((A,), vec), LabeledVector((A,), big[2])]
    mat[0, 0] = big[0, 0] = vec[0] = big[2, 0] = 5
    assert_allclose(ops[0].matrix, np.eye(2))
    assert_allclose(ops[1].matrix, [[0, 1], [2, 3]])
    assert_allclose(vecs[0].vector, [1, 0])
    assert_allclose(vecs[1].vector, [4, 5])
    assert mat.flags.writeable and vec.flags.writeable and big.flags.writeable
    results = [ops[0] + ops[1], ops[1].hermitized(), ops[0] * 2.0]
    results.append(vecs[1].outer())
    assert not any(r.matrix.flags.writeable for r in results)


def test_non_numeric_data_raise_type_error():
    one = (Wire("w", 1),)
    with pytest.raises(TypeError):
        LabeledOperator(one, np.array([["1.5"]]))
    with pytest.raises(TypeError):
        LabeledOperator(one, np.array([[1.5]], dtype=object))
    with pytest.raises(TypeError):
        LabeledVector(one, np.array(["1"]))


def test_promotion_carries_the_field():
    real_ab = LabeledOperator((A, B), np.arange(36.0).reshape(6, 6))
    real_bc = LabeledOperator((B, C), np.eye(6))
    cplx_bc = real_bc * 1j
    assert real_ab.tensor(LabeledOperator.identity((C,))).matrix.dtype == np.float64
    cplx_c = LabeledOperator.identity((C,)) * 1j
    assert real_ab.tensor(cplx_c).matrix.dtype == np.complex128
    assert link_product(real_ab, real_bc).matrix.dtype == np.float64
    assert link_product(real_ab, cplx_bc).matrix.dtype == np.complex128
    assert link_product(real_ab, LabeledOperator.identity((A,))).matrix.dtype == np.float64
    assert (real_bc + cplx_bc).matrix.dtype == np.complex128
    assert (real_bc * 2.0).matrix.dtype == np.float64
