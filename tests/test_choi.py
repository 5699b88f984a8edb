import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcombs import (
    ChoiOperator,
    DimMismatchError,
    KrausMap,
    LabeledOperator,
    LabelMismatchError,
    NotPSDError,
    Wire,
    apply_choi,
    choi_to_kraus,
    haar_unitary,
    is_channel,
    kraus_to_choi,
    max_entangled,
)
from conftest import rand_hermitian, rand_kraus

IN = Wire("in", 2)
OUT = Wire("out", 3)


def random_channel(d_in, d_out, rank, seed):
    rng = np.random.default_rng(seed)
    ks = rand_kraus(d_in, d_out, rank, rng)
    return KrausMap(Wire("in", d_in), Wire("out", d_out), ks)


def random_state(d, seed):
    rng = np.random.default_rng(seed)
    h = rand_hermitian(d, rng)
    rho = h @ h.conj().T
    return rho / np.trace(rho)


def test_max_entangled_norm_and_dim_check():
    v = max_entangled((Wire("x", 3), Wire("y", 3)))
    assert np.linalg.norm(v.vector) ** 2 == pytest.approx(3)
    with pytest.raises(DimMismatchError):
        max_entangled((Wire("x", 2), Wire("y", 3)))


def test_kraus_validation():
    with pytest.raises(DimMismatchError):
        KrausMap(IN, OUT, [np.eye(2)])
    with pytest.raises(ValueError):
        KrausMap(IN, Wire("out", 2), [])


@pytest.mark.parametrize("dtype", [float, complex])
def test_channels_copy_the_callers_arrays(dtype):
    k = np.eye(2, dtype=dtype)
    kmap = KrausMap(IN, Wire("out", 2), [k])
    rho = np.diag([0.75, 0.25]).astype(dtype)
    out = apply_choi(kraus_to_choi(kmap), rho)
    k[0, 0] = rho[0, 0] = 0.0
    assert_allclose(kmap.kraus[0], np.eye(2))
    assert_allclose(out, np.diag([0.75, 0.25]))
    assert k.flags.writeable and rho.flags.writeable


def test_identity_channel_choi_is_maxent():
    kmap = KrausMap(Wire("in", 2), Wire("out", 2), [np.eye(2)])
    choi = kraus_to_choi(kmap)
    assert choi.out_labels == ("out",)
    assert choi.in_labels == ("in",)
    v = max_entangled((Wire("out", 2), Wire("in", 2)))
    assert_allclose(choi.op.matrix, v.outer().matrix, atol=1e-14)


def test_apply_choi_equals_kraus_action():
    for seed in range(30):
        d_in, d_out = 2 + seed % 2, 2 + (seed // 2) % 2
        rank = max(1 + seed % 3, -(-d_in // d_out))
        kmap = random_channel(d_in, d_out, rank, seed)
        choi = kraus_to_choi(kmap)
        rho = random_state(d_in, 1000 + seed)
        assert_allclose(apply_choi(choi, rho), kmap.apply(rho), atol=1e-12)
    with pytest.raises(DimMismatchError, match="state shape"):
        apply_choi(choi, np.eye(choi.in_dim + 1))


def test_unitary_choi_is_rank_one():
    u = haar_unitary(3, np.random.default_rng(5))
    kmap = KrausMap(Wire("in", 3), Wire("out", 3), [u])
    choi = kraus_to_choi(kmap)
    w = np.linalg.eigvalsh(choi.op.matrix)
    assert w[-1] == pytest.approx(3)
    assert np.all(np.abs(w[:-1]) < 1e-12)


def test_kraus_extraction_roundtrip():
    for seed in range(30):
        kmap = random_channel(2, 2 + seed % 2, 1 + seed % 2, 200 + seed)
        choi = kraus_to_choi(kmap)
        back = choi_to_kraus(choi)
        # Kraus representations are unique only up to isometry; compare the
        # Choi operators and the channel action instead.
        again = kraus_to_choi(back)
        assert_allclose(again.op.matrix, choi.op.matrix, atol=1e-10)
        rho = random_state(2, 300 + seed)
        assert_allclose(back.apply(rho), kmap.apply(rho), atol=1e-10)
    minus_one = -1.0 * LabeledOperator.identity(choi.op.wires)
    negative = ChoiOperator(minus_one, choi.out_labels, choi.in_labels)
    with pytest.raises(NotPSDError, match="negative eigenvalue"):
        choi_to_kraus(negative)
    two_outputs = ChoiOperator(choi.op, choi.out_labels + choi.in_labels, ())
    with pytest.raises(LabelMismatchError, match="one output and one input"):
        choi_to_kraus(two_outputs)


def test_is_channel():
    kmap = random_channel(2, 3, 2, 7)
    choi = kraus_to_choi(kmap)
    ok, residual = is_channel(choi)
    assert ok
    assert residual < 1e-12
    assert type(residual) is float

    bad = ChoiOperator(choi.op * 1.01, choi.out_labels, choi.in_labels)
    ok, residual = is_channel(bad)
    assert not ok
    assert residual > 1e-3


def test_is_channel_reports_a_non_hermitian_operator():
    choi = kraus_to_choi(random_channel(2, 3, 2, 9))
    # i (Z (x) H) with Z traceless on the output: anti-Hermitian, and its
    # partial trace over the output is zero, so only the defect is off.
    z = np.diag([1.0, -1.0, 0.0])
    h = np.array([[0.0, 1.0], [1.0, 0.0]])
    skew = LabeledOperator(choi.op.wires, 0.25j * np.kron(z, h))
    bad = ChoiOperator(choi.op + skew, choi.out_labels, choi.in_labels)
    ok, residual = is_channel(bad)
    assert not ok
    assert residual == pytest.approx(skew.norm(), rel=1e-12)


def test_choi_reorders_to_out_in():
    kmap = random_channel(2, 3, 2, 8)
    choi = kraus_to_choi(kmap)
    flipped = ChoiOperator(
        choi.op.permuted(("in", "out")), choi.out_labels, choi.in_labels
    )
    assert flipped.op.labels == ("out", "in")
    assert_allclose(flipped.op.matrix, choi.op.matrix, atol=1e-14)
    assert choi.out_dim == 3 and choi.in_dim == 2
