"""Choi representations of quantum channels.

A channel from wire ``a`` to wire ``b`` is stored as the operator obtained
by acting with the channel on one half of the unnormalized maximally
entangled pair on ``a``: the result lives on the wire pair ``(b, a)``,
output first.  Action on a state recovers the channel:
``C(rho) = Tr_in[(I_out (x) rho^T) C]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, LabelMismatchError, NotPSDError
from .labeled import LabeledOperator, LabeledVector, Wire, _frozen, _total_dim
from .labeled import _defect_and_min_eigenvalue
from .link import link_product

# Eigenvalues below this absolute threshold are dropped when extracting
# Kraus operators from a Choi operator.
KRAUS_EIG_THRESHOLD = 1e-12


def max_entangled(wires: Sequence[Wire]) -> LabeledVector:
    """Unnormalized maximally entangled vector ``sum_n |n>|n>`` on two wires.

    Both wires must have the same dimension; the squared norm is that
    dimension.
    """
    w1, w2 = wires
    if w1.dim != w2.dim:
        raise DimMismatchError(
            f"wires {w1.label!r} and {w2.label!r} differ in dimension"
        )
    d = w1.dim
    vec = np.eye(d).reshape(-1)
    return LabeledVector((w1, w2), vec)


@dataclass(frozen=True)
class KrausMap:
    """A completely positive map given by a list of Kraus operators."""

    in_wire: Wire
    out_wire: Wire
    kraus: tuple[np.ndarray, ...]

    def __init__(self, in_wire: Wire, out_wire: Wire, kraus: Sequence[np.ndarray]):
        ops = []
        for k in kraus:
            k = _frozen(np.array(k))
            if k.shape != (out_wire.dim, in_wire.dim):
                raise DimMismatchError(
                    f"Kraus operator of shape {k.shape} does not map "
                    f"dim {in_wire.dim} to dim {out_wire.dim}"
                )
            ops.append(k)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        object.__setattr__(self, "in_wire", in_wire)
        object.__setattr__(self, "out_wire", out_wire)
        object.__setattr__(self, "kraus", tuple(ops))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Direct action ``sum_k K rho K^dagger`` on a density matrix."""
        rho = np.asarray(rho)
        return sum(k @ rho @ k.conj().T for k in self.kraus)


class ChoiOperator:
    """A labeled operator tagged with which wires are outputs and inputs.

    The wire order is outputs first, then inputs.
    """

    __slots__ = ("op", "out_labels", "in_labels")

    def __init__(self, op: LabeledOperator, out_labels: Sequence[str], in_labels: Sequence[str]):
        out_labels = tuple(out_labels)
        in_labels = tuple(in_labels)
        if tuple(op.labels) != out_labels + in_labels:
            op = op.permuted(out_labels + in_labels)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "out_labels", out_labels)
        object.__setattr__(self, "in_labels", in_labels)

    def __setattr__(self, name, value):
        raise AttributeError("ChoiOperator is immutable")

    @property
    def out_dim(self) -> int:
        return _total_dim(self.op.wire(lbl) for lbl in self.out_labels)

    @property
    def in_dim(self) -> int:
        return _total_dim(self.op.wire(lbl) for lbl in self.in_labels)

    def __repr__(self):
        return f"ChoiOperator(out={self.out_labels}, in={self.in_labels})"


def kraus_to_choi(kmap: KrausMap) -> ChoiOperator:
    """Choi operator of a Kraus map on the wire pair ``(out, in)``."""
    # (K (x) I) sum_n |n>|n> has entry K[a, n] at index (a, n).
    mat = sum(np.outer(k.reshape(-1), k.reshape(-1).conj()) for k in kmap.kraus)
    op = LabeledOperator._wrap((kmap.out_wire, kmap.in_wire), mat)
    return ChoiOperator(op, (kmap.out_wire.label,), (kmap.in_wire.label,))


def apply_choi(choi: ChoiOperator, rho: np.ndarray) -> np.ndarray:
    """Act with a channel, given its Choi operator, on a density matrix."""
    rho = np.asarray(rho)
    d_in = choi.in_dim
    if rho.shape != (d_in, d_in):
        raise DimMismatchError(
            f"state shape {rho.shape} does not match input dimension {d_in}"
        )
    # Tr_in[(I_out (x) rho^T) C] is the link product of rho with C.
    in_wires = tuple(choi.op.wire(lbl) for lbl in choi.in_labels)
    return link_product(LabeledOperator(in_wires, rho), choi.op).matrix


def choi_to_kraus(choi: ChoiOperator) -> KrausMap:
    """Extract Kraus operators from a positive Choi operator.

    Eigenvectors with eigenvalue below ``KRAUS_EIG_THRESHOLD`` are dropped.
    The Choi operator must be on a single output and a single input wire.

    Raises:
        NotPSDError: if an eigenvalue is below ``-KRAUS_EIG_THRESHOLD``.
    """
    if len(choi.out_labels) != 1 or len(choi.in_labels) != 1:
        raise LabelMismatchError("Kraus extraction expects one output and one input wire")
    w, v = choi.op.eigh()
    if w[0] < -KRAUS_EIG_THRESHOLD:
        raise NotPSDError(f"Choi operator has negative eigenvalue {w[0]:.3e}")
    out_w = choi.op.wire(choi.out_labels[0])
    in_w = choi.op.wire(choi.in_labels[0])
    kraus = []
    for i in range(len(w) - 1, -1, -1):
        if w[i] < KRAUS_EIG_THRESHOLD:
            break
        k = np.sqrt(w[i]) * v[:, i].reshape(out_w.dim, in_w.dim)
        kraus.append(k)
    if not kraus:
        kraus = [np.zeros((out_w.dim, in_w.dim))]
    return KrausMap(in_w, out_w, kraus)


def is_channel(choi: ChoiOperator, tol: float = 1e-9) -> tuple[bool, float]:
    """Check the trace-preserving and positivity conditions of a Choi operator.

    Returns:
        ``(ok, residual)`` where ``residual`` is the largest of the
        Frobenius distance of the reduced input marginal from the identity,
        the Hermitian defect and the most negative eigenvalue's magnitude
        (see labeled._defect_and_min_eigenvalue); it never raises.
    """
    marg = choi.op.ptrace(choi.out_labels)
    ident = LabeledOperator.identity(marg.wires)
    tp_residual = (marg - ident).norm()
    defect, min_eig = _defect_and_min_eigenvalue(choi.op.matrix)
    residual = max(tp_residual, defect, -min_eig)
    return residual <= tol, float(residual)
