"""Choi representations of quantum channels.

A channel from wire ``a`` to wire ``b`` is stored as the operator obtained
by acting with the channel on one half of the unnormalized maximally
entangled pair on ``a``: the result lives on the wire pair ``(b, a)``,
output first.  Action on a state recovers the channel:
``C(rho) = Tr_in[(I_out (x) rho^T) C]``.  A channel is the one-tooth comb,
so _feasibility here judges channels, combs and instrument branches alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, InvalidArgumentError, LabelMismatchError, NotPSDError
from .labeled import TOL_VERIFY, LabeledOperator, LabeledVector, Wire, _frozen, _total_dim
from .labeled import _level_residuals
from .link import link_product
from .twirl import _CHUNK, _Coordinates, _coordinates

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
            raise InvalidArgumentError("at least one Kraus operator is required")
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


@dataclass(frozen=True)
class CausalityReport:
    """Outcome of _feasibility, with quantitative slack per level.

    residuals[n] is the Frobenius norm of Tr_out_n[R^(n)] - I_in_n (x) R^(n-1),
    the violation of the constraint cutting the comb after tooth n.
    min_eigenvalue is a certified lower bound on the least eigenvalue of
    the Hermitian part of R, never above it (_Coordinates.eigenvalue_floor),
    and hermiticity is ||R - R^dagger||_F / 2.  On a board passed from the
    coordinates K of its twirl, residuals and hermiticity are those of the
    operator of K, and the pass allowed for R's distance from it (see
    _feasibility); on every other board they are R's own.
    """

    passed: bool
    residuals: tuple[float, ...]
    min_eigenvalue: float
    hermiticity: float
    tol: float

    @property
    def violation(self) -> float:
        """Worst of the level residuals, the negative part of the smallest
        eigenvalue and the hermiticity: 0 on an exact comb."""
        return max(*self.residuals, -self.min_eigenvalue, 0.0, self.hermiticity)

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: max level residual {max(self.residuals, default=0.0):.3e}, "
            f"min eigenvalue {self.min_eigenvalue:+.3e}, "
            f"hermiticity {self.hermiticity:.3e} (tol {self.tol:.1e})"
        )


def _hermitian_defect(mat: np.ndarray) -> float:
    """||M - M^dagger||_F / 2, summed over strips of about _CHUNK entries:
    rows i..j of M against the conjugate of its columns i..j, so M -
    M^dagger is never formed."""
    step = max(1, _CHUNK // len(mat))
    squares = 0.0
    for i in range(0, len(mat), step):
        strip = mat[i : i + step] - mat[:, i : i + step].conj().T
        squares += float(np.vdot(strip, strip).real)
    return squares**0.5 / 2.0


def _feasibility(
    mat: np.ndarray, dims: Sequence[int], coords: _Coordinates, tol: float
) -> CausalityReport:
    """Judge the Choi matrix mat of a board whose wires have dims in comb
    order: its level residuals (labeled._level_residuals), the defect
    ||M - M^dagger|| / 2 and coords.eigenvalue_floor of the Hermitian part
    must each be within tol.  mat is read once, (K, r) = coords.read(mat),
    and the floor comes from that read.  A board that fails never raises;
    a tol that is not >= 0 (negative or nan) raises InvalidArgumentError.
    With dims = () only positivity is judged.

    Under a twirl (coords has a twirled wire) the residuals and the defect
    are first taken on K, and a board whose floor passes also passes if
    each of them still passes with failing-side allowances added; it then
    reports those of the operator W of K (coords.level_residuals and ||K -
    hermitian(K)||_F).  G_n = Delta_{2n+1} - Delta_{2n} (see
    level_residuals) and the anti-Hermitian part A(X) = (X - X^dagger) / 2
    are orthogonal projections that commute with the twirl, and level 0 is
    sqrt(t_1) / c_0 times the distance of Delta_1 X, a projection too, from
    (c_0 / t_1) I.  As ||mat - W||_F <= r, level n of mat exceeds that of W
    by at most sqrt(t_{2n+1}) r / c_n, and ||A(mat)||_F exceeds ||A(W)||_F
    by at most r.  The computed values stand for those of W up to
    coords.residual_error = (a, b): b ||K||_F covers the distance of the
    stored units from the exact ones, the defect of each depolarizer C_w
    (C_U (x) C_V under a second unitary) as a map on them and the rounding
    of the marginal chain, the trace and the products with C (A(W) has
    coordinates K - hermitian(K) exactly, as E_ji = E_ij^T); a covers the
    rounding of the final norms and the Gram defect 2 delta + delta^2 of
    the exact units, delta >= ||S^T S - I||_2 for S = Q_U (x) Q_V, so that
    ||sum_a E_a (x) Y_a||_F <= (1 + 2 delta + delta^2) ||Y||_F.
    Each computed x therefore bounds its quantity on mat by

        (1 + a) x + scale (r + b ||K||_F),

    scale sqrt(t_{2n+1}) / c_n for level n and 1 for the defect, and the
    board passes when each such bound is at most tol.  Every other board,
    and every board without a twirl, is judged and reported on the dense
    residuals and defect (_hermitian_defect: no Hermitian part of mat and
    no D x D difference built), so an allowance that is too large only
    sends a board to the dense route.
    """
    if not tol >= 0:
        raise InvalidArgumentError(f"tol must be >= 0, got {tol}")
    k, r = coords.read(mat)
    lo = coords.eigenvalue_floor(k, r)
    if coords._dr < coords.dim and -lo <= tol:
        residuals = tuple(coords.level_residuals(k, dims))
        hermiticity = float(np.linalg.norm(k - coords.hermitian(k)))
        rel, per_k = coords.residual_error
        slack = r + per_k * float(np.linalg.norm(k))
        ins = dims[::2]
        scales = [
            math.prod(dims[2 * n + 1 :]) ** 0.5 / math.prod(ins[n + 1 :])
            for n in range(len(ins))
        ]
        if all(
            (1 + rel) * x + sc * slack <= tol
            for x, sc in zip((*residuals, hermiticity), (*scales, 1.0))
        ):
            return CausalityReport(True, residuals, lo, hermiticity, tol)
    residuals = tuple(_level_residuals(mat, dims))
    hermiticity = _hermitian_defect(mat)
    passed = all(x <= tol for x in (*residuals, -lo, hermiticity))
    return CausalityReport(passed, residuals, lo, hermiticity, tol)


def is_channel(choi: ChoiOperator, tol: float = TOL_VERIFY) -> tuple[bool, float]:
    """Check the trace-preserving and positivity conditions of a Choi operator.

    Returns:
        ``(ok, residual)``: _feasibility of the one-tooth comb (inputs,
        outputs) on one dense block, and its violation, the largest of the
        trace residual, the Hermitian defect and the magnitude of a lower
        bound on the most negative eigenvalue.  A channel that fails never
        raises; a tol that is not >= 0 raises InvalidArgumentError.
    """
    op = choi.op.permuted(choi.in_labels + choi.out_labels)
    dims = (choi.in_dim, choi.out_dim)
    report = _feasibility(op.matrix, dims, _coordinates(None, op.wires), tol)
    return report.passed, float(report.violation)
