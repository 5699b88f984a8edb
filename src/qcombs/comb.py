"""Quantum combs: sequential circuit boards as single positive operators.

A comb with T teeth acts on wires ordered (in_0, out_0, in_1, out_1, ...):
even positions receive inputs, odd positions emit outputs, and tooth n may
depend on everything received up to its own input but on nothing later.
This no-signalling-from-the-future requirement is equivalent to a
telescoping family of linear constraints on the Choi operator R: tracing
out the last output wire must leave the identity on the last input wire
tensored with the Choi operator of the one-tooth-shorter comb,

    Tr_out_n[R^(n)] = I_in_n (x) R^(n-1),      R^(-1) = 1,

where R^(n-1) = Tr_tooth_n[R^(n)] / dim(in_n).  Together with positivity
these constraints carve out exactly the set of boards realizable as a
concatenation of channels with memory, which is the feasible set of every
optimization in this package.  One marginal chain (labeled._marginals)
evaluates them for reduced_comb and the affine projection in twirl, and
one judge, choi._feasibility, for verify_causality, choi.is_channel and
ProbabilisticComb's branches; project_to_comb is in solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .choi import CausalityReport, ChoiOperator, _feasibility
from .errors import (
    DimMismatchError,
    DimOverflowError,
    DuplicateLabelError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    InvalidBranchSumError,
    LabelMismatchError,
    SlotArityMismatchError,
)
from .haar import haar_isometry
from .labeled import (
    TOL_VERIFY,
    LabeledOperator,
    Wire,
    _Wired,
    _check_wires,
    _marginals,
    _total_dim,
)
from .link import link_product
from .twirl import TwirlSpec, _coordinates

#: Hard cap on any operator dimension materialized while generating,
#: projecting or solving combs or building their objectives (a D x D
#: complex matrix at D = 4096 is 256 MiB).
MAX_DIM = 4096


def _check_dim(dim: int, what: str, exponent: int = 1) -> None:
    """Refuse, before anything is built, a dimension dim**exponent over
    MAX_DIM.  When exponent * floor(log2 dim) exceeds 1024 the power is
    never formed: the message names it by that power of 2, a lower bound,
    so a message prints for any size."""
    bits = exponent * (dim.bit_length() - 1)
    if bits <= 1024 and dim**exponent <= MAX_DIM:
        return
    size = dim**exponent if bits <= 1024 else f"at least 2**{bits}"
    raise DimOverflowError(f"{what} needs dimension {size}, over the cap {MAX_DIM}")


@dataclass(frozen=True)
class CombStructure(_Wired):
    """Wire layout of a comb: an ordered tuple of (input, output) teeth."""

    teeth: tuple[tuple[Wire, Wire], ...]

    def __post_init__(self):
        if not self.teeth:
            raise InvalidArgumentError("a comb needs at least one tooth")
        _check_wires(self.wires)

    @classmethod
    def standard(cls, dims: Sequence[int]) -> "CombStructure":
        """Structure with wires labeled "0", "1", ... in comb order.

        ``dims`` lists the wire dimensions in the canonical order
        (in_0, out_0, in_1, out_1, ...) and must have even length.
        """
        if len(dims) % 2 != 0 or not dims:
            raise InvalidArgumentError(f"need a nonempty even number of dims, got {len(dims)}")
        wires = [Wire(str(i), d) for i, d in enumerate(dims)]
        return cls(tuple((wires[2 * k], wires[2 * k + 1]) for k in range(len(dims) // 2)))

    @property
    def n_teeth(self) -> int:
        return len(self.teeth)

    @property
    def wires(self) -> tuple[Wire, ...]:
        return tuple(w for pair in self.teeth for w in pair)

    @property
    def dim(self) -> int:
        return _total_dim(self.wires)

    @property
    def trace_value(self) -> int:
        """Trace forced on any causal comb: the product of input dims."""
        return _total_dim(in_w for in_w, _ in self.teeth)

    @property
    def slots(self) -> tuple[tuple[Wire, Wire], ...]:
        """Open slots as (source, destination) = (out_n, in_{n+1}) pairs."""
        return tuple(
            (self.teeth[n][1], self.teeth[n + 1][0]) for n in range(self.n_teeth - 1)
        )


def _check_labels(op: LabeledOperator, structure: CombStructure) -> None:
    if set(op.labels) != set(structure.labels):
        raise LabelMismatchError(
            f"operator wires {sorted(op.labels)} do not match structure wires "
            f"{sorted(structure.labels)}"
        )
    for w in structure.wires:
        if op.wire(w.label).dim != w.dim:
            raise DimMismatchError(
                f"wire {w.label!r} has dim {op.wire(w.label).dim} on the operator "
                f"but {w.dim} in the structure"
            )


class QuantumComb:
    """Choi operator of a deterministic comb together with its wire layout.

    The constructor checks labels and dimensions and stores the operator in
    canonical wire order; it does not re-verify causality, which remains the
    producer's responsibility (see verify_causality).  twirl is not an
    argument and is None unless solve made the comb: solve sets it on
    R_star to the twirl of the objective, whose fixed algebra holds R_star,
    and verify then certifies positivity on that twirl's blocks.  A twirl
    that does not fix the operator can only make verify fail.
    """

    __slots__ = ("op", "structure", "twirl")

    def __init__(self, op: LabeledOperator, structure: CombStructure):
        _check_labels(op, structure)
        object.__setattr__(self, "op", op.permuted(structure.labels))
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "twirl", None)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumComb is immutable")

    @property
    def n_teeth(self) -> int:
        return self.structure.n_teeth

    def verify(self, tol: float = TOL_VERIFY) -> CausalityReport:
        return verify_causality(self.op, self.structure, tol, self.twirl)

    def __repr__(self):
        dims = "x".join(str(d) for d in self.structure.dims)
        return f"QuantumComb({self.n_teeth} teeth, wires {dims})"


class ProbabilisticComb:
    """Comb-shaped instrument: one positive branch per outcome.

    Branches are keyed by opaque outcome ids.  The constructor verifies
    that each branch is Hermitian and positive and that their sum is a
    deterministic comb, both with choi._feasibility, to within TOL_VERIFY.
    """

    __slots__ = ("branches", "structure")

    def __init__(
        self,
        branches: Sequence[tuple[str, LabeledOperator]],
        structure: CombStructure,
    ):
        branches = tuple((str(oid), op) for oid, op in branches)
        if not branches:
            raise InvalidBranchSumError("need at least one branch")
        ids = [oid for oid, _ in branches]
        if len(set(ids)) != len(ids):
            raise DuplicateLabelError(f"outcome ids repeat: {ids}")
        ordered = []
        for oid, op in branches:
            _check_labels(op, structure)
            op = op.permuted(structure.labels)
            r = _feasibility(op.matrix, (), _coordinates(None, op.wires), TOL_VERIFY)
            if not r.passed:
                raise InvalidBranchSumError(
                    f"branch {oid!r} is not Hermitian and positive: defect "
                    f"{r.hermiticity:.3e}, min eigenvalue {r.min_eigenvalue:.3e}"
                )
            ordered.append((oid, op))
        total = sum((op for _, op in ordered[1:]), ordered[0][1])
        report = verify_causality(total, structure)
        if not report.passed:
            raise InvalidBranchSumError(
                "branch sum is not a deterministic comb: "
                f"residuals {report.residuals}, min eig {report.min_eigenvalue:.3e}"
            )
        object.__setattr__(self, "branches", tuple(ordered))
        object.__setattr__(self, "structure", structure)

    def __setattr__(self, name, value):
        raise AttributeError("ProbabilisticComb is immutable")

    @property
    def outcome_ids(self) -> tuple[str, ...]:
        return tuple(oid for oid, _ in self.branches)

    def branch(self, outcome_id: str) -> LabeledOperator:
        for oid, op in self.branches:
            if oid == outcome_id:
                return op
        raise IndexOutOfRangeError(f"no branch with outcome id {outcome_id!r}")

    def __repr__(self):
        return (
            f"ProbabilisticComb({len(self.branches)} branches, "
            f"{self.structure.n_teeth} teeth)"
        )


def reduced_comb(R: LabeledOperator, structure: CombStructure, n: int) -> LabeledOperator:
    """Comb left after discarding teeth n+1..N: R's marginal on the wires
    up to out_n (labeled._marginals) over the discarded input dimensions.

    n = N returns R; n = -1 telescopes everything away, leaving the scalar
    operator 1 for any causal comb.
    """
    last = structure.n_teeth - 1
    if not -1 <= n <= last:
        raise IndexOutOfRangeError(
            f"reduction level {n} outside [-1, {last}] for {structure.n_teeth} teeth"
        )
    _check_labels(R, structure)
    mat = R.permuted(structure.labels).matrix
    c = _total_dim(in_w for in_w, _ in structure.teeth[n + 1 :])
    marg = _marginals(mat[None], structure.dims[2 * n + 2 :])[0][0]
    return LabeledOperator._wrap(structure.wires[: 2 * n + 2], marg / c)


def verify_causality(
    R: LabeledOperator,
    structure: CombStructure,
    tol: float = TOL_VERIFY,
    twirl: TwirlSpec | None = None,
) -> CausalityReport:
    """Check positivity and the telescoping causality constraints of R.

    R is put in comb order and judged by choi._feasibility: it passes iff
    every level residual, the hermiticity and minus a lower bound on the
    least eigenvalue of its Hermitian part are at most tol, and a
    non-Hermitian R fails and never raises; a tol that is not >= 0 raises
    InvalidArgumentError.  The bound is taken on the
    blocks of twirl when one is given, and on the dense matrix otherwise;
    it never exceeds the least eigenvalue, so a twirl that does not fix R
    can only make the check fail.  Under a twirl, R passes from the
    coordinates K of that one read when the residuals and hermiticity of
    the operator of K pass with allowances for R's distance from it added,
    and the report then gives those of the operator of K; any other R is
    judged and reported on its own dense residuals and hermiticity.
    """
    _check_labels(R, structure)
    mat = R.permuted(structure.labels).matrix
    return _feasibility(mat, structure.dims, _coordinates(twirl, structure.wires), tol)


def random_comb(
    structure: CombStructure, memory_dims: Sequence[int], seed: int
) -> QuantumComb:
    """Draw a comb by concatenating Haar-random isometric channels.

    Tooth k applies an isometry (mem_{k-1} (x) in_k) -> (out_k (x) mem_k)
    with memory dimensions taken from memory_dims (length n_teeth - 1); the
    final environment is sized as dim(mem_{N-1}) * dim(in_N) and traced out.
    Each isometry is contracted into Psi, the Choi vector of the teeth so
    far with one column per index of the open memory, and the comb is
    Psi Psi^dagger.  The cap checks D, then each isometry's rows before it
    is drawn, so nothing larger than D x D or D x rows is built.
    The draw is a deterministic function of the seed, an int >= 0.
    """
    T = structure.n_teeth
    memory_dims = tuple(int(m) for m in memory_dims)
    if len(memory_dims) != T - 1:
        raise InvalidArgumentError(
            f"need {T - 1} memory dims for {T} teeth, got {len(memory_dims)}"
        )
    if seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed}")
    _check_dim(structure.dim, "random_comb")

    rng = np.random.default_rng(seed)
    psi = np.ones((1, 1))
    for k, (in_w, out_w) in enumerate(structure.teeth):
        m_prev = psi.shape[1]
        m_next = memory_dims[k] if k < T - 1 else m_prev * in_w.dim  # environment
        a, b = m_prev * in_w.dim, out_w.dim * m_next
        if b < a:
            raise InvalidArgumentError(
                f"tooth {k}: no isometry from dim {a} into dim {b}; "
                f"increase memory_dims[{k}]"
            )
        _check_dim(b, f"the isometry of tooth {k}")
        v = haar_isometry(b, a, rng).reshape(out_w.dim, m_next, m_prev, in_w.dim)
        psi = np.einsum("xm,oqmi->xioq", psi, v).reshape(-1, m_next)
    return QuantumComb(LabeledOperator._wrap(structure.wires, psi @ psi.conj().T), structure)


CombLike = Union[LabeledOperator, ChoiOperator, QuantumComb]


def _as_operator(x: CombLike) -> LabeledOperator:
    if isinstance(x, LabeledOperator):
        return x
    if isinstance(x, (ChoiOperator, QuantumComb)):
        return x.op
    raise TypeError(f"cannot interpret {type(x).__name__} as a labeled operator")


def supermap_apply(comb: QuantumComb, inputs: Sequence[CombLike]) -> ChoiOperator:
    """Insert circuit fragments into the comb's open slots.

    Slot n connects out_n to in_{n+1}, and an input fills the slots whose
    wire labels it carries: it must carry exactly the wires of one or more
    consecutive slots (LabelMismatchError otherwise), and no slot may be
    filled twice (SlotArityMismatchError).  The inputs are contracted in
    the order given.  Unfilled slots stay open, so partial insertion
    returns the residual board.  The result is a Choi operator whose
    outputs are the remaining odd-position wires and whose inputs are the
    remaining even-position wires.
    """
    slot_of = {}
    for n, (out_w, in_w) in enumerate(comb.structure.slots):
        slot_of[out_w.label] = slot_of[in_w.label] = n
    filled: set[int] = set()
    ops = [_as_operator(x) for x in inputs]
    for op in ops:
        took = sorted({slot_of.get(lbl, -1) for lbl in op.labels})
        # Sorted distinct slots are consecutive when they span len(took).
        consecutive = bool(took) and took[0] >= 0 and took[-1] - took[0] < len(took)
        if not consecutive or len(op.labels) != 2 * len(took):
            raise LabelMismatchError(
                f"input wires {sorted(op.labels)} are not the wires of "
                f"consecutive slots of the comb"
            )
        if filled.intersection(took):
            raise SlotArityMismatchError(
                f"slots {sorted(filled.intersection(took))} filled more than once"
            )
        filled.update(took)

    result = comb.op
    for op in ops:
        result = link_product(result, op)

    consumed = {lbl for op in ops for lbl in op.labels}
    teeth = comb.structure.teeth
    out_labels = [w.label for _, w in teeth if w.label not in consumed]
    in_labels = [w.label for w, _ in teeth if w.label not in consumed]
    return ChoiOperator(result, out_labels, in_labels)


def _register_merge(
    ops: Sequence[LabeledOperator], structure: CombStructure
) -> tuple[LabeledOperator, CombStructure]:
    """sum_i ops[i] (x) |i><i|, with the register merged into the last output.

    Returns the merged operator and its structure, which is structure with
    the last output widened to dim(out_N) * len(ops); the merged wire keeps
    the last output's label, and the register is its fastest index: ops[i]
    fills block (i, i) of the six-axis view that _register_split reads.
    """
    k, D = len(ops), structure.dim
    last_in, last_out = structure.teeth[-1]
    mats = [op.permuted(structure.labels).matrix for op in ops]
    merged = np.zeros((D * k, D * k), dtype=np.result_type(*mats))
    x6 = merged.reshape((D // last_out.dim, last_out.dim, k) * 2)
    for i, mat in enumerate(mats):
        x6[:, :, i, :, :, i] = mat.reshape(x6.shape[:2] * 2)
    merged_wire = Wire(last_out.label, last_out.dim * k)
    big = CombStructure(structure.teeth[:-1] + ((last_in, merged_wire),))
    return LabeledOperator._wrap(big.wires, merged), big


def _register_split(
    merged: LabeledOperator, structure: CombStructure
) -> list[LabeledOperator]:
    """The ops of _register_merge(ops, structure), in structure's wire order."""
    D, out = structure.dim, structure.teeth[-1][1]
    k = merged.wire(out.label).dim // out.dim
    x6 = merged.permuted(structure.labels).matrix.reshape((D // out.dim, out.dim, k) * 2)
    blocks = [x6[:, :, i, :, :, i].reshape(D, D) for i in range(k)]
    return [LabeledOperator._wrap(structure.wires, b) for b in blocks]


def register_comb(p: ProbabilisticComb) -> QuantumComb:
    """Absorb the outcomes into a classical register on the last output.

    The register carries one orthogonal state per branch and is merged into
    the final output wire, so the result is a deterministic comb whose last
    output has dimension dim(out_N) * (number of branches).  Linking with
    the register projector onto outcome i recovers branch i exactly.
    """
    merged, structure = _register_merge([op for _, op in p.branches], p.structure)
    return QuantumComb(merged, structure)
