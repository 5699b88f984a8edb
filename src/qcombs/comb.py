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
optimization in this package.  The projections onto that set sit beside
their users: the affine one in objective, project_to_comb in solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .choi import ChoiOperator
from .errors import (
    DimMismatchError,
    DimOverflowError,
    DuplicateLabelError,
    IndexOutOfRangeError,
    InvalidBranchSumError,
    LabelMismatchError,
    SlotArityMismatchError,
)
from .haar import haar_isometry
from .labeled import (
    LabeledOperator,
    LabeledVector,
    Wire,
    _Wired,
    _check_wires,
    _defect_and_min_eigenvalue,
    _total_dim,
)
from .link import link_product

#: Hard cap on any operator dimension materialized while generating,
#: projecting or solving combs or building their objectives (a D x D
#: complex matrix at D = 4096 is 256 MiB).
MAX_DIM = 4096

#: Default verification tolerance.
TOL_VERIFY = 1e-9


def _check_dim(dim: int, what: str) -> None:
    """Refuse, before anything is built, a dimension over MAX_DIM."""
    if dim > MAX_DIM:
        raise DimOverflowError(f"{what} needs dimension {dim}, over the cap {MAX_DIM}")


@dataclass(frozen=True)
class CombStructure(_Wired):
    """Wire layout of a comb: an ordered tuple of (input, output) teeth."""

    teeth: tuple[tuple[Wire, Wire], ...]

    def __post_init__(self):
        if not self.teeth:
            raise ValueError("a comb needs at least one tooth")
        _check_wires(self.wires)

    @classmethod
    def standard(cls, dims: Sequence[int]) -> "CombStructure":
        """Structure with wires labeled "0", "1", ... in comb order.

        ``dims`` lists the wire dimensions in the canonical order
        (in_0, out_0, in_1, out_1, ...) and must have even length.
        """
        if len(dims) % 2 != 0 or not dims:
            raise ValueError(f"need a nonempty even number of dims, got {len(dims)}")
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
    producer's responsibility (see verify_causality).
    """

    __slots__ = ("op", "structure")

    def __init__(self, op: LabeledOperator, structure: CombStructure):
        _check_labels(op, structure)
        object.__setattr__(self, "op", op.permuted(structure.labels))
        object.__setattr__(self, "structure", structure)

    def __setattr__(self, name, value):
        raise AttributeError("QuantumComb is immutable")

    @property
    def n_teeth(self) -> int:
        return self.structure.n_teeth

    def reduced(self, n: int) -> LabeledOperator:
        return reduced_comb(self.op, self.structure, n)

    def verify(self, tol: float = TOL_VERIFY) -> "CausalityReport":
        return verify_causality(self.op, self.structure, tol)

    def __repr__(self):
        dims = "x".join(str(d) for d in self.structure.dims)
        return f"QuantumComb({self.n_teeth} teeth, wires {dims})"


class ProbabilisticComb:
    """Comb-shaped instrument: one positive branch per outcome.

    Branches are keyed by opaque outcome ids.  The constructor verifies
    that each branch is Hermitian and positive and that their sum is a
    deterministic comb, all to within TOL_VERIFY.
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
            defect, lo = _defect_and_min_eigenvalue(op.matrix)
            if defect > TOL_VERIFY or lo < -TOL_VERIFY:
                raise InvalidBranchSumError(
                    f"branch {oid!r} is not Hermitian and positive: defect "
                    f"{defect:.3e}, min eigenvalue {lo:.3e}"
                )
            ordered.append((oid, op))
        total = ordered[0][1]
        for _, op in ordered[1:]:
            total = total + op
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
    """Comb left after discarding teeth n+1..N: trace them out, dividing by
    each discarded input dimension.

    n = N returns R itself; n = -1 telescopes everything away, leaving the
    scalar operator 1 for any causal comb.
    """
    last = structure.n_teeth - 1
    if not -1 <= n <= last:
        raise IndexOutOfRangeError(
            f"reduction level {n} outside [-1, {last}] for {structure.n_teeth} teeth"
        )
    _check_labels(R, structure)
    out = R.permuted(structure.labels)
    for k in range(last, n, -1):
        in_w, out_w = structure.teeth[k]
        out = out.ptrace([in_w.label, out_w.label]) * (1.0 / in_w.dim)
    return out


@dataclass(frozen=True)
class CausalityReport:
    """Outcome of verify_causality, with quantitative slack per level.

    residuals[n] is the Frobenius norm of Tr_out_n[R^(n)] - I_in_n (x) R^(n-1),
    the violation of the constraint cutting the comb after tooth n.
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
        worst = max(self.residuals) if self.residuals else 0.0
        status = "pass" if self.passed else "FAIL"
        return (
            f"{status}: max level residual {worst:.3e}, "
            f"min eigenvalue {self.min_eigenvalue:+.3e}, "
            f"hermiticity {self.hermiticity:.3e} (tol {self.tol:.1e})"
        )


def verify_causality(
    R: LabeledOperator, structure: CombStructure, tol: float = TOL_VERIFY
) -> CausalityReport:
    """Check positivity and the telescoping causality constraints of R.

    Passes iff every level residual is at most tol, the smallest eigenvalue
    is at least -tol, and R is Hermitian to within tol in Frobenius norm.
    The eigenvalue is that of the Hermitian part of R, so a non-Hermitian R
    fails on its hermiticity and never raises.
    """
    _check_labels(R, structure)
    cur = R.permuted(structure.labels)
    hermiticity, min_eig = _defect_and_min_eigenvalue(cur.matrix)

    residuals = []
    for k in range(structure.n_teeth - 1, -1, -1):
        in_w, out_w = structure.teeth[k]
        lhs = cur.ptrace([out_w.label])
        nxt = cur.ptrace([in_w.label, out_w.label]) * (1.0 / in_w.dim)
        if k == 0:
            # base level is absolute: it pins the overall normalization
            rhs = LabeledOperator.identity([in_w])
        else:
            rhs = nxt.tensor(LabeledOperator.identity([in_w]))
        residuals.append((lhs - rhs).norm())
        cur = nxt
    residuals.reverse()

    passed = (
        all(r <= tol for r in residuals)
        and min_eig >= -tol
        and hermiticity <= tol
    )
    return CausalityReport(
        passed=passed,
        residuals=tuple(residuals),
        min_eigenvalue=min_eig,
        hermiticity=hermiticity,
        tol=tol,
    )


def _fresh_label(base: str, taken: set) -> str:
    label = base
    k = 0
    while label in taken:
        k += 1
        label = f"{base}.{k}"
    return label


def random_comb(
    structure: CombStructure, memory_dims: Sequence[int], seed: int
) -> QuantumComb:
    """Draw a comb by concatenating Haar-random isometric channels.

    Tooth k applies an isometry (mem_{k-1} (x) in_k) -> (out_k (x) mem_k)
    with memory dimensions taken from memory_dims (length n_teeth - 1); the
    final environment is sized as dim(mem_{N-1}) * dim(in_N) and traced out.
    The draw is a deterministic function of the seed.
    """
    T = structure.n_teeth
    memory_dims = tuple(int(m) for m in memory_dims)
    if len(memory_dims) != T - 1:
        raise ValueError(
            f"need {T - 1} memory dims for {T} teeth, got {len(memory_dims)}"
        )
    if any(m < 1 for m in memory_dims):
        raise ValueError(f"memory dims must be >= 1, got {memory_dims}")

    taken = set(structure.labels)
    rng = np.random.default_rng(seed)

    assembled = None
    open_dim = 1  # product of structure wires accumulated so far
    mem_prev: Wire | None = None
    for k in range(T):
        in_w, out_w = structure.teeth[k]
        m_prev = mem_prev.dim if mem_prev is not None else 1
        if k < T - 1:
            m_next = memory_dims[k]
        else:
            m_next = m_prev * in_w.dim  # environment: always large enough
        a = m_prev * in_w.dim
        b = out_w.dim * m_next
        if b < a:
            raise ValueError(
                f"tooth {k}: no isometry from dim {a} into dim {b}; "
                f"increase memory_dims[{k}]"
            )
        # Linking contracts mem_prev away, so the largest operators built are
        # the new chain (open wires so far, this tooth's wires, mem_next)
        # and the tooth itself, which is larger when mem_prev exceeds the
        # open wires so far.  At the last tooth the chain holds every wire,
        # so this also bounds structure.dim.
        work_dim = max(open_dim, m_prev) * in_w.dim * out_w.dim * m_next
        _check_dim(work_dim, f"assembling tooth {k}")
        mem_next = Wire(_fresh_label(f"mem{k}", taken), m_next)
        taken.add(mem_next.label)

        v = haar_isometry(b, a, rng)
        wires = (out_w, mem_next) + ((mem_prev, in_w) if mem_prev else (in_w,))
        tooth = LabeledVector(wires, v.reshape(-1)).outer()

        open_dim *= in_w.dim * out_w.dim
        assembled = tooth if assembled is None else link_product(assembled, tooth)
        mem_prev = mem_next

    assembled = assembled.ptrace([mem_prev.label])
    return QuantumComb(assembled.permuted(structure.labels), structure)


CombLike = Union[LabeledOperator, ChoiOperator, QuantumComb]


def _as_operator(x: CombLike) -> LabeledOperator:
    if isinstance(x, LabeledOperator):
        return x
    if isinstance(x, (ChoiOperator, QuantumComb)):
        return x.op
    raise TypeError(f"cannot interpret {type(x).__name__} as a labeled operator")


def supermap_apply(
    comb: QuantumComb,
    inputs: Sequence[CombLike],
    slot_assignment: Sequence[int] | None = None,
) -> ChoiOperator:
    """Insert circuit fragments into the comb's open slots.

    Slot n connects out_n to in_{n+1}; an input occupying it must carry
    exactly those two wire labels (a fragment with 2k wires occupies the k
    consecutive slots starting at its assigned index).  Unfilled slots stay
    open, so partial insertion returns the residual board.  The result is a
    Choi operator whose outputs are the remaining odd-position wires and
    whose inputs are the remaining even-position wires.
    """
    slots = comb.structure.slots
    if slot_assignment is None:
        slot_assignment = range(len(inputs))
    slot_assignment = [int(s) for s in slot_assignment]
    if len(slot_assignment) != len(inputs):
        raise SlotArityMismatchError(
            f"{len(inputs)} inputs but {len(slot_assignment)} slot assignments"
        )

    covered: set[int] = set()
    ops = []
    for x, start in zip(inputs, slot_assignment):
        op = _as_operator(x)
        if len(op.labels) % 2 != 0:
            raise LabelMismatchError(
                f"slot input must have an even number of wires, got {len(op.labels)}"
            )
        span = len(op.labels) // 2
        if start < 0 or start + span > len(slots):
            raise SlotArityMismatchError(
                f"input spans slots {start}..{start + span - 1}, but the comb "
                f"has slots 0..{len(slots) - 1}"
            )
        took = set(range(start, start + span))
        if took & covered:
            raise SlotArityMismatchError(
                f"slots {sorted(took & covered)} assigned more than once"
            )
        covered |= took
        expected = set()
        for s in range(start, start + span):
            expected.add(slots[s][0].label)
            expected.add(slots[s][1].label)
        if set(op.labels) != expected:
            raise LabelMismatchError(
                f"input wires {sorted(op.labels)} do not match slot wires "
                f"{sorted(expected)}"
            )
        ops.append(op)

    result = comb.op
    for op in ops:
        result = link_product(result, op)

    consumed = {lbl for op in ops for lbl in op.labels}
    out_labels = []
    in_labels = []
    for k, (in_w, out_w) in enumerate(comb.structure.teeth):
        if in_w.label not in consumed:
            in_labels.append(in_w.label)
        if out_w.label not in consumed:
            out_labels.append(out_w.label)
    return ChoiOperator(result, out_labels, in_labels)


def _register_merge(
    ops: Sequence[LabeledOperator], structure: CombStructure
) -> tuple[LabeledOperator, CombStructure]:
    """sum_i ops[i] (x) |i><i|, with the register merged into the last output.

    Returns the merged operator and its structure, which is structure with
    the last output widened to dim(out_N) * len(ops); the merged wire keeps
    the last output's label, and the register is its fastest index.
    """
    k = len(ops)
    last_in, last_out = structure.teeth[-1]
    reg = Wire(_fresh_label("reg", set(structure.labels)), k)
    merged_wire = Wire(last_out.label, last_out.dim * k)

    acc = None
    for i, op in enumerate(ops):
        proj = np.zeros((k, k))
        proj[i, i] = 1.0
        term = op.permuted(structure.labels).tensor(LabeledOperator((reg,), proj))
        acc = term if acc is None else acc + term
    merged = acc.merge_wires([last_out.label, reg.label], merged_wire)
    return merged, CombStructure(structure.teeth[:-1] + ((last_in, merged_wire),))


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
