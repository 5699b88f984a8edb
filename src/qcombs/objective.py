"""Haar-averaged performance operators for gate cloning and gate learning.

Every figure of merit in this package has the shape

    F(R) = E_U ⟨Psi_U| R |Psi_U⟩ / prefactor,

a Haar average of a sandwich between product vectors built from |U⟩⟩ and
|U*⟩⟩ blocks.  Averaging commutes with the sandwich, so F(R) = Tr[R Omega]
for a fixed Hermitian operator Omega, and maximizing F over causal combs
is a linear objective over a convex set.

The average is computed exactly, never by Monte-Carlo: the Haar twirl is
the orthogonal projection onto the span of the (partially transposed)
permutation operators, its fixed-point algebra, in any dimension and
degree.  That span has real matrix entries, so a real base operator, which
every task objective here is, averages to an exactly real Omega.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .choi import max_entangled
from .comb import MAX_DIM, CombStructure, _check_labels
from .errors import (
    DimOverflowError,
    LabelMismatchError,
    NotHermitianError,
    UnsupportedError,
)
from .labeled import LabeledOperator, LabeledVector

TAGS = ("U", "U*", "none")


# ---------------------------------------------------------------------------
# Commutant of the mixed twirl


def _permutation_operator(perm: Sequence[int], d: int) -> np.ndarray:
    """Operator permuting t tensor factors: |i_1..i_t> -> factor k of the
    output takes factor perm[k] of the input."""
    t = len(perm)
    p = np.eye(d**t).reshape((d,) * (2 * t))
    p = np.transpose(p, axes=list(perm) + list(range(t, 2 * t)))
    return p.reshape(d**t, d**t)


def _partial_transpose(mat: np.ndarray, positions: Sequence[int], t: int, d: int) -> np.ndarray:
    x = mat.reshape((d,) * (2 * t))
    for p in positions:
        x = np.swapaxes(x, p, t + p)
    return x.reshape(d**t, d**t)


@lru_cache(maxsize=None)
def _commutant_basis(d: int, t: int, conj_positions: tuple[int, ...]):
    """Spanning set of the fixed-point algebra of the mixed twirl, plus the
    pseudo-inverse of its Gram matrix.

    The twirl by U applied at every position (conjugated at conj_positions)
    is the orthogonal projection onto the span of the permutation operators
    partially transposed at those positions.  The Gram matrix is read off
    the stacked basis; its entries are sums of products of 0s and 1s, so
    they are exact integers.
    """
    basis = tuple(
        _partial_transpose(_permutation_operator(p, d), conj_positions, t, d)
        for p in permutations(range(t))
    )
    flat = np.stack([b.reshape(-1) for b in basis])
    gram = flat @ flat.T
    return basis, np.linalg.pinv(gram)


# ---------------------------------------------------------------------------
# Twirl specification and exact averaging


@dataclass(frozen=True)
class TwirlSpec:
    """Which factor of U^(x)a (x) conj(U)^(x)b acts on each wire.

    pattern lists (wire label, tag, copies) for the twirled wires; a tag of
    "U" or "U*" applies the unitary or its entrywise conjugate as a
    copies-fold tensor power on that wire (whose dimension must then be
    d**copies).  Wires absent from the pattern, or tagged "none", are left
    alone.
    """

    d: int
    pattern: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be at least 2, got {self.d}")
        seen = set()
        for label, tag, copies in self.pattern:
            if tag not in TAGS:
                raise ValueError(f"unknown tag {tag!r} on wire {label!r}")
            if copies < 1:
                raise ValueError(f"copies must be >= 1 on wire {label!r}")
            if label in seen:
                raise ValueError(f"wire {label!r} repeats in the pattern")
            seen.add(label)


@dataclass(frozen=True)
class PerformanceOperator:
    """Hermitian operator Omega with F(R) = Tr[R Omega], prefactors included,
    and, when produced for a concrete task, the comb wire layout it scores."""

    omega: LabeledOperator
    structure: CombStructure | None = None

    def __post_init__(self):
        if not self.omega.is_hermitian():
            raise NotHermitianError("a performance operator must be Hermitian")
        if self.structure is not None:
            _check_labels(self.omega, self.structure)

    def value(self, R: LabeledOperator) -> float:
        """Tr[R Omega] as a real number."""
        aligned = R.permuted(self.omega.labels)
        # Omega is Hermitian, so Tr[R Omega] = Tr[Omega^dagger R].
        return float(np.vdot(self.omega.matrix, aligned.matrix).real)


def haar_average(spec: TwirlSpec, base: LabeledOperator) -> PerformanceOperator:
    """E_U[ W(U) base W(U)^dagger ] with W(U) the per-wire action of spec.

    The average is the exact projection onto the commutant of the twirl,
    spanned by the partially transposed permutation operators on the unit
    factors, so it fixes precisely the operators commuting with every
    W(U); in particular it is idempotent and Hermiticity-preserving.
    """
    for label, _, _ in spec.pattern:
        if label not in base.labels:
            raise LabelMismatchError(f"pattern wire {label!r} not on the operator")
    if not base.is_hermitian():
        raise NotHermitianError("twirl input must be Hermitian")

    twirled, conj = [], []
    for label, tag, copies in spec.pattern:
        if tag == "none":
            continue
        dim = base.wire(label).dim
        if dim != spec.d**copies:
            raise LabelMismatchError(
                f"wire {label!r} has dim {dim}, but the pattern promises "
                f"{spec.d}**{copies}"
            )
        # A wire of dimension d**copies is copies consecutive factors of d.
        twirled.append(label)
        conj += [tag == "U*"] * copies
    if not twirled:
        return PerformanceOperator(base.hermitized())

    op = base.permuted(twirled + [lbl for lbl in base.labels if lbl not in twirled])
    d = spec.d
    t = len(conj)
    dt = d**t
    dr = op.dim // dt
    x4 = op.matrix.reshape(dt, dr, dt, dr)

    conj_positions = tuple(i for i, c in enumerate(conj) if c)
    basis, gram_pinv = _commutant_basis(d, t, conj_positions)
    overlaps = [np.einsum("ji,jaib->ab", b.conj(), x4) for b in basis]
    avg = np.zeros_like(op.matrix)
    for i, b in enumerate(basis):
        coeff = sum(gram_pinv[i, j] * overlaps[j] for j in range(len(basis)))
        avg += np.kron(b, coeff)

    out = LabeledOperator(op.wires, avg).hermitized()
    return PerformanceOperator(out.permuted(base.labels))


# ---------------------------------------------------------------------------
# Task objectives


def _task_objective(
    d: int, dims: list[int], pairs: list[tuple[int, int]], pattern: list, norm: int
) -> PerformanceOperator:
    """Haar average of the product of maximally entangled pairs, over norm.

    dims are the comb wire dimensions in standard order; pairs lists the
    (i, j) wire positions joined by sum_n |n>|n>; pattern lists the
    (position, tag, copies) of the twirled wires.
    """
    if d < 2:
        raise ValueError(f"dimension must be at least 2, got {d}")
    structure = CombStructure.standard(dims)
    if structure.dim > MAX_DIM:
        raise DimOverflowError(
            f"objective dimension {structure.dim} exceeds the cap {MAX_DIM}"
        )
    w = structure.wires
    vec = LabeledVector((), np.ones(1))
    for i, j in pairs:
        vec = vec.tensor(max_entangled((w[i], w[j])))
    base = vec.permuted(structure.labels).outer()
    spec = TwirlSpec(d, tuple((w[i].label, tag, c) for i, tag, c in pattern))
    omega = haar_average(spec, base).omega * (1.0 / norm)
    return PerformanceOperator(omega, structure)


@lru_cache(maxsize=None)
def cloning_objective(N: int, M: int, d: int) -> PerformanceOperator:
    """Operator scoring N -> M gate cloning boards.

    The board has N + 1 teeth: wire 0 (dim d^M) and wire 2N+1 (dim d^M) are
    the outer input and output, and the N slots in between each consume one
    use of the unknown gate U.  F(R) = Tr[R Omega] is the Haar-averaged
    fidelity between the M-fold output and U^(x)M applied to the outer
    wires, normalized so that a board reproducing U^(x)M exactly scores 1;
    with a single slot and a single target copy the pass-through board
    achieves that maximum.
    """
    if N < 1 or M < 1:
        raise ValueError(f"need N, M >= 1, got N={N}, M={M}")
    slots = range(1, N + 1)
    dims = [d**M] + [d] * (2 * N) + [d**M]
    pairs = [(2 * N + 1, 0)] + [(2 * k, 2 * k - 1) for k in slots]
    pattern = [(2 * N + 1, "U", M)] + [(2 * k, "U*", 1) for k in slots]
    return _task_objective(d, dims, pairs, pattern, norm=d ** (2 * M))


@lru_cache(maxsize=None)
def learning_objective(N: int, d: int) -> PerformanceOperator:
    """Operator scoring boards that learn a gate from N uses and replay it.

    The board's first N + 1 teeth bracket the N slots consuming the uses of
    U; the outer wires of those teeth are trivial (dimension 1).  The final
    tooth receives the replay input on wire 2N+2 and answers on wire 2N+3.
    F(R) = Tr[R Omega] is the Haar-averaged channel fidelity between the
    induced replay channel and U itself, normalized to 1 for a perfect
    replay.
    """
    if N < 1:
        raise ValueError(f"need N >= 1, got N={N}")
    slots = range(1, N + 1)
    dims = [1] + [d] * (2 * N) + [1, d, d]
    pairs = [(0, 2 * N + 1), (2 * N + 3, 2 * N + 2)]
    pairs += [(2 * k, 2 * k - 1) for k in slots]
    pattern = [(2 * k, "U*", 1) for k in slots] + [(2 * N + 3, "U", 1)]
    return _task_objective(d, dims, pairs, pattern, norm=d**2)


def estimation_reference(N: int, M: int, d: int) -> float:
    """Best cloning fidelity reachable by estimate-then-prepare strategies.

    Stored reference constants for the 1 -> 2 task only; used to report how
    far a coherent board beats the classical measure-and-rebuild bound.
    """
    if (N, M) != (1, 2):
        raise UnsupportedError(
            f"reference value known for (N, M) = (1, 2) only, got ({N}, {M})"
        )
    if d < 2:
        raise UnsupportedError(f"dimension must be at least 2, got {d}")
    if d == 2:
        return 5.0 / 16.0
    return 6.0 / d**4
