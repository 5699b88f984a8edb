"""Haar-averaged performance operators for gate cloning and gate learning.

Every figure of merit in this package has the shape

    F(R) = E_U ⟨Psi_U| R |Psi_U⟩ / prefactor,

a Haar average of a sandwich between product vectors built from |U⟩⟩ and
|U*⟩⟩ blocks.  Averaging commutes with the sandwich, so F(R) = Tr[R Omega]
for a fixed Hermitian operator Omega, and maximizing F over causal combs
is a linear objective over a convex set.

The average is computed exactly, never by Monte-Carlo: it is the
projection onto the fixed-point algebra of the twirl, taken in that
algebra's coordinates (twirl._Coordinates).  A task objective averages
over U and over a second Haar unitary V on the partner wires of U's,
which fixes the same Omega (see _task_objective), so its twirl is that of
U x V, whose blocks are much smaller than those of U alone.  A
PerformanceOperator carries a twirl only when this averaging made its
Omega, so the twirl fixes Omega by construction and is never re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .choi import max_entangled
from .comb import CombStructure, _check_dim, _check_labels
from .errors import InvalidArgumentError, NotHermitianError, UnsupportedError
from .labeled import LabeledOperator, LabeledVector
from .twirl import TAGS, TwirlSpec, _coordinates


@dataclass(frozen=True)
class PerformanceOperator:
    """Hermitian operator Omega with F(R) = Tr[R Omega], prefactors included,
    and, when produced for a concrete task, the comb wire layout it scores.

    omega must be finite and Hermitian to EPS_HERMITIAN; it is stored as its
    Hermitian part, so Omega is exactly Hermitian.  twirl is not an
    argument: haar_average and the task objectives set it to the twirl they
    averaged Omega with, which fixes Omega by construction, and the solver
    works in its coordinates (see _Coordinates).  dataclasses.replace drops
    it, and the copy is solved dense with the same values.  haar_average
    attaches a twirl to an Omega it fixes, returning Omega up to rounding.
    """

    omega: LabeledOperator
    structure: CombStructure | None = None
    twirl: TwirlSpec | None = field(default=None, init=False)

    def __post_init__(self):
        # is_hermitian is False on an overflowed norm too; this names the cause.
        if not np.isfinite(self.omega.norm()):
            raise InvalidArgumentError("the objective's Frobenius norm is not finite")
        if not self.omega.is_hermitian():
            raise NotHermitianError("a performance operator must be Hermitian")
        object.__setattr__(self, "omega", self.omega.hermitized())
        if self.structure is not None:
            _check_labels(self.omega, self.structure)

    def value(self, R: LabeledOperator) -> float:
        """Tr[R Omega] as a real number."""
        aligned = R.permuted(self.omega.labels)
        # Omega is Hermitian, so Tr[R Omega] = Tr[Omega^dagger R].
        return float(np.vdot(self.omega.matrix, aligned.matrix).real)


def haar_average(spec: TwirlSpec, base: LabeledOperator) -> PerformanceOperator:
    """E_U[ W(U) base W(U)^dagger ] with W(U) the per-wire action of spec,
    averaged over the second unitary V as well when spec has one.

    The average is the exact projection onto the commutant of the twirl,
    spanned by the partially transposed permutation operators on the unit
    factors (the tensor product of U's and V's), so it fixes precisely the
    operators commuting with every W(U) (and W(V)); in particular it is
    idempotent and Hermiticity-preserving, and a
    base whose average is not Hermitian raises NotHermitianError.  The
    result carries spec as its twirl.
    """
    return _twirled(spec, base)


def _twirled(
    spec: TwirlSpec, base: LabeledOperator, structure: CombStructure | None = None
) -> PerformanceOperator:
    """The performance operator of the average of base, carrying spec."""
    po = PerformanceOperator(_averaged(spec, base), structure)
    object.__setattr__(po, "twirl", spec)
    return po


def _averaged(spec: TwirlSpec, base: LabeledOperator) -> LabeledOperator:
    """The twirl of base, in base's wire order; PerformanceOperator checks
    that it is Hermitian and takes its exact Hermitian part."""
    coords = _coordinates(spec, base.wires)
    return LabeledOperator._wrap(base.wires, coords.matrix(coords.of(base.matrix)))


# ---------------------------------------------------------------------------
# Task objectives


def _check_task_dim(d: int, exponent: int) -> None:
    """Refuse d < 2 and a board dimension d**exponent over the cap before
    any dims list or power is built."""
    if d < 2:
        raise InvalidArgumentError(f"dimension must be at least 2, got {d}")
    _check_dim(int(d), "the objective", exponent)


def _task_objective(
    d: int, dims: list[int], pairs: list[tuple[int, int]], pattern: list, norm: int
) -> PerformanceOperator:
    """Haar average of the product of maximally entangled pairs, over norm.

    dims are the comb wire dimensions in standard order; pairs lists the
    (i, j) wire positions joined by |I>> = sum_n |n>|n>, i the twirled one
    if either is; pattern lists the (position, tag, copies) of U's wires.

    The average is over U and a second Haar unitary V, independent of it,
    on the partners j of U's wires: V on the partner of a U* wire and V*,
    once per copy, on that of a U wire.  As (1 (x) Y)|I>> = (Y^T (x) 1)|I>>,
    V so placed acts on the base as U = V^dagger does, so the U average
    already fixes it and the U x V average is the same Omega; V's pattern
    lists the partners in the order of U's, so it is the complement of
    U's and shares its commutant (_commutant_blocks).
    """
    structure = CombStructure.standard(dims)
    w = structure.wires
    vec = LabeledVector((), np.array([norm**-0.5]))
    for i, j in pairs:
        vec = vec.tensor(max_entangled((w[i], w[j])))
    partner = dict(pairs)
    spec = TwirlSpec(
        d,
        tuple((w[i].label, tag, c) for i, tag, c in pattern),
        tuple((w[partner[i]].label, TAGS[tag == "U"], c) for i, tag, c in pattern),
    )
    return _twirled(spec, vec.permuted(structure.labels).outer(), structure)


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
        raise InvalidArgumentError(f"need N, M >= 1, got N={N}, M={M}")
    _check_task_dim(d, 2 * (N + M))
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
        raise InvalidArgumentError(f"need N >= 1, got N={N}")
    _check_task_dim(d, 2 * N + 2)
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
