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
degree.  That span is a matrix algebra with real matrix entries, so one
real orthogonal change of basis on the twirled factor splits every
operator it fixes into small blocks, one per irrep, each repeated once
per dimension of that irrep.  Its matrix units, scaled to unit norm,
form an orthonormal basis of the algebra (_Coordinates): of(X) reads the
coordinates of the twirl of X in one product with them, and the average
Omega of a base operator X is matrix(of(X)).  A real base operator, which
every task objective here is, therefore averages to an exactly real
Omega.  The change of basis is found numerically and checked in
_commutant_blocks against the spanning permutation operators, so an
inexact one raises instead of averaging wrongly.  The solver runs in the
same coordinates, where each block is a reshaped slice, and so does the
affine projection onto the causality constraints (_affine_projection), so
this module alone knows their encoding; no twirl is the one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .choi import max_entangled
from .comb import CombStructure, _check_dim, _check_labels
from .errors import (
    LabelMismatchError,
    NotHermitianError,
    NotInvariantError,
    UnsupportedError,
)
from .labeled import (
    EPS_HERMITIAN,
    LabeledOperator,
    LabeledVector,
    Wire,
    _total_dim,
)

TAGS = ("U", "U*")


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
    """Spanning set of the fixed-point algebra of the mixed twirl.

    The twirl by U applied at every position (conjugated at conj_positions)
    is the orthogonal projection onto the span of the permutation operators
    partially transposed at those positions.  The set spans the algebra but
    is not a basis of it once t > d.  _commutant_blocks finds the algebra's
    block form from it and checks that form against every element; the
    average Omega of X is then matrix(of(X)) in the coordinates of that
    form (_Coordinates).
    """
    return tuple(
        _partial_transpose(_permutation_operator(p, d), conj_positions, t, d)
        for p in permutations(range(t))
    )


# Relative tolerances for telling eigenvalues of a generic element apart,
# and for the checks that the computed change of basis is exact.
_EIG_GAP = 1e-8
_BLOCK_TOL = 1e-10


@lru_cache(maxsize=None)
def _commutant_blocks(d: int, t: int, conj_positions: tuple[int, ...]):
    """Real orthogonal Q (d^t x d^t) bringing the fixed-point algebra of the
    mixed twirl into block form, and (offset, m, copies) for each irrep.

    In the columns offset .. offset + m * copies of Q, every element of the
    algebra reads M (x) I_copies, with one m x m block M per irrep: the
    irrep of the twirling group has dimension copies and occurs m times.
    Each eigenspace of a generic symmetric element A of the algebra is one
    of those m occurrences.  A second generic element B couples two
    eigenspaces exactly when they belong to the same irrep, and then
    V_1^T B V_j is a multiple of the orthogonal map that aligns the basis
    of eigenspace j with that of the irrep's first eigenspace V_1.  The
    coefficients of A and B are fixed, so Q is deterministic, and a check
    that Q is orthogonal and puts every basis element in block form guards
    against an unlucky choice.
    """
    basis = _commutant_basis(d, t, conj_positions)
    n = d**t
    flat = np.stack([el.reshape(-1) for el in basis])
    k = np.arange(len(basis))
    a = (np.cos(k) @ flat).reshape(n, n)
    b = (np.sin(k * np.sqrt(2.0)) @ flat).reshape(n, n)
    a, b = a + a.T, b + b.T
    w, v = np.linalg.eigh(a)
    gap = _EIG_GAP * (1.0 + float(np.abs(w).max()))
    spaces = np.split(v, np.flatnonzero(np.diff(w) > gap) + 1, axis=1)
    coupled = _EIG_GAP * (1.0 + float(np.linalg.norm(b)))
    irreps: list[list[np.ndarray]] = []
    for vj in spaces:
        for irrep in irreps:
            c = irrep[0].T @ b @ vj
            if c.shape[0] == c.shape[1] and np.linalg.norm(c) > coupled:
                u, _, vh = np.linalg.svd(c.T)
                irrep.append(vj @ (u @ vh))
                break
        else:
            irreps.append([vj])
    q = np.hstack([vj for irrep in irreps for vj in irrep])

    blocks, offset = [], 0
    for irrep in irreps:
        blocks.append((offset, len(irrep), irrep[0].shape[1]))
        offset += len(irrep) * irrep[0].shape[1]
    # With Q orthogonal, the matrix units are orthogonal and span exactly the
    # operators in block form, so projecting onto them must fix the basis.
    units, copies = _matrix_units(q, blocks)
    moved = (flat @ units.T / copies) @ units - flat
    if (
        np.abs(q.T @ q - np.eye(n)).max() > _BLOCK_TOL
        or np.abs(moved).max() > _BLOCK_TOL
    ):
        raise ArithmeticError(
            f"the twirl's fixed algebra did not split into irrep blocks "
            f"(d={d}, t={t}, conjugated at {conj_positions})"
        )
    return q, tuple(blocks)


def _matrix_units(q: np.ndarray, blocks) -> tuple[np.ndarray, np.ndarray]:
    """The matrix units E_ij = sum_c q_ic q_jc^T of every irrep, one
    flattened per row, and the number of copies c each one sums over; q_ic
    is the column of Q for row i of the irrep's block in copy c."""
    dt = q.shape[0]
    units, copies = [], []
    for off, m, c in blocks:
        qb = q[:, off : off + m * c].reshape(dt, m, c)
        units.append(np.einsum("aic,bjc->ijab", qb, qb).reshape(m * m, dt * dt))
        copies += [c] * (m * m)
    return np.concatenate(units), np.array(copies, dtype=float)


# ---------------------------------------------------------------------------
# Twirl specification and exact averaging


@dataclass(frozen=True)
class TwirlSpec:
    """Which factor of U^(x)a (x) conj(U)^(x)b acts on each wire.

    pattern lists (wire label, tag, copies) for the twirled wires; a tag of
    "U" or "U*" applies the unitary or its entrywise conjugate as a
    copies-fold tensor power on that wire (whose dimension must then be
    d**copies).  Wires absent from the pattern are left alone.
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

    def _factor(self, wires: Sequence[Wire]) -> tuple[list[str], int, tuple[int, ...]]:
        """Labels of the twirled wires in pattern order, the number t of unit
        factors they hold, and the positions of the conjugated ones.

        A wire of dimension d**copies is copies consecutive factors of d.
        """
        dims = {w.label: w.dim for w in wires}
        twirled, conj = [], []
        for label, tag, copies in self.pattern:
            if label not in dims:
                raise LabelMismatchError(f"pattern wire {label!r} not on the operator")
            if dims[label] != self.d**copies:
                raise LabelMismatchError(
                    f"wire {label!r} has dim {dims[label]}, but the pattern "
                    f"promises {self.d}**{copies}"
                )
            twirled.append(label)
            conj += [tag == "U*"] * copies
        return twirled, len(conj), tuple(i for i, c in enumerate(conj) if c)


def _depolarized(units: np.ndarray, d: int, t: int, factors) -> np.ndarray:
    """The rows of units, flattened operators on t factors of dimension d,
    with each of the given factors traced out and replaced by I / d."""
    x = units.reshape((len(units),) + (d,) * (2 * t))
    for f in factors:
        shape = [1] * x.ndim
        shape[1 + f] = shape[1 + t + f] = d
        traced = np.trace(x, axis1=1 + f, axis2=1 + t + f) / d
        x = np.expand_dims(traced, (1 + f, 1 + t + f)) * np.eye(d).reshape(shape)
    return x.reshape(units.shape)


class _Coordinates:
    """Coordinates of the operators a twirl fixes, on one wire order.

    Such an operator is X = sum_a E_a (x) K_a, where the E_a are the matrix
    units of the commutant on the twirled factor (see _matrix_units), each
    divided by the square root of its number of copies so that they are
    orthonormal, and K_a acts on the other wires in their order.  The array
    K of shape (s, d_rest, d_rest), s = sum m^2, holds the coordinates.  The
    basis is orthonormal, so norms, inner products and linear combinations
    of coordinates are those of the operators, and of(X) followed by
    matrix(K) is the twirl of X; each costs one product with the matrix
    units and one transpose.  The identity has coordinates tau (x) I with
    tau_a = Tr E_a.  The rows of one irrep, reshaped, form sqrt(copies)
    times its (m * d_rest)-square block, so the eigenvalues of X are those
    of the blocks divided by sqrt(copies).  With no twirl, or no twirled
    wire, s = 1, E = [[1]] and K is X with a leading axis of length one.
    """

    def __init__(self, twirl: TwirlSpec | None, wires: Sequence[Wire]):
        labels, t, conj = ([], 0, ()) if twirl is None else twirl._factor(wires)
        if labels:
            q, irreps = _commutant_blocks(twirl.d, t, conj)
            units, copies = _matrix_units(q, irreps)
        else:
            irreps, units, copies = ((0, 1, 1),), np.ones((1, 1)), np.ones(1)
        n = len(wires)
        position = {w.label: i for i, w in enumerate(wires)}
        front = [position[lbl] for lbl in labels]
        back = [i for i in range(n) if i not in front]
        self._axes = front + [n + i for i in front] + back + [n + i for i in back]
        self._inverse = list(np.argsort(self._axes))
        self._tensor = tuple(w.dim for w in wires) * 2
        self.dim = _total_dim(wires)
        self.dims = tuple(wires[i].dim for i in back)
        self._dr = _total_dim(wires[i] for i in back)
        self._units = units / np.sqrt(copies)[:, None]
        self._irreps, adjoint, row = [], [], 0
        for _, m, c in irreps:
            self._irreps.append((row, m, c**0.5))
            adjoint.append(row + np.arange(m * m).reshape(m, m).T.ravel())
            row += m * m
        self._adjoint = np.concatenate(adjoint)
        self.tau = self._units @ np.eye(self.dim // self._dr).reshape(-1)
        self.identity = self.tau[:, None, None] * np.eye(self._dr)
        self.identity.flags.writeable = False

        # Depolarizing the wires from position w on maps E_a (x) K_a to
        # sum_b C_ba E_b (x) (the marginal of K_a on the other wires before
        # w, padded with I / t), with C the depolarizing of the twirled
        # factors at positions >= w; mixers[k] sums (-1)^w C / t over the w
        # that keep the first k other wires (see _affine_projection).
        d = 1 if twirl is None else twirl.d
        copies_of = {} if twirl is None else {lbl: c for lbl, _, c in twirl.pattern}
        factors, f = {}, 0
        for i, lbl in zip(front, labels):
            factors[i] = range(f, f + copies_of[lbl])
            f += copies_of[lbl]
        tails = np.cumprod((1,) + self.dims[::-1])[::-1]
        self.mixers = [np.zeros((len(units), len(units))) for _ in tails]
        moved, k = self._units, len(back)
        for w in range(n, -1, -1):
            if w in factors:
                moved = _depolarized(moved, d, t, factors[w])
            elif w < n:
                k -= 1
            self.mixers[k] += ((-1) ** w / tails[k]) * (self._units @ moved.T)

    def of(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of the twirl of mat."""
        dr = self._dr
        x = mat.reshape(self._tensor).transpose(self._axes).reshape(-1, dr * dr)
        return (self._units @ x).reshape(-1, dr, dr)

    def matrix(self, k: np.ndarray) -> np.ndarray:
        """The operator on the wires with coordinates k."""
        y = self._units.T @ k.reshape(len(k), -1)
        shape = [self._tensor[a] for a in self._axes]
        return y.reshape(shape).transpose(self._inverse).reshape(self.dim, self.dim)

    def trace(self, k: np.ndarray) -> float:
        return float(self.tau @ np.einsum("sii->s", k).real)

    def hermitian(self, k: np.ndarray) -> np.ndarray:
        """Coordinates of the Hermitian part: X^dagger has coordinates
        K_ji^dagger at the row of E_ij."""
        return (k + k[self._adjoint].conj().transpose(0, 2, 1)) / 2.0

    def blocks(self, k: np.ndarray) -> list[np.ndarray]:
        """sqrt(copies) times one copy of each irrep block."""
        dr = self._dr
        return [
            k[r : r + m * m].reshape(m, m, dr, dr).swapaxes(1, 2).reshape(m * dr, -1)
            for r, m, _ in self._irreps
        ]

    def from_blocks(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """The coordinates whose blocks are blocks."""
        dr = self._dr
        return np.concatenate([
            b.reshape(m, dr, m, dr).swapaxes(1, 2).reshape(m * m, dr, dr)
            for b, (_, m, _) in zip(blocks, self._irreps)
        ])

    def min_eigenvalue(self, k: np.ndarray) -> float:
        return min(
            float(np.linalg.eigvalsh(b)[0]) / sc
            for b, (_, _, sc) in zip(self.blocks(k), self._irreps)
        )

    def max_eigenvalue(self, k: np.ndarray) -> float:
        return -self.min_eigenvalue(-k)


def _affine_projection(k, coords: _Coordinates, trace_value: float) -> np.ndarray:
    """Orthogonal projection of the operator with coordinates k onto the
    affine set of the causality constraints.

    Level n of the telescoping family is equivalent, after padding both
    sides back to the full space with maximally mixed factors, to
    Delta_{2n+1}(X) = Delta_{2n}(X), where Delta_w depolarizes all wires
    from position w on.  The maps G_n = Delta_{2n+1} - Delta_{2n} are
    mutually orthogonal projectors (depolarizing a larger tail absorbs a
    smaller one), so projecting onto their joint kernel just subtracts every
    G_n(X), and the trace constraint shifts along the identity, which the
    G_n annihilate.  With M_w = Tr_{wires w..}[X] and t_w the dimension of
    those wires, the projection before the shift is the sum over w of
    (-1)^w M_w / t_w (x) I.  On the coordinates, coords.mixers[i] sums the
    terms whose w leave i of coords.dims ((-1)^w / t_w without a twirl).
    Each marginal is a partial trace of the next, and the sum is
    accumulated in Horner form, adding the running sum to the diagonal
    blocks of the next term, so no Kronecker product is built.
    """
    mixers, tau = coords.mixers, coords.tau

    def mixed(i, marg):
        return (mixers[i] @ marg.reshape(len(tau), -1)).reshape(marg.shape)

    marg = [k]
    for d in reversed(coords.dims):
        h = marg[-1].shape[1] // d
        marg.append(np.einsum("saibi->sab", marg[-1].reshape(-1, h, d, h, d)))
    marg.reverse()

    out = mixed(0, marg[0])
    for i, d in enumerate(coords.dims, start=1):
        nxt = mixed(i, marg[i])
        h = nxt.shape[1] // d
        blocks = nxt.reshape(-1, h, d, h, d)
        for j in range(d):
            blocks[:, :, j, :, j] += out
        out = nxt
    # Shift along the identity, whose coordinates are tau (x) I.
    h = out.shape[1]
    shift = (trace_value - tau @ np.einsum("sii->s", out).real) / (h * tau @ tau)
    out[:, range(h), range(h)] += (shift * tau)[:, None]
    return out


@dataclass(frozen=True)
class PerformanceOperator:
    """Hermitian operator Omega with F(R) = Tr[R Omega], prefactors included,
    and, when produced for a concrete task, the comb wire layout it scores.

    omega must be Hermitian to EPS_HERMITIAN and is stored as its Hermitian
    part, so the stored Omega is exactly Hermitian.  twirl, when given, is
    a twirl that fixes Omega; the solver then works in its coordinates (see
    _Coordinates).
    """

    omega: LabeledOperator
    structure: CombStructure | None = None
    twirl: TwirlSpec | None = None

    def __post_init__(self):
        if not self.omega.is_hermitian():
            raise NotHermitianError("a performance operator must be Hermitian")
        object.__setattr__(self, "omega", self.omega.hermitized())
        if self.structure is not None:
            _check_labels(self.omega, self.structure)
        if self.twirl is not None:
            coords = _Coordinates(self.twirl, self.omega.wires)
            mat = self.omega.matrix
            moved = np.linalg.norm(coords.matrix(coords.of(mat)) - mat)
            if moved > EPS_HERMITIAN * max(np.linalg.norm(mat), 1e-300):
                raise NotInvariantError(
                    "the performance operator is not fixed by its twirl"
                )

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
    W(U); in particular it is idempotent and Hermiticity-preserving.  The
    result carries spec as its twirl.
    """
    return PerformanceOperator(_averaged(spec, base), twirl=spec)


def _averaged(spec: TwirlSpec, base: LabeledOperator) -> LabeledOperator:
    """The twirl of base, in base's wire order; PerformanceOperator takes
    its exact Hermitian part."""
    coords = _Coordinates(spec, base.wires)
    if not base.is_hermitian():
        raise NotHermitianError("twirl input must be Hermitian")
    return LabeledOperator._wrap(base.wires, coords.matrix(coords.of(base.matrix)))


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
    _check_dim(structure.dim, "the objective")
    w = structure.wires
    vec = LabeledVector((), np.array([norm**-0.5]))
    for i, j in pairs:
        vec = vec.tensor(max_entangled((w[i], w[j])))
    spec = TwirlSpec(d, tuple((w[i].label, tag, c) for i, tag, c in pattern))
    omega = _averaged(spec, vec.permuted(structure.labels).outer())
    return PerformanceOperator(omega, structure, spec)


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
