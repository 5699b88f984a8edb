"""The Haar twirl's fixed-point algebra, in coordinates.

A twirl (TwirlSpec) applies a unitary U, or its entrywise conjugate, as a
tensor power on chosen wires and averages over the Haar measure; it may
apply a second Haar unitary V, independent of U, on other wires in the
same way.  Averaging over U is the orthogonal projection onto the span of
the (partially transposed) permutation operators on U's factors, its
fixed-point algebra, in any dimension and degree, and averaging over U x V
is the projection onto the tensor product of U's algebra and V's.  Each
is a matrix algebra with real matrix entries, so one real orthogonal
change of basis on each unitary's factors splits every operator the twirl
fixes into small blocks, one per pair of irreps, each repeated once per
dimension of that pair.  Their matrix units, scaled to unit norm, form an
orthonormal basis of the algebra (_Coordinates): of(X) reads the
coordinates of the twirl of X by products with them, U's streamed over X
in slabs of rows so that no D x D temporary is made and V's on U's small
result, and the average Omega of a base operator X is matrix(of(X)).  A
real base operator, which every task objective is, therefore averages to
an exactly real Omega; the task objectives average over U x V, which
fixes their Omega by construction (objective._task_objective), so their
blocks have order m_U m_V instead of m_U d_rest.  The change of basis is
found numerically and checked in _commutant_blocks against the spanning
permutation operators, so an inexact one raises instead of averaging
wrongly; V's pattern is the complement of U's, whose algebra is the same,
so they share one.  The solver runs in the same coordinates, where each
block is a reshaped slice, and so does the affine projection onto the
causality constraints (_affine_projection), so this module alone knows
their encoding; no twirl is the one-block case.  That projection reads the
marginal chain (labeled._marginals) that reduced_comb and the dense level
residuals read too, and the same chain on the coordinates gives every
level residual of an operator the twirl fixes
(_Coordinates.level_residuals).  Positivity is certified on the same
blocks (_Coordinates.eigenvalue_floor), less the distance from the algebra
that one streamed dense read (_Coordinates.read) bounds, so an operator
the twirl does not fix fails the check instead; choi._feasibility judges a
twirled board from that read in the same way.

This module imports only labeled and errors, so comb, choi and objective
all take the coordinates from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .errors import InvalidArgumentError, LabelMismatchError
from .labeled import Wire, _marginals, _total_dim

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

# Unit roundoff, and the number of entries of a dense operator that one
# slab of the coordinate transforms, or one strip of choi's Hermitian
# defect, holds: 512 kB of float64, so that it stays in cache while used.
_U = np.finfo(float).eps / 2.0
_CHUNK = 1 << 16


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

    The complementary pattern, conjugated exactly where this one is not,
    gets the same Q: its spanning elements are the full transposes of
    these (transposing every factor of a partial transpose at the
    positions leaves the one at the others), and the algebra, a real
    *-algebra, is closed under transposition, so both patterns fix the
    same algebra; their symmetrized generic elements A + A^T and B + B^T
    are even bitwise equal.  The cache key is the smaller of the two, so
    the t! stack and the self-check run once for a unitary and the second
    unitary of its task (TwirlSpec.second), whose pattern is its
    complement.
    """
    other = tuple(i for i in range(t) if i not in conj_positions)
    return _blocks_of(d, t, min(tuple(conj_positions), other))


@lru_cache(maxsize=None)
def _blocks_of(d: int, t: int, conj_positions: tuple[int, ...]):
    """_commutant_blocks on its normalized key."""
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
    """Which factor of U^(x)a (x) conj(U)^(x)b acts on each wire, and of a
    second Haar unitary V, independent of U, on other wires.

    pattern lists (wire label, tag, copies) for the wires U twirls; a tag of
    "U" or "U*" applies the unitary or its entrywise conjugate as a
    copies-fold tensor power on that wire (whose dimension must then be
    d**copies).  second lists V's wires in the same form, its tags read as
    V and V*; it needs a pattern, and no wire may be in both.  Wires absent
    from both are left alone.
    """

    d: int
    pattern: tuple[tuple[str, str, int], ...]
    second: tuple[tuple[str, str, int], ...] = ()

    def __post_init__(self):
        if self.d < 2:
            raise InvalidArgumentError(f"dimension must be at least 2, got {self.d}")
        if self.second and not self.pattern:
            raise InvalidArgumentError("a second unitary needs a pattern for the first")
        seen = set()
        for label, tag, copies in self.pattern + self.second:
            if tag not in TAGS:
                raise InvalidArgumentError(f"unknown tag {tag!r} on wire {label!r}")
            if copies < 1:
                raise InvalidArgumentError(f"copies must be >= 1 on wire {label!r}")
            if label in seen:
                raise InvalidArgumentError(f"wire {label!r} repeats in the patterns")
            seen.add(label)

    def _factor(
        self, wires: Sequence[Wire], second: bool = False
    ) -> tuple[list[str], int, tuple[int, ...]]:
        """Labels of U's twirled wires (V's if second) in pattern order, the
        number t of unit factors they hold, and the positions of the
        conjugated ones.

        A wire of dimension d**copies is copies consecutive factors of d.
        """
        dims = {w.label: w.dim for w in wires}
        twirled, conj = [], []
        for label, tag, copies in self.second if second else self.pattern:
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


def _eigenvalue_floor(w: np.ndarray) -> float:
    """Lower bound on the least eigenvalue of a Hermitian M of order len(w)
    from its computed eigenvalues w (ascending): w[0] less the eigensolver
    allowance len(w) * u * ||M||_2, u = eps / 2, as VSDP does (Jansson,
    Chaykin & Keil, SIAM J. Numer. Anal. 46, 180 (2007))."""
    return float(w[0]) - len(w) * _U * max(abs(float(w[0])), abs(float(w[-1])))


def _kron_bound(x: float, n: float, y: float, m: float) -> float:
    """A bound on ||A (x) B - A' (x) B'||_F from ||A - A'||_F <= x,
    ||A'||_F <= n, ||B - B'||_F <= y and ||B||_F <= m + y: the difference is
    (A - A') (x) B + A' (x) (B - B')."""
    return x * (m + y) + n * y


def _kron_sum(terms) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """sum_i c_i A_i (x) B_i over terms (c_i, A_i, B_i) as pairs (A, B),
    consecutive terms that share B (the same object) summed into one."""
    pairs = []
    for c, a, b in terms:
        if pairs and pairs[-1][1] is b:
            pairs[-1][0] += c * a
        else:
            pairs.append([c * a, b])
    for a, b in pairs:
        a.flags.writeable = b.flags.writeable = False
    return tuple(map(tuple, pairs))


class _Stage:
    """One Haar unitary's share of a twirl on the wires of an operator.

    factors maps the position of each of its wires (TwirlSpec._factor) to
    the unit factors that wire holds, in pattern order.  The matrix units
    of its commutant (_matrix_units), each divided by the square root of
    its number of copies so that they are orthonormal, are stored in the
    layout of the dense transforms: their column factors, then their row
    factors, each in the order of the wires on the operator.  mix[w] is
    the depolarizer C_w: depolarizing the stage's wires from position w on
    maps E_a to sum_b C_ba E_b; one that does not change from w + 1 is the
    same object.  With no wire it is the trivial stage, one unit [[1]] on
    no factor, with no defect, distance or rounding.
    """

    def __init__(self, twirl: TwirlSpec | None, wires: Sequence[Wire], second: bool):
        labels, t, conj = ([], 0, ()) if twirl is None else twirl._factor(wires, second)
        d, entries = (1, ()) if twirl is None else (twirl.d, twirl.second if second else twirl.pattern)
        position = {w.label: i for i, w in enumerate(wires)}
        self.factors, f = {}, 0
        for label, _, c in entries:
            self.factors[position[label]] = range(f, f + c)
            f += c
        # The measured orthogonality defect of Q, a bound on ||Q^T Q - I||_2:
        # the Frobenius norm of the computed defect plus the rounding of the
        # product Q^T Q, gamma_n ||Q||_F^2 <= 2 n^2 u (see eigenvalue_floor).
        self.q_defect = 0.0
        if labels:
            q, irreps = _commutant_blocks(d, t, conj)
            units, copies = _matrix_units(q, irreps)
            gram = q.T @ q - np.eye(len(q))
            self.q_defect = float(np.linalg.norm(gram)) + 2 * len(q) ** 2 * _U
        else:
            irreps, units, copies = ((0, 1, 1),), np.ones((1, 1)), np.ones(1)
        units = units / np.sqrt(copies)[:, None]
        self.irreps, adjoint, row = [], [], 0
        for _, m, c in irreps:
            self.irreps.append((row, m, c))
            adjoint.append(row + np.arange(m * m).reshape(m, m).T.ravel())
            row += m * m
        self.adjoint = np.concatenate(adjoint)
        self.tau = units @ np.eye(d**t).reshape(-1)
        s, c = len(units), float(copies.max())
        self.s = s
        # The norm of the stored units U (||U||_F^2 = s up to the checked
        # defect), their distance rho from the exact scaled units ((c + 3) u
        # sqrt(c) per row, c the most copies), and the rounding of the
        # operator of coordinates K per unit ||K||_F: gamma_s ||U||_F for
        # the product with U, plus rho.
        self.norm = 1.01 * s**0.5 if labels else 1.0
        self.rho = _U * (c + 3.0) * (c * s) ** 0.5 if labels else 0.0
        self.rounding = _U * s**0.5 * (s + (c + 3.0) * c**0.5) if labels else 0.0

        # eta bounds the defect of each C_w as a map on the stored units,
        # ||C^T U - D_w(U)||_F with D_w(U) the depolarized units: the
        # measured one, plus the rounding of that measurement, u sqrt(s)
        # (s ||C||_F + 2), and of D_w(U), u sqrt(s) t (d + 2), doubled, as
        # gamma_n = n u / (1 - n u) <= 2 n u.
        self.mix, moved, mix = [None] * (len(wires) + 1), units, None
        defect, self.c_norm = 0.0, 0.0
        for w in range(len(wires), -1, -1):
            if mix is None or w in self.factors:
                if w in self.factors:
                    moved = _depolarized(moved, d, t, self.factors[w])
                mix = units @ moved.T
                mix.flags.writeable = False
                defect = max(defect, float(np.linalg.norm(mix.T @ units - moved)))
                self.c_norm = max(self.c_norm, float(np.linalg.norm(mix)))
            self.mix[w] = mix
        eta = 1.01 * defect + 2 * _U * s**0.5 * (t * (d + 2) + s * self.c_norm + 2)
        self.eta = eta if labels else 0.0

        order = [f for i in sorted(self.factors) for f in self.factors[i]]
        self.stored = np.ascontiguousarray(
            units.reshape((s,) + (d,) * (2 * t))
            .transpose([0] + [1 + t + f for f in order] + [1 + f for f in order])
            .reshape(s, -1)
        )


class _Coordinates:
    """Coordinates of the operators a twirl fixes, on one wire order.

    Such an operator is X = sum_ab E_a (x) F_b (x) K_ab, where the E_a
    are the matrix units of U's commutant on U's twirled factor and the
    F_b those of V's on V's (see _matrix_units), each divided by the
    square root of its number of copies so that they are orthonormal, and
    K_ab acts on the other wires in their order.  The array K of shape
    (s_U s_V, d', d'), row a s_V + b for E_a (x) F_b, holds the
    coordinates; with no second unitary s_V = 1 and F = [[1]], and with no
    twirl s_U = 1 too and K is X with a leading axis of length one.  The
    basis is orthonormal, so norms, inner products and linear combinations
    of coordinates are those of the operators, and of(X) followed by
    matrix(K) is the twirl of X.  Both run in two stages: U's coordinates
    of shape (s_U, d_rest, d_rest), d_rest the dimension of all wires U
    leaves alone, are moved to and from the dense operator in slabs of
    rows (_slabs), so neither makes a D x D temporary, and V's nest inside
    them, by one product of that small array with F.  The identity has
    coordinates tau (x) I with tau_ab = Tr E_a Tr F_b.  The rows of one
    pair of irreps of U and V, reshaped, form sqrt(copies) times its
    (m_U m_V d')-square block, copies the product of theirs, so the
    eigenvalues of X are those of the blocks divided by sqrt(copies).
    Every array is write-protected, so _coordinates can share one object.
    """

    def __init__(self, twirl: TwirlSpec | None, wires: Sequence[Wire]):
        u, v = _Stage(twirl, wires, False), _Stage(twirl, wires, True)
        n = len(wires)
        back = [i for i in range(n) if i not in u.factors]
        other = [i for i in back if i not in v.factors]
        self.dim = _total_dim(wires)
        self.dims = tuple(wires[i].dim for i in other)
        self._dr = _total_dim(wires[i] for i in other)
        self._dr_u = _total_dim(wires[i] for i in back)
        self._s = (u.s, v.s)
        self._irreps = [
            (a, m, b, mv, (c * cv) ** 0.5) for a, m, c in u.irreps for b, mv, cv in v.irreps
        ]
        self._adjoint = (u.adjoint[:, None] * v.s + v.adjoint).ravel()
        self.tau = (u.tau[:, None] * v.tau).ravel()
        # S = Q_U (x) Q_V has ||S^T S - I||_2 <= q_U + q_V + q_U q_V.  The
        # rounding of matrix(K) per unit ||K||_F: V's stage leaves within
        # rounding_V ||K||_F of its exact result, of norm at most (1 + q_V)
        # ||K||_F, and U's exact units stretch that error by at most 1 + q_U.
        qu, qv = u.q_defect, v.q_defect
        self._q_defect = qu + qv + qu * qv
        self._stage_rounding = (u.rounding, qu, v.rounding)
        self.rounding = u.rounding * (1.0 + qv + v.rounding) + (1.0 + qu) * v.rounding

        # Depolarizing the wires from position w on maps E_a (x) F_b (x)
        # K_ab to sum_cd (C_U)_ca (C_V)_db E_c (x) F_d (x) (the marginal of
        # K_ab on the other wires before w, padded with I / t), with C_U
        # and C_V the depolarizers of the stages at w; mixers[k] sums
        # (-1)^w C_U (x) C_V / t over the w that keep the first k other
        # wires (see _affine_projection), as pairs (A, B) for A (x) B.
        tails = np.cumprod((1,) + self.dims[::-1])[::-1]
        terms, k, others = [[] for _ in tails], len(other), set(other)
        depolarizers = []
        for w in range(n, -1, -1):
            if w in others:
                k -= 1
            depolarizers.append((k, u.mix[w], v.mix[w]))
            terms[k].append(((-1) ** w / tails[k], u.mix[w], v.mix[w]))
        self.mixers = tuple(_kron_sum(level) for level in terms)
        # _depolarizers[w] is (k, C_U, C_V) for that w (see level_residuals).
        self._depolarizers = tuple(depolarizers[::-1])
        # The failing-side allowances of level_residuals and of the Hermitian
        # defect ||K - hermitian(K)||_F (see choi._feasibility).  Relative to
        # a computed value: the Gram defect 2 delta + delta^2 of the exact
        # scaled units (delta = _q_defect), the distance rho of the stored
        # units E_a (x) F_b from them and the rounding of a norm of at most
        # s d'^2 entries, s = s_U s_V.  Per unit ||K||_F: rho, the defect eta
        # of each of the two C_U (x) C_V a level uses as a map on the stored
        # units (_kron_bound of the stages' _Stage.eta), and the rounding of
        # the marginal chain, the trace and the products with the two
        # factors, at most u (D + s + 2 l ||C_U||_F ||C_V||_F + 4), with l =
        # s_U + s_V the length of those products (s_U with no V).  Each
        # rounding term is doubled, as gamma_n <= 2 n u.
        s = u.s * v.s
        rho = _kron_bound(u.rho, u.norm, v.rho, v.norm)
        eta = _kron_bound(u.eta, u.norm, v.eta, v.norm)
        c_norm = u.c_norm * v.c_norm
        length = u.s + (v.s if v.factors else 0)
        q = self._q_defect
        self.residual_error = (
            2 * q + q * q + rho + 2 * _U * (s * self._dr**2 + 4),
            rho + 2 * eta + 2 * _U * (self.dim + s + 2 * length * c_norm + 4),
        )

        # The one layout of U's dense transforms: the rows, then the columns
        # of the wires U leaves alone, then the columns, then the rows of
        # U's wires, each in their order on the operator; wires of
        # dimension 1 are left out.  Of the orders that keep U's wires
        # last, columns before rows gathered fastest for cloning and
        # learning.  V's stage reads U's coordinates in the same way, with
        # the other wires first and V's wires last.
        self._units = u.stored
        kept = [i for i in range(n) if wires[i].dim > 1]
        self._tensor = tuple(wires[i].dim for i in kept) * 2
        rest = [kept.index(i) for i in back if i in kept]
        twirled = [kept.index(i) for i in sorted(u.factors)]
        self._lead = tuple(self._tensor[a] for a in rest) or (1,)
        self._layout = [a + b for b in (0, len(kept)) for a in rest]
        self._layout += [a + b for b in (len(kept), 0) for a in twirled]
        self._v_units = v.stored if v.factors else None
        kept = [i for i in back if wires[i].dim > 1]
        self._v_tensor = (u.s,) + tuple(wires[i].dim for i in kept) * 2
        outer = [1 + kept.index(i) for i in other if i in kept]
        inner = [1 + kept.index(i) for i in sorted(v.factors)]
        self._v_layout = [0] + [a + b for b in (0, len(kept)) for a in outer]
        self._v_layout += [a + b for b in (len(kept), 0) for a in inner]
        self._v_inverse = sorted(range(len(self._v_layout)), key=self._v_layout.__getitem__)
        for arr in (self._units, v.stored, self._adjoint, self.tau):
            arr.flags.writeable = False

    @property
    def identity(self) -> np.ndarray:
        """Coordinates of the identity, made on each use: without a twirl
        they are the D x D identity, which a shared object should not hold."""
        return self.tau[:, None, None] * np.eye(self._dr)

    def _slabs(self, mat: np.ndarray):
        """Yield (rows, view) over slabs of mat: view, in U's layout, holds
        the entries of mat whose rows on the wires U leaves alone (of
        dimension above 1) lie in the slab, and rows is the slice of the
        rows of U's coordinates it determines.  A slab fixes the rows of a
        prefix of those wires and takes a range on the next one, so that
        it holds about _CHUNK entries, at least one row of the last; with no
        such wire it is all of mat."""
        view = mat.reshape(self._tensor).transpose(self._layout)
        if self._dr_u == 1:
            view = view[None]
        lead = self._lead
        p, rows = 0, lead[0]
        while _CHUNK * rows < self.dim**2 and p + 1 < len(lead):
            p += 1
            rows *= lead[p]
        h = self._dr_u // rows
        step = max(1, _CHUNK * rows // self.dim**2)
        for i, prefix in enumerate(np.ndindex(*lead[:p])):
            sub, base = view[prefix], i * lead[p] * h
            for a in range(0, lead[p], step):
                b = min(a + step, lead[p])
                yield slice(base + a * h, base + b * h), sub[a:b]

    def _read(self, mat: np.ndarray, residual: bool) -> tuple[np.ndarray, float]:
        """U's coordinates of mat and, if residual, the squared Frobenius
        norm of the computed mat less their operator, slab by slab: each
        slab, gathered once, gives its rows of the coordinates by one
        product with the matrix units and then its part of the residual, in
        column chunks of about _CHUNK entries."""
        units = self._units
        k = np.empty((len(units), self._dr_u, self._dr_u), np.result_type(units, mat))
        squares = 0.0
        for rows, view in self._slabs(mat):
            x = view.reshape(-1, units.shape[1])
            part = k[:, rows].reshape(len(units), -1)
            np.matmul(units, x.T, out=part)
            if residual:
                step = max(1, _CHUNK // len(x))
                for j in range(0, units.shape[1], step):
                    y = part.T @ units[:, j : j + step]
                    np.subtract(x[:, j : j + step], y, out=y)
                    squares += float(np.vdot(y, y).real)
        return k, squares

    def _v_of(self, k: np.ndarray) -> np.ndarray:
        """The coordinates whose V stage holds U's coordinates k: one
        product of k, gathered with V's wires last, with V's units.  With
        no V they are k itself."""
        if self._v_units is None:
            return k
        x = k.reshape(self._v_tensor).transpose(self._v_layout)
        y = x.reshape(-1, self._v_units.shape[1]) @ self._v_units.T
        dr = self._dr
        return y.reshape(self._s[0], dr, dr, -1).transpose(0, 3, 1, 2).reshape(-1, dr, dr)

    def _v_matrix(self, k: np.ndarray) -> np.ndarray:
        """U's coordinates of the operator with coordinates k; _v_of
        inverts it on the algebra."""
        if self._v_units is None:
            return k
        (su, sv), dr = self._s, self._dr
        y = k.reshape(su, sv, dr * dr).transpose(0, 2, 1).reshape(-1, sv) @ self._v_units
        y = y.reshape([self._v_tensor[a] for a in self._v_layout])
        return y.transpose(self._v_inverse).reshape(su, self._dr_u, self._dr_u)

    def of(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of the twirl of mat: read without the residual.  With
        no twirled wire they are mat itself, uncopied."""
        if self._dr_u == self.dim:
            return mat[None]
        return self._v_of(self._read(mat, residual=False)[0])

    def matrix(self, k: np.ndarray) -> np.ndarray:
        """The operator on the wires with coordinates k, written slab by
        slab (see _slabs) from one product of each slab's rows of U's
        coordinates with U's matrix units, so only the D x D result is
        made."""
        if self._dr_u == self.dim:
            return k[0].copy()
        k = self._v_matrix(k)
        out = np.empty((self.dim, self.dim), np.result_type(k, self._units))
        for rows, view in self._slabs(out):
            part = k[:, rows].reshape(len(k), -1)
            view[...] = (part.T @ self._units).reshape(view.shape)
        return out

    def _mixed(self, pairs, k: np.ndarray) -> np.ndarray:
        """The sum over pairs (A, B) of (A (x) B) k: A mixes U's index of
        the coordinates k and B V's, which is [[1]] with no V."""
        su, sv = self._s
        out = None
        for a, b in pairs:
            y = a @ k.reshape(su, -1)
            if self._v_units is not None:
                y = y.reshape(su, sv, -1).swapaxes(0, 1).reshape(sv, -1)
                y = (b @ y).reshape(sv, su, -1).swapaxes(0, 1)
            out = y if out is None else out + y
        return out.reshape(k.shape)

    def level_residuals(self, k: np.ndarray, dims: Sequence[int]) -> list[float]:
        """labeled._level_residuals of the operator W of the coordinates k,
        whose wires have dims in comb order, from the coordinates alone.

        Level n there is sqrt(t_{2n+1}) ||G_n W||_F / c_n, with G_n =
        Delta_{2n+1} - Delta_{2n}, Delta_w the depolarizing of the wires from
        position w on, t_w their dimension and c_n the product of the input
        dims after tooth n; level 0 adds sqrt(d_0) |Tr W / (c_0 d_0) - 1|
        in quadrature, d_0 the first input dim.  Delta_w W has coordinates
        (C_U (x) C_V) (M_k (x) I / t'), M_k the marginal of k on the first
        k other wires (labeled._marginals) and (k, C_U, C_V) =
        _depolarizers[w], and the basis is orthonormal, so ||G_n W||_F is
        the norm of coordinates of size s d'^2 at most.  Between w = 2n and
        2n + 1 only input n is depolarized: an other wire moves M and keeps
        both C, and a twirled one moves its own stage's C and keeps M and
        the other C.
        """
        marg, ins, out = _marginals(k, self.dims), dims[::2], []
        for n, d in enumerate(ins):
            (i, a, av), (j, b, bv) = self._depolarizers[2 * n : 2 * n + 2]
            m = marg[j]
            if j > i:
                m = m.copy()
                h = m.shape[1] // d
                blocks = m.reshape(-1, h, d, h, d)
                for x in range(d):
                    blocks[:, :, x, :, x] -= marg[i] / d
            elif b is not a:
                b = b - a
            else:
                bv = bv - av
            gap = float(np.linalg.norm(self._mixed(((b, bv),), m)))
            twirled = math.prod(dims[2 * n + 1 :]) / math.prod(self.dims[j:])
            res = twirled**0.5 * gap / math.prod(ins[n + 1 :])
            if n == 0:
                tr = self.tau @ np.einsum("sii->s", k)
                res = math.hypot(res, d**0.5 * abs(tr / math.prod(ins) - 1.0))
            out.append(res)
        return out

    def trace(self, k: np.ndarray) -> float:
        return float(self.tau @ np.einsum("sii->s", k).real)

    def hermitian(self, k: np.ndarray) -> np.ndarray:
        """Coordinates of the Hermitian part: X^dagger has coordinates
        K_ji,lk^dagger at the row of E_ij (x) F_kl."""
        out = k + k[self._adjoint].conj().transpose(0, 2, 1)
        out /= 2.0
        return out

    def blocks(self, k: np.ndarray) -> list[np.ndarray]:
        """sqrt(copies) times one copy of each irrep block: for irreps of U
        and V of multiplicities m and n, entry ((i, k, x), (j, l, y)) is
        entry (x, y) of the coordinates of E_ij (x) F_kl."""
        dr = self._dr
        k = k.reshape(self._s + (dr, dr))
        return [
            k[a : a + m * m, b : b + n * n]
            .reshape(m, m, n, n, dr, dr)
            .transpose(0, 2, 4, 1, 3, 5)
            .reshape(m * n * dr, -1)
            for a, m, b, n, _ in self._irreps
        ]

    def from_blocks(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """The coordinates whose blocks are blocks."""
        dr = self._dr
        out = np.empty(self._s + (dr, dr), np.result_type(*blocks))
        for x, (a, m, b, n, _) in zip(blocks, self._irreps):
            out[a : a + m * m, b : b + n * n] = (
                x.reshape(m, n, dr, m, n, dr)
                .transpose(0, 3, 1, 4, 2, 5)
                .reshape(m * m, n * n, dr, dr)
            )
        return out.reshape(-1, dr, dr)

    def min_eigenvalue(self, k: np.ndarray) -> float:
        return min(
            float(np.linalg.eigvalsh(b)[0]) / irrep[-1]
            for b, irrep in zip(self.blocks(k), self._irreps)
        )

    def max_eigenvalue(self, k: np.ndarray) -> float:
        return -self.min_eigenvalue(-k)

    def read(self, mat: np.ndarray) -> tuple[np.ndarray, float]:
        """The coordinates K = of(mat) and a bound r >= ||mat - W||_F on the
        distance of mat from the exact operator W of K, in one pass over
        mat in slabs (_slabs), each gathered once into U's layout: its rows
        of U's coordinates K_U and its part of the residual depend on that
        slab alone, so no D x D array is built.  For U's stage r is (1 +
        D^2 u) times the computed ||mat - matrix_U(K_U)||_F plus
        rounding_U ||K_U||_F, a bound on ||mat - W_U||_F, W_U the exact
        operator of K_U.  V's stage adds the distance of W_U from W: with
        Y the exact U coordinates of W, ||W_U - W||_F <= (1 + q_U) ||K_U -
        Y||_F (the exact scaled units of U have a Gram defect of norm at
        most 2 q_U + q_U^2), and ||K_U - Y||_F is at most the computed
        ||K_U - _v_matrix(K)||_F, with the rounding of that norm, plus
        rounding_V ||K||_F.  With no twirled wire K is mat, uncopied, and r
        = 0; otherwise a non-finite entry of mat makes r non-finite, as the
        residual subtracts from it.
        """
        if self._dr_u == self.dim:
            return mat[None], 0.0
        ku, squares = self._read(mat, residual=True)
        rounding_u, qu, rounding_v = self._stage_rounding
        r = (1.0 + self.dim**2 * _U) * squares**0.5
        r += rounding_u * float(np.linalg.norm(ku))
        k = self._v_of(ku)
        if k is not ku:
            gap = ku - self._v_matrix(k)
            gap = (1.0 + 2 * gap.size * _U) * float(np.linalg.norm(gap))
            r += (1.0 + qu) * (gap + rounding_v * float(np.linalg.norm(k)))
        return k, r

    def eigenvalue_floor(self, k: np.ndarray, r: float | None = None) -> float:
        """A lower bound on the least eigenvalue of the Hermitian part of
        any matrix within r of the operator of the coordinates k (see read);
        a dense matrix given alone is read first.

        With no twirled wire: the eigenvalues of the Hermitian part of k[0]
        less the allowance of _eigenvalue_floor, less r.  Otherwise let B_b
        be the blocks of the computed Hermitian part K_h of k and W the
        exact operator they stand for, W = S Z S^T with S = Q_U (x) Q_V (x)
        I_rest, up to an order of its columns, and Z block diagonal with
        eigenvalues those of the B_b / sqrt(c_b).  Then lambda_min(Z) >= l
        = min_b _eigenvalue_floor(B_b) / sqrt(c_b), and by Ostrowski's
        theorem, with ||S^T S - I||_2 <= delta = q_U + q_V + q_U q_V (each
        q measured, and checked to 1e-10 by _commutant_blocks),
        lambda_min(W) >= l - delta |l|.  Taking the Hermitian part is a
        contraction that commutes with the twirl, so the Hermitian part H
        of the matrix lies within r of the operator of the exact Hermitian
        part of k, and that within 2u ||K_h||_F of W, the rounding of K_h.
        By Weyl's inequality the bound returned,

            l - (delta + 2u) |l| - r - 2u ||K_h||_F,

        u = eps / 2, the extra terms covering the division by sqrt(c_b),
        never exceeds lambda_min(H): a matrix off the algebra, or a twirl
        that is not its own, only makes it lower.
        """
        if r is None:
            k, r = self.read(k)
        k = self.hermitian(k)
        if self._dr_u == self.dim:
            return _eigenvalue_floor(np.linalg.eigvalsh(k[0])) - r
        low = min(
            _eigenvalue_floor(np.linalg.eigvalsh(b)) / irrep[-1]
            for b, irrep in zip(self.blocks(k), self._irreps)
        )
        return (
            low
            - (self._q_defect + 2 * _U) * abs(low)
            - r
            - 2 * _U * float(np.linalg.norm(k))
        )


@lru_cache(maxsize=32)
def _coordinates(twirl: TwirlSpec | None, wires: tuple[Wire, ...]) -> _Coordinates:
    """The one shared _Coordinates of twirl on wires."""
    return _Coordinates(twirl, wires)


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
    G_n annihilate.  With M_w = Tr_{wires w..}[X] (labeled._marginals, the
    chain verify_causality reads too) and t_w the dimension of those wires,
    the projection before the shift is the sum over w of (-1)^w M_w / t_w
    (x) I.  On the coordinates, coords.mixers[i] sums the terms whose w
    leave i of coords.dims ((-1)^w / t_w without a twirl), as pairs (A, B)
    acting as A (x) B on the indices of U and V (_Coordinates._mixed;
    one pair with no V).  The sum is
    accumulated in Horner form, adding the running sum to the diagonal
    blocks of the next term, so no Kronecker product is built.
    """
    mixers, tau = coords.mixers, coords.tau
    marg = _marginals(k, coords.dims)
    out = coords._mixed(mixers[0], marg[0])
    for i, d in enumerate(coords.dims, start=1):
        nxt = coords._mixed(mixers[i], marg[i])
        h = nxt.shape[1] // d
        blocks = nxt.reshape(-1, h, d, h, d)
        for j in range(d):
            blocks[:, :, j, :, j] += out
        out = nxt
    # Shift along the identity, whose coordinates are tau (x) I.
    h = out.shape[1]
    shift = (trace_value - coords.trace(out)) / (h * tau @ tau)
    out[:, range(h), range(h)] += (shift * tau)[:, None]
    return out
