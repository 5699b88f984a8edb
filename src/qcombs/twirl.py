"""The Haar twirl's fixed-point algebra, in coordinates.

A twirl (TwirlSpec) applies a unitary U, or its entrywise conjugate, as a
tensor power on chosen wires and averages over the Haar measure.  It is
the orthogonal projection onto the span of the (partially transposed)
permutation operators, its fixed-point algebra, in any dimension and
degree.  That span is a matrix algebra with real matrix entries, so one
real orthogonal change of basis on the twirled factor splits every
operator it fixes into small blocks, one per irrep, each repeated once
per dimension of that irrep.  Its matrix units, scaled to unit norm,
form an orthonormal basis of the algebra (_Coordinates): of(X) reads the
coordinates of the twirl of X by products with them, streamed over X in
slabs of rows so that no D x D temporary is made, and the average Omega
of a base operator X is matrix(of(X)).  A real base operator, which
every task objective is, therefore averages to an exactly real Omega.
The change of basis is found numerically and checked in
_commutant_blocks against the spanning permutation operators, so an
inexact one raises instead of averaging wrongly.  The solver runs in the
same coordinates, where each block is a reshaped slice, and so does the
affine projection onto the causality constraints (_affine_projection), so
this module alone knows their encoding; no twirl is the one-block case.
That projection reads the marginal chain (labeled._marginals) that
reduced_comb and the dense level residuals read too, and the same chain
on the coordinates gives every level residual of an operator the twirl
fixes (_Coordinates.level_residuals).  Positivity is certified on the
same blocks (_Coordinates.eigenvalue_floor), less the distance from the
algebra that one streamed dense read (_Coordinates.read) bounds, so an
operator the twirl does not fix fails the check instead; choi._feasibility
judges a twirled board from that read in the same way.

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
            raise InvalidArgumentError(f"dimension must be at least 2, got {self.d}")
        seen = set()
        for label, tag, copies in self.pattern:
            if tag not in TAGS:
                raise InvalidArgumentError(f"unknown tag {tag!r} on wire {label!r}")
            if copies < 1:
                raise InvalidArgumentError(f"copies must be >= 1 on wire {label!r}")
            if label in seen:
                raise InvalidArgumentError(f"wire {label!r} repeats in the pattern")
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


def _eigenvalue_floor(w: np.ndarray) -> float:
    """Lower bound on the least eigenvalue of a Hermitian M of order len(w)
    from its computed eigenvalues w (ascending): w[0] less the eigensolver
    allowance len(w) * u * ||M||_2, u = eps / 2, as VSDP does (Jansson,
    Chaykin & Keil, SIAM J. Numer. Anal. 46, 180 (2007))."""
    return float(w[0]) - len(w) * _U * max(abs(float(w[0])), abs(float(w[-1])))


class _Coordinates:
    """Coordinates of the operators a twirl fixes, on one wire order.

    Such an operator is X = sum_a E_a (x) K_a, where the E_a are the matrix
    units of the commutant on the twirled factor (see _matrix_units), each
    divided by the square root of its number of copies so that they are
    orthonormal, and K_a acts on the other wires in their order.  The array
    K of shape (s, d_rest, d_rest), s = sum m^2, holds the coordinates.  The
    basis is orthonormal, so norms, inner products and linear combinations
    of coordinates are those of the operators, and of(X) followed by
    matrix(K) is the twirl of X; both stream the dense operator in slabs
    of rows (_slabs), so neither makes a D x D temporary.  The identity has
    coordinates tau (x) I with tau_a = Tr E_a.  The rows of one irrep,
    reshaped, form sqrt(copies) times its (m * d_rest)-square block, so the
    eigenvalues of X are those of the blocks divided by sqrt(copies).  With
    no twirl, or no twirled wire, s = 1, E = [[1]] and K is X with a
    leading axis of length one.  Every array is write-protected, so
    _coordinates can share one object.
    """

    def __init__(self, twirl: TwirlSpec | None, wires: Sequence[Wire]):
        labels, t, conj = ([], 0, ()) if twirl is None else twirl._factor(wires)
        # The measured orthogonality defect of Q, a bound on ||Q^T Q - I||_2:
        # the Frobenius norm of the computed defect plus the rounding of the
        # product Q^T Q, gamma_n ||Q||_F^2 <= 2 n^2 u (see eigenvalue_floor).
        self._q_defect = 0.0
        if labels:
            q, irreps = _commutant_blocks(twirl.d, t, conj)
            units, copies = _matrix_units(q, irreps)
            gram = q.T @ q - np.eye(len(q))
            self._q_defect = float(np.linalg.norm(gram)) + 2 * len(q) ** 2 * _U
        else:
            irreps, units, copies = ((0, 1, 1),), np.ones((1, 1)), np.ones(1)
        n = len(wires)
        position = {w.label: i for i, w in enumerate(wires)}
        front = [position[lbl] for lbl in labels]
        back = [i for i in range(n) if i not in front]
        self.dim = _total_dim(wires)
        self.dims = tuple(wires[i].dim for i in back)
        self._dr = _total_dim(wires[i] for i in back)
        units = units / np.sqrt(copies)[:, None]
        self._irreps, adjoint, row = [], [], 0
        for _, m, c in irreps:
            self._irreps.append((row, m, c**0.5))
            adjoint.append(row + np.arange(m * m).reshape(m, m).T.ravel())
            row += m * m
        self._adjoint = np.concatenate(adjoint)
        # The rounding of matrix(K) per unit ||K||_F, for read: gamma_s
        # ||U||_F for the product with the scaled matrix units U (||U||_F^2
        # = s) and (c + 3) u sqrt(c s) for the rounding of U itself, c the
        # most copies; none in the one-block case.
        s, c = len(units), float(copies.max())
        self.rounding = _U * s**0.5 * (s + (c + 3.0) * c**0.5) if labels else 0.0
        self.tau = units @ np.eye(self.dim // self._dr).reshape(-1)

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
        # _depolarizers[w] is (k, C) for that w (see level_residuals);
        # defect, the largest ||C^T U - D_w(U)||_F over w, with D_w(U) the
        # depolarized units, measures how far each C is from representing
        # its depolarizing on the stored units U.
        tails = np.cumprod((1,) + self.dims[::-1])[::-1]
        self.mixers = [np.zeros((len(units), len(units))) for _ in tails]
        depolarizers, moved, k, defect, c_norm = [], units, len(back), 0.0, 0.0
        for w in range(n, -1, -1):
            if w in factors:
                moved = _depolarized(moved, d, t, factors[w])
            elif w < n:
                k -= 1
            mix = units @ moved.T
            mix.flags.writeable = False
            depolarizers.append((k, mix))
            defect = max(defect, float(np.linalg.norm(mix.T @ units - moved)))
            c_norm = max(c_norm, float(np.linalg.norm(mix)))
            self.mixers[k] += ((-1) ** w / tails[k]) * mix
        self.mixers = tuple(self.mixers)
        self._depolarizers = tuple(depolarizers[::-1])
        # The failing-side allowances of level_residuals and of the Hermitian
        # defect ||K - hermitian(K)||_F (see choi._feasibility).  Relative to
        # a computed value: the Gram defect 2 delta + delta^2 of the exact
        # scaled units (delta = _q_defect), the distance rho of the stored
        # units from them (read's (c + 3) u sqrt(c s)) and the rounding of a
        # norm of at most s d_rest^2 entries.  Per unit ||K||_F: rho, the
        # defect eta of each of the two C a level uses (the measured one,
        # plus the rounding of that measurement, u sqrt(s) (s ||C||_F + 2),
        # and of D_w(U), u sqrt(s) t (d + 2)), and the rounding of the
        # marginal chain, the trace and the products with C, at most u (D +
        # s + 2 s ||C||_F + 4).  Each rounding term is doubled, as gamma_n
        # = n u / (1 - n u) <= 2 n u.
        rho = _U * (c + 3.0) * (c * s) ** 0.5 if labels else 0.0
        eta = 1.01 * defect + 2 * _U * s**0.5 * (t * (d + 2) + s * c_norm + 2)
        q = self._q_defect
        self.residual_error = (
            2 * q + q * q + rho + 2 * _U * (s * self._dr**2 + 4),
            rho + 2 * eta + 2 * _U * (self.dim + s + 2 * s * c_norm + 4),
        )

        # The one layout of the dense transforms: the rows, then the columns
        # of the other wires, then the columns, then the rows of the twirled
        # wires, each in their order on the operator; wires of dimension 1
        # are left out.  The matrix units are stored with their unit factors
        # in that order.  Of the orders that keep the twirled wires last,
        # columns before rows gathered fastest for cloning and learning.
        order = [f for i in sorted(factors) for f in factors[i]]
        self._units = np.ascontiguousarray(
            units.reshape((s,) + (d,) * (2 * t))
            .transpose([0] + [1 + t + f for f in order] + [1 + f for f in order])
            .reshape(s, -1)
        )
        kept = [i for i in range(n) if wires[i].dim > 1]
        self._tensor = tuple(wires[i].dim for i in kept) * 2
        rest = [kept.index(i) for i in back if i in kept]
        twirled = [kept.index(i) for i in sorted(front)]
        self._lead = tuple(self._tensor[a] for a in rest) or (1,)
        self._layout = [a + b for b in (0, len(kept)) for a in rest]
        self._layout += [a + b for b in (len(kept), 0) for a in twirled]
        for arr in (self._units, self._adjoint, self.tau, *self.mixers):
            arr.flags.writeable = False

    @property
    def identity(self) -> np.ndarray:
        """Coordinates of the identity, made on each use: without a twirl
        they are the D x D identity, which a shared object should not hold."""
        return self.tau[:, None, None] * np.eye(self._dr)

    def _slabs(self, mat: np.ndarray):
        """Yield (rows, view) over slabs of mat: view, in the layout, holds
        the entries of mat whose rows on the other wires (of dimension above
        1) lie in the slab, and rows is the slice of the rows of K it
        determines.  A slab fixes the rows of a prefix of those wires and
        takes a range on the next one, so that it holds about _CHUNK
        entries, at least one row of the last; with no other wire it is
        all of mat."""
        view = mat.reshape(self._tensor).transpose(self._layout)
        if self._dr == 1:
            view = view[None]
        lead = self._lead
        p, rows = 0, lead[0]
        while _CHUNK * rows < self.dim**2 and p + 1 < len(lead):
            p += 1
            rows *= lead[p]
        h = self._dr // rows
        step = max(1, _CHUNK * rows // self.dim**2)
        for i, prefix in enumerate(np.ndindex(*lead[:p])):
            sub, base = view[prefix], i * lead[p] * h
            for a in range(0, lead[p], step):
                b = min(a + step, lead[p])
                yield slice(base + a * h, base + b * h), sub[a:b]

    def _read(self, mat: np.ndarray, residual: bool) -> tuple[np.ndarray, float]:
        """K = of(mat) and, if residual, the squared Frobenius norm of the
        computed mat - matrix(K), slab by slab: each slab, gathered once,
        gives its rows of K by one product with the matrix units and then
        its part of the residual, in column chunks of about _CHUNK entries."""
        units = self._units
        k = np.empty((len(units), self._dr, self._dr), np.result_type(units, mat))
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

    def of(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of the twirl of mat: read without the residual.  With
        no twirled wire they are mat itself, uncopied."""
        if self._dr == self.dim:
            return mat[None]
        return self._read(mat, residual=False)[0]

    def matrix(self, k: np.ndarray) -> np.ndarray:
        """The operator on the wires with coordinates k, written slab by
        slab (see _slabs) from one product of each slab's rows of k with the
        matrix units, so only the D x D result is made."""
        if self._dr == self.dim:
            return k[0].copy()
        out = np.empty((self.dim, self.dim), np.result_type(k, self._units))
        for rows, view in self._slabs(out):
            part = k[:, rows].reshape(len(k), -1)
            view[...] = (part.T @ self._units).reshape(view.shape)
        return out

    def level_residuals(self, k: np.ndarray, dims: Sequence[int]) -> list[float]:
        """labeled._level_residuals of the operator W of the coordinates k,
        whose wires have dims in comb order, from the coordinates alone.

        Level n there is sqrt(t_{2n+1}) ||G_n W||_F / c_n, with G_n =
        Delta_{2n+1} - Delta_{2n}, Delta_w the depolarizing of the wires from
        position w on, t_w their dimension and c_n the product of the input
        dims after tooth n; level 0 adds sqrt(d_0) |Tr W / (c_0 d_0) - 1|
        in quadrature, d_0 the first input dim.  Delta_w W has coordinates
        C_w (M_k (x) I / t'), M_k the marginal of k on the first k other
        wires (labeled._marginals) and (k, C_w) = _depolarizers[w], and the
        basis is orthonormal, so ||G_n W||_F is the norm of coordinates of
        size s d_rest^2 at most.  Between w = 2n and 2n + 1 only input n is
        depolarized: an untwirled one moves M and keeps C, a twirled one
        moves C and keeps M.
        """
        marg, ins, out = _marginals(k, self.dims), dims[::2], []
        for n, d in enumerate(ins):
            (i, a), (j, b) = self._depolarizers[2 * n : 2 * n + 2]
            m = marg[j]
            if j > i:
                m = m.copy()
                h = m.shape[1] // d
                blocks = m.reshape(-1, h, d, h, d)
                for x in range(d):
                    blocks[:, :, x, :, x] -= marg[i] / d
            else:
                b = b - a
            gap = float(np.linalg.norm(b @ m.reshape(len(b), -1)))
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
        K_ji^dagger at the row of E_ij."""
        out = k + k[self._adjoint].conj().transpose(0, 2, 1)
        out /= 2.0
        return out

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

    def read(self, mat: np.ndarray) -> tuple[np.ndarray, float]:
        """The coordinates K = of(mat) and a bound r >= ||mat - W||_F on the
        distance of mat from the exact operator W of K, in one pass over
        mat in slabs (_slabs), each gathered once into the layout: its rows
        of K and its part of the residual depend on that slab alone, so no
        D x D array is built.  r is (1 + D^2 u) times the computed ||mat -
        matrix(K)||_F plus self.rounding ||K||_F.  With no twirled wire K
        is mat, uncopied, and r = 0; otherwise a non-finite entry of mat
        makes r non-finite, as the residual subtracts from it.
        """
        if self._dr == self.dim:
            return mat[None], 0.0
        k, squares = self._read(mat, residual=True)
        r = (1.0 + self.dim**2 * _U) * squares**0.5
        r += self.rounding * float(np.linalg.norm(k))
        return k, r

    def eigenvalue_floor(self, k: np.ndarray, r: float | None = None) -> float:
        """A lower bound on the least eigenvalue of the Hermitian part of
        any matrix within r of the operator of the coordinates k (see read);
        a dense matrix given alone is read first.

        With no twirled wire: the eigenvalues of the Hermitian part of k[0]
        less the allowance of _eigenvalue_floor, less r.  Otherwise let B_b
        be the blocks of the computed Hermitian part K_h of k and W the
        exact operator they stand for, W = S Z S^T with S = Q (x) I_rest and
        Z block diagonal with eigenvalues those of the B_b / sqrt(c_b).  Then
        lambda_min(Z) >= l = min_b _eigenvalue_floor(B_b) / sqrt(c_b), and
        by Ostrowski's theorem, with ||S^T S - I||_2 = ||Q^T Q - I||_2 <=
        delta (measured, and checked to 1e-10 by _commutant_blocks),
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
        if self._dr == self.dim:
            return _eigenvalue_floor(np.linalg.eigvalsh(k[0])) - r
        low = min(
            _eigenvalue_floor(np.linalg.eigvalsh(b)) / sc
            for b, (_, _, sc) in zip(self.blocks(k), self._irreps)
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
    leave i of coords.dims ((-1)^w / t_w without a twirl).  The sum is
    accumulated in Horner form, adding the running sum to the diagonal
    blocks of the next term, so no Kronecker product is built.
    """
    mixers, tau = coords.mixers, coords.tau

    def mixed(i, marg):
        return (mixers[i] @ marg.reshape(len(tau), -1)).reshape(marg.shape)

    marg = _marginals(k, coords.dims)
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
    shift = (trace_value - coords.trace(out)) / (h * tau @ tau)
    out[:, range(h), range(h)] += (shift * tau)[:, None]
    return out
