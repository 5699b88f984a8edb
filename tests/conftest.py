"""Shared generators and independent oracles for the test suite.

Everything here deliberately avoids the code paths it is used to check:
the Monte-Carlo fidelity oracle composes circuits through link_product
and plain matrix sandwiches (never through the twirl construction), the
Clifford twirl sums explicit conjugations over a finite group and the
Gram average solves the normal equations of the permutation operators
(never through the commutant's block form), the alternating projections
build the affine projection from its definition with Kronecker products
(never through the coordinates' mixers), the comb conditions are
re-evaluated by one partial trace per wire and level, and test_link's
padded link product from its definition, with the partial_trace and
partial_transpose written here on plain arrays (never through link_product
or the marginal chain), the brute-force channel search parameterizes
Stinespring isometries directly (never through the solver), the
random-comb oracle links one dense |V>><<V| per tooth with link_product,
the last tooth summed over its Kraus operators (never through the
contracted Choi vector), the twirl's coordinates are read and written
by one transposed copy of the whole operator with the matrix units in the
pattern's order, and V's from one transposed copy of U's (never through
the slabs of twirl._Coordinates), and wire_conjugated applies a wire-local
symmetry one wire at a time on the operator's tensor (never through the
twirl).
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations

import numpy as np
from scipy.optimize import minimize

from qcombs import (
    CombStructure,
    LabeledOperator,
    LabeledVector,
    QuantumComb,
    TwirlSpec,
    Wire,
    ginibre,
    haar_isometry,
    haar_unitary,
    link_product,
    random_comb,
)
from qcombs.twirl import _U, _commutant_blocks, _matrix_units


def rand_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = ginibre(dim, dim, rng)
    return (a + a.conj().T) / 2.0


def rand_kraus(d_in: int, d_out: int, rank: int, rng: np.random.Generator):
    """Kraus operators of a Haar-random channel of the given Kraus rank."""
    v = haar_isometry(d_out * rank, d_in, rng)
    return [v[e * d_out : (e + 1) * d_out, :] for e in range(rank)]


def sample_sequential_network(rng: np.random.Generator) -> QuantumComb:
    """A random 1-3 tooth comb with wire dims 2-3 and memory dims 2-4.

    Resamples combinations whose memory is too small to carry the tooth
    isometry; none reaches the dense cap (D <= 729, isometries <= 36 rows).
    """
    while True:
        n_teeth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 4)) for _ in range(2 * n_teeth)]
        memory = [int(rng.integers(2, 5)) for _ in range(n_teeth - 1)]
        try:
            return random_comb(
                CombStructure.standard(dims), memory, seed=int(rng.integers(2**31))
            )
        except ValueError:
            continue


def linked_random_comb(structure: CombStructure, memory_dims, seed: int) -> QuantumComb:
    """random_comb from the realization theorem's definition, with no cap.

    The same Haar isometries are drawn in the same order.  Tooth k is the
    dense operator |V>><<V| on fresh memory wires; the last tooth's
    environment is traced out first, as the sum of |K_e>><<K_e| over its
    Kraus operators K_e = <e|V, which is the same as tracing it out of the
    linked chain.  The teeth are linked in comb order with link_product.
    """
    rng = np.random.default_rng(seed)
    last = structure.n_teeth - 1
    assembled, mem_prev = None, None
    for k, (in_w, out_w) in enumerate(structure.teeth):
        m_prev = mem_prev.dim if mem_prev is not None else 1
        m_next = memory_dims[k] if k < last else m_prev * in_w.dim
        v = haar_isometry(out_w.dim * m_next, m_prev * in_w.dim, rng)
        v = v.reshape(out_w.dim, m_next, -1)
        ins = (mem_prev, in_w) if mem_prev else (in_w,)
        if k == last:
            kraus = [LabeledVector((out_w,) + ins, v[:, e].reshape(-1)) for e in range(m_next)]
            tooth = sum((ke.outer() for ke in kraus[1:]), kraus[0].outer())
        else:
            mem_prev = Wire(f"mem{k}", m_next)
            assert mem_prev.label not in structure.labels
            tooth = LabeledVector((out_w, mem_prev) + ins, v.reshape(-1)).outer()
        assembled = tooth if assembled is None else link_product(assembled, tooth)
    return QuantumComb(assembled, structure)


def learning_memory(n_uses: int) -> list[int]:
    """Memory dims that make random_comb feasible on the learning layout."""
    return [2] * n_uses + [4]


def conjugation_operator(base: LabeledOperator, mats: dict) -> LabeledOperator:
    """kron of per-wire unitaries (identity where unspecified), in base order."""
    factors = [
        mats.get(w.label, np.eye(w.dim)) for w in base.wires
    ]
    return LabeledOperator(base.wires, reduce(np.kron, factors))


def wire_conjugated(op: LabeledOperator, mats: dict) -> LabeledOperator:
    """G op G^dagger for G the kron of per-wire unitaries mats (label ->
    matrix, the identity elsewhere), one wire at a time on op's tensor, so
    no D x D G is built."""
    n, dims = len(op.wires), [w.dim for w in op.wires]
    x = op.matrix.reshape(dims * 2)
    for i, w in enumerate(op.wires):
        if w.label in mats:
            g = mats[w.label]
            x = np.moveaxis(np.tensordot(g, x, axes=(1, i)), 0, i)
            x = np.moveaxis(np.tensordot(x, g.conj(), axes=(n + i, 1)), -1, n + i)
    return LabeledOperator(op.wires, x.reshape(op.matrix.shape))


def cloning_conjugation(base: LabeledOperator, U: np.ndarray, n: int, m: int):
    """The symmetry W(U) of the cloning figure of merit: U^(x)m on the final
    output, U-conjugate on each returned slot wire."""
    mats = {str(2 * n + 1): reduce(np.kron, [U] * m)}
    for k in range(1, n + 1):
        mats[str(2 * k)] = U.conj()
    return conjugation_operator(base, mats)


def learning_conjugation(base: LabeledOperator, U: np.ndarray, n: int):
    """The symmetry W(U) of the learning figure of merit."""
    mats = {str(2 * n + 3): U}
    for k in range(1, n + 1):
        mats[str(2 * k)] = U.conj()
    return conjugation_operator(base, mats)


def clifford_group() -> list[np.ndarray]:
    """The 24 single-qubit Clifford unitaries, one per phase class.

    Breadth-first products of the Hadamard and phase gates, deduplicated
    after fixing the global phase against the first entry of magnitude
    above 0.1.
    """
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    s = np.diag([1, 1j])

    def canon(u: np.ndarray) -> bytes:
        z = u.ravel()[int(np.argmax(np.abs(u).ravel() > 0.1))]
        return (np.round(u / (z / abs(z)), 6) + 0j).tobytes()

    found = {canon(np.eye(2)): np.eye(2, dtype=complex)}
    frontier = list(found.values())
    while frontier:
        fresh = []
        for g in frontier:
            for gen in (h, s):
                cand = gen @ g
                key = canon(cand)
                if key not in found:
                    found[key] = cand
                    fresh.append(cand)
        frontier = fresh
    group = list(found.values())
    assert len(group) == 24
    return group


def clifford_twirl(base: LabeledOperator, pattern) -> LabeledOperator:
    """Average of W(g) base W(g)^dag over the single-qubit Clifford group.

    pattern is a TwirlSpec pattern of single copies: g acts on "U" wires
    and conj(g) on "U*" wires.  The group is a unitary 3-design, so up to
    three twirled qubit wires this equals the Haar average.
    """
    assert all(copies == 1 for _, _, copies in pattern)
    group = clifford_group()
    acc = None
    for g in group:
        w = conjugation_operator(
            base, {lbl: g if tag == "U" else g.conj() for lbl, tag, _ in pattern}
        )
        term = conjugated(w, base)
        acc = term if acc is None else acc + term
    return acc * (1.0 / len(group))


def gram_average(spec: TwirlSpec, base: LabeledOperator) -> LabeledOperator:
    """Haar average of base under spec, as the projection onto the span of
    the partially transposed permutation operators.

    The operators P_i on the t twirled unit factors span the fixed algebra
    but need not be independent, so the coefficients of each overlap come
    from the pseudo-inverse of their Gram matrix (the Weingarten matrix of
    Collins and Sniady, CMP 264, 773 (2006)); the average is then
    sum_ij pinv(G)_ij P_i (x) Tr_1[(P_j^dag (x) I) base], one full-size
    Kronecker product per permutation.
    """
    twirled, conj = [], []
    for label, tag, copies in spec.pattern:
        twirled.append(label)
        conj += [tag == "U*"] * copies
    op = base.permuted(twirled + [lbl for lbl in base.labels if lbl not in twirled])
    d, t = spec.d, len(conj)
    dt = d**t
    dr = op.dim // dt
    basis = []
    for perm in permutations(range(t)):
        p = np.eye(dt).reshape((d,) * (2 * t))
        p = p.transpose(list(perm) + list(range(t, 2 * t)))
        for k in np.flatnonzero(conj):
            p = np.swapaxes(p, k, t + k)
        basis.append(p.reshape(dt, dt))
    flat = np.stack([b.reshape(-1) for b in basis])
    gram_pinv = np.linalg.pinv(flat @ flat.T)
    x4 = op.matrix.reshape(dt, dr, dt, dr)
    overlaps = [np.einsum("ji,jaib->ab", b.conj(), x4) for b in basis]
    avg = np.zeros_like(op.matrix)
    for i, b in enumerate(basis):
        coeff = sum(gram_pinv[i, j] * overlaps[j] for j in range(len(basis)))
        avg += np.kron(b, coeff)
    return LabeledOperator(op.wires, avg).hermitized().permuted(base.labels)


def depolarize_each_tail(mat, dims, trace_value):
    """The affine projection onto the causality constraints as defined:
    subtract Delta_{2n+1}(X) - Delta_{2n}(X) for every tooth n, each
    Delta_w built as a full-size Kronecker product of the head marginal
    with the maximally mixed tail, then shift the trace along the identity."""
    D = mat.shape[0]
    deltas = {}
    tail = 1
    for w in range(len(dims) - 1, -1, -1):
        tail *= dims[w]
        head = D // tail
        marginal = np.einsum("aibi->ab", mat.reshape(head, tail, head, tail))
        deltas[w] = np.kron(marginal, np.eye(tail)) / tail
    out = mat.copy()
    for n in range(len(dims) // 2):
        out -= deltas[2 * n + 1] - deltas[2 * n]
    out += (trace_value - np.trace(out).real) / D * np.eye(D)
    return out


def alternating_projections(mat, dims, trace_value, iters=20000, tol=1e-9):
    """A comb near the Hermitian part of mat: alternate the defined affine
    projection (depolarize_each_tail) and an eigenvalue clip, hermitizing
    after each, until consecutive projections agree to tol in Frobenius
    norm; then mix the last affine projection Y toward the maximally mixed
    comb F I, F = trace_value / D, with the weight b = -l / (F - l) that
    lifts its smallest eigenvalue l < 0 to zero.  Returns that mixture, or
    None if iters run out."""
    z = (mat + mat.conj().T) / 2.0
    for _ in range(iters):
        y = depolarize_each_tail(z, dims, trace_value)
        y = (y + y.conj().T) / 2.0
        w, v = np.linalg.eigh(y)
        z = (v * np.clip(w, 0.0, None)) @ v.conj().T
        z = (z + z.conj().T) / 2.0
        if np.linalg.norm(z - y) <= tol:
            floor = trace_value / len(y)
            lo = min(float(np.linalg.eigvalsh(y)[0]), 0.0)
            b = -lo / (floor - lo)
            return (1.0 - b) * y + b * floor * np.eye(len(y))
    return None


def _split(wires, mat, label):
    """(i, view): the position i of the wire label in wires, and mat viewed
    as (left, d, right, left, d, right) around that wire."""
    dims = [w.dim for w in wires]
    i = [w.label for w in wires].index(label)
    left, right = int(np.prod(dims[:i])), int(np.prod(dims[i + 1 :]))
    return i, np.asarray(mat).reshape(left, dims[i], right, left, dims[i], right)


def partial_trace(wires, mat, labels):
    """(the kept wires, Tr_labels[mat]) of mat, a matrix on wires, one wire
    at a time by numpy's trace of a reshaped view."""
    wires = tuple(wires)
    for label in labels:
        i, view = _split(wires, mat, label)
        mat = np.trace(view, axis1=1, axis2=4)
        d = mat.shape[0] * mat.shape[1]
        mat, wires = mat.reshape(d, d), wires[:i] + wires[i + 1 :]
    return wires, mat


def partial_transpose(wires, mat, labels):
    """mat, a matrix on wires, transposed on the wires named in labels, one
    wire at a time by swapping that wire's row and column axes."""
    for label in labels:
        _, view = _split(wires, mat, label)
        mat = view.transpose(0, 4, 2, 3, 1, 5).reshape(np.shape(mat))
    return mat


def ptrace_level_residuals(R: LabeledOperator, structure: CombStructure) -> list[float]:
    """The level residuals of verify_causality, one partial_trace loop per
    level: ||Tr_out_n[R^(n)] - I_in_n (x) R^(n-1)||_F with R^(n-1) =
    Tr_tooth_n[R^(n)] / dim(in_n), and ||Tr_out_0[R^(0)] - I_in_0||_F."""
    wires, cur = structure.wires, R.permuted(structure.labels).matrix
    residuals = []
    for k in range(structure.n_teeth - 1, -1, -1):
        in_w, out_w = structure.teeth[k]
        _, lhs = partial_trace(wires, cur, [out_w.label])
        wires, nxt = partial_trace(wires, cur, [in_w.label, out_w.label])
        nxt = nxt / in_w.dim
        head = nxt if k > 0 else np.ones((1, 1))
        residuals.append(float(np.linalg.norm(lhs - np.kron(head, np.eye(in_w.dim)))))
        cur = nxt
    return residuals[::-1]


def ptrace_reduced_comb(R: LabeledOperator, structure: CombStructure, n: int):
    """reduced_comb(R, structure, n) by tracing out teeth N..n+1 one at a
    time, dividing by each discarded input dimension."""
    wires, out = structure.wires, R.permuted(structure.labels).matrix
    for in_w, out_w in structure.teeth[n + 1 :][::-1]:
        wires, out = partial_trace(wires, out, [in_w.label, out_w.label])
        out = out / in_w.dim
    return LabeledOperator(wires, out)


def ptrace_trace_residual(choi) -> float:
    """||Tr_out[C] - I_in||_F of a Choi operator, by one partial_trace."""
    _, marg = partial_trace(choi.op.wires, choi.op.matrix, choi.out_labels)
    return float(np.linalg.norm(marg - np.eye(len(marg))))


def conjugated(w: LabeledOperator, op: LabeledOperator) -> LabeledOperator:
    """W op W^dagger, op's wires first put in W's order."""
    mat = w.matrix @ op.permuted(w.labels).matrix @ w.matrix.conj().T
    return LabeledOperator(w.wires, mat)


def haar_unitaries(d: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n successive haar_unitary(d, rng) draws, bit for bit, in one batch:
    the same normals in the same order (the real, then the imaginary part
    of each Ginibre matrix), one stacked QR and the same phase fix."""
    z = rng.standard_normal((n, 2, d, d))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases)).conj()[:, None, :]


def mc_gate_fidelity(
    comb: QuantumComb,
    n_uses: int,
    d: int,
    n_samples: int,
    seed: int,
):
    """Monte-Carlo estimate of the learning fidelity of a storage comb.

    The samples are those of n_samples calls of haar_unitary(d, rng), drawn
    in one batch (haar_unitaries); the first is checked against one call.
    For each Haar sample U the N uses fill the first N slots, and the gate
    fidelity <<U| C'_U |U>> / d^2 of the retrieved operator is read off the
    last tooth.  All samples are contracted in one einsum over a sample
    axis; the first is also plugged in through link_product and read by a
    plain matrix sandwich (linked_gate_fidelity), and the two must agree to
    1e-12, so slot insertion stays covered.  Returns (mean, standard error).
    """
    us = haar_unitaries(d, n_samples, np.random.default_rng(seed))
    assert np.array_equal(us[0], haar_unitary(d, np.random.default_rng(seed)))
    # In comb order, the Choi vector of one use of U on slot k, on (in 2k+1,
    # out 2k+2), is U^T.ravel(), and so is the sandwich vector on (in 2N+2,
    # out 2N+3); the link product contracts the slot wires against the
    # conjugate of the N uses' vector.
    v = us.transpose(0, 2, 1).reshape(n_samples, d * d)
    uses = v
    for _ in range(n_uses - 1):
        uses = np.einsum("si,sj->sij", uses, v).reshape(n_samples, -1)
    # Wires 0 and 2N+1 have dimension 1, so the comb's matrix is indexed by
    # (slot wires, retrieval wires) and bra has the same length.
    bra = np.einsum("si,sj->sij", uses, v.conj()).reshape(n_samples, -1)
    vals = np.einsum("si,si->s", bra @ comb.op.matrix, bra.conj()).real / d**2
    linked = linked_gate_fidelity(comb, us[0], n_uses, d)
    assert abs(vals[0] - linked) <= 1e-12, (vals[0], linked)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def linked_gate_fidelity(comb: QuantumComb, u: np.ndarray, n_uses: int, d: int) -> float:
    """The gate fidelity of one sample U of mc_gate_fidelity, with the N
    uses plugged into the first N slots through link_product and the
    retrieved operator read by a plain matrix sandwich."""
    wires = []
    for k in range(n_uses):
        wires.append(Wire(str(2 * k + 2), d))
        wires.append(Wire(str(2 * k + 1), d))
    keep = [str(2 * n_uses + 2), str(2 * n_uses + 3)]
    # Choi vector of one use of U on slot k lives on (out 2k+2, in 2k+1),
    # out-major, so it is just U.ravel(); N uses tensor together.
    ins = reduce(np.kron, [u.ravel()] * n_uses)
    inserted = LabeledOperator(tuple(wires), np.outer(ins, ins.conj()))
    res = link_product(comb.op, inserted)
    # trailing wires all have dim 1, so the matrix stays d^2 x d^2
    res = res.permuted(keep + [l for l in res.labels if l not in keep])
    # Sandwich vector on (in 2N+2, out 2N+3) wire order is U^T.ravel().
    t = u.T.ravel()
    sandwich = np.einsum("a,ab,b->", t.conj(), res.matrix.reshape(d * d, d * d), t)
    return float(sandwich.real) / d**2


class _TransposedStage:
    """One unitary's stage of twirl._Coordinates on a stack of operators on
    wires, by one transposed copy of the stack: the unitary's wires first,
    in the pattern's order, rows before columns, then the other wires, and
    one product with the matrix units of that order.  q_defect and
    rounding are the measured defect of its Q and the allowance
    _Coordinates.read takes for the rounding of matrix(K) per unit
    ||K||_F."""

    def __init__(self, twirl: TwirlSpec, wires, second: bool):
        self.labels, t, conj = twirl._factor(wires, second)
        q, blocks = _commutant_blocks(twirl.d, t, conj)
        units, copies = _matrix_units(q, blocks)
        self.units = units / np.sqrt(copies)[:, None]
        n = len(wires)
        position = {w.label: i for i, w in enumerate(wires)}
        front = [position[lbl] for lbl in self.labels]
        back = [i for i in range(n) if i not in front]
        self.axes = front + [n + i for i in front] + back + [n + i for i in back]
        self.tensor = tuple(w.dim for w in wires) * 2
        self.dim = int(np.prod([w.dim for w in wires]))
        self.dr = int(np.prod([wires[i].dim for i in back]))
        s, c = len(units), float(copies.max())
        self.q_defect = float(np.linalg.norm(q.T @ q - np.eye(len(q)))) + 2 * len(q) ** 2 * _U
        self.rounding = _U * s**0.5 * (s + (c + 3.0) * c**0.5)

    def of(self, stack: np.ndarray) -> np.ndarray:
        """(b, D, D) -> (b s, d_rest, d_rest), row a of item i at i s + a."""
        x = np.asarray(stack).reshape((len(stack),) + self.tensor)
        x = x.transpose([0] + [1 + a for a in self.axes]).reshape(len(stack), -1, self.dr**2)
        return np.einsum("sj,bjx->bsx", self.units, x).reshape(-1, self.dr, self.dr)

    def matrix(self, k: np.ndarray) -> np.ndarray:
        y = np.einsum("sj,bsx->bjx", self.units, k.reshape(-1, len(self.units), self.dr**2))
        shape = [len(y)] + [self.tensor[a] for a in self.axes]
        inverse = [0] + [1 + a for a in np.argsort(self.axes)]
        return y.reshape(shape).transpose(inverse).reshape(-1, self.dim, self.dim)


class TransposedCoordinates:
    """of, matrix and read of twirl._Coordinates on a twirl with a twirled
    wire, stage by stage by _TransposedStage: U's on the whole operator,
    then, with a second unitary, V's on U's coordinates, a stack of
    operators on the wires U leaves alone.  The basis is _Coordinates', so
    the coordinates must agree; read's bound is U's, (1 + D^2 u) ||mat -
    matrix_U(K_U)||_F + rounding_U ||K_U||_F with the residual taken on the
    copy, plus with V (1 + q_U) times V's, the computed ||K_U -
    matrix_V(K)||_F with its rounding plus rounding_V ||K||_F."""

    def __init__(self, twirl: TwirlSpec, wires):
        self.u = _TransposedStage(twirl, wires, False)
        rest = [w for w in wires if w.label not in self.u.labels]
        self.v = _TransposedStage(twirl, rest, True) if twirl.second else None
        self.dim = self.u.dim

    def of(self, mat: np.ndarray) -> np.ndarray:
        k = self.u.of(np.asarray(mat)[None])
        return k if self.v is None else self.v.of(k)

    def matrix(self, k: np.ndarray) -> np.ndarray:
        if self.v is not None:
            k = self.v.matrix(k)
        return self.u.matrix(k)[0]

    def read(self, mat: np.ndarray) -> tuple[np.ndarray, float]:
        ku = self.u.of(np.asarray(mat)[None])
        r = (1.0 + self.dim**2 * _U) * float(np.linalg.norm(mat - self.u.matrix(ku)[0]))
        r += self.u.rounding * float(np.linalg.norm(ku))
        if self.v is None:
            return ku, r
        k = self.v.of(ku)
        gap = ku - self.v.matrix(k)
        gap = (1.0 + 2 * gap.size * _U) * float(np.linalg.norm(gap))
        r += (1.0 + self.u.q_defect) * (gap + self.v.rounding * float(np.linalg.norm(k)))
        return k, r


def stinespring_value(om: np.ndarray, d: int):
    """x -> (Tr[R om], its gradient in x) for the channel Choi R on (in,
    out) of the isometry Q of the QR factorization A = QR, A the complex
    (d * d, d) matrix whose real and imaginary parts are the halves of x;
    the rows of Q are (Kraus index e, output a), its columns the input i.

    With v_e = Q_e flattened and S the swap of the in and out factors, Tr[R
    om] = sum_e v_e^dagger (S om S) v_e, so dF = Re<G, dQ> with G = 2 S om
    S v_e.  It reaches A through dQ = (I - Q Q^dagger) dA R^-1 + Q Omega,
    Omega = Q^dagger dQ, whose strictly upper part is minus the adjoint of
    its lower part and whose diagonal is imaginary, as LAPACK's R has a
    real diagonal: with B = Q^dagger G and M the lower triangle of B -
    B^dagger, its diagonal halved, the gradient is ((I - Q Q^dagger) G + Q
    M) R^-dagger, split into real and imaginary parts."""
    half = d**3
    swapped = om.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)

    def value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        q, r = np.linalg.qr((x[:half] + 1j * x[half:]).reshape(d * d, d))
        v = q.reshape(d, d * d).T
        g = 2.0 * swapped @ v
        value = float(np.vdot(v, g).real) / 2.0
        g = g.T.reshape(d * d, d)
        b = q.conj().T @ g
        m = np.tril(b - b.conj().T)
        m[np.diag_indices(d)] /= 2.0
        grad = np.linalg.solve(r, (g - q @ b + q @ m).conj().T).conj().T
        return value, np.concatenate([grad.real.ravel(), grad.imag.ravel()])

    return value_and_grad


def brute_force_channel_value(
    om: np.ndarray, d: int, seed: int, n_starts: int = 16
) -> float:
    """Best Tr[R om] over channel Chois on (in, out), via multistart search
    over Stinespring isometries of Kraus rank d (extreme points of the
    channel set have Kraus rank at most d, and a linear objective is
    maximized at an extreme point), by L-BFGS-B on the analytic gradient
    of stinespring_value."""
    value_and_grad = stinespring_value(om, d)
    rng = np.random.default_rng(seed)

    def negated(x: np.ndarray) -> tuple[float, np.ndarray]:
        value, grad = value_and_grad(x)
        return -value, -grad

    best = -np.inf
    for _ in range(n_starts):
        x0 = rng.standard_normal(2 * d**3)
        res = minimize(negated, x0, jac=True, method="L-BFGS-B")
        best = max(best, -res.fun)
    return best
