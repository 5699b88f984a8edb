"""Maximization of Tr[R Omega] over deterministic combs.

The feasible set is the intersection of the positive cone with the affine
causality set, and the objective is linear, so this is a semidefinite
program.  The default backend is an operator-splitting method (ADMM on the
consensus form X = Z) whose two half-steps are exactly the two cheap
projections already available: the closed-form affine projection
(twirl._affine_projection) and the eigenvalue clip onto the positive
cone (_psd_part).  project_to_comb alternates the same two steps and
ends with the polish described next.

Reported values are never read off a possibly-infeasible iterate.  At
regular checkpoints the affine-exact iterate is mixed toward the maximally
mixed comb just enough that its positivity check passes with margin, which
yields an exactly feasible point; the running best of these is the
certified value, so the (value, residual) trace is non-decreasing in value
by construction.

A matching upper bound comes from the dual side.  Functionals of the form
X -> Tr[X (alpha I + sum_n kron(Z_n, I))], with Z_n traceless over the
tooth-n output wire, are constant on the comb set (equal to alpha times
the fixed trace), so any such T with T - Omega >= 0 certifies
optimum <= alpha * trace_value.  The scaled ADMM dual variable converges
to Omega - T for the optimal T; projecting it back into the constraint
range and shifting along the identity until T - Omega is positive repairs
it into a valid certificate at any accuracy.  dual_bound re-checks it to
tolerances and pays for the slack they accept, so a certificate that only
just passes still yields a true bound.

The solve stops on that certificate, as SCS does: every checkpoint
polishes, repairs the current dual variable into a certificate and stops
as soon as bound - value <= tol_gap * (1 + |value|).  The polished point
is exactly feasible, so feasibility needs no stopping test of its own.

One ADMM step is a fixed-point map g: (z, u) -> (z', u'), and solve
evaluates it where safeguarded type-II Anderson acceleration points
(Zhang, O'Donoghue & Boyd, arXiv:1808.03971): the next iterate is the
image of the last accepted one less a real combination of the last
_ANDERSON_MEMORY differences of accepted images, with the weights that
minimize the combined residual g(x) - x.  An extrapolated iterate whose
residual norm exceeds that of the last accepted iterate is rejected: the
plain step from the accepted iterate follows and the memory is cleared.
g is fixed for the whole solve: the penalty rho is set once, to the scale
of Omega against the maximally mixed comb (see solve).  One iteration is
one evaluation of g, rejected or not, and costs one eigenvalue clip, so
iterations, trace_log and max_iters count the work done.  The
acceleration only chooses where g is evaluated; the polish, the
certificate and the stopping rule are unchanged, so soundness does not
rest on it.

Every array keeps the field of Omega (see labeled): a real Omega, which
every cloning and learning objective is, is solved, certified and
re-checked in float64, and a complex one in complex128.

The whole iteration runs in the coordinates of the objective's twirl
(twirl._Coordinates).  The comb set is invariant under every
wire-local unitary, so the affine projection commutes with the twirl, and
so does the eigenvalue clip; starting from the maximally mixed comb, every
iterate stays in the algebra the twirl fixes.  Each iterate, the dual
variable and the certificate candidate are stored by their coordinates in
an orthonormal basis of that algebra, so norms, inner products and the
ADMM updates act on those small arrays unchanged; the affine projection
mixes the coordinates once per level, and the clip and every eigenvalue
diagonalize one copy of each irrep block instead of the D x D matrix.
Omega enters the coordinates once per problem: SdpProblem reads it on
first use (_Coordinates.read) and solve and dual_bound share that read,
and R_star and the final certificate leave them once.  An objective with
no twirl is the one-block case, whose coordinates are the matrix.
Soundness does not rest on the symmetry: the value is Tr[R Omega] of a
polished comb, and the checks read the dense operators once each
(_Coordinates.read), R_star for feas_residual (R_star carries the twirl,
so R_star.verify() does the same) and T and Omega in dual_bound, into
coordinates and a bound on the distance from the algebra.  Every check
runs on that pair and bounds the dense quantity it stands for from the
failing side; positivity by _Coordinates.eigenvalue_floor, which
subtracts the distance (Weyl's inequality) and allowances for the
measured orthogonality defect of Q and for rounding.  A wrong
decomposition would show as a failed check, never as a certified false
number.  Every move between a dense operator and the coordinates streams
it in slabs of rows, and the Hermitian defect of R_star is summed in
strips, so none makes a D x D temporary; the operators themselves and
the level residuals' marginal chain stay D x D, so a solve takes the one
cap comb.MAX_DIM on D, as every dense build does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .comb import (
    TOL_VERIFY,
    CombStructure,
    ProbabilisticComb,
    QuantumComb,
    _check_dim,
    _check_labels,
    _register_merge,
    _register_split,
)
from .errors import BoundUnavailableError, InvalidBranchSumError
from .errors import InvalidArgumentError, NoConvergenceError
from .labeled import LabeledOperator
from .labeled import _psd_part as _clip
from .objective import PerformanceOperator
from .twirl import _affine_projection, _coordinates, _Coordinates

_OVER_RELAXATION = 1.6
_ANDERSON_MEMORY = 5
_POLISH_EVERY = 10


@dataclass(frozen=True)
class SdpProblem:
    """A linear objective over the combs of a fixed structure.

    tol_gap is the stopping tolerance of solve.  Feasibility needs none:
    every value solve reports comes from an exactly feasible comb.
    """

    omega: PerformanceOperator
    structure: CombStructure
    tol_gap: float = 1e-6
    max_iters: int = 50000

    def __post_init__(self):
        _check_labels(self.omega.omega, self.structure)
        if not self.tol_gap > 0:
            raise InvalidArgumentError("tolerances must be positive")
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be at least 1")

    @cached_property
    def _omega(self) -> tuple[_Coordinates, np.ndarray, float]:
        """The coordinates of Omega's twirl on the structure's wires, and
        (K, r) of their one read of Omega (_Coordinates.read), made on first
        use and shared by solve and dual_bound.  Omega is write-protected,
        and so is K, so the read cannot go stale."""
        coords = _coordinates(self.omega.twirl, self.structure.wires)
        k, r = coords.read(self.omega.omega.permuted(self.structure.labels).matrix)
        k.flags.writeable = False
        return coords, k, r


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Outcome of a solve run.

    R_star is exactly feasible (feas_residual is the violation of
    R_star.verify(), which R_star's twirl, Omega's, runs on the blocks);
    value = Tr[R_star Omega].  gap_bound is a
    dual upper bound minus value; once dual_bound has re-checked the bound,
    the true optimum lies in [value, value + gap_bound].  converged means the solve
    stopped on gap_bound <= tol_gap * (1 + |value|).  iterations counts
    evaluations of the ADMM map, including those the Anderson safeguard
    rejected, so each is one eigenvalue clip.  trace_log holds one (best
    feasible value, relative primal residual) row per iteration; since rho
    scales with Omega, scaling Omega by a power of two scales the values by
    it and leaves the residuals unchanged, up to the stopping iteration.
    """

    R_star: QuantumComb
    value: float
    feas_residual: float
    gap_bound: float
    iterations: int
    converged: bool
    trace_log: tuple[tuple[float, float], ...]
    dual_certificate: np.ndarray | None = None

    def __repr__(self):
        tag = "converged" if self.converged else "not converged"
        return (
            f"SdpSolution(value={self.value:.9f}, gap_bound={self.gap_bound:.2e}, "
            f"iters={self.iterations}, {tag})"
        )


def _pair(a: np.ndarray, b: np.ndarray) -> float:
    """Tr[A B] for Hermitian A, B given by their coordinates a, b."""
    return float(np.vdot(a, b).real)


def _psd_part(k: np.ndarray, coords: _Coordinates) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix in the twirl's fixed
    algebra: the eigenvalue clip of each irrep block."""
    return coords.from_blocks([_clip(b) for b in coords.blocks(k)])


def _polish(x: np.ndarray, floor: float, coords: _Coordinates) -> np.ndarray:
    """Mix an affine-exact iterate toward the maximally mixed comb, floor * I,
    by the smallest weight that lifts its least eigenvalue to twice the
    rounding term of the positivity check, which then certifies it positive.
    Affine combinations stay on the affine set."""
    lo = coords.min_eigenvalue(x)
    margin = 2.0 * coords.rounding * float(np.linalg.norm(x))
    if lo >= margin:
        return x
    beta = (margin - lo) / (floor - lo)
    return (1.0 - beta) * x + beta * (floor * coords.identity)


def _dual_range_projection(k: np.ndarray, coords: _Coordinates) -> np.ndarray:
    """Project onto the span of the causality constraint functionals.

    That span is the identity line plus the ranges of the mutually
    orthogonal projectors G_n subtracted inside _affine_projection, so it
    is the orthogonal complement of the affine set's direction space.
    """
    tr = coords.trace(k)
    out = k - _affine_projection(k, coords, tr)
    h = out.shape[1]
    out[:, range(h), range(h)] += (tr / coords.dim) * coords.tau[:, None]
    return out


def _build_certificate(
    om: np.ndarray,
    u_scaled: np.ndarray,
    coords: _Coordinates,
    tv: float,
    flat: float,
):
    """Repair the ADMM dual variable into a valid upper-bound certificate.

    flat is lambda_max(Omega).  Returns (T, bound) with T in the constraint
    range and T - Omega >= 0: the repaired dual variable, or the flat
    certificate when that is tighter.
    """
    cand = _dual_range_projection(coords.hermitian(om - u_scaled), coords)
    lo = coords.min_eigenvalue(cand - om)
    if lo < 0.0:
        cand = cand + (-lo) * coords.identity
    bound = coords.trace(cand) * tv / coords.dim

    # The flat certificate lambda_max(Omega) * I is always valid; keep
    # whichever is tighter.
    if not bound <= flat * tv:
        cand = flat * coords.identity
        bound = flat * tv
    return cand, bound


class _Anderson:
    """Type-II Anderson acceleration of a fixed-point map x -> g(x)
    (Zhang, O'Donoghue & Boyd, arXiv:1808.03971), memory _ANDERSON_MEMORY.

    step(g, f) takes the image g and residual f = g - x of an accepted
    iterate x and returns the next iterate, g - sum_i gamma_i dG_i, where
    dG_i and dF_i are differences of successive accepted images and
    residuals and gamma minimizes ||f - sum_i gamma_i dF_i||.  gamma solves
    the normal equations with the Gram matrix of real inner products
    Re<dF_i, dF_j> (the pairing of _pair), so it is real and Hermitian
    coordinates stay Hermitian.  The differences live in fixed ring
    buffers, as real views, and each step adds one row to the Gram matrix.
    With no difference in memory the next iterate is g itself, the plain
    step.
    """

    def __init__(self, like: np.ndarray):
        size = like.reshape(-1).view(float).size
        self._df = np.empty((_ANDERSON_MEMORY, size))
        self._dg = np.empty((_ANDERSON_MEMORY, size))
        self._gram = np.empty((_ANDERSON_MEMORY, _ANDERSON_MEMORY))
        self.clear()

    def clear(self):
        self._last = None
        self._count = 0

    def step(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        fr, gr = f.reshape(-1).view(float), g.reshape(-1).view(float)
        if self._last is not None:
            i = self._count % _ANDERSON_MEMORY
            self._count += 1
            np.subtract(fr, self._last[0], out=self._df[i])
            np.subtract(gr, self._last[1], out=self._dg[i])
            n = min(self._count, _ANDERSON_MEMORY)
            self._gram[i, :n] = self._gram[:n, i] = self._df[:n] @ self._df[i]
        self._last = (fr, gr)
        n = min(self._count, _ANDERSON_MEMORY)
        if n == 0:
            return g
        gamma = np.linalg.lstsq(self._gram[:n, :n], self._df[:n] @ fr, rcond=None)[0]
        return g - (gamma @ self._dg[:n]).view(g.dtype).reshape(g.shape)


def solve(p: SdpProblem) -> SdpSolution:
    """Maximize Tr[R Omega] over deterministic combs on p.structure.

    Deterministic: identical problems produce identical trace logs.  Stops
    at the first checkpoint whose certified gap is within tol_gap; on
    hitting max_iters the best feasible iterate is still returned, with
    converged = False.  The ADMM penalty rho is set once, before the loop,
    to ||Omega||_F / ||(tv/D) I||_F (1 when Omega = 0), which scales it to
    the data (Boyd et al., FnT ML 3(1) 2011, sec. 3.4.1).
    """
    structure = p.structure
    D = structure.dim
    _check_dim(D, "solve")
    tv = float(structure.trace_value)
    coords, om, _ = p._omega

    floor = tv / D
    mixed = floor * coords.identity
    flat = coords.max_eigenvalue(om)

    # The iterate is the pair (z, u), stacked, and one iteration is one
    # evaluation of the ADMM map (z, u) -> (z', u') at it.
    state = np.stack([mixed, np.zeros_like(om)])
    rho = float(np.linalg.norm(om) / np.linalg.norm(mixed)) or 1.0
    anderson = _Anderson(state)
    # The image and fixed-point residual of the last accepted iterate.
    anchor, anchor_res = state, np.inf

    best = mixed
    best_val = _pair(mixed, om)
    trace_log: list[tuple[float, float]] = []
    converged = False

    # max_iters >= 1 and the last iteration is a checkpoint, so the loop
    # always leaves k, cert and gap set by its final checkpoint.
    for k in range(1, p.max_iters + 1):
        z, u = state
        w_in = coords.hermitian(z - u + om / rho)
        x = _affine_projection(w_in, coords, tv)

        xh = _OVER_RELAXATION * x + (1.0 - _OVER_RELAXATION) * z
        image = np.empty_like(state)
        image[0] = _psd_part(xh + u, coords)
        image[1] = u + xh - image[0]
        f = image - state
        res = float(np.linalg.norm(f))

        scale = 1.0 + max(float(np.linalg.norm(x)), float(np.linalg.norm(image[0])))
        r_rel = float(np.linalg.norm(x - image[0])) / scale

        checkpoint = k % _POLISH_EVERY == 0 or k == p.max_iters
        if k == 1 or checkpoint:
            cand = _polish(x, floor, coords)
            val = _pair(cand, om)
            if val > best_val:
                best_val = val
                best = cand
        trace_log.append((best_val, r_rel))

        if checkpoint:
            cert, bound = _build_certificate(om, rho * image[1], coords, tv, flat)
            gap = max(bound - best_val, 0.0)
            if gap <= p.tol_gap * (1.0 + abs(best_val)):
                converged = True
                break

        # Safeguard: an extrapolated iterate (any but the accepted image)
        # whose residual exceeds that of the last accepted one is rejected,
        # and the plain step from the accepted one follows.
        if state is not anchor and res > anchor_res:
            anderson.clear()
            state = anchor
        else:
            anchor, anchor_res = image, res
            state = anderson.step(image, f)

    R_star = QuantumComb(
        LabeledOperator._wrap(structure.wires, coords.matrix(best)), structure
    )
    object.__setattr__(R_star, "twirl", p.omega.twirl)
    return SdpSolution(
        R_star=R_star,
        value=best_val,
        feas_residual=R_star.verify().violation,
        gap_bound=gap,
        iterations=k,
        converged=converged,
        trace_log=tuple(trace_log),
        dual_certificate=coords.matrix(cert),
    )


def project_to_comb(
    X: LabeledOperator,
    structure: CombStructure,
    iters: int = 20000,
) -> QuantumComb:
    """A comb near X, not in general the nearest: alternate solve's two
    projections on the one-block coordinates of X's Hermitian part until
    they agree to TOL_VERIFY in Frobenius norm, then polish the last affine
    projection as solve does, mixing it toward the maximally mixed comb
    until positive.  The result meets the causality constraints and
    positivity up to rounding, so it passes its own verify().
    """
    _check_labels(X, structure)
    _check_dim(structure.dim, "project_to_comb")
    coords = _coordinates(None, structure.wires)
    z = coords.of(X.permuted(structure.labels).hermitized().matrix)
    tv = float(structure.trace_value)
    floor = tv / structure.dim

    y = _affine_projection(z, coords, tv)
    gap = np.inf
    for _ in range(iters):
        z = _psd_part(y, coords)
        gap = float(np.linalg.norm(z - y))
        if gap <= TOL_VERIFY:
            break
        y = _affine_projection(z, coords, tv)
    y = _polish(y, floor, coords)
    comb = QuantumComb(LabeledOperator._wrap(structure.wires, coords.matrix(y)), structure)
    if gap <= TOL_VERIFY:
        return comb
    raise NoConvergenceError(
        f"alternating projections stalled at gap {gap:.3e} after {iters} "
        f"iterations (tol {TOL_VERIFY:.1e})",
        best=comb,
        diagnostics={"gap": gap, "iterations": iters, "tol": TOL_VERIFY},
    )


def dual_bound(p: SdpProblem, candidate: SdpSolution) -> float:
    """Verified upper bound on the optimum of p from a solved candidate.

    Re-checks, independently of the solve run, that the stored certificate
    T is a finite D x D array of numbers, Hermitian and within tol = 1e-8 *
    (1 + ||K_T||_F) of its projection P(T) onto the constraint range, and
    that lambda_lo >= -tol, where lambda_lo is the certified lower bound on
    lambda_min(P(T) - Omega) of _Coordinates.eigenvalue_floor, taken on the
    blocks of Omega's twirl (one dense block when Omega carries none).
    Raises BoundUnavailableError when no certificate is stored or a check
    fails; a certificate that is not a numeric ndarray of shape (D, D) is
    refused before it is read.  The bound pays for the slack the checks
    accept: it is trace_value * (Tr[P(T)] / D + max(0, -lambda_lo)), with
    P(T) taken Hermitian.  T is read once (_Coordinates.read) into
    coordinates K and a distance r from the algebra, and Omega's one read
    is p's (SdpProblem._omega); every check runs on those, bounding its
    dense quantity from the failing side: ||T - T^dagger|| <= ||K_T -
    K_T^dagger|| + 2 r_T and, as P is an orthogonal projection that
    commutes with the twirl, ||T - P(T)|| <= ||K_T - P(K_T)|| + r_T, and
    P(T) - Omega is within r_T + r_Omega of the operator of P(K_T) -
    K_Omega.
    """
    cert = candidate.dual_certificate
    if cert is None:
        raise BoundUnavailableError("the candidate carries no dual certificate")
    if not isinstance(cert, np.ndarray) or not np.issubdtype(cert.dtype, np.number):
        raise BoundUnavailableError("the dual certificate is not an array of numbers")
    structure = p.structure
    D = structure.dim
    if cert.shape != (D, D):
        raise BoundUnavailableError(f"the dual certificate has shape {cert.shape}, not {(D, D)}")
    coords, om, r_om = p._omega
    with np.errstate(invalid="ignore", over="ignore"):
        k, r = coords.read(cert.astype(np.result_type(cert, float), copy=False))
    if not (np.isfinite(r) and np.all(np.isfinite(k))):
        raise BoundUnavailableError("the dual certificate is not finite")
    tol = 1e-8 * (1.0 + float(np.linalg.norm(k)))
    if 2.0 * (float(np.linalg.norm(k - coords.hermitian(k))) + r) > tol:
        raise BoundUnavailableError("the dual certificate is not Hermitian, or off the algebra")
    proj = _dual_range_projection(k, coords)
    if float(np.linalg.norm(k - proj)) + r > tol:
        raise BoundUnavailableError(
            "the dual certificate leaves the constraint range, so it is not "
            "constant on the comb set"
        )
    lo = coords.eigenvalue_floor(proj - om, r + r_om)
    if lo < -tol:
        raise BoundUnavailableError(
            f"the dual certificate does not dominate the objective "
            f"(min eigenvalue {lo:.3e})"
        )
    return float(structure.trace_value * (coords.trace(proj) / D + max(0.0, -lo)))


def solve_probabilistic(
    omegas: Sequence[PerformanceOperator],
    structure: CombStructure,
    tol_gap: float = SdpProblem.tol_gap,
    max_iters: int = SdpProblem.max_iters,
) -> ProbabilisticComb:
    """Maximize sum_i Tr[R_i Omega_i] over comb-shaped instruments.

    The branches are bundled into one deterministic comb whose last output
    carries an orthogonal outcome register (the register_comb layout), the
    block-diagonal objective sum_i Omega_i (x) |i><i| is solved as a single
    deterministic problem, and the register blocks of the optimizer are the
    optimal branches.  tol_gap and max_iters go to solve, and
    ProbabilisticComb checks the branches to TOL_VERIFY.
    """
    omegas = list(omegas)
    if not omegas:
        raise InvalidBranchSumError("need at least one branch objective")
    for po in omegas:
        _check_labels(po.omega, structure)

    merged, big_structure = _register_merge([po.omega for po in omegas], structure)
    po = PerformanceOperator(merged, big_structure)
    sol = solve(SdpProblem(po, big_structure, tol_gap=tol_gap, max_iters=max_iters))

    branches = list(enumerate(_register_split(sol.R_star.op, structure)))
    return ProbabilisticComb(branches, structure)
