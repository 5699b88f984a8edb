"""Maximization of Tr[R Omega] over deterministic combs.

The feasible set is the intersection of the positive cone with the affine
causality set, and the objective is linear, so this is a semidefinite
program.  The default backend is an operator-splitting method (ADMM on the
consensus form X = Z) whose two half-steps are exactly the two cheap
projections already available: the closed-form affine projection
(objective._affine_projection) and the eigenvalue clip onto the positive
cone (_psd_part).  project_to_comb alternates the same two steps and
ends with the polish described next.

Reported values are never read off a possibly-infeasible iterate.  At
regular checkpoints the affine-exact iterate is mixed toward the maximally
mixed comb just enough to clear its most negative eigenvalue, which yields
an exactly feasible point; the running best of these is the certified
value, so the (value, residual) trace is non-decreasing in value by
construction.

A matching upper bound comes from the dual side.  Functionals of the form
X -> Tr[X (alpha I + sum_n kron(Z_n, I))], with Z_n traceless over the
tooth-n output wire, are constant on the comb set (equal to alpha times
the fixed trace), so any such T with T - Omega >= 0 certifies
optimum <= alpha * trace_value.  The scaled ADMM dual variable converges
to Omega - T for the optimal T; projecting it back into the constraint
range and shifting along the identity until T - Omega is positive repairs
it into a valid certificate at any accuracy.

The solve stops on that certificate, as SCS does: every checkpoint
polishes, repairs the current dual variable into a certificate and stops
as soon as bound - value <= tol_gap * (1 + |value|).  The polished point
is exactly feasible, so feasibility needs no stopping test of its own.

Every array keeps the field of Omega (see labeled): a real Omega, which
every cloning and learning objective is, is solved, certified and
re-checked in float64, and a complex one in complex128.

The whole iteration runs in the coordinates of the objective's twirl
(objective._Coordinates).  The comb set is invariant under every
wire-local unitary, so the affine projection commutes with the twirl, and
so does the eigenvalue clip; starting from the maximally mixed comb, every
iterate stays in the algebra the twirl fixes.  Each iterate, the dual
variable and the certificate candidate are stored by their coordinates in
an orthonormal basis of that algebra, so norms, inner products and the
ADMM updates act on those small arrays unchanged; the affine projection
mixes the coordinates once per level, and the clip and every eigenvalue
diagonalize one copy of each irrep block instead of the D x D matrix.
Omega enters the coordinates once per solve, and R_star and the final
certificate leave them once.  An objective with no twirl is the one-block
case, whose coordinates are the matrix.  Soundness does not rest on the
symmetry: the value is Tr[R Omega] of a polished comb whose feas_residual
comes from a dense verify_causality, and dual_bound re-checks the
certificate on the dense matrices, so a wrong decomposition would show as
a failed check, never as a certified false number.  Those dense edges are
what bounds a solve, so it takes the one cap comb.MAX_DIM on D, as every
dense build does.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    verify_causality,
)
from .errors import BoundUnavailableError, InvalidBranchSumError
from .errors import NoConvergenceError
from .labeled import LabeledOperator
from .labeled import _psd_part as _clip
from .objective import PerformanceOperator, _affine_projection, _Coordinates

_OVER_RELAXATION = 1.6
_POLISH_EVERY = 10
_BALANCE_EVERY = 100


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
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True, eq=False)
class SdpSolution:
    """Outcome of a solve run.

    R_star is exactly feasible (feas_residual is its verify_causality
    violation); value = Tr[R_star Omega].  gap_bound, when present, is a
    dual upper bound minus value; once dual_bound has re-checked the bound,
    the true optimum lies in [value, value + gap_bound].  converged means the solve
    stopped on gap_bound <= tol_gap * (1 + |value|).  trace_log holds one
    (best feasible value, relative primal residual) row per iteration.
    """

    R_star: QuantumComb
    value: float
    feas_residual: float
    gap_bound: float | None
    iterations: int
    converged: bool
    trace_log: tuple[tuple[float, float], ...]
    dual_certificate: np.ndarray | None = None

    def __repr__(self):
        tag = "converged" if self.converged else "not converged"
        gap = "n/a" if self.gap_bound is None else f"{self.gap_bound:.2e}"
        return (
            f"SdpSolution(value={self.value:.9f}, gap_bound={gap}, "
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
    until positive.  Affine combinations stay on the affine set, and the mixing
    weight is the smallest that lifts the most negative eigenvalue to zero.
    """
    lo = coords.min_eigenvalue(x)
    if lo >= 0.0:
        return x
    beta = -lo / (floor - lo)
    return (1.0 - beta) * x + beta * (floor * coords.identity)


def _dual_range_projection(k: np.ndarray, coords: _Coordinates) -> np.ndarray:
    """Project onto the span of the causality constraint functionals.

    That span is the identity line plus the ranges of the mutually
    orthogonal projectors G_n subtracted inside _affine_projection, so it
    is the orthogonal complement of the affine set's direction space.
    """
    tr = coords.trace(k)
    centered = _affine_projection(k, coords, tr)
    return k - centered + (tr / coords.dim) * coords.identity


def _build_certificate(
    om: np.ndarray,
    u_scaled: np.ndarray,
    coords: _Coordinates,
    tv: float,
    flat: float,
):
    """Repair the ADMM dual variable into a valid upper-bound certificate.

    flat is lambda_max(Omega).  Returns (T, bound) with T in the constraint
    range and T - Omega >= 0, or (None, None) if the arithmetic degenerated.
    """
    cand = _dual_range_projection(coords.hermitian(om - u_scaled), coords)
    lo = coords.min_eigenvalue(cand - om)
    if lo < 0.0:
        cand = cand + (-lo) * coords.identity
    bound = coords.trace(cand) * tv / coords.dim

    # The flat certificate lambda_max(Omega) * I is always valid; keep
    # whichever is tighter.
    if flat * tv < bound:
        cand = flat * coords.identity
        bound = flat * tv
    if not np.isfinite(bound):
        return None, None
    return cand, bound


def solve(p: SdpProblem) -> SdpSolution:
    """Maximize Tr[R Omega] over deterministic combs on p.structure.

    Deterministic: identical problems produce identical trace logs.  Stops
    at the first checkpoint whose certified gap is within tol_gap; on
    hitting max_iters the best feasible iterate is still returned, with
    converged = False.
    """
    structure = p.structure
    D = structure.dim
    _check_dim(D, "solve")
    tv = float(structure.trace_value)
    coords = _Coordinates(p.omega.twirl, structure.wires)
    om = coords.of(p.omega.omega.permuted(structure.labels).matrix)

    floor = tv / D
    mixed = floor * coords.identity
    flat = coords.max_eigenvalue(om)

    z = mixed.copy()
    u = np.zeros_like(om)
    rho = 1.0

    best = mixed
    best_val = _pair(mixed, om)
    trace_log: list[tuple[float, float]] = []
    converged = False

    # max_iters >= 1 and the last iteration is a checkpoint, so the loop
    # always leaves k, cert and gap set by its final checkpoint.
    for k in range(1, p.max_iters + 1):
        w_in = coords.hermitian(z - u + om / rho)
        x = _affine_projection(w_in, coords, tv)

        xh = _OVER_RELAXATION * x + (1.0 - _OVER_RELAXATION) * z
        z_prev = z
        z = _psd_part(xh + u, coords)
        u = u + xh - z

        r = float(np.linalg.norm(x - z))
        s = rho * float(np.linalg.norm(z - z_prev))
        scale = 1.0 + max(float(np.linalg.norm(x)), float(np.linalg.norm(z)))
        r_rel = r / scale

        checkpoint = k % _POLISH_EVERY == 0 or k == p.max_iters
        if k == 1 or checkpoint:
            cand = _polish(x, floor, coords)
            val = _pair(cand, om)
            if val > best_val:
                best_val = val
                best = cand
        trace_log.append((best_val, r_rel))

        if checkpoint:
            cert, bound = _build_certificate(om, rho * u, coords, tv, flat)
            gap = None if bound is None else max(bound - best_val, 0.0)
            if gap is not None and gap <= p.tol_gap * (1.0 + abs(best_val)):
                converged = True
                break

        if k % _BALANCE_EVERY == 0:
            if r > 10.0 * s and rho < 1e4:
                rho *= 2.0
                u /= 2.0
            elif s > 10.0 * r and rho > 1e-4:
                rho /= 2.0
                u *= 2.0

    R_star = QuantumComb(
        LabeledOperator._wrap(structure.wires, coords.matrix(best)), structure
    )
    return SdpSolution(
        R_star=R_star,
        value=best_val,
        feas_residual=verify_causality(R_star.op, structure).violation,
        gap_bound=gap,
        iterations=k,
        converged=converged,
        trace_log=tuple(trace_log),
        dual_certificate=None if cert is None else coords.matrix(cert),
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
    coords = _Coordinates(None, structure.wires)
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
    T lies in the constraint range and dominates Omega; only then is
    Tr[T] * trace_value / D a sound bound.  Raises BoundUnavailableError
    when no certificate is stored or it fails either check.  Every check
    runs on the dense D x D matrices, whatever twirl Omega carries.
    """
    cert = candidate.dual_certificate
    if cert is None:
        raise BoundUnavailableError("the candidate carries no dual certificate")
    if not np.all(np.isfinite(cert)):
        raise BoundUnavailableError("the dual certificate is not finite")
    structure = p.structure
    D = structure.dim
    om = p.omega.omega.permuted(structure.labels).matrix
    scale = 1.0 + float(np.linalg.norm(cert))
    tol = 1e-8 * scale
    if float(np.linalg.norm(cert - cert.conj().T)) > tol:
        raise BoundUnavailableError("the dual certificate is not Hermitian")
    dense = _Coordinates(None, structure.wires)
    if float(np.linalg.norm(cert - _dual_range_projection(cert[None], dense)[0])) > tol:
        raise BoundUnavailableError(
            "the dual certificate leaves the constraint range, so it is not "
            "constant on the comb set"
        )
    lo = float(np.linalg.eigvalsh(cert - om)[0])
    if lo < -tol:
        raise BoundUnavailableError(
            f"the dual certificate does not dominate the objective "
            f"(min eigenvalue {lo:.3e})"
        )
    return float(np.trace(cert).real) * structure.trace_value / D


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
