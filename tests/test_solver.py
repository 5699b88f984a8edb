import dataclasses
import math

import numpy as np
import pytest

from qcombs import (
    BoundUnavailableError,
    CombStructure,
    DimOverflowError,
    InvalidBranchSumError,
    LabeledOperator,
    LabelMismatchError,
    PerformanceOperator,
    SdpProblem,
    cloning_objective,
    dual_bound,
    haar_average,
    learning_objective,
    project_to_comb,
    random_comb,
    solve,
    solve_probabilistic,
)
from qcombs import comb, objective, solver, twirl
from conftest import conjugated, conjugation_operator, rand_hermitian

S2222 = CombStructure.standard([2, 2, 2, 2])


def problem_for(po, **kw):
    return SdpProblem(po, po.structure, **kw)


def test_problem_validation():
    po = cloning_objective(1, 2, 2)
    with pytest.raises(LabelMismatchError):
        SdpProblem(po, S2222)
    with pytest.raises(ValueError):
        SdpProblem(po, po.structure, tol_gap=0.0)
    with pytest.raises(ValueError):
        SdpProblem(po, po.structure, max_iters=0)
    # ||Omega||_F = inf would make rho inf and the certificate NaN.
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="not finite"):
        SdpProblem(PerformanceOperator(po.omega * 2.0**520, po.structure), po.structure)


def test_constant_objective():
    c = 0.37
    omega = PerformanceOperator(LabeledOperator.identity(S2222.wires) * c)
    p = SdpProblem(omega, S2222)
    sol = solve(p)
    assert sol.converged
    assert sol.value == pytest.approx(c * S2222.trace_value, abs=1e-9)
    assert sol.R_star.verify().passed
    assert sol.gap_bound == pytest.approx(0.0, abs=1e-9)


def test_pass_through_cloning_reaches_one():
    sol = solve(problem_for(cloning_objective(1, 1, 2)))
    assert sol.converged
    assert sol.value == pytest.approx(1.0, abs=1e-6)


def test_cloning_one_to_two_qubits():
    p = problem_for(cloning_objective(1, 2, 2))
    sol = solve(p)
    assert sol.converged
    assert sol.value == pytest.approx((2 + np.sqrt(3)) / 8, abs=1e-6)
    assert sol.feas_residual <= 1e-9
    assert sol.R_star.verify(tol=1e-5).passed
    bound = dual_bound(p, sol)
    assert sol.value - 1e-12 <= bound <= sol.value + 1e-2


def test_learning_one_use():
    sol = solve(problem_for(learning_objective(1, 2)))
    assert sol.converged
    assert sol.value == pytest.approx(0.5, abs=1e-6)


def test_learning_two_uses_qubits():
    # The optimum of the two-use qubit problem, certified from both sides
    # by the primal value and the verified dual bound.
    p = problem_for(learning_objective(2, 2))
    sol = solve(p)
    assert sol.converged
    target = (3 + np.sqrt(5)) / 8
    assert sol.value == pytest.approx(target, abs=1e-6)
    bound = dual_bound(p, sol)
    assert bound <= target + 1e-6
    # the certified interval excludes 3/4 by a wide margin
    assert bound < 0.75 - 0.09


def test_four_use_learning_certified():
    # Qubit learning from four uses is D = 1024; the optimum cos^2(pi/7)
    # (Bisio et al., arXiv:0903.0543) lies in the certified interval.
    p = problem_for(learning_objective(4, 2))
    sol = solve(p)
    assert sol.converged
    target = math.cos(math.pi / 7) ** 2
    assert sol.value - 1e-12 <= target <= dual_bound(p, sol) + 1e-12


def test_qutrit_cloning_certified():
    # Qutrit 1 -> 2 cloning is D = 729; the optimum (d + sqrt(d^2 - 1))/d^3
    # at d = 3 (Chiribella, D'Ariano & Perinotti, arXiv:0804.0129) lies in
    # the certified interval.
    p = problem_for(cloning_objective(1, 2, 3))
    sol = solve(p)
    assert sol.converged
    target = (3 + math.sqrt(8)) / 27
    assert sol.value - 1e-12 <= target <= dual_bound(p, sol) + 1e-12
    assert sol.R_star.verify().passed


def test_qudit_cloning_at_the_cap_certified():
    # Qudit 1 -> 2 cloning at d = 4 is D = 4096, the cap; the optimum
    # (d + sqrt(d^2 - 1))/d^3 (Chiribella, D'Ariano & Perinotti,
    # arXiv:0804.0129) lies in the certified interval.  __wrapped__ skips the
    # objective cache, so the D x D operator does not outlive the test.
    po = cloning_objective.__wrapped__(1, 2, 4)
    assert po.structure.dim == comb.MAX_DIM == 4096
    p = problem_for(po)
    sol = solve(p)
    assert sol.converged
    target = (4 + math.sqrt(15)) / 64
    assert sol.value - 1e-12 <= target <= dual_bound(p, sol) + 1e-12


@pytest.mark.parametrize(
    "build",
    [lambda: cloning_objective(1, 2, 2), lambda: learning_objective(2, 2)],
    ids=["clone12", "learn2"],
)
def test_blocked_solve_matches_one_block_solve(build):
    po = build()
    assert po.twirl is not None
    reordered = po.omega.permuted(po.structure.labels[::-1])
    problems = [
        problem_for(po),
        problem_for(PerformanceOperator(po.omega, po.structure)),
        SdpProblem(haar_average(po.twirl, reordered), po.structure),
    ]
    sols = []
    for p in problems:
        sol = solve(p)
        assert sol.value - 1e-12 <= dual_bound(p, sol)
        sols.append(sol)
    for sol in sols[1:]:
        assert sol.iterations == sols[0].iterations
        assert sol.value == pytest.approx(sols[0].value, abs=1e-9)


def test_learning_two_uses_qutrits():
    p = problem_for(learning_objective(2, 3), tol_gap=1e-5)
    sol = solve(p)
    assert sol.converged
    assert sol.value == pytest.approx(3.0 / 9.0, abs=1e-3)


def test_deterministic_trace_log():
    a = solve(problem_for(cloning_objective(1, 1, 2)))
    b = solve(problem_for(cloning_objective(1, 1, 2)))
    assert a.trace_log == b.trace_log
    assert a.value == b.value


def test_safeguarded_solve_is_deterministic(monkeypatch):
    # Qutrit 1 -> 2 cloning at the default tolerance rejects accelerated
    # steps; the rejections must repeat exactly.
    clears = []
    clear = solver._Anderson.clear

    def counted(self):
        clears.append(1)
        clear(self)

    monkeypatch.setattr(solver._Anderson, "clear", counted)
    p = problem_for(cloning_objective(1, 2, 3))
    a, b = solve(p), solve(p)
    # Each solve clears the memory once to set it up; the rest are rejections.
    assert len(clears) > 2
    assert a.converged
    assert a.iterations <= 100
    assert a.trace_log == b.trace_log
    assert a.value == b.value
    target = (3 + math.sqrt(8)) / 27
    assert a.value - 1e-12 <= target <= dual_bound(p, a) + 1e-12


def test_paper_qubit_problems_certify_in_few_iterations():
    problems = [(cloning_objective(1, 2, 2), (2 + math.sqrt(3)) / 8)]
    for n in (1, 2, 3):
        problems.append((learning_objective(n, 2), math.cos(math.pi / (n + 3)) ** 2))
    total = 0
    for po, target in problems:
        p = problem_for(po)
        sol = solve(p)
        assert sol.converged
        assert sol.value - 1e-12 <= target <= dual_bound(p, sol) + 1e-12
        # The polish leaves a margin the certified floor does not eat.
        assert sol.R_star.verify().min_eigenvalue >= 0.0
        total += sol.iterations
    assert total <= 120


@pytest.mark.parametrize(
    "build",
    [
        lambda: cloning_objective(1, 2, 2),
        lambda: learning_objective(2, 2),
        lambda: cloning_objective(1, 2, 3),
    ],
    ids=["clone12", "learn2", "qutrit-clone"],
)
def test_iterate_path_does_not_depend_on_the_scale_of_omega(build):
    # rho is read off ||Omega||_F, so Omega / rho, and with it every iterate,
    # is the same for c * Omega when c is a power of two; only the values
    # scale.  The stopping checkpoints may differ, since tol_gap is relative
    # to 1 + |value|.
    po = build()
    base = solve(problem_for(po))
    for c in (0.25, 8.0, 1024.0, 2.0**510):
        scaled = PerformanceOperator(po.omega * c, po.structure)
        object.__setattr__(scaled, "twirl", po.twirl)
        sol = solve(problem_for(scaled))
        steps = min(base.iterations, sol.iterations)
        assert steps >= 10
        for (v, r), (vc, rc) in zip(base.trace_log[:steps], sol.trace_log[:steps]):
            assert rc == r
            assert vc == c * v


def test_budget_is_one_eigenvalue_clip_per_iteration(monkeypatch):
    calls = []
    clip = solver._psd_part

    def counted(*args):
        calls.append(1)
        return clip(*args)

    monkeypatch.setattr(solver, "_psd_part", counted)
    sol = solve(problem_for(cloning_objective(1, 2, 3), max_iters=5))
    assert sol.iterations == 5
    assert len(calls) == 5


def test_budgeted_qutrit_certificate_takes_no_full_eigendecomposition(monkeypatch):
    orders = []

    def recorded(name):
        original = getattr(np.linalg, name)

        def wrapper(a, *args, **kwargs):
            orders.append(a.shape[-1])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    recorded("eigh")
    recorded("eigvalsh")
    po = cloning_objective(1, 2, 3)
    p = problem_for(po, max_iters=5)
    sol = solve(p)
    dual_bound(p, sol)
    assert sol.R_star.twirl is po.twirl
    assert sol.R_star.verify().passed
    assert orders
    assert max(orders) < 729


def test_budgeted_qutrit_dual_checks_take_no_dense_range_projection(monkeypatch):
    shapes = []
    project = solver._dual_range_projection

    def recorded(k, coords):
        shapes.append(k.shape)
        return project(k, coords)

    monkeypatch.setattr(solver, "_dual_range_projection", recorded)
    p = problem_for(cloning_objective(1, 2, 3), max_iters=5)
    dual_bound(p, solve(p))
    assert len(shapes) == 2
    assert (1, 729, 729) not in shapes


def test_best_feasible_sequence_is_monotone():
    sol = solve(problem_for(cloning_objective(1, 2, 2)))
    values = [v for v, _ in sol.trace_log]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_budget_exhaustion_returns_best_feasible():
    # The budget ends at the checkpoint before the first converged one.
    full = solve(problem_for(cloning_objective(1, 2, 2)))
    budget = full.iterations - solver._POLISH_EVERY
    p = problem_for(cloning_objective(1, 2, 2), max_iters=budget)
    sol = solve(p)
    assert not sol.converged
    assert sol.iterations == budget
    assert sol.R_star.verify().passed
    assert sol.value <= (2 + np.sqrt(3)) / 8 + 1e-9


@pytest.mark.parametrize(
    "build",
    [
        lambda: cloning_objective(1, 2, 2),
        lambda: learning_objective(1, 2),
        lambda: learning_objective(2, 2),
    ],
    ids=["clone12", "learn1", "learn2"],
)
@pytest.mark.parametrize("tol", [1e-6, 1e-3])
def test_converged_means_certified_gap(build, tol):
    p = problem_for(build(), tol_gap=tol)
    sol = solve(p)
    assert sol.converged
    assert sol.gap_bound <= p.tol_gap * (1.0 + abs(sol.value))
    assert dual_bound(p, sol) - sol.value <= p.tol_gap * (1.0 + abs(sol.value))
    short = solve(dataclasses.replace(p, max_iters=5))
    assert not short.converged
    assert short.gap_bound > p.tol_gap * (1.0 + abs(short.value))


def test_objective_over_the_cap_raises_before_building(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an operator was built past the cap")

    monkeypatch.setattr(objective, "max_entangled", forbidden)
    monkeypatch.setattr(twirl, "_Coordinates", forbidden)
    with pytest.raises(DimOverflowError, match="needs dimension 16384, over the cap 4096"):
        learning_objective(6, 2)


def test_every_dense_entry_checks_the_one_cap(monkeypatch):
    po = cloning_objective(1, 1, 2)
    monkeypatch.setattr(comb, "MAX_DIM", 8)
    with pytest.raises(DimOverflowError, match="solve needs dimension 16, over the cap 8"):
        solve(problem_for(po))
    with pytest.raises(DimOverflowError, match="project_to_comb needs dimension 16, "):
        project_to_comb(po.omega, S2222)
    with pytest.raises(DimOverflowError, match="objective needs dimension 16, "):
        cloning_objective.__wrapped__(1, 1, 2)
    with pytest.raises(DimOverflowError, match="random_comb needs dimension 16, "):
        random_comb(S2222, [2], 0)


def test_omega_is_read_once_per_problem(monkeypatch):
    # Two 5-iteration solves and a dual_bound of one problem move Omega
    # into the coordinates once, by the problem's own read.
    po = cloning_objective(1, 2, 3)
    p = SdpProblem(po, po.structure, max_iters=5)
    omega = po.omega.permuted(po.structure.labels).matrix
    reads = []

    def counted(name):
        original = getattr(twirl._Coordinates, name)

        def wrapper(self, mat):
            reads.append(np.array_equal(mat, omega))
            return original(self, mat)

        monkeypatch.setattr(twirl._Coordinates, name, wrapper)

    counted("of")
    counted("read")
    sol = solve(p)
    assert solve(p).value == sol.value
    dual_bound(p, sol)
    assert sum(reads) == 1


def test_dual_bound_requires_valid_certificate(monkeypatch):
    p = problem_for(cloning_objective(1, 1, 2))
    sol = solve(p)
    with pytest.raises(BoundUnavailableError):
        dual_bound(p, dataclasses.replace(sol, dual_certificate=None))
    # an integer certificate is read as numbers, also on one dense block
    dense = SdpProblem(PerformanceOperator(p.omega.omega, p.structure), p.structure)
    top = math.ceil(np.linalg.eigvalsh(p.omega.omega.matrix)[-1])
    flat = dataclasses.replace(sol, dual_certificate=top * np.eye(16, dtype=int))
    for q in (p, dense):
        assert dual_bound(q, flat) == pytest.approx(top * p.structure.trace_value)
    # a certificate that fails to dominate the objective is rejected
    broken = sol.dual_certificate - 10.0 * np.eye(sol.dual_certificate.shape[0])
    with pytest.raises(BoundUnavailableError):
        dual_bound(p, dataclasses.replace(sol, dual_certificate=broken))
    # one outside the constraint range is rejected even if dominating
    rng = np.random.default_rng(0)
    off = sol.dual_certificate + 0.1 * np.diag(rng.standard_normal(16))
    with pytest.raises(BoundUnavailableError):
        dual_bound(p, dataclasses.replace(sol, dual_certificate=off))
    for entry in (np.nan, np.inf):
        bad = sol.dual_certificate.copy()
        bad[3, 5] = entry
        with pytest.raises(BoundUnavailableError, match="not finite"):
            dual_bound(p, dataclasses.replace(sol, dual_certificate=bad))
    skew = np.zeros_like(sol.dual_certificate)
    skew[0, 1], skew[1, 0] = 0.1, -0.1
    with pytest.raises(BoundUnavailableError, match="not Hermitian"):
        dual_bound(p, dataclasses.replace(sol, dual_certificate=sol.dual_certificate + skew))
    # one of the wrong shape (D = 16) is refused before any arithmetic, and
    # one that is not an array of numbers before any read
    for shape in [(8, 8), (16,), (16, 8), (32, 32)]:
        bad = np.eye(*shape) if len(shape) == 2 else np.ones(shape)
        with pytest.raises(BoundUnavailableError, match="shape"):
            dual_bound(p, dataclasses.replace(sol, dual_certificate=bad))
    monkeypatch.setattr(twirl._Coordinates, "read", None)
    fresh = dataclasses.replace(p)
    for bad in ([[1.0]], sol.dual_certificate.tolist(), np.full((16, 16), "1")):
        with pytest.raises(BoundUnavailableError, match="not an array of numbers"):
            dual_bound(fresh, dataclasses.replace(sol, dual_certificate=bad))


@pytest.mark.parametrize(
    "build, optimum",
    [
        (lambda: cloning_objective(1, 2, 2), (2 + math.sqrt(3)) / 8),
        (lambda: learning_objective(2, 2), math.cos(math.pi / 5) ** 2),
        (lambda: learning_objective(3, 2), 0.75),
    ],
    ids=["clone12", "learn2", "learn3"],
)
def test_dual_bound_pays_for_the_slack_it_accepts(build, optimum):
    # Shifting the solver's certificate down by just under the tolerance
    # keeps it in the range and passes every check; the bound must still
    # hold the true optimum.
    p = problem_for(build())
    sol = solve(p)
    cert = sol.dual_certificate
    tol = 1e-8 * (1.0 + np.linalg.norm(cert))
    shifted = cert - 0.99 * tol * np.eye(cert.shape[0])
    bound = dual_bound(p, dataclasses.replace(sol, dual_certificate=shifted))
    assert type(bound) is float
    assert bound >= optimum


def _dense_checks(p, cert):
    """What the one-block checks of dual_bound read: the range defect
    ||T - P(T)||_F, P(T) - Omega with P(T) taken Hermitian, and the
    tolerance 1e-8 * (1 + ||T||_F)."""
    s = p.structure
    proj = solver._dual_range_projection(cert[None], twirl._Coordinates(None, s.wires))[0]
    h = (proj + proj.conj().T) / 2 - p.omega.omega.permuted(s.labels).matrix
    return float(np.linalg.norm(cert - proj)), h, 1e-8 * (1.0 + np.linalg.norm(cert))


@pytest.mark.parametrize(
    "build, optimum",
    [
        (lambda: cloning_objective(1, 2, 2), (2 + math.sqrt(3)) / 8),
        (lambda: cloning_objective(1, 2, 3), (3 + math.sqrt(8)) / 27),
    ],
    ids=["clone12", "qutrit-clone"],
)
def test_coordinate_dual_bound_refuses_what_the_dense_checks_fail(build, optimum):
    # Certificates moved by about the tolerance, off the range, off the
    # algebra or down along the identity: every one that the one-block
    # dense checks fail must be refused, and every one accepted must still
    # bound the optimum.
    po = build()
    s = po.structure
    p = problem_for(po)
    sol = solve(p)
    cert = sol.dual_certificate
    coords = twirl._coordinates(po.twirl, s.wires)
    dense = twirl._Coordinates(None, s.wires)
    _, h, tol = _dense_checks(p, cert)

    def in_range(g):
        return solver._dual_range_projection(g[None], dense)[0]

    def off_algebra(g):
        return g - coords.matrix(coords.of(g))

    def with_cert(t):
        return dataclasses.replace(sol, dual_certificate=t)

    g = rand_hermitian(s.dim, np.random.default_rng(5))
    failed = set()
    for move in (g, in_range(g), off_algebra(in_range(g)), -np.eye(s.dim)):
        move = move / np.abs(np.linalg.eigvalsh((move + move.conj().T) / 2)).max()
        for size in (0.5, 2.0, 10.0):
            t = cert + size * tol * move
            defect, t_h, t_tol = _dense_checks(p, t)
            if defect > t_tol or np.linalg.eigvalsh(t_h)[0] < -t_tol:
                failed |= {"range"} if defect > t_tol else {"dominance"}
                with pytest.raises(BoundUnavailableError):
                    dual_bound(p, with_cert(t))
            else:
                try:
                    assert dual_bound(p, with_cert(t)) >= optimum
                except BoundUnavailableError:
                    pass
    assert failed == {"range", "dominance"}

    # A move inside the range and orthogonal to the algebra leaves the
    # coordinates of T as they are; aimed at the least eigenvector of
    # P(T) - Omega, it makes that operator indefinite, and only the
    # distance from the algebra shows it.
    v = np.linalg.eigh(h)[1][:, 0]
    e = off_algebra(in_range(-np.outer(v, v.conj())))
    e = e * (100 * tol / abs(v.conj() @ e @ v))
    assert np.abs(coords.of(e)).max() <= 1e-12 * tol
    t = cert + e
    defect, t_h, t_tol = _dense_checks(p, t)
    eigs = np.linalg.eigvalsh(t_h)
    assert defect <= t_tol
    assert eigs[0] < -t_tol < t_tol < eigs[-1]
    with pytest.raises(BoundUnavailableError):
        dual_bound(p, with_cert(t))


@pytest.mark.parametrize(
    "build",
    [
        lambda: cloning_objective(1, 2, 2),
        lambda: learning_objective(2, 2),
        lambda: cloning_objective(1, 2, 3),
    ],
    ids=["clone12", "learn2", "qutrit-clone"],
)
def test_coordinate_dual_bound_matches_the_dense_route(build):
    # dataclasses.replace drops the twirl, so the copy re-checks the same
    # certificate on one dense block.
    po = build()
    p = problem_for(po)
    sol = solve(p)
    flat = dataclasses.replace(po)
    assert flat.twirl is None
    bound = dual_bound(p, sol)
    assert abs(bound - dual_bound(problem_for(flat), sol)) <= 1e-12 * (1.0 + abs(bound))


def test_probabilistic_single_branch_reduces_to_solve():
    po = cloning_objective(1, 2, 2)
    prob = solve_probabilistic([po], po.structure)
    sol = solve(problem_for(po))
    assert prob.outcome_ids == ("0",)
    branch = prob.branch("0")
    assert (branch - sol.R_star.op).norm() < 1e-10
    assert po.value(branch) == pytest.approx(sol.value, abs=1e-10)


def test_probabilistic_split_cannot_beat_deterministic():
    po = cloning_objective(1, 2, 2)
    prob = solve_probabilistic([po, po], po.structure)
    total = sum(po.value(op) for _, op in prob.branches)
    single = solve(problem_for(po)).value
    assert total == pytest.approx(single, abs=1e-4)


def test_probabilistic_zero_objectives():
    po = cloning_objective(1, 1, 2)
    zero = PerformanceOperator(
        LabeledOperator(po.omega.wires, np.zeros((16, 16)))
    )
    prob = solve_probabilistic([zero, zero], po.structure, max_iters=2000)
    total = sum(zero.value(op) for _, op in prob.branches)
    assert abs(total) < 1e-9


def test_probabilistic_argument_errors():
    po = cloning_objective(1, 2, 2)
    with pytest.raises(InvalidBranchSumError):
        solve_probabilistic([], po.structure)
    other = cloning_objective(1, 1, 2)
    with pytest.raises(LabelMismatchError):
        solve_probabilistic([other], po.structure)


def test_imaginary_objective_is_solved_over_complex_combs():
    # Omega = I (x) sigma_y scores 0 on every real comb; the channel that
    # prepares the +1 eigenstate of sigma_y scores 2, the optimum.
    s = CombStructure.standard([2, 2])
    sigma_y = np.array([[0, -1j], [1j, 0]])
    omega = PerformanceOperator(LabeledOperator(s.wires, np.kron(np.eye(2), sigma_y)), s)
    p = SdpProblem(omega, s)
    sol = solve(p)
    bound = dual_bound(p, sol)
    assert sol.value - 1e-12 <= 2.0 <= bound + 1e-12
    assert sol.value == pytest.approx(2.0, abs=1e-6)


def test_real_objective_matches_its_complex_twin():
    # W = diag(1, i) on wire "2" is wire-local and unitary, so it maps the
    # comb set onto itself and W Omega W^dag is a complex objective with
    # the same optimum; the solve of the real Omega runs in float64.
    po = learning_objective(1, 2)
    assert not po.omega.matrix.imag.any()
    w = conjugation_operator(po.omega, {"2": np.diag([1.0, 1j])})
    twin = PerformanceOperator(conjugated(w, po.omega), po.structure)
    assert twin.omega.matrix.imag.any()
    sols = []
    for q in (po, twin):
        p = problem_for(q)
        sol = solve(p)
        assert sol.value - 1e-12 <= 0.5 <= dual_bound(p, sol) + 1e-12
        sols.append(sol)
    re, cplx = sols
    assert re.iterations == cplx.iterations
    assert re.value == pytest.approx(cplx.value, abs=1e-9)
    assert re.dual_certificate.dtype == np.float64
    assert cplx.dual_certificate.dtype == np.complex128
    assert re.R_star.op.matrix.dtype == np.float64
    assert cplx.R_star.op.matrix.dtype == np.complex128


@pytest.mark.parametrize(
    "build",
    [
        lambda: cloning_objective(1, 2, 2),
        lambda: cloning_objective(1, 2, 3),
        lambda: learning_objective(1, 2),
        lambda: learning_objective(2, 2),
        lambda: learning_objective(3, 2),
    ],
    ids=["clone12-d2", "clone12-d3", "learn1", "learn2", "learn3"],
)
def test_task_objectives_are_exactly_real(build):
    po = build()
    assert po.omega.matrix.dtype == np.float64
    sol = solve(problem_for(po, max_iters=10))
    assert sol.dual_certificate.dtype == np.float64
    assert sol.R_star.op.matrix.dtype == np.float64
