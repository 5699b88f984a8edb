"""The benchmark's workloads: what one pass does and how each result is checked.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  ``setup(name, seed, workdir)`` does what a
process pays before its first operation after importing (objectives are
built with cold caches, boards are drawn) and returns the pass: a fixed list
of operations.  An operation times only its own
phases through the ``clock`` it is given; the correctness checks that follow
a phase run outside the clock.

Library calls go through module attributes (``qc.solve``, ``qcli.main``) at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import qcombs as qc
from qcombs import cli as qcli

WORKLOADS = ("certify-qubit", "qutrit-budget", "networks")

# Iterations given to the qutrit solve.  Each costs one dense 729 x 729
# eigendecomposition; five keep one operation near three and a half seconds,
# so a run holds about ten of them.
QUTRIT_BUDGET = 5

# Haar-random slot fillings per network board.
FILLS_PER_BOARD = 20

# (wire dims in comb order, memory dims) of the network boards: qubit
# 3 teeth (D=64), qutrit 2 teeth (D=81), qubit 4 teeth (D=256).
NETWORK_BOARDS = (
    ((2, 2, 2, 2, 2, 2), (4, 4)),
    ((3, 3, 3, 3), (3,)),
    ((2, 2, 2, 2, 2, 2, 2, 2), (2, 2, 2)),
)


def cloning_reference(d: int) -> float:
    """Optimal 1 -> 2 gate-cloning fidelity, (d + sqrt(d^2 - 1)) / d^3."""
    return (d + math.sqrt(d * d - 1)) / d**3


def learning_reference(n: int) -> float:
    """Optimal qubit learning fidelity from n uses, cos^2(pi / (n + 3)).

    Optimal learning equals optimal estimation for qubits (Bisio et al.,
    arXiv:0903.0543).
    """
    return math.cos(math.pi / (n + 3)) ** 2


# A value or bound may miss the exact reference by floating-point rounding.
_REFERENCE_SLACK = 1e-12


class Clock:
    """Sums the time spent inside named phases of one operation."""

    def __init__(self):
        self.phases: dict[str, float] = {}

    @contextlib.contextmanager
    def __call__(self, name: str):
        t0 = perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + perf_counter() - t0

    @property
    def total(self) -> float:
        return sum(self.phases.values())


@dataclass
class Op:
    """One operation of a pass.

    ``run(clock)`` returns (failure reasons, figures); an exception is a
    failure too.  Figures are numbers the run summarises, such as solver
    iterations or the gap left by a budgeted solve.
    """

    label: str
    run: Callable[[Clock], tuple[list[str], dict]]


# ---------------------------------------------------------------------------
# certify-qubit and qutrit-budget


def solve_op(
    label: str,
    problem: "qc.SdpProblem",
    reference: float,
    gate_gap: bool,
) -> Op:
    """Solve, bound and verify; the reference must lie in [value, bound]."""

    def run(clock: Clock):
        with clock("solve"):
            sol = qc.solve(problem)
            bound = qc.dual_bound(problem, sol)
            report = sol.R_star.verify()
        failures = []
        if not report.passed:
            failures.append(f"optimal board fails verification: {report}")
        slack = _REFERENCE_SLACK * (1.0 + abs(reference))
        if not sol.value - slack <= reference <= bound + slack:
            failures.append(
                f"reference {reference:.10f} outside [{sol.value:.10f}, {bound:.10f}]"
            )
        gap = bound - sol.value
        if gate_gap and gap > problem.tol_gap * (1.0 + abs(sol.value)):
            failures.append(f"certified gap {gap:.3e} above the tolerance")
        return failures, {
            "solver_iters": sol.iterations,
            "max_gap" if gate_gap else "budget_gap": gap,
        }

    return Op(label, run)


def certify_qubit_ops() -> list[Op]:
    """The paper's qubit problems at default tolerances."""
    problems = [("clone12", qc.cloning_objective(1, 2, 2), cloning_reference(2))]
    for n in (1, 2, 3):
        problems.append((f"learn{n}", qc.learning_objective(n, 2), learning_reference(n)))
    return [
        solve_op(label, qc.SdpProblem(po, po.structure), ref, gate_gap=True)
        for label, po, ref in problems
    ]


def qutrit_budget_ops() -> list[Op]:
    """Qutrit 1 -> 2 cloning (D=729) stopped after a fixed iteration budget.

    Not converging is expected; the certified interval must still hold the
    true optimum.
    """
    po = qc.cloning_objective(1, 2, 3)
    problem = qc.SdpProblem(po, po.structure, max_iters=QUTRIT_BUDGET)
    return [solve_op("clone12-d3", problem, cloning_reference(3), gate_gap=False)]


# ---------------------------------------------------------------------------
# networks


def network_op(
    label: str,
    dims: tuple[int, ...],
    memory: tuple[int, ...],
    board_seed: int,
    gate_seed: int,
    workdir: Path,
) -> Op:
    """Draw a board, fill its slots with random unitaries, then write and
    re-verify it through the command line."""
    teeth = ",".join(f"{2 * k}:{2 * k + 1}" for k in range(len(dims) // 2))
    path = workdir / f"{label}.json"
    cli_generate = [
        "random-comb",
        "--dims", ",".join(map(str, dims)),
        "--memory", ",".join(map(str, memory)),
        "--seed", str(board_seed),
        "--out", str(path),
    ]
    cli_verify = ["verify", str(path), "--teeth", teeth]

    def run(clock: Clock):
        failures = []
        structure = qc.CombStructure.standard(list(dims))
        rng = np.random.default_rng(gate_seed)
        with clock("random_comb"):
            comb = qc.random_comb(structure, memory, board_seed)
        report = comb.verify()
        if not report.passed:
            failures.append(f"drawn board fails verification: {report}")
        for _ in range(FILLS_PER_BOARD):
            with clock("fill"):
                gates = [
                    qc.kraus_to_choi(
                        qc.KrausMap(src, dst, [qc.haar_unitary(src.dim, rng)])
                    )
                    for src, dst in structure.slots
                ]
                ok, residual = qc.is_channel(qc.supermap_apply(comb, gates))
            if not ok:
                failures.append(f"filled board is not a channel (residual {residual:.3e})")
        sink = io.StringIO()
        try:
            for argv in (cli_generate, cli_verify):
                with clock("cli"), contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    code = qcli.main(argv)
                if code != qcli.EXIT_OK:
                    failures.append(f"qcombs {argv[0]} exited {code}: {sink.getvalue()[-200:]}")
        finally:
            path.unlink(missing_ok=True)
        return failures, {}

    return Op(label, run)


def networks_ops(seed: int, workdir: Path) -> list[Op]:
    seeds = np.random.SeedSequence([seed, 3]).generate_state(2 * len(NETWORK_BOARDS))
    return [
        network_op(
            f"board{i}-D{math.prod(dims)}",
            dims,
            memory,
            int(seeds[2 * i]),
            int(seeds[2 * i + 1]),
            workdir,
        )
        for i, (dims, memory) in enumerate(NETWORK_BOARDS)
    ]


def setup(name: str, seed: int, workdir: Path) -> list[Op]:
    """Build the fixed task list of one pass of workload ``name``.

    certify-qubit and qutrit-budget solve fixed problems from the paper, so
    their operations do not depend on the seed.
    """
    if name == "certify-qubit":
        return certify_qubit_ops()
    if name == "qutrit-budget":
        return qutrit_budget_ops()
    if name == "networks":
        return networks_ops(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
