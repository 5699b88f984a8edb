"""Command-line drivers for the cloning, learning, verification, and
random-generation workflows.

One command is one process, and each command takes exactly the options it
reads; clone and learn default --tol and --max-iters to SdpProblem's, and
verify --tol to TOL_VERIFY.  Human-readable rows go to stdout by default;
with --json the machine-readable result record is the only stdout output
and informational notes move to stderr.  Exit codes are a stable contract:
0 success, 1 domain failure (a verification that should pass does not),
2 input error (bad or unknown options, unreadable or existing files,
dimension caps), 3 convergence failure (the result record is still
written, with converged false).
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from .comb import (
    TOL_VERIFY,
    CausalityReport,
    CombStructure,
    QuantumComb,
    random_comb,
    verify_causality,
)
from .errors import BoundUnavailableError, QCombsError
from .io import OperatorFile, ResultRecord
from .objective import (
    cloning_objective,
    estimation_reference,
    learning_objective,
)
from .solver import SdpProblem, dual_bound, solve

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_NOCONV = 3

SOLVER_BACKEND = "projection-splitting"


class _CliInputError(Exception):
    pass


class _CliDomainError(Exception):
    pass


# ---------------------------------------------------------------------------
# Shared plumbing


def _emit_record(record: ResultRecord, args, extra_rows=()) -> None:
    if args.json:
        sys.stdout.write(record.to_json())
        return
    rows = [
        ("task", record.task),
        (
            "parameters",
            "  ".join(f"{k}={v}" for k, v in sorted(record.parameters.items())),
        ),
    ]
    if record.value is not None:
        rows.append(("value", f"{record.value:.12g}"))
    if record.reference_value is not None:
        rows.append(
            (
                "reference",
                f"{record.reference_value:.12g}  [{record.reference_source}]",
            )
        )
    rows.extend(extra_rows)
    if record.feas_residual is not None:
        rows.append(("feasibility", f"{record.feas_residual:.3e}"))
    if record.gap_bound is not None:
        rows.append(("gap bound", f"{record.gap_bound:.3e}"))
        top = record.value + record.gap_bound
        rows.append(("certified", f"[{record.value:.12g}, {top:.12g}]"))
    if record.iterations is not None:
        state = "converged" if record.converged else "NOT converged"
        rows.append(("iterations", f"{record.iterations}  ({state})"))
    rows.append(("wall time", f"{record.wall_time:.2f} s"))
    rows.append(("backend", record.backend))
    for key, val in rows:
        print(f"{key:<12} {val}")


def _write_and_recheck(comb: QuantumComb, metadata: dict, args) -> CausalityReport:
    """Write the comb as an operator file, re-read it, and return the
    causality report of the re-read operator."""
    f = OperatorFile.from_operator(comb.op, metadata)
    try:
        f.save(args.out, force=args.force)
    except FileExistsError as e:
        raise _CliInputError(f"{args.out} exists; pass --force to overwrite") from e
    back = OperatorFile.load(args.out).to_operator()
    report = verify_causality(back, comb.structure)
    if not report.passed:
        raise _CliDomainError(
            f"the written operator failed re-verification: {report}"
        )
    stream = sys.stderr if args.json else sys.stdout
    print(f"wrote {args.out} (re-verified: {report})", file=stream)
    return report


def _emit_causality(args, task, params, report, wall, backend) -> int:
    """Emit a causality report through _emit_record, one row per check."""
    record = ResultRecord(
        task=task,
        parameters=params,
        value=None,
        reference_value=None,
        reference_source="none",
        feas_residual=report.violation,
        gap_bound=None,
        iterations=None,
        wall_time=wall,
        backend=backend,
        converged=report.passed,
    )
    lo, herm, tol = report.min_eigenvalue, report.hermiticity, report.tol
    checks = [
        (f"level {n}", f"residual {r:.3e}", r <= tol)
        for n, r in enumerate(report.residuals)
    ]
    checks.append(("eigenvalue", f"{lo:+.3e}", lo >= -tol))
    checks.append(("hermiticity", f"{herm:.3e}", herm <= tol))
    rows = [(key, f"{text}  {'ok' if ok else 'FAIL'}") for key, text, ok in checks]
    _emit_record(record, args, rows + [("causality", str(report))])
    return EXIT_OK if report.passed else EXIT_DOMAIN


def _int_list(text: str, what: str) -> list[int]:
    parts = [p for p in text.split(",") if p != ""]
    try:
        vals = [int(p) for p in parts]
    except ValueError:
        raise _CliInputError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None
    if any(v < 1 for v in vals):
        raise _CliInputError(f"{what} must be positive, got {text!r}")
    return vals


def _solve_task(args, task, po, params, reference, source, extra_rows=()) -> int:
    """Solve po, write --out if asked, and emit the result record of task.

    params holds the task's own parameters; the record adds tol, and the
    operator file's metadata adds the value and converged.  The gap is
    dual_bound's re-checked one; a failed re-check writes no file.
    """
    try:
        problem = SdpProblem(po, po.structure, tol_gap=args.tol, max_iters=args.max_iters)
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    t0 = time.perf_counter()
    sol = solve(problem)
    wall = time.perf_counter() - t0
    try:
        gap = max(dual_bound(problem, sol) - sol.value, 0.0)
    except BoundUnavailableError as e:
        raise _CliDomainError(f"the certified interval failed its re-check: {e}") from None

    record = ResultRecord(
        task=task,
        parameters={**params, "tol": args.tol},
        value=sol.value,
        reference_value=reference,
        reference_source=source,
        feas_residual=sol.feas_residual,
        gap_bound=gap,
        iterations=sol.iterations,
        wall_time=wall,
        backend=SOLVER_BACKEND,
        converged=sol.converged,
    )
    if args.out:
        metadata = {
            "task": task,
            **params,
            "value": sol.value,
            "converged": sol.converged,
        }
        _write_and_recheck(sol.R_star, metadata, args)
    _emit_record(record, args, extra_rows)
    return EXIT_OK if sol.converged else EXIT_NOCONV


# ---------------------------------------------------------------------------
# Commands


def cmd_clone(args) -> int:
    if args.n < 1 or args.m < 1 or args.dim < 2:
        raise _CliInputError("need --n >= 1, --m >= 1, --dim >= 2")
    po = cloning_objective(args.n, args.m, args.dim)

    d = args.dim
    reference, source = None, "none"
    extra = []
    if (args.n, args.m) == (1, 2):
        reference = (d + math.sqrt(d * d - 1)) / d**3
        source = "paper-closed-form"
        extra.append(("estimation", f"{estimation_reference(1, 2, d):.12g}"))

    params = {"n": args.n, "m": args.m, "dim": args.dim}
    return _solve_task(args, "clone", po, params, reference, source, extra)


def cmd_learn(args) -> int:
    if args.uses < 1 or args.dim < 2:
        raise _CliInputError("need --uses >= 1, --dim >= 2")
    po = learning_objective(args.uses, args.dim)

    d = args.dim
    reference, source = None, "none"
    if args.uses == 1:
        reference, source = 2.0 / d**2, "paper-closed-form"
    elif d == 2:
        # Optimal qubit learning equals optimal estimation, whose fidelity
        # from N uses is cos^2(pi / (N + 3)) (Bisio et al., arXiv:0903.0543).
        reference = math.cos(math.pi / (args.uses + 3)) ** 2
        source = "stored-constant"
    elif args.uses == 2:
        reference, source = 3.0 / d**2, "paper-closed-form"

    params = {"uses": args.uses, "dim": args.dim}
    return _solve_task(args, "learn", po, params, reference, source)


def _parse_teeth(spec: str, op) -> CombStructure:
    teeth = []
    for part in spec.split(","):
        bits = part.split(":")
        if len(bits) != 2 or not bits[0] or not bits[1]:
            raise _CliInputError(
                f"bad tooth {part!r} in --teeth; expected in:out label pairs "
                f"like 0:1,2:3"
            )
        teeth.append((bits[0], bits[1]))
    if not teeth:
        raise _CliInputError("--teeth names no teeth")
    named = [lab for pair in teeth for lab in pair]
    have = set(op.labels)
    missing = [lab for lab in named if lab not in have]
    if missing:
        raise _CliInputError(
            f"--teeth names wires {missing} that are not in the file "
            f"(file wires: {sorted(have)})"
        )
    unused = sorted(have - set(named))
    if unused:
        raise _CliInputError(
            f"--teeth leaves file wires {unused} unassigned; every wire "
            f"must belong to a tooth"
        )
    return CombStructure(tuple((op.wire(i), op.wire(o)) for i, o in teeth))


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    f = OperatorFile.load(args.file)
    op = f.to_operator()
    structure = _parse_teeth(args.teeth, op)
    report = verify_causality(op, structure, args.tol)
    wall = time.perf_counter() - t0
    params = {"file": args.file, "teeth": args.teeth, "tol": args.tol}
    return _emit_causality(args, "verify", params, report, wall, "verification")


def cmd_random_comb(args) -> int:
    dims = _int_list(args.dims, "--dims")
    if not dims or len(dims) % 2 != 0:
        raise _CliInputError(
            f"--dims must list a nonempty even number of wire dimensions "
            f"(in,out per tooth), got {len(dims)}"
        )
    memory = _int_list(args.memory, "--memory") if args.memory else []
    if not args.out:
        raise _CliInputError("random-comb needs --out PATH")
    t0 = time.perf_counter()
    structure = CombStructure.standard(dims)
    try:
        comb = random_comb(structure, memory, args.seed)
    except ValueError as e:
        raise _CliInputError(str(e)) from None
    params = {"dims": args.dims, "memory": args.memory or "", "seed": args.seed}
    report = _write_and_recheck(comb, {"task": "random-comb", **params}, args)
    wall = time.perf_counter() - t0
    return _emit_causality(args, "random-comb", params, report, wall, "generator")


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--dim", type=int, default=2, help="gate dimension (default 2)")
    solver.add_argument(
        "--tol",
        type=float,
        default=SdpProblem.tol_gap,
        help="relative certified-gap tolerance (default %(default)g)",
    )
    solver.add_argument(
        "--max-iters",
        type=int,
        default=SdpProblem.max_iters,
        help="solver iteration budget (default %(default)d)",
    )
    emit = argparse.ArgumentParser(add_help=False)
    emit.add_argument(
        "--json",
        action="store_true",
        help="print the machine-readable result record on stdout",
    )
    write = argparse.ArgumentParser(add_help=False)
    write.add_argument("--out", metavar="PATH", default=None, help="operator file to write")
    write.add_argument(
        "--force", action="store_true", help="allow overwriting an existing --out file"
    )

    parser = argparse.ArgumentParser(
        prog="qcombs",
        description="Optimize and verify quantum circuit boards with open slots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser(
        "clone",
        parents=[solver, emit, write],
        help="optimal gate cloning: n uses of a gate into m copies",
    )
    pc.add_argument("--n", type=int, required=True, help="available uses of the gate")
    pc.add_argument("--m", type=int, required=True, help="requested parallel copies")
    pc.set_defaults(func=cmd_clone)

    pl = sub.add_parser(
        "learn",
        parents=[solver, emit, write],
        help="optimal gate learning: store n uses, retrieve once later",
    )
    pl.add_argument("--uses", type=int, required=True, help="uses available while storing")
    pl.set_defaults(func=cmd_learn)

    pv = sub.add_parser(
        "verify", parents=[emit], help="check an operator file against causality"
    )
    pv.add_argument("file", help="operator file to check")
    pv.add_argument(
        "--teeth",
        required=True,
        help="comma-separated in:out label pairs in causal order, e.g. 0:1,2:3",
    )
    pv.add_argument(
        "--tol",
        type=float,
        default=TOL_VERIFY,
        help="residual, eigenvalue and hermiticity tolerance (default %(default)g)",
    )
    pv.set_defaults(func=cmd_verify)

    pr = sub.add_parser(
        "random-comb", parents=[emit, write], help="generate a random causal comb"
    )
    pr.add_argument(
        "--dims",
        required=True,
        help="comma-separated wire dims in comb order (in,out per tooth)",
    )
    pr.add_argument(
        "--memory",
        default="",
        help="comma-separated memory dims between teeth (one fewer than teeth)",
    )
    pr.add_argument("--seed", type=int, default=0, help="seed of the draw (default 0)")
    pr.set_defaults(func=cmd_random_comb)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliDomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (_CliInputError, QCombsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
