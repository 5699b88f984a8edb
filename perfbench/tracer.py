"""Spans around the calls into each qcombs module, recorded from outside.

The library carries no instrumentation, so the benchmark wraps its
functions and methods by name.  A function is wrapped once and the wrapper
replaces every module attribute of the package that holds the original
object, so a call through a consumer's own import (``qcombs.solver`` using
``_affine_projection`` from ``qcombs.comb``, ``qcombs.cli`` using ``solve``)
is traced as well.  A target whose name no longer exists is listed as
absent; its metrics then read zero and nothing fails.

Spans stay in memory as (name, start, end, parent, operation id) and are
written out when the run ends.  A span's self time is its duration minus
the durations of its direct children; the run is single-threaded, so the
children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (metric base, module, attribute, only when called directly inside).
# Spans of one base are summed; ``<base>_s`` is their self time and
# ``<base>_calls`` their number.
TARGETS = (
    ("solver.self", "qcombs.solver", "solve", None),
    ("solver.psd", "qcombs.solver", "_psd_part", None),
    # The affine projection also runs inside the certificate and the dual
    # bound; only the ADMM step is counted here, the rest stays in the
    # caller's self time.
    ("solver.affine", "qcombs.solver", "_affine_projection", "solver.self"),
    ("solver.polish", "qcombs.solver", "_polish", None),
    ("solver.certificate", "qcombs.solver", "_build_certificate", None),
    ("solver.dual_bound", "qcombs.solver", "dual_bound", None),
    ("comb.verify_causality", "qcombs.comb", "verify_causality", None),
    ("comb.random_comb", "qcombs.comb", "random_comb", None),
    ("comb.supermap_apply", "qcombs.comb", "supermap_apply", None),
    ("link.link_product", "qcombs.link", "link_product", None),
    ("labeled.permuted", "qcombs.labeled", "LabeledOperator.permuted", None),
    ("labeled.ptrace", "qcombs.labeled", "LabeledOperator.ptrace", None),
    ("labeled.ptranspose", "qcombs.labeled", "LabeledOperator.ptranspose", None),
    ("labeled.tensor", "qcombs.labeled", "LabeledOperator.tensor", None),
    ("labeled.eigh", "qcombs.labeled", "LabeledOperator.eigh", None),
    ("choi.kraus_to_choi", "qcombs.choi", "kraus_to_choi", None),
    ("choi.is_channel", "qcombs.choi", "is_channel", None),
    ("haar.haar_isometry", "qcombs.haar", "haar_isometry", None),
    ("objective.build", "qcombs.objective", "cloning_objective", None),
    ("objective.build", "qcombs.objective", "learning_objective", None),
    ("objective.haar_average", "qcombs.objective", "haar_average", None),
    ("io.dumps", "qcombs.io", "OperatorFile.dumps", None),
    ("io.save", "qcombs.io", "OperatorFile.save", None),
    ("io.loads", "qcombs.io", "OperatorFile.loads", None),
    ("io.load", "qcombs.io", "OperatorFile.load", None),
    ("cli.main", "qcombs.cli", "main", None),
    ("cli.self", "qcombs.cli", "cmd_random_comb", None),
    ("cli.self", "qcombs.cli", "cmd_verify", None),
    ("cli.self", "qcombs.cli", "_write_and_recheck", None),
)

BASES = tuple(dict.fromkeys(base for base, _, _, _ in TARGETS))

# Serialized bytes: the text a dump returns and the text a parse receives.
_BYTES = {
    ("qcombs.io", "OperatorFile.dumps"): lambda args, result: len(result),
    ("qcombs.io", "OperatorFile.loads"): lambda args, result: len(args[1]),
}


class Tracer:
    """Installs the wrappers, records spans, and turns them into metrics."""

    def __init__(self):
        self.spans: list = []
        self.bytes = {}
        self.op_id = "setup"
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, base: str, fn, only_under: str | None, count_bytes):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if only_under is not None and (
                parent < 0 or spans[parent][0] != only_under
            ):
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([base, perf_counter(), None, parent, self.op_id])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count_bytes is not None:
                key = self.op_id == "setup"
                self.bytes[key] = self.bytes.get(key, 0) + count_bytes(args, result)
            return result

        return traced

    def install(self) -> None:
        self.absent = []
        package = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qcombs" or name.startswith("qcombs."))
        }
        for base, module, attr, only_under in TARGETS:
            count_bytes = _BYTES.get((module, attr))
            mod = package.get(module)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or name not in vars(owner):
                self.absent.append(f"{module}.{attr}")
                continue
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    self._wrap(base, raw.__func__, only_under, count_bytes)
                )
                self._patch(owner, name, raw, wrapped)
                continue
            wrapped = self._wrap(base, raw, only_under, count_bytes)
            if owner_name:
                self._patch(owner, name, raw, wrapped)
                continue
            for consumer in package.values():
                for key, value in list(vars(consumer).items()):
                    if value is raw:
                        self._patch(consumer, key, raw, wrapped)

    def _patch(self, owner, name, raw, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, name, raw = self._undo.pop()
            setattr(owner, name, raw)

    # -- results ---------------------------------------------------------------

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def metrics(self, passes: int) -> dict[str, float]:
        """Self seconds and calls per base, per traced pass.

        Spans recorded during set-up count once; spans recorded during the
        timed passes are divided by the number of passes.
        """
        out = {}
        for base in BASES:
            out[f"{base}_s"] = 0.0
            out[f"{base}_calls"] = 0.0
        for span, own in zip(self.spans, self.self_times()):
            base, _, _, _, op_id = span
            share = 1.0 if op_id == "setup" else 1.0 / passes
            out[f"{base}_s"] += own * share
            out[f"{base}_calls"] += share
        out["io.bytes"] = sum(
            n * (1.0 if in_setup else 1.0 / passes) for in_setup, n in self.bytes.items()
        )
        out["trace.spans"] = sum(
            1.0 if s[4] == "setup" else 1.0 / passes for s in self.spans
        )
        return out

    def inclusive(self, base: str) -> float:
        """Summed duration of the spans of ``base`` outside set-up."""
        return sum(
            end - start
            for name, start, end, _, op_id in self.spans
            if name == base and op_id != "setup"
        )

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps([name, start, end, parent, op_id]) + "\n")
