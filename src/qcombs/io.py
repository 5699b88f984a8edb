"""Operator files and result records.

Both formats are JSON written by one canonical writer, `_render`: floats
are printed with 17 significant digits (lowercase scientific when
needed), which is enough to reconstruct every IEEE double exactly, so
parse -> serialize is bit-identical on canonical files.  The top-level
object and its blocks take one item per line; deeper containers go
inline.  Reading uses the stdlib JSON parser and accepts any formatting;
only writing is canonical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import OperatorFileError
from .labeled import LabeledOperator, Wire, _total_dim

OPERATOR_FORMAT_VERSION = 1

# Source tags a result record may attach to its reference value.
PROVENANCE_TAGS = ("paper-closed-form", "stored-constant", "none")


# Canonical float rendering: 17 significant digits, lowercase.
_FLOAT = "%.17g"


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if not math.isfinite(v):
            raise OperatorFileError(f"value {v!r} is not finite")
        return _FLOAT % v
    raise OperatorFileError(f"values must be scalars, got {type(v).__name__}")


def _render(v, depth: int = 0) -> str:
    """Canonical JSON text of v.

    Containers at depth 0 and 1 take one item per line, deeper ones go
    inline.  Objects below the top level hold only scalars.  A complex
    array is a list of [re, im] pairs, rendered by one format call.
    """
    inline = depth > 1
    sep = ", " if inline else ",\n" + "  " * (depth + 1)
    if isinstance(v, np.ndarray):
        parts = np.asarray(v, dtype=np.complex128).ravel().view(np.float64)
        body = sep.join([f"[{_FLOAT}, {_FLOAT}]"] * v.size) % tuple(parts.tolist())
        brackets = "[]"
    elif isinstance(v, dict):
        body = sep.join(
            f"{json.dumps(str(k))}: {_scalar(x) if depth else _render(x, 1)}"
            for k, x in v.items()
        )
        brackets = "{}"
    elif isinstance(v, (list, tuple)):
        body = sep.join(_render(x, depth + 1) for x in v)
        brackets = "[]"
    else:
        return _scalar(v)
    if inline:
        return brackets[0] + body + brackets[1]
    pad = "\n" + "  " * depth
    if body:
        body = pad + "  " + body
    return brackets[0] + body + pad + brackets[1]


def _entries_to_complex(entries: list) -> np.ndarray:
    """Parse a list of [re, im] pairs of JSON numbers into a complex vector."""
    try:
        pairs = np.array(entries)
    except ValueError:  # ragged nesting
        pairs = None
    if (
        pairs is not None
        and pairs.shape == (len(entries), 2)
        and pairs.dtype.kind in "biuf"
    ):
        # Same arithmetic as the scan below, so both give identical bits;
        # non-finite entries are rejected by the OperatorFile constructor.
        with np.errstate(invalid="ignore"):
            return pairs[:, 0] + 1j * pairs[:, 1]
    # Some entry is malformed (or an integer too large for int64, which numpy
    # keeps as an object): scan for it and name its index.
    flat = np.empty(len(entries), dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) for v in pair)
        ):
            raise OperatorFileError(f"entry {i} is not an [re, im] pair: {pair!r}")
        flat[i] = pair[0] + 1j * pair[1]
    return flat


@dataclass(eq=False)
class OperatorFile:
    """A dense operator with its wire layout and free-form metadata.

    Entries are stored row-major as [re, im] pairs, leftmost wire most
    significant, matching LabeledOperator's memory layout.
    """

    wires: tuple[Wire, ...]
    matrix: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.wires = tuple(self.wires)
        d = _total_dim(self.wires)
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        if self.matrix.shape != (d, d):
            raise OperatorFileError(
                f"matrix shape {self.matrix.shape} does not match the wire "
                f"dimensions (total {d})"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise OperatorFileError("matrix entries must be finite")

    @classmethod
    def from_operator(
        cls, op: LabeledOperator, metadata: Mapping | None = None
    ) -> "OperatorFile":
        return cls(op.wires, op.matrix.copy(), dict(metadata or {}))

    def to_operator(self) -> LabeledOperator:
        """The operator, in float64 when every imaginary part is zero."""
        mat = self.matrix
        return LabeledOperator(self.wires, mat if mat.imag.any() else mat.real)

    # -- canonical serialization ------------------------------------------------

    def dumps(self) -> str:
        doc = {
            "format_version": OPERATOR_FORMAT_VERSION,
            "wires": [{"label": w.label, "dim": w.dim} for w in self.wires],
            "entries": self.matrix,
            "metadata": dict(sorted(self.metadata.items())),
        }
        return _render(doc) + "\n"

    @classmethod
    def loads(cls, text: str) -> "OperatorFile":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise OperatorFileError(f"not valid JSON: {e}") from e
        if not isinstance(doc, dict):
            raise OperatorFileError("top level must be an object")
        for key in ("format_version", "wires", "entries"):
            if key not in doc:
                raise OperatorFileError(f"missing key {key!r}")
        if doc["format_version"] != OPERATOR_FORMAT_VERSION:
            raise OperatorFileError(
                f"unsupported format_version {doc['format_version']!r}, "
                f"expected {OPERATOR_FORMAT_VERSION}"
            )
        raw_wires = doc["wires"]
        # An empty list is the scalar operator on no wires.
        if not isinstance(raw_wires, list):
            raise OperatorFileError("wires must be a list")
        wires = []
        for entry in raw_wires:
            try:
                wires.append(Wire(entry["label"], entry["dim"]))
            except (TypeError, KeyError, ValueError):
                raise OperatorFileError(
                    f"each wire needs a non-empty string label and a positive "
                    f"integer dim, got {entry!r}"
                ) from None
        d = _total_dim(wires)
        entries = doc["entries"]
        if not isinstance(entries, list) or len(entries) != d * d:
            n = len(entries) if isinstance(entries, list) else "non-list"
            raise OperatorFileError(
                f"entries has {n} pairs, expected {d * d} for total dimension {d}"
            )
        flat = _entries_to_complex(entries)
        metadata = doc.get("metadata", {})
        if not isinstance(metadata, dict):
            raise OperatorFileError("metadata must be an object")
        try:
            return cls(tuple(wires), flat.reshape(d, d), dict(metadata))
        except Exception as e:
            raise OperatorFileError(str(e)) from e

    def save(self, path, force: bool = False) -> Path:
        path = Path(path)
        if path.exists() and not force:
            raise FileExistsError(f"{path} exists; pass force to overwrite")
        path.write_text(self.dumps())
        return path

    @classmethod
    def load(cls, path) -> "OperatorFile":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as e:
            raise OperatorFileError(f"cannot read {path}: {e}") from e
        return cls.loads(text)


@dataclass(eq=False)
class ResultRecord:
    """Machine-readable summary of one CLI task run."""

    task: str
    parameters: dict
    value: float | None
    reference_value: float | None
    reference_source: str
    feas_residual: float | None
    gap_bound: float | None
    iterations: int | None
    wall_time: float
    backend: str
    converged: bool

    def __post_init__(self):
        if self.reference_source not in PROVENANCE_TAGS:
            raise ValueError(
                f"reference_source must be one of {PROVENANCE_TAGS}, "
                f"got {self.reference_source!r}"
            )
        if (self.reference_value is None) != (self.reference_source == "none"):
            raise ValueError(
                "reference_value and reference_source must be absent together"
            )

    def to_json(self) -> str:
        """Canonical JSON text; OperatorFileError on a non-finite number
        or a non-scalar parameter."""
        doc ={f.name: getattr(self, f.name) for f in fields(self)}
        doc["parameters"] = dict(sorted(self.parameters.items()))
        return _render(doc) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ResultRecord":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"not valid JSON: {e}") from e
        return cls(**doc)
