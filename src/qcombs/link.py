"""Composition of labeled operators by contraction over shared wires.

Two operators compose by tracing out the wires they share, with a partial
transpose applied to the first operator's copy of the shared wires.  With
Choi operators this reproduces channel composition: connecting an output
wire of one circuit fragment to the equally labeled input wire of another
yields the fragment obtained by plugging them together.  The trace is taken
by contracting the shared indices directly, so no operator on the union of
both wire sets is ever formed.

The contraction is symmetric (up to wire reordering) and associative over
networks where every label occurs in at most two parts, so a network of
fragments can be assembled pairwise in any order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatchError, TripleLabelError
from .labeled import LabeledOperator, _check_einsum_wires, _total_dim


def _shared_labels(a: LabeledOperator, b: LabeledOperator) -> list[str]:
    b_labels = set(b.labels)
    shared = [lbl for lbl in a.labels if lbl in b_labels]
    for lbl in shared:
        if a.wire(lbl).dim != b.wire(lbl).dim:
            raise DimMismatchError(
                f"shared wire {lbl!r} has dimension {a.wire(lbl).dim} on one "
                f"side and {b.wire(lbl).dim} on the other"
            )
    return shared


def link_product(a: LabeledOperator, b: LabeledOperator) -> LabeledOperator:
    """Contract two labeled operators over their shared wires.

    Computes A * B = Tr_s[A^{T_s} B] as one einsum over the operands' own
    tensor views, never padding either side with identities: on every
    shared wire s, a's row index is summed against b's row index and a's
    column index against b's column index.

    Disjoint label sets degenerate to the tensor product; fully shared
    label sets produce a scalar operator (empty wire tuple).

    The result carries the surviving wires in the order: wires only on
    ``a``, then wires only on ``b``.
    """
    shared = set(_shared_labels(a, b))
    a_only = [lbl for lbl in a.labels if lbl not in shared]
    b_only = [lbl for lbl in b.labels if lbl not in shared]

    # One (row, column) pair of einsum axis ids per label; a shared label
    # gets the same pair on both sides, so both of its indices contract.
    union = dict.fromkeys(a.labels + b.labels)
    _check_einsum_wires(len(union))
    axis = {lbl: 2 * i for i, lbl in enumerate(union)}

    def subscripts(labels):
        return [axis[lbl] for lbl in labels] + [axis[lbl] + 1 for lbl in labels]

    res = np.einsum(
        a.matrix.reshape(a.dims + a.dims),
        subscripts(a.labels),
        b.matrix.reshape(b.dims + b.dims),
        subscripts(b.labels),
        subscripts(a_only + b_only),
        optimize=True,
    )
    wires = tuple(a.wire(lbl) for lbl in a_only) + tuple(b.wire(lbl) for lbl in b_only)
    d = _total_dim(wires)
    return LabeledOperator._wrap(wires, res.reshape(d, d))


def _label_counts(parts: Sequence[LabeledOperator]) -> Counter[str]:
    """How many parts carry each label, in order of first occurrence."""
    return Counter(lbl for p in parts for lbl in p.labels)


@dataclass(frozen=True)
class Network:
    """An unordered collection of labeled operators to be contracted.

    Every label may occur in at most two parts; a label occurring twice is
    an internal wire, a label occurring once stays open.
    """

    parts: tuple[LabeledOperator, ...]

    def __init__(self, parts: Sequence[LabeledOperator]):
        parts = tuple(parts)
        counts = _label_counts(parts)
        bad = sorted(lbl for lbl, c in counts.items() if c > 2)
        if bad:
            raise TripleLabelError(
                f"labels {bad} occur in more than two parts"
            )
        # Dimensions of internal wires must agree; checked pairwise here so
        # assembly cannot fail halfway through.
        for i, p in enumerate(parts):
            for q in parts[i + 1 :]:
                _shared_labels(p, q)
        object.__setattr__(self, "parts", parts)

    @property
    def open_labels(self) -> tuple[str, ...]:
        counts = _label_counts(self.parts)
        return tuple(lbl for lbl, c in counts.items() if c == 1)


def assemble(net: Network) -> LabeledOperator:
    """Contract all parts of a network into a single labeled operator.

    Folds :func:`link_product` over the parts from the left; by
    associativity and symmetry of the contraction the part order does not
    change the result beyond wire ordering.
    """
    if not net.parts:
        return LabeledOperator.scalar(1.0)
    acc = net.parts[0]
    for p in net.parts[1:]:
        acc = link_product(acc, p)
    return acc
