"""Composition of labeled operators by contraction over shared wires.

Two operators compose by tracing out the wires they share, with a partial
transpose applied to the first operator's copy of the shared wires.  With
Choi operators this reproduces channel composition: connecting an output
wire of one circuit fragment to the equally labeled input wire of another
yields the fragment obtained by plugging them together.  The trace is taken
by contracting the shared indices directly, so no operator on the union of
both wire sets is ever formed.

The contraction is symmetric (up to wire reordering) and associative when
every label occurs in at most two fragments, so a chain of link products
over a board's fragments gives the same board in any order.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError, TooManyWiresError
from .labeled import LabeledOperator, _total_dim

#: Most wires one einsum contraction can index: numpy has 52 axis ids, and
#: every wire takes two of them (its row and its column index).
MAX_EINSUM_WIRES = 26


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
    b_labels = set(b.labels)
    shared = dict.fromkeys(lbl for lbl in a.labels if lbl in b_labels)
    for lbl in shared:
        if a.wire(lbl).dim != b.wire(lbl).dim:
            raise DimMismatchError(
                f"shared wire {lbl!r} has dimension {a.wire(lbl).dim} on one "
                f"side and {b.wire(lbl).dim} on the other"
            )
    a_only = [lbl for lbl in a.labels if lbl not in shared]
    b_only = [lbl for lbl in b.labels if lbl not in shared]

    # One (row, column) pair of einsum axis ids per label; a shared label
    # gets the same pair on both sides, so both of its indices contract.
    union = dict.fromkeys(a.labels + b.labels)
    if len(union) > MAX_EINSUM_WIRES:
        raise TooManyWiresError(
            f"a contraction over {len(union)} distinct wires exceeds the limit of "
            f"{MAX_EINSUM_WIRES}"
        )
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
