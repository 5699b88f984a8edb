"""Labeled operators and the link product.

Operators carry named wires instead of positional tensor factors, so two
fragments of a circuit can be contracted by name: the link product traces
out exactly the wires they share (with the partial transpose that makes
the contraction match circuit composition) and keeps everything else.
"""

import numpy as np

from qcombs import LabeledOperator, Wire, link_product

rng = np.random.default_rng(7)


def rand_op(*wires):
    d = int(np.prod([w.dim for w in wires]))
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return LabeledOperator(wires, m)


a_wire, b_wire, c_wire, d_wire = (
    Wire("a", 2),
    Wire("b", 3),
    Wire("c", 2),
    Wire("d", 2),
)

# Two fragments sharing the wire "b".
left = rand_op(a_wire, b_wire)
right = rand_op(b_wire, c_wire)

joined = link_product(left, right)
print("left lives on ", left.labels)
print("right lives on", right.labels)
print("link lives on ", joined.labels, "->", joined.matrix.shape)

# The link product is commutative: contraction order never matters.
other = link_product(right, left).permuted(joined.labels)
print("commutation gap:", (joined - other).norm())

# Disjoint fragments just tensor together...
disjoint = link_product(rand_op(a_wire), rand_op(c_wire))
print("disjoint link ->", disjoint.labels)

# ...and a full overlap contracts to a scalar, Tr[A^T B].
x, y = rand_op(a_wire, b_wire), rand_op(a_wire, b_wire)
full = link_product(x, y)
print(
    "full contraction vs Tr[A^T B]:",
    complex(full.matrix.squeeze()),
    "vs",
    np.trace(x.matrix.T @ y.matrix),
)

# A chain of fragments joins by repeated link products.  Each label sits on
# at most two fragments, so the order of the products does not matter.
ab, bc, cd = rand_op(a_wire, b_wire), rand_op(b_wire, c_wire), rand_op(c_wire, d_wire)
forward = link_product(link_product(ab, bc), cd)
backward = link_product(cd, link_product(bc, ab))
print("chain lives on:", forward.labels)
print("order gap:", (forward - backward).norm())
