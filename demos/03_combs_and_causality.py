"""Circuit boards with open slots, and what causality forbids.

A board that uses an unknown gate several times is an operator on
alternating input/output wires, positive and constrained so that each
output can only depend on earlier inputs.  The verifier checks those
telescoping constraints level by level; a wiring that sends information
backwards fails loudly.
"""

import numpy as np

from qcombs import (
    CombStructure,
    LabeledOperator,
    ProbabilisticComb,
    Wire,
    link_product,
    max_entangled,
    project_to_comb,
    random_comb,
    register_comb,
    verify_causality,
)

# Two teeth: wires 0,2 enter the board, wires 1,3 leave it.
structure = CombStructure.standard([2, 2, 2, 2])
print("teeth:", [(i.label, o.label) for i, o in structure.teeth])
print("required trace:", structure.trace_value)

comb = random_comb(structure, memory_dims=[3], seed=42)
print("\nrandom comb:", comb)
print(comb.verify())

# An identity board: whatever enters wire 0 leaves on wire 1, and the
# slot output (wire 2) is passed on to wire 3.
v1 = max_entangled((Wire("0", 2), Wire("1", 2)))
v2 = max_entangled((Wire("2", 2), Wire("3", 2)))
ok = v1.outer().tensor(v2.outer())
print("\npass-through board verifies:", verify_causality(ok, structure).passed)

# Swap the second pair so wire 3 feeds wire 0: the "board" would have to
# know its first output before receiving its last input.
w1 = max_entangled((Wire("1", 2), Wire("2", 2)))
w2 = max_entangled((Wire("3", 2), Wire("0", 2)))
bad = w1.outer().tensor(w2.outer()).permuted(("0", "1", "2", "3"))
report = verify_causality(bad, structure)
print("\nbackwards wiring:")
print(report)

# Nearby matrices can be repaired: alternating projections return a
# causal board near the perturbed one (not in general the nearest).
noisy = comb.op + LabeledOperator(comb.op.wires, 0.01 * np.eye(16))
fixed = project_to_comb(noisy, structure)
print("\nrepaired perturbed comb verifies:", fixed.verify().passed)

# A probabilistic board is a family of positive branches summing to a
# deterministic comb; an outcome register turns it into one deterministic
# board from which every branch can be read back.
weights = [0.5, 0.3, 0.2]
prob = ProbabilisticComb(
    [(f"k{i}", comb.op * w) for i, w in enumerate(weights)], structure
)
reg = register_comb(prob)
print("\nwith outcome register:", reg, "verifies:", reg.verify().passed)

last_out = reg.structure.teeth[-1][1]
# The register view: the same matrix, its last wire read as the branch
# output "o" (dim 2) followed by the register "r" (dim 3).
split = LabeledOperator(reg.op.wires[:-1] + (Wire("o", 2), Wire("r", 3)), reg.op.matrix)
for i, oid in enumerate(prob.outcome_ids):
    proj = np.zeros((3, 3))
    proj[i, i] = 1.0
    picked = link_product(split, LabeledOperator((Wire("r", 3),), proj))
    branch = prob.branch(oid)
    gap = (picked - LabeledOperator(branch.wires[:-1] + (Wire("o", 2),), branch.matrix)).norm()
    print(f"branch {oid} recovered, gap {gap:.2e}")
