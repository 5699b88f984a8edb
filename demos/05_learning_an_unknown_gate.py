"""Storing an unknown gate now, replaying it later.

The board may call the unknown unitary N times, keep whatever quantum
memory it likes, and must later reproduce the gate's action on a fresh
input.  The average gate fidelity of the replay is again a linear
functional of the board, so the optimum is a semidefinite program.

Set QCOMBS_DEMO_QUTRIT=1 to also run the two-use qutrit problem (a
729-dimensional solve, around two minutes).
"""

import os

import numpy as np

from qcombs import SdpProblem, dual_bound, learning_objective, solve


def optimum(n_uses, d, **kw):
    po = learning_objective(n_uses, d)
    problem = SdpProblem(po, po.structure, **kw)
    sol = solve(problem)
    return sol, dual_bound(problem, sol)


# One use of a qubit gate: storing it in a maximally entangled state and
# teleporting the action back out achieves 1/2, and nothing beats that.
sol, bound = optimum(1, 2)
print(f"one use,  d=2: value {sol.value:.9f}  certified <= {bound:.9f}")

# Two uses: parallel storage with the right entangled probe does better.
sol, bound = optimum(2, 2)
ladder = np.cos(np.pi / 5) ** 2
print(f"two uses, d=2: value {sol.value:.9f}  certified <= {bound:.9f}")
print(f"               cos^2(pi/5) = (3 + sqrt(5))/8 = {ladder:.9f}")

# The pattern cos^2(pi / (N + 3)) is special to qubits.  For d >= 3 the
# two-use optimum is 3/d^2 instead; the qutrit solve below certifies it.
if os.environ.get("QCOMBS_DEMO_QUTRIT"):
    sol, bound = optimum(2, 3, tol_gap=1e-5)
    print(f"two uses, d=3: value {sol.value:.9f}  certified <= {bound:.9f}")
    print(f"               3/d^2 = {3 / 9:.9f}")
else:
    print("(set QCOMBS_DEMO_QUTRIT=1 for the two-use qutrit run)")
