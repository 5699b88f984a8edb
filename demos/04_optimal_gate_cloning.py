"""Optimal cloning of an unknown gate.

Given one call to an unknown qubit unitary U, what board best emits two
parallel copies of U?  The figure of merit averages the fidelity with
U (x) U over all gates, which collapses to a fixed operator; maximizing
it over causal boards is a semidefinite program the bundled splitting
solver handles directly, with a dual certificate bounding how far from
optimal the answer can be.
"""

import os
import tempfile

import numpy as np

from qcombs import (
    OperatorFile,
    SdpProblem,
    cloning_objective,
    dual_bound,
    estimation_reference,
    solve,
)

po = cloning_objective(N=1, M=2, d=2)
print("objective lives on", po.omega.labels, "with teeth", po.structure.n_teeth)

problem = SdpProblem(po, po.structure, tol_gap=1e-7)
sol = solve(problem)
print(sol)

closed_form = (2 + np.sqrt(3)) / 8
print(f"\noptimal fidelity   {sol.value:.10f}")
print(f"closed form        {closed_form:.10f}")
print(f"difference         {sol.value - closed_form:.2e}")
print(f"feasibility        {sol.feas_residual:.2e}")
print(f"certified bound    {dual_bound(problem, sol):.10f}")

# Strategies without coherent access to the gate top out lower: measuring
# the gate and preparing copies of the estimate scores only 5/16.
print(f"estimate-and-prepare ceiling {estimation_reference(1, 2, 2):.6f}")

# The optimizer's board can be saved, shipped, and re-verified elsewhere.
f = OperatorFile.from_operator(
    sol.R_star.op, {"task": "clone", "value": sol.value}
)
with tempfile.TemporaryDirectory() as tmp:
    path = f.save(os.path.join(tmp, "cloning_board.json"))
    back = OperatorFile.load(path).to_operator()
    print("\nsaved to", path.name, "| reload gap:", (back - sol.R_star.op).norm())
