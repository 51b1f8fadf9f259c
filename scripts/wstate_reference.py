#!/usr/bin/env python3
"""Regenerate the archived W-state reference value with general-purpose SDP
solvers (requires cvxpy, which is not a package dependency).

The test suite pins tau(W) = 0.442809041; this script reproduces that number
independently of the package's own interior-point solver.
"""
import math
import sys

import numpy as np

try:
    import cvxpy as cp
except ImportError:
    sys.exit("cvxpy is not installed; the archived value stays as committed")


def basis_index(l1, l2, l3):
    return 4 * (l1 - 1) + 2 * (l2 - 1) + (l3 - 1)


def witness_optimum(rho):
    w_mat = cp.Variable((8, 8), hermitian=True)
    eye = np.eye(8)
    constraints = []
    for axis in range(3):
        p_mat = cp.Variable((8, 8), hermitian=True)
        q_mat = cp.Variable((8, 8), hermitian=True)
        constraints += [p_mat >> 0, eye - p_mat >> 0,
                        q_mat >> 0, eye - q_mat >> 0,
                        w_mat == p_mat + cp.partial_transpose(
                            q_mat, [2, 2, 2], axis)]
    problem = cp.Problem(
        cp.Minimize(cp.real(cp.trace(w_mat @ rho))), constraints)
    values = {}
    for solver in ("CLARABEL", "SCS"):
        if solver not in cp.installed_solvers():
            continue
        if solver == "SCS":
            problem.solve(solver=solver, eps=1e-10, max_iters=200000)
        else:
            problem.solve(solver=solver)
        values[solver] = -problem.value
    return values


def main():
    psi = np.zeros(8)
    for labels in ((1, 1, 2), (1, 2, 1), (2, 1, 1)):
        psi[basis_index(*labels)] = 1.0
    psi /= math.sqrt(3.0)
    rho = np.outer(psi, psi)
    for solver, tau in witness_optimum(rho).items():
        print(f"{solver}: tau(W) = {tau:.9f}")
    ghz = np.zeros(8)
    ghz[basis_index(1, 1, 1)] = ghz[basis_index(2, 2, 2)] = 1 / math.sqrt(2)
    for solver, tau in witness_optimum(np.outer(ghz, ghz)).items():
        print(f"{solver}: tau(GHZ) = {tau:.9f}")


if __name__ == "__main__":
    main()
