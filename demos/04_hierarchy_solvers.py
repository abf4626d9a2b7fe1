#!/usr/bin/env python3
# Solving the correlation hierarchy (K + N + G)|V> = 0 four ways.
#
# The hierarchy couples each correlation order to the next two; the
# truncated solvers pin the leftover freedom to the free solution by
# default. This script runs the canonical perturbation series, the
# terminating expansion, the closed equation and the rational form on a
# scalar toy model where everything can be read off by eye.

import numpy as np

from freefock import (
    build_index_space, closed_equation_solve, free_solution, lambda_degree_check,
    lower_triangular_expansion, perturbation_series, rational_solve, residual_by_level,
)
from freefock.model import KernelSet

space = build_index_space(1, (0,))
kern = KernelSet(space=space, K=np.array([[2.0]]), G=np.array([1.0]),
                 M=np.array([[1.0]]), lam=0.05, green=np.array([[0.5]]))
L = 4

# --- the free solution: a geometric sequence ------------------------------------

V0 = free_solution(kern, L)
print("free solution levels (k=2, g=1):",
      [float(np.ravel(t)[0]) for t in V0.levels], " = (-1/2)^n")

# --- canonical perturbation series ------------------------------------------------

print("\nperturbation series: trusted residual per order")
for order in range(4):
    rep = perturbation_series(kern, L, order=order)
    print(f"  order {order}: {rep.residual.trusted_max():.3e}")

# --- terminating expansion ---------------------------------------------------------

rep_t = lower_triangular_expansion(kern, L)
print("\nterminating expansion: per-level admissible term counts",
      rep_t.series_terms_used)
print("residual on trusted levels:",
      {n: f"{v:.1e}" for n, v in rep_t.residual.per_level.items()})

# --- closed equation ----------------------------------------------------------------

rep_c = closed_equation_solve(kern, L)
print("\nclosed equation: branching-term norm",
      f"{rep_c.extras['branching_residual']:.2e},",
      "undetermined directions pinned per level:", rep_c.extras["null_dimensions"])
rep_seeded = lower_triangular_expansion(kern, L, seed=rep_c.extras["projection"])
print("closed solution equals the expansion seeded with its projection:",
      rep_c.V.allclose(rep_seeded.V, atol=1e-12))

# --- rational interaction ------------------------------------------------------------

# (K + G + lam (I - N)^{-1})|V> = 0 transforms to a polynomial equation
# whose solutions are exact polynomials in lam, level by level.
rep_r = rational_solve(kern, L, lam=0.04)
print("\nrational solve: residual of the transformed equation on trusted levels:",
      {n: f"{v:.1e}" for n, v in rep_r.residual.per_level.items()})

grid = np.linspace(0.0, 0.07, 8)
fits = lambda_degree_check(lambda lam: rational_solve(kern, L, lam=lam).V, grid, L)
print("fitted polynomial degree per level:", {m: d for m, (d, _) in fits.items()})
