"""The truth gate: each solver against the trajectory it should reproduce.

At sharp initial data the ensemble is one trajectory x, whose correlation
functions are its tensor powers ``x^{(x)n}``.  On the benchmark's closure
model (the interaction on every row, lambda = 0.02, T=6, L=4) each
solver's levels 1-2 must meet them to 1e-3 of their largest entry.  The
order-4 series does, by at most 9.2e-5 on these variants.  The closed and
triangular solves miss by 2.9e-3 to 1.3e-2, so each fails here by design;
their strict xfails report a solver that starts to pass.

On this model M is the identity, so the q-deformed interaction is the
plain cubic with coupling lambda (1 - q)^2, and the series must meet the
trajectory at q = +-0.3 as well.
"""

import numpy as np
import pytest

from freefock import pinned_ensemble, simulate, solver
from helpers import load_perfbench

VARIANTS = (0, 7, 21, 63)
MISSES_THE_TRAJECTORY = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="misses the trajectory on levels 1-2 by 2.9e-3 to 1.3e-2"
)


def series(kernels):
    return solver.perturbation_series(kernels, 4, order=4)


SOLVERS = [
    pytest.param(series, id="series-order-4"),
    pytest.param(lambda kernels: solver.closed_equation_solve(kernels, 4), id="closed",
                 marks=MISSES_THE_TRAJECTORY),
    pytest.param(lambda kernels: solver.lower_triangular_expansion(kernels, 4), id="triangular",
                 marks=MISSES_THE_TRAJECTORY),
]


def assert_levels_one_and_two_match_the_pinned_trajectory(solve, variant, q=0.0):
    workloads = load_perfbench("workloads")
    inp = workloads.make_inputs(variant)
    model = workloads.closure_model(inp, 6, q=q)
    x = simulate(model, pinned_ensemble([inp.x0_mean, inp.v0_mean])).positions[0]
    V = solve(model.kernels).V
    for n, exact in ((1, x), (2, np.multiply.outer(x, x))):
        assert np.abs(V.levels[n] - exact).max() <= 1e-3 * np.abs(exact).max(), n


@pytest.mark.parametrize("solve", SOLVERS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_levels_one_and_two_match_the_pinned_trajectory(solve, variant):
    assert_levels_one_and_two_match_the_pinned_trajectory(solve, variant)


@pytest.mark.parametrize("q", [0.3, -0.3])
@pytest.mark.parametrize("variant", VARIANTS)
def test_deformed_series_matches_the_pinned_trajectory(variant, q):
    assert_levels_one_and_two_match_the_pinned_trajectory(series, variant, q)
