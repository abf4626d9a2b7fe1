"""The entry budget has one guard, ``fock.check_budget``.

Every size the library refuses is refused there: each call site passes
its stage, the dense entries it needs by its own documented formula and
the budget it was given, and the error keeps all three.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from freefock import build_oscillator_model, pinned_ensemble, simulate
from freefock.cuntz import Monomial, OperatorExpr, compose, identity_operator, materialize, to_dense_matrix
from freefock.errors import BudgetExceeded
from freefock.fock import storage_size, vacuum
from freefock.inverse import dense_residual
from freefock.oracle import CorrelationTable, estimate_mtcf, gaussian_moment_tensors
from freefock.solver import closed_equation_solve, free_solution
from helpers import build_toy_model

SRC = Path(__file__).resolve().parents[1] / "src" / "freefock"


def _space_kernels():
    return build_toy_model(A=1, n_base=3, seed=0)


def _vacuum():
    space, _ = _space_kernels()
    return storage_size(3, 3), lambda b: vacuum(space, 3, budget=b)


def _to_vector():
    space, _ = _space_kernels()
    table = CorrelationTable(values={}, stderr={}, samples=1, max_order=0)
    return storage_size(3, 3), lambda b: table.to_vector(space, 3, budget=b)


def _free_solution():
    _, kern = _space_kernels()
    return storage_size(3, 3), lambda b: free_solution(kern, 3, budget=b)


def _compose():
    # (2 creators, 1 annihilator) times itself contracts one pair: 3 + 1 slots
    space, _ = _space_kernels()
    rng = np.random.Generator(np.random.Philox(key=1))
    a = OperatorExpr(space, (Monomial(2, 1, rng.standard_normal((3, 3, 3))),))
    return 3**4, lambda b: compose(a, a, budget=b)


def _materialize():
    space, _ = _space_kernels()
    return sum(3 ** (2 * n) for n in range(3)), lambda b: materialize(identity_operator(space), 2, budget=b)


def _to_dense_matrix():
    space, _ = _space_kernels()
    return storage_size(3, 2) ** 2, lambda b: to_dense_matrix(identity_operator(space), 2, budget=b)


def _dense_residual():
    space, _ = _space_kernels()
    one = identity_operator(space)
    return storage_size(3, 2) ** 2, lambda b: dense_residual(one, one, 2, budget=b)


def _closed_equation_solve():
    # d = 2, L = 6: the dense level-4 diagonal block, 2^8 entries, is the
    # largest size the solve allocates (the vectors hold 127 entries)
    _, kern = build_toy_model(A=1, n_base=2, lam=0.2, seed=6)
    return 2**8, lambda b: closed_equation_solve(kern, 6, budget=b)


def _estimate_mtcf():
    m = build_oscillator_model(omega=1.0, dt=0.1, T=5, lam=0.0)
    traj = simulate(m, pinned_ensemble([0.4, 0.1], samples=20, seed=0))
    return 5**3, lambda b: estimate_mtcf(traj, 3, budget=b)


def _gaussian_moment_tensors():
    mean, cov = np.array([0.3, -0.2, 0.1]), 0.1 * np.eye(3)
    return 3**4, lambda b: gaussian_moment_tensors(mean, cov, 4, budget=b)


SITES = {
    "vacuum": _vacuum,
    "CorrelationTable.to_vector": _to_vector,
    "free_solution": _free_solution,
    "compose": _compose,
    "materialize": _materialize,
    "to_dense_matrix": _to_dense_matrix,
    "dense_residual": _dense_residual,
    "closed_equation_solve": _closed_equation_solve,
    "estimate_mtcf": _estimate_mtcf,
    "gaussian_moment_tensors": _gaussian_moment_tensors,
}


@pytest.mark.parametrize("name", sorted(SITES))
def test_each_site_refuses_through_the_guard_with_its_stage_entries_and_budget(name):
    entries, call = SITES[name]()
    call(entries)  # a stage that needs exactly the budget runs
    with pytest.raises(BudgetExceeded) as info:
        call(entries - 1)
    err = info.value
    assert err.stage.startswith(name)
    assert (err.entries, err.budget) == (entries, entries - 1)
    assert str(err) == f"{err.stage} needs {entries} entries, budget is {entries - 1}"


def test_only_check_budget_raises_budget_exceeded():
    raisers, mentions = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        if "CombinatorialBudget" in source:
            mentions.append(path.name)
        tree = ast.parse(source)
        owner = {}  # node -> innermost enclosing function (ast.walk visits outer ones first)
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "BudgetExceeded":
                    raisers.append((path.name, owner.get(node)))
    assert raisers == [("fock.py", "check_budget")]
    assert mentions == []
