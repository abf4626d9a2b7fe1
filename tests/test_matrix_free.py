"""Matrix-free paths of the inverse module against the materialized ones.

Null projections ``P v = v - R (A v)`` applied as vector chains are
checked against the composed projector, the lazily composed projectors
against the formulas they replace, and the block-by-block
``dense_residual`` against the ``D x D`` dense difference.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import (
    apply_operator,
    build_oscillator_model,
    build_toy_model,
    compose,
    identity_operator,
    right_inverse_K,
    right_inverse_K_plus_G,
    right_inverse_N0,
    right_inverse_Nq,
    to_dense_matrix,
)
from freefock.cuntz import level_offsets, random_operator
from freefock.errors import BudgetExceeded
from freefock.fock import FockVector
from freefock.inverse import dense_residual, left_inverse_G, truncate_operator

BUNDLES = ("N0", "N0-weighted", "Nq", "K+G")


def make_bundle(name, A, n_base, L, seed):
    q = 0.3 if name == "Nq" else 0.0
    space, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, q=q, seed=seed)
    if name == "N0":
        return kern, right_inverse_N0(kern, L)
    if name == "N0-weighted":
        return kern, right_inverse_N0(kern, L, variant="weighted")
    if name == "Nq":
        return kern, right_inverse_Nq(kern, L)
    return kern, right_inverse_K_plus_G(kern, L)


def random_vector(space, L, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return FockVector(space, tuple(rng.standard_normal((space.d,) * n) for n in range(L + 1)))


def same_terms(a, b):
    """Bit equality of two normalized expressions, summand by summand."""
    return len(a.terms) == len(b.terms) and all(
        type(s) is type(t)
        and (s.n_create, s.n_annihilate) == (t.n_create, t.n_annihilate)
        and np.array_equal(s.kernel, t.kernel)
        for s, t in zip(a.terms, b.terms)
    )


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(BUNDLES),
    A=st.integers(1, 2),
    n_base=st.integers(1, 2),
    L=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_null_projection_chain_matches_composed_projector(name, A, n_base, L, seed):
    kern, bundle = make_bundle(name, A, n_base, L, seed)
    v = random_vector(kern.space, L, seed)
    chain = bundle.apply_null_projector(v)
    dense = apply_operator(bundle.null_projector, v)
    for n in range(L + 1):
        # P v = v - R A v can cancel to zero (d = 1 at level 3), leaving
        # rounding of the size of v's level
        scale = max(float(np.abs(dense.levels[n]).max()), float(np.abs(v.levels[n]).max()))
        assert float(np.abs(chain.levels[n] - dense.levels[n]).max()) <= 1e-12 * scale, n


def test_default_K_plus_G_chain_iterates_the_neumann_sum():
    kern, bundle = make_bundle("K+G", 2, 2, 3, 5)
    assert bundle.apply_inverse is not None
    # an arbitrary part changes the inverse, so the bundle applies its kernel
    arb = right_inverse_K_plus_G(kern, 3, arbitrary=identity_operator(kern.space))
    assert arb.apply_inverse is None


@pytest.mark.parametrize("name", BUNDLES)
@pytest.mark.parametrize("L", [2, 3, 4])
def test_lazy_projectors_equal_the_eager_formulas(name, L):
    kern, b = make_bundle(name, 2, 2, L, 11)
    space = kern.space
    P = truncate_operator(identity_operator(space) - compose(b.inverse, b.operator), L)
    # the interaction bundles' range projector is R N, the (K+G) bundle's (K+G) W
    if name == "K+G":
        Q = truncate_operator(compose(b.operator, b.inverse), L)
    else:
        Q = truncate_operator(compose(b.inverse, b.operator), L)
    assert same_terms(b.null_projector, P)
    assert same_terms(b.range_projector, Q)
    # built once, then cached
    assert b.null_projector is b.null_projector


def test_lazy_projectors_of_K_and_the_left_source_inverse():
    space, kern = build_toy_model(A=2, n_base=2, lam=0.4, seed=2)
    kb = right_inverse_K(kern, 3)
    assert same_terms(kb.null_projector, identity_operator(space) - compose(kb.inverse, kb.operator))
    assert same_terms(kb.range_projector, compose(kb.operator, kb.inverse))
    lb = left_inverse_G(kern, 3)
    assert lb.null_projector is None
    assert same_terms(lb.range_projector, compose(lb.operator, lb.inverse))
    with pytest.raises(ValueError):
        lb.apply_null_projector(random_vector(space, 3, 0))


def test_interaction_inverse_at_T16_builds_no_projector():
    kern = build_oscillator_model(
        omega=1.0, dt=0.15, T=16, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
        interaction_rows="all",
    ).kernels
    bundle = right_inverse_N0(kern, 4)
    # the composed projector is a 6-slot kernel, 16^6 > 1e7 entries
    with pytest.raises(BudgetExceeded):
        bundle.null_projector


# --- dense_residual block by block --------------------------------------------

def dense_route(a, b, L, rows, cols):
    offs = level_offsets(a.space.d, L)
    ridx = np.concatenate([np.arange(offs[n], offs[n + 1]) for n in sorted(rows)])
    cidx = np.concatenate([np.arange(offs[n], offs[n + 1]) for n in sorted(cols)])
    diff = np.abs(to_dense_matrix(a, L) - to_dense_matrix(b, L))
    return float(diff[np.ix_(ridx, cidx)].max())


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    L=st.integers(0, 3),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_dense_residual_bit_equal_to_dense_route(d, L, seed, data):
    space, _ = build_toy_model(A=1, n_base=d, seed=0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = random_operator(space, rng, n_terms=4)
    b = random_operator(space, rng, n_terms=4)
    levels = st.sets(st.integers(0, L), min_size=1)
    rows, cols = data.draw(levels), data.draw(levels)
    got = dense_residual(a, b, L, row_levels=sorted(rows), col_levels=sorted(cols))
    assert got == dense_route(a, b, L, rows, cols)
    assert dense_residual(a, b, L) == dense_route(a, b, L, range(L + 1), range(L + 1))


def test_dense_residual_covers_vacuum_terms_and_partial_levels():
    # the sandwich entry compares away from the vacuum; vacuum terms only
    # touch the blocks their slot counts name
    space, _ = build_toy_model(A=1, n_base=3, seed=0)
    rng = np.random.Generator(np.random.Philox(key=3))
    a = random_operator(space, rng, n_terms=6)
    b = random_operator(space, rng, n_terms=6)
    assert any(type(t).__name__ == "VacuumTerm" for t in a.terms + b.terms)
    L = 3
    lv = range(1, L + 1)
    assert dense_residual(a, b, L, row_levels=lv, col_levels=lv) == dense_route(a, b, L, lv, lv)


def test_dense_residual_budget_binds_on_D_squared():
    space, _ = build_toy_model(A=1, n_base=3, seed=0)
    a = identity_operator(space)
    L = 2
    D = level_offsets(3, L)[-1]
    assert dense_residual(a, a, L, budget=D * D) == 0.0
    with pytest.raises(BudgetExceeded) as info:
        dense_residual(a, a, L, budget=D * D - 1)
    assert "dense_residual" in str(info.value)
