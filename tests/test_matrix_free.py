"""Matrix-free paths of the inverse module against the materialized ones.

Null projections ``P v = v - R (A v)`` applied as vector chains are
checked against the composed projector, the (K+G) right inverse applied
by forward substitution against the composed inverse and the Neumann
sweeps it replaces, the projectors that identity checks compose on
demand against the formulas the bundles used to compose and cache,
``compose`` with a truncation level against the truncated
full product, ``dense_residual``, which compares the two
``materialize`` families block by block, against the ``D x D`` dense
difference, and ``kernel_residual``, which compares canonical kernels,
against ``dense_residual``.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freefock import (
    apply_operator,
    build_index_space,
    build_oscillator_model,
    compose,
    identity_operator,
    linear_operator,
    right_inverse_K,
    right_inverse_K_plus_G,
    right_inverse_N0,
    right_inverse_Nq,
    source_operator,
    to_dense_matrix,
)
from freefock.cuntz import Monomial, OperatorExpr, kernel_residual, level_offsets, materialize
from freefock.errors import BudgetExceeded
from freefock.fock import FockVector
from freefock.inverse import apply_right_inverse_K_plus_G, dense_residual, left_inverse_G, truncate_operator
from freefock.model import KernelSet
from helpers import build_toy_model, random_operator

BUNDLES = ("N0", "Nq", "K+G")


def make_bundle(name, A, n_base, L, seed):
    """A toy model's bundle; only the (K+G) inverse is composed to level L."""
    q = 0.3 if name == "Nq" else 0.0
    space, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, q=q, seed=seed)
    if name == "N0":
        return kern, right_inverse_N0(kern)
    if name == "Nq":
        return kern, right_inverse_Nq(kern)
    if name == "K":
        return kern, right_inverse_K(kern)
    if name == "G":
        return kern, left_inverse_G(kern)
    return kern, right_inverse_K_plus_G(kern, L)


def null_projector(b, L):
    """``I - R A`` composed to level L, as the identity checks compose it."""
    return identity_operator(b.operator.space) - compose(b.inverse, b.operator, L=L)


def random_vector(space, L, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return FockVector(space, tuple(rng.standard_normal((space.d,) * n) for n in range(L + 1)))


def same_terms(a, b):
    """Bit equality of two normalized expressions, summand by summand."""
    return len(a.terms) == len(b.terms) and all(
        (s.n_create, s.n_annihilate) == (t.n_create, t.n_annihilate)
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
    chain = FockVector(v.space, tuple(bundle.apply_null_projector(v.levels)))
    dense = apply_operator(null_projector(bundle, L), v)
    for n in range(L + 1):
        # P v = v - R A v can cancel to zero (d = 1 at level 3), leaving
        # rounding of the size of v's level
        scale = max(float(np.abs(dense.levels[n]).max()), float(np.abs(v.levels[n]).max()))
        assert float(np.abs(chain.levels[n] - dense.levels[n]).max()) <= 1e-12 * scale, n


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(("K",) + BUNDLES),
    A=st.integers(1, 2),
    n_base=st.integers(1, 2),
    L=st.integers(1, 4),
    batch=st.integers(1, 3),
    present=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_null_projection_of_batched_level_lists(name, A, n_base, L, batch, present, seed):
    kern, bundle = make_bundle(name, A, n_base, L, seed)
    # a list with no level at all carries no batch shape
    assume(any(present[: L + 1]))
    d = kern.space.d
    rng = np.random.Generator(np.random.Philox(key=seed))
    levels = [rng.standard_normal((d,) * n + (batch,)) if present[n] else None for n in range(L + 1)]
    got = bundle.apply_null_projector(levels)
    assert len(got) == L + 1
    for n, t in enumerate(got):
        assert t is None or t.shape == (d,) * n + (batch,), n
    for b in range(batch):
        def col(t, n):
            return np.zeros((d,) * n) if t is None else t[..., b]

        column = FockVector(kern.space, tuple(col(t, n) for n, t in enumerate(levels)))
        want = apply_operator(null_projector(bundle, L), column)
        for n in range(L + 1):
            g = col(got[n], n)
            # P never lowers a level, so level n reads levels <= n; an exact
            # cancellation (d = 1) leaves rounding of their size
            scale = max(float(np.abs(t).max()) for t in (want.levels[n],) + column.levels[: n + 1])
            assert float(np.abs(g - want.levels[n]).max()) <= 1e-12 * scale, (b, n)


# --- the (K+G) right inverse by forward substitution ---------------------------

def neumann_sweeps(kernels, v):
    """Reference: ``sum_j (-X)^j Kinv v`` summed sweep by sweep on whole vectors."""
    space = kernels.space
    Kinv = OperatorExpr(space, (Monomial(1, 1, kernels.green),))
    X = OperatorExpr(space, (Monomial(1, 0, kernels.green @ kernels.G),))
    cur = apply_operator(Kinv, v)
    acc = cur
    for _ in range(v.L):
        cur = apply_operator(X, cur) * -1.0
        if cur.max_abs() == 0.0:
            break
        acc = acc + cur
    return acc


def random_linear_kernels(d, seed, zero_mask):
    """Diagonally dominant K with its exact inverse as Green's function; G zero where masked."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    K = np.diag(2.0 + rng.random(d)) + 0.3 * rng.standard_normal((d, d)) / d
    G = np.where(zero_mask, 0.0, rng.uniform(-1.0, 1.0, d))
    space = build_index_space(1, tuple(range(d)))
    return KernelSet(space=space, K=K, G=G, M=np.eye(d), green=np.linalg.inv(K))


def right_inverse_levels(kernels, v):
    """The forward substitution applied to v's levels, as a vector.

    Level 0 of ``W v`` is zero and left unwritten (None); v's levels are
    all written, so every level above it is written.
    """
    w = apply_right_inverse_K_plus_G(kernels, v.levels)
    assert w[0] is None and all(t is not None for t in w[1:])
    return FockVector(v.space, (np.zeros(()),) + tuple(w[1:]))


def zero_filled(levels, d):
    return [np.zeros((d,) * n) if t is None else t for n, t in enumerate(levels)]


def assert_levels_close(got, want, rel=1e-12):
    for n, (a, b) in enumerate(zip(got.levels, want.levels)):
        assert float(np.abs(a - b).max()) <= rel * float(np.abs(b).max()), n


def assert_right_inverse(kernels, w, v, rel=1e-12):
    """(K + G) W = I - P0: ``(K + G) w`` gives v back on levels 1..L."""
    image = apply_operator(linear_operator(kernels) + source_operator(kernels), w)
    for n in range(1, v.L + 1):
        assert float(np.abs(image.levels[n] - v.levels[n]).max()) <= rel * float(np.abs(v.levels[n]).max()), n


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 5),
    L=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_forward_substitution_matches_composed_inverse_and_neumann_sweeps(d, L, seed, data):
    zero_mask = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    kern = random_linear_kernels(d, seed, zero_mask)
    v = random_vector(kern.space, L, seed)
    w = right_inverse_levels(kern, v)
    assert_levels_close(w, apply_operator(right_inverse_K_plus_G(kern, L).inverse, v))
    assert_levels_close(w, neumann_sweeps(kern, v))
    assert_right_inverse(kern, w, v)


def test_forward_substitution_is_a_right_inverse_on_the_oscillator():
    kern = build_oscillator_model(
        omega=1.0, dt=0.15, T=5, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
    ).kernels
    v = random_vector(kern.space, 5, 21)
    w = right_inverse_levels(kern, v)
    assert_right_inverse(kern, w, v)
    assert_levels_close(w, neumann_sweeps(kern, v))


@pytest.mark.parametrize("name", ("K", "G") + BUNDLES)
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5])
def test_lazy_projectors_equal_the_eager_formulas(name, L):
    # identity checks compose a bundle's projectors on demand, to their own
    # level; that equals the formulas the bundles once composed and cached:
    # K and the source untruncated, K + G and the interaction truncated at L
    kern, b = make_bundle(name, 2, 2, L, 11)
    at = None if name in ("K", "G") else L
    A, R = b.operator, b.inverse
    assert same_terms(compose(A, R, L=L), truncate_operator(compose(A, R, L=at), L))
    if name == "G":
        return
    P = null_projector(b, L)
    assert same_terms(P, truncate_operator(identity_operator(kern.space) - compose(R, A, L=at), L))
    # A P composed as A - (A R) A, as the closed solve composes its
    # branching term, equals the product with the composed projector
    AP = A - compose(compose(A, R), A, L=L)
    scale = max(float(np.abs(t.kernel).max()) for t in A.terms)
    assert kernel_residual(AP, compose(A, P, L=L), L) <= 1e-12 * scale


@pytest.mark.parametrize("name", ("N0", "Nq"))
def test_interaction_range_projector_fixes_the_range_of_N(name):
    L = 5
    kern, b = make_bundle(name, 2, 2, L, 13)
    v = random_vector(kern.space, L, 13)
    Q = compose(b.operator, b.inverse, L=L)
    Nv = apply_operator(b.operator, v)
    QNv = apply_operator(Q, Nv)
    # levels 0..L-2: N lowers by 2, so the image above L-2 reads truncated levels
    for n in range(L - 1):
        assert float(np.abs(QNv.levels[n] - Nv.levels[n]).max()) <= 1e-12 * float(np.abs(Nv.levels[n]).max()), n
    # a 2-slot kernel, not the 6-slot R N
    assert [(t.n_create, t.n_annihilate) for t in Q.terms] == [(1, 1)]


def test_lazy_projectors_of_K_and_the_left_source_inverse():
    # K's projectors hold 2-slot kernels, so a check's truncation level drops
    # nothing; the left inverse of the source defines no null projector
    space, kern = build_toy_model(A=2, n_base=2, lam=0.4, seed=2)
    kb = right_inverse_K(kern)
    for L in (1, 3):
        assert same_terms(null_projector(kb, L), identity_operator(space) - compose(kb.inverse, kb.operator))
        assert same_terms(compose(kb.operator, kb.inverse, L=L), compose(kb.operator, kb.inverse))
    lb = left_inverse_G(kern)
    assert lb.side == "left"
    with pytest.raises(ValueError):
        lb.apply_null_projector(random_vector(space, 3, 0).levels)


def test_interaction_inverse_at_T16_builds_no_projector():
    kern = build_oscillator_model(
        omega=1.0, dt=0.15, T=16, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
        interaction_rows="all",
    ).kernels
    # a bundle is the pair (A, R) and nothing else
    bundle = right_inverse_N0(kern)
    assert [f.name for f in dataclasses.fields(bundle)] == ["operator", "inverse", "side", "neumann"]
    # the composed projector is a 6-slot kernel, 16^6 > 1e7 entries, so only
    # a check that asks for it pays for it
    with pytest.raises(BudgetExceeded):
        null_projector(bundle, 4)
    v = random_vector(kern.space, 4, 3)
    assert len(bundle.apply_null_projector(v.levels)) == 5


def test_K_plus_G_inverse_is_composed_within_the_callers_budget():
    kern = build_oscillator_model(
        omega=1.0, dt=0.15, T=12, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
    ).kernels
    # the composed inverse holds a 7-slot kernel at L = 6, 12^7 > 1e7 entries
    with pytest.raises(BudgetExceeded, match="7 slots"):
        right_inverse_K_plus_G(kern, 6)
    # at L = 2 it holds a 3-slot kernel, 12^3 entries: the caller's budget binds
    with pytest.raises(BudgetExceeded, match="3 slots"):
        right_inverse_K_plus_G(kern, 2, budget=1000)
    # under the default budget it fits, and the chain agrees with the projector
    v = random_vector(kern.space, 2, 5)
    small = right_inverse_K_plus_G(kern, 2)
    chain = FockVector(v.space, tuple(small.apply_null_projector(v.levels)))
    assert_levels_close(chain, apply_operator(null_projector(small, 2), v), rel=1e-11)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    L=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_forward_substitution_reads_none_as_a_zero_level_bit_for_bit(d, L, seed, data):
    # a level given as None skips its GEMM; on every level W writes, the
    # result must equal the GEMM of a zero level, signed zeros included,
    # also where the level below is zero as well (then w_n = 0 - g (x) 0 is
    # +0.0, not -0.0).  Below the lowest written input level W writes
    # nothing, where the zero-filled input gives zeros.
    kind = data.draw(st.lists(st.sampled_from(["random", "zero", "none"]), min_size=L + 1, max_size=L + 1))
    kern = random_linear_kernels(d, seed, np.zeros(d, dtype=bool))
    v = random_vector(kern.space, L, seed)
    with_none = [None if k == "none" else np.zeros_like(t) if k == "zero" else t for k, t in zip(kind, v.levels)]
    with_zeros = [np.zeros_like(t) if k != "random" else t for k, t in zip(kind, v.levels)]
    got = apply_right_inverse_K_plus_G(kern, with_none)
    want = apply_right_inverse_K_plus_G(kern, with_zeros)
    for n, (a, b) in enumerate(zip(got, want)):
        if a is None:
            assert b is None or not np.any(b), n
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), n


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 5),
    L=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_forward_substitution_leaves_the_levels_below_its_input_unwritten(d, L, seed, data):
    # a None prefix of the input stays None in W v, at level 0 always (Kinv
    # annihilates the vacuum); interior None levels above a written one are
    # written.  Written levels equal the zero-filled input's result, and
    # (K + G) W v = v on levels 1..L, to 1e-12 of the largest input entry
    # on levels 1..n (w_n carries w_{n-1}, so an empty level n of v is met
    # to the rounding of the levels below it).
    prefix = data.draw(st.integers(0, L + 1))
    interior = data.draw(st.lists(st.booleans(), min_size=L + 1, max_size=L + 1))
    zero_mask = np.array(data.draw(st.lists(st.booleans(), min_size=d, max_size=d)))
    kern = random_linear_kernels(d, seed, zero_mask)
    v = random_vector(kern.space, L, seed)
    levels = [None if n < prefix or interior[n] else t for n, t in enumerate(v.levels)]
    got = apply_right_inverse_K_plus_G(kern, levels)
    want = apply_right_inverse_K_plus_G(kern, zero_filled(levels, d))
    assert len(got) == L + 1
    for n, t in enumerate(got):
        assert (t is None) == (n == 0 or all(x is None for x in levels[1:n + 1])), n
        if t is None:
            assert want[n] is None or not np.any(want[n]), n
        else:
            assert np.array_equal(t, want[n]), n
    filled = FockVector(kern.space, tuple(zero_filled(levels, d)))
    image = apply_operator(linear_operator(kern) + source_operator(kern), FockVector(kern.space, tuple(zero_filled(got, d))))
    for n in range(1, L + 1):
        scale = max(float(np.abs(t).max()) for t in filled.levels[1 : n + 1])
        assert float(np.abs(image.levels[n] - filled.levels[n]).max()) <= 1e-12 * scale, n


# --- dense_residual block by block --------------------------------------------

def vacuum_sandwich(space, kernel, p, s):
    """``sum k[x, y] eta*(x_1..x_p) |0><0| eta(y_1..y_s)`` with ``|0><0| = I - N``.

    That is the (p, s) monomial with ``kernel`` minus the (p+1, s+1)
    monomial whose inner slot pair carries ``delta(z, z')``.
    """
    inner = np.moveaxis(np.multiply.outer(kernel, np.eye(space.d)), [p + s, p + s + 1], [p, p + 1])
    return OperatorExpr(space, (Monomial(p, s, kernel), Monomial(p + 1, s + 1, -inner)))


def random_pair(d, seed):
    """Two random operators with up to 2 + 2 slots a summand; the first carries a vacuum sandwich."""
    space, _ = build_toy_model(A=1, n_base=d, seed=0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    p, s = (int(x) for x in rng.integers(0, 3, size=2))
    vac = vacuum_sandwich(space, rng.standard_normal((d,) * (p + s)), p, s)
    return random_operator(space, rng, n_terms=4) + vac, random_operator(space, rng, n_terms=4)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p,s", [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1)])
def test_vacuum_sandwich_materializes_to_one_block(d, p, s):
    # eta*(x) |0><0| eta(y) maps level s into level p and nothing else
    space = build_index_space(1, tuple(range(d)))
    k = np.random.Generator(np.random.Philox(key=d)).standard_normal((d,) * (p + s))
    blocks = materialize(vacuum_sandwich(space, k, p, s), 4)
    for (m, n), block in blocks.items():
        want = OperatorExpr(space, (Monomial(p, s, k),)).terms[0].matrix if (m, n) == (p, s) else 0.0
        assert np.array_equal(block, np.broadcast_to(want, block.shape)), (m, n)
    assert (p, s) in blocks


def dense_route(a, b, L):
    return float(np.abs(to_dense_matrix(a, L) - to_dense_matrix(b, L)).max())


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 4),
    L=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_dense_residual_bit_equal_to_dense_route(d, L, seed):
    a, b = random_pair(d, seed)
    assert dense_residual(a, b, L) == dense_route(a, b, L)


def test_dense_residual_budget_binds_on_D_squared():
    space, _ = build_toy_model(A=1, n_base=3, seed=0)
    a = identity_operator(space)
    L = 2
    D = level_offsets(3, L)[-1]
    assert dense_residual(a, a, L, budget=D * D) == 0.0
    with pytest.raises(BudgetExceeded) as info:
        dense_residual(a, a, L, budget=D * D - 1)
    assert "dense_residual" in str(info.value)


def test_dense_residual_reads_past_a_vacuum_term():
    # on grading 0 a vacuum sandwich cancels the monomial's (1, 1) kernel on
    # block (1, 1) only; blocks (n, n), n >= 2, are K (x) I and hold the residual
    space, _ = build_toy_model(A=1, n_base=3, seed=0)
    rng = np.random.Generator(np.random.Philox(key=4))
    K = rng.standard_normal((3, 3))
    a = OperatorExpr(space, (Monomial(1, 1, K), Monomial(1, 0, 1e-3 * K[0]))) + vacuum_sandwich(space, -K, 1, 1)
    assert [(t.n_create, t.n_annihilate) for t in a.terms] == [(1, 0), (2, 2)]
    zero = OperatorExpr(space, ())
    assert dense_residual(a, zero, 4) == float(np.abs(K).max())


# --- kernel_residual against the materialized reference ------------------------

@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 3),
    L=st.integers(0, 4),
    seed=st.integers(0, 2**16),
    shared=st.sampled_from(("none", "some", "all")),
)
def test_kernel_residual_bounds_dense_residual(d, L, seed, shared):
    # a block (n + g, n) sums kron(dK_s, I) over at most n + 1 keys of grading
    # g, and the lowest differing key is one block alone; peeling keys off by
    # increasing s at most doubles the bound each step
    a, b = random_pair(d, seed)
    if shared == "some":
        b = a + random_operator(a.space, np.random.Generator(np.random.Philox(key=seed + 1)), n_terms=1)
    elif shared == "all":
        b = OperatorExpr(a.space, a.terms[::-1])
    kernel, dense = kernel_residual(a, b, L), dense_residual(a, b, L)
    assert (kernel == 0.0) == (dense == 0.0)
    assert dense <= (L + 1) * kernel
    assert kernel <= 2**L * dense
    if shared == "all":
        assert kernel == 0.0


def test_kernel_residual_reads_only_keys_on_levels_up_to_L():
    space = build_index_space(1, (0, 1))
    a = OperatorExpr(space, (Monomial(0, 0, np.ones(())), Monomial(2, 1, np.full((2, 2, 2), 3.0))))
    b = OperatorExpr(space, (Monomial(0, 0, 1.5 * np.ones(())),))
    assert kernel_residual(a, b) == 3.0
    assert kernel_residual(a, b, L=2) == 3.0
    assert kernel_residual(a, b, L=1) == 0.5
    assert kernel_residual(a, b, L=1) == dense_residual(a, b, 1)


# --- truncation inside compose ------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(d=st.integers(1, 4), L=st.integers(0, 4), seed=st.integers(0, 2**16))
def test_compose_with_level_bit_equal_to_truncated_product(d, L, seed):
    a, b = random_pair(d, seed)
    kept = compose(a, b, L=L)
    assert same_terms(kept, truncate_operator(compose(a, b), L))
    # the budget binds on the kept products alone: a dropped product of any
    # size raises nothing, a kept one one entry over the budget raises.  Kept
    # products can cancel in the sum (a vacuum sandwich times a creator is 0),
    # so their sizes come from the slot counts: k = min(s_a, p_b) pairs contract
    slots = [(ta.n_create + tb.n_create - min(ta.n_annihilate, tb.n_create),
              ta.n_annihilate + tb.n_annihilate - min(ta.n_annihilate, tb.n_create))
             for ta in a.terms for tb in b.terms]
    need = max((d ** (p + s) for p, s in slots if p <= L and s <= L), default=0)
    assert same_terms(compose(a, b, budget=need, L=L), kept)
    if need:
        with pytest.raises(BudgetExceeded):
            compose(a, b, budget=need - 1, L=L)
    if any(d ** (p + s) > need for p, s in slots):
        with pytest.raises(BudgetExceeded):
            compose(a, b, budget=need)
