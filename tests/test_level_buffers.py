"""Level buffers the series recycles, against fresh arrays, bit for bit.

The perturbation series keeps two level lists: the running sum, which
starts as the free seed's own arrays, and the current term, whose arrays
the right inverse overwrites with the next term through ``out``.
``apply_to_levels`` assigns the first image of an output level and adds
later broadcast images in column blocks.  Each of these must give the
bits of the fresh-array route.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freefock import free_solution, perturbation_series
from freefock import cuntz
from freefock.cuntz import Monomial, OperatorExpr, add_levels, apply_to_levels, interaction_operator
from freefock.inverse import apply_right_inverse_K_plus_G
from freefock.solver import _free_levels
from helpers import build_toy_model, random_operator

BATCHES = ((), (2,), (3,), (2, 3))


def bits(t):
    return None if t is None else (t.shape, np.ascontiguousarray(t).tobytes())


def random_levels(d, L, batch, present, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    return [rng.standard_normal((d,) * n + batch) if present[n] else None for n in range(L + 1)]


@settings(max_examples=80, deadline=None)
@given(
    A=st.integers(1, 2),
    n_base=st.integers(1, 3),
    L=st.integers(1, 5),
    batch=st.sampled_from(BATCHES),
    present=st.lists(st.booleans(), min_size=6, max_size=6),
    buffered=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_right_inverse_into_nan_buffers_bit_equals_the_fresh_call(A, n_base, L, batch, present, buffered, seed):
    # None input levels above a written one read as zero; an unwritten
    # level replaces its buffer with None
    assume(any(present[: L + 1]))
    _, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, seed=seed)
    d = kern.space.d
    levels = random_levels(d, L, batch, present, seed)
    fresh = apply_right_inverse_K_plus_G(kern, levels)
    out = [np.full((d,) * n + batch, np.nan) if buffered[n] else None for n in range(L + 1)]
    buffers = list(out)
    got = apply_right_inverse_K_plus_G(kern, levels, out=out)
    assert got is out
    assert [bits(t) for t in got] == [bits(t) for t in fresh]
    for t, buf in zip(got, buffers):
        if t is not None and buf is not None:
            assert np.shares_memory(t, buf)


def term_order_sum(op, levels):
    """Each summand's whole GEMM image, added in term order: the bits apply_to_levels must give."""
    L, d = len(levels) - 1, op.space.d
    filled = [n for n, t in enumerate(levels) if t is not None]
    batch = np.shape(levels[filled[0]])[filled[0]:] if filled else ()
    out = [None] * (L + 1)
    for t in op.terms:
        p, s = t.n_create, t.n_annihilate
        for n in range(s, min(L, L + s - p) + 1):
            if levels[n] is not None:
                image = (t.matrix @ np.reshape(levels[n], (d**s, -1))).reshape((d,) * (n - s + p) + batch)
                out[n - s + p] = image if out[n - s + p] is None else out[n - s + p] + image
    return out


@settings(max_examples=80, deadline=None)
@given(
    d=st.integers(1, 4),
    L=st.integers(0, 4),
    batch=st.sampled_from(BATCHES),
    present=st.lists(st.booleans(), min_size=5, max_size=5),
    kind=st.sampled_from(("random", "hierarchy")),
    n_terms=st.integers(1, 5),
    block=st.integers(1, 7),
    seed=st.integers(0, 2**16),
)
def test_block_accumulation_bit_equals_the_term_order_sum(d, L, batch, present, kind, n_terms, block, seed):
    # at these sizes every image fits in one block of the default size; a
    # patched block of a few entries splits each broadcast image added
    # into a written level into several column blocks.  The hierarchy
    # operator's G (a broadcast) and K (a GEMM) write the same levels, so
    # its levels are assigned K's image first
    rng = np.random.Generator(np.random.Philox(key=seed))
    space, kern = build_toy_model(A=1, n_base=d, lam=0.3, seed=seed)
    op = cuntz.hierarchy_operator(kern) if kind == "hierarchy" else random_operator(space, rng, n_terms=n_terms)
    levels = random_levels(d, L, batch, present, seed)
    want = [bits(t) for t in term_order_sum(op, levels)]
    assert [bits(t) for t in apply_to_levels(op, levels)] == want
    with mock.patch.object(cuntz, "_ADD_BLOCK_ENTRIES", block):
        assert [bits(t) for t in apply_to_levels(op, levels)] == want


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 4),
    p=st.integers(0, 2),
    n=st.integers(0, 3),
    batch=st.sampled_from(BATCHES),
    seed=st.integers(0, 2**16),
)
def test_pure_creation_summand_has_the_bits_of_its_gemm(d, p, n, batch, seed):
    # the broadcast product plus 0.0 gives +0.0 where a product is -0.0,
    # as the GEMM with inner dimension one does; zeros in the kernel and
    # in the level make such products
    rng = np.random.Generator(np.random.Philox(key=seed))
    kernel = rng.standard_normal((d,) * p) * rng.integers(0, 2, (d,) * p)
    assume(np.any(kernel))  # an operator drops a zero summand
    level = rng.standard_normal((d,) * n + batch) * rng.integers(0, 2, (d,) * n + batch)
    space = build_toy_model(A=1, n_base=d)[0]
    t = Monomial(p, 0, kernel)
    levels = [None] * n + [level] + [None] * p
    got = apply_to_levels(OperatorExpr(space, (t,)), levels)[n + p]
    want = (t.matrix @ np.reshape(level, (1, -1))).reshape((d,) * (n + p) + batch)
    assert bits(got) == bits(want)


def fresh_series(kern, seed_levels, order):
    """The series summed with a new array for every term, as a reference."""
    minus_N = interaction_operator(kern) * -1.0
    sums, term = add_levels([None] * len(seed_levels), seed_levels), seed_levels
    for _ in range(order):
        term = apply_right_inverse_K_plus_G(kern, apply_to_levels(minus_N, term))
        if not any(t is not None and np.any(t) for t in term):
            break
        add_levels(sums, term)
    return sums


@settings(max_examples=40, deadline=None)
@given(
    A=st.integers(1, 2),
    n_base=st.integers(1, 3),
    L=st.integers(2, 5),
    order=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_series_with_recycled_terms_bit_equals_fresh_terms(A, n_base, L, order, seed):
    _, kern = build_toy_model(A=A, n_base=n_base, lam=0.05, seed=seed)
    report = perturbation_series(kern, L, order=order)
    want = fresh_series(kern, free_solution(kern, L).levels, order)
    assert [bits(t) for t in report.V.levels] == [bits(t) for t in want]


@pytest.mark.parametrize("L", [0, 1, 3])
def test_free_solution_levels_are_read_only(L):
    _, kern = build_toy_model(A=2, n_base=2, seed=L)
    levels = free_solution(kern, L).levels
    assert not any(t.flags.writeable for t in levels)
    with pytest.raises(ValueError):
        levels[-1][...] = 0.0
    own = _free_levels(kern, L, budget=10**7)
    assert all(t.flags.writeable and t.flags.owndata for t in own)
    assert [bits(t) for t in own] == [bits(t) for t in free_solution(kern, L).levels]
