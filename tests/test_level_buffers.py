"""Level buffers the series recycles, against fresh arrays, bit for bit.

The perturbation series keeps two level lists: the running sum, which
starts as the free seed's own arrays, and the current term, whose arrays
the right inverse overwrites with the next term through ``out``.  A term
keeps its levels below L only: its level L is the raised level
``0.0 - g (x) w_{L-1}``, whose norm the series takes by the product rule
and which it adds into the sum in column blocks.  ``apply_to_levels``
assigns the first image of an output level, adds later broadcast images
in column blocks, and multiplies a summand with zero columns over its
nonzero columns only; the right inverse writes a level with no input in
one pass per row.  Each of these must give the bits of the full-matrix,
fresh-array route.
"""

import math

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from freefock import build_oscillator_model, free_solution, linear_operator, perturbation_series
from freefock import cuntz, inverse
from freefock.cuntz import Monomial, OperatorExpr, add_levels, apply_to_levels, interaction_operator
from freefock.fock import level_max_abs
from freefock.inverse import apply_right_inverse_K_plus_G
from freefock.solver import _free_levels
from helpers import build_toy_model, fill_and_subtract_right_inverse, full_gemm_levels, random_operator

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
    want = [bits(t) for t in full_gemm_levels(op, levels)]
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


def sparse_monomial(d, p, s, rng, one_per_row):
    """A summand whose matrix has zero columns: random entries in a random subset of its columns.

    With ``one_per_row`` each row holds at most one of them.
    """
    rows, cols = d**p, d**s
    kept = np.flatnonzero(rng.random(cols) < 0.5)
    matrix = np.zeros((rows, cols))
    if len(kept) and one_per_row:
        matrix[np.arange(rows), rng.choice(kept, rows)] = rng.standard_normal(rows) * (rng.random(rows) < 0.8)
    elif len(kept):
        matrix[:, kept] = rng.standard_normal((rows, len(kept))) * (rng.random((rows, len(kept))) < 0.6)
    # the matrix reverses the annihilation axes; reversing them again gives the kernel
    axes = list(range(p)) + list(range(p + s - 1, p - 1, -1))
    return Monomial(p, s, np.transpose(matrix.reshape((d,) * (p + s)), axes))


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("oscillator", "toy", "sparse", "sparse one per row")),
    d=st.integers(3, 4),
    A=st.integers(1, 2),
    q=st.floats(-1.0, 1.0),
    p=st.integers(0, 2),
    s=st.integers(1, 3),
    dense=st.booleans(),
    L=st.integers(0, 5),
    batch=st.sampled_from(BATCHES),
    present=st.lists(st.booleans(), min_size=6, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_pruned_gemm_bit_equals_the_full_matrix_product(kind, d, A, q, p, s, dense, L, batch, present, seed):
    # a summand whose matrix has zero columns and one nonzero entry per row
    # (the oscillator's interaction at any q, a sparse kernel) is multiplied
    # over its nonzero columns: each image entry has one nonzero product
    # either way, so its bits are the full GEMM's.  One with a row of
    # several nonzero entries (the toy interaction off q = 0 or with A = 2)
    # keeps the full GEMM, so its bits are the reference's too, which is
    # stronger than agreeing to 1e-15.  A dense summand shares some levels.
    rng = np.random.Generator(np.random.Philox(key=seed))
    if kind == "oscillator":
        op = interaction_operator(build_oscillator_model(omega=1.0, dt=0.15, T=d, lam=0.3, q=q).kernels)
    elif kind == "toy":
        op = interaction_operator(build_toy_model(A=A, n_base=d - 1, lam=0.3, q=q, seed=seed)[1])
    else:
        space = build_toy_model(A=1, n_base=d)[0]
        op = OperatorExpr(space, (sparse_monomial(d, p, s, rng, kind == "sparse one per row"),))
    if dense:
        op = op + random_operator(op.space, rng, n_terms=1)
    levels = random_levels(op.space.d, L, batch, present, seed)
    got = apply_to_levels(op, levels)
    assert [bits(t) for t in got] == [bits(t) for t in full_gemm_levels(op, levels)]


def test_series_interaction_reads_ten_of_its_columns():
    # the series model (T = 12, interaction on the interior rows) has 10
    # nonzero annihilation words of 1,728; K has no zero column
    kern = build_oscillator_model(omega=1.0, dt=0.15, T=12, lam=0.02, interaction_rows="interior").kernels
    t = interaction_operator(kern).terms[0]
    cols, block = t.nonzero_columns
    assert t.matrix.shape == (12, 1728) and len(cols) == 10
    assert np.array_equal(block, t.matrix[:, cols]) and not np.any(np.delete(t.matrix, cols, axis=1))
    assert not block.flags.writeable
    assert linear_operator(kern).terms[0].nonzero_columns == (None, None)


class ChosenG:
    """Green's function whose ``green @ G`` is a chosen g; ``np.matmul`` reads the matrix.

    A matrix-vector product never returns -0.0, so only a stand-in puts
    both signed zeros into g.
    """

    def __init__(self, matrix, g):
        self.matrix, self.g = matrix, g

    def __array__(self, dtype=None, copy=None):
        return self.matrix

    def __matmul__(self, G):
        return self.g


def signed_zero_levels(d, kinds, batch, seed):
    """Random levels with +0.0 and -0.0 entries, all-zero levels of either sign, and None levels."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    levels = []
    for n, kind in enumerate(kinds):
        shape = (d,) * n + batch
        zeros = rng.choice([0.0, -0.0], shape)
        if kind == "random":
            levels.append(np.where(rng.random(shape) < 0.3, zeros, rng.standard_normal(shape)))
        else:
            levels.append(None if kind == "none" else zeros)
    return levels


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 4),
    L=st.integers(1, 5),
    batch=st.sampled_from(BATCHES),
    kinds=st.lists(st.sampled_from(("random", "zero", "none")), min_size=6, max_size=6),
    buffered=st.lists(st.booleans(), min_size=6, max_size=6),
    g=st.none() | st.lists(st.sampled_from((0.0, -0.0, 0.7, -1.3)), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_one_pass_raised_levels_bit_equal_the_fill_and_subtract_loop(d, L, batch, kinds, buffered, g, seed):
    # a level with no input is written row by row as 0.0 - g_i * w_{n-1};
    # the reference starts it from zeros and subtracts through a scratch
    # row.  Zero products of either sign must give +0.0, as 0.0 - x does
    # (np.negative would give -0.0).  w_{n-1} is a level W wrote, whose
    # zeros are +0.0 (a GEMM and 0.0 - x never return -0.0); v and g carry
    # both signs, and zero levels and batch columns of v make zeros in w.
    _, kern = build_toy_model(A=1, n_base=d, lam=0.0, seed=seed)
    if g is not None:
        kern = SimpleNamespace(space=kern.space, G=kern.G, green=ChosenG(kern.green, np.array(g[:d])))
    levels = signed_zero_levels(d, kinds[: L + 1], batch, seed)
    want = [bits(t) for t in fill_and_subtract_right_inverse(kern, levels)]
    assert [bits(t) for t in apply_right_inverse_K_plus_G(kern, levels)] == want

    def buffers():
        return [np.full((d,) * n + batch, np.nan) if buffered[n] else None for n in range(L + 1)]

    assert [bits(t) for t in apply_right_inverse_K_plus_G(kern, levels, out=buffers())] == want
    assert [bits(t) for t in fill_and_subtract_right_inverse(kern, levels, out=buffers())] == want


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


# finite floats, with both signed zeros, subnormals and magnitudes near overflow drawn often
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-320, 1.7e308, -1.2e308, 3e154, -2e154]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def float_bits(x):
    return np.float64(x).tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), n=st.integers(0, 3), batch=st.sampled_from(BATCHES))
def test_raised_level_norm_is_the_product_of_its_factors_norms(data, d, n, batch):
    # rounding is monotone, so the largest rounded |g_i w_j| is the rounded
    # product of the largest |g_i| and |w_j|: for the raised level of an
    # increment and for the free solution's outer product alike
    g = data.draw(arrays(np.float64, (d,), elements=FLOATS))
    w = data.draw(arrays(np.float64, (d,) * n + batch, elements=FLOATS))
    got = inverse._raised_max_abs(level_max_abs(g), level_max_abs(w))
    with np.errstate(over="ignore"):
        levels = (np.subtract(0.0, np.multiply.outer(g, w)), np.multiply.outer(-g, w))
    for level in levels:
        want = level_max_abs(level)
        assert float_bits(got) == float_bits(want)
        assert math.isfinite(got) == math.isfinite(want)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    d=st.integers(1, 4),
    n=st.integers(0, 3),
    batch=st.sampled_from(BATCHES),
    block=st.integers(1, 7),
)
@example(data=None, d=2, n=1, batch=(), block=1).via("a zero product added to -0.0")
def test_block_fused_raised_add_bit_equals_forming_the_level_and_adding_it(data, d, n, batch, block):
    # the default block holds every level drawn here whole; a patched
    # block of a few entries splits each row into several, the last one
    # partial.  A zero product must add as +0.0, which turns a -0.0 entry
    # of the sum into +0.0 (np.negative would keep it -0.0)
    if data is None:
        g, w, target = np.array([0.0, 1.5]), np.array([-0.0, 2.0]), np.full((2, 2), -0.0)
    else:
        g = data.draw(arrays(np.float64, (d,), elements=FLOATS))
        w = data.draw(arrays(np.float64, (d,) * n + batch, elements=FLOATS))
        target = data.draw(arrays(np.float64, (d,) * (n + 1) + batch, elements=FLOATS))
    with np.errstate(over="ignore", invalid="ignore"):
        want = add_levels([target.copy()], [np.subtract(0.0, np.multiply.outer(g, w))])[0]
        for entries in (inverse._RAISE_BLOCK_ENTRIES, block):
            got = target.copy()
            with mock.patch.object(inverse, "_RAISE_BLOCK_ENTRIES", entries):
                assert inverse._add_raised(got, g, w) is got
            assert bits(got) == bits(want)
