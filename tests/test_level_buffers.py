"""Level buffers the series recycles, against fresh arrays, bit for bit.

The perturbation series keeps two level lists: the running sum, which
starts as the free seed's own arrays, and the current term, whose arrays
the right inverse overwrites with the next term through ``out``.  Both
keep their levels below L only: a term's level L is the raised level,
the image of ``w_{L-1}`` under the raising step ``-X`` (one creator,
kernel ``-g``), whose norm the series takes by the product rule, and
the sum's level L is raised from its level L-1 once, after the loop.
``apply_to_levels`` assigns the first image of an output level, adds
later broadcast images with ``_add_product`` too, and multiplies a
summand with zero columns over its nonzero columns only; the right
inverse writes a level with no input in one pass.  The residual reduces
the hierarchy operator's image one column block at a time and never
holds it whole.  Each of these must give the bits of the full-matrix,
fresh-array route.
"""

import dataclasses
import math

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from freefock import build_oscillator_model, free_solution, linear_operator, perturbation_series, residual_by_level
from freefock import cuntz, inverse
from freefock.cuntz import Monomial, OperatorExpr, add_levels, apply_to_levels, hierarchy_operator, interaction_operator
from freefock.errors import ShapeError
from freefock.fock import FockVector, level_max_abs
from freefock.inverse import apply_right_inverse_K_plus_G
from freefock.solver import _free_levels
from helpers import (
    build_toy_model, fill_and_subtract_right_inverse, full_gemm_levels, load_perfbench, matrix_nonzero_columns,
    in_trusted_window, random_operator, trusted_window, whole_image_residual, with_raised_top_level,
)

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


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("oscillator", "toy", "sparse", "sparse one per row")),
    d=st.integers(3, 4),
    A=st.integers(1, 2),
    q=st.sampled_from([0.0, 0.3]),
    p=st.integers(0, 2),
    s=st.integers(1, 3),
    seed=st.integers(0, 2**16),
)
def test_nonzero_columns_read_from_the_kernel_bit_equal_the_matrixs(kind, d, A, q, p, s, seed):
    # every summand of K + N + G, and sparse summands, whose nonzero words,
    # unlike the interaction's (z, z, z), change when reversed; the matrix
    # is not built for them
    if kind == "oscillator":
        terms = hierarchy_operator(build_oscillator_model(omega=1.0, dt=0.15, T=d, lam=0.3, q=q).kernels).terms
    elif kind == "toy":
        terms = hierarchy_operator(build_toy_model(A=A, n_base=d - 1, lam=0.3, q=q, seed=seed)[1]).terms
    else:
        rng = np.random.Generator(np.random.Philox(key=seed))
        terms = [sparse_monomial(d, p, s, rng, kind == "sparse one per row")]
    for t in terms:
        t = Monomial(t.n_create, t.n_annihilate, t.kernel)
        cols, block = t.nonzero_columns
        assert "matrix" not in vars(t)
        want_cols, want_block = matrix_nonzero_columns(t)
        assert (cols is None) == (want_cols is None)
        if cols is not None:
            assert np.array_equal(cols, want_cols) and block.flags.c_contiguous and not block.flags.writeable
            assert block.shape == want_block.shape and bits(block) == bits(want_block)


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
    """The series summed with a new array for every whole term, its level L then raised from L-1, as a reference."""
    minus_N = interaction_operator(kern) * -1.0
    sums, term = add_levels([None] * len(seed_levels), seed_levels), seed_levels
    for _ in range(order):
        term = apply_right_inverse_K_plus_G(kern, apply_to_levels(minus_N, term))
        if not any(t is not None and np.any(t) for t in term):
            break
        add_levels(sums, term)
    return with_raised_top_level(kern, sums)


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
    columns=st.integers(1, 7),
)
@example(data=None, d=2, n=1, batch=(), columns=1).via("a zero product added to -0.0")
def test_block_fused_raised_add_bit_equals_forming_the_level_and_adding_it(data, d, n, batch, columns):
    # the raising step -X, one creator with kernel -g, is added by
    # cuntz._add_product.  The default block holds every level drawn here
    # whole; a patched block of a few columns splits each level into
    # several, the last one partial.  A zero product must add as +0.0,
    # which turns a -0.0 entry of the sum into +0.0 (np.negative would
    # keep it -0.0)
    if data is None:
        g, w, target = np.array([0.0, 1.5]), np.array([-0.0, 2.0]), np.full((2, 2), -0.0)
    else:
        g = data.draw(arrays(np.float64, (d,), elements=FLOATS))
        w = data.draw(arrays(np.float64, (d,) * n + batch, elements=FLOATS))
        target = data.draw(arrays(np.float64, (d,) * (n + 1) + batch, elements=FLOATS))
    minus_x = Monomial(1, 0, -g)
    with np.errstate(over="ignore", invalid="ignore"):
        want = add_levels([target.copy()], [np.subtract(0.0, np.multiply.outer(g, w))])[0]
        for entries in (cuntz._ADD_BLOCK_ENTRIES, columns * d):
            got = target.copy()
            with mock.patch.object(cuntz, "_ADD_BLOCK_ENTRIES", entries):
                cuntz._add_product(got.reshape(d, -1), minus_x, w.reshape(1, -1))
            assert bits(got) == bits(want)


def residual_kernels(kind, A, n_base, lam, q, seed):
    """Kernels for the residual tests, each with data rows, so rows="equation" masks rows.

    The oscillator's K holds a few entries per row and its interaction one
    per row; the toy's K is dense, so its GEMM sums d products per entry.
    """
    if kind == "oscillator":
        return build_oscillator_model(omega=1.0, dt=0.15, T=n_base + 2, lam=lam, q=q).kernels
    return dataclasses.replace(build_toy_model(A=A, n_base=n_base, lam=lam, q=q, seed=seed)[1], data_rows=(0,))


def residual_bits(run):
    """``run()``'s per-level norms as bits, or the message of the ShapeError it raises."""
    try:
        return [(n, float_bits(x)) for n, x in run().items()]
    except ShapeError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(("oscillator", "toy")),
    A=st.integers(1, 2),
    n_base=st.integers(1, 3),
    lam=st.sampled_from((0.0, 0.4)),
    q=st.sampled_from((0.0, 0.3)),
    L=st.integers(0, 5),
    rows=st.sampled_from(("all", "equation")),
    kinds=st.lists(st.sampled_from(("random", "zero")), min_size=6, max_size=6),
    panels=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@example(  # blocks of two columns of the toy's N, inner dimension 216, once rounded level 2 otherwise
    kind="toy", A=2, n_base=3, lam=0.4, q=0.0, L=4, rows="all",
    kinds=["random", "zero", "zero", "zero", "random", "random"], panels=1, seed=308,
)
def test_residual_blocks_bit_equal_the_whole_image(kind, A, n_base, lam, q, L, rows, kinds, panels, seed):
    # with K + N + G's one creator, a patched block of panels * 8 * d entries
    # splits each level's (d, d^(m-1)) image into column blocks of that many
    # whole 8-column panels, the last block taking the rest, two columns at
    # least (numpy's one-column product is a GEMV); the default block holds
    # each level whole.  V carries +0.0 and -0.0 entries and all-zero
    # levels of either sign.  The report holds the trusted levels only
    kern = residual_kernels(kind, A, n_base, lam, q, seed)
    d = kern.space.d
    assume(d <= 4 or L <= 4)
    v = FockVector(kern.space, tuple(signed_zero_levels(d, kinds[: L + 1], (), seed)))
    want = residual_bits(lambda: in_trusted_window(whole_image_residual(v, kern, rows), kern, L))
    assert residual_bits(lambda: residual_by_level(v, kern, rows).per_level) == want
    with mock.patch.object(cuntz, "_ADD_BLOCK_ENTRIES", panels * cuntz._GEMM_PANEL * d):
        assert residual_bits(lambda: residual_by_level(v, kern, rows).per_level) == want


@pytest.mark.parametrize("entries, widths", [
    (1, [8, 8, 8, 8, 4]), (6 * 8, [8, 8, 8, 8, 4]), (6 * 17, [16, 16, 4]), (6 * 32, [32, 4]), (2**16, [36]),
])
def test_residual_blocks_span_whole_panels(entries, widths):
    # level 3 of the toy's image (d = 6) is a (6, 36) matrix: its blocks
    # start on 8-column panels, and the last takes the 4 columns left
    kern = residual_kernels("toy", 2, 3, 0.4, 0.0, seed=308)
    levels = signed_zero_levels(6, ["random"] * 6, (), seed=308)
    with mock.patch.object(cuntz, "_ADD_BLOCK_ENTRIES", entries):
        got = [block.shape for m, blocks in cuntz._image_blocks(hierarchy_operator(kern), levels) if m == 3
               for block in blocks]
    assert got == [(6, w) for w in widths]


def image_blocks_against_whole(op, levels):
    """Each block of ``cuntz._image_blocks`` with the same columns of ``apply_to_levels``'s level.

    Yields ``(m, cols, block, want)``, cols the block's column slice of level m's matrix.
    """
    whole = apply_to_levels(op, levels)
    start = {}
    for m, blocks in cuntz._image_blocks(op, levels):
        for block in blocks:
            cols = slice(start.get(m, 0), start.get(m, 0) + block.shape[1])
            start[m] = cols.stop
            yield m, cols, block, whole[m].reshape(block.shape[0], -1)[:, cols]


def test_series_model_residual_blocks_bit_equal_the_whole_image():
    # at T=12, L=6 the default blocks split levels 5 and 6, (12, 12^4) and
    # (12, 12^5) matrices, into 4 and 46 blocks; K (inner dimension 12) and
    # G write them, and no bit of a block moves.  The residual stops at
    # level 4, whose norms keep their bits too
    workloads = load_perfbench("workloads")
    kernels = workloads.oscillator(workloads.make_inputs(7), 12, 0.02, rows="interior").kernels
    V = perturbation_series(kernels, L=6, order=3).V
    count = {}
    for m, _, block, want in image_blocks_against_whole(hierarchy_operator(kernels), V.levels):
        count[m] = count.get(m, 0) + 1
        assert bits(block) == bits(want), m
    assert (count[5], count[6]) == (4, 46)
    for rows in ("all", "equation"):
        want = residual_bits(lambda: in_trusted_window(whole_image_residual(V, kernels, rows), kernels, 6))
        assert residual_bits(lambda: residual_by_level(V, kernels, rows).per_level) == want


@pytest.mark.parametrize("panels", [1, 4])
@pytest.mark.parametrize("seed", [0, 1])
def test_residual_blocks_within_the_summation_bound_of_the_whole_image(panels, seed):
    # a dense toy N (d = 8, inner dimension d^3 = 512) in blocks of 8 or 32
    # columns: OpenBLAS sums some of level 4's entries in another order than
    # the whole product (412 of its 4096 at seed 0, by up to 1.8e-15), but
    # every entry, and so every norm, stays within 2 (n + 2) u of |D| |V|,
    # n = 512 the longest sum, u the unit roundoff.  The blocks are checked
    # on every level, the norms on the trusted levels 0..4 the report holds
    kern = residual_kernels("toy", 2, 4, 0.4, 0.0, seed)
    d = kern.space.d
    rng = np.random.Generator(np.random.Philox(key=seed))
    levels = [rng.standard_normal((d,) * n) for n in range(7)]
    op = hierarchy_operator(kern)
    abs_op = OperatorExpr(op.space, tuple(dataclasses.replace(t, kernel=np.abs(t.kernel)) for t in op.terms))
    u = np.finfo(float).eps / 2
    bound = [None if t is None else 2 * (d**3 + 2) * u * t.reshape(d, -1)  # level 0 has no image
             for t in apply_to_levels(abs_op, [np.abs(t) for t in levels])]
    with mock.patch.object(cuntz, "_ADD_BLOCK_ENTRIES", panels * cuntz._GEMM_PANEL * d):
        for m, cols, block, want in image_blocks_against_whole(op, levels):
            assert np.all(np.abs(block - want) <= bound[m][:, cols]), m
        got = residual_by_level(FockVector(kern.space, tuple(levels)), kern).per_level
    want = in_trusted_window(whole_image_residual(FockVector(kern.space, tuple(levels)), kern), kern, 6)
    assert got.keys() == want.keys()
    for m in want:
        assert abs(got[m] - want[m]) <= (0.0 if bound[m] is None else bound[m].max()), m


def residual_levels(kern, L, value, seed, at=None):
    """Random levels 0..L whose level ``at`` (L by default) ends in ``value``.

    Level n's last column feeds the last block of levels n and n - 2.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    levels = [rng.standard_normal((kern.space.d,) * n) for n in range(L + 1)]
    levels[L if at is None else at].reshape(-1)[-1] = value
    return levels


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["oscillator", "toy"])
@pytest.mark.parametrize("rows", ["all", "equation"])
def test_non_finite_entry_in_the_last_block_raises(value, kind, rows):
    # a running max over blocks would drop it: max(0.0, nan) is 0.0.  The
    # level is read through a stand-in, since a FockVector refuses it
    kern = residual_kernels(kind, 1, 3, 0.4, 0.3, seed=5)
    v = SimpleNamespace(levels=residual_levels(kern, 5, value, seed=5), L=5)
    with np.errstate(invalid="ignore"):
        with mock.patch.object(cuntz, "_ADD_BLOCK_ENTRIES", 2 * kern.space.d):
            with pytest.raises(ShapeError) as got:
                residual_by_level(v, kern, rows)
        with pytest.raises(ShapeError) as want:
            whole_image_residual(v, kern, rows)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind", ["oscillator", "toy"])
def test_finite_vector_whose_image_overflows_raises(kind):
    # every entry of V is finite, but K's product with the last one, in
    # the last block of level 3, the top trusted level at L = 5, is not
    kern = residual_kernels(kind, 1, 3, 0.4, 0.3, seed=5)
    v = FockVector(kern.space, tuple(residual_levels(kern, 5, 1.7e308, seed=5, at=3)))
    with np.errstate(over="ignore"):
        with mock.patch.object(cuntz, "_ADD_BLOCK_ENTRIES", 2 * kern.space.d):
            with pytest.raises(ShapeError, match="level 3 contains non-finite entries"):
                residual_by_level(v, kern)
        with pytest.raises(ShapeError, match="level 3 contains non-finite entries"):
            whole_image_residual(v, kern)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(("oscillator", "toy")),
    n_base=st.integers(1, 3),
    lam=st.sampled_from((0.0, 0.05)),
    L=st.integers(0, 6),
    rows=st.sampled_from(("all", "equation")),
    seed=st.integers(0, 2**16),
)
def test_residual_report_holds_exactly_the_trusted_levels(kind, n_base, lam, L, rows, seed):
    # levels above hi = L - 2 (L - 1 at lam = 0) read truncated components;
    # the report has no entry for them, and each trusted level's norm has
    # the bits of the whole image's
    kern = residual_kernels(kind, 1, n_base, lam, 0.0, seed)
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = FockVector(kern.space, tuple(rng.standard_normal((kern.space.d,) * n) for n in range(L + 1)))
    lo, hi = trusted_window(kern, L)
    report = residual_by_level(v, kern, rows)
    assert report.trusted_levels == (lo, hi)
    assert list(report.per_level) == list(range(lo, hi + 1))
    want = whole_image_residual(v, kern, rows)
    assert [float_bits(x) for x in report.per_level.values()] == [float_bits(want[n]) for n in range(lo, hi + 1)]


def output_levels_of_products(monkeypatch, levels):
    """Patch ``cuntz._product`` to record the output level of each product it forms from ``levels``.

    A product reads a view of one level n and writes level n - s + p.
    """
    product, formed = cuntz._product, []

    def recording(t, source, out=None):
        n = next(n for n, level in enumerate(levels) if np.may_share_memory(source, level))
        formed.append(n - t.n_annihilate + t.n_create)
        return product(t, source, out)

    monkeypatch.setattr(cuntz, "_product", recording)
    return formed


def test_series_model_residual_forms_no_block_above_its_window(monkeypatch):
    # at T=12, L=6 the trusted levels are 0..4; the whole image's levels 5
    # and 6, 4 and 46 blocks of two products each, are never formed.  No
    # summand writes level 0: N lowers level n >= 3 by two
    workloads = load_perfbench("workloads")
    kernels = workloads.oscillator(workloads.make_inputs(7), 12, 0.02, rows="interior").kernels
    V = perturbation_series(kernels, L=6, order=3).V
    formed = output_levels_of_products(monkeypatch, V.levels)
    for rows in ("all", "equation"):
        assert residual_by_level(V, kernels, rows).trusted_levels == (0, 4)
    assert sorted(set(formed)) == [1, 2, 3, 4]


def test_trusted_level_that_default_blocks_split_is_within_the_summation_bound():
    # the oscillator at lam = 0, T = 18, L = 5 (a 15 MB vector): level 4,
    # the top trusted level, is an (18, 5832) image in 2 default blocks.
    # Its norm lies within 2 (n + 2) u of |K + G| |V|'s largest entry of the
    # whole image's, n = 18 the longest inner dimension; no bit moves here
    kernels = build_oscillator_model(omega=1.0, dt=0.15, T=18, lam=0.0, forcing=0.3, x0_mean=0.4, v0_mean=0.1).kernels
    V = free_solution(kernels, 5)
    op = hierarchy_operator(kernels)
    assert [len(list(blocks)) for m, blocks in cuntz._image_blocks(op, V.levels) if m == 4] == [2]
    abs_op = OperatorExpr(op.space, tuple(dataclasses.replace(t, kernel=np.abs(t.kernel)) for t in op.terms))
    n, u = max(t.kernel.shape[0] ** t.n_annihilate for t in op.terms), np.finfo(float).eps / 2
    largest = [0.0 if t is None else float(t.max()) for t in apply_to_levels(abs_op, [np.abs(t) for t in V.levels])]
    for rows in ("all", "equation"):
        got = residual_by_level(V, kernels, rows).per_level
        want = in_trusted_window(whole_image_residual(V, kernels, rows), kernels, 5)
        assert list(got) == list(want) == [0, 1, 2, 3, 4]
        for m in want:
            assert abs(got[m] - want[m]) <= 2 * (n + 2) * u * largest[m], m
            assert float_bits(got[m]) == float_bits(want[m]), m
