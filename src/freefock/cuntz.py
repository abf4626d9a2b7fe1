"""Generator algebra over the truncated free Fock space.

Operators are finite sums of normal-ordered generator monomials over an
index space with d flat labels: ``Monomial(p, s, kernel)`` is
``sum_{x,y} kernel[x_1..x_p, y_1..y_s] eta*(x_1)..eta*(x_p)
eta(y_1)..eta(y_s)`` with a dense kernel of shape ``(d,)*(p+s)``, and
``p = s = 0`` is a scalar multiple of the unit operator.  An operator
keeps one summand per ``(p, s)``.

The generators satisfy ``eta(x) eta*(y) = delta(x, y) I`` with
``eta(x)|0> = 0``; products rewrite with no remainder term, so the
composition of two monomials is again a single monomial whose kernel is
a plain tensor contraction.  Applying a monomial to a graded vector
contracts the reversed annihilation word against the leading slots of
each level (the innermost annihilator meets the first slot), multiplies
by the kernel and prepends the creation slots; components above the
truncation level are dropped.

The vacuum projector is a monomial sum as well: on every level it is
``I - sum_x eta*(x) eta(x)``.  Monomials with different ``(p, s)``,
``p, s <= L``, are linearly independent on levels ``<= L`` (Cuntz
1977), so two operators agree there exactly when their kernels on those
keys agree; :func:`kernel_residual` checks identities that way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeError
from .fock import DEFAULT_BUDGET, FockVector, check_budget
from .model import IndexSpace, KernelSet


@dataclass(frozen=True)
class Monomial:
    """Normal-ordered generator monomial (see the module docstring)."""

    n_create: int
    n_annihilate: int
    kernel: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.kernel, dtype=float)
        if k.ndim != self.n_create + self.n_annihilate:
            raise ShapeError(
                f"kernel rank {k.ndim} != create {self.n_create} + annihilate {self.n_annihilate}"
            )
        k.flags.writeable = False
        object.__setattr__(self, "kernel", k)

    @property
    def grading(self):
        return self.n_create - self.n_annihilate

    @cached_property
    def matrix(self):
        """Kernel as a read-only (d^p, d^s) matrix with the annihilation axes reversed.

        Built on first use and kept with the summand, so a kernel is
        transposed once however often the summand is applied or
        materialized.
        """
        p, s = self.n_create, self.n_annihilate
        axes = list(range(p)) + list(range(p + s - 1, p - 1, -1))
        shape = self.kernel.shape
        mat = np.ascontiguousarray(np.transpose(self.kernel, axes))
        mat = mat.reshape(math.prod(shape[:p]), math.prod(shape[p:]))
        mat.flags.writeable = False
        return mat

    @cached_property
    def nonzero_columns(self):
        """``(cols, block)``: the indices of ``matrix``'s nonzero columns and a read-only copy of them.

        Both are None when no column is zero, or when a row has two
        nonzero entries, which a GEMM over fewer columns could sum in
        another grouping; one nonzero product per entry has the same
        bits either way.  Both are read from ``kernel``, so ``matrix`` is
        not built for them.
        """
        p, s = self.n_create, self.n_annihilate
        shape = self.kernel.shape
        flat = self.kernel.reshape(math.prod(shape[:p]), -1)
        # matrix's column c reverses the annihilation word that is flat's column word[c]
        word = np.arange(flat.shape[1]).reshape(shape[p:]).transpose(range(s - 1, -1, -1)).reshape(-1)
        nonzero = flat != 0.0
        cols = np.flatnonzero(nonzero.any(axis=0)[word])
        if len(cols) == len(word) or nonzero.sum(axis=1).max() > 1:
            return None, None
        block = np.take(flat, word[cols], axis=1)
        block.flags.writeable = False
        return cols, block


def _merge(space, terms):
    """Group summands by (p, s) and add kernels; drop zero terms.

    A summand that no other one shares its (p, s) with is kept as it is,
    with the matrix and nonzero columns it has cached: kernels are
    read-only, so operators can share summands.
    """
    acc, d = {}, space.d
    for t in terms:
        if t.kernel.shape != (d,) * (t.n_create + t.n_annihilate):
            raise ShapeError(
                f"term kernel shape {t.kernel.shape} inconsistent with d={d}"
            )
        key = (t.n_create, t.n_annihilate)
        acc[key] = t if key not in acc else Monomial(*key, acc[key].kernel + t.kernel)
    return tuple(acc[key] for key in sorted(acc) if acc[key].kernel.any())


@dataclass(frozen=True)
class OperatorExpr:
    """Finite sum of monomials over one index space, one per (p, s)."""

    space: IndexSpace
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", _merge(self.space, self.terms))

    def __add__(self, other):
        self._check(other)
        return OperatorExpr(self.space, self.terms + other.terms)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, c):
        c = float(c)
        return OperatorExpr(
            self.space,
            tuple(Monomial(t.n_create, t.n_annihilate, c * t.kernel) for t in self.terms),
        )

    __rmul__ = __mul__

    def _check(self, other):
        if other.space.d != self.space.d:
            raise ShapeError("operators live over different index spaces")

    @property
    def is_zero(self):
        return len(self.terms) == 0

    def gradings(self):
        return tuple(sorted({t.grading for t in self.terms}))


def zero_operator(space):
    return OperatorExpr(space, ())


def identity_operator(space):
    return OperatorExpr(space, (Monomial(0, 0, np.ones(())),))


def vacuum_projector(space):
    """|0><0| as ``I - sum_x eta*(x) eta(x)``, exact on every level.

    Materialized, it is the unit ``(0, 0)`` block and exact zeros on every
    other block; applied, it keeps level 0 and leaves exact zeros above.
    """
    return OperatorExpr(space, (Monomial(0, 0, np.ones(())), Monomial(1, 1, np.diag(np.full(space.d, -1.0)))))


def number_operator(space):
    """sum_x eta*(x) eta(x); acts as the identity off the vacuum."""
    return OperatorExpr(space, (Monomial(1, 1, np.eye(space.d)),))


def eta(space, i):
    k = np.zeros(space.d)
    k[i] = 1.0
    return OperatorExpr(space, (Monomial(0, 1, k),))


def eta_star(space, i):
    k = np.zeros(space.d)
    k[i] = 1.0
    return OperatorExpr(space, (Monomial(1, 0, k),))


# --- application ---------------------------------------------------------

# entries per column block of a product added into a written level (_add_product),
# and of a block of the residual's image (512 KB of floats)
_ADD_BLOCK_ENTRIES = 2**16

# columns of a panel of a GEMM image that _image_blocks never splits.  numpy
# hands OpenBLAS the transposed product, whose rows are these columns; its
# kernels sum a run of fewer than 8 of them otherwise than a full run (seen
# with blocks of 2 to 4 columns of a toy N, inner dimension 216), so a
# block that starts inside a panel can round otherwise than the whole product.
# Panels are not enough once a product is large (a (8, 512) matrix times 333
# columns, say): OpenBLAS then picks its kernels by the block's size too
_GEMM_PANEL = 8


def _summand_reads(op, levels):
    """Each summand of ``op`` with each level it reads, in the order they are applied.

    Yields ``(t, m, source)``: summand t reads level n as the
    ``(d^s, d^(n-s) * batch)`` matrix ``source`` and writes level
    ``m = n - s + p``, for each level n that is not None and whose image
    lies at or below the last level.  Summands come in term order, except
    that when the first is a broadcast (s = 0) and the second a GEMM, the
    two are swapped, so the broadcast adds into the GEMM's image: where
    both write a level, ``a + b`` is ``b + a``, so no bit changes.
    """
    L, d = len(levels) - 1, op.space.d
    terms = list(op.terms)
    if len(terms) > 1 and terms[0].n_annihilate == 0 < terms[1].n_annihilate:
        terms[:2] = terms[1::-1]
    for t in terms:
        p, s = t.n_create, t.n_annihilate
        for n in range(s, min(L, L + s - p) + 1):
            if levels[n] is not None:
                yield t, n - s + p, np.reshape(levels[n], (d**s, -1))


def _product(t, source, out=None):
    """Summand t times ``source``, a ``(d^s, columns)`` matrix, as a new ``(d^p, columns)`` array or in ``out``.

    A summand with zero columns and at most one nonzero entry per row
    multiplies only the rows of ``source`` its nonzero columns select
    (``Monomial.nonzero_columns``); each entry of a finite image sums at
    most one nonzero product either way, so the bits are the full GEMM's.
    A pure-creation summand (s = 0) is the product with inner dimension
    one, formed as a broadcast ``matrix * source`` plus 0.0, which turns
    a -0.0 product into the +0.0 a GEMM returns; the one code that forms
    such an image, the (K + G) right inverse's raising step included.
    """
    if t.n_annihilate == 0:
        image = np.multiply(t.matrix, source, out=out)
        image += 0.0  # in place, so no second array is formed
        return image
    cols, block = t.nonzero_columns
    return np.matmul(t.matrix, source, out=out) if cols is None else np.matmul(block, source[cols], out=out)


def _add_product(target, t, source):
    """``target += _product(t, source)`` for a pure-creation summand, in column blocks of ``_ADD_BLOCK_ENTRIES``.

    ``target`` is a ``(d^p, columns)`` view of its level.  Each block is
    added while it is in cache, so no whole image is held, with the bits
    of forming the whole product and adding it.
    """
    step = max(1, _ADD_BLOCK_ENTRIES // len(target))
    for j in range(0, source.shape[1], step):
        target[:, j:j + step] += _product(t, source[:, j:j + step])


def apply_to_levels(op, levels):
    """Apply an operator to level tensors ``levels[n]`` of shape (d,)*n + batch.

    Every level carries the same trailing batch shape (empty for a single
    vector), so one call applies the operator to a block of columns.
    Components above the last level are dropped.  Each summand acts on
    level n as its cached ``matrix``, ``(d^p, d^s)`` with the
    annihilation slots reversed, times the level read as a
    ``(d^s, d^(n-s) * batch)`` matrix: one GEMM per summand and level,
    with no transposed copy of the level, over the nonzero columns only
    where the summand allows it, and a broadcast for a pure-creation
    summand (:func:`_product`).  The result equals the ``materialize``
    blocks applied to the levels to rounding.

    An output level is the sum of its summands' images in the order
    :func:`_summand_reads` gives, bit for bit: the first image assigns it
    and later ones add in place.  A broadcast image added to a level is
    added by :func:`_add_product`, in column blocks, which changes no
    bit, so G and K write a level with no whole-level temporary.  A GEMM
    image is formed whole here.  A GEMM over a run of columns that starts
    on a panel boundary and spans whole panels (:data:`_GEMM_PANEL`) or
    ends where the whole matrix does gives the bits of those columns of
    the whole product (the residual's property test in
    ``tests/test_level_buffers.py`` checks blocks of one to four panels
    of oscillator and dense toy kernels); a run that starts or ends
    inside a panel can round otherwise, and over one column numpy runs
    GEMV, which can too.

    A level given as None reads as zero and costs no GEMM.  An output
    level that no summand writes is returned as None, the one form of an
    unwritten level in the library, so a caller knows from this
    bookkeeping which levels are empty, without reading values; every
    written level is a new array the caller owns.
    """
    filled = [n for n, t in enumerate(levels) if t is not None]
    d = op.space.d
    out = [None] * len(levels)
    if not filled:
        return out
    batch = np.shape(levels[filled[0]])[filled[0]:]
    for t, m, source in _summand_reads(op, levels):
        if t.n_annihilate == 0 and out[m] is not None:
            _add_product(out[m].reshape(d**t.n_create, -1), t, source)
            continue
        image = _product(t, source).reshape((d,) * m + batch)
        if out[m] is None:
            out[m] = image
        else:
            out[m] += image
        del image  # free it before the next level's image is formed
    return out


def _image_blocks(op, levels):
    """The image of ``levels`` under ``op``, one output level at a time, in column blocks.

    Yields ``(m, blocks)`` for each written output level m in ascending
    order; ``blocks`` forms that level's blocks one at a time as it is
    read, so a caller that stops at a level forms no block above it.
    Every summand writing level m must have the same number p of
    creators, so that each writes it as a ``(d^p, d^(m-p) * batch)``
    matrix and reads its own level over the same columns.  A block is
    a new array holding a run of about ``_ADD_BLOCK_ENTRIES // d^p``
    columns of that matrix, summed from the summands' :func:`_product`
    of those columns in the order of :func:`_summand_reads`.  Every
    block starts on a panel boundary and, but for the level's last,
    spans whole panels of :data:`_GEMM_PANEL` columns, one at least; no
    block has one column unless its level has: numpy multiplies a
    one-column matrix by GEMV, whose sums can round otherwise than
    GEMM's.  No whole image level is formed.  A block's entries are the
    sums of :func:`apply_to_levels`'s level, but OpenBLAS may add a
    product's terms in another order for a block than for the whole
    matrix: each entry differs from the whole level's by at most
    ``2 (n + 2) u`` times the same entry of the image of ``|levels|``
    under the operator with ``|kernel|``, n the longest inner dimension
    ``d^s``, u the unit roundoff (a dense
    toy N, d = 8, moved 412 of level 4's 4096 entries in 8-column
    blocks).  On the oscillator's kernels, whose K sums d terms per entry
    and whose interaction one nonzero term, no bit moved at the sizes
    the tests cover, the series model at T = 12, L = 6 among them.
    """
    d, reads = op.space.d, {}
    for t, m, source in _summand_reads(op, levels):
        reads.setdefault(m, []).append((t, source))
    for m in sorted(reads):
        yield m, _level_blocks(d, reads[m])


def _level_blocks(d, reads):
    """The column blocks of one output level of :func:`_image_blocks`, each formed as it is drawn."""
    t, source = reads[0]
    columns = source.shape[1]
    panels = max(1, _ADD_BLOCK_ENTRIES // d**t.n_create // _GEMM_PANEL)
    starts = list(range(0, columns, panels * _GEMM_PANEL))
    if len(starts) > 1 and starts[-1] == columns - 1:
        starts.pop()  # a one-column block joins the one before it
    for j, end in zip(starts, starts[1:] + [columns]):
        block = None
        for t, source in reads:
            image = _product(t, source[:, j:end])
            if block is None:
                block = image
            else:
                block += image
        yield block


def add_levels(sums, term):
    """Add the level list ``term`` into ``sums`` in place and return ``sums``.

    The one way the library sums level lists.  A None level of ``term``
    adds nothing; a level landing on a None level of ``sums`` is copied
    there, so ``sums`` holds only arrays of its own.
    """
    for n, t in enumerate(term):
        if t is None:
            continue
        if sums[n] is None:
            sums[n] = np.array(t)
        else:
            sums[n] += t
    return sums


def apply_operator(op, v):
    """Apply an operator expression to a graded vector, truncating at v.L; unwritten levels are zero."""
    if op.space.d != v.space.d:
        raise ShapeError("operator and vector index spaces differ")
    levels = apply_to_levels(op, v.levels)
    return FockVector(v.space, tuple(np.zeros((v.space.d,) * m) if t is None else t for m, t in enumerate(levels)))


# --- composition ----------------------------------------------------------

def _contract(a_kernel, b_kernel, k):
    """Pairwise Cuntz contraction of the k adjacent inner slots.

    a's innermost annihilator meets b's first creator, so a's last k
    axes, last first, are summed against b's first k.  These are
    ``np.tensordot``'s own steps without its argument handling, which
    costs more than the product at these kernel sizes: a's free axes are
    moved ahead of its contracted ones in pairing order, both operands
    are read as matrices and multiplied by one ``np.dot``.  The bits are
    tensordot's (k = 0 is its ``axes=0`` outer product).
    """
    free = a_kernel.ndim - k
    a_mat = a_kernel.transpose(list(range(free)) + list(range(a_kernel.ndim - 1, free - 1, -1)))
    a_mat = a_mat.reshape(math.prod(a_kernel.shape[:free]), -1)
    b_mat = b_kernel.reshape(math.prod(b_kernel.shape[:k]), -1)
    return np.dot(a_mat, b_mat).reshape(a_kernel.shape[:free] + b_kernel.shape[k:])


def _compose_terms(space, a, b, budget, L):
    pa, sa = a.n_create, a.n_annihilate
    pb, sb = b.n_create, b.n_annihilate
    k = min(sa, pb)
    new_p = pa + max(pb - sa, 0)
    new_s = max(sa - pb, 0) + sb
    if L is not None and (new_p > L or new_s > L):
        return None  # acts on no level <= L
    slots = new_p + new_s
    check_budget(f"compose: kernel with {slots} slots over d={space.d}", space.d**slots, budget)
    kernel = _contract(a.kernel, b.kernel, k)
    return Monomial(new_p, new_s, kernel)


def compose(a, b, budget=DEFAULT_BUDGET, L=None):
    """Exact operator product; distributes over summands.

    Adjacent annihilator/creator pairs contract to Kronecker deltas with
    no remainder, so each summand product is a single normal-ordered
    summand.  With a truncation level ``L``, a summand product with more
    than L creators or more than L annihilators acts on no level <= L and
    is skipped before the budget check and before its kernel is
    contracted.  Products are summed per (p, s), so dropping whole
    keys leaves the others unchanged: ``compose(a, b, L=L)`` is bit-equal
    to ``truncate_operator(compose(a, b), L)``, and the budget binds only
    on the kernels that are kept.
    """
    a._check(b)
    terms = []
    for ta in a.terms:
        for tb in b.terms:
            t = _compose_terms(a.space, ta, tb, budget, L)
            if t is not None:
                terms.append(t)
    return OperatorExpr(a.space, tuple(terms))


def adjoint(op):
    """Swap creation and annihilation words (each reversed); kernel transposed."""
    terms = []
    for t in op.terms:
        p, s = t.n_create, t.n_annihilate
        axes = list(range(p + s - 1, p - 1, -1)) + list(range(p - 1, -1, -1))
        terms.append(Monomial(s, p, np.transpose(t.kernel, axes) if axes else t.kernel))
    return OperatorExpr(op.space, tuple(terms))


# --- structure -----------------------------------------------------------

@dataclass(frozen=True)
class GradingReport:
    gradings: tuple
    kind: str
    k: int | None

    def __str__(self):
        return self.kind if self.k is None else f"{self.kind} {self.k}"


def classify_triangularity(op):
    """Net grading per summand: diagonal (0), raising k (>0), lowering k (<0)."""
    gr = op.gradings()
    if len(gr) == 0 or gr == (0,):
        return GradingReport(gr, "diagonal", None)
    if len(gr) == 1:
        g = gr[0]
        return GradingReport(gr, "raising" if g > 0 else "lowering", abs(g))
    return GradingReport(gr, "mixed", None)


def permute_annihilation_slots(op, perm):
    """Reorder each summand's annihilation word by ``perm``.

    Equivalent on permutation-symmetric vectors (normal ordering), and a
    genuinely different operator off the symmetric subspace.
    """
    perm = tuple(perm)
    terms = []
    for t in op.terms:
        p, s = t.n_create, t.n_annihilate
        if len(perm) != s:
            raise ShapeError(f"permutation length {len(perm)} != annihilator count {s}")
        axes = list(range(p)) + [p + perm[i] for i in range(s)]
        terms.append(Monomial(p, s, np.transpose(t.kernel, axes)))
    return OperatorExpr(op.space, tuple(terms))


# --- model operators -------------------------------------------------------

def linear_operator(kernels: KernelSet):
    """Diagonal operator sum eta*(x) K(x, y) eta(y)."""
    return OperatorExpr(kernels.space, (Monomial(1, 1, kernels.K),))


def source_operator(kernels: KernelSet):
    """Raising operator sum eta*(x) G(x)."""
    return OperatorExpr(kernels.space, (Monomial(1, 0, kernels.G),))


def interaction_operator(kernels: KernelSet, q=None):
    """Cubic interaction family, lowering by 2.

    ``lam * sum_{z,y} M(z;y) eta*(beta,z) eta(beta,z)
    [eta(alpha,z)^2 - 2q eta(alpha,z) eta(alpha,y) + q^2 eta(alpha,y)^2]``
    with both component indices summed (invariant convention).  The
    annihilation word is ordered (component pair, interaction pair);
    alternative orderings agree on symmetric vectors.

    N at the set's own q is built once per kernel set and kept there
    (``KernelSet.interaction``): a call with q None or equal to
    ``kernels.q`` returns that one operator, so its matrix and nonzero
    columns are computed once.  Another q builds a new operator.
    """
    if q is None or q == kernels.q:
        return kernels.interaction
    return _build_interaction(kernels, q)


def _build_interaction(kernels, q):
    """The operator :func:`interaction_operator` describes, at deformation q."""
    lam = kernels.lam
    space = kernels.space
    d, nb, A = space.d, space.n_base, space.A
    M = kernels.M
    kernel = np.zeros((d, d, d, d))
    for z in range(nb):
        for beta in range(A):
            c = space.encode_idx(beta, z)
            a1 = c
            for alpha in range(A):
                az = space.encode_idx(alpha, z)
                # q^0: self-interaction, both slots at z
                kernel[c, a1, az, az] += lam * M[z].sum()
                for y in range(nb):
                    if M[z, y] == 0.0:
                        continue
                    ay = space.encode_idx(alpha, y)
                    kernel[c, a1, az, ay] += -2.0 * q * lam * M[z, y]
                    kernel[c, a1, ay, ay] += q * q * lam * M[z, y]
    return OperatorExpr(space, (Monomial(1, 3, kernel),))


def hierarchy_operator(kernels: KernelSet):
    """K + N + G, the full operator of the correlation hierarchy."""
    op = linear_operator(kernels) + source_operator(kernels)
    if kernels.lam != 0.0:
        op = op + interaction_operator(kernels)
    return op


# --- materialization -------------------------------------------------------

def materialize(op, L, budget=DEFAULT_BUDGET):
    """Exact block-matrix family {(m, n): d^m x d^n} on levels <= L.

    A monomial (p, s) adds ``kron(matrix, I_{d^(n-s)})`` to block
    ``(n - s + p, n)`` for every column level ``n >= s``.  Summands are
    added in term order.
    """
    d = op.space.d
    check_budget(f"materialize: d={d}, L={L}", sum(d ** (2 * n) for n in range(L + 1)), budget)
    out = {}

    def add(m, n, mat):
        if (m, n) in out:
            out[(m, n)] = out[(m, n)] + mat
        else:
            out[(m, n)] = mat

    for t in op.terms:
        p, s = t.n_create, t.n_annihilate
        for n in range(s, min(L, L + s - p) + 1):
            add(n - s + p, n, np.kron(t.matrix, np.eye(d ** (n - s))))
    return out


def level_offsets(d, L):
    offs = [0]
    for n in range(L + 1):
        offs.append(offs[-1] + d**n)
    return offs


def to_dense_matrix(op, L, budget=DEFAULT_BUDGET):
    """Single dense matrix over the flattened truncated space."""
    d = op.space.d
    offs = level_offsets(d, L)
    D = offs[-1]
    check_budget(f"to_dense_matrix: dense {D}x{D} matrix", D * D, budget)
    out = np.zeros((D, D))
    for (m, n), mat in materialize(op, L, budget=budget).items():
        out[offs[m]:offs[m + 1], offs[n]:offs[n + 1]] += mat
    return out


# --- printing --------------------------------------------------------------

def format_operator(op):
    """Canonical text form with stable summand ordering, for golden tests."""
    if op.is_zero:
        return "0"
    lines, kernel_head = [], "  k = "
    for t in op.terms:
        p, s = t.n_create, t.n_annihilate
        create = " ".join(f"η*[x{i}]" for i in range(p))
        annihilate = " ".join(f"η[y{i}]" for i in range(s))
        slots = ",".join([f"x{i}" for i in range(p)] + [f"y{i}" for i in range(s)])
        head = f"k[{slots}]"
        lines.append(" ".join(x for x in (create, head, annihilate) if x))
        # the kernel's continuation lines align under its opening bracket
        lines.append(kernel_head + np.array2string(
            np.asarray(t.kernel), separator=", ", prefix=kernel_head,
            formatter={"float_kind": lambda v: repr(float(v))},
        ))
    return "\n".join(lines)


def kernel_residual(a, b, L=None):
    """Largest ``|a - b|`` kernel entry over the (p, s) keys with p, s <= L.

    Those keys are exactly the summands that act on levels <= L (all keys
    when L is None), and monomials with different keys are linearly
    independent there, so the residual is zero exactly when the two
    operators agree on levels <= L.  A key one side lacks is zero there.
    """
    a._check(b)
    ka = {(t.n_create, t.n_annihilate): t.kernel for t in a.terms}
    kb = {(t.n_create, t.n_annihilate): t.kernel for t in b.terms}
    worst = 0.0
    for key in ka.keys() | kb.keys():
        if L is None or max(key) <= L:
            worst = max(worst, float(np.abs(ka.get(key, 0.0) - kb.get(key, 0.0)).max()))
    return worst
