"""Solvers for the correlation hierarchy (K + N + G)|V> = 0.

Four routes: the canonical perturbation series in the interaction, the
terminating expansion driven by the interaction's right inverse, the
closed equation obtained from left invertibility of the source, and the
rational-interaction transformation whose solutions are exact
polynomials in the coupling.  The arbitrary projections that
parameterize the solution family default to the free (interaction-less)
solution; the terminating expansion accepts any seed in the
interaction's null space instead.  The series takes no seed: with K
invertible, the free solution is the only vector with level 0 equal to 1
in the null space of K + G, so the (K + G) null projection of any such
vector, a Monte-Carlo estimate included, is the free solution.
"""

from __future__ import annotations

import collections
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConditioningWarning,
    LevelOutOfRange,
    MissingGreen,
    SeriesDiverging,
    ShapeError,
    SingularClosure,
    SingularInteraction,
    SingularRationalForm,
)
from .fock import (
    DEFAULT_BUDGET, FockVector, check_budget, level_max_abs, storage_size, symmetrize, symmetrize_level
)
from .cuntz import (
    _add_product,
    _image_blocks,
    Monomial,
    OperatorExpr,
    add_levels,
    apply_to_levels,
    compose,
    hierarchy_operator,
    interaction_operator,
    linear_operator,
    source_operator,
)
from .inverse import (
    _raised_max_abs,
    _raising_step,
    apply_right_inverse_K_plus_G,
    left_inverse_G,
    right_inverse_K,
    right_inverse_N0,
    right_inverse_Nq,
)


@dataclass
class ResidualReport:
    per_level: dict
    trusted_levels: tuple
    rows: str

    def trusted_max(self):
        lo, hi = self.trusted_levels
        vals = [v for n, v in self.per_level.items() if lo <= n <= hi]
        return max(vals) if vals else 0.0

    def to_dict(self):
        return {
            "per_level": {int(k): float(v) for k, v in self.per_level.items()},
            "trusted_levels": list(self.trusted_levels),
            "rows": self.rows,
        }


def _level_norms(levels, g_max=None):
    """Max-abs norm of each level; a level left unwritten (None) has norm 0.0.

    With ``g_max``, the ``level_max_abs`` of a vector g, the list holds
    levels 0..L-1 of a term whose level L is ``g (x) t_{L-1}`` up to sign,
    and that level's norm follows from level L-1's by the product rule
    (:func:`inverse._raised_max_abs`), with no pass over it.  The solver
    loops check their increments for overflow here: a level holding a
    NaN or an inf raises the :class:`ShapeError` that building a
    FockVector from it would.
    """
    norms = {n: 0.0 if t is None else level_max_abs(t) for n, t in enumerate(levels)}
    if g_max is not None:
        norms[len(levels)] = _raised_max_abs(g_max, norms[len(levels) - 1])
    for n, norm in norms.items():
        if not math.isfinite(norm):
            raise ShapeError(f"level {n} contains non-finite entries")
    return norms


def residual_by_level(v, kernels, rows="all"):
    """Per-level max norm of (K + N + G)|V>.

    rows="equation" zeroes the image components whose first slot is a
    boundary-data row of the model: those rows encode initial data of
    the ensemble, not an equation of motion, so an empirical generating
    vector is only constrained on the complement.  Levels above L-2 (L-1
    for lam = 0) read truncated components and are flagged untrusted.

    The image is never held whole: each summand of K + N + G has one
    creator, so each output level comes as column blocks of its
    ``(d, d^(m-1))`` matrix (:func:`cuntz._image_blocks`), whose data
    rows are zeroed and whose max-abs is taken before the next block is
    formed.  Each norm lies within ``2 (n + 2) u`` times the level's
    largest entry of ``|K + N + G| |v|`` of the whole image's, n = d^3
    the interaction's inner dimension and u the unit roundoff, since a
    block's sums may add their terms in another order
    (:func:`cuntz._image_blocks`); on the oscillator's kernels, the
    series model at T = 12, L = 6 among them, the tests find the norms
    bit for bit.  A block holding a NaN or an inf raises
    :class:`ShapeError` naming its level.
    """
    if rows not in ("all", "equation"):
        raise ValueError(f"rows={rows!r} not in ('all', 'equation')")
    data_rows = list(kernels.data_rows) if rows == "equation" else []
    per_level = dict.fromkeys(range(v.L + 1), 0.0)
    for m, block in _image_blocks(hierarchy_operator(kernels), v.levels):
        if data_rows:
            block[data_rows] = 0.0
        norm = level_max_abs(block)
        if not math.isfinite(norm):  # a running max would drop a NaN: max(0.0, nan) is 0.0
            raise ShapeError(f"level {m} contains non-finite entries")
        per_level[m] = max(per_level[m], norm)
        del block  # free it before the next block is formed
    return ResidualReport(per_level=per_level, trusted_levels=_residual_window(kernels, v.L), rows=rows)


def _residual_window(kernels, L):
    """The levels (0, hi) that :func:`residual_by_level` trusts on a vector of level L.

    Level m of the image reads levels m - 1, m and, through N, m + 2; so
    hi = L - 2, or L - 1 when the interaction is off (lam = 0).
    """
    return 0, max(L - 2 if kernels.lam != 0.0 else L - 1, 0)


def propagate_residual_stderr(kernels, se_vector):
    """Correlation-blind error propagation of per-entry standard errors.

    Applies the hierarchy operator with squared kernels to the squared
    standard errors and takes the square root, ``sqrt((D o D) se^2)``
    with D the operator's matrix.  That is the standard error of each
    residual entry only when the estimated entries are uncorrelated;
    correlations between them, which are dropped, can make the true
    value larger or smaller.

    Of N only the nonzero columns (``Monomial.nonzero_columns``), or the
    whole matrix when it has none, are squared; their image is added after
    K's and G's, with the bits of applying the whole squared operator.
    """
    op, d = hierarchy_operator(kernels), kernels.space.d
    terms = {t.n_annihilate: t for t in op.terms}  # K reads one label, G none, N three
    kg = OperatorExpr(op.space, tuple(Monomial(t.n_create, s, t.kernel**2) for s, t in terms.items() if s < 3))
    if 3 in terms:  # squared before the errors are, so nonzero_columns' mask is gone first
        cols, block = terms[3].nonzero_columns
        n_square = (terms[3].matrix if cols is None else block) ** 2
    squares = [t**2 for t in se_vector.levels]
    levels = apply_to_levels(kg, squares)
    for n in range(3, len(squares) if 3 in terms else 0):
        source = squares[n].reshape(d**3, -1)
        image = (n_square @ (source if cols is None else source[cols])).reshape(squares[n - 2].shape)
        levels[n - 2] = image if levels[n - 2] is None else np.add(levels[n - 2], image, out=levels[n - 2])
    return FockVector(op.space, tuple(
        np.zeros((d,) * n) if t is None else np.sqrt(t, out=t) for n, t in enumerate(levels)
    ))


@dataclass
class SolveReport:
    V: FockVector
    method: str
    series_terms_used: dict
    residual: ResidualReport
    arbitrary_choice: str
    diverging: bool = False
    extras: dict = field(default_factory=dict)

    @property
    def trusted_levels(self):
        return self.residual.trusted_levels

    def to_dict(self):
        return {
            "method": self.method,
            "series_terms_used": {int(k): int(v) for k, v in self.series_terms_used.items()},
            "residual": self.residual.to_dict(),
            "trusted_levels": list(self.trusted_levels),
            "arbitrary_choice": self.arbitrary_choice,
            "diverging": self.diverging,
            "extras": {k: v for k, v in self.extras.items() if not isinstance(v, (FockVector, np.ndarray))},
        }


def free_solution(kernels, L, budget=DEFAULT_BUDGET):
    """Solution of (K + G)|V> = 0 with V_0 = 1: V_n = (-Green G)^(x n)."""
    return FockVector(kernels.space, tuple(_free_levels(kernels, L, budget)))


def _free_levels(kernels, L, budget):
    """The levels of :func:`free_solution` as a list of new, writable arrays."""
    if L < 0:
        raise LevelOutOfRange(f"L={L} must be >= 0")
    if kernels.green is None:
        raise MissingGreen("free solution needs the Green's function of K")
    d = kernels.space.d
    check_budget(f"free_solution: d={d}, L={L}", storage_size(d, L), budget)
    g = -(kernels.green @ kernels.G)
    levels = [np.ones(())]
    for n in range(1, L + 1):
        levels.append(np.multiply.outer(g, levels[-1]) if n > 1 else g.copy())
    return levels


def _nonzero_counts(term_norms):
    """Per level, the number of terms whose norm there is nonzero; untouched levels are absent."""
    return dict(collections.Counter(n for norms in term_norms for n, nz in norms.items() if nz != 0.0))


def perturbation_series(kernels, L, order=None, tol=None, symmetrized=False, budget=DEFAULT_BUDGET):
    """Canonical series: V = sum_i (-1)^i [(K+G)inv N]^i V0, V0 the free solution.

    The factor has mixed grading, so there is no termination or
    convergence guarantee; iteration stops at ``order``, or when the
    increment norm drops below ``tol``.  Three consecutive increment
    growths raise :class:`SeriesDiverging` with the partial result
    attached.  At lam = 0 the output equals the free solution bit for bit.

    The loop works on lists of level arrays, and the running sum, which
    starts as the free solution's own arrays, holds the only level-L
    array.  Each increment, the (K+G) right inverse W of the image
    ``-N t`` (the kernel set's own N, the image negated in place), is
    kept as its levels 0..L-1; from the second on, W writes it into the
    arrays of the previous one through ``out``.  The image has only
    levels <= L-2, so an increment's level L is the image of
    ``w_{L-1}`` under W's raising step ``-X`` (one creator, kernel
    ``-(green @ G)``), and is never stored: it is added into the sum in
    cache-sized blocks (:func:`cuntz._add_product`), its norm is the
    product of ``-X``'s and level L-1's (:func:`_level_norms`, as for the
    free solution's level L, ``(-g) (x) V_{L-1}``), and N's next GEMM
    forms only the rows of it that it reads
    (:func:`_raised_level_image`).  Every bit is that of storing each
    increment whole and adding it with :func:`add_levels`.  The only
    vector built is the one returned, and the residual holds only column
    blocks of its image next to it (:func:`residual_by_level`), so a
    call peaks at about the sum and the term's levels below L.  An
    increment with a non-finite entry raises :class:`ShapeError` naming
    its level; an overflow of the sum itself raises it when the result
    is built.
    """
    if order is None and tol is None:
        order = 2
    sums = _free_levels(kernels, L, budget)
    d, minus_x = kernels.space.d, _raising_step(kernels)
    g_max = level_max_abs(minus_x.kernel)
    N = interaction_operator(kernels)
    term_norms = [_level_norms(sums[:L], g_max) if L else _level_norms(sums)]
    term = sums  # the first step reads the free solution, level L included
    prev_norm = None
    growths = 0
    diverging = False
    # N reads only levels >= 3, so below L = 3 the free solution is the sum
    max_orders = 0 if L < 3 else order if order is not None else 64
    for i in range(1, max_orders + 1):
        image = apply_to_levels(N, term)[:L]
        if term is not sums:  # W writes every level above its lowest written one, so level L-1 too
            image[L - 2] = _raised_level_image(N, minus_x, term[L - 1])
        for t in image:
            if t is not None:
                np.subtract(0.0, t, out=t)  # -(N t) has the bits of (-N) t: a GEMM never returns -0.0
        term = apply_right_inverse_K_plus_G(kernels, image, out=None if term is sums else term)
        norms = _level_norms(term, g_max)
        norm = max(norms.values())
        if norm == 0.0:
            break
        add_levels(sums, term)
        _add_product(sums[L].reshape(d, -1), minus_x, term[L - 1].reshape(1, -1))
        term_norms.append(norms)
        if prev_norm is not None and norm > prev_norm:
            growths += 1
            diverging = True
            warnings.warn(f"perturbation increment grew at order {i} ({prev_norm:.3e} -> {norm:.3e})")
        else:
            growths = 0
        prev_norm = norm
        if tol is not None and norm < tol:
            break
        if growths >= 3:
            partial = _finish_perturbation(
                FockVector(kernels.space, tuple(sums)), kernels, term_norms, symmetrized, diverging=True
            )
            raise SeriesDiverging(
                f"increments grew over 3 consecutive orders (last {norm:.3e})", partial=partial
            )
    term = image = None  # the residual needs only the sum
    V = FockVector(kernels.space, tuple(sums))
    return _finish_perturbation(V, kernels, term_norms, symmetrized, diverging)


def _raised_level_image(N, minus_x, prev):
    """N's image of ``-X``'s image of ``prev``, forming only the rows of it that N's GEMM reads.

    N has one summand, one creator and three annihilators, and its GEMM
    reads the raised level as a ``(d^3, -1)`` matrix whose row
    ``i d^2 + r`` is ``(-g_i) prev_r + 0.0``, ``-g`` the kernel of ``-X``
    and prev read as ``(d^2, -1)``, each entry as :func:`cuntz._product`
    forms it.  Only N's nonzero columns (``Monomial.nonzero_columns``),
    or all d^3 rows when it has none, are formed and multiplied as
    :func:`apply_to_levels` multiplies them: the bits are those of
    forming the whole level and applying N to it.
    """
    (t,) = N.terms
    minus_g = minus_x.kernel
    d, shape = len(minus_g), np.shape(prev)
    prev = np.reshape(prev, (d * d, -1))
    cols, block = t.nonzero_columns
    rows = np.arange(d**3) if cols is None else cols
    level_rows = prev[rows % (d * d)]
    level_rows *= minus_g[rows // (d * d), None]
    level_rows += 0.0
    image = (t.matrix if cols is None else block) @ level_rows
    return image.reshape((d,) + shape[2:])


def _finish_perturbation(V, kernels, term_norms, symmetrized, diverging):
    if symmetrized:
        V = symmetrize(V)
    return SolveReport(
        V=V,
        method="perturbation",
        series_terms_used=_nonzero_counts(term_norms),
        residual=residual_by_level(V, kernels),
        arbitrary_choice="free solution pins the null-space projection" + ("; symmetrized" if symmetrized else ""),
        diverging=diverging,
        extras={"orders_used": len(term_norms) - 1},
    )


def _interaction_inverse(kernels):
    return right_inverse_Nq(kernels) if kernels.q != 0.0 else right_inverse_N0(kernels)


def _sum_series(step, levels):
    """The sum of the terms ``v, step(v), step(step(v)), ...`` as a level list, and each term's level norms.

    ``step`` maps a level list to a level list as :func:`apply_to_levels`
    does, so the series ends when a step leaves every level None
    (unwritten).  For ``step = -X`` with X strictly raising, the terms are
    ``(-X)^j v`` and the series, which then terminates, sums to
    ``(I + X)^{-1} v``.
    """
    sums, term_norms = [None] * len(levels), []
    while any(t is not None for t in levels):
        add_levels(sums, levels)
        term_norms.append(_level_norms(levels))
        levels = step(levels)
    return sums, term_norms


def _expansion_step(kernels, ninv):
    """``-Ninv (K + G)``, raising by 2 or more, on level lists; the sign is folded into K + G."""
    minus_KG = (linear_operator(kernels) + source_operator(kernels)) * -1.0
    return lambda levels: apply_to_levels(ninv, apply_to_levels(minus_KG, levels))


def lower_triangular_expansion(kernels, L, seed=None, budget=DEFAULT_BUDGET):
    """Terminating expansion V = sum_n (-1)^n [Ninv (K+G)]^n seed.

    Ninv (K+G) raises the level by at least 2, so every level receives a
    finite number of terms and the sum is exact.  The seed must be a
    null-space projection of the interaction; the default projects the
    free solution; a seed of another level or index space is a :class:`ShapeError`.
    """
    if seed is not None and (seed.L, seed.space) != (L, kernels.space):
        raise ShapeError(f"seed of L={seed.L} over {seed.space} does not fit L={L} over {kernels.space}")
    bundle = _interaction_inverse(kernels)
    seed_given = seed is not None
    if seed is None:
        seed = FockVector(kernels.space, tuple(bundle.apply_null_projector(free_solution(kernels, L, budget).levels)))
    sums, term_norms = _sum_series(_expansion_step(kernels, bundle.inverse), seed.levels)
    V = FockVector(seed.space, tuple(sums))
    # each power raises by at least 2, so level m can receive the powers
    # n with 2n <= m; which of those are nonzero depends on the seed
    structural = {m: min(m // 2, L // 2) + 1 for m in range(L + 1)}
    return SolveReport(
        V=V,
        method="triangular",
        series_terms_used=structural,
        residual=residual_by_level(V, kernels),
        arbitrary_choice=(
            "seed supplied by caller" if seed_given else "interaction null projection of the free solution"
        ),
        extras={"expansion_terms": len(term_norms), "nonzero_terms_per_level": _nonzero_counts(term_norms)},
    )


# entries per column block when the closed solve scans its operator (2 MB of floats)
_SCAN_ENTRIES = 2**18
# singular values below this share of a block's scale count as zero in the closed solve
_PIVOT_TOL = 1e-10


def closed_equation_solve(kernels, L, assumption="projected", budget=DEFAULT_BUDGET):
    """Closed equation for the interaction null projection of |V>.

    Verifies that the branching term ``Kinv Q_G N P_N`` (right inverse of
    K, source range projector, interaction, interaction null projector)
    vanishes identically, solves the projected closed equation ``A u = r``
    level by level for u = P_N |V>, and reconstructs |V> through the
    terminating expansion seeded with u.  The branching term is the only
    operator the solve composes, under ``budget``, as
    ``Kinv Q_G (N - (N R) N)``: it equals the term because
    ``N P_N = N - (N R) N``, and no factor has more slots than N.

    assumption: "projected" pins the projected right-hand side with the
    free solution; "symmetrized" uses the weaker permutation-symmetric
    variant, which symmetrizes each level of the interaction term's
    image before the final projection.

    Block structure.  ``A = P_N (I + inner) neum P_N``: P_N keeps the
    level, ``neum = (I + Ninv (K+G))^{-1}`` is the identity plus raising
    terms and ``inner = Kinv (G + Q_G N)`` raises by 1 or lowers by 2, so
    A is block lower triangular by level.  A composes nothing: it is
    applied to vectors as a chain, P_N as ``v - R (N v)``, neum as the
    series of ``-Ninv (K+G)``, inner as ``Kinv G (y + Ginv N y)``.  The
    forward pass applies it once to each solved level u_m and adds the
    image into ``A u``, so ``[A u_{<m}]_m`` is read from that sum when
    level m is solved, and ``closure_residual = |A u - r|_max`` at the end.
    The diagonal block is
    ``P_m (I + inner_{m,m+2} neum_{m+2,m}) P_m``,
    which above level L-2 is P_N's own block, so the solve there is the
    orthogonal projection onto range(P_N).  ``R N`` is one monomial that
    annihilates and creates k labels, k the annihilators of N (3 for the
    cubic interaction), so P_N is the identity below level k and its
    level-m block is its level-k block (x) I for m >= k.  On level k,
    range(P_N) is the null space of N's block there, the matrix of N's
    one summand, d^(k-2) x d^k: one SVD of that small block
    (:func:`_null_space_basis`) gives the range basis at every level
    m >= k, kept in that factored form.

    Dense blocks remain: the SVD's d^k x d^k V^T and A's diagonal blocks
    up to level L-2, d^(2m) entries at level m.  The budget binds on the
    largest and is checked before anything is composed, raising
    :class:`BudgetExceeded` with its shape.  The diagonal blocks come
    from one scan of A's columns on levels <= L-2, a few at a time, and
    the rank threshold's scale is the largest entry that scan reads,
    with a floor of 1.  No column above level L-2 is scanned: there
    neum's raising terms land past L, so such a column holds only P_N's
    block and the image of one step of ``inner``.

    The closed operator is not injective: its level-1 diagonal block
    always loses one direction (the sandwiched operator subtracts an
    oblique rank-one projector with unit trace), so the closure alone
    does not select a unique solution there.  The undetermined
    directions are pinned to the free solution and their dimensions
    reported in ``extras["null_dimensions"]``.  An inconsistent singular
    block raises :class:`SingularClosure`.
    """
    if assumption not in ("projected", "symmetrized"):
        raise ValueError(f"assumption={assumption!r} not in ('projected', 'symmetrized')")
    space = kernels.space
    d = space.d
    V0 = free_solution(kernels, L, budget)
    if kernels.lam == 0.0:
        return SolveReport(
            V=V0,
            method="closed",
            series_terms_used={},
            residual=residual_by_level(V0, kernels),
            arbitrary_choice="interaction absent: closure degenerates to the free solution",
            extras={"branching_residual": 0.0},
        )

    kb = right_inverse_K(kernels)
    lb = left_inverse_G(kernels)
    nb = _interaction_inverse(kernels)
    N_op = nb.operator
    P_N = nb.apply_null_projector
    # dense blocks: the V^T of the range basis's SVD on level k, k the
    # annihilators of N's one summand, and A's diagonal blocks up to L-2
    (n_term,) = N_op.terms
    k = n_term.n_annihilate
    dense_level = max(L - 2, min(k, L))
    side = d**dense_level
    check_budget(f"closed_equation_solve: dense level-{dense_level} block {side}x{side}", side * side, budget)

    # the branching term Kinv Q_G N P_N vanishes identically: the closed equation exists
    Q_G = compose(lb.operator, lb.inverse, budget=budget)
    N_P_N = N_op - compose(compose(N_op, nb.inverse, budget=budget), N_op, budget=budget, L=L)
    branching = compose(compose(kb.inverse, Q_G, budget=budget), N_P_N, budget=budget, L=L)
    branching_residual = max((float(np.abs(t.kernel).max()) for t in branching.terms), default=0.0)

    expansion = _expansion_step(kernels, nb.inverse)

    def closed_op(levels):
        """A applied to level tensors; a trailing batch axis applies it to columns."""
        y, _ = _sum_series(expansion, P_N(levels))
        # inner y = Kinv (G y + G Ginv N y) = Kinv G (y + Ginv N y)
        z = add_levels(apply_to_levels(lb.inverse, apply_to_levels(N_op, y)), y)
        z = apply_to_levels(kb.inverse, apply_to_levels(lb.operator, z))
        if assumption == "symmetrized":
            z = [None if t is None else symmetrize_level(t, n) for n, t in enumerate(z)]
        return P_N(add_levels(y, z))

    # level m: (U, reps), range(P_N) at level m is spanned by U (x) I_reps.
    # P_N is the identity below level k, where N annihilates nothing, and its
    # level-m block is its level-k block (x) I for m >= k
    range_basis = [(np.ones((1, 1)), d**m) for m in range(min(k, L + 1))]
    if k <= L:
        U = _null_space_basis(n_term.matrix)
        range_basis += [(U, d ** (m - k)) for m in range(k, L + 1)]

    # A's diagonal blocks up to level L-2, from its columns a block at a
    # time; the rank threshold's scale is the largest entry they read
    scale, diag = 1.0, {}
    step = max(1, _SCAN_ENTRIES // storage_size(d, L))
    for n in range(L - 1):
        diag[n] = np.empty((d**n, d**n))
        for j in range(0, d**n, step):
            cols = range(j, min(j + step, d**n))
            image = closed_op(_unit_columns(d, L, n, cols))
            scale = max(scale, max(level_max_abs(t) for t in image if t is not None))
            diag[n][:, cols.start:cols.stop] = image[n].reshape(d**n, len(cols))

    # right-hand side pinned by the free solution: (I - Kinv G Ginv K) V0
    r = apply_to_levels(lb.inverse, apply_to_levels(kb.operator, V0.levels))
    r = add_levels(apply_to_levels(kb.inverse * -1.0, apply_to_levels(lb.operator, r)), V0.levels)
    if assumption == "symmetrized":
        r = [symmetrize_level(t, n) for n, t in enumerate(r)]
    r = P_N(r)

    # forward substitution over levels; unknown constrained to range(P_N)
    pinned_target = P_N(V0.levels)
    u, image = [None] * (L + 1), [None] * (L + 1)
    null_dims = {}
    for m in range(L + 1):
        rhs = np.ravel(r[m] if image[m] is None else r[m] - image[m])
        basis = range_basis[m]
        U, reps = basis
        rank_p = U.shape[1] * reps
        if rank_p == 0:
            u[m] = np.zeros((d,) * m)
            continue
        if m > L - 2:
            # the block is P_m, whose range basis has orthonormal columns:
            # every singular value is one, so the solve is a projection
            rank_a = rank_p if 1.0 > _PIVOT_TOL * scale else 0
            c = _coefficients(basis, rhs) if rank_a else np.zeros(rank_p)
            fit = _expand(basis, c)
            null_basis = None if rank_a else np.eye(rank_p)
        else:
            reduced = np.tensordot(diag[m].reshape(d**m, -1, reps), U, axes=(1, 0))
            reduced = reduced.transpose(0, 2, 1).reshape(d**m, rank_p)
            u_r, sv_r, vt_r = np.linalg.svd(reduced, full_matrices=False)
            # rank relative to the scale of the whole closed operator, so that
            # a pure-noise block counts as fully singular rather than rank one
            rank_a = int((sv_r > _PIVOT_TOL * max(float(sv_r[0]), scale)).sum())
            c = vt_r[:rank_a].T @ ((u_r[:, :rank_a].T @ rhs) / sv_r[:rank_a])
            fit = reduced @ c
            null_basis = vt_r[rank_a:].T  # (rank_p, null_dim)
        null_dim = rank_p - rank_a
        misfit = float(np.abs(fit - rhs).max())
        if misfit > 1e-8 * max(1.0, float(np.abs(rhs).max())):
            raise SingularClosure(
                f"closed-equation block at level {m} inconsistent (misfit {misfit:.3e})",
                level=m,
                null_dim=null_dim,
            )
        if null_dim > 0:
            null_dims[m] = null_dim
            # pin the undetermined directions to the free-solution projection
            target = _coefficients(basis, np.ravel(pinned_target[m]))
            c = c + null_basis @ (null_basis.T @ (target - c))
        u[m] = _expand(basis, c).reshape((d,) * m)
        add_levels(image, closed_op([u[m] if n == m else None for n in range(L + 1)]))

    u_vec = FockVector(space, tuple(u))
    report = lower_triangular_expansion(kernels, L, seed=u_vec, budget=budget)
    closure_residual = max(_level_norms([b if a is None else a - b for a, b in zip(image, r)]).values())
    return SolveReport(
        V=report.V,
        method="closed",
        series_terms_used=report.series_terms_used,
        residual=report.residual,
        arbitrary_choice=f"projected right-hand side pinned by the free solution ({assumption})",
        extras={
            "branching_residual": branching_residual,
            "closure_residual": closure_residual,
            "null_dimensions": null_dims,
            "projection": u_vec,
        },
    )


def _null_space_basis(n_k):
    """Orthonormal basis of range(P_N) on level k, from N's level-k block ``n_k``.

    ``P_N = I - R N`` with ``N R N = N`` is a projector whose range on
    level k is the null space of ``n_k``, the matrix of N's one summand,
    d^(k-2) x d^k for the cubic interaction: bit for bit what applying N
    to the level's unit columns gives.  One full SVD of ``n_k`` gives
    that null space as the rows of V^T past its rank.  The rank counts
    singular values above ``_PIVOT_TOL`` of the largest: ``n_k`` scales
    with the coupling while P_N does not, so no absolute floor may
    enter, or a tiny coupling would read as rank zero and the whole
    level as range(P_N).
    """
    _, sv, vt = np.linalg.svd(n_k)
    rank_n = int((sv > _PIVOT_TOL * sv[0]).sum())
    return vt[rank_n:].T


def _expand(basis, c):
    """(U (x) I_reps) c for a factored basis (U, reps)."""
    U, reps = basis
    return (U @ c.reshape(-1, reps)).ravel()


def _coefficients(basis, x):
    """(U (x) I_reps)^T x for a factored basis (U, reps)."""
    U, reps = basis
    return (U.T @ x.reshape(-1, reps)).ravel()


def _unit_columns(d, L, n, cols):
    """Levels 0..L holding, as a batch of columns, the unit vectors ``cols`` of level n.

    Every other level is None, which the operator chain reads as zero.
    """
    unit = np.zeros((d**n, len(cols)))
    unit[cols, np.arange(len(cols))] = 1.0
    levels = [None] * (L + 1)
    levels[n] = unit.reshape((d,) * n + (len(cols),))
    return levels


def rational_solve(kernels, L, lam, symmetrized=False, budget=DEFAULT_BUDGET):
    """Hierarchy with a rational interaction: finite series in the coupling.

    Solves the polynomial transform of ``(K + G + lam (I - N)^{-1})|V> = 0``,
    the rational interaction with a unit numerator.  The solution
    operator raises the level by at least 2 per power of lam, so each
    level is an exact polynomial in lam; the series below terminates.  The free solution seeds the
    series; it is permutation symmetric, so its symmetric projection is
    held coupling-independent either way.  With ``symmetrized`` each
    power is additionally symmetrized: the output is then a fixed point
    of the symmetrizer and satisfies the symmetrized resolvent equation
    exactly (``extras["resolvent_residual"]``), while the plain
    transformed-equation residual is reported for information only.  That
    residual is a chain (:func:`rational_transformed_residual`), trusted on
    levels 1..L-2, which read V only up to level L: none below L = 3.
    """
    try:
        nb = _interaction_inverse(kernels)
    except SingularInteraction as exc:
        raise SingularRationalForm(f"auxiliary inverse unavailable: {exc}") from exc

    def step(term):
        """``-lam S W Ninv Y``, S the symmetrizer if ``symmetrized``, W the (K+G) right inverse.

        ``-Ninv Y = Ninv + Ninv^2 + ...`` terminates.  Ninv raises by 2
        and W leaves the levels below its input's lowest written one None,
        so each step raises the lowest written level by at least 2, and
        the outer series ends when a step leaves every level None.
        """
        s, _ = _sum_series(lambda t: apply_to_levels(nb.inverse, t), apply_to_levels(nb.inverse, term))
        w = [None if t is None else t * float(lam) for t in apply_right_inverse_K_plus_G(kernels, s)]
        return [t if t is None or not symmetrized else symmetrize_level(t, n) for n, t in enumerate(w)]

    V0 = free_solution(kernels, L, budget)
    sums, term_norms = _sum_series(step, V0.levels)
    V = FockVector(V0.space, tuple(sums))
    degrees = {n: max(j for j, norms in enumerate(term_norms) if j == 0 or norms[n] != 0.0) for n in range(L + 1)}

    res = ResidualReport(rational_transformed_residual(kernels, lam, V), trusted_levels=(1, L - 2), rows="all")
    extras = {"lambda": lam, "lambda_degree_per_level": degrees}
    if symmetrized:
        # the symmetrized series solves (I + lam S W Ninv Y) V = V0, i.e. V - step(V) = V0, exactly
        extras["resolvent_residual"] = max(
            level_max_abs(v - v0 if c is None else v - c - v0) for v, c, v0 in zip(V.levels, step(V.levels), V0.levels)
        )
    return SolveReport(
        V=V,
        method="rational",
        series_terms_used=_nonzero_counts(term_norms),
        residual=res,
        arbitrary_choice=(
            "symmetric projection of the free data held coupling-independent; termwise symmetrized"
            if symmetrized
            else "free data held coupling-independent"
        ),
        extras=extras,
    )


def rational_transformed_residual(kernels, lam, V):
    """Per-level max norm of ``((I - N)(K + G) + lam I) V``, the polynomial form of the rational equation.

    A chain on level lists, composing nothing: ``y = (K + G) V``, the
    kernel set's N applied to y and subtracted in place, then ``lam V``
    added a level at a time.  y stops at level L, so the chain drops only
    ``N (G (x) V_L)``, which lands on level L - 1, untrusted in
    :func:`rational_solve`'s window.
    """
    y = apply_to_levels(linear_operator(kernels) + source_operator(kernels), V.levels)
    for n, t in enumerate(apply_to_levels(interaction_operator(kernels), y)):
        if t is not None:
            y[n] -= t
    return _level_norms(add_levels(y, (lam * t for t in V.levels)))


def lambda_degree_check(solve_fn, lambda_grid, L, tol=1e-10):
    """Fit the minimal polynomial degree in lam of each level component.

    ``solve_fn(lam)`` must return a FockVector; the fit is entrywise
    over the grid.  Reports {level: (degree, residual)} where degree is
    the smallest one whose interpolation residual falls below tol times
    the component scale.  A fit whose Vandermonde matrix has condition
    number above 1e8 warns with :class:`ConditioningWarning`.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size < 3:
        raise ValueError("lambda grid needs at least 3 points")
    vecs = [solve_fn(lam) for lam in grid]
    out = {}
    for n in range(L + 1):
        stack = np.stack([np.ravel(v.levels[n]) for v in vecs])  # (n_lam, entries)
        scale = max(float(np.abs(stack).max()), 1.0)
        chosen = None
        for deg in range(grid.size - 1):
            vand = np.vander(grid, deg + 1, increasing=True)
            if np.linalg.cond(vand) > 1e8:
                warnings.warn(
                    f"degree-{deg} fit over the lambda grid is ill conditioned", ConditioningWarning
                )
            coeff, *_ = np.linalg.lstsq(vand, stack, rcond=None)
            resid = float(np.abs(vand @ coeff - stack).max())
            if resid <= tol * scale:
                chosen = (deg, resid)
                break
        if chosen is None:
            chosen = (grid.size - 1, float("nan"))
        out[n] = chosen
    return out
