"""Explicit one-sided inverses, null-space projectors and identity checks.

Right inverses satisfy ``A R = I - P0`` (the vacuum projector is the
unavoidable defect of lowering the grading), left inverses ``L A = I``.
With ``P0 = I - N``, ``I - P0`` is the number operator N.  Both kinds of
inverse are non-unique.  A bundle is the pair (A, R); the projectors
``I - R A`` and ``A R`` that parameterize the freedom are composed by
the identity checks that compare them, with the check's own truncation
level and budget.

Products that feed a truncated result are composed with the truncation
level, ``compose(a, b, L=L)``, so no kernel that acts only above level L
is built.  Identities are checked on the canonical kernels of both sides
with :func:`kernel_residual`: monomials with different (p, s) are
linearly independent on the truncated space, so nothing is
materialized.  :func:`dense_residual` compares materialized blocks and
serves as the reference for that check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DivisionByZeroSource,
    MissingGreen,
    NotNilpotent,
    ResonantDeformation,
    SingularInteraction,
)
from .fock import DEFAULT_BUDGET, FockVector, check_budget, vacuum
from .cuntz import (
    _add_product,
    _product,
    Monomial,
    OperatorExpr,
    add_levels,
    adjoint,
    apply_operator,
    apply_to_levels,
    compose,
    eta,
    eta_star,
    identity_operator,
    interaction_operator,
    kernel_residual,
    level_offsets,
    linear_operator,
    materialize,
    number_operator,
    source_operator,
    vacuum_projector,
    zero_operator,
)

EXACT_TOL = 1e-12   # pure delta/integer algebra
FLOAT_TOL = 1e-10   # after Green's-function floating arithmetic


def truncate_operator(op, L):
    """Drop summands that cannot act within levels <= L.

    Composing with a truncation level, ``compose(a, b, L=L)``, gives the
    same operator bit for bit without building the dropped kernels.
    """
    terms = tuple(t for t in op.terms if t.n_create <= L and t.n_annihilate <= L)
    return OperatorExpr(op.space, terms)


@dataclass(frozen=True)
class InverseBundle:
    """A one-sided inverse R of ``operator`` A: the pair (A, R).

    A right inverse satisfies ``A R = I - P0``, a left inverse
    ``R A = I``.  The projectors the pair defines, ``I - R A`` and
    ``A R``, are not stored: an identity check composes the one it
    compares, with its own truncation level and budget, and solvers
    apply the null projector with :meth:`apply_null_projector`, as a
    chain of vector operations.  ``neumann`` is the Neumann inverse
    ``(I + X)^{-1}`` that the inverse was built from, where it has one,
    so that identity checks reuse it.
    """

    operator: OperatorExpr
    inverse: OperatorExpr = field(repr=False, compare=False)
    side: str                      # "right" | "left"
    neumann: OperatorExpr | None = field(default=None, repr=False, compare=False)

    def apply_null_projector(self, levels):
        """``P v = v - R (A v)`` on level tensors, composing no projector.

        Takes and returns level lists as :func:`apply_to_levels` does; every
        returned level is a new array, or None where neither v nor
        ``R A v`` has one.  Where R never lowers a level, as for every
        bundle here, what truncation drops from ``A v`` would land above
        level L, so the result equals the composed ``I - R A`` applied to
        v, to rounding.
        """
        if self.side != "right":
            raise ValueError("only a right inverse defines the null projector I - R A")
        image = apply_to_levels(self.inverse, apply_to_levels(self.operator, levels))
        # -(R A v) + v is bit-equal to v - R A v
        return add_levels([None if r is None else np.negative(r, out=r) for r in image], levels)


def right_inverse_K(kernels):
    """Diagonal right inverse of the linear part, kernel = Green's function."""
    if kernels.green is None:
        raise MissingGreen("kernel set carries no Green's function for K")
    R = OperatorExpr(kernels.space, (Monomial(1, 1, kernels.green),))
    return InverseBundle(operator=linear_operator(kernels), inverse=R, side="right")


def neumann_inverse(op, L, budget=DEFAULT_BUDGET):
    """Exact inverse of ``I + R`` with R strictly raising.

    R is nilpotent on the truncated space, so the alternating sum
    ``sum_j (-R)^j`` terminates after floor(L/k) powers (k the minimal
    raising degree) and composes with the input to the identity on every
    level <= L.
    """
    scalar = 0.0
    rest = []
    for t in op.terms:
        if t.n_create == 0 and t.n_annihilate == 0:
            scalar += float(t.kernel)
        else:
            rest.append(t)
    if abs(scalar - 1.0) > EXACT_TOL:
        raise NotNilpotent(f"operator is not of unit-plus-raising form (scalar part {scalar})")
    R = OperatorExpr(op.space, tuple(rest))
    if R.is_zero:
        return identity_operator(op.space)
    gradings = R.gradings()
    if min(gradings) < 1:
        raise NotNilpotent(f"remainder has non-raising summands (gradings {gradings})")
    k = min(gradings)
    out = identity_operator(op.space)
    power = identity_operator(op.space)
    for _ in range(L // k):
        power = compose(power, R, budget=budget, L=L) * -1.0
        if power.is_zero:
            break
        out = out + power
    return out


def right_inverse_K_plus_G(kernels, L, budget=DEFAULT_BUDGET):
    """Right inverse ``W = (I + Kinv G)^{-1} Kinv`` of K + G, composed to level L.

    W's kernel has L + 1 slots, past the budget at sizes where applying
    it by forward substitution, :func:`apply_right_inverse_K_plus_G`, is
    cheap; only identity checks compose it.
    """
    kb = right_inverse_K(kernels)
    G_op = source_operator(kernels)
    X = compose(kb.inverse, G_op, budget=budget)  # raising 1
    neum = neumann_inverse(identity_operator(kernels.space) + X, L, budget=budget)
    W = compose(neum, kb.inverse, budget=budget, L=L)
    return InverseBundle(operator=kb.operator + G_op, inverse=W, side="right", neumann=neum)


def _raising_step(kernels):
    """``-X = -(green @ G) eta*``, the raising step of the (K + G) right inverse, as one pure-creation summand."""
    return Monomial(1, 0, -(kernels.green @ kernels.G))


def _raised_max_abs(g_max, prev_max):
    """:func:`level_max_abs` of ``0.0 - g (x) prev`` or ``g (x) prev``, from the ``level_max_abs`` of g and prev.

    Each entry's magnitude is the rounded ``|g_i| |prev_j|`` and rounding
    is monotone, so the largest is the rounded product of the two
    largest, bit for bit, with no pass over the level.  For finite g and
    prev it is non-finite exactly when the level holds an inf.
    """
    return float(g_max * prev_max) + 0.0


def apply_right_inverse_K_plus_G(kernels, levels, out=None):
    """Apply the default right inverse W of K + G to level arrays, composing no kernel.

    ``W = (I + X)^{-1} Kinv`` with ``Kinv`` the Green's function on the
    first slot and ``X = Kinv G = g eta*``, ``g = green @ G``, which
    raises by exactly one level.  So ``(I + X) w = Kinv v`` is lower
    bidiagonal over levels and is solved by forward substitution:
    ``w_0 = 0`` and ``w_n = green . v_n + (-X) w_{n-1}``, one
    ``(d x d) @ (d x d^(n-1))`` GEMM and one product of the summand
    ``-X`` (:func:`_raising_step`) per level, so memory stays linear in
    the vector size; it is the one ``(I + X)^{-1}`` not applied as a
    series.

    Levels are lists as :func:`apply_to_levels` takes and returns them,
    with the same trailing batch shape.  Level 0 of ``W v`` is zero
    (Kinv annihilates the vacuum) and None; level n >= 1 is None exactly
    when levels 1..n of v are all None.  A None level of v above a
    written one reads as zero and costs no GEMM: the level is ``-X``'s
    image of ``w_{n-1}``, written in one pass (:func:`cuntz._product`)
    with the bits the GEMM of a zero level and the update would give.  A
    written level adds that image into its GEMM in column blocks
    (:func:`cuntz._add_product`).  The result equals the composed inverse
    ``right_inverse_K_plus_G(kernels, L).inverse`` applied to v, to 1e-12
    of each level's largest entry, and ``(K + G) W v = v`` on levels 1..L.

    Without ``out`` every written level is a new array.  With ``out``, a
    level list of None or C-contiguous arrays of the result's shapes,
    each written level lands in the array there, or in a new array where
    the entry is None; an unwritten level's entry becomes None, and
    ``out`` is returned.  The bits are those of the call without ``out``.
    """
    if kernels.green is None:
        raise MissingGreen("kernel set carries no Green's function for K")
    d, green = kernels.space.d, kernels.green
    minus_x = _raising_step(kernels)
    w = [None] * len(levels) if out is None else out
    w[0] = None
    batch = next((np.shape(t)[n:] for n, t in enumerate(levels) if t is not None), ())
    for n in range(1, len(levels)):
        prev = w[n - 1]
        if levels[n] is None and prev is None:
            w[n] = None
            continue
        buf = None if w[n] is None else np.reshape(w[n], (d, -1))
        if levels[n] is None:
            level = _product(minus_x, np.reshape(prev, (1, -1)), out=buf)
        else:
            level = np.matmul(green, np.reshape(levels[n], (d, -1)), out=buf)
            if prev is not None:
                _add_product(level, minus_x, np.reshape(prev, (1, -1)))
        w[n] = level.reshape((d,) * n + batch)
    return w


def left_inverse_G(kernels):
    """Lowering left inverse of the source operator, uniform over the labels where G is nonzero.

    Its kernel is ``chi / G`` with ``chi = 1/n`` on the n labels where G
    is nonzero and 0 elsewhere.  Any weight chi that sums to 1 on those
    labels gives ``Ginv G = I``; the closed solve returns the same
    solution, to rounding, for each of them, so the weight is not a setting.
    """
    space = kernels.space
    nz = kernels.G != 0.0
    if not nz.any():
        raise DivisionByZeroSource("G vanishes everywhere; no left inverse exists")
    weights = np.where(nz, (1.0 / nz.sum()) / np.where(nz, kernels.G, 1.0), 0.0)
    G_op = source_operator(kernels)
    Linv = OperatorExpr(space, (Monomial(0, 1, weights),))
    return InverseBundle(operator=G_op, inverse=Linv, side="left")


def _interaction_weights(kernels):
    w = kernels.lam * kernels.Mdiag
    zero = [int(z) for z in np.nonzero(w == 0.0)[0]]
    if zero:
        raise SingularInteraction(
            f"effective interaction weight lam*M(z) vanishes at base labels {zero}"
        )
    return w


def _base_labels(space):
    """Base-label index of every flat label (labels are alpha-major)."""
    return np.arange(space.d) % space.n_base


def right_inverse_N0(kernels):
    """Right inverse ``A^{-1} sum_y (eta*(y))^2 / (lam M(y))`` of the undeformed cubic interaction (raising 2)."""
    space = kernels.space
    w = _interaction_weights(kernels)
    R = OperatorExpr(space, (Monomial(2, 0, np.diag(1.0 / (space.A * w[_base_labels(space)]))),))
    return InverseBundle(operator=interaction_operator(kernels, q=0.0), inverse=R, side="right")


def deformation_obstruction(kernels):
    """O(z) = -2q M(z;z)/M(z) + q^2 sum_y M(z;y)/M(y)."""
    M = kernels.M
    Mdiag = kernels.Mdiag
    q = kernels.q
    return -2.0 * q * np.diag(M) / Mdiag + q * q * (M / Mdiag[None, :]).sum(axis=1)


def right_inverse_Nq(kernels):
    """Right inverse of the deformed cubic interaction.

    Exists when |1 + O(z)| exceeds EXACT_TOL; the inverse multiplies the
    plain undeformed inverse by the diagonal pair weighted with
    1/(1 + O(z)).
    """
    space = kernels.space
    w = _interaction_weights(kernels)
    O = deformation_obstruction(kernels)
    bad = [int(z) for z in np.nonzero(np.abs(1.0 + O) <= EXACT_TOL)[0]]
    if bad:
        raise ResonantDeformation(
            f"1 + O(z) vanishes at base labels {bad}: deformed inverse undefined",
            labels=bad,
        )
    d, A = space.d, space.A
    base = _base_labels(space)
    Nq = interaction_operator(kernels)
    k = np.zeros((d, d, d, d))
    i, j = np.arange(d)[:, None], np.arange(d)[None, :]
    k[i, i, j, j] = 1.0 / (A * w[base][:, None] * (1.0 + O[base])[None, :])
    R = OperatorExpr(space, (Monomial(3, 1, k),))
    return InverseBundle(operator=Nq, inverse=R, side="right")


# --- residual utilities -----------------------------------------------------

def dense_residual(lhs, rhs, L, budget=DEFAULT_BUDGET):
    """Max-abs difference of two materialized operators on levels <= L.

    The two :func:`materialize` families are compared block by block; a
    block one side lacks is zero.  The budget binds on ``D^2``, the
    entries of one operator's dense ``D x D`` matrix over levels <= L:
    each family holds a subset of that matrix's blocks.  It is the
    materialized reference for :func:`kernel_residual`.
    """
    D = level_offsets(lhs.space.d, L)[-1]
    check_budget(f"dense_residual: dense {D}x{D} comparison", D * D, budget)
    a = materialize(lhs, L, budget=budget)
    b = materialize(rhs, L, budget=budget)
    worst = [0.0]
    for key in a.keys() | b.keys():
        worst.append(np.abs(a.get(key, 0.0) - b.get(key, 0.0)).max())
    return float(np.max(worst))


# --- generalized-inverse axiom report ---------------------------------------

@dataclass
class AxiomReport:
    """Outcome of the four generalized-inverse conditions for a pair (A, G)."""

    general: float            # |AGA - A|
    reflexive: float          # |GAG - G|
    normalized: float         # |(AG)* - AG|
    reverse_normalized: float # |(GA)* - GA|
    q_idempotent: float       # |(GA)^2 - GA|
    qprime_idempotent: float  # |(AG)^2 - AG|
    tol: float

    def to_dict(self):
        return {
            "general": self.general,
            "reflexive": self.reflexive,
            "normalized": self.normalized,
            "reverse_normalized": self.reverse_normalized,
            "q_idempotent": self.q_idempotent,
            "qprime_idempotent": self.qprime_idempotent,
            "tol": self.tol,
            "passes": {
                n: bool(getattr(self, n) <= self.tol)
                for n in (
                    "general",
                    "reflexive",
                    "normalized",
                    "reverse_normalized",
                    "q_idempotent",
                    "qprime_idempotent",
                )
            },
        }


def generalized_inverse_report(A_op, G_op, L, budget=DEFAULT_BUDGET):
    """Measure the four axioms (never assume them) plus projector idempotency.

    Each value is the :func:`kernel_residual` of the two sides on levels <= L;
    a condition passes at ``FLOAT_TOL``.
    """
    AG = compose(A_op, G_op, budget=budget)
    GA = compose(G_op, A_op, budget=budget)
    return AxiomReport(
        general=kernel_residual(compose(AG, A_op, budget=budget, L=L), A_op, L),
        reflexive=kernel_residual(compose(GA, G_op, budget=budget, L=L), G_op, L),
        normalized=kernel_residual(adjoint(AG), AG, L),
        reverse_normalized=kernel_residual(adjoint(GA), GA, L),
        q_idempotent=kernel_residual(compose(GA, GA, budget=budget, L=L), GA, L),
        qprime_idempotent=kernel_residual(compose(AG, AG, budget=budget, L=L), AG, L),
        tol=FLOAT_TOL,
    )


# --- the identity catalog ----------------------------------------------------

@dataclass
class IdentityResult:
    id: str
    description: str
    residual: float | None
    tol: float
    trusted_levels: tuple
    passed: bool | None
    skipped_reason: str | None = None
    note: str | None = None

    def to_dict(self):
        return {
            "id": self.id,
            "description": self.description,
            "residual": self.residual,
            "tol": self.tol,
            "trusted_levels": list(self.trusted_levels),
            "pass": self.passed,
            "skipped_reason": self.skipped_reason,
            "note": self.note,
        }


def identity_catalog(kernels, L, budget=DEFAULT_BUDGET):
    """Run every algebraic identity the package relies on; report residuals.

    Entries whose preconditions fail (zero source entries, vanishing
    interaction weight, resonant deformation) are reported as skipped
    with the reason; the remaining entries still run.
    """
    space = kernels.space
    results = []

    def entry(id_, description, residual, tol, trusted, note=None):
        results.append(
            IdentityResult(
                id=id_,
                description=description,
                residual=float(residual),
                tol=tol,
                trusted_levels=trusted,
                passed=bool(residual <= tol),
                note=note,
            )
        )

    def skipped(id_, description, reason):
        results.append(
            IdentityResult(
                id=id_,
                description=description,
                residual=None,
                tol=float("nan"),
                trusted_levels=(0, L),
                passed=None,
                skipped_reason=reason,
            )
        )

    ident = identity_operator(space)
    p0 = vacuum_projector(space)
    one_minus_p0 = number_operator(space)

    def residual(lhs, rhs):
        return kernel_residual(lhs, rhs, L)

    def product(a, b):
        return compose(a, b, budget=budget, L=L)

    # generator relation, exhaustively over labels
    res = 0.0
    for i in range(space.d):
        for j in range(space.d):
            c = compose(eta(space, i), eta_star(space, j), budget=budget)
            val = float(c.terms[0].kernel) if c.terms else 0.0
            res = max(res, abs(val - (1.0 if i == j else 0.0)))
    entry("cuntz_relation", "eta(i) eta*(j) = delta_ij I, all label pairs", res, EXACT_TOL, (0, L))

    vac = vacuum(space, L, budget=budget)
    ones = FockVector(space, tuple(np.ones_like(t) for t in vac.levels))
    entry(
        "unit_decomposition",
        "|0><0| = I - sum_i eta*(i) eta(i) maps the all-ones vector to the vacuum",
        (apply_operator(p0, ones) - vac).max_abs(),
        EXACT_TOL,
        (0, L),
    )

    if kernels.green is None:
        skipped("right_inverse_linear", "K Kinv = I - P0", "no Green's function")
        return results

    kb = right_inverse_K(kernels)
    P_K = ident - product(kb.inverse, kb.operator)
    entry(
        "right_inverse_linear",
        "K Kinv = I - P0",
        residual(compose(kb.operator, kb.inverse, budget=budget), one_minus_p0),
        FLOAT_TOL,
        (0, L),
    )
    entry(
        "null_projector_kills_right_inverse",
        "P_K Kinv = 0",
        residual(product(P_K, kb.inverse), zero_operator(space)),
        FLOAT_TOL,
        (0, L),
    )

    kgb = right_inverse_K_plus_G(kernels, L, budget=budget)
    P_KG = ident - product(kgb.inverse, kgb.operator)
    entry(
        "right_inverse_linear_plus_source",
        "(K+G)(K+G)inv = I - P0",
        residual(product(kgb.operator, kgb.inverse), one_minus_p0),
        FLOAT_TOL,
        (0, L),
    )
    entry(
        "null_space_invariance",
        "P_{K+G} = (I + Kinv G)^{-1} P_K P_{K+G}",
        residual(P_KG, product(product(kgb.neumann, P_K), P_KG)),
        FLOAT_TOL,
        (0, L),
    )
    for name, proj in (("P_K", P_K), ("P_{K+G}", P_KG)):
        entry(
            f"null_projector_idempotent[{name}]",
            f"{name}^2 = {name}",
            residual(product(proj, proj), proj),
            FLOAT_TOL,
            (0, L),
        )
    entry(
        "vacuum_inside_null_space",
        "P0 P_{K+G} = P0",
        residual(product(p0, P_KG), p0),
        FLOAT_TOL,
        (0, L),
    )

    # left inverse of the source, with the default weight
    note = "chi restricted to nonzero-source labels" if np.any(kernels.G == 0.0) else None
    try:
        lb = left_inverse_G(kernels)
    except DivisionByZeroSource as exc:
        skipped("left_inverse_source", "Ginv G = I", str(exc))
        lb = None
    if lb is not None:
        entry(
            "left_inverse_source",
            "Ginv G = I",
            residual(compose(lb.inverse, lb.operator, budget=budget), ident),
            EXACT_TOL,
            (0, L - 1),
            note=note,
        )
        Q_G = product(lb.operator, lb.inverse)
        entry(
            "source_range_projector_idempotent",
            "Q_G^2 = Q_G",
            residual(product(Q_G, Q_G), Q_G),
            EXACT_TOL,
            (0, L),
        )
        sandwich = compose(
            compose(lb.inverse, kb.operator, budget=budget),
            compose(kb.inverse, lb.operator, budget=budget),
            budget=budget,
        )
        entry(
            "sandwich_identity",
            "(Ginv K)(Kinv G) = I",
            residual(sandwich, ident),
            FLOAT_TOL,
            (1, L - 1),
            note="I - P0 away from the vacuum; exact algebra fixes the vacuum column too",
        )

    # interaction inverses
    try:
        nb0 = right_inverse_N0(kernels)
    except SingularInteraction as exc:
        skipped("right_inverse_interaction", "N(0) R(0) = I - P0", str(exc))
        nb0 = None
    if nb0 is not None:
        Q_N0 = product(nb0.operator, nb0.inverse)
        entry(
            "right_inverse_interaction",
            "N(0) R(0) = I - P0",
            residual(Q_N0, one_minus_p0),
            FLOAT_TOL,
            (0, max(L - 2, 0)),
        )
        entry(
            "interaction_range_projector_idempotent",
            "Q_{N(0)}^2 = Q_{N(0)}",
            residual(product(Q_N0, Q_N0), Q_N0),
            FLOAT_TOL,
            (0, max(L - 2, 0)),
        )
        # contraction factor: (eta(z))^2 (eta*(y))^2 = A delta_zy I
        base = _base_labels(space)
        pairs = [np.diag(1.0 * (base == z)) for z in range(space.n_base)]
        lowering = [OperatorExpr(space, (Monomial(0, 2, p),)) for p in pairs]
        raising = [OperatorExpr(space, (Monomial(2, 0, p),)) for p in pairs]
        res = 0.0
        for z, low in enumerate(lowering):
            for y, high in enumerate(raising):
                c = compose(low, high, budget=budget)
                val = float(c.terms[0].kernel) if c.terms else 0.0
                res = max(res, abs(val - (space.A if z == y else 0.0)))
        entry(
            "contraction_factor",
            "paired lowering against paired raising contracts to the component count",
            res,
            EXACT_TOL,
            (0, L),
        )

        try:
            nbq = right_inverse_Nq(kernels)
        except ResonantDeformation as exc:
            skipped("deformed_right_inverse", "N(q) R(q) = I - P0", str(exc))
            nbq = None
        if nbq is not None:
            entry(
                "deformed_right_inverse",
                "N(q) R(q) = I - P0",
                residual(product(nbq.operator, nbq.inverse), one_minus_p0),
                FLOAT_TOL,
                (0, max(L - 2, 0)),
            )
            O = deformation_obstruction(kernels)
            target = one_minus_p0 + OperatorExpr(space, (Monomial(1, 1, np.diag(O[base])),))
            entry(
                "deformed_intermediate",
                "N(q) R(0) = I - P0 + sum_z O(z) eta*(z) eta(z)",
                residual(product(nbq.operator, nb0.inverse), target),
                FLOAT_TOL,
                (0, max(L - 2, 0)),
            )

    # generalized-inverse axioms, right and left flavors
    rep = generalized_inverse_report(kb.operator, kb.inverse, L, budget=budget)
    entry("penrose_general[K]", "A G A = A for the linear pair", rep.general, FLOAT_TOL, (0, L))
    entry("penrose_reflexive[K]", "G A G = G for the linear pair", rep.reflexive, FLOAT_TOL, (0, L))
    if lb is not None:
        repl = generalized_inverse_report(lb.operator, lb.inverse, L, budget=budget)
        entry("penrose_general[G]", "A G A = A for the source pair", repl.general, FLOAT_TOL, (0, L - 1))
        entry("penrose_reflexive[G]", "G A G = G for the source pair", repl.reflexive, FLOAT_TOL, (0, L - 1))
    return results
