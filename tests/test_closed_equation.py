"""The level-by-level closed solve against the dense construction.

The reference below is the dense route: the closed operator
``A = P_N (I + inner) neum P_N`` (with the symmetrizer as a matrix in
front of ``inner`` for the symmetrized assumption) is one D x D matrix
built from ``to_dense_matrix``, and forward substitution takes two SVDs
of each level's blocks.  It is kept here, not in the library, as the
slow path the fast one is checked against.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freefock import (
    apply_operator,
    build_oscillator_model,
    closed_equation_solve,
    compose,
    free_solution,
    identity_operator,
    lower_triangular_expansion,
    neumann_inverse,
    source_operator,
    symmetrize,
    to_dense_matrix,
)
from freefock import cuntz, inverse, solver
from freefock.cuntz import Monomial, OperatorExpr, level_offsets
from freefock.errors import BudgetExceeded, ResonantDeformation, SingularClosure
from freefock.fock import storage_size
from freefock.inverse import (
    InverseBundle,
    left_inverse_G,
    right_inverse_K,
    right_inverse_N0,
    right_inverse_Nq,
    truncate_operator,
)
from helpers import build_toy_model, flatten_vector, unflatten_vector

DENSE_BUDGET = 10**8
MAX_STORAGE = 400  # keeps each dense reference under a few hundred milliseconds


def interaction_inverse(kernels):
    return right_inverse_Nq(kernels) if kernels.q != 0.0 else right_inverse_N0(kernels)


def interaction_null_projector(kernels, L):
    """The composed ``P_N = I - R N`` to level L, which the solve never forms."""
    nb = interaction_inverse(kernels)
    return identity_operator(kernels.space) - compose(nb.inverse, nb.operator, L=L)


def symmetrizer_matrix(space, L):
    eye = np.eye(storage_size(space.d, L))
    cols = [flatten_vector(symmetrize(unflatten_vector(space, L, col))) for col in eye.T]
    return np.column_stack(cols)


def dense_closed_system(kernels, L, assumption="projected"):
    """Dense P_N and A, the right-hand side r and the pinning target P_N V0."""
    space = kernels.space
    kb = right_inverse_K(kernels)
    lb = left_inverse_G(kernels)
    nb = interaction_inverse(kernels)
    P_N = interaction_null_projector(kernels, L)
    KG = kb.operator + source_operator(kernels)
    neum = neumann_inverse(identity_operator(space) + compose(nb.inverse, KG), L)
    Q_G = compose(lb.operator, lb.inverse)
    inner_op = compose(kb.inverse, source_operator(kernels) + compose(Q_G, nb.operator))
    P = to_dense_matrix(P_N, L, budget=DENSE_BUDGET)
    neum_mat = to_dense_matrix(neum, L, budget=DENSE_BUDGET)
    inner_mat = to_dense_matrix(truncate_operator(inner_op, L), L, budget=DENSE_BUDGET)
    if assumption == "symmetrized":
        inner_mat = symmetrizer_matrix(space, L) @ inner_mat
    A = P @ (np.eye(len(P)) + inner_mat) @ neum_mat @ P
    V0 = free_solution(kernels, L)
    proj = truncate_operator(
        identity_operator(space) - compose(compose(kb.inverse, lb.operator), compose(lb.inverse, kb.operator)),
        L,
    )
    r = apply_operator(proj, V0)
    if assumption == "symmetrized":
        r = symmetrize(r)
    r = apply_operator(P_N, r)
    return P, A, flatten_vector(r), flatten_vector(apply_operator(P_N, V0))


def dense_closed_solve(kernels, L, assumption="projected", pivot_tol=1e-10):
    """Forward substitution over dense blocks: (u, null_dims, closure_residual)."""
    P, A, r, pinned = dense_closed_system(kernels, L, assumption)
    offs = level_offsets(kernels.space.d, L)
    u = np.zeros(offs[-1])
    null_dims = {}
    for m in range(L + 1):
        sl = slice(offs[m], offs[m + 1])
        rhs = r[sl] - A[sl, : offs[m]] @ u[: offs[m]]
        u_svd, sv, _ = np.linalg.svd(P[sl, sl])
        rank_p = int((sv > pivot_tol * max(sv[0], 1.0)).sum())
        if rank_p == 0:
            continue
        basis = u_svd[:, :rank_p]
        reduced = A[sl, sl] @ basis
        u_r, sv_r, vt_r = np.linalg.svd(reduced)
        scale = max(float(sv_r[0]), float(np.abs(A).max()), 1.0)
        rank_a = int((sv_r > pivot_tol * scale).sum())
        null_dim = rank_p - rank_a
        if null_dim > 0:
            null_dims[m] = null_dim
        c = vt_r[:rank_a].T @ ((u_r[:, :rank_a].T @ rhs) / sv_r[:rank_a])
        misfit = float(np.abs(reduced @ c - rhs).max())
        if misfit > 1e-8 * max(1.0, float(np.abs(rhs).max())):
            raise SingularClosure("dense reference inconsistent", level=m, null_dim=null_dim)
        if null_dim > 0:
            null_basis = vt_r[rank_a:].T
            c = c + null_basis @ (null_basis.T @ (basis.T @ pinned[sl] - c))
        u[sl] = basis @ c
    return u, null_dims, float(np.abs(A @ u - r).max())


def level_blocks(mat, d, L, m):
    offs = level_offsets(d, L)
    return mat[offs[m]:offs[m + 1], offs[m]:offs[m + 1]]


@settings(max_examples=40, deadline=None)
@given(
    A=st.sampled_from([1, 2]),
    n_base=st.sampled_from([1, 2, 3]),
    L=st.sampled_from([2, 3, 4, 5]),
    q=st.sampled_from([0.0, 0.15, -0.3]),
    lam=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**16),
    assumption=st.sampled_from(["projected", "symmetrized"]),
)
def test_matches_dense_reference(A, n_base, L, q, lam, seed, assumption):
    assume(storage_size(A * n_base, L) <= MAX_STORAGE)
    space, kern = build_toy_model(A=A, n_base=n_base, lam=lam, q=q, seed=seed)
    try:
        u_ref, dims_ref, _ = dense_closed_solve(kern, L, assumption)
    except ResonantDeformation:
        with pytest.raises(ResonantDeformation):
            closed_equation_solve(kern, L, assumption=assumption)
        return
    rep = closed_equation_solve(kern, L, assumption=assumption)
    assert rep.extras["null_dimensions"] == dims_ref
    assert rep.extras["closure_residual"] <= 1e-9
    V_ref = lower_triangular_expansion(kern, L, seed=unflatten_vector(space, L, u_ref)).V
    for got, want in zip(rep.V.levels, V_ref.levels):
        # levels that vanish in exact arithmetic hold rounding noise of order 1e-15
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max() + 1e-13


@pytest.mark.parametrize("lam", [1e-12, 1e-11])
@pytest.mark.parametrize("q", [0.0, 0.15, -0.3])
@pytest.mark.parametrize("A, n_base", [(1, 1), (2, 1), (1, 3)])
def test_tiny_couplings_match_dense_reference(A, n_base, q, lam):
    # test_matches_dense_reference at L = 5 without its closure-residual
    # bound, which tiny couplings exceed on both routes (ROADMAP item 5).
    # Level 3 goes through the reduced-SVD branch with the range basis of
    # N's level-3 block, whose entries scale with lam.  With d = 1 both
    # routes reach level 3; with d > 1 both stop at level 0, where A's
    # scale grows like 1/lam
    L = 5
    space, kern = build_toy_model(A=A, n_base=n_base, lam=lam, q=q, seed=1)
    try:
        u_ref, dims_ref, _ = dense_closed_solve(kern, L)
    except SingularClosure as exc:
        with pytest.raises(SingularClosure) as got:
            closed_equation_solve(kern, L)
        assert (got.value.level, got.value.null_dim) == (exc.level, exc.null_dim)
        return
    rep = closed_equation_solve(kern, L)
    assert rep.extras["null_dimensions"] == dims_ref
    V_ref = lower_triangular_expansion(kern, L, seed=unflatten_vector(space, L, u_ref)).V
    for got, want in zip(rep.V.levels, V_ref.levels):
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max() + 1e-13


@pytest.mark.parametrize("q", [0.0, 0.2])
@pytest.mark.parametrize("assumption", ["projected", "symmetrized"])
def test_top_two_diagonal_blocks_are_the_null_projector(q, assumption):
    space, kern = build_toy_model(A=1, n_base=3, lam=0.2, q=q, seed=4)
    L = 5
    P, A, _, _ = dense_closed_system(kern, L, assumption)
    for m in range(L + 1):
        gap = np.abs(level_blocks(A, space.d, L, m) - level_blocks(P, space.d, L, m)).max()
        if m > L - 2:
            assert gap <= 1e-12
        elif m >= 2:
            # below L-1 the lowering term inner_{m,m+2} neum_{m+2,m} is present
            assert gap > 1e-6


@pytest.mark.parametrize("q", [0.0, 0.2])
def test_null_projector_blocks_factor(q):
    space, kern = build_toy_model(A=2, n_base=2, lam=0.2, q=q, seed=5)
    L, d = 5, space.d
    P_N = interaction_null_projector(kern, L)
    # the identity and one summand on three slots, for both N(0) and N(q)
    assert sorted((t.n_create, t.n_annihilate) for t in P_N.terms) == [(0, 0), (3, 3)]
    P = to_dense_matrix(P_N, L, budget=DENSE_BUDGET)
    p3 = level_blocks(P, d, L, 3)
    for m in (4, 5):
        assert np.abs(level_blocks(P, d, L, m) - np.kron(p3, np.eye(d ** (m - 3)))).max() <= 1e-15
    for m in range(3):
        assert np.array_equal(level_blocks(P, d, L, m), np.eye(d**m))


def test_oscillator_at_T8_passes_trusted_residual_gate():
    # the dense route needed a 4681 x 4681 matrix here and exceeded the budget
    model = build_oscillator_model(omega=1.0, dt=0.15, T=8, lam=0.02, forcing=0.3,
                                   x0_mean=0.4, v0_mean=0.1, interaction_rows="all")
    rep = closed_equation_solve(model.kernels, 4)
    lo, hi = rep.trusted_levels
    scale = max([1.0] + [float(np.abs(rep.V.levels[n]).max()) for n in range(lo, hi + 1)])
    assert rep.residual.trusted_max() <= 1e-9 * scale
    assert rep.extras["closure_residual"] <= 1e-9
    assert rep.extras["null_dimensions"] == {1: 1, 2: 8}


def test_closed_neumann_inverse_at_T11_fits_the_budget():
    # the dense reference's neum = (I + R (K + G))^{-1} at L = 4, which the
    # solve applies as a series and never composes: the square of the raising
    # part has 7-slot summands, 11^7 > 1e7 entries, and none acts on level <= 4
    kern = build_oscillator_model(omega=1.0, dt=0.15, T=11, lam=0.02, forcing=0.3,
                                  x0_mean=0.4, v0_mean=0.1, interaction_rows="all").kernels
    L = 4
    nb = interaction_inverse(kern)
    KG = right_inverse_K(kern).operator + source_operator(kern)
    neum = neumann_inverse(identity_operator(kern.space) + compose(nb.inverse, KG), L)
    assert [(t.n_create, t.n_annihilate) for t in neum.terms] == [(0, 0), (3, 0), (3, 1)]


def test_closed_solve_applies_no_six_slot_operator(monkeypatch):
    # the composed P_N = I - R N holds a 6-slot summand; the solve applies
    # P_N as v - R (N v), and at L = 4 no other operator it applies has 6 slots
    kern = build_oscillator_model(
        omega=1.0, dt=0.15, T=5, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1, interaction_rows="all"
    ).kernels
    L = 4
    assert max(t.n_create + t.n_annihilate for t in interaction_null_projector(kern, L).terms) == 6
    slots = []
    original = cuntz.apply_to_levels

    def recording(op, levels):
        slots.append(max(t.n_create + t.n_annihilate for t in op.terms))
        return original(op, levels)

    for module in (cuntz, inverse, solver):
        monkeypatch.setattr(module, "apply_to_levels", recording)
    report = closed_equation_solve(kern, L)
    assert report.extras["closure_residual"] <= 1e-8
    assert slots and max(slots) < 6


def test_budget_names_stage_and_block():
    # d = 2, L = 6: the vectors (127 entries) fit in 200 entries, the dense
    # level-4 diagonal block (16 x 16) does not; it is checked before any
    # kernel is composed.  1024 entries hold that block, and the branching
    # check, the only operator the solve composes, has at most 4 slots
    space, kern = build_toy_model(A=1, n_base=2, lam=0.2, seed=6)
    with pytest.raises(BudgetExceeded, match=r"closed_equation_solve: dense level-4 block 16x16"):
        closed_equation_solve(kern, 6, budget=200)
    assert closed_equation_solve(kern, 6, budget=1024).extras["closure_residual"] <= 1e-9


def closure_kernels(T=6):
    # the forcing vanishes at one time, so G has a zero-source label
    forcing = [0.3, 0.25, 0.0, 0.35, 0.3, 0.2, 0.25, 0.3, 0.35, 0.2, 0.3, 0.25][:T]
    return build_oscillator_model(omega=1.0, dt=0.15, T=T, lam=0.02, forcing=forcing,
                                  x0_mean=0.4, v0_mean=0.1, interaction_rows="all").kernels


def weighted_left_inverse(kernels, chi):
    """``Ginv`` of weight chi, ``chi / G`` on the labels where G is nonzero."""
    nz = kernels.G != 0.0
    weights = np.where(nz, chi / np.where(nz, kernels.G, 1.0), 0.0)
    Linv = OperatorExpr(kernels.space, (Monomial(0, 1, weights),))
    return InverseBundle(operator=source_operator(kernels), inverse=Linv, side="left")


@settings(max_examples=40, deadline=None)
@given(
    case=st.one_of(
        st.tuples(st.sampled_from([1, 2]), st.sampled_from([2, 3]), st.sampled_from([2, 3, 4]),
                  st.sampled_from([0.0, 0.3])),
        st.just("closure"),
    ),
    assumption=st.sampled_from(["projected", "symmetrized"]),
    seed=st.integers(0, 2**16),
)
def test_closed_solution_does_not_depend_on_the_left_inverse_weight(case, assumption, seed):
    # any weight chi summing to 1 where G is nonzero gives Ginv G = I, and the
    # closed solve returns the same solution for each.  Above L = 4 the
    # untrusted and pure-noise levels move with the solve's own rounding
    if case == "closure":
        kern, L = closure_kernels(), 4
    else:
        A, n_base, L, q = case
        _, kern = build_toy_model(A=A, n_base=n_base, lam=0.2, q=q, seed=seed)
    rng = np.random.default_rng(seed)
    nz = kern.G != 0.0
    chi = np.where(nz, rng.uniform(0.05, 1.0, kern.space.d), 0.0)
    chi /= chi.sum()
    default = closed_equation_solve(kern, L, assumption=assumption)
    with mock.patch.object(solver, "left_inverse_G", lambda kernels: weighted_left_inverse(kernels, chi)):
        weighted = closed_equation_solve(kern, L, assumption=assumption)
    assert weighted.extras["branching_residual"] <= 1e-12
    assert weighted.extras["null_dimensions"] == default.extras["null_dimensions"]
    lo, hi = default.trusted_levels
    assert weighted.trusted_levels == (lo, hi)
    for n in range(lo, hi + 1):
        want = default.V.levels[n]
        assert np.abs(weighted.V.levels[n] - want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("T", [6, 12])
def test_closed_solve_takes_no_svd_larger_than_the_interaction_block(monkeypatch, T):
    # P_N's range basis on level k = 3 is the null space of N's d x d^3 block,
    # and the other three SVDs are of A's reduced diagonal blocks 0..L-2, at
    # most d^2 x d^2: no SVD input holds more than d^(2k-2) entries, where the
    # SVD of P_N's own d^3 x d^3 block would hold d^6
    kern = closure_kernels(T)
    d = kern.space.d
    shapes = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(a.shape)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    report = closed_equation_solve(kern, 4)
    assert report.extras["closure_residual"] <= 1e-9
    assert len(shapes) == 4 and shapes[0] == (d, d**3)
    assert max(a * b for a, b in shapes) <= d**4


@settings(max_examples=40, deadline=None)
@given(
    A=st.sampled_from([1, 2]),
    n_base=st.sampled_from([1, 2, 3]),
    q=st.sampled_from([0.0, 0.15, -0.3]),
    # N's block scales with the coupling and P_N does not: tiny couplings
    # must give the same rank
    lam=st.one_of(st.floats(0.05, 0.5), st.sampled_from([1e-12, 1e-11])),
    seed=st.integers(0, 2**16),
)
def test_range_basis_spans_the_range_of_the_null_projector(A, n_base, q, lam, seed):
    # the basis from the null space of N's level-3 block against the
    # orthogonal projector onto range(P_N) from the SVD of P_N's materialized block
    space, kern = build_toy_model(A=A, n_base=n_base, lam=lam, q=q, seed=seed)
    d, k = space.d, 3
    try:
        nb = interaction_inverse(kern)
    except ResonantDeformation:
        return
    # N's level-k block, as applying N to the level's unit columns gives
    # it, is the matrix of N's one summand, bit for bit
    (term,) = nb.operator.terms
    probed = cuntz.apply_to_levels(nb.operator, solver._unit_columns(d, k, k, range(d**k)))
    assert [n for n, t in enumerate(probed) if t is not None] == [k - 2]
    assert probed[k - 2].reshape(-1, d**k).tobytes() == term.matrix.tobytes()
    U = solver._null_space_basis(term.matrix)
    P = cuntz.materialize(interaction_null_projector(kern, k), k)[(k, k)]
    u_svd, sv, _ = np.linalg.svd(P)
    rank = int((sv > 1e-10 * max(sv[0], 1.0)).sum())
    assert U.shape == (d**k, rank)
    # initial=0.0: with d = 1 the range is empty
    assert np.abs(U.T @ U - np.eye(rank)).max(initial=0.0) <= 1e-12
    assert np.abs(U @ U.T - u_svd[:, :rank] @ u_svd[:, :rank].T).max() <= 1e-12
