import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freefock import (
    apply_operator,
    compose,
    identity_operator,
    neumann_inverse,
    hierarchy_operator,
    interaction_operator,
    linear_operator,
    source_operator,
    to_dense_matrix,
    build_index_space,
    build_oscillator_model,
    closed_equation_solve,
    free_solution,
    lambda_degree_check,
    lower_triangular_expansion,
    perturbation_series,
    rational_solve,
    residual_by_level,
    right_inverse_K_plus_G,
    right_inverse_N0,
    symmetrize,
    vacuum,
)
from freefock.errors import (
    ConditioningWarning,
    LevelOutOfRange,
    ResonantDeformation,
    SeriesDiverging,
    ShapeError,
    SingularInteraction,
    SingularRationalForm,
)
from freefock.cuntz import add_levels, apply_to_levels
from freefock.fock import FockVector
from freefock.model import KernelSet
from freefock.oracle import pinned_ensemble, simulate
from freefock.inverse import apply_right_inverse_K_plus_G
from freefock.solver import (
    _expansion_step,
    _interaction_inverse,
    _level_norms,
    _sum_series,
    propagate_residual_stderr,
    rational_transformed_residual,
)
from helpers import (
    build_toy_model, composed_rational_residual, flatten_vector, load_perfbench, whole_square_stderr,
    with_raised_top_level,
)


def right_inverse_vector(kern, v):
    """The (K+G) right inverse of v as a vector, its unwritten levels read as zero."""
    w = apply_right_inverse_K_plus_G(kern, v.levels)
    return FockVector(v.space, tuple(np.zeros((v.space.d,) * n) if t is None else t for n, t in enumerate(w)))


def oscillator_T16():
    return build_oscillator_model(
        omega=1.0, dt=0.15, T=16, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
        interaction_rows="all",
    ).kernels


def assert_trusted_residual_gate(rep, tol=1e-9):
    """Trusted-level residual within tol of the solution's scale there."""
    lo, hi = rep.trusted_levels
    scale = max([1.0] + [float(np.abs(rep.V.levels[n]).max()) for n in range(lo, hi + 1)])
    assert rep.residual.trusted_max() <= tol * scale


def assert_null_projection_is_free(kern, L, seed):
    """``P_{K+G} v`` is the free solution for any v with ``v_0 = 1``."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = [np.ones(())] + [rng.standard_normal((kern.space.d,) * n) for n in range(1, L + 1)]
    got = right_inverse_K_plus_G(kern, L).apply_null_projector(v)
    free = free_solution(kern, L).levels
    for n in range(L + 1):
        scale = max(float(np.abs(t).max()) for t in [free[n], *v[: n + 1]])
        assert float(np.abs(got[n] - free[n]).max()) <= 1e-12 * scale, n


def scalar_kernels(k=2.0, g=1.0, lam=0.0, m=1.0, q=0.0):
    space = build_index_space(1, (0,))
    return KernelSet(
        space=space,
        K=np.array([[k]]),
        G=np.array([g]),
        M=np.array([[m]]),
        lam=lam,
        q=q,
        green=np.array([[1.0 / k]]),
    )


class TestFreeSolution:
    def test_scalar_geometric(self):
        V = free_solution(scalar_kernels(k=2.0, g=1.0), 4)
        got = [float(V.levels[n].ravel()[0]) for n in range(5)]
        assert got == [(-0.5) ** n for n in range(5)]

    def test_zero_source_is_vacuum(self):
        V = free_solution(scalar_kernels(g=0.0), 3)
        assert V.allclose(vacuum(V.space, 3), atol=0)

    def test_exact_on_all_levels(self):
        # the report holds the trusted levels 0..3; the whole image covers level 4 too
        kern = scalar_kernels(k=2.0, g=1.0)
        V = free_solution(kern, 4)
        res = residual_by_level(V, kern)
        assert res.per_level == {n: 0.0 for n in range(4)}
        image = apply_to_levels(hierarchy_operator(kern), V.levels)
        assert [None if t is None else float(np.abs(t).max()) for t in image] == [None, 0.0, 0.0, 0.0, 0.0]

    def test_level_one_matches_integrated_trajectory(self):
        m = build_oscillator_model(omega=1.0, dt=0.2, T=8, lam=0.0, forcing=0.3,
                                   x0_mean=0.4, v0_mean=-0.2)
        V = free_solution(m.kernels, 2)
        traj = simulate(m, pinned_ensemble([0.4, -0.2], samples=1, seed=0))
        assert np.abs(V.level(1) - traj.positions[0]).max() <= 1e-12

    # with K invertible the null space of K + G at V_0 = 1 holds only the free
    # solution, so a seed projected there, Monte-Carlo estimates included,
    # gives back the free solution
    @settings(max_examples=40, deadline=None)
    @given(A=st.integers(1, 2), n_base=st.integers(1, 3), L=st.integers(0, 5), seed=st.integers(0, 2**16))
    def test_null_projection_of_a_normalized_vector_is_free(self, A, n_base, L, seed):
        _, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, seed=seed)
        assert_null_projection_is_free(kern, L, seed)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_null_projection_of_a_normalized_vector_is_free_on_the_demo_model(self, seed):
        kern = build_oscillator_model(
            omega=1.0, dt=0.15, T=8, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
            interaction_rows="interior",
        ).kernels
        assert_null_projection_is_free(kern, 4, seed)

    # the series' own right inverse W gives the same projection as a chain,
    # so a seed for the series is no choice: every valid one is the free solution
    @settings(max_examples=40, deadline=None)
    @given(
        model=st.sampled_from(["toy", "oscillator"]),
        A=st.integers(1, 2),
        n_base=st.integers(1, 3),
        L=st.integers(0, 4),
        seed=st.integers(0, 2**16),
    )
    def test_chain_projection_of_a_normalized_vector_is_free(self, model, A, n_base, L, seed):
        if model == "toy":
            _, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, seed=seed)
        else:
            kern = build_oscillator_model(
                omega=1.0, dt=0.15, T=3 + n_base, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
            ).kernels
        rng = np.random.Generator(np.random.Philox(key=seed))
        S = [np.ones(())] + [rng.standard_normal((kern.space.d,) * n) for n in range(1, L + 1)]
        KG = linear_operator(kern) + source_operator(kern)
        W_KG_S = apply_right_inverse_K_plus_G(kern, apply_to_levels(KG, S))
        free = free_solution(kern, L).levels
        scale = max(float(np.abs(t).max()) for t in free)
        for n in range(L + 1):
            got = S[n] if W_KG_S[n] is None else S[n] - W_KG_S[n]
            assert float(np.abs(got - free[n]).max()) <= 1e-12 * scale, n


class TestPerturbationSeries:
    def test_zero_coupling_bit_for_bit(self):
        kern = scalar_kernels(lam=0.0)
        rep = perturbation_series(kern, 4, order=5)
        V0 = free_solution(kern, 4)
        for a, b in zip(rep.V.levels, V0.levels):
            assert a.tobytes() == b.tobytes()

    def test_sign_folded_into_the_interaction_changes_no_bits(self):
        # reference: each increment negated after the (K+G) right inverse,
        # and the sum's level L raised from its level L-1
        space, kern = build_toy_model(A=2, n_base=2, lam=0.3, seed=8)
        L = 5
        N = interaction_operator(kern)
        V = term = free_solution(kern, L)
        for _ in range(3):
            image = apply_operator(N, term)
            term = right_inverse_vector(kern, image) * -1.0
            V = V + term
        rep = perturbation_series(kern, L, order=3)
        assert rep.extras["orders_used"] == 3
        want = with_raised_top_level(kern, V.levels)
        assert len(rep.V.levels) == len(want)
        for a, b in zip(rep.V.levels, want):
            assert a.tobytes() == b.tobytes()

    def test_residual_shrinks_with_order(self):
        m = build_oscillator_model(omega=1.0, dt=0.25, T=4, lam=0.05, forcing=0.3,
                                   x0_mean=0.2, v0_mean=0.1)
        maxima = []
        for order in (0, 1, 2, 3):
            rep = perturbation_series(m.kernels, 4, order=order)
            maxima.append(rep.residual.trusted_max())
        assert maxima[1] < maxima[0]
        assert maxima[2] < maxima[1]
        assert maxima[3] < maxima[2]

    def test_symmetrized_output_is_symmetric(self):
        m = build_oscillator_model(omega=1.0, dt=0.25, T=4, lam=0.05, forcing=0.3,
                                   x0_mean=0.2, v0_mean=0.1)
        rep = perturbation_series(m.kernels, 3, order=2, symmetrized=True)
        assert symmetrize(rep.V).allclose(rep.V, atol=1e-12)

    def test_divergence_detected(self):
        # huge coupling: increments grow and the solver gives up with the
        # partial result attached
        kern = scalar_kernels(k=2.0, g=1.0, lam=500.0)
        with pytest.raises(SeriesDiverging) as info:
            with pytest.warns(UserWarning):
                perturbation_series(kern, 5, order=12)
        assert info.value.partial is not None
        assert info.value.partial.diverging


def test_add_levels_sums_in_place_and_copies_a_level_where_it_first_lands():
    # a None level adds nothing, so a -0.0 stays -0.0; the first term to
    # land on a level is copied, and later terms are added into that copy
    terms = [
        [np.array(-0.0), np.array([-0.0, 1.0]), None],
        [None, np.array([-0.0, 0.5]), None],
        [np.array(-0.0), None, np.array([[-0.0, 1.0], [-0.0, 0.0]])],
        [None, None, None],
        [None, np.array([0.0, 2.0]), np.array([[0.0, 2.0], [0.0, -0.0]])],
    ]
    originals = [[None if t is None else t.copy() for t in term] for term in terms]
    sums = [None, None, None]
    for term in terms:
        assert add_levels(sums, term) is sums
    want = [np.array(-0.0 + -0.0), np.array([-0.0, 1.0]) + np.array([-0.0, 0.5]) + np.array([0.0, 2.0]),
            np.array([[-0.0, 1.0], [-0.0, 0.0]]) + np.array([[0.0, 2.0], [0.0, -0.0]])]
    for a, b in zip(sums, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert all(a is not t for term in terms for a, t in zip(sums, term))
    for term, original in zip(terms, originals):
        for t, o in zip(term, original):
            assert (t is None and o is None) or t.tobytes() == o.tobytes()
    assert add_levels([None, None], [None, None]) == [None, None]


class TestLowerTriangularExpansion:
    def test_structural_term_counts(self):
        kern = scalar_kernels(lam=0.05)
        rep = lower_triangular_expansion(kern, 4)
        assert rep.series_terms_used == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}

    def test_sign_folded_into_K_plus_G_changes_no_bits(self):
        # reference: each power negated after the interaction's right inverse
        space, kern = build_toy_model(A=1, n_base=2, lam=0.3, q=0.0, seed=6)
        L = 5
        bundle = right_inverse_N0(kern)
        KG = linear_operator(kern) + source_operator(kern)
        V = term = FockVector(kern.space, tuple(bundle.apply_null_projector(free_solution(kern, L).levels)))
        for _ in range(L // 2):
            term = apply_operator(bundle.inverse, apply_operator(KG, term)) * -1.0
            V = V + term
        rep = lower_triangular_expansion(kern, L)
        assert rep.extras["expansion_terms"] == L // 2 + 1
        for a, b in zip(rep.V.levels, V.levels):
            assert a.tobytes() == b.tobytes()

    def test_termination_beyond_half_truncation(self):
        kern = scalar_kernels(lam=0.05)
        rep = lower_triangular_expansion(kern, 4)
        assert rep.extras["expansion_terms"] <= 4 // 2 + 1

    def test_vacuum_seed_keeps_normalization(self):
        kern = scalar_kernels(lam=0.05)
        rep = lower_triangular_expansion(kern, 4, seed=vacuum(kern.space, 4))
        assert float(rep.V.level(0)) == 1.0

    @pytest.mark.parametrize("seed_L, seed_base, L", [(3, 1, 5), (4, 2, 4)])
    def test_seed_of_another_level_or_space_is_refused(self, seed_L, seed_base, L):
        # an L=3 seed once returned a V of L=3 with term counts over levels 0..5
        kern = scalar_kernels(lam=0.05)
        seed = vacuum(build_index_space(1, tuple(range(seed_base))), seed_L)
        with pytest.raises(ShapeError) as err:
            lower_triangular_expansion(kern, L, seed=seed)
        assert str(err.value) == f"seed of L={seed_L} over {seed.space} does not fit L={L} over {kern.space}"

    def test_exact_residual_on_trusted_levels(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.3, q=0.0, seed=6)
        rep = lower_triangular_expansion(kern, 4)
        lo, hi = rep.trusted_levels
        for n in range(lo, hi + 1):
            assert rep.residual.per_level[n] <= 1e-10

    def test_nonzero_counts_depend_on_seed(self):
        # with a vacuum seed the first power lands exactly at the levels its
        # grading allows
        kern = scalar_kernels(lam=0.05)
        rep = lower_triangular_expansion(kern, 4, seed=vacuum(kern.space, 4))
        nz = rep.extras["nonzero_terms_per_level"]
        assert nz[0] == 1 and nz.get(3, 0) == 1

    def test_oscillator_at_T16_passes_trusted_residual_gate(self):
        # the default seed is projected as a vector chain: no 16^6-entry kernel
        assert_trusted_residual_gate(lower_triangular_expansion(oscillator_T16(), 4))


class TestClosedEquation:
    def test_branching_term_vanishes(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.3, q=0.0, seed=6)
        rep = closed_equation_solve(kern, 4)
        assert rep.extras["branching_residual"] <= 1e-12

    def test_zero_coupling_degenerates_to_free(self):
        kern = scalar_kernels(lam=0.0)
        rep = closed_equation_solve(kern, 4)
        assert rep.V.allclose(free_solution(kern, 4), atol=0)

    def test_residual_small_on_trusted_levels(self):
        kern = scalar_kernels(lam=0.05)
        rep = closed_equation_solve(kern, 4)
        lo, hi = rep.trusted_levels
        for n in range(lo, hi + 1):
            assert rep.residual.per_level[n] <= 1e-8

    def test_reproduces_triangular_expansion_when_seeded(self):
        kern = scalar_kernels(lam=0.05)
        rep_c = closed_equation_solve(kern, 4)
        rep_t = lower_triangular_expansion(kern, 4, seed=rep_c.extras["projection"])
        assert rep_c.V.allclose(rep_t.V, atol=1e-9)

    def test_undetermined_directions_reported_and_pinned(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.3, q=0.0, seed=6)
        rep = closed_equation_solve(kern, 4)
        # the level-1 diagonal block always loses one direction
        assert rep.extras["null_dimensions"].get(1, 0) >= 1
        # pinned directions come from the free solution, so the scalar toy
        # reproduces the interaction null projection of the free data
        kern1 = scalar_kernels(lam=0.05)
        rep1 = closed_equation_solve(kern1, 4)
        from freefock import apply_operator, compose, identity_operator

        nb = right_inverse_N0(kern1)
        pn = identity_operator(kern1.space) - compose(nb.inverse, nb.operator, L=4)
        pinned = apply_operator(pn, free_solution(kern1, 4))
        assert rep1.extras["projection"].allclose(pinned, atol=1e-10)

    def test_closure_residual_reported(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.2, q=0.0, seed=8)
        rep = closed_equation_solve(kern, 4)
        assert rep.extras["closure_residual"] <= 1e-9

    def test_symmetrized_assumption_runs(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.2, q=0.0, seed=8)
        rep = closed_equation_solve(kern, 4, assumption="symmetrized")
        lo, hi = rep.trusted_levels
        for n in range(lo, hi + 1):
            assert rep.residual.per_level[n] <= 1e-8


class TestRationalSolve:
    def test_zero_coupling_limit(self):
        kern = scalar_kernels(lam=0.05)
        rep = rational_solve(kern, 4, lam=0.0)
        assert rep.V.allclose(free_solution(kern, 4), atol=0)

    def test_transformed_residual(self):
        kern = scalar_kernels(lam=0.05)
        rep = rational_solve(kern, 4, lam=0.03)
        lo, hi = rep.trusted_levels
        for n in range(lo, hi + 1):
            assert rep.residual.per_level[n] <= 1e-10

    def test_polynomiality_and_degree_bound(self):
        kern = scalar_kernels(lam=0.05)
        L = 4
        grid = np.linspace(0.0, 0.07, 8)
        report = lambda_degree_check(
            lambda lam: rational_solve(kern, L, lam=lam).V, grid, L, tol=1e-10
        )
        for m, (deg, resid) in report.items():
            assert not np.isnan(resid)
            assert resid <= 1e-10 * 1.0 + 1e-10
            assert deg <= (m + 1) // 2 + 1

    def test_symmetrized_variant(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.3, q=0.0, seed=10)
        rep = rational_solve(kern, 4, lam=0.04, symmetrized=True)
        assert symmetrize(rep.V).allclose(rep.V, atol=1e-12)
        assert rep.extras["resolvent_residual"] <= 1e-12

    def test_oscillator_at_T16_passes_trusted_residual_gate(self):
        assert_trusted_residual_gate(rational_solve(oscillator_T16(), 4, lam=0.05))

    def test_vanishing_interaction_weight_is_a_singular_rational_form(self):
        # with the interaction on the interior rows only, lam*M(z) vanishes
        # on both base labels and N has no right inverse
        kern = build_oscillator_model(omega=1.0, dt=0.15, T=8, lam=0.02, forcing=0.3, x0_mean=0.4,
                                      v0_mean=0.1, interaction_rows="interior").kernels
        with pytest.raises(SingularRationalForm) as info:
            rational_solve(kern, 4, lam=0.05)
        assert isinstance(info.value.__cause__, SingularInteraction)
        assert str(info.value.__cause__).endswith("vanishes at base labels [0, 1]")

    def test_trusted_window_starts_at_L_3(self):
        # level n of the transformed residual reads V up to level n + 2, and
        # level L - 1 misses the truncated level L + 1, so the window is
        # 1..L-2 and empty below L = 3; at L = 1 and 2 level 1 reads
        # 2.2e-2 here, where V_3 is truncated, and 4.7e-15 from L = 3 on.
        # The report holds the window's levels, and the chain every level
        workloads = load_perfbench("workloads")
        kern = workloads.closure_model(workloads.make_inputs(7), 6).kernels
        reports = {L: rational_solve(kern, L, lam=0.05) for L in range(1, 6)}
        assert {L: rep.trusted_levels for L, rep in reports.items()} == {
            1: (1, -1), 2: (1, 0), 3: (1, 1), 4: (1, 2), 5: (1, 3)
        }
        for L, rep in reports.items():
            assert list(rep.residual.per_level) == list(range(1, L - 1)), L
            assert rep.residual.trusted_max() <= 1e-12, L
        assert min(rational_transformed_residual(kern, 0.05, reports[L].V)[1] for L in (1, 2)) > 1e-2

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="R(0) maps the vacuum to level 2 and R(q) annihilates it: levels 2-4 jump at q = 0")
    def test_continuous_in_q_at_zero(self):
        # the solve applies N's right inverse to the free solution's vacuum;
        # at q = 0 that is R(0), at any other q R(q), and both meet the
        # trusted-level residual, so only continuity tells them apart
        workloads = load_perfbench("workloads")
        inp = workloads.make_inputs(7)
        at_zero, near_zero = (rational_solve(workloads.closure_model(inp, 6, q=q).kernels, 4, lam=0.05).V
                              for q in (0.0, 1e-12))
        for n in range(5):
            assert np.abs(at_zero.levels[n] - near_zero.levels[n]).max() <= 1e-6, n


@pytest.mark.parametrize(
    "solve", [perturbation_series, lower_triangular_expansion, closed_equation_solve, rational_solve],
    ids=["perturbation", "triangular", "closed", "rational"],
)
def test_solvers_refuse_a_negative_truncation_level(solve):
    kern = build_oscillator_model(omega=1.0, dt=0.15, T=5, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
                                  interaction_rows="all").kernels
    with pytest.raises(LevelOutOfRange, match="L=-1 must be >= 0"):
        solve(kern, -1, **({"lam": 0.05} if solve is rational_solve else {}))


@settings(max_examples=60, deadline=None)
@given(
    X=st.sampled_from(["Ninv (K+G)", "-Ninv"]),
    A=st.integers(1, 2),
    n_base=st.integers(1, 3),
    q=st.sampled_from([0.0, 0.15, -0.3]),
    L=st.integers(1, 4),
    batch=st.integers(1, 3),
    present=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(0, 2**16),
)
def test_raising_series_sums_to_the_composed_neumann_inverse(X, A, n_base, q, L, batch, present, seed):
    # the closed solve's neum and the rational solve's Y, on level lists
    # with a batch axis and unwritten (None) levels
    assume(any(present[: L + 1]))
    space, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, q=q, seed=seed)
    try:
        ninv = _interaction_inverse(kern).inverse
    except ResonantDeformation:
        assume(False)
    if X == "-Ninv":
        op, step = ninv * -1.0, lambda t: apply_to_levels(ninv, t)
    else:
        op, step = compose(ninv, linear_operator(kern) + source_operator(kern)), _expansion_step(kern, ninv)
    d = space.d
    rng = np.random.Generator(np.random.Philox(key=seed))
    levels = [rng.standard_normal((d,) * n + (batch,)) if present[n] else None for n in range(L + 1)]
    got, _ = _sum_series(step, levels)
    neum = neumann_inverse(identity_operator(space) + op, L)
    for b in range(batch):
        def col(t, n):
            return np.zeros((d,) * n) if t is None else t[..., b]

        want = apply_operator(neum, FockVector(space, tuple(col(t, n) for n, t in enumerate(levels))))
        for n in range(L + 1):
            scale = float(np.abs(want.levels[n]).max())
            assert float(np.abs(col(got[n], n) - want.levels[n]).max()) <= 1e-12 * scale, (b, n)


def rational_reference(kern, L, lam, symmetrized):
    """The rational series with ``Y = -(I - Ninv)^{-1}`` composed, applied before Ninv."""
    space = kern.space
    ninv = _interaction_inverse(kern).inverse
    Y = neumann_inverse(identity_operator(space) - ninv, L) * -1.0
    V = term = free_solution(kern, L)
    for _ in range(L // 2):
        w = apply_operator(ninv, apply_operator(Y, term))
        term = right_inverse_vector(kern, w) * -lam
        if symmetrized:
            term = symmetrize(term)
        V = V + term
    return V


@settings(max_examples=40, deadline=None)
@given(
    A=st.integers(1, 2),
    n_base=st.integers(1, 3),
    q=st.sampled_from([0.0, 0.15, -0.3]),
    L=st.integers(1, 4),
    lam=st.floats(0.01, 0.5),
    symmetrized=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_rational_solve_matches_the_composed_auxiliary_operator(A, n_base, q, L, lam, symmetrized, seed):
    space, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, q=q, seed=seed)
    try:
        want = rational_reference(kern, L, lam, symmetrized)
    except ResonantDeformation:
        assume(False)
    got = rational_solve(kern, L, lam=lam, symmetrized=symmetrized).V
    for n in range(L + 1):
        assert float(np.abs(got.levels[n] - want.levels[n]).max()) <= 1e-12 * float(np.abs(want.levels[n]).max()), n


@settings(max_examples=40, deadline=None)
@given(
    model=st.sampled_from(["oscillator", "toy"]),
    q=st.sampled_from([0.0, 0.3]),
    lam=st.sampled_from([0.0, 0.07]),
    L=st.integers(3, 5),
    seed=st.integers(0, 2**16),
)
def test_rational_residual_chain_drops_only_the_truncated_read(model, q, lam, L, seed):
    # the chain (K + G) V - N (K + G) V + lam V stops (K + G) V at level L,
    # so of the composed operator's image it misses only -N (G (x) V_L), on
    # level L - 1; with that term taken out, every level holds the composed
    # image's norm to rounding
    if model == "toy":
        _, kern = build_toy_model(A=2, n_base=2, lam=0.4, q=q, seed=seed)
    else:
        kern = build_oscillator_model(omega=1.0, dt=0.15, T=4, lam=0.02, q=q, forcing=0.3, x0_mean=0.4,
                                      v0_mean=0.1, interaction_rows="all").kernels
    rng = np.random.Generator(np.random.Philox(key=seed))
    V = FockVector(kern.space, tuple(rng.standard_normal((kern.space.d,) * n) for n in range(L + 1)))
    N, KG = interaction_operator(kern), linear_operator(kern) + source_operator(kern)
    want = composed_rational_residual(kern, lam, V.levels)
    want[L - 1] += apply_to_levels(compose(N, source_operator(kern)), [None] * L + [V.levels[L]])[L - 1]
    summands = [apply_to_levels(KG, V.levels), apply_to_levels(compose(N, KG), V.levels), [lam * t for t in V.levels]]
    scales = [max(_level_norms(levels)[n] for levels in summands) for n in range(L + 1)]
    got, want = rational_transformed_residual(kern, lam, V), _level_norms(want)
    for n in range(L + 1):
        assert abs(got[n] - want[n]) <= 1e-12 * scales[n], n


class TestResidual:
    def test_random_vector_has_nonzero_residual(self):
        kern = scalar_kernels(lam=0.0)
        rng = np.random.default_rng(1)
        v = FockVector(kern.space, tuple(rng.standard_normal((1,) * n) for n in range(4)))
        res = residual_by_level(v, kern)
        assert res.trusted_max() > 0.0

    def test_trusted_window_shrinks_with_interaction(self):
        assert residual_by_level(free_solution(scalar_kernels(), 4), scalar_kernels()).trusted_levels == (0, 3)
        kern = scalar_kernels(lam=0.1)
        assert residual_by_level(free_solution(kern, 4), kern).trusted_levels == (0, 2)

    def test_stderr_propagation_is_exact_for_uncorrelated_entries(self):
        # with independent entries the residual's variance is (D o D) se^2,
        # D the hierarchy operator's matrix
        m = build_oscillator_model(omega=1.0, dt=0.25, T=4, lam=0.05, forcing=0.3,
                                   x0_mean=0.4, v0_mean=0.1, interaction_rows="all")
        L = 3
        rng = np.random.Generator(np.random.Philox(key=12))
        se = FockVector(m.space, tuple(rng.uniform(0.01, 0.2, (4,) * n) for n in range(L + 1)))
        prop = flatten_vector(propagate_residual_stderr(m.kernels, se))
        D = to_dense_matrix(hierarchy_operator(m.kernels), L)
        want = np.sqrt((D * D) @ flatten_vector(se) ** 2)
        assert np.all(np.abs(prop - want) <= 1e-12 * want)
        # every entry off the vacuum combines estimated entries
        assert want[1:].min() > 0.0

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["oscillator", "toy"]), st.sampled_from([0.0, 0.3]), st.sampled_from([0.0, 0.05]),
           st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_stderr_propagation_has_the_bits_of_the_whole_squared_operator(self, kind, q, lam, L, seed):
        # N's nonzero columns squared (at q = 0 one per row) or, with none, its whole matrix
        if kind == "oscillator":
            kernels = build_oscillator_model(omega=1.0, dt=0.25, T=5, lam=lam, q=q, forcing=0.3,
                                             x0_mean=0.4, v0_mean=0.1, interaction_rows="interior").kernels
        else:
            kernels = build_toy_model(A=2, n_base=2, lam=lam, q=q, seed=seed % 7)[1]
        d = kernels.space.d
        rng = np.random.Generator(np.random.Philox(key=seed))
        se = FockVector(kernels.space, tuple(rng.uniform(0.0, 0.2, (d,) * n) for n in range(L + 1)))
        got = propagate_residual_stderr(kernels, se)
        for n, want in enumerate(whole_square_stderr(kernels, se)):
            assert got.levels[n].tobytes() == want.tobytes(), n


class TestLambdaDegreeCheck:
    def test_linear_model_is_degree_zero(self):
        kern = scalar_kernels(lam=0.0)
        grid = np.linspace(0.0, 0.05, 6)
        report = lambda_degree_check(lambda lam: free_solution(kern, 3), grid, 3)
        assert all(deg == 0 for deg, _ in report.values())

    def test_truncated_series_degree_matches_order(self):
        m = build_oscillator_model(omega=1.0, dt=0.25, T=4, lam=1.0, forcing=0.3,
                                   x0_mean=0.2, v0_mean=0.1)

        def solve(lam):
            mm = build_oscillator_model(omega=1.0, dt=0.25, T=4, lam=lam, forcing=0.3,
                                        x0_mean=0.2, v0_mean=0.1)
            return perturbation_series(mm.kernels, 4, order=2).V

        grid = np.linspace(0.0, 0.04, 7)
        report = lambda_degree_check(solve, grid, 4)
        # generic levels of an order-2 truncation are exact quadratics
        assert report[1][0] == 2
        assert report[3][0] <= 2

    def test_conditioning_warning(self):
        kern = scalar_kernels(lam=0.0)
        V = free_solution(kern, 2)
        grid = np.linspace(0.0, 1e-9, 6)  # collapsed grid: ill conditioned
        with pytest.warns(ConditioningWarning):
            lambda_degree_check(lambda lam: lam * V, grid, 2)
