import numpy as np
import pytest

from freefock import (
    adjoint,
    apply_operator,
    build_index_space,
    build_oscillator_model,
    compose,
    eta,
    eta_star,
    generalized_inverse_report,
    identity_catalog,
    identity_operator,
    interaction_operator,
    left_inverse_G,
        neumann_inverse,
    number_operator,
    right_inverse_K,
    right_inverse_K_plus_G,
    right_inverse_N0,
    right_inverse_Nq,
    source_operator,
        vacuum,
    vacuum_projector,
)
from freefock import inverse
from freefock.cuntz import Monomial, OperatorExpr, kernel_residual
from freefock.errors import (
    DivisionByZeroSource,
    MissingGreen,
    NotNilpotent,
    ResonantDeformation,
    SingularInteraction,
)
from freefock.inverse import (
    apply_right_inverse_K_plus_G,
    deformation_obstruction,
    dense_residual,
    truncate_operator,
)
from freefock.model import KernelSet
from helpers import build_toy_model


def null_projector(b, L):
    """``I - R A`` of a right-inverse bundle, composed to level L as the identity checks do."""
    return identity_operator(b.operator.space) - compose(b.inverse, b.operator, L=L)


def range_projector(b, L):
    """``A R`` of a bundle, composed to level L."""
    return compose(b.operator, b.inverse, L=L)


def scalar_kernels(k=2.0, g=1.0, lam=0.0, m=1.0):
    space = build_index_space(1, (0,))
    return KernelSet(
        space=space,
        K=np.array([[k]]),
        G=np.array([g]),
        M=np.array([[m]]),
        lam=lam,
        green=np.array([[1.0 / k]]),
    )


@pytest.fixture
def oscillator5():
    return build_oscillator_model(
        omega=1.0, dt=0.3, T=5, lam=0.05, q=0.3, forcing=0.4, x0_mean=0.3, v0_mean=0.1
    ).kernels


class TestRightInverseK:
    def test_scalar_hand_value(self):
        kern = scalar_kernels(k=2.0)
        b = right_inverse_K(kern)
        assert float(b.inverse.terms[0].kernel[0, 0]) == 0.5
        assert dense_residual(compose(b.operator, b.inverse), number_operator(kern.space), 3) == 0.0

    def test_oscillator_identity(self, oscillator5):
        L = 3
        b = right_inverse_K(oscillator5)
        res = dense_residual(compose(b.operator, b.inverse), number_operator(oscillator5.space), L)
        assert res <= 1e-12

    def test_null_projector_kills_inverse(self, oscillator5):
        L = 3
        b = right_inverse_K(oscillator5)
        prod = truncate_operator(compose(null_projector(b, L), b.inverse), L)
        assert dense_residual(prod, OperatorExpr(oscillator5.space, ()), L) <= 1e-12

    def test_missing_green(self):
        space = build_index_space(1, (0,))
        kern = KernelSet(space=space, K=np.eye(1), G=np.ones(1), M=np.eye(1))
        with pytest.raises(MissingGreen):
            right_inverse_K(kern)


class TestNeumann:
    def test_term_count_raising_one(self):
        kern = scalar_kernels(g=1.0)
        inv = neumann_inverse(identity_operator(kern.space) + source_operator(kern), 3)
        assert len(inv.terms) == 4
        prod = truncate_operator(
            compose(identity_operator(kern.space) + source_operator(kern), inv), 3
        )
        assert dense_residual(prod, identity_operator(kern.space), 3) == 0.0

    def test_zero_remainder(self):
        space = build_index_space(1, (0, 1))
        assert kernel_residual(neumann_inverse(identity_operator(space), 3), identity_operator(space)) == 0.0

    def test_alternating_signs_on_vacuum(self):
        kern = scalar_kernels(g=1.0)
        inv = neumann_inverse(identity_operator(kern.space) + source_operator(kern), 2)
        w = apply_operator(inv, vacuum(kern.space, 2))
        values = [float(w.levels[n].ravel()[0]) for n in range(3)]
        assert values == [1.0, -1.0, 1.0]

    def test_rejects_lowering(self):
        space = build_index_space(1, (0, 1))
        with pytest.raises(NotNilpotent):
            neumann_inverse(identity_operator(space) + eta(space, 0), 3)

    def test_rejects_wrong_scalar(self):
        space = build_index_space(1, (0, 1))
        with pytest.raises(NotNilpotent):
            neumann_inverse(2.0 * identity_operator(space) + eta_star(space, 0), 3)


class TestRightInverseKPlusG:
    def test_scalar_exact(self):
        kern = scalar_kernels(k=2.0, g=1.0)
        L = 3
        b = right_inverse_K_plus_G(kern, L)
        prod = truncate_operator(compose(b.operator, b.inverse), L)
        assert dense_residual(prod, number_operator(kern.space), L) <= 1e-14

    def test_oscillator_identity(self, oscillator5):
        L = 3
        b = right_inverse_K_plus_G(oscillator5, L)
        prod = truncate_operator(compose(b.operator, b.inverse), L)
        assert dense_residual(prod, number_operator(oscillator5.space), L) <= 1e-10

    def test_null_space_invariance(self, oscillator5):
        L = 3
        kb = right_inverse_K(oscillator5)
        kgb = right_inverse_K_plus_G(oscillator5, L)
        X = compose(kb.inverse, source_operator(oscillator5))
        neum = neumann_inverse(identity_operator(oscillator5.space) + X, L)
        rhs = truncate_operator(
            compose(compose(neum, null_projector(kb, L)), null_projector(kgb, L)), L
        )
        assert dense_residual(null_projector(kgb, L), rhs, L) <= 1e-10

    def test_vacuum_inside_null_space(self, oscillator5):
        L = 3
        kgb = right_inverse_K_plus_G(oscillator5, L)
        prod = truncate_operator(compose(vacuum_projector(oscillator5.space), null_projector(kgb, L)), L)
        assert dense_residual(prod, vacuum_projector(oscillator5.space), L) <= 1e-12

    def test_iterative_application_matches_composed(self, oscillator5):
        L = 3
        b = right_inverse_K_plus_G(oscillator5, L)
        rng = np.random.default_rng(9)
        from freefock.fock import FockVector

        v = FockVector(
            oscillator5.space,
            tuple(rng.standard_normal((oscillator5.space.d,) * n) for n in range(L + 1)),
        )
        direct = apply_operator(b.inverse, v)
        iterative = apply_right_inverse_K_plus_G(oscillator5, v.levels)
        # level 0 of W v is zero and left unwritten; every level above is written
        assert iterative[0] is None and float(direct.levels[0]) == 0.0
        iterative = FockVector(v.space, (np.zeros(()),) + tuple(iterative[1:]))
        assert direct.allclose(iterative, atol=1e-11)


class TestLeftInverseG:
    def test_hand_value(self):
        # d=2, G=(2,4): the uniform weight (1/2, 1/2) over G gives the kernel chi / G
        space = build_index_space(1, (0, 1))
        kern = KernelSet(space=space, K=np.eye(2), G=np.array([2.0, 4.0]), M=np.eye(2),
                         green=np.eye(2))
        b = left_inverse_G(kern)
        assert np.array_equal(b.inverse.terms[0].kernel, [0.25, 0.125])
        w = apply_operator(b.inverse, apply_operator(b.operator, vacuum(space, 3)))
        assert w.allclose(vacuum(space, 3), atol=0)

    def test_defining_identity_exact(self, oscillator5):
        L = 3
        b = left_inverse_G(oscillator5)
        assert dense_residual(compose(b.inverse, b.operator), identity_operator(oscillator5.space), L) == 0.0

    def test_range_projector_idempotent(self, oscillator5):
        L = 3
        b = left_inverse_G(oscillator5)
        Q = range_projector(b, L)
        q2 = truncate_operator(compose(Q, Q), L)
        assert dense_residual(q2, Q, L) <= 1e-12

    def test_sandwich_identity_away_from_vacuum(self, oscillator5):
        L = 3
        kb = right_inverse_K(oscillator5)
        lb = left_inverse_G(oscillator5)
        prod = compose(compose(lb.inverse, kb.operator), compose(kb.inverse, lb.operator))
        # exact algebra: the four-factor product is the full identity, so it
        # equals N away from the vacuum and fixes the vacuum instead of
        # annihilating it
        assert dense_residual(prod, identity_operator(oscillator5.space), L) <= 1e-10

    def test_default_chi_skips_zero_sources(self):
        space = build_index_space(1, (0, 1, 2))
        kern = KernelSet(space=space, K=np.eye(3), G=np.array([2.0, 0.0, 2.0]), M=np.eye(3),
                         green=np.eye(3))
        b = left_inverse_G(kern)
        assert np.array_equal(b.inverse.terms[0].kernel, [0.25, 0.0, 0.25])
        assert dense_residual(compose(b.inverse, b.operator), identity_operator(space), 2) == 0.0

    def test_source_zero_everywhere_has_no_left_inverse(self):
        space = build_index_space(1, (0, 1))
        kern = KernelSet(space=space, K=np.eye(2), G=np.zeros(2), M=np.eye(2), green=np.eye(2))
        with pytest.raises(DivisionByZeroSource, match="G vanishes everywhere"):
            left_inverse_G(kern)


class TestRightInverseInteraction:
    def test_scalar_hand_value(self):
        kern = scalar_kernels(lam=0.8, m=0.7)
        L = 4
        b = right_inverse_N0(kern)
        prod = compose(b.operator, b.inverse)
        assert kernel_residual(prod, number_operator(kern.space)) <= 1e-14
        assert dense_residual(truncate_operator(prod, L), number_operator(kern.space), L) <= 1e-14

    @pytest.mark.parametrize("A", [1, 2, 3])
    @pytest.mark.parametrize("variant", ["plain", "deformed"])
    def test_identity_across_components(self, A, variant):
        q = 0.3 if variant == "deformed" else 0.0
        space, kern = build_toy_model(A=A, n_base=2, lam=0.4, q=q, seed=A)
        L = 4
        b = right_inverse_Nq(kern) if variant == "deformed" else right_inverse_N0(kern)
        prod = truncate_operator(compose(b.operator, b.inverse), L)
        assert dense_residual(prod, number_operator(space), L) <= 1e-12

    def test_range_projector_idempotent(self):
        space, kern = build_toy_model(A=1, n_base=3, lam=0.4, q=0.0, seed=3)
        L = 4
        b = right_inverse_N0(kern)
        Q = range_projector(b, L)
        q2 = truncate_operator(compose(Q, Q), L)
        assert dense_residual(q2, Q, L) <= 1e-12

    def test_zero_coupling_is_singular(self):
        kern = scalar_kernels(lam=0.0)
        with pytest.raises(SingularInteraction):
            right_inverse_N0(kern)


def loop_interaction_kernel(kernels, variant):
    """The nested-loop builders the index assignments replaced, kept as the reference."""
    space = kernels.space
    d, nb, A = space.d, space.n_base, space.A
    w = kernels.lam * kernels.Mdiag
    if variant == "plain":
        k = np.zeros((d, d))
        for y in range(nb):
            for alpha in range(A):
                i = space.encode_idx(alpha, y)
                k[i, i] = 1.0 / (A * w[y])
        return k
    k = np.zeros((d, d, d, d))
    O = deformation_obstruction(kernels)
    for y in range(nb):
        for alpha in range(A):
            i = space.encode_idx(alpha, y)
            for z in range(nb):
                for beta in range(A):
                    j = space.encode_idx(beta, z)
                    k[i, i, j, j] = 1.0 / (A * w[y] * (1.0 + O[z]))
    return k


@pytest.mark.parametrize("A", [1, 2, 3])
@pytest.mark.parametrize("n_base", [1, 2, 4])
@pytest.mark.parametrize("variant", ["plain", "deformed"])
def test_interaction_kernels_equal_the_loop_builders(A, n_base, variant):
    _, kern = build_toy_model(A=A, n_base=n_base, lam=0.4, q=0.3 if variant == "deformed" else 0.0, seed=A + n_base)
    b = right_inverse_Nq(kern) if variant == "deformed" else right_inverse_N0(kern)
    assert np.array_equal(b.inverse.terms[0].kernel, loop_interaction_kernel(kern, variant))


class TestRightInverseDeformed:
    def test_identity_two_base_labels(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.5, q=0.3, seed=4)
        L = 4
        b = right_inverse_Nq(kern)
        prod = truncate_operator(compose(b.operator, b.inverse), L)
        assert dense_residual(prod, number_operator(space), L) <= 1e-10

    def test_intermediate_obstruction_identity(self):
        space, kern = build_toy_model(A=1, n_base=2, lam=0.5, q=0.3, seed=4)
        L = 4
        nb0 = right_inverse_N0(kern)
        Nq = interaction_operator(kern)
        O = deformation_obstruction(kern)
        diag = np.diag(O)
        target = number_operator(space) + OperatorExpr(space, (Monomial(1, 1, diag),))
        prod = truncate_operator(compose(Nq, nb0.inverse), L)
        assert dense_residual(prod, target, L) <= 1e-12

    def test_q_zero_reduces_to_undeformed_family(self):
        space, kern0 = build_toy_model(A=1, n_base=2, lam=0.5, q=0.0, seed=4)
        L = 4
        bq = right_inverse_Nq(kern0)
        b0 = right_inverse_N0(kern0)
        # the deformed inverse at q=0 carries the trailing diagonal pair:
        # it equals the plain inverse composed with I - P0
        reduced = compose(b0.inverse, number_operator(space))
        assert kernel_residual(bq.inverse, reduced) <= 1e-14
        prod = truncate_operator(compose(interaction_operator(kern0), bq.inverse), L)
        assert dense_residual(prod, number_operator(space), L) <= 1e-12

    def test_resonance_detected(self):
        # local kernel: 1 + O(z) = (1-q)^2 vanishes exactly at q=1
        space = build_index_space(1, (0, 1))
        kern = KernelSet(space=space, K=np.eye(2), G=np.ones(2), M=np.eye(2), lam=0.5, q=1.0,
                         green=np.eye(2))
        with pytest.raises(ResonantDeformation) as info:
            right_inverse_Nq(kern)
        assert info.value.labels == (0, 1)


class TestGeneralizedInverseAxioms:
    def test_linear_pair(self, oscillator5):
        L = 3
        b = right_inverse_K(oscillator5)
        rep = generalized_inverse_report(b.operator, b.inverse, L)
        assert rep.general <= 1e-10
        assert rep.reflexive <= 1e-10
        assert rep.q_idempotent <= 1e-10 and rep.qprime_idempotent <= 1e-10

    def test_source_pair_left_inverse(self, oscillator5):
        L = 3
        b = left_inverse_G(oscillator5)
        rep = generalized_inverse_report(b.operator, b.inverse, L)
        assert rep.general <= 1e-10
        assert rep.reflexive <= 1e-10
        assert rep.reverse_normalized <= 1e-10  # G_L^{-1} G = I is symmetric
        # the range projector G G_L^{-1} is oblique: the normalized
        # condition fails for a generic weight (negative control)
        assert rep.normalized > 1e-6

    @pytest.mark.parametrize("pair", ["K", "G"])
    def test_kernel_values_equal_the_materialized_residuals(self, oscillator5, pair):
        # on the catalog's pairs each kernel residual equals the block comparison
        L = 3
        b = right_inverse_K(oscillator5) if pair == "K" else left_inverse_G(oscillator5)
        A, G = b.operator, b.inverse
        AG, GA = compose(A, G), compose(G, A)
        rep = generalized_inverse_report(A, G, L)
        assert rep.general == dense_residual(compose(AG, A, L=L), A, L)
        assert rep.reflexive == dense_residual(compose(GA, G, L=L), G, L)
        assert rep.normalized == dense_residual(adjoint(AG), AG, L)
        assert rep.reverse_normalized == dense_residual(adjoint(GA), GA, L)
        assert rep.q_idempotent == dense_residual(compose(GA, GA, L=L), GA, L)
        assert rep.qprime_idempotent == dense_residual(compose(AG, AG, L=L), AG, L)

    def test_transpose_mismatched_pair_fails_normalized(self, oscillator5):
        L = 3
        b = right_inverse_K(oscillator5)
        # deliberately pair K with the adjoint of its inverse
        rep = generalized_inverse_report(b.operator, adjoint(b.inverse), L)
        assert rep.general > 1e-6 or rep.normalized > 1e-6


class TestIdentityCatalog:
    def test_all_pass_on_default_oscillator(self, oscillator5):
        results = identity_catalog(oscillator5, 3)
        failed = [r.id for r in results if r.passed is False]
        assert not failed
        assert not any(r.skipped_reason for r in results)

    def test_reuses_the_neumann_inverse_of_K_plus_G(self, oscillator5, monkeypatch):
        calls = []
        built = inverse.neumann_inverse

        def counted(*args, **kwargs):
            calls.append(args)
            return built(*args, **kwargs)

        monkeypatch.setattr(inverse, "neumann_inverse", counted)
        results = identity_catalog(oscillator5, 3)
        assert len(calls) == 1  # inside right_inverse_K_plus_G
        assert next(r for r in results if r.id == "null_space_invariance").passed

    def test_compares_kernels_without_materializing(self, oscillator5, monkeypatch):
        from freefock import cuntz

        def forbidden(*args, **kwargs):
            raise AssertionError("the catalog materialized an operator")

        for owner in (cuntz, inverse):
            monkeypatch.setattr(owner, "materialize", forbidden)
        monkeypatch.setattr(inverse, "dense_residual", forbidden)
        results = identity_catalog(oscillator5, 3)
        assert all(r.passed is True for r in results)
        by_id = {r.id: r for r in results}
        assert by_id["unit_decomposition"].residual == 0.0
        assert by_id["vacuum_inside_null_space"].residual <= 2.3e-16

    def test_unit_decomposition_catches_a_wrong_vacuum_projector(self, oscillator5, monkeypatch):
        # I - N with N scaled by 1 - 1e-9 leaves 1e-9 on every level above the vacuum
        def off(space):
            return identity_operator(space) - (1.0 - 1e-9) * number_operator(space)

        monkeypatch.setattr(inverse, "vacuum_projector", off)
        by_id = {r.id: r for r in identity_catalog(oscillator5, 3)}
        assert by_id["unit_decomposition"].passed is False

    def test_all_pass_at_T6(self):
        # null_space_invariance's full product has a 9-slot kernel, 6^9 > 1e7
        # entries; composed with the truncation level it is never built
        m = build_oscillator_model(omega=1.0, dt=0.15, T=6, lam=0.05, q=0.3, forcing=0.3,
                                   x0_mean=0.4, v0_mean=0.1, interaction_rows="all")
        results = identity_catalog(m.kernels, 4)
        assert all(r.passed is True for r in results)

    def test_all_pass_at_T12(self):
        # a dense comparison over levels <= 4 would need D^2 = 2.2e9 entries here
        m = build_oscillator_model(omega=1.0, dt=0.15, T=12, lam=0.05, q=0.3, forcing=0.3,
                                   x0_mean=0.4, v0_mean=0.1, interaction_rows="all")
        results = identity_catalog(m.kernels, 4)
        assert all(r.passed is True for r in results)

    def test_zero_source_marks_skip(self):
        m = build_oscillator_model(omega=1.0, dt=0.3, T=5, lam=0.05, forcing=0.0)
        results = identity_catalog(m.kernels, 3)
        skipped = {r.id: r.skipped_reason for r in results if r.skipped_reason}
        assert "left_inverse_source" in skipped
        failed = [r.id for r in results if r.passed is False]
        assert not failed

    def test_resonant_deformation_surfaces(self):
        m = build_oscillator_model(omega=1.0, dt=0.3, T=5, lam=0.05, q=1.0,
                                   forcing=0.4, x0_mean=0.3, v0_mean=0.1)
        results = identity_catalog(m.kernels, 3)
        by_id = {r.id: r for r in results}
        assert by_id["deformed_right_inverse"].skipped_reason is not None
        assert "1 + O(z)" in by_id["deformed_right_inverse"].skipped_reason
        assert by_id["right_inverse_interaction"].passed is True
