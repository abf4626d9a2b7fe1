import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freefock import (
    adjoint,
    apply_operator,
    build_index_space,
    build_oscillator_model,
    classify_triangularity,
    compose,
    eta,
    eta_star,
    format_operator,
    identity_catalog,
    identity_operator,
    interaction_operator,
    linear_operator,
    materialize,
    number_operator,
    perturbation_series,
    right_inverse_N0,
    source_operator,
    symmetrize,
    to_dense_matrix,
    vacuum,
    vacuum_projector,
)
from freefock import cuntz
from freefock.cuntz import (
    Monomial,
    OperatorExpr,
    apply_to_levels,
    kernel_residual,
    permute_annihilation_slots,
)
from freefock.fock import FockVector
from freefock.model import KernelSet
from helpers import (
    basis_word,
    build_toy_model,
    flatten_vector,
    inner,
    project_level,
    random_operator,
    unflatten_vector,
)


def random_vector(space, L, seed=0):
    rng = np.random.default_rng(seed)
    return FockVector(space, tuple(rng.standard_normal((space.d,) * n) for n in range(L + 1)))


def scalar_of(op):
    assert len(op.terms) <= 1
    return float(op.terms[0].kernel) if op.terms else 0.0


class TestGeneratorRelation:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_cuntz_relation_exhaustive(self, d):
        space = build_index_space(1, tuple(range(d)))
        for i in range(d):
            for j in range(d):
                c = compose(eta(space, i), eta_star(space, j))
                assert scalar_of(c) == (1.0 if i == j else 0.0)

    def test_annihilate_then_create_is_zero_operator(self):
        space = build_index_space(1, (0, 1))
        assert compose(eta(space, 0), eta_star(space, 1)).is_zero

    def test_creation_on_vacuum(self):
        space = build_index_space(1, (0, 1, 2))
        v = apply_operator(eta_star(space, 1), vacuum(space, 2))
        assert np.array_equal(v.level(1), [0.0, 1.0, 0.0])

    def test_annihilation_gives_delta(self):
        space = build_index_space(1, (0, 1, 2))
        for i in range(3):
            for j in range(3):
                w = apply_operator(eta(space, i), basis_word(space, 2, (j,)))
                assert float(w.level(0)) == (1.0 if i == j else 0.0)

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_unit_decomposition(self, L):
        space = build_index_space(1, (0, 1, 2))
        unit = number_operator(space) + vacuum_projector(space)
        v = random_vector(space, L, seed=L)
        assert apply_operator(unit, v).allclose(v, atol=0)
        # I - N + N merges back to the bare unit monomial
        assert [(t.n_create, t.n_annihilate) for t in unit.terms] == [(0, 0)]


class TestVacuumProjector:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    def test_materializes_to_the_vacuum_projector(self, d, L):
        space = build_index_space(1, tuple(range(d)))
        blocks = materialize(vacuum_projector(space), L)
        assert set(blocks) == {(n, n) for n in range(L + 1)}
        for (m, n), block in blocks.items():
            want = np.ones((1, 1)) if n == 0 else np.zeros((d**n, d**n))
            # exact zeros, not rounding: 1 - 1 on every diagonal entry
            assert np.array_equal(block, want), (m, n)

    @pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
    def test_application_equals_level_zero_projection(self, L):
        space = build_index_space(1, (0, 1, 2))
        v = random_vector(space, L, seed=30 + L)
        got = apply_operator(vacuum_projector(space), v)
        want = project_level(v, 0)
        for a, b in zip(got.levels, want.levels):
            assert np.array_equal(a, b)

    def test_is_unit_minus_number_operator(self):
        space = build_index_space(2, (0, 1))
        p0 = vacuum_projector(space)
        assert kernel_residual(p0, identity_operator(space) - number_operator(space)) == 0.0
        assert kernel_residual(identity_operator(space) - p0, number_operator(space)) == 0.0
        assert kernel_residual(compose(p0, p0), p0) == 0.0


class TestComposeApplyHomomorphism:
    def test_randomized_hundred_cases(self):
        space = build_index_space(1, (0, 1))
        L = 3
        rng = np.random.default_rng(7)
        for case in range(100):
            a = random_operator(space, rng, n_terms=2)
            b = random_operator(space, rng, n_terms=2)
            v = random_vector(space, L, seed=case)
            lhs = apply_operator(compose(a, b), v)
            rhs = apply_operator(a, apply_operator(b, v))
            # two-step application loses components b pushed above L that a
            # would have lowered back; trust up to L minus a's deepest drop
            drop = max((-t.grading for t in a.terms), default=0)
            hi = L - max(drop, 0)
            for n in range(hi + 1):
                assert np.allclose(lhs.level(n), rhs.level(n), atol=1e-10), (case, n)

    def test_batched_application_matches_columns(self):
        # a trailing batch axis applies the operator to each column, products
        # through the vacuum projector included, and each output level is the
        # materialize blocks times the levels
        rng = np.random.default_rng(11)
        for d, L, batch in ((3, 3, (4,)), (1, 4, (2, 3)), (2, 2, ()), (4, 2, (3,)), (2, 0, (2,))):
            space = build_index_space(1, tuple(range(d)))
            for case in range(10):
                op = random_operator(space, rng, n_terms=3)
                if case % 2:
                    op = op + compose(compose(random_operator(space, rng, n_terms=1), vacuum_projector(space)),
                                      random_operator(space, rng, n_terms=1))
                levels = [rng.standard_normal((d,) * n + batch) for n in range(L + 1)]
                out = apply_to_levels(op, levels)
                blocks = materialize(op, L)
                for m in range(L + 1):
                    # a level is None exactly when no summand writes it
                    assert (out[m] is None) == (not any((m, n) in blocks for n in range(L + 1))), (case, m)
                    if out[m] is None:
                        continue
                    assert out[m].shape == (d,) * m + batch
                    want = np.zeros((d**m, int(np.prod(batch))))
                    for n in range(L + 1):
                        if (m, n) in blocks:
                            want += blocks[(m, n)] @ levels[n].reshape(d**n, -1)
                    got = out[m].reshape(d**m, -1)
                    assert np.allclose(got, want, atol=1e-12, rtol=0), (d, L, batch, case, m)
                for j in np.ndindex(batch):
                    v = FockVector(space, tuple(t[(...,) + j] for t in levels))
                    want = apply_operator(op, v)
                    for n in range(L + 1):
                        got = 0.0 if out[n] is None else out[n][(...,) + j]
                        assert np.allclose(got, want.levels[n], atol=1e-12, rtol=0), (case, j, n)

    def test_associativity(self):
        space = build_index_space(1, (0, 1))
        rng = np.random.default_rng(3)
        for case in range(20):
            a = random_operator(space, rng, n_terms=2)
            b = random_operator(space, rng, n_terms=2)
            c = random_operator(space, rng, n_terms=2)
            assert kernel_residual(compose(compose(a, b), c), compose(a, compose(b, c))) <= 1e-10, case


class TestAdjoint:
    def test_adjoint_of_annihilator(self):
        space = build_index_space(1, (0, 1))
        assert kernel_residual(adjoint(eta(space, 0)), eta_star(space, 0)) == 0.0

    def test_involution(self):
        space = build_index_space(1, (0, 1))
        rng = np.random.default_rng(11)
        for case in range(20):
            op = random_operator(space, rng)
            assert kernel_residual(adjoint(adjoint(op)), op) == 0.0, case

    def test_pairing_identity(self):
        space = build_index_space(1, (0, 1))
        L = 3
        rng = np.random.default_rng(13)
        for case in range(30):
            # raising-free operators avoid truncation asymmetry in the pairing
            op = random_operator(space, rng, max_create=1, max_annihilate=1, n_terms=2)
            u = random_vector(space, L, seed=2 * case)
            v = random_vector(space, L, seed=2 * case + 1)
            lhs = inner(apply_operator(op, u), v)
            rhs = inner(u, apply_operator(adjoint(op), v))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_materialized_adjoint_is_transpose(self):
        space = build_index_space(1, (0, 1))
        rng = np.random.default_rng(17)
        op = random_operator(space, rng)
        a = to_dense_matrix(op, 3)
        b = to_dense_matrix(adjoint(op), 3)
        assert np.allclose(a.T, b, atol=1e-12)


@pytest.fixture
def oscillator_kernels():
    return build_oscillator_model(
        omega=1.0, dt=0.25, T=4, lam=0.05, q=0.0, forcing=0.3, x0_mean=0.2, v0_mean=0.1
    ).kernels


class TestTriangularity:
    def test_linear_part_is_diagonal(self, oscillator_kernels):
        assert str(classify_triangularity(linear_operator(oscillator_kernels))) == "diagonal"

    def test_source_raises_by_one(self, oscillator_kernels):
        rep = classify_triangularity(source_operator(oscillator_kernels))
        assert rep.kind == "raising" and rep.k == 1

    def test_cubic_interaction_lowers_by_two(self, oscillator_kernels):
        rep = classify_triangularity(interaction_operator(oscillator_kernels))
        assert rep.kind == "lowering" and rep.k == 2

    def test_mixed(self, oscillator_kernels):
        op = source_operator(oscillator_kernels) + linear_operator(oscillator_kernels)
        assert classify_triangularity(op).kind == "mixed"


class TestModelOperators:
    def test_linear_operator_scalar_model(self):
        # d=1, K=[k]: the linear operator scales the one-label word by k
        space = build_index_space(1, (0,))
        kern = KernelSet(space=space, K=np.array([[1.7]]), G=np.array([0.0]), M=np.eye(1))
        w = apply_operator(linear_operator(kern), basis_word(space, 2, (0,)))
        assert float(w.level(1)[0]) == pytest.approx(1.7, abs=0)

    def test_source_on_vacuum(self, oscillator_kernels):
        w = apply_operator(source_operator(oscillator_kernels), vacuum(oscillator_kernels.space, 2))
        assert np.array_equal(w.level(1), oscillator_kernels.G)

    def test_cubic_hand_check_single_label(self):
        # d=1: N applied to the level-3 word gives lam*M on the level-1 word
        space = build_index_space(1, (0,))
        kern = KernelSet(space=space, K=np.eye(1), G=np.ones(1), M=np.array([[0.7]]), lam=0.8)
        w = apply_operator(interaction_operator(kern), basis_word(space, 3, (0, 0, 0)))
        assert float(w.level(1)[0]) == pytest.approx(0.8 * 0.7, abs=1e-15)

    def test_cubic_component_contraction_at_A3(self):
        # input: sum over components of the triple word at one base label;
        # output: the interaction weight times the level-1 invariant word
        space = build_index_space(3, (0,))
        kern = KernelSet(space=space, K=np.eye(3), G=np.ones(3), M=np.array([[0.7]]), lam=1.0)
        t3 = np.zeros((3, 3, 3))
        for a in range(3):
            t3[a, a, a] = 1.0
        v = FockVector(space, (np.zeros(()), np.zeros(3), np.zeros((3, 3)), t3))
        w = apply_operator(interaction_operator(kern), v)
        assert np.allclose(w.level(1), 0.7 * np.ones(3), atol=1e-15)


class TestInteractionCache:
    """N at a kernel set's own q is built once and shared; another q builds afresh."""

    @staticmethod
    def deformed_kernels():
        return build_oscillator_model(
            omega=1.0, dt=0.15, T=5, lam=0.05, q=0.3, forcing=0.3, x0_mean=0.4, v0_mean=0.1
        ).kernels

    @staticmethod
    def count_builds(monkeypatch):
        calls = []
        build = cuntz._build_interaction

        def counted(kernels, q):
            calls.append(q)
            return build(kernels, q)

        monkeypatch.setattr(cuntz, "_build_interaction", counted)
        return calls

    def test_one_operator_per_kernel_set(self, oscillator_kernels):
        N = interaction_operator(oscillator_kernels)
        assert interaction_operator(oscillator_kernels) is N
        assert interaction_operator(oscillator_kernels, q=oscillator_kernels.q) is N
        assert oscillator_kernels.interaction is N
        assert N.terms[0].matrix is interaction_operator(oscillator_kernels).terms[0].matrix

    def test_another_q_builds_afresh_and_leaves_the_cached_operator(self):
        kern = self.deformed_kernels()
        N = interaction_operator(kern)
        before = N.terms[0].kernel.tobytes()
        at_zero = interaction_operator(kern, q=0.0)
        assert at_zero is not N and interaction_operator(kern, q=0.0) is not at_zero
        assert at_zero.terms[0].kernel.tobytes() == cuntz._build_interaction(kern, 0.0).terms[0].kernel.tobytes()
        assert at_zero.terms[0].kernel.tobytes() != before
        assert interaction_operator(kern) is N and N.terms[0].kernel.tobytes() == before

    def test_deformed_catalog_builds_only_the_undeformed_interaction(self, monkeypatch):
        # right_inverse_N0 asks for q = 0.0 at q = 0.3; right_inverse_Nq reads the cached N
        kern = self.deformed_kernels()
        assert right_inverse_N0(kern).operator is not interaction_operator(kern)
        calls = self.count_builds(monkeypatch)
        results = identity_catalog(kern, 3)
        assert calls == [0.0]
        assert not [r.id for r in results if r.passed is False]

    def test_cached_kernel_and_matrix_are_read_only(self, oscillator_kernels):
        t = interaction_operator(oscillator_kernels).terms[0]
        for a in (t.kernel, t.matrix, t.nonzero_columns[1]):
            with pytest.raises(ValueError):
                a[(0,) * a.ndim] = 1.0

    def test_replaced_kernel_set_gets_its_own_interaction(self, oscillator_kernels):
        N = interaction_operator(oscillator_kernels)
        other = dataclasses.replace(oscillator_kernels, lam=2.0 * oscillator_kernels.lam)
        N2 = interaction_operator(other)
        assert N2 is not N and interaction_operator(other) is N2
        assert np.array_equal(N2.terms[0].kernel, 2.0 * N.terms[0].kernel)

    def test_second_series_call_builds_no_interaction(self, monkeypatch):
        kern = self.deformed_kernels()
        calls = self.count_builds(monkeypatch)
        first = perturbation_series(kern, 4, order=2)
        assert calls == [kern.q]
        second = perturbation_series(kern, 4, order=2)
        assert calls == [kern.q]
        assert [t.tobytes() for t in second.V.levels] == [t.tobytes() for t in first.V.levels]

    def test_second_series_call_computes_no_interaction_matrix(self, monkeypatch, oscillator_kernels):
        # the series applies the kernel set's own N, and the residual's
        # K + N + G keeps N's summand as it is, so neither rebuilds N's
        # matrix or nonzero columns; K, built per call, is counted
        perturbation_series(oscillator_kernels, 4, order=2)
        computed = []
        for name in ("matrix", "nonzero_columns"):
            prop = vars(Monomial)[name]

            def counted(t, func=prop.func, name=name):
                computed.append((name, t.n_create, t.n_annihilate))
                return func(t)

            monkeypatch.setattr(prop, "func", counted)
        rep = perturbation_series(oscillator_kernels, 4, order=2)
        assert rep.extras["orders_used"] == 2
        assert ("matrix", 1, 1) in computed
        assert not [c for c in computed if c[1:] == (1, 3)], computed

    def test_merge_keeps_a_summand_no_other_shares_its_key_with(self, oscillator_kernels):
        N = interaction_operator(oscillator_kernels)
        K = linear_operator(oscillator_kernels)
        op = cuntz.hierarchy_operator(oscillator_kernels)
        assert any(t is N.terms[0] for t in op.terms)
        # two summands with one key are added into a new one
        twice = K + K
        assert twice.terms[0] is not K.terms[0]
        assert np.array_equal(twice.terms[0].kernel, K.terms[0].kernel + K.terms[0].kernel)


class TestNormalOrderingIndifference:
    def test_orderings_agree_on_symmetric_vectors(self):
        space, kernels = build_toy_model(A=1, n_base=2, lam=0.3, q=0.4, seed=2)
        N = interaction_operator(kernels)
        N_perm = permute_annihilation_slots(N, (2, 0, 1))
        v = symmetrize(random_vector(space, 4, seed=21))
        assert apply_operator(N, v).allclose(apply_operator(N_perm, v), atol=1e-12)

    def test_orderings_differ_off_symmetric_subspace(self):
        space, kernels = build_toy_model(A=1, n_base=2, lam=0.3, q=0.4, seed=2)
        N = interaction_operator(kernels)
        N_perm = permute_annihilation_slots(N, (2, 0, 1))
        t = np.zeros((2, 2, 2))
        t[0, 1, 1] = 1.0  # asymmetric level-3 word
        v = FockVector(space, (np.zeros(()), np.zeros(2), np.zeros((2, 2)), t))
        assert not apply_operator(N, v).allclose(apply_operator(N_perm, v), atol=1e-12)


class TestMaterialize:
    def test_identity_blocks(self):
        space = build_index_space(1, (0, 1))
        blocks = materialize(identity_operator(space), 2)
        for n in range(3):
            assert np.array_equal(blocks[(n, n)], np.eye(2**n))

    def test_source_only_raising_blocks(self, oscillator_kernels):
        blocks = materialize(source_operator(oscillator_kernels), 3)
        assert set(blocks) == {(1, 0), (2, 1), (3, 2)}

    def test_summand_matrix_is_cached_and_read_only(self):
        rng = np.random.default_rng(5)
        d = 3
        for p in range(3):
            for s in range(4):
                t = Monomial(p, s, rng.standard_normal((d,) * (p + s)))
                axes = list(range(p)) + list(range(p + s - 1, p - 1, -1))
                uncached = np.ascontiguousarray(np.transpose(t.kernel, axes)).reshape(d**p, d**s)
                assert np.array_equal(t.matrix, uncached)
                assert t.matrix is t.matrix
                assert not t.matrix.flags.writeable
                with pytest.raises(ValueError):
                    t.matrix[0, 0] = 1.0

    def test_exhaustive_basis_agreement(self):
        space = build_index_space(1, (0, 1))
        L = 2
        kern = KernelSet(space=space, K=np.array([[1.0, 2.0], [3.0, 4.0]]), G=np.zeros(2), M=np.eye(2))
        op = linear_operator(kern)
        mat = to_dense_matrix(op, L)
        words = [()] + [(i,) for i in range(2)] + [(i, j) for i in range(2) for j in range(2)]
        for word in words:
            v = basis_word(space, L, word)
            direct = apply_operator(op, v)
            via_matrix = unflatten_vector(space, L, mat @ flatten_vector(v))
            assert direct.allclose(via_matrix, atol=0), word


class TestStatePositivity:
    def test_vacuum_expectation_of_squares(self):
        space = build_index_space(1, (0, 1))
        L = 5
        rng = np.random.default_rng(23)
        for case in range(100):
            op = random_operator(space, rng, max_create=2, max_annihilate=2, n_terms=2)
            val = float(
                apply_operator(compose(adjoint(op), op), vacuum(space, L)).level(0)
            )
            norm = inner(apply_operator(op, vacuum(space, L)),
                         apply_operator(op, vacuum(space, L)))
            assert val >= -1e-12, case
            assert val == pytest.approx(norm, rel=1e-10, abs=1e-10), case


class TestPrinting:
    def test_golden_form(self):
        # the vacuum projector prints as I - N, merged into the (1, 1) kernel
        space = build_index_space(1, (0, 1))
        op = OperatorExpr(space, (Monomial(1, 1, np.array([[1.0, 0.5], [0.0, 2.0]])),)) + vacuum_projector(space)
        expected = (
            "k[]\n"
            "  k = 1.0\n"
            "η*[x0] k[x0,y0] η[y0]\n"
            "  k = [[0.0, 0.5],\n"
            "       [0.0, 1.0]]"
        )
        assert format_operator(op) == expected

    def test_zero_operator(self):
        space = build_index_space(1, (0,))
        assert format_operator(OperatorExpr(space, ())) == "0"

    def test_stable_ordering(self):
        space = build_index_space(1, (0, 1))
        a = Monomial(1, 0, np.ones(2))
        b = Monomial(0, 1, np.ones(2))
        assert format_operator(OperatorExpr(space, (a, b))) == format_operator(
            OperatorExpr(space, (b, a))
        )


class TestComponentContractionFactor:
    @pytest.mark.parametrize("A", [1, 2, 3])
    def test_factor_equals_component_count(self, A):
        space = build_index_space(A, (0, 1))
        for z in range(2):
            for y in range(2):
                low = np.zeros((space.d, space.d))
                high = np.zeros((space.d, space.d))
                for al in range(A):
                    low[space.encode_idx(al, z), space.encode_idx(al, z)] += 1.0
                    high[space.encode_idx(al, y), space.encode_idx(al, y)] += 1.0
                prod = compose(
                    OperatorExpr(space, (Monomial(0, 2, low),)),
                    OperatorExpr(space, (Monomial(2, 0, high),)),
                )
                expected = float(A) if z == y else 0.0
                got = float(prod.terms[0].kernel) if prod.terms else 0.0
                assert got == expected


@settings(max_examples=300, deadline=None)
@given(
    d=st.integers(1, 5),
    slots=st.tuples(*[st.integers(0, 3)] * 4),
    data=st.data(),
)
def test_contract_bit_equals_tensordot(d, slots, data):
    # composing (pa, sa) with (pb, sb) sums a's last k axes, last first,
    # against b's first k; kernels may be transposed views (adjoints are)
    pa, sa, pb, sb = slots
    k = data.draw(st.integers(0, min(sa, pb)), label="k")
    assume(d ** (pa + sa + pb + sb - 2 * k) <= 2**17)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))

    def kernel(n):
        base = rng.standard_normal((d,) * n) * (rng.random((d,) * n) < 0.8)
        return np.transpose(base, data.draw(st.permutations(range(n)), label="axes"))

    a, b = kernel(pa + sa), kernel(pb + sb)
    axes = 0 if k == 0 else ([pa + sa - 1 - i for i in range(k)], list(range(k)))
    want = np.tensordot(a, b, axes=axes)
    got = cuntz._contract(a, b, k)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()
