import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import (
    CorrelationTable,
    build_index_space,
    from_json,
    symmetrize,
    to_json,
    vacuum,
)
from freefock.errors import BudgetExceeded, LevelOutOfRange, ShapeError
from freefock.fock import FockVector, level_max_abs, storage_size, symmetrize_level
from helpers import basis_word, extract_correlation, inner, project_level

NON_FINITE = [np.nan, np.inf, -np.inf]


def random_vector(space, L, seed=0):
    rng = np.random.default_rng(seed)
    return FockVector(space, tuple(rng.standard_normal((space.d,) * n) for n in range(L + 1)))


class TestVacuum:
    def test_definition(self):
        space = build_index_space(1, (0,))
        v = vacuum(space, 2)
        assert float(v.level(0)) == 1.0
        assert np.all(v.level(1) == 0.0)
        assert np.all(v.level(2) == 0.0)

    def test_normalization(self):
        space = build_index_space(1, (0, 1))
        v = vacuum(space, 3)
        assert inner(v, v) == 1.0

    def test_grading(self):
        space = build_index_space(1, (0, 1))
        v = vacuum(space, 3)
        assert project_level(v, 1).max_abs() == 0.0

    def test_budget(self):
        space = build_index_space(1, tuple(range(50)))
        with pytest.raises(BudgetExceeded):
            vacuum(space, 5, budget=10_000)


class TestProjectors:
    @pytest.mark.parametrize("d,L", [(2, 4), (3, 4), (4, 4), (5, 4)])
    def test_orthogonality_and_completeness(self, d, L):
        space = build_index_space(1, tuple(range(d)))
        v = random_vector(space, L, seed=d)
        total = None
        for n in range(L + 1):
            pn = project_level(v, n)
            assert project_level(pn, n).allclose(pn, atol=0)  # idempotent
            for m in range(L + 1):
                if m != n:
                    assert project_level(pn, m).max_abs() == 0.0
            total = pn if total is None else total + pn
        assert total.allclose(v, atol=0)

    def test_out_of_range(self):
        space = build_index_space(1, (0,))
        with pytest.raises(LevelOutOfRange):
            project_level(vacuum(space, 2), 3)


class TestInner:
    def test_basis_words_orthonormal(self):
        space = build_index_space(1, (0, 1, 2))
        for i in range(3):
            for j in range(3):
                ei = basis_word(space, 2, (i,))
                ej = basis_word(space, 2, (j,))
                assert inner(ei, ej) == (1.0 if i == j else 0.0)

    def test_positive(self):
        space = build_index_space(1, (0, 1))
        v = random_vector(space, 3, seed=5)
        assert inner(v, v) >= 0.0

    def test_flatten_dot_oracle(self):
        space = build_index_space(1, (0, 1))
        u = random_vector(space, 3, seed=1)
        v = random_vector(space, 3, seed=2)
        flat = sum(float(np.dot(a.ravel(), b.ravel())) for a, b in zip(u.levels, v.levels))
        assert inner(u, v) == pytest.approx(flat, abs=1e-12)


class TestSymmetrize:
    def test_hand_value(self):
        # level-2 tensor [[0,1],[0,0]] averages to [[0,.5],[.5,0]]
        space = build_index_space(1, (0, 1))
        levels = (np.ones(()), np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]))
        v = FockVector(space, levels)
        s = symmetrize(v)
        assert np.allclose(s.level(2), [[0.0, 0.5], [0.5, 0.0]], atol=0)

    def test_fixed_point(self):
        space = build_index_space(1, (0, 1))
        t = np.array([[1.0, 2.0], [2.0, 3.0]])
        v = FockVector(space, (np.ones(()), np.zeros(2), t))
        assert symmetrize(v).allclose(v, atol=0)

    @given(seed=st.integers(0, 1000))
    @settings(deadline=None, max_examples=25)
    def test_idempotent(self, seed):
        space = build_index_space(1, (0, 1))
        v = random_vector(space, 3, seed=seed)
        once = symmetrize(v)
        assert symmetrize(once).allclose(once, atol=1e-14)

    def test_level_average_carries_batch_axis(self):
        space = build_index_space(1, (0, 1, 2))
        cols = [random_vector(space, 3, seed=40 + j) for j in range(5)]
        for n in range(4):
            stacked = np.stack([v.levels[n] for v in cols], axis=-1)
            out = symmetrize_level(stacked, n)
            for j, v in enumerate(cols):
                assert np.array_equal(out[..., j], symmetrize(v).levels[n])

    def test_commutes_with_level_projection(self):
        space = build_index_space(1, (0, 1))
        v = random_vector(space, 3, seed=9)
        for n in range(4):
            a = symmetrize(project_level(v, n))
            b = project_level(symmetrize(v), n)
            assert a.allclose(b, atol=1e-14)


class TestCorrelationAccess:
    def test_empty_word(self):
        space = build_index_space(1, (0, 1))
        v = vacuum(space, 2)
        assert extract_correlation(v, ()) == 1.0

    def test_word_too_long(self):
        space = build_index_space(1, (0, 1))
        with pytest.raises(LevelOutOfRange):
            extract_correlation(vacuum(space, 2), (0, 0, 0))

    def test_symmetrized_extraction_is_word_invariant(self):
        space = build_index_space(1, (0, 1))
        v = symmetrize(random_vector(space, 3, seed=3))
        assert extract_correlation(v, (0, 1, 1)) == pytest.approx(
            extract_correlation(v, (1, 1, 0)), abs=1e-14
        )

    # an estimated table reaches the solvers through CorrelationTable.to_vector:
    # level 0 is 1, levels up to max_order are the estimates, levels above are 0

    def test_assemble_empty_is_vacuum(self):
        space = build_index_space(1, (0, 1))
        v = CorrelationTable(values={}, stderr={}, samples=1, max_order=0).to_vector(space, 2)
        assert v.allclose(vacuum(space, 2), atol=0)

    def test_assemble_round_trip(self):
        space = build_index_space(1, (0, 1))
        values = {n: random_vector(space, 3, seed=5).levels[n] for n in range(3)}
        v = CorrelationTable(values=values, stderr={}, samples=1, max_order=2).to_vector(space, 3)
        assert v.levels[0] == 1.0
        for n in (1, 2):
            assert v.levels[n].tobytes() == values[n].tobytes()
        assert not np.any(v.levels[3])

    def test_non_symmetric_table_assembles_verbatim(self):
        # the levels are copies, not symmetrized and not views of the table
        space = build_index_space(1, (0, 1))
        level = np.array([[0.0, 1.0], [0.0, 0.0]])
        v = CorrelationTable(values={1: np.zeros(2), 2: level}, stderr={}, samples=1, max_order=2).to_vector(space, 2)
        assert extract_correlation(v, (0, 1)) == 1.0 and extract_correlation(v, (1, 0)) == 0.0
        assert not np.shares_memory(v.levels[2], level)
        assert extract_correlation(symmetrize(v), (0, 1)) == 0.5


class TestJson:
    def test_bit_exact_round_trip(self):
        space = build_index_space(1, (0, 1, 2))
        v = random_vector(space, 3, seed=11)
        w = from_json(to_json(v), space)
        for a, b in zip(v.levels, w.levels):
            assert np.array_equal(a, b)
            assert a.tobytes() == b.tobytes()

    def test_document_fields(self):
        space = build_index_space(1, (0, 1))
        doc = json.loads(to_json(vacuum(space, 2)))
        assert doc["d"] == 2 and doc["L"] == 2 and len(doc["levels"]) == 3

    def test_declared_L_must_match_the_levels(self):
        space = build_index_space(1, (0, 1))
        doc = json.loads(to_json(random_vector(space, 3, seed=5)))
        doc["L"] = 1
        with pytest.raises(ShapeError, match=r"document L=1 does not match its levels 0\.\.3"):
            from_json(json.dumps(doc), space)


class TestNonFiniteUserInput:
    """A NaN or an inf from the user raises where the vector is built."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_direct_construction(self, bad):
        space = build_index_space(1, (0, 1))
        level2 = np.zeros((2, 2))
        level2[1, 0] = bad
        with pytest.raises(ShapeError, match="level 2 contains non-finite"):
            FockVector(space, (np.ones(()), np.zeros(2), level2))

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_json_document(self, bad):
        space = build_index_space(1, (0, 1))
        doc = json.loads(to_json(random_vector(space, 2, seed=4)))
        doc["levels"][1][0] = bad
        # json writes and reads NaN and Infinity literals
        with pytest.raises(ShapeError, match="level 1 contains non-finite"):
            from_json(json.dumps(doc), space)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_assembled_whole_level(self, bad):
        space = build_index_space(1, (0, 1))
        level = np.full((2, 2), 0.5)
        level[0, 1] = bad
        table = CorrelationTable(values={0: np.ones(()), 1: np.zeros(2), 2: level}, stderr={}, samples=2, max_order=2)
        with pytest.raises(ShapeError, match="level 2 contains non-finite"):
            table.to_vector(space, 2)


def test_construction_allocates_no_level_sized_temporary(traced_peak):
    # the finiteness check reduces each level with max and min; a boolean
    # mask of the largest level alone would be 1/8 of the largest level's bytes
    space, L = build_index_space(1, tuple(range(10))), 6
    levels = tuple(np.zeros((space.d,) * n) for n in range(L + 1))
    _, peak = traced_peak(FockVector, space, levels)
    assert peak <= 0.01 * 8 * storage_size(space.d, L)


class TestLevelMaxAbs:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 3),
        data=st.data(),
    )
    def test_equals_abs_max_bit_for_bit(self, n, data):
        values = st.sampled_from([0.0, -0.0, 1.5, -1.5, 2.0**-1074, -(2.0**-1074), 1e308, -1e308])
        t = np.array(data.draw(st.lists(values, min_size=2**n, max_size=2**n))).reshape((2,) * n)
        got, want = level_max_abs(t), float(np.abs(t).max())
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_entry_gives_non_finite_norm(self, bad):
        t = np.array([[1.0, -2.0], [bad, 0.0]])
        assert not np.isfinite(level_max_abs(t))
