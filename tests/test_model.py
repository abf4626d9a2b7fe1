import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import build_index_space, build_oscillator_model, validate_kernels
from freefock.errors import DuplicateLabel, GridTooSmall, InvalidComponentCount, ShapeError
from freefock.model import KernelSet
from helpers import build_toy_model


class TestIndexSpace:
    def test_smallest_space(self):
        space = build_index_space(1, ("u0",))
        assert space.d == 1

    def test_codec_convention(self):
        space = build_index_space(3, ("u0", "u1"))
        assert space.d == 6
        assert space.decode(0) == (1, "u0")

    def test_round_trip_exhaustive(self):
        space = build_index_space(2, tuple(range(4)))
        assert space.d == 8
        for flat in range(8):
            alpha, u = space.decode(flat)
            assert space.encode(alpha, u) == flat

    @given(A=st.integers(1, 4), n=st.integers(1, 9))
    @settings(deadline=None, max_examples=40)
    def test_round_trip_property(self, A, n):
        space = build_index_space(A, tuple(range(n)))
        assert space.d == A * n
        for flat in range(space.d):
            alpha, u = space.decode(flat)
            assert space.encode(alpha, u) == flat

    def test_duplicate_labels(self):
        with pytest.raises(DuplicateLabel):
            build_index_space(1, ("a", "a"))

    def test_bad_component_count(self):
        with pytest.raises(InvalidComponentCount):
            build_index_space(0, ("a",))


class TestOscillatorModel:
    def test_second_difference_pattern(self):
        # omega=0, dt=1, T=3: the single stencil row is (1, -2, 1)
        m = build_oscillator_model(omega=0.0, dt=1.0, T=3, lam=0.0)
        K = m.kernels.K
        assert np.allclose(K[2], [1.0, -2.0, 1.0])
        assert np.abs(K @ m.kernels.green - np.eye(3)).max() <= 1e-10

    def test_green_is_retarded(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=50, lam=0.0)
        green = m.kernels.green
        # strictly retarded: no entry above the diagonal in time ordering
        assert np.allclose(np.triu(green, k=1), 0.0, atol=1e-12)

    def test_lower_triangular_in_time(self):
        m = build_oscillator_model(omega=0.7, dt=0.2, T=6, lam=0.0)
        assert np.allclose(np.triu(m.kernels.K, k=1), 0.0)

    def test_mdiag_consistency(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=5, lam=0.1)
        assert np.allclose(m.kernels.Mdiag, m.kernels.M.sum(axis=1), atol=1e-12)

    def test_grid_too_small(self):
        with pytest.raises(GridTooSmall):
            build_oscillator_model(omega=1.0, dt=0.1, T=2)

    def test_interior_interaction_rows_are_zeroed(self):
        m = build_oscillator_model(omega=1.0, dt=0.1, T=5, lam=0.1, interaction_rows="interior")
        assert np.all(m.kernels.M[:2] == 0.0)
        assert np.all(m.kernels.Mdiag[2:] == 1.0)

    def test_hierarchy_coupling_sign(self):
        # the cubic term moves to the left-hand side of the hierarchy
        m = build_oscillator_model(omega=1.0, dt=0.1, T=5, lam=0.25)
        assert m.kernels.lam == -0.25


class TestValidateKernels:
    def test_clean_model(self):
        m = build_oscillator_model(omega=1.0, dt=0.2, T=6, lam=0.0, forcing=0.5,
                                   x0_mean=0.1, v0_mean=0.2)
        diag = validate_kernels(m.kernels)
        assert diag.ok
        assert diag.green_residual <= 1e-10
        assert not diag.warnings

    def test_zero_source_warning(self):
        m = build_oscillator_model(omega=1.0, dt=0.2, T=6, lam=0.0)  # forcing 0
        diag = validate_kernels(m.kernels)
        assert any("left inverse of G undefined at label" in w for w in diag.warnings)
        assert 2 in diag.zero_source_labels

    def test_singular_free_boundary(self):
        m = build_oscillator_model(omega=0.0, dt=1.0, T=5, boundary="free")
        diag = validate_kernels(m.kernels)
        assert not diag.ok
        assert len(diag.near_null) >= 2  # two free boundary rows
        assert any("nearly singular" in w for w in diag.warnings)

    def test_shape_mismatch(self):
        space = build_index_space(1, (0, 1, 2))
        with pytest.raises(ShapeError):
            KernelSet(space=space, K=np.eye(2), G=np.zeros(3), M=np.eye(3))


def test_toy_model_is_well_conditioned():
    space, kernels = build_toy_model(A=2, n_base=3, lam=0.1, q=0.2, seed=1)
    assert space.d == 6
    assert np.abs(kernels.K @ kernels.green - np.eye(6)).max() <= 1e-10
    assert np.all(kernels.G != 0.0)
    assert np.all(kernels.Mdiag > 0.0)
