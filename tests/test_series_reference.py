"""The perturbation series on level lists against the loop it replaced.

``reference_series`` is the series loop built on FockVector arithmetic:
every increment, running sum, interaction image and residual image is a
vector, and the (K+G) right inverse runs its GEMM on every level, empty
ones included.  The library's loop keeps level arrays, skips the GEMM on
levels the interaction leaves empty and adds in place; its outputs must
be bit-equal to the reference's, signed zeros included.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freefock import (
    apply_operator,
    build_oscillator_model,
    free_solution,
    hierarchy_operator,
    interaction_operator,
    perturbation_series,
    residual_by_level,
)
from freefock.errors import SeriesDiverging, ShapeError
from freefock.fock import FockVector
from helpers import build_toy_model

# (A, n_base) with d = A * n_base from 1 to 5
SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (2, 1), (2, 2), (3, 1), (4, 1), (5, 1)]


def abs_norms(v):
    return {n: float(np.abs(np.ravel(t)).max()) for n, t in enumerate(v.levels)}


def reference_right_inverse(kernels, v):
    """Forward substitution for the (K+G) right inverse, one GEMM on every level."""
    d, green = kernels.space.d, kernels.green
    g = green @ kernels.G
    w = [np.zeros(())]
    for n in range(1, v.L + 1):
        level = green @ np.reshape(v.levels[n], (d, -1))
        prev = w[-1].reshape(-1)
        for row, gi in zip(level, g):
            row -= gi * prev
        w.append(level.reshape((d,) * n))
    return FockVector(v.space, tuple(w))


def reference_residual(v, kernels, rows):
    image = apply_operator(hierarchy_operator(kernels), v)
    data_rows = kernels.data_rows if rows == "equation" else ()
    per_level = {}
    for n in range(v.L + 1):
        t = image.levels[n]
        if n and data_rows:
            t = t.copy()
            t[list(data_rows)] = 0.0
        per_level[n] = float(np.abs(t).max())
    return per_level


@dataclasses.dataclass
class Outcome:
    V: FockVector
    residual: dict
    counts: dict
    used: int
    diverging: bool


class ReferenceDiverging(Exception):
    def __init__(self, partial):
        self.partial = partial


def reference_series(kernels, L, order=None, tol=None, rows="all"):
    if order is None and tol is None:
        order = 2
    seed = free_solution(kernels, L)
    minus_N = interaction_operator(kernels) * -1.0 if kernels.lam != 0.0 else None
    counts = {}

    def count(norms):
        for n, nz in norms.items():
            if nz != 0.0:
                counts[n] = counts.get(n, 0) + 1

    def finish(V, diverging):
        return Outcome(V, reference_residual(V, kernels, rows), dict(counts), used, diverging)

    count(abs_norms(seed))
    V = term = seed
    prev_norm, growths, used, diverging = None, 0, 0, False
    if minus_N is not None:
        for i in range(1, (order if order is not None else 64) + 1):
            term = reference_right_inverse(kernels, apply_operator(minus_N, term))
            norms = abs_norms(term)
            norm = max(norms.values())
            if norm == 0.0:
                break
            V = V + term
            used = i
            count(norms)
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
                raise ReferenceDiverging(finish(V, True))
    return finish(V, diverging)


def run(fn):
    """(outcome or exception, growth warning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn()
        except (SeriesDiverging, ReferenceDiverging, ShapeError) as exc:
            out = exc
    return out, [str(w.message) for w in caught if w.category is UserWarning]


def bits(x):
    return np.float64(x).tobytes()


def assert_same_outcome(got, want, residual=None):
    """``residual`` is compared with the reference's; by default it is the report's own."""
    residual = got.residual.per_level if residual is None else residual
    assert len(got.V.levels) == len(want.V.levels)
    for n, (a, b) in enumerate(zip(got.V.levels, want.V.levels)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), n
    assert residual.keys() == want.residual.keys()
    for n, r in want.residual.items():
        assert bits(residual[n]) == bits(r), n
    assert got.series_terms_used == want.counts
    assert got.extras["orders_used"] == want.used
    assert got.diverging == want.diverging


@settings(max_examples=80, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    L=st.integers(0, 6),
    lam=st.sampled_from([0.0, 0.05, 0.3, 3.0, 300.0, 1e300]),
    q=st.sampled_from([0.0, 0.3]),
    order=st.one_of(st.none(), st.integers(0, 6)),
    tol=st.one_of(st.none(), st.sampled_from([1e-2, 1e-6, 1e-12])),
    rows=st.sampled_from(["all", "equation"]),
    seed=st.integers(0, 2**16),
)
def test_series_is_bit_equal_to_the_vector_loop(shape, L, lam, q, order, tol, rows, seed):
    A, n_base = shape
    _, kern = build_toy_model(A=A, n_base=n_base, lam=lam, q=q, seed=seed)
    kern = dataclasses.replace(kern, data_rows=(0,))
    got, got_warnings = run(lambda: perturbation_series(kern, L, order=order, tol=tol))
    want, want_warnings = run(lambda: reference_series(kern, L, order=order, tol=tol, rows=rows))
    assert got_warnings == want_warnings
    if isinstance(want, ShapeError):
        assert isinstance(got, ShapeError)
        return
    if isinstance(want, ReferenceDiverging):
        assert isinstance(got, SeriesDiverging)
        got, want = got.partial, want.partial
    # the series reports the residual on all rows; the equation rows are checked through residual_by_level
    assert_same_outcome(got, want, residual_by_level(got.V, kern, rows).per_level)


def test_divergence_partial_is_bit_equal():
    # a strong coupling on the scalar model grows over three orders
    _, kern = build_toy_model(A=1, n_base=1, lam=300.0, seed=2)
    got, got_warnings = run(lambda: perturbation_series(kern, 5, order=12))
    want, want_warnings = run(lambda: reference_series(kern, 5, order=12))
    assert isinstance(got, SeriesDiverging) and isinstance(want, ReferenceDiverging)
    assert got_warnings == want_warnings and len(got_warnings) >= 3
    assert_same_outcome(got.partial, want.partial)


def test_overflowing_increment_raises_before_returning():
    # a coupling of 1e300 sends the second increment past the float range
    _, kern = build_toy_model(A=1, n_base=3, lam=1e300, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ShapeError, match="contains non-finite entries"):
            perturbation_series(kern, 5, order=4)


def test_one_series_builds_at_most_three_vectors(monkeypatch):
    # the T = 12, L = 6 series: 3.26M entries, 26 MB, per vector
    kern = build_oscillator_model(
        omega=1.0, dt=0.15, T=12, lam=0.02, forcing=0.3, x0_mean=0.4, v0_mean=0.1,
        interaction_rows="interior",
    ).kernels
    built = []
    original = FockVector.__post_init__

    def counted(self):
        built.append(sum(np.asarray(t).nbytes for t in self.levels))
        original(self)

    monkeypatch.setattr(FockVector, "__post_init__", counted)
    rep = perturbation_series(kern, 6, order=3)
    assert rep.extras["orders_used"] == 3
    assert len(built) <= 3, len(built)
    assert sum(built) <= 8e7, sum(built)
