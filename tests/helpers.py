"""Helpers that only the tests read.

The library keeps what a demo, the benchmark, the README or an
acceptance test reads (``tests/test_public_names.py`` holds that line);
these build test inputs and read test outputs.
"""

import csv
import importlib.util
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from freefock import cli
from freefock.cuntz import (
    Monomial,
    OperatorExpr,
    apply_to_levels,
    compose,
    hierarchy_operator,
    identity_operator,
    interaction_operator,
    level_offsets,
    linear_operator,
    source_operator,
)
from freefock.errors import LevelOutOfRange
from freefock.fock import FockVector
from freefock.model import KernelSet, build_index_space
from freefock.oracle import estimate_mtcf
from freefock.solver import _level_norms


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py``, which is not a package, as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def build_toy_model(A=1, n_base=3, lam=0.05, q=0.0, seed=0):
    """Small well-conditioned model for algebra checks at arbitrary A.

    K is a random diagonally dominant matrix over the d flat labels, G is
    nonzero everywhere, M is a translation-invariant kernel over base
    labels with spread 0.3 off the diagonal.
    """
    space = build_index_space(A, tuple(range(n_base)))
    d, nb = space.d, space.n_base
    rng = np.random.Generator(np.random.Philox(key=seed))
    K = rng.uniform(-0.4, 0.4, size=(d, d))
    K += np.diag(2.0 + rng.uniform(0.0, 1.0, size=d))
    G = rng.uniform(0.5, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
    M = np.zeros((nb, nb))
    for z in range(nb):
        M[z, z] = 1.0
        if nb > 1:
            M[z, (z + 1) % nb] += 0.3
            M[z, (z - 1) % nb] += 0.3
    green = np.linalg.solve(K, np.eye(d))
    kernels = KernelSet(space=space, K=K, G=G, M=M, lam=lam, q=q, green=green)
    return space, kernels


def random_operator(space, rng, max_create=2, max_annihilate=2, n_terms=3, scale=1.0):
    """Random expression for property tests (bounded slot counts)."""
    terms = []
    for _ in range(n_terms):
        p = int(rng.integers(0, max_create + 1))
        s = int(rng.integers(0, max_annihilate + 1))
        terms.append(Monomial(p, s, scale * rng.standard_normal((space.d,) * (p + s))))
    return OperatorExpr(space, tuple(terms))


def flatten_vector(v):
    """The levels of v concatenated, in the order of ``to_dense_matrix``'s rows."""
    return np.concatenate([np.ravel(t) for t in v.levels])


def unflatten_vector(space, L, flat):
    """Inverse of :func:`flatten_vector` for a vector with levels 0..L."""
    offs = level_offsets(space.d, L)
    levels = []
    for n in range(L + 1):
        levels.append(np.asarray(flat[offs[n]:offs[n + 1]]).reshape((space.d,) * n))
    return FockVector(space, tuple(levels))


def basis_word(space, L, word, value=1.0):
    """Vector with a single entry ``value`` at ``word`` in level len(word)."""
    n = len(word)
    if n > L:
        raise LevelOutOfRange(f"word length {n} exceeds L={L}")
    v = [np.zeros((space.d,) * m) for m in range(L + 1)]
    v[0] = np.zeros(())
    if n == 0:
        v[0] = np.asarray(float(value))
    else:
        t = v[n].copy()
        t[tuple(word)] = value
        v[n] = t
    return FockVector(space, tuple(v))


def project_level(v, n):
    """Keep level n, zero all others (the grading projector P_n)."""
    if not 0 <= n <= v.L:
        raise LevelOutOfRange(f"level {n} outside 0..{v.L}")
    levels = tuple(
        t if m == n else np.zeros_like(t) for m, t in enumerate(v.levels)
    )
    return FockVector(v.space, levels)


def inner(u, v):
    """Sum over levels of the entrywise tensor dot product."""
    u._check_compatible(v)
    return float(sum(np.vdot(a, b) for a, b in zip(u.levels, v.levels)))


def extract_correlation(v, word):
    """Entry of the level-len(word) tensor at the word's index tuple."""
    n = len(word)
    if n > v.L:
        raise LevelOutOfRange(f"word length {n} exceeds L={v.L}")
    return float(v.levels[n][tuple(word)])


def full_gemm_levels(op, levels):
    """Each summand's whole-matrix GEMM image, added in term order: the bits ``apply_to_levels`` must give.

    Every summand multiplies its full ``t.matrix`` into each level read as
    ``(d^s, rest)``, zero columns included, where ``apply_to_levels``
    reads only the rows of a summand's nonzero columns and adds broadcast
    images in column blocks.
    """
    L, d = len(levels) - 1, op.space.d
    filled = [n for n, t in enumerate(levels) if t is not None]
    batch = np.shape(levels[filled[0]])[filled[0]:] if filled else ()
    out = [None] * (L + 1)
    for t in op.terms:
        p, s = t.n_create, t.n_annihilate
        for n in range(s, min(L, L + s - p) + 1):
            if levels[n] is not None:
                image = (t.matrix @ np.reshape(levels[n], (d**s, -1))).reshape((d,) * (n - s + p) + batch)
                out[n - s + p] = image if out[n - s + p] is None else out[n - s + p] + image
    return out


def whole_image_residual(v, kernels, rows="all"):
    """``solver.residual_by_level``'s per-level norms as it once formed them, as their reference.

    The whole image ``apply_to_levels(hierarchy_operator(kernels), v.levels)``
    is formed, its data rows are zeroed in place for rows="equation", and
    each level's norm is taken by ``solver._level_norms``, which raises the
    ShapeError naming the lowest level with a non-finite entry.
    """
    image = apply_to_levels(hierarchy_operator(kernels), v.levels)
    if rows == "equation" and kernels.data_rows:
        for t in image[1:]:
            if t is not None:
                t[list(kernels.data_rows)] = 0.0
    return _level_norms(image)


def trusted_window(kernels, L):
    """The residual's trusted levels ``(0, hi)`` on a vector of level L, as ``solver._residual_window`` documents them.

    hi = L - 2, or L - 1 when the interaction is off (lam = 0), and 0 at least.
    """
    return 0, max(L - 2 if kernels.lam != 0.0 else L - 1, 0)


def in_trusted_window(norms, kernels, L):
    """The entries of the per-level dict ``norms`` on the trusted levels 0..hi (:func:`trusted_window`)."""
    lo, hi = trusted_window(kernels, L)
    return {n: norms[n] for n in range(lo, hi + 1)}


def composed_rational_residual(kernels, lam, levels):
    """The image of ``levels`` under ``(K + G) - N (K + G) + lam I``, composed, as the rational residual's reference.

    This is how ``solver.rational_transformed_residual`` once formed it:
    ``N (K + G)`` composed and applied whole, so level L - 1 also holds
    ``-N (G (x) V_L)``, the term the chain drops.  Its per-level norms are
    ``_level_norms`` of the list returned.
    """
    KG = linear_operator(kernels) + source_operator(kernels)
    op = KG - compose(interaction_operator(kernels), KG) + lam * identity_operator(kernels.space)
    return apply_to_levels(op, levels)


def with_raised_top_level(kernels, levels):
    """``levels`` with its top level L >= 1 replaced by ``g (x) levels[L-1]``, ``g = -(green @ G)``.

    The perturbation series forms its sum's level L this way, once, from
    its summed level L-1, as the free solution forms its own; a reference
    that sums whole increments applies this to its sum.  Level 0 alone is
    returned as it is.
    """
    levels = list(levels)
    if len(levels) > 1:
        levels[-1] = np.multiply.outer(-(kernels.green @ kernels.G), levels[-2])
    return levels


def fill_and_subtract_right_inverse(kernels, levels, out=None):
    """``inverse.apply_right_inverse_K_plus_G`` as it was before its one-pass rows, as their reference.

    A None input level above a written one starts from zeros, a new
    ``np.zeros`` array or an ``out`` array after ``fill(0.0)``, and every
    written level subtracts ``g_i * w_{n-1}`` row by row through one
    scratch row.
    """
    d, green = kernels.space.d, kernels.green
    g = green @ kernels.G
    w = [None] * len(levels) if out is None else out
    w[0] = None
    batch = next((np.shape(t)[n:] for n, t in enumerate(levels) if t is not None), ())
    for n in range(1, len(levels)):
        prev = w[n - 1]
        if levels[n] is None and prev is None:
            w[n] = None
            continue
        buf = None if w[n] is None else np.reshape(w[n], (d, -1))
        if levels[n] is not None:
            level = np.matmul(green, np.reshape(levels[n], (d, -1)), out=buf)
        elif buf is None:
            level = np.zeros((d, prev.size))
        else:
            level = buf
            level.fill(0.0)
        if prev is not None:
            prev = prev.reshape(-1)
            scratch = np.empty_like(prev)
            for row, gi in zip(level, g):
                row -= np.multiply(gi, prev, out=scratch)
        w[n] = level.reshape((d,) * n + batch)
    return w


def csv_writer_table(path, header, *columns):
    """Write a CLI table the way the CLI once did, as the reference for its streaming writer.

    ``columns`` are as for ``cli._table_rows``: ``columns[k][b]`` is block
    b of column k.  Each row is a word ``i;j;k`` and the block entries as
    Python floats, in the order of np.ndindex, and ``csv.writer`` writes
    it, floats by repr.
    """
    rows = ((";".join(str(int(i)) for i in w), *(float(t[w]) for t in block))
            for block in zip(*columns) for w in np.ndindex(block[0].shape))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def matrix_nonzero_columns(t):
    """``Monomial.nonzero_columns`` as it was once read from the summand's whole matrix, as its reference."""
    nonzero = t.matrix != 0.0
    cols = np.flatnonzero(nonzero.any(axis=0))
    if len(cols) == nonzero.shape[1] or nonzero.sum(axis=1).max() > 1:
        return None, None
    return cols, np.take(t.matrix, cols, axis=1)


def whole_square_stderr(kernels, se_vector):
    """``solver.propagate_residual_stderr``'s levels as it once formed them, as their reference.

    Every summand of the hierarchy operator is squared whole, N's d^4
    kernel included, and the squared operator is applied by
    ``apply_to_levels`` to the squared standard errors.
    """
    op = hierarchy_operator(kernels)
    squared = OperatorExpr(op.space, tuple(Monomial(t.n_create, t.n_annihilate, t.kernel**2) for t in op.terms))
    levels = apply_to_levels(squared, [t**2 for t in se_vector.levels])
    return [np.zeros((op.space.d,) * n) if t is None else np.sqrt(t) for n, t in enumerate(levels)]


def full_table_compare(config):
    """``cli.run_compare`` as it was before it estimated only the moments it reads, as its reference.

    The oracle estimates the whole moment table up to min(L,
    ``oracle.max_order``).  Returns (report, ok flag, that table).
    """
    tables = []

    def estimate(*args, **kwargs):
        tables.append(estimate_mtcf(*args, **kwargs))
        return tables[-1]

    with mock.patch.object(cli, "_compare_reads", return_value={}), mock.patch.object(cli, "estimate_mtcf", estimate):
        report, ok = cli.run_compare(config)
    return report, ok, tables[0]
