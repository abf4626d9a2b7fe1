"""Helpers that only the tests read.

The library keeps what a demo, the benchmark, the README or an
acceptance test reads (``tests/test_public_names.py`` holds that line);
these build test inputs and read test outputs.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from freefock.cuntz import Monomial, OperatorExpr, level_offsets
from freefock.errors import LevelOutOfRange
from freefock.fock import FockVector
from freefock.model import KernelSet, build_index_space


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
