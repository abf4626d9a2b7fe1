"""Truncated free Fock space over a finite index space.

A graded vector holds one dense real tensor per level n = 0..L, level n
of shape (d,)*n.  Level n of a generating vector stores the n-point
correlation tensor; level 0 is the normalization scalar 1.  Operations
producing components above L silently drop them; consumers declare the
levels they trust.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, LevelOutOfRange, ShapeError
from .model import IndexSpace

DEFAULT_BUDGET = 10_000_000


def storage_size(d, L):
    """Total dense entries sum_{n<=L} d^n."""
    return sum(d**n for n in range(L + 1))


def check_budget(stage, entries, budget):
    """Refuse ``stage`` when it needs more than ``budget`` dense entries.

    The one guard of the package: every size it refuses raises here, as
    ``"<stage> needs <entries> entries, budget is <budget>"``.
    """
    if entries > budget:
        raise BudgetExceeded(
            f"{stage} needs {entries} entries, budget is {budget}", stage=stage, entries=entries, budget=budget
        )


def _freeze(a):
    a.flags.writeable = False
    return a


def level_max_abs(t):
    """Largest ``|t|`` entry as ``max(t.max(), -t.min())``, with no ``|t|`` array.

    The value equals ``np.abs(t).max()``: adding 0.0 turns a -0.0 maximum
    into +0.0.  It is non-finite exactly when t holds a NaN or an inf.
    """
    return float(max(t.max(), -t.min())) + 0.0


@dataclass(frozen=True)
class FockVector:
    """Graded vector with dense levels 0..L; immutable after construction.

    Every level is checked at construction: its shape, and that every entry
    is finite, through :func:`level_max_abs`, which allocates no
    level-sized temporary.  So a vector built from user data (a JSON file,
    an estimated correlation table, a direct call) is validated once.
    The solver loops keep their running sums and increments as lists of
    level arrays, which they write in place (the perturbation series
    overwrites each term with the next), and build a vector only for what
    they return: the vector freezes the sum's own arrays, with no copy.
    They check each increment for overflow through its per-level norms
    instead.
    """

    space: IndexSpace
    levels: tuple

    def __post_init__(self):
        d = self.space.d
        frozen = []
        for n, t in enumerate(self.levels):
            t = np.asarray(t, dtype=float)
            if t.shape != (d,) * n:
                raise ShapeError(f"level {n} has shape {t.shape}, expected {(d,) * n}")
            if not math.isfinite(level_max_abs(t)):
                raise ShapeError(f"level {n} contains non-finite entries")
            frozen.append(_freeze(t))
        object.__setattr__(self, "levels", tuple(frozen))

    @property
    def L(self):
        return len(self.levels) - 1

    def level(self, n):
        if not 0 <= n <= self.L:
            raise LevelOutOfRange(f"level {n} outside 0..{self.L}")
        return self.levels[n]

    # whole-vector arithmetic; the solvers work on lists of level arrays instead
    def __add__(self, other):
        self._check_compatible(other)
        return FockVector(self.space, tuple(a + b for a, b in zip(self.levels, other.levels)))

    def __sub__(self, other):
        self._check_compatible(other)
        return FockVector(self.space, tuple(a - b for a, b in zip(self.levels, other.levels)))

    def __mul__(self, c):
        return FockVector(self.space, tuple(float(c) * a for a in self.levels))

    __rmul__ = __mul__

    def _check_compatible(self, other):
        if other.space.d != self.space.d or other.L != self.L:
            raise ShapeError("vectors live in different truncated spaces")

    def max_abs(self):
        return max(level_max_abs(t) for t in self.levels)

    def allclose(self, other, atol=1e-12):
        self._check_compatible(other)
        return all(
            np.allclose(a, b, atol=atol, rtol=0.0)
            for a, b in zip(self.levels, other.levels)
        )


def vacuum(space, L, budget=DEFAULT_BUDGET):
    """Vacuum vector: level 0 = 1, all higher levels zero."""
    if L < 0:
        raise LevelOutOfRange(f"L={L} must be >= 0")
    check_budget(f"vacuum: d={space.d}, L={L}", storage_size(space.d, L), budget)
    levels = [np.ones(())] + [np.zeros((space.d,) * n) for n in range(1, L + 1)]
    return FockVector(space, tuple(levels))


def symmetrize_level(t, n):
    """Average a level-n tensor over all permutations of its first n slots.

    Trailing axes beyond the n slots (a batch of columns) are carried along.
    """
    if n < 2:
        return t  # levels 0 and 1 are permutation invariant
    rest = tuple(range(n, np.ndim(t)))
    acc = np.zeros_like(t)
    perms = list(itertools.permutations(range(n)))
    for p in perms:
        acc += np.transpose(t, p + rest)
    return acc / len(perms)


def symmetrize(v):
    """Average each level over all permutations of its slots."""
    return FockVector(v.space, tuple(symmetrize_level(t, n) for n, t in enumerate(v.levels)))


# --- JSON serialization -------------------------------------------------
# json renders floats with repr(), the shortest decimal that round-trips,
# so dump/load is bit exact at double precision.

def to_json(v):
    doc = {
        "d": v.space.d,
        "L": v.L,
        "levels": [t.tolist() for t in v.levels],
    }
    return json.dumps(doc)


def from_json(text, space):
    doc = json.loads(text)
    if doc["d"] != space.d:
        raise ShapeError(f"document d={doc['d']} does not match space d={space.d}")
    if doc["L"] != len(doc["levels"]) - 1:
        raise ShapeError(f"document L={doc['L']} does not match its levels 0..{len(doc['levels']) - 1}")
    levels = []
    for n, entry in enumerate(doc["levels"]):
        levels.append(np.asarray(entry, dtype=float).reshape((space.d,) * n))
    return FockVector(space, tuple(levels))


def load(path, space):
    with open(path) as fh:
        return from_json(fh.read(), space)
