"""Ground truth: seeded trajectory ensembles and direct moment estimators.

Trajectories of the discrete dynamics are sampled over random initial
conditions (Gaussian, or hybrid with some coordinates pinned exactly);
multi-time correlation functions are estimated as sample means of field
products, with standard errors.  Analytic closed forms (Gaussian pairing
moments for the linear theory, the d'Alembert formula for the wave
model), marginal projectors and hydrodynamic moments complete the
oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import NotADistribution, ShapeError, TrajectoryDiverged
from .fock import DEFAULT_BUDGET, FockVector, check_budget, level_max_abs, storage_size
from .model import OscillatorModel, WaveModel, build_oscillator_model

BLOWUP_THRESHOLD = 1e6
CHUNK = 4096  # up to order 4 the estimator's blocks hold at most CHUNK * d products (_block_samples)
NEWTON_TOL = 1e-14  # a cubic's Newton iteration stops at steps below this share of max(1, |x|)
NEWTON_MAX_ITER = 50
STREAM_ENTRIES = 2**17  # positions in one block of the oscillator stream (1 MiB), one sample at least


@dataclass(frozen=True)
class EnsembleSpec:
    """Initial-condition distribution: Gaussian with optionally pinned coords.

    mean : (m,) mean vector of the initial coordinates.
    cov : scalar (isotropic), (m,) diagonal, or (m, m) covariance.
    pinned : optional (m,) boolean mask; pinned coordinates take their
        mean exactly (a delta factor in the distribution), the rest stay
        Gaussian.
    samples, seed : ensemble size and the 64-bit key of the counter-based
        generator (Philox); equal seeds give bit-identical draws.
    """

    mean: np.ndarray
    cov: np.ndarray | float
    samples: int
    seed: int
    pinned: np.ndarray | None = None

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        m = mean.shape[0]
        try:
            cov = np.asarray(self.cov, dtype=float)
        except ValueError as exc:
            raise ShapeError(f"covariance does not form an array: {exc}") from exc
        if cov.ndim == 0:
            cov = float(cov) * np.eye(m)
        elif cov.ndim == 1:
            if cov.shape != (m,):
                raise ShapeError(f"diagonal covariance has shape {cov.shape}, expected ({m},)")
            cov = np.diag(cov)
        elif cov.shape != (m, m):
            raise ShapeError(f"covariance has shape {cov.shape}, expected ({m}, {m})")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ShapeError("covariance must be symmetric")
        w = np.linalg.eigvalsh(cov)
        if w.min() < -1e-10 * max(w.max(), 1.0):
            raise ShapeError(f"covariance not positive semi-definite (min eigenvalue {w.min():.3e})")
        pinned = self.pinned
        if pinned is not None:
            pinned = np.asarray(pinned, dtype=bool)
            if pinned.shape != (m,):
                raise ShapeError(f"pinned mask has shape {pinned.shape}, expected ({m},)")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "pinned", pinned)

    @property
    def dim(self):
        return self.mean.shape[0]

    def draw(self):
        """(samples, m) initial-condition draws; deterministic in the seed."""
        rng = np.random.Generator(np.random.Philox(key=self.seed))
        w, v = np.linalg.eigh(self.cov)
        root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
        z = rng.standard_normal((self.samples, self.dim))
        draws = z @ root.T
        draws += self.mean  # in place, so z, the product and their sum are not held at once
        if self.pinned is not None:
            draws[:, self.pinned] = self.mean[self.pinned]
        return draws


def pinned_ensemble(values, samples=1, seed=0):
    """Fully deterministic ensemble: every coordinate pinned to its value."""
    values = np.atleast_1d(np.asarray(values, dtype=float))
    return EnsembleSpec(
        mean=values,
        cov=np.zeros((values.size, values.size)),
        samples=samples,
        seed=seed,
        pinned=np.ones(values.size, dtype=bool),
    )


@dataclass(frozen=True)
class TrajectorySet:
    """Per-sample field values over the grid, plus integrator metadata.

    Velocities are built by ``velocity_rule()`` on their first read, checked
    for finiteness as the positions are at construction, and kept.
    """

    kind: str
    positions: np.ndarray   # oscillator: (S, T); wave: (S, nt, nx)
    velocity_rule: Callable[[], np.ndarray]
    dt: float
    seed: int
    scheme: str

    def __post_init__(self):
        if not np.all(np.isfinite(self.positions)):
            raise TrajectoryDiverged("trajectory set contains non-finite values")

    @functools.cached_property
    def velocities(self):
        v = self.velocity_rule()
        if not np.all(np.isfinite(v)):
            raise TrajectoryDiverged("trajectory set contains non-finite velocities")
        return v

    @property
    def samples(self):
        return self.positions.shape[0]


def _newton_cubic(rhs, c, step_index, out=None, work=None, first=0):
    """Solve x - c x^3 = rhs elementwise (c small) on the physical branch, into ``out``.

    For c > 0 the physical root has |x| < 1/sqrt(3c), where x - c x^3
    increases; it exists while |rhs| stays below the fold value
    2/(3 sqrt(3c)).  Newton starts from the predictor rhs + c rhs^3,
    which lies between rhs and that root; the branch is concave for
    rhs > 0 and convex for rhs < 0, so the iterates move monotonically
    to the root and cannot cross to another branch.  For c < 0 the root
    is unique.  Past the fold the trajectory has left the resolvable
    regime, the nonlinear blow-up of this discretization: a sample whose
    result is not finite, misses the residual bound or lies off the
    physical branch raises TrajectoryDiverged, naming the sample as
    ``first`` plus its index in ``rhs``.  The tests run as reductions
    (:func:`level_max_abs`); only where those fail do per-sample masks find the sample.
    Each step writes through ``out=`` into ``out`` (the root) and ``work``,
    (2, len(rhs)) scratch, allocated here when not given and sharing no
    memory with ``rhs``, in the order of operations of the expressions in
    the comments, so with their bits.
    """
    x = np.empty_like(rhs) if out is None else out
    x2, step = np.empty((2, len(rhs))) if work is None else work
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.multiply(rhs, rhs, out=x)  # x = rhs + c * (rhs * rhs * rhs)
        x *= rhs
        x *= c
        x += rhs
        for _ in range(NEWTON_MAX_ITER):
            np.multiply(x, x, out=x2)  # x -= (x - c * x2 * x - rhs) / (1.0 - 3.0 * c * x2)
            np.multiply(c, x2, out=step)
            step *= x
            np.subtract(x, step, out=step)
            step -= rhs
            np.multiply(3.0 * c, x2, out=x2)
            np.subtract(1.0, x2, out=x2)
            step /= x2
            x -= step
            x_max = level_max_abs(x)
            if math.isfinite(x_max) and level_max_abs(step) <= NEWTON_TOL * max(1.0, x_max):
                break
        # 3 c x x rounds monotonically in |x|, so its largest entry is the scalar's; g is
        # non-finite where x is, and must meet half the bound, so that x2 * x's rounding
        # against x**3's cannot change a verdict
        if 3.0 * c * x_max * x_max < 1.0:
            g = step  # x - c * (x * x) * x - rhs
            np.multiply(x, x, out=g)
            g *= c
            g *= x
            np.subtract(x, g, out=g)
            g -= rhs
            if level_max_abs(g) <= 0.5e-8:
                return x
        g = x - c * x**3 - rhs
        resolved = np.abs(g) <= 1e-8 * np.maximum(1.0, np.abs(rhs))
        bad = ~(np.isfinite(x) & resolved & (3.0 * c * x * x < 1.0))
    if bad.any():
        idx = first + int(np.nonzero(bad)[0][0])
        raise TrajectoryDiverged(
            f"implicit cubic step {step_index} has no resolvable root (sample {idx})",
            sample_index=idx,
        )
    return x


def _coupling(model: OscillatorModel):
    """The cubic's integrated coupling, ``lam (1 - q)^2``: the q-deformed interaction on M = I."""
    return model.lam * (1.0 - model.q) ** 2


def _integrate_block(model: OscillatorModel, x0, v0, first, x):
    """Integrate the draws (x0, v0) of samples ``first``, ``first + 1``, ... into x, (T, w).

    Positions follow the exact stencil encoded in the model's kernel
    rows: the startup step is the velocity-Verlet half step with the
    linear acceleration, subsequent steps are the Stormer update with
    the cubic term evaluated at the new point (a scalar Newton solve;
    identical to velocity Verlet when lam = 0).  The model's M is the
    identity (zero on the data rows under ``interaction_rows="interior"``),
    on which the q-deformed interaction is the plain cubic with coupling
    ``lam (1 - q)^2``; that coupling is what is integrated.  With
    ``interaction_rows="all"`` and ``boundary="initial"`` the two data
    rows carry the cubic as well, so each is solved the same way: row 0
    as ``x0 - lam x0^3 = draw`` and row 1 as the startup update with
    ``c = dt lam``.  Under ``boundary="free"`` the model has no data rows
    and the draw is the initial position.  x is time-major, one row of
    w samples per step.  From step 2 on, each step writes through
    ``out=`` into x's row and arrays allocated once per call, in the
    order of operations of the recurrence's expression; its blow-up test
    is one reduction (:func:`level_max_abs`).  A Newton solve's
    iterations stop on the block's largest step, so its bits can depend
    on which samples share the block.  A sample that leaves the
    resolvable regime or passes the blow-up threshold raises
    :class:`TrajectoryDiverged` with its index in the whole ensemble; a
    non-finite position that neither test names raises it as
    :class:`TrajectorySet`'s finiteness test does.
    """
    T, w, dt = model.T, x.shape[1], model.dt
    om2, lam, f = model.omega**2, _coupling(model), model.forcing
    data_cubic = lam != 0.0 and model.interaction_rows == "all" and model.boundary == "initial"
    x[0] = _newton_cubic(x0, lam, 0, first=first) if data_cubic else x0
    x[1] = x[0] + dt * v0 + 0.5 * dt**2 * (-om2 * x[0] + f[0])
    if data_cubic:
        x[1] = _newton_cubic(x[1], dt * lam, 1, first=first)
    rhs, work = np.empty(w), np.empty((2, w))
    c, dt2 = dt**2 * lam, dt**2
    for r in range(2, T):
        # a linear step writes its right-hand side, the new position, in place
        b = rhs if lam != 0.0 else x[r]
        np.multiply(-om2, x[r - 1], out=work[0])
        work[0] += f[r - 1]
        work[0] *= dt2
        np.multiply(2.0, x[r - 1], out=b)
        b -= x[r - 2]
        b += work[0]
        if lam != 0.0:
            _newton_cubic(rhs, c, r, out=x[r], work=work, first=first)
        if not level_max_abs(x[r]) <= BLOWUP_THRESHOLD:  # a NaN trips it; the search then finds no sample
            bad = np.nonzero(np.abs(x[r]) > BLOWUP_THRESHOLD)[0]
            if bad.size:
                raise TrajectoryDiverged(
                    f"|field| exceeded {BLOWUP_THRESHOLD:g} at step {r} (sample {first + bad[0]})",
                    sample_index=first + int(bad[0]),
                )
    if not math.isfinite(level_max_abs(x)):
        raise TrajectoryDiverged("trajectory set contains non-finite values")


def _oscillator_blocks(model: OscillatorModel, draws, out=None):
    """Yield the (T, w) positions of each run of ``STREAM_ENTRIES // T`` draws in turn (one at least).

    Each block is integrated by :func:`_integrate_block`: into its
    samples' columns of ``out``, a (T, S) array, when that is given, and
    otherwise into one buffer that the next block overwrites.
    """
    S, width = len(draws), max(1, STREAM_ENTRIES // model.T)
    buffer = np.empty((model.T, min(width, S))) if out is None else None
    for lo in range(0, S, width):
        hi = min(lo + width, S)
        x = buffer[:, : hi - lo] if out is None else out[:, lo:hi]
        _integrate_block(model, draws[lo:hi, 0], draws[lo:hi, 1], lo, x)
        yield x


@dataclass(frozen=True)
class OscillatorStream:
    """An oscillator ensemble's positions, integrated one block of samples at a time on each read.

    ``blocks()`` draws the whole ensemble once and yields the (T, w)
    positions of each run of ``STREAM_ENTRIES // T`` samples
    (:func:`_oscillator_blocks`) in one buffer, which the next block
    overwrites: a reader holds the draws and one block, never the
    (T, S) trajectory.  :func:`simulate_oscillator` integrates the same
    blocks into its array, so the two hold the same bits.
    """

    model: OscillatorModel
    ensemble: EnsembleSpec
    kind = "oscillator"

    def __post_init__(self):
        if self.ensemble.dim != 2:
            raise ShapeError(f"oscillator ensemble has dim {self.ensemble.dim}, expected 2 (x0, v0)")

    @property
    def samples(self):
        return self.ensemble.samples

    @property
    def scheme(self):
        return "stormer-implicit-cubic" if _coupling(self.model) != 0.0 else "velocity-verlet"

    def blocks(self):
        yield from _oscillator_blocks(self.model, self.ensemble.draw())


def simulate_oscillator(model: OscillatorModel, ensemble: EnsembleSpec):
    """Integrate the model's discrete recurrence over the sampled ensemble, whole.

    The positions are :class:`OscillatorStream`'s blocks, integrated by
    :func:`_integrate_block` into the columns of one time-major (T, S)
    array; velocities are rebuilt step by step from the realized
    accelerations on their first read, into a second.  Both are read as
    (S, T) views of those arrays.  A reader that needs only moments
    passes the stream itself to :func:`estimate_mtcf`, with the same
    bits and without the (T, S) array.
    """
    stream = OscillatorStream(model, ensemble)
    draws = ensemble.draw()
    S, T, dt = draws.shape[0], model.T, model.dt
    x = np.empty((T, S))
    for _ in _oscillator_blocks(model, draws, out=x):
        pass
    v0 = draws[:, 1]
    om2, lam, f = model.omega**2, _coupling(model), model.forcing

    def velocities():
        # velocity-Verlet velocities reconstructed from realized accelerations
        v = np.empty((T, S))
        v[0] = v0
        a_prev = -om2 * x[0] + lam * x[0] ** 3 + f[0]
        for r in range(1, T):
            a = -om2 * x[r] + lam * x[r] ** 3 + f[r]
            v[r] = v[r - 1] + 0.5 * dt * (a_prev + a)
            a_prev = a
        return v.T

    return TrajectorySet(
        kind="oscillator",
        positions=x.T,
        velocity_rule=velocities,
        dt=dt,
        seed=ensemble.seed,
        scheme=stream.scheme,
    )


def simulate_wave(model: WaveModel, ensemble: EnsembleSpec):
    """Velocity-Verlet integration of the periodic semi-discrete wave model."""
    nx = model.nx
    if ensemble.dim != 2 * nx:
        raise ShapeError(f"wave ensemble has dim {ensemble.dim}, expected {2 * nx}")
    draws = ensemble.draw()
    u = draws[:, :nx].copy()
    w = draws[:, nx:].copy()
    S, nt, dt = draws.shape[0], model.nt, model.dt
    c2 = (model.speed / model.dx) ** 2

    def lap(z):
        return np.roll(z, -1, axis=1) - 2.0 * z + np.roll(z, 1, axis=1)

    pos = np.empty((S, nt, nx))
    vel = np.empty((S, nt, nx))
    pos[:, 0] = u
    vel[:, 0] = w
    acc = c2 * lap(u)
    for r in range(1, nt):
        w_half = w + 0.5 * dt * acc
        u = u + dt * w_half
        acc = c2 * lap(u)
        w = w_half + 0.5 * dt * acc
        if np.abs(u).max() > BLOWUP_THRESHOLD:
            raise TrajectoryDiverged(f"wave field exceeded {BLOWUP_THRESHOLD:g} at step {r}")
        pos[:, r] = u
        vel[:, r] = w
    return TrajectorySet(
        kind="wave", positions=pos, velocity_rule=lambda: vel, dt=dt, seed=ensemble.seed, scheme="velocity-verlet"
    )


def simulate(model, ensemble):
    if isinstance(model, OscillatorModel) or getattr(model, "kind", None) == "oscillator":
        return simulate_oscillator(model, ensemble)
    if isinstance(model, WaveModel) or getattr(model, "kind", None) == "wave":
        return simulate_wave(model, ensemble)
    raise ShapeError(f"cannot simulate model of type {type(model).__name__}")


# --- moment estimation -------------------------------------------------------

def _ranks(d, k):
    """(d,)*k map from each sorted k-tuple over range(d) to its lexicographic rank.

    Unsorted tuples map to 0; for k = 0 the empty tuple has rank 0.
    """
    rank = np.zeros((d,) * k, dtype=np.intp)
    if k:
        tuples = np.array(list(itertools.combinations_with_replacement(range(d), k)), dtype=np.intp)
        rank[tuple(tuples.T)] = np.arange(len(tuples))
    return rank


def _sorted_words(d, n, a=None):
    """(d,)*n index of each word's sorted form in a flattened per-tuple array.

    The per-tuple array holds one entry per sorted n-tuple, as a
    C(d+a-1, a) x C(d+b-1, b) array (a = n // 2 unless given, b = n - a)
    over the ranks of the tuple's first a and last b indices; with a = 0
    the index is the sorted form's rank.  Reading it through this index
    gives an exactly symmetric tensor.
    """
    a = n // 2 if a is None else a
    words = np.sort(np.indices((d,) * n, dtype=np.min_scalar_type(d - 1)).reshape(n, d**n), axis=0)
    width = math.comb(d + n - a - 1, n - a)
    flat = _ranks(d, a)[tuple(words[:a])] * width + _ranks(d, n - a)[tuple(words[a:])]
    return flat.reshape((d,) * n)


def _block_samples(d, max_order, chunk):
    """Samples per block of :class:`_MomentSums` for a table up to ``max_order``, at least one.

    For h = ceil(max_order / 2) <= 2 the block's stack [1 | x | P_2 |
    ... | P_h] holds at most ``chunk * d`` products.  From h = 3 on the
    block keeps the h = 2 width, ``chunk * d // (1 + d + C(d+1, 2))``:
    bounded by the whole stack it would hold few samples (108 at d = 12
    and order 6), and its GEMMs a short inner dimension.  The width is
    the whole table's even where the pass sums only some of its entries
    (``full_order``), so the entries it does sum keep their bits.
    """
    rows = sum(math.comb(d + k - 1, k) for k in range(min((max_order + 1) // 2, 2) + 1))
    return max(1, chunk * d // rows)


class _MomentSums:
    """Per-order sums over the samples of products over sorted index tuples, fed a block at a time.

    The samples come as (d, w) blocks, one row per label, through
    :meth:`add`; :meth:`result` returns the sums.  Let P_k hold, for each
    sorted k-tuple in lexicographic order, the product of the rows over
    it.  For each order n up to ``full_order`` (default: all), with
    a = n // 2 and b = n - a, the sum is the C(d+a-1, a) x C(d+b-1, b)
    array ``P_a @ P_b.T``, whose entry at (s, t) sums the product over
    the concatenated tuple.  An order n = s + r above it is summed only
    over the words that start with a row of ``heads``, a (k, s) label
    array: it is the (k, C(d+r-1, r)) array ``Y @ P_r.T``, Y the
    products over the heads; with r < 0 or no heads it has no entry in
    the dicts.  With squares, a second dict holds the same sums of the
    squared products.

    One pass covers every order: the samples are copied, in order, into
    one preallocated stacked block Q = [1 | x | P_2 | ... | P_h], h the
    largest ceil(n / 2) or r and at least 1, stored one row per tuple so
    that every row is contiguous over the samples, and each time Q's
    ``cols`` columns fill, or the samples end, Q is folded into the sums
    (with no order summed, the dicts stay empty).  P_k comes from
    P_(k-1) by d broadcast multiplies: the sorted k-tuples that start
    with i are x_i times the contiguous run of (k-1)-tuples from
    (i, ..., i) to the end.  Q**2 is formed once per fold, and each
    order up to ``full_order`` adds one product of Q's rows and one of
    Q**2's; the orders above add one of Y with Q's rows of sizes r and
    one of Y**2 with Q**2's.  Q holds ``cols = min(samples,
    _block_samples(d, max(orders), chunk))`` samples, ``samples`` the
    number that will be added.  Its folds cover samples 0..cols-1,
    cols..2 cols-1, ... however :meth:`add`'s blocks split them, so the
    sums have the bits of one sweep of the whole (d, samples) array.
    """

    def __init__(self, d, orders, chunk, squares, samples, full_order=None, heads=None):
        full = [n for n in orders if full_order is None or n <= full_order]
        s = 0 if heads is None else heads.shape[1]
        self.rests = [n - s for n in orders if n not in full and heads is not None and len(heads) and n >= s]
        h = max([1, (max(full, default=0) + 1) // 2, *self.rests])  # Q holds x at least: the heads read it
        size = [math.comb(d + k - 1, k) for k in range(h + 1)]
        self.off = off = list(itertools.accumulate(size, initial=0))
        self.steps = []  # (row of x_i, source row, target row, count) per broadcast multiply
        for k in range(2, h + 1):
            target = off[k]
            for i in range(d):
                count = math.comb(d - i + k - 2, k - 1)
                self.steps.append((1 + i, off[k] - count, target, count))
                target += count
        tuples = [slice(off[k], off[k + 1]) for k in range(h + 1)]  # Q's rows of size k
        self.d, self.s, self.squares, self.filled = d, s, squares, 0
        self.halves = {n: (tuples[n // 2], tuples[n - n // 2]) for n in full}
        self.sums = {n: np.zeros((size[n // 2], size[n - n // 2])) for n in full}
        self.square_sums = {n: np.zeros_like(self.sums[n]) for n in full} if squares else None
        cols = min(samples, _block_samples(d, max(orders), chunk))
        self.q = np.empty((off[-1], cols))
        self.q[0] = 1.0
        self.q2 = np.empty_like(self.q) if squares else None
        if self.rests:
            self.span = slice(off[min(self.rests)], off[max(self.rests) + 1])  # Q's rows of sizes r
            self.head_rows = 1 + np.asarray(heads)  # each head label's row of Q
            self.y, self.y2 = np.empty((2, len(heads), cols))
            self.head_sums = np.zeros((len(heads), self.span.stop - self.span.start))
            self.head_square_sums = np.zeros_like(self.head_sums)

    def add(self, xt):
        """Copy the (d, w) samples ``xt`` into Q after those added before, folding Q each time it fills."""
        cols, lo = self.q.shape[1], 0
        while lo < xt.shape[1]:
            k = min(cols - self.filled, xt.shape[1] - lo)
            self.q[1 : 1 + self.d, self.filled : self.filled + k] = xt[:, lo : lo + k]
            self.filled, lo = self.filled + k, lo + k
            if self.filled == cols:
                self._fold()

    def _fold(self):
        """Add Q's first ``filled`` samples into the sums."""
        n, self.filled = self.filled, 0
        block = self.q[:, :n]
        for row, src, dst, count in self.steps:
            np.multiply(block[row], block[src : src + count], out=block[dst : dst + count])
        for k, (ra, rb) in self.halves.items():
            self.sums[k] += block[ra] @ block[rb].T
        if self.squares:
            block2 = np.multiply(block, block, out=self.q2[:, :n])
            for k, (ra, rb) in self.halves.items():
                self.square_sums[k] += block2[ra] @ block2[rb].T
        if self.rests:
            yb = np.prod(block[self.head_rows], axis=1, out=self.y[:, :n])
            self.head_sums += yb @ block[self.span].T
            if self.squares:
                self.head_square_sums += np.multiply(yb, yb, out=self.y2[:, :n]) @ block2[self.span].T

    def result(self):
        """(sums, square_sums) of every sample added, square_sums None without squares."""
        if self.filled:
            self._fold()
        for r in self.rests:
            cut = slice(self.off[r] - self.span.start, self.off[r + 1] - self.span.start)
            self.sums[self.s + r] = self.head_sums[:, cut]
            if self.squares:
                self.square_sums[self.s + r] = self.head_square_sums[:, cut]
        return self.sums, self.square_sums


def moment_tensor(x, n):
    """Sample mean of the n-fold outer power of the rows of x: (S, d) -> (d,)*n.

    Each distinct entry of the symmetric tensor is summed once, by the
    estimator's pass over one order (:class:`_MomentSums`, blocks of
    ``_block_samples(d, n, CHUNK)`` samples); each index word then reads the
    entry of its sorted form, so the result is exactly symmetric.
    """
    S, d = x.shape
    if n == 0:
        return np.ones(())
    sums = _MomentSums(d, (n,), CHUNK, False, S)
    sums.add(x.T)
    return (sums.result()[0][n] / S).ravel()[_sorted_words(d, n)]


@dataclass
class CorrelationTable:
    """Estimated correlation tensors per order, with standard errors."""

    values: dict
    stderr: dict
    samples: int
    max_order: int

    def word(self, word):
        n = len(word)
        return float(self.values[n][tuple(word)]), float(self.stderr[n][tuple(word)])

    def to_vector(self, space, L, budget=DEFAULT_BUDGET):
        """The generating vector: 1 at level 0, copies of the estimates up to ``max_order``, zeros above."""
        d = space.d
        check_budget(f"CorrelationTable.to_vector: d={d}, L={L}", storage_size(d, L), budget)
        levels = [np.array(self.values[n], dtype=float) if n <= self.max_order else np.zeros((d,) * n)
                  for n in range(1, L + 1)]
        return FockVector(space, (np.ones(()), *levels))

    def se_vector(self, space, L):
        d = space.d
        levels = [np.zeros(())]
        for n in range(1, L + 1):
            levels.append(self.stderr.get(n, np.zeros((d,) * n)).copy())
        return FockVector(space, tuple(levels))


def moment_window(T, max_order, smearing=None, budget=DEFAULT_BUDGET):
    """The smearing shifts {shift: weight} and the labels Tw of a moment table, under its budget.

    A table over a grid of T time points covers ``Tw = T - max shift``
    labels, and its largest tensor holds ``Tw^max_order`` entries; the
    budget binds there, through :func:`check_budget`.  The size is known
    from the model and the config, so a caller can refuse a table before
    it simulates the ensemble.  The shifts must be nonnegative, leave at
    least one label, and carry weights that sum to 1.
    """
    shifts = {0: 1.0} if smearing is None else dict(smearing)
    max_shift = max(shifts)
    Tw = T - max_shift
    if Tw < 1:
        raise ShapeError(f"smearing shifts up to {max_shift} exceed the grid of {T} points")
    if any(s < 0 for s in shifts):
        raise ShapeError("smearing shifts must be nonnegative grid offsets")
    total = sum(shifts.values())
    if abs(total - 1.0) > 1e-12:
        raise ShapeError(f"smearing weights sum to {total}, expected 1")
    check_budget(f"estimate_mtcf: order-{max_order} tensor over {Tw} labels", Tw**max_order, budget)
    return shifts, Tw


def estimate_mtcf(traj, max_order, smearing=None, budget=DEFAULT_BUDGET, full_order=None, heads=None):
    """Sample-mean estimates of field-product moments up to max_order.

    ``traj`` is an oscillator :class:`TrajectorySet`, whose (S, T)
    positions are read as one block, or an :class:`OscillatorStream`,
    whose blocks are integrated one at a time as they are read, so the
    (T, S) trajectory is never held.  The standard error of each
    product mean is the classical one (the jackknife reduces to it
    exactly for a sample mean), from the raw moments E[p] and E[p^2] as
    ``(E[p^2] - E[p]^2) S / (S - 1)``.  With a smearing table {shift:
    weight}, products are additionally averaged over grid shifts; the
    window shrinks by the largest shift and the quoted standard error is
    the weight-averaged bound.  One sweep of the samples serves every
    shift, order and both raw moments: each block's window of rows for
    each shift is added to that shift's :class:`_MomentSums`, whose
    sample blocks are the same however the samples arrive, so a stream
    gives ``estimate_mtcf(simulate(...))``'s bits.  The budget binds on
    ``Tw^max_order``, the entries of the largest tensor returned, Tw the
    labels left after smearing (:func:`moment_window`), before any sample
    is integrated or summed.

    Orders above ``full_order`` (default ``max_order``) are estimated only
    at the entries ``[c, rest]``, c a row of ``heads`` (a (k, s) label
    array); their other entries, all of them when ``heads`` is None, read
    0.0, estimate and standard error.  Tensors, budget and sample blocks
    stay the whole table's, so the orders up to ``full_order`` keep its bits.
    """
    if traj.kind != "oscillator":
        raise ShapeError("moment estimation expects oscillator trajectories (flat time grid)")
    if isinstance(traj, TrajectorySet):
        (S, T), blocks = traj.positions.shape, [traj.positions.T]
    else:
        S, T, blocks = traj.samples, traj.model.T, traj.blocks()
    if S < 2:
        raise ShapeError("need at least 2 samples for error estimates")

    shifts, Tw = moment_window(T, max_order, smearing, budget)
    orders = range(1, max_order + 1)
    full_order = max_order if full_order is None else full_order

    values, stderr = {0: np.ones(())}, {0: np.zeros(())}
    if not orders:
        return CorrelationTable(values=values, stderr=stderr, samples=S, max_order=max_order)
    windows = {s: _MomentSums(Tw, orders, CHUNK, True, S, full_order, heads) for s in shifts}
    for block in blocks:
        for s, sums in windows.items():
            sums.add(block[s : s + Tw])
    mean, se_bound = {}, {}
    for s, wgt in shifts.items():
        sums, square_sums = windows[s].result()
        for n in sums:
            m1 = sums[n] / S
            var = np.clip(square_sums[n] / S - m1**2, 0.0, None) * (S / (S - 1))
            mean[n] = mean.get(n, 0.0) + wgt * m1
            se_bound[n] = se_bound.get(n, 0.0) + wgt * np.sqrt(var / S)
    for n in orders:
        if n <= full_order:
            words = _sorted_words(Tw, n)
            values[n] = mean[n].ravel()[words]
            stderr[n] = se_bound[n].ravel()[words]
            continue
        values[n], stderr[n] = np.zeros((2,) + (Tw,) * n)
        if n in mean:
            at = tuple(np.transpose(heads))
            rest = _sorted_words(Tw, n - len(at), a=0)
            values[n][at] = mean[n][:, rest]
            stderr[n][at] = se_bound[n][:, rest]
    return CorrelationTable(values=values, stderr=stderr, samples=S, max_order=max_order)


# --- analytic Gaussian oracle ------------------------------------------------

def linear_response(model: OscillatorModel):
    """Exact discrete propagation of the linear (lam = 0) dynamics.

    Returns (coeff, particular): coeff is (T, 2) with x_t = coeff[t] @
    (x0, v0) + particular[t], obtained by running the integrator on
    basis initial data; exact because the dynamics is linear.
    """
    if model.lam != 0.0:
        raise ShapeError("linear response requires lam = 0")
    cols = []
    for x0, v0, keep_f in ((1.0, 0.0, False), (0.0, 1.0, False), (0.0, 0.0, True)):
        m = model if keep_f else _zero_forcing(model)
        ens = pinned_ensemble([x0, v0], samples=1, seed=0)
        cols.append(simulate_oscillator(m, ens).positions[0])
    coeff = np.column_stack([cols[0], cols[1]])
    return coeff, cols[2]


def _zero_forcing(model: OscillatorModel):
    return build_oscillator_model(
        omega=model.omega, dt=model.dt, T=model.T, lam=0.0, q=model.q,
        forcing=None, x0_mean=model.x0_mean, v0_mean=model.v0_mean,
        interaction_rows=model.interaction_rows, boundary=model.boundary,
    )


def gaussian_moment_tensors(mean, cov, max_order, budget=DEFAULT_BUDGET):
    """Moments of a Gaussian vector by pairing recursion, all orders <= max_order.

    M_n(i, rest) = mean_i M_{n-1}(rest) + sum_j cov(i, rest_j) M_{n-2}(rest - j).
    The budget binds on ``d^max_order``, the entries of the largest tensor returned.
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    d = mean.shape[0]
    check_budget(f"gaussian_moment_tensors: order-{max_order} tensor over {d} labels", d**max_order, budget)
    out = {0: np.ones(()), 1: mean.copy()}
    for n in range(2, max_order + 1):
        t = np.multiply.outer(mean, out[n - 1])
        sub = np.multiply.outer(cov, out[n - 2])  # axes (i, pair, rest...)
        for j in range(1, n):
            # pair slot 0 with slot j of the order-n tensor
            t = t + np.moveaxis(sub, 1, j)
        out[n] = t
    return out


def gaussian_free_moments(model: OscillatorModel, ensemble: EnsembleSpec, max_order):
    """Exact moment tensors of the linearly propagated Gaussian ensemble.

    The discrete field is affine in the initial data, so its mean vector
    and covariance follow from the basis propagation and the moments
    from the pairing recursion.  Reference for the lam = 0 theory and
    for Monte-Carlo error floors.
    """
    coeff, part = linear_response(model)
    cov0 = ensemble.cov.copy()
    if ensemble.pinned is not None:
        cov0[ensemble.pinned, :] = 0.0
        cov0[:, ensemble.pinned] = 0.0
    m = coeff @ ensemble.mean + part
    C = coeff @ cov0 @ coeff.T
    tensors = gaussian_moment_tensors(m, C, max_order)
    return CorrelationTable(
        values=tensors,
        stderr={n: np.zeros_like(t) for n, t in tensors.items()},
        samples=0,
        max_order=max_order,
    )


# --- d'Alembert oracle -------------------------------------------------------

def dalembert_field(model: WaveModel, u0, w0, t):
    """Continuum d'Alembert solution on the grid at time t.

    u0 and w0 are callables on [0, length), extended periodically:
    mean displacement and mean velocity of the initial ensemble.  The
    velocity term is a 2049-point trapezoid rule over [x - a t, x + a t].
    """
    a, Lbox = model.speed, model.length
    xg = model.grid

    def per(fn, pts):
        return fn(np.mod(pts, Lbox))

    left = per(u0, xg - a * t)
    right = per(u0, xg + a * t)
    out = 0.5 * (left + right)
    if w0 is not None and a * t > 0:
        s = np.linspace(-a * t, a * t, 2049)
        pts = xg[:, None] + s[None, :]
        vals = per(w0, pts)
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        out = out + trapezoid(vals, s, axis=1) / (2.0 * a)
    return out


def sample_mean_stderr(x):
    """Mean over the samples (axis 0) and its standard error ``std(ddof=1) / sqrt(S)``.

    One sample has no spread to estimate; its standard error is zero.
    """
    S = x.shape[0]
    stderr = x.std(axis=0, ddof=1) / np.sqrt(S) if S > 1 else np.zeros(x.shape[1:])
    return x.mean(axis=0), stderr


def dalembert_average(model: WaveModel, ensemble: EnsembleSpec, u0_mean, w0_mean, steps=None):
    """Averaged wave field two ways: formula on mean data vs simulated mean.

    By linearity the ensemble mean solves the same equation as each
    sample, so the d'Alembert formula applied to the mean initial data
    reproduces the simulated ensemble mean up to discretization and
    Monte-Carlo error.  Returns per-step formula field, simulated mean,
    and the standard error of the simulated mean.
    """
    if steps is None:
        steps = [model.nt - 1]
    traj = simulate_wave(model, ensemble)
    out = []
    for r in steps:
        t = r * model.dt
        formula = dalembert_field(model, u0_mean, w0_mean, t)
        sim_mean, sim_se = sample_mean_stderr(traj.positions[:, r, :])
        out.append({"step": r, "time": t, "formula": formula, "simulated": sim_mean, "stderr": sim_se})
    return out


# --- marginals and hydrodynamic moments --------------------------------------

def marginals(f, keep):
    """Partial sum over all but the first ``keep`` coordinates, normalized tensors.

    On probability tensors the discrete marginal is the plain partial
    sum (uniform unit cell volume), which preserves normalization; the
    composition law follows.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise NotADistribution("negative entries")
    if abs(f.sum() - 1.0) > 1e-10:
        raise NotADistribution(f"sums to {f.sum()}, expected 1")
    if not 0 <= keep <= f.ndim:
        raise ShapeError(f"keep={keep} outside 0..{f.ndim}")
    # drop axes one at a time from the last so that composing marginals
    # performs the identical float reductions and the law is bit exact
    out = f
    for ax in range(f.ndim - 1, keep - 1, -1):
        out = out.sum(axis=ax)
    return out


@dataclass
class HydroMoments:
    """Spatial moments of the velocity field by two routes, per time point."""

    route_field: np.ndarray
    route_products: np.ndarray
    stderr: np.ndarray
    exponent: int

    def max_discrepancy_sigma(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.abs(self.route_field - self.route_products) / np.where(
                self.stderr == 0.0, 1.0, self.stderr
            )
        return float(z.max())


def hydro_moments(traj: TrajectorySet, k):
    """Moments <x^k v> two ways: velocity-field route vs product route.

    Route A builds the empirical one-particle velocity field (the
    conditional mean of the velocity at each occupied position, weighted
    by the occupation measure) and integrates the position power against
    it.  Route B estimates the equal-time product moment directly.  The
    two coincide identically under the empirical measure, exactly for a
    single sample and within statistics for finite ensembles.  The
    trajectories carry one spatial coordinate, so k is the only exponent.
    """
    if traj.kind != "oscillator":
        raise ShapeError("hydro moments expect oscillator trajectories")
    x, v = traj.positions, traj.velocities
    S, T = x.shape
    route_field = np.empty(T)
    route_products = np.empty(T)
    stderr = np.empty(T)
    for t in range(T):
        pos, inv = np.unique(x[:, t], return_inverse=True)
        u_field = np.zeros(pos.size)
        weight = np.bincount(inv, minlength=pos.size).astype(float)
        np.add.at(u_field, inv, v[:, t])
        u_field /= weight
        density = weight / S
        route_field[t] = float(np.sum(pos**k * u_field * density))
        route_products[t], stderr[t] = sample_mean_stderr(x[:, t] ** k * v[:, t])
    return HydroMoments(
        route_field=route_field, route_products=route_products, stderr=stderr, exponent=k
    )
