"""Finite index spaces and concrete model kernels.

The continuous index bundling component, type, position and time is
discretized to a finite ordered label set; deltas become Kronecker deltas
and integrals become sums with uniform grid weight 1 (kernel units absorb
the step). A model is a kernel set (linear part K, source G, interaction
M, coupling, deformation) over such a space, together with a Green's
function for K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DuplicateLabel,
    GridTooSmall,
    InvalidComponentCount,
    ShapeError,
)

GREEN_TOL = 1e-10


@dataclass(frozen=True)
class IndexSpace:
    """Flat enumeration of (alpha, base-label) pairs, alpha-major.

    ``alpha`` runs 1..A (vector components), base labels keep their given
    order. Flat label ``(alpha-1)*len(labels) + u_index`` so that
    ``decode(0) == (1, labels[0])``.
    """

    A: int
    labels: tuple

    def __post_init__(self):
        if not isinstance(self.A, (int, np.integer)) or self.A < 1:
            raise InvalidComponentCount(f"component count A={self.A!r} must be a positive integer")
        if len(self.labels) == 0:
            raise DuplicateLabel("base label list must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabel(f"base labels contain duplicates: {self.labels!r}")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "_index", {u: i for i, u in enumerate(self.labels)})

    @property
    def n_base(self):
        return len(self.labels)

    @property
    def d(self):
        return self.A * len(self.labels)

    def encode(self, alpha, label):
        """Flat label of component ``alpha`` (1-based) at base label ``label``."""
        if not 1 <= alpha <= self.A:
            raise InvalidComponentCount(f"alpha={alpha} outside 1..{self.A}")
        return (alpha - 1) * self.n_base + self._index[label]

    def encode_idx(self, alpha_idx, u_idx):
        return alpha_idx * self.n_base + u_idx

    def decode(self, flat):
        """Inverse of :meth:`encode`: returns ``(alpha, label)``."""
        if not 0 <= flat < self.d:
            raise ShapeError(f"flat label {flat} outside 0..{self.d - 1}")
        alpha_idx, u_idx = divmod(int(flat), self.n_base)
        return alpha_idx + 1, self.labels[u_idx]


def build_index_space(A, labels):
    """Create an :class:`IndexSpace` with d = A * len(labels)."""
    return IndexSpace(A=A, labels=tuple(labels))


@dataclass(frozen=True)
class KernelSet:
    """Numerical kernels of one model over an :class:`IndexSpace`.

    K : (d, d) linear-part kernel; G : (d,) source kernel; M : (n_base,
    n_base) interaction kernel acting on base labels (components are
    contracted by the invariant convention inside the operator builders);
    lam and q are the coupling and deformation entering the cubic
    interaction operator; green, when present, satisfies K @ green == I.
    data_rows lists flat labels whose K-row encodes boundary/initial data
    rather than an equation of motion.  ``interaction``, the cubic
    interaction operator N at the set's own q, is built once, on first use.
    """

    space: IndexSpace
    K: np.ndarray
    G: np.ndarray
    M: np.ndarray
    lam: float = 0.0
    q: float = 0.0
    green: np.ndarray | None = None
    data_rows: tuple = ()

    def __post_init__(self):
        d, nb = self.space.d, self.space.n_base
        K = np.asarray(self.K, dtype=float)
        G = np.asarray(self.G, dtype=float)
        M = np.asarray(self.M, dtype=float)
        if K.shape != (d, d):
            raise ShapeError(f"K has shape {K.shape}, expected {(d, d)}")
        if G.shape != (d,):
            raise ShapeError(f"G has shape {G.shape}, expected {(d,)}")
        if M.shape != (nb, nb):
            raise ShapeError(f"M has shape {M.shape}, expected {(nb, nb)}")
        green = self.green
        if green is not None:
            green = np.asarray(green, dtype=float)
            if green.shape != (d, d):
                raise ShapeError(f"green has shape {green.shape}, expected {(d, d)}")
            green.flags.writeable = False
        for a in (K, G, M):
            a.flags.writeable = False
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "green", green)
        object.__setattr__(self, "data_rows", tuple(self.data_rows))

    @property
    def Mdiag(self):
        """Row sums M(z) = sum_y M(z; y)."""
        return self.M.sum(axis=1)

    @cached_property
    def interaction(self):
        """N at this set's q; ``cuntz.interaction_operator`` returns it."""
        from .cuntz import _build_interaction  # cuntz imports this module

        return _build_interaction(self, self.q)


def _as_forcing(forcing, T):
    if forcing is None:
        return np.zeros(T)
    f = np.asarray(forcing, dtype=float)
    if f.ndim == 0:
        return np.full(T, float(f))
    if f.shape != (T,):
        raise ShapeError(f"forcing has shape {f.shape}, expected ({T},)")
    return f.copy()


@dataclass(frozen=True)
class OscillatorModel:
    """Single forced oscillator, Phi'' = -omega^2 Phi + lam Phi^3 + f(t).

    Time-discretized with the Stormer stencil: row r >= 2 of K encodes
    (x_r - 2 x_{r-1} + x_{r-2})/dt^2 + omega^2 x_{r-1}, row 0 pins the
    initial position and row 1 the startup step
    x_1 = x_0 + dt v_0 + dt^2/2 (-omega^2 x_0 + f_0).
    The cubic term is evaluated at the determined point x_r (implicitly),
    which keeps the interaction operator local at the row label; at
    lam = 0 the scheme is exactly velocity Verlet.
    """

    omega: float
    dt: float
    T: int
    lam: float = 0.0
    q: float = 0.0
    forcing: np.ndarray = field(default=None)
    x0_mean: float = 0.0
    v0_mean: float = 0.0
    interaction_rows: str = "all"
    boundary: str = "initial"
    space: IndexSpace = field(default=None)
    kernels: KernelSet = field(default=None)

    kind = "oscillator"


def build_oscillator_model(
    omega,
    dt,
    T,
    lam=0.0,
    q=0.0,
    forcing=None,
    x0_mean=0.0,
    v0_mean=0.0,
    interaction_rows="all",
    boundary="initial",
):
    """Assemble the discretized oscillator model and its kernel set.

    Parameters
    ----------
    omega, dt, T : angular frequency, step and number of time points.
    lam : cubic coefficient of the dynamics Phi'' = -omega^2 Phi
        + lam Phi^3 + f.  Moved to the left-hand side of the hierarchy
        equation, it enters the kernel set with opposite sign.
    q : deformation parameter of the interaction family.
    forcing : scalar or length-T array f(t).
    x0_mean, v0_mean : means of the initial data; they populate the two
        boundary entries of the source kernel G.
    interaction_rows : "all" keeps the interaction kernel nonzero on
        every row (needed by the inverse constructions, which divide by
        M(z)), and the simulator then solves the cubic on the data rows
        too; "interior" zeroes it on the two data rows.  Either way the
        hierarchy matches the simulated dynamics row by row.
    boundary : "initial" (default, K invertible) or "free" (zero data
        rows; K singular, no Green's function).

    Returns the :class:`OscillatorModel`; its ``space`` and ``kernels``
    fields carry the :class:`IndexSpace` and :class:`KernelSet`.
    """
    if dt <= 0:
        raise GridTooSmall(f"dt={dt} must be positive")
    if T < 3:
        raise GridTooSmall(f"T={T} < 3: second difference undefined")
    if interaction_rows not in ("all", "interior"):
        raise ValueError(f"interaction_rows={interaction_rows!r} not in ('all', 'interior')")
    if boundary not in ("initial", "free"):
        raise ValueError(f"boundary={boundary!r} not in ('initial', 'free')")

    space = build_index_space(1, tuple(range(T)))
    f = _as_forcing(forcing, T)

    K = np.zeros((T, T))
    G = np.zeros(T)
    if boundary == "initial":
        K[0, 0] = 1.0
        G[0] = -x0_mean
        K[1, 0] = -1.0 / dt + 0.5 * dt * omega**2
        K[1, 1] = 1.0 / dt
        G[1] = -(v0_mean + 0.5 * dt * f[0])
    for r in range(2, T):
        K[r, r - 2] = 1.0 / dt**2
        K[r, r - 1] = -2.0 / dt**2 + omega**2
        K[r, r] = 1.0 / dt**2
        G[r] = -f[r - 1]

    green = None
    if boundary == "initial":
        green = np.linalg.solve(K, np.eye(T))

    M = np.eye(T)
    if interaction_rows == "interior":
        M[0, :] = 0.0
        M[1, :] = 0.0

    kernels = KernelSet(
        space=space,
        K=K,
        G=G,
        M=M,
        lam=-lam,
        q=q,
        green=green,
        data_rows=(0, 1) if boundary == "initial" else (),
    )
    return OscillatorModel(
        omega=omega,
        dt=dt,
        T=T,
        lam=lam,
        q=q,
        forcing=f,
        x0_mean=x0_mean,
        v0_mean=v0_mean,
        interaction_rows=interaction_rows,
        boundary=boundary,
        space=space,
        kernels=kernels,
    )


@dataclass(frozen=True)
class WaveModel:
    """1-D wave equation on a periodic grid, for the averaging oracle.

    Semi-discrete form: Phi''_i = speed^2 (Phi_{i+1} - 2 Phi_i
    + Phi_{i-1}) / dx^2, integrated with velocity Verlet at the given
    CFL number.
    """

    speed: float
    nx: int
    length: float
    cfl: float
    nt: int

    kind = "wave"

    @property
    def dx(self):
        return self.length / self.nx

    @property
    def dt(self):
        return self.cfl * self.dx / self.speed

    @property
    def grid(self):
        return np.arange(self.nx) * self.dx


def build_wave_model(speed, nx, length=2.0, cfl=0.5, nt=64):
    if nx < 3:
        raise GridTooSmall(f"nx={nx} < 3")
    if not 0 < cfl <= 1:
        raise ValueError(f"cfl={cfl} outside (0, 1]")
    return WaveModel(speed=speed, nx=nx, length=length, cfl=cfl, nt=nt)


@dataclass
class KernelDiagnostics:
    """Result of :func:`validate_kernels`."""

    green_residual: float | None
    mdiag: np.ndarray
    zero_source_labels: list
    near_null: list
    warnings: list
    ok: bool

    def to_dict(self):
        return {
            "green_residual": self.green_residual,
            "mdiag": [float(x) for x in self.mdiag],
            "zero_source_labels": [int(i) for i in self.zero_source_labels],
            "near_null": [
                {"singular_value": float(s), "direction": [float(x) for x in v]}
                for s, v in self.near_null
            ],
            "warnings": list(self.warnings),
            "ok": bool(self.ok),
        }

    def render(self):
        lines = []
        if self.green_residual is None:
            lines.append("green's function : absent")
        else:
            lines.append(f"green's function : max |K@green - I| = {self.green_residual:.3e}")
        lines.append(f"interaction row sums M(z): min {self.mdiag.min():.3e}, max {self.mdiag.max():.3e}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        if not self.warnings:
            lines.append("no warnings")
        return "\n".join(lines)


def validate_kernels(kernels):
    """Diagnostic report: Green residual, M row sums, zero sources, near-null K.

    Warnings flag every label where G vanishes (the left inverse of the
    source operator is undefined there) and every singular value of K
    below 1e-8 together with its right-singular direction.
    """
    d = kernels.space.d
    warnings = []

    green_residual = None
    if kernels.green is not None:
        green_residual = float(np.abs(kernels.K @ kernels.green - np.eye(d)).max())
        if green_residual > GREEN_TOL:
            warnings.append(f"green residual {green_residual:.3e} exceeds {GREEN_TOL}")
    else:
        warnings.append("no Green's function: right inverse of K unavailable")

    mdiag = kernels.Mdiag
    zero_source = [i for i in range(d) if kernels.G[i] == 0.0]
    for i in zero_source:
        warnings.append(f"left inverse of G undefined at label {i}")

    u, s, vt = np.linalg.svd(kernels.K)
    near_null = [(s[i], vt[i]) for i in range(len(s)) if s[i] < 1e-8]
    for sv, _ in near_null:
        warnings.append(f"K nearly singular: singular value {sv:.3e}")

    ok = green_residual is not None and green_residual <= GREEN_TOL and not near_null
    return KernelDiagnostics(
        green_residual=green_residual,
        mdiag=mdiag,
        zero_source_labels=zero_source,
        near_null=near_null,
        warnings=warnings,
        ok=ok,
    )
