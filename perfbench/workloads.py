"""Seeded inputs, the three workloads, and the checks on their outputs.

Every input comes from the workload seed.  The seed picks one of
``VARIANTS`` input variants; a variant fixes the forcing profile, the
initial means and the oracle's Philox key.  Sizes never depend on the
seed, so neither does cost.  The finite variant family lets the
benchmark keep a stored fingerprint of the outputs of every variant
(``fingerprints.json``), so outputs are checked for any seed.  The
closure solvers are also gated on their own trusted-level residuals.

All library calls go through module attributes (``ff.perturbation_series``,
``cli.main``) so that the tracer's rebinding of those names applies.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

import freefock as ff
from freefock import cli
from freefock.inverse import deformation_obstruction

VARIANTS = 64
OMEGA, DT, L = 1.0, 0.15, 4
FINGERPRINTS = Path(__file__).with_name("fingerprints.json")
FP_TOL = 1e-9          # relative to the level norm; float reordering stays far below
RESIDUAL_TOL = 1e-9    # trusted-level residual gate of the exact solvers
CLOSURE_TOL = 1e-8     # closed-equation misfit |A u - r|
BRANCHING_TOL = 1e-12  # the branching term vanishes identically


@dataclass(frozen=True)
class Inputs:
    """One input variant: forcing profile, initial means and oracle key."""

    variant: int
    base: float
    amp: float
    freq: float
    phase: float
    x0_mean: float
    v0_mean: float
    oracle_key: int

    def forcing(self, T):
        # base >= 0.2 > amp keeps the forcing, and so every source entry, nonzero
        return self.base + self.amp * np.sin(self.freq * DT * np.arange(T) + self.phase)


def make_inputs(seed):
    variant = int(seed) % VARIANTS
    rng = np.random.Generator(np.random.Philox(key=variant))
    return Inputs(
        variant=variant,
        base=float(rng.uniform(0.2, 0.4)),
        amp=float(rng.uniform(0.0, 0.1)),
        freq=float(rng.uniform(0.5, 2.0)),
        phase=float(rng.uniform(0.0, 2.0 * math.pi)),
        x0_mean=float(rng.uniform(0.3, 0.5)),
        v0_mean=float(rng.uniform(0.0, 0.2)),
        oracle_key=int(rng.integers(0, 2**63)),
    )


def oscillator(inp, T, lam, q=0.0, rows="all"):
    return ff.build_oscillator_model(
        omega=OMEGA,
        dt=DT,
        T=T,
        lam=lam,
        q=q,
        forcing=inp.forcing(T),
        x0_mean=inp.x0_mean,
        v0_mean=inp.v0_mean,
        interaction_rows=rows,
    )


def closure_model(inp, T, lam=0.02, q=0.0):
    """Model with the interaction on every row; refuses inputs the solvers cannot take."""
    model = oscillator(inp, T, lam, q, rows="all")
    k = model.kernels
    if np.any(k.lam * k.Mdiag == 0.0):
        raise ValueError(f"variant {inp.variant}: M(z) vanishes on some row at T={T}")
    if q != 0.0 and np.abs(1.0 + deformation_obstruction(k)).min() < 1e-6:
        raise ValueError(f"variant {inp.variant}: 1 + O(z) resonant at q={q}, T={T}")
    return model


# --- output fingerprints ------------------------------------------------------

def _axis_vectors(d, n):
    rng = np.random.Generator(np.random.Philox(key=1000 + n))
    return rng.standard_normal((n, d))


def fingerprint(levels):
    """Per level: [norm, seeded rank-one projection, norm of the projection vectors]."""
    out = []
    for n, t in enumerate(levels):
        t = np.asarray(t, dtype=float)
        proj, scale = t, 1.0
        for u in _axis_vectors(t.shape[0] if t.ndim else 1, t.ndim):
            proj = np.tensordot(u, proj, axes=(0, 0))
            scale *= float(np.linalg.norm(u))
        out.append([float(np.linalg.norm(t)), float(proj), scale])
    return out


def fingerprint_mismatch(got, want):
    """None when ``got`` matches the stored ``want`` within FP_TOL, else a message."""
    if len(got) != len(want):
        return f"{len(got)} levels, stored {len(want)}"
    for n, ((norm, proj, scale), (norm_w, proj_w, _)) in enumerate(zip(got, want)):
        tol = FP_TOL * max(norm_w, 1e-300)
        if abs(norm - norm_w) > tol or abs(proj - proj_w) > tol * scale:
            return f"level {n}: norm {norm!r} vs {norm_w!r}, projection {proj!r} vs {proj_w!r}"
    return None


def digest_arrays(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=float)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# --- workloads ----------------------------------------------------------------
# Each workload builds its models in set-up, then ``call(op)`` runs one
# operation, ``check(op, out)`` returns None or what is wrong, and
# ``digest(op, out)`` hashes the output for the traced-equals-untraced check.

class Series:
    """perturbation_series at T=12, L=6, order 3: vector work on 3M-entry levels."""

    name = "series"
    ops = ("perturb",)

    def __init__(self, inp, run_dir, stored=None):
        self.inp = inp
        self.model = oscillator(inp, 12, 0.02, rows="interior")
        self.stored = stored

    def call(self, op):
        return ff.perturbation_series(self.model.kernels, L=6, order=3)

    def outputs(self, op, report):
        return fingerprint(report.V.levels)

    def check(self, op, report):
        return fingerprint_mismatch(self.outputs(op, report), self.stored[op][str(self.inp.variant)])

    def digest(self, op, report):
        return digest_arrays(report.V.levels)


class Closure:
    """Small vectors, large symbolic kernels: compose, materialize, dense SVDs."""

    name = "closure"
    ops = ("closed", "triangular", "rational", "catalog")

    def __init__(self, inp, run_dir, stored=None):
        self.inp = inp
        self.stored = stored
        self.kernels = {
            "closed": closure_model(inp, 6).kernels,
            "triangular": closure_model(inp, 14).kernels,
            "rational": closure_model(inp, 14).kernels,
            "catalog": closure_model(inp, 5, lam=0.05, q=0.3).kernels,
        }

    def call(self, op):
        return run_closure_op(op, self.kernels[op])

    def outputs(self, op, out):
        # catalog residuals are rounding noise, so only its entry list is stored
        return [r.id for r in out] if op == "catalog" else fingerprint(out.V.levels)

    def check(self, op, out):
        # the residual gate sees levels 0..L-2 only; the fingerprint covers every level
        err = check_closure_op(op, out)
        if err:
            return err
        got, want = self.outputs(op, out), self.stored[op][str(self.inp.variant)]
        if op == "catalog":
            return None if got == want else f"catalog entries {got}, stored {want}"
        return fingerprint_mismatch(got, want)

    def digest(self, op, out):
        if op == "catalog":
            return hashlib.sha256(repr([r.to_dict() for r in out]).encode()).hexdigest()
        return digest_arrays(out.V.levels)


def run_closure_op(op, kernels):
    if op == "closed":
        return ff.closed_equation_solve(kernels, L)
    if op == "triangular":
        return ff.lower_triangular_expansion(kernels, L)
    if op == "rational":
        return ff.rational_solve(kernels, L, lam=0.05)
    if op == "catalog":
        return ff.identity_catalog(kernels, L)
    raise ValueError(f"unknown closure operation {op!r}")


def check_closure_op(op, out):
    if op == "catalog":
        failed = [r.id for r in out if r.passed is False]
        return f"catalog entries FAIL: {failed}" if failed else None
    lo, hi = out.residual.trusted_levels
    scale = max([1.0] + [float(np.abs(out.V.levels[n]).max()) for n in range(lo, hi + 1)])
    worst = out.residual.trusted_max()
    if not worst <= RESIDUAL_TOL * scale:
        return f"{op}: trusted-level residual {worst:.3e} over levels {lo}..{hi}"
    if op == "closed":
        closure = out.extras["closure_residual"]
        branching = out.extras["branching_residual"]
        if not closure <= CLOSURE_TOL:
            return f"closed: closure residual {closure:.3e}"
        if not branching <= BRANCHING_TOL:
            return f"closed: branching residual {branching:.3e}"
    return None


class Oracle:
    """freefock compare and freefock oracle run, in-process through cli.main."""

    name = "oracle"
    ops = ("compare", "oracle_run")
    T, SAMPLES = 12, 100_000

    def __init__(self, inp, run_dir, stored=None):
        self.inp = inp
        self.stored = stored
        self.out = {op: Path(run_dir) / op for op in self.ops}
        self.config = Path(run_dir) / "experiment.yaml"
        self.config.parent.mkdir(parents=True, exist_ok=True)
        self.config.write_text(yaml.safe_dump(self.config_doc(), sort_keys=True))
        self.verdicts = {"pass": 0, "FAIL": 0}

    def config_doc(self):
        inp = self.inp
        return {
            "model": {
                "kind": "oscillator",
                "omega": OMEGA,
                "dt": DT,
                "T": self.T,
                "lambda": 0.02,
                "forcing": [float(f) for f in inp.forcing(self.T)],
                "x0_mean": inp.x0_mean,
                "v0_mean": inp.v0_mean,
                "interaction_rows": "interior",
            },
            "truncation": {"L": L},
            "solver": {"method": "perturb", "order": 2, "seed_mode": "free"},
            "oracle": {
                "mean": [inp.x0_mean, inp.v0_mean],
                "cov": [[0.04, 0.0], [0.0, 0.01]],
                "samples": self.SAMPLES,
                "seed": inp.oracle_key,
                "max_order": 4,
            },
            "compare": {"words": "level1_interior", "sigma": 3.0, "rows": "equation", "residual_sigma": 4.0},
            "output": {"prefix": "bench"},
        }

    def call(self, op):
        argv = ["compare"] if op == "compare" else ["oracle", "run"]
        argv += ["--config", str(self.config), "--out", str(self.out[op])]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
        return {"code": code, "stderr": err.getvalue()}

    def files(self, op):
        return sorted(p for p in self.out[op].iterdir() if p.is_file())

    def outputs(self, op, result):
        if op == "compare":
            doc = json.loads((self.out[op] / "bench_compare.json").read_text())
            rows = doc["comparisons"]
            return {
                "words": [r["word"] for r in rows],
                "values": fingerprint([np.array([r[k] for r in rows]) for k in ("oracle", "stderr", "solver")]),
                "pass": doc["pass"],
            }
        with open(self.out[op] / "bench_mtcf.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        by_level = {}
        for word, value, se in rows:
            by_level.setdefault(word.count(";") + 1, []).append((float(value), float(se)))
        d = len(by_level[1])
        values = [np.array([v for v, _ in by_level[n]]).reshape((d,) * n) for n in sorted(by_level)]
        stderr = [np.array([s for _, s in by_level[n]]).reshape((d,) * n) for n in sorted(by_level)]
        return {"rows": len(rows), "values": fingerprint(values), "stderr": fingerprint(stderr)}

    def check(self, op, result):
        # exit code 2 is the compare verdict "FAIL", a result and not an error
        if result["code"] not in ((0, 2) if op == "compare" else (0,)):
            return f"{op}: exit code {result['code']}: {result['stderr'].strip()}"
        got = self.outputs(op, result)
        want = self.stored[op][str(self.inp.variant)]
        if op == "compare":
            if (result["code"] == 0) != got["pass"]:
                return "compare: exit code disagrees with the reported verdict"
            self.verdicts["pass" if got["pass"] else "FAIL"] += 1
            if got["words"] != want["words"]:
                return f"compare: words {got['words']} vs stored {want['words']}"
            return fingerprint_mismatch(got["values"], want["values"])
        if got["rows"] != want["rows"]:
            return f"oracle run: {got['rows']} rows, stored {want['rows']}"
        return fingerprint_mismatch(got["values"], want["values"]) or fingerprint_mismatch(
            got["stderr"], want["stderr"]
        )

    def digest(self, op, result):
        h = hashlib.sha256(str(result["code"]).encode())
        for p in self.files(op):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()


WORKLOADS = {w.name: w for w in (Series, Closure, Oracle)}
