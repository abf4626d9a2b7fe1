"""Spans around the public functions of each freefock layer, from outside.

``Tracer.install`` replaces each traced function with a wrapper that
records a span (name, start, end, parent) and the counters the
per-layer metrics need.  ``solver``, ``inverse``, ``cli`` and the
package namespace hold their own copies of names imported with
``from .cuntz import ...``, so every module attribute bound to the
original function is rebound, and restored by ``uninstall``.  Spans stay
in memory; ``write`` saves them when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from freefock import cli, cuntz, fock, inverse, model, oracle, solver


def _nbytes(v):
    return sum(t.nbytes for t in v.levels)


def _count_vector_new(tr, args, kwargs, result):
    tr.add("fock.vector_new.bytes", _nbytes(args[0]))


def _count_apply(tr, args, kwargs, result):
    tr.add("cuntz.apply_operator.bytes", _nbytes(args[1]) + _nbytes(result))


def _count_compose(tr, args, kwargs, result):
    tr.peak("cuntz.compose.max_kernel_entries", max((t.kernel.size for t in result.terms), default=0))


def _count_materialize(tr, args, kwargs, result):
    tr.add("cuntz.materialize.entries", sum(m.size for m in result.values()))


def _count_dense(tr, args, kwargs, result):
    tr.add("cuntz.to_dense_matrix.entries", result.size)


def _count_truncate(tr, args, kwargs, result):
    tr.add("inverse.truncate_operator.built", len(args[0].terms))
    tr.add("inverse.truncate_operator.kept", len(result.terms))


def _count_simulate(tr, args, kwargs, result):
    tr.add("oracle.simulate.samples", result.samples)


def _count_moment(tr, args, kwargs, result):
    tr.add("oracle.moment_tensor.bytes", args[0].nbytes + np.asarray(result).nbytes)


# (owner, attribute, span name, counter); owner is a module or, for the
# vector constructor, the FockVector class
TARGETS = (
    (model, "build_oscillator_model", "model.build_oscillator_model", None),
    (fock.FockVector, "__post_init__", "fock.vector_new", _count_vector_new),
    (cuntz, "apply_operator", "cuntz.apply_operator", _count_apply),
    (cuntz, "compose", "cuntz.compose", _count_compose),
    (cuntz, "materialize", "cuntz.materialize", _count_materialize),
    (cuntz, "to_dense_matrix", "cuntz.to_dense_matrix", _count_dense),
    (cuntz, "interaction_operator", "cuntz.interaction_operator", None),
    (inverse, "apply_right_inverse_K_plus_G", "inverse.apply_right_inverse_K_plus_G", None),
    (inverse, "neumann_inverse", "inverse.neumann_inverse", None),
    (inverse, "right_inverse_N0", "inverse.right_inverse_N0", None),
    (inverse, "right_inverse_Nq", "inverse.right_inverse_Nq", None),
    (inverse, "right_inverse_K_plus_G", "inverse.right_inverse_K_plus_G", None),
    (inverse, "truncate_operator", "inverse.truncate_operator", _count_truncate),
    (inverse, "dense_residual", "inverse.dense_residual", None),
    (inverse, "identity_catalog", "inverse.identity_catalog", None),
    (solver, "perturbation_series", "solver.perturbation_series", None),
    (solver, "lower_triangular_expansion", "solver.lower_triangular_expansion", None),
    (solver, "closed_equation_solve", "solver.closed_equation_solve", None),
    (solver, "rational_solve", "solver.rational_solve", None),
    (solver, "residual_by_level", "solver.residual_by_level", None),
    (solver, "propagate_residual_stderr", "solver.propagate_residual_stderr", None),
    (oracle, "simulate", "oracle.simulate", _count_simulate),
    (oracle, "estimate_mtcf", "oracle.estimate_mtcf", None),
    (oracle, "moment_tensor", "oracle.moment_tensor", _count_moment),
    (cli, "load_config", "cli.load_config", None),
    (cli, "run_solver", "cli.run_solver", None),
    (cli, "run_compare", "cli.run_compare", None),
    (cli, "cmd_compare", "cli.cmd_compare", None),
    (cli, "cmd_oracle_run", "cli.cmd_oracle_run", None),
)


class Tracer:
    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []      # [name, start, end, parent index or -1]
        self.counters = {}
        self._stack = []
        self._restore = []

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run ``fn`` inside a span; counters are taken inside it too."""
        span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **(kwargs or {}))
            if count is not None:
                count(self, args, kwargs, result)
            return result
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def _closed_with_svd(self, fn):
        # numpy.linalg.svd is traced only while a closed solve runs
        @functools.wraps(fn)
        def closed(*args, **kwargs):
            svd = np.linalg.svd
            np.linalg.svd = self._wrap(svd, "solver.closed.svd", None)
            try:
                return fn(*args, **kwargs)
            finally:
                np.linalg.svd = svd

        return closed

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "freefock" or n.startswith("freefock.")]
        for owner, attr, name, count in TARGETS:
            original = getattr(owner, attr)
            inner = self._closed_with_svd(original) if name == "solver.closed_equation_solve" else original
            wrapper = self._wrap(inner, name, count)
            for holder in (owner, *modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def self_times(self):
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, start, end, _) in enumerate(self.spans)]

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "name": name,
                    "start": start - self.origin,
                    "end": end - self.origin,
                    "parent": parent,
                }) + "\n")


def per_layer(tracer, rounds):
    """Per-round calls, self time and counters, keyed by metric name.

    ``<span>.calls`` and ``<span>.self_s`` exist for every span name that
    was recorded; spans never entered read 0 at the caller.
    """
    calls, own = {}, {}
    for (name, *_), s in zip(tracer.spans, tracer.self_times()):
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + s
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name] / rounds
        out[f"{name}.self_s"] = own[name] / rounds
    c = tracer.counters
    for key in ("fock.vector_new.bytes", "cuntz.apply_operator.bytes", "cuntz.materialize.entries",
                "cuntz.to_dense_matrix.entries", "oracle.moment_tensor.bytes"):
        out[key] = c.get(key, 0) / rounds
    out["cuntz.compose.max_kernel_entries"] = c.get("cuntz.compose.max_kernel_entries", 0)
    built = c.get("inverse.truncate_operator.built", 0)
    out["inverse.truncate_operator.kept_ratio"] = c.get("inverse.truncate_operator.kept", 0) / built if built else 0.0
    sim_s = out.get("oracle.simulate.self_s", 0.0) * rounds
    out["oracle.simulate.samples_per_s"] = c.get("oracle.simulate.samples", 0) / sim_s if sim_s else 0.0
    out["solver.closed.svd_calls"] = out.pop("solver.closed.svd.calls", 0)
    out["solver.closed.svd_s"] = out.pop("solver.closed.svd.self_s", 0.0)
    return out
