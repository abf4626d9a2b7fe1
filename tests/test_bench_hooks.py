"""The benchmark's hooks into the library still hold.

``perfbench/tracer.py`` rebinds library functions by name.  A refactor
that renames or deletes one of them fails here, not in a traced
benchmark run.  The outputs of all three workloads are checked against
their stored fingerprints here too, so that a change to the series', the
oracle's or the other solvers' results, or to the identity catalog's
entry ids, fails the test suite and not only a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_every_traced_target_exists():
    targets = load_tracer().TARGETS
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if not callable(getattr(owner, attr, None))]
    assert not missing, missing


@pytest.mark.parametrize("variant", [0, 13])
def test_series_workload_matches_stored_fingerprints(tmp_path, variant):
    # perturbation_series at T=12, L=6, order 3: 3M-entry levels, whose
    # composed (K+G) right inverse would hold a 7-slot kernel past the budget
    workloads = load_perfbench("workloads")
    stored = json.loads(workloads.FINGERPRINTS.read_text())
    wl = workloads.Series(workloads.make_inputs(variant), tmp_path, stored)
    for op in wl.ops:
        assert wl.check(op, wl.call(op)) is None, op


@pytest.mark.parametrize("variant", [0, 13])
def test_oracle_workload_matches_stored_fingerprints(tmp_path, variant):
    workloads = load_perfbench("workloads")
    stored = json.loads(workloads.FINGERPRINTS.read_text())
    wl = workloads.Oracle(workloads.make_inputs(variant), tmp_path, stored)
    for op in wl.ops:
        assert wl.check(op, wl.call(op)) is None, op


@pytest.mark.parametrize("variant", [0, 13])
def test_closure_workload_matches_stored_fingerprints(tmp_path, variant):
    workloads = load_perfbench("workloads")
    stored = json.loads(workloads.FINGERPRINTS.read_text())
    wl = workloads.Closure(workloads.make_inputs(variant), tmp_path, stored)
    for op in wl.ops:
        assert wl.check(op, wl.call(op)) is None, op
