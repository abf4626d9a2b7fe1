"""Every library attribute the benchmark's tracer wraps exists.

``perfbench/tracer.py`` rebinds library functions by name.  A refactor
that renames or deletes one of them fails here, not in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_exists():
    targets = load_tracer().TARGETS
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets if not callable(getattr(owner, attr, None))]
    assert not missing, missing
