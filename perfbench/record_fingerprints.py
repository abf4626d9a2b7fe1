"""Record the output fingerprints of every input variant into fingerprints.json.

Run from the repository root, only when the benchmark itself changes:

    python3 perfbench/record_fingerprints.py

It runs every workload operation once per variant and stores what
``workloads.py`` checks against.  A change that claims a
gain must not re-record: its outputs are checked against these.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    stored = {op: {} for w in workloads.WORKLOADS.values() for op in w.ops}
    scratch = Path(tempfile.mkdtemp(dir=HERE.parent))
    try:
        for v in range(workloads.VARIANTS):
            inp = workloads.make_inputs(v)
            for wl in (workloads.Series(inp, scratch), workloads.Closure(inp, scratch)):
                for op in wl.ops:
                    stored[op][str(v)] = wl.outputs(op, wl.call(op))
            oracle = workloads.Oracle(inp, scratch)
            for op in oracle.ops:
                result = oracle.call(op)
                if result["code"] not in (0, 2):
                    raise SystemExit(f"variant {v}: {op} exited {result['code']}: {result['stderr']}")
                got = oracle.outputs(op, result)
                got.pop("pass", None)   # the compare verdict is a result, not a fingerprint
                stored[op][str(v)] = got
            print(f"variant {v} recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.FINGERPRINTS.write_text(json.dumps(stored, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
