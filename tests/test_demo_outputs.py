"""The CLI outputs of the sample experiment stay byte-identical.

Runs the five commands listed at the top of ``demos/experiment.yaml``
in-process and compares the SHA-256 of every file they write with
``tests/demo_digests.json``.  A change that alters an output on purpose
re-records the digests with
``PYTHONPATH=src python tests/test_demo_outputs.py`` and
says why in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

from freefock.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "demo_digests.json"


def demo_commands(outdir):
    experiment = str(ROOT / "demos" / "experiment.yaml")
    algebra = str(ROOT / "demos" / "experiment_algebra.yaml")
    return [
        ["model", "validate", "--config", experiment, "--json", str(outdir / "model_validate.json")],
        ["algebra", "check", "--config", algebra, "--json", str(outdir / "algebra_check.json")],
        ["solve", "--config", experiment, "--out", str(outdir)],
        ["oracle", "run", "--config", experiment, "--out", str(outdir)],
        ["compare", "--config", experiment, "--out", str(outdir)],
    ]


def demo_digests(outdir):
    """Run the demo commands into ``outdir``; return {file name: sha256}."""
    for argv in demo_commands(outdir):
        assert main(argv) == 0, argv
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(outdir.iterdir())
    }


def test_demo_outputs_byte_identical(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert demo_digests(tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        digests = demo_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}", file=sys.stderr)
