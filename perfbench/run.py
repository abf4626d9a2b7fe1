"""Benchmark of the freefock library: three workloads, every operation checked.

Run from the repository root:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Workloads (BENCHMARK.json records why each exists):

* series  -- perturbation_series at T=12, L=6, order 3;
* closure -- closed_equation_solve (T=6), lower_triangular_expansion and
  rational_solve (T=14), identity_catalog (T=5), all at L=4; with
  ``--trace 1`` the reach probes follow, in a child process;
* oracle  -- ``freefock compare`` and ``freefock oracle run`` through
  ``cli.main``, T=12, L=4, 1e5 samples.

Calls are closed-loop in one process, in rounds of the workload's
operations, until ``--seconds`` have passed.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced
and traced rounds and reports the per-layer metrics, the tracing
overhead, and whether traced outputs equal untraced ones.  A readable
table goes to standard output first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# With two BLAS threads on a shared two-core machine, round times spread by
# 10-20 % between runs; one thread (set before numpy loads) is steadier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RUN_ROOT = ROOT / ".bench_run"
FINGERPRINTS = HERE / "fingerprints.json"   # stored outputs; see record_fingerprints.py
SETUP_SAMPLES = 3      # set-ups per run: this process and two fresh children
MIN_ROUNDS = 2         # so that a traced run has a traced round
CHILD_TIMEOUT_S = 150
REACH_CAP_S = 30       # per-probe time cap; closed at T=7 takes about 9 s
REACH_METHODS = ("triangular", "rational", "closed", "catalog")
# per-layer metrics normalized per traced round; the rest are per run or per set-up
PER_ROUND = ("fock.", "cuntz.", "inverse.", "solver.", "oracle.", "cli.")
OP_METRIC = {
    "perturb": "solve_s.perturb",
    "closed": "solve_s.closed",
    "triangular": "solve_s.triangular",
    "rational": "solve_s.rational",
    "catalog": "check_s.catalog",
    "compare": "compare_s",
    "oracle_run": "oracle_run_s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("series", "closure", "oracle", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", choices=("setup", "reach"), help=argparse.SUPPRESS)
    p.add_argument("--run-dir", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- set-up -------------------------------------------------------------------

def set_up(workload, seed, run_dir, stored, trace):
    """Import, build the models and run one warm-up round.

    Returns (workload object, warm-up outputs, seconds, peak RSS in MB,
    set-up tracer or None).  The first estimate_mtcf in a process pays a
    lazy initialization, so the warm-up round carries it here.  Peak RSS
    is read here, after one round of every operation: over later rounds
    glibc's sliding mmap threshold let it jump by one 57 MB kernel in
    some runs of closure and not in others.
    """
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    setup_tracer = None
    if trace:
        import tracer

        setup_tracer = tracer.Tracer()
        setup_tracer.install()
    try:
        wl = workloads.WORKLOADS[workload](workloads.make_inputs(seed), run_dir, stored)
        outputs = {op: wl.call(op) for op in wl.ops}
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    seconds = time.perf_counter() - start
    return wl, outputs, seconds, peak_rss_mb(), setup_tracer


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def child_setup(args):
    stored = json.loads(FINGERPRINTS.read_text())
    _, _, seconds, rss, _ = set_up(args.workload, args.seed, args.run_dir, stored, trace=False)
    print(json.dumps({"setup_s": seconds, "peak_rss_mb": rss}))
    return 0


def run_child(argv, run_dir):
    """Run this script as a child; returns its last stdout line as JSON."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--run-dir", str(run_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"child {' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


# --- reach probes ---------------------------------------------------------------

class ProbeTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise ProbeTimeout()


def budget_stage(exc):
    """Where a BudgetExceeded came from: the innermost public function outside
    cuntz and fock, with the call it was making, and the whole public chain."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if Path(f.filename).parent == SRC / "freefock"]
    public = [f for f in frames if not f.name.startswith("_")] or frames
    outer = [i for i, f in enumerate(public) if Path(f.filename).stem not in ("cuntz", "fock")]
    i = outer[-1] if outer else len(public) - 1
    stage = " > ".join(f.name for f in public[i:i + 2])
    where = f"{Path(public[i].filename).name}:{public[i].lineno}"
    return f"{stage} ({where})", " > ".join(f.name for f in public)


def child_reach(args):
    """Step T upward at L=4 for each closure method until BudgetExceeded or the cap."""
    sys.path.insert(0, str(SRC))
    import workloads
    from freefock.errors import BudgetExceeded

    signal.signal(signal.SIGALRM, _on_alarm)
    inp = workloads.make_inputs(args.seed)
    out = {}
    for op in REACH_METHODS:
        lam, q = (0.05, 0.3) if op == "catalog" else (0.02, 0.0)
        res = {"reach_T": 0, "seconds": {}, "failed": [], "stopped": None}
        for T in range(3, 64):
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, REACH_CAP_S)
            try:
                result = workloads.run_closure_op(op, workloads.closure_model(inp, T, lam, q).kernels)
            except BudgetExceeded as exc:
                stage, chain = budget_stage(exc)
                res["stopped"] = {"T": T, "stage": stage, "chain": chain, "error": str(exc)}
                break
            except ProbeTimeout:
                res["stopped"] = {"T": T, "stage": f"time cap of {REACH_CAP_S} s", "chain": "", "error": ""}
                break
            except Exception as exc:  # any other error is a failed probe
                res["failed"].append(f"T={T}: {type(exc).__name__}: {exc}")
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            res["seconds"][T] = time.perf_counter() - start
            err = workloads.check_closure_op(op, result)
            if err:
                res["failed"].append(f"T={T}: {err}")
                break
            res["reach_T"] = T
        out[op] = res
    print(json.dumps(out))
    return 0


# --- the timed phase -----------------------------------------------------------

class Phase:
    """Closed-loop rounds of the workload's operations, each checked."""

    def __init__(self, wl):
        self.wl = wl
        self.op_s = {op: [] for op in wl.ops}
        self.round_s = {False: [], True: []}   # keyed by traced
        self.attempted = self.failed = self.completed = 0
        self.errors = []
        self.reference = {}                    # op -> untraced output digest
        self.output_bytes = 0

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def round(self, tr=None):
        total = 0.0
        for op in self.wl.ops:
            self.attempted += 1
            try:
                out, seconds = self.timed_call(op, tr)
            except Exception:
                self.fail(f"{op}: {traceback.format_exc(limit=-3)}")
                continue
            self.record(op, out, seconds, traced=tr is not None)
            total += seconds
        self.round_s[tr is not None].append(total)

    def timed_call(self, op, tr):
        """One operation; traced, it is the root span and the layers are wrapped."""
        if tr is None:
            start = time.perf_counter()
            out = self.wl.call(op)
            return out, time.perf_counter() - start
        tr.install()
        try:
            start = time.perf_counter()
            out = tr.call(f"op.{op}", self.wl.call, (op,))
            return out, time.perf_counter() - start
        finally:
            tr.uninstall()

    def record(self, op, out, seconds, traced, check_digest=False):
        try:
            err = self.wl.check(op, out)
        except Exception:
            err = f"check raised: {traceback.format_exc(limit=-3)}"
        if err:
            self.fail(f"{op}: {err}")
            return
        if traced or check_digest:
            digest = self.wl.digest(op, out)
            ref = self.reference.setdefault(op, digest)
            if digest != ref:
                self.fail(f"{op}: traced output differs from the untraced one")
                return
            if traced and hasattr(self.wl, "files"):
                self.output_bytes += sum(p.stat().st_size for p in self.wl.files(op))
        if not traced:
            self.op_s[op].append(seconds)
        self.completed += 1

    def run(self, seconds, tr=None):
        start = time.perf_counter()
        deadline = start + seconds
        n = 0
        while n < MIN_ROUNDS or time.perf_counter() < deadline:
            self.round(tr if tr is not None and n % 2 == 1 else None)
            n += 1
        return time.perf_counter() - start


# --- reporting ----------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else float("nan")


def show(rows):
    width = max(len(r[0]) for r in rows)
    for name, value, unit, note in rows:
        text = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<{width}}  {text:>12} {unit:<10} {note}")


def result_line(correct, attempted, failed, values, declared):
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics})


def run_workload(args, spec):
    run_dir = RUN_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, spec, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, spec, run_dir):
    stored = json.loads(FINGERPRINTS.read_text())
    wl, warm, setup_s, rss, setup_tr = set_up(args.workload, args.seed, run_dir / "main", stored, args.trace)
    phase = Phase(wl)
    for op, out in warm.items():
        phase.attempted += 1
        phase.record(op, out, None, traced=False, check_digest=bool(args.trace))
    phase.op_s = {op: [] for op in wl.ops}   # the warm-up belongs to set-up
    phase.completed = 0

    setups = [{"setup_s": setup_s, "peak_rss_mb": rss}]
    if not args.trace:
        for i in range(1, SETUP_SAMPLES):
            child = ["--child", "setup", "--workload", args.workload, "--seed", str(args.seed)]
            try:
                setups.append(run_child(child, run_dir / f"setup{i}"))
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                phase.attempted += 1
                phase.fail(f"set-up child: {exc}")

    tr = None
    if args.trace:
        import tracer

        tr = tracer.Tracer()
    elapsed = phase.run(args.seconds, tr)
    # reach_T.* are reported with the per-layer metrics, so the probes run in traced runs
    reach = run_reach(phase, args.seed, run_dir) if args.workload == "closure" and args.trace else None

    print(f"workload {args.workload}, seed {args.seed} (input variant {wl.inp.variant}), "
          f"{'traced' if args.trace else 'untraced'}, timed phase {elapsed:.2f} s")
    rows = [(OP_METRIC[op], median(ts), "s", f"median of n={len(ts)}") for op, ts in phase.op_s.items()]
    if hasattr(wl, "verdicts"):
        rows.append(("compare verdicts", f"{wl.verdicts['pass']} pass / {wl.verdicts['FAIL']} FAIL", "",
                     "a result, not a failure"))
    for op, res in (reach or {}).items():
        stop = res["stopped"] or {"T": "-", "stage": "-"}
        rows.append((f"reach_T.{op}", res["reach_T"], "T", f"T={stop['T']} stopped by {stop['stage']}"))

    if args.trace:
        declared = spec["per_layer"]
        values = layer_values(phase, tr, setup_tr, reach, declared, rows)
        trace_path = RUN_ROOT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tr.write(trace_path)
        print(f"spans written to {trace_path}")
    else:
        declared = spec["end_to_end"]
        values = {
            "setup_s": median([s["setup_s"] for s in setups]),
            "ops_per_s": phase.completed / elapsed,
            "round_s": median(phase.round_s[False]),
            "peak_rss_mb": median([s["peak_rss_mb"] for s in setups]),
        }
        rows[:0] = [
            ("setup_s", values["setup_s"], "s", f"median of n={len(setups)} set-ups"),
            ("ops_per_s", values["ops_per_s"], "1/s", f"{phase.completed} checked operations"),
            ("round_s", values["round_s"], "s", f"median of n={len(phase.round_s[False])} rounds"),
            ("peak_rss_mb", values["peak_rss_mb"], "MB", f"median of n={len(setups)} set-up processes"),
        ]
    rows.append(("error_rate", phase.failed / phase.attempted, "ratio",
                 f"{phase.failed} of {phase.attempted} operations failed"))
    show(rows)
    for err in phase.errors:
        print(f"FAILED {err}")
    print(result_line(phase.failed == 0, phase.attempted, phase.failed, values, declared))
    return 0


def run_reach(phase, seed, run_dir):
    """Reach probes in a child, so closed at T=7 (800 MB) stays out of this process's RSS."""
    try:
        reach = run_child(["--child", "reach", "--workload", "closure", "--seed", str(seed)], run_dir / "reach")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        phase.attempted += 1
        phase.fail(f"reach probes: {exc}")
        return None
    for op, res in reach.items():
        # a BudgetExceeded at the frontier is the measured outcome, not a failure
        phase.attempted += 1
        for err in res["failed"]:
            phase.fail(f"reach {op}: {err}")
        if res["stopped"] is None and not res["failed"]:
            phase.fail(f"reach {op}: stepping ended without reaching the budget")
    return reach


def layer_values(phase, tr, setup_tr, reach, declared, rows):
    """Per-layer metrics of the traced rounds, and the tracing overhead."""
    import tracer

    traced_rounds = len(phase.round_s[True])
    values = tracer.per_layer(tr, traced_rounds)
    # models are built in set-up, so this one is per set-up, not per round
    values["model.build_oscillator_model.self_s"] = tracer.per_layer(setup_tr, 1).get(
        "model.build_oscillator_model.self_s", 0.0)
    values["cli.output_bytes"] = phase.output_bytes / traced_rounds
    values["trace.overhead"] = median(phase.round_s[True]) / median(phase.round_s[False]) - 1.0
    for op in REACH_METHODS:
        values[f"reach_T.{op}"] = reach[op]["reach_T"] if reach else 0
    for m in declared:
        if m["name"] not in values:
            if not m["name"].endswith((".calls", ".self_s", ".bytes", ".entries")):
                raise RuntimeError(f"per-layer metric {m['name']} has no source")
            values[m["name"]] = 0.0   # the workload never entered that span

    # self times partition the traced wall time; the rest of the round is overhead
    roots = [s for s in tr.spans if s[3] < 0]
    wall = sum(end - start for _, start, end, _ in roots)
    accounted = sum(tr.self_times())
    if abs(accounted - wall) > 1e-6 * wall:
        phase.fail(f"self times sum to {accounted} s, traced wall time is {wall} s")
    rows.append(("trace.self_sum_s", accounted, "s", f"traced wall time {wall:.6g} s in {traced_rounds} rounds"))
    rows.append(("trace.overhead", values["trace.overhead"], "ratio", "traced over untraced round time, minus 1"))
    shown = {r[0] for r in rows}
    rows += [(m["name"], values[m["name"]], m["unit"], "per round" if m["name"].startswith(PER_ROUND) else "")
             for m in declared if m["name"] not in shown]
    return values


def run_all(args):
    """Run the three workloads one after another, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("series", "closure", "oracle"):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return 1
        doc = json.loads(lines[-1])
        combined["correct"] &= doc["correct"]
        combined["attempted"] += doc["attempted"]
        combined["failed"] += doc["failed"]
        combined["metrics"].update({f"{name}/{k}": v for k, v in doc["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "freefock" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"perfbench: run from a checkout holding src/freefock and BENCHMARK.json (looked in {ROOT})",
              file=sys.stderr)
        return 2
    if args.child == "setup":
        return child_setup(args)
    if args.child == "reach":
        return child_reach(args)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(SPEC.read_text())
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
