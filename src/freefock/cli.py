"""Experiment orchestration: config ingestion, subcommands, result emission.

One YAML configuration drives one experiment and is its only input: the
command line names the config file and where outputs go (``--config``,
``--out``, ``--json``), never a setting.  Subcommands: ``model
validate``, ``algebra check``, ``solve``, ``oracle run``, ``compare``.
Exit codes: 0 all checks pass, 1 execution, configuration or usage
error, 2 comparison failure.  Outputs are byte-deterministic for a fixed
config and seed: floats render via repr (shortest round-trip), JSON keys
are sorted, and manifests carry no wall-clock fields.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import yaml

import jsonschema

from . import __version__
from .errors import ConfigError, FreefockError, ShapeError
from .cuntz import apply_to_levels, interaction_operator
from .fock import DEFAULT_BUDGET, level_max_abs, load as load_vector
from .inverse import identity_catalog
from .model import build_oscillator_model, build_wave_model, validate_kernels
from .oracle import EnsembleSpec, estimate_mtcf, moment_window, sample_mean_stderr, simulate
from .solver import (
    closed_equation_solve,
    lower_triangular_expansion,
    perturbation_series,
    propagate_residual_stderr,
    rational_solve,
    residual_by_level,
)

_NUMBERS = {"type": "array", "items": {"type": "number"}}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["model", "truncation"],
    "additionalProperties": False,
    "properties": {
        "model": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["oscillator", "wave"]},
                "omega": {"type": "number"},
                "dt": {"type": "number", "exclusiveMinimum": 0},
                "T": {"type": "integer", "minimum": 3},
                "lambda": {"type": "number"},
                "q": {"type": "number"},
                "forcing": {"type": ["number", "array"], "items": {"type": "number"}},
                "x0_mean": {"type": "number"},
                "v0_mean": {"type": "number"},
                "interaction_rows": {"enum": ["all", "interior"]},
                "boundary": {"enum": ["initial", "free"]},
                "speed": {"type": "number", "exclusiveMinimum": 0},
                "nx": {"type": "integer", "minimum": 3},
                "length": {"type": "number", "exclusiveMinimum": 0},
                "cfl": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "nt": {"type": "integer", "minimum": 2},
            },
        },
        "truncation": {
            "type": "object",
            "required": ["L"],
            "additionalProperties": False,
            "properties": {
                "L": {"type": "integer", "minimum": 0},
                "budget": {"type": "integer", "minimum": 1},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "method": {"enum": ["perturb", "triangular", "closed", "rational"]},
                "order": {"type": ["integer", "null"], "minimum": 0},
                "tol": {"type": ["number", "null"], "exclusiveMinimum": 0},
                "lambda": {"type": ["number", "null"]},
                "sym": {"type": "boolean"},
                "seed_mode": {"enum": ["free", "file"]},
                "seed_file": {"type": ["string", "null"]},
                "assumption": {"enum": ["projected", "symmetrized"]},
            },
        },
        "oracle": {
            "type": "object",
            "required": ["samples", "seed"],
            "additionalProperties": False,
            "properties": {
                "mean": {"type": "array", "items": {"type": "number"}},
                "cov": {"anyOf": [{"type": "number"}, _NUMBERS, {"type": "array", "items": _NUMBERS}]},
                "pinned": {"type": ["array", "null"], "items": {"type": "boolean"}},
                "samples": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "max_order": {"type": "integer", "minimum": 1},
                "smear": {
                    "type": ["object", "null"],
                    "propertyNames": {"type": "integer", "minimum": 0},
                    "additionalProperties": {"type": "number"},
                },
            },
        },
        "compare": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "words": {"type": ["string", "array"]},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "abs_slack": {"type": "number", "minimum": 0},
                "rows": {"enum": ["all", "equation"]},
                "residual_sigma": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "directory": {"type": "string"},
                "prefix": {"type": "string"},
            },
        },
    },
}


def load_config(path):
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    validator = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    # smear keys are integers, other keys strings: order paths as text
    errors = sorted(validator.iter_errors(doc), key=lambda e: [str(p) for p in e.absolute_path])
    if errors:
        e = errors[0]
        where = ".".join(str(p) for p in e.absolute_path) or "(root)"
        raise ConfigError(f"config key {where!r}: {e.message}")
    return doc


# the model keys each kind reads; a key of the other kind is a config error
_MODEL_KEYS = {
    "oscillator": {"omega", "dt", "T", "lambda", "q", "forcing", "x0_mean", "v0_mean", "interaction_rows", "boundary"},
    "wave": {"speed", "nx", "length", "cfl", "nt"},
}

# the solver keys each method reads beside method and seed_mode; any other is a config error
_SOLVER_KEYS = {
    "perturb": {"order", "tol", "sym"},
    "triangular": {"seed_file"},
    "closed": {"assumption"},
    "rational": {"lambda", "sym"},
}

# the oracle keys each model kind reads; compare reads the oscillator's but smear
_ORACLE_KEYS = {
    "oscillator": {"mean", "cov", "pinned", "samples", "seed", "max_order", "smear"},
    "wave": {"mean", "cov", "pinned", "samples", "seed"},
}

# the library parameter a config key names, where the two differ
_PARAMETER = {"lambda": "lam", "sym": "symmetrized"}

# values for the parameters a model builder requires that the config leaves unset
_MODEL_REQUIRED = {"oscillator": {"omega": 1.0, "dt": 0.1, "T": 8}, "wave": {"speed": 1.0, "nx": 64}}


def _arguments(section, keys):
    """The section's entries among ``keys`` as keyword arguments of the library call."""
    return {_PARAMETER.get(k, k): v for k, v in section.items() if k in keys}


def build_model(config):
    mc = dict(config["model"])
    kind = mc.pop("kind")
    stray = sorted(set(mc) - _MODEL_KEYS[kind])
    if stray:
        raise ConfigError(f"model.{stray[0]} is not read by a {kind!r} model; remove it")
    builder = build_oscillator_model if kind == "oscillator" else build_wave_model
    return builder(**{**_MODEL_REQUIRED[kind], **_arguments(mc, _MODEL_KEYS[kind])})


def build_ensemble(config, model, keys):
    """The oracle ensemble; an oracle key outside ``keys``, the ones the command reads, is a ConfigError."""
    oc = config.get("oracle")
    if oc is None:
        raise ConfigError("config has no 'oracle' section")
    stray = sorted(set(oc) - keys)
    if stray:
        raise ConfigError(f"oracle.{stray[0]} is not read by this command on a {model.kind!r} model; remove it")
    dim = 2 if model.kind == "oscillator" else 2 * model.nx
    return EnsembleSpec(
        mean=oc.get("mean", [0.0] * dim),
        cov=oc.get("cov", 0.0),
        samples=int(oc["samples"]),
        seed=int(oc["seed"]),
        pinned=oc.get("pinned"),
    )


def _max_order(config):
    """The highest moment order the oracle estimates: ``oracle.max_order``, else min(L, 4)."""
    return int(config["oracle"].get("max_order", min(_truncation(config)[0], 4)))


def _truncation(config):
    """The truncation level L and the dense-entry budget."""
    tc = config["truncation"]
    return int(tc["L"]), int(tc.get("budget", DEFAULT_BUDGET))


def model_hash(config):
    blob = json.dumps(config.get("model", {}), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def config_hash(config):
    return hashlib.sha256(json.dumps(config, sort_keys=True, default=str).encode()).hexdigest()[:16]


def manifest(config, **extra):
    doc = {
        "config_hash": config_hash(config),
        "model_hash": model_hash(config),
        "version": __version__,
    }
    doc.update(extra)
    return doc


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _format_word(labels):
    """A word written ``i;j;k``, from its labels as strings."""
    return ";".join(labels)


def _write_csv(path, header, rows):
    """Stream a table of str cells: cells joined by commas and never quoted, lines ended CRLF.

    Words ``i;j;k``, float reprs and the fixed header and status tokens
    hold no comma, quote or line break, so these are the bytes
    ``csv.writer`` writes for them.  No list of every line is built.
    """
    with open(path, "w", newline="") as fh:
        fh.writelines(",".join(row) + "\r\n" for row in itertools.chain([header], rows))


def _cells(t):
    """The repr of each entry of ``t``, row-major: the shortest string that reads back as the float.

    repr runs once per distinct bit pattern (an int64 view, so -0.0 and
    0.0 stay apart), and each entry reads its string through the inverse
    index, so no per-entry float is built.
    """
    bits = np.ascontiguousarray(t, dtype=float).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    strings = np.array([repr(x) for x in distinct.view(float).tolist()], dtype=object)
    return strings[inverse].tolist()


def _table_rows(*columns):
    """Yield CSV rows ``(word, cell, ...)`` over blocks of tensors.

    ``columns[k][b]`` is block b of column k, and the blocks of one index
    b share a shape: a level-n tensor of shape (d,)*n, or the wave field.
    Blocks follow in order and words run row-major within a block (the
    order of np.ndindex).  No list of every row is built.
    """
    for block in zip(*columns):
        labels = ([str(i) for i in range(n)] for n in block[0].shape)
        yield from zip(map(_format_word, itertools.product(*labels)), *map(_cells, block))


def _outdir(config, args):
    oc = config.get("output", {})
    directory = Path(getattr(args, "out", None) or oc.get("directory", "out"))
    directory.mkdir(parents=True, exist_ok=True)
    return directory, oc.get("prefix", "run")


# --- subcommands -------------------------------------------------------------

def _hierarchy_model(config, command):
    """The config's model for a command that reads its hierarchy kernels, which only an oscillator has."""
    model = build_model(config)
    if model.kind != "oscillator":
        raise ConfigError(f"{command} needs an oscillator model (hierarchy kernels)")
    return model


def cmd_model_validate(args):
    config = load_config(args.config)
    diag = validate_kernels(_hierarchy_model(config, "model validate").kernels)
    print(diag.render())
    if args.json:
        _write_json(args.json, {"kind": "oscillator", **diag.to_dict(), "manifest": manifest(config)})
    return 0


def cmd_algebra_check(args):
    config = load_config(args.config)
    model = _hierarchy_model(config, "algebra check")
    L, budget = _truncation(config)
    results = identity_catalog(model.kernels, L, budget=budget)
    failed = [r for r in results if r.passed is False]
    for r in results:
        status = "pass" if r.passed else ("skip" if r.passed is None else "FAIL")
        res = "-" if r.residual is None else f"{r.residual:.3e}"
        extra = f"  [{r.skipped_reason}]" if r.skipped_reason else ""
        print(f"{status:4s}  {r.id:45s} residual {res}{extra}")
    doc = {
        "identities": [r.to_dict() for r in results],
        "manifest": manifest(config),
        "ok": not failed,
    }
    if args.json:
        _write_json(args.json, doc)
    return 0 if not failed else 2


# a seed file's relative interaction residual max|N v| / max(1, max|v|) above
# this is refused: null projections read about 1e-18, a non-null seed 1e-3
_SEED_NULL_TOL = 1e-10


def _seed_vector(config, model):
    """Seed per ``solver.seed_mode``: none for ``free``, else the vector in ``solver.seed_file``.

    A method that takes no seed refuses any mode but ``free``.  A seed file named
    with mode ``free``, which would be ignored, one that is not a vector document
    of level ``truncation.L``, or one outside the interaction's null space, whose
    relative residual ``max|N v| / max(1, max|v|)`` exceeds ``_SEED_NULL_TOL``,
    is a :class:`ConfigError`.
    """
    sc = config.get("solver", {})
    mode, method = sc.get("seed_mode", "free"), sc.get("method", "perturb")
    path = sc.get("seed_file")
    if mode == "free":
        if path is not None:
            raise ConfigError(f"solver.seed_file {path!r} is set, but seed_mode: free reads no seed file")
        return None, "free"
    if "seed_file" not in _SOLVER_KEYS[method]:
        raise ConfigError(f"solver method {method!r} takes no seed: it needs seed_mode: free, not {mode!r}")
    if not path:
        raise ConfigError("seed_mode 'file' needs solver.seed_file")
    try:
        seed = load_vector(path, model.space)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"solver.seed_file {path!r} is not a vector document: {type(exc).__name__}: {exc}") from exc
    L = _truncation(config)[0]
    if seed.L != L:
        raise ConfigError(f"solver.seed_file {path!r} holds a vector of L={seed.L}, truncation.L is {L}")
    image = apply_to_levels(interaction_operator(model.kernels), seed.levels)
    residual = max((level_max_abs(t) for t in image if t is not None), default=0.0)
    residual /= max(1.0, max(level_max_abs(t) for t in seed.levels))
    if residual > _SEED_NULL_TOL:
        raise ConfigError(
            f"solver.seed_file {path!r} is not in the interaction's null space: "
            f"max|N v| / max(1, max|v|) is {residual:.3e}, over {_SEED_NULL_TOL:g}"
        )
    return seed, f"file:{path}"


def run_solver(config, model):
    """Solve the hierarchy as configured; a solver key the method does not read is a ConfigError."""
    sc = config.get("solver", {})
    L, budget = _truncation(config)
    method = sc.get("method", "perturb")
    kern = model.kernels
    seed, seed_desc = _seed_vector(config, model)
    stray = sorted(set(sc) - {"method", "seed_mode"} - _SOLVER_KEYS[method])
    if stray:
        raise ConfigError(f"solver.{stray[0]} is not read by method {method!r}; remove it")
    kw = _arguments(sc, _SOLVER_KEYS[method])
    if method == "perturb":
        report = perturbation_series(kern, L, budget=budget, **kw)
    elif method == "triangular":
        report = lower_triangular_expansion(kern, L, seed=seed, budget=budget)
    elif method == "closed":
        report = closed_equation_solve(kern, L, budget=budget, **kw)
    else:
        if kw.get("lam") is None:
            raise ConfigError("rational solve needs solver.lambda (the rational coupling)")
        report = rational_solve(kern, L, budget=budget, **kw)
    report.extras["seed_mode"] = seed_desc
    return report


def cmd_solve(args):
    config = load_config(args.config)
    report = run_solver(config, _hierarchy_model(config, "solve"))
    outdir, prefix = _outdir(config, args)
    doc = report.to_dict()
    doc["manifest"] = manifest(config, seed_mode=report.extras.get("seed_mode", "free"))
    _write_json(outdir / f"{prefix}_solve.json", doc)
    rows = _table_rows(report.V.levels[1:])
    _write_csv(outdir / f"{prefix}_correlations.csv", ("word", "value"), rows)
    print(f"solved with method={report.method}; residual per level "
          + json.dumps({str(k): float(v) for k, v in report.residual.per_level.items()}))
    print(f"wrote {outdir / (prefix + '_solve.json')} and {outdir / (prefix + '_correlations.csv')}")
    return 0


def cmd_oracle_run(args):
    config = load_config(args.config)
    model = build_model(config)
    ensemble = build_ensemble(config, model, _ORACLE_KEYS[model.kind])
    if ensemble.samples < 2:
        raise ShapeError("need at least 2 samples for error estimates")
    smearing, budget = config["oracle"].get("smear"), _truncation(config)[1]
    if model.kind != "wave":
        moment_window(model.T, _max_order(config), smearing, budget)  # refused before simulating
    traj = simulate(model, ensemble)
    doc = manifest(config, seed=int(ensemble.seed), samples=int(ensemble.samples), integrator=traj.scheme)
    if model.kind == "wave":
        mean, se = sample_mean_stderr(traj.positions)
        rows = _table_rows([mean], [se])
    else:
        table = estimate_mtcf(traj, max_order=_max_order(config), smearing=smearing, budget=budget)
        orders = range(1, table.max_order + 1)
        rows = _table_rows([table.values[n] for n in orders], [table.stderr[n] for n in orders])
    del traj  # the rows read only the estimates, so the trajectory goes before they are written
    outdir, prefix = _outdir(config, args)
    _write_csv(outdir / f"{prefix}_mtcf.csv", ("word", "value", "stderr"), rows)
    _write_json(outdir / f"{prefix}_manifest.json", doc)
    print(f"wrote {outdir / (prefix + '_mtcf.csv')} and {outdir / (prefix + '_manifest.json')}")
    return 0


def _select_words(config, model, longest):
    """The words ``compare.words`` names, each of length 1..``longest``.

    ``level1_interior`` (the default) is every level-1 label off the data
    rows, ``all_orders:N`` every word of length 1..N, and a list names
    its words, each a list of labels 0..d-1.  Anything else raises a
    :class:`ConfigError`.
    """
    spec = config.get("compare", {}).get("words", "level1_interior")
    d = model.space.d
    if spec == "level1_interior":
        return [(i,) for i in range(d) if i not in model.kernels.data_rows]
    head, _, n = spec.partition(":") if isinstance(spec, str) else ("", "", "")
    if head == "all_orders" and n.isdecimal() and 1 <= int(n) <= longest:
        return [w for k in range(1, int(n) + 1) for w in np.ndindex((d,) * k)]
    if isinstance(spec, list) and spec and all(
        isinstance(w, list) and 1 <= len(w) <= longest and all(type(i) is int and 0 <= i < d for i in w)
        for w in spec
    ):
        return [tuple(w) for w in spec]
    raise ConfigError(
        f"compare.words {spec!r}: expected level1_interior, all_orders:N with 1 <= N <= {longest}, "
        f"or a list of words of length 1..{longest} over labels 0..{d - 1}"
    )


def run_compare(config):
    """Oracle vs solver comparison; returns (report dict, ok flag)."""
    model = _hierarchy_model(config, "compare")
    L, budget = _truncation(config)
    cc = config.get("compare", {})
    sigma = float(cc.get("sigma", 3.0))
    abs_slack = float(cc.get("abs_slack", 1e-9))
    rows_mode = cc.get("rows", "equation")
    residual_sigma = float(cc.get("residual_sigma", 4.0))

    # every config error and the moment table's size are checked before anything is solved or simulated
    # a smeared table covers only T minus the largest shift, and compare reads all T labels
    ensemble = build_ensemble(config, model, _ORACLE_KEYS["oscillator"] - {"smear"})
    if model.kernels.data_rows and not np.array_equal(ensemble.mean, (model.x0_mean, model.v0_mean)):
        raise ConfigError(f"oracle.mean {ensemble.mean.tolist()} is not (model.x0_mean, model.v0_mean) = "
                          f"{[model.x0_mean, model.v0_mean]}, the initial means in the hierarchy's source")
    max_order = min(L, _max_order(config))  # compare reads no order above L
    words = _select_words(config, model, max_order)
    moment_window(model.T, max_order, budget=budget)
    solver_report = run_solver(config, model)
    traj = simulate(model, ensemble)
    table = estimate_mtcf(traj, max_order=max_order, budget=budget)

    comparisons = []
    worst = 0.0
    all_pass = True
    for w in words:
        mc_val, mc_se = table.word(w)
        sol_val = float(solver_report.V.levels[len(w)][tuple(w)])
        delta = abs(sol_val - mc_val)
        bound = sigma * mc_se + abs_slack
        ok = delta <= bound
        all_pass &= ok
        z = delta / mc_se if mc_se > 0 else 0.0
        worst = max(worst, z)
        comparisons.append(
            {
                "word": _format_word(map(str, w)),
                "oracle": mc_val,
                "stderr": mc_se,
                "solver": sol_val,
                "delta": delta,
                "bound": bound,
                "pass": ok,
            }
        )

    # hierarchy residual of the empirical generating vector
    vhat = table.to_vector(model.space, max_order, budget=budget)
    res = residual_by_level(vhat, model.kernels, rows=rows_mode)
    se_prop = propagate_residual_stderr(model.kernels, table.se_vector(model.space, vhat.L))
    residual_checks = {}
    lo, hi = res.trusted_levels
    res_pass = True
    for n in range(lo, hi + 1):
        se_floor = _se_level_bound(se_prop, n, model)
        ok = res.per_level[n] <= residual_sigma * se_floor + abs_slack
        residual_checks[n] = {
            "residual": res.per_level[n],
            "se_bound": se_floor,
            "pass": ok,
        }
        res_pass &= ok
    all_pass &= res_pass

    report = {
        "comparisons": comparisons,
        "max_delta_over_stderr": worst,
        "residual_checks": {str(k): v for k, v in residual_checks.items()},
        "solver": solver_report.to_dict(),
        "manifest": manifest(config, seed=int(ensemble.seed), samples=int(ensemble.samples)),
        "pass": bool(all_pass),
    }
    return report, all_pass


def _se_level_bound(se_prop, n, model):
    """Smallest propagated standard error over the trusted rows of level n."""
    t = se_prop.levels[n]
    data_rows = list(model.kernels.data_rows)
    if n >= 1 and data_rows:
        mask = np.ones(t.shape[0], dtype=bool)
        mask[data_rows] = False
        t = t[mask]
    return float(t.min()) if t.size else 0.0


def cmd_compare(args):
    config = load_config(args.config)
    report, ok = run_compare(config)
    outdir, prefix = _outdir(config, args)
    _write_json(outdir / f"{prefix}_compare.json", report)
    rows = [
        (c["word"], *(repr(c[k]) for k in ("oracle", "stderr", "solver", "delta")), "pass" if c["pass"] else "FAIL")
        for c in report["comparisons"]
    ]
    _write_csv(outdir / f"{prefix}_compare.csv", ("word", "oracle", "stderr", "solver", "delta", "status"), rows)
    print(f"compare: {'pass' if ok else 'FAIL'}; max |delta|/stderr = {report['max_delta_over_stderr']:.2f}")
    print(f"wrote {outdir / (prefix + '_compare.json')}")
    return 0 if ok else 2


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1, as configuration errors do; exit code 2 is a compare FAIL."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(
        prog="freefock",
        description="Correlation-hierarchy experiments on a truncated free Fock space",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="model inspection")
    model_sub = p_model.add_subparsers(dest="subcommand", required=True)
    p_validate = model_sub.add_parser("validate", help="kernel diagnostics")
    p_validate.add_argument("--config", required=True)
    p_validate.add_argument("--json", default=None, help="also write the report as JSON")
    p_validate.set_defaults(func=cmd_model_validate)

    p_algebra = sub.add_parser("algebra", help="operator-identity catalog")
    algebra_sub = p_algebra.add_subparsers(dest="subcommand", required=True)
    p_check = algebra_sub.add_parser("check", help="run every identity and report residuals")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--json", default=None)
    p_check.set_defaults(func=cmd_algebra_check)

    p_solve = sub.add_parser("solve", help="solve the hierarchy")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="ensemble simulation and estimation")
    oracle_sub = p_oracle.add_subparsers(dest="subcommand", required=True)
    p_run = oracle_sub.add_parser("run", help="simulate and emit the moment table")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(func=cmd_oracle_run)

    p_compare = sub.add_parser("compare", help="oracle vs solver, word by word")
    p_compare.add_argument("--config", required=True)
    p_compare.add_argument("--out", default=None)
    p_compare.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FreefockError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
