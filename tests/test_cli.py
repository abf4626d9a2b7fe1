import csv
import json
import math
import re
from pathlib import Path

import jsonschema
import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from freefock import closed_equation_solve, free_solution, perturbation_series, to_json
from freefock import cli
from freefock.cli import build_model, load_config, main, run_compare
from freefock.errors import ConfigError
from freefock.oracle import CorrelationTable
from helpers import csv_writer_table

DEMO_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "experiment.yaml"
README = Path(__file__).resolve().parents[1] / "README.md"

BASE_CONFIG = {
    "model": {
        "kind": "oscillator",
        "omega": 1.0,
        "dt": 0.15,
        "T": 8,
        "lambda": 0.02,
        "q": 0.0,
        "forcing": 0.3,
        "x0_mean": 0.4,
        "v0_mean": 0.1,
        "interaction_rows": "interior",
    },
    "truncation": {"L": 4},
    "solver": {"method": "perturb", "order": 2},
    "oracle": {
        "mean": [0.4, 0.1],
        "cov": [[0.04, 0.0], [0.0, 0.01]],
        "samples": 8000,
        "seed": 42,
        "max_order": 4,
    },
    "compare": {"words": "level1_interior", "sigma": 3.0, "abs_slack": 1e-6, "rows": "equation"},
}

ALGEBRA_CONFIG = {
    "model": {
        "kind": "oscillator",
        "omega": 1.0,
        "dt": 0.3,
        "T": 5,
        "lambda": 0.05,
        "q": 0.3,
        "forcing": 0.4,
        "x0_mean": 0.3,
        "v0_mean": 0.1,
        "interaction_rows": "all",
    },
    "truncation": {"L": 3},
}


def _help_flags(text):
    """The option strings a ``--help`` text names."""
    return set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text))


def write_config(tmp_path, doc, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def triangular_config(config):
    """A copy of ``config`` solved by the triangular method, the one that reads a seed file, on every row."""
    cfg = json.loads(json.dumps(config))
    cfg["model"]["interaction_rows"] = "all"
    cfg["solver"] = {"method": "triangular"}
    return cfg


class TestConfig:
    def test_loads(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        doc = load_config(path)
        assert doc["model"]["kind"] == "oscillator"

    def test_malformed_names_offending_key(self, tmp_path):
        bad = {"model": {"kind": "oscillator", "T": 2}, "truncation": {"L": 3}}
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert "model.T" in str(info.value)

    def test_unknown_key_rejected(self, tmp_path):
        bad = {"model": {"kind": "oscillator"}, "truncation": {"L": 2}, "bogus": 1}
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_compare_max_order_is_not_a_key(self, tmp_path, capsys):
        # nothing read compare.max_order, so the schema no longer accepts it
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["compare"]["max_order"] = 2
        path = write_config(tmp_path, cfg)
        with pytest.raises(ConfigError, match="max_order"):
            load_config(path)
        assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config key 'compare'") and "'max_order'" in err

    def test_malformed_exit_code(self, tmp_path, capsys):
        bad = {"model": {"kind": "oscillator", "T": 2}, "truncation": {"L": 3}}
        path = write_config(tmp_path, bad)
        assert main(["model", "validate", "--config", path]) == 1
        assert "model.T" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, key",
        [
            ({"kind": "oscillator", "T": 6, "nx": 7, "speed": 3.0}, "model.nx"),
            ({"kind": "wave", "nx": 8, "T": 99, "lambda": 5.0, "interaction_rows": "all"}, "model.T"),
            ({"kind": "wave", "nx": 8, "q": 0.1}, "model.q"),
        ],
    )
    @pytest.mark.parametrize("command", [["model", "validate", "--json"], ["oracle", "run", "--out"]])
    def test_key_of_the_other_model_kind_refused(self, tmp_path, capsys, monkeypatch, model, key, command):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated a model whose config names a key it does not read")

        monkeypatch.setattr(cli, "simulate", forbidden)
        cfg = {"model": model, "truncation": {"L": 2}, "oracle": {"samples": 10, "seed": 0}}
        path = write_config(tmp_path, cfg)
        assert main([*command, str(tmp_path / "out"), "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "section, key, value, command",
        [
            ("oracle", "smear", {"x": 1.0}, ["oracle", "run"]),
            ("oracle", "smear", {0: "half"}, ["oracle", "run"]),
            ("oracle", "smear", {-1: 1.0}, ["oracle", "run"]),
            ("oracle", "cov", ["a", "b"], ["oracle", "run"]),
            ("oracle", "pinned", [1, 2], ["oracle", "run"]),
            ("model", "forcing", ["a"] * 8, ["solve"]),
        ],
    )
    def test_malformed_items_refused(self, tmp_path, capsys, monkeypatch, section, key, value, command):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated or solved a config with malformed items")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "run_solver", forbidden)
        cfg = load_config(DEMO_CONFIG)
        cfg[section][key] = value
        path = write_config(tmp_path, cfg)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"config error: config key '{section}.{key}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("chi", [None, [0.125] * 8], ids=["null", "uniform"])
    @pytest.mark.parametrize("command", [["solve"], ["compare"]])
    def test_left_inverse_weight_is_not_a_key(self, tmp_path, capsys, monkeypatch, chi, command):
        # the closed solve gives the same solution for every valid weight, so none is read
        def forbidden(*args, **kwargs):
            raise AssertionError("solved or simulated a config that sets solver.chi")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "run_solver", forbidden)
        cfg = load_config(DEMO_CONFIG)
        cfg["solver"] = {"method": "closed", "chi": chi}
        path = write_config(tmp_path, cfg)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config key 'solver'") and "'chi' was unexpected" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "solver, stray",
        [
            ({"method": "perturb", "order": 2, "lambda": 0.03}, "lambda"),
            ({"method": "triangular", "order": 2}, "order"),
            ({"method": "closed", "sym": True}, "sym"),
            ({"method": "rational", "lambda": 0.03, "tol": 1e-9}, "tol"),
        ],
        ids=["perturb", "triangular", "closed", "rational"],
    )
    def test_solver_key_the_method_does_not_read_refused(self, tmp_path, capsys, monkeypatch, solver, stray):
        def forbidden(*args, **kwargs):
            raise AssertionError("solved or simulated a config whose solver key is not read")

        for name in ("simulate", "perturbation_series", "lower_triangular_expansion",
                     "closed_equation_solve", "rational_solve"):
            monkeypatch.setattr(cli, name, forbidden)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["solver"] = solver
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: solver.{stray} is not read by method '{solver['method']}'; remove it\n"
        )
        assert not (tmp_path / "out").exists()

    def test_schema_keys_are_the_keys_read(self):
        # every schema key is read by some model kind, solver method or oracle command
        sections = cli.CONFIG_SCHEMA["properties"]
        props = {name: set(sections[name]["properties"]) for name in ("model", "solver", "oracle")}
        assert props["model"] == {"kind"}.union(*cli._MODEL_KEYS.values())
        assert props["solver"] == {"method", "seed_mode"}.union(*cli._SOLVER_KEYS.values())
        assert props["oracle"] == set().union(*cli._ORACLE_KEYS.values())

    def test_one_config_one_hash(self, tmp_path):
        # no solver section: every command hashes the config as written
        cfg = json.loads(json.dumps(BASE_CONFIG))
        del cfg["solver"]
        cfg["oracle"]["samples"] = 200
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        main(["solve", "--config", path, "--out", str(out)])
        main(["algebra", "check", "--config", path, "--json", str(out / "algebra.json")])
        main(["compare", "--config", path, "--out", str(out)])
        hashes = {
            name: json.loads((out / name).read_text())["manifest"]["config_hash"]
            for name in ("run_solve.json", "algebra.json", "run_compare.json")
        }
        assert set(hashes.values()) == {cli.config_hash(load_config(path))}, hashes


class TestModelValidate:
    def test_validate_writes_json(self, tmp_path, capsys):
        path = write_config(tmp_path, ALGEBRA_CONFIG)
        out = tmp_path / "diag.json"
        assert main(["model", "validate", "--config", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert doc["green_residual"] <= 1e-10
        assert "green's function" in capsys.readouterr().out

    def test_wave_model_refused(self, tmp_path, capsys):
        # a wave model has no hierarchy kernels to validate
        path = write_config(tmp_path, {"model": {"kind": "wave", "nx": 8, "nt": 6}, "truncation": {"L": 2}})
        out = tmp_path / "diag.json"
        assert main(["model", "validate", "--config", path, "--json", str(out)]) == 1
        assert capsys.readouterr().err == (
            "config error: model validate needs an oscillator model (hierarchy kernels)\n"
        )
        assert not out.exists()


class TestAlgebraCheck:
    def test_default_catalog_passes(self, tmp_path):
        path = write_config(tmp_path, ALGEBRA_CONFIG)
        out = tmp_path / "alg.json"
        assert main(["algebra", "check", "--config", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["ok"] is True
        assert all(r["pass"] is not False for r in doc["identities"])

    def test_zero_source_marked_skipped(self, tmp_path):
        cfg = json.loads(json.dumps(ALGEBRA_CONFIG))
        cfg["model"]["forcing"] = 0.0
        cfg["model"]["x0_mean"] = 0.0
        cfg["model"]["v0_mean"] = 0.0
        path = write_config(tmp_path, cfg)
        out = tmp_path / "alg.json"
        assert main(["algebra", "check", "--config", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        skipped = {r["id"]: r["skipped_reason"] for r in doc["identities"] if r["skipped_reason"]}
        assert "left_inverse_source" in skipped

    def test_resonant_deformation_surfaced(self, tmp_path):
        cfg = json.loads(json.dumps(ALGEBRA_CONFIG))
        cfg["model"]["q"] = 1.0  # local kernel: 1 + O(z) = (1-q)^2 = 0
        path = write_config(tmp_path, cfg)
        out = tmp_path / "alg.json"
        assert main(["algebra", "check", "--config", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        by_id = {r["id"]: r for r in doc["identities"]}
        assert by_id["deformed_right_inverse"]["skipped_reason"]
        assert by_id["right_inverse_interaction"]["pass"] is True


class TestSolve:
    def test_solve_outputs(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 0
        report = json.loads((outdir / "run_solve.json").read_text())
        assert report["method"] == "perturbation"
        csv_text = (outdir / "run_correlations.csv").read_text()
        assert csv_text.splitlines()[0] == "word,value"

    def test_tol_without_order_runs_the_library_default(self, tmp_path):
        # a config that sets only solver.tol gets the orders the library's
        # perturbation_series gives for that tol, not a CLI default order
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["solver"] = {"method": "perturb", "tol": 1e-14}
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 0
        got = json.loads((outdir / "run_solve.json").read_text())["extras"]["orders_used"]
        kern = build_model(load_config(path)).kernels
        assert got == perturbation_series(kern, 4, tol=1e-14).extras["orders_used"] > 2

    @pytest.mark.parametrize("method", ["triangular", "closed", "rational"])
    def test_other_methods_run(self, tmp_path, method):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["model"]["interaction_rows"] = "all"
        cfg["solver"] = {"method": method}
        if method == "rational":
            cfg["solver"]["lambda"] = 0.03
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 0

    def test_rational_on_interior_rows_is_a_singular_rational_form(self, tmp_path, capsys):
        # the demo model leaves the interaction off its boundary rows, so
        # the rational form's auxiliary inverse of N does not exist
        cfg = load_config(DEMO_CONFIG)
        assert cfg["model"]["interaction_rows"] == "interior"
        cfg["solver"] = {"method": "rational", "lambda": 0.05}
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith("error [SingularRationalForm]")
        assert not outdir.exists()

    @pytest.mark.parametrize("seed_mode", ["file"])
    @pytest.mark.parametrize("method", ["closed", "rational", "perturb"])
    def test_seedless_method_rejects_seed_mode(self, tmp_path, capsys, monkeypatch, method, seed_mode):
        def forbidden(*args, **kwargs):
            raise AssertionError("a seed was built for a method that takes none")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "load_vector", forbidden)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["model"]["interaction_rows"] = "all"
        cfg["solver"] = {"method": method, "lambda": 0.03, "seed_mode": seed_mode,
                         "seed_file": str(tmp_path / "seed.json")}
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert f"method '{method}'" in err and "seed_mode: free" in err
        assert not outdir.exists()

    def test_zero_model_lambda_gives_free_residual(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["model"]["lambda"] = 0.0
        cfg["solver"]["order"] = 3
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 0
        report = json.loads((outdir / "run_solve.json").read_text())
        # with the coupling zeroed the series collapses to the free solution,
        # whose residual is pure Green's-function float noise
        assert all(v <= 1e-12 for v in report["residual"]["per_level"].values())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_seed_file_raises(self, tmp_path, capsys, bad):
        cfg = triangular_config(BASE_CONFIG)
        model = build_model(cfg)
        L = cfg["truncation"]["L"]
        doc = json.loads(to_json(free_solution(model.kernels, L)))
        doc["levels"][2][3][1] = bad
        seed_path = tmp_path / "seed.json"
        seed_path.write_text(json.dumps(doc))
        cfg["solver"].update(seed_mode="file", seed_file=str(seed_path))
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 1
        assert "error [ShapeError]: level 2 contains non-finite entries" in capsys.readouterr().err
        assert not outdir.exists()

    def test_seed_file_declaring_another_L_raises(self, tmp_path, capsys):
        # the document holds levels 0..4 but declares L = 1
        cfg = triangular_config(load_config(DEMO_CONFIG))
        model = build_model(cfg)
        doc = json.loads(to_json(free_solution(model.kernels, cfg["truncation"]["L"])))
        assert len(doc["levels"]) == 5
        doc["L"] = 1
        seed_path = tmp_path / "seed.json"
        seed_path.write_text(json.dumps(doc))
        cfg["solver"].update(seed_mode="file", seed_file=str(seed_path))
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 1
        assert "error [ShapeError]: document L=1 does not match its levels 0..4" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("seed", ["missing", "directory", "not_json", "no_levels", "other_L"])
    def test_bad_seed_file_is_a_config_error(self, tmp_path, capsys, seed):
        cfg = triangular_config(load_config(DEMO_CONFIG))
        model = build_model(cfg)
        assert cfg["truncation"]["L"] == 4
        seed_path = {"missing": tmp_path / "nope.json", "directory": tmp_path}.get(seed, tmp_path / "seed.json")
        if seed == "not_json":
            seed_path.write_text("{not json")
        elif seed == "no_levels":
            seed_path.write_text(json.dumps({"d": model.space.d}))
        elif seed == "other_L":
            seed_path.write_text(to_json(free_solution(model.kernels, 2)))
        cfg["solver"].update(seed_mode="file", seed_file=str(seed_path))
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 1
        assert capsys.readouterr().err.startswith("config error: solver.seed_file ")
        assert not outdir.exists()

    def test_seed_outside_the_interaction_null_space_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # the order-4 series solves K + N + G to 1e-8 on level 1 but is no null vector of N
        cfg = triangular_config(load_config(DEMO_CONFIG))
        model = build_model(cfg)
        seed_path = tmp_path / "seed.json"
        seed_path.write_text(to_json(perturbation_series(model.kernels, 4, order=4).V))
        cfg["solver"].update(seed_mode="file", seed_file=str(seed_path))

        def forbidden(*args, **kwargs):
            raise AssertionError("solved from a seed outside the null space")

        monkeypatch.setattr(cli, "lower_triangular_expansion", forbidden)
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: solver.seed_file {str(seed_path)!r} is not in the interaction's null space")
        residual = float(re.search(r"is (\S+), over", err).group(1))
        assert residual > 1e3 * cli._SEED_NULL_TOL
        assert not outdir.exists()

    def test_closed_projection_seed_file_gives_the_closed_solution(self, tmp_path):
        # the closed solve's projection, a null vector of the interaction,
        # seeds the expansion to the closed solution, as demo 04 shows in-library
        cfg = triangular_config(load_config(DEMO_CONFIG))
        kern, L = build_model(cfg).kernels, cfg["truncation"]["L"]
        closed = closed_equation_solve(kern, L)
        seed_path = tmp_path / "seed.json"
        seed_path.write_text(to_json(closed.extras["projection"]))
        cfg["solver"].update(seed_mode="file", seed_file=str(seed_path))
        outdir = tmp_path / "out"
        assert main(["solve", "--config", write_config(tmp_path, cfg), "--out", str(outdir)]) == 0
        with open(outdir / f"{cfg['output']['prefix']}_correlations.csv", newline="") as fh:
            got = [float(row["value"]) for row in csv.DictReader(fh)]
        expected = np.concatenate([t.ravel() for t in closed.V.levels[1:]])
        assert np.abs(np.array(got) - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    @pytest.mark.parametrize("command", [["oracle", "run"], ["compare"]], ids=["oracle_run", "compare"])
    def test_misshapen_covariance_exit_one(self, tmp_path, capsys, command):
        cfg = load_config(DEMO_CONFIG)
        cfg["oracle"]["cov"] = [[0.04, 0.0], [0.01]]
        path = write_config(tmp_path, cfg)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [ShapeError]: ") and "covariance does not form an array" in err, err


class TestUsage:
    # every setting is a config key; the command line takes no setting
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--method", "closed"],
            ["solve", "--seed-mode", "oracle"],
            ["solve", "--order", "3"],
            ["solve", "--tol", "1e-9"],
            ["solve", "--lambda", "0.0"],
            ["solve", "--sym"],
            ["solve", "--seed-file", "seed.json"],
            ["oracle", "run", "--samples", "500"],
            ["oracle", "run", "--seed", "1"],
            ["oracle", "run", "--max-order", "2"],
            ["oracle", "run", "--smear", "0:0.5,1:0.5"],
        ],
    )
    def test_usage_error_exits_one(self, tmp_path, capsys, monkeypatch, argv):
        # exit code 2 is a compare FAIL; a usage error is an execution error
        def forbidden(*args, **kwargs):
            raise AssertionError("ran a command whose arguments are not understood")

        monkeypatch.setattr(cli, "load_config", forbidden)
        path = write_config(tmp_path, BASE_CONFIG)
        with pytest.raises(SystemExit) as info:
            main([*argv, "--config", path])
        assert info.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        for command in (["solve"], ["oracle", "run"]):
            with pytest.raises(SystemExit) as info:
                main([*command, "--help"])
            assert info.value.code == 0
            assert _help_flags(capsys.readouterr().out) == {"-h", "--help", "--config", "--out"}

    def test_readme_synopsis_matches_parser(self, capsys):
        # the README's "Command line" block names each subcommand with the flags its parser takes
        text = README.read_text()
        block = text[text.index("## Command line"):]
        block = block[block.index("```sh") + len("```sh"):]
        block = block[:block.index("```")]
        documented = {}
        for line in block.strip().splitlines():
            if line.startswith("freefock "):
                command = tuple(line.split("--")[0].split()[1:])
                documented[command] = set()
            documented[command] |= set(re.findall(r"--[a-z][a-z-]*", line))

        def leaves(command):
            with pytest.raises(SystemExit):
                main([*command, "--help"])
            usage = capsys.readouterr().out
            sub = re.search(r"\s\{([a-z,]+)\}\s+\.\.\.", usage)  # a subcommand, not an option's choices
            if sub is None:
                yield tuple(command), _help_flags(usage) - {"-h", "--help"}
            else:
                for name in sub.group(1).split(","):
                    yield from leaves([*command, name])

        assert dict(leaves([])) == documented

    def test_readme_config_schema_block_matches_the_schema(self):
        # the README's "Config schema" block is a valid config naming every
        # schema key, section by section, and no other
        text = README.read_text()
        block = text[text.index("### Config schema"):]
        block = block[block.index("```yaml") + len("```yaml"):]
        doc = yaml.safe_load(block[:block.index("```")])
        jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA).validate(doc)
        sections = cli.CONFIG_SCHEMA["properties"]
        assert set(doc) == set(sections)
        for name, section in sections.items():
            assert set(doc[name]) == set(section["properties"]), name


# floats whose repr is an edge case: signed zeros and NaNs, infinities, the
# smallest subnormal, and each side of repr's switches to exponent notation
EDGE_FLOATS = (0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
               1e16, math.nextafter(1e16, 0.0), 1e-4, math.nextafter(1e-4, 0.0), 1e-5, math.nextafter(1e-5, 1.0))


@st.composite
def tables(draw):
    """(header, columns) for ``cli._table_rows``: per-level tensors or one 2-D field, few distinct entries."""
    palette = draw(st.lists(st.one_of(st.sampled_from(EDGE_FLOATS), st.floats()), min_size=1, max_size=6))
    if draw(st.booleans()):
        d = draw(st.integers(1, 4))
        shapes = [(d,) * n for n in range(1, draw(st.integers(1, 3)) + 1)]
    else:
        shapes = [(draw(st.integers(1, 5)), draw(st.integers(1, 5)))]
    k = draw(st.integers(1, 3))
    columns = [
        [np.array(draw(st.lists(st.sampled_from(palette), min_size=math.prod(s), max_size=math.prod(s)))).reshape(s)
         for s in shapes]
        for _ in range(k)
    ]
    return ("word", *(f"c{i}" for i in range(k))), columns


class TestTableWriter:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    @example((("word", "value"), [[np.array([0.0, -0.0, 0.0, -0.0])]]))
    def test_bytes_equal_csv_writer(self, tmp_path_factory, table):
        header, columns = table
        outdir = tmp_path_factory.mktemp("table")
        cli._write_csv(outdir / "got.csv", header, cli._table_rows(*columns))
        csv_writer_table(outdir / "want.csv", header, *columns)
        assert (outdir / "got.csv").read_bytes() == (outdir / "want.csv").read_bytes()


class TestOracleRun:
    def test_outputs_and_manifest(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["oracle"].update(samples=500, max_order=2)
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["oracle", "run", "--config", path, "--out", str(outdir)]) == 0
        lines = (outdir / "run_mtcf.csv").read_text().splitlines()
        assert lines[0] == "word,value,stderr"
        manifest = json.loads((outdir / "run_manifest.json").read_text())
        assert manifest["samples"] == 500
        assert manifest["seed"] == 42
        assert "integrator" in manifest
        # byte determinism forbids wall-clock fields
        assert "runtime" not in manifest

    def test_mtcf_csv_bytes_match_cell_by_cell_writer(self, tmp_path, monkeypatch):
        # reference: the row-by-row writer the table used to go through
        rng = np.random.default_rng(3)
        d, max_order = 4, 4
        values = {n: rng.standard_normal((d,) * n) * 10.0 ** rng.integers(-300, 300, (d,) * n)
                  for n in range(max_order + 1)}
        stderr = {n: np.abs(rng.standard_normal((d,) * n)) for n in range(max_order + 1)}
        values[2][0, 1], values[3][1, 2, 3], stderr[1][0] = -0.0, 5e-324, 0.0
        table = CorrelationTable(values=values, stderr=stderr, samples=10, max_order=max_order)
        monkeypatch.setattr(cli, "estimate_mtcf", lambda *args, **kwargs: table)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["oracle"]["samples"] = 20
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["oracle", "run", "--config", path, "--out", str(outdir)]) == 0
        want = tmp_path / "want.csv"
        orders = range(1, max_order + 1)
        csv_writer_table(want, ("word", "value", "stderr"), [values[n] for n in orders], [stderr[n] for n in orders])
        assert (outdir / "run_mtcf.csv").read_bytes() == want.read_bytes()

    def test_max_order_defaults_to_compare_order(self, tmp_path):
        # oracle run and compare read one default, min(L, 4)
        for L in (3, 6):
            cfg = json.loads(json.dumps(BASE_CONFIG))
            cfg["truncation"]["L"] = L
            cfg["oracle"]["samples"] = 50
            del cfg["oracle"]["max_order"]
            path = write_config(tmp_path, cfg)
            outdir = tmp_path / f"out{L}"
            assert main(["oracle", "run", "--config", path, "--out", str(outdir)]) == 0
            with open(outdir / "run_mtcf.csv", newline="") as fh:
                words = [row["word"] for row in csv.DictReader(fh)]
            assert max(w.count(";") + 1 for w in words) == cli._max_order(cfg) == min(L, 4)

    WAVE_CONFIG = {
        "model": {"kind": "wave", "nx": 8, "nt": 6},
        "truncation": {"L": 2},
        "oracle": {"cov": 0.01, "samples": 400, "seed": 5},
    }

    def test_wave_stderr_is_the_sample_standard_error(self, tmp_path):
        path = write_config(tmp_path, self.WAVE_CONFIG)
        outdir = tmp_path / "out"
        assert main(["oracle", "run", "--config", path, "--out", str(outdir)]) == 0
        cfg = load_config(path)
        model = build_model(cfg)
        pos = cli.simulate(model, cli.build_ensemble(cfg, model, cli._ORACLE_KEYS["wave"])).positions
        with open(outdir / "run_mtcf.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["word"] for r in rows] == [f"{r};{i}" for r, i in np.ndindex(pos.shape[1:])]
        got = np.array([[float(r["value"]), float(r["stderr"])] for r in rows])
        want = np.stack([pos.mean(axis=0).ravel(), (pos.std(axis=0, ddof=1) / np.sqrt(400)).ravel()], axis=1)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got[:, 1].min() > 0.0

    def test_wave_table_bytes_match_cell_by_cell_writer(self, tmp_path):
        # reference: each grid point's float(mean[w]) and float(se[w]) through csv.writer
        path = write_config(tmp_path, self.WAVE_CONFIG)
        outdir = tmp_path / "out"
        assert main(["oracle", "run", "--config", path, "--out", str(outdir)]) == 0
        cfg = load_config(path)
        model = build_model(cfg)
        pos = cli.simulate(model, cli.build_ensemble(cfg, model, cli._ORACLE_KEYS["wave"])).positions
        mean, se = cli.sample_mean_stderr(pos)
        want = tmp_path / "want.csv"
        csv_writer_table(want, ("word", "value", "stderr"), [mean], [se])
        assert (outdir / "run_mtcf.csv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("kind", ["wave", "oscillator"])
    def test_one_sample_refused_before_simulating(self, tmp_path, capsys, monkeypatch, kind):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated an ensemble too small for a standard error")

        monkeypatch.setattr(cli, "simulate", forbidden)
        cfg = json.loads(json.dumps(self.WAVE_CONFIG if kind == "wave" else BASE_CONFIG))
        cfg["oracle"]["samples"] = 1
        path = write_config(tmp_path, cfg)
        assert main(["oracle", "run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error [ShapeError]: need at least 2 samples for error estimates\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("smear", {0: 0.5, 1: 0.5}), ("max_order", 2)])
    def test_oscillator_oracle_key_refused_on_a_wave_model(self, tmp_path, capsys, monkeypatch, key, value):
        # the wave command writes the field's mean and standard error: no moment order, no smearing
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated a wave ensemble whose config sets a key it does not read")

        monkeypatch.setattr(cli, "simulate", forbidden)
        cfg = json.loads(json.dumps(self.WAVE_CONFIG))
        cfg["oracle"][key] = value
        path = write_config(tmp_path, cfg)
        assert main(["oracle", "run", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            f"config error: oracle.{key} is not read by this command on a 'wave' model; remove it\n"
        )
        assert not (tmp_path / "out").exists()

    def test_truncation_budget_binds_on_the_moment_tensors(self, tmp_path, capsys):
        # the order-4 tensor over T = 8 labels holds 4096 entries
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["truncation"]["budget"] = 1000
        cfg["oracle"]["samples"] = 100
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["oracle", "run", "--config", path, "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == (
            "error [BudgetExceeded]: estimate_mtcf: order-4 tensor over 8 labels needs 4096 entries, budget is 1000\n"
        )
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["oracle_run", "compare"])
    def test_moment_budget_refused_before_simulating(self, tmp_path, capsys, monkeypatch, command):
        # T^max_order is known from the config: the order-4 table over T = 8
        # labels (4096 entries) is refused before any sample is drawn, and
        # compare refuses it before it solves
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated or solved past the moment table's budget")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "run_solver", forbidden)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["truncation"]["budget"] = 1000
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        argv = ["oracle", "run"] if command == "oracle_run" else ["compare"]
        assert main(argv + ["--config", path, "--out", str(outdir)]) == 1
        assert capsys.readouterr().err == (
            "error [BudgetExceeded]: estimate_mtcf: order-4 tensor over 8 labels needs 4096 entries, budget is 1000\n"
        )
        assert not outdir.exists()

    def test_smear_config(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["oracle"].update(samples=200, max_order=1, smear={0: 0.5, 1: 0.5})
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["oracle", "run", "--config", path, "--out", str(outdir)]) == 0


class TestCompare:
    def test_passes_and_exit_zero(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        outdir = tmp_path / "out"
        assert main(["compare", "--config", path, "--out", str(outdir)]) == 0
        doc = json.loads((outdir / "run_compare.json").read_text())
        assert doc["pass"] is True
        assert all(c["pass"] for c in doc["comparisons"])
        assert all(v["pass"] for v in doc["residual_checks"].values())

    def test_failure_gives_exit_two(self, tmp_path):
        cfg = json.loads(json.dumps(BASE_CONFIG))
        # order-0 series ignores the interaction entirely; with a tiny
        # tolerance and no slack the comparison must fail
        cfg["solver"]["order"] = 0
        cfg["model"]["lambda"] = 0.4
        cfg["compare"]["sigma"] = 0.001
        cfg["compare"]["abs_slack"] = 0.0
        path = write_config(tmp_path, cfg)
        outdir = tmp_path / "out"
        assert main(["compare", "--config", path, "--out", str(outdir)]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["compare", "--config", path, "--out", str(out1)]) == 0
        assert main(["compare", "--config", path, "--out", str(out2)]) == 0
        assert (out1 / "run_compare.json").read_bytes() == (out2 / "run_compare.json").read_bytes()
        assert (out1 / "run_compare.csv").read_bytes() == (out2 / "run_compare.csv").read_bytes()

    def test_estimates_only_the_orders_it_reads(self):
        # at L = 2 compare reads orders up to 2, so oracle.max_order: 4 runs
        # under a budget the order-4 tensor (8^4 entries) would break
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["truncation"].update(L=2, budget=1000)
        cfg["oracle"]["samples"] = 2000
        report, _ = run_compare(cfg)
        cfg["oracle"]["max_order"] = 2
        want, _ = run_compare(cfg)
        assert report["comparisons"] == want["comparisons"]
        assert report["residual_checks"] == want["residual_checks"]

    def test_run_compare_api(self, tmp_path):
        report, ok = run_compare(json.loads(json.dumps(BASE_CONFIG)))
        assert ok
        assert report["max_delta_over_stderr"] <= 3.0

    @pytest.mark.parametrize("command", [["compare"]])
    def test_smear_refused_before_simulating(self, tmp_path, capsys, monkeypatch, command):
        # a smeared table covers T - max_shift labels; compare reads all T
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated an ensemble whose smearing the command cannot use")

        monkeypatch.setattr(cli, "simulate", forbidden)
        cfg = load_config(DEMO_CONFIG)
        cfg["oracle"]["smear"] = {0: 0.5, 1: 0.5}
        path = write_config(tmp_path, cfg)
        assert main([*command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "oracle.smear" in err

    @pytest.mark.parametrize(
        "oracle_mean, model_means",
        [(None, {}), ([0.4, 0.1], {"x0_mean": 0.0, "v0_mean": 0.0}), ([0.4, 0.2], {})],
        ids=["oracle-mean-unset", "model-means-zero", "v0-differs"],
    )
    def test_ensemble_mean_other_than_the_models_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, oracle_mean, model_means
    ):
        # the model's means enter the source's data rows, so the ensemble must share them
        def forbidden(*args, **kwargs):
            raise AssertionError("solved or simulated an ensemble whose mean is not the model's")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "run_solver", forbidden)
        cfg = json.loads(json.dumps(BASE_CONFIG))
        cfg["model"].update(model_means)
        if oracle_mean is None:
            del cfg["oracle"]["mean"]
        else:
            cfg["oracle"]["mean"] = oracle_mean
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: oracle.mean") and "model.x0_mean" in err and "model.v0_mean" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["closed", "rational", "perturb"])
    def test_seedless_method_refused_before_simulating(self, tmp_path, capsys, monkeypatch, method):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated an ensemble or read a seed for a solver that takes none")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "load_vector", forbidden)
        cfg = load_config(DEMO_CONFIG)
        cfg["model"]["interaction_rows"] = "all"
        cfg["solver"] = {"method": method, "lambda": 0.03, "seed_mode": "file",
                         "seed_file": str(tmp_path / "seed.json")}
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: solver method '{method}' takes no seed: it needs seed_mode: free, not 'file'\n"
        # the same refusal as solve gives
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == err

    def test_rational_without_lambda_refused_before_simulating(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated an ensemble for a solver that cannot run")

        monkeypatch.setattr(cli, "simulate", forbidden)
        cfg = load_config(DEMO_CONFIG)
        cfg["model"]["interaction_rows"] = "all"
        cfg["solver"] = {"method": "rational"}
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == "config error: rational solve needs solver.lambda (the rational coupling)\n"
        assert main(["solve", "--config", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize(
        "words",
        [
            "all_orders:9",
            "all_orders:0",
            "all_orders:x",
            "all_orders:",
            "bogus_spec",
            "3",
            [],
            [[]],
            [[0, 1, 2, 3, 4, 5]],
            [[99]],
            [[-1]],
            [[True]],
            [3],
        ],
    )
    def test_bad_words_refused_before_solving(self, tmp_path, capsys, monkeypatch, words):
        def forbidden(*args, **kwargs):
            raise AssertionError("solved or simulated for a compare.words spec that cannot be read")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "run_solver", forbidden)
        cfg = load_config(DEMO_CONFIG)
        cfg["compare"]["words"] = words
        path = write_config(tmp_path, cfg)
        assert main(["compare", "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: compare.words")
        assert not (tmp_path / "out").exists()

    def test_words_forms(self):
        cfg = load_config(DEMO_CONFIG)
        model = build_model(cfg)  # T = 8 labels, data rows 0 and 1

        def select(words, longest=4):
            return cli._select_words({"compare": {"words": words}}, model, longest)

        assert select("level1_interior") == [(i,) for i in range(2, 8)]
        assert select("all_orders:2") == [(i,) for i in range(8)] + [(i, j) for i in range(8) for j in range(8)]
        assert select("all_orders:4", longest=4)[-1] == (7, 7, 7, 7)
        assert select([[0], [7, 1, 2, 3]]) == [(0,), (7, 1, 2, 3)]
        with pytest.raises(ConfigError):
            select("all_orders:4", longest=3)

    @pytest.mark.parametrize("command", ["compare", "solve"])
    def test_oracle_seed_mode_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        # projecting an estimate onto the null space of K + G gives back the free solution
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated an ensemble for a config that names no solver seed")

        monkeypatch.setattr(cli, "simulate", forbidden)
        cfg = load_config(DEMO_CONFIG)
        cfg["solver"]["seed_mode"] = "oracle"
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config key 'solver.seed_mode'") and "'oracle'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["compare", "solve"])
    def test_seed_file_with_free_seed_mode_is_a_config_error(self, tmp_path, capsys, monkeypatch, command):
        # seed_mode: free reads no seed file, so naming one would be silently ignored
        def forbidden(*args, **kwargs):
            raise AssertionError("simulated an ensemble or solved for a config that names an unread seed file")

        monkeypatch.setattr(cli, "simulate", forbidden)
        monkeypatch.setattr(cli, "perturbation_series", forbidden)
        cfg = load_config(DEMO_CONFIG)
        assert cfg["solver"]["seed_mode"] == "free"
        seed_path = tmp_path / "seed.json"
        seed_path.write_text(to_json(free_solution(build_model(cfg).kernels, cfg["truncation"]["L"])))
        cfg["solver"]["seed_file"] = str(seed_path)
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: solver.seed_file {str(seed_path)!r} is set, but seed_mode: free reads no seed file\n"
        assert not (tmp_path / "out").exists()
