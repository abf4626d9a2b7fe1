"""``load_config`` checks a config against ``CONFIG_SCHEMA`` as jsonschema's Draft 2020-12 validator does.

jsonschema is the reference only: the library checks configs with
``cli._schema_errors`` and never imports it.
"""

import copy
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from freefock import cli
from freefock.errors import ConfigError

ROOT = Path(__file__).resolve().parents[1]


def readme_config_text():
    """The README's "Config schema" block, a config that names every key."""
    text = (ROOT / "README.md").read_text()
    block = text[text.index("### Config schema"):]
    block = block[block.index("```yaml") + len("```yaml"):]
    return block[:block.index("```")]


# the demo configs and the README's, as text
TEXTS = [(ROOT / "demos" / name).read_text() for name in ("experiment.yaml", "experiment_algebra.yaml")]
TEXTS.append(readme_config_text())
BASES = [yaml.safe_load(text) for text in TEXTS]
README_CONFIG = BASES[-1]

# every JSON type, with the values whose type Draft 2020-12 reads by a rule: bools are no
# numbers, integral floats are integers, and the bounds' edges
SCALARS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 3, 1.0, 3.0, 0.5, -0.0, math.inf, "", "free", "oscillator"]),
    st.integers(-5, 70),
    st.floats(allow_nan=False),
    st.text(max_size=4),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.one_of(st.text(max_size=3), st.integers(-2, 3)), inner, max_size=3),
    ),
    max_leaves=6,
)
KEYS = st.one_of(st.text(max_size=6), st.integers(-2, 5), st.sampled_from(["L", "T", "kind", "samples", "extra"]))


def _paths(doc, path=()):
    """Every path into ``doc``: the root, each mapping's entries and each list's items."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield from _paths(v, path + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def mutated_configs(draw):
    """A copy of a demo or README config with 1-4 keys dropped, added or given values of another type."""
    doc = copy.deepcopy(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        paths = list(_paths(doc))
        kind = draw(st.sampled_from(["drop", "stray", "value", "smear"]))
        if kind == "smear":
            doc.setdefault("oracle", {})
            if isinstance(doc["oracle"], dict):
                doc["oracle"]["smear"] = draw(st.one_of(
                    st.dictionaries(st.one_of(st.integers(-2, 4), st.sampled_from([1.0, 2.5, True, None, "1"])),
                                    st.one_of(st.floats(0, 1), SCALARS, VALUES), max_size=4),
                    VALUES,
                ))
            continue
        mappings = [p for p in paths if isinstance(_at(doc, p), dict)]
        if kind == "stray":
            _at(doc, draw(st.sampled_from(mappings)))[draw(KEYS)] = draw(VALUES)
            continue
        inner = [p for p in paths if p]
        if not inner:
            continue
        path = draw(st.sampled_from(inner))
        parent = _at(doc, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(VALUES)
    return doc


def by_path(errors):
    """``(path, message)`` pairs sorted as ``load_config`` orders them, by path as text."""
    return sorted(errors, key=lambda e: [str(p) for p in e[0]])


def reference_errors(doc):
    """Every error jsonschema's Draft 2020-12 validator finds in ``doc``, as ``(path, message)``, sorted by path."""
    validator = jsonschema.Draft202012Validator(cli.CONFIG_SCHEMA)
    return by_path((tuple(e.absolute_path), e.message) for e in validator.iter_errors(doc))


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("configs") / "exp.yaml"


@settings(max_examples=400, deadline=None)
@given(mutated_configs())
def test_load_config_reports_jsonschemas_first_error(config_path, doc):
    # the verdict, and the first error's path and message, are the reference's
    config_path.write_text(yaml.safe_dump(doc, sort_keys=False))
    doc = yaml.safe_load(config_path.read_text())
    want = reference_errors(doc)
    if not want:
        assert cli.load_config(config_path) == doc
    else:
        with pytest.raises(ConfigError) as info:
            cli.load_config(config_path)
        path, message = want[0]
        assert str(info.value) == f"config key {'.'.join(map(str, path)) or '(root)'!r}: {message}"


def loaded_by_both(text):
    """``text`` loaded by PyYAML's pure-Python SafeLoader and by ``load_config``'s loader, as reprs.

    A repr tells 1 from 1.0, -0.0 from 0.0 and a key order from another, which ``==`` does not.
    """
    return repr(yaml.load(text, Loader=yaml.SafeLoader)), repr(yaml.load(text, Loader=cli._YAML_LOADER))


@pytest.mark.parametrize("index", range(len(TEXTS)), ids=["experiment", "experiment_algebra", "readme"])
def test_configs_load_to_the_pure_python_loaders_documents(index):
    python, used = loaded_by_both(TEXTS[index])
    assert used == python


@settings(max_examples=200, deadline=None)
@given(mutated_configs())
def test_mutated_configs_load_to_the_pure_python_loaders_documents(doc):
    python, used = loaded_by_both(yaml.safe_dump(doc, sort_keys=False))
    assert used == python


@pytest.mark.parametrize("text", ["model: [1, 2", "model:\n  kind: oscillator\n - T: 3", "a: b: c", "\tmodel: {}"])
def test_malformed_yaml_is_a_config_error(tmp_path, text):
    path = tmp_path / "exp.yaml"
    path.write_text(text)
    with pytest.raises(ConfigError, match="config is not valid YAML"):
        cli.load_config(path)


# one value of each JSON type, and the edges of the type rules and of every bound in the schema
EDGE_VALUES = [None, True, False, 0, 1, -1, 2, 3, 1.0, 3.0, 0.5, -0.0, 1.5, math.inf, -math.inf, "", "1", "free",
               [], [1], [True], [1.0, None], [[0.5]], [[0.5], [True]], {}, {0: 1.0}, {1: True}, {-1: 0.5}, {"a": 1}]


@pytest.mark.parametrize("value", EDGE_VALUES, ids=repr)
def test_every_key_finds_jsonschemas_errors_in_edge_values(value):
    # the README config, which names every key, with one key at a time set to
    # the value: every error, in load_config's order, is the reference's
    for section, keys in README_CONFIG.items():
        for key in keys:
            doc = copy.deepcopy(README_CONFIG)
            doc[section][key] = value
            assert by_path(cli._schema_errors(cli.CONFIG_SCHEMA, doc, ())) == reference_errors(doc), (section, key)


def test_schema_uses_only_implemented_keywords():
    # a keyword _schema_errors does not read, say a later pattern or maxItems,
    # raises; an enum of strings is what its `in` test compares correctly
    def walk(schema):
        list(cli._schema_errors(schema, None, ()))
        for key, rule in schema.items():
            if key == "enum":
                assert all(isinstance(v, str) for v in rule), rule
            elif key == "properties":
                for sub in rule.values():
                    walk(sub)
            elif key == "anyOf":
                for sub in rule:
                    walk(sub)
            elif key in ("items", "propertyNames", "additionalProperties") and rule is not False:
                walk(rule)

    walk(cli.CONFIG_SCHEMA)
    with pytest.raises(ValueError, match="'pattern' is not implemented"):
        walk({"type": "object", "properties": {"prefix": {"type": "string", "pattern": "^a"}}})


def test_importing_the_cli_loads_no_jsonschema():
    code = ("import sys, freefock, freefock.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('jsonschema', 'referencing')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    assert out == "[]\n"
