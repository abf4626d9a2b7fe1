"""Every public function and class of the library has a reader, and every
defaulted parameter a caller.

A module-level function or class in ``src/freefock`` whose name has no
leading underscore is public.  It must be referenced, outside its own
definition, by one of the library's readers:

- a library module (``__init__.py``'s re-exports do not count);
- a demo script, ``demos/*.py``;
- the benchmark, ``perfbench/*.py``;
- a Python code block in ``README.md``;
- ``tests/test_acceptance.py``, which holds the paper's acceptance criteria.

A helper that only other tests read lives in ``tests/helpers.py``, so a
library helper that loses its last reader fails here, the way an unread
config key fails the config tests.

A reference is an import of the name from the package, a use of a name
that resolves to such an import or, in the defining module, to the
definition itself, an attribute access ``module.name`` on a package or
module import, or a ``(module, "name")`` pair as in
``getattr(module, "name")`` and the benchmark tracer's target table.  A
local variable, argument or nested definition with the same name is not
a reference.

The same readers must pass every parameter with a default of every
module-level function in ``src/freefock``, by keyword or by position, in
a call the reference rules resolve to that function; a call that unpacks
``*args`` or ``**kwargs`` counts as passing every positional or keyword
parameter.  A function's call to itself does not count.  ``budget`` is
exempt: every sizing stage takes its caller's budget, and
``tests/test_budget.py`` drives each refusal through it.  Methods are not
checked.  So a setting no caller can reach fails here instead of
lingering as a parameter.

Every name a library module imports must be read in that module, so a
helper's last use cannot leave its import behind.  ``__init__.py`` is
exempt: its imports are the package's exports.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "freefock"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

_NESTED_SCOPES = (ast.FunctionDef, ast.Lambda, ast.ClassDef,
                  ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _scope_nodes(scope):
    """Nodes that belong to ``scope`` itself: nested scopes are yielded but not entered."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _NESTED_SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _local_names(scope):
    """Names a function, lambda or comprehension binds in its own scope."""
    names = set()
    if not isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        a = scope.args
        names.update(x.arg for x in a.posonlyargs + a.args + a.kwonlyargs)
        names.update(x.arg for x in (a.vararg, a.kwarg) if x is not None)
    declared = set()
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared


def _source_module(node, own):
    """The freefock module an ImportFrom reads ("freefock" for the package), or None."""
    if node.level:
        if own is None:
            return None
        return node.module or "freefock"
    if node.module == "freefock":
        return "freefock"
    if node.module and node.module.startswith("freefock."):
        return node.module.split(".", 1)[1]
    return None


class _References(ast.NodeVisitor):
    """Collect ``(module, name)`` references of one reader's syntax tree.

    ``own`` names the library module the tree is (None for other readers);
    its module-level definitions resolve to ``(own, name)``.  ``module`` is
    "freefock" for a reference through the package namespace.
    """

    def __init__(self, tree, own=None):
        self.own = own
        self.refs = set()
        self.aliases = {}   # an imported name bound to a freefock module or the package
        self.imported = {}  # an imported name bound to a freefock name: (module, name)
        self.star = set()   # star-imported modules
        self.defined = set()
        self.scopes = []    # local names of the enclosing function scopes
        self.calls = []     # (targets, positional count, keywords, *args, **kwargs)
        self.top = None     # the module-level definition being visited
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defined.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                self._import_from(node)
            elif isinstance(node, ast.Import):
                for a in node.names:
                    if a.name == "freefock" or a.name.startswith("freefock."):
                        if a.asname:
                            self.aliases[a.asname] = a.name.split(".", 1)[1] if "." in a.name else "freefock"
                        else:
                            self.aliases["freefock"] = "freefock"
        self.visit(tree)

    def _import_from(self, node):
        module = _source_module(node, self.own)
        if module is None:
            return
        for a in node.names:
            if a.name == "*":
                self.star.add(module)
            elif module == "freefock" and a.name in MODULES:
                self.aliases[a.asname or a.name] = a.name
            else:
                self.refs.add((module, a.name))
                self.imported[a.asname or a.name] = (module, a.name)

    def _module_of(self, node):
        """The freefock module an expression names, or None."""
        if isinstance(node, ast.Name) and not self._is_local(node.id):
            return self.aliases.get(node.id)
        if isinstance(node, ast.Attribute) and self._module_of(node.value) == "freefock" and node.attr in MODULES:
            return node.attr
        return None

    def _is_local(self, name):
        return any(name in scope for scope in self.scopes)

    def _scoped(self, node):
        top = self.top
        if top is None and isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            self.top = node.name
        # a class body binds nothing that the functions in it see
        local = not isinstance(node, ast.ClassDef)
        if local:
            self.scopes.append(_local_names(node))
        self.generic_visit(node)
        if local:
            self.scopes.pop()
        self.top = top

    visit_FunctionDef = visit_ClassDef = visit_Lambda = _scoped
    visit_ListComp = visit_SetComp = visit_DictComp = visit_GeneratorExp = _scoped

    def visit_Name(self, node):
        name = node.id
        if not isinstance(node.ctx, ast.Load) or self._is_local(name) or name == self.top:
            return
        if name in self.imported:
            self.refs.add(self.imported[name])
        elif self.own is not None and name in self.defined:
            self.refs.add((self.own, name))
        else:
            self.refs.update((module, name) for module in self.star)

    def visit_Attribute(self, node):
        module = self._module_of(node.value)
        if module is not None and self._module_of(node) is None:
            self.refs.add((module, node.attr))
        self.generic_visit(node)

    def _pairs(self, items):
        for owner, attr in zip(items, items[1:]):
            module = self._module_of(owner)
            if module is not None and isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                self.refs.add((module, attr.value))

    def visit_Tuple(self, node):
        self._pairs(node.elts)
        self.generic_visit(node)

    def _targets(self, func):
        """The ``(module, name)`` pairs a call's function may resolve to."""
        if isinstance(func, ast.Attribute):
            module = self._module_of(func.value)
            return [(module, func.attr)] if module is not None else []
        if not isinstance(func, ast.Name) or self._is_local(func.id) or func.id == self.top:
            return []
        if func.id in self.imported:
            return [self.imported[func.id]]
        if self.own is not None and func.id in self.defined:
            return [(self.own, func.id)]
        return [(module, func.id) for module in self.star]

    def visit_Call(self, node):
        self._pairs(node.args)
        targets = self._targets(node.func)
        if targets:
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            self.calls.append((
                targets,
                len(positional),
                {k.arg for k in node.keywords if k.arg is not None},
                len(positional) < len(node.args),
                any(k.arg is None for k in node.keywords),
            ))
        self.generic_visit(node)


def _readme_blocks():
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.S | re.M)


def public_definitions():
    """``(module, name)`` of every public module-level function and class."""
    out = []
    for module in MODULES:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        out.extend(
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
        )
    return out


def _readers():
    """``_References`` of every reader's syntax tree."""
    trees = [(module, ast.parse((PACKAGE / f"{module}.py").read_text())) for module in MODULES]
    paths = sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    trees += [(None, ast.parse(p.read_text())) for p in paths]
    trees += [(None, ast.parse(block)) for block in _readme_blocks()]
    return [_References(tree, own) for own, tree in trees]


def reader_references():
    """Every ``(module, name)`` the readers reference."""
    return set().union(*(r.refs for r in _readers()))


def defaulted_parameters():
    """``{(module, function): [(parameter, position or None), ...]}`` of the defaulted parameters.

    Every module-level function of the library is listed, ``budget`` aside;
    a keyword-only parameter has no position.
    """
    out = {}
    for module in MODULES:
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            params = [(x.arg, i) for i, x in enumerate(positional) if i >= len(positional) - len(a.defaults)]
            params += [(x.arg, None) for x, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
            params = [(name, i) for name, i in params if name != "budget"]
            if params:
                out[(module, node.name)] = params
    return out


def unpassed_parameters(readers, defaulted):
    """``{(module, function): [parameter, ...]}`` of the defaulted parameters no reader's call passes."""
    package = {name: module for module, name in defaulted}
    passed = set()
    for reader in readers:
        for targets, n_positional, keywords, star, double_star in reader.calls:
            for module, name in targets:
                key = (package.get(name), name) if module == "freefock" else (module, name)
                for param, position in defaulted.get(key, ()):
                    if (param in keywords or double_star
                            or position is not None and (position < n_positional or star)):
                        passed.add((key, param))
    return {
        key: [param for param, _ in params if (key, param) not in passed]
        for key, params in defaulted.items()
        if any((key, param) not in passed for param, _ in params)
    }


def unread_imports(tree):
    """Names the imports of ``tree`` bind that no expression in it reads, sorted.

    A ``__future__`` import binds no name; ``import a.b`` binds ``a``.
    """
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def test_every_import_is_read():
    unread = {}
    for module in MODULES:
        names = unread_imports(ast.parse((PACKAGE / f"{module}.py").read_text()))
        if names:
            unread[module] = names
    assert not unread, f"imports their module never reads: {unread}"


def test_an_unread_import_is_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .cuntz import _product, compose as c, Monomial\n"
        "def f(x: Monomial):\n"
        "    return _product(x, np.pi)\n"
    )
    assert unread_imports(tree) == ["c", "os"]


def test_every_public_name_has_a_reader():
    refs = reader_references()
    unread = [
        f"{module}.{name}"
        for module, name in public_definitions()
        if (module, name) not in refs and ("freefock", name) not in refs
    ]
    assert not unread, f"public names no reader references: {sorted(unread)}"


def test_a_local_variable_does_not_count():
    tree = ast.parse(
        "from freefock import *\n"
        "def f(materialize):\n"
        "    inner = 1\n"
        "    return inner, materialize, [compose for compose in ()], simulate\n"
    )
    assert _References(tree).refs == {("freefock", "simulate")}


def test_each_reference_form_counts():
    tree = ast.parse(
        "import freefock\n"
        "from freefock import cuntz as c, fock\n"
        "from freefock.inverse import dense_residual\n"
        "TARGETS = ((c, 'materialize'),)\n"
        "getattr(fock, 'load')\n"
        "freefock.to_json\n"
        "freefock.oracle.simulate\n"
    )
    assert _References(tree).refs == {
        ("cuntz", "materialize"), ("fock", "load"), ("freefock", "to_json"),
        ("inverse", "dense_residual"), ("oracle", "simulate"),
    }


def test_own_module_uses_count_outside_the_definition():
    tree = ast.parse(
        "def helper():\n"
        "    return helper()\n"
        "def caller():\n"
        "    return used()\n"
        "def used():\n"
        "    pass\n"
    )
    assert _References(tree, own="m").refs == {("m", "used")}


def test_every_defaulted_parameter_has_a_caller():
    unpassed = unpassed_parameters(_readers(), defaulted_parameters())
    named = sorted(f"{module}.{name}({', '.join(params)})" for (module, name), params in unpassed.items())
    assert not named, f"defaulted parameters no reader passes: {named}"


def test_each_call_form_passes_its_parameters():
    library = ast.parse(
        "def f(a, b=1, *, c=2, budget=3):\n"
        "    return f(a, b, c=c)\n"
        "def g(x, y=1, z=2):\n"
        "    pass\n"
        "def h(p=1, q=2):\n"
        "    pass\n"
    )
    reader = ast.parse(
        "import freefock\n"
        "from freefock import cuntz\n"
        "cuntz.g(0, 1)\n"
        "freefock.f(0, c=5)\n"
        "def local(h):\n"
        "    return h(p=0, q=0)\n"
        "cuntz.h(*(), **{})\n"
    )
    readers = [_References(library, own="cuntz"), _References(reader)]
    defaulted = {("cuntz", "f"): [("b", 1), ("c", None)], ("cuntz", "g"): [("y", 1), ("z", 2)],
                 ("cuntz", "h"): [("p", 0), ("q", 1)]}
    # f's call to itself does not count, a local h is not cuntz.h, and unpacking passes everything
    assert unpassed_parameters(readers, defaulted) == {("cuntz", "f"): ["b"], ("cuntz", "g"): ["z"]}
    assert unpassed_parameters(readers[:1], defaulted)[("cuntz", "h")] == ["p", "q"]
