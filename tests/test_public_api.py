"""Every public function and class of the package has a reader in the package.

A public name that only the tests reach is either a diagnostic the runs
should report or a test helper that belongs in ``tests/``.  Each read is
resolved to the module it names: ``mod.name`` through ``from . import mod``,
and a bare ``name`` through ``from .mod import name`` or else the reading
module's own top level.  So when ``e`` reads ``d.run`` through ``from . import
d``, ``c.run`` stays unread although it shares the name
(``test_scan_resolves_the_module_of_each_read``).  A definition counts as
read when some statement of the package outside the definition itself
reads it; docstrings are strings, so they never count.

A public dataclass field must be read too: some statement of the package
has to read its attribute name (``obj.field``); passing it as a
construction keyword stores it and reads nothing.  This scan matches the
name only, on any object, so a field that shares its name with an
attribute read elsewhere passes unseen: a ``LockingSolution.gamma`` that
only the tests read would pass behind ``_Blocks.gamma`` and
``WeakBcMethod.gamma``.

Two counts that ROADMAP aim 2 tracks may fall but never rise: the
defaulted parameters of the package (function defaults plus keyword-only
defaults, over the AST) and the options of the six subcommands.
"""

import argparse
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "infsup_lab"

MAX_DEFAULTED_PARAMETERS = 12
MAX_CLI_OPTIONS = 35            # --help excluded


def _import_bindings(tree, modules) -> tuple:
    """(local name -> module, local name -> (module, name)) of the
    package-relative imports anywhere in ``tree``: ``from . import mod``
    binds a module, ``from .mod import name`` a definition (``from . import
    name`` one of ``__init__``)."""
    bound_modules, bound_names = {}, {}
    for sub in ast.walk(tree):
        if not (isinstance(sub, ast.ImportFrom) and sub.level == 1):
            continue
        for alias in sub.names:
            local = alias.asname or alias.name
            if sub.module is None and alias.name in modules:
                bound_modules[local] = alias.name
            else:
                bound_names[local] = (sub.module or "__init__", alias.name)
    return bound_modules, bound_names


def _reads(node, module, bindings) -> set:
    """``(module, name)`` of every package-level name that ``node`` reads."""
    bound_modules, bound_names = bindings
    reads = set()
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id in bound_modules):
            reads.add((bound_modules[sub.value.id], sub.attr))
        elif isinstance(sub, ast.Name):
            reads.add(bound_names.get(sub.id, (module, sub.id)))
    return reads


def _unread_public_definitions(src: pathlib.Path) -> list:
    """``module.name`` of each public module-level function or class that
    no other statement of the package reads."""
    paths = sorted(src.glob("*.py"))
    modules = {path.stem for path in paths}
    statements = []                          # (module, top-level node, reads)
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        bindings = _import_bindings(tree, modules)
        statements += [(path.stem, node, _reads(node, path.stem, bindings))
                       for node in tree.body]
    unread = []
    for i, (module, node, _) in enumerate(statements):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        if not any((module, node.name) in reads
                   for j, (_, _, reads) in enumerate(statements) if j != i):
            unread.append(f"{module}.{node.name}")
    return unread


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(func, "attr", getattr(func, "id", None)) == "dataclass":
            return True
    return False


def _unread_public_fields(src: pathlib.Path) -> list:
    """``module.Class.field`` of each public field of a public dataclass
    whose attribute name no statement of the package reads."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, ast.ClassDef) or node.name.startswith("_")
                    or not _is_dataclass(node)):
                continue
            unread += [f"{module}.{node.name}.{stmt.target.id}"
                       for stmt in node.body
                       if isinstance(stmt, ast.AnnAssign)
                       and isinstance(stmt.target, ast.Name)
                       and not stmt.target.id.startswith("_")
                       and stmt.target.id not in read]
    return unread


def test_every_public_definition_has_a_reader_in_src():
    assert _unread_public_definitions(SRC) == []


def test_every_public_dataclass_field_has_a_reader_in_src():
    assert _unread_public_fields(SRC) == []


def test_scan_flags_a_definition_only_its_own_body_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        '"""used_helper is named in this docstring only."""\n'
        "def used_helper():\n    return 1\n\n"
        "def recursive():\n    return recursive()\n\n"
        "class Lonely:\n    def method(self):\n        return Lonely\n\n"
        "def _private():\n    return 0\n")
    (tmp_path / "b.py").write_text(
        "from .a import used_helper\n\n\n"
        "def entry():\n    return used_helper()\n")
    (tmp_path / "c.py").write_text("from . import b\n\nVALUE = b.entry()\n")
    assert _unread_public_definitions(tmp_path) == ["a.recursive", "a.Lonely"]


def test_scan_resolves_the_module_of_each_read(tmp_path):
    # c.run and d.run share a name, but only d's is read; entry is read
    # through its import, so the bare name resolves to module f
    (tmp_path / "c.py").write_text("def run():\n    return 1\n")
    (tmp_path / "d.py").write_text("def run():\n    return 2\n")
    (tmp_path / "e.py").write_text(
        "from . import d\nfrom .f import entry\n\n"
        "VALUE = d.run() + entry()\n")
    (tmp_path / "f.py").write_text("def entry():\n    return 0\n")
    assert _unread_public_definitions(tmp_path) == ["c.run"]


def test_field_scan_counts_attribute_reads_only(tmp_path):
    # kept is read, shown only through a construction keyword, stored only
    # by an assignment, noted only in a docstring; a private dataclass and
    # a plain annotated class are not scanned
    (tmp_path / "a.py").write_text(
        "import dataclasses\nfrom dataclasses import dataclass\n\n\n"
        "@dataclass(frozen=True)\nclass Result:\n"
        '    """noted is named in this docstring only."""\n'
        "    kept: int\n    shown: int\n    stored: int = 0\n"
        "    noted: int = 0\n\n\n"
        "@dataclasses.dataclass\nclass Other:\n    lonely: int\n\n\n"
        "@dataclass\nclass _Private:\n    hidden: int\n\n\n"
        "class Plain:\n    annotated: int\n")
    (tmp_path / "b.py").write_text(
        "from .a import Result\n\n\n"
        "def entry(other):\n"
        "    result = Result(kept=1, shown=2)\n"
        "    other.stored = result.kept\n"
        "    return result\n")
    assert _unread_public_fields(tmp_path) == [
        "a.Result.shown", "a.Result.stored", "a.Result.noted", "a.Other.lonely"]


def _defaulted_parameters(src: pathlib.Path) -> int:
    """Function defaults plus keyword-only defaults of every module."""
    return sum(len(node.defaults)
               + sum(d is not None for d in node.kw_defaults)
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.arguments))


def test_defaulted_parameters_do_not_grow():
    assert _defaulted_parameters(SRC) <= MAX_DEFAULTED_PARAMETERS


def test_cli_options_do_not_grow():
    from infsup_lab import cli
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    options = [action for sub in subparsers.choices.values()
               for action in sub._actions
               if not isinstance(action, argparse._HelpAction)]
    assert len(subparsers.choices) == 6
    assert len(options) <= MAX_CLI_OPTIONS


def test_default_count_reads_every_kind_of_default(tmp_path):
    # one positional, two keyword-only (the bare ``c`` has none), one
    # lambda and one method default
    (tmp_path / "a.py").write_text(
        "def f(a, b=1, *, c, d=2, e=3):\n    return a\n\n"
        "g = lambda x=0: x\n\n"
        "class K:\n    def m(self, y=None):\n        return y\n")
    assert _defaulted_parameters(tmp_path) == 5
