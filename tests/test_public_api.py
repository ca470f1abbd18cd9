"""Every public function and class of the package has a reader in the package.

A public name that only the tests reach is either a diagnostic the runs
should report or a test helper that belongs in ``tests/``.  A name counts
as read when it appears as an ``ast.Name``, as the attribute of an
``ast.Attribute`` or in an import, anywhere in ``src/infsup_lab`` outside
its own definition; docstrings are strings, so they never count.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "infsup_lab"


def _names_read(node) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in sub.names)
    return names


def _unread_public_definitions(src: pathlib.Path) -> list:
    """``module.name`` of each public module-level function or class that
    no other statement of the package reads."""
    statements = []                          # (module, top-level node)
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        statements += [(path.stem, node) for node in tree.body]
    reads = [_names_read(node) for _, node in statements]
    unread = []
    for i, (module, node) in enumerate(statements):
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_"):
            continue
        if not any(node.name in r for j, r in enumerate(reads) if j != i):
            unread.append(f"{module}.{node.name}")
    return unread


def test_every_public_definition_has_a_reader_in_src():
    assert _unread_public_definitions(SRC) == []


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
