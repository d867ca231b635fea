"""Guard against public API that nothing in the library uses."""

import ast
from pathlib import Path

import ksr

SRC = Path(ksr.__file__).parent

# entry points called from outside the package
EXEMPT = {"cli.main"}


def test_every_public_name_is_used_in_the_package():
    """Each public module-level function or class of ``ksr`` must be
    referenced somewhere in the package besides its own definition and
    its ``__all__`` entry.

    A reference is any name or attribute access with the same spelling,
    in any module.  Limits: methods and properties are not checked, and
    a name defined in two modules (``to_json`` in two modules, say)
    counts as used as soon as either copy is used.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    )
    assert [name for name in unused if name not in EXEMPT] == []


def _private_reads(tree):
    """(line, name) of each ``_``-prefixed attribute this module reads from
    another ``ksr`` module, through a module alias (``gf._x``) or a
    relative import (``from .gridfn import _x``).  Dunder names are not
    private."""
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    aliases.add(alias.asname or alias.name)
                elif alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    """What one ``ksr`` module needs from another goes through a public
    name, so that a private helper can change without breaking a caller."""
    reads = {
        f"{path.name}:{line} {name}"
        for path in sorted(SRC.glob("*.py"))
        for line, name in _private_reads(ast.parse(path.read_text()))
    }
    assert sorted(reads) == []


#: what the grid layer may read from ``lspace``: the names of its two
#: models and the width tolerance of a Hukuhara difference
GRID_READS_FROM_LSPACE = {"REAL", "INTERVAL", "EQ_TOL", "width_tol"}


def _lspace_reads(tree):
    """(line, name) of each name this module takes from ``lspace``: by
    ``from .lspace import name``, or as an attribute of a module alias
    (``from . import lspace as ls`` then ``ls.name``)."""
    aliases = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name == "lspace":
                    aliases.add(alias.asname or alias.name)
                elif node.module == "lspace":
                    found.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in aliases:
            found.append((node.lineno, node.attr))
    return found


def test_grid_layer_reads_only_model_names_and_the_width_tolerance():
    """``gridfn`` works on rows, not on ``lspace`` elements: it builds no
    ``Element`` and calls none of the element algebra."""
    tree = ast.parse((SRC / "gridfn.py").read_text())
    assert {name for _, name in _lspace_reads(tree)} == GRID_READS_FROM_LSPACE
    # and no absolute import (``import ksr.lspace``) gets round the aliases
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Import)
                and any("lspace" in alias.name for alias in node.names)]
