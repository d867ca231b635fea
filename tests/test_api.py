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
