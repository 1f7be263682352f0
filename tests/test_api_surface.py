"""Every public name of the package is used by the package or its benchmark.

A name in a module's `__all__` stays only if code in `src/hahnium` or in
`bench/` refers to it: as a name, an attribute, or a string constant that
is exactly the name (the benchmark looks functions up by name).  Its own
definition, a recursive call inside it and its `__all__` entry do not
count, and neither do the unit tests.  The package's own `__all__` lists
its modules, every one of them.  The sources are parsed, never imported.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hahnium"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def _is_all(node: ast.stmt) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _exports(tree: ast.Module) -> list:
    return [elt.value for node in tree.body if _is_all(node) for elt in node.value.elts]


def _references(tree: ast.Module):
    """(enclosing top-level definition or None, referenced name) pairs,
    with the `__all__` entries left out."""
    for top in tree.body:
        if _is_all(top):
            continue
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and _IDENTIFIER.fullmatch(node.value)):
                yield owner, node.value


def unused_exports() -> list:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    used = {
        (path, owner, name)
        for path, tree in trees.items()
        for owner, name in _references(tree)
    }
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE or path.name == "__init__.py":
            continue  # the package's __all__ lists submodules, not routines
        for name in _exports(tree):
            if not any(n == name and not (p == path and o == name)
                       for p, o, n in used):
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_public_name_has_a_caller():
    assert unused_exports() == []


def test_package_all_lists_every_module():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(_exports(init)) == sorted(modules)
