"""Checks on the source tree itself, read with `ast` only."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads; a name listed in `__all__` counts as read."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports_under_src():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        unused = _unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if unused:
            found[str(path.relative_to(SRC))] = unused
    assert found == {}


def test_the_check_sees_an_unused_import_and_honours_all():
    tree = ast.parse("import os\nimport sys as system\nfrom a.b import c, d\n__all__ = ['d']\nsystem.exit(c)\n")
    assert _unused_imports(tree) == ["os (line 1)"]
