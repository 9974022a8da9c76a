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


def _imported_packages(tree: ast.Module) -> set[str]:
    """Top-level names of the absolute imports anywhere in a module, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_only_bo_imports_scipy():
    # scipy costs about 1 s and 60 MB to import; no command but a `bo` run needs it.
    importers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "scipy" in _imported_packages(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert importers == ["aerobench/optimizers/bo.py"]


def test_the_scipy_check_sees_imports_in_functions_and_skips_relative_ones():
    tree = ast.parse("import a.b\nfrom c.d import e\nfrom . import f\ndef g():\n    import h\n")
    assert _imported_packages(tree) == {"a", "c", "h"}
