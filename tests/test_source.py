"""Checks on the source tree itself, read with `ast` (and `tomllib`) only."""
import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


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


def _importers(package: str) -> list[str]:
    """The modules under `src/` that import `package`, relative to `src/`."""
    return [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if package in _imported_packages(_tree(path))
    ]


def test_only_bo_imports_scipy():
    # scipy costs about 1 s and 60 MB to import; no command but a `bo` run needs it.
    assert _importers("scipy") == ["aerobench/optimizers/bo.py"]


def test_no_module_under_src_imports_jsonschema():
    # Bundles are valid by construction; only tests and perfbench check them against the schema.
    assert _importers("jsonschema") == []


def test_the_scipy_check_sees_imports_in_functions_and_skips_relative_ones():
    tree = ast.parse("import a.b\nfrom c.d import e\nfrom . import f\ndef g():\n    import h\n")
    assert _imported_packages(tree) == {"a", "c", "h"}


def _imports_module(tree: ast.Module, module: str) -> bool:
    """Whether an absolute import anywhere in a module loads `module` or one of its submodules;
    `from a import b` may load the submodule `a.b`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
    return any(name == module or name.startswith(module + ".") for name in names)


def test_no_module_under_src_imports_scipy_stats():
    # `bo` builds its Sobol candidates itself; scipy.stats alone costs about 0.5 s to import.
    importers = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py")) if _imports_module(_tree(p), "scipy.stats")]
    assert importers == []


@pytest.mark.parametrize(
    "source, imports",
    [
        ("import scipy.stats\n", True),
        ("from scipy.stats import qmc\n", True),
        ("from scipy import stats\n", True),
        ("def f():\n    from scipy.stats.qmc import Sobol\n", True),
        ("import scipy.special\nfrom scipy.linalg import lapack\n", False),
        ("import scipy.statsmodels\nfrom . import stats\n", False),
    ],
)
def test_the_scipy_stats_check_sees_every_form_of_import(source, imports):
    assert _imports_module(ast.parse(source), "scipy.stats") is imports


OPTIMIZERS = SRC / "aerobench" / "optimizers"
METHOD_MODULES = sorted(p for p in OPTIMIZERS.glob("*.py") if p.stem not in ("__init__", "base"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_every_method_module_defines_defaults_check_and_run():
    assert [p.stem for p in METHOD_MODULES] == ["bo", "cmaes", "evolve", "lbfgsb", "pso"]
    for path in METHOD_MODULES:
        body = _tree(path).body
        functions = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        assigned = {
            t.id for node in body if isinstance(node, ast.Assign) for t in node.targets if isinstance(t, ast.Name)
        }
        assert {"check", "run"} <= functions and "DEFAULTS" in assigned, path.stem


def _config_fields(tree: ast.Module) -> list[str]:
    """The annotated fields `OptimizerConfig` declares, in order."""
    (cls,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "OptimizerConfig"]
    return [node.target.id for node in cls.body if isinstance(node, ast.AnnAssign)]


def test_a_config_is_a_method_a_budget_and_a_seed():
    # A method runs at one fixed configuration; no run sets an option.
    assert _config_fields(_tree(OPTIMIZERS / "__init__.py")) == ["method", "budget", "seed"]


def _settings_faults(tree: ast.Module) -> list[str]:
    """Where a method module's settings and its reads of them disagree.

    The settings are the keys of its top-level `DEFAULTS` dict. A read is a
    subscript of `DEFAULTS`. Every key must be read as `DEFAULTS["key"]`, and
    every read must name a key as a string constant.
    """
    (defaults,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["DEFAULTS"]
    ]
    keys = {key.value for key in defaults.keys}
    faults, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "DEFAULTS":
            key = node.slice.value if isinstance(node.slice, ast.Constant) else None
            if key in keys:
                read.add(key)
            else:
                faults.append(f"{node.value.id}[{ast.unparse(node.slice)}] (line {node.lineno})")
    return sorted(faults) + [f"unread {key}" for key in sorted(keys - read)]


def test_every_setting_of_a_method_is_read_and_every_read_is_a_setting():
    found = {p.stem: _settings_faults(_tree(p)) for p in METHOD_MODULES}
    assert {stem: faults for stem, faults in found.items() if faults} == {}


def test_the_settings_check_sees_unread_keys_and_unknown_reads():
    tree = ast.parse(
        'DEFAULTS = {"a": 1, "b": 2, "c": 3}\n'
        'x = DEFAULTS["a"] + opts["c"] + DEFAULTS["d"] + DEFAULTS[name] + other["b"]\n'
    )
    # opts["c"] is not a read: a method reads its settings from DEFAULTS alone.
    assert _settings_faults(tree) == ["DEFAULTS['d'] (line 2)", "DEFAULTS[name] (line 2)", "unread b", "unread c"]


def _parameters(tree: ast.Module) -> dict[str, list[str]]:
    """Every parameter name of a module's top-level `check` and `run`, keyword-only and starred ones too."""
    return {
        node.name: [
            arg.arg for arg in (*node.args.posonlyargs, *node.args.args, node.args.vararg,
                                *node.args.kwonlyargs, node.args.kwarg) if arg
        ]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("check", "run")
    }


def test_no_method_takes_options():
    for path in METHOD_MODULES:
        assert _parameters(_tree(path)) == {
            "check": ["space"], "run": ["dim", "rng", "warm", "budget", "warn"]
        }, path.stem


def test_the_parameter_check_reads_check_and_run_only():
    tree = ast.parse("def check(space, **opts): pass\ndef run(dim, *, opts=None): pass\ndef fit(self, rng, opts): pass\n")
    assert _parameters(tree) == {"check": ["space", "opts"], "run": ["dim", "opts"]}


def _method_name_comparisons(tree: ast.Module) -> list[int]:
    """Lines that compare `config.method` with a string literal."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(
            isinstance(side, ast.Attribute) and side.attr == "method"
            for side in (node.left, *node.comparators)
        )
        and any(
            isinstance(side, ast.Constant) and isinstance(side.value, str)
            for side in (node.left, *node.comparators)
        )
    ]


def test_the_driver_names_no_method():
    assert _method_name_comparisons(_tree(OPTIMIZERS / "__init__.py")) == []


def test_the_method_name_check_sees_a_comparison():
    tree = ast.parse('if config.method == "lbfgsb":\n    f()\nif config.method in names:\n    f()\n')
    assert _method_name_comparisons(tree) == [1]


RUN_DIR_FILES = {"results.csv", "resolved_config.json", "best_design.json", "warnings.txt", "manifest.json"}


def _run_dir_file_names(tree: ast.Module) -> list[int]:
    """Lines of string constants that are exactly a run-directory file name."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in RUN_DIR_FILES
    ]


def test_only_analytics_names_the_run_directory_files():
    # analytics writes and reads the run directory; a second module naming its files is a second owner.
    namers = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py")) if _run_dir_file_names(_tree(p))]
    assert namers == ["aerobench/analytics.py"]


def test_the_file_name_check_matches_whole_constants_only():
    tree = ast.parse('"""Writes results.csv."""\nopen("results.csv")\nx = "manifest.json.bak"\ny = f"{d}/warnings.txt"\n')
    assert _run_dir_file_names(tree) == [2]


EVALUATOR_HOOKS = {"batch_metrics", "reply_ms"}


def _evaluator_hook_names(tree: ast.Module) -> list[int]:
    """Lines that name an evaluator hook as an attribute, a name, a definition, an argument or a whole string."""
    found = set()
    for node in ast.walk(tree):
        names = {getattr(node, field, None) for field in ("attr", "id", "name", "arg")}
        if isinstance(node, ast.Constant):
            names.add(node.value)
        if names & EVALUATOR_HOOKS:
            found.add(node.lineno)
    return sorted(found)


def test_only_problems_reads_an_evaluator():
    # The environment reads every evaluator's answer; a second reader outside problems/ is a second owner.
    readers = [
        str(p.relative_to(SRC))
        for p in sorted(SRC.rglob("*.py"))
        if "problems" not in p.relative_to(SRC).parts and _evaluator_hook_names(_tree(p))
    ]
    assert readers == []


def test_the_hook_check_sees_every_way_of_naming_a_hook_but_prose():
    tree = ast.parse(
        '"""Calls batch_metrics."""\n'
        "ev.batch_metrics(p, o)\n"
        'getattr(ev, "reply_ms")\n'
        "def batch_metrics(): pass\n"
        "reply_ms = []\n"
        "f(reply_ms=1)\n"
        "x = ev.reply_ms_total\n"
    )
    assert _evaluator_hook_names(tree) == [2, 3, 4, 5, 6]


def _handler_owners(tree: ast.Module) -> dict[ast.ExceptHandler, str]:
    """Each `except` handler inside a function, and the name of the innermost function holding it."""
    owner = {}
    for func in ast.walk(tree):  # outer functions come first, so an inner one overwrites them
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func) if isinstance(node, ast.ExceptHandler))
    return owner


def _exit_one_handlers(tree: ast.Module) -> list[str]:
    """Per `except` handler that returns 1, the name of the innermost function holding it."""
    owner = _handler_owners(tree)
    return [
        owner.get(handler, "<module>")
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler)
        and any(
            isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and node.value.value == 1
            for node in ast.walk(handler)
        )
    ]


def test_only_main_turns_a_refusal_into_exit_one():
    # A command raises on what it cannot use; a second handler that exits 1 is a second owner.
    assert _exit_one_handlers(_tree(SRC / "aerobench" / "cli.py")) == ["main"]


def test_the_exit_check_sees_every_handler_that_returns_one():
    tree = ast.parse(
        "def main():\n"
        "    try:\n        run()\n    except ValueError:\n        return 1\n"
        "def cmd():\n"
        "    try:\n        f()\n    except KeyError:\n        return 2\n"
        "    except OSError as exc:\n        print(exc)\n        return 1\n"
        "    def inner():\n"
        "        try:\n            g()\n        except csv.Error:\n            return 1\n"
    )
    assert _exit_one_handlers(tree) == ["main", "cmd", "inner"]


def _handlers_not_ending_in_raise(tree: ast.Module) -> list[str]:
    """Per `except` handler whose last statement is not a `raise`, the name of the innermost function holding it."""
    owner = _handler_owners(tree)
    return [
        owner.get(handler, "<module>")
        for handler in ast.walk(tree)
        if isinstance(handler, ast.ExceptHandler) and not isinstance(handler.body[-1], ast.Raise)
    ]


def test_every_handler_in_cli_outside_main_ends_by_raising():
    # A handler that ends otherwise turns a refusal into a value, a print or a skipped step; only main reports one.
    assert _handlers_not_ending_in_raise(_tree(SRC / "aerobench" / "cli.py")) == ["main"]


def test_the_raise_check_sees_every_handler_that_does_not_end_by_raising():
    tree = ast.parse(
        "def main():\n"
        "    try:\n        run()\n    except ValueError:\n        return 1\n"
        "def cmd():\n"
        "    try:\n        f()\n    except KeyError as exc:\n        raise ValueError(exc) from None\n"
        "    except OSError:\n        raise\n"
        "    except TypeError:\n        if strict:\n            raise\n"
        "    def inner():\n"
        "        try:\n            g()\n        except csv.Error as exc:\n            return str(exc)\n"
    )
    assert _handlers_not_ending_in_raise(tree) == ["main", "cmd", "inner"]


def _child_starts(tree: ast.Module) -> list[int]:
    """Lines that call `SubprocessEvaluator`, by its name or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and "SubprocessEvaluator" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def _subproc_imports(tree: ast.Module) -> list[int]:
    """Lines that import the `subproc` module or a name from it, relatively or not."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.ImportFrom)
            and ((node.module or "").split(".")[-1] == "subproc" or any(a.name == "subproc" for a in node.names))
        )
        or (isinstance(node, ast.Import) and any(a.name.split(".")[-1] == "subproc" for a in node.names))
    ]


def test_only_run_starts_an_evaluator_child():
    # `run` keeps one child per worker and closes it; a second module starting one is a second owner.
    starters = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py")) if _child_starts(_tree(p))]
    assert starters == ["aerobench/cli.py"]
    assert _subproc_imports(_tree(SRC / "aerobench" / "problems" / "catalog.py")) == []


def test_the_child_checks_see_calls_and_imports_but_not_names_or_prose():
    tree = ast.parse(
        '"""Starts SubprocessEvaluator(cmd)."""\n'
        "ev = SubprocessEvaluator(cmd)\n"
        "ev = subproc.SubprocessEvaluator(cmd)\n"
        "kind = SubprocessEvaluator\n"
        "from .subproc import A\n"
        "from . import subproc\n"
        "import aerobench.problems.subproc\n"
        "from .subprocess_tools import B\n"
    )
    assert _child_starts(tree) == [2, 3]
    assert _subproc_imports(tree) == [5, 6, 7]


ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(tree: ast.Module) -> list[int]:
    """Lines that read the process environment through `os` or import a reader from it."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READS and getattr(node.value, "id", None) == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os" and {a.name for a in node.names} & ENVIRONMENT_READS)
    )


def test_only_cli_reads_the_environment():
    # cli reads a command's inputs once; a module reading the environment at call time is a second reader.
    readers = [str(p.relative_to(SRC)) for p in sorted(SRC.rglob("*.py")) if _environment_reads(_tree(p))]
    assert readers == ["aerobench/cli.py"]


def test_the_environment_check_sees_reads_and_imports_but_not_prose():
    tree = ast.parse(
        '"""Reads os.environ."""\n'
        'path = os.environ.get("X")\n'
        'flag = os.getenv("Y")\n'
        "from os import environ\n"
        "from os import path\n"
        "name = environment.environ\n"
    )
    assert _environment_reads(tree) == [2, 3, 4]


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_package_version_is_read_from_aerobench():
    import tomllib

    with open(ROOT / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "aerobench.__version__"}
    assigned = [
        node.targets[0].id
        for node in _tree(SRC / "aerobench" / "__init__.py").body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    ]
    assert "__version__" in assigned
