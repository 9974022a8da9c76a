"""What a command imports: only a `bo` run loads scipy, and none loads jsonschema.

Each case runs in a fresh interpreter, because this test process has long
since imported scipy itself.
"""
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "golden_car_snapshot.json"

_RUN = "from aerobench.cli import main\nassert main({argv!r}) == {code}\n"
_GRID = ["run", "--task", "delta-ld-single", "--seeds", "0", "--out", "runs"]

CASES = {
    "import-cli": "import aerobench.cli\n",
    "list": _RUN.format(argv=["list"], code=0),
    # The golden design has three geometry warnings, so diagnose exits 2.
    "diagnose": _RUN.format(
        argv=["diagnose", "--design", "design.json", "--metrics", "metrics.json",
              "--task", "car-drag-single"],
        code=2,
    ),
    "run-pso": _RUN.format(argv=[*_GRID, "--method", "pso", "--budget", "10"], code=0),
}


def _loaded_after(prefix: str | tuple[str, ...], code: str, cwd: pathlib.Path) -> list[str]:
    """The modules in `sys.modules` whose names start with `prefix` (one or a
    tuple) after `code` runs in a fresh interpreter in `cwd`."""
    report = f"import json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))\n"
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code + report],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture()
def golden_inputs(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    (tmp_path / "design.json").write_text(json.dumps(golden["design_params"]))
    (tmp_path / "metrics.json").write_text(json.dumps(golden["metrics"]))
    return tmp_path


@pytest.mark.parametrize("case", sorted(CASES))
def test_command_loads_no_scipy(case, golden_inputs):
    # Nor jsonschema: bundles are valid by construction and never checked at run time.
    assert _loaded_after(("scipy", "jsonschema"), CASES[case], golden_inputs) == []


def test_bo_run_loads_scipy_and_completes(tmp_path):
    # Budget 33 fits the GP on three rounds past the 30-point initial design.
    code = _RUN.format(argv=[*_GRID, "--method", "bo", "--budget", "33"], code=0)
    assert "scipy.stats" in _loaded_after("scipy", code, tmp_path)
    with open(tmp_path / "runs" / "delta-ld-single" / "bo" / "seed0" / "results.csv") as fh:
        assert len(fh.read().splitlines()) == 1 + 33
