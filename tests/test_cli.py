"""Command-line behavior: listing, run layout, reproducibility, exits."""
import csv
import hashlib
import json
import os
import shlex
import signal
import sys
import types

import pytest

import aerobench
from aerobench import analytics, cli, optimizers
from aerobench.analytics import RESULTS_HEADER
from aerobench.cli import main
from aerobench.problems import catalog
from aerobench.space import CONTINUOUS, DISCRETE


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _midpoint_design(space):
    values = {}
    for v in space.variables:
        if v.kind == CONTINUOUS:
            values[v.name] = 0.5 * (v.lower + v.upper)
        elif v.kind == DISCRETE:
            values[v.name] = v.levels[0]
        else:
            values[v.name] = v.levels[0]
    return values


# Serves delta-ld-single's stand-in metrics over the evaluator protocol.
_STAND_IN_SOLVER = """\
import json, sys
sys.path.insert(0, {src!r})
from aerobench.problems import catalog
from aerobench.space import DesignPoint
env = catalog.get_environment("delta-ld-single")
for line in sys.stdin:
    if line.strip():
        request = json.loads(line)
        point = DesignPoint.from_json(request["params"])
        metrics = env.evaluator.point_metrics(point, env.points[0], 0)
        print(json.dumps({{"id": request["id"], "metrics": metrics}}), flush=True)
"""

# Serves the stand-in metrics of the tasks named after its first three
# arguments (the aerobench source, a pid log and a mode), routing a request
# by its parameter names, and appends its pid to the log when it starts.
# Mode "errors" answers an error for the designs its parameters pick; mode
# "linger" stays alive after the end of its input.
_GRID_SOLVER = """\
import json, os, sys, time
src, log, mode, *tasks = sys.argv[1:]
sys.path.insert(0, src)
from aerobench.problems import catalog
from aerobench.space import DesignPoint
with open(log, "a") as fh:
    fh.write(f"{os.getpid()}\\n")
routes = {}
for task in tasks:
    env = catalog.get_environment(task)
    index = {}
    for k, op in enumerate(env.points):
        index.setdefault(json.dumps(op.to_json(), sort_keys=True), k)
    routes[frozenset(env.space.names)] = (env, index)
for line in sys.stdin:
    request = json.loads(line)
    env, index = routes[frozenset(request["params"])]
    if mode == "errors" and len(json.dumps(request["params"])) % 3 == 0:
        print(json.dumps({"id": request["id"], "error": "no convergence"}), flush=True)
        continue
    point = DesignPoint.from_json(request["params"])
    k = index[json.dumps(request["operating_point"], sort_keys=True)]
    metrics = env.evaluator.batch_metrics([point], env.points)[0][k]
    print(json.dumps({"id": request["id"], "metrics": metrics}), flush=True)
if mode == "linger":
    time.sleep(60)
"""


class TestList:
    def test_lists_all_tasks(self, capsys):
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == len(catalog.task_ids())

    def test_filter_kind_mixed(self, capsys):
        assert main(["list", "--filter", "kind=mixed", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["id"] for e in entries} == {"ceras-fuel-mixed", "sta-ld-mixed"}

    def test_filter_task(self, capsys):
        assert main(["list", "--filter", "task=car-drag-single", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert len(entries) == 1
        assert entries[0]["sense"] == "minimize"

    def test_filter_sense(self, capsys):
        assert main(["list", "--filter", "sense=maximize", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert entries and all(e["sense"] == "maximize" for e in entries)

    def test_unknown_filter_key(self, capsys):
        assert main(["list", "--filter", "color=red"]) == 1
        assert "unknown filter key" in capsys.readouterr().err

    def test_malformed_filter(self, capsys):
        assert main(["list", "--filter", "nonsense"]) == 1

    def test_filter_kind_continuous(self, capsys):
        assert main(["list", "--filter", "kind=continuous", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        # Every task but delta-ld-robust (discrete sweep, categorical airfoil)
        # has a continuous variable.
        assert {e["id"] for e in entries} == set(catalog.task_ids()) - {"delta-ld-robust"}


def _override_space(mutate):
    space = catalog.get_environment("delta-ld-robust").space.to_json()
    mutate(space["variables"])
    return space


# Catalog override files that every command refuses, with a part of the
# message; each names delta-ld-robust, the task `run` and `diagnose` use, or
# misspells it.
BAD_OVERRIDES = {
    "unknown-level": (
        {"tasks": {"delta-ld-robust": {"space": _override_space(
            lambda vs: vs[0].update(levels=[55.0, 60.0, 65.0, 70.0, 75.0]))}}},
        "delta-ld-robust: sweep_angle must keep its kind and use only the task's levels",
    ),
    "kind-change": (
        {"tasks": {"delta-ld-robust": {"space": _override_space(
            lambda vs: vs[0].update(kind="categorical", levels=["55", "65", "75"]))}}},
        "delta-ld-robust: sweep_angle must keep its kind",
    ),
    "top-level-list": (
        [{"id": "delta-ld-robust", "space": _override_space(lambda vs: None)}],
        'needs an object with a "tasks" list or mapping',
    ),
    "no-tasks": ({"task": {}}, 'needs an object with a "tasks" list or mapping'),
    "tasks-int": ({"tasks": 5}, 'needs an object with a "tasks" list or mapping'),
    "entry-without-id": (
        {"tasks": [{"space": _override_space(lambda vs: None)}]}, "missing key 'id'",
    ),
    "entry-without-space": ({"tasks": [{"id": "delta-ld-robust"}]}, "missing key 'space'"),
    "variable-without-name": (
        {"tasks": {"delta-ld-robust": {"space": _override_space(lambda vs: vs[1].pop("name"))}}},
        "missing key 'name'",
    ),
    "unknown-task": (
        {"tasks": {"delta-ld-robsut": {"space": _override_space(lambda vs: None)}}},
        "unknown task 'delta-ld-robsut'",
    ),
    "not-json": ("{", "Expecting property name"),
    "missing-file": (None, "No such file or directory"),
}


class TestOverrideRefused:
    def _command(self, name, tmp_path):
        """argv of `name`, and the output it must not write."""
        if name == "run":
            out = tmp_path / "runs"
            argv = ["run", "--task", "delta-ld-robust", "--method", "pso", "--seeds", "0",
                    "--budget", "5", "--out", str(out)]
        elif name == "diagnose":
            design, metrics, out = tmp_path / "design.json", tmp_path / "metrics.json", tmp_path / "bundle.json"
            design.write_text("{}")
            metrics.write_text("{}")
            argv = ["diagnose", "--design", str(design), "--metrics", str(metrics),
                    "--task", "delta-ld-robust", "--out", str(out)]
        else:
            out, argv = None, ["list"]
        return argv, out

    @pytest.mark.parametrize("command", ["run", "list", "diagnose"])
    @pytest.mark.parametrize("case", list(BAD_OVERRIDES))
    def test_error_and_nothing_written(self, tmp_path, capsys, monkeypatch, command, case):
        content, message = BAD_OVERRIDES[case]
        override = tmp_path / "override.json"
        if content is not None:
            override.write_text(content if isinstance(content, str) else json.dumps(content))
        monkeypatch.setenv(catalog.CATALOG_ENV_VAR, str(override))
        argv, out = self._command(command, tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(override) in captured.err and message in captured.err
        assert captured.out == ""
        assert out is None or not out.exists()


class TestRun:
    def _run(self, out, extra=()):
        return main(
            [
                "run",
                "--task", "delta-ld-single",
                "--method", "pso",
                "--seeds", "0,1",
                "--budget", "40",
                "--out", str(out),
                *extra,
            ]
        )

    def test_layout_and_results(self, tmp_path, capsys):
        out = tmp_path / "runs"
        assert self._run(out) == 0
        assert (out / "manifest.json").exists()
        for seed in (0, 1):
            d = out / "delta-ld-single" / "pso" / f"seed{seed}"
            assert (d / "resolved_config.json").exists()
            assert (d / "best_design.json").exists()
            with open(d / "results.csv", newline="") as fh:
                rows = list(csv.reader(fh))
            assert tuple(rows[0]) == RESULTS_HEADER
            assert len(rows) - 1 == 40
            # n_evals is the 1-based running count.
            assert [int(r[5]) for r in rows[1:]] == list(range(1, 41))

    def test_evaluator_that_cannot_start_gives_error_rows(self, tmp_path):
        out = tmp_path / "runs"
        missing = str(tmp_path / "no-such-solver")
        assert self._run(out, ["--seeds", "0", "--budget", "5", "--evaluator", missing]) == 0
        with open(out / "delta-ld-single" / "pso" / "seed0" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert all(r["reward"] == "" for r in rows)

    def test_evaluator_metric_that_is_not_a_number_gives_error_rows(self, tmp_path):
        # On car-drag-single a text drag coefficient once ended the run in a traceback.
        script = tmp_path / "text_metric.py"
        script.write_text(
            "import json, sys\nfor line in sys.stdin:\n"
            '    print(json.dumps({"id": json.loads(line)["id"], "metrics": {"Cd": "abc"}}), flush=True)\n'
        )
        out = tmp_path / "runs"
        command = shlex.join([sys.executable, str(script)])
        extra = ["--task", "car-drag-single", "--seeds", "0", "--budget", "5", "--evaluator", command]
        assert self._run(out, extra) == 0
        with open(out / "car-drag-single" / "pso" / "seed0" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert all(r["reward"] == "" and r["feasible"] == "False" for r in rows)

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "runs"
        self._run(out)
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["tasks"] == ["delta-ld-single"]
        assert manifest["methods"] == ["pso"]
        assert manifest["seeds"] == [0, 1]
        assert manifest["budget"] == 40
        assert "catalog_version" in manifest and "harness_version" in manifest

    @pytest.mark.parametrize("override", [False, True], ids=["own-space", "override"])
    @pytest.mark.parametrize("warmstart", [False, True], ids=["cold", "warm"])
    def test_manifest_records_the_inputs_that_change_rewards(self, tmp_path, monkeypatch, override, warmstart):
        # Both inputs change a run's rewards, so the manifest names each by path and content.
        monkeypatch.chdir(tmp_path)
        extra = ["--seeds", "0", "--budget", "5"]
        expected = {"catalog_override": None, "warmstart": None}
        if override:
            space = catalog.get_environment("delta-ld-single").space.to_json()
            space["variables"][0]["lower"] = 50.0  # sweep_angle
            (tmp_path / "override.json").write_text(json.dumps({"tasks": {"delta-ld-single": {"space": space}}}))
            monkeypatch.setenv(catalog.CATALOG_ENV_VAR, "override.json")
            expected["catalog_override"] = "override.json"
        if warmstart:
            (tmp_path / "warm.csv").write_text("sweep_angle,root_airfoil\n60,NACA2416\n")
            extra += ["--warmstart", "warm.csv"]
            expected["warmstart"] = "warm.csv"
        for key, name in expected.items():
            if name is not None:
                digest = hashlib.sha256(_read(tmp_path / name)).hexdigest()
                expected[key] = {"path": os.path.join(os.getcwd(), name), "sha256": digest}
        assert self._run("runs", extra) == 0
        manifest = json.loads(_read(tmp_path / "runs" / "manifest.json"))
        assert {key: manifest[key] for key in expected} == expected

    @pytest.mark.parametrize("rewrite", ["narrowed", "malformed"])
    def test_every_cell_searches_the_override_the_manifest_records(self, tmp_path, monkeypatch, rewrite):
        # The override is read once, before the manifest, so a file rewritten
        # after the first cell changes no cell and refuses none.
        space = catalog.get_environment("car-drag-single").space.to_json()
        car_size = next(var for var in space["variables"] if var["name"] == "car_size")
        override = tmp_path / "override.json"
        override.write_text(json.dumps({"tasks": {"car-drag-single": {"space": space}}}))
        car_size.update(lower=1.1, upper=1.2)
        rewritten = "{" if rewrite == "malformed" else json.dumps({"tasks": {"car-drag-single": {"space": space}}})
        monkeypatch.setenv(catalog.CATALOG_ENV_VAR, str(override))
        grid = ["--task", "car-drag-single", "--seeds", "0,1", "--budget", "8"]
        assert self._run(tmp_path / "steady", grid) == 0
        read = _read(override)

        write_run_dir = analytics.write_run_dir

        def write_then_rewrite(*args):
            write_run_dir(*args)
            override.write_text(rewritten)

        monkeypatch.setattr(analytics, "write_run_dir", write_then_rewrite)
        assert self._run(tmp_path / "changed", grid) == 0
        manifest = json.loads(_read(tmp_path / "changed" / "manifest.json"))
        assert manifest["catalog_override"]["sha256"] == hashlib.sha256(read).hexdigest()
        for seed in (0, 1):
            for name in ("results.csv", "best_design.json"):
                cell = os.path.join("car-drag-single", "pso", f"seed{seed}", name)
                assert _read(tmp_path / "changed" / cell) == _read(tmp_path / "steady" / cell)

    def test_quoted_evaluator_command_runs_and_is_recorded(self, tmp_path):
        # A script path with a space, quoted as a shell would take it, that
        # serves the stand-in's own metrics: the rewards equal a stand-in run.
        script = tmp_path / "my solver.py"
        script.write_text(_STAND_IN_SOLVER.format(src=os.path.dirname(os.path.dirname(aerobench.__file__))))
        command = f'{shlex.quote(sys.executable)} "{script}"'
        wired, stand_in = tmp_path / "wired", tmp_path / "stand_in"
        assert self._run(wired, ["--seeds", "0", "--budget", "6", "--evaluator", command]) == 0
        assert self._run(stand_in, ["--seeds", "0", "--budget", "6"]) == 0
        rewards = []
        for root in (wired, stand_in):
            with open(root / "delta-ld-single" / "pso" / "seed0" / "results.csv", newline="") as fh:
                rewards.append([row["reward"] for row in csv.DictReader(fh)])
        assert rewards[0] == rewards[1] and all(rewards[0])
        manifests = [json.loads(_read(root / "manifest.json")) for root in (wired, stand_in)]
        assert [m["evaluator"] for m in manifests] == [[sys.executable, str(script)], None]

    @pytest.mark.parametrize(
        "command, message",
        [
            (" ", "--evaluator is blank"),
            ("", "--evaluator is blank"),
            ('python3 "my solver.py', "No closing quotation"),
        ],
        ids=["space", "empty", "unbalanced-quote"],
    )
    def test_bad_evaluator_command_writes_nothing(self, tmp_path, capsys, command, message):
        out = tmp_path / "runs"
        assert self._run(out, ["--seeds", "0", "--budget", "5", "--evaluator", command]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_repeat_run_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self._run(a) == 0
        assert self._run(b) == 0
        for seed in (0, 1):
            rel = os.path.join("delta-ld-single", "pso", f"seed{seed}")
            assert _read(a / rel / "results.csv") == _read(b / rel / "results.csv")
            assert _read(a / rel / "best_design.json") == _read(
                b / rel / "best_design.json"
            )

    def test_parallel_matches_serial(self, tmp_path):
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert self._run(serial) == 0
        assert main(
            [
                "run",
                "--task", "delta-ld-single",
                "--method", "pso,evolve",
                "--seeds", "0",
                "--budget", "30",
                "--out", str(parallel),
                "--jobs", "2",
            ]
        ) == 0
        # Re-run the same grid serially and compare bytes.
        serial2 = tmp_path / "s2"
        assert main(
            [
                "run",
                "--task", "delta-ld-single",
                "--method", "pso,evolve",
                "--seeds", "0",
                "--budget", "30",
                "--out", str(serial2),
            ]
        ) == 0
        for method in ("pso", "evolve"):
            rel = os.path.join("delta-ld-single", method, "seed0")
            assert _read(parallel / rel / "results.csv") == _read(
                serial2 / rel / "results.csv"
            )

    @pytest.mark.parametrize("first", ["runs", "runs/a"])
    def test_an_out_that_holds_a_grid_is_refused_and_left_as_it_was(self, tmp_path, capsys, first):
        # A second grid's cells would sit beside the first's, and compare would rank them all.
        out = tmp_path / "runs"
        assert self._run(tmp_path / first, ["--method", "pso,cmaes", "--seeds", "0", "--budget", "5"]) == 0
        capsys.readouterr()
        before = _files(out)
        assert self._run(out, ["--method", "pso,evolve", "--seeds", "0", "--budget", "5"]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {out} already holds ")
        assert captured.out == ""
        assert _files(out) == before

    def test_unknown_task_and_method(self, tmp_path, capsys):
        assert main(
            ["run", "--task", "nope", "--method", "pso", "--seeds", "0",
             "--budget", "5", "--out", str(tmp_path / "x")]
        ) == 1
        assert main(
            ["run", "--task", "delta-ld-single", "--method", "nope", "--seeds", "0",
             "--budget", "5", "--out", str(tmp_path / "y")]
        ) == 1

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--seeds=-1"], "seed -1 is not a Philox key"),
            (["--budget", "0"], "budget must be >= 1"),
            (["--method", "pso,sgd"], "unknown method 'sgd'"),
            (["--seeds", "3-1"], "seed range '3-1' is empty"),
            (["--seeds", "0,3-1"], "seed range '3-1' is empty"),
        ],
        ids=["negative-seed", "zero-budget", "unknown-method", "reversed-range", "reversed-range-in-list"],
    )
    def test_bad_grid_writes_nothing(self, tmp_path, capsys, extra, message):
        # Every (method, seed) configuration is checked before the manifest.
        out = tmp_path / "runs"
        assert self._run(out, extra=extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--task", "delta-ld-single,delta-ld-single"], "duplicate tasks: delta-ld-single"),
            (["--method", "pso,evolve,pso"], "duplicate methods: pso"),
            (["--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["--jobs=-2"], "--jobs must be >= 1, got -2"),
        ],
        ids=["duplicate-task", "duplicate-method", "zero-jobs", "negative-jobs"],
    )
    def test_repeated_cell_or_bad_job_count_writes_nothing(self, tmp_path, capsys, extra, message):
        # A repeated task or method would run one cell twice into one directory.
        out = tmp_path / "runs"
        assert self._run(out, extra=extra) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not out.exists()

    def test_seed_range_and_duplicates(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert main(
            ["run", "--task", "delta-ld-single", "--method", "evolve",
             "--seeds", "0-2", "--budget", "10", "--out", str(out)]
        ) == 0
        assert sorted(os.listdir(out / "delta-ld-single" / "evolve")) == [
            "seed0", "seed1", "seed2",
        ]
        assert main(
            ["run", "--task", "delta-ld-single", "--method", "evolve",
             "--seeds", "0,0", "--budget", "10", "--out", str(tmp_path / "z")]
        ) == 1

    def test_method_warnings_go_to_warnings_txt(self, tmp_path, monkeypatch):
        def stub(warnings):
            # Warns, then proposes nothing: the budget goes to uniform samples.
            def run(dim, rng, warm, budget, warn):
                for message in warnings:
                    warn(message)
                return
                yield

            return types.SimpleNamespace(DEFAULTS={}, check=lambda space: None, run=run)

        cells = {}
        for case, warnings in (("quiet", []), ("warned", ["first warning", "second warning"])):
            monkeypatch.setitem(optimizers._METHODS, "pso", stub(warnings))
            assert self._run(tmp_path / case) == 0
            cells[case] = tmp_path / case / "delta-ld-single" / "pso" / "seed0"
        assert not (cells["quiet"] / "warnings.txt").exists()
        assert (cells["warned"] / "warnings.txt").read_text() == "first warning\nsecond warning\n"
        assert _read(cells["quiet"] / "results.csv") == _read(cells["warned"] / "results.csv")

    def test_a_method_that_refuses_one_task_refuses_the_grid_before_writing(self, tmp_path, capsys, monkeypatch):
        pso = optimizers._method("pso")
        refused = catalog.get_environment("car-drag-single").space.names

        def check(space):
            if space.names == refused:
                raise optimizers.ConfigurationError("does not apply to this space")

        stub = types.SimpleNamespace(DEFAULTS=pso.DEFAULTS, check=check, run=pso.run)
        monkeypatch.setitem(optimizers._METHODS, "pso", stub)
        argv = ["run", "--task", "delta-ld-single,car-drag-single", "--method", "pso", "--seeds", "0",
                "--budget", "5", "--out", str(tmp_path / "runs")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: car-drag-single/pso: does not apply to this space\n"
        assert captured.out == ""
        assert _files(tmp_path) == {}

    def test_warmstart_csv(self, tmp_path):
        env = catalog.get_environment("delta-ld-single")
        try:
            design = _midpoint_design(env.space)
        finally:
            env.close()
        warm_csv = tmp_path / "warm.csv"
        with open(warm_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(design))
            writer.writeheader()
            writer.writerow(design)
        out = tmp_path / "runs"
        assert self._run(out, extra=["--warmstart", str(warm_csv)]) == 0
        d = out / "delta-ld-single" / "pso" / "seed0"
        with open(d / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 40
        cfg = json.loads(_read(d / "resolved_config.json"))
        assert cfg["n_warmstart"] == 1

    def test_warmstart_csv_with_a_byte_order_mark(self, tmp_path):
        # The mark is not part of the first column's name; the manifest hashes the file's raw bytes.
        rows = b"sweep_angle,root_airfoil\n60,NACA2416\n"
        (tmp_path / "plain.csv").write_bytes(rows)
        (tmp_path / "marked.csv").write_bytes(b"\xef\xbb\xbf" + rows)
        for name in ("plain", "marked"):
            extra = ["--seeds", "0", "--budget", "5", "--warmstart", str(tmp_path / f"{name}.csv")]
            assert self._run(tmp_path / name, extra) == 0
        manifest = json.loads(_read(tmp_path / "marked" / "manifest.json"))
        assert manifest["warmstart"]["sha256"] == hashlib.sha256(b"\xef\xbb\xbf" + rows).hexdigest()
        cells = [tmp_path / name / "delta-ld-single" / "pso" / "seed0" for name in ("plain", "marked")]
        assert json.loads(_read(cells[1] / "resolved_config.json"))["n_warmstart"] == 1
        assert _read(cells[0] / "results.csv") == _read(cells[1] / "results.csv")

    @pytest.mark.parametrize(
        "tasks, rows, message",
        [
            ("delta-ld-single", None, "No such file or directory"),
            ("delta-ld-single", [{"sweep_angle": "60"}],
             "warm-start row 1 for delta-ld-single: missing value for 'root_airfoil'"),
            ("delta-ld-single", [{"sweep_angle": "60", "root_airfoil": "NACA2416"},
                                 {"sweep_angle": "abc", "root_airfoil": "NACA2416"}],
             "warm-start row 2 for delta-ld-single: sweep_angle: value 'abc' is not a number"),
            ("delta-ld-robust", [{"sweep_angle": "nan", "root_airfoil": "NACA2416"}],
             "warm-start row 1 for delta-ld-robust: sweep_angle: value must not be NaN"),
            ("delta-ld-single", [{"sweep_angle": "60", "root_airfoil": "NACA9999"}],
             "warm-start row 1 for delta-ld-single: root_airfoil: unknown level 'NACA9999'"),
            ("delta-ld-single,car-drag-single", [{"sweep_angle": "60", "root_airfoil": "NACA2416"}],
             "warm-start row 1 for car-drag-single: missing value for"),
        ],
    )
    def test_warmstart_that_does_not_fit_writes_nothing(self, tmp_path, capsys, tasks, rows, message):
        warm_csv = tmp_path / "warm.csv"
        if rows is not None:
            with open(warm_csv, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
                writer.writeheader()
                writer.writerows(rows)
        out = tmp_path / "runs"
        argv = ["--task", tasks, "--seeds", "0", "--budget", "5", "--warmstart", str(warm_csv)]
        assert self._run(out, extra=argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (out / "manifest.json").exists()


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestOneChildPerWorker:
    """`run --evaluator` starts at most one child per worker and stops it when the worker ends."""

    TASKS = ("delta-ld-single", "car-drag-single")

    @pytest.fixture()
    def grid(self, tmp_path):
        """Runs a grid on the grid solver; returns its exit status and the pids it started."""
        script, log = tmp_path / "solver.py", tmp_path / "pids.txt"
        script.write_text(_GRID_SOLVER)
        src = os.path.dirname(os.path.dirname(aerobench.__file__))
        started = []

        def run(out, mode="serve", jobs=1, methods="pso,cmaes", seeds="0-1", tasks=self.TASKS):
            log.write_text("")
            command = shlex.join([sys.executable, str(script), src, str(log), mode, *tasks])
            argv = ["run", "--task", ",".join(tasks), "--method", methods, "--seeds", seeds,
                    "--budget", "8", "--out", str(out), "--jobs", str(jobs), "--evaluator", command]
            code = main(argv)
            pids = [int(line) for line in log.read_text().split()]
            started.extend(pids)
            return code, pids

        yield run
        for pid in started:  # a failed check leaves no child behind
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)

    @staticmethod
    def _rows(out):
        """Per results.csv under `out`, by its path there: every row but its wall_ms."""
        found = {}
        for dirpath, _, filenames in os.walk(out):
            if "results.csv" in filenames:
                with open(os.path.join(dirpath, "results.csv"), newline="") as fh:
                    found[os.path.relpath(dirpath, out)] = [row[:-1] for row in csv.reader(fh)]
        return found

    @pytest.mark.parametrize("jobs, seeds, cells, workers", [(1, "0-1", 4, 1), (2, "0-1", 4, 2), (3, "0", 2, 2)])
    def test_one_child_per_worker_and_none_left_running(self, tmp_path, grid, jobs, seeds, cells, workers):
        # The child ignores the end of its input, so only terminating it ends it.
        code, pids = grid(tmp_path / "runs", mode="linger", jobs=jobs, seeds=seeds, methods="pso")
        assert code == 0
        # A worker that takes no cell starts no child.
        assert 1 <= len(pids) <= workers
        assert [pid for pid in pids if _alive(pid)] == []
        rows = self._rows(tmp_path / "runs")
        assert len(rows) == cells
        assert all(row[2] for cell in rows.values() for row in cell[1:])

    @pytest.mark.parametrize("mode", ["serve", "errors"])
    def test_results_match_a_child_per_cell(self, tmp_path, grid, mode):
        code, pids = grid(tmp_path / "grid", mode=mode, jobs=2, seeds="0")
        assert code == 0 and 1 <= len(pids) <= 2
        per_cell = {}
        for task in self.TASKS:
            for method in ("pso", "cmaes"):
                out = tmp_path / f"{task}-{method}"
                assert grid(out, mode=mode, methods=method, seeds="0", tasks=(task,))[0] == 0
                per_cell.update(self._rows(out))
        rows = self._rows(tmp_path / "grid")
        assert rows == per_cell and len(rows) == 4
        rewards = [row[2] for cell in rows.values() for row in cell[1:]]
        assert all(rewards) if mode == "serve" else "" in rewards and any(rewards)

    def test_a_child_killed_between_cells_costs_one_restart(self, tmp_path, grid, monkeypatch):
        code, _ = grid(tmp_path / "calm", methods="pso", seeds="0")
        assert code == 0
        execute = cli._execute_run
        log = tmp_path / "pids.txt"

        def kill_after(*cell):
            outcome = execute(*cell)
            os.kill(int(log.read_text().split()[-1]), signal.SIGKILL)
            return outcome

        monkeypatch.setattr(cli, "_execute_run", kill_after)
        code, pids = grid(tmp_path / "killed", methods="pso", seeds="0")
        assert code == 0
        assert len(pids) == 2  # the first child, then one restart for the second cell
        rows = self._rows(tmp_path / "killed")
        assert rows == self._rows(tmp_path / "calm")
        assert all(row[2] for cell in rows.values() for row in cell[1:])  # no error row


class TestCompare:
    @pytest.fixture()
    def run_root(self, tmp_path):
        out = tmp_path / "runs"
        assert main(
            [
                "run",
                "--task", "delta-ld-single,delta-ld-robust",
                "--method", "pso,evolve,cmaes",
                "--seeds", "0,1",
                "--budget", "30",
                "--out", str(out),
            ]
        ) == 0
        return out

    def test_outputs_written(self, run_root, tmp_path, capsys):
        cmp_dir = tmp_path / "cmp"
        assert main(["compare", str(run_root), "--out", str(cmp_dir)]) == 0
        assert (cmp_dir / "rank_table.csv").exists()
        assert (cmp_dir / "pairwise_rho.csv").exists()
        conv = os.listdir(cmp_dir / "convergence")
        assert len(conv) == 6  # 2 tasks x 3 methods
        with open(cmp_dir / "rank_table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "method"
        assert {r[0] for r in rows[1:]} == {"pso", "evolve", "cmaes"}

    def test_group_by_environment(self, run_root, tmp_path):
        cmp_dir = tmp_path / "cmp_env"
        assert main(
            ["compare", str(run_root), "--out", str(cmp_dir),
             "--group-by", "environment"]
        ) == 0
        with open(cmp_dir / "pairwise_rho.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        # Both tasks share the "delta" prefix, so one group remains.
        assert rows[0] == ["task", "delta"]
        # Convergence series stay per (task, method).
        assert len(os.listdir(cmp_dir / "convergence")) == 6

    def test_single_method_warns(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert main(["run", "--task", "delta-ld-single", "--method", "pso", "--seeds", "0",
                     "--budget", "10", "--out", str(runs)]) == 0
        capsys.readouterr()
        cmp_dir = tmp_path / "cmp"
        assert main(["compare", str(runs), "--out", str(cmp_dir)]) == 0
        assert capsys.readouterr().err == (
            "warning: single method; nothing to rank, so rank_table.csv reads N/A\n"
        )
        assert "N/A" in (cmp_dir / "rank_table.csv").read_text()

    def test_empty_root_fails(self, tmp_path, capsys):
        assert main(
            ["compare", str(tmp_path / "empty"), "--out", str(tmp_path / "o")]
        ) == 1

    @pytest.mark.parametrize(
        "config, reward, message",
        [
            ('{"task": "t", "method": "m", "seed": 0}', "1.0", "resolved_config.json has no budget"),
            ('{"task": "t", "method": "m", "se', "1.0", "resolved_config.json is not valid JSON"),
            ('["t", "m", 0, 5]', "1.0", "resolved_config.json must hold a JSON object"),
            ('{"task": "t", "method": "m", "seed": "0", "budget": 5}', "1.0", "seed must be an integer"),
            (None, "abc", "results.csv line 3: reward is not a finite number"),
            (None, "nan", "results.csv line 3: reward is not a finite number"),
            (None, "-inf", "results.csv line 3: reward is not a finite number"),
            ('{"task": 5, "method": "m", "seed": 0, "budget": 5}', "1.0", "task must be a file name, got 5"),
            ('{"task": "x/y", "method": "m", "seed": 0, "budget": 5}', "1.0", "task must be a file name, got 'x/y'"),
            ('{"task": "t", "method": "", "seed": 0, "budget": 5}', "1.0", "method must be a file name, got ''"),
            ('{"task": "t", "method": "..", "seed": 0, "budget": 5}', "1.0", "method must be a file name, got '..'"),
            ('{"task": "t", "method": "m", "seed": 0, "budget": -3}', "1.0", "budget must be at least 1, got -3"),
            ('{"task": "t", "method": "m", "seed": 0, "budget": 0}', "1.0", "budget must be at least 1, got 0"),
        ],
        ids=[
            "no-budget", "truncated", "list", "text-seed", "text-reward", "nan-reward", "inf-reward",
            "int-task", "path-task", "empty-method", "parent-method", "negative-budget", "zero-budget",
        ],
    )
    def test_malformed_run_directory_fails_before_writing(self, tmp_path, capsys, config, reward, message):
        run_dir = tmp_path / "runs" / "t" / "m" / "seed0"
        run_dir.mkdir(parents=True)
        config = config or '{"task": "t", "method": "m", "seed": 0, "budget": 5}'
        (run_dir / "resolved_config.json").write_text(config)
        (run_dir / "results.csv").write_text(f"iter,reward\n0,1.5\n0,{reward}\n0,None\n0,\n")
        out = tmp_path / "cmp"
        assert main(["compare", str(tmp_path / "runs"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run_dir}: ") and message in err
        assert not out.exists()


class TestDiagnose:
    def _write_inputs(self, tmp_path, design, metrics):
        design_path = tmp_path / "design.json"
        metrics_path = tmp_path / "metrics.json"
        design_path.write_text(json.dumps(design))
        metrics_path.write_text(json.dumps(metrics))
        return str(design_path), str(metrics_path)

    def test_clean_design_exits_zero(self, tmp_path, car_env, capsys):
        design = _midpoint_design(car_env.space)
        metrics = {
            "drag": 200.0,
            "Cd": 0.25,
            "lift": -100.0,
            "drag_pressure": 150.0,
            "drag_shear": 50.0,
        }
        d, m = self._write_inputs(tmp_path, design, metrics)
        out = tmp_path / "bundle.json"
        assert main(
            ["diagnose", "--design", d, "--metrics", m,
             "--task", "car-drag-single", "--out", str(out)]
        ) == 0
        bundle = json.loads(out.read_text())
        assert bundle["version"] == "0.1.0"
        assert "worst status" in capsys.readouterr().out

    def test_golden_design_warns_exit_two(self, tmp_path, golden, capsys):
        d, m = self._write_inputs(
            tmp_path, golden["design_params"], golden["metrics"]
        )
        out = tmp_path / "bundle.json"
        assert main(
            ["diagnose", "--design", d, "--metrics", m,
             "--task", "car-drag-single", "--out", str(out)]
        ) == 2
        bundle = json.loads(out.read_text())
        geometry = bundle["evidence_bundle"]["summary"]["geometry"]
        assert geometry["warning"] == 3

    def test_out_of_bounds_design_exits_three(self, tmp_path, car_env, golden):
        design = _midpoint_design(car_env.space)
        var = car_env.space.variables[0]
        design[var.name] = var.upper + 10.0
        d, m = self._write_inputs(tmp_path, design, golden["metrics"])
        out = tmp_path / "bundle.json"
        assert main(
            ["diagnose", "--design", d, "--metrics", m,
             "--task", "car-drag-single", "--out", str(out)]
        ) == 3

    def test_non_finite_metrics_give_a_strict_json_bundle(self, tmp_path, car_env):
        metrics = {
            "drag": float("nan"),
            "Cd": float("inf"),
            "lift": float("-inf"),
            "drag_pressure": 150.0,
            "drag_shear": 50.0,
        }
        d, m = self._write_inputs(tmp_path, _midpoint_design(car_env.space), metrics)
        out = tmp_path / "bundle.json"
        assert main(
            ["diagnose", "--design", d, "--metrics", m,
             "--task", "car-drag-single", "--out", str(out)]
        ) == 3

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        bundle = json.loads(out.read_text(), parse_constant=refuse)
        assert bundle["input_snapshot"]["metrics"] == {
            "drag": "NaN", "Cd": "Infinity", "lift": "-Infinity",
            "drag_pressure": 150.0, "drag_shear": 50.0,
        }
        (f005,) = [
            c for c in bundle["evidence_bundle"]["feasibility"]
            if c["check_id"] == "F005_metrics_finite"
        ]
        assert f005["status"] == "issue"
        assert f005["value"] == {"missing": [], "non_finite": ["drag", "Cd", "lift"]}

    def test_unknown_task(self, tmp_path, capsys):
        d, m = self._write_inputs(tmp_path, {}, {})
        assert main(
            ["diagnose", "--design", d, "--metrics", m, "--task", "nope"]
        ) == 1

    def test_unreadable_inputs(self, tmp_path, capsys):
        assert main(
            ["diagnose", "--design", str(tmp_path / "missing.json"),
             "--metrics", str(tmp_path / "missing2.json"),
             "--task", "car-drag-single"]
        ) == 1

    @pytest.mark.parametrize(
        "payload",
        [
            {"metrics": [1, 2]},
            {"metrics": "Cd"},
            {"images": 5},
            {"images": ["a_Pressure_iso.png", 1]},
            {"model_artifacts": {"base_vtk_path": 1}},
            {"model_artifacts": ["model/norm_stats.pt"]},
            {"environment": 5},
            {"design_id": ["d0"]},
        ],
        ids=[
            "metrics-list", "metrics-str", "images-int", "images-non-str",
            "artifact-int", "artifacts-list", "environment-int", "design-id-list",
        ],
    )
    def test_malformed_payload_exits_one(self, tmp_path, car_env, capsys, payload):
        d, m = self._write_inputs(tmp_path, _midpoint_design(car_env.space), payload)
        out = tmp_path / "bundle.json"
        assert main(
            ["diagnose", "--design", d, "--metrics", m,
             "--task", "car-drag-single", "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_design_that_is_a_json_array_exits_one(self, tmp_path, car_env, capsys):
        d, m = self._write_inputs(tmp_path, list(_midpoint_design(car_env.space).values()), {"Cd": 0.25})
        out = tmp_path / "bundle.json"
        assert main(
            ["diagnose", "--design", d, "--metrics", m,
             "--task", "car-drag-single", "--out", str(out)]
        ) == 1
        assert capsys.readouterr().err == "error: design and metrics files must contain JSON objects\n"
        assert not out.exists()

    def test_wrapped_metrics_payload(self, tmp_path, car_env, golden_artifacts):
        design = _midpoint_design(car_env.space)
        payload = {
            "environment": "DrivAer_Star",
            "metrics": {
                "drag": 200.0, "Cd": 0.25, "lift": -100.0,
                "drag_pressure": 150.0, "drag_shear": 50.0,
            },
            "images": golden_artifacts["images"],
            "model_artifacts": {
                "base_vtk_path": golden_artifacts["base_vtk_path"],
                "norm_stats_path": golden_artifacts["norm_stats_path"],
            },
        }
        d, m = self._write_inputs(tmp_path, design, payload)
        out = tmp_path / "bundle.json"
        assert main(
            ["diagnose", "--design", d, "--metrics", m,
             "--task", "car-drag-single", "--out", str(out)]
        ) == 0
        bundle = json.loads(out.read_text())
        summary = bundle["evidence_bundle"]["summary"]
        assert summary["feasibility"]["issue"] == 0
        assert summary["aero"]["missing"] == 0


def _files(root):
    """Every file and directory under `root`, with a file's bytes."""
    found = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            found[os.path.join(dirpath, name)] = None
        for name in filenames:
            found[os.path.join(dirpath, name)] = _read(os.path.join(dirpath, name))
    return found


def _run_dir(root, method, config=None, results=None):
    """A seed directory of task t under `root`; default files are valid."""
    path = root / "t" / method / "seed0"
    path.mkdir(parents=True)
    config = config or json.dumps({"task": "t", "method": method, "seed": 0, "budget": 2}).encode()
    (path / "resolved_config.json").write_bytes(config)
    (path / "results.csv").write_bytes(results or b"iter,reward\n0,1.5\n1,2.5\n")
    return path


class TestRefused:
    """An input or output location a command cannot use: one `error:` line naming it, exit 1."""

    def _case(self, name, tmp_path, env):
        """argv of case `name`, and the path its error must name."""
        design, metrics = tmp_path / "design.json", tmp_path / "metrics.json"
        design.write_text(json.dumps(_midpoint_design(env.space)))
        metrics.write_text("{}")
        diagnose = ["diagnose", "--task", env.id, "--design", str(design), "--metrics", str(metrics)]
        run = ["run", "--task", "delta-ld-single", "--method", "pso", "--seeds", "0", "--budget", "5"]
        tree = tmp_path / "tree"
        if name == "run-out-is-a-file":
            (tmp_path / "runs").write_text("")
            return [*run, "--out", str(tmp_path / "runs")], tmp_path / "runs"
        if name == "run-out-holds-a-manifest":
            (tmp_path / "runs").mkdir()
            (tmp_path / "runs" / "manifest.json").write_text("{}")
            return [*run, "--out", str(tmp_path / "runs")], tmp_path / "runs"
        if name == "run-out-holds-a-grid-below":
            (tmp_path / "runs" / "a").mkdir(parents=True)
            (tmp_path / "runs" / "a" / "manifest.json").write_text("{}")
            return [*run, "--out", str(tmp_path / "runs")], tmp_path / "runs"
        if name == "run-warmstart-not-utf8":
            warm = tmp_path / "warm.csv"
            warm.write_bytes(b"sweep_angle,root_airfoil\n\xff60,NACA2416\n")
            return [*run, "--out", str(tmp_path / "runs"), "--warmstart", str(warm)], warm
        if name == "compare-out-is-a-file":
            _run_dir(tree, "m")
            _run_dir(tree, "n")
            (tmp_path / "cmp").write_text("")
            return ["compare", str(tree), "--out", str(tmp_path / "cmp")], tmp_path / "cmp"
        if name == "compare-config-not-utf8":
            _run_dir(tree, "m")
            bad = _run_dir(tree, "n", config=b'{"task": "\xff"}')
            return ["compare", str(tree), "--out", str(tmp_path / "cmp")], bad
        if name == "compare-results-not-utf8":
            _run_dir(tree, "m")
            bad = _run_dir(tree, "n", results=b"iter,reward\n0,\xff\n")
            return ["compare", str(tree), "--out", str(tmp_path / "cmp")], bad
        if name == "diagnose-out-is-a-directory":
            (tmp_path / "bundle").mkdir()
            return [*diagnose, "--out", str(tmp_path / "bundle")], tmp_path / "bundle"
        if name == "diagnose-design-not-utf8":
            design.write_bytes(b'{"name": "\xff"}')
            return [*diagnose, "--out", str(tmp_path / "bundle.json")], design
        assert name == "diagnose-metrics-bad-json"
        metrics.write_text('{"Cd": ')
        return [*diagnose, "--out", str(tmp_path / "bundle.json")], metrics

    @pytest.mark.parametrize(
        "name",
        [
            "run-out-is-a-file", "run-out-holds-a-manifest", "run-out-holds-a-grid-below",
            "run-warmstart-not-utf8", "compare-out-is-a-file", "compare-config-not-utf8",
            "compare-results-not-utf8", "diagnose-out-is-a-directory", "diagnose-design-not-utf8",
            "diagnose-metrics-bad-json",
        ],
    )
    def test_one_error_line_naming_the_path_and_nothing_written(self, tmp_path, capsys, car_env, name):
        argv, path = self._case(name, tmp_path, car_env)
        before = _files(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]
        assert captured.out == ""
        assert _files(tmp_path) == before

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ("0-", "--seeds: '0-' is not a seed or a lo-hi range"),
            ("1.5", "--seeds: '1.5' is not a seed or a lo-hi range"),
            ("0,a-3", "--seeds: 'a-3' is not a seed or a lo-hi range"),
            ("-", "--seeds: '-' is not a seed or a lo-hi range"),
            (",", "--seeds: no seeds given"),
            ("1_0", "--seeds: '1_0' is not a seed or a lo-hi range"),
            ("+3", "--seeds: '+3' is not a seed or a lo-hi range"),
            ("\u0663", "--seeds: '\u0663' is not a seed or a lo-hi range"),
            ("3-+5", "--seeds: '3-+5' is not a seed or a lo-hi range"),
        ],
        ids=["open-range", "fraction", "text-in-list", "bare-dash", "no-seeds", "digit-separator", "plus-sign",
             "arabic-indic-digit", "plus-sign-in-range"],
    )
    def test_a_seed_that_is_not_an_int_names_the_flag_and_the_part(self, tmp_path, capsys, seeds, message):
        argv = ["run", "--task", "delta-ld-single", "--method", "pso", "--seeds", seeds,
                "--budget", "5", "--out", str(tmp_path / "runs")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert _files(tmp_path) == {}
