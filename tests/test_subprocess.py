"""Line-delimited JSON subprocess evaluator protocol."""
import json
import os
import sys

import pytest

import aerobench
from aerobench.optimizers import OptimizerConfig, run_with_budget
from aerobench.problems import EvaluationError, SubprocessEvaluator, get_environment
from aerobench.problems.base import OperatingPoint
from aerobench.space import DesignPoint


def _command(mode="echo"):
    return [sys.executable, "-m", "aerobench.problems.echo_evaluator", mode]


# Answers each request with its alpha and the child's pid, except: alpha 2
# gets an error reply; alpha 99 hangs ("hang") or exits unanswered ("exit").
ALPHA_CHILD = """
import json, os, sys, time
mode = sys.argv[1]
for line in sys.stdin:
    request = json.loads(line)
    alpha = request["operating_point"]["alpha"]
    if alpha == 99.0:
        if mode == "hang":
            time.sleep(60)
        sys.exit(3)
    reply = {"id": request["id"], "metrics": {"alpha": alpha, "pid": os.getpid()}}
    if alpha == 2.0:
        reply = {"id": request["id"], "error": "no convergence at alpha 2"}
    print(json.dumps(reply), flush=True)
"""

# Collects four requests, then answers them last first.
REVERSE_CHILD = """
import json, sys
while line := sys.stdin.readline():
    batch = [json.loads(line)] + [json.loads(sys.stdin.readline()) for _ in range(3)]
    for request in reversed(batch):
        alpha = request["operating_point"]["alpha"]
        print(json.dumps({"id": request["id"], "metrics": {"alpha": alpha}}), flush=True)
"""

# Logs the id of the one request it answers to argv[1], then exits.
LOGGING_CRASH_CHILD = """
import json, sys
request = json.loads(sys.stdin.readline())
with open(sys.argv[1], "a") as fh:
    fh.write(request["id"] + "\\n")
alpha = request["operating_point"]["alpha"]
print(json.dumps({"id": request["id"], "metrics": {"alpha": alpha}}), flush=True)
"""

# Serves the catalog stand-in metrics of task argv[2], importing aerobench
# from argv[1]; a repeated operating point maps to its first index.
STAND_IN_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from aerobench.problems import get_environment
from aerobench.space import DesignPoint
env = get_environment(sys.argv[2])
index = {}
for k, op in enumerate(env.points):
    index.setdefault(json.dumps(op.to_json(), sort_keys=True), k)
for line in sys.stdin:
    request = json.loads(line)
    k = index[json.dumps(request["operating_point"], sort_keys=True)]
    point = DesignPoint.from_json(request["params"])
    metrics = env.evaluator.point_metrics(point, env.points[k], k)
    print(json.dumps({"id": request["id"], "metrics": metrics}), flush=True)
"""


# Answers with the raw request line it read.
RAW_LINE_CHILD = """
import json, sys
for line in sys.stdin:
    print(json.dumps({"id": json.loads(line)["id"], "metrics": {"line": line}}), flush=True)
"""


def _inline(script, *args):
    return [sys.executable, "-c", script, *args]


def _ops(*alphas):
    return [OperatingPoint(alpha=a) for a in alphas]


@pytest.fixture
def point():
    return DesignPoint(values={"a": 1.5, "b": 2.5})


@pytest.fixture
def op():
    return OperatingPoint(alpha=3.0, weight=2.0)


class TestEchoProtocol:
    def test_round_trip(self, point, op):
        ev = SubprocessEvaluator(_command())
        try:
            metrics = ev.point_metrics(point, op, 0)
            assert metrics["param_sum"] == pytest.approx(4.0)
            assert metrics["param_count"] == 2.0
            assert metrics["weight"] == 2.0
        finally:
            ev.close()

    def test_many_round_trips_single_child(self, point, op):
        ev = SubprocessEvaluator(_command())
        try:
            for i in range(200):
                p = DesignPoint(values={"a": float(i), "b": 0.5})
                metrics = ev.point_metrics(p, op, i)
                assert metrics["param_sum"] == pytest.approx(i + 0.5)
        finally:
            ev.close()

    def test_measures_wall_time_marker(self):
        ev = SubprocessEvaluator(_command())
        assert ev.measures_wall_time is True
        ev.close()


class TestFailureModes:
    def test_crash_raises_evaluation_error_then_recovers(self, point, op):
        ev = SubprocessEvaluator(_command("crash"))
        try:
            # First request succeeds; the child exits immediately after.
            assert "param_sum" in ev.point_metrics(point, op, 0)
            # A fresh child is started lazily, so the next request also
            # succeeds, and the one after the next crash as well.
            assert "param_sum" in ev.point_metrics(point, op, 1)
            assert "param_sum" in ev.point_metrics(point, op, 2)
        finally:
            ev.close()

    def test_garbage_reply_raises(self, point, op):
        ev = SubprocessEvaluator(_command("garbage"))
        try:
            with pytest.raises(EvaluationError):
                ev.point_metrics(point, op, 0)
        finally:
            ev.close()

    def test_timeout_raises(self, point, op):
        # `cat -u` never answers; a tiny timeout must trip cleanly.
        ev = SubprocessEvaluator([sys.executable, "-c", "import time; time.sleep(60)"], timeout=0.5)
        try:
            with pytest.raises(EvaluationError):
                ev.point_metrics(point, op, 0)
        finally:
            ev.close()

    def test_command_that_cannot_start_raises_evaluation_error(self, point, op, tmp_path):
        missing = str(tmp_path / "no-such-solver")
        ev = SubprocessEvaluator([missing, "--flag"])
        try:
            with pytest.raises(EvaluationError, match="cannot start evaluator") as info:
                ev.point_metrics(point, op, 0)
            assert f"{missing} --flag" in str(info.value)
            # Every later design fails the same way instead of crashing.
            with pytest.raises(EvaluationError, match="cannot start evaluator"):
                ev.design_metrics(point, (op, op))
        finally:
            ev.close()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SubprocessEvaluator([])
        with pytest.raises(ValueError):
            SubprocessEvaluator(["cmd"], timeout=0.0)


class TestPipelinedDesign:
    def test_replies_in_reverse_order_matched_by_id(self, point):
        ev = SubprocessEvaluator(_inline(REVERSE_CHILD))
        try:
            for alphas in ((1.0, 2.0, 3.0, 4.0), (8.0, 7.0, 6.0, 5.0)):
                metrics = ev.design_metrics(point, _ops(*alphas))
                assert [m["alpha"] for m in metrics] == list(alphas)
        finally:
            ev.close()

    def test_request_lines_are_unchanged_json(self, point):
        ops = [OperatingPoint(alpha=1.0, mach=0.7), OperatingPoint(cl_target=0.5, weight=2.0)]
        ev = SubprocessEvaluator(_inline(RAW_LINE_CHILD))
        try:
            lines = [m["line"] for m in ev.design_metrics(point, ops)]
        finally:
            ev.close()
        for line, op in zip(lines, ops):
            request_id = json.loads(line)["id"]
            assert isinstance(request_id, str)
            request = {"id": request_id, "params": point.to_json(), "operating_point": op.to_json()}
            assert line == json.dumps(request) + "\n"

    def test_error_reply_raises_after_the_design_and_keeps_the_child(self, point):
        ev = SubprocessEvaluator(_inline(ALPHA_CHILD, "exit"))
        try:
            pid = ev.design_metrics(point, _ops(5.0))[0]["pid"]
            with pytest.raises(EvaluationError, match="no convergence at alpha 2"):
                ev.design_metrics(point, _ops(1.0, 2.0, 3.0, 4.0))
            # The replies to 3 and 4 were read with the design, so the next
            # design reads its own replies from the same child.
            metrics = ev.design_metrics(point, _ops(5.0, 6.0, 7.0, 8.0))
            assert [m["alpha"] for m in metrics] == [5.0, 6.0, 7.0, 8.0]
            assert {m["pid"] for m in metrics} == {pid}
        finally:
            ev.close()

    def test_crash_child_answers_a_whole_design_like_single_requests(self, point):
        ops = [OperatingPoint(alpha=a, weight=w) for a, w in ((1.0, 0.5), (2.0, 1.0), (3.0, 2.0))]
        pipelined = SubprocessEvaluator(_command("crash"))
        single = SubprocessEvaluator(_command("crash"))
        try:
            expected = [single.point_metrics(point, op, k) for k, op in enumerate(ops)]
            assert pipelined.design_metrics(point, ops) == expected
            assert [m["weight"] for m in expected] == [0.5, 1.0, 2.0]
        finally:
            pipelined.close()
            single.close()

    def test_answered_requests_are_not_resent(self, point, tmp_path):
        log = tmp_path / "ids.txt"
        ev = SubprocessEvaluator(_inline(LOGGING_CRASH_CHILD, str(log)))
        try:
            metrics = ev.design_metrics(point, _ops(1.0, 2.0, 3.0))
            metrics += ev.design_metrics(point, _ops(4.0))
        finally:
            ev.close()
        assert [m["alpha"] for m in metrics] == [1.0, 2.0, 3.0, 4.0]
        # One child per request, each request sent to exactly one of them,
        # and ids stay unique across the restarts.
        ids = log.read_text().split()
        assert len(ids) == 4 and len(set(ids)) == 4

    @pytest.mark.parametrize("mode", ["hang", "exit"])
    def test_failure_mid_design_then_fresh_child(self, point, mode):
        ev = SubprocessEvaluator(_inline(ALPHA_CHILD, mode), timeout=0.5)
        try:
            pid = ev.design_metrics(point, _ops(1.0))[0]["pid"]
            with pytest.raises(EvaluationError, match="timed out" if mode == "hang" else "exited"):
                ev.design_metrics(point, _ops(1.0, 99.0, 3.0))
            metrics = ev.design_metrics(point, _ops(1.0, 3.0))
            assert [m["alpha"] for m in metrics] == [1.0, 3.0]
            assert metrics[0]["pid"] == metrics[1]["pid"] != pid
        finally:
            ev.close()


class TestWireEquivalence:
    def test_pso_through_the_wire_matches_in_process_bit_for_bit(self):
        task = "airfoil-drag-multipoint"
        src = os.path.dirname(os.path.dirname(aerobench.__file__))
        local_env = get_environment(task)
        assert len(local_env.points) == 6
        wired_env = get_environment(task, evaluator_command=_inline(STAND_IN_CHILD, src, task))
        config = OptimizerConfig(method="pso", budget=40, seed=3)
        try:
            wired = run_with_budget(wired_env, config)
        finally:
            wired_env.close()
        local = run_with_budget(local_env, config)
        assert len(wired.records) == 40
        assert all(r.error is None for r in wired.records)
        assert [r.reward.hex() for r in wired.records] == [r.reward.hex() for r in local.records]


class TestEnvironmentIntegration:
    def test_environment_with_external_evaluator(self):
        env = get_environment("delta-ld-single", evaluator_command=_command())
        try:
            p = env.space.sample_uniform(seed=0, n=1)[0]
            result = env.evaluate(p)
            # The echo evaluator answers, but without the task's CL/CD
            # metrics; that surfaces as a clean error result.
            assert result.reward is None
            assert "unusable" in result.error
        finally:
            env.close()

    def test_crashing_evaluator_yields_error_result(self):
        env = get_environment("delta-ld-single", evaluator_command=_command("garbage"))
        try:
            p = env.space.sample_uniform(seed=0, n=1)[0]
            result = env.evaluate(p)
            assert result.reward is None
            assert result.error is not None
            assert not result.feasible
        finally:
            env.close()

    def test_non_object_reply_yields_error_result(self):
        child = _inline("import sys\nfor line in sys.stdin:\n    print(42, flush=True)")
        env = get_environment("delta-ld-single", evaluator_command=child)
        try:
            p = env.space.sample_uniform(seed=0, n=1)[0]
            result = env.evaluate(p)
            assert result.reward is None
            assert "not an object" in result.error
        finally:
            env.close()
