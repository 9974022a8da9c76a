"""Line-delimited JSON subprocess evaluator protocol."""
import json
import os
import signal
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

# Answers each request with its alpha; at the end of its input it writes
# "done" to argv[1], then exits, or ("linger" in argv[2]) sleeps on.
FINISHING_CHILD = """
import json, sys, time
for line in sys.stdin:
    request = json.loads(line)
    alpha = request["operating_point"]["alpha"]
    print(json.dumps({"id": request["id"], "metrics": {"alpha": alpha}}), flush=True)
with open(sys.argv[1], "w") as fh:
    fh.write("done")
if sys.argv[2] == "linger":
    time.sleep(60)
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


# Logs "pid id" of each request it reads to argv[2] and answers with the
# design's "a", the alpha and its pid, except: design a=2 gets an error reply;
# design a=99 hangs ("hang") or exits unanswered ("exit").
DESIGN_CHILD = """
import json, os, sys, time
mode, log = sys.argv[1], sys.argv[2]
for line in sys.stdin:
    request = json.loads(line)
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()} {request['id']}\\n")
    a = request["params"]["a"]
    if a == 99.0:
        if mode == "hang":
            time.sleep(60)
        sys.exit(3)
    alpha = request["operating_point"]["alpha"]
    reply = {"id": request["id"], "metrics": {"a": a, "alpha": alpha, "pid": os.getpid()}}
    if a == 2.0:
        reply = {"id": request["id"], "error": "no convergence at a=2"}
    print(json.dumps(reply), flush=True)
"""


# Answers requests in order; its second reply is faulty: "stray-id" gives it
# an id no request has, "no-metrics" leaves out the metrics object.
FAULTY_SECOND_REPLY_CHILD = """
import json, sys
mode = sys.argv[1]
for n, line in enumerate(sys.stdin):
    reply = {"id": json.loads(line)["id"], "metrics": {"n": n}}
    if n == 1 and mode == "stray-id":
        reply["id"] = "stray"
    elif n == 1:
        del reply["metrics"]
    print(json.dumps(reply), flush=True)
"""

# Answers argv[1] requests, the last without a trailing newline, then exits.
UNTERMINATED_LAST_REPLY_CHILD = """
import json, sys
n = int(sys.argv[1])
for k in range(n):
    reply = json.dumps({"id": json.loads(sys.stdin.readline())["id"], "metrics": {"k": k}})
    sys.stdout.write(reply + ("\\n" if k < n - 1 else ""))
    sys.stdout.flush()
"""

# Appends each raw request line it reads to the file argv[1], then answers
# with an empty metrics map.
RAW_LINE_CHILD = """
import json, sys
for line in sys.stdin:
    with open(sys.argv[1], "a") as fh:
        fh.write(line)
    print(json.dumps({"id": json.loads(line)["id"], "metrics": {}}), flush=True)
"""

# Answers every request with the metrics map given as JSON in argv[1].
FIXED_METRICS_CHILD = """
import json, sys
metrics = json.loads(sys.argv[1])
for line in sys.stdin:
    print(json.dumps({"id": json.loads(line)["id"], "metrics": metrics}), flush=True)
"""


def _inline(script, *args):
    return [sys.executable, "-c", script, *args]


def _ops(*alphas):
    return [OperatingPoint(alpha=a) for a in alphas]


def _designs(*values):
    return [DesignPoint(values={"a": a, "b": 0.5}) for a in values]


def _one_design(ev, point, ops):
    """`batch_metrics` on a batch of one design; raises that design's error."""
    [entry] = ev.batch_metrics([point], ops)
    if isinstance(entry, EvaluationError):
        raise entry
    return entry


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
                _one_design(ev, point, (op, op))
        finally:
            ev.close()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SubprocessEvaluator([])
        with pytest.raises(ValueError):
            SubprocessEvaluator(["cmd"], timeout=0.0)


class TestClose:
    @pytest.mark.parametrize("mode, returncode", [("exit", 0), ("linger", -signal.SIGTERM)])
    def test_the_child_sees_the_end_of_its_input_and_is_gone(self, point, op, tmp_path, mode, returncode):
        marker = tmp_path / "finished"
        ev = SubprocessEvaluator([sys.executable, "-c", FINISHING_CHILD, str(marker), mode])
        assert ev.point_metrics(point, op, 0) == {"alpha": op.alpha}
        proc = ev._proc
        ev.close()
        assert marker.read_text() == "done"
        assert proc.returncode == returncode


class TestPipelinedDesign:
    def test_replies_in_reverse_order_matched_by_id(self, point):
        ev = SubprocessEvaluator(_inline(REVERSE_CHILD))
        try:
            for alphas in ((1.0, 2.0, 3.0, 4.0), (8.0, 7.0, 6.0, 5.0)):
                metrics = _one_design(ev, point, _ops(*alphas))
                assert [m["alpha"] for m in metrics] == list(alphas)
        finally:
            ev.close()

    def test_request_lines_are_unchanged_json(self, point, tmp_path):
        ops = [OperatingPoint(alpha=1.0, mach=0.7), OperatingPoint(cl_target=0.5, weight=2.0)]
        log = tmp_path / "requests.txt"
        ev = SubprocessEvaluator(_inline(RAW_LINE_CHILD, str(log)))
        try:
            _one_design(ev, point, ops)
        finally:
            ev.close()
        lines = log.read_text().splitlines(keepends=True)
        assert len(lines) == len(ops)
        for line, op in zip(lines, ops):
            request_id = json.loads(line)["id"]
            assert isinstance(request_id, str)
            request = {"id": request_id, "params": point.to_json(), "operating_point": op.to_json()}
            assert line == json.dumps(request) + "\n"

    def test_error_reply_raises_after_the_design_and_keeps_the_child(self, point):
        ev = SubprocessEvaluator(_inline(ALPHA_CHILD, "exit"))
        try:
            pid = _one_design(ev, point, _ops(5.0))[0]["pid"]
            with pytest.raises(EvaluationError, match="no convergence at alpha 2"):
                _one_design(ev, point, _ops(1.0, 2.0, 3.0, 4.0))
            # The replies to 3 and 4 were read with the design, so the next
            # design reads its own replies from the same child.
            metrics = _one_design(ev, point, _ops(5.0, 6.0, 7.0, 8.0))
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
            assert _one_design(pipelined, point, ops) == expected
            assert [m["weight"] for m in expected] == [0.5, 1.0, 2.0]
        finally:
            pipelined.close()
            single.close()

    def test_answered_requests_are_not_resent(self, point, tmp_path):
        log = tmp_path / "ids.txt"
        ev = SubprocessEvaluator(_inline(LOGGING_CRASH_CHILD, str(log)))
        try:
            metrics = _one_design(ev, point, _ops(1.0, 2.0, 3.0))
            metrics += _one_design(ev, point, _ops(4.0))
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
            pid = _one_design(ev, point, _ops(1.0))[0]["pid"]
            with pytest.raises(EvaluationError, match="timed out" if mode == "hang" else "exited"):
                _one_design(ev, point, _ops(1.0, 99.0, 3.0))
            metrics = _one_design(ev, point, _ops(1.0, 3.0))
            assert [m["alpha"] for m in metrics] == [1.0, 3.0]
            assert metrics[0]["pid"] == metrics[1]["pid"] != pid
        finally:
            ev.close()


class TestBatchInFlight:
    def _log(self, path):
        """The (pid, request id) pairs the children read, in order."""
        return [tuple(line.split()) for line in path.read_text().splitlines()]

    def test_error_reply_fails_only_its_design(self, tmp_path):
        ev = SubprocessEvaluator(_inline(DESIGN_CHILD, "exit", str(tmp_path / "log")))
        try:
            out = ev.batch_metrics(_designs(1.0, 2.0, 3.0), _ops(1.0, 5.0))
            assert isinstance(out[1], EvaluationError)
            assert "no convergence at a=2" in str(out[1])
            assert [[(m["a"], m["alpha"]) for m in out[d]] for d in (0, 2)] == [
                [(1.0, 1.0), (1.0, 5.0)],
                [(3.0, 1.0), (3.0, 5.0)],
            ]
            # Every reply of the batch was read, so the same child answers
            # the next batch with its own replies.
            [after] = ev.batch_metrics(_designs(4.0), _ops(1.0))
            assert after[0]["a"] == 4.0 and after[0]["pid"] == out[0][0]["pid"]
        finally:
            ev.close()

    def test_crash_mid_batch_retries_once_and_keeps_answered_designs(self, tmp_path):
        log = tmp_path / "log"
        ev = SubprocessEvaluator(_inline(DESIGN_CHILD, "exit", str(log)))
        try:
            out = ev.batch_metrics(_designs(1.0, 99.0, 3.0), _ops(1.0, 5.0))
        finally:
            ev.close()
        assert [m["alpha"] for m in out[0]] == [1.0, 5.0]
        assert all(isinstance(e, EvaluationError) and "exited" in str(e) for e in out[1:])
        reads = self._log(log)
        # The first child answers design 0 and exits at design 1; a fresh
        # child gets only the unanswered requests and exits without an
        # answer, and so does the one retry.
        assert len({pid for pid, _ in reads}) == 3
        ids = [request_id for _, request_id in reads]
        assert ids[:3] == [ids[0], ids[1], ids[2]] and ids[3:] == [ids[2], ids[2]]
        assert len(set(ids[:3])) == 3

    def test_timeout_fails_only_the_unanswered_designs(self, tmp_path):
        ev = SubprocessEvaluator(_inline(DESIGN_CHILD, "hang", str(tmp_path / "log")), timeout=0.5)
        try:
            out = ev.batch_metrics(_designs(1.0, 99.0, 3.0), _ops(1.0, 5.0))
            assert [m["a"] for m in out[0]] == [1.0, 1.0]
            assert all(isinstance(e, EvaluationError) and "timed out" in str(e) for e in out[1:])
            # Design 0 took its time to its last reply; the others, to the
            # end of the batch.
            assert 0.0 < ev.reply_ms[0] < ev.reply_ms[1] == ev.reply_ms[2]
            [after] = ev.batch_metrics(_designs(3.0), _ops(1.0))
            assert after[0]["pid"] != out[0][0]["pid"]
        finally:
            ev.close()

    def test_batch_larger_than_the_pipe_buffers_completes(self):
        # 1200 requests of about 1.3 KiB out and 1200 replies of about 90
        # bytes back: both exceed a 64 KiB pipe buffer, so a writer that
        # blocks until every request is written would wait on a child that
        # waits on it. The alarm turns such a deadlock into a failure.
        designs = [
            DesignPoint(values={f"p{i:02d}": d + i / 64 for i in range(60)}) for d in range(40)
        ]
        ops = [OperatingPoint(alpha=float(a), weight=1.0 + a) for a in range(30)]
        assert sum(len(json.dumps(p.to_json())) for p in designs) * len(ops) > 65536
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, 60.0)
        ev = SubprocessEvaluator(_command())
        try:
            out = ev.batch_metrics(designs, ops)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
            ev.close()
        assert len(json.dumps(out)) > 65536
        for design, metrics in zip(designs, out):
            assert [m["weight"] for m in metrics] == [op.weight for op in ops]
            assert {m["param_sum"] for m in metrics} == {float(sum(design.values.values()))}

    def test_reply_ms_follows_each_design(self):
        ev = SubprocessEvaluator(_command())
        try:
            assert ev.batch_metrics([], _ops(1.0)) == [] and ev.reply_ms == []
            out = ev.batch_metrics(_designs(*range(8)), _ops(1.0, 2.0))
        finally:
            ev.close()
        assert len(out) == len(ev.reply_ms) == 8
        # The echo child answers in order, so each design finishes later.
        assert 0.0 < ev.reply_ms[0] and ev.reply_ms == sorted(ev.reply_ms)

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("stray-id", "reply id 'stray' matches no pending request"),
            ("no-metrics", "evaluator reply lacks a metrics object"),
        ],
    )
    def test_faulty_reply_fails_the_designs_still_unanswered(self, mode, message):
        ev = SubprocessEvaluator(_inline(FAULTY_SECOND_REPLY_CHILD, mode))
        try:
            out = ev.batch_metrics(_designs(1.0, 2.0, 3.0), _ops(1.0))
        finally:
            ev.close()
        assert out[0] == [{"n": 0}]
        assert [str(e) for e in out[1:]] == [message, message]

    def test_unterminated_last_reply_before_exit_counts(self):
        ev = SubprocessEvaluator(_inline(UNTERMINATED_LAST_REPLY_CHILD, "3"))
        try:
            out = ev.batch_metrics(_designs(1.0, 2.0, 3.0), _ops(1.0))
        finally:
            ev.close()
        assert out == [[{"k": 0}], [{"k": 1}], [{"k": 2}]]

    def test_child_that_exits_unread_fails_a_batch_larger_than_the_pipe(self, capfd):
        designs = [
            DesignPoint(values={f"p{i:02d}": d + i / 64 for i in range(60)}) for d in range(40)
        ]
        ops = _ops(1.0, 2.0)
        assert sum(len(json.dumps(p.to_json())) for p in designs) * len(ops) > 65536
        ev = SubprocessEvaluator(_inline("pass"))
        try:
            out = ev.batch_metrics(designs, ops)
        finally:
            ev.close()
        # The broken pipe ends the write; the child's exit fails every design.
        assert [str(e) for e in out] == ["evaluator exited (code 0) before replying"] * len(designs)
        assert "Traceback" not in capfd.readouterr().err


def _alarm(signum, frame):
    raise TimeoutError("batch did not complete: the wire deadlocked")


class TestWireEquivalence:
    def test_pso_through_the_wire_matches_in_process_bit_for_bit(self):
        task = "airfoil-drag-multipoint"
        src = os.path.dirname(os.path.dirname(aerobench.__file__))
        local_env = get_environment(task)
        assert len(local_env.points) == 6
        child = SubprocessEvaluator(_inline(STAND_IN_CHILD, src, task))
        wired_env = get_environment(task).with_evaluator(child)
        config = OptimizerConfig(method="pso", budget=40, seed=3)
        try:
            wired = run_with_budget(wired_env, config)
        finally:
            wired_env.close()
        local = run_with_budget(local_env, config)
        assert len(wired.records) == 40
        assert all(r.error is None for r in wired.records)
        assert [r.reward.hex() for r in wired.records] == [r.reward.hex() for r in local.records]


class _ReplyLog(SubprocessEvaluator):
    """Keeps the `reply_ms` of every batch, in order."""

    def __init__(self, command):
        super().__init__(command)
        self.replies: list[float] = []

    def batch_metrics(self, points, ops):
        out = super().batch_metrics(points, ops)
        self.replies.extend(self.reply_ms)
        return out


class TestWallTime:
    """What the driver records as `wall_ms`: an evaluator's `reply_ms`, or 0."""

    def test_external_child_records_its_reply_times(self):
        task = "airfoil-drag-multipoint"
        src = os.path.dirname(os.path.dirname(aerobench.__file__))
        evaluator = _ReplyLog(_inline(STAND_IN_CHILD, src, task))
        env = get_environment(task).with_evaluator(evaluator)
        try:
            trajectory = run_with_budget(env, OptimizerConfig(method="pso", budget=25, seed=0))
        finally:
            env.close()
        walls = [r.wall_ms for r in trajectory.records]
        assert len(walls) == 25 and all(w > 0.0 for w in walls)
        assert walls == evaluator.replies

    def test_stand_in_records_zero(self):
        trajectory = run_with_budget(
            get_environment("airfoil-drag-multipoint"), OptimizerConfig(method="pso", budget=25, seed=0)
        )
        assert [r.wall_ms for r in trajectory.records] == [0.0] * 25


# The metric the objective of each task reads.
OBJECTIVE_METRIC = {
    "airfoil-drag-multipoint": "CD",
    "car-drag-single": "Cd",
    "ceras-fuel-mixed": "FuelMass",
    "delta-ld-single": "CD",
    "transonic-range-multipoint": "range_term",
}


class _FixedMetrics:
    """In process, answers `metrics` at every operating point of every design."""

    def __init__(self, metrics):
        self.metrics = metrics

    def batch_metrics(self, points, ops):
        return [[dict(self.metrics) for _ in ops] for _ in points]


def _outcomes(env, config):
    return [(None if r.reward is None else r.reward.hex(), r.error) for r in run_with_budget(env, config).records]


class TestMetricThatIsNotANumber:
    @pytest.mark.parametrize("value", ["abc", [1, 2], {"a": 1.0}, None, True])
    @pytest.mark.parametrize("task", sorted(OBJECTIVE_METRIC))
    def test_fails_its_own_design_for_the_whole_budget(self, task, value):
        # The verdict is the environment's, so the wire and an in-process
        # evaluator that answer the same map give the same records.
        env = get_environment(task)
        point = env.space.sample_uniform(seed=0, n=1)[0]
        metrics = env.evaluator.point_metrics(point, env.points[0], 0)
        metric = OBJECTIVE_METRIC[task]
        metrics[metric] = value
        config = OptimizerConfig(method="pso", budget=3, seed=0)
        wired = env.with_evaluator(SubprocessEvaluator(_inline(FIXED_METRICS_CHILD, json.dumps(metrics))))
        try:
            over_wire = _outcomes(wired, config)
        finally:
            wired.close()
        message = f"evaluator metrics unusable for {task}: metric {metric!r} is not a number: {value!r}"
        assert over_wire == [(None, message)] * 3
        assert _outcomes(env.with_evaluator(_FixedMetrics(metrics)), config) == over_wire

    def test_numbers_pass_unchanged(self):
        env = get_environment("delta-ld-single")
        point = env.space.sample_uniform(seed=0, n=1)[0]
        metrics = {"CL": 1, "CD": 0.25, "note": float("inf")}
        ev = SubprocessEvaluator(_inline(FIXED_METRICS_CHILD, json.dumps(metrics)))
        try:
            [entry] = ev.batch_metrics([point], env.points)
        finally:
            ev.close()
        assert entry == [metrics] and type(entry[0]["CL"]) is int

    def test_point_metrics_holds_a_reply_to_the_environments_rule(self):
        # A one-request caller outside the environment once got "abc" and None back.
        env = get_environment("delta-ld-single")
        point = env.space.sample_uniform(seed=0, n=1)[0]
        ev = SubprocessEvaluator(_inline(FIXED_METRICS_CHILD, json.dumps({"CL": "abc", "CD": None})))
        try:
            with pytest.raises(EvaluationError) as info:
                ev.point_metrics(point, env.points[0], 0)
        finally:
            ev.close()
        assert str(info.value) == "metric 'CL' is not a number: 'abc'"


class TestEnvironmentIntegration:
    def test_environment_with_external_evaluator(self):
        env = get_environment("delta-ld-single").with_evaluator(SubprocessEvaluator(_command()))
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
        env = get_environment("delta-ld-single").with_evaluator(SubprocessEvaluator(_command("garbage")))
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
        env = get_environment("delta-ld-single").with_evaluator(SubprocessEvaluator(child))
        try:
            p = env.space.sample_uniform(seed=0, n=1)[0]
            result = env.evaluate(p)
            assert result.reward is None
            assert "not an object" in result.error
        finally:
            env.close()
