"""External evaluators as child processes speaking line-delimited JSON.

Each request carries the design values and one operating point; the child
answers with a metrics map or an error object under the same id. One design
is in flight at a time: `design_metrics` writes the requests for all of a
design's operating points at once and matches the replies to them by id, in
whatever order they come, so a child may solve the points concurrently and
answer each as it finishes. `point_metrics` is the one-point case. Replies
are read straight off the child's stdout pipe with `selectors`, so the wire
needs POSIX pipes. The timeout applies to each wait for a reply. Timeouts,
crashes, malformed replies, and a command that cannot be started raise
:class:`EvaluationError`, which the environment converts into an explicit
evaluation-error result.
"""
from __future__ import annotations

import contextlib
import itertools
import json
import os
import selectors
import shlex
import subprocess
import time
from typing import Sequence

from ..space import DesignPoint
from .base import EvaluationError, OperatingPoint

DEFAULT_TIMEOUT_S = 300.0
_READ_SIZE = 65536


class SubprocessEvaluator:
    """One child process serving one caller, one design at a time."""

    # Real external solvers have meaningful wall time; stand-ins report zero
    # so recorded runs stay byte-identical across machines.
    measures_wall_time = True

    def __init__(self, command: Sequence[str], timeout: float = DEFAULT_TIMEOUT_S):
        if not command:
            raise ValueError("evaluator command must be non-empty")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self._command = list(command)
        self._timeout = timeout
        self._proc: subprocess.Popen | None = None
        self._selector: selectors.BaseSelector | None = None
        self._buffer = bytearray()
        # Request ids count up per evaluator, never per child, so they stay
        # unique across child restarts without a random draw per request.
        self._ids = itertools.count()

    # -- child lifecycle ---------------------------------------------------

    def _ensure_running(self) -> subprocess.Popen:
        if self._proc is None or self._proc.poll() is not None:
            self.close()
            try:
                self._proc = subprocess.Popen(
                    self._command, stdin=subprocess.PIPE, stdout=subprocess.PIPE
                )
            except OSError as exc:
                # A missing or non-executable command fails every evaluation
                # as an error row; it must not crash the run.
                raise EvaluationError(
                    f"cannot start evaluator {shlex.join(self._command)}: {exc}"
                ) from exc
            self._selector = selectors.DefaultSelector()
            self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        return self._proc

    def close(self) -> None:
        """Terminate the child and drop anything it left unread."""
        proc, self._proc = self._proc, None
        self._buffer.clear()
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for stream in (proc.stdin, proc.stdout):
            # Closing stdin flushes what a failed write left buffered.
            with contextlib.suppress(OSError):
                stream.close()

    def _fail(self, message: str) -> None:
        self.close()
        raise EvaluationError(message)

    def _read_line(self) -> bytes | None:
        """The child's next reply line, or None once it has closed stdout."""
        deadline = None
        while (end := self._buffer.find(b"\n")) < 0:
            if deadline is None:
                deadline = time.monotonic() + self._timeout
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._selector.select(remaining):
                self._fail(f"evaluator timed out after {self._timeout} s")
            chunk = os.read(self._proc.stdout.fileno(), _READ_SIZE)
            if not chunk:
                # A last line without a newline still counts as a reply.
                line = bytes(self._buffer)
                self._buffer.clear()
                return line or None
            self._buffer += chunk
        line = bytes(self._buffer[:end])
        del self._buffer[: end + 1]
        return line

    # -- protocol ----------------------------------------------------------

    def point_metrics(self, point: DesignPoint, op: OperatingPoint, index: int) -> dict:
        return self.design_metrics(point, (op,))[0]

    def design_metrics(self, point: DesignPoint, ops: Sequence[OperatingPoint]) -> list[dict]:
        """Metrics of `point` at each of `ops`, in the order of `ops`."""
        params = json.dumps(point.to_json())
        # Request id -> (index in ops, request line). The lines are byte for
        # byte what json.dumps gives for the request object.
        pending = {}
        for k, op in enumerate(ops):
            request_id = str(next(self._ids))
            op_json = json.dumps(op.to_json())
            line = f'{{"id": "{request_id}", "params": {params}, "operating_point": {op_json}}}\n'
            pending[request_id] = (k, line.encode())
        out: list = [None] * len(ops)
        errors: dict[int, object] = {}
        # One silent retry on a fresh child covers a child that crashed
        # between designs. A child that exits after answering part of the
        # design has not used it up: the rest goes to a fresh child.
        retry = True
        while pending:
            proc = self._ensure_running()
            sent = len(pending)
            # Writing the whole design before reading cannot deadlock: a
            # design's requests are a few KiB, well under the 64 KiB pipe
            # buffer, so the write returns before the child reads any.
            try:
                proc.stdin.write(b"".join(request for _, request in pending.values()))
                proc.stdin.flush()
            except OSError as exc:
                failure = f"evaluator pipe closed: {exc}"
            else:
                while pending and (line := self._read_line()) is not None:
                    self._take_reply(line, pending, out, errors)
                if not pending:
                    break
                failure = f"evaluator exited (code {proc.poll()}) before replying"
            self.close()
            if len(pending) < sent:
                continue
            if not retry:
                raise EvaluationError(failure)
            retry = False
        if errors:
            # Raised only once every reply is in, so the next design never
            # reads a stale line.
            raise EvaluationError(f"evaluator error: {errors[min(errors)]}")
        return out

    def _take_reply(self, line: bytes, pending: dict, out: list, errors: dict) -> None:
        """File one reply line under the request it answers."""
        try:
            reply = json.loads(line)
        except ValueError as exc:
            self._fail(f"malformed evaluator reply: {exc}")
        if not isinstance(reply, dict):
            self._fail(f"malformed evaluator reply: a JSON {type(reply).__name__}, not an object")
        reply_id = reply.get("id")
        entry = pending.pop(reply_id, None) if isinstance(reply_id, str) else None
        if entry is None:
            self._fail(f"reply id {reply_id!r} matches no pending request")
        k = entry[0]
        if "error" in reply:
            errors[k] = reply["error"]
            return
        metrics = reply.get("metrics")
        if not isinstance(metrics, dict):
            self._fail("evaluator reply lacks a metrics object")
        out[k] = metrics
