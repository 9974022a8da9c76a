"""External evaluators as child processes speaking line-delimited JSON.

Each request carries the design values and one operating point; the child
answers with a metrics map or an error object under the same id. One batch
is in flight at a time: `batch_metrics` sends the requests for every design
and operating point of a batch and matches the replies to them by id, in
whatever order they come, so a child may solve the designs and points of a
batch concurrently and answer each as it finishes. `point_metrics` is the
one-request case. The child's stdin is non-blocking and shares one selector
with its stdout, so replies are read while a batch larger than the pipe
buffer is still being written; the wire needs POSIX pipes. The timeout
applies to each wait for a reply. Timeouts, crashes, malformed replies, and
a command that cannot be started become an :class:`EvaluationError` for
each design of the batch still without its replies; an error reply fails
its own design. The wire checks only its protocol (valid JSON, an object,
a `metrics` object, a known id); the environment judges the metrics, and
`point_metrics` holds them to the environment's number rule (`non_number`).
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
from .base import EvaluationError, OperatingPoint, non_number

DEFAULT_TIMEOUT_S = 300.0
_READ_SIZE = 65536
_EXIT_GRACE_S = 1.0  # a child's time to exit at the end of its input before it is terminated


class _Batch:
    """The replies of one batch, filed by design and operating point."""

    def __init__(self, n_points: int, n_ops: int):
        self.start = time.perf_counter()
        self.metrics: list[list] = [[None] * n_ops for _ in range(n_points)]
        self.errors: dict[int, dict[int, object]] = {}
        self.unanswered = [n_ops] * n_points
        self.reply_ms = [0.0] * n_points

    def answered(self, design: int) -> None:
        self.unanswered[design] -= 1
        if not self.unanswered[design]:
            self.reply_ms[design] = (time.perf_counter() - self.start) * 1e3


class SubprocessEvaluator:
    """One child process serving one caller, one batch at a time."""

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
        # Per design of the last batch, the milliseconds from sending the
        # batch to that design's last reply (to the end of the batch for a
        # design left without its replies): each result's `wall_ms`.
        self.reply_ms: list[float] = []

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
            # Writes never block: a batch larger than the pipe buffer is
            # written as the child reads it, while its replies are read.
            os.set_blocking(self._proc.stdin.fileno(), False)
            self._selector = selectors.DefaultSelector()
            self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        return self._proc

    def close(self) -> None:
        """End the child's input, stop it if it outlives `_EXIT_GRACE_S`, and drop anything it left unread."""
        proc, self._proc = self._proc, None
        self._buffer.clear()
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        if proc is None:
            return
        with contextlib.suppress(OSError):
            proc.stdin.close()
        for stop, wait_s in ((None, _EXIT_GRACE_S), (proc.terminate, 5.0), (proc.kill, None)):
            if stop is not None:
                stop()
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=wait_s)
                break
        with contextlib.suppress(OSError):
            proc.stdout.close()

    def _fail(self, message: str) -> None:
        self.close()
        raise EvaluationError(message)

    # -- protocol ----------------------------------------------------------

    # Kept for one-request callers outside the environment, which sends only batches.
    def point_metrics(self, point: DesignPoint, op: OperatingPoint, index: int) -> dict:
        [entry] = self.batch_metrics([point], (op,))
        if isinstance(entry, EvaluationError):
            raise entry
        if misfit := non_number(entry[0]):
            raise EvaluationError(misfit)
        return entry[0]

    def batch_metrics(
        self, points: Sequence[DesignPoint], ops: Sequence[OperatingPoint]
    ) -> list[list[dict] | EvaluationError]:
        """Per design, in order: its metrics at each of `ops`, or its error."""
        ops_json = [json.dumps(op.to_json()) for op in ops]
        # Request id -> (design, index in ops, request line). The lines are
        # byte for byte what json.dumps gives for the request object.
        pending = {}
        for d, point in enumerate(points):
            params = json.dumps(point.to_json())
            for k, op_json in enumerate(ops_json):
                request_id = str(next(self._ids))
                line = f'{{"id": "{request_id}", "params": {params}, "operating_point": {op_json}}}\n'
                pending[request_id] = (d, k, line.encode())
        batch = _Batch(len(points), len(ops))
        failure = None
        if pending:
            try:
                self._exchange(pending, batch)
            except EvaluationError as exc:
                failure = exc
        end_ms = (time.perf_counter() - batch.start) * 1e3
        out: list = []
        for d, metrics in enumerate(batch.metrics):
            if batch.unanswered[d]:
                batch.reply_ms[d] = end_ms
            errors = batch.errors.get(d)
            if errors:
                out.append(EvaluationError(f"evaluator error: {errors[min(errors)]}"))
            elif batch.unanswered[d]:
                out.append(failure)
            else:
                out.append(metrics)
        self.reply_ms = batch.reply_ms
        return out

    def _exchange(self, pending: dict, batch: _Batch) -> None:
        """Send every pending request and file every reply in `batch`.

        One silent retry on a fresh child covers a child that crashed
        between batches. A child that exits after answering part of the
        batch has not used it up: the rest goes to a fresh child, and the
        answered requests are not sent again. Error replies are filed, not
        raised, so the exchange reads every reply of the batch and the next
        batch never reads a stale line.
        """
        retry = True
        while pending:
            proc = self._ensure_running()
            sent = len(pending)
            data = b"".join(line for _, _, line in pending.values())
            if self._send_and_read(data, pending, batch):
                return
            # Its stdout is closed, so it is exiting; `close` reaps it, and
            # only then is its exit code known.
            self.close()
            failure = f"evaluator exited (code {proc.returncode}) before replying"
            if len(pending) < sent:
                continue
            if not retry:
                raise EvaluationError(failure)
            retry = False

    def _send_and_read(self, data: bytes, pending: dict, batch: _Batch) -> bool:
        """Write `data` while filing replies; False if the child closes stdout first."""
        stdin = self._proc.stdin
        view = memoryview(data)
        self._selector.register(stdin, selectors.EVENT_WRITE)
        try:
            deadline = time.monotonic() + self._timeout
            while pending:
                while pending and (end := self._buffer.find(b"\n")) >= 0:
                    line = bytes(self._buffer[:end])
                    del self._buffer[: end + 1]
                    self._take_reply(line, pending, batch)
                    deadline = time.monotonic() + self._timeout
                if not pending:
                    break
                remaining = deadline - time.monotonic()
                events = self._selector.select(remaining) if remaining > 0 else ()
                if not events:
                    self._fail(f"evaluator timed out after {self._timeout} s")
                for key, _ in events:
                    if key.fileobj is stdin:
                        view = self._write(stdin, view)
                        continue
                    chunk = os.read(self._proc.stdout.fileno(), _READ_SIZE)
                    if not chunk:
                        # A last line without a newline still counts as a reply.
                        if self._buffer:
                            line = bytes(self._buffer)
                            self._buffer.clear()
                            self._take_reply(line, pending, batch)
                        return not pending
                    self._buffer += chunk
            return True
        finally:
            if view and self._selector is not None:
                self._selector.unregister(stdin)

    def _write(self, stdin, view: memoryview) -> memoryview:
        """Write what the pipe takes now; stop watching stdin once all is out."""
        try:
            view = view[os.write(stdin.fileno(), view) :]
        except BlockingIOError:
            return view
        except OSError:
            # The child is gone; what it answered before is still read.
            view = view[:0]
        if not view:
            self._selector.unregister(stdin)
        return view

    def _take_reply(self, line: bytes, pending: dict, batch: _Batch) -> None:
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
        design, k, _ = entry
        if "error" in reply:
            batch.errors.setdefault(design, {})[k] = reply["error"]
        else:
            metrics = reply.get("metrics")
            if not isinstance(metrics, dict):
                self._fail("evaluator reply lacks a metrics object")
            batch.metrics[design][k] = metrics
        batch.answered(design)
