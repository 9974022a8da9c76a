"""Process set-up and machine-speed reference shared by the benchmark's
entry points.

BLAS is pinned to one thread before numpy is first imported: on a small
machine, contention between BLAS threads and the evaluator child moves a
dense solve by more than an order of magnitude. aerobench is imported from
the `src` tree of the checkout the benchmark sits in, never from an
installed copy, so the numbers always belong to the code next to them.
"""
from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_PIN = "1"

# Seconds `reference_kernel_s` takes on a quiet 2-core x86-64 VM with
# Python 3.11 and numpy 2.4. Only a scale: adjusted figures read as if the
# machine ran at that speed.
REFERENCE_S = 0.075


class BenchEnvError(RuntimeError):
    """The checkout does not hold an importable aerobench source tree."""


def prepare() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_PIN
    if "numpy" in sys.modules:
        raise BenchEnvError("numpy was imported before the BLAS thread pin was set")
    if not os.path.isfile(os.path.join(SRC, "aerobench", "__init__.py")):
        raise BenchEnvError(f"no aerobench source tree under {SRC}")
    sys.path.insert(0, SRC)
    import aerobench

    if os.path.dirname(os.path.dirname(os.path.abspath(aerobench.__file__))) != SRC:
        raise BenchEnvError(f"aerobench imported from {aerobench.__file__}, not from {SRC}")


def reference_kernel_s() -> float:
    """Time a fixed, aerobench-independent mix of small numpy calls and dict
    work: the kind of work aerobench's layers do.

    On a shared machine, neighbours slow every process by up to 2x for
    minutes at a time. Timed right next to a pass, this kernel slows by about
    as much, so `items * kernel / (wall * REFERENCE_S)` cancels most of the
    slowdown while any change in aerobench still shows in full.
    """
    import numpy as np

    start = time.perf_counter()
    x = np.random.default_rng(0).random((40, 6))
    acc = 0.0
    table: dict[int, str] = {}
    for i in range(400):
        k = np.exp(-((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)) + 1e-3 * np.eye(40)
        acc += float(np.linalg.solve(np.linalg.cholesky(k), x[:, 0])[0])
        for j in range(60):
            table[(i * 7 + j) % 113] = repr(acc + j)
    return time.perf_counter() - start


def settled_kernel_s() -> float:
    """Mean of two kernel timings after one untimed call, which pays numpy's
    first-use costs in a fresh process."""
    reference_kernel_s()
    return (reference_kernel_s() + reference_kernel_s()) / 2
