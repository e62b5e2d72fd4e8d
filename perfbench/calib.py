"""A fixed reference job that measures how fast this machine runs right now.

On a shared host the same operation can take nearly twice as long from one
run to the next, and CPU time swings with wall time, so neither is steady
enough to compare two commits.  The benchmark therefore runs this job,
which uses none of ``agres``, between the operations of a round and scales
each operation's times by ``REFERENCE_S`` over the job's time around it:
an operation that takes 2 s while the job takes twice its reference time
counts 1 s.  The job mixes what the program does: integer and
``Fraction`` arithmetic and element-wise array arithmetic.  It calls no
BLAS routine: BLAS worker threads keep spinning after a call and would
charge their CPU time to the operation that follows.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 0.01    # about the job's median time on the machine described in NOTES.md
SAMPLES = 5           # the median of these many runs of the job is one reading

_ARRAY = np.random.default_rng(0).standard_normal(4096)


def _job() -> None:
    s = 0
    for i in range(40000):
        s += i * i % 7
    x, f = Fraction(1, 3), Fraction(0)
    for i in range(1, 600):
        f += x * i / (i + 1)
    a = _ARRAY
    for _ in range(200):
        a = np.sqrt(a * a + 1.0) - 0.5


def reading() -> float:
    """Median wall time of SAMPLES runs of the job, in seconds."""
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _job()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaled(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two readings, at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)
