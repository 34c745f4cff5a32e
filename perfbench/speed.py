"""The host's speed, sampled during a run, to scale op times by.

The benchmark shares a few cores of a host whose speed drifts.  On a
2-vCPU Xeon VM, Python 3.11.7, a fixed loop took 2.4 ms in one second
and 4.2 ms in the next; each vCPU switched between such states on its
own, every one to three seconds.  Raw wall times of two runs of the same
code differ by a fifth or more, so they cannot tell a slower library
from a busier host.

A run therefore pins itself and its children to one CPU
(``pin_to_one_cpu``) and calls ``SpeedLog.sample`` between ops whenever
``SAMPLE_EVERY_S`` has passed since the last sample.  A sample times
``kernel``, a fixed mix of the kinds of work the library does (big
integer arithmetic, tuples and dicts, a tree of frozen dataclasses
through JSON and back), which lives here, outside the library, and so
takes the same time on every commit of it.  The collector is off during
a sample, so that a library with a large heap cannot slow the kernel
down.  An op that ran from ``t0`` to ``t1`` is multiplied by
``factor(t0, t1)``: ``REF_KERNEL_S`` over the median kernel time of the
samples within ``WINDOW_S`` of the op.  The reported times are in the
seconds of a host where the kernel takes ``REF_KERNEL_S``; a change to
the library moves them in full, a change in the host's speed mostly not.

Measured on that VM, two sets of ten seeds per workload at 30 s: the
quartile spread of ops_per_s, op_p50_ms and op_p90_ms over their median
was 0.09-0.21 (boxes), 0.08-0.54 (certificates) and 0.03-0.24
(kronecker) in raw time, and 0.05-0.09, 0.02-0.05 and 0.02-0.08 scaled.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import statistics
import time
from dataclasses import dataclass

# About the kernel's median time on the host above, so that scaled
# figures read close to that host's seconds.
REF_KERNEL_S = 0.004
SAMPLE_EVERY_S = 0.1
WINDOW_S = 0.3

_BIG = (1 << 16000) // 7


@dataclass(frozen=True)
class _Node:
    value: int
    left: "_Node | None"
    right: "_Node | None"


def _build(depth: int) -> _Node:
    node = _Node(0, None, None)
    for d in range(1, depth + 1):
        node = _Node(d, node, _Node(-d, None, None))
    return node


def _encode(node):
    return None if node is None else {"v": node.value, "l": _encode(node.left), "r": _encode(node.right)}


def _decode(obj):
    return None if obj is None else _Node(obj["v"], _decode(obj["l"]), _decode(obj["r"]))


def _total(node) -> int:
    return 0 if node is None else node.value + _total(node.left) + _total(node.right)


def kernel() -> tuple:
    counts: dict = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    x = _BIG
    for i in range(8):
        x = ((x * _BIG) >> 16000) + i
    tree = _decode(json.loads(json.dumps(_encode(_build(120)))))
    return sorted(counts.items())[0], x & 0xFFFF, _total(tree)


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts from now on, on one
    CPU, so that ops and speed samples see the same CPU's speed."""
    cpus = os.sched_getaffinity(0)
    if len(cpus) > 1:
        os.sched_setaffinity(0, {max(cpus)})


class SpeedLog:
    """Kernel times, each with the moment it was taken."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.kernel_s: list[float] = []

    def sample(self) -> None:
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            kernel()
            t1 = clock()
        finally:
            if enabled:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.kernel_s.append(t1 - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S

    def factor(self, t0: float, t1: float) -> float:
        """Scale for a time measured from moment ``t0`` to ``t1``: the
        samples within WINDOW_S of that span, or else the nearest one on
        each side of it."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_S)
        if hi - lo < 2:
            lo = max(0, min(lo, bisect.bisect_left(self.at, t0) - 1))
            hi = min(len(self.at), max(hi, bisect.bisect_right(self.at, t1) + 1))
        return REF_KERNEL_S / statistics.median(self.kernel_s[lo:hi])

    def overall(self) -> float:
        """Scale for the whole span of the samples."""
        return REF_KERNEL_S / statistics.median(self.kernel_s)
