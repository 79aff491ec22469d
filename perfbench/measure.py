"""Measurement helpers: nearest-rank percentiles, CPU clocks and /proc readings.

Kept free of ``repro`` imports so the launcher and the tests can load it
without the package on the path.
"""

from __future__ import annotations

import math
import os
import time


def nearest_rank(samples: list[float], p: float) -> tuple[float, int]:
    """The ``p``-th percentile (``p`` on a 0-100 scale) by nearest rank.

    Returns ``(value, index)`` where ``index`` is the position in
    ``samples`` (as given, not sorted) of the sample the percentile lands
    on, so a report can name the query behind it.  The rank is
    ``ceil(p / 100 * n)``, clamped to ``1..n``.
    """
    if not samples:
        raise ValueError("nearest_rank of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be on a 0-100 scale, got {p}")
    order = sorted(range(len(samples)), key=lambda i: (samples[i], i))
    rank = min(len(samples), max(1, math.ceil(p / 100.0 * len(samples))))
    index = order[rank - 1]
    return samples[index], index


def _children_of() -> dict[int, list[int]]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    return children


def process_tree(root: int | None = None) -> list[int]:
    """``root`` (default: this process) and every live descendant."""
    root = os.getpid() if root is None else root
    children = _children_of()
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def cpu_clock_ns(pid: int) -> int:
    """CPU time (user + sys, every thread) of process ``pid`` so far, in ns.

    Reads the process's POSIX CPU clock, the clock id Linux derives from a
    pid (``MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)``).  It counts in
    nanoseconds where ``/proc/<pid>/stat`` counts in clock ticks, so one
    sub-millisecond query can be charged.  Raises ``OSError`` once the
    process has gone.
    """
    return time.clock_gettime_ns(((~pid) << 3) | 2)


class TreeClock:
    """The summed CPU clocks of a process tree, as it stood when made.

    A timed pass makes one and reads it around every query.  A process
    that starts or ends inside the pass would be charged wrongly, so
    :meth:`check` (at the end of the pass) and :meth:`read` (for a process
    that has gone) raise instead.
    """

    def __init__(self, root: int | None = None):
        self.root = os.getpid() if root is None else root
        self.pids = sorted(process_tree(self.root))

    def read(self) -> int:
        """CPU nanoseconds of the tree so far."""
        return sum(cpu_clock_ns(pid) for pid in self.pids)

    def check(self) -> None:
        now = sorted(process_tree(self.root))
        if now != self.pids:
            raise RuntimeError(f"process tree changed during a timed pass: {self.pids} -> {now}")


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB; 0 if gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def tree_peak_rss_mb(root: int | None = None) -> float:
    """Highest ``VmHWM`` of any one live process in the tree."""
    return max((vm_hwm_mb(pid) for pid in process_tree(root)), default=0.0)
