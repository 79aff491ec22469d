"""Tests for the benchmark's measurement helpers.

Run from the repository root: ``python3 -m pytest -q perfbench/test_measure.py``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import TreeClock, nearest_rank, process_tree, vm_hwm_mb  # noqa: E402


def test_nearest_rank_takes_percent_on_a_0_to_100_scale():
    samples = [float(v) for v in range(1, 101)]  # 1..100
    assert nearest_rank(samples, 50) == (50.0, 49)
    assert nearest_rank(samples, 90) == (90.0, 89)
    assert nearest_rank(samples, 99) == (99.0, 98)
    assert nearest_rank(samples, 100) == (100.0, 99)
    assert nearest_rank(samples, 0) == (1.0, 0)


def test_nearest_rank_is_ceil_of_p_times_n():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    # rank ceil(0.5 * 5) = 3 -> third smallest; ceil(0.9 * 5) = 5 -> largest
    assert nearest_rank(samples, 50) == (3.0, 4)
    assert nearest_rank(samples, 90) == (5.0, 0)
    assert nearest_rank(samples, 20) == (1.0, 1)
    assert nearest_rank(samples, 21) == (2.0, 3)


def test_nearest_rank_reports_the_sample_index_for_ties_stably():
    value, index = nearest_rank([7.0, 7.0, 7.0], 50)
    assert (value, index) == (7.0, 1)


def test_a_fraction_passed_as_percent_reads_the_minimum():
    # The defect in benchmarks/bench_service.py: 0.50 on a 0-100 scale is
    # the 0.5th percentile, i.e. the sample minimum, not the median.
    assert nearest_rank([1.0, 2.0, 3.0], 0.5) == (1.0, 0)


def test_out_of_range_percent_and_empty_samples_are_rejected():
    with pytest.raises(ValueError):
        nearest_rank([1.0], 150)
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_tree_clock_counts_this_process_and_its_children():
    assert os.getpid() in process_tree()
    child = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"],
                             stdin=subprocess.PIPE)
    try:
        clock = TreeClock()
        assert child.pid in clock.pids
        before = clock.read()
        assert sum(math.sqrt(i) for i in range(2_000_000)) > 0
        assert clock.read() - before > 10_000_000  # over 10 ms, in ns
        clock.check()
    finally:
        child.communicate(b"")
    with pytest.raises(RuntimeError):
        clock.check()
    assert vm_hwm_mb() > 0
