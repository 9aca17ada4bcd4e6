"""Per-job latency statistics of the end-to-end metrics.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_run.py
"""

import pytest

from run import best_latencies, tail


def _passes(*latencies_per_pass):
    return [{"jobs": [{"latency": t} for t in p]} for p in latencies_per_pass]


def test_each_job_counts_at_its_own_best():
    passes = _passes([0.5, 2.0, 0.3], [0.4, 2.5, 0.9], [0.6, 2.2, 0.2])
    assert best_latencies(passes) == [0.4, 2.0, 0.2]


def test_tail_leaves_ten_jobs_beyond_it():
    latencies = [float(k) for k in range(1, 59)]  # 58 jobs
    assert tail(latencies) == (48.0, pytest.approx(100.0 * 48 / 58))


def test_tail_of_a_short_list_is_its_slowest_job():
    assert tail([0.3, 1.5, 0.7, 0.2]) == (1.5, 100.0)
