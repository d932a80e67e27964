"""Tests of the table3_cli step check (criteria 6 and 10).

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from workloads import T_WINDOW, Table3CLI  # noqa: E402

ENDS = np.arange(T_WINDOW - 1, 1500, Table3CLI.stride)
STEP = list(range(600, 829, Table3CLI.stride))  # the windows holding sample 600


def check(flagged, start, end):
    events = [] if start is None else [{"start_t": start, "end_t": end}]
    workload = Table3CLI(0, Path("unused"))
    return workload.check_step(ENDS, np.isin(ENDS, flagged), events, workload.stride, T_WINDOW)


@pytest.mark.parametrize("flagged, start, end", [
    (STEP, 600, 828),
    ([581] + STEP, 581, 828),  # a noise alarm in the window before merges in
    (STEP + [847], 600, 847),  # and in the window after
])
def test_step_detected(flagged, start, end):
    assert check(flagged, start, end) == []


@pytest.mark.parametrize("flagged, start, end", [
    (STEP, 581, 828),  # early start with nothing to merge
    (STEP, 600, 847),  # late end with nothing to merge
    (STEP[1:], 619, 828),  # the first window holding the step missed
    (STEP[:-1], 600, 809),  # a window holding the step missed
    (STEP, None, None),  # no event
])
def test_step_missed(flagged, start, end):
    assert check(flagged, start, end) != []


def test_pca_step_merges_only_an_alarm_within_the_gap():
    workload = Table3CLI(0, Path("unused"))
    t = np.arange(1500)
    flag = t >= 600
    flag[598] = True
    events = [{"start_t": 598, "end_t": 1499}]
    assert workload.check_step(t, flag, events, 1, 120, open_end=True) == []
    flag[598] = False
    assert workload.check_step(t, flag, events, 1, 120, open_end=True) != []
