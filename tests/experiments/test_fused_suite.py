"""Fused suite engine: a task's payload does not depend on its pass.

One `_run_group` pass over every task must produce, for every task on
every layout x geometry cell, exactly the payload the task computes when
run alone through `_run_group([task])` — float-for-float, since
checkpoints written by any pass (a full run, a resume of the missing
tasks, a retry of the failed ones) must be interchangeable. Stream
correctness itself is pinned by the `repro.validate` oracle
differentials.
"""

import pytest

from repro.experiments import suite as suite_mod
from repro.experiments.config import PRIMARY_ROWS
from repro.experiments.harness import get_workload
from repro.tpcd.workload import WorkloadSettings

SETTINGS = WorkloadSettings(scale=0.0005)
GRID = PRIMARY_ROWS[:2]
CACHE_SIZES = sorted({c for c, _ in GRID})


@pytest.fixture(scope="module")
def workload():
    return get_workload(SETTINGS)


@pytest.fixture(scope="module")
def fused_payloads(workload):
    tasks = suite_mod._suite_tasks(GRID, GRID)
    payloads, errors = suite_mod._run_group(workload, tasks, GRID, CACHE_SIZES)
    assert not errors
    return payloads


@pytest.mark.parametrize(
    "task", suite_mod._suite_tasks(GRID, GRID), ids=suite_mod._task_label
)
def test_fused_payload_matches_reference(workload, fused_payloads, task):
    alone, errors = suite_mod._run_group(workload, [task], GRID, CACHE_SIZES)
    assert not errors
    assert fused_payloads[task] == alone[task]


def test_unit_construction_failure_is_isolated(workload, monkeypatch):
    real = suite_mod._unit_for
    bad_task = ("row", GRID[1])

    def boom(wl, task, grid, cache_sizes, layout_memo=None):
        if task == bad_task:
            raise ValueError("injected unit failure")
        return real(wl, task, grid, cache_sizes, layout_memo)

    monkeypatch.setattr(suite_mod, "_unit_for", boom)
    tasks = suite_mod._suite_tasks(GRID, GRID)
    payloads, errors = suite_mod._run_group(workload, tasks, GRID, CACHE_SIZES)
    assert set(errors) == {bad_task}
    assert set(payloads) == set(tasks) - {bad_task}

