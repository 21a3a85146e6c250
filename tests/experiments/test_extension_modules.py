"""Smoke tests for the Section 8 extension experiment modules (tiny scale)."""

import pytest

from repro.experiments import ablations, inlining, oltp, prediction
from repro.experiments.harness import WorkloadSettings, get_workload
from repro.experiments.suite import compute_suite
from repro.kernel import ColdCodeConfig
from repro.oltp.workload import OLTPWorkload

SCALE = 0.0005


@pytest.fixture(scope="module")
def workload():
    return get_workload(WorkloadSettings(scale=SCALE))


@pytest.fixture(scope="module")
def suite(workload):
    """The suite engine's cells at 32 KB with an 8 KB and a 16 KB CFA: the
    one-layout experiments must reproduce them float for float."""
    return compute_suite(workload, ((32, 8), (32, 16)), tc_rows=(), resume=False)


def test_prediction_module(workload):
    rows = prediction.compute(workload, max_events=200_000)
    names = [r[0] for r in rows]
    assert names == ["orig", "P&H", "Torr", "auto", "ops"]
    for _name, taken_pct, accuracy_pct in rows:
        assert 0.0 <= taken_pct <= 100.0
        assert 50.0 <= accuracy_pct <= 100.0
    assert "bimodal" in prediction.render(rows)


def test_inlining_module(workload, suite):
    rows, n_clones = inlining.compute(workload, max_clones=6)
    assert len(rows) == 2
    base, cloned = rows
    assert n_clones <= 6
    assert cloned[1] >= base[1]  # static size cannot shrink
    assert "clones" in inlining.render((rows, n_clones))
    # the base row is the ops layout at 32 KB / 8 KB CFA: the suite's cell
    cell = suite.cells[(32, 8)]["ops"]
    assert base[2:] == [cell.miss_rate, cell.ipc, cell.ideal_ipc, cell.run_length]


def test_ablations_cfa_sweep_matches_suite(workload, suite):
    (point,) = ablations.cfa_sweep(workload, 32, (16,))
    cell = suite.cells[(32, 16)]["ops"]
    assert (point.miss_rate, point.ipc, point.run_length) == (
        cell.miss_rate, cell.ipc, cell.run_length
    )


def test_oltp_module():
    w = OLTPWorkload.build(
        dss_scale=SCALE,
        warehouses=1,
        n_transactions=40,
        cold=ColdCodeConfig(n_procedures=40),
    )
    rows = oltp.compute(w, cache_kb=16, cfa_kb=4)
    names = [r[0] for r in rows]
    assert names == ["orig", "dss-trained", "oltp-trained"]
    by = {r[0]: r for r in rows}
    assert by["oltp-trained"][2] >= by["orig"][2] * 0.9  # never much worse
    assert "OLTP" in oltp.render(rows)
