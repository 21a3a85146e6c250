"""Smoke and contract tests for the experiment modules (tiny scale)."""

import pytest

from repro.experiments import figure2, figure3, headline, table1, table2, table3, table4
from repro.experiments.config import PRIMARY_ROWS
from repro.experiments.harness import WorkloadSettings, get_workload
from repro.experiments.suite import suite_for

SCALE = 0.0005
GRID = PRIMARY_ROWS[:2]  # (8,2) and (16,4): keep the suite quick


@pytest.fixture(scope="module")
def workload():
    return get_workload(WorkloadSettings(scale=SCALE))


@pytest.fixture(scope="module")
def suite():
    return suite_for(WorkloadSettings(scale=SCALE), GRID)


def test_table1(workload):
    rows = table1.compute(workload)
    assert set(rows) == {"procedures", "basic blocks", "instructions"}
    for total, executed, pct in rows.values():
        assert 0 < executed < total
        assert pct == pytest.approx(100.0 * executed / total)
    assert "Table 1" in table1.render(rows)


def test_figure2(workload):
    data = figure2.compute(workload)
    fracs = [f for _n, f in data.curve_samples]
    assert fracs == sorted(fracs)  # cumulative curve is monotone
    assert 0 < data.blocks_for_90 <= data.blocks_for_99
    assert "Figure 2" in figure2.render(data)


def test_table2(workload):
    mix, determinism = table2.compute(workload)
    assert 0.0 < determinism <= 1.0
    assert "Table 2" in table2.render((mix, determinism))


def test_figure3_matches_paper():
    sequences, discarded = figure3.compute()
    assert sequences[0][0] == "A1" and sequences[0][-1] == "A8"
    assert "A5" in sequences[1]
    assert set(discarded) == {"A6", "B1", "C5"}
    assert "main trace" in figure3.render((sequences, discarded))


def test_suite_cells_complete(suite):
    for row in GRID:
        for name in ("orig", "P&H", "Torr", "auto", "ops"):
            cell = suite.cells[row][name]
            assert cell.miss_rate >= 0
            assert 0 < cell.ipc <= cell.ideal_ipc + 1e-9
    assert set(suite.assoc_miss) == {8, 16}
    assert suite.tc_hit_rate > 0


def test_table3_render(suite):
    text = table3.render(suite, GRID)
    assert "8/2" in text and "16/4" in text and "paper" in text


def test_table4_render(suite):
    text = table4.render(suite, GRID)
    assert "Ideal" in text and "TC+ops" in text


def test_headline(suite):
    rows = headline.compute(suite, GRID)
    assert "instructions between taken branches (orig)" in rows
    measured, paper = rows["instructions between taken branches (orig)"]
    assert measured > 1 and paper == 8.9
    assert "Section 8" in headline.render(rows)
