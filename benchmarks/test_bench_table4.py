"""Regenerates paper Table 4 (fetch bandwidth with and without trace cache)."""

from repro.experiments import table4
from repro.experiments.config import CACHE_CFA_GRID, PRIMARY_ROWS
from repro.experiments.suite import suite_for


def test_bench_table4(benchmark, workload, publish):
    suite = benchmark.pedantic(
        suite_for, args=(workload.settings, CACHE_CFA_GRID), rounds=1, iterations=1
    )
    publish("table4", table4.render(suite, CACHE_CFA_GRID))

    for row in PRIMARY_ROWS:
        cells = suite.cells[row]
        # reordered layouts provide more bandwidth than the original code
        for name in ("P&H", "Torr", "auto"):
            assert cells[name].ipc > cells["orig"].ipc, (row, name)
        # combining software and hardware trace caches beats the TC alone
        assert suite.tc_ops_ipc[row] > suite.tc_ipc[row[0]], row
    # ideal bandwidth: profile-guided layouts approach the fetch width far
    # better than the original code (paper: 7.6 -> ~10)
    orig_ideal = suite.cells[PRIMARY_ROWS[0]]["orig"].ideal_ipc
    auto_lo, _auto_hi = suite.ideal_range("auto")
    assert auto_lo > orig_ideal
    # bandwidth grows with cache size for every layout
    for name in ("orig", "P&H", "auto", "ops"):
        ipcs = [suite.cells[row][name].ipc for row in PRIMARY_ROWS]
        assert ipcs == sorted(ipcs), name
