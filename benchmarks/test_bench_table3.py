"""Regenerates paper Table 3 (i-cache miss rate per layout/cache/CFA)."""

from repro.experiments import table3
from repro.experiments.config import CACHE_CFA_GRID, PRIMARY_ROWS
from repro.experiments.suite import suite_for


def test_bench_table3(benchmark, workload, publish):
    suite = benchmark.pedantic(
        suite_for, args=(workload.settings, CACHE_CFA_GRID), rounds=1, iterations=1
    )
    publish("table3", table3.render(suite, CACHE_CFA_GRID))

    # shape assertions mirroring the paper's findings
    for row in PRIMARY_ROWS:
        cells = suite.cells[row]
        orig = cells["orig"].miss_rate
        # every profile-guided layout clearly beats the original code
        for name in ("P&H", "Torr", "auto"):
            assert cells[name].miss_rate < 0.75 * orig, (row, name)
        # miss rate shrinks with cache size for every layout
    sizes = [row for row in PRIMARY_ROWS]
    for name in ("orig", "P&H", "Torr", "auto", "ops"):
        rates = [suite.cells[row][name].miss_rate for row in sizes]
        assert rates == sorted(rates, reverse=True), name
    # software layouts beat the hardware-only fixes (2-way, victim), as in
    # the paper's conclusion for realistic sizes
    for row in PRIMARY_ROWS:
        best_layout = min(suite.cells[row][n].miss_rate for n in ("Torr", "auto", "ops"))
        assert best_layout < suite.victim_miss[row[0]]
