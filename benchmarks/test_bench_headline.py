"""Regenerates the paper's Section 8 headline claims."""

from repro.experiments import headline
from repro.experiments.config import CACHE_CFA_GRID
from repro.experiments.suite import suite_for


def test_bench_headline(benchmark, workload, publish):
    rows = benchmark.pedantic(
        lambda: headline.compute(suite_for(workload.settings, CACHE_CFA_GRID), CACHE_CFA_GRID),
        rounds=1,
        iterations=1,
    )
    publish("headline", headline.render(rows))

    # run-length roughly doubles (paper: 8.9 -> 22.4)
    orig_run = rows["instructions between taken branches (orig)"][0]
    ops_run = rows["instructions between taken branches (ops)"][0]
    assert ops_run > 1.6 * orig_run
    # the ops layout outperforms the original code at 64 KB
    assert rows["fetch bandwidth 64KB ops"][0] > rows["fetch bandwidth 64KB orig"][0]
    # software + hardware trace caches beat the trace cache alone
    assert rows["trace cache + ops"][0] > rows["trace cache alone"][0]
    # substantial miss reduction at every realistic size
    reductions = [v for k, (v, _p) in rows.items() if k.startswith("miss reduction")]
    assert all(r > 10.0 for r in reductions)
