import numpy as np
import pytest

from repro.cfg import BlockKind, ProgramBuilder, WeightedCFG
from repro.core import CacheGeometry, STCParams, stc_layout, stc_sequences
from repro.core.stc import _fit_first_pass
from repro.core.seeds import auto_seeds


def build_world(n_procs=12, blocks_per_proc=6, hot_procs=4, reps=100):
    """Procedures with linear bodies; the first ``hot_procs`` run often."""
    b = ProgramBuilder()
    for p in range(n_procs):
        kinds = [BlockKind.BRANCH] * (blocks_per_proc - 1) + [BlockKind.RETURN]
        b.add_procedure(f"p{p:02d}", "executor", sizes=[4] * blocks_per_proc, kinds=kinds, is_operation=p == 0)
    program = b.build()
    cfg = WeightedCFG(program.n_blocks)
    counts = np.zeros(program.n_blocks, dtype=np.int64)
    for p in range(hot_procs):
        weight = reps * (hot_procs - p)
        blocks = program.procedures[p].blocks
        counts[list(blocks)] = weight
        for a, c in zip(blocks[:-1], blocks[1:]):
            cfg.add_transition(a, c, weight)
        # chain procedures: p returns into p+1's entry
        if p + 1 < hot_procs:
            cfg.add_transition(blocks[-1], program.procedures[p + 1].entry, weight)
    cfg.block_count = counts
    return program, cfg


def test_layout_places_all_blocks():
    program, cfg = build_world()
    geometry = CacheGeometry(cache_bytes=256, cfa_bytes=64)
    layout = stc_layout(program, cfg, geometry)
    layout.validate(program)
    assert layout.name == "auto"


def test_hot_blocks_land_low():
    program, cfg = build_world()
    geometry = CacheGeometry(cache_bytes=512, cfa_bytes=128)
    layout = stc_layout(program, cfg, geometry)
    hot = [b for b in range(program.n_blocks) if cfg.block_count[b] > 0]
    cold = [b for b in range(program.n_blocks) if cfg.block_count[b] == 0]
    assert np.median(layout.address[hot]) < np.median(layout.address[cold])


def test_hottest_sequence_in_cfa():
    program, cfg = build_world()
    geometry = CacheGeometry(cache_bytes=512, cfa_bytes=128)
    layout = stc_layout(program, cfg, geometry)
    # the hottest procedure's body should sit inside the CFA window
    hottest = program.procedures[0].blocks
    assert all(layout.address[b] < 128 for b in hottest)


def test_cfa_window_respected_by_hot_code():
    program, cfg = build_world(n_procs=30, hot_procs=10)
    cache, cfa = 256, 64
    layout = stc_layout(program, cfg, CacheGeometry(cache_bytes=cache, cfa_bytes=cfa))
    for b in range(program.n_blocks):
        if cfg.block_count[b] > 0:
            addr = int(layout.address[b])
            if addr >= cache:
                assert addr % cache >= cfa or cfg.block_count[b] < max(cfg.block_count) // 100


def test_sequentiality_improves_over_original():
    program, cfg = build_world()
    geometry = CacheGeometry(cache_bytes=512, cfa_bytes=128)
    layout = stc_layout(program, cfg, geometry)
    # the hot chain p0 -> p1 -> p2 -> p3 should be laid out sequentially
    sequential = 0
    for p in range(3):
        tail = program.procedures[p].blocks[-1]
        head = program.procedures[p + 1].entry
        sequential += layout.is_sequential(tail, head, program)
    assert sequential >= 2


def test_fit_first_pass_respects_budget():
    program, cfg = build_world()
    seeds = auto_seeds(program, cfg)
    seqs, visited = _fit_first_pass(program, cfg, seeds, 64, STCParams())
    total = sum(int(program.block_size[b]) * 4 for s in seqs for b in s)
    assert total <= 64
    assert visited == {b for s in seqs for b in s}


def test_fit_first_pass_zero_cfa():
    program, cfg = build_world()
    seeds = auto_seeds(program, cfg)
    seqs, visited = _fit_first_pass(program, cfg, seeds, 0, STCParams())
    assert seqs == [] and visited == set()


def test_manual_cfa_threshold_override():
    program, cfg = build_world()
    seeds = auto_seeds(program, cfg)
    params = STCParams(cfa_exec_threshold=1)
    seqs, _ = _fit_first_pass(program, cfg, seeds, 64, params)
    # threshold 1 admits everything executed; pass-1 may exceed the budget
    total = sum(int(program.block_size[b]) * 4 for s in seqs for b in s)
    assert total > 64


def test_ops_mode_uses_op_seeds():
    program, cfg = build_world()
    geometry = CacheGeometry(cache_bytes=512, cfa_bytes=128)
    layout = stc_layout(program, cfg, geometry, STCParams(seed_mode="ops"))
    layout.validate(program)
    assert layout.name == "ops"


def test_invalid_seed_mode():
    with pytest.raises(ValueError):
        STCParams(seed_mode="banana")


def test_sequences_map_onto_every_cache_size_of_their_cfa():
    program, cfg = build_world()
    params = STCParams(seed_mode="ops")
    sequences = stc_sequences(program, cfg, 64, params)
    for cache in (256, 512, 1024):
        geometry = CacheGeometry(cache_bytes=cache, cfa_bytes=64)
        alone = stc_layout(program, cfg, geometry, params)
        shared = sequences.layout(program, geometry)
        assert shared.name == alone.name == "ops"
        assert np.array_equal(shared.address, alone.address)
    with pytest.raises(ValueError, match="64-byte CFA"):
        sequences.layout(program, CacheGeometry(cache_bytes=512, cfa_bytes=128))
