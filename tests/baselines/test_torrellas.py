import numpy as np
import pytest

from repro.baselines import torrellas_layout, torrellas_sequences
from repro.cfg import BlockKind, ProgramBuilder, WeightedCFG
from repro.core import CacheGeometry


@pytest.fixture
def world():
    b = ProgramBuilder()
    kinds = [BlockKind.BRANCH] * 7 + [BlockKind.RETURN]
    b.add_procedure("f", "executor", sizes=[8] * 8, kinds=kinds)  # 32B blocks
    program = b.build()
    cfg = WeightedCFG(program.n_blocks)
    # chain 0..7, with block 3 by far the hottest (an inner-loop head)
    for a, c in zip(range(7), range(1, 8)):
        cfg.add_transition(a, c, 50)
    cfg.add_transition(3, 3, 500)
    cfg.block_count = np.array([50, 50, 50, 550, 50, 50, 50, 50], dtype=np.int64)
    return program, cfg


def test_hottest_blocks_pinned_in_cfa(world):
    program, cfg = world
    geometry = CacheGeometry(cache_bytes=128, cfa_bytes=32)  # CFA = 1 block
    layout = torrellas_layout(program, cfg, geometry, exec_threshold=1)
    # block 3 (hottest) occupies the CFA
    assert layout.address[3] == 0
    # its sequence neighbours were NOT moved with it
    assert layout.address[2] >= 32 and layout.address[4] >= 32


def test_pulled_blocks_keep_sequence_order(world):
    program, cfg = world
    geometry = CacheGeometry(cache_bytes=256, cfa_bytes=96)  # CFA = 3 blocks
    layout = torrellas_layout(program, cfg, geometry, exec_threshold=1)
    # three hottest blocks (3, then ties resolved by id: 0, 1) pinned;
    # within the CFA they appear in sequence order, not popularity order
    in_cfa = [b for b in range(8) if layout.address[b] < 96]
    assert 3 in in_cfa and len(in_cfa) == 3
    ordered = sorted(in_cfa, key=lambda b: layout.address[b])
    positions = {b: i for i, b in enumerate([0, 1, 2, 3, 4, 5, 6, 7])}
    assert [positions[b] for b in ordered] == sorted(positions[b] for b in ordered)


def test_layout_complete_and_valid(world):
    program, cfg = world
    layout = torrellas_layout(program, cfg, CacheGeometry(cache_bytes=128, cfa_bytes=64))
    layout.validate(program)
    assert layout.name == "Torr"


def test_zero_cfa_degenerates_to_sequences(world):
    program, cfg = world
    layout = torrellas_layout(program, cfg, CacheGeometry(cache_bytes=128, cfa_bytes=0), exec_threshold=1)
    layout.validate(program)
    # the chain stays together
    assert layout.address[0] < layout.address[7]


def test_shared_sequences_map_like_a_layout_built_alone(world):
    program, cfg = world
    sequences = torrellas_sequences(program, cfg, exec_threshold=1)
    for cache, cfa in ((128, 0), (128, 32), (128, 64), (256, 96)):
        geometry = CacheGeometry(cache_bytes=cache, cfa_bytes=cfa)
        alone = torrellas_layout(program, cfg, geometry, exec_threshold=1)
        assert np.array_equal(sequences.layout(program, geometry).address, alone.address)
