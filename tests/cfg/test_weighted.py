import base64
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.baselines import torrellas_layout
from repro.cfg import BlockKind, ProgramBuilder, WeightedCFG
from repro.core import CacheGeometry, STCParams, stc_layout


def test_from_edges_and_queries():
    cfg = WeightedCFG.from_edges(5, [(0, 1, 10), (0, 2, 5), (1, 3, 15)])
    assert cfg.n_edges == 3
    assert cfg.successors(0) == [(1, 10), (2, 5)]
    assert cfg.out_weight(0) == 15
    assert cfg.probability(0, 1) == pytest.approx(10 / 15)
    assert cfg.hottest_successor(0) == (1, 10)
    assert cfg.hottest_successor(4) is None


def test_block_count_inferred():
    cfg = WeightedCFG.from_edges(4, [(0, 1, 3), (1, 2, 3)])
    # node counts: out-weight, sinks fall back to in-weight
    assert cfg.block_count[0] == 3
    assert cfg.block_count[2] == 3


def test_add_transition_accumulates():
    cfg = WeightedCFG(3)
    cfg.add_transition(0, 1, 2)
    cfg.add_transition(0, 1, 3)
    assert cfg.edge_count(0, 1) == 5
    assert cfg.predecessors(1) == [(0, 5)]


def test_nonpositive_count_rejected():
    cfg = WeightedCFG(2)
    with pytest.raises(ValueError):
        cfg.add_transition(0, 1, 0)


def test_executed_blocks():
    cfg = WeightedCFG.from_edges(6, [(0, 1, 1)], block_count=np.array([1, 1, 0, 0, 2, 0]))
    np.testing.assert_array_equal(cfg.executed_blocks(), [0, 1, 4])


def test_tie_break_by_block_id():
    cfg = WeightedCFG.from_edges(4, [(0, 3, 5), (0, 1, 5)])
    assert cfg.hottest_successor(0) == (1, 5)


def test_edges_iterator_sorted():
    cfg = WeightedCFG.from_edges(4, [(2, 0, 1), (0, 2, 2), (0, 1, 3)])
    assert list(cfg.edges()) == [(0, 1, 3), (0, 2, 2), (2, 0, 1)]


def test_procedure_call_graph():
    b = ProgramBuilder()
    b.add_procedure("f", "m", sizes=[1, 1], kinds=[BlockKind.CALL, BlockKind.RETURN])
    b.add_procedure("g", "m", sizes=[1], kinds=[BlockKind.RETURN])
    program = b.build()
    # f's call block (0) calls g entry (2); g's return (2) goes back to f (1)
    cfg = WeightedCFG.from_edges(3, [(0, 2, 7), (2, 1, 7)])
    assert cfg.procedure_call_graph(program) == {(0, 1): 7}


def test_add_transition_after_query_changes_the_answer():
    cfg = WeightedCFG.from_edges(4, [(0, 1, 5), (0, 2, 3)])
    assert cfg.successors(0) == [(1, 5), (2, 3)]
    assert cfg.out_weight(0) == 8
    cfg.add_transition(0, 2, 4)
    cfg.add_transition(3, 0)
    assert cfg.successors(0) == [(2, 7), (1, 5)]
    assert cfg.out_weight(0) == 12
    assert cfg.successors(3) == [(0, 1)]
    assert cfg.probability(3, 0) == 1.0


def test_successors_returns_a_fresh_list():
    cfg = WeightedCFG.from_edges(3, [(0, 1, 2), (0, 2, 1)])
    first = cfg.successors(0)
    first.clear()
    assert cfg.successors(0) == [(1, 2), (2, 1)]


def test_threads_sharing_a_profile_see_whole_answers():
    """Eight threads query one fresh profile at once, with a short switch
    interval: each must see every block's whole, sorted answer."""
    cfg = WeightedCFG.from_edges(
        500, [(src, (src * 7 + k) % 500, k + 1) for src in range(500) for k in range(3)]
    )
    expected = [[((b * 7 + k) % 500, k + 1) for k in (2, 1, 0)] for b in range(500)]
    answers: list[list] = [[] for _ in range(8)]

    def query(out: list) -> None:
        out.extend((cfg.successors(b), cfg.out_weight(b)) for b in range(500))

    threads = [threading.Thread(target=query, args=(out,)) for out in answers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == [(succs, 6) for succs in expected] for out in answers)


def _small_profile():
    """Four procedures of six blocks, fifty seeded random transitions."""
    b = ProgramBuilder()
    for p in range(4):
        kinds = [BlockKind.BRANCH] * 5 + [BlockKind.RETURN]
        b.add_procedure(f"p{p}", "executor", sizes=[3, 5, 2, 7, 4, 6], kinds=kinds, is_operation=p == 0)
    program = b.build()
    rng = np.random.default_rng(5)
    cfg = WeightedCFG(program.n_blocks)
    for src, dst, count in rng.integers(1, 60, size=(50, 3)) % [24, 24, 60]:
        cfg.add_transition(int(src), int(dst), int(count) + 1)
    cfg.block_count = np.arange(program.n_blocks, dtype=np.int64) % 7 * 9
    return program, cfg


#: ``_small_profile()``'s profile as pickled (protocol 5) by ``WeightedCFG``
#: before it kept a successor table: the bytes of a stored ``profile``
#: artifact.
_STORED_PROFILE = base64.b64decode(
    "gAWV/wMAAAAAAACMEnJlcHJvLmNmZy53ZWlnaHRlZJSMC1dlaWdodGVkQ0ZHlJOUKYGUfZQojAJf"
    "bpRLGIwLYmxvY2tfY291bnSUjBNudW1weS5fY29yZS5udW1lcmljlIwLX2Zyb21idWZmZXKUk5Qo"
    "lsAAAAAAAAAAAAAAAAAAAAAJAAAAAAAAABIAAAAAAAAAGwAAAAAAAAAkAAAAAAAAAC0AAAAAAAAA"
    "NgAAAAAAAAAAAAAAAAAAAAkAAAAAAAAAEgAAAAAAAAAbAAAAAAAAACQAAAAAAAAALQAAAAAAAAA2"
    "AAAAAAAAAAAAAAAAAAAACQAAAAAAAAASAAAAAAAAABsAAAAAAAAAJAAAAAAAAAAtAAAAAAAAADYA"
    "AAAAAAAAAAAAAAAAAAAJAAAAAAAAABIAAAAAAAAAlIwFbnVtcHmUjAVkdHlwZZSTlIwCaTiUiYiH"
    "lFKUKEsDjAE8lE5OTkr/////Sv////9LAHSUYksYhZSMAUOUdJRSlIwEX291dJR9lChLEH2UKEsA"
    "SxFLEEspSw9LFHVLAH2UKEsESyBLAksISw5LJEsKSzF1Sw59lEsRSztzSwR9lChLEUsYSwlLIksM"
    "SwVLFUsPSxNLA0sKSw91Swp9lChLAUsJSwtLNnVLA32UKEsBSwRLC0sxSwxLDXVLCX2UKEsLSw1L"
    "BUs2dUsPfZRLFUsPc0sRfZQoSwJLEUsSSyR1SwZ9lChLEUsXSwpLD3VLF32UKEsRSwlLFEsxdUsW"
    "fZQoSxJLL0sBSxRLCks6dUsBfZRLA0sfc0sUfZQoSwJLOEsMSyl1Swx9lEsISxVzSxJ9lEsASwtz"
    "SxN9lChLCEsKSwlLMUsHSyZ1Swd9lChLBksTSwpLKnVLCH2UKEsESwdLEEsiSxFLKHVLAn2UKEsC"
    "SxxLDks5SxdLA3VLFX2USw5LKHN1jANfaW6UfZQoSwB9lChLEEsRSxJLC3VLBH2UKEsASyBLCEsH"
    "dUsRfZQoSw5LO0sESxhLBksXSxdLCUsISyh1SwF9lChLCksJSwNLBEsWSxR1Swt9lChLCUsNSwpL"
    "NksDSzF1SxV9lChLD0sPSwRLD3VLAn2UKEsRSxFLAEsISxRLOEsCSxx1Sw59lChLAEskSxVLKEsC"
    "Szl1SxB9lChLEEspSwhLInVLCX2UKEsESyJLE0sxdUsMfZQoSwRLBUsUSylLA0sNdUsFfZRLCUs2"
    "c0sTfZRLBEsDc0sSfZQoSxZLL0sRSyR1SwN9lEsBSx9zSwh9lChLDEsVSxNLCnVLBn2USwdLE3NL"
    "Cn2UKEsGSw9LFks6SwRLD0sHSypLAEsxdUsPfZRLEEsUc0sUfZRLF0sxc0sXfZRLAksDc0sHfZRL"
    "E0smc3V1Yi4="
)


def test_stored_profile_bytes_are_unchanged_and_build_identical_layouts():
    program, fresh = _small_profile()
    fresh.successors(0)  # build the table; it must stay out of the pickle
    assert pickle.dumps(fresh, protocol=pickle.HIGHEST_PROTOCOL) == _STORED_PROFILE
    stored = pickle.loads(_STORED_PROFILE)
    for block in range(program.n_blocks):
        assert stored.successors(block) == fresh.successors(block)
        assert stored.out_weight(block) == fresh.out_weight(block)
    for cache, cfa in ((64, 32), (128, 32), (256, 96)):
        geometry = CacheGeometry(cache_bytes=cache, cfa_bytes=cfa)
        builders = [
            lambda cfg: torrellas_layout(program, cfg, geometry),
            lambda cfg: stc_layout(program, cfg, geometry, STCParams(seed_mode="auto", exec_threshold=1)),
            lambda cfg: stc_layout(program, cfg, geometry, STCParams(seed_mode="ops", exec_threshold=1)),
        ]
        for build in builders:
            np.testing.assert_array_equal(build(stored).address, build(fresh).address)
