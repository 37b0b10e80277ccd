import random
import tracemalloc

import pytest

from wcspp.graph import random_graph
from wcspp.nodepool import (BLOCK_NODES, NodePool, ParentArrays, join_forward,
                            splice_out_cycles, walk_tree)
from wcspp.solvers import path_cost

from conftest import G, S, U1, U2


def test_allocate_recycle_reuses_slot():
    pool = NodePool()
    a = pool.allocate(0, 0, 0, -1)
    pool.recycle(a)
    b = pool.allocate(1, 1, 1, -1)
    assert b == a
    assert pool.slots_created == 1


def test_allocate_without_recycling_creates_distinct_slots():
    pool = NodePool()
    handles = [pool.allocate(i, 0, 0, -1) for i in range(10)]
    assert len(set(handles)) == 10
    assert pool.slots_created == 10


def test_live_count_returns_to_zero():
    pool = NodePool()
    handles = [pool.allocate(i, 0, 0, -1) for i in range(5)]
    assert pool.slots_created == 5
    assert sum(node is not None for node in pool.nodes) == 5
    for h in handles:
        pool.recycle(h)
    assert sum(node is not None for node in pool.nodes) == 0


def test_blocks_count_fresh_slots_in_whole_blocks():
    pool = NodePool()
    assert pool.blocks_allocated == 0
    for i in range(BLOCK_NODES + 1):
        h = pool.allocate(i, 0, 0, -1)
        if i in (0, BLOCK_NODES - 1):
            assert pool.blocks_allocated == 1
    assert pool.blocks_allocated == 2
    # recycled slots are reissued before any fresh one
    pool.recycle(h)
    assert pool.allocate(0, 0, 0, -1) == h
    assert pool.slots_created == BLOCK_NODES + 1


def test_double_recycle_asserts():
    pool = NodePool()
    h = pool.allocate(0, 0, 0, -1)
    pool.recycle(h)
    with pytest.raises(AssertionError):
        pool.recycle(h)


def test_seven_node_replay_uses_four_slots():
    """Replaying the worked expansion trace: seven nodes, four memory slots,
    and the exact final parent arrays."""
    # Diamond graph: s -> {u1, u2}, u1 -> {u2, g}, u2 -> g.
    s, u1, u2, g = range(4)
    pool = NodePool()
    parents = ParentArrays()
    slot_of = {}

    def expand(handle, children):
        state, _, _, parent = pool.nodes[handle]
        entry = parents.record_expansion(state, parent)
        out = {}
        for child_name, child_state in children:
            out[child_name] = pool.allocate(child_state, 0, 0, entry)
            slot_of[child_name] = out[child_name]
        pool.recycle(handle)
        return out

    slot_of["x1"] = pool.allocate(s, 0, 0, -1)
    n = expand(slot_of["x1"], [("x2", u1), ("x3", u2)])
    n2 = expand(n["x2"], [("x4", g), ("x5", u2)])
    n3 = expand(n["x3"], [("x6", g)])
    expand(n2["x4"], [])
    n5 = expand(n2["x5"], [("x7", g)])
    expand(n3["x6"], [])
    expand(n5["x7"], [])

    assert pool.slots_created == 4
    assert sum(node is not None for node in pool.nodes) == 0
    # slot reuse pattern: M1 = x1,x4; M2 = x2,x6; M3 = x3,x7; M4 = x5
    groups = {}
    for name, slot in slot_of.items():
        groups.setdefault(slot, []).append(name)
    assert sorted(sorted(v) for v in groups.values()) == [
        ["x1", "x4"], ["x2", "x6"], ["x3", "x7"], ["x5"]]
    # x1..x7 are expanded in order, so x(i+1) is entry i of the log
    assert parents.states == [s, u1, u2, g, u2, g, g]
    assert parents.parents.tolist() == [-1, 0, 0, 1, 1, 2, 4]
    assert [parents.backtrack(e) for e in range(7)] == [
        [s], [s, u1], [s, u2], [s, u1, g], [s, u1, u2], [s, u2, g], [s, u1, u2, g]]


def test_record_expansion_initial_node():
    parents = ParentArrays()
    idx = parents.record_expansion(0, -1)
    assert idx == 0
    assert (parents.states, parents.parents.tolist()) == ([0], [-1])
    assert parents.backtrack(idx) == [0]


def test_record_expansion_refuses_an_unrecorded_parent():
    parents = ParentArrays()
    parents.record_expansion(0, -1)
    with pytest.raises(AssertionError):
        parents.record_expansion(1, 1)


def test_expansion_log_costs_at_most_16_bytes_an_entry():
    # A list slot and a 4-byte int. tracemalloc counts bytes, not time, so
    # host load cannot move the figure; the per-state pair lists the log
    # replaced took about 70 bytes an entry. A search logs the state objects
    # its graph already holds, so the states exist before the log does.
    entries = 100_000
    states = list(range(7919))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        parents = ParentArrays()
        for i in range(entries):
            parents.record_expansion(states[i % 7919], i // 2 - 1)
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(parents.states) == entries
    assert used / entries <= 16, f"{used / entries:.1f} bytes an entry"


def test_backtrack_and_join(example_graph):
    # Hand-built state: start expanded (initial), then u2 from start.
    parents = ParentArrays()
    start = parents.record_expansion(S, -1)
    idx = parents.record_expansion(U2, start)
    assert parents.backtrack(idx) == [S, U2]
    # cost1-shortest-path tree toward the goal: next hop per state
    tree = [U1, U2, G, G, None]
    assert walk_tree(tree, U2) == [U2, G]
    assert join_forward(parents.backtrack(idx), walk_tree(tree, U2)) == [S, U2, G]


def test_join_at_initial_state_is_whole_tree_path():
    parents = ParentArrays()
    start = parents.record_expansion(S, -1)
    tree = [U1, U2, G, G, None]
    path = join_forward(parents.backtrack(start), walk_tree(tree, S))
    assert path == [S, U1, U2, G]


def test_splice_out_cycles():
    assert splice_out_cycles([0, 1, 2, 1, 3]) == [0, 1, 3]
    assert splice_out_cycles([0, 1, 2]) == [0, 1, 2]
    assert splice_out_cycles([0, 1, 0, 2]) == [0, 2]


def test_reconstructed_cost_matches_reported(example_graph):
    # End-to-end check on random graphs: solver-reported costs equal the
    # recomputed cost of the reconstructed path.
    from wcspp.graph import ProblemInstance
    from wcspp.pqueue import BUCKET, QueueConfig, TIE_NONE_LIFO
    from wcspp.solvers import SOLVERS, SolveOptions

    rng = random.Random(12)
    cfg = QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO)
    for _ in range(25):
        n = rng.randint(4, 12)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        start, goal = 0, n - 1
        w = rng.randint(1, 40)
        for solver in SOLVERS.values():
            out = solver(g, ProblemInstance(start, goal, w), cfg, SolveOptions())
            if out.status == "optimal":
                assert path_cost(g, out.path) == out.costs
                assert len(set(out.path)) == len(out.path)
