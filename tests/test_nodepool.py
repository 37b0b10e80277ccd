import random

import pytest

from wcspp.graph import random_graph
from wcspp.nodepool import (BLOCK_NODES, NodePool, ParentArrays, join_forward,
                            splice_out_cycles, walk_tree)
from wcspp.solvers import path_cost

from conftest import G, S, U1, U2


def test_allocate_recycle_reuses_slot():
    pool = NodePool()
    a = pool.allocate(0, 0, 0, 0, 0, None, 0)
    pool.recycle(a)
    b = pool.allocate(1, 1, 1, 1, 1, None, 0)
    assert b == a
    assert pool.slots_created == 1


def test_allocate_without_recycling_creates_distinct_slots():
    pool = NodePool()
    handles = [pool.allocate(i, 0, 0, 0, 0, None, 0) for i in range(10)]
    assert len(set(handles)) == 10
    assert pool.slots_created == 10


def test_live_count_returns_to_zero():
    pool = NodePool()
    handles = [pool.allocate(i, 0, 0, 0, 0, None, 0) for i in range(5)]
    assert pool.slots_created == 5
    assert pool.live == 5
    for h in handles:
        pool.recycle(h)
    assert pool.live == 0


def test_blocks_count_fresh_slots_in_whole_blocks():
    pool = NodePool()
    assert pool.blocks_allocated == 0
    for i in range(BLOCK_NODES + 1):
        h = pool.allocate(i, 0, 0, 0, 0, None, 0)
        if i in (0, BLOCK_NODES - 1):
            assert pool.blocks_allocated == 1
    assert pool.blocks_allocated == 2
    # recycled slots are reissued before any fresh one
    pool.recycle(h)
    assert pool.allocate(0, 0, 0, 0, 0, None, 0) == h
    assert pool.slots_created == BLOCK_NODES + 1


def test_double_recycle_asserts():
    pool = NodePool()
    h = pool.allocate(0, 0, 0, 0, 0, None, 0)
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

    def expand(name, handle, state, parent_ref, children):
        out = {}
        for child_name, child_state in children:
            out[child_name] = pool.allocate(child_state, 0, 0, 0, 0, state, 0)
            slot_of[child_name] = out[child_name]
        parents.record_expansion(state, *parent_ref)
        pool.recycle(handle)
        return out

    slot_of["x1"] = pool.allocate(s, 0, 0, 0, 0, None, 0)
    n = expand("x1", slot_of["x1"], s, (None, 0), [("x2", u1), ("x3", u2)])
    n2 = expand("x2", n["x2"], u1, (s, 1), [("x4", g), ("x5", u2)])
    n3 = expand("x3", n["x3"], u2, (s, 1), [("x6", g)])
    expand("x4", n2["x4"], g, (u1, 1), [])
    n5 = expand("x5", n2["x5"], u2, (u1, 1), [("x7", g)])
    expand("x6", n3["x6"], g, (u2, 1), [])
    expand("x7", n5["x7"], g, (u2, 2), [])

    assert pool.slots_created == 4
    assert pool.live == 0
    # slot reuse pattern: M1 = x1,x4; M2 = x2,x6; M3 = x3,x7; M4 = x5
    groups = {}
    for name, slot in slot_of.items():
        groups.setdefault(slot, []).append(name)
    assert sorted(sorted(v) for v in groups.values()) == [
        ["x1", "x4"], ["x2", "x6"], ["x3", "x7"], ["x5"]]
    assert parents.entries(s) == ([None], [0])
    assert parents.entries(u1) == ([s], [1])
    assert parents.entries(u2) == ([s, u1], [1, 1])
    assert parents.entries(g) == ([u1, u2, u2], [1, 1, 2])


def test_record_expansion_initial_node():
    parents = ParentArrays()
    idx = parents.record_expansion(0, None, 0)
    assert idx == 1
    assert parents.entries(0) == ([None], [0])


def test_backtrack_and_join(example_graph):
    # Hand-built state: start expanded (initial), then u2 from start.
    parents = ParentArrays()
    parents.record_expansion(S, None, 0)
    idx = parents.record_expansion(U2, S, 1)
    assert parents.backtrack(U2, idx) == [S, U2]
    # cost1-shortest-path tree toward the goal: next hop per state
    tree = [U1, U2, G, G, None]
    assert walk_tree(tree, U2) == [U2, G]
    assert join_forward(parents.backtrack(U2, idx), walk_tree(tree, U2)) == [S, U2, G]


def test_join_at_initial_state_is_whole_tree_path():
    parents = ParentArrays()
    parents.record_expansion(S, None, 0)
    tree = [U1, U2, G, G, None]
    path = join_forward(parents.backtrack(S, 1), walk_tree(tree, S))
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
