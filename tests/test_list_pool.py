"""The per-graph list pool: a solve on a graph whose pool is warm must be the
solve a fresh graph gives, and a list that a caller still holds is never reused."""

import random
import sys
import threading
from fractions import Fraction

import pytest

import wcspp.solvers as solvers
from wcspp.bounds import INF, PLAN_PARALLEL, run_init
from wcspp.caches import ListPool, list_pool
from wcspp.cli import pair_cost2_bounds, weight_from_tightness
from wcspp.graph import Graph, ProblemInstance
from wcspp.solvers import SOLVERS, SolveOptions, path_cost

from conftest import BUCKET_CFG, DIGEST_OPTIONS, HEAP_CFG, digest, fresh, grid


def queries(graph: Graph, seed: int, count: int) -> list[ProblemInstance]:
    """Pairs a few hops apart on a 16-column grid at several cost2 limits,
    some infeasible, plus one pair across the grid whose lists are too
    widely written to be kept."""
    rng = random.Random(seed)
    out = [ProblemInstance(254, 137, 1068)]
    while len(out) < count:
        start = rng.randrange(graph.state_count)
        goal = start + rng.choice((-33, -17, -2, 1, 3, 16, 31, 48))
        bounds2 = (pair_cost2_bounds(graph, start, goal)
                   if 0 <= goal < graph.state_count else None)
        if bounds2 is None:
            continue
        h2, ub2 = bounds2
        for delta in rng.sample((0, Fraction(3, 10), Fraction(7, 10), 1), 2):
            out.append(ProblemInstance(start, goal, weight_from_tightness(h2, ub2, delta)))
        if h2 > 0 and rng.random() < 0.3:
            out.append(ProblemInstance(start, goal, h2 - 1))
    out.append(ProblemInstance(out[-1].goal, out[-1].goal, 0))
    return out


@pytest.mark.parametrize("cfg", [HEAP_CFG, BUCKET_CFG], ids=["heap", "bucket"])
def test_warm_pool_solves_match_a_fresh_graph(cfg, inits):
    g = grid()
    for inst in queries(fresh(g), 11, 24):
        for name in SOLVERS:
            assert digest(g, inst, name, inits, cfg) == \
                digest(fresh(g), inst, name, inits, cfg), (name, inst)
    pool = list_pool(g)
    assert pool.reused > 2 * pool.fresh
    assert pool.dropped > 0  # the long query's lists
    assert pool.size <= ListPool.CAPACITY


def test_wc_ba_tuning_is_reset_between_solves(inits):
    # wc-ba's tuning writes into the pooled tables; the next solve of the
    # same query must start from the untuned ones.
    g = grid()
    tuned = 0
    for inst in queries(g, 12, 16):
        for _ in range(2):
            first = digest(g, inst, "wc-ba", inits)
            assert first == digest(fresh(g), inst, "wc-ba", inits), inst
            tuned += first[5] not in ("None", "[]")
    assert tuned > 0
    assert list_pool(g).reused > 0


def test_held_init_result_keeps_its_values(inits):
    # A direct run_init keeps its lists; a solve's lists go back to the pool,
    # but the next solve must not take the ones `held` still reaches.
    g = grid()
    direct = run_init(g, ProblemInstance(20, 37, 400), PLAN_PARALLEL)
    SOLVERS["wc-ba"](g, ProblemInstance(50, 67, 400), BUCKET_CFG, DIGEST_OPTIONS)
    held = inits[threading.get_ident()].pop()
    before = repr((held.tables.h, held.tables.ub, held.tables.tree, held.settled_per_phase,
                   held.valid_states, direct.tables.h, direct.settled_per_phase,
                   direct.valid_states))
    pool = list_pool(g)
    dropped = pool.dropped
    for other in queries(g, 13, 10):
        for name in SOLVERS:
            digest(g, other, name, inits, BUCKET_CFG)
    assert pool.dropped > dropped  # the held lists were let go, not reused
    assert repr((held.tables.h, held.tables.ub, held.tables.tree, held.settled_per_phase,
                 held.valid_states, direct.tables.h, direct.settled_per_phase,
                 direct.valid_states)) == before


def test_threads_share_one_graph_and_its_pool():
    # Four Python threads solve on one graph under ('threads', 2), so lists
    # are taken and given back concurrently. The sides of wc-ba and
    # wc-ebba-par interleave as the threads run: answers are compared.
    g = grid()
    insts = queries(g, 14, 12)
    expected = [[SOLVERS[name](fresh(g), inst, HEAP_CFG).costs for name in SOLVERS]
                for inst in insts]
    options = SolveOptions(schedule=("threads", 2), check_invariants=True)
    got: dict = {}

    def work(k):
        order = list(range(len(insts)))
        random.Random(k).shuffle(order)
        for i in order:
            outs = [SOLVERS[name](g, insts[i], HEAP_CFG, options) for name in SOLVERS]
            for out in outs:
                if out.path is not None:
                    assert path_cost(g, out.path) == out.costs
            got[k, i] = [out.costs for out in outs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k in range(4):
        for i, want in enumerate(expected):
            assert got[k, i] == want, (k, insts[i])
    pool = list_pool(g)
    assert pool.reused > 0 and pool.size <= ListPool.CAPACITY


def test_solve_that_raises_leaves_the_pool_usable(monkeypatch, inits):
    g = grid()
    insts = queries(g, 15, 8)
    for inst in insts:
        digest(g, inst, "wc-ebba-par", inits, BUCKET_CFG)
    calls = [0]
    original = solvers.SearchContext.expand_prune

    def failing(self, *args):
        calls[0] += 1
        if calls[0] % 3 == 0:
            raise RuntimeError("expansion failed")
        return original(self, *args)

    monkeypatch.setattr(solvers.SearchContext, "expand_prune", failing)
    raised = 0
    for inst in insts:
        for name in SOLVERS:
            try:
                SOLVERS[name](g, inst, BUCKET_CFG, DIGEST_OPTIONS)
            except RuntimeError:
                raised += 1
    assert raised > 0
    monkeypatch.setattr(solvers.SearchContext, "expand_prune", original)
    inits.clear()
    for inst in insts:
        for name in SOLVERS:
            assert digest(g, inst, name, inits, BUCKET_CFG) == \
                digest(fresh(g), inst, name, inits, BUCKET_CFG), (name, inst)
    assert list_pool(g).size <= ListPool.CAPACITY


def test_pool_keeps_resets_and_drops_by_its_rules():
    pool = ListPool(2000)  # keeps lists with at most 125 written states
    lst = pool.take(INF)
    assert lst == [INF] * 2000 and (pool.reused, pool.fresh) == (0, 1)
    lst[5] = lst[1999] = 7
    kept = id(lst)
    pool.give([(INF, lst, [5, 1999, 5])])
    del lst
    lst = pool.take(INF)
    assert id(lst) == kept and lst == [INF] * 2000
    assert (pool.reused, pool.fresh, pool.dropped) == (1, 1, 0)
    # Each fill has its own free list.
    pool.give([(INF, lst, [5])])
    mask = pool.take(False)
    assert mask == [False] * 2000 and pool.fresh == 2
    # A list written at more than n/16 states is dropped.
    mask[:200] = [True] * 200
    pool.give([(False, mask, range(200))])
    assert (pool.size, pool.dropped) == (1, 1)
    # A list that a caller still holds, here `lst`, is dropped when taken.
    other = pool.take(INF)
    assert other is not lst and (pool.reused, pool.dropped, pool.size) == (1, 2, 0)
    # At most CAPACITY lists are kept.
    spare = [pool.take(None) for _ in range(ListPool.CAPACITY + 3)]
    pool.give([(None, x, []) for x in spare])
    assert pool.size == ListPool.CAPACITY and pool.dropped == 5
    del spare
    assert all(pool.take(None) == [None] * 2000 for _ in range(ListPool.CAPACITY))
    assert pool.reused == 1 + ListPool.CAPACITY
