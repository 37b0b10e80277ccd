import itertools
import math
import random
import threading
from dataclasses import fields

import pytest

from wcspp.bounds import (ATTR1, ATTR2, INF, PATH, TREE, BoundsTables, GlobalBounds,
                          SolutionRecord)
from wcspp.graph import BACKWARD, FORWARD, Graph, ProblemInstance, random_graph
from wcspp.nodepool import ParentArrays
from wcspp.oracle import constrained_optimum, enumerate_pareto
from wcspp.pqueue import (BINARY_HEAP, BUCKET, HYBRID, QueueConfig, TIE_NONE_FIFO,
                          TIE_NONE_LIFO, TIE_SECONDARY)
from wcspp.solvers import (ORDER_12, ORDER_21, SOLVERS, Metrics, SearchContext,
                           SolveOptions, esu, match_partial, path_cost, reconstruct_solution,
                           solve_wc_astar, solve_wc_ba_star, solve_wc_ebba,
                           solve_wc_ebba_par, store_partial)

from conftest import (EXAMPLE_H_F, EXAMPLE_UB_F, G, S, U1, U2, U3, geo_random_graph,
                      road_grid_graph)

BUCKET_CFG = QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO)
ALL_QUEUE_CFGS = [
    QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO),
    QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_FIFO),
    QueueConfig(HYBRID, 0, 0, 1, TIE_NONE_LIFO),
    QueueConfig(HYBRID, 0, 0, 1, TIE_SECONDARY),
    QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_NONE_LIFO),
    QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY),
]


def example_tables():
    t = BoundsTables()
    t.h[FORWARD][ATTR1] = [EXAMPLE_H_F[u][0] for u in range(5)]
    t.h[FORWARD][ATTR2] = [EXAMPLE_H_F[u][1] for u in range(5)]
    t.ub[FORWARD][ATTR1] = [EXAMPLE_UB_F[u][0] for u in range(5)]
    t.ub[FORWARD][ATTR2] = [EXAMPLE_UB_F[u][1] for u in range(5)]
    for attr in (ATTR1, ATTR2):
        t.h[BACKWARD][attr] = [INF] * 5
        t.ub[BACKWARD][attr] = [INF] * 5
    return t


# ---------------------------------------------------------------------------
# ESU


def test_esu_records_tentative_solution_at_u2():
    gb = GlobalBounds(6)
    gb.f1_bar = 7
    esu(gb, example_tables(), FORWARD, ORDER_12, U2, 3, 4, 5, 5, path_id=1)
    assert (gb.f1_bar, gb.f2_sol) == (5, 5)
    # the forward path to u2, then the forward cost1 tree to the goal
    assert gb.record == SolutionRecord((5, 5), U2, (PATH, 1), (TREE, ATTR1))


def test_esu_no_improvement_at_start():
    gb = GlobalBounds(6)
    gb.f1_bar = 7
    esu(gb, example_tables(), FORWARD, ORDER_12, S, 0, 0, 3, 3, path_id=1)
    # joined cost2 is 8 > 6; fallback join gives exactly 7, not strictly smaller
    assert (gb.f1_bar, gb.f2_sol) == (7, INF)
    assert gb.record == SolutionRecord()


def test_esu_fallback_tightens_f1_only():
    gb = GlobalBounds(6)
    gb.f1_bar = 9
    esu(gb, example_tables(), FORWARD, ORDER_12, S, 0, 0, 3, 3, path_id=1)
    assert (gb.f1_bar, gb.f2_sol) == (7, INF)
    assert gb.record == SolutionRecord()


def test_esu_at_target_state_always_passes_case_one():
    gb = GlobalBounds(6)
    gb.f1_bar = 9
    esu(gb, example_tables(), FORWARD, ORDER_12, G, 4, 5, 4, 5, path_id=1)
    assert (gb.f1_bar, gb.f2_sol) == (4, 5)
    assert gb.record == SolutionRecord((4, 5), G, (PATH, 1), (TREE, ATTR1))


def test_esu_secondary_ordering_mirrors():
    # (f2, f1) order nominates via the cost2-optimal complement only.
    t = BoundsTables()
    t.h[BACKWARD][ATTR1] = [0, 4]
    t.h[BACKWARD][ATTR2] = [0, 2]
    t.ub[BACKWARD][ATTR1] = [0, 6]
    t.ub[BACKWARD][ATTR2] = [0, 9]
    gb = GlobalBounds(20)
    gb.f1_bar = 10
    # joined pair on the cost2 complement: (1 + 6, 3 + 2) = (7, 5)
    esu(gb, t, BACKWARD, ORDER_21, 1, 1, 3, 5, 5, path_id=1)
    assert (gb.f1_bar, gb.f2_sol) == (7, 5)
    # the backward cost2 tree from the start, then the backward path
    assert gb.record == SolutionRecord((7, 5), 1, (TREE, ATTR2), (PATH, 1))
    # fallback branch: joined cost1 too big, cost1-complement feasible and smaller
    gb2 = GlobalBounds(20)
    gb2.f1_bar = 6
    esu(gb2, t, BACKWARD, ORDER_21, 1, 1, 3, 5, 5, path_id=1)
    assert (gb2.f1_bar, gb2.f2_sol) == (5, INF)
    assert gb2.record == SolutionRecord()


# ---------------------------------------------------------------------------
# Terminal nodes


def test_terminal_skip_examples(example_graph):
    # A popped node whose state's primary bounds meet is recycled unexpanded.
    for state, g, expanded in ((U2, (3, 4), False),  # h1 == ub1 == 2
                               (G, (6, 4), False),  # h1 == ub1 == 0
                               (U3, (3, 1), True)):  # h1 = 3 != ub1 = 4
        gb = GlobalBounds(100)
        gb.f1_bar = 100
        ctx = SearchContext(example_graph, example_tables(), gb, FORWARD, ORDER_12,
                            BUCKET_CFG, S)
        ctx.parents.record_expansion(S, None, 0)
        f1 = g[0] + EXAMPLE_H_F[state][0]
        f2 = g[1] + EXAMPLE_H_F[state][1]
        handle = ctx.pool.allocate(state, g[0], g[1], f1, f2, S, 1)
        assert ctx.process((f1, f2, handle))
        assert ctx.metrics.expansions == int(expanded), state
        # Every live node is queued: the processed one went back to the pool.
        assert ctx.pool.live == len(ctx.open), state


# ---------------------------------------------------------------------------
# Match / Store


def test_match_single_join():
    gb = GlobalBounds(6)
    match_partial(gb, [(1, 1, 1)], FORWARD, 3, 2, 3, path_id=2)
    assert (gb.f1_bar, gb.f2_sol) == (3, 4)
    # forward path 2 to state 3, then the stored backward path 1
    assert gb.record == SolutionRecord((3, 4), 3, (PATH, 2), (PATH, 1))


def test_match_early_break():
    gb = GlobalBounds(6)
    gb.f1_bar = 4
    # y1 infeasible on cost2, y2 breaks the scan at 2 + 5 = 7 > 4
    match_partial(gb, [(1, 9, 1), (5, 1, 2)], FORWARD, 3, 2, 3, path_id=2)
    assert (gb.f1_bar, gb.f2_sol) == (4, INF)
    assert gb.record == SolutionRecord()


def test_match_empty_is_noop():
    gb = GlobalBounds(6)
    match_partial(gb, None, FORWARD, 3, 2, 3, path_id=2)
    match_partial(gb, [], FORWARD, 3, 2, 3, path_id=2)
    assert gb.record == SolutionRecord()


# ---------------------------------------------------------------------------
# Path reconstruction


def example_halves() -> tuple:
    """Init trees per direction and attribute and recorded search paths on the
    example graph, for every kind of record half."""
    t = BoundsTables()
    t.tree[FORWARD][ATTR1] = [U1, U2, G, G, None]  # next state toward the goal
    t.tree[FORWARD][ATTR2] = [U3, G, G, G, None]
    t.tree[BACKWARD][ATTR1] = [None, S, S, S, U2]  # next state toward the start
    t.tree[BACKWARD][ATTR2] = [None, S, U3, S, U2]
    fwd = ParentArrays()  # from the start: u2 by path 1 direct, by path 2 via u1
    fwd.record_expansion(S, None, 0)
    fwd.record_expansion(U1, S, 1)
    fwd.record_expansion(U2, S, 1)
    fwd.record_expansion(U2, U1, 1)
    fwd.record_expansion(G, U2, 2)
    bwd = ParentArrays()  # from the goal: u1 by path 1 direct, by path 2 via u2
    bwd.record_expansion(G, None, 0)
    bwd.record_expansion(U2, G, 1)
    bwd.record_expansion(U1, G, 1)
    bwd.record_expansion(U1, U2, 1)
    bwd.record_expansion(S, U1, 2)
    return t, {FORWARD: fwd, BACKWARD: bwd}


@pytest.mark.parametrize("state, to_start, to_goal, path", [
    (U2, (TREE, ATTR2), (TREE, ATTR1), [S, U3, U2, G]),
    (U2, (PATH, 2), (TREE, ATTR1), [S, U1, U2, G]),
    (U2, (PATH, 1), (TREE, ATTR2), [S, U2, G]),
    (U1, (TREE, ATTR1), (PATH, 2), [S, U1, U2, G]),
    (U2, (TREE, ATTR2), (PATH, 1), [S, U3, U2, G]),
    (U1, (PATH, 1), (PATH, 2), [S, U1, U2, G]),
    (U2, (PATH, 2), (PATH, 1), [S, U1, U2, G]),
    (S, None, (TREE, ATTR2), [S, U3, G]),
    (S, None, (PATH, 1), [S, U1, U2, G]),
    (G, (TREE, ATTR1), None, [S, U2, G]),
    (G, (PATH, 1), None, [S, U1, U2, G]),
], ids=["tree+tree", "path+tree", "path+tree-2", "tree+path", "tree+path-2", "path+path",
        "path+path-2", "start+tree", "start+path", "tree+goal", "path+goal"])
def test_reconstruct_solution_every_half_shape(example_graph, state, to_start, to_goal, path):
    # The start side's half runs from the join state back to the start: the
    # forward search's path or the backward init tree. The goal side's half
    # is the backward search's path or the forward init tree.
    tables, parents = example_halves()
    record = SolutionRecord(path_cost(example_graph, path), state, to_start, to_goal)
    assert reconstruct_solution(record, tables, parents) == path


def test_store_refinement_drops_equal_g1_tail():
    chi = {}
    store_partial(chi, 0, 2, 5, 1, refine=True)
    store_partial(chi, 0, 2, 3, 2, refine=True)
    assert chi[0] == [(2, 3, 2)]


def test_store_keeps_distinct_g1():
    chi = {}
    store_partial(chi, 0, 2, 5, 1, refine=True)
    store_partial(chi, 0, 3, 1, 2, refine=True)
    assert chi[0] == [(2, 5, 1), (3, 1, 2)]


def test_store_without_refinement_appends():
    chi = {}
    store_partial(chi, 0, 2, 5, 1, refine=False)
    store_partial(chi, 0, 2, 3, 2, refine=False)
    assert chi[0] == [(2, 5, 1), (2, 3, 2)]


# ---------------------------------------------------------------------------
# ExP pruning rules, exercised through a hand-built context


def _context_for(graph, tables, gb):
    ctx = SearchContext(graph, tables, gb, FORWARD, ORDER_12, BUCKET_CFG, 0,
                        options=SolveOptions())
    ctx.parents.record_expansion(0, None, 0)
    return ctx


def test_expand_prunes_dominated_successor():
    g = Graph(2, [(0, 1, 1, 1)])
    t = BoundsTables()
    t.h[FORWARD][ATTR1] = [1, 0]
    t.h[FORWARD][ATTR2] = [1, 0]
    t.ub[FORWARD][ATTR1] = [9, 9]
    t.ub[FORWARD][ATTR2] = [9, 9]
    gb = GlobalBounds(100)
    gb.f1_bar = 100
    ctx = _context_for(g, t, gb)
    ctx.g_min[1] = 1  # a previous expansion of state 1 had g2 = 1
    ctx.expand_prune(0, 0, 0, idx=1)
    assert ctx.metrics.prunes_dominance == 1
    assert len(ctx.open) == 1  # only the setup node remains


def test_expand_prunes_by_opposite_upper_bounds():
    g = Graph(2, [(0, 1, 5, 1)])
    t = BoundsTables()
    t.h[FORWARD][ATTR1] = [0, 0]
    t.h[FORWARD][ATTR2] = [0, 0]
    t.ub[FORWARD][ATTR1] = [9, 9]
    t.ub[FORWARD][ATTR2] = [9, 9]
    t.ub[BACKWARD][ATTR1] = [9, 4]  # g1(y) = 5 > 4
    t.ub[BACKWARD][ATTR2] = [9, 9]
    t.h[BACKWARD][ATTR1] = [0, 0]
    t.h[BACKWARD][ATTR2] = [0, 0]
    gb = GlobalBounds(100)
    gb.f1_bar = 100
    ctx = _context_for(g, t, gb)
    ctx.expand_prune(0, 0, 0, idx=1)
    assert ctx.metrics.prunes_state_ub == 1
    # without the opposite tables the same successor survives
    t.h[BACKWARD] = [None, None]
    t.ub[BACKWARD] = [None, None]
    ctx2 = _context_for(g, t, gb)
    ctx2.expand_prune(0, 0, 0, idx=1)
    assert ctx2.metrics.prunes_state_ub == 0
    assert len(ctx2.open) == 2


def test_expand_prunes_by_global_bounds(example_graph):
    # First expansion of the worked example: u1's child violates f2.
    out = solve_wc_astar(example_graph, ProblemInstance(S, G, 6), BUCKET_CFG,
                         SolveOptions())
    m = out.metrics
    assert m.expansions == 1
    assert m.generations == 3
    assert m.prunes_global_f2 == 1
    assert m.prunes_global_f1 == 0


# ---------------------------------------------------------------------------
# Whole-solver behaviour on the worked example


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_example_instance_optimal(example_graph, name):
    out = SOLVERS[name](example_graph, ProblemInstance(S, G, 6), BUCKET_CFG,
                        SolveOptions())
    assert out.status == "optimal"
    assert out.costs == (5, 5)
    assert out.path == [S, U2, G]


@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_example_infeasible(example_graph, name):
    out = SOLVERS[name](example_graph, ProblemInstance(S, G, 2), BUCKET_CFG,
                        SolveOptions())
    assert out.status == "infeasible"
    assert out.costs is None


def test_wc_astar_golden_counts(example_graph):
    out = solve_wc_astar(example_graph, ProblemInstance(S, G, 6), BUCKET_CFG,
                         SolveOptions())
    m = out.metrics
    assert m.expansions == 1  # only the start node is expanded
    assert m.pops == 3  # two processed pops, then the terminating pop
    assert m.pushes == 3  # initial node plus two surviving successors
    assert out.record == SolutionRecord((5, 5), U2, (PATH, 1), (TREE, ATTR1))


def test_wc_ba_htf_tunes_backward_tables(example_graph):
    out = solve_wc_ba_star(example_graph, ProblemInstance(S, G, 6), BUCKET_CFG,
                           SolveOptions(record=True))
    assert out.costs == (5, 5)
    # the forward search's first expansion of u2 (g = (3,4)) informs the
    # backward tables: h_b1(u2) <- 3, ub_b2(u2) <- 4
    assert (BACKWARD, ATTR1, U2, 3, ATTR2, 4) in out.tuned


def test_wc_ba_tuning_off_same_result(example_graph):
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(4, 20)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        inst = ProblemInstance(0, n - 1, rng.randint(1, 50))
        a = solve_wc_ba_star(g, inst, BUCKET_CFG, SolveOptions(htf=True))
        b = solve_wc_ba_star(g, inst, BUCKET_CFG, SolveOptions(htf=False))
        assert (a.status, a.costs) == (b.status, b.costs)


@pytest.mark.parametrize("seed, size, start, goal, w, optimum", [
    (7, 12, 14, 129, 1486, (1688, 1448)),
    (3, 15, 148, 16, 1802, (2232, 1798)),
])
def test_wc_ba_htf_prunes_refreshed_f2_over_the_limit(seed, size, start, goal, w, optimum):
    # After tuning raises a forward node's f2 past the weight limit, expanding it
    # let esu lower f1_bar to an infeasible completion's cost1, which then hid
    # the optimum: wc-ba returned (1698, 1167) and (2251, 1562) here.
    g = road_grid_graph(seed, size, size)
    inst = ProblemInstance(start, goal, w)
    assert constrained_optimum(g, start, goal, w) == optimum
    for cfg in (BUCKET_CFG, QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY)):
        out = solve_wc_ba_star(g, inst, cfg, SolveOptions(check_invariants=True))
        assert (out.status, out.costs) == ("optimal", optimum), cfg.kind


@pytest.fixture(scope="module")
def hub_grids():
    """100 x 100 road-hub grids by seed, each built on first use."""
    return {}


# Each solver under its default schedule; wc-ebba-par also at lockstep K = 2..8
# and under two threads. The old Store test failed on seed 201 at K = 1, 2, 5
# and 7 and on seed 148 at every K.
HUB_SCHEDULES = ([(name, None) for name in sorted(SOLVERS)]
                 + [("wc-ebba-par", ("lockstep", k)) for k in range(2, 9)]
                 + [("wc-ebba-par", ("threads", 2))])


@pytest.mark.parametrize("seed, start, goal, w, optimum", [
    (201, 5790, 7273, 2226, (3304, 2189)),
    (148, 6296, 7877, 2369, (3643, 2355)),
], ids=["seed201", "seed148"])
@pytest.mark.parametrize("name, schedule", HUB_SCHEDULES,
                         ids=[name if schedule is None else f"{name}-{schedule[0]}{schedule[1]}"
                              for name, schedule in HUB_SCHEDULES])
def test_road_hub_reproducers(hub_grids, name, schedule, seed, start, goal, w, optimum):
    # Queries of the benchmark's road-hub workload, seeds 201 and 148. When
    # Match/Store depended on which side reached a state first, wc-ebba-par
    # returned (3307, 2095) and (3669, 2330) here. Its lockstep cases run
    # under every queue kind and tie policy, the rest on the workload's
    # binary heap. Under threads the sides interleave as the threads run, so
    # only the answer is compared.
    if seed not in hub_grids:
        hub_grids[seed] = road_grid_graph(seed, 100, 100)
    options = SolveOptions(check_invariants=True)
    if schedule is not None:
        options = SolveOptions(schedule=schedule, check_invariants=True)
    cfgs = [QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY)]
    if name == "wc-ebba-par" and options.schedule[0] == "lockstep":
        cfgs = ALL_QUEUE_CFGS
    inst = ProblemInstance(start, goal, w)
    for cfg in cfgs:
        out = SOLVERS[name](hub_grids[seed], inst, cfg, options)
        assert (out.status, out.costs) == ("optimal", optimum), (cfg.kind, cfg.tie_policy)


# s=0, c=1, a=2, v=3, b1=4, b3=5, t=6. With W = 60 the optimum is s-a-v-t,
# (20, 60); its prefix to v costs 34 on cost2 and its suffix 26. Every other
# way to v or from v is either cost1-free and cost2-heavy (via c or b1) or
# cost2-free and cost1-heavy (via b3), so neither ESU nor the init joins find
# the optimum: only a Match at v or a can.
STORE_ORDER_EDGES = [(0, 1, 0, 50), (1, 2, 0, 50), (0, 2, 5, 5), (2, 3, 5, 29),
                     (3, 6, 10, 26), (3, 4, 0, 50), (4, 6, 0, 50), (3, 5, 25, 0),
                     (5, 6, 25, 0)]


def test_wc_ebba_par_stores_a_state_the_backward_side_expands_first():
    # The budget gives cap_F = 33 and cap_B = 26. At K = 1 the backward side
    # expands v (g2 26) before the forward side pops it with g2 34, over its
    # cap. The backward label fails the plain Store test (h_2_B[v] = 34 >
    # cap_F); without the successor rule nothing was stored at v or a to
    # match, and the answer was the initial (60, 34) at K = 1 and 2.
    g = Graph(7, STORE_ORDER_EDGES)
    inst = ProblemInstance(0, 6, 60)
    assert constrained_optimum(g, 0, 6, 60) == (20, 60)
    for cfg in ALL_QUEUE_CFGS:
        for schedule in [("lockstep", k) for k in range(1, 9)] + [("threads", 2)]:
            out = solve_wc_ebba_par(g, inst, cfg, SolveOptions(
                schedule=schedule, check_invariants=True, record=True))
            assert (out.status, out.costs) == ("optimal", (20, 60)), \
                (cfg.kind, cfg.tie_policy, schedule)
            if schedule == ("lockstep", 1):
                assert [u for u, _, _ in out.trace["backward"][:2]] == [6, 3]
                assert [u for u, _, _ in out.trace["forward"][:3]] == [0, 2, 3]


# Every Metrics counter but wall_time_s, in this order, for the golden runs below.
GOLDEN_COUNTERS = ("expansions", "generations", "prunes_dominance", "prunes_state_ub",
                   "prunes_global_f1", "prunes_global_f2", "stale_reinserts", "pushes",
                   "pops", "queue_ops", "queue_peak", "pool_slots", "pool_blocks")
GOLDEN_RUNS = [
    # (grid seed, grid size, start, goal, W, queue, optimum, path, counters per solver)
    (9, 10, 9, 90, 1451, BUCKET_CFG, (1913, 1358),
     [9, 8, 7, 6, 5, 15, 25, 35, 45, 55, 54, 53, 52, 62, 61, 71, 70, 80, 90],
     {"wc-astar": (30, 107, 33, 0, 29, 6, 0, 40, 32, 32, 10, 11, 1),
      "wc-ba": (58, 203, 65, 29, 38, 11, 0, 62, 60, 489, 9, 11, 2),
      "wc-ebba": (31, 107, 34, 18, 22, 1, 0, 34, 34, 19, 4, 6, 2),
      "wc-ebba-par": (48, 165, 54, 24, 29, 7, 0, 53, 53, 59, 7, 9, 2)}),
    (7, 12, 11, 132, 1513, QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY), (2252, 1406),
     [11, 23, 35, 34, 46, 58, 70, 69, 68, 67, 66, 65, 64, 63, 62, 61, 60, 72, 84, 96, 108,
      120, 132],
     {"wc-astar": (35, 123, 37, 0, 41, 10, 0, 36, 36, 36, 4, 5, 1),
      "wc-ba": (70, 252, 72, 35, 58, 9, 1, 81, 72, 136, 13, 15, 2),
      "wc-ebba": (48, 166, 47, 21, 43, 4, 0, 53, 53, 50, 7, 9, 2),
      "wc-ebba-par": (65, 229, 70, 25, 51, 13, 0, 72, 72, 92, 11, 13, 2)}),
]


@pytest.mark.parametrize("seed, size, start, goal, w, cfg, optimum, path, counters",
                         GOLDEN_RUNS)
def test_golden_counters_on_road_grids(seed, size, start, goal, w, cfg, optimum, path,
                                       counters):
    # Pinned answers and counters: a change to a hot loop that keeps the
    # search's behaviour must leave every one of these numbers where it is.
    assert set(GOLDEN_COUNTERS) == {f.name for f in fields(Metrics)} - {"wall_time_s"}
    g = road_grid_graph(seed, size, size)
    inst = ProblemInstance(start, goal, w)
    for name, solver in SOLVERS.items():
        out = solver(g, inst, cfg, SolveOptions())
        assert (out.status, out.costs, out.path) == ("optimal", optimum, path), name
        got = tuple(getattr(out.metrics, c) for c in GOLDEN_COUNTERS)
        assert got == counters[name], name


@pytest.mark.parametrize("seed, start, goal, w, optimum, counters", [
    (201, 863, 2678, 3278, (3299, 3213), (99, 376, 116, 77, 59, 5, 0, 121, 112, 315, 17, 19, 2)),
    (148, 359, 2178, 3282, (3729, 3223), (86, 332, 93, 77, 53, 1, 0, 110, 99, 326, 23, 25, 2)),
], ids=["seed201", "seed148"])
def test_wc_ebba_breaks_primary_ties_on_the_secondary_key(hub_grids, seed, start, goal, w,
                                                          optimum, counters):
    # Road-hub queries on which the heads of the two queues tie on f1 under
    # secondary tie-breaking. wc-ebba then expands the side with the smaller
    # f2; always taking the forward side on a tie gives the same optimum with
    # other counters (queue_ops 317 here on seed 201; prunes_global_f1 54 and
    # pushes 109 on seed 148).
    if seed not in hub_grids:
        hub_grids[seed] = road_grid_graph(seed, 100, 100)
    out = solve_wc_ebba(hub_grids[seed], ProblemInstance(start, goal, w),
                        QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY), SolveOptions())
    assert (out.status, out.costs) == ("optimal", optimum)
    assert tuple(getattr(out.metrics, c) for c in GOLDEN_COUNTERS) == counters


def test_degenerate_budget_behaves_like_forward_search():
    # Front-loaded costs push the whole budget to the forward side (beta_f = 1).
    g = Graph(4, [(0, 1, 10, 1), (1, 2, 1, 1), (2, 3, 1, 1), (0, 2, 20, 5),
                  (1, 3, 9, 3)])
    for w in (1, 2, 3, 5, 9):
        inst = ProblemInstance(0, 3, w)
        a = solve_wc_ebba(g, inst, BUCKET_CFG, SolveOptions(check_invariants=True))
        b = solve_wc_astar(g, inst, BUCKET_CFG, SolveOptions())
        assert (a.status, a.costs) == (b.status, b.costs)
        assert (a.costs if a.status == "optimal" else None) == \
            constrained_optimum(g, 0, 3, w)


def test_timeout_zero_returns_init_incumbent(example_graph):
    out = solve_wc_ebba_par(example_graph, ProblemInstance(S, G, 6), BUCKET_CFG,
                            SolveOptions(timeout=0.0))
    assert out.status == "timeout"
    # the parallel initialisation already matched a feasible (6,4) join
    assert out.costs == (6, 4)


@pytest.mark.parametrize("timeout", [math.nan, -1.0, -1e-9])
def test_negative_or_nan_timeout_raises(timeout):
    # A NaN timeout never expires: every comparison with the deadline is false.
    with pytest.raises(ValueError):
        SolveOptions(timeout=timeout)


def test_lockstep_bitwise_reproducible(example_graph):
    # Only repeatability is checked: known defects still answer wrongly at some K.
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(5, 25)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        inst = ProblemInstance(0, n - 1, rng.randint(1, 50))
        for solver, k in itertools.product((solve_wc_ba_star, solve_wc_ebba_par),
                                           (1, 2, 3, 5, 8)):
            runs = [solver(g, inst, BUCKET_CFG,
                           SolveOptions(schedule=("lockstep", k), record=True))
                    for _ in range(2)]
            assert runs[0].status == runs[1].status
            assert runs[0].costs == runs[1].costs
            assert runs[0].trace == runs[1].trace
            assert runs[0].metrics.expansions == runs[1].metrics.expansions
            assert runs[0].metrics.pops == runs[1].metrics.pops


@pytest.mark.parametrize("schedule", [("lockstep", 0), ("lockstep", -3), ("fifo", 1),
                                      ("lockstep", 2.5), (), ("threads", 0), ("threads", -4),
                                      ("threads", "x")])
@pytest.mark.parametrize("solver", [solve_wc_astar, solve_wc_ba_star, solve_wc_ebba,
                                    solve_wc_ebba_par])
def test_bad_schedule_raises_instead_of_hanging(example_graph, solver, schedule):
    # Run in a thread so that a regression to the old endless loop fails the
    # test instead of hanging the suite.
    raised = []

    def solve():
        try:
            solver(example_graph, ProblemInstance(S, G, 6), BUCKET_CFG,
                   SolveOptions(schedule=schedule))
        except ValueError as exc:
            raised.append(exc)

    t = threading.Thread(target=solve, daemon=True)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive(), f"{schedule} did not return"
    assert len(raised) == 1


@pytest.mark.parametrize("schedule", [("lockstep", 1), ("threads", 2)])
def test_a_failing_side_fails_the_solve(monkeypatch, schedule):
    # The backward side raises on its first expansion. Under threads the
    # solve used to return the forward side's answer, optimal (2252, 1406).
    expand_prune = SearchContext.expand_prune

    def failing(self, *args):
        if self.direction == BACKWARD:
            raise RuntimeError("backward side failed")
        return expand_prune(self, *args)

    monkeypatch.setattr(SearchContext, "expand_prune", failing)
    g = road_grid_graph(7, 12, 12)
    with pytest.raises(RuntimeError, match="backward side failed"):
        solve_wc_ebba_par(g, ProblemInstance(11, 132, 1513), BUCKET_CFG,
                          SolveOptions(schedule=schedule))


@pytest.mark.parametrize("start, goal, bad", [(-1, G, "start -1"), (-5, G, "start -5"),
                                              (5, G, "start 5"), (7, G, "start 7"),
                                              (S, -1, "goal -1"), (S, 5, "goal 5")])
@pytest.mark.parametrize("name", sorted(SOLVERS))
def test_a_query_end_outside_the_graph_raises(example_graph, name, start, goal, bad):
    # A start of -1 used to give optimal (0, 0) [-1] and one of -5 optimal
    # (2, 4) [4] from the bidirectional solvers, read off the far end of the lists.
    with pytest.raises(ValueError, match=f"the {bad} is not one of the graph's states 0..4"):
        SOLVERS[name](example_graph, ProblemInstance(start, goal, 10), BUCKET_CFG)


def test_threads_match_lockstep_costs():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(4, 22)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        inst = ProblemInstance(0, n - 1, rng.randint(1, 50))
        for solver in (solve_wc_ba_star, solve_wc_ebba_par):
            a = solver(g, inst, BUCKET_CFG, SolveOptions(schedule=("lockstep", 1)))
            b = solver(g, inst, BUCKET_CFG, SolveOptions(schedule=("threads", 2)))
            assert (a.status, a.costs) == (b.status, b.costs)


def test_all_solvers_all_queues_match_oracle_small():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(4, 18)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        s = rng.randrange(n)
        t = rng.randrange(n)
        w = rng.randint(1, 40)
        expected = constrained_optimum(g, s, t, w)
        inst = ProblemInstance(s, t, w)
        for name, solver in SOLVERS.items():
            for cfg in ALL_QUEUE_CFGS:
                out = solver(g, inst, cfg, SolveOptions(check_invariants=True))
                got = out.costs if out.status == "optimal" else None
                assert got == expected, (name, cfg.kind, cfg.tie_policy, s, t, w)


def test_all_solvers_with_coordinates_match_oracle():
    # Default options: the geometric heuristic and wc-ba's HTF are on.
    rng = random.Random(53)
    for seed in range(30):
        n = rng.randint(5, 16)
        g = geo_random_graph(seed, n, 2 * n)
        s, t = rng.randrange(n), rng.randrange(n)
        w = rng.randint(1, 40)
        expected = constrained_optimum(g, s, t, w)
        inst = ProblemInstance(s, t, w)
        for name, solver in SOLVERS.items():
            for cfg in (BUCKET_CFG, QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY)):
                out = solver(g, inst, cfg, SolveOptions(check_invariants=True))
                got = out.costs if out.status == "optimal" else None
                assert got == expected, (name, cfg.kind, seed, s, t, w)
                plain = solver(Graph(n, list(g.edges())), inst, cfg, SolveOptions())
                assert plain.costs == out.costs, (name, cfg.kind, seed, s, t, w)


def test_tie_breaking_monotonicity_small():
    # expansions(no-tie) >= expansions(tie); heap(tie) == hybrid(tie)
    rng = random.Random(37)
    for _ in range(40):
        n = rng.randint(5, 25)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        inst = ProblemInstance(0, n - 1, rng.randint(1, 60))
        counts = {}
        for kind in (HYBRID, BINARY_HEAP):
            for tie in (TIE_NONE_LIFO, TIE_SECONDARY):
                cfg = QueueConfig(kind, 0, 0, 1, tie)
                out = solve_wc_astar(g, inst, cfg, SolveOptions())
                counts[(kind, tie)] = out.metrics.expansions
        assert counts[(HYBRID, TIE_NONE_LIFO)] >= counts[(HYBRID, TIE_SECONDARY)]
        assert counts[(BINARY_HEAP, TIE_NONE_LIFO)] >= counts[(BINARY_HEAP, TIE_SECONDARY)]
        assert counts[(BINARY_HEAP, TIE_SECONDARY)] == counts[(HYBRID, TIE_SECONDARY)]


def test_anytime_incumbents_lexicographically_decrease():
    rng = random.Random(41)
    cfg = QueueConfig(HYBRID, 0, 0, 1, TIE_SECONDARY)
    for _ in range(40):
        n = rng.randint(5, 22)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        inst = ProblemInstance(0, n - 1, rng.randint(1, 60))
        out = solve_wc_ba_star(g, inst, cfg, SolveOptions())
        pairs = [(c1, c2) for c1, c2, _ in out.incumbents]
        for a, b in zip(pairs, pairs[1:]):
            assert b < a  # strictly lexicographically decreasing


def test_anytime_backward_solutions_are_pareto_optimal():
    # Incumbents nominated by the (f2, f1)-ordered search sit on the frontier.
    rng = random.Random(43)
    cfg = QueueConfig(HYBRID, 0, 0, 1, TIE_SECONDARY)
    for _ in range(60):
        n = rng.randint(5, 20)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        s, t = 0, n - 1
        w = rng.randint(1, 60)
        out = solve_wc_ba_star(g, ProblemInstance(s, t, w), cfg, SolveOptions())
        if out.status != "optimal":
            continue
        frontier = set(enumerate_pareto(g, s, t).cost_pairs())
        backward = [(c1, c2) for c1, c2, tag in out.incumbents if tag == "esu:b:21"]
        for pair in backward:
            assert pair in frontier, (pair, sorted(frontier))


def test_wider_bucket_widths_match_oracle():
    rng = random.Random(47)
    for _ in range(25):
        n = rng.randint(4, 20)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        inst = ProblemInstance(0, n - 1, rng.randint(1, 50))
        expected = constrained_optimum(g, 0, n - 1, inst.weight_limit)
        for delta_f in (3, 10):
            for kind, tie in ((BUCKET, TIE_NONE_LIFO), (BUCKET, TIE_NONE_FIFO),
                              (HYBRID, TIE_SECONDARY)):
                cfg = QueueConfig(kind, 0, 0, delta_f, tie)
                for solver in (solve_wc_astar, solve_wc_ebba, solve_wc_ba_star):
                    out = solver(g, inst, cfg, SolveOptions())
                    got = out.costs if out.status == "optimal" else None
                    assert got == expected, (kind, tie, delta_f, got, expected)
