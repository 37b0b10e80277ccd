import random
from fractions import Fraction

import pytest

from wcspp.bounds import (ATTR1, ATTR2, BoundedSearch, Clock, INF, INFEASIBLE, SEARCH,
                          SHORTCUT, budget_factors, geo_heuristic,
                          init_parallel_bidirectional, init_sequential_bidirectional,
                          init_unidirectional, run_sides)
from wcspp.graph import BACKWARD, FORWARD, Graph, ProblemInstance, random_graph
from wcspp.oracle import constrained_optimum
from wcspp.pqueue import BUCKET, QueueConfig, TIE_NONE_LIFO
from wcspp.solvers import SolveOptions, solve_wc_ba_star

from conftest import (EXAMPLE_EDGES, EXAMPLE_H_F, EXAMPLE_UB_F, G, S, U1, U2, U3,
                      check_tables_against_paths, geo_random_graph, haversine_deg)

BUCKET_CFG = QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO)


def test_backward_cost2_bounds(example_graph):
    s = BoundedSearch(example_graph, G, BACKWARD, ATTR2).run()
    assert s.dist == [EXAMPLE_H_F[u][1] for u in range(5)]
    assert s.comp == [EXAMPLE_UB_F[u][0] for u in range(5)]


def test_backward_cost1_bounds(example_graph):
    s = BoundedSearch(example_graph, G, BACKWARD, ATTR1).run()
    assert s.dist == [EXAMPLE_H_F[u][0] for u in range(5)]
    assert s.comp == [EXAMPLE_UB_F[u][1] for u in range(5)]


def test_search_from_state_without_edges(example_graph):
    # The start state has no incoming edges, so its backward search stays put.
    s = BoundedSearch(example_graph, S, BACKWARD, ATTR2).run()
    assert s.dist[S] == 0
    assert all(s.dist[u] == INF for u in range(5) if u != S)


def test_bound_stops_expansion(example_graph):
    s = BoundedSearch(example_graph, G, BACKWARD, ATTR2, bound=2).run()
    assert s.settled == [False, False, True, True, True]


def test_lexicographic_tie_breaking_on_companion(example_graph):
    # u3 -> goal directly costs (3,3); via u2 costs (4,2). On cost2 the lex
    # winner is (2,4), keeping the smaller companion out of the tie.
    s = BoundedSearch(example_graph, G, BACKWARD, ATTR2).run()
    assert (s.dist[U3], s.comp[U3]) == (2, 4)


def test_init_unidirectional_example(example_graph):
    init = init_unidirectional(example_graph, ProblemInstance(S, G, 6))
    assert init.status == SEARCH
    assert init.gb.f1_bar == 7
    assert init.gb.f2_sol == INF
    # no state removed: every lower bound fits the limits
    assert all(init.valid_states)
    tables = init.tables
    for u in range(5):
        assert (tables.h[FORWARD][ATTR1][u], tables.h[FORWARD][ATTR2][u]) == EXAMPLE_H_F[u]
        assert (tables.ub[FORWARD][ATTR1][u], tables.ub[FORWARD][ATTR2][u]) == EXAMPLE_UB_F[u]


def test_init_unidirectional_infeasible(example_graph):
    init = init_unidirectional(example_graph, ProblemInstance(S, G, 2))
    assert init.status == INFEASIBLE


def test_init_unidirectional_loose_limit_shortcut(example_graph):
    init = init_unidirectional(example_graph, ProblemInstance(S, G, 8))
    assert init.status == SHORTCUT
    assert init.gb.record.costs == (3, 8)
    assert constrained_optimum(example_graph, S, G, 8) == (3, 8)


def test_init_sequential_example(example_graph):
    init = init_sequential_bidirectional(example_graph, ProblemInstance(S, G, 6))
    # matching during the third bounded search finds the u2 join and closes the
    # gap to the optimum, so the constrained search is skipped entirely
    assert init.gb.f1_bar == 5
    assert init.status == SHORTCUT
    assert init.gb.record.costs == (5, 5)
    # u1 drops out: any path through it weighs more than the limit
    assert init.valid_states[U1] is False or init.valid_states[U1] == False  # noqa: E712
    assert all(init.valid_states[u] for u in (S, U2, U3, G))


def test_init_sequential_infeasible(example_graph):
    init = init_sequential_bidirectional(example_graph, ProblemInstance(S, G, 2))
    assert init.status == INFEASIBLE


def test_init_parallel_example_deterministic(example_graph):
    runs = []
    for _ in range(2):
        init = init_parallel_bidirectional(example_graph, ProblemInstance(S, G, 6))
        assert init.status == SEARCH
        runs.append((init.gb.f1_bar, init.gb.f2_sol, tuple(init.valid_states)))
    assert runs[0] == runs[1]
    # round-two matching finds the u3 join (6,4) before any constrained search
    assert runs[0][0] == 6
    assert runs[0][1] == 4


def test_init_parallel_infeasible_aborts_round_one(example_graph):
    init = init_parallel_bidirectional(example_graph, ProblemInstance(S, G, 2))
    assert init.status == INFEASIBLE


def test_init_parallel_feasible_shortest_path_aborts(example_graph):
    init = init_parallel_bidirectional(example_graph, ProblemInstance(S, G, 8))
    assert init.status == SHORTCUT
    assert init.gb.record.costs == (3, 8)


def test_init_parallel_threads_matches_lockstep(example_graph):
    lock = init_parallel_bidirectional(example_graph, ProblemInstance(S, G, 6))
    thr = init_parallel_bidirectional(example_graph, ProblemInstance(S, G, 6),
                                      schedule=("threads", 2))
    assert thr.status == lock.status
    assert thr.gb.f1_bar <= 7 and lock.gb.f1_bar <= 7


def test_init_parallel_round_two_can_decide():
    # The cost1-shortest path s-x-g breaks the limit and x is out of round
    # two, whose cost1 search then settles s on the optimum s-y-g.
    g = Graph(4, [(0, 1, 1, 1), (1, 3, 1, 10), (0, 2, 2, 1), (2, 3, 2, 1)])
    init = init_parallel_bidirectional(g, ProblemInstance(0, 3, 5))
    assert init.status == SHORTCUT
    assert [(d, a) for d, a, _ in init.settled_per_phase] == \
        [(FORWARD, ATTR2), (BACKWARD, ATTR1), (BACKWARD, ATTR2), (FORWARD, ATTR1)]
    assert not init.settled_per_phase[0][2][1]  # x: cost2 10 to the goal
    assert init.gb.record.costs == (4, 2) == constrained_optimum(g, 0, 3, 5)
    out = solve_wc_ba_star(g, ProblemInstance(0, 3, 5), BUCKET_CFG, SolveOptions())
    assert (out.status, out.costs, out.path) == ("optimal", (4, 2), [0, 2, 3])
    assert out.metrics.expansions == 0


def test_shortcut_round_stops_when_its_target_settles():
    # A loose limit makes the cost1-shortest path feasible: the cost1 search
    # settles exactly the states a full run settles up to the start, no more.
    rng = random.Random(61)
    cut = 0
    for _ in range(60):
        n = rng.randint(4, 14)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        init = init_unidirectional(g, ProblemInstance(0, n - 1, 1 << 40))
        if init.status != SHORTCUT:
            continue
        (_, _, first), (table_dir, attr, mask) = init.settled_per_phase
        assert (table_dir, attr) == (FORWARD, ATTR1)
        order = [u for u, _, _ in
                 BoundedSearch(g, n - 1, BACKWARD, ATTR1, allowed=first).steps()]
        upto = order[:order.index(0) + 1]
        assert [u for u in range(n) if mask[u]] == sorted(upto)
        assert init.gb.record.costs == constrained_optimum(g, 0, n - 1, 1 << 40)
        cut += len(upto) < len(order)
    assert cut > 0


def _brute_force_scale(graph):
    ratios = [c1 / d for u, v, c1, _ in graph.edges()
              if (d := haversine_deg(graph.coords[u], graph.coords[v])) > 1e-9]
    return min(ratios)


@pytest.mark.parametrize("seed", range(6))
def test_geo_heuristic_matches_brute_force(seed):
    g = geo_random_graph(seed, 12, 30)
    n = g.state_count
    scale = _brute_force_scale(g)
    for t in range(n):
        h = geo_heuristic(g, t, ATTR1)
        expected = [int(haversine_deg(g.coords[u], g.coords[t]) * scale) for u in range(n)]
        assert [h[u] for u in range(n)] == expected
        # lookups are memoised and in any order
        assert [h[u] for u in reversed(range(n))] == expected[::-1]


@pytest.mark.parametrize("seed", range(6))
def test_geo_heuristic_is_admissible(seed):
    g = geo_random_graph(seed, 15, 40)
    informative = 0
    for t in range(g.state_count):
        h = geo_heuristic(g, t, ATTR1)
        to_t = BoundedSearch(g, t, BACKWARD, ATTR1).run().dist  # cost1 from u to t
        for u in range(g.state_count):
            assert h[u] <= to_t[u]
            informative += h[u] > 0
    assert informative > 0


def test_geo_heuristic_none_cases():
    g = geo_random_graph(1, 8, 10)
    assert geo_heuristic(g, 3, ATTR1) is not None
    assert geo_heuristic(g, 3, ATTR2) is None
    assert geo_heuristic(Graph(5, EXAMPLE_EDGES), G, ATTR1) is None  # no coordinates
    assert geo_heuristic(Graph(0, [], []), 0, ATTR1) is None
    # a zero-cost edge between distinct points makes the cost1-per-metre scale 0
    zero = Graph(3, [(0, 1, 0, 1), (1, 2, 5, 1)], [(40.0, -73.0), (40.01, -73.0), (40.02, -73.0)])
    assert geo_heuristic(zero, 2, ATTR1) is None


def test_geo_heuristic_scans_edges_once_per_graph(monkeypatch):
    scans = []
    edges = Graph.edges

    def counting_edges(self):
        scans.append(self)
        return edges(self)

    monkeypatch.setattr(Graph, "edges", counting_edges)
    a = geo_random_graph(2, 10, 20)
    b = geo_random_graph(3, 10, 20)
    zero = Graph(2, [(0, 1, 0, 1)], [(40.0, -73.0), (40.01, -73.0)])
    scans.clear()  # building the graphs above scanned edges too
    for graph in (a, b, zero):
        for _ in range(3):
            for t in range(graph.state_count):
                geo_heuristic(graph, t, ATTR1)
    assert scans == [a, b, zero]


def test_budget_factors():
    # equal sums split evenly
    bf = budget_factors([True, True], [50, 50], [50, 50])
    assert (bf.forward, bf.backward) == (Fraction(1, 2), Fraction(1, 2))
    # forward sum 100 vs backward 300: the cheap direction takes the whole budget
    bf = budget_factors([True] * 2, [40, 60], [100, 200])
    assert (bf.forward, bf.backward) == (Fraction(1), Fraction(0))
    # mirrored case clamps the other way
    bf = budget_factors([True] * 2, [100, 100], [40, 60])
    assert (bf.forward, bf.backward) == (Fraction(0), Fraction(1))
    # un-clamped ratio: sums 100 vs 150 give beta = min(1, 75/100) = 3/4
    bf = budget_factors([True] * 2, [50, 50], [75, 75])
    assert (bf.forward, bf.backward) == (Fraction(3, 4), Fraction(1, 4))
    # degenerate all-zero bounds fall back to the even split
    bf = budget_factors([True], [0], [0])
    assert (bf.forward, bf.backward) == (Fraction(1, 2), Fraction(1, 2))
    # exact-rational complement in all cases
    for hf, hb in (([3, 7], [2, 9]), ([1, 1], [1000, 3]), ([0, 5], [5, 0])):
        bf = budget_factors([True, True], hf, hb)
        assert bf.forward + bf.backward == 1


@pytest.mark.parametrize("flavor", ["uni", "seq", "par"])
def test_admissibility_and_realization_on_random_graphs(flavor):
    rng = random.Random(sum(map(ord, flavor)))
    inits = {
        "uni": init_unidirectional,
        "seq": init_sequential_bidirectional,
        "par": init_parallel_bidirectional,
    }
    for _ in range(40):
        n = rng.randint(3, 11)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        start, goal = 0, n - 1
        w = rng.randint(1, 40)
        inst = ProblemInstance(start, goal, w)
        init = inits[flavor](g, inst)
        oracle = constrained_optimum(g, start, goal, w)
        if init.status == INFEASIBLE:
            assert oracle is None
        elif init.status == SHORTCUT:
            # proven optimal during initialisation; a parallel init may have
            # aborted its round mid-flight, leaving tables legitimately partial
            assert init.gb.record.costs == oracle
        else:
            assert oracle is not None
            check_tables_against_paths(g, inst, init)


def test_reduction_soundness():
    # dropping states outside S' never changes the constrained optimum
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(4, 14)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        start, goal = 0, n - 1
        w = rng.randint(1, 30)
        init = init_sequential_bidirectional(g, ProblemInstance(start, goal, w))
        if init.status != SEARCH:
            continue
        keep = init.valid_states
        reduced = Graph(n, [e for e in g.edges() if keep[e[0]] and keep[e[1]]])
        assert constrained_optimum(reduced, start, goal, w) == \
            constrained_optimum(g, start, goal, w)


def test_bounded_search_run_surface(example_graph):
    seen = []
    s = BoundedSearch(example_graph, G, BACKWARD, ATTR2).run(
        lambda u, dp, ds: seen.append(u))
    assert s.dist == [EXAMPLE_H_F[u][1] for u in range(5)]
    assert s.comp == [EXAMPLE_UB_F[u][0] for u in range(5)]
    assert all(s.settled)
    assert sorted(seen) == list(range(5))
    # predecessor walk from the start reaches the goal
    u, hops = S, 0
    while s.pred[u] is not None:
        u = s.pred[u]
        hops += 1
    assert u == G and hops <= 4


def _toy_sides(log):
    """Step callables that log their name per step: side 'a' has 3 steps, 'b' 5."""
    def side(name, n):
        left = [n]

        def step():
            if left[0] == 0:
                return False
            left[0] -= 1
            log.append(name)
            return True
        return step
    return [side("a", 3), side("b", 5)]


@pytest.mark.parametrize("k, require_both, expected", [
    (1, True, "abababbb"),
    (2, True, "aabbabbb"),
    (3, True, "aaabbbbb"),
    (1, False, "ababab"),  # a's fourth step finds it done: b gets no further turn
    (2, False, "aabba"),
    (3, False, "aaabbb"),
])
def test_run_sides_lockstep_interleaving(k, require_both, expected):
    log = []
    stops = []
    timed_out = run_sides(("lockstep", k), _toy_sides(log), require_both=require_both,
                          stop=lambda: stops.append(len(log)) or False)
    assert timed_out is False
    assert "".join(log) == expected
    # stop() is consulted after every step that did work, and only then
    assert stops == list(range(1, len(log) + 1))


def test_run_sides_stop_halts_both_sides():
    log = []
    assert run_sides(("lockstep", 2), _toy_sides(log), stop=lambda: len(log) >= 3) is False
    assert "".join(log) == "aab"


def test_run_sides_expired_clock():
    log = []
    assert run_sides(("lockstep", 1), _toy_sides(log), clock=Clock(0.0)) is True
    assert log == []
    assert run_sides(("lockstep", 1), _toy_sides(log), clock=Clock(None)) is False
    assert "".join(log) == "abababbb"


def test_run_sides_threads_run_each_side_to_completion():
    log = []
    assert run_sides(("threads", 2), _toy_sides(log)) is False
    assert sorted(log) == list("aaabbbbb")


@pytest.mark.parametrize("schedule", [("lockstep", 0), ("lockstep", -3), ("round-robin", 1)])
def test_run_sides_rejects_bad_schedule(schedule):
    log = []
    with pytest.raises(ValueError):
        run_sides(schedule, _toy_sides(log))
    assert log == []
