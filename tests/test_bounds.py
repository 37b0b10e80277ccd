import random
import time
from fractions import Fraction

import pytest

from wcspp.bounds import (ATTR1, ATTR2, PLAN_PARALLEL, PLAN_SEQUENTIAL, PLAN_UNIDIRECTIONAL,
                          BoundedSearch, Clock, INF, INFEASIBLE, SEARCH, SHORTCUT,
                          budget_factors, geo_heuristic, init_parallel_bidirectional,
                          init_sequential_bidirectional, init_unidirectional, run_init,
                          run_sides)
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


def _textbook_search(graph, source, traverse_dir, attr, heuristic, limit, allowed):
    """Lexicographic label-setting search, written plainly: each step settles
    the open state with the smallest (f, companion, dist, state), where a
    state's label is the lexicographically smallest (dist, companion) offered
    so far (the first offer wins a tie) and f = dist + h. It stops once that
    f exceeds limit(number of states settled so far)."""
    h = (lambda v: 0) if heuristic is None else heuristic.__getitem__
    label = {source: (0, 0, None)}  # state -> (dist, companion, predecessor)
    order, settled = [], set()
    while True:
        open_states = [v for v in label if v not in settled]
        if not open_states:
            break
        u = min(open_states, key=lambda v: (label[v][0] + h(v), label[v][1], label[v][0], v))
        dp, ds, _ = label[u]
        if dp + h(u) > limit(len(order)):
            break
        settled.add(u)
        order.append(u)
        for v, c1, c2 in graph.successors(u, traverse_dir):
            if (allowed is not None and not allowed[v]) or v in settled:
                continue
            step = (c1, c2) if attr == ATTR1 else (c2, c1)
            offer = (dp + step[0], ds + step[1])
            if v not in label or offer < label[v][:2]:
                label[v] = offer + (u,)
    n = graph.state_count
    dist, comp, pred = [INF] * n, [INF] * n, [None] * n
    for u in order:
        dist[u], comp[u], pred[u] = label[u]
    return order, dist, comp, pred


@pytest.mark.parametrize("seed", range(8))
def test_bounded_search_matches_textbook_search(seed):
    # Both traverse directions and attributes, with and without a mask, a table
    # or geometric heuristic, and constant or tightening bounds: the settle
    # sequence and every dist/comp/pred entry agree with the plain version.
    rng = random.Random(seed)
    n = rng.randint(6, 30)
    # costs of 1-3 make equal labels common, so the tie rules are exercised
    g = geo_random_graph(seed, n, 3 * n) if seed % 2 else random_graph(seed, n, 3 * n, 3)
    cases = 0
    for _ in range(12):
        source = rng.randrange(n)
        tdir = rng.choice((FORWARD, BACKWARD))
        attr = rng.choice((ATTR1, ATTR2))
        allowed = None
        if rng.random() < 0.5:
            allowed = [rng.random() < 0.7 for _ in range(n)]
        kind = rng.choice(("none", "table", "geo"))
        heuristic = None
        if kind == "table":
            heuristic = [rng.randint(0, 6) for _ in range(n)]
        elif kind == "geo" and attr == ATTR1:
            heuristic = geo_heuristic(g, rng.randrange(n), ATTR1)
        top = rng.choice((INF, rng.randint(5, 10 * n)))
        shrink = rng.randint(0, 3)
        limit = (lambda k: top) if shrink == 0 else (lambda k: top - shrink * k)
        box = []
        bound = top if shrink == 0 else (lambda: limit(len(box[0].order)))
        search = BoundedSearch(g, source, tdir, attr, heuristic=heuristic, bound=bound,
                               allowed=allowed)
        box.append(search)
        seq = [u for u, _, _ in search.steps()]
        order, dist, comp, pred = _textbook_search(g, source, tdir, attr, heuristic, limit,
                                                   allowed)
        assert seq == search.order == order
        assert (search.dist, search.comp, search.pred) == (dist, comp, pred)
        assert search.settled == [u in set(order) for u in range(n)]
        cases += len(order) > 1
    assert cases > 0


def _rounds(plan, settled_per_phase):
    """Split an init's (direction, attr, mask) records into the plan's rounds."""
    rounds, i = [], 0
    for rnd in plan:
        if i >= len(settled_per_phase):
            break
        rounds.append([mask for _, _, mask in settled_per_phase[i:i + len(rnd)]])
        i += len(rnd)
    return rounds


def test_parallel_round_two_keeps_to_states_both_searches_settled():
    # x (state 1) lies within the weight limit of the goal, so the round-one
    # cost2 search settles it, but its cost1 of 100 is past f1_bar = 4, so the
    # cost1 search does not. Round two's cost2 search would reach x (1 + 2 <= 5)
    # and must not: x is outside S'.
    g = Graph(4, [(0, 3, 1, 10), (0, 2, 2, 1), (2, 3, 2, 1), (0, 1, 100, 1), (1, 3, 100, 2)])
    init = init_parallel_bidirectional(g, ProblemInstance(0, 3, 5))
    assert init.status == SEARCH and init.gb.f1_bar == 4
    assert init.settled_per_phase == [
        (FORWARD, ATTR2, [True, True, True, True]),
        (BACKWARD, ATTR1, [True, False, True, True]),
        (BACKWARD, ATTR2, [True, False, True, True]),
        (FORWARD, ATTR1, [True, False, True, True]),
    ]
    assert init.valid_states == [True, False, True, True]


@pytest.mark.parametrize("plan", [PLAN_UNIDIRECTIONAL, PLAN_SEQUENTIAL, PLAN_PARALLEL],
                         ids=["uni", "seq", "par"])
def test_plan_masks_follow_the_settled_states(plan):
    # S' is the union of the last round's settled states, and every search of
    # a later round stays inside the states all searches of the round before
    # settled; both masks are plain lists of bools.
    rng = random.Random(len(plan))
    searched = 0
    for trial in range(60):
        n = rng.randint(4, 24)
        seed = rng.randrange(2**30)
        g = geo_random_graph(seed, n, 2 * n) if trial % 2 else random_graph(seed, n, 2 * n)
        start, goal = rng.randrange(n), rng.randrange(n)
        # limits just above the cost2-shortest distance prune the most states
        h2 = BoundedSearch(g, start, FORWARD, ATTR2).run().dist[goal]
        if h2 == INF:
            continue
        inst = ProblemInstance(start, goal, max(0, h2 + rng.randint(-1, 2 * n)))
        for schedule in (("lockstep", 1), ("lockstep", 3)):
            init = run_init(g, inst, plan, schedule=schedule)
            rounds = _rounds(plan, init.settled_per_phase)
            for prev, cur in zip(rounds, rounds[1:]):
                inside = [all(mask[u] for mask in prev) for u in range(n)]
                for mask in cur:
                    assert all(inside[u] for u in range(n) if mask[u])
            if init.status == INFEASIBLE:
                assert init.valid_states is None
                continue
            union = [any(mask[u] for mask in rounds[-1]) for u in range(n)]
            assert init.valid_states == union
            assert all(type(x) is bool for x in init.valid_states)
            # valid_members lists the same states, each once
            assert sorted(init.valid_members) == [u for u in range(n) if union[u]]
            searched += init.status == SEARCH
    assert searched > 0


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
    bf = budget_factors(range(2), [50, 50], [50, 50])
    assert (bf.forward, bf.backward) == (Fraction(1, 2), Fraction(1, 2))
    # forward sum 100 vs backward 300: the cheap direction takes the whole budget
    bf = budget_factors(range(2), [40, 60], [100, 200])
    assert (bf.forward, bf.backward) == (Fraction(1), Fraction(0))
    # mirrored case clamps the other way
    bf = budget_factors(range(2), [100, 100], [40, 60])
    assert (bf.forward, bf.backward) == (Fraction(0), Fraction(1))
    # un-clamped ratio: sums 100 vs 150 give beta = min(1, 75/100) = 3/4
    bf = budget_factors(range(2), [50, 50], [75, 75])
    assert (bf.forward, bf.backward) == (Fraction(3, 4), Fraction(1, 4))
    # degenerate all-zero bounds fall back to the even split
    bf = budget_factors([0], [0], [0])
    assert (bf.forward, bf.backward) == (Fraction(1, 2), Fraction(1, 2))
    # exact-rational complement in all cases
    for hf, hb in (([3, 7], [2, 9]), ([1, 1], [1000, 3]), ([0, 5], [5, 0])):
        bf = budget_factors(range(2), hf, hb)
        assert bf.forward + bf.backward == 1


def members_of(mask):
    return [u for u, inside in enumerate(mask) if inside]


def test_budget_factors_visit_only_members_of_s_prime():
    # State 1 is outside S' and states 2 and 3 have an infinite bound: only
    # states 0 and 4 count, sums 40 vs 60, so beta_f = min(1, 30/40) = 3/4.
    # Counting state 1 as well would flip the split to (0, 1).
    valid = [True, False, True, True, True]
    h_f = [10, 100, INF, 5, 30]
    h_b = [20, 0, 4, INF, 40]
    bf = budget_factors(members_of(valid), h_f, h_b)
    assert (bf.forward, bf.backward) == (Fraction(3, 4), Fraction(1, 4))
    # members in any order, or as an iterator, give the same split
    for members in ([4, 3, 2, 0], iter([0, 2, 3, 4])):
        assert budget_factors(members, h_f, h_b) == bf
    # an empty S', or one whose every member has an infinite bound, splits evenly
    for mask in ([False] * 5, [False, False, True, True, False]):
        bf = budget_factors(members_of(mask), h_f, h_b)
        assert (bf.forward, bf.backward) == (Fraction(1, 2), Fraction(1, 2))
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 12)
        mask = [rng.random() < 0.6 for _ in range(n)]
        hf = [rng.choice((INF, rng.randint(0, 9))) for _ in range(n)]
        hb = [rng.choice((INF, rng.randint(0, 9))) for _ in range(n)]
        members = [u for u in range(n) if mask[u] and hf[u] != INF and hb[u] != INF]
        sum_f = sum(hf[u] for u in members)
        sum_b = sum(hb[u] for u in members)
        bf = budget_factors(reversed(members_of(mask)), hf, hb)
        assert bf.forward + bf.backward == 1
        small, large = sorted((sum_f, sum_b))
        share = Fraction(1, 2) if small == large else (
            Fraction(1) if small == 0 else min(Fraction(1), Fraction(large, 2 * small)))
        assert (bf.forward if sum_f <= sum_b else bf.backward) == share


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
    s = BoundedSearch(example_graph, G, BACKWARD, ATTR2).run()
    assert s.dist == [EXAMPLE_H_F[u][1] for u in range(5)]
    assert s.comp == [EXAMPLE_UB_F[u][0] for u in range(5)]
    assert all(s.settled)
    assert sorted(s.order) == list(range(5))
    # predecessor walk from the start reaches the goal
    u, hops = S, 0
    while s.pred[u] is not None:
        u = s.pred[u]
        hops += 1
    assert u == G and hops <= 4


def _toy_sides(log):
    """Iterators that log their name per step: side 'a' has 3 steps, 'b' 5."""
    def side(name, n):
        for _ in range(n):
            log.append(name)
            yield
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
    timed_out = run_sides(("lockstep", k), _toy_sides(log), require_both=require_both)
    assert timed_out is False
    assert "".join(log) == expected


def _line() -> Graph:
    """A line 0 - 1 - ... - 7 with arcs both ways, each of cost (1, 5)."""
    return Graph(8, [e for u in range(7) for e in ((u, u + 1, 1, 5), (u + 1, u, 1, 5))])


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("start, goal, w, status", [
    (0, 7, 12, INFEASIBLE),  # the cost2 side settles 3 states, the cost1 side has 8
    (0, 7, 22, INFEASIBLE),
    (2, 4, 100, SHORTCUT),  # the cost1 side settles the goal 5th, the cost2 side has 8
    (0, 3, 100, SHORTCUT),
])
def test_a_round_one_decision_halts_the_other_side_at_once(k, start, goal, w, status):
    # Round one of the parallel plan runs the (FORWARD, cost2) search from the
    # goal and the (BACKWARD, cost1) search from the start in lockstep. Once
    # one side decides the init, the other side settles no further state.
    g = _line()
    init = run_init(g, ProblemInstance(start, goal, w), PLAN_PARALLEL, schedule=("lockstep", k))
    assert init.status == status
    cost2_order = BoundedSearch(g, goal, BACKWARD, ATTR2, bound=w).run().order
    cost1_order = BoundedSearch(g, start, FORWARD, ATTR1).run().order
    if status == INFEASIBLE:
        # The cost2 side ends on the call after its last state; the cost1 side
        # has had a full turn after each of the cost2 side's earlier turns.
        settled2 = len(cost2_order)
        settled1 = k * (settled2 // k)
    else:
        # The cost1 side decides on its m-th state, in turn ceil(m / k); the
        # cost2 side has had that many turns.
        settled1 = cost1_order.index(goal) + 1
        settled2 = min(len(cost2_order), k * -(-settled1 // k))
    assert [(d, a) for d, a, _ in init.settled_per_phase] == [(FORWARD, ATTR2), (BACKWARD, ATTR1)]
    masks = [mask for _, _, mask in init.settled_per_phase]
    assert [u for u in range(8) if masks[0][u]] == sorted(cost2_order[:settled2])
    assert [u for u in range(8) if masks[1][u]] == sorted(cost1_order[:settled1])


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


@pytest.mark.parametrize("require_both", [True, False])
@pytest.mark.parametrize("schedule", [("lockstep", 1), ("threads", 2)])
def test_run_sides_raises_a_side_error_and_stops_the_other_side(schedule, require_both):
    # The endless side ends by itself only after ten seconds, which a run
    # that ignores the failed side's error reaches. Under threads such a run
    # used to return as if the failed side had finished.
    deadline = time.monotonic() + 10
    gave_up = []

    def endless():
        while time.monotonic() < deadline:
            yield
        gave_up.append(True)

    def failing():
        yield
        raise RuntimeError("side failed")

    with pytest.raises(RuntimeError, match="side failed"):
        run_sides(schedule, [endless(), failing()], require_both=require_both)
    assert gave_up == []


@pytest.mark.parametrize("schedule", [
    ("lockstep", 0), ("lockstep", -3), ("round-robin", 1), ("lockstep", 2.5), ("lockstep", True),
    ("lockstep", "2"), ("lockstep", 2, 3), (), ["lockstep", 1], ("threads", 0), ("threads", -4),
    ("threads", "x"), ("threads",), ("threads", 3)])
def test_run_sides_rejects_bad_schedule(schedule):
    log = []
    with pytest.raises(ValueError):
        run_sides(schedule, _toy_sides(log))
    assert log == []
