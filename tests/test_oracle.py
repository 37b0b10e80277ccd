import random
from fractions import Fraction

import pytest

from wcspp.bounds import ATTR2, BoundedSearch
from wcspp.cli import gen_instances
from wcspp.graph import FORWARD, Graph, ProblemInstance, random_graph
from wcspp.oracle import (OracleSizeError, all_simple_paths, constrained_optimum,
                          enumerate_pareto, reference_optimum)
from wcspp.solvers import SOLVERS, SolveOptions

from conftest import BUCKET_CFG, EXAMPLE_PARETO, HEAP_CFG, G, S, road_grid_graph


def test_example_frontier(example_graph):
    front = enumerate_pareto(example_graph, S, G)
    assert front.cost_pairs() == EXAMPLE_PARETO
    # each representative path realizes its cost pair
    for point in front:
        c1 = c2 = 0
        for u, v in zip(point.path, point.path[1:]):
            edge = next(e for e in example_graph.successors(u) if e[0] == v)
            c1 += edge[1]
            c2 += edge[2]
        assert (c1, c2) == (point.cost1, point.cost2)


def test_start_equals_goal(example_graph):
    front = enumerate_pareto(example_graph, S, S)
    assert front.cost_pairs() == [(0, 0)]
    assert front.points[0].path == (S,)


def test_disconnected_pair():
    g = Graph(3, [(0, 1, 1, 1)])
    assert len(enumerate_pareto(g, 0, 2)) == 0
    assert constrained_optimum(g, 0, 2, 100) is None


def test_constrained_optimum_examples(example_graph):
    assert constrained_optimum(example_graph, S, G, 6) == (5, 5)
    assert constrained_optimum(example_graph, S, G, 2) is None
    assert constrained_optimum(example_graph, S, G, 8) == (3, 8)


def test_frontier_strictly_monotone():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(2, 30)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        pairs = enumerate_pareto(g, 0, n - 1).cost_pairs()
        for (a1, a2), (b1, b2) in zip(pairs, pairs[1:]):
            assert b1 > a1 and b2 < a2


def test_constrained_optimum_is_frontier_member():
    rng = random.Random(9)
    for _ in range(60):
        n = rng.randint(2, 25)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        pairs = enumerate_pareto(g, 0, n - 1).cost_pairs()
        for w in range(0, 30, 3):
            best = constrained_optimum(g, 0, n - 1, w)
            if best is not None:
                assert best in pairs
                assert best[1] <= w


def test_frontier_matches_exhaustive_path_enumeration():
    rng = random.Random(10)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(rng.randrange(2**30), n, n)
        paths = all_simple_paths(g, 0, n - 1)
        frontier = set()
        for (c1, c2), _ in paths:
            if not any((o1 <= c1 and o2 <= c2) and (o1, o2) != (c1, c2)
                       for (o1, o2), _ in paths):
                frontier.add((c1, c2))
        assert set(enumerate_pareto(g, 0, n - 1).cost_pairs()) == frontier


def test_size_guard():
    g = Graph(10_001, [])
    with pytest.raises(OracleSizeError):
        enumerate_pareto(g, 0, 1)


def test_reference_optimum_examples(example_graph):
    assert reference_optimum(example_graph, S, G, 6) == (5, 5)
    assert reference_optimum(example_graph, S, G, 2) is None
    assert reference_optimum(example_graph, S, G, 8) == (3, 8)
    assert reference_optimum(example_graph, S, S, 0) == (0, 0)
    assert reference_optimum(Graph(3, [(0, 1, 1, 1)]), 0, 2, 100) is None


@pytest.mark.parametrize("cost_min, cost_max", [(1, 10), (0, 2)])
def test_reference_optimum_matches_brute_force(cost_min, cost_max):
    # Costs 0-2 make zero-cost arcs, zero-cost cycles and ties in both costs.
    rng = random.Random(f"reference/{cost_min}")
    for _ in range(80):
        n = rng.randint(2, 14)
        g = random_graph(rng.randrange(2**30), n, 2 * n, cost_max=cost_max, cost_min=cost_min)
        start, goal = rng.randrange(n), rng.randrange(n)
        for w in range(0, 8 * cost_max, max(1, cost_max // 2)):
            assert reference_optimum(g, start, goal, w) == \
                constrained_optimum(g, start, goal, w), (start, goal, w)


def test_solvers_match_the_reference_on_a_road_grid():
    # A grid with coordinates, so the init's cost1 searches run live with
    # the geometric heuristic; every solver and both queue kinds must give
    # the reference's answer on every delta row of four pairs, and the
    # infeasible answer on a row one below a pair's cost2 distance.
    g = road_grid_graph(11, 16, 16, coords=True)
    pairs = [(0, 255), (17, 200), (250, 3), (100, 140)]
    rows = [(s, t, int(w)) for s, t, _, w in
            gen_instances(g, pairs, [Fraction(k, 10) for k in range(11)])]
    start, goal = pairs[0]
    rows.append((start, goal, BoundedSearch(g, start, FORWARD, ATTR2).run().dist[goal] - 1))
    optimal = 0
    for start, goal, w in rows:
        expected = reference_optimum(g, start, goal, w)
        optimal += expected is not None
        for name, solver in SOLVERS.items():
            for cfg in (BUCKET_CFG, HEAP_CFG):
                out = solver(g, ProblemInstance(start, goal, w), cfg, SolveOptions())
                assert out.costs == expected, (name, cfg.kind, start, goal, w)
                assert out.status == ("optimal" if expected else "infeasible")
    assert optimal == len(rows) - 1
