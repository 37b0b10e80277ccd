"""The per-graph geometric bound tables: a solve that reads warm tables must
be the solve a fresh graph gives, counter for counter and table for table,
and every entry must be the int of `haversine_m` scaled, at every width."""

import random
import sys
import threading
from fractions import Fraction

from wcspp.bounds import ATTR1, ATTR2, BoundedSearch, geo_heuristic
from wcspp.caches import geo_tables, haversine_m
from wcspp.cli import gen_instances
from wcspp.graph import FORWARD, Graph, ProblemInstance
from wcspp.solvers import SOLVERS

from conftest import digest, fresh, ladder, road_grid_graph


def query_rows(graph: Graph) -> list[ProblemInstance]:
    """Every delta row of three pairs, and one row one below a pair's cost2
    distance, which is infeasible."""
    pairs = [(0, 143), (30, 100), (131, 12)]
    rows = [ProblemInstance(s, t, int(w)) for s, t, _, w in
            gen_instances(graph, pairs, [Fraction(k, 10) for k in range(0, 11, 2)])]
    start, goal = pairs[0]
    h2 = BoundedSearch(graph, start, FORWARD, ATTR2).run().dist[goal]
    return rows + [ProblemInstance(start, goal, h2 - 1)]


def solve_all(graph: Graph, rows: list, inits) -> list:
    return [digest(graph, inst, name, inits) for inst in rows for name in SOLVERS]


def expected_bounds(graph: Graph, target: int) -> list[int]:
    geo = geo_tables(graph)
    return [int(haversine_m(geo.lat, geo.lon, geo.cos_lat, u, target) * geo.scale)
            for u in range(graph.state_count)]


def test_warm_tables_solve_as_a_fresh_graph(inits):
    g = road_grid_graph(5, 12, 12, coords=True)
    rows = query_rows(g)
    cold = solve_all(g, rows, inits)
    assert [d[0] for d in cold].count("infeasible") == len(SOLVERS)
    cache = geo_tables(g)
    assert cache.hits > 0 and cache.evictions == 0
    misses = cache.misses
    assert solve_all(g, rows, inits) == cold
    assert cache.misses == misses  # the second pass reads only warm tables
    assert solve_all(fresh(g), rows, inits) == cold
    # Room for three tables: they are evicted and refilled within a pass.
    small = fresh(g)
    cache = geo_tables(small)
    cache.capacity = 3 * 2 * small.state_count
    for _ in range(2):
        assert solve_all(small, rows, inits) == cold
    assert cache.evictions > 0 and len(cache.entries) <= 3
    assert cache.size == sum(t.nbytes for t in cache.entries.values()) <= cache.capacity


def test_lookups_share_one_table_per_target():
    g = road_grid_graph(5, 6, 6, coords=True)
    n = g.state_count
    cache = geo_tables(g)
    cache.capacity = 2 * 2 * n  # two 16-bit tables

    def counts():
        return cache.hits, cache.misses, cache.evictions

    a = geo_heuristic(g, 0, ATTR1)
    assert counts() == (0, 1, 0) and cache.size == a.nbytes == 2 * n
    assert list(a.values) == [-1] * n  # nothing is computed before a lookup
    assert [a[u] for u in range(n)] == expected_bounds(g, 0)
    assert list(a.values) == expected_bounds(g, 0)
    assert geo_heuristic(g, 0, ATTR1) is a and counts() == (1, 1, 0)
    assert geo_heuristic(g, 0, ATTR2) is None and counts() == (1, 1, 0)
    b = geo_heuristic(g, 7, ATTR1)
    assert counts() == (1, 2, 0) and list(cache.entries) == [0, 7]
    assert geo_heuristic(g, 0, ATTR1) is a  # 0 becomes the most recent
    c = geo_heuristic(g, 9, ATTR1)
    assert counts() == (2, 3, 1) and list(cache.entries) == [0, 9]
    # An evicted table still serves the search that holds it; a later
    # lookup makes a new one.
    assert [b[u] for u in range(n)] == expected_bounds(g, 7)
    assert geo_heuristic(g, 7, ATTR1) is not b
    assert counts() == (2, 4, 2) and list(cache.entries) == [9, 7]
    assert geo_heuristic(g, 9, ATTR1) is c
    assert cache.size == 2 * 2 * n <= cache.capacity


def test_tables_widen_and_keep_every_value():
    # One arc 1e-9 degrees long with the largest cost1 makes the scale about
    # 4e13 per metre. Lookups in order of distance from the target then walk
    # its table through 16-, 32- and 64-bit arrays and on to a list; every
    # entry stays the int of the scaled haversine, and the cache counts the
    # wider bytes.
    lats = [0.0, 1e-16, 1e-13, 1e-7, 4.0, 10.0, 10.0 + 1e-9]
    g = Graph(7, [(5, 6, 2**32 - 1, 1), (6, 5, 2**32 - 1, 1)], [(lat, 0.0) for lat in lats])
    cache = geo_tables(g)
    h = geo_heuristic(g, 0, ATTR1)
    expected = expected_bounds(g, 0)
    assert expected[4] > 2**63  # past the widest array
    widths = []
    for u in range(7):
        assert h[u] == expected[u]
        widths.append(getattr(h.values, "typecode", "list"))
        assert cache.size == h.nbytes
    assert widths == ["h", "h", "i", "q", "list", "list", "list"]
    assert list(h.values) == expected
    assert geo_heuristic(g, 0, ATTR1) is h


def test_a_search_settles_alike_while_its_table_widens():
    g = ladder(16)
    n = g.state_count
    table = geo_heuristic(g, 0, ATTR1)
    expected = expected_bounds(g, 0)
    assert max(expected) > 2**31
    source = 2  # its bound fits in 16 bits, so the run starts on a 16-bit array
    search = BoundedSearch(g, source, FORWARD, ATTR1, heuristic=table)
    assert table.values.typecode == "h"
    search.run()
    assert table.values.typecode == "q" and list(table.values) == expected

    def shown(s):
        return s.order, s.dist, s.comp, s.pred

    assert len(search.order) == n
    # The same search with the bounds as a list, and on a fresh graph, whose
    # table widens in the same run.
    assert shown(search) == shown(BoundedSearch(g, source, FORWARD, ATTR1,
                                                heuristic=expected).run())
    other = fresh(g)
    assert shown(search) == shown(BoundedSearch(other, source, FORWARD, ATTR1,
                                                heuristic=geo_heuristic(other, 0, ATTR1)).run())
    # And again on the warm, wide table.
    assert shown(search) == shown(BoundedSearch(g, source, FORWARD, ATTR1,
                                                heuristic=geo_heuristic(g, 0, ATTR1)).run())


def test_threads_share_the_tables():
    # Threads look up tables toward random targets of one ladder and read
    # every entry, so tables are made, filled, widened and evicted under
    # one another. Every value read must be right, and the cache's bytes
    # must be the sum of its tables' bytes.
    g = ladder(12)
    n = g.state_count
    geo_heuristic(g, 0, ATTR1)
    expected = {t: expected_bounds(g, t) for t in range(n)}
    cache = geo_tables(g)
    cache.capacity = 3 * 8 * n  # three 64-bit tables
    errors = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(600):
            t = rng.randrange(n)
            table = geo_heuristic(g, t, ATTR1)
            order = rng.sample(range(n), n)
            if [table[u] for u in order] != [expected[t][u] for u in order]:
                errors.append(t)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.evictions > 0
    assert cache.size == sum(t.nbytes for t in cache.entries.values()) <= cache.capacity
