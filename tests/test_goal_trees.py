"""The per-graph tree cache of plain init searches (goal trees and start
trees): a solve served from a warm cache must be the solve a fresh graph
gives, counter for counter and table for table."""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction

from wcspp.bounds import ATTR1, ATTR2, INF, INFEASIBLE, SEARCH, SHORTCUT, BoundedSearch, \
    BoundsTables, GlobalBounds, GoalTrees, InitResult, TreeTable, _init_search, _int_array, \
    goal_trees, init_parallel_bidirectional, init_sequential_bidirectional, init_unidirectional
from wcspp.caches import ListPool, list_pool
from wcspp.cli import gen_instances
from wcspp.graph import BACKWARD, COST_MAX, FORWARD, Graph, ProblemInstance, random_graph
from wcspp.solvers import SOLVERS, SolveOptions

from conftest import BUCKET_CFG, DIGEST_OPTIONS, HEAP_CFG, digest, fresh, geo_random_graph, grid

# A query on a 16 x 16 road grid whose cost2 limit leaves 22 states outside
# the goal's tree.
START, GOAL, W = 254, 137, 1068


def goal_key(goal: int) -> tuple:
    """The cache key of `goal`'s goal tree."""
    return (goal, BACKWARD, ATTR2)


def start_key(start: int) -> tuple:
    """The cache key of `start`'s start tree."""
    return (start, FORWARD, ATTR1)


def cost1_goal_key(goal: int) -> tuple:
    """The cache key of `goal`'s cost1 tree, which serves wc-astar's masked
    cost1 search."""
    return (goal, BACKWARD, ATTR1)


def h2(graph: Graph, start: int, goal: int):
    return BoundedSearch(graph, start, FORWARD, ATTR2).run().dist[goal]


def check(graph, inst, inits, names=tuple(SOLVERS), **kwargs) -> None:
    for name in names:
        assert digest(graph, inst, name, inits, **kwargs) == \
            digest(fresh(graph), inst, name, inits, **kwargs), name


def test_pieces_make_one_unbounded_search():
    # A tree recorded at limit L serves every W <= L: its prefix with cost2
    # <= W holds the states, labels and predecessors of a search bounded by
    # W, in its order. A W above L rebuilds the tree.
    rng = random.Random(3)
    for trial in range(40):
        n = rng.randint(2, 30)
        g = random_graph(rng.randrange(2**30), n, 2 * n)
        goal = rng.randrange(n)
        full = BoundedSearch(g, goal, BACKWARD, ATTR2).run()
        top = rng.randint(0, max(full.dist[u] for u in full.order))
        cache = goal_trees(g)
        tree, count = cache.prefix(g, goal_key(goal), top)
        assert count == len(tree.order) and tree.limit == top
        for _ in range(5):
            w = rng.randint(0, top)
            ref = BoundedSearch(g, goal, BACKWARD, ATTR2, bound=w).run()
            same, count = cache.prefix(g, goal_key(goal), w)
            assert same is tree
            assert list(tree.order[:count]) == ref.order
            assert list(tree.dist[:count]) == [ref.dist[u] for u in ref.order]
            assert list(tree.comp[:count]) == [ref.comp[u] for u in ref.order]
            assert [None if p < 0 else p for p in tree.pred[:count]] == \
                [ref.pred[u] for u in ref.order]
        wider, count = cache.prefix(g, goal_key(goal), top + rng.randint(1, 12))
        assert wider is not tree and count == len(wider.order)
        assert wider.order[:len(tree.order)] == tree.order
        assert (cache.hits, cache.misses, cache.entries[goal_key(goal)]) == (5, 2, wider)


def test_limits_below_at_and_above_the_cached_one(inits):
    g = grid()
    check(g, ProblemInstance(START, GOAL, W), inits)
    low = (h2(g, START, GOAL) + W) // 2
    for w in (low, W, W + 400):
        for cfg in (HEAP_CFG, BUCKET_CFG):
            check(g, ProblemInstance(START, GOAL, w), inits, cfg=cfg)
    assert goal_trees(g).entries[goal_key(GOAL)].limit == W + 400


def test_limit_under_the_cost2_distance_is_infeasible(inits):
    g = grid()
    check(g, ProblemInstance(START, GOAL, W + 400), inits)
    inst = ProblemInstance(START, GOAL, h2(g, START, GOAL) - 1)
    check(g, inst, inits)
    assert SOLVERS["wc-ba"](g, inst, HEAP_CFG, DIGEST_OPTIONS).status == "infeasible"
    assert inits[threading.get_ident()][-1].status == INFEASIBLE


def test_start_equals_goal(inits):
    g = grid()
    check(g, ProblemInstance(START, GOAL, W), inits)
    for w in (0, W):
        check(g, ProblemInstance(GOAL, GOAL, w), inits)


def test_unreachable_start(inits):
    # State 256 has no arcs; its search settles every other state.
    g = Graph(257, list(grid().edges()))
    for w in (W, 10**9, W):
        check(g, ProblemInstance(256, GOAL, w), inits)
    tree = goal_trees(g).entries[goal_key(GOAL)]
    assert tree.limit == 10**9 and sorted(tree.order) == list(range(256))


def test_served_start_trees_match_a_fresh_graph(inits):
    # On a graph without coordinates wc-ba and wc-ebba-par serve round one's
    # cost1 search from the start's tree, bounded by the seed (the cost1 of
    # the goal tree's path from the start). The goal always lies within the
    # seed; a W that covers its cost2 in the start tree decides SHORTCUT
    # there and cuts the prefix just after it.
    g = grid()
    cache = goal_trees(g)
    names = ("wc-ba", "wc-ebba-par")
    deltas = [Fraction(1, 10), Fraction(1, 2), Fraction(9, 10), Fraction(1)]
    rows = [int(row[3]) for row in gen_instances(g, [(START, GOAL)], deltas)]
    rows.append(h2(g, START, GOAL) - 1)  # infeasible

    def solve_rows():
        for w in rows:
            check(g, ProblemInstance(START, GOAL, w), inits, names=names)

    solve_rows()
    seed = BoundedSearch(g, GOAL, BACKWARD, ATTR2).run().comp[START]
    tree = cache.entries[start_key(START)]
    assert tree.limit == seed
    at = list(tree.order).index(GOAL)
    assert rows[2] < tree.comp[at] <= rows[3] and at + 1 < len(tree.order)
    for w, status, cost1_states in ((rows[2], SEARCH, len(tree.order)),
                                    (rows[3], SHORTCUT, at + 1), (rows[4], INFEASIBLE, 0)):
        init = init_parallel_bidirectional(g, ProblemInstance(START, GOAL, w))
        assert init.status == status and sum(init.settled_per_phase[1][2]) == cost1_states
    for w in (0, W):  # start == goal: the start tree's first state decides
        check(g, ProblemInstance(GOAL, GOAL, w), inits, names=names)
    # A farther goal from the same start rebuilds its tree at a larger
    # seed; the rows of GOAL are then served from a tree that reaches past
    # their seed.
    check(g, ProblemInstance(START, 0, 10**6), inits, names=names)
    assert cache.entries[start_key(START)].limit > seed
    solve_rows()
    # Whole-graph goal trees evict the start tree; it is built again.
    goal = 0
    while start_key(START) in cache.entries:
        init_unidirectional(g, ProblemInstance(START, goal, 10**6))
        goal += 1
    misses = cache.misses
    solve_rows()
    assert cache.entries[start_key(START)].limit == seed and cache.misses > misses
    # With coordinates the cost1 search has the geometric heuristic and
    # runs live: only goal trees are cached.
    rng = random.Random(11)
    for _ in range(30):
        geo = geo_random_graph(rng.randrange(2**30), 20, 40)
        for w in (10, 40, 10**6):
            check(geo, ProblemInstance(0, 19, w), inits, names=names)
        assert [key[1:] for key in goal_trees(geo).entries] == [(BACKWARD, ATTR2)]


def served_search(graph: Graph, inst: ProblemInstance, kind: str, serve: bool):
    """One plain init search, served from the tree cache or run live, after
    the searches of its plan that precede it: everything it shows, or None
    when an earlier search decides the init. `kind` is "cost2" (round one's
    cost2 search from the goal, a goal tree), "start" (the parallel plan's
    round-one cost1 search from the start, run after the cost2 search, a
    start tree) or "masked" (wc-astar's cost1 search from the goal, kept to
    the states that the cost2 search settled, a cost1 goal tree)."""
    result = InitResult(SEARCH, BoundsTables(), GlobalBounds(inst.weight_limit))
    if kind == "cost2":
        search = _init_search(graph, inst, result, FORWARD, ATTR2, None)
    else:
        first = _init_search(graph, inst, result, FORWARD, ATTR2, None).run()
        if result.status != SEARCH:
            return None
        if kind == "start":
            search = _init_search(graph, inst, result, BACKWARD, ATTR1, None)
        else:
            search = _init_search(graph, inst, result, FORWARD, ATTR1, first.settled)
    assert search.heuristic is None and not search.joins
    if serve:
        search.serve()
    else:
        search.run()
    gb, order = result.gb, search.order
    return (order, [search.dist[u] for u in order], [search.comp[u] for u in order],
            [search.pred[u] for u in order], search.settled,
            result.status, gb.f1_bar, gb.f2_sol, gb.incumbents, gb.record)


def zero_cost_queries(seed: int, cost_maxes: tuple):
    """150 seeded random graphs, each with costs from 0 or 1 up to one of
    `cost_maxes`, so zero-cost arcs make ties in both costs, and each with its
    queries: three start-goal pairs, each at four limits around the start's
    cost2 distance, which make INFEASIBLE inits and masks that bind."""
    rng = random.Random(seed)
    for _ in range(150):
        n = rng.randint(3, 60)
        g = random_graph(rng.randrange(2**30), n, rng.randint(n, 4 * n),
                         cost_max=rng.choice(cost_maxes), cost_min=rng.choice([0, 0, 1]))
        queries = []
        for _ in range(3):
            start, goal = rng.randrange(n), rng.randrange(n)
            low = h2(g, start, goal)
            low = 0 if low == INF else low
            queries += [ProblemInstance(start, goal, w)
                        for w in rng.sample(range(max(low - 3, 0), low + 20), 4)]
        yield g, queries


def grid_queries(count: int):
    """`count` seeded queries on the 16 x 16 grid, each pair at two limits
    between the start's cost2 distance and twice it, the larger first, so
    that the smaller is served from the same trees: most prefixes of the
    round-one searches are longer than the pool's keep limit of 64 states."""
    g = grid()
    rng = random.Random(19)
    queries = []
    while len(queries) < count:
        start, goal = rng.randrange(256), rng.randrange(256)
        low = h2(g, start, goal)
        limits = sorted((rng.randint(low, 2 * low) for _ in range(2)), reverse=True)
        queries += [ProblemInstance(start, goal, w) for w in limits]
    return g, queries


def test_served_searches_match_live_ones():
    # Every plain init search is served from the tree cache: round one's
    # cost2 search and the parallel plan's round-one cost1 search unmasked,
    # wc-astar's cost1 search masked. A masked search is served the tree's
    # prefix filtered to the mask, up to the first state whose tree
    # predecessor was not served, where the mask binds and the search goes
    # on live from the rebuilt frontier. An unmasked prefix longer than the
    # pool's keep limit is served in place, from the tree's tables, which
    # also hold labels past the bound: so the labels are compared at the
    # settled states. Each query is served on a fresh graph (a cold cache)
    # and on one graph shared by all of a graph's queries (a warm cache,
    # with trees built at other bounds), and compared field by field with a
    # live run.
    kinds = ("cost2", "start", "masked")
    ways = {False: 0, True: 0}  # served masked searches whose mask bound, or did not
    statuses = {kind: set() for kind in kinds}
    for g, queries in [*zero_cost_queries(29, (2, 3, 10)), grid_queries(12)]:
        warm = fresh(g)
        for inst in queries:
            for kind in kinds:
                live = served_search(fresh(g), inst, kind, serve=False)
                for graph in (fresh(g), warm):
                    binds = goal_trees(graph).binds
                    assert served_search(graph, inst, kind, serve=True) == live, \
                        (kind, inst, g.state_count)
                    if live is not None:
                        statuses[kind].add(live[5])
                        if kind == "masked":
                            ways[goal_trees(graph).binds > binds] += 1
                    else:
                        assert goal_trees(graph).binds == binds
    assert min(ways.values()) > 100, ways
    assert statuses == {"cost2": {SEARCH, INFEASIBLE}, "start": {SEARCH, SHORTCUT},
                        "masked": {SEARCH, SHORTCUT}}, statuses
    tables = goal_trees(warm).tables  # the grid's: both unmasked kinds served in place
    assert tables.hits > 0 and {key[1:] for key in tables.entries} == \
        {(BACKWARD, ATTR2), (FORWARD, ATTR1)}


def test_shell_rebuild_matches_a_full_rebuild(monkeypatch):
    # A served search whose mask binds at tree distance D rebuilds its
    # frontier from the shell of served states at tree distance D - c_max
    # and above, c_max being the graph's largest arc cost on the search's
    # attribute: every unsettled allowed state lies at D or beyond, and an
    # arc costs at most c_max. Each binding search's shell rebuild must
    # leave the sorted heap of a rebuild from every served state, and the
    # same tentative labels (primary, secondary, predecessor) in the lists
    # at every unsettled state. Shells that skip served states, and frontier
    # entries whose predecessor lies on the floor itself, both occur.
    rebuild = BoundedSearch.rebuild_frontier
    counts = {"binds": 0, "skipped": 0, "on the floor": 0}

    def labels(search) -> tuple:
        settled = search.settled
        return tuple((search.dist[v], search.comp[v], search.pred[v])
                     for v in range(len(settled)) if not settled[v])

    def both(search, floor):
        before = labels(search)
        rebuild(search, 0)
        full = sorted(search.heap), labels(search)
        for *_, v in search.heap:
            search.dist[v] = search.comp[v] = INF
            search.pred[v] = None
        assert labels(search) == before
        rebuild(search, floor)
        assert (sorted(search.heap), labels(search)) == full
        counts["binds"] += 1
        counts["skipped"] += floor > 0
        counts["on the floor"] += any(search.dist[search.pred[v]] == floor
                                      for *_, v in search.heap)

    monkeypatch.setattr(BoundedSearch, "rebuild_frontier", both)
    # wc-astar's masked cost1 searches, on test_served_searches_match_live_ones'
    # graphs and queries.
    for g, queries in zero_cost_queries(29, (2, 3, 10)):
        for inst in queries:
            served_search(fresh(g), inst, "masked", serve=True)
    assert counts["binds"] > 50, counts
    # Whole-tree searches on either attribute under random masks, on graphs
    # whose costs go up to 1 or 2, where an arc of the largest cost often
    # lies on a shortest path: there a state on the floor is often a
    # frontier state's predecessor. Cost2 is tripled, so that each attribute
    # has its own c_max.
    rng = random.Random(5)
    for g, queries in zero_cost_queries(31, (1, 2)):
        g = Graph(g.state_count, [(u, v, c1, 3 * c2) for u, v, c1, c2 in g.edges()])
        for inst in queries[::4]:  # one query per start-goal pair
            for attr in (ATTR1, ATTR2):
                mask = [rng.random() < 0.8 for _ in range(g.state_count)]
                init = InitResult(SEARCH, BoundsTables(), GlobalBounds(COST_MAX))
                BoundedSearch(g, inst.goal, BACKWARD, attr, allowed=mask, init=init,
                              target=inst.start).serve()
    assert min(counts.values()) > 100, counts


def test_every_exit_leaves_labels_at_settled_states_only(monkeypatch):
    # A search keeps its tentative labels in its pooled lists, and the pool
    # resets a list given back only at the states in `order`. So after every
    # exit of `run()` and `serve()` each state outside `order` must hold its
    # fill (INF, INF, None, False) in every list the search took, and a
    # pool given those lists must hand them back all fill. The exits: the
    # bound break, a target return without an init and with one
    # (SHORTCUT), an exhausted heap, a served search to its end, a served
    # masked search whose mask binds before it runs on live, and an
    # unmasked search served in place, which took its settled mask alone
    # and reads its tree's cached tables.
    # Searches without an init, bounded and stopped at a target, and every
    # search of the three init plans, on graphs with zero-cost arcs, on
    # graphs with coordinates, where cost1 searches run live with the
    # geometric bound, and on a road grid, whose long prefixes are served
    # in place. A tree growth's search is left out: it holds the old tree's
    # states settled outside its order, and gives its lists back accordingly.
    # `run_init` starts no search once the init is decided.
    exits = Counter()
    growing = []
    run, serve, grow = BoundedSearch.run, BoundedSearch.serve, GoalTrees._grow

    def check(search, how, exit):
        exits[how, exit] += 1
        n = len(search.settled)
        outside = sorted(set(range(n)).difference(search.order))
        taken = search.taken()
        lists = {id(lst) for _, lst, _ in taken}
        assert len(taken) == (1 if exit == "in place" else 4)
        assert {id(search.settled)} <= lists
        assert lists.isdisjoint(map(id, (search.dist, search.comp, search.pred))) == \
            (exit == "in place")
        for fill, lst, written in taken:
            assert written is search.order
            assert [lst[u] for u in outside] == [fill] * len(outside), (how, exit)
        pool = ListPool(n)
        pool.give([(fill, lst[:], written) for fill, lst, written in taken])
        if len(search.order) > pool.keep_limit:  # a grid search: too widely written to keep
            assert pool.dropped == len(taken)
            return
        fills = [fill for fill, _, _ in taken]
        assert [pool.take(fill) for fill in fills] == [[fill] * n for fill in fills]
        assert pool.reused == len(taken)

    def undecided(search) -> bool:
        return search.init is None or search.init.status == SEARCH

    def checked_run(search):
        assert undecided(search)
        run(search)
        if growing:
            exit = None
        elif search.target >= 0 and search.settled[search.target] and (
                search.init is None or search.init.status == SHORTCUT):
            exit = "target" if search.init is None else "target, init"
        else:
            exit = "break" if search.heap else "exhausted"
        if exit:
            check(search, "run", exit)
        return search

    def checked_serve(search):
        assert undecided(search)
        binds = goal_trees(search.graph).binds
        serve(search)
        bound = goal_trees(search.graph).binds > binds
        if search.shared:
            table = goal_trees(search.graph).tables.entries[
                search.source, search.traverse_dir, search.attr]
            assert (search.dist, search.comp, search.pred) == (table.dist, table.comp, table.pred)
        check(search, "serve", "bind" if bound else "in place" if search.shared else "end")

    def checked_grow(*args):
        growing.append(True)
        try:
            return grow(*args)
        finally:
            growing.pop()

    monkeypatch.setattr(BoundedSearch, "run", checked_run)
    monkeypatch.setattr(BoundedSearch, "serve", checked_serve)
    monkeypatch.setattr(GoalTrees, "_grow", checked_grow)
    rng = random.Random(13)
    graphs = list(zero_cost_queries(29, (2, 3, 10)))
    for _ in range(30):
        geo = geo_random_graph(rng.randrange(2**30), 20, 40)
        graphs.append((geo, [ProblemInstance(rng.randrange(20), rng.randrange(20), w)
                             for w in (5, 10, 30, 60)]))
    graphs.append(grid_queries(25))
    for g, queries in graphs:
        for inst in queries:
            for attr in (ATTR1, ATTR2):
                BoundedSearch(g, inst.goal, BACKWARD, attr, bound=inst.weight_limit).run()
                BoundedSearch(g, inst.goal, BACKWARD, attr, target=inst.start).run()
            for init in (init_unidirectional, init_sequential_bidirectional,
                         init_parallel_bidirectional):
                init(g, inst)
    expected = [("run", exit) for exit in ("break", "target", "target, init", "exhausted")]
    expected += [("serve", exit) for exit in ("end", "bind", "in place")]
    assert set(exits) == set(expected), exits
    assert min(exits.values()) > 20, exits


def record(search: BoundedSearch) -> tuple:
    """A finished search's settled states in settle order, with their labels
    and predecessors (-1 for the source): a tree's four arrays, as lists."""
    order, pred = search.order, search.pred
    return (list(order), [search.dist[u] for u in order], [search.comp[u] for u in order],
            [-1 if pred[u] is None else pred[u] for u in order])


def tree_arrays(tree) -> tuple:
    return tuple(list(a) for a in (tree.order, tree.dist, tree.comp, tree.pred))


def test_grown_trees_equal_fresh_ones():
    # A cached tree asked for a larger bound (`prefix`) or for a state it
    # does not hold (`reach`) grows: its search resumes from its last shell
    # and the states it settles are appended to the tree's arrays. A tree
    # made by a miss, grown or built afresh, must equal array for array the
    # record of a fresh search bounded by the same limit, or stopped once it
    # settles the same state (limit: that state's cost - 1; INF when the
    # search runs out without it). Every tree looked up must serve each
    # bound up to its limit exactly what a search bounded by that much
    # settles. Random graphs with zero-cost arcs, both attributes and both
    # directions; an extra state without arcs is unreachable, a source asked
    # for itself is start == goal, and a small budget on some graphs evicts
    # trees between growths.
    rng = random.Random(47)
    seen = dict.fromkeys(("bound", "state", "unreachable", "itself", "evicted"), 0)
    for g, queries in zero_cost_queries(53, (1, 2, 10)):
        n = g.state_count + 1
        g = Graph(n, list(g.edges()))
        cache = goal_trees(g)
        if rng.random() < 0.3:
            cache.capacity = 8 * rng.randint(2, n)
        asked = set()
        for inst in queries[::4]:  # one query per start-goal pair
            keys = [(inst.goal, d, a) for d in (FORWARD, BACKWARD) for a in (ATTR1, ATTR2)]
            for key in rng.sample(keys * 3, 12):
                grows, misses, evicted = cache.grows, cache.misses, key in asked - set(cache.entries)
                asked.add(key)
                if rng.random() < 0.5:
                    tree, count = cache.prefix(g, key, rng.randint(0, 40))
                    grew = "bound"
                    expected = BoundedSearch(g, *key, bound=tree.limit).run()
                else:
                    state = rng.choice((inst.start, key[0], n - 1, rng.randrange(n)))
                    tree, i = cache.reach(g, key, state)
                    grew = "state"
                    expected = BoundedSearch(g, *key, target=state).run()
                    if i < 0:
                        seen["unreachable"] += 1
                        assert not expected.settled[state] and tree.limit == INF
                    else:
                        seen["itself"] += state == key[0]
                        assert tree.order[i] == state
                        assert tree.limit >= expected.dist[state] - 1
                        assert tree.limit == expected.dist[state] - 1 or cache.misses == misses
                if cache.misses > misses:
                    assert tree_arrays(tree) == record(expected), (key, grew)
                    seen[grew] += cache.grows > grows
                    seen["evicted"] += evicted
                top = max(tree.dist) if tree.limit == INF else tree.limit
                for limit in {0, top, rng.randint(0, max(top, 0))}:
                    if 0 <= limit <= top:
                        same, count = cache.prefix(g, key, limit)
                        assert same is tree
                        assert tuple(a[:count] for a in tree_arrays(tree)) == \
                            record(BoundedSearch(g, *key, bound=limit).run()), (key, limit)
    assert min(seen.values()) > 100, seen


def test_htf_tuning_does_not_leak_into_the_cache(inits):
    # wc-ba's backward search tunes the forward cost2 table and its forward
    # search the backward cost1 table. Both are read in place from the
    # goal's and the start's trees, so the solve tunes private copies: the
    # cached tables must still equal a fresh build from their trees, and a
    # later solve of the same goal must not see the tuning. A lower limit
    # keeps tuned states outside its prefix.
    g = grid()
    inst = ProblemInstance(START, GOAL, W)
    options = SolveOptions(record=True)
    tables = goal_trees(g).tables
    for w in (W, (h2(g, START, GOAL) + W) // 2):
        out = SOLVERS["wc-ba"](g, inst, HEAP_CFG, options)
        assert {t[:2] for t in out.tuned} == {(FORWARD, ATTR2), (BACKWARD, ATTR1)}
        assert set(tables.entries) == {goal_key(GOAL), start_key(START)}
        for table in tables.entries.values():
            built = TreeTable(table.tree, g.state_count)
            assert (table.dist, table.comp, table.pred) == (built.dist, built.comp, built.pred)
        check(g, ProblemInstance(START, GOAL, w), inits, names=("wc-astar",))
    check(g, inst, inits, names=("wc-ba",), options=options)


def test_served_tables_keep_the_byte_bound_and_evict_the_least_recent(inits):
    # A table costs 24 bytes per state of the graph and 96 per tree state:
    # 30,720 bytes for a whole-graph tree of the 256-state grid, whose
    # budget is 65,536 bytes. Two fit; a third evicts the least recently
    # used, and a hit makes a table the most recent.
    g = grid()
    cache = goal_trees(g)
    tables = cache.tables
    made = []
    for goal in range(3):
        tree, count = cache.prefix(g, goal_key(goal), 10**6)
        assert count == 256
        made.append(cache.table(goal_key(goal), tree))
        assert made[-1].nbytes == 30720 and made[-1].tree is tree
    assert (tables.misses, tables.evictions, tables.capacity) == (3, 1, 65536)
    assert list(tables.entries) == [goal_key(1), goal_key(2)] and tables.size == 61440
    assert cache.table(goal_key(1), cache.entries[goal_key(1)]) is made[1]
    again = cache.table(goal_key(0), cache.entries[goal_key(0)])
    assert again is not made[0] and (again.dist, again.comp, again.pred) == \
        (made[0].dist, made[0].comp, made[0].pred)
    assert list(tables.entries) == [goal_key(1), goal_key(0)]
    assert (tables.hits, tables.misses, tables.evictions, tables.size) == (1, 4, 2, 61440)
    # Every solver, with the goal's and the start's tables evicting others,
    # answers as on a fresh graph; the cache stays within its budget.
    check(g, ProblemInstance(START, GOAL, W), inits)
    assert {goal_key(GOAL), start_key(START)} <= set(tables.entries)
    assert tables.size == sum(t.nbytes for t in tables.entries.values()) <= tables.capacity


def test_a_grown_tree_gets_new_tables():
    # A table belongs to one tree: a tree that grows for a wider limit is a
    # new tree, so its next search served in place builds new tables. The
    # old ones stay as they were for the searches that hold them.
    g = grid()
    cache = goal_trees(g)
    low = (h2(g, START, GOAL) + W) // 2
    seen = []
    for w, grows, misses in ((W, 0, 1), (low, 0, 1), (W + 200, 1, 2)):
        init = init_unidirectional(g, ProblemInstance(START, GOAL, w))
        table = cache.tables.entries[goal_key(GOAL)]
        assert table.tree is cache.entries[goal_key(GOAL)]
        assert init.tables.h[FORWARD][ATTR2] is table.dist
        assert (cache.grows, cache.tables.misses) == (grows, misses)
        seen.append(table)
    assert seen[0] is seen[1] is not seen[2]
    built = TreeTable(seen[0].tree, g.state_count)
    assert (seen[0].dist, seen[0].comp, seen[0].pred) == (built.dist, built.comp, built.pred)
    assert len(seen[2].tree.order) > len(seen[0].tree.order)


def test_a_prefix_within_the_keep_limit_makes_no_table():
    # A prefix of at most the pool's keep limit (64 states on the grid) is
    # copied into pooled lists, which the pool keeps: it makes no table.
    # The same pair at a wider limit is served in place.
    g = grid()
    cache = goal_trees(g)
    start = GOAL + 1
    low = h2(g, start, GOAL)
    init = init_parallel_bidirectional(g, ProblemInstance(start, GOAL, low))
    assert init.tables.shared == []
    assert all(0 < sum(mask) <= list_pool(g).keep_limit
               for _, _, mask in init.settled_per_phase[:2])
    assert (cache.tables.hits, cache.tables.misses, len(cache.tables.entries)) == (0, 0, 0)
    init = init_parallel_bidirectional(g, ProblemInstance(start, GOAL, 10 * low))
    assert init.tables.shared == [(FORWARD, ATTR2)] and cache.tables.misses == 1


def test_eviction_keeps_the_bound_and_the_answers(inits):
    # n = 256, so the budget is 65,536 bytes: exactly 32 whole-graph trees of
    # 256 labels at 8 bytes each. A 33rd tree evicts the least recently used.
    g = grid()
    cache = goal_trees(g)
    for goal in range(32):
        assert cache.prefix(g, goal_key(goal), 10**6)[1] == 256
    assert (cache.size, cache.capacity, cache.evictions) == (65536, 65536, 0)
    assert cache.prefix(g, goal_key(32), 10**6)[1] == 256
    assert cache.evictions == 1 and goal_key(0) not in cache.entries
    for goal in range(1, 33):
        assert cache.prefix(g, goal_key(goal), 10**6)[1] == 256
    assert (cache.hits, cache.misses) == (32, 33)
    assert cache.size == sum(t.nbytes for t in cache.entries.values())
    assert cache.size <= cache.capacity
    # Every solver: GOAL's goal tree, its cost1 tree (wc-astar's masked cost1
    # search) and START's start tree (wc-ba and wc-ebba-par) are built, each
    # evicting the least recently used trees; the answers are a fresh graph's.
    check(g, ProblemInstance(START, GOAL, W), inits)
    assert (cache.misses, cache.evictions) == (36, 4)
    assert list(cache.entries)[-3:] == [cost1_goal_key(GOAL), goal_key(GOAL), start_key(START)]
    assert all(goal_key(goal) not in cache.entries for goal in (1, 2, 3))
    assert cache.size == sum(t.nbytes for t in cache.entries.values()) <= cache.capacity
    # An evicted goal is built again, and wc-astar still answers as on a
    # fresh graph.
    for goal in (0, 1):
        check(g, ProblemInstance(START, goal, 10**6), inits, names=("wc-astar",))
        assert goal_key(goal) in cache.entries
    assert cache.size <= cache.capacity


def test_a_cycle_of_goals_that_fits_stops_missing(inits):
    # The benchmark solves the same queries pass after pass. Once every
    # tree of the goals fits the budget, the second round is all hits. Each
    # wc-astar solve looks up its goal's goal tree and, unless round one
    # decides the init, the goal's cost1 tree: here 16 goal trees and 15
    # cost1 trees, some of whose masks bind.
    g = grid()
    queries = [ProblemInstance(START, goal, W if goal % 2 else 10**6)
               for goal in range(0, 240, 15)]
    cache = goal_trees(g)
    for inst in queries:
        check(g, inst, inits, names=("wc-astar",))
    assert (cache.hits, cache.misses, cache.evictions) == (0, 31, 0)
    assert sum(key[2] == ATTR1 for key in cache.entries) == 15 and cache.binds > 0
    for inst in queries:
        check(g, inst, inits, names=("wc-astar",))
    assert (cache.hits, cache.misses, cache.evictions) == (31, 31, 0)


def test_threads_schedule(inits):
    # Under ('threads', 2) the sides of wc-ba and wc-ebba-par interleave as the
    # threads run, so their counters vary from run to run: only the answers
    # are compared. wc-astar and wc-ebba ignore the schedule.
    g = grid()
    options = SolveOptions(schedule=("threads", 2), check_invariants=True)
    for w in (W, W - 50, W + 200):
        inst = ProblemInstance(START, GOAL, w)
        check(g, inst, inits, names=("wc-astar", "wc-ebba"), options=options)
        for name in ("wc-ba", "wc-ebba-par"):
            assert digest(g, inst, name, inits, options=options)[:2] == \
                digest(fresh(g), inst, name, inits)[:2], name


def test_python_threads_share_one_graph(inits):
    # Four threads solve different limits for one goal at once, so they
    # rebuild and replay the goal's tree concurrently. Whether a served
    # mask binds depends on the query alone, so no count of binds is lost.
    g = grid()
    limits = [W - 100, W, W + 150, W + 500]
    expected: dict = {}
    binds = 0
    for w in limits:
        for name in SOLVERS:
            alone = fresh(g)
            expected.setdefault(w, {})[name] = digest(alone, ProblemInstance(START, GOAL, w),
                                                      name, inits)
            binds += goal_trees(alone).binds
    got: dict = {}

    def work(w):
        got[w] = [{name: digest(g, ProblemInstance(START, GOAL, w), name, inits)
                   for name in SOLVERS} for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in limits]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for w in limits:
        assert got[w] == [expected[w]] * 3, w
    assert goal_trees(g).binds == 3 * binds > 0


def test_second_solve_replays_every_state(inits):
    # The first solve of a goal builds its goal tree (a miss) of exactly the
    # states its cost2 search settles, and its cost1 tree (a miss), whose
    # prefix holds every state the masked cost1 search settles; wc-ba's
    # first solve is served the goal tree (a hit) and builds the start tree.
    # The second wc-ba solve is served both trees and settles the same states.
    g = grid()
    inst = ProblemInstance(START, GOAL, W)
    cache = goal_trees(g)
    counts = []
    for name in ("wc-astar", "wc-ba", "wc-ba"):
        SOLVERS[name](g, inst, HEAP_CFG, DIGEST_OPTIONS)
        counts.append((cache.hits, cache.misses))
    assert counts == [(0, 2), (1, 3), (3, 3)] and cache.evictions == 0
    first, second, third = inits[threading.get_ident()]
    settled = sum(first.settled_per_phase[0][2])
    assert second.status == third.status == SEARCH
    assert len(cache.entries[goal_key(GOAL)].order) == settled
    masked = first.settled_per_phase[1][2]
    assert set(cache.entries[cost1_goal_key(GOAL)].order) >= {u for u in range(256) if masked[u]}
    assert len(cache.entries[start_key(START)].order) == sum(second.settled_per_phase[1][2])
    assert third.settled_per_phase == second.settled_per_phase
    # A wider W rebuilds the goal tree, which holds every state it settles;
    # the seed f1_bar is the same, so the cost1 tree serves again.
    wider = init_unidirectional(g, ProblemInstance(START, GOAL, W + 300))
    assert (cache.hits, cache.misses) == (4, 4) and cache.entries[goal_key(GOAL)].limit == W + 300
    assert len(cache.entries[goal_key(GOAL)].order) == sum(wider.settled_per_phase[0][2]) > settled


def test_trees_take_the_narrowest_width_per_array():
    assert [_int_array(v).typecode for v in
            ([-1, 32767], [-32768], [32768], [-32769], [2**31 - 1], [2**31], [-1, -2**31 - 1])] \
        == ["h", "h", "i", "i", "i", "q", "q"]
    # 8 bytes per label where every value fits in 16 bits.
    small = random_graph(7, 20, 40)
    tree, _ = goal_trees(small).prefix(small, goal_key(19), 10**6)
    assert {a.itemsize for a in (tree.order, tree.dist, tree.comp, tree.pred)} == {2}
    assert tree.nbytes == 8 * len(tree.order) == goal_trees(small).size
    # A cost2 distance of 32,768 moves only the dist array to 32 bits, one
    # past 2^31 moves it to 64; the cost1 companion widens on its own.
    for c1, c2, widths in ((5, 32767, (2, 4, 2, 2)), (COST_MAX, 2**31, (2, 8, 8, 2))):
        big = Graph(3, [(0, 1, c1, c2), (1, 2, 1, 1)])
        tree, count = goal_trees(big).prefix(big, goal_key(2), 2**32)
        arrays = (tree.order, tree.dist, tree.comp, tree.pred)
        assert tuple(a.itemsize for a in arrays) == widths
        assert tree.nbytes == 3 * sum(widths) == goal_trees(big).size
        assert count == 3 and list(tree.order) == [2, 1, 0] and list(tree.pred) == [-1, 2, 1]
        assert list(tree.dist) == [0, 1, c2 + 1] and list(tree.comp) == [0, 1, c1 + 1]
    # A grown tree keeps its arrays' widths unless a new value needs more.
    big = Graph(3, [(0, 1, 1, 1), (1, 2, 1, 40000)])
    cache = goal_trees(big)
    narrow, _ = cache.prefix(big, goal_key(2), 1)
    wide, count = cache.prefix(big, goal_key(2), 2**32)
    assert cache.grows == 1 and count == 3 and list(wide.dist) == [0, 40000, 40001]
    assert [a.typecode for a in (narrow.dist, wide.dist, wide.comp)] == ["h", "i", "h"]
    assert wide.nbytes == 3 * (2 + 4 + 2 + 2) == cache.size
