"""The byte-bounded LRU that the tree cache and the geo tables share: under a
small capacity, lookups, growth, widening and eviction must keep a cache's
bytes equal to the sum of its entries' bytes, within its capacity unless one
entry is left, and evict the least recently used entries first."""

import random

import pytest

from wcspp.bounds import ATTR1, ATTR2, geo_heuristic, goal_trees
from wcspp.caches import geo_tables
from wcspp.graph import BACKWARD

from conftest import ladder, road_grid_graph


def tree_steps(rng: random.Random):
    """A road grid's tree cache, with room for one and a half whole-graph
    trees at 8 bytes per state, and a step that asks one of six goals' cost2
    trees for a bound or a state: a hit, a new tree or a growth. Each step
    returns (key, entry, used, kind), `used` when the key's entry became the
    most recent."""
    g = road_grid_graph(3, 10, 10)
    cache = goal_trees(g)
    cache.capacity = 12 * g.state_count
    goals = rng.sample(range(g.state_count), 6)

    def step():
        key = (rng.choice(goals), BACKWARD, ATTR2)
        counts = (cache.hits, cache.grows)
        if rng.random() < 0.5:
            tree, _ = cache.prefix(g, key, rng.randrange(1400))
        else:
            tree, _ = cache.reach(g, key, rng.randrange(g.state_count))
        kind = ("hit" if cache.hits > counts[0] else "grow" if cache.grows > counts[1]
                else "insert")
        return key, tree, True, kind

    return cache, step


def table_steps(rng: random.Random):
    """A ladder's geo tables, with room for five 16-bit tables, and a step
    that either looks up the table toward one of eight targets (a hit or a
    new table) or reads entries of a table got earlier, which may widen it
    where it stays in the LRU order, or may have been evicted."""
    g = ladder(12)
    n = g.state_count
    cache = geo_tables(g)
    cache.capacity = 5 * 2 * n
    targets = rng.sample(range(n), 8)
    held = {}

    def step():
        target = rng.choice(targets)
        table = held.get(target)
        if table is not None and rng.random() < 0.5:
            before = table.nbytes
            for u in rng.sample(range(n), 6):
                assert table[u] >= 0
            return target, table, False, "widen" if table.nbytes > before else "read"
        hits = cache.hits
        table = held[target] = geo_heuristic(g, target, ATTR1)
        return target, table, True, "hit" if cache.hits > hits else "insert"

    return cache, step


@pytest.mark.parametrize("make, kinds", [(tree_steps, {"hit", "insert", "grow"}),
                                         (table_steps, {"hit", "insert", "widen"})],
                         ids=["goal-trees", "geo-tables"])
def test_the_lru_keeps_its_bytes_and_evicts_the_least_recent_first(make, kinds):
    rng = random.Random(29)
    cache, step = make(rng)
    seen = set()
    for _ in range(400):
        before = list(cache.entries.items())
        evictions = cache.evictions
        key, entry, used, kind = step()
        seen.add(kind)
        # The model: the step's entry moves to the end when used, then the
        # oldest entries go while the rest overflows and more than one is left.
        order = [(k, e) for k, e in before if not (used and k == key)]
        if used:
            order.append((key, entry))
        cut, total = 0, sum(e.nbytes for _, e in order)
        while total > cache.capacity and len(order) - cut > 1:
            total -= order[cut][1].nbytes
            cut += 1
        seen.add("evict" if cut else kind)
        assert list(cache.entries.items()) == order[cut:], kind
        assert cache.evictions - evictions == cut
        assert cache.size == sum(e.nbytes for e in cache.entries.values())
        assert cache.size <= cache.capacity or len(cache.entries) == 1
    assert kinds | {"evict"} <= seen, seen
