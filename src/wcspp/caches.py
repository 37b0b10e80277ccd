"""The per-graph caches that carry work from one solve to the next: the
list pool (`ListPool`), the geometric data and bound tables (`GeoTables`),
and the one byte-bounded LRU policy (`ByteLRU`) that the geo tables and
`bounds.GoalTrees`, the init's tree cache, share; each holds at most 256
bytes per state of its own entries. Each cache is made on first use in its
slot of the graph (`_graph_slot`), has its own lock and depends only on the
graph and its keys, so a warm solve gives what a cold one gives, counter
for counter. This module imports nothing from `bounds`.
"""

from __future__ import annotations

import math
import sys
import threading
from array import array
from collections import OrderedDict
from typing import Iterable, Sequence

from .graph import INF, Graph


class ByteLRU:
    """Entries with an `nbytes` each, least recently used first out, holding
    at most `capacity = 256 * state_count` bytes in all (`size`); the newest
    entry stays even when it alone is larger. `hits`, `misses` and
    `evictions` count lookups and entries. The owner holds `_lock` around
    each lookup with `hit`, `put` or `resize`, and around what a miss
    computes, so threads may share the cache."""

    def __init__(self, state_count: int):
        self.capacity = 256 * state_count
        self.entries: OrderedDict = OrderedDict()
        self.size = 0
        self.hits = self.misses = self.evictions = 0
        self._lock = threading.Lock()

    def hit(self, key) -> None:
        """Count a lookup that `key`'s entry answered; it becomes the most recent."""
        self.hits += 1
        self.entries.move_to_end(key)

    def put(self, key, entry) -> None:
        """Count a miss and cache `entry` as `key`'s, the most recent, in
        place of the key's older entry; then evict."""
        self.misses += 1
        old = self.entries.pop(key, None)
        if old is not None:
            self.size -= old.nbytes
        self.entries[key] = entry
        self.size += entry.nbytes
        self._evict()

    def resize(self, key, entry, old_nbytes: int) -> None:
        """Count `entry`'s growth from `old_nbytes` if `key` still holds it; then evict."""
        if self.entries.get(key) is entry:
            self.size += entry.nbytes - old_nbytes
            self._evict()

    def _evict(self) -> None:
        while self.size > self.capacity and len(self.entries) > 1:
            _, old = self.entries.popitem(last=False)
            self.size -= old.nbytes
            self.evictions += 1


class ListPool:
    """A graph's spare per-state lists, one free list per fill value (INF,
    None, False).

    `take(fill)` hands out an n-entry list holding `fill` everywhere. `give`
    takes lists back, each with `written`, one sequence that names every
    state written since it was taken (repeats allowed). A list is kept only
    if `written` holds at most n/16 states (or 64 on a graph of under 1,024
    states): past that, a fresh `[fill] * n` is cheaper than resetting the
    states one by one in Python. The pool holds at most `CAPACITY` lists; a
    solve takes at most 20. `take` reuses a kept list only when the pool
    holds its last reference, so a list that a caller still reaches through
    an `InitResult` is never overwritten; such a list is dropped instead. One
    lock guards the free lists, so threads may share a graph; the reset runs
    outside it. `reused`, `fresh` and `dropped` count lists served from the
    pool, lists allocated, and lists given back but not reused.
    """

    CAPACITY = 32

    def __init__(self, state_count: int):
        self.state_count = state_count
        self.keep_limit = max(state_count // 16, 64)
        self.free: dict = {INF: [], None: [], False: []}
        self.size = 0
        self.reused = self.fresh = self.dropped = 0
        self._lock = threading.Lock()

    def take(self, fill) -> list:
        free = self.free[fill]
        with self._lock:
            while free:
                lst, written = free.pop()
                self.size -= 1
                # Two references: `lst` and getrefcount's own argument.
                if sys.getrefcount(lst) == 2:
                    self.reused += 1
                    break
                self.dropped += 1
            else:
                self.fresh += 1
                return [fill] * self.state_count
        for u in written:
            lst[u] = fill
        return lst

    def give(self, taken: Iterable[tuple]) -> None:
        """Keep (fill, list, written) lists for reuse, as the bounds allow."""
        with self._lock:
            for fill, lst, written in taken:
                if self.size < self.CAPACITY and len(written) <= self.keep_limit:
                    self.free[fill].append((lst, written))
                    self.size += 1
                else:
                    self.dropped += 1


def haversine_m(lat: Sequence[float], lon: Sequence[float], cos_lat: Sequence[float],
                a: int, b: int) -> float:
    """Great-circle distance in metres between states a and b, from per-state
    latitudes and longitudes in radians and the cosines of the latitudes."""
    s = (math.sin((lat[b] - lat[a]) / 2) ** 2
         + cos_lat[a] * cos_lat[b] * math.sin((lon[b] - lon[a]) / 2) ** 2)
    return 2 * 6371000.0 * math.asin(min(1.0, math.sqrt(s)))


class GeoTable:
    """Great-circle cost1 lower bounds toward one target: `values[u]` holds
    h[u] once computed and -1 before, in a typed array that starts at 16-bit
    ints. `fill(u)` computes h[u] as `haversine_m(...) * scale` from its
    cache's coordinates and stores it, first widening the array to 32-bit,
    then 64-bit ints, then a list (`GeoTables.widen`) when the value does
    not fit. `h[u]` reads an entry and fills it when it is -1. A reader that
    still holds an array from before a widening sees -1 where later values
    were stored, and recomputes them: the same ints."""

    __slots__ = ("values", "target", "cache")

    def __init__(self, cache: "GeoTables", target: int):
        self.target = target
        self.cache = cache
        self.values = array("h", [-1]) * len(cache.lat)

    def __getitem__(self, u: int) -> int:
        h = self.values[u]
        return h if h >= 0 else self.fill(u)

    def fill(self, u: int) -> int:
        c = self.cache
        h = int(haversine_m(c.lat, c.lon, c.cos_lat, u, self.target) * c.scale)
        try:
            self.values[u] = h
        except OverflowError:
            c.widen(self, u, h)
        return h

    @property
    def nbytes(self) -> int:
        """The entries' bytes: the array's item size, or a list's 8-byte slot, per state."""
        return len(self.values) * getattr(self.values, "itemsize", 8)


_WIDER = {"h": "i", "i": "q"}  # a table array's next typecode; past "q", a list


class GeoTables(ByteLRU):
    """A graph's geometric data, computed once: `lat`, `lon` (radians) and
    `cos_lat` in arrays of doubles, and `scale`, the tightest cost1 per
    metre over all edges (INF when no edge has a length). And its bound
    tables (`GeoTable`), one per target, 128 at 16 bits per state: every
    search toward a target shares its table, whatever its weight limit,
    other end or solver. The lock serialises lookups and widenings;
    searches read and fill a table outside it."""

    def __init__(self, graph: Graph):
        super().__init__(graph.state_count)
        coords = graph.coords or ()
        # Typed arrays hold the same doubles as float lists in a quarter of the memory.
        self.lat = lat = array("d", [math.radians(c[0]) for c in coords])
        self.lon = lon = array("d", [math.radians(c[1]) for c in coords])
        self.cos_lat = cos_lat = array("d", [math.cos(x) for x in lat])
        scale = INF
        if coords:
            for u, v, c1, _ in graph.edges():
                d = haversine_m(lat, lon, cos_lat, u, v)
                if d > 1e-9:
                    scale = min(scale, c1 / d)
        self.scale = scale

    def table(self, target: int) -> GeoTable:
        """The table toward `target`, made empty on a miss."""
        with self._lock:
            table = self.entries.get(target)
            if table is None:
                table = GeoTable(self, target)
                self.put(target, table)
            else:
                self.hit(target)
            return table

    def widen(self, table: GeoTable, u: int, h: int) -> None:
        """Store h[u] in `table`, whose array overflowed on it: copy the
        array into the next wider one, as often as it takes."""
        with self._lock:
            while True:
                values = table.values
                try:
                    values[u] = h
                    return
                except OverflowError:
                    before, code = table.nbytes, _WIDER.get(values.typecode)
                    table.values = array(code, values) if code else list(values)
                    self.resize(table.target, table, before)


_GRAPH_SLOT_LOCK = threading.Lock()


def _graph_slot(graph: Graph, name: str, make):
    """The graph's `name` slot, set to `make(graph)` on first use; one lock
    makes sure threads sharing the graph make it once."""
    value = getattr(graph, name)
    if value is None:
        with _GRAPH_SLOT_LOCK:
            value = getattr(graph, name)
            if value is None:
                value = make(graph)
                setattr(graph, name, value)
    return value


def list_pool(graph: Graph) -> ListPool:
    """The graph's pool of spare per-state lists, made on first use."""
    return _graph_slot(graph, "list_pool", lambda g: ListPool(g.state_count))


def geo_tables(graph: Graph) -> GeoTables:
    """The graph's geometric data and bound tables, made on first use."""
    return _graph_slot(graph, "geo_tables", GeoTables)
