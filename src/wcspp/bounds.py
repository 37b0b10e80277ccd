"""Bounded heuristic searches producing the h/ub tables, the reduced state set,
initial global upper bounds and budget factors. Each solver's initialisation
is a plan of rounds of these searches, run by `run_init`.

Every plan starts with the same search: cost2 from the goal over the reversed
graph, bounded by the weight limit W, with no heuristic, mask or joins. It
depends only on the goal and on W, and a run bounded by W settles exactly
the prefix with cost2 <= W of any run with a larger bound, in the same order.
So it is not rerun per solve: each graph records one finished search per goal
(`GoalTree`, in the LRU `GoalTrees` cache on `graph.goal_trees`), reruns it
only for a W above the recorded bound, and replays the prefix one settled
state at a time (`GoalTree.replay`) into an ordinary `BoundedSearch`, through
the same settle generator as a live search. Each init search is such a
generator, yielding once per settled state; it ends by itself once either
search of its round has decided the init, so `run_sides` drives it like any
other side.

The per-state lists a solve writes (each search's `dist`, `comp`, `pred` and
`settled`, the round-two and S' masks, each search context's `g_min`) come
from the graph's `ListPool` (`graph.list_pool`). Each list travels with the
states written to it, and `solvers._finish` gives them back once the outcome
is built, so the next solve on the graph resets only those states instead of
allocating n-entry lists. A direct caller of `run_init` or `BoundedSearch`
keeps the lists it gets.

Direction convention: tables for direction d bound costs from a state to that
search's target (forward target = goal, backward target = start). The forward
tables are therefore computed by traversing the reversed graph from the goal,
and vice versa. Attribute indices are 0 for cost1 and 1 for cost2.
"""

from __future__ import annotations

import heapq
import math
import sys
import threading
import time
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .graph import BACKWARD, FORWARD, Graph, ProblemInstance

INF = float("inf")

_TIMEOUT_CHECK_MASK = 4095  # wall clock consulted every 4096 Clock.expired calls

ATTR1 = 0
ATTR2 = 1

# InitResult.status values
INFEASIBLE = "infeasible"
SHORTCUT = "shortcut"  # optimum proven during initialisation
SEARCH = "search"  # constrained search required

# How a SolutionRecord half is rebuilt: (PATH, path_id) backtracks that side's
# recorded search path, (TREE, attr) walks that side's init tree on attr.
PATH = "path"
TREE = "tree"
TREE_HALF = ((TREE, ATTR1), (TREE, ATTR2))  # indexed by attr, so offers share them


@dataclass
class SolutionRecord:
    """Best known feasible solution and how to rebuild its path.

    A start-side half and a goal-side half meet at the join `state`.
    `to_start` is the start side's half: (PATH, path_id) for a path the
    forward search recorded, (TREE, attr) for the backward init tree on attr
    (it leads to the start), or None when `state` is the start. `to_goal`
    mirrors it: the backward search's path, the forward init tree, or None
    at the goal. `costs` is None while there is no solution.
    """

    costs: Optional[tuple[int, int]] = None
    state: Optional[int] = None
    to_start: Optional[tuple] = None
    to_goal: Optional[tuple] = None


def join_halves(side: int, state: int, mine: Optional[tuple], theirs: Optional[tuple]) -> tuple:
    """A record's (state, to_start, to_goal) joining `mine`, the half of a search
    that starts at `side`'s end of the path (FORWARD: the start), with `theirs`."""
    return (state, mine, theirs) if side == FORWARD else (state, theirs, mine)


class GlobalBounds:
    """Shared (f1_bar, f2_bar, f2_sol) plus the current solution record.

    All updates happen under one lock and only ever tighten; readers outside
    the lock may see stale (larger) values, which can only delay pruning.
    """

    def __init__(self, weight_limit: int):
        self.f1_bar = INF
        self.f2_bar = weight_limit
        self.f2_sol = INF
        self.record = SolutionRecord()
        self.incumbents: list = []  # accepted (c1, c2, source) updates, in order
        self._lock = threading.Lock()

    def offer(self, c1, c2, data: tuple, tag: str) -> bool:
        """Install (c1, c2) if lexicographically smaller than (f1_bar, f2_sol);
        only then is its solution record built from `data`, the record's
        (state, to_start, to_goal)."""
        with self._lock:
            if c1 < self.f1_bar or (c1 == self.f1_bar and c2 < self.f2_sol):
                self.f1_bar = c1
                self.f2_sol = c2
                self.record = SolutionRecord((c1, c2), *data)
                self.incumbents.append((c1, c2, tag))
                return True
            return False

    def tighten_f1(self, c1) -> bool:
        """Lower f1_bar without nominating a solution node; resets f2_sol."""
        with self._lock:
            if c1 < self.f1_bar:
                self.f1_bar = c1
                self.f2_sol = INF
                return True
            return False

    def seed(self, c1, c2, data: tuple) -> None:
        """Install the initialisation incumbent: bounds f1 but leaves f2_sol open."""
        with self._lock:
            if c1 < self.f1_bar:
                self.f1_bar = c1
                self.record = SolutionRecord((c1, c2), *data)


@dataclass
class BudgetFactors:
    forward: Fraction
    backward: Fraction


class BoundsTables:
    """Per-direction lower/upper bound arrays and shortest-path trees."""

    def __init__(self):
        # [direction][attr] -> per-state array (None until that search ran)
        self.h: list[list[Optional[list]]] = [[None, None], [None, None]]
        self.ub: list[list[Optional[list]]] = [[None, None], [None, None]]
        self.tree: list[list[Optional[list]]] = [[None, None], [None, None]]

    def install(self, direction: int, attr: int, dist: list, comp: list,
                pred: list) -> None:
        other = 1 - attr
        self.h[direction][attr] = dist
        self.ub[direction][other] = comp
        self.tree[direction][attr] = pred


@dataclass
class InitResult:
    status: str
    tables: BoundsTables
    gb: GlobalBounds
    valid_states: Optional[list[bool]] = None  # S' membership mask
    valid_members: Optional[list[int]] = None  # the states of S', each once
    settled_per_phase: list = field(default_factory=list)  # (direction, attr, mask) per search
    # (fill, list, written) per list taken from the graph's ListPool
    taken: list = field(default_factory=list)
    # How the first (FORWARD, cost2) search was served from the goal's tree:
    # how many of its states were replayed from a cached tree, or, when the
    # tree was rebuilt for this W, how many states the rebuild settled.
    tree_replayed: int = 0
    tree_settled: int = 0


class BoundedSearch:
    """Label-setting search on one attribute with lexicographic tie-breaking on the other.

    Stops before expanding any state whose f-value exceeds the bound (which may
    be a callable re-read every pop, for bounds tightened concurrently).
    `steps()` yields one settled (state, dist, companion) at a time, before the
    state's successors are generated; `order` lists the settled states in
    settle order.
    """

    def __init__(self, graph: Graph, source: int, traverse_dir: int, attr: int,
                 heuristic: Optional[Sequence] = None, bound=INF,
                 allowed: Optional[Sequence[bool]] = None):
        self.graph = graph
        self.source = source
        self.traverse_dir = traverse_dir
        self.attr = attr
        self.heuristic = heuristic
        self.bound = bound if callable(bound) else (lambda b=bound: b)
        self.allowed = allowed
        pool = list_pool(graph)
        self.dist = pool.take(INF)
        self.comp = pool.take(INF)
        self.pred: list[Optional[int]] = pool.take(None)
        self.settled = pool.take(False)
        self.order: list[int] = []
        self.best: dict[int, tuple] = {source: (0, 0)}
        h0 = heuristic[source] if heuristic is not None else 0
        self.heap: list[tuple] = [(h0, 0, 0, source, -1)]

    def steps(self) -> Iterator[tuple[int, int, int]]:
        graph = self.graph
        if self.traverse_dir == FORWARD:
            index, to, c1, c2 = graph.fwd_index, graph.fwd_to, graph.fwd_c1, graph.fwd_c2
        else:
            index, to, c1, c2 = graph.rev_index, graph.rev_to, graph.rev_c1, graph.rev_c2
        # Primary (searched) and secondary (companion) cost per arc.
        cp, cs = (c1, c2) if self.attr == ATTR1 else (c2, c1)
        heappop, heappush = heapq.heappop, heapq.heappush
        heap, best, heuristic, allowed, bound = (self.heap, self.best, self.heuristic,
                                                 self.allowed, self.bound)
        dist, comp, pred, settled, settle = (self.dist, self.comp, self.pred, self.settled,
                                             self.order.append)
        while heap:
            f, ds, dp, u, pu = heappop(heap)
            if settled[u]:
                continue
            if f > bound():
                break
            settled[u] = True
            settle(u)
            dist[u] = dp
            comp[u] = ds
            pred[u] = pu if pu >= 0 else None
            yield u, dp, ds
            for i in range(index[u], index[u + 1]):
                v = to[i]
                if allowed is not None and not allowed[v]:
                    continue
                if settled[v]:
                    continue
                ndp = dp + cp[i]
                nds = ds + cs[i]
                cur = best.get(v)
                if cur is None or (ndp, nds) < cur:
                    best[v] = (ndp, nds)
                    hv = heuristic[v] if heuristic is not None else 0
                    heappush(heap, (ndp + hv, nds, ndp, v, u))

    def run(self) -> "BoundedSearch":
        """Run to completion."""
        for _ in self.steps():
            pass
        return self

    def taken(self) -> list[tuple]:
        """(fill, list, written) for the four lists taken from the graph's pool;
        they are written only at the settled states."""
        written = (self.order,)
        return [(INF, self.dist, written), (INF, self.comp, written),
                (None, self.pred, written), (False, self.settled, written)]


class GoalTree:
    """A finished cost2 search from one goal over the reversed graph, the
    record of `BoundedSearch(graph, goal, BACKWARD, ATTR2, bound=limit).run()`:
    its settled states in settle order, with their cost2 (non-decreasing),
    cost1 companion and predecessor (-1 for the goal), in typed arrays. With
    no heuristic an entry's f is its cost2, so for every W <= limit the states
    with cost2 <= W are the prefix of the settle order that a search bounded
    by W settles, in the same order. A tree is never changed once made.
    """

    __slots__ = ("order", "dist", "comp", "pred", "limit")

    def __init__(self, search: BoundedSearch, limit: int):
        order, dist, comp, pred = search.order, search.dist, search.comp, search.pred
        self.order = array("q", order)
        self.dist = array("q", [dist[u] for u in order])
        self.comp = array("q", [comp[u] for u in order])
        self.pred = array("q", [-1 if pred[u] is None else pred[u] for u in order])
        self.limit = limit

    def replay(self, search: BoundedSearch, count: int) -> Iterator[tuple[int, int, int]]:
        """Settle the first `count` states of the tree into `search`, a fresh
        `BoundedSearch(graph, goal, BACKWARD, ATTR2)`, as its `steps()` would
        with a bound that admits exactly them: the same states in the same
        order, written into the search's own lists. The tree's arrays are
        never handed out, as solvers write into their tables."""
        order, tdist, tcomp, tpred = self.order, self.dist, self.comp, self.pred
        dist, comp, pred, settled, settle = (search.dist, search.comp, search.pred,
                                             search.settled, search.order.append)
        for i in range(count):
            u, dp, ds, pu = order[i], tdist[i], tcomp[i], tpred[i]
            settled[u] = True
            settle(u)
            dist[u] = dp
            comp[u] = ds
            pred[u] = pu if pu >= 0 else None
            yield u, dp, ds


class GoalTrees:
    """A graph's goal trees, least recently used first out, holding at most
    `8 * n` settled states in all. One lock serialises lookups and rebuilds.
    A replay reads its tree outside the lock: a rebuild swaps in a new tree
    and leaves the old one to the replays that hold it.
    """

    def __init__(self, state_count: int):
        self.state_count = state_count
        self.capacity = 8 * state_count
        self.trees: OrderedDict[int, GoalTree] = OrderedDict()
        self.size = 0
        self.hits = self.misses = self.evictions = 0
        self._lock = threading.Lock()

    def prefix(self, graph: Graph, goal: int, limit: int) -> tuple[GoalTree, int, int]:
        """`goal`'s tree for weight limit `limit`, the length of its
        settle-order prefix with cost2 <= limit, and how many states a
        rebuild settled now: 0 on a hit, where the cached tree's limit is at
        least `limit`; else the whole tree, searched afresh up to `limit`."""
        if not 0 <= goal < self.state_count:
            raise IndexError(f"goal {goal} is not one of the graph's {self.state_count} states")
        with self._lock:
            tree = self.trees.pop(goal, None)
            if tree is not None and tree.limit >= limit:
                self.hits += 1
                self.trees[goal] = tree
                return tree, bisect_right(tree.dist, limit), 0
            self.misses += 1
            if tree is not None:
                self.size -= len(tree.order)
            search = BoundedSearch(graph, goal, BACKWARD, ATTR2, bound=limit).run()
            tree = self.trees[goal] = GoalTree(search, limit)
            list_pool(graph).give(search.taken())
            count = len(tree.order)
            self.size += count
            while self.size > self.capacity and len(self.trees) > 1:
                _, old = self.trees.popitem(last=False)
                self.size -= len(old.order)
                self.evictions += 1
            return tree, count, count


class ListPool:
    """A graph's spare per-state lists, one free list per fill value (INF,
    None, False).

    `take(fill)` hands out an n-entry list holding `fill` everywhere. `give`
    takes lists back, each with `written`, sequences that together name every
    state written since it was taken (repeats allowed). A list is kept only if
    at most n/16 states were written (or 64 on a graph of under 1,024 states):
    past that, a fresh `[fill] * n` is cheaper than resetting the states one
    by one in Python. The pool holds at most `CAPACITY` lists; a solve takes
    at most 20. `take` reuses a kept list only when the pool holds its last
    reference, so a list that a caller still reaches through an `InitResult`
    is never overwritten; such a list is dropped instead. One lock guards
    the free lists, so threads may share a graph; the reset runs outside it.
    `reused`, `fresh` and `dropped` count lists served from the pool, lists
    allocated, and lists given back but not reused.
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
        for states in written:
            for u in states:
                lst[u] = fill
        return lst

    def give(self, taken: Iterable[tuple]) -> None:
        """Keep (fill, list, written) lists for reuse, as the bounds allow."""
        with self._lock:
            for fill, lst, written in taken:
                if (self.size < self.CAPACITY
                        and sum(map(len, written)) <= self.keep_limit):
                    self.free[fill].append((lst, written))
                    self.size += 1
                else:
                    self.dropped += 1


_GRAPH_SLOT_LOCK = threading.Lock()


def goal_trees(graph: Graph) -> GoalTrees:
    """The graph's goal-tree cache, made on first use."""
    cache = graph.goal_trees
    if cache is None:
        with _GRAPH_SLOT_LOCK:
            if graph.goal_trees is None:
                graph.goal_trees = GoalTrees(graph.state_count)
            cache = graph.goal_trees
    return cache


def list_pool(graph: Graph) -> ListPool:
    """The graph's pool of spare per-state lists, made on first use."""
    pool = graph.list_pool
    if pool is None:
        with _GRAPH_SLOT_LOCK:
            if graph.list_pool is None:
                graph.list_pool = ListPool(graph.state_count)
            pool = graph.list_pool
    return pool


class Clock:
    """Timeout bookkeeping: wall clock consulted every 4096 calls to `expired`."""

    def __init__(self, timeout: Optional[float]):
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.counter = 0
        self.timed_out = False

    def expired(self) -> bool:
        if self.deadline is None:
            return False
        if self.counter & _TIMEOUT_CHECK_MASK == 0:
            if time.monotonic() >= self.deadline:
                self.timed_out = True
        self.counter += 1
        return self.timed_out


def parse_schedule(schedule: tuple) -> tuple[str, int]:
    """(mode, steps per turn) of ('lockstep', k), with an int k >= 1 (1 if left
    out), or of ('threads', 2); any other value raises ValueError."""
    if isinstance(schedule, tuple) and 1 <= len(schedule) <= 2:
        mode, n = schedule if len(schedule) == 2 else (schedule[0], 1)
        if type(n) is int:  # not a bool, a float or a string
            if mode == "lockstep" and n >= 1:
                return mode, n
            if mode == "threads" and n == 2:
                return mode, 1
    raise ValueError("a schedule is ('lockstep', k) with an int k >= 1 or ('threads', 2), "
                     f"got {schedule!r}")


_DONE = object()


def run_sides(schedule: tuple, sides: Sequence[Iterator], *, require_both: bool = True,
              clock: Optional[Clock] = None) -> bool:
    """Drive the two sides of a bidirectional search under one schedule.

    Each side is an iterator: one `next` does one unit of work, and the side
    is done once its iterator is exhausted. A side that must halt when the
    other decides the search ends its own iterator. ('lockstep', k) gives
    each side k steps per turn, in the order given, so runs repeat exactly;
    ('threads', 2) runs each side on its own thread. The clock is consulted
    before every step. With `require_both=False` the run ends as soon as one
    side is done. Returns True when the clock expired. An exception raised by
    a side ends the run: under threads the failing side halts the other, and
    the first exception is raised again once both threads have ended.
    """
    mode, k = parse_schedule(schedule)
    if mode == "threads":
        halt = threading.Event()
        errors: list[BaseException] = []

        def work(side: Iterator) -> None:
            try:
                while not halt.is_set() and not (clock is not None and clock.expired()):
                    if next(side, _DONE) is _DONE:
                        if not require_both:
                            halt.set()
                        return
            except BaseException as exc:
                errors.append(exc)
                halt.set()

        threads = [threading.Thread(target=work, args=(side,)) for side in sides]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return clock is not None and clock.timed_out
    live = list(sides)
    while live:
        for side in tuple(live):
            for _ in range(k):
                if clock is not None and clock.expired():
                    return True
                if next(side, _DONE) is _DONE:
                    if not require_both:
                        return False
                    live.remove(side)
                    break
    return False


def haversine_m(lat: Sequence[float], lon: Sequence[float], cos_lat: Sequence[float],
                a: int, b: int) -> float:
    """Great-circle distance in metres between states a and b, from per-state
    latitudes and longitudes in radians and the cosines of the latitudes."""
    s = (math.sin((lat[b] - lat[a]) / 2) ** 2
         + cos_lat[a] * cos_lat[b] * math.sin((lon[b] - lon[a]) / 2) ** 2)
    return 2 * 6371000.0 * math.asin(min(1.0, math.sqrt(s)))


class GeoHeuristic(dict):
    """Great-circle cost1 lower bounds toward one target, computed for a state
    on its first lookup and memoised."""

    __slots__ = ("lat", "lon", "cos_lat", "scale", "target")

    def __init__(self, geo: tuple, target: int):
        super().__init__()
        self.lat, self.lon, self.cos_lat, self.scale = geo
        self.target = target

    def __missing__(self, u: int) -> int:
        h = self[u] = int(haversine_m(self.lat, self.lon, self.cos_lat, u, self.target)
                          * self.scale)
        return h


def geo_heuristic(graph: Graph, target: int, attr: int) -> Optional[GeoHeuristic]:
    """Admissible cost1 lower bounds from great-circle distances, when coordinates exist.

    Scaled by the tightest cost1-per-metre ratio over all edges so that
    h[u] <= cost1 of every u-target path; cost2 has no geometric meaning here.
    The per-graph data (radian coordinates, cos(lat) and the scale) is
    computed on the first call and kept in `graph.geo_cache`; each later call
    costs O(1), and h[u] is evaluated only for the states a search looks up.
    """
    if attr != ATTR1 or graph.coords is None or graph.state_count == 0:
        return None
    if graph.geo_cache is None:
        lat = [math.radians(c[0]) for c in graph.coords]
        lon = [math.radians(c[1]) for c in graph.coords]
        cos_lat = [math.cos(x) for x in lat]
        scale = INF
        for u, v, c1, _ in graph.edges():
            d = haversine_m(lat, lon, cos_lat, u, v)
            if d > 1e-9:
                scale = min(scale, c1 / d)
        graph.geo_cache = (lat, lon, cos_lat, scale)
    scale = graph.geo_cache[3]
    if scale is INF or scale <= 0:
        return None
    return GeoHeuristic(graph.geo_cache, target)


# Init plans: a tuple of rounds, each one or two (table direction, attribute)
# searches. The searches of a round run side by side under the schedule.
PLAN_UNIDIRECTIONAL = (((FORWARD, ATTR2),), ((FORWARD, ATTR1),))
PLAN_SEQUENTIAL = (((FORWARD, ATTR2),), ((BACKWARD, ATTR2),), ((BACKWARD, ATTR1),),
                   ((FORWARD, ATTR1),))
PLAN_PARALLEL = (((FORWARD, ATTR2), (BACKWARD, ATTR1)), ((BACKWARD, ATTR2), (FORWARD, ATTR1)))


def _init_search(graph: Graph, inst: ProblemInstance, result: InitResult, table_dir: int,
                 attr: int, allowed: Optional[Sequence[bool]]):
    """One bounded search of an init plan and the generator that settles it.

    The search computes direction `table_dir` tables on `attr`, so it runs from
    that direction's target end toward the other end. Its heuristic is the
    opposite direction's table on `attr` when one exists, else the geometric
    bound; cost2 is bounded by the weight limit, cost1 by f1_bar. Each settled
    label is one half of a start-goal path: it is joined with every opposite
    table. When the search's own target settles, a cost2 label seeds f1_bar and
    a cost1 label within the weight limit is the optimum (SHORTCUT). A cost2
    search that ends without settling its target proves INFEASIBLE. The
    forward cost2 search with no heuristic and no mask, every plan's first,
    settles by replaying the goal's cached tree instead of by its own `steps()`.
    The generator yields after each settled state's joins and target test, and
    settles no further state once `result.status` is no longer SEARCH.
    """
    tables, gb = result.tables, result.gb
    opp = 1 - table_dir
    source, target = (inst.goal, inst.start) if table_dir == FORWARD else (inst.start, inst.goal)
    heuristic = tables.h[opp][attr]
    if heuristic is None:
        heuristic = geo_heuristic(graph, target, attr)
    search = BoundedSearch(graph, source, opp, attr, heuristic=heuristic,
                           bound=gb.f2_bar if attr == ATTR2 else (lambda: gb.f1_bar),
                           allowed=allowed)
    if table_dir == FORWARD and attr == ATTR2 and heuristic is None and allowed is None:
        tree, count, live = goal_trees(graph).prefix(graph, source, gb.f2_bar)
        result.tree_replayed, result.tree_settled = count - live, live
        states = tree.replay(search, count)
    else:
        states = search.steps()
    joins = []  # (the opposite tree's record half, its cost1 table, its cost2 table)
    for b in (ATTR1, ATTR2):
        h_arr = tables.h[opp][b]
        if h_arr is not None:
            ub_arr = tables.ub[opp][1 - b]
            joins.append((TREE_HALF[b], h_arr, ub_arr) if b == ATTR1
                         else (TREE_HALF[b], ub_arr, h_arr))
    mine = TREE_HALF[attr]

    def settle() -> Iterator[None]:
        if result.status != SEARCH:
            return
        for u, dp, ds in states:
            if attr == ATTR1:
                c1, c2 = dp, ds
            else:
                c1, c2 = ds, dp
            for half, tc1, tc2 in joins:
                o1, o2 = tc1[u], tc2[u]
                if o1 != INF and o2 != INF and c2 + o2 <= gb.f2_bar:
                    gb.offer(c1 + o1, c2 + o2, join_halves(opp, u, mine, half), "init-match")
            if u == target:
                if attr == ATTR2:
                    gb.seed(c1, c2, join_halves(opp, u, mine, None))
                elif c2 <= gb.f2_bar:
                    gb.offer(c1, c2, join_halves(opp, u, mine, None), "init-shortcut")
                    result.status = SHORTCUT
            yield
            if result.status != SEARCH:
                return
        if attr == ATTR2 and not search.settled[target]:
            result.status = INFEASIBLE

    return search, settle()


def run_init(graph: Graph, inst: ProblemInstance, plan: tuple,
             schedule: tuple = ("lockstep", 1)) -> InitResult:
    """Run an init plan round by round; the two searches of a round run side
    by side under `schedule` until both are done or either decides the init.

    Every search after the first round is restricted to the states that all
    searches of the previous round settled. The init ends early on INFEASIBLE
    or SHORTCUT; otherwise S' is the union of the last round's settled states.
    Both masks are taken from the graph's pool and scattered from the
    searches' settle orders, so building them costs O(settled), not O(n), in
    Python. Every list taken is listed in `result.taken`. A start or goal
    that is not a state of the graph raises ValueError.
    """
    n = graph.state_count
    for end, state in (("start", inst.start), ("goal", inst.goal)):
        if not 0 <= state < n:
            raise ValueError(f"the {end} {state} is not one of the graph's states 0..{n - 1}")
    pool = list_pool(graph)
    gb = GlobalBounds(inst.weight_limit)
    tables = BoundsTables()
    result = InitResult(SEARCH, tables, gb)
    allowed = None
    searches: list[BoundedSearch] = []
    for rnd in plan:
        if len(searches) == 1:
            allowed = searches[0].settled
        elif searches:
            first, second = searches
            in_second = second.settled
            allowed = pool.take(False)
            for u in first.order:
                if in_second[u]:
                    allowed[u] = True
            result.taken.append((False, allowed, (first.order,)))
        sides = [_init_search(graph, inst, result, table_dir, attr, allowed)
                 for table_dir, attr in rnd]
        if len(sides) == 1:
            for _ in sides[0][1]:
                pass
        else:
            run_sides(schedule, [settle for _, settle in sides])
        searches = [search for search, _ in sides]
        for (table_dir, attr), search in zip(rnd, searches):
            tables.install(table_dir, attr, search.dist, search.comp, search.pred)
            result.settled_per_phase.append((table_dir, attr, search.settled))
            result.taken += search.taken()
        if result.status != SEARCH:
            break
    if result.status == INFEASIBLE:
        return result
    if len(searches) == 1:
        result.valid_states = searches[0].settled
        result.valid_members = searches[0].order
    else:
        first, second = searches
        in_first = first.settled
        members = result.valid_members = first.order + [u for u in second.order
                                                         if not in_first[u]]
        valid = result.valid_states = pool.take(False)
        for u in members:
            valid[u] = True
        result.taken.append((False, valid, (members,)))
    return result


def init_unidirectional(graph: Graph, inst: ProblemInstance) -> InitResult:
    """Forward tables only: cost2 bounded by the weight limit, then cost1
    bounded by f1_bar (wc-astar)."""
    return run_init(graph, inst, PLAN_UNIDIRECTIONAL)


def init_sequential_bidirectional(graph: Graph, inst: ProblemInstance) -> InitResult:
    """Four chained searches: both cost2 searches, then both cost1 searches (wc-ebba)."""
    return run_init(graph, inst, PLAN_SEQUENTIAL)


def init_parallel_bidirectional(graph: Graph, inst: ProblemInstance,
                                schedule: tuple = ("lockstep", 1)) -> InitResult:
    """Two rounds of two concurrent searches, the second mirroring the
    attributes of the first (wc-ba, wc-ebba-par)."""
    return run_init(graph, inst, PLAN_PARALLEL, schedule=schedule)


def budget_factors(members: Iterable[int], h_f1: Sequence, h_b1: Sequence) -> BudgetFactors:
    """Split the weight budget per the ratio of summed cost1 lower bounds over S'.

    The direction with the smaller sum gets beta = min(1, (sum_other/2) / sum_own);
    the other direction gets the complement. Exact rational arithmetic so the
    two factors always add to exactly 1. Only `members`, the states of S' each
    once (`InitResult.valid_members`), are visited.
    """
    sum_f = 0
    sum_b = 0
    for u in members:
        if h_f1[u] != INF and h_b1[u] != INF:
            sum_f += h_f1[u]
            sum_b += h_b1[u]
    if sum_f == 0 and sum_b == 0:
        half = Fraction(1, 2)
        return BudgetFactors(half, half)
    if sum_f <= sum_b:
        if sum_f == 0:
            bf = Fraction(1)
        else:
            bf = min(Fraction(1), Fraction(sum_b, 2 * sum_f))
        return BudgetFactors(bf, 1 - bf)
    if sum_b == 0:
        bb = Fraction(1)
    else:
        bb = min(Fraction(1), Fraction(sum_f, 2 * sum_b))
    return BudgetFactors(1 - bb, bb)
