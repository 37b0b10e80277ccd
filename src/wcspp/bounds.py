"""Bounded heuristic searches producing the h/ub tables, the reduced state set,
initial global upper bounds and budget factors. Each solver's initialisation
is a plan of rounds of these searches, run by `run_init`.

An init search is "plain" when it has no heuristic and no joins. Without a
mask, its settle order depends only on the graph, its source, its traverse
direction and its attribute, and a run bounded by L settles exactly the
prefix with primary cost <= L of any run with a larger bound, in the same
order. Plain searches are not rerun per solve. Each graph records one
finished unmasked search per (source, traverse direction, attribute)
(`GoalTree`, in the `GoalTrees` cache on `graph.goal_trees`, a
byte-bounded LRU), grows it by resuming its search from its last shell
when asked for a larger bound or for a state it does not hold, and serves
the prefix as data: `BoundedSearch.serve` writes the prefix into the
search's lists, filtered to the mask when it has one, and applies the live
loop's target rule (`BoundedSearch._reach_target`) to the target's entry.
Every plan's first search, cost2 from the goal over the reversed graph
bounded by the weight limit W, is plain (a goal tree): the start's entry
seeds f1_bar, or, when the prefix lacks the start, the init is INFEASIBLE.
So is the parallel plan's round-one cost1 search from the start, bounded
by f1_bar, on a graph without coordinates (a start tree): when the goal
lies in its prefix within W, the prefix is cut just after the goal and the
init is a SHORTCUT. And so is the unidirectional plan's round-two cost1
search from the goal, bounded by f1_bar and kept to the states that the
cost2 search settled, on a graph without coordinates (a cost1 goal tree).

A masked search is served the tree's prefix filtered to the mask, for as
long as each served state's tree predecessor was itself served. That much
is what the live masked search settles first, in the same order, with the
same labels and predecessors: a lexicographic Dijkstra always settles the
least (primary, secondary, id) label of its frontier and takes as
predecessor the first settled neighbour that gives the final label, and
both facts hold in the filtered prefix while each state's tree path stays
inside the mask. An unmasked search is the case where every state is
allowed, so no state binds. At the first allowed state whose predecessor
was not served, the mask binds (counted in `GoalTrees.binds`): the search
rebuilds the live search's frontier from the served states
(`BoundedSearch.rebuild_frontier`) and goes on live. When it binds at tree
distance D, every unsettled allowed state lies at tree distance D or
beyond, and no arc costs more than c_max, the graph's largest arc cost on
the search's attribute (`GoalTrees.max_cost`): so only the served states
at tree distance D - c_max or more can border the frontier, and the
rebuild scans that shell of the settle order alone.

Every other init search is a live `BoundedSearch`, with the joins against
the opposite tables and its target test done inside the settle loop. The
searches of a round run one after another in plan order, each to its end,
outside `solvers.run_sides`, which drives every solver's main search. A
search that starts once the init is decided settles nothing. A search reads
its bound as it starts, not when it is made: the weight limit W on cost2,
f1_bar on cost1, which an earlier search of its own round may have lowered.
No other search runs beside it, so f1_bar then moves only through its own
join and target offers: a cost1 search re-reads it after those, and nowhere
else. A join is offered only when its cost1 is at most f1_bar and its cost2
at most W: `GlobalBounds.offer` would refuse any other, and a refused offer
changes nothing.

The tree cache, `GoalTrees`, lives here beside `BoundedSearch`, which makes
and grows its trees; the list pool and the geo tables are in `caches`. A
pair's cost2 bounds (`cli.pair_cost2_bounds`) are read from its goal's
cost2 tree and, on a graph without coordinates, its cost1 goal tree.

Direction convention: tables for direction d bound costs from a state to that
search's target (forward target = goal, backward target = start). The forward
tables are therefore computed by traversing the reversed graph from the goal,
and vice versa. Attribute indices are 0 for cost1 and 1 for cost2.
"""

from __future__ import annotations

import heapq
import threading
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import itemgetter
from struct import error as StructError, pack
from typing import Iterable, Optional, Sequence

from .caches import ByteLRU, GeoTable, _graph_slot, geo_tables, list_pool
from .graph import BACKWARD, FORWARD, INF, Graph, ProblemInstance

ATTR1 = 0
ATTR2 = 1

# InitResult.status values
INFEASIBLE = "infeasible"
SHORTCUT = "shortcut"  # optimum proven during initialisation
SEARCH = "search"  # constrained search required

# How a SolutionRecord half is rebuilt: (PATH, entry) backtracks that entry of
# that side's expansion log, (TREE, attr) walks that side's init tree on attr.
PATH = "path"
TREE = "tree"
TREE_HALF = ((TREE, ATTR1), (TREE, ATTR2))  # indexed by attr, so offers share them


@dataclass(slots=True)
class SolutionRecord:
    """Best known feasible solution and how to rebuild its path.

    A start-side half and a goal-side half meet at the join `state`.
    `to_start` is the start side's half: (PATH, entry) for the path of that
    entry of the forward search's log, (TREE, attr) for the backward init
    tree on attr (it leads to the start), or None when `state` is the start.
    `to_goal` mirrors it: the backward search's path, the forward init tree,
    or None at the goal. `costs` is None while there is no solution.
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

    `f2_bar` is the weight limit and never moves. All updates of `f1_bar`,
    `f2_sol` and the record happen under one lock and only ever tighten;
    readers outside the lock may see stale (larger) values, which can only
    delay pruning.
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


class BoundedSearch:
    """Label-setting search on one attribute with lexicographic tie-breaking on the other.

    `run()` settles states until the next one's f-value exceeds `bound`, a
    number, and a search without an init also stops once its `target` has
    settled; `order` lists the settled states in settle order.

    The pooled lists `dist`, `comp` and `pred` hold each labelled state's
    primary cost, secondary cost and predecessor (None for the source):
    final at a settled state, tentative at an unsettled one, which then has
    its entry in the heap, `(f, secondary, primary, state)`. A state is
    labelled and pushed only on a strict improvement, so no two entries
    tie and its best entry pops first; the settled mask skips the older
    ones. Nor is a state labelled past the bound: the bound never rises (W
    and `bound` are fixed, f1_bar only falls), so such an entry could never
    settle. Every exit of `run()` and `serve()` gives the unsettled states
    in the heap their fill back, so only the states in `order` hold labels
    and the pool resets each list from `order` alone.

    An init search also gets `init`, its round's InitResult, with `target`,
    the state at the far end, and `joins`, (record half, cost1 table, cost2
    table) per opposite table. Its `bound` is unused: `run()` reads the
    bound from `init.gb` as it starts (f2_bar on cost2, f1_bar on cost1) and
    re-reads f1_bar after each join and target block, the only place f1_bar
    moves while it runs. Each settled label is joined with those tables,
    and the target's label seeds f1_bar (cost2) or decides the init as the
    optimum (cost1 within the weight limit: SHORTCUT, and the search ends
    there), by one rule, `_reach_target`; a cost2 search that ends without
    settling its target marks the init INFEASIBLE. Such a search settles
    nothing when `init.status` is no longer SEARCH as it starts. `serve()`
    runs a plain init search (no heuristic, no joins) from the graph's tree
    cache instead, to the same end.
    """

    def __init__(self, graph: Graph, source: int, traverse_dir: int, attr: int,
                 heuristic: Optional[Sequence] = None, bound=INF,
                 allowed: Optional[Sequence[bool]] = None, *,
                 init: Optional[InitResult] = None, target: int = -1, joins: Sequence = ()):
        self.graph = graph
        self.source = source
        self.traverse_dir = traverse_dir
        self.attr = attr
        self.heuristic = heuristic
        self.bound = bound
        self.allowed = allowed
        self.init = init
        self.target = target
        self.joins = joins
        pool = list_pool(graph)
        self.dist = pool.take(INF)
        self.comp = pool.take(INF)
        self.pred: list[Optional[int]] = pool.take(None)
        self.settled = pool.take(False)
        self.order: list[int] = []
        self.dist[source] = self.comp[source] = 0
        h0 = heuristic[source] if heuristic is not None else 0
        self.heap: list[tuple] = [(h0, 0, 0, source)]

    def _arcs(self) -> tuple:
        """(index, to, primary cost, secondary cost): the compressed arc
        arrays of the traverse direction, costs ordered by `attr`."""
        graph = self.graph
        if self.traverse_dir == FORWARD:
            index, to, c1, c2 = graph.fwd_index, graph.fwd_to, graph.fwd_c1, graph.fwd_c2
        else:
            index, to, c1, c2 = graph.rev_index, graph.rev_to, graph.rev_c1, graph.rev_c2
        return (index, to, c1, c2) if self.attr == ATTR1 else (index, to, c2, c1)

    def _unlabel(self) -> None:
        """Give every unsettled state in the heap its fill back."""
        dist, comp, pred, settled = self.dist, self.comp, self.pred, self.settled
        for entry in self.heap:
            u = entry[3]
            if not settled[u]:
                dist[u] = comp[u] = INF
                pred[u] = None

    def run(self) -> "BoundedSearch":
        """Settle states until the bound or the heap runs out, or until the
        target ends the search: as it settles, without an init, or by the
        target rule (`_reach_target`). A join whose cost1 lies above f1_bar,
        or whose cost2 lies above the weight limit, is not offered: `offer`
        would refuse it, and no other search moves the bars meanwhile."""
        index, to, cp, cs = self._arcs()
        attr = self.attr
        heappop, heappush = heapq.heappop, heapq.heappush
        heap, heuristic, allowed, bound = self.heap, self.heuristic, self.allowed, self.bound
        dist, comp, pred, settled, settle = (self.dist, self.comp, self.pred, self.settled,
                                             self.order.append)
        init, target, joins = self.init, self.target, self.joins
        # A geometric table is read as its array, filled where it holds -1;
        # a list heuristic holds no negative bound, so it is never filled.
        hvals = fill = None
        if type(heuristic) is GeoTable:
            hvals, fill = heuristic.values, heuristic.fill
        elif heuristic is not None:
            hvals, fill = heuristic, heuristic.__getitem__
        if init is not None:
            if init.status != SEARCH:
                self._unlabel()
                return self
            gb = init.gb
            f2_bar = gb.f2_bar  # the weight limit, which never moves
            bound = gb.f1_bar if attr == ATTR1 else f2_bar
            side, mine = self.traverse_dir, TREE_HALF[attr]
        while heap:
            entry = heappop(heap)
            f, ds, dp, u = entry
            if settled[u]:
                continue
            if f > bound:
                heappush(heap, entry)
                break
            settled[u] = True
            settle(u)
            if joins or u == target:
                cu1, cu2 = (dp, ds) if attr == ATTR1 else (ds, dp)
                for half, tc1, tc2 in joins:
                    o1, o2 = tc1[u], tc2[u]
                    if (o1 != INF and o2 != INF and cu1 + o1 <= gb.f1_bar
                            and cu2 + o2 <= f2_bar):
                        gb.offer(cu1 + o1, cu2 + o2, join_halves(side, u, mine, half),
                                 "init-match")
                if u == target and (init is None or self._reach_target(dp, ds)):
                    break
                if attr == ATTR1:
                    bound = gb.f1_bar  # lowered by this block's offers
            for i in range(index[u], index[u + 1]):
                v = to[i]
                if allowed is not None and not allowed[v]:
                    continue
                if settled[v]:
                    continue
                ndp = dp + cp[i]
                cur = dist[v]
                if ndp > cur:
                    continue
                nds = ds + cs[i]
                if ndp == cur and nds >= comp[v]:
                    continue
                hv = hvals[v] if hvals is not None else 0
                if hv < 0:
                    hv = fill(v)
                if ndp + hv <= bound:
                    dist[v] = ndp
                    comp[v] = nds
                    pred[v] = u
                    heappush(heap, (ndp + hv, nds, ndp, v))
        self._unlabel()
        if init is not None and attr == ATTR2 and not settled[target]:
            init.status = INFEASIBLE
        return self

    def _reach_target(self, dp, ds) -> bool:
        """The target rule of an init search, applied as its target settles
        with primary cost `dp` and secondary cost `ds`: on cost2 the label
        seeds f1_bar; on cost1 within the weight limit it is offered as the
        optimum and the init is a SHORTCUT. True when the search ends there."""
        init, attr = self.init, self.attr
        gb = init.gb
        cu1, cu2 = (dp, ds) if attr == ATTR1 else (ds, dp)
        data = join_halves(self.traverse_dir, self.target, TREE_HALF[attr], None)
        if attr == ATTR2:
            gb.seed(cu1, cu2, data)
        elif cu2 <= gb.f2_bar:
            gb.offer(cu1, cu2, data, "init-shortcut")
            init.status = SHORTCUT
            return True
        return False

    def serve(self) -> None:
        """Run this plain init search, one with no heuristic and no joins,
        from the graph's tree cache. The cached tree's prefix within the
        bound that `run()` reads as it starts (the weight limit on cost2,
        f1_bar on cost1) is what an unmasked live search settles. On cost1
        the prefix is cut just after an allowed target whose companion is
        within the weight limit, where the live search ends. An unmasked
        search writes the whole prefix in one loop. A masked one writes the
        source whatever the mask, then each later allowed state of the
        prefix in order, up to the first whose tree predecessor was not
        written: there the mask binds (counted in `GoalTrees.binds`). The
        target rule applies to the target's entry once written, and a
        cost2 search that ends without it marks the init INFEASIBLE. A search
        whose mask binds at tree distance D rebuilds the frontier from the
        written states at tree distance D - c_max or more, the shell that
        can border an unsettled allowed state (`rebuild_frontier`, with
        c_max from `GoalTrees.max_cost`), and runs on live (`run()`). Like
        `run()`, it settles nothing once the init is decided."""
        self._unlabel()
        self.heap.clear()
        init, target, attr, allowed = self.init, self.target, self.attr, self.allowed
        if init.status != SEARCH:
            return
        gb, cache = init.gb, goal_trees(self.graph)
        tree, count = cache.prefix(self.graph, (self.source, self.traverse_dir, attr),
                                   gb.f1_bar if attr == ATTR1 else gb.f2_bar)
        if attr == ATTR1 and (allowed is None or allowed[target]):
            try:
                i = tree.order.index(target, 0, count)
            except ValueError:
                pass
            else:
                if tree.comp[i] <= gb.f2_bar:
                    count = i + 1
        dist, comp, pred, settled = self.dist, self.comp, self.pred, self.settled
        bind = None  # the tree distance of the state where the mask binds
        if allowed is None:
            self.order = order = tree.order[:count].tolist()
            for u, dp, ds, pu in zip(order, tree.dist, tree.comp, tree.pred):
                settled[u] = True
                dist[u] = dp
                comp[u] = ds
                pred[u] = pu
            pred[self.source] = None
        else:
            settle = self.order.append
            entries = islice(zip(tree.order, tree.dist, tree.comp, tree.pred), count)
            for u, dp, ds, _ in islice(entries, 1):  # the source, whatever the mask
                settle(u)
                settled[u] = True
                dist[u] = dp
                comp[u] = ds
            for u, dp, ds, pu in entries:
                if not allowed[u]:
                    continue
                if not settled[pu]:  # the mask cuts u's tree path
                    bind = dp
                    break
                settle(u)
                settled[u] = True
                dist[u] = dp
                comp[u] = ds
                pred[u] = pu
        if settled[target] and self._reach_target(dist[target], comp[target]):
            return
        if bind is not None:
            with cache._lock:
                cache.binds += 1
            self.rebuild_frontier(bind - cache.max_cost[attr])
            self.run()
        elif attr == ATTR2 and not settled[target]:
            init.status = INFEASIBLE

    def rebuild_frontier(self, floor) -> None:
        """Make the heap the frontier of a run that settled exactly
        `order`, in that order, with the labels written in the lists: each
        unsettled allowed neighbour of a settled state gets its best label
        by `run()`'s relaxation rule, with the first settled state in
        `order` that gives it as predecessor, as a tentative label in the
        lists and an entry in the heap. Every unsettled state must hold its
        fill. No bound applies here: the later `run()` that continues the
        run breaks at the first entry past its own.

        `order` must be non-decreasing in primary cost, as a served prefix
        is, and no settled state with primary cost below `floor` may have
        an unsettled allowed neighbour: only the shell of `order` at or
        above `floor`, found by bisection, is scanned. A floor of 0 scans
        every settled state."""
        index, to, cp, cs = self._arcs()
        heuristic, allowed, settled, order = self.heuristic, self.allowed, self.settled, self.order
        dist, comp, pred = self.dist, self.comp, self.pred
        frontier = {}
        for u in islice(order, bisect_left(order, floor, key=dist.__getitem__), None):
            dp, ds = dist[u], comp[u]
            for i in range(index[u], index[u + 1]):
                v = to[i]
                if allowed is not None and not allowed[v]:
                    continue
                if settled[v]:
                    continue
                ndp = dp + cp[i]
                nds = ds + cs[i]
                cur = dist[v]
                if ndp < cur or (ndp == cur and nds < comp[v]):
                    dist[v] = ndp
                    comp[v] = nds
                    pred[v] = u
                    hv = heuristic[v] if heuristic is not None else 0
                    frontier[v] = (ndp + hv, nds, ndp, v)
        self.heap = list(frontier.values())
        heapq.heapify(self.heap)

    def taken(self) -> list[tuple]:
        """(fill, list, written) for the four lists taken from the graph's pool;
        they are written only at the settled states."""
        written = self.order
        return [(INF, self.dist, written), (INF, self.comp, written),
                (None, self.pred, written), (False, self.settled, written)]


class GoalTree:
    """A finished unmasked plain search, the record of `BoundedSearch(graph,
    source, traverse_dir, attr, bound=limit).run()`: a goal tree (cost2 from
    a goal over the reversed graph), a cost1 goal tree (cost1 from a goal
    over the reversed graph, which, on a graph without coordinates, serves
    wc-astar's masked cost1 search and gives a pair's ub2) or a start tree
    (cost1 from a start over the graph). It holds the settled states in
    settle order, with their primary cost (non-decreasing), secondary
    companion and predecessor (-1 for the source), in four typed arrays,
    each of the narrowest int width that holds its values (`_int_array`): 8
    bytes per state where every value fits in 16 bits. `nbytes` is the
    arrays' size. With no heuristic an entry's f is its primary cost, so for
    every bound L <= limit the states with primary cost <= L are the prefix
    of the settle order that a search bounded by L settles, in the same
    order.

    A tree is never changed once made; it grows into a new one
    (`GoalTrees._grow`): `base`'s arrays followed by those of the states
    that `search`, which resumed `base`'s search, settled from position
    `skip` of its order on. A tree grown until it reached a state at
    primary cost d (`GoalTrees.reach`) has limit d - 1, and also holds the
    part of the cost-d shell settled up to that state; no bound above the
    limit is served from it, so that part is only ever grown from.
    """

    __slots__ = ("order", "dist", "comp", "pred", "limit", "nbytes")

    def __init__(self, search: BoundedSearch, limit, base: Optional["GoalTree"] = None,
                 skip: int = 0):
        new = search.order[skip:]
        gather = itemgetter(*new) if len(new) > 1 else lambda values: tuple(values[u] for u in new)
        dist, comp, pred = map(gather, (search.dist, search.comp, search.pred))
        if pred and pred[0] is None:  # the source, first of a search from scratch
            pred = (-1,) + pred[1:]
        heads = (None,) * 4 if base is None else (base.order, base.dist, base.comp, base.pred)
        columns = (new, dist, comp, pred)
        self.order, self.dist, self.comp, self.pred = map(_extended, heads, columns)
        self.limit = limit
        self.nbytes = sum(a.itemsize * len(a)
                          for a in (self.order, self.dist, self.comp, self.pred))


def _int_array(values: Sequence[int]) -> array:
    """`values` as 16-bit ints, else 32-bit, else 64-bit: the narrowest width
    that holds every one of them. `struct.pack` converts a list about twice
    as fast as `array` does."""
    for code in "hi":
        try:
            return array(code, pack(f"{len(values)}{code}", *values))
        except StructError:
            pass
    return array("q", values)


def _extended(head: Optional[array], values: Sequence[int]) -> array:
    """`head` followed by `values`, in the narrowest width that holds both;
    `values` alone when `head` is None."""
    tail = _int_array(values)
    if head is None:
        return tail
    if head.itemsize < tail.itemsize:
        head = array(tail.typecode, head)
    elif head.itemsize > tail.itemsize:
        tail = array(head.typecode, tail)
    return head + tail


class GoalTrees(ByteLRU):
    """A graph's finished plain searches, keyed by (source, traverse
    direction, attribute), in a `ByteLRU` of `GoalTree.nbytes`: 32
    whole-graph trees at 8 bytes per state. The lock serialises lookups and
    growth; an init reads its tree outside it, as growth swaps in a new
    tree. A lookup that the cached tree cannot answer, a larger bound
    (`prefix`) or a state it does not hold (`reach`), grows the tree
    (`_grow`). `grows` counts the misses that grew a cached tree; `binds`
    counts served masked searches whose mask bound. `max_cost[attr]`, the
    graph's largest arc cost on `attr`, sets how far below a bind a served
    search rebuilds its frontier, and below its limit a tree resumes.
    """

    def __init__(self, graph: Graph):
        super().__init__(graph.state_count)
        self.state_count = graph.state_count
        self._costs = (graph.fwd_c1, graph.fwd_c2)
        self.grows = self.binds = 0

    @cached_property
    def max_cost(self) -> tuple[int, int]:
        return tuple(max(costs, default=0) for costs in self._costs)

    def _check(self, what: str, state: int) -> None:
        if not 0 <= state < self.state_count:
            raise IndexError(f"{what} {state} is not one of the graph's "
                             f"{self.state_count} states")

    def prefix(self, graph: Graph, key: tuple[int, int, int],
               limit) -> tuple[GoalTree, int]:
        """The tree of `key`, (source, traverse direction, attribute), for
        bound `limit`, and the length of its settle-order prefix with primary
        cost <= limit. The cached tree serves when its limit is at least
        `limit`; else it grows up to `limit`."""
        self._check("source", key[0])
        with self._lock:
            tree = self.entries.get(key)
            if tree is not None and tree.limit >= limit:
                self.hit(key)
                return tree, bisect_right(tree.dist, limit)
            tree = self._grow(graph, key, limit)
            return tree, len(tree.order)

    def reach(self, graph: Graph, key: tuple[int, int, int],
              state: int) -> tuple[GoalTree, int]:
        """The tree of `key`, grown until it holds `state` if it does not
        yet, and the index of `state` in its settle order: -1 when the
        search runs out without settling it. A tree that ran out (limit
        INF) answers every state."""
        self._check("source", key[0])
        self._check("state", state)
        with self._lock:
            tree = self.entries.get(key)
            if tree is not None:
                try:
                    i = tree.order.index(state)
                except ValueError:
                    i = -1
                if i >= 0 or tree.limit == INF:
                    self.hit(key)
                    return tree, i
            tree = self._grow(graph, key, INF, state)
            return tree, -1 if tree.limit == INF else len(tree.order) - 1

    def _grow(self, graph: Graph, key: tuple[int, int, int], bound,
              target: int = -1) -> GoalTree:
        """Search `key` up to `bound`, stopping early once `target` settles,
        and cache the result in place of the key's tree: a miss. A cached
        tree's search is resumed, not rerun. Every state of the tree is
        marked settled, and the states at primary cost limit + 1 - c_max and
        above, the shell that can border an unsettled state, get their
        labels back; `rebuild_frontier` rebuilds the heap from that shell
        alone, and `run()` goes on. The new tree is the old one's arrays
        followed by the states settled since. A search stopped by `target`
        records limit d - 1, d being the target's primary cost, and one that
        runs out records INF. The search's lists go back to the pool, each
        with the states written to it."""
        source, traverse_dir, attr = key
        search = BoundedSearch(graph, source, traverse_dir, attr, bound=bound, target=target)
        tree = self.entries.get(key)
        skip = 0
        if tree is not None:
            self.grows += 1
            if len(tree.order):
                search._unlabel()  # the source's label: the shell makes the frontier
                settled, dist, comp = search.settled, search.dist, search.comp
                for u in tree.order:
                    settled[u] = True
                floor = tree.limit + 1 - self.max_cost[attr]
                first = bisect_left(tree.dist, floor)
                search.order = shell = tree.order[first:].tolist()
                for u, dp, ds in zip(shell, tree.dist[first:], tree.comp[first:]):
                    dist[u] = dp
                    comp[u] = ds
                search.rebuild_frontier(floor)
                skip = len(shell)
        search.run()
        limit = bound
        if target >= 0:
            limit = search.dist[target] - 1 if search.settled[target] else INF
        new = GoalTree(search, limit, tree, skip)
        self.put(key, new)
        taken = search.taken()
        if tree is not None:  # `settled`, the last list, holds the old tree's states too
            taken[3] = (False, search.settled, new.order)
        list_pool(graph).give(taken)
        return new


def goal_trees(graph: Graph) -> GoalTrees:
    """The graph's cache of plain-search trees, made on first use."""
    return _graph_slot(graph, "goal_trees", GoalTrees)


def geo_heuristic(graph: Graph, target: int, attr: int) -> Optional[GeoTable]:
    """Admissible cost1 lower bounds toward `target` from great-circle
    distances, when coordinates exist.

    Scaled by the tightest cost1-per-metre ratio over all edges so that
    h[u] <= cost1 of every u-target path (None unless that scale is positive
    and finite); cost2 has no geometric meaning here. Every call for a
    target returns the same `GeoTable` while the graph's `GeoTables` holds
    it: h[u] is computed only for the states a search looks up, and once per
    graph and target, not once per search.
    """
    if attr != ATTR1 or graph.coords is None or graph.state_count == 0:
        return None
    tables = geo_tables(graph)
    return tables.table(target) if 0 < tables.scale < INF else None


# Init plans: a tuple of rounds, each one or two (table direction, attribute)
# searches. The searches of a round run one after another, in this order.
PLAN_UNIDIRECTIONAL = (((FORWARD, ATTR2),), ((FORWARD, ATTR1),))
PLAN_SEQUENTIAL = (((FORWARD, ATTR2),), ((BACKWARD, ATTR2),), ((BACKWARD, ATTR1),),
                   ((FORWARD, ATTR1),))
PLAN_PARALLEL = (((FORWARD, ATTR2), (BACKWARD, ATTR1)), ((BACKWARD, ATTR2), (FORWARD, ATTR1)))


def _init_search(graph: Graph, inst: ProblemInstance, result: InitResult, table_dir: int,
                 attr: int, allowed: Optional[Sequence[bool]]) -> BoundedSearch:
    """One bounded search of an init plan, made but not run.

    The search computes direction `table_dir` tables on `attr`, so it runs from
    that direction's target end toward the other end. Its heuristic is the
    opposite direction's table on `attr` when one exists, else the geometric
    bound. It gets no bound of its own: as it starts, `run()` reads the weight
    limit (cost2) or f1_bar (cost1) from `result.gb`, and a cost1 search
    re-reads f1_bar after each of its join and target blocks. Each settled
    label is one half of a start-goal path: it is joined with every opposite
    table. When the search's own target settles, a cost2 label seeds f1_bar and
    a cost1 label within the weight limit is the optimum (SHORTCUT). A cost2
    search that ends without settling its target proves INFEASIBLE. It
    settles nothing when `result.status` is no longer SEARCH as it starts.
    A search with no heuristic and no joins is plain: `serve()` runs it from
    the graph's tree cache, with the same outcome as `run()`.
    """
    tables, gb = result.tables, result.gb
    opp = 1 - table_dir
    source, target = (inst.goal, inst.start) if table_dir == FORWARD else (inst.start, inst.goal)
    heuristic = tables.h[opp][attr]
    if heuristic is None:
        heuristic = geo_heuristic(graph, target, attr)
    joins = []  # (the opposite tree's record half, its cost1 table, its cost2 table)
    for b in (ATTR1, ATTR2):
        h_arr = tables.h[opp][b]
        if h_arr is not None:
            ub_arr = tables.ub[opp][1 - b]
            joins.append((TREE_HALF[b], h_arr, ub_arr) if b == ATTR1
                         else (TREE_HALF[b], ub_arr, h_arr))
    return BoundedSearch(graph, source, opp, attr, heuristic=heuristic, allowed=allowed,
                         init=result, target=target, joins=joins)


def run_init(graph: Graph, inst: ProblemInstance, plan: tuple) -> InitResult:
    """Run an init plan round by round, and each round's searches one after
    another in plan order, each to its end.

    A plain search (no heuristic and no joins, masked or not) is served from
    the graph's tree cache (`BoundedSearch.serve`), every other one runs
    live (`BoundedSearch.run`). A round's searches are all made before the
    first of them runs, so none joins against a table of its own round; they
    share only the global bounds, and a search that starts once the init is
    decided settles nothing.
    Every search after the first round is restricted to the states that all
    searches of the previous round settled. The init ends early on
    INFEASIBLE or SHORTCUT; only a SEARCH init gets S', the union of the
    last round's settled states. Both masks are taken from the graph's pool
    and scattered from settle orders, a round's mask from the shorter of its
    two, so building them costs O(settled), not O(n), in Python. Every list
    taken is listed in `result.taken`. A start or goal that is not a state
    of the graph raises ValueError.
    """
    n = graph.state_count
    for end, state in (("start", inst.start), ("goal", inst.goal)):
        if not 0 <= state < n:
            raise ValueError(f"the {end} {state} is not one of the graph's states 0..{n - 1}")
    pool = list_pool(graph)
    gb = GlobalBounds(inst.weight_limit)
    tables = BoundsTables()
    result = InitResult(SEARCH, tables, gb)
    searches: list[BoundedSearch] = []
    for rnd in plan:
        allowed = None
        if len(searches) == 1:
            allowed = searches[0].settled
        elif searches:
            shorter, longer = sorted(searches, key=lambda search: len(search.order))
            in_longer = longer.settled
            allowed = pool.take(False)
            for u in shorter.order:
                if in_longer[u]:
                    allowed[u] = True
            result.taken.append((False, allowed, shorter.order))
        searches = [_init_search(graph, inst, result, table_dir, attr, allowed)
                    for table_dir, attr in rnd]
        for (table_dir, attr), search in zip(rnd, searches):
            if search.heuristic is None and not search.joins:
                search.serve()
            else:
                search.run()
            tables.install(table_dir, attr, search.dist, search.comp, search.pred)
            result.settled_per_phase.append((table_dir, attr, search.settled))
            result.taken += search.taken()
        if result.status != SEARCH:
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
        result.taken.append((False, valid, members))
    return result


def init_unidirectional(graph: Graph, inst: ProblemInstance) -> InitResult:
    """Forward tables only: cost2 bounded by the weight limit, then cost1
    bounded by f1_bar (wc-astar)."""
    return run_init(graph, inst, PLAN_UNIDIRECTIONAL)


def init_sequential_bidirectional(graph: Graph, inst: ProblemInstance) -> InitResult:
    """Four chained searches: both cost2 searches, then both cost1 searches (wc-ebba)."""
    return run_init(graph, inst, PLAN_SEQUENTIAL)


def init_parallel_bidirectional(graph: Graph, inst: ProblemInstance) -> InitResult:
    """Two rounds of two searches, the second mirroring the attributes of the
    first (wc-ba, wc-ebba-par)."""
    return run_init(graph, inst, PLAN_PARALLEL)


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
    own, other = min(sum_f, sum_b), max(sum_f, sum_b)
    beta = Fraction(1) if own == 0 else min(Fraction(1), Fraction(other, 2 * own))
    return BudgetFactors(beta, 1 - beta) if sum_f <= sum_b else BudgetFactors(1 - beta, beta)
