"""The four constrained-search algorithms over one shared node-processing core.

All four searches pop lexicographically minimal nodes, prune lazily against
the last expansion per state (g_min), try an early solution update by joining
the node with its precomputed complementary shortest paths, skip terminal
states, and expand survivors with dominance/upper-bound/validity pruning.
They differ in direction count, objective ordering, budget gating and
partial-path matching:

  wc-astar    -- forward only, (f1, f2) order
  wc-ba       -- forward (f1, f2) + backward (f2, f1), shared bounds, HTF tuning
  wc-ebba     -- interleaved bidirectional (f1, f2), budget factors, Match/Store
  wc-ebba-par -- the same two searches as wc-ebba, run concurrently

One function, `_solve`, runs each: its init plan, its orderings, and one
`run_sides` call for the main search. wc-astar is one side; so is wc-ebba,
whose side expands the smaller (f1, f2) head of its two queues. wc-ba and
wc-ebba-par are two sides, the only ones that read `SolveOptions.schedule`.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from itertools import count
from typing import Iterator, Optional, Sequence

from .bounds import (ATTR1, ATTR2, INF, PATH, SEARCH, TREE_HALF, BoundsTables, GlobalBounds,
                     SolutionRecord, budget_factors, init_parallel_bidirectional,
                     init_sequential_bidirectional, init_unidirectional, join_halves)
from .caches import list_pool
from .graph import BACKWARD, FORWARD, Graph, ProblemInstance
from .nodepool import NodePool, ParentArrays, join_forward, walk_tree
from .pqueue import QueueConfig, QueueStats, TIE_SECONDARY, new_queue

ORDER_12 = (ATTR1, ATTR2)
ORDER_21 = (ATTR2, ATTR1)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"

# Match/Store locks, striped by state and shared by every solve. A chi lock
# guards one match-and-store and nothing takes one while holding a
# GlobalBounds lock, so solves that share a stripe contend but never deadlock.
_CHI_LOCKS = tuple(threading.Lock() for _ in range(64))

class Clock:
    """Timeout bookkeeping: wall clock consulted every 4096 calls to `expired`."""

    def __init__(self, timeout: Optional[float]):
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.counter = 0
        self.timed_out = False

    def expired(self) -> bool:
        if self.deadline is None:
            return False
        if self.counter & 4095 == 0:
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
    """Drive every solver's main search, one side or two, under one schedule;
    the init searches do not run here.

    Each side is an iterator: one `next` does one unit of work, and the side
    is done once its iterator is exhausted. ('lockstep', k) gives each side
    k steps per turn, in the order given, so runs repeat exactly; a side
    left alone gets one unbounded turn. ('threads', 2) runs each side on its
    own thread. A clock, which a solve passes only under a timeout, is
    consulted before every step. With `require_both=False` the run ends as
    soon as one side is done. Returns True when the clock expired. An exception raised by a side ends the run:
    under threads the failing side halts the other, and the first exception
    is raised again once both threads have ended.
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
            for _ in range(k) if len(live) > 1 else count():
                if clock is not None and clock.expired():
                    return True
                if next(side, _DONE) is _DONE:
                    if not require_both:
                        return False
                    live.remove(side)
                    break
    return False


@dataclass
class SolveOptions:
    # ("lockstep", k >= 1) or ("threads", 2); read by wc-ba and wc-ebba-par only
    schedule: tuple = ("lockstep", 1)
    timeout: Optional[float] = None  # seconds, >= 0
    htf: bool = True  # wc-ba heuristic tuning switch
    check_invariants: bool = False
    record: bool = False  # fill SolveOutcome.tuned, trace and parents

    def __post_init__(self):
        parse_schedule(self.schedule)  # every solver rejects a bad schedule
        if self.timeout is not None and not self.timeout >= 0:  # NaN fails too
            raise ValueError(f"the timeout must be a number >= 0, got {self.timeout!r}")


@dataclass(slots=True)
class Metrics:
    expansions: int = 0
    generations: int = 0
    prunes_dominance: int = 0
    prunes_state_ub: int = 0
    prunes_global_f1: int = 0
    prunes_global_f2: int = 0
    stale_reinserts: int = 0
    pushes: int = 0
    pops: int = 0
    queue_ops: int = 0
    queue_peak: int = 0
    pool_slots: int = 0
    pool_blocks: int = 0
    wall_time_s: float = 0.0

    @property
    def prunes_global(self) -> int:
        return self.prunes_global_f1 + self.prunes_global_f2


@dataclass(slots=True)
class SolveOutcome:
    status: str
    costs: Optional[tuple[int, int]] = None
    path: Optional[list[int]] = None
    metrics: Metrics = field(default_factory=Metrics)
    record: SolutionRecord = field(default_factory=SolutionRecord)  # where each half came from
    queue_stats: dict = field(default_factory=dict)
    incumbents: list = field(default_factory=list)  # (cost1, cost2, source tag) per update
    tuned: Optional[list] = None
    trace: Optional[dict] = None
    parents: Optional[dict] = None  # direction -> its expansion log, with record


# ---------------------------------------------------------------------------
# Shared procedures


def esu(gb: GlobalBounds, tables: BoundsTables, direction: int, ordering: tuple,
        state: int, g1, g2, f1, f2, entry: int, tag: str = "esu") -> None:
    """Early solution update: join the node with a complementary shortest path.

    In (f1, f2) order the cost1-optimal complement can nominate a solution and
    the cost2-optimal one may still tighten f1_bar; in (f2, f1) order the roles
    mirror, and only the cost2-optimal complement nominates. A nominee joins
    log entry `entry`'s path with the init tree on that attribute that leads
    to the other end.
    """
    ub1 = tables.ub[direction][ATTR1][state]
    ub2 = tables.ub[direction][ATTR2][state]
    if ordering == ORDER_12:
        f2p = g2 + ub2
        if f2p <= gb.f2_bar:
            gb.offer(f1, f2p, join_halves(direction, state, (PATH, entry), TREE_HALF[ATTR1]),
                     tag)
        else:
            f1p = g1 + ub1
            if f1p < gb.f1_bar:
                gb.tighten_f1(f1p)
    else:
        f1p = g1 + ub1
        if f1p <= gb.f1_bar:
            gb.offer(f1p, f2, join_halves(direction, state, (PATH, entry), TREE_HALF[ATTR2]),
                     tag)
        else:
            f2p = g2 + ub2
            if f2p <= gb.f2_bar and f1 < gb.f1_bar:
                gb.tighten_f1(f1)


def match_partial(gb: GlobalBounds, chi_opp: Optional[list], direction: int,
                  state: int, g1, g2, entry: int, tag: str = "match") -> None:
    """Join the node with stored opposite-direction expansions of the same state.

    Each stored expansion is (g1, g2, entry), its entry in the opposite
    direction's log. The list is ordered by non-decreasing g1, so the scan
    stops at the first joined path whose cost1 exceeds f1_bar.
    """
    if not chi_opp:
        return
    for y1, y2, y_entry in chi_opp:
        c1 = g1 + y1
        if c1 > gb.f1_bar:
            break
        c2 = g2 + y2
        if c2 <= gb.f2_bar:
            gb.offer(c1, c2, join_halves(direction, state, (PATH, entry), (PATH, y_entry)), tag)


def store_partial(chi: dict, state: int, g1, g2, entry: int, refine: bool) -> None:
    """Append the expansion snapshot to the state's list for future matching.

    Without tie-breaking the previous entry may be a dominated duplicate of
    this one (same g1, larger g2); the refinement drops it so each list keeps
    at most one dominated node.
    """
    lst = chi.get(state)
    if lst is None:
        lst = chi[state] = []
    if refine and lst and lst[-1][0] == g1:
        lst.pop()
    assert not lst or lst[-1][0] <= g1, "stored expansions must be g1-ordered"
    lst.append((g1, g2, entry))


class SearchContext:
    """One search direction: its queue, node pool, expansion log and g_min,
    and the node processor every solver runs on them. `g_min` comes from the
    graph's list pool and is written only at expanded states, which
    `expanded` lists once each, in the order of their first expansions."""

    def __init__(self, graph: Graph, tables: BoundsTables, gb: GlobalBounds,
                 direction: int, ordering: tuple, queue: QueueConfig,
                 initial_state: int, *,
                 budget: Optional[Fraction] = None,
                 budget_opp: Optional[Fraction] = None,
                 chi_mine: Optional[dict] = None, chi_opp: Optional[dict] = None,
                 htf: bool = False,
                 options: Optional[SolveOptions] = None):
        self.graph = graph
        self.tables = tables
        self.gb = gb
        self.direction = direction
        self.ordering = ordering
        self.opp = 1 - direction
        p, s = ordering
        self.p, self.s = p, s
        self.h_p = tables.h[direction][p]
        self.h_1 = tables.h[direction][ATTR1]
        self.h_2 = tables.h[direction][ATTR2]
        self.ub_p = tables.ub[direction][p]
        self.ub_opp_1 = tables.ub[self.opp][ATTR1]
        self.ub_opp_2 = tables.ub[self.opp][ATTR2]
        # Only the bidirectional init plans install the opposite direction's
        # tables; without them there are no opposite upper bounds to prune by.
        self.bidirectional = self.ub_opp_1 is not None
        self.tie_break = queue.tie_policy == TIE_SECONDARY
        self.refine_store = not self.tie_break
        # g2 and h2 are integers and f2_bar stays at the weight limit, so
        # g2 <= beta * f2_bar holds exactly when g2 <= floor(beta * f2_bar).
        self.cap = INF if budget is None else math.floor(budget * gb.f2_bar)
        self.cap_opp = INF if budget_opp is None else math.floor(budget_opp * gb.f2_bar)
        self.chi_mine = chi_mine
        self.chi_opp = chi_opp
        self.htf = htf
        self.options = options or SolveOptions()
        self.metrics = Metrics()
        self.trace: list = []
        self.tuned: list = []
        self._last_popped_fp = -INF
        self.tag = f"esu:{'f' if direction == FORWARD else 'b'}:{p + 1}{s + 1}"

        self.g_min = list_pool(graph).take(INF)
        self.expanded: list[int] = []
        self.pool = NodePool()
        self.parents = ParentArrays()
        fp = self.h_p[initial_state]
        fmax = gb.f1_bar if p == ATTR1 else gb.f2_bar
        self.open = new_queue(replace(queue, f_min=fp, f_max=fmax))
        self.open.push(fp, tables.h[direction][s][initial_state],
                       self.pool.allocate(initial_state, 0, 0, -1))

    def step(self) -> bool:
        """Pop and process one node; False once the queue is empty or the search ends."""
        item = self.open.pop()
        return item is not None and self.process(item)

    def process(self, item) -> bool:
        """One Alg-8-style iteration body for an already-popped queue item
        (f_p, f_s, handle); False when the item ends the search."""
        kp, ks, handle = item
        pool = self.pool
        gb = self.gb
        u, g1, g2, parent = pool.nodes[handle]
        p = self.p

        if self.options.check_invariants:
            assert kp >= self._last_popped_fp, "popped primary keys must be non-decreasing"
            self._last_popped_fp = kp

        if kp > (gb.f1_bar if p == ATTR1 else gb.f2_bar):
            pool.recycle(handle)
            return False

        if self.htf:
            # A concurrent tuning of this direction's secondary heuristic can
            # leave the queued f_s stale; refresh it, re-ordering if ties matter.
            fresh_fs = g2 + self.h_2[u] if p == ATTR1 else g1 + self.h_1[u]
            if fresh_fs > ks:
                if self.tie_break:
                    self.metrics.stale_reinserts += 1
                    self.open.push(kp, fresh_fs, handle)
                    return True
                ks = fresh_fs

        # Secondary-cost invalidation: nodes are not ordered by their secondary
        # f-value, and in (f1, f2) order a refreshed f2 can exceed f2_bar.
        f1, f2 = (kp, ks) if p == ATTR1 else (ks, kp)
        if p == ATTR2:
            if f1 > gb.f1_bar:
                self.metrics.prunes_global_f1 += 1
                pool.recycle(handle)
                return True
        elif f2 > gb.f2_bar:
            self.metrics.prunes_global_f2 += 1
            pool.recycle(handle)
            return True

        gs = g2 if p == ATTR1 else g1
        if gs >= self.g_min[u]:
            self.metrics.prunes_dominance += 1
            pool.recycle(handle)
            return True

        if self.g_min[u] == INF:
            self.expanded.append(u)
            if self.htf:
                # First expansion of u in this ordering: its costs bound every
                # later valid path to u, so the opposite direction may adopt them.
                gp = g1 if p == ATTR1 else g2
                if self.options.check_invariants:
                    # The pooled tables are reset only at the states their init
                    # search settled, so tuning must write nowhere else.
                    assert self.tables.h[self.opp][p][u] != INF, \
                        "tuning writes a state its table's init search did not settle"
                self.tables.h[self.opp][p][u] = gp
                self.tables.ub[self.opp][self.s][u] = gs
                if self.options.record:
                    self.tuned.append((self.opp, p, u, gp, self.s, gs))

        self.g_min[u] = gs
        idx = self.parents.record_expansion(u, parent)
        if self.options.check_invariants:
            seq = self.parents.backtrack(idx)
            assert len(set(seq)) == len(seq), "expanded path revisits a state"
        if self.options.record:
            self.trace.append((u, g1, g2))

        esu(gb, self.tables, self.direction, self.ordering,
            u, g1, g2, f1, f2, idx, tag=self.tag)

        # Terminal skip: a state whose primary lower bound meets its upper
        # bound needs no expansion; the join above already covered it.
        if self.h_p[u] == self.ub_p[u]:
            pool.recycle(handle)
            return True

        gated = False
        if g2 <= self.cap:
            self.expand_prune(u, g1, g2, idx)
        else:
            gated = True
            if self.options.check_invariants:
                assert self.h_2[u] <= self.cap_opp, \
                    "budget-rejected node outside the coupling area"

        if self.chi_mine is not None:
            if (self.h_2[u] <= self.cap_opp or self.chi_opp.get(u)
                    or not gated and self.feeds_opposite(u)):
                with _CHI_LOCKS[u & 63]:
                    match_partial(gb, self.chi_opp.get(u), self.direction,
                                  u, g1, g2, idx, tag="match")
                    store_partial(self.chi_mine, u, g1, g2, idx, self.refine_store)
            elif gated and self.options.check_invariants:
                raise AssertionError("budget-rejected node was not matched/stored")

        pool.recycle(handle)
        return True

    def feeds_opposite(self, u: int) -> bool:
        """Whether an expanded label at u must be stored although the opposite
        search may never expand u: some successor w of u, in this search's
        direction, has h_2[w] <= cap_opp.

        Take an optimal path P and let v* be the first state on P where the
        forward g2 exceeds cap_F. The caps add to at least W - 1, so the
        backward search expands v* within cap_B, while the forward search
        pops v* but does not expand it (it is gated). The forward label always
        passes the plain Store test, as h_2_F[v*] <= g2_B(v*) <= cap_B; the
        backward label passes only when h_2_B[v*] <= cap_F, which can fail.
        If the backward search then reaches v* first, it stores nothing, and
        the later forward label has nothing to match. But the state x before
        v* on P has h_2_B[x] <= g2_F(x) <= cap_F, so this test stores the
        backward label: the forward search expands x and pops v*, gated or
        not, and matches it. The same holds with the directions swapped. A
        gated label keeps the plain test, since two gated labels at one state
        add up to more than W.

        The arcs are scanned from the graph's compressed arrays, so the
        search's only `Graph.successors` calls stay its expansions.
        """
        graph = self.graph
        if self.direction == FORWARD:
            index, to = graph.fwd_index, graph.fwd_to
        else:
            index, to = graph.rev_index, graph.rev_to
        h2, cap_opp = self.h_2, self.cap_opp
        for i in range(index[u], index[u + 1]):
            if h2[to[i]] <= cap_opp:
                return True
        return False

    def expand_prune(self, u: int, g1, g2, idx: int) -> None:
        """ExP: generate successors, prune by dominance, state bounds and validity."""
        m = self.metrics
        m.expansions += 1
        gb = self.gb
        pool = self.pool
        open_q = self.open
        p = self.p
        h1 = self.h_1
        h2 = self.h_2
        g_min = self.g_min
        bidir = self.bidirectional
        for v, c1, c2 in self.graph.successors(u, self.direction):
            m.generations += 1
            ng1 = g1 + c1
            ng2 = g2 + c2
            ngs = ng2 if p == ATTR1 else ng1
            if ngs >= g_min[v]:
                m.prunes_dominance += 1
                continue
            if bidir and (ng1 > self.ub_opp_1[v] or ng2 > self.ub_opp_2[v]):
                m.prunes_state_ub += 1
                continue
            nf1 = ng1 + h1[v]
            nf2 = ng2 + h2[v]
            if nf1 > gb.f1_bar:
                m.prunes_global_f1 += 1
                continue
            if nf2 > gb.f2_bar:
                m.prunes_global_f2 += 1
                continue
            handle = pool.allocate(v, ng1, ng2, idx)
            if p == ATTR1:
                open_q.push(nf1, nf2, handle)
            else:
                open_q.push(nf2, nf1, handle)

    def taken(self) -> tuple:
        """(fill, list, written) for the list taken from the graph's pool."""
        return INF, self.g_min, self.expanded

    def collect(self, metrics: Metrics) -> QueueStats:
        """Complete this context's counters with its queue's and pool's, add
        them to `metrics`, and return its queue's stats."""
        m, q = self.metrics, self.open.stats()
        m.pushes, m.pops, m.queue_ops, m.queue_peak = q.pushes, q.pops, q.queue_ops, q.peak_size
        m.pool_slots, m.pool_blocks = self.pool.slots_created, self.pool.blocks_allocated
        for f in fields(Metrics):  # a context's wall_time_s stays 0
            setattr(metrics, f.name, getattr(metrics, f.name) + getattr(m, f.name))
        return q


# ---------------------------------------------------------------------------
# Path reconstruction


def reconstruct_solution(record: SolutionRecord, tables: BoundsTables,
                         parents: dict[int, ParentArrays]) -> list[int]:
    """Rebuild the start-goal state sequence of a solution record: the start
    side's half reversed, then the goal side's half."""
    state = record.state
    halves = []  # each from the join state to its end of the path
    # The search from the start is FORWARD; the init tree toward it is BACKWARD's.
    for how, side in ((record.to_start, FORWARD), (record.to_goal, BACKWARD)):
        if how is None:
            halves.append([state])
        elif how[0] == PATH:
            halves.append(parents[side].backtrack(how[1])[::-1])
        else:
            halves.append(walk_tree(tables.tree[1 - side][how[1]], state))
    return join_forward(halves[0][::-1], halves[1])


def path_cost(graph: Graph, path: list[int]) -> tuple[int, int]:
    """Sum the (cost1, cost2) pair along a state sequence."""
    t1 = t2 = 0
    for u, v in zip(path, path[1:]):
        for w, c1, c2 in graph.successors(u, FORWARD):
            if w == v:
                t1 += c1
                t2 += c2
                break
        else:
            raise ValueError(f"no edge {u} -> {v} on reconstructed path")
    return t1, t2


# ---------------------------------------------------------------------------
# Drivers


def _smaller_head_first(fwd: SearchContext, bwd: SearchContext) -> Iterator:
    """wc-ebba's one side: each step expands the head of whichever queue holds
    the smaller (f1, f2) key, the forward one on an exact tie."""
    f_open, b_open, tie = fwd.open, bwd.open, fwd.tie_break
    while True:
        hf = f_open.peek() if len(f_open) else None
        hb = b_open.peek() if len(b_open) else None
        if hf is None and hb is None:
            return
        if hf is None or (hb is not None and (
                hb[0] < hf[0] or (tie and hb[0] == hf[0] and hb[1] < hf[1]))):
            side = bwd
        else:
            side = fwd
        if not side.step():
            return
        yield


def _solve(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
           options: Optional[SolveOptions], init_name: str, orderings: tuple, *,
           htf: bool = False, biased: bool = False, smaller_first: bool = False,
           require_both: bool = True) -> SolveOutcome:
    """Every solver: its init, one search context per entry of `orderings`
    -- the forward search from the start, then the backward one from the
    goal -- and one `run_sides` call. The init and `budget_factors` are read
    as module globals at call time, so wcbench's tracer can wrap them.

    There are no contexts when the init decided the solve. `htf` lets the
    contexts tune each other's tables while `options.htf` is on. A biased
    pair splits the weight budget by `budget_factors` over S' and shares the
    Match/Store lists. `smaller_first` runs the pair as one side that expands
    the smaller head; otherwise each context is a side, and two sides run
    under `options.schedule`. `require_both=False` ends the main search with
    its first side to end. Then the outcome is built."""
    options = options or SolveOptions()
    started = time.monotonic()
    init = globals()[init_name](graph, inst)
    contexts = []
    if init.status == SEARCH:
        budgets = chis = (None, None)  # indexed by direction
        if biased:
            beta = budget_factors(init.valid_members, init.tables.h[FORWARD][ATTR1],
                                  init.tables.h[BACKWARD][ATTR1])
            budgets = (beta.forward, beta.backward)
            chis = ({}, {})
        contexts = [SearchContext(graph, init.tables, init.gb, d, ordering, queue, end,
                                  budget=budgets[d], budget_opp=budgets[1 - d],
                                  chi_mine=chis[d], chi_opp=chis[1 - d],
                                  htf=htf and options.htf, options=options)
                    for d, ordering, end in zip((FORWARD, BACKWARD), orderings,
                                                (inst.start, inst.goal))]
    sides = ([_smaller_head_first(*contexts)] if smaller_first and contexts
             else [iter(c.step, False) for c in contexts])
    timed_out = run_sides(options.schedule if len(sides) == 2 else ("lockstep", 1), sides,
                          require_both=require_both,
                          clock=None if options.timeout is None else Clock(options.timeout))

    gb = init.gb
    metrics = Metrics()
    qstats = {("forward" if c.direction == FORWARD else "backward"): c.collect(metrics)
              for c in contexts}
    parents = {c.direction: c.parents for c in contexts}
    metrics.wall_time_s = time.monotonic() - started

    record = gb.record
    costs = path = None
    if record.costs is not None:
        costs = tuple(record.costs)
        path = reconstruct_solution(record, init.tables, parents)
        if options.check_invariants and not timed_out:
            assert tuple(path_cost(graph, path)) == costs
    status = (STATUS_TIMEOUT if timed_out else STATUS_INFEASIBLE if costs is None
              else STATUS_OPTIMAL)
    outcome = SolveOutcome(status, costs, path, metrics, record, qstats, gb.incumbents)
    if options.record:
        outcome.tuned = [t for ctx in contexts for t in ctx.tuned]
        outcome.trace = {("forward" if c.direction == FORWARD else "backward"): c.trace
                         for c in contexts}
        outcome.parents = parents
    # The path is rebuilt, so the init's and the contexts' per-state lists go
    # back to the graph's pool; nothing in the outcome refers to them.
    list_pool(graph).give(init.taken + [ctx.taken() for ctx in contexts])
    return outcome


def solve_wc_astar(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                   options: Optional[SolveOptions] = None) -> SolveOutcome:
    """Unidirectional forward search in (f1, f2) order."""
    return _solve(graph, inst, queue, options, "init_unidirectional", (ORDER_12,))


def solve_wc_ebba(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                  options: Optional[SolveOptions] = None) -> SolveOutcome:
    """Sequential biased bidirectional search: one expansion at a time, taken
    from whichever queue holds the globally smallest (f1, f2) node."""
    return _solve(graph, inst, queue, options, "init_sequential_bidirectional",
                  (ORDER_12, ORDER_12), biased=True, smaller_first=True)


def solve_wc_ba_star(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                     options: Optional[SolveOptions] = None) -> SolveOutcome:
    """Two concurrent searches in opposite directions and objective orderings,
    sharing global bounds; terminates as soon as either search terminates."""
    return _solve(graph, inst, queue, options, "init_parallel_bidirectional",
                  (ORDER_12, ORDER_21), htf=True, require_both=False)


def solve_wc_ebba_par(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                      options: Optional[SolveOptions] = None) -> SolveOutcome:
    """The biased bidirectional search with both directions running concurrently;
    terminates only when both searches have terminated."""
    return _solve(graph, inst, queue, options, "init_parallel_bidirectional",
                  (ORDER_12, ORDER_12), biased=True)


SOLVERS = {
    "wc-astar": solve_wc_astar,
    "wc-ba": solve_wc_ba_star,
    "wc-ebba": solve_wc_ebba,
    "wc-ebba-par": solve_wc_ebba_par,
}
