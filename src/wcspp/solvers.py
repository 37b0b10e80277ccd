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
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .bounds import (ATTR1, ATTR2, INF, PATH, SEARCH, TREE_HALF, BoundsTables, Clock,
                     GlobalBounds, InitResult, SolutionRecord, budget_factors,
                     init_parallel_bidirectional, init_sequential_bidirectional,
                     init_unidirectional, join_halves, list_pool, parse_schedule,
                     run_sides)
from .graph import BACKWARD, FORWARD, Graph, ProblemInstance
from .nodepool import NodePool, ParentArrays, join_forward, walk_tree
from .pqueue import QueueConfig, TIE_SECONDARY, new_queue

ORDER_12 = (ATTR1, ATTR2)
ORDER_21 = (ATTR2, ATTR1)

STATUS_OPTIMAL = "optimal"
STATUS_INFEASIBLE = "infeasible"
STATUS_TIMEOUT = "timeout"

# Match/Store locks, striped by state and shared by every solve. A chi lock
# guards one match-and-store and nothing takes one while holding a
# GlobalBounds lock, so solves that share a stripe contend but never deadlock.
_CHI_LOCKS = tuple(threading.Lock() for _ in range(64))


@dataclass
class SolveOptions:
    schedule: tuple = ("lockstep", 1)  # ("lockstep", k >= 1) or ("threads", 2)
    timeout: Optional[float] = None  # seconds, >= 0
    htf: bool = True  # wc-ba heuristic tuning switch
    check_invariants: bool = False
    record: bool = False  # fill SolveOutcome.tuned, trace and parents

    def __post_init__(self):
        parse_schedule(self.schedule)  # every solver rejects a bad schedule
        if self.timeout is not None and not self.timeout >= 0:  # NaN fails too
            raise ValueError(f"the timeout must be a number >= 0, got {self.timeout!r}")


@dataclass
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

    def absorb(self, other: "Metrics") -> None:
        self.expansions += other.expansions
        self.generations += other.generations
        self.prunes_dominance += other.prunes_dominance
        self.prunes_state_ub += other.prunes_state_ub
        self.prunes_global_f1 += other.prunes_global_f1
        self.prunes_global_f2 += other.prunes_global_f2
        self.stale_reinserts += other.stale_reinserts

    @property
    def prunes_global(self) -> int:
        return self.prunes_global_f1 + self.prunes_global_f2


@dataclass
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
    parents: Optional[dict] = None  # direction -> ParentArrays, with record


# ---------------------------------------------------------------------------
# Shared procedures


def esu(gb: GlobalBounds, tables: BoundsTables, direction: int, ordering: tuple,
        state: int, g1, g2, f1, f2, path_id: int, tag: str = "esu") -> None:
    """Early solution update: join the node with a complementary shortest path.

    In (f1, f2) order the cost1-optimal complement can nominate a solution and
    the cost2-optimal one may still tighten f1_bar; in (f2, f1) order the roles
    mirror, and only the cost2-optimal complement nominates. A nominee joins
    the node's recorded path with the init tree on that attribute that leads
    to the other end.
    """
    ub1 = tables.ub[direction][ATTR1][state]
    ub2 = tables.ub[direction][ATTR2][state]
    if ordering == ORDER_12:
        f2p = g2 + ub2
        if f2p <= gb.f2_bar:
            gb.offer(f1, f2p, join_halves(direction, state, (PATH, path_id), TREE_HALF[ATTR1]),
                     tag)
        else:
            f1p = g1 + ub1
            if f1p < gb.f1_bar:
                gb.tighten_f1(f1p)
    else:
        f1p = g1 + ub1
        if f1p <= gb.f1_bar:
            gb.offer(f1p, f2, join_halves(direction, state, (PATH, path_id), TREE_HALF[ATTR2]),
                     tag)
        else:
            f2p = g2 + ub2
            if f2p <= gb.f2_bar and f1 < gb.f1_bar:
                gb.tighten_f1(f1)


def match_partial(gb: GlobalBounds, chi_opp: Optional[list], direction: int,
                  state: int, g1, g2, path_id: int, tag: str = "match") -> None:
    """Join the node with stored opposite-direction expansions of the same state.

    The list is ordered by non-decreasing g1, so the scan stops at the first
    joined path whose cost1 exceeds f1_bar.
    """
    if not chi_opp:
        return
    for y1, y2, yidx in chi_opp:
        c1 = g1 + y1
        if c1 > gb.f1_bar:
            break
        c2 = g2 + y2
        if c2 <= gb.f2_bar:
            gb.offer(c1, c2, join_halves(direction, state, (PATH, path_id), (PATH, yidx)), tag)


def store_partial(chi: dict, state: int, g1, g2, path_id: int, refine: bool) -> None:
    """Append the expansion snapshot to the state's list for future matching.

    Without tie-breaking the previous entry may be a dominated duplicate of
    this one (same g1, larger g2); the refinement drops it so each list keeps
    at most one dominated node.
    """
    lst = chi.get(state)
    if lst is None:
        lst = []
        chi[state] = lst
    if refine and lst and lst[-1][0] == g1:
        lst.pop()
    assert not lst or lst[-1][0] <= g1, "stored expansions must be g1-ordered"
    lst.append((g1, g2, path_id))


class SearchContext:
    """One search direction: its queue, node pool, parent arrays and g_min, and
    the node processor every solver runs on them. `g_min` comes from the
    graph's list pool and is written only at expanded states, the keys of
    the parent arrays."""

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
        self.pool = NodePool()
        self.parents = ParentArrays()
        f1 = self.h_1[initial_state]
        f2 = self.h_2[initial_state]
        fp, fs = (f1, f2) if p == ATTR1 else (f2, f1)
        fmax = gb.f1_bar if p == ATTR1 else gb.f2_bar
        self.open = new_queue(replace(queue, f_min=int(fp), f_max=int(fmax)))
        handle = self.pool.allocate(initial_state, 0, 0, f1, f2, None, 0)
        self.open.push(int(fp), int(fs), handle)

    def step(self) -> bool:
        """Pop and process one node; False once the queue is empty or the search ends."""
        item = self.open.pop()
        return item is not None and self.process(item)

    def process(self, item) -> bool:
        """One Alg-8-style iteration body for an already-popped queue item;
        False when the item ends the search."""
        kp, ks, handle = item
        pool = self.pool
        gb = self.gb
        u = pool.state[handle]
        g1 = pool.g1[handle]
        g2 = pool.g2[handle]
        f1 = pool.f1[handle]
        f2 = pool.f2[handle]
        p = self.p
        fp = f1 if p == ATTR1 else f2

        if self.options.check_invariants:
            assert fp >= self._last_popped_fp, "popped primary keys must be non-decreasing"
            self._last_popped_fp = fp

        fp_bar = gb.f1_bar if p == ATTR1 else gb.f2_bar
        if fp > fp_bar:
            pool.recycle(handle)
            return False

        if self.htf:
            # A concurrent tuning of this direction's secondary heuristic can
            # leave the stored f_s stale; refresh it, re-ordering if ties matter.
            h_s = self.h_2[u] if p == ATTR1 else self.h_1[u]
            g_s_val = g2 if p == ATTR1 else g1
            fresh_fs = g_s_val + h_s
            stored_fs = f2 if p == ATTR1 else f1
            if fresh_fs > stored_fs:
                if p == ATTR1:
                    f2 = pool.f2[handle] = fresh_fs
                else:
                    f1 = pool.f1[handle] = fresh_fs
                if self.tie_break:
                    self.metrics.stale_reinserts += 1
                    self.open.push(kp, fresh_fs, handle)
                    return True

        # Secondary-cost invalidation: nodes are not ordered by their secondary
        # f-value, and in (f1, f2) order a refreshed f2 can exceed f2_bar.
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

        if self.htf and self.g_min[u] == INF:
            # First expansion of u in this ordering: its costs bound every later
            # valid path to u, so the opposite direction may adopt them.
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
        idx = self.parents.record_expansion(u, pool.parent_state[handle],
                                            pool.parent_path_id[handle])
        if self.options.check_invariants:
            seq = self.parents.backtrack(u, idx)
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
            handle = pool.allocate(v, ng1, ng2, nf1, nf2, u, idx)
            if p == ATTR1:
                open_q.push(int(nf1), int(nf2), handle)
            else:
                open_q.push(int(nf2), int(nf1), handle)

    def taken(self) -> tuple:
        """(fill, list, written) for the list taken from the graph's pool."""
        return INF, self.g_min, (self.parents.parent_state,)

    def collect(self, metrics: Metrics) -> None:
        metrics.absorb(self.metrics)
        st = self.open.stats()
        metrics.pushes += st.pushes
        metrics.pops += st.pops
        metrics.queue_ops += st.queue_ops
        metrics.queue_peak += st.peak_size
        metrics.pool_slots += self.pool.slots_created
        metrics.pool_blocks += self.pool.blocks_allocated


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
            halves.append(parents[side].backtrack(state, how[1])[::-1])
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


def _finish(graph: Graph, init: InitResult, contexts: list[SearchContext],
            options: SolveOptions, started: float, timed_out: bool) -> SolveOutcome:
    """Build the outcome; a solve decided during initialisation has no contexts.

    Once the path is rebuilt, the init's and the contexts' per-state lists go
    back to the graph's pool; nothing in the outcome refers to them."""
    gb = init.gb
    metrics = Metrics()
    qstats = {}
    parents: dict[int, ParentArrays] = {}
    for ctx in contexts:
        ctx.collect(metrics)
        name = "forward" if ctx.direction == FORWARD else "backward"
        qstats[name] = ctx.open.stats()
        parents[ctx.direction] = ctx.parents
    metrics.wall_time_s = time.monotonic() - started

    record = gb.record
    if record.costs is None:
        outcome = SolveOutcome(STATUS_TIMEOUT if timed_out else STATUS_INFEASIBLE,
                               None, None, metrics, record, qstats, gb.incumbents)
    else:
        path = reconstruct_solution(record, init.tables, parents)
        if options.check_invariants and not timed_out:
            assert tuple(path_cost(graph, path)) == tuple(record.costs)
        outcome = SolveOutcome(STATUS_TIMEOUT if timed_out else STATUS_OPTIMAL,
                               tuple(record.costs), path, metrics, record, qstats,
                               gb.incumbents)
    if options.record:
        outcome.tuned = [t for ctx in contexts for t in ctx.tuned]
        outcome.trace = {("forward" if c.direction == FORWARD else "backward"): c.trace
                         for c in contexts}
        outcome.parents = parents
    list_pool(graph).give(init.taken + [ctx.taken() for ctx in contexts])
    return outcome


def solve_wc_astar(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                   options: Optional[SolveOptions] = None) -> SolveOutcome:
    """Unidirectional forward search in (f1, f2) order."""
    options = options or SolveOptions()
    started = time.monotonic()
    init = init_unidirectional(graph, inst)
    if init.status != SEARCH:
        return _finish(graph, init, [], options, started, False)

    ctx = SearchContext(graph, init.tables, init.gb, FORWARD, ORDER_12, queue, inst.start,
                        options=options)
    clock = Clock(options.timeout)
    while not clock.expired() and ctx.step():
        pass
    return _finish(graph, init, [ctx], options, started, clock.timed_out)


def _ebba_contexts(graph: Graph, inst: ProblemInstance, init: InitResult,
                   queue: QueueConfig, options: SolveOptions) -> list[SearchContext]:
    """Forward and backward contexts of the biased bidirectional search: budget
    factors and the shared Match/Store lists."""
    beta = budget_factors(init.valid_members, init.tables.h[FORWARD][ATTR1],
                          init.tables.h[BACKWARD][ATTR1])
    chi_f: dict = {}
    chi_b: dict = {}
    contexts = []
    for d, chi_mine, chi_opp, b_own, b_opp in (
            (FORWARD, chi_f, chi_b, beta.forward, beta.backward),
            (BACKWARD, chi_b, chi_f, beta.backward, beta.forward)):
        start_state = inst.start if d == FORWARD else inst.goal
        contexts.append(SearchContext(graph, init.tables, init.gb, d, ORDER_12, queue,
                                      start_state, budget=b_own, budget_opp=b_opp,
                                      chi_mine=chi_mine, chi_opp=chi_opp, options=options))
    return contexts


def solve_wc_ebba(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                  options: Optional[SolveOptions] = None) -> SolveOutcome:
    """Sequential biased bidirectional search: one expansion at a time, taken
    from whichever queue holds the globally smallest (f1, f2) node."""
    options = options or SolveOptions()
    started = time.monotonic()
    init = init_sequential_bidirectional(graph, inst)
    if init.status != SEARCH:
        return _finish(graph, init, [], options, started, False)

    contexts = _ebba_contexts(graph, inst, init, queue, options)
    fwd, bwd = contexts
    f_open, b_open = fwd.open, bwd.open
    tie = fwd.tie_break
    clock = Clock(options.timeout)
    while not clock.expired():
        hf = f_open.peek() if len(f_open) else None
        hb = b_open.peek() if len(b_open) else None
        if hf is None and hb is None:
            break
        # Smallest key wins; on an exact tie the forward side goes first.
        if hf is None or (hb is not None and (
                hb[0] < hf[0] or (tie and hb[0] == hf[0] and hb[1] < hf[1]))):
            side = bwd
        else:
            side = fwd
        if not side.step():
            break
    return _finish(graph, init, contexts, options, started, clock.timed_out)


def solve_wc_ba_star(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                     options: Optional[SolveOptions] = None) -> SolveOutcome:
    """Two concurrent searches in opposite directions and objective orderings,
    sharing global bounds; terminates as soon as either search terminates."""
    options = options or SolveOptions()
    started = time.monotonic()
    init = init_parallel_bidirectional(graph, inst, schedule=options.schedule)
    if init.status != SEARCH:
        return _finish(graph, init, [], options, started, False)

    contexts = [
        SearchContext(graph, init.tables, init.gb, FORWARD, ORDER_12, queue, inst.start,
                      htf=options.htf, options=options),
        SearchContext(graph, init.tables, init.gb, BACKWARD, ORDER_21, queue, inst.goal,
                      htf=options.htf, options=options),
    ]
    timed_out = run_sides(options.schedule, [iter(c.step, False) for c in contexts],
                          require_both=False, clock=Clock(options.timeout))
    return _finish(graph, init, contexts, options, started, timed_out)


def solve_wc_ebba_par(graph: Graph, inst: ProblemInstance, queue: QueueConfig,
                      options: Optional[SolveOptions] = None) -> SolveOutcome:
    """The biased bidirectional search with both directions running concurrently;
    terminates only when both searches have terminated."""
    options = options or SolveOptions()
    started = time.monotonic()
    init = init_parallel_bidirectional(graph, inst, schedule=options.schedule)
    if init.status != SEARCH:
        return _finish(graph, init, [], options, started, False)

    contexts = _ebba_contexts(graph, inst, init, queue, options)
    timed_out = run_sides(options.schedule, [iter(c.step, False) for c in contexts],
                          clock=Clock(options.timeout))
    return _finish(graph, init, contexts, options, started, timed_out)


SOLVERS = {
    "wc-astar": solve_wc_astar,
    "wc-ba": solve_wc_ba_star,
    "wc-ebba": solve_wc_ebba,
    "wc-ebba-par": solve_wc_ebba_par,
}
