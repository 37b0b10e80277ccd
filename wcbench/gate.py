"""Correctness gate applied to every solve, outside the timed region.

A solve is one query answered by one algorithm. It passes when its own answer
checks out and no other solver of the same query proves it wrong:

* an `optimal` answer carries a path that starts at `start`, ends at `goal`,
  costs exactly the reported pair (`wcspp.solvers.path_cost`) and respects W;
* the query's reference is the lexicographically smallest verified answer
  among all solvers; a verified answer above it is suboptimal, and an
  `infeasible` claim while a verified path exists is false;
* when no solver verified a path, an independent cost2 Dijkstra bounded by W
  decides feasibility, so a unanimous false `infeasible` is still caught.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from wcspp.graph import FORWARD, Graph
from wcspp.solvers import STATUS_INFEASIBLE, STATUS_OPTIMAL, SolveOutcome, path_cost


@dataclass
class Solve:
    """One algorithm's answer to one query, as the benchmark saw it."""

    query: int
    algorithm: str
    start: int
    goal: int
    weight_limit: int
    seconds: float  # wall time of the solver call
    ref_seconds: float = 0.0  # speed-probe time measured just before it
    outcome: Optional[SolveOutcome] = None  # None when the solver raised
    error: Optional[str] = None

    @property
    def status(self) -> Optional[str]:
        return self.outcome.status if self.outcome is not None else None

    @property
    def costs(self) -> Optional[tuple]:
        return self.outcome.costs if self.outcome is not None else None


def own_check(graph: Graph, s: Solve) -> Optional[str]:
    """Why the solve's answer is wrong on its own, or None if it checks out."""
    if s.error is not None:
        return f"raised {s.error}"
    if s.status == STATUS_INFEASIBLE:
        return None
    if s.status != STATUS_OPTIMAL:
        return f"status {s.status}"
    path = s.outcome.path
    if not path or path[0] != s.start or path[-1] != s.goal:
        return "path does not run from start to goal"
    try:
        costs = path_cost(graph, path)
    except ValueError as exc:
        return f"broken path: {exc}"
    if s.costs is None or tuple(costs) != tuple(s.costs):
        return f"path costs {tuple(costs)} but reported {s.costs}"
    if costs[1] > s.weight_limit:
        return f"cost2 {costs[1]} exceeds W={s.weight_limit}"
    return None


def cost2_within(graph: Graph, start: int, goal: int, limit: int) -> bool:
    """Whether some start-goal path has cost2 <= limit (plain bounded Dijkstra)."""
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, u = heapq.heappop(heap)
        if u == goal:
            return True
        if d > dist[u]:
            continue
        for v, _, c2 in graph.successors(u, FORWARD):
            nd = d + c2
            if nd <= limit and nd < dist.get(v, nd + 1):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return False


def reference(graph: Graph, solves: list[Solve]) -> Optional[tuple]:
    """Lexicographically smallest verified cost pair among one query's solves,
    or None when no solver verified a path."""
    verified = [tuple(s.costs) for s in solves if own_check(graph, s) is None
                and s.status == STATUS_OPTIMAL]
    return min(verified) if verified else None


def check_query(graph: Graph, solves: list[Solve]) -> dict[str, Optional[str]]:
    """Verdict per algorithm for all solves of one query: None passes, else a reason."""
    verdicts: dict[str, Optional[str]] = {}
    ref = reference(graph, solves)
    feasible = ref is not None
    if not feasible and any(s.status == STATUS_INFEASIBLE for s in solves):
        s0 = solves[0]
        feasible = cost2_within(graph, s0.start, s0.goal, s0.weight_limit)
    for s in solves:
        reason = own_check(graph, s)
        if reason is None and s.status == STATUS_OPTIMAL and tuple(s.costs) > ref:
            reason = f"suboptimal {tuple(s.costs)}, another solver verified {ref}"
        if reason is None and s.status == STATUS_INFEASIBLE and feasible:
            reason = ("claims infeasible, but a path with cost2 <= W exists"
                      + (f" (verified {ref})" if ref is not None else ""))
        verdicts[s.algorithm] = reason
    return verdicts


def check_all(graph: Graph, solves: list[Solve]) -> list[tuple[Solve, str]]:
    """(solve, reason) for every failing solve, grouping solves by query."""
    by_query: dict[int, list[Solve]] = {}
    for s in solves:
        by_query.setdefault(s.query, []).append(s)
    failures = []
    for group in by_query.values():
        verdicts = check_query(graph, group)
        failures.extend((s, verdicts[s.algorithm]) for s in group
                        if verdicts[s.algorithm] is not None)
    return failures
