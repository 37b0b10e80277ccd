"""References for the solvers: brute force for small graphs (full Pareto
enumeration and the constrained lexicographic optimum) and an exact
constrained optimum for graphs of any size (`reference_optimum`).

Deliberately independent of the solver machinery. The brute force is a plain
label-correcting search with FIFO ordering, complete per-state label sets and
no heuristics; the reference is a textbook bi-objective A* over the graph's
compressed arrays. Neither shares a code path with anything it is used to
validate.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .graph import BACKWARD, FORWARD, Graph

SIZE_GUARD = 10_000


class OracleSizeError(ValueError):
    """Graph too large for exhaustive label enumeration."""


@dataclass(frozen=True)
class ParetoPoint:
    cost1: int
    cost2: int
    path: tuple[int, ...]


class ParetoSet:
    """Cost-unique frontier, strictly increasing in cost1 and decreasing in cost2."""

    def __init__(self, points: list[ParetoPoint]):
        self.points = points

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def cost_pairs(self) -> list[tuple[int, int]]:
        return [(p.cost1, p.cost2) for p in self.points]


def enumerate_pareto(graph: Graph, start: int, goal: int) -> ParetoSet:
    """Exhaustively compute the cost-unique Pareto frontier of start-goal paths.

    Label-correcting over per-state non-dominated label sets; one representative
    simple path is kept per frontier point via label back-pointers.
    """
    if graph.state_count > SIZE_GUARD:
        raise OracleSizeError(f"{graph.state_count} states exceeds guard {SIZE_GUARD}")
    if start == goal:
        return ParetoSet([ParetoPoint(0, 0, (start,))])

    # Arena of labels: (state, c1, c2, parent label index).
    arena: list[tuple[int, int, int, int]] = [(start, 0, 0, -1)]
    # Per-state live label set as {(c1, c2): arena index}.
    live: list[dict[tuple[int, int], int]] = [{} for _ in range(graph.state_count)]
    live[start][(0, 0)] = 0
    queue = deque([0])

    while queue:
        idx = queue.popleft()
        u, c1, c2, _ = arena[idx]
        if live[u].get((c1, c2)) != idx:
            continue  # superseded by a dominating label
        if u == goal:
            continue  # goal labels are collected, never extended
        for v, e1, e2 in graph.successors(u, FORWARD):
            n1, n2 = c1 + e1, c2 + e2
            labels = live[v]
            dominated = False
            for (o1, o2) in labels:
                if o1 <= n1 and o2 <= n2:
                    dominated = True
                    break
            if dominated:
                continue
            for key in [k for k in labels if n1 <= k[0] and n2 <= k[1]]:
                del labels[key]
            arena.append((v, n1, n2, idx))
            labels[(n1, n2)] = len(arena) - 1
            queue.append(len(arena) - 1)

    points = []
    for (c1, c2), idx in sorted(live[goal].items()):
        path = []
        while idx != -1:
            state, _, _, parent = arena[idx]
            path.append(state)
            idx = parent
        points.append(ParetoPoint(c1, c2, tuple(reversed(path))))
    return ParetoSet(points)


def constrained_optimum(graph: Graph, start: int, goal: int,
                        weight_limit: int) -> Optional[tuple[int, int]]:
    """Lexicographically smallest (cost1, cost2) among paths with cost2 <= weight_limit.

    Scans the Pareto frontier in increasing cost1 and returns the first feasible
    point; None when no feasible path exists.
    """
    for point in enumerate_pareto(graph, start, goal):
        if point.cost2 <= weight_limit:
            return (point.cost1, point.cost2)
    return None


def all_simple_paths(graph: Graph, start: int, goal: int,
                     max_states: int = 64) -> list[tuple[tuple[int, int], tuple[int, ...]]]:
    """Every simple start-goal path with its cost pair, by exhaustive DFS.

    Only for tiny graphs (bounds admissibility checks); cost blows up fast.
    """
    if graph.state_count > max_states:
        raise OracleSizeError(f"{graph.state_count} states exceeds guard {max_states}")
    out: list[tuple[tuple[int, int], tuple[int, ...]]] = []
    path = [start]
    on_path = {start}

    def dfs(u: int, c1: int, c2: int) -> None:
        if u == goal:
            out.append(((c1, c2), tuple(path)))
            return
        for v, e1, e2 in graph.successors(u, FORWARD):
            if v in on_path:
                continue
            path.append(v)
            on_path.add(v)
            dfs(v, c1 + e1, c2 + e2)
            path.pop()
            on_path.remove(v)

    if start == goal:
        return [((0, 0), (start,))]
    dfs(start, 0, 0)
    return out


def _reverse_dijkstra(graph: Graph, goal: int, costs: list) -> list:
    """Least cost on `costs` (the reversed arcs' cost1 or cost2 array) from
    every state to `goal`; inf where the goal is unreachable."""
    index, to = graph.arcs[BACKWARD][:2]
    dist = [float("inf")] * graph.state_count
    dist[goal] = 0
    heap = [(0, goal)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for i in range(index[u], index[u + 1]):
            v, nd = to[i], d + costs[i]
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def reference_optimum(graph: Graph, start: int, goal: int,
                      weight_limit: int) -> Optional[tuple[int, int]]:
    """Lexicographically smallest (cost1, cost2) among paths with cost2 <=
    weight_limit, or None when no path is that light, on a graph of any size.

    It reads only the compressed arc arrays. Two reverse Dijkstras give the
    exact cost1 and cost2 distances h1, h2 to the goal. An A* then pops
    labels (g1, g2) in (g1 + h1, g2 + h2) order, which never decreases along
    a path since both bounds are consistent: the first goal label popped is
    the optimum. A label whose g2 + h2 exceeds the weight limit is dropped,
    and so is one whose g2 is no less than the least g2 popped at its state
    (`g2_min`): a label popped earlier there has no larger g1 either.
    """
    inf = float("inf")
    h1, h2 = (_reverse_dijkstra(graph, goal, costs) for costs in graph.arcs[BACKWARD][2:])
    if h2[start] > weight_limit:
        return None
    index, to, c1, c2 = graph.arcs[FORWARD]
    g2_min = [inf] * graph.state_count
    heap = [(h1[start], h2[start], 0, 0, start)]
    while heap:
        _, _, g1, g2, u = heapq.heappop(heap)
        if g2 >= g2_min[u]:
            continue
        g2_min[u] = g2
        if u == goal:
            return (g1, g2)
        for i in range(index[u], index[u + 1]):
            v = to[i]
            n1, n2 = g1 + c1[i], g2 + c2[i]
            if n2 >= g2_min[v] or n2 + h2[v] > weight_limit:
                continue
            heapq.heappush(heap, (n1 + h1[v], n2 + h2[v], n1, n2, v))
    return None
