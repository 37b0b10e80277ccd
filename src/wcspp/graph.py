"""Directed bi-attribute graph storage, DIMACS ingestion and cost randomization.

A graph's arcs and costs are fixed at construction: both adjacency directions
are materialized once as compressed arrays (offset array + parallel edge
arrays) so bidirectional searches can scan either side without rebuilding
anything. Three per-graph structures are filled lazily by `bounds`: two
caches derived from the arcs and a pool of spare per-state lists.
State ids are 0-based internally; DIMACS 1-based ids are shifted on load and
restored on output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

FORWARD = 0
BACKWARD = 1

INF = float("inf")

_COST_MAX = 2**32 - 1


class GraphFormatError(ValueError):
    """Raised for malformed or mutually inconsistent DIMACS input files."""


@dataclass(frozen=True)
class ProblemInstance:
    """A single point-to-point query: minimize cost1 subject to cost2 <= weight_limit."""

    start: int
    goal: int
    weight_limit: int

    def __post_init__(self):
        if self.weight_limit < 0:
            raise ValueError("weight_limit must be non-negative")


class Graph:
    """Directed graph with (cost1, cost2) edge attributes and both adjacency directions.

    Edges are stored CSR-style: ``index[u]:index[u+1]`` slices the parallel
    ``to``/``c1``/``c2`` arrays, sorted by target id. At most one edge exists
    per ordered state pair.
    """

    __slots__ = (
        "state_count",
        "fwd_index",
        "fwd_to",
        "fwd_c1",
        "fwd_c2",
        "rev_index",
        "rev_to",
        "rev_c1",
        "rev_c2",
        "coords",
        "geo_cache",
        "goal_trees",
        "list_pool",
    )

    def __init__(self, state_count: int, edges: Iterable[tuple[int, int, int, int]],
                 coords: Optional[Sequence[tuple[float, float]]] = None):
        """Build from an iterable of (u, v, cost1, cost2); duplicates per (u, v) keep
        the lexicographically smallest (cost1, cost2) pair. `coords`, when
        given, holds one (lat, lon) per state."""
        self.state_count = state_count
        best: dict[tuple[int, int], tuple[int, int]] = {}
        for u, v, c1, c2 in edges:
            if not (0 <= u < state_count and 0 <= v < state_count):
                raise GraphFormatError(f"edge ({u},{v}) out of declared state range")
            if c1 < 0 or c2 < 0 or c1 > _COST_MAX or c2 > _COST_MAX:
                raise GraphFormatError(f"edge ({u},{v}) cost ({c1},{c2}) outside [0, 2^32)")
            key = (u, v)
            cur = best.get(key)
            if cur is None or (c1, c2) < cur:
                best[key] = (c1, c2)
        self._build_csr(best)
        self.coords = list(coords) if coords is not None else None
        if self.coords is not None and len(self.coords) != state_count:
            raise GraphFormatError(f"{len(self.coords)} coordinates for {state_count} states")
        # Per-graph geometric data for bounds.geo_heuristic, filled on first use.
        self.geo_cache = None
        # bounds.GoalTrees: the first init search per goal, made on first use.
        self.goal_trees = None
        # bounds.ListPool: spare per-state lists for the next solve, made on first use.
        self.list_pool = None

    def _build_csr(self, best: dict[tuple[int, int], tuple[int, int]]) -> None:
        n = self.state_count
        fwd: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        rev: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for (u, v), (c1, c2) in best.items():
            fwd[u].append((v, c1, c2))
            rev[v].append((u, c1, c2))
        self.fwd_index, self.fwd_to, self.fwd_c1, self.fwd_c2 = _flatten(fwd)
        self.rev_index, self.rev_to, self.rev_c1, self.rev_c2 = _flatten(rev)

    @property
    def edge_count(self) -> int:
        return len(self.fwd_to)

    def successors(self, u: int, direction: int = FORWARD) -> Iterator[tuple[int, int, int]]:
        """Yield (state, cost1, cost2) neighbours of u, ascending by state id.

        ``direction=FORWARD`` scans outgoing edges, ``BACKWARD`` the reversed ones.
        The search core's expansion uses it; the bounded init searches of
        `bounds.BoundedSearch` scan the compressed arrays themselves.
        """
        if direction == FORWARD:
            index, to, c1, c2 = self.fwd_index, self.fwd_to, self.fwd_c1, self.fwd_c2
        else:
            index, to, c1, c2 = self.rev_index, self.rev_to, self.rev_c1, self.rev_c2
        for i in range(index[u], index[u + 1]):
            yield to[i], c1[i], c2[i]

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield every (u, v, cost1, cost2), grouped by u ascending."""
        for u in range(self.state_count):
            for i in range(self.fwd_index[u], self.fwd_index[u + 1]):
                yield u, self.fwd_to[i], self.fwd_c1[i], self.fwd_c2[i]


def _flatten(adj: list[list[tuple[int, int, int]]]):
    index = [0] * (len(adj) + 1)
    to: list[int] = []
    c1: list[int] = []
    c2: list[int] = []
    for u, lst in enumerate(adj):
        lst.sort()
        for v, a, b in lst:
            to.append(v)
            c1.append(a)
            c2.append(b)
        index[u + 1] = len(to)
    return index, to, c1, c2


def _parse_gr(path: str) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Parse a DIMACS 9th-challenge .gr file into (n, m, [(u, v, w), ...]) with 1-based ids."""
    n = m = None
    arcs: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp":
                    raise GraphFormatError(f"{path}:{lineno}: malformed problem line {line!r}")
                n, m = int(parts[2]), int(parts[3])
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise GraphFormatError(f"{path}:{lineno}: malformed arc line {line!r}")
                u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
                if n is None:
                    raise GraphFormatError(f"{path}:{lineno}: arc before problem line")
                if not (1 <= u <= n and 1 <= v <= n):
                    raise GraphFormatError(f"{path}:{lineno}: state id out of range 1..{n}")
                arcs.append((u, v, w))
            else:
                raise GraphFormatError(f"{path}:{lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError(f"{path}: missing 'p sp <n> <m>' line")
    if m is not None and m != len(arcs):
        raise GraphFormatError(f"{path}: header declares {m} arcs, found {len(arcs)}")
    return n, m, arcs


def _parse_co(path: str, n: int) -> list[tuple[float, float]]:
    """Parse a DIMACS .co coordinate file ('v <id> <lon*1e6> <lat*1e6>')."""
    coords: list[tuple[float, float]] = [(0.0, 0.0)] * n
    seen = [False] * n
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c") or line.startswith("p"):
                continue
            parts = line.split()
            if parts[0] != "v" or len(parts) != 4:
                raise GraphFormatError(f"{path}:{lineno}: malformed coordinate line {line!r}")
            sid = int(parts[1])
            if not (1 <= sid <= n):
                raise GraphFormatError(f"{path}:{lineno}: state id out of range 1..{n}")
            lon, lat = int(parts[2]) / 1e6, int(parts[3]) / 1e6
            coords[sid - 1] = (lat, lon)
            seen[sid - 1] = True
    if not all(seen):
        raise GraphFormatError(f"{path}: missing coordinates for some states")
    return coords


def load_dimacs(cost1_file: str, cost2_file: str, coord_file: Optional[str] = None) -> Graph:
    """Load a bi-attribute graph from two DIMACS .gr files over the same arc list.

    The i-th arc of each file must name the same (u, v) pair; the kept attribute
    pair is (w from file 1, w from file 2). Among duplicate (u, v) arcs exactly
    one survives: the one with the lexicographically smallest (cost1, cost2).
    """
    n1, _, arcs1 = _parse_gr(cost1_file)
    n2, _, arcs2 = _parse_gr(cost2_file)
    if n1 != n2:
        raise GraphFormatError(
            f"state count mismatch: {cost1_file} has {n1}, {cost2_file} has {n2}")
    if len(arcs1) != len(arcs2):
        raise GraphFormatError(
            f"arc count mismatch: {cost1_file} has {len(arcs1)}, {cost2_file} has {len(arcs2)}")
    edges = []
    for (u1, v1, w1), (u2, v2, w2) in zip(arcs1, arcs2):
        if (u1, v1) != (u2, v2):
            raise GraphFormatError(
                f"arc sequence mismatch between {cost1_file} and {cost2_file}: "
                f"({u1},{v1}) vs ({u2},{v2})")
        edges.append((u1 - 1, v1 - 1, w1, w2))
    coords = _parse_co(coord_file, n1) if coord_file else None
    return Graph(n1, edges, coords)


def write_gr(graph: Graph, path: str, attribute: int, comment: str = "") -> None:
    """Write one attribute of the graph back out as a DIMACS .gr file (1-based ids)."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"c {line}\n")
        fh.write(f"p sp {graph.state_count} {graph.edge_count}\n")
        for u, v, c1, c2 in graph.edges():
            w = c1 if attribute == 1 else c2
            fh.write(f"a {u + 1} {v + 1} {w}\n")


def randomize_cost2(graph: Graph, seed: int, lo: int, hi: int) -> Graph:
    """Return a copy with every edge's cost2 redrawn uniformly from [lo, hi].

    Draws are made in deterministic edge order (ascending (u, v)), so the same
    seed always yields the same graph and an edge and its reversal agree.
    """
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    rng = random.Random(seed)
    edges = [(u, v, c1, rng.randint(lo, hi)) for u, v, c1, _ in graph.edges()]
    return Graph(graph.state_count, edges, graph.coords)


def random_graph(seed: int, state_count: int, extra_edges: int, cost_max: int = 10,
                 cost_min: int = 1) -> Graph:
    """Seeded random digraph for oracle cross-checks.

    A 0 -> 1 -> ... -> n-1 backbone guarantees forward reachability between
    ascending pairs; ``extra_edges`` random arcs are layered on top. Costs are
    independent uniform integers in [cost_min, cost_max].
    """
    if state_count < 1:
        raise ValueError("state_count must be >= 1")
    rng = random.Random(seed)
    edges = []
    for u in range(state_count - 1):
        edges.append((u, u + 1, rng.randint(cost_min, cost_max), rng.randint(cost_min, cost_max)))
    for _ in range(extra_edges):
        u = rng.randrange(state_count)
        v = rng.randrange(state_count)
        if u == v:
            continue
        edges.append((u, v, rng.randint(cost_min, cost_max), rng.randint(cost_min, cost_max)))
    return Graph(state_count, edges)
