"""Directed bi-attribute graph storage, DIMACS ingestion and cost randomization.

A graph's arcs and costs are fixed at construction: both adjacency directions
are materialized once as compressed arrays (offset array + parallel edge
arrays) so bidirectional searches can scan either side without rebuilding
anything. Three per-graph caches fill slots of the graph lazily, made by
`caches` and `bounds`: the init's trees, the geometric data with its bound
tables, and a pool of spare per-state lists.
State ids are 0-based internally; DIMACS 1-based ids are shifted on load and
restored on output.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from contextlib import closing
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable, Iterator, Optional, Sequence

FORWARD = 0
BACKWARD = 1

INF = float("inf")

COST_MAX = 2**32 - 1


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

    Edges are stored CSR-style, one tuple per direction: ``arcs[d]`` is
    ``(index, to, c1, c2)``, where ``index[u]:index[u+1]`` slices the
    parallel ``to``/``c1``/``c2`` lists, sorted by target id; ``arcs[FORWARD]``
    holds the outgoing edges and ``arcs[BACKWARD]`` the reversed ones. At
    most one edge exists per ordered state pair.
    """

    __slots__ = ("state_count", "arcs", "coords", "goal_trees", "list_pool", "geo_tables")

    def __init__(self, state_count: int, edges: Iterable[tuple[int, int, int, int]],
                 coords: Optional[Sequence[tuple[float, float]]] = None):
        """Build from an iterable of (u, v, cost1, cost2); duplicates per (u, v) keep
        the lexicographically smallest (cost1, cost2) pair. `coords`, when
        given, holds one (lat, lon) per state."""
        self.state_count = state_count
        # One int per pair: key u * n + v, value (cost1 << 32) | cost2. Both
        # costs fit in 32 bits, so int order on values is (cost1, cost2) order.
        best: dict[int, int] = {}
        for u, v, c1, c2 in edges:
            if not (0 <= u < state_count and 0 <= v < state_count):
                raise GraphFormatError(f"edge ({u},{v}) out of declared state range")
            if c1 < 0 or c2 < 0 or c1 > COST_MAX or c2 > COST_MAX:
                raise GraphFormatError(f"edge ({u},{v}) cost ({c1},{c2}) outside [0, 2^32)")
            key = u * state_count + v
            costs = (c1 << 32) | c2
            cur = best.get(key)
            if cur is None or costs < cur:
                best[key] = costs
        self._build_csr(best)
        self.coords = list(coords) if coords is not None else None
        if self.coords is not None and len(self.coords) != state_count:
            raise GraphFormatError(f"{len(self.coords)} coordinates for {state_count} states")
        # bounds.GoalTrees: the init's plain searches (goal and start trees), made on first use.
        self.goal_trees = None
        # caches.ListPool: spare per-state lists for the next solve, made on first use.
        self.list_pool = None
        # caches.GeoTables: geometric data and great-circle bounds per target, made on first use.
        self.geo_tables = None

    def _build_csr(self, best: dict[int, int]) -> None:
        """Fill the forward arrays from `best` in key order, (u, v), and the
        reverse ones from the same arcs stably re-sorted by v, so in (v, u)
        order. Empties `best`; both directions share their int objects."""
        n = self.state_count
        heads, to, c1, c2 = _sorted_arcs(best, n)
        order = sorted(range(len(to)), key=to.__getitem__)
        self.arcs = ((_offsets(heads, n), to, c1, c2),
                     (_offsets([to[i] for i in order], n), [heads[i] for i in order],
                      [c1[i] for i in order], [c2[i] for i in order]))

    @property
    def edge_count(self) -> int:
        return len(self.arcs[FORWARD][1])

    def successors(self, u: int, direction: int = FORWARD) -> Iterator[tuple[int, int, int]]:
        """Yield (state, cost1, cost2) neighbours of u, ascending by state id.

        ``direction=FORWARD`` scans outgoing edges, ``BACKWARD`` the reversed ones.
        The search core's expansion uses it; the bounded init searches of
        `bounds.BoundedSearch` scan the compressed arrays themselves.
        """
        index, to, c1, c2 = self.arcs[direction]
        for i in range(index[u], index[u + 1]):
            yield to[i], c1[i], c2[i]

    def edges(self) -> Iterator[tuple[int, int, int, int]]:
        """Yield every (u, v, cost1, cost2), grouped by u ascending."""
        index, to, c1, c2 = self.arcs[FORWARD]
        for u in range(self.state_count):
            for i in range(index[u], index[u + 1]):
                yield u, to[i], c1[i], c2[i]


def _sorted_arcs(best: dict[int, int], n: int) -> tuple[list, list, list, list]:
    """Empty `best` into four lists over its arcs in (u, v) order: u, v,
    cost1 and cost2."""
    keys = sorted(best)
    costs = [best[k] for k in keys]
    best.clear()
    return ([k // n for k in keys], [k % n for k in keys],
            [c >> 32 for c in costs], [c & COST_MAX for c in costs])


def _offsets(heads: list[int], n: int) -> list[int]:
    """CSR offsets of arcs sorted by head: where each of states 0..n starts."""
    return [bisect_left(heads, u) for u in range(n + 1)]


def _not_integer(path: str, lineno: int, kind: str, line: str) -> GraphFormatError:
    """The error for a `kind` line with a field that is not an integer."""
    return GraphFormatError(f"{path}:{lineno}: non-integer field in {kind} line {line!r}")


def _read_gr(path: str) -> Iterator:
    """Stream a DIMACS 9th-challenge .gr file: first its state count n, then
    each arc as (u, v, w) with 1-based ids. Raises GraphFormatError at the
    first bad line, or at the end if the header's arc count is wrong."""
    n = m = None
    found = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "p":
                if len(parts) != 4 or parts[1] != "sp" or n is not None:
                    raise GraphFormatError(f"{path}:{lineno}: malformed problem line {line!r}")
                try:
                    n, m = int(parts[2]), int(parts[3])
                except ValueError:
                    raise _not_integer(path, lineno, "problem", line) from None
                if n < 0 or m < 0:
                    raise GraphFormatError(f"{path}:{lineno}: negative count in {line!r}")
                yield n
            elif parts[0] == "a":
                if len(parts) != 4:
                    raise GraphFormatError(f"{path}:{lineno}: malformed arc line {line!r}")
                try:
                    u, v, w = int(parts[1]), int(parts[2]), int(parts[3])
                except ValueError:
                    raise _not_integer(path, lineno, "arc", line) from None
                if n is None:
                    raise GraphFormatError(f"{path}:{lineno}: arc before problem line")
                if not (1 <= u <= n and 1 <= v <= n):
                    raise GraphFormatError(f"{path}:{lineno}: state id out of range 1..{n}")
                if not 0 <= w <= COST_MAX:
                    raise GraphFormatError(
                        f"{path}:{lineno}: arc ({u},{v}) weight {w} outside [0, 2^32)")
                found += 1
                yield u, v, w
            else:
                raise GraphFormatError(f"{path}:{lineno}: unrecognized line {line!r}")
    if n is None:
        raise GraphFormatError(f"{path}: missing 'p sp <n> <m>' line")
    if m != found:
        raise GraphFormatError(f"{path}: header declares {m} arcs, found {found}")


def _paired_arcs(arcs1: Iterator, arcs2: Iterator, file1: str, file2: str) -> Iterator:
    """Zip two `_read_gr` arc streams into 0-based (u, v, w1, w2)."""
    count = 0
    for a1, a2 in zip_longest(arcs1, arcs2):
        if a1 is None or a2 is None:
            rest = 1 + sum(1 for _ in (arcs1 if a2 is None else arcs2))
            counts = (count + rest, count) if a2 is None else (count, count + rest)
            raise GraphFormatError(
                f"arc count mismatch: {file1} has {counts[0]}, {file2} has {counts[1]}")
        (u1, v1, w1), (u2, v2, w2) = a1, a2
        if u1 != u2 or v1 != v2:
            raise GraphFormatError(
                f"arc sequence mismatch between {file1} and {file2}: "
                f"({u1},{v1}) vs ({u2},{v2})")
        count += 1
        yield u1 - 1, v1 - 1, w1, w2


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
            try:
                sid, lon, lat = int(parts[1]), int(parts[2]) / 1e6, int(parts[3]) / 1e6
            except ValueError:
                raise _not_integer(path, lineno, "coordinate", line) from None
            if not (1 <= sid <= n):
                raise GraphFormatError(f"{path}:{lineno}: state id out of range 1..{n}")
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
    The two files are read in lockstep, one arc line from each, straight into
    the graph, so no per-arc list is built; a bad pair of files reports the
    first bad line in that reading order, and the coordinate file is read last.
    """
    with closing(_read_gr(cost1_file)) as arcs1, closing(_read_gr(cost2_file)) as arcs2:
        n1, n2 = next(arcs1), next(arcs2)
        if n1 != n2:
            raise GraphFormatError(
                f"state count mismatch: {cost1_file} has {n1}, {cost2_file} has {n2}")
        graph = Graph(n1, _paired_arcs(arcs1, arcs2, cost1_file, cost2_file))
    if coord_file:
        graph.coords = _parse_co(coord_file, n1)
    return graph


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
    edges = ((u, v, c1, rng.randint(lo, hi)) for u, v, c1, _ in graph.edges())
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
