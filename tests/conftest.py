"""Shared fixtures: the worked 5-state example graph, DIMACS file helpers, small
road grids from the benchmark's generator, the table-admissibility checker
used by both the bounds tests and acceptance, and the identity harness that
compares a solve on a warm graph with the same solve on a fresh one."""

from __future__ import annotations

import importlib.util
import math
import random
import threading
from dataclasses import fields
from pathlib import Path

import pytest

import wcspp.solvers as solvers
from wcspp.bounds import ATTR1, ATTR2, INF
from wcspp.graph import BACKWARD, FORWARD, Graph, random_graph
from wcspp.nodepool import walk_tree
from wcspp.oracle import all_simple_paths
from wcspp.pqueue import BINARY_HEAP, BUCKET, QueueConfig, TIE_NONE_LIFO, TIE_SECONDARY

# States: s=0, u1=1, u2=2, u3=3, g=4.
EXAMPLE_EDGES = [
    (0, 1, 1, 4),
    (0, 2, 3, 4),
    (0, 3, 3, 1),
    (1, 2, 1, 2),
    (3, 2, 2, 1),
    (1, 4, 2, 4),
    (2, 4, 2, 1),
    (3, 4, 3, 3),
]

S, U1, U2, U3, G = range(5)

# Forward lower/upper bounds toward the goal, per state.
EXAMPLE_H_F = {S: (3, 3), U1: (2, 3), U2: (2, 1), U3: (3, 2), G: (0, 0)}
EXAMPLE_UB_F = {S: (7, 8), U1: (3, 4), U2: (2, 1), U3: (4, 3), G: (0, 0)}

# Exhaustively confirmed frontier of the example graph (5 simple paths, all
# mutually non-dominated).
EXAMPLE_PARETO = [(3, 8), (4, 7), (5, 5), (6, 4), (7, 3)]


@pytest.fixture
def example_graph() -> Graph:
    return Graph(5, EXAMPLE_EDGES)


def haversine_deg(a, b):
    """Great-circle metres between (lat, lon) points in degrees: the textbook
    formula, kept apart from the program's so the two can be compared."""
    lat1, lon1, lat2, lon2 = map(math.radians, (a[0], a[1], b[0], b[1]))
    s = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2 * 6371000.0 * math.asin(min(1.0, math.sqrt(s)))


def geo_random_graph(seed: int, n: int, extra_edges: int) -> Graph:
    """`random_graph`'s arcs and cost2 over seeded coordinates in a ~2 km box,
    with cost1 one unit plus about one per 100 m plus up to 3, so the geometric
    heuristic is informative."""
    rng = random.Random(f"coords/{seed}")
    coords = [(40 + rng.random() * 0.02, -73 + rng.random() * 0.02) for _ in range(n)]
    edges = []
    for u, v, _, c2 in random_graph(seed, n, extra_edges).edges():
        metres = haversine_deg(coords[u], coords[v])
        edges.append((u, v, 1 + round(metres / 100) + rng.randint(0, 3), c2))
    return Graph(n, edges, coords)


def ladder(rungs: int) -> Graph:
    """Two meridians of `rungs` states each, 1e-7 * 3**i degrees north of
    the equator, joined by rungs 1e-6 degrees wide: cost1 is about 20,000
    per metre of arc, so the bounds toward state 0 range from 0 to past
    2**31 and a table widens from 16 to 64 bits."""
    coords = [(1e-7 * 3 ** i, 1e-6 * side) for side in (0, 1) for i in range(rungs)]
    edges = []

    def link(u, v):
        c1 = math.ceil(haversine_deg(coords[u], coords[v]) * 20000) + 1
        edges.extend([(u, v, c1, 1 + (u + v) % 3), (v, u, c1, 1 + (u * v) % 3)])

    for i in range(rungs):
        link(i, rungs + i)
        if i + 1 < rungs:
            link(i, i + 1)
            link(rungs + i, rungs + i + 1)
    return Graph(2 * rungs, edges, coords)


def roadgrid_module():
    """`wcbench/roadgrid.py`, loaded from its path."""
    path = Path(__file__).resolve().parents[1] / "wcbench" / "roadgrid.py"
    spec = importlib.util.spec_from_file_location("roadgrid", path)
    roadgrid = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(roadgrid)
    return roadgrid


def road_grid_graph(seed: int, rows: int, cols: int, coords: bool = False) -> Graph:
    """A rows x cols grid from `wcbench/roadgrid.py`, with its coordinates
    in degrees (as `load_dimacs` reads them from its .co file) when `coords`
    is set, else without."""
    points, arcs = roadgrid_module().road_grid(seed, rows, cols)
    if not coords:
        return Graph(rows * cols, arcs)
    return Graph(rows * cols, arcs, [(lat / 1e6, lon / 1e6) for lat, lon in points])


def write_dimacs_pair(tmp_path, edges, n, prefix="g"):
    """Write (cost1, cost2) .gr files for an edge list of (u, v, c1, c2), 0-based."""
    p1 = tmp_path / f"{prefix}.d.gr"
    p2 = tmp_path / f"{prefix}.t.gr"
    for path, idx in ((p1, 2), (p2, 3)):
        lines = [f"c test graph\np sp {n} {len(edges)}"]
        for e in edges:
            lines.append(f"a {e[0] + 1} {e[1] + 1} {e[idx]}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p1), str(p2)


@pytest.fixture
def example_dimacs(tmp_path):
    return write_dimacs_pair(tmp_path, EXAMPLE_EDGES, 5)


def walk_cost(graph, seq):
    c1 = c2 = 0
    for u, v in zip(seq, seq[1:]):
        edge = next(e for e in graph.successors(u, FORWARD) if e[0] == v)
        c1 += edge[1]
        c2 += edge[2]
    return c1, c2


def check_tables_against_paths(graph, inst, init):
    """h values never exceed the matching prefix/suffix cost of any path that is
    weight-feasible and within the final cost1 bound; (h, ub) pairs are realized
    by their shortest-path-tree walks. Only tables whose init phase actually ran
    are checked (an early exit legitimately skips later phases)."""
    produced = {(d, a) for d, a, _ in init.settled_per_phase}
    f1_final = init.gb.f1_bar
    for (c1, c2), seq in all_simple_paths(graph, inst.start, inst.goal):
        if c2 > inst.weight_limit or c1 > f1_final:
            continue
        pc1 = pc2 = 0
        for i, u in enumerate(seq):
            for attr, sval in ((ATTR1, c1 - pc1), (ATTR2, c2 - pc2)):
                if (FORWARD, attr) in produced:
                    assert init.tables.h[FORWARD][attr][u] <= sval
            for attr, pval in ((ATTR1, pc1), (ATTR2, pc2)):
                if (BACKWARD, attr) in produced:
                    assert init.tables.h[BACKWARD][attr][u] <= pval
            if i + 1 < len(seq):
                e = next(x for x in graph.successors(u, FORWARD) if x[0] == seq[i + 1])
                pc1 += e[1]
                pc2 += e[2]
    for direction in (FORWARD, BACKWARD):
        for attr in (ATTR1, ATTR2):
            tree = init.tables.tree[direction][attr]
            if tree is None:
                continue
            h = init.tables.h[direction][attr]
            ub = init.tables.ub[direction][1 - attr]
            for u in range(graph.state_count):
                if h[u] == INF:
                    continue
                walk = walk_tree(tree, u)
                seq = walk if direction == FORWARD else list(reversed(walk))
                w1, w2 = walk_cost(graph, seq)
                pair = (w1, w2) if attr == ATTR1 else (w2, w1)
                assert pair == (h[u], ub[u])


# ---------------------------------------------------------------------------
# Identity harness: everything a solve shows, for byte-for-byte comparisons.

HEAP_CFG = QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY)
BUCKET_CFG = QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO)
# Every Metrics counter but the wall time.
COUNTERS = tuple(f.name for f in fields(solvers.Metrics) if f.name != "wall_time_s")
INIT_NAMES = ("init_unidirectional", "init_sequential_bidirectional",
              "init_parallel_bidirectional")
DIGEST_OPTIONS = solvers.SolveOptions(check_invariants=True, record=True)


def grid() -> Graph:
    """A 16 x 16 road grid."""
    return road_grid_graph(7, 16, 16)


def fresh(graph: Graph) -> Graph:
    """A graph of the same arcs, with empty caches and an empty list pool."""
    return Graph(graph.state_count, list(graph.edges()), graph.coords)


def capture_inits(monkeypatch) -> dict:
    """Wrap the solvers' init entry points so that each thread's InitResults
    are listed in solve order; returns the thread id -> list dict."""
    seen: dict = {}
    for name in INIT_NAMES:
        def wrapped(*args, _original=getattr(solvers, name), **kwargs):
            result = _original(*args, **kwargs)
            seen.setdefault(threading.get_ident(), []).append(result)
            return result
        monkeypatch.setattr(solvers, name, wrapped)
    return seen


@pytest.fixture
def inits(monkeypatch):
    """The InitResults of the test's solves, per thread, in order."""
    return capture_inits(monkeypatch)


def digest(graph, inst, name, inits, cfg=HEAP_CFG, options=DIGEST_OPTIONS) -> tuple:
    """Everything a solve shows: status, costs, path, counters, incumbents with
    their tags, tuning, and its init's tables, masks and S'. The solve's
    InitResult is taken off `inits`, so its lists can serve the next solve."""
    out = solvers.SOLVERS[name](graph, inst, cfg, options)
    init = inits[threading.get_ident()].pop()
    t = init.tables
    return (out.status, out.costs, out.path,
            tuple(getattr(out.metrics, c) for c in COUNTERS),
            repr(out.incumbents), repr(out.tuned),
            repr((init.status, t.h, t.ub, t.tree, init.settled_per_phase,
                  init.valid_states, init.valid_members)))
