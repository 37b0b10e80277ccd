"""Workload definitions: which queries each workload sends and with which queue.

A workload is a seeded plan of (start, goal, tightness) queries over one road
grid. Plans are pure functions of the seed; weight limits are derived later by
`wcspp.cli.gen_instances` on the loaded graph, inside the measured set-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

GRID_ROWS = 100
GRID_COLS = 100
FAR = 50  # road-mid: grid rows (and columns) between start and goal
HUB_OFFSET = 17  # road-hub: grid rows (and columns) between a start and its goal
HUB_DELTAS = 4  # road-hub: feasible tightness levels per pair, before its infeasible row

# Marks a query whose weight limit is one below the pair's cost2-shortest
# distance (derived from the delta = 0 row), so it is infeasible by construction.
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class Workload:
    name: str
    queue: str  # a key of wcspp.cli.QUEUE_KINDS
    tie: str  # a key of wcspp.cli.TIE_POLICIES
    coords: bool  # load the .co file (enables the geometric heuristic)
    pairs: int  # start-goal pairs planned per run
    trace_queries: int  # fixed query count of a traced run
    why: str


WORKLOADS = {
    w.name: w for w in (
        Workload("road-mid", "bucket", "none-lifo", True, 24, 5,
                 "unique pairs 100 hops apart on a diagonal, delta 0.2-0.5, bucket queue: "
                 "thousands of expansions per solve, where solvers, pqueue and nodepool "
                 "changes show"),
        Workload("road-local", "bucket", "none-lifo", True, 56, 16,
                 "unique pairs 3-8 hops apart, mixed delta, bucket queue: per-solve fixed "
                 "cost in bounds dominates; the control for search-core changes"),
        Workload("road-hub", "binary-heap", "secondary", False, 28, 40,
                 "starts ~34 hops from 4 shared goals, delta 0.1-1.0 plus an infeasible row "
                 "per pair, binary heap, secondary ties, no coords: heap path, stale "
                 "reinserts, init-decided solves"),
    )
}


@dataclass(frozen=True)
class PlannedPair:
    start: int
    goal: int
    deltas: tuple  # Fraction tightness levels, or INFEASIBLE


def _state(r: int, c: int) -> int:
    return r * GRID_COLS + c


def _far_pair(rng: random.Random, orientation: int) -> tuple[int, int]:
    """Opposite corners of a FAR x FAR square at a random place on the grid.

    A fixed shape keeps the instances' difficulty alike, so a run's medians
    rest on comparable solves; the orientation picks one of the four diagonals.
    """
    r = rng.randrange(GRID_ROWS - FAR)
    c = rng.randrange(GRID_COLS - FAR)
    corners = [(r, c), (r + FAR, c + FAR), (r, c + FAR), (r + FAR, c)]
    (sr, sc), (gr, gc) = [(corners[0], corners[1]), (corners[1], corners[0]),
                          (corners[2], corners[3]), (corners[3], corners[2])][orientation]
    return _state(sr, sc), _state(gr, gc)


def _local_pair(rng: random.Random) -> tuple[int, int]:
    """A start and a goal 3-8 grid hops apart."""
    while True:
        r, c = rng.randrange(GRID_ROWS), rng.randrange(GRID_COLS)
        dr = rng.randint(-4, 4)
        dc = rng.randint(-4, 4)
        if not 3 <= abs(dr) + abs(dc) <= 8:
            continue
        if 0 <= r + dr < GRID_ROWS and 0 <= c + dc < GRID_COLS:
            return _state(r, c), _state(r + dr, c + dc)


def plan(workload: Workload, seed: int) -> list[PlannedPair]:
    """The workload's pairs, in the order their queries are sent."""
    # The grid takes the seed itself; the plan draws from a separate stream.
    rng = random.Random(f"{workload.name}/{seed}")
    seen: set = set()
    pairs: list[PlannedPair] = []
    # One hub near the centre of each grid quadrant; the seed moves it within
    # an 11 x 11 window, so every run spreads its goals alike.
    hubs = [_state(qr + rng.randrange(20, 31), qc + rng.randrange(20, 31))
            for qr in (0, GRID_ROWS // 2) for qc in (0, GRID_COLS // 2)]
    while len(pairs) < workload.pairs:
        i = len(pairs)
        if workload.name == "road-mid":
            # Every block of four queries covers all four diagonals and all four deltas.
            start, goal = _far_pair(rng, (i + i // 4) % 4)
            deltas = (Fraction(2 + i % 4, 10),)
        elif workload.name == "road-local":
            start, goal = _local_pair(rng)
            deltas = (Fraction(1 + i % 8, 10),)
        else:
            # Starts sit HUB_OFFSET (+-2) rows and columns from the hub, on one of
            # the four diagonals, so the queries' difficulty is alike.
            goal = hubs[i % len(hubs)]
            gr, gc = divmod(goal, GRID_COLS)
            sr = gr + (1 if (i // 4) % 2 else -1) * (HUB_OFFSET + rng.randint(-2, 2))
            sc = gc + (1 if (i // 8) % 2 else -1) * (HUB_OFFSET + rng.randint(-2, 2))
            start = _state(sr, sc)
            k = HUB_DELTAS
            deltas = tuple(Fraction(1 + (k * i + j) % 10, 10) for j in range(k)) + (INFEASIBLE,)
        if (start, goal) in seen:
            continue
        seen.add((start, goal))
        pairs.append(PlannedPair(start, goal, deltas))
    return pairs
