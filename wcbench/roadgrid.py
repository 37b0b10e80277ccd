"""Seeded road-like grid generator writing DIMACS `.gr` pairs plus a `.co` file.

The grid imitates a DIMACS distance/time map pair: states sit on a jittered
lattice of lat/lon points, cost1 is road length in metres and cost2 is travel
time in deciseconds. Every fifth row and column is an arterial (fast, 60-80
km/h); the rest are local streets (slow, 20-35 km/h) whose roads also wind a
little more. A short fast detour therefore competes with a long slow direct
route, so the two costs trade off as they do on real road maps.

Connectivity is guaranteed: every north-south link and every arterial
east-west link is kept, and only local east-west links are dropped.
"""

from __future__ import annotations

import math
import os
import random

ORIGIN_LAT = 40.70  # microdegree grid anchored near lower Manhattan
ORIGIN_LON = -74.02
STEP_LAT = 0.0009  # ~100 m
STEP_LON = 0.0012  # ~100 m at this latitude
ARTERIAL_EVERY = 5
DROP_LOCAL = 0.2  # share of local east-west links removed


def _metres(a: tuple[int, int], b: tuple[int, int]) -> float:
    """Great-circle distance between two (lat, lon) microdegree points."""
    lat1, lon1, lat2, lon2 = (math.radians(x / 1e6) for x in (a[0], a[1], b[0], b[1]))
    s = (math.sin((lat2 - lat1) / 2) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2)
    return 2 * 6371000.0 * math.asin(min(1.0, math.sqrt(s)))


def road_grid(seed: int, rows: int, cols: int):
    """Return (coords, arcs) for a rows x cols grid.

    coords[i] is the (lat, lon) of state i in integer microdegrees; arcs is a
    list of (u, v, cost1, cost2) with 0-based ids, both directions of every
    kept link, in a fixed order.
    """
    if rows < 2 or cols < 2:
        raise ValueError("grid needs at least 2 rows and 2 columns")
    rng = random.Random(seed)
    coords = []
    for r in range(rows):
        for c in range(cols):
            lat = ORIGIN_LAT + r * STEP_LAT + rng.uniform(-0.25, 0.25) * STEP_LAT
            lon = ORIGIN_LON + c * STEP_LON + rng.uniform(-0.25, 0.25) * STEP_LON
            coords.append((round(lat * 1e6), round(lon * 1e6)))

    arcs = []

    def link(u: int, v: int, arterial: bool) -> None:
        d = _metres(coords[u], coords[v])
        if arterial:
            length = d * rng.uniform(1.0, 1.05)
            kmh = rng.uniform(60.0, 80.0)
        else:
            length = d * rng.uniform(1.0, 1.3)
            kmh = rng.uniform(20.0, 35.0)
        cost1 = max(1, round(length))
        cost2 = max(1, round(length / (kmh / 3.6) * 10))
        arcs.append((u, v, cost1, cost2))
        arcs.append((v, u, cost1, cost2))

    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if r + 1 < rows:
                link(u, u + cols, c % ARTERIAL_EVERY == 0)
            if c + 1 < cols:
                arterial = r % ARTERIAL_EVERY == 0
                if arterial or rng.random() >= DROP_LOCAL:
                    link(u, u + 1, arterial)
    return coords, arcs


def write_dimacs(directory: str, seed: int, rows: int, cols: int) -> dict:
    """Write `grid.d.gr`, `grid.t.gr` and `grid.co` into `directory`.

    Returns the three paths under keys 'cost1', 'cost2' and 'coords', plus the
    grid's 'states' and 'arcs' counts.
    """
    coords, arcs = road_grid(seed, rows, cols)
    n = len(coords)
    paths = {
        "cost1": os.path.join(directory, "grid.d.gr"),
        "cost2": os.path.join(directory, "grid.t.gr"),
        "coords": os.path.join(directory, "grid.co"),
    }
    header = f"c road grid seed={seed} rows={rows} cols={cols}\np sp {n} {len(arcs)}\n"
    for key, col in (("cost1", 2), ("cost2", 3)):
        with open(paths[key], "w", encoding="ascii", newline="\n") as fh:
            fh.write(header)
            fh.writelines(f"a {a[0] + 1} {a[1] + 1} {a[col]}\n" for a in arcs)
    with open(paths["coords"], "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"c road grid seed={seed}\np aux sp co {n}\n")
        fh.writelines(f"v {i + 1} {lon} {lat}\n" for i, (lat, lon) in enumerate(coords))
    return {**paths, "states": n, "arcs": len(arcs)}
