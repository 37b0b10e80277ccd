"""Grid generator determinism, metric naming, workload plans and tracer counts."""

import json
import os
import re

import pytest

import bench
import roadgrid
import wcspp.solvers
from gate import Solve
from tracer import Tracer
from workloads import GRID_COLS, GRID_ROWS, INFEASIBLE, WORKLOADS, PlannedPair, plan
from wcspp.graph import load_dimacs

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def read_files(files):
    out = {}
    for key in ("cost1", "cost2", "coords"):
        with open(files[key], "rb") as fh:
            out[key] = fh.read()
    return out


def write(tmp_path, sub, seed):
    os.makedirs(tmp_path / sub)
    return read_files(roadgrid.write_dimacs(str(tmp_path / sub), seed, 12, 15))


def test_same_seed_gives_identical_files(tmp_path):
    assert write(tmp_path, "a", 7) == write(tmp_path, "b", 7)


def test_different_seed_gives_different_files(tmp_path):
    a = write(tmp_path, "a", 7)
    b = write(tmp_path, "b", 8)
    assert all(a[k] != b[k] for k in a)


def test_grid_is_strongly_connected_with_trading_costs(tmp_path):
    files = roadgrid.write_dimacs(str(tmp_path), 3, 12, 15)
    graph = load_dimacs(files["cost1"], files["cost2"], files["coords"])
    assert graph.state_count == 12 * 15
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v, c1, c2 in graph.successors(u):
            assert c1 >= 1 and c2 >= 1
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    assert len(seen) == graph.state_count  # arcs come in both directions
    speeds = {round(c1 / c2, 1) for _, _, c1, c2 in graph.edges()}
    assert max(speeds) > 2 * min(speeds)  # fast arterials and slow local streets


def test_metric_names_and_limits():
    assert len(bench.E2E_METRICS) <= 16
    assert len(bench.LAYER_METRICS) <= 128
    for name, unit in {**bench.E2E_METRICS, **bench.LAYER_METRICS}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert not set(bench.E2E_METRICS) & set(bench.LAYER_METRICS)


def test_benchmark_json_matches_the_code():
    path = os.path.join(bench.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_plans_are_seeded_and_unique(name):
    w = WORKLOADS[name]
    a = plan(w, 11)
    assert a == plan(w, 11)
    assert a != plan(w, 12)
    assert len(a) == w.pairs
    assert len({(p.start, p.goal) for p in a}) == len(a)
    for p in a:
        assert p.start != p.goal
        assert 0 <= p.start < GRID_ROWS * GRID_COLS and 0 <= p.goal < GRID_ROWS * GRID_COLS
    if name == "road-hub":
        assert len({p.goal for p in a}) == 4
        assert all(p.deltas[-1] == INFEASIBLE for p in a)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert bench.tail(list(range(1, 41))) == (75.0, 30)
    assert bench.tail(list(range(100, 0, -1))) == (90.0, 90)
    assert bench.tail([3.0] * 8) == (100.0, 3.0)


def test_scaled_times_follow_the_probe():
    solves = [Solve(i, "wc-astar", 0, 1, 5, seconds=0.01 * (i + 1),
                    ref_seconds=bench.PROBE_SECONDS * 2) for i in range(4)]
    assert bench.scaled(solves) == pytest.approx([0.005, 0.01, 0.015, 0.02])
    solves[0].ref_seconds = 1.0  # one disturbed probe sample is outvoted
    assert bench.scaled(solves) == pytest.approx([0.005, 0.01, 0.015, 0.02])
    probe = bench.SpeedProbe()
    assert 0 < probe.sample() < 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_counts_equal_program_counters(tmp_path, name):
    workload = WORKLOADS[name]
    files = roadgrid.write_dimacs(str(tmp_path), 2, 12, 12)
    graph = load_dimacs(files["cost1"], files["cost2"],
                        files["coords"] if workload.coords else None)
    n = graph.state_count
    # The workload's tightness mix on small-grid pairs.
    pairs = [PlannedPair(s, g, p.deltas) for (s, g), p in
             zip([(0, n - 1), (n - 1, 3), (5, n - 20)], plan(workload, 1))]
    queries = bench.derive_queries(graph, pairs)
    cfg = bench.queue_config(workload)
    original = wcspp.solvers.new_queue
    probe = bench.SpeedProbe()
    plain = bench.solve_queries(graph, cfg, queries, probe)
    tracer = Tracer()
    tracer.install()
    try:
        traced = bench.solve_queries(graph, cfg, queries, probe, tracer=tracer)
    finally:
        tracer.uninstall()
    assert wcspp.solvers.new_queue is original
    assert len(tracer.solves) == len(traced) == len(plain)
    assert sum(t.counts.get("push", 0) for t in tracer.solves) > 0
    assert bench._mismatches(traced, plain, tracer) == []
    metrics = bench.layer_metrics(graph, tracer, traced, plain)
    assert set(metrics) == set(bench.LAYER_METRICS)
    assert metrics["trace.counter_mismatches"] == 0


def test_timed_loop_solves_the_whole_set_whatever_the_time(tmp_path):
    workload = WORKLOADS["road-mid"]
    files = roadgrid.write_dimacs(str(tmp_path), 2, 12, 12)
    graph = load_dimacs(files["cost1"], files["cost2"], files["coords"])
    n = graph.state_count
    pairs = [PlannedPair(0, n - 1, p.deltas) for p in plan(workload, 1)[:2]]
    queries = bench.derive_queries(graph, pairs)
    cfg = bench.queue_config(workload)
    probe = bench.SpeedProbe()
    first, timed, changed = bench.timed_loop(graph, cfg, queries, probe, 1e-9)
    assert len(first) == len(timed) == len(queries) * len(bench.ALGORITHMS)
    first, timed, changed = bench.timed_loop(graph, cfg, queries, probe, 0.5)
    assert len(first) == len(queries) * len(bench.ALGORITHMS)
    assert len(timed) > len(first) and timed[:len(first)] == first
    assert changed == []
    assert {(s.query, s.algorithm) for s in timed} == {(s.query, s.algorithm) for s in first}
