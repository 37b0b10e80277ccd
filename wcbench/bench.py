"""Benchmark logic: set-up, the closed solve loop, metrics and the traced run.

Imported by `run.py` once `src` is on the path. Calls into the program go
through module attributes (`graph_mod.load_dimacs`, `cli_mod.gen_instances`,
`SOLVERS`), so the wrappers `tracer.py` installs are the ones called.
"""

from __future__ import annotations

import gc
import heapq
import json
import math
import os
import random
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

import wcspp.cli as cli_mod
import wcspp.graph as graph_mod
from wcspp.bounds import SEARCH
from wcspp.cli import QUEUE_KINDS, TIE_POLICIES
from wcspp.graph import ProblemInstance
from wcspp.pqueue import QueueConfig
from wcspp.solvers import SOLVERS, SolveOptions

import roadgrid
from gate import Solve, check_all
from tracer import Tracer
from workloads import GRID_COLS, GRID_ROWS, INFEASIBLE, WORKLOADS, plan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".wcbench-work")

ALGORITHMS = ("wc-astar", "wc-ba", "wc-ebba", "wc-ebba-par")
SETUP_REPEATS = 3
PROBE_NODES = 1000
PROBE_SECONDS = 0.0013  # probe time that reported times are scaled to
PROBE_WINDOW = 5  # probe samples on each side of a solve that set its speed factor
TAIL_BEYOND = 10  # a tail percentile needs at least this many solves above it

E2E_METRICS = {
    "setup_s": "s",
    "solve_p50_ms": "ms",
    "solve_tail_ms": "ms",
    "solves_per_s": "1/s",
    "peak_rss_mb": "MB",
    **{f"{a}.solve_p50_ms": "ms" for a in ALGORITHMS},
}

LAYER_METRICS = {
    "graph.load_s": "s",
    "graph.states": "count",
    "graph.arcs": "count",
    "graph.successors_calls": "count",
    "cli.gen_instances_s": "s",
    "bounds.init_s": "s",
    "bounds.init_share": "ratio",
    "bounds.geo_heuristic_s": "s",
    "bounds.budget_factors_s": "s",
    "bounds.settled_states": "count",
    "bounds.valid_frac": "ratio",
    "bounds.init_decided_frac": "ratio",
    "solvers.search_s": "s",
    "solvers.search_share": "ratio",
    "solvers.self_s": "s",
    "solvers.expansions": "count",
    "solvers.generations": "count",
    "solvers.prunes_dominance": "count",
    "solvers.prunes_state_ub": "count",
    "solvers.prunes_global": "count",
    "solvers.stale_reinserts": "count",
    "solvers.incumbents": "count",
    "solvers.reconstruct_s": "s",
    "solvers.expand_per_pop": "ratio",
    "solvers.push_per_generation": "ratio",
    "pqueue.pushes": "count",
    "pqueue.pops": "count",
    "pqueue.queue_ops": "count",
    "pqueue.peak_size": "count",
    "pqueue.ops_per_pop": "ratio",
    "pqueue.push_s": "s",
    "pqueue.pop_s": "s",
    "pqueue.new_queue_s": "s",
    "nodepool.slots": "count",
    "nodepool.blocks": "count",
    "nodepool.reuse_frac": "ratio",
    "nodepool.alloc_s": "s",
    "nodepool.recycle_s": "s",
    "nodepool.record_expansion_s": "s",
    "trace.solves": "count",
    "trace.overhead_frac": "ratio",
    "trace.counter_mismatches": "count",
    "trace.slowest_decile_core_share": "ratio",
    "trace.slowest_decile_bounds_share": "ratio",
}


@dataclass(frozen=True)
class Query:
    index: int
    start: int
    goal: int
    weight_limit: int


class SpeedProbe:
    """Tracks the machine's current speed with a fixed pure-Python Dijkstra.

    On a shared host the same solve can take 1.7x longer from one minute to
    the next. The probe does the same kind of work as the solvers (heap, dict
    and tuple operations), so its time rises and falls with theirs: on a
    shared 2-vCPU x86-64 container, identical repeated solves whose 15 s
    medians spread by 22% spread by 2% once divided by the probe time next to
    them. Every reported time is therefore
    wall time x PROBE_SECONDS / (probe time around it): seconds at a fixed
    machine speed. The raw wall times are printed alongside.
    """

    def __init__(self):
        rng = random.Random(0)
        self.adj = [[(rng.randrange(PROBE_NODES), rng.randint(1, 100)) for _ in range(4)]
                    for _ in range(PROBE_NODES)]

    def sample(self) -> float:
        """Seconds one probe run takes now."""
        t0 = perf_counter()
        dist = {0: 0}
        heap = [(0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, c in self.adj[u]:
                nd = d + c
                if nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        return perf_counter() - t0


def scaled(solves: list[Solve]) -> list[float]:
    """Each solve's wall time at the probe's reference speed, using the median
    probe time of the PROBE_WINDOW samples on either side of it."""
    refs = [s.ref_seconds for s in solves]
    out = []
    for i, s in enumerate(solves):
        window = refs[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 1]
        out.append(s.seconds * PROBE_SECONDS / statistics.median(window))
    return out


def derive_queries(graph, pairs) -> list[Query]:
    """Weight limits for the planned pairs via `wcspp.cli.gen_instances`.

    An 'infeasible' entry is derived from the delta = 0 row (W = h2) as W = h2 - 1.
    """
    queries = []
    for p in pairs:
        numeric = [Fraction(0) if d == INFEASIBLE else d for d in p.deltas]
        rows = cli_mod.gen_instances(graph, [(p.start, p.goal)], numeric)
        if len(rows) != len(p.deltas):
            raise RuntimeError(f"planned pair {p.start} -> {p.goal} is unreachable")
        for row, d in zip(rows, p.deltas):
            queries.append(Query(len(queries), p.start, p.goal,
                                 int(row[3]) - (d == INFEASIBLE)))
    return queries


def set_up(workload, files: dict, pairs):
    """Load the grid and derive the workload's weight limits: what setup_s times."""
    graph = graph_mod.load_dimacs(files["cost1"], files["cost2"],
                                  files["coords"] if workload.coords else None)
    return graph, derive_queries(graph, pairs)


def solve_queries(graph, cfg, queries, probe: SpeedProbe, tracer=None) -> list:
    """Solve each query with every algorithm, in order; the probe is sampled
    before every solve."""
    solves = []
    for q in queries:
        inst = ProblemInstance(q.start, q.goal, q.weight_limit)
        for algorithm in ALGORITHMS:
            solver = SOLVERS[algorithm]
            s = Solve(q.index, algorithm, q.start, q.goal, q.weight_limit, 0.0,
                      ref_seconds=probe.sample())
            t0 = perf_counter()
            try:
                if tracer is None:
                    s.outcome = solver(graph, inst, cfg, SolveOptions())
                else:
                    with tracer.solve(f"solve.{algorithm}"):
                        s.outcome = solver(graph, inst, cfg, SolveOptions())
            except Exception as exc:  # a failing solve is counted, the loop goes on
                s.error = repr(exc)
            s.seconds = perf_counter() - t0
            solves.append(s)
    return solves


def answer(s: Solve):
    return (s.error,) if s.outcome is None else (
        s.outcome.status, s.outcome.costs, tuple(s.outcome.path or ()))


def timed_loop(graph, cfg, queries, probe: SpeedProbe, seconds: float):
    """Solve the whole query set once, then repeat it query by query until
    `seconds` have passed since the start.

    The set is fixed by the seed, so the distinct solves (and with them the
    gate's verdicts) do not depend on how fast the machine is; the repeats
    only add timed samples. Returns the first pass, every timed solve in
    order, and the repeats whose answer differs from the first pass.
    """
    deadline = perf_counter() + seconds
    first = solve_queries(graph, cfg, queries, probe)
    timed = list(first)
    by_key = {(s.query, s.algorithm): s for s in first}
    changed = []
    i = 0
    while perf_counter() < deadline:
        repeat = solve_queries(graph, cfg, [queries[i % len(queries)]], probe)
        for s in repeat:
            if answer(s) != answer(by_key[s.query, s.algorithm]):
                changed.append(s)
        timed += repeat
        i += 1
    return first, timed, changed


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest nearest-rank percentile that still
    has TAIL_BEYOND samples above it: the (TAIL_BEYOND + 1)-th largest value.

    The percentile moves smoothly with the sample count, so runs whose solve
    counts differ a little report nearly the same percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def queue_config(workload):
    return QueueConfig(QUEUE_KINDS[workload.queue], 0, 0, 1, TIE_POLICIES[workload.tie])


def report_failures(failures) -> None:
    for s, reason in failures:
        print(f"FAIL query={s.query} algorithm={s.algorithm} start={s.start} "
              f"goal={s.goal} W={s.weight_limit}: {reason}")


def run_untraced(workload, seed: int, seconds: float, files: dict, pairs) -> dict:
    probe = SpeedProbe()
    setups = []
    for _ in range(SETUP_REPEATS):
        graph = queries = None
        gc.collect()
        refs = [probe.sample() for _ in range(3)]
        t0 = perf_counter()
        graph, queries = set_up(workload, files, pairs)
        elapsed = perf_counter() - t0
        refs += [probe.sample() for _ in range(3)]
        setups.append((elapsed, elapsed * PROBE_SECONDS / statistics.median(refs)))
    cfg = queue_config(workload)

    gc.collect()
    t0 = perf_counter()
    solves, timed, changed = timed_loop(graph, cfg, queries, probe, seconds)
    loop_s = perf_counter() - t0

    failures = check_all(graph, solves)
    failed = {(s.query, s.algorithm) for s, _ in failures}
    for s in changed:
        if (s.query, s.algorithm) not in failed:
            failed.add((s.query, s.algorithm))
            failures.append((s, "a repeat answered differently from the first solve"))
    report_failures(failures)
    # Each distinct solve counts once, at the median of its timed repeats.
    scaled_times = scaled(timed)
    per_solve: dict = {}
    for s, t in zip(timed, scaled_times):
        per_solve.setdefault((s.query, s.algorithm), []).append(t)
    times = [statistics.median(per_solve[s.query, s.algorithm]) for s in solves]
    pct, tail_value = tail(times)
    metrics = {
        "setup_s": statistics.median(cal for _, cal in setups),
        "solve_p50_ms": statistics.median(times) * 1e3,
        "solve_tail_ms": tail_value * 1e3,
        "solves_per_s": len(timed) / sum(scaled_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    for a in ALGORITHMS:
        metrics[f"{a}.solve_p50_ms"] = statistics.median(
            t for s, t in zip(solves, times) if s.algorithm == a) * 1e3
    raw = [s.seconds for s in timed]
    print(f"info queries={len(queries)} solves={len(solves)} timed_solves={len(timed)} "
          f"loop_s={loop_s:.3f} solve_tail=p{pct:.1f} of {len(solves)} solves "
          f"fail_frac={len(failures) / len(solves):.4f} ({len(failures)}/{len(solves)})")
    print(f"info wall-clock: setup_s={statistics.median(w for w, _ in setups):.4f} "
          f"solve_p50_ms={statistics.median(raw) * 1e3:.3f} "
          f"solve_tail_ms={tail(raw)[1] * 1e3:.3f} solves_per_s={len(raw) / sum(raw):.3f} "
          f"probe_median_ms={statistics.median(s.ref_seconds for s in timed) * 1e3:.4f}")
    return {"solves": solves, "failures": failures, "metrics": metrics, "correct": True}


def _span_sums(tracer: Tracer) -> tuple[dict, list[float]]:
    """Per-solve {span name: seconds} for the children of each solve's root span,
    and each solve's root span duration."""
    children: dict[int, dict[str, float]] = {}
    totals = [0.0] * len(tracer.solves)
    for sp in tracer.spans:
        if sp.solve < 0:
            continue
        if sp.parent < 0:
            totals[sp.solve] = sp.end - sp.start
        else:
            by_name = children.setdefault(sp.solve, {})
            by_name[sp.name] = by_name.get(sp.name, 0.0) + sp.end - sp.start
    return children, totals


def _mismatches(traced: list[Solve], plain: list[Solve], tracer: Tracer) -> list[str]:
    """Traced per-solve counts that disagree with the program's own counters,
    and traced solves whose answer differs from the untraced pass."""
    out = []
    new_queues: dict[int, int] = {}
    for sp in tracer.spans:
        if sp.name == "pqueue.new_queue":
            new_queues[sp.solve] = new_queues.get(sp.solve, 0) + 1
    for i, (s, p, t) in enumerate(zip(traced, plain, tracer.solves)):
        if s.outcome is None or p.outcome is None:
            continue
        m = s.outcome.metrics
        c = t.counts
        checks = {
            "pushes": (c.get("push", 0), m.pushes),
            "pops": (c.get("pop", 0), m.pops),
            "allocations": (c.get("allocate", 0), m.pushes - m.stale_reinserts),
            "recycles": (c.get("recycle", 0), m.pops - m.stale_reinserts),
            "search successors calls": (t.successors_search, m.expansions),
            "queue peak": (sum(peak for _, peak in t.queue_sizes.values()), m.queue_peak),
            "queues": (new_queues.get(i, 0), len(s.outcome.queue_stats)),
            "queue-stat pushes": (c.get("push", 0),
                                  sum(q.pushes for q in s.outcome.queue_stats.values())),
            "untraced answer": ((s.outcome.status, s.outcome.costs),
                                (p.outcome.status, p.outcome.costs)),
            "untraced expansions": (m.expansions, p.outcome.metrics.expansions),
        }
        for what, (seen, expected) in checks.items():
            if seen != expected:
                out.append(f"solve {i} ({s.algorithm}, query {s.query}): {what} "
                           f"traced {seen}, program {expected}")
    return out


def layer_metrics(graph, tracer: Tracer, traced: list[Solve], plain: list[Solve]) -> dict:
    children, totals = _span_sums(tracer)
    n = len(traced)
    sums: dict[str, float] = {}
    cores = []
    for i, t in enumerate(tracer.solves):
        ch = children.get(i, {})
        init = sum(v for k, v in ch.items() if k.startswith("bounds.init_"))
        parts = {
            "init": init,
            "geo": ch.get("bounds.geo_heuristic", 0.0),
            "bf": ch.get("bounds.budget_factors", 0.0),
            "nq": ch.get("pqueue.new_queue", 0.0),
            "rec": ch.get("solvers.reconstruct_solution", 0.0),
            "push": t.busy.get("push", 0.0),
            "pop": t.busy.get("pop", 0.0) + t.busy.get("peek", 0.0),
            "alloc": t.busy.get("allocate", 0.0),
            "recycle": t.busy.get("recycle", 0.0),
            "record": t.busy.get("record_expansion", 0.0),
        }
        for k, v in parts.items():
            sums[k] = sums.get(k, 0.0) + v
        bounds_s = init + parts["bf"]
        cores.append((totals[i], totals[i] - bounds_s, bounds_s))

    total = sum(totals)
    pq_s = sums["push"] + sums["pop"] + sums["nq"]
    np_s = sums["alloc"] + sums["recycle"] + sums["record"]
    ms = [s.outcome.metrics for s in traced if s.outcome is not None]
    valid = [t.valid_states for t in tracer.solves if t.valid_states is not None]
    counts = {k: sum(t.counts.get(k, 0) for t in tracer.solves)
              for k in ("push", "pop", "allocate")}
    expansions = sum(m.expansions for m in ms)
    generations = sum(m.generations for m in ms)
    slots = sum(m.pool_slots for m in ms)
    queue_ops = sum(m.queue_ops for m in ms)

    cores.sort(reverse=True)
    slow = cores[:max(1, math.ceil(n / 10))]
    slow_total = sum(c[0] for c in slow)
    setup = [sp for sp in tracer.spans if sp.solve < 0]
    plain_total = sum(scaled(plain))
    traced_total = sum(scaled(traced))
    mismatches = _mismatches(traced, plain, tracer)
    for line in mismatches:
        print(f"MISMATCH {line}")

    def ratio(a, b):
        return a / b if b else 0.0

    bounds_s = sums["init"] + sums["bf"]
    shares = {"bounds": bounds_s, "solvers": total - bounds_s - pq_s - np_s,
              "pqueue": pq_s, "nodepool": np_s}
    print(f"info layer self-time shares of {total:.3f} s solving: "
          + " ".join(f"{k}={ratio(v, total):.3f}" for k, v in shares.items()))

    return {
        "graph.load_s": sum(sp.end - sp.start for sp in setup if sp.name == "graph.load_dimacs"),
        "graph.states": graph.state_count,
        "graph.arcs": graph.edge_count,
        "graph.successors_calls": tracer.setup_successors + sum(
            t.successors_init + t.successors_search for t in tracer.solves),
        "cli.gen_instances_s": sum(sp.end - sp.start for sp in setup
                                   if sp.name == "cli.gen_instances"),
        "bounds.init_s": sums["init"],
        "bounds.init_share": ratio(sums["init"], total),
        "bounds.geo_heuristic_s": sums["geo"],
        "bounds.budget_factors_s": sums["bf"],
        "bounds.settled_states": sum(t.settled_states for t in tracer.solves),
        "bounds.valid_frac": ratio(sum(valid), len(valid) * graph.state_count),
        "bounds.init_decided_frac": ratio(sum(t.init_status != SEARCH for t in tracer.solves), n),
        "solvers.search_s": total - sums["init"] - sums["rec"],
        "solvers.search_share": ratio(total - sums["init"] - sums["rec"], total),
        "solvers.self_s": shares["solvers"],
        "solvers.expansions": expansions,
        "solvers.generations": generations,
        "solvers.prunes_dominance": sum(m.prunes_dominance for m in ms),
        "solvers.prunes_state_ub": sum(m.prunes_state_ub for m in ms),
        "solvers.prunes_global": sum(m.prunes_global for m in ms),
        "solvers.stale_reinserts": sum(m.stale_reinserts for m in ms),
        "solvers.incumbents": sum(t.incumbents for t in tracer.solves),
        "solvers.reconstruct_s": sums["rec"],
        "solvers.expand_per_pop": ratio(expansions, counts["pop"]),
        "solvers.push_per_generation": ratio(counts["push"], generations),
        "pqueue.pushes": counts["push"],
        "pqueue.pops": counts["pop"],
        "pqueue.queue_ops": queue_ops,
        "pqueue.peak_size": max((sum(p for _, p in t.queue_sizes.values())
                                 for t in tracer.solves), default=0),
        "pqueue.ops_per_pop": ratio(queue_ops, counts["pop"]),
        "pqueue.push_s": sums["push"],
        "pqueue.pop_s": sums["pop"],
        "pqueue.new_queue_s": sums["nq"],
        "nodepool.slots": slots,
        "nodepool.blocks": sum(m.pool_blocks for m in ms),
        "nodepool.reuse_frac": 1 - ratio(slots, counts["allocate"]) if counts["allocate"] else 0.0,
        "nodepool.alloc_s": sums["alloc"],
        "nodepool.recycle_s": sums["recycle"],
        "nodepool.record_expansion_s": sums["record"],
        "trace.solves": n,
        "trace.overhead_frac": ratio(traced_total, plain_total) - 1,
        "trace.counter_mismatches": len(mismatches),
        "trace.slowest_decile_core_share": ratio(sum(c[1] for c in slow), slow_total),
        "trace.slowest_decile_bounds_share": ratio(sum(c[2] for c in slow), slow_total),
    }


def run_traced(workload, seed: int, files: dict, pairs) -> dict:
    """Traced set-up once, then a fixed query set untraced and traced."""
    tracer = Tracer()
    tracer.install()
    try:
        graph, queries = set_up(workload, files, pairs)
    finally:
        tracer.uninstall()
    queries = queries[:workload.trace_queries]
    cfg = queue_config(workload)

    probe = SpeedProbe()
    gc.collect()
    plain = solve_queries(graph, cfg, queries, probe)
    gc.collect()
    tracer.install()
    try:
        traced = solve_queries(graph, cfg, queries, probe, tracer=tracer)
    finally:
        tracer.uninstall()

    failures = check_all(graph, traced)
    report_failures(failures)
    metrics = layer_metrics(graph, tracer, traced, plain)
    tracer.dump(os.path.join(WORK, f"trace-{workload.name}-seed{seed}.json"))
    print(f"info traced queries={len(queries)} solves={len(traced)} "
          f"untraced_s={sum(s.seconds for s in plain):.3f} "
          f"traced_s={sum(s.seconds for s in traced):.3f} "
          f"fail_frac={len(failures) / len(traced):.4f} ({len(failures)}/{len(traced)})")
    return {"solves": traced, "failures": failures, "metrics": metrics,
            "correct": metrics["trace.counter_mismatches"] == 0}


def main(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[workload_name]
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    try:
        files = roadgrid.write_dimacs(work, seed, GRID_ROWS, GRID_COLS)
        pairs = plan(workload, seed)
        if trace:
            result = run_traced(workload, seed, files, pairs)
        else:
            result = run_untraced(workload, seed, seconds, files, pairs)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = LAYER_METRICS if trace else E2E_METRICS
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": len(result["solves"]),
        "failed": len(result["failures"]),
        "metrics": metrics,
    }))
    return 0
