"""Command-line front end: single solves, instance generation with the
tightness formula, batch benchmarking with an instrumentation CSV, the
brute-force cross-check suite, and cost randomization.

Exit codes for `solve`: 0 optimal, 2 infeasible, 3 timeout. Every command
exits 64 on a usage error: conflicting flags, an unknown or out-of-range flag
value, a state outside the graph, or a graph or instance file that cannot be
read or parsed (one `error:` line).
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, TextIO

from .bounds import ATTR1, ATTR2, BoundedSearch, goal_trees
from .caches import geo_tables, list_pool
from .graph import BACKWARD, COST_MAX, Graph, ProblemInstance, load_dimacs, random_graph, \
    randomize_cost2, write_gr
from .oracle import constrained_optimum
from .pqueue import (BINARY_HEAP, BUCKET, HYBRID, QueueConfig, TIE_NONE_FIFO,
                     TIE_NONE_LIFO, TIE_SECONDARY)
from .solvers import SOLVERS, STATUS_INFEASIBLE, STATUS_OPTIMAL, SolveOptions, \
    SolveOutcome, path_cost

EXIT_OPTIMAL = 0
EXIT_INFEASIBLE = 2
EXIT_TIMEOUT = 3
EXIT_USAGE = 64

QUEUE_KINDS = {"bucket": BUCKET, "hybrid": HYBRID, "binary-heap": BINARY_HEAP}
TIE_POLICIES = {"none-lifo": TIE_NONE_LIFO, "none-fifo": TIE_NONE_FIFO,
                "secondary": TIE_SECONDARY}

CSV_VERSION_LINE = "# wcspp-bench-csv v1"
CSV_COLUMNS = [
    "instance", "algorithm", "queue", "tie", "status", "cost1", "cost2",
    "runtime_us", "expansions", "generations", "prunes_dominance",
    "prunes_state_ub", "prunes_global", "queue_ops", "peak_pool_blocks",
]


def _warn(msg: str) -> None:
    print(f"warning: {msg}", file=sys.stderr)


def _usage_error(message) -> int:
    """Report a usage error on one `error:` line; returns EXIT_USAGE."""
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def pair_cost2_bounds(graph: Graph, start: int, goal: int) -> Optional[tuple[int, int]]:
    """(h2, ub2) for a pair: cost2 of its cost2-shortest and cost1-shortest
    paths (each lexicographically least, ties broken on the other cost), or
    None when no path joins them. Both are `start`'s labels in searches
    from the goal over the reversed graph: a lexicographic label is the
    least (primary, secondary) over the same paths from either end. They are
    read from the goal's cost2 and cost1 trees (`GoalTrees.reach`, which
    grows a tree until it holds `start`), shared by the pairs of one goal;
    with coordinates no solve reads a cost1 goal tree, so ub2 comes from a
    search stopped at `start` instead, and not recorded."""
    cache = goal_trees(graph)
    tree, i = cache.reach(graph, (goal, BACKWARD, ATTR2), start)
    if i < 0:
        return None
    h2 = tree.dist[i]
    if graph.coords is None:
        tree, i = cache.reach(graph, (goal, BACKWARD, ATTR1), start)
        return h2, tree.comp[i]
    search = BoundedSearch(graph, goal, BACKWARD, ATTR1, target=start).run()
    ub2 = search.comp[start]
    list_pool(graph).give(search.taken())
    return h2, ub2


def weight_from_tightness(h2: int, ub2: int, delta: Fraction) -> int:
    """W = h2 + delta * (ub2 - h2), rounded half-up to an integer."""
    exact = h2 + delta * (ub2 - h2)
    return int(exact + Fraction(1, 2)) if exact >= 0 else -int(-exact + Fraction(1, 2))


@dataclass
class InstanceRow:
    start: int  # 0-based
    goal: int
    marker: str  # "w" or "delta"
    value: str


def write_instances(out: TextIO, cost1_file: str, cost2_file: str,
                    rows: list[tuple[int, int, str, str]]) -> None:
    out.write("# wcspp instance file\n")
    out.write(f"graph {cost1_file} {cost2_file}\n")
    for start, goal, marker, value in rows:
        out.write(f"{start + 1} {goal + 1} {marker} {value}\n")


def read_instances(path: str) -> tuple[Optional[tuple[str, str]], list[InstanceRow]]:
    header = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "graph":
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: malformed graph header")
                header = (parts[1], parts[2])
                continue
            try:
                if len(parts) != 4 or parts[2] not in ("w", "delta"):
                    raise ValueError
                _row_value(parts[2], parts[3])
                rows.append(InstanceRow(int(parts[0]) - 1, int(parts[1]) - 1, parts[2],
                                        parts[3]))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected '<start> <goal> w|delta "
                                 f"<value>', got {line!r}") from None
    return header, rows


def _row_value(marker: str, text: str):
    """A row's value: an int weight limit after 'w', a tightness after
    'delta'. Raises ValueError on bad text."""
    return int(text) if marker == "w" else tightness(text)


def tightness(text: str) -> Fraction:
    """A constraint tightness, a number in [0, 1]; raises ValueError otherwise.
    Instance rows, `solve --delta` and `gen-instances --deltas` all read it here."""
    try:
        delta = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"tightness {text!r} is not a number") from None
    if not 0 <= delta <= 1:
        raise ValueError(f"tightness {text!r} is outside [0, 1]")
    return delta


def _check_row_states(graph: Graph, row: InstanceRow) -> None:
    """Raise ValueError, naming the row, if its start or goal is not a state
    of `graph`."""
    n = graph.state_count
    if not (0 <= row.start < n and 0 <= row.goal < n):
        raise ValueError(f"instance row '{row.start + 1} {row.goal + 1} {row.marker} "
                         f"{row.value}': states must be 1..{n}")


def resolve_weight(graph: Graph, row: InstanceRow) -> Optional[int]:
    """Turn an instance row into an integer weight limit (None if unreachable).
    Raises ValueError for a state outside the graph or a negative limit."""
    _check_row_states(graph, row)
    weight = _row_value(row.marker, row.value)
    if row.marker == "delta":
        bounds2 = pair_cost2_bounds(graph, row.start, row.goal)
        if bounds2 is None:
            return None
        weight = weight_from_tightness(bounds2[0], bounds2[1], weight)
    if weight < 0:
        raise ValueError(f"weight limit {weight} is negative")
    return weight


def gen_instances(graph: Graph, pairs: list[tuple[int, int]], deltas: list[Fraction],
                  include_reversed: bool = False) -> list[tuple[int, int, str, str]]:
    """Rows of (start, goal, 'w', W) for each pair x delta; 0-based states."""
    all_pairs = list(pairs)
    if include_reversed:
        all_pairs += [(g, s) for s, g in pairs]
    rows = []
    for start, goal in all_pairs:
        bounds2 = pair_cost2_bounds(graph, start, goal)
        if bounds2 is None:
            _warn(f"pair {start + 1} -> {goal + 1} is unreachable; skipped")
            continue
        h2, ub2 = bounds2
        if ub2 == h2:
            _warn(f"pair {start + 1} -> {goal + 1} has a degenerate corridor "
                  f"(ub2 == h2 == {h2}); emitting W = {h2}")
        for delta in deltas:
            w = weight_from_tightness(h2, ub2, delta)
            rows.append((start, goal, "w", str(w)))
    return rows


def _queue_config(kind_flag: str, tie_flag: str, delta_f: int) -> QueueConfig:
    cfg = QueueConfig(QUEUE_KINDS[kind_flag], 0, 0, delta_f, TIE_POLICIES[tie_flag])
    cfg.validate()
    return cfg


def valid_queue_configs(delta_f: int = 1) -> dict[tuple[str, str], QueueConfig]:
    """Every valid queue configuration, keyed by its (kind, tie) flags, in
    QUEUE_KINDS x TIE_POLICIES order."""
    configs = {}
    for kind_flag in QUEUE_KINDS:
        for tie_flag in TIE_POLICIES:
            try:
                configs[kind_flag, tie_flag] = _queue_config(kind_flag, tie_flag, delta_f)
            except ValueError:
                pass  # a kind that cannot honour the tie policy
    return configs


def _solve_options(args) -> SolveOptions:
    schedule = ("threads", 2) if args.threads else ("lockstep", args.lockstep or 1)
    return SolveOptions(schedule=schedule, timeout=args.timeout)


def cmd_solve(args) -> int:
    try:
        cfg = _queue_config(args.queue, args.tie, args.delta_f)
        options = _solve_options(args)
    except ValueError as exc:
        return _usage_error(exc)
    try:
        graph = load_dimacs(args.cost1, args.cost2, args.coords)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    start, goal = args.start - 1, args.goal - 1
    if not (0 <= start < graph.state_count and 0 <= goal < graph.state_count):
        return _usage_error(f"--start and --goal must be states 1..{graph.state_count}")
    if args.weight_limit is not None:
        weight = args.weight_limit
    else:
        bounds2 = pair_cost2_bounds(graph, start, goal)
        if bounds2 is None:
            print("infeasible")
            return EXIT_INFEASIBLE
        weight = weight_from_tightness(bounds2[0], bounds2[1], args.delta)
    if weight < 0:
        return _usage_error(f"the weight limit must be non-negative, got {weight}")
    inst = ProblemInstance(start, goal, weight)
    outcome = SOLVERS[args.algorithm](graph, inst, cfg, options)
    return _print_outcome(outcome, args.print_path)


def _print_outcome(outcome: SolveOutcome, print_path: bool) -> int:
    m = outcome.metrics
    if outcome.status == STATUS_OPTIMAL:
        print(f"optimal {outcome.costs[0]} {outcome.costs[1]}")
    elif outcome.status == STATUS_INFEASIBLE:
        print("infeasible")
    else:
        if outcome.costs:
            print(f"timeout (incumbent {outcome.costs[0]} {outcome.costs[1]}, "
                  f"optimality not proven)")
        else:
            print("timeout (no incumbent)")
    if print_path and outcome.path:
        print("path " + " ".join(str(s + 1) for s in outcome.path))
    print(f"expansions {m.expansions} generations {m.generations} "
          f"prunes {m.prunes_dominance}/{m.prunes_state_ub}/{m.prunes_global} "
          f"queue-ops {m.queue_ops} pool-blocks {m.pool_blocks} "
          f"time {m.wall_time_s * 1e6:.0f}us", file=sys.stderr)
    if outcome.status == STATUS_OPTIMAL:
        return EXIT_OPTIMAL
    if outcome.status == STATUS_INFEASIBLE:
        return EXIT_INFEASIBLE
    return EXIT_TIMEOUT


def _pair(token: str) -> tuple[int, int]:
    """A 1-based 'start,goal' token as a 0-based pair; raises ValueError
    naming the token otherwise."""
    try:
        start, goal = map(int, token.split(","))
    except ValueError:
        raise ValueError(f"--pairs token {token!r} is not 'start,goal'") from None
    return start - 1, goal - 1


def cmd_gen_instances(args) -> int:
    try:
        graph = load_dimacs(args.cost1, args.cost2, args.coords)
        pairs = [_pair(token) for token in args.pairs.split()]
        if not all(0 <= u < graph.state_count for pair in pairs for u in pair):
            raise ValueError(f"--pairs states must be 1..{graph.state_count}")
        deltas = [tightness(d) for d in args.deltas.split(",")]
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    rows = gen_instances(graph, pairs, deltas, include_reversed=args.include_reversed)
    if args.output == "-":
        write_instances(sys.stdout, args.cost1, args.cost2, rows)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            write_instances(fh, args.cost1, args.cost2, rows)
    return 0


def run_bench(graph: Graph, rows: list[InstanceRow], algorithms: list[str],
              queue_flags: list[str], tie_flags: list[str], repeats: int,
              delta_f: int, out: TextIO, timeout: Optional[float] = None) -> int:
    """Run the full (instance x algorithm x queue x tie) matrix; one CSV row per
    cell, taken from the repeat with the median runtime. Every row's weight
    is resolved first. Before a row's cells its goal's tree is looked up at
    the largest W among that goal's rows, so `runtime_us` excludes the build
    and a goal is built once while the cache holds it; a start tree (the
    parallel plan's round-one cost1 search, on a graph without coordinates)
    is built by the first solve that asks for it. A row whose weight
    cannot be resolved (a state outside the graph, a negative limit) gives
    error cells. `repeats` below 1 raises ValueError."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    configs = valid_queue_configs(delta_f)
    resolved = []  # (row, instance_id, weight, failed)
    largest: dict[int, int] = {}  # goal -> the largest W among its rows
    for row in rows:
        instance_id = f"{row.start + 1}-{row.goal + 1}-{row.marker}{row.value}"
        try:
            weight, failed = resolve_weight(graph, row), False
        except ValueError as exc:  # a bad row must not abort the batch
            _warn(f"instance {instance_id}: {exc}")
            weight, failed = None, True
        if weight is not None:
            largest[row.goal] = max(weight, largest.get(row.goal, weight))
        resolved.append((row, instance_id, weight, failed))
    writer = csv.writer(out)
    out.write(CSV_VERSION_LINE + "\n")
    writer.writerow(CSV_COLUMNS)
    count = 0
    for row, instance_id, weight, failed in resolved:
        if weight is not None:
            goal_trees(graph).prefix(graph, (row.goal, BACKWARD, ATTR2), largest[row.goal])
        for algorithm in algorithms:
            for queue_flag in queue_flags:
                for tie_flag in tie_flags:
                    cfg = configs.get((queue_flag, tie_flag))
                    if cfg is None:
                        continue  # unsupported combination, not a cell
                    if failed:
                        record = ["error"] + _NO_RESULT
                    else:
                        record = _bench_cell(graph, row, weight, algorithm, cfg, repeats,
                                             timeout)
                    writer.writerow([instance_id, algorithm, queue_flag, tie_flag]
                                    + record)
                    count += 1
    return count


# The columns after `status` of a cell that has no solve to report.
_NO_RESULT = ["", "", 0, 0, 0, 0, 0, 0, 0, 0]


def _bench_cell(graph: Graph, row: InstanceRow, weight: Optional[int], algorithm: str,
                cfg: QueueConfig, repeats: int, timeout: Optional[float]) -> list:
    if weight is None:
        return ["unreachable"] + _NO_RESULT
    runs = []
    for _ in range(repeats):
        try:
            inst = ProblemInstance(row.start, row.goal, weight)
            t0 = time.monotonic()
            outcome = SOLVERS[algorithm](graph, inst, cfg, SolveOptions(timeout=timeout))
            elapsed = time.monotonic() - t0
            runs.append((elapsed, outcome))
        except Exception as exc:  # a failing cell must not abort the batch
            _warn(f"{algorithm}/{cfg.kind}: {exc}")
            return ["error"] + _NO_RESULT
    runs.sort(key=lambda r: r[0])
    elapsed, outcome = runs[len(runs) // 2]  # median runtime run
    m = outcome.metrics
    c1 = outcome.costs[0] if outcome.costs else ""
    c2 = outcome.costs[1] if outcome.costs else ""
    return [outcome.status, c1, c2, round(elapsed * 1e6), m.expansions, m.generations,
            m.prunes_dominance, m.prunes_state_ub, m.prunes_global, m.queue_ops,
            m.pool_blocks]


def cmd_bench(args) -> int:
    if args.cost1 and not args.cost2:
        return _usage_error("--cost1 needs --cost2")
    if args.cost2 and not args.cost1:
        return _usage_error("--cost2 needs --cost1")
    try:
        header, rows = read_instances(args.instances)
        if args.cost1:
            graph = load_dimacs(args.cost1, args.cost2, args.coords)
        elif header:
            graph = load_dimacs(header[0], header[1], args.coords)
        else:
            return _usage_error("no graph files given and instance file has no header")
        for row in rows:
            _check_row_states(graph, row)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    algorithms = args.algorithms.split(",")
    queues = args.queues.split(",")
    ties = args.ties.split(",")
    for what, names, known in (("algorithm", algorithms, SOLVERS),
                               ("queue kind", queues, QUEUE_KINDS),
                               ("tie policy", ties, TIE_POLICIES)):
        for name in names:
            if name not in known:
                return _usage_error(f"unknown {what} {name!r}; choose from "
                                    f"{', '.join(sorted(known))}")
    if args.delta_f < 1:
        return _usage_error(f"--delta-f must be at least 1, got {args.delta_f}")
    if args.repeats < 1:
        return _usage_error(f"--repeats must be at least 1, got {args.repeats}")
    try:
        SolveOptions(timeout=args.timeout)
    except ValueError as exc:
        return _usage_error(exc)
    if args.output == "-":
        run_bench(graph, rows, algorithms, queues, ties, args.repeats, args.delta_f,
                  sys.stdout, args.timeout)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            run_bench(graph, rows, algorithms, queues, ties, args.repeats, args.delta_f,
                      fh, args.timeout)
    cache = goal_trees(graph)
    print(f"info: init tree cache hits={cache.hits} misses={cache.misses} "
          f"evictions={cache.evictions} binds={cache.binds} grows={cache.grows} "
          f"trees={len(cache.entries)} bytes={cache.size}",
          file=sys.stderr)
    for what, tables in (("served tables", cache.tables), ("geo tables", geo_tables(graph))):
        print(f"info: {what} hits={tables.hits} misses={tables.misses} "
              f"evictions={tables.evictions} tables={len(tables.entries)} bytes={tables.size}",
              file=sys.stderr)
    pool = list_pool(graph)
    print(f"info: list pool reused={pool.reused} fresh={pool.fresh} dropped={pool.dropped}",
          file=sys.stderr)
    return 0


def oracle_check(seed: int, graph_count: int, max_states: int, cost_lo: int,
                 cost_hi: int, solvers_map: Optional[dict] = None,
                 report=print) -> tuple[bool, int]:
    """Cross-check every solver x queue kind against brute force on seeded random
    graphs, each optimal path included; reports the first counterexample verbosely.

    Returns (all_matched, solves_checked).
    """
    solvers_map = solvers_map or SOLVERS
    if graph_count == 0:
        report("warning: 0 graphs requested; vacuous pass")
        return True, 0
    rng = random.Random(seed)
    configs = list(valid_queue_configs().values())
    checked = 0
    for gi in range(graph_count):
        n = rng.randint(4, max_states)
        g = random_graph(rng.randrange(2**30), n, extra_edges=2 * n,
                         cost_min=cost_lo, cost_max=cost_hi)
        start = rng.randrange(n)
        goal = rng.randrange(n)
        while goal == start and n > 1:
            goal = rng.randrange(n)
        weights = _weight_sweep(g, start, goal, rng)
        for w in weights:
            expected = constrained_optimum(g, start, goal, w)
            inst = ProblemInstance(start, goal, w)
            for name, solver in solvers_map.items():
                for cfg in configs:
                    outcome = solver(g, inst, cfg, SolveOptions())
                    got = outcome.costs if outcome.status == STATUS_OPTIMAL else None
                    checked += 1
                    fault = (f"got {got}, oracle {expected}" if got != expected
                             else _path_fault(g, inst, outcome))
                    if fault:
                        report(f"MISMATCH: graph seed idx {gi} (n={n}) "
                               f"{start + 1}->{goal + 1} W={w} {name}/{cfg.kind}/"
                               f"{cfg.tie_policy}: {fault}")
                        report("graph edges:")
                        for u, v, c1, c2 in g.edges():
                            report(f"  a {u + 1} {v + 1} ({c1},{c2})")
                        return False, checked
    return True, checked


def _path_fault(graph: Graph, inst: ProblemInstance, outcome: SolveOutcome) -> Optional[str]:
    """None unless the outcome is optimal and its path is not a start-goal
    path of its reported costs; then what is wrong."""
    path = outcome.path or [None]
    try:
        if (outcome.status != STATUS_OPTIMAL or (path[0], path[-1]) == (inst.start, inst.goal)
                and path_cost(graph, path) == outcome.costs):
            return None
    except ValueError:  # an arc the graph does not have
        pass
    shown = " ".join(str(u + 1) for u in outcome.path or ())
    return (f"path [{shown}] is not a {inst.start + 1}->{inst.goal + 1} path "
            f"of costs {outcome.costs}")


def _weight_sweep(g: Graph, start: int, goal: int, rng: random.Random) -> list[int]:
    """Weight limits spanning infeasible, tight, mid and loose constraints."""
    front = constrained_optimum(g, start, goal, 1 << 62)
    if front is None:
        return [rng.randint(1, 20)]  # unreachable: any limit is infeasible
    h2 = pair_cost2_bounds(g, start, goal)[0]
    ub2 = front[1]  # cost2 of the lexicographically best unconstrained path
    sweep = {h2 - 1, h2, (h2 + ub2) // 2, ub2}
    return sorted(w for w in sweep if w >= 0)


def cmd_oracle_check(args) -> int:
    if args.graphs < 0:
        return _usage_error(f"--graphs must be at least 0, got {args.graphs}")
    if args.max_states < 4:
        return _usage_error(f"--max-states must be at least 4, got {args.max_states}")
    if not 0 <= args.cost_min <= args.cost_max <= COST_MAX:
        return _usage_error(f"need 0 <= --cost-min <= --cost-max <= {COST_MAX}, "
                            f"got {args.cost_min} and {args.cost_max}")
    ok, checked = oracle_check(args.seed, args.graphs, args.max_states,
                               args.cost_min, args.cost_max)
    print(f"{'pass' if ok else 'FAIL'}: {checked} solver runs checked")
    return 0 if ok else 1


def cmd_randomize(args) -> int:
    if not 1 <= args.lo <= args.hi <= COST_MAX:
        return _usage_error(f"need 1 <= --lo <= --hi <= {COST_MAX}, "
                            f"got {args.lo} and {args.hi}")
    try:
        graph = load_dimacs(args.cost1, args.cost2)
    except (OSError, ValueError) as exc:
        return _usage_error(exc)
    shuffled = randomize_cost2(graph, args.seed, args.lo, args.hi)
    # Both attributes are rewritten in canonical arc order so the output files
    # form a loadable pair regardless of the input files' arc ordering.
    out1 = f"{args.output}.cost1.gr"
    out2 = f"{args.output}.cost2.gr"
    write_gr(shuffled, out1, attribute=1, comment="cost1 (canonical arc order)")
    write_gr(shuffled, out2, attribute=2,
             comment=f"cost2 randomized in [{args.lo},{args.hi}] seed={args.seed}")
    print(f"wrote {out1} and {out2}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit EXIT_USAGE instead of 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _tightness(text: str) -> Fraction:
    try:
        return tightness(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _steps_per_turn(text: str) -> int:
    k = int(text)
    if k < 1:
        raise argparse.ArgumentTypeError(f"K must be at least 1, got {k}")
    return k


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="wcspp", description="Weight-constrained shortest path solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p, coords=True):
        p.add_argument("--cost1", required=True, help="DIMACS .gr file for cost1")
        p.add_argument("--cost2", required=True, help="DIMACS .gr file for cost2")
        if coords:
            p.add_argument("--coords", help="DIMACS .co coordinate file")

    p = sub.add_parser("solve", help="solve one instance")
    add_graph_args(p)
    p.add_argument("--start", type=int, required=True, help="start state (1-based)")
    p.add_argument("--goal", type=int, required=True, help="goal state (1-based)")
    lim = p.add_mutually_exclusive_group(required=True)
    lim.add_argument("--weight-limit", "-W", type=int)
    lim.add_argument("--delta", type=_tightness, help="constraint tightness in [0,1]")
    p.add_argument("--algorithm", choices=sorted(SOLVERS), default="wc-astar")
    p.add_argument("--queue", choices=sorted(QUEUE_KINDS), default="bucket")
    p.add_argument("--tie", choices=sorted(TIE_POLICIES), default="none-lifo")
    p.add_argument("--delta-f", type=int, default=1, help="bucket width")
    sched = p.add_mutually_exclusive_group()
    sched.add_argument("--threads", action="store_true",
                       help="run parallel solvers on real threads")
    # No default, so an explicit --lockstep 1 still conflicts with --threads.
    sched.add_argument("--lockstep", type=_steps_per_turn, metavar="K",
                       help="deterministic schedule: K >= 1 steps per side (default 1)")
    p.add_argument("--timeout", type=float, help="wall-clock limit in seconds")
    p.add_argument("--print-path", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("gen-instances", help="emit weight limits from tightness levels")
    add_graph_args(p)
    p.add_argument("--pairs", required=True,
                   help="space-separated 'start,goal' pairs (1-based)")
    p.add_argument("--deltas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8")
    p.add_argument("--include-reversed", action="store_true",
                   help="also emit every goal-start pair")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_gen_instances)

    p = sub.add_parser("bench", help="run a benchmark matrix to CSV")
    p.add_argument("--cost1")
    p.add_argument("--cost2")
    p.add_argument("--coords")
    p.add_argument("--instances", required=True)
    p.add_argument("--algorithms", default="wc-astar,wc-ba,wc-ebba,wc-ebba-par")
    p.add_argument("--queues", default="bucket")
    p.add_argument("--ties", default="none-lifo")
    p.add_argument("--delta-f", type=int, default=1)
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--timeout", type=float)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("oracle-check", help="cross-check solvers against brute force")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--graphs", type=int, default=100)
    p.add_argument("--max-states", type=int, default=30)
    p.add_argument("--cost-min", type=int, default=1)
    p.add_argument("--cost-max", type=int, default=10)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("randomize", help="redraw cost2 uniformly at random")
    add_graph_args(p, coords=False)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lo", type=int, default=1)
    p.add_argument("--hi", type=int, default=10000)
    p.add_argument("--output", "-o", required=True,
                   help="prefix for the <prefix>.cost1.gr/.cost2.gr pair")
    p.set_defaults(func=cmd_randomize)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
