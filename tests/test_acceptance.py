"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines as they land.
The optional DIMACS desk check (criterion 10) runs only when WCSPP_DIMACS_DIR
points at a directory holding the New York distance/time graphs
(USA-road-d.NY.gr / USA-road-t.NY.gr).
"""

from __future__ import annotations

import functools
import os
import random
import time
from fractions import Fraction

import pytest

from wcspp.bounds import (ATTR1, SEARCH, budget_factors,
                          init_parallel_bidirectional, init_sequential_bidirectional,
                          init_unidirectional)
from wcspp.graph import FORWARD, ProblemInstance, load_dimacs, random_graph
from wcspp.nodepool import NodePool, ParentArrays
from wcspp.oracle import all_simple_paths, enumerate_pareto
from wcspp.pqueue import (BINARY_HEAP, BUCKET, HYBRID, QueueConfig, TIE_NONE_FIFO,
                          TIE_NONE_LIFO, TIE_SECONDARY, bucket_count, new_queue)
from wcspp.solvers import (SOLVERS, SolveOptions, solve_wc_astar, solve_wc_ba_star,
                           solve_wc_ebba, solve_wc_ebba_par)

from conftest import G, S, U1, U2, U3, check_tables_against_paths

BUCKET_CFG = QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO)
MATRIX_CFGS = [
    QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO),
    QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_FIFO),
    QueueConfig(HYBRID, 0, 0, 1, TIE_NONE_LIFO),
    QueueConfig(HYBRID, 0, 0, 1, TIE_SECONDARY),
    QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_NONE_LIFO),
    QueueConfig(BINARY_HEAP, 0, 0, 1, TIE_SECONDARY),
]


def criterion(num, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                word = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
                print(f"criterion {num:2d} [{title}]: {word}")
                raise
            print(f"criterion {num:2d} [{title}]: PASS")
        return wrapper
    return deco


@pytest.fixture(scope="module")
def suite():
    """500 seeded random digraphs (<= 50 states, costs in [1, 10]) with a weight
    sweep per pair covering infeasible, tight, mid and loose constraints."""
    rng = random.Random(20240807)
    cases = []
    for _ in range(500):
        n = rng.randint(4, 50)
        g = random_graph(rng.randrange(2**30), n, 2 * n, cost_max=10)
        s = rng.randrange(n)
        t = rng.randrange(n)
        while t == s and n > 1:
            t = rng.randrange(n)
        pairs = enumerate_pareto(g, s, t).cost_pairs()
        if pairs:
            h2 = pairs[-1][1]  # frontier is strictly decreasing in cost2
            ub2 = pairs[0][1]
            weights = sorted({w for w in (h2 - 1, h2, (h2 + ub2) // 2, ub2) if w >= 0})
        else:
            weights = [rng.randint(1, 20)]
        expected = {}
        for w in weights:
            expected[w] = next(((c1, c2) for c1, c2 in pairs if c2 <= w), None)
        cases.append((g, s, t, weights, expected))
    return cases


@criterion(1, "golden trace")
def test_criterion_1_golden_trace(example_graph):
    inst = ProblemInstance(S, G, 6)
    out = solve_wc_astar(example_graph, inst, BUCKET_CFG,
                         SolveOptions(record=True))
    assert out.status == "optimal"
    assert out.costs == (5, 5)
    assert out.path == [S, U2, G]  # partial path to u2 joined with its complement
    m = out.metrics
    assert m.expansions == 1  # only the start node goes through ExP
    assert m.prunes_global_f2 == 1  # u1's successor dies on f2 = 7 > 6
    assert m.pops == 3  # third pop (f1 = 6 > f1_bar = 5) terminates
    assert out.trace["forward"] == [(S, 0, 0), (U2, 3, 4)]
    log = out.parents[FORWARD]  # entry 0 is the start, entry 1 u2 reached from it
    assert log.states == [S, U2]
    assert log.parents.tolist() == [-1, 0]
    for u in (U1, U3, G):
        assert u not in log.states
    # sub-millisecond at desk scale; take the best of five runs
    best = min(_timed_solve(example_graph, inst) for _ in range(5))
    assert best < 1e-3, f"golden instance took {best * 1e3:.3f} ms"


def _timed_solve(graph, inst):
    t0 = time.perf_counter()
    solve_wc_astar(graph, inst, BUCKET_CFG, SolveOptions())
    return time.perf_counter() - t0


@criterion(2, "oracle equivalence, full matrix")
def test_criterion_2_oracle_equivalence(suite):
    t0 = time.monotonic()
    solves = 0
    for g, s, t, weights, expected in suite:
        for w in weights:
            inst = ProblemInstance(s, t, w)
            for name, solver in SOLVERS.items():
                for cfg in MATRIX_CFGS:
                    out = solver(g, inst, cfg, SolveOptions())
                    got = out.costs if out.status == "optimal" else None
                    assert got == expected[w], \
                        (name, cfg.kind, cfg.tie_policy, s, t, w, got, expected[w])
                    solves += 1
    elapsed = time.monotonic() - t0
    print(f"  ({solves} solves in {elapsed:.1f}s)", end=" ")
    assert elapsed < 60.0


@criterion(3, "memory-recycling trace")
def test_criterion_3_memory_recycling():
    s, u1, u2, g = range(4)
    pool = NodePool()
    parents = ParentArrays()

    def expand(handle, child_states):
        state, _, _, parent = pool.nodes[handle]
        entry = parents.record_expansion(state, parent)
        children = [pool.allocate(v, 0, 0, entry) for v in child_states]
        pool.recycle(handle)
        return children

    x1 = pool.allocate(s, 0, 0, -1)
    x2, x3 = expand(x1, [u1, u2])
    x4, x5 = expand(x2, [g, u2])
    (x6,) = expand(x3, [g])
    expand(x4, [])
    (x7,) = expand(x5, [g])
    expand(x6, [])
    expand(x7, [])

    assert pool.slots_created == 4
    assert sum(node is not None for node in pool.nodes) == 0
    assert parents.states == [s, u1, u2, g, u2, g, g]
    assert parents.parents.tolist() == [-1, 0, 0, 1, 1, 2, 4]
    assert [parents.backtrack(e) for e in range(7)] == [
        [s], [s, u1], [s, u2], [s, u1, g], [s, u1, u2], [s, u2, g], [s, u1, u2, g]]


@criterion(4, "queue properties at one million operations")
def test_criterion_4_queue_properties():
    specs = [(BUCKET, TIE_NONE_LIFO), (HYBRID, TIE_NONE_LIFO),
             (BINARY_HEAP, TIE_NONE_LIFO)]
    f_max = 2000
    for kind, tie in specs:
        rng = random.Random(hash((kind, 405)) & 0xFFFF)
        q = new_queue(QueueConfig(kind, 0, f_max, 1, tie))
        ops = 0
        low = 0
        while ops < 1_000_000:
            if len(q) and rng.random() < 0.5:
                kp, _, _ = q.pop()
                assert kp >= low  # (a) non-decreasing extraction
                low = kp
            else:
                q.push(rng.randint(low, f_max), 0, None)
            ops += 1
        while True:
            item = q.pop()
            if item is None:
                break
            assert item[0] >= low
            low = item[0]
        if kind == BUCKET:
            # (b) high-level scans never exceed the Eq.-2 bucket count
            assert q.high_checks <= bucket_count(0, f_max, 1)
    # two-level variant obeys the same high-level bound
    q = new_queue(QueueConfig(BUCKET, 0, f_max, 7, TIE_NONE_LIFO))
    rng = random.Random(77)
    low = 0
    for _ in range(200_000):
        if len(q) and rng.random() < 0.5:
            low = q.pop()[0]
        else:
            q.push(rng.randint(low, f_max), 0, None)
    assert q.high_checks <= bucket_count(0, f_max, 7)

    # (c) hybrid(secondary) and heap(secondary) emit identical sequences
    rng = random.Random(4242)
    qs = [new_queue(QueueConfig(k, 0, f_max, 1, TIE_SECONDARY))
          for k in (HYBRID, BINARY_HEAP)]
    outs = [[], []]
    low = 0
    for _ in range(200_000):
        if len(qs[0]) and rng.random() < 0.5:
            for q, out in zip(qs, outs):
                item = q.pop()
                out.append((item[0], item[1]))
            low = outs[0][-1][0]
        else:
            key, ks = rng.randint(low, f_max), rng.randint(0, 99)
            for q in qs:
                q.push(key, ks, None)
    for q, out in zip(qs, outs):
        while len(q):
            item = q.pop()
            out.append((item[0], item[1]))
    assert outs[0] == outs[1]


@criterion(5, "tie-breaking monotonicity")
def test_criterion_5_tie_breaking_monotonicity(suite):
    for g, s, t, weights, _ in suite:
        for w in weights:
            inst = ProblemInstance(s, t, w)
            counts = {}
            for kind in (HYBRID, BINARY_HEAP):
                for tie in (TIE_NONE_LIFO, TIE_SECONDARY):
                    cfg = QueueConfig(kind, 0, 0, 1, tie)
                    out = solve_wc_astar(g, inst, cfg, SolveOptions())
                    counts[(kind, tie)] = out.metrics.expansions
            for kind in (HYBRID, BINARY_HEAP):
                assert counts[(kind, TIE_NONE_LIFO)] >= counts[(kind, TIE_SECONDARY)]
            assert counts[(HYBRID, TIE_SECONDARY)] == counts[(BINARY_HEAP, TIE_SECONDARY)]


@criterion(6, "budget factors and coupling soundness")
def test_criterion_6_budget_coupling(suite):
    rng = random.Random(606)
    # exact rational complement, including degenerate inputs
    for _ in range(200):
        n = rng.randint(1, 30)
        hf = [rng.randint(0, 50) for _ in range(n)]
        hb = [rng.randint(0, 50) for _ in range(n)]
        bf = budget_factors(range(n), hf, hb)
        assert isinstance(bf.forward, Fraction) and isinstance(bf.backward, Fraction)
        assert bf.forward + bf.backward == 1
    # the in-search assertion (budget-rejected nodes are in the coupling area)
    # is armed by check_invariants and must never trip
    for g, s, t, weights, _ in suite[::3]:
        for w in weights:
            inst = ProblemInstance(s, t, w)
            opts = SolveOptions(check_invariants=True)
            solve_wc_ebba(g, inst, BUCKET_CFG, opts)
            solve_wc_ebba_par(g, inst, BUCKET_CFG, opts)


@criterion(7, "heuristic admissibility and bound realization")
def test_criterion_7_admissibility(suite):
    flavors = [
        lambda g, i: init_unidirectional(g, i),
        lambda g, i: init_sequential_bidirectional(g, i),
        lambda g, i: init_parallel_bidirectional(g, i),
    ]
    checked = 0
    for g, s, t, weights, _ in suite:
        if g.state_count > 12:  # exhaustive path enumeration must stay cheap
            continue
        for w in weights:
            inst = ProblemInstance(s, t, w)
            for init_fn in flavors:
                init = init_fn(g, inst)
                if init.status == SEARCH:
                    check_tables_against_paths(g, inst, init)
                    checked += 1
    assert checked > 100


@criterion(8, "heuristic tuning safety")
def test_criterion_8_htf_safety(suite):
    # identical optimum with tuning on and off, on the whole suite
    for g, s, t, weights, expected in suite:
        for w in weights:
            inst = ProblemInstance(s, t, w)
            on = solve_wc_ba_star(g, inst, BUCKET_CFG,
                                  SolveOptions(htf=True))
            off = solve_wc_ba_star(g, inst, BUCKET_CFG,
                                   SolveOptions(htf=False))
            got_on = on.costs if on.status == "optimal" else None
            got_off = off.costs if off.status == "optimal" else None
            assert got_on == got_off == expected[w]
    # tuned h values never exceed the true cost of the matching prefix/suffix
    # of any optimal-cost feasible path (small graphs, exhaustive check)
    tuned_checked = 0
    for g, s, t, weights, expected in suite:
        if g.state_count > 12:
            continue
        for w in weights:
            if expected[w] is None:
                continue
            inst = ProblemInstance(s, t, w)
            out = solve_wc_ba_star(g, inst, BUCKET_CFG,
                                   SolveOptions(record=True))
            if not out.tuned:
                continue
            c1_star = out.costs[0]
            feasible = [(c, seq) for c, seq in all_simple_paths(g, s, t)
                        if c[1] <= w and c[0] <= c1_star]
            for opp, p, u, vp, _sattr, _vs in out.tuned:
                tuned_by = 1 - opp  # direction whose first expansion set the value
                for (c1, c2), seq in feasible:
                    if u not in seq:
                        continue
                    cut = seq.index(u)
                    part1, _ = _segment_costs(g, seq, cut)
                    if tuned_by == FORWARD:
                        bound = part1[0] if p == ATTR1 else part1[1]
                    else:
                        total = (c1, c2)
                        suffix = (total[0] - part1[0], total[1] - part1[1])
                        bound = suffix[0] if p == ATTR1 else suffix[1]
                    assert vp <= bound, (u, p, vp, bound, seq)
                    tuned_checked += 1
    assert tuned_checked > 50


def _segment_costs(g, seq, cut):
    c1 = c2 = 0
    for u, v in zip(seq[:cut], seq[1:cut + 1]):
        e = next(x for x in g.successors(u, FORWARD) if x[0] == v)
        c1 += e[1]
        c2 += e[2]
    return (c1, c2), cut


@criterion(9, "parallel determinism")
def test_criterion_9_parallel_determinism(suite):
    # lockstep(1) is bitwise reproducible
    for g, s, t, weights, _ in suite[::5]:
        for w in weights[:2]:
            inst = ProblemInstance(s, t, w)
            for solver in (solve_wc_ba_star, solve_wc_ebba_par):
                runs = [solver(g, inst, BUCKET_CFG,
                               SolveOptions(record=True))
                        for _ in range(2)]
                assert runs[0].costs == runs[1].costs
                assert runs[0].trace == runs[1].trace
                assert runs[0].metrics.expansions == runs[1].metrics.expansions
                assert runs[0].metrics.generations == runs[1].metrics.generations
    # real threads agree with lockstep on the cost pair across the whole suite
    for g, s, t, weights, expected in suite:
        for w in weights:
            inst = ProblemInstance(s, t, w)
            for solver in (solve_wc_ba_star, solve_wc_ebba_par):
                out = solver(g, inst, BUCKET_CFG,
                             SolveOptions(schedule=("threads", 2)))
                got = out.costs if out.status == "optimal" else None
                assert got == expected[w]


@criterion(10, "DIMACS NY desk check")
def test_criterion_10_dimacs_ny_desk_check():
    root = os.environ.get("WCSPP_DIMACS_DIR")
    if not root:
        pytest.skip("WCSPP_DIMACS_DIR not set; the ~25 MB NY graphs are not "
                    "bundled and this environment has no general network access")
    dist = os.path.join(root, "USA-road-d.NY.gr")
    times = os.path.join(root, "USA-road-t.NY.gr")
    if not (os.path.exists(dist) and os.path.exists(times)):
        pytest.skip(f"NY distance/time graphs not found under {root}")
    from wcspp.cli import gen_instances

    graph = load_dimacs(dist, times)
    assert graph.state_count == 264_346
    assert graph.edge_count <= 730_100  # after duplicate-arc removal
    rng = random.Random(1)
    pairs = []
    while len(pairs) < 10:
        s = rng.randrange(graph.state_count)
        t = rng.randrange(graph.state_count)
        if s != t:
            pairs.append((s, t))
    deltas = [Fraction(k, 10) for k in range(1, 9)]
    rows = gen_instances(graph, pairs, deltas)
    assert rows, "all sampled pairs unreachable"
    for start, goal, _, wtext in rows:
        inst = ProblemInstance(start, goal, int(wtext))
        costs = set()
        for name, solver in SOLVERS.items():
            t0 = time.monotonic()
            out = solver(graph, inst, BUCKET_CFG, SolveOptions())
            elapsed = time.monotonic() - t0
            assert out.status == "optimal", (name, inst)
            assert elapsed < 10.0, (name, inst, elapsed)
            costs.add(out.costs)
        assert len(costs) == 1  # identical cost pairs across algorithms
