"""The correctness gate against the brute-force oracle and on doctored outcomes."""

from dataclasses import replace
from fractions import Fraction

import pytest

import roadgrid
from gate import Solve, check_query, cost2_within, reference
from wcspp.cli import gen_instances
from wcspp.graph import ProblemInstance, load_dimacs
from wcspp.oracle import constrained_optimum
from wcspp.pqueue import BUCKET, TIE_NONE_LIFO, QueueConfig
from wcspp.solvers import SOLVERS, STATUS_INFEASIBLE, SolveOptions, SolveOutcome

CFG = QueueConfig(BUCKET, 0, 0, 1, TIE_NONE_LIFO)


def small_grid(tmp_path, seed):
    files = roadgrid.write_dimacs(str(tmp_path), seed, 6, 6)
    return load_dimacs(files["cost1"], files["cost2"], files["coords"])


def solve_all(graph, start, goal, w):
    inst = ProblemInstance(start, goal, w)
    return [Solve(0, name, start, goal, w, 0.0,
                  outcome=solver(graph, inst, CFG, SolveOptions()))
            for name, solver in SOLVERS.items()]


def weight_limits(graph, start, goal):
    rows = gen_instances(graph, [(start, goal)],
                         [Fraction(0), Fraction(3, 10), Fraction(7, 10), Fraction(1)])
    ws = [int(r[3]) for r in rows]
    return [ws[0] - 1] + ws  # one below the cost2 optimum is infeasible


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_reference_and_verdicts_match_oracle(tmp_path, seed):
    graph = small_grid(tmp_path, seed)
    n = graph.state_count
    for start, goal in ((0, n - 1), (n - 1, 0), (5, n - 6), (14, 21)):
        for w in weight_limits(graph, start, goal):
            expected = constrained_optimum(graph, start, goal, w)
            solves = solve_all(graph, start, goal, w)
            assert reference(graph, solves) == expected
            verdicts = check_query(graph, solves)
            for s in solves:
                right = s.costs == expected if expected else s.status == STATUS_INFEASIBLE
                assert (verdicts[s.algorithm] is None) == right, (s.algorithm, w)


@pytest.fixture
def feasible_query(tmp_path):
    graph = small_grid(tmp_path, 4)
    start, goal = 0, graph.state_count - 1
    w = weight_limits(graph, start, goal)[2]
    solves = solve_all(graph, start, goal, w)
    assert all(v is None for v in check_query(graph, solves).values())
    return graph, solves


def doctor(solves, index, **changes):
    """Copy of the solves with one outcome's fields replaced."""
    out = list(solves)
    s = out[index]
    out[index] = replace(s, outcome=replace(s.outcome, **changes))
    return out


def test_gate_rejects_wrong_cost(feasible_query):
    graph, solves = feasible_query
    c1, c2 = solves[0].costs
    verdicts = check_query(graph, doctor(solves, 0, costs=(c1 + 1, c2)))
    assert "but reported" in verdicts["wc-astar"]
    assert all(v is None for k, v in verdicts.items() if k != "wc-astar")


def test_gate_rejects_broken_path(feasible_query):
    graph, solves = feasible_query
    path = solves[1].outcome.path
    assert len(path) > 2
    verdicts = check_query(graph, doctor(solves, 1, path=path[:1] + path[2:]))
    assert verdicts["wc-ba"].startswith("broken path")


def test_gate_rejects_path_not_reaching_goal(feasible_query):
    graph, solves = feasible_query
    verdicts = check_query(graph, doctor(solves, 1, path=solves[1].outcome.path[:-1]))
    assert verdicts["wc-ba"] == "path does not run from start to goal"


def test_gate_rejects_weight_violation(feasible_query):
    graph, solves = feasible_query
    tight = [replace(s, weight_limit=s.costs[1] - 1) for s in solves]
    verdicts = check_query(graph, tight)
    assert all("exceeds W" in v for v in verdicts.values())


def test_gate_rejects_false_infeasible(feasible_query):
    graph, solves = feasible_query
    verdicts = check_query(graph, doctor(solves, 2, status=STATUS_INFEASIBLE, costs=None,
                                         path=None))
    assert verdicts["wc-ebba"].startswith("claims infeasible")
    assert verdicts["wc-astar"] is None


def test_gate_rejects_unanimous_false_infeasible(feasible_query):
    graph, solves = feasible_query
    claims = [replace(s, outcome=SolveOutcome(STATUS_INFEASIBLE)) for s in solves]
    verdicts = check_query(graph, claims)
    assert all(v.startswith("claims infeasible") for v in verdicts.values())


def test_gate_rejects_suboptimal_verified_path(tmp_path):
    graph = small_grid(tmp_path, 4)
    start, goal = 0, graph.state_count - 1
    ws = weight_limits(graph, start, goal)
    tight = solve_all(graph, start, goal, ws[1])
    loose = solve_all(graph, start, goal, ws[-1])
    assert tight[0].costs != loose[0].costs
    # The tight optimum is feasible under the loose limit but worse there.
    verdicts = check_query(graph, doctor(loose, 3, costs=tight[0].costs,
                                         path=tight[0].outcome.path))
    assert verdicts["wc-ebba-par"].startswith("suboptimal")


def test_gate_records_exceptions(feasible_query):
    graph, solves = feasible_query
    raised = list(solves)
    raised[0] = replace(solves[0], outcome=None, error="RuntimeError('boom')")
    assert check_query(graph, raised)["wc-astar"] == "raised RuntimeError('boom')"


def test_cost2_within_matches_gen_instances_bound(tmp_path):
    graph = small_grid(tmp_path, 5)
    start, goal = 3, graph.state_count - 2
    h2 = weight_limits(graph, start, goal)[1]
    assert cost2_within(graph, start, goal, h2)
    assert not cost2_within(graph, start, goal, h2 - 1)
