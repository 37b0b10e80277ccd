import csv
import io
import random
import re
from fractions import Fraction

import pytest

import wcspp.cli as cli_mod
from wcspp.bounds import ATTR1, ATTR2, BoundedSearch, goal_trees
from wcspp.caches import list_pool
from wcspp.cli import (CSV_COLUMNS, CSV_VERSION_LINE, EXIT_INFEASIBLE, EXIT_OPTIMAL,
                       EXIT_TIMEOUT, EXIT_USAGE, gen_instances, main, oracle_check,
                       pair_cost2_bounds, read_instances, run_bench,
                       weight_from_tightness, write_instances)
from wcspp.graph import BACKWARD, FORWARD, Graph, load_dimacs, random_graph
from wcspp.oracle import _reverse_dijkstra, constrained_optimum
from wcspp.pqueue import MonotonicityError
from wcspp.solvers import SOLVERS, SolveOutcome, solve_wc_astar

from conftest import EXAMPLE_EDGES, G, S, road_grid_graph, roadgrid_module


def test_weight_from_tightness_formula():
    assert weight_from_tightness(10, 30, Fraction("0.5")) == 20
    assert weight_from_tightness(3, 8, Fraction("0.6")) == 6  # the worked instance
    assert weight_from_tightness(10, 30, Fraction(1)) == 30
    # half-up rounding: 3 + 0.1 * 5 = 3.5 -> 4
    assert weight_from_tightness(3, 8, Fraction("0.1")) == 4


def test_pair_bounds_on_example(example_dimacs):
    g = load_dimacs(*example_dimacs)
    assert pair_cost2_bounds(g, S, G) == (3, 8)


def test_pair_bounds_match_full_searches():
    # The goal's trees grow only until they hold the start; full forward
    # searches from the start must agree.
    rng = random.Random(61)
    for seed in range(40):
        n = rng.randint(3, 30)
        g = random_graph(seed, n, rng.randint(0, 3 * n), cost_min=rng.choice((0, 1)))
        for _ in range(4):
            s, t = rng.randrange(n), rng.randrange(n)
            on2 = BoundedSearch(g, s, FORWARD, ATTR2).run()
            on1 = BoundedSearch(g, s, FORWARD, ATTR1).run()
            expected = (on2.dist[t], on1.comp[t]) if on2.settled[t] else None
            assert pair_cost2_bounds(g, s, t) == expected, (seed, s, t)


def test_pair_bounds_match_the_oracle():
    # h2 and ub2 are the start's labels in the goal's cost2 and cost1 trees,
    # which grow as farther starts of the goal arrive. A reference built
    # from wcspp.oracle alone must agree: h2 from a plain reverse Dijkstra
    # on cost2, ub2 the cost2 of the lexicographic optimum under no weight
    # limit. Each graph's pairs share three goals and come in shuffled
    # order; costs start at 0 on some graphs, and an extra state without
    # arcs makes unreachable pairs.
    rng = random.Random(67)
    grows = unreachable = 0
    for seed in range(40):
        n = rng.randint(2, 12)
        base = random_graph(seed, n, rng.randint(0, 2 * n), cost_min=rng.choice((0, 1)),
                            cost_max=rng.choice((2, 5)))
        g = Graph(n + 1, list(base.edges()))
        goals = rng.sample(range(n + 1), 3)
        pairs = [(s, t) for t in goals for s in range(n + 1)]
        rng.shuffle(pairs)
        h2 = {t: _reverse_dijkstra(g, t, g.arcs[BACKWARD][3]) for t in goals}
        for s, t in pairs:
            front = constrained_optimum(g, s, t, 1 << 62)
            assert (front is None) == (h2[t][s] == float("inf"))
            expected = None if front is None else (h2[t][s], front[1])
            assert pair_cost2_bounds(g, s, t) == expected, (seed, s, t)
            unreachable += front is None
        grows += goal_trees(g).grows
    assert grows > 100 and unreachable > 100, (grows, unreachable)


def test_gen_instances_delta_one_is_loose(example_dimacs):
    g = load_dimacs(*example_dimacs)
    rows = gen_instances(g, [(S, G)], [Fraction(1)])
    assert rows == [(S, G, "w", "8")]


def test_gen_instances_reversed_pairs_skip_unreachable(example_dimacs, capsys):
    g = load_dimacs(*example_dimacs)
    rows = gen_instances(g, [(S, G)], [Fraction("0.6")], include_reversed=True)
    # goal-to-start is unreachable in this digraph: skipped with a warning
    assert rows == [(S, G, "w", "6")]
    assert "unreachable" in capsys.readouterr().err


def test_gen_instances_monotone_in_delta(example_dimacs):
    g = load_dimacs(*example_dimacs)
    deltas = [Fraction(k, 10) for k in range(1, 9)]
    rows = gen_instances(g, [(S, G)], deltas)
    weights = [int(r[3]) for r in rows]
    assert weights == sorted(weights)


def test_solve_command_optimal(example_dimacs, capsys):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "-W", "6",
                 "--algorithm", "wc-astar", "--queue", "bucket", "--print-path"])
    out = capsys.readouterr().out
    assert code == EXIT_OPTIMAL
    assert out.splitlines()[0] == "optimal 5 5"
    assert "path 1 3 5" in out


def test_solve_command_infeasible(example_dimacs, capsys):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "-W", "2"])
    assert code == EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().out


def test_solve_command_delta(example_dimacs, capsys):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "--delta", "0.6",
                 "--algorithm", "wc-ebba-par"])
    assert code == EXIT_OPTIMAL
    assert "optimal 5 5" in capsys.readouterr().out


def test_solve_command_timeout(example_dimacs, capsys):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "-W", "6", "--timeout", "0",
                 "--algorithm", "wc-ebba-par"])
    assert code == EXIT_TIMEOUT
    assert "timeout" in capsys.readouterr().out


@pytest.mark.parametrize("timeout", ["nan", "-1", "-0.5"])
def test_solve_negative_or_nan_timeout_exits_64(example_dimacs, capsys, timeout):
    # A NaN timeout never expired, and a negative one was accepted.
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "-W", "6", "--timeout", timeout])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")
    assert "timeout" in err[0]


def test_solve_rejects_bucket_with_secondary(example_dimacs, capsys):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "-W", "6",
                 "--queue", "bucket", "--tie", "secondary"])
    assert code == EXIT_USAGE
    assert "tie" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["-W", "6", "--delta", "0.5"],  # two weight limits
    ["-W", "6", "--threads", "--lockstep", "3"],  # two schedules
    ["-W", "6", "--threads", "--lockstep", "1"],
    ["-W", "6", "--lockstep", "0"],  # K < 1 used to hang wc-ba and wc-ebba-par
    ["-W", "6", "--lockstep", "-3"],
    ["--delta", "x"],
    ["--delta", "1/0"],
    [],  # no weight limit at all
    ["--delta", "7"],  # a tightness outside [0, 1] used to solve
    ["--delta", "-0.5"],
    ["-W", "6", "--queue", "binary-heap", "--delta-f", "-3"],  # used to solve
])
def test_solve_usage_errors_exit_64(example_dimacs, capsys, flags):
    # Argument errors exit from the parser; the rest return the code.
    try:
        code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                     "--start", "1", "--goal", "5", "--algorithm", "wc-ba"] + flags)
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1


def test_solve_missing_graph_file_exits_64(example_dimacs, tmp_path, capsys):
    code = main(["solve", "--cost1", str(tmp_path / "missing.gr"), "--cost2",
                 example_dimacs[1], "--start", "1", "--goal", "5", "-W", "6"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "missing.gr" in err[0]


@pytest.mark.parametrize("start, goal", [("9", "5"), ("1", "9"), ("0", "5")])
def test_solve_state_outside_the_graph_exits_64(example_dimacs, capsys, start, goal):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", start, "--goal", goal, "-W", "6"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_solve_error_inside_the_solver_still_surfaces(example_dimacs, monkeypatch):
    # Only reading the input files is turned into exit 64, not the solve.
    def broken(*args):
        raise MonotonicityError("pushed below the last popped key")

    monkeypatch.setitem(cli_mod.SOLVERS, "wc-astar", broken)
    with pytest.raises(MonotonicityError):
        main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
              "--start", "1", "--goal", "5", "-W", "6"])


@pytest.mark.parametrize("row", ["1 2 x 5", "1 2 w x", "a 2 w 5", "1 2 delta 1/0", "1 2 w",
                                 "1 2 delta 7", "1 2 delta -0.5"])
def test_bench_malformed_instance_row_exits_64(example_dimacs, tmp_path, capsys, row):
    inst = tmp_path / "i.txt"
    inst.write_text(f"1 5 w 6\n{row}\n", encoding="utf-8")
    code = main(["bench", "--instances", str(inst), "--cost1", example_dimacs[0],
                 "--cost2", example_dimacs[1]])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and ":2:" in err[0]


@pytest.mark.parametrize("pairs, deltas", [("1,5 7", "0.5"), ("1,x", "0.5"), ("1,9", "0.5"),
                                            ("1,5", "x"), ("1,5", "1/0"),
                                            ("1,5", "-0.5"), ("1,5", "0.5,1.5")])
def test_gen_instances_bad_pairs_or_deltas_exit_64(example_dimacs, capsys, pairs, deltas):
    code = main(["gen-instances", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--pairs", pairs, "--deltas", deltas])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize("token", ["1", "1,2,3", "a,b"])
def test_gen_instances_malformed_pair_names_the_token(example_dimacs, capsys, token):
    code = main(["gen-instances", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--pairs", f"1,5 {token}", "--deltas", "0.5"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --pairs token '{token}' is not 'start,goal'"]


def test_solve_command_lockstep_k(example_dimacs, capsys):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "-W", "6", "--lockstep", "3",
                 "--algorithm", "wc-ebba-par"])
    assert code == EXIT_OPTIMAL
    assert "optimal 5 5" in capsys.readouterr().out


def test_gen_instances_accepts_both_ends_of_the_tightness_range(example_dimacs, capsys):
    # Tightness 0 gives the pair's h2 and 1 its ub2.
    code = main(["gen-instances", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--pairs", "1,5", "--deltas", "0,1"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["1 5 w 3", "1 5 w 8"]


def test_gen_instances_command_roundtrip(example_dimacs, tmp_path):
    out_file = tmp_path / "inst.txt"
    code = main(["gen-instances", "--cost1", example_dimacs[0],
                 "--cost2", example_dimacs[1], "--pairs", "1,5",
                 "--deltas", "0.2,0.6", "-o", str(out_file)])
    assert code == 0
    header, rows = read_instances(str(out_file))
    assert header == (example_dimacs[0], example_dimacs[1])
    assert [(r.start, r.goal, r.marker) for r in rows] == [(S, G, "w")] * 2
    assert [r.value for r in rows] == ["4", "6"]


def test_instance_file_delta_rows_resolve(example_dimacs, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text("# comment line\n"
                    f"graph {example_dimacs[0]} {example_dimacs[1]}\n"
                    "1 5 delta 0.6\n"
                    "1 5 w 2\n", encoding="utf-8")
    header, rows = read_instances(str(inst))
    assert len(rows) == 2
    from wcspp.cli import resolve_weight
    g = load_dimacs(*header)
    assert resolve_weight(g, rows[0]) == 6
    assert resolve_weight(g, rows[1]) == 2


def test_bench_row_counts_and_roundtrip(example_dimacs, tmp_path):
    inst = tmp_path / "inst.txt"
    inst.write_text("1 5 w 6\n1 5 w 2\n1 5 delta 0.8\n", encoding="utf-8")
    _, rows = read_instances(str(inst))
    g = load_dimacs(*example_dimacs)
    buf = io.StringIO()
    cells = run_bench(g, rows, ["wc-astar", "wc-ebba"], ["bucket"], ["none-lifo"],
                      repeats=5, delta_f=1, out=buf)
    assert cells == 6  # 3 instances x 2 algorithms
    lines = buf.getvalue().splitlines()
    assert lines[0] == CSV_VERSION_LINE
    parsed = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert parsed[0] == CSV_COLUMNS
    assert len(parsed) == 1 + 6
    by_status = [row[4] for row in parsed[1:]]
    assert by_status.count("optimal") == 4
    assert by_status.count("infeasible") == 2
    # rows parse back losslessly
    rewritten = io.StringIO()
    w = csv.writer(rewritten)
    for row in parsed:
        w.writerow(row)
    assert list(csv.reader(io.StringIO(rewritten.getvalue()))) == parsed


def test_bench_repeats_deterministic_counts(example_dimacs, tmp_path):
    inst = tmp_path / "i.txt"
    inst.write_text("1 5 w 6\n", encoding="utf-8")
    _, rows = read_instances(str(inst))
    g = load_dimacs(*example_dimacs)
    outs = []
    for _ in range(2):
        buf = io.StringIO()
        run_bench(g, rows, ["wc-astar"], ["bucket"], ["none-lifo"], 3, 1, buf)
        rows_parsed = list(csv.reader(io.StringIO(buf.getvalue().splitlines()[1] + "\n"
                                                  + "\n".join(buf.getvalue().splitlines()[2:]))))
        outs.append([r[8] for r in rows_parsed[1:]])  # expansions column
    assert outs[0] == outs[1]


def test_bench_extends_the_goal_tree_before_the_cells(example_dimacs, tmp_path):
    # Every cell replays the goal tree that run_bench built, once per goal at
    # its largest W whatever the rows' order; a goal outside the graph still
    # becomes an error row instead of ending the batch. The graph has no
    # coordinates, so the first wc-astar cell also builds the goal's cost1
    # tree for its masked cost1 search, and the first wc-ba cell the start's
    # tree; both W's share each of them, since their seed f1_bar is the same.
    for text in ("1 5 w 6\n1 5 w 3\n1 9 w 6\n", "1 5 w 3\n1 5 w 6\n1 9 w 6\n"):
        inst = tmp_path / "i.txt"
        inst.write_text(text, encoding="utf-8")
        _, rows = read_instances(str(inst))
        g = load_dimacs(*example_dimacs)
        buf = io.StringIO()
        assert run_bench(g, rows, sorted(SOLVERS), ["bucket"], ["none-lifo"], 2, 1, buf) == 12
        cache = g.goal_trees
        assert (cache.misses, cache.evictions, cache.binds) == (3, 0, 0), text
        assert list(cache.entries) == [(4, BACKWARD, ATTR1), (4, BACKWARD, ATTR2),
                                     (0, FORWARD, ATTR1)]
        assert cache.entries[4, BACKWARD, ATTR2].limit == 6
        assert cache.entries[4, BACKWARD, ATTR1].limit == cache.entries[0, FORWARD, ATTR1].limit == 7
        cells = list(csv.reader(io.StringIO(buf.getvalue())))[2:]
        assert [row[4] for row in cells].count("error") == 4


def test_bench_reports_the_goal_tree_counts_on_stderr(example_dimacs, tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("1 5 w 3\n1 5 w 6\n", encoding="utf-8")
    code = main(["bench", "--instances", str(inst), "--cost1", example_dimacs[0],
                 "--cost2", example_dimacs[1], "--repeats", "1", "--algorithms", "wc-astar"])
    assert code == 0
    captured = capsys.readouterr()
    # 2 goal tree lookups before the cells, then per solve 1 of the goal tree
    # and 1 of the goal's cost1 tree, both solves at the same seed f1_bar = 7:
    # 2 misses, 4 hits. The mask of the cost1 search does not bind.
    g = load_dimacs(*example_dimacs)
    trees = [goal_trees(g).prefix(g, (4, BACKWARD, attr), limit)[0]
             for attr, limit in ((ATTR2, 6), (ATTR1, 7))]
    # The example graph has no coordinates, so its geo tables stay empty,
    # and its prefixes are within the list pool's keep limit of 64 states,
    # so no search is served in place.
    err = captured.err.splitlines()
    assert err[:3] == [
        "info: init tree cache hits=4 misses=2 evictions=0 binds=0 grows=0 trees=2 "
        f"bytes={sum(tree.nbytes for tree in trees)}",
        "info: served tables hits=0 misses=0 evictions=0 tables=0 bytes=0",
        "info: geo tables hits=0 misses=0 evictions=0 tables=0 bytes=0"]
    assert re.fullmatch(r"info: list pool reused=[1-9]\d* fresh=[1-9]\d* dropped=\d+", err[3]), \
        err[3]
    assert len(err) == 4
    assert captured.out.splitlines()[:2] == [CSV_VERSION_LINE, ",".join(CSV_COLUMNS)]
    assert len(captured.out.splitlines()) == 4


def test_bench_coords_apply_to_a_header_graph(tmp_path, capsys):
    # --coords gives the round-one cost1 searches the geometric heuristic, so
    # they run live instead of from the tree cache. It must do so whether
    # the graph files come from --cost1/--cost2 or from the instance file's
    # `graph` header: both print the same info line and the same CSV, apart
    # from the measured runtimes.
    paths = roadgrid_module().write_dimacs(str(tmp_path), 5, 12, 12)
    inst = tmp_path / "i.txt"
    with open(inst, "w", encoding="utf-8") as fh:
        write_instances(fh, paths["cost1"], paths["cost2"],
                        [(0, 143, "delta", "0.5"), (11, 132, "delta", "0.3"),
                         (143, 5, "delta", "0.8")])
    runtime = CSV_COLUMNS.index("runtime_us")
    seen = []
    for flags in (["--coords", paths["coords"]],
                  ["--cost1", paths["cost1"], "--cost2", paths["cost2"],
                   "--coords", paths["coords"]],
                  []):
        assert main(["bench", "--instances", str(inst), "--repeats", "1", *flags]) == 0
        captured = capsys.readouterr()
        cells = [row[:runtime] + row[runtime + 1:]
                 for row in csv.reader(io.StringIO(captured.out))]
        seen.append((captured.err, cells))
    assert seen[0] == seen[1]
    assert seen[0][0] != seen[2][0]  # without coordinates the tree cache serves more
    # With coordinates the later searches toward a state reuse its geo table.
    geo = [err.splitlines()[2] for err, _ in seen]
    assert re.fullmatch(r"info: geo tables hits=[1-9]\d* misses=[1-9]\d* evictions=0 "
                        r"tables=[1-9]\d* bytes=[1-9]\d*", geo[0]), geo[0]
    assert geo[2] == "info: geo tables hits=0 misses=0 evictions=0 tables=0 bytes=0"


def test_bench_reports_the_served_tables_and_the_list_pool(tmp_path, capsys, monkeypatch):
    # On a grid without coordinates the round-one goal and start trees of
    # far queries have prefixes longer than the list pool's keep limit (64
    # states on 144), so those searches are served in place from the tree
    # cache's tables. `bench` prints the table cache's counts and the
    # graph's list pool counts on two `info` lines, read from the loaded
    # graph's own caches.
    paths = roadgrid_module().write_dimacs(str(tmp_path), 5, 12, 12)
    inst = tmp_path / "i.txt"
    with open(inst, "w", encoding="utf-8") as fh:
        write_instances(fh, paths["cost1"], paths["cost2"],
                        [(0, 143, "delta", "0.5"), (11, 132, "delta", "0.3"),
                         (143, 5, "delta", "0.8")])
    loaded = []

    def load(*args):
        loaded.append(load_dimacs(*args))
        return loaded[-1]

    monkeypatch.setattr(cli_mod, "load_dimacs", load)
    assert main(["bench", "--instances", str(inst), "--repeats", "2"]) == 0
    err = capsys.readouterr().err.splitlines()
    (g,) = loaded
    tables, pool = goal_trees(g).tables, list_pool(g)
    assert err[1] == (f"info: served tables hits={tables.hits} misses={tables.misses} "
                      f"evictions={tables.evictions} tables={len(tables.entries)} "
                      f"bytes={tables.size}")
    assert err[3] == (f"info: list pool reused={pool.reused} fresh={pool.fresh} "
                      f"dropped={pool.dropped}")
    assert tables.hits > 0 and tables.misses > 0 and len(tables.entries) > 0
    assert tables.size == sum(table.nbytes for table in tables.entries.values())
    assert {key[1:] for key in tables.entries} >= {(BACKWARD, ATTR2), (FORWARD, ATTR1)}
    assert pool.reused > 0 and pool.fresh > 0 and pool.dropped > 0


def test_bench_failure_becomes_status_row(example_dimacs, tmp_path):
    inst = tmp_path / "i.txt"
    inst.write_text("1 5 w 6\n", encoding="utf-8")
    _, rows = read_instances(str(inst))
    g = load_dimacs(*example_dimacs)

    def broken(*a, **k):
        raise RuntimeError("boom")

    original = dict(cli_mod.SOLVERS)
    cli_mod.SOLVERS = {"wc-astar": broken}
    try:
        buf = io.StringIO()
        count = run_bench(g, rows, ["wc-astar"], ["bucket"], ["none-lifo"], 1, 1, buf)
    finally:
        cli_mod.SOLVERS = original
    assert count == 1
    assert "error" in buf.getvalue()


def test_bench_negative_weight_row_becomes_error_row(example_dimacs, tmp_path):
    # A row whose explicit weight is negative cannot form an instance; it
    # becomes error rows and the rows around it still run.
    inst = tmp_path / "i.txt"
    inst.write_text("1 5 w 6\n1 5 w -1\n1 5 w 6\n", encoding="utf-8")
    _, rows = read_instances(str(inst))
    g = load_dimacs(*example_dimacs)
    buf = io.StringIO()
    assert run_bench(g, rows, ["wc-astar", "wc-ba"], ["bucket"], ["none-lifo"], 1, 1,
                     buf) == 6
    cells = list(csv.reader(io.StringIO(buf.getvalue())))[2:]
    assert [(row[0], row[4]) for row in cells] == [
        ("1-5-w6", "optimal"), ("1-5-w6", "optimal"),
        ("1-5-w-1", "error"), ("1-5-w-1", "error"),
        ("1-5-w6", "optimal"), ("1-5-w6", "optimal")]
    assert {tuple(row[5:7]) for row in cells if row[4] == "optimal"} == {("5", "5")}


def test_bench_row_whose_weight_cannot_resolve_becomes_error_rows(example_dimacs, tmp_path):
    # A delta row with a state outside the graph used to abort the batch with
    # an IndexError, and a state 0 silently became state -1.
    inst = tmp_path / "i.txt"
    inst.write_text("1 5 w 6\n9 5 delta 0.5\n0 5 w 6\n1 5 delta 0.6\n", encoding="utf-8")
    _, rows = read_instances(str(inst))
    g = load_dimacs(*example_dimacs)
    buf = io.StringIO()
    assert run_bench(g, rows, ["wc-astar"], ["bucket"], ["none-lifo"], 1, 1, buf) == 4
    cells = list(csv.reader(io.StringIO(buf.getvalue())))[2:]
    assert [(row[0], row[4]) for row in cells] == [
        ("1-5-w6", "optimal"), ("9-5-delta0.5", "error"), ("0-5-w6", "error"),
        ("1-5-delta0.6", "optimal")]


BENCH_USAGE_ERRORS = [
    (["--queues", "heap"], "1 5 w 6", "'heap'"),
    (["--queues", "bucket,hybrid", "--ties", "fifo"], "1 5 w 6", "'fifo'"),
    (["--delta-f", "0"], "1 5 w 6", "--delta-f"),
    ([], "9 5 delta 0.5", "'9 5 delta 0.5'"),
    ([], "0 5 w 6", "'0 5 w 6'"),
    (["--timeout", "nan"], "1 5 w 6", "timeout"),
    (["--timeout", "-1"], "1 5 w 6", "timeout"),
    (["--repeats", "0"], "1 5 w 6", "--repeats"),
    (["--repeats", "-2"], "1 5 w 6", "--repeats"),
]


@pytest.mark.parametrize("flags, row, named", BENCH_USAGE_ERRORS,
                         ids=["queue", "tie", "delta-f", "start-9", "start-0", "timeout-nan",
                              "timeout-negative", "repeats-0", "repeats-negative"])
def test_bench_usage_errors_exit_64(example_dimacs, tmp_path, capsys, flags, row, named):
    # Unknown queue or tie names used to end in a KeyError traceback, --delta-f
    # 0 in a header-only CSV, a row outside the graph in an IndexError or in
    # error rows for state -1, a NaN or negative timeout in solves, and
    # --repeats below 1 in rows of one repeat.
    inst = tmp_path / "i.txt"
    inst.write_text(f"1 5 w 6\n{row}\n", encoding="utf-8")
    code = main(["bench", "--instances", str(inst), "--cost1", example_dimacs[0],
                 "--cost2", example_dimacs[1], "--repeats", "1"] + flags)
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


@pytest.mark.parametrize("given, missing", [("--cost1", "--cost2"), ("--cost2", "--cost1")])
def test_bench_with_one_graph_flag_exits_64(example_dimacs, tmp_path, capsys, given, missing):
    # --cost1 alone used to end in a TypeError traceback from open(None), and
    # --cost2 alone in "no graph files given".
    inst = tmp_path / "i.txt"
    inst.write_text("1 5 w 6\n", encoding="utf-8")
    path = example_dimacs[0] if given == "--cost1" else example_dimacs[1]
    code = main(["bench", "--instances", str(inst), given, path])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and missing in err[0]


def test_bench_skips_the_bucket_secondary_combination(example_dimacs, tmp_path, capsys):
    inst = tmp_path / "i.txt"
    inst.write_text("1 5 w 6\n", encoding="utf-8")
    code = main(["bench", "--instances", str(inst), "--cost1", example_dimacs[0],
                 "--cost2", example_dimacs[1], "--repeats", "1", "--algorithms", "wc-astar",
                 "--queues", "bucket,binary-heap", "--ties", "none-lifo,secondary"])
    assert code == 0
    cells = list(csv.reader(io.StringIO(capsys.readouterr().out)))[2:]
    assert [row[2:5] for row in cells] == [["bucket", "none-lifo", "optimal"],
                                           ["binary-heap", "none-lifo", "optimal"],
                                           ["binary-heap", "secondary", "optimal"]]


def test_solve_negative_weight_limit_exits_64(example_dimacs, capsys):
    code = main(["solve", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--start", "1", "--goal", "5", "-W", "-1"])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == "" and len(err) == 1 and err[0].startswith("error:")


def test_pair_bounds_give_their_lists_back(example_dimacs):
    # The first call builds the goal's cost2 and cost1 trees until each
    # holds the start: two searches (two misses), each taking four lists
    # from the graph's pool and giving them back. Repeat calls find the
    # start in both trees: they search nothing, take no list and count
    # only hits.
    g = load_dimacs(*example_dimacs)
    pool, cache = list_pool(g), goal_trees(g)
    assert pair_cost2_bounds(g, S, G) == (3, 8)
    assert (cache.hits, cache.misses, cache.grows) == (0, 2, 0)
    assert (pool.fresh, pool.reused, pool.size) == (4, 4, 4)
    trees = list(cache.entries.items())
    for _ in range(3):
        assert pair_cost2_bounds(g, S, G) == (3, 8)
    assert (cache.hits, cache.misses, cache.grows) == (6, 2, 0)
    assert (pool.fresh, pool.reused, pool.size) == (4, 4, 4)
    assert all(cache.entries[key] is tree for key, tree in trees)


def test_coordinates_give_the_same_rows_without_a_cost1_goal_tree():
    # With coordinates no solve is served from a cost1 goal tree, so
    # gen_instances reads each pair's ub2 from a search it does not record,
    # and writes the rows it writes for the same grid without coordinates,
    # whose pairs share their goal's cost1 tree. Each such search gives its
    # lists back: repeat calls on a small graph reuse them.
    rng = random.Random(41)
    plain, geo = (road_grid_graph(4, 12, 12, coords=coords) for coords in (False, True))
    goals = rng.sample(range(144), 3)
    pairs = [(s, t) for t in goals for s in rng.sample(range(144), 8) if s != t]
    deltas = [Fraction(k, 4) for k in range(5)]
    rows = gen_instances(plain, pairs, deltas, include_reversed=True)
    assert gen_instances(geo, pairs, deltas, include_reversed=True) == rows
    assert len(rows) == 2 * len(pairs) * len(deltas)
    assert {key[1:] for key in goal_trees(plain).entries} == {(BACKWARD, ATTR1),
                                                             (BACKWARD, ATTR2)}
    assert {key[1:] for key in goal_trees(geo).entries} == {(BACKWARD, ATTR2)}
    g = Graph(5, EXAMPLE_EDGES, [(40.0, -73.0 + 0.01 * u) for u in range(5)])
    pool = list_pool(g)
    for calls in (1, 2, 3):
        assert pair_cost2_bounds(g, S, G) == (3, 8)
        assert (pool.fresh, pool.reused, pool.size) == (4, 4 * calls, 4)
    assert list(goal_trees(g).entries) == [(G, BACKWARD, ATTR2)]


def test_oracle_check_passes():
    ok, checked = oracle_check(seed=7, graph_count=100, max_states=30,
                               cost_lo=1, cost_hi=10)
    assert ok
    assert checked > 0


def test_oracle_check_zero_graphs_vacuous(capsys):
    ok, checked = oracle_check(seed=1, graph_count=0, max_states=10,
                               cost_lo=1, cost_hi=10)
    assert ok and checked == 0


def test_oracle_check_detects_injected_fault():
    # a deliberately wrong solver must produce a counterexample report
    def wrong_solver(graph, inst, cfg, options=None):
        return SolveOutcome("optimal", (0, 0))

    lines = []
    ok, _ = oracle_check(seed=3, graph_count=5, max_states=8, cost_lo=1, cost_hi=5,
                         solvers_map={"broken": wrong_solver}, report=lines.append)
    assert not ok
    assert any("MISMATCH" in line for line in lines)
    assert any("a 1" in line or "edges" in line for line in lines)


@pytest.mark.parametrize("mangle", [
    lambda path: path[::-1],  # runs from the goal to the start
    lambda path: path[:-1],  # stops short of the goal
    lambda path: path[:1] + path[:1] + path[1:],  # repeats the start: no such arc
    lambda path: path[:1] + path[2:],  # skips a state
], ids=["reversed", "short", "missing-arc", "skipped-state"])
def test_oracle_check_detects_a_mangled_path(mangle):
    # Right costs with a wrong path: the costs alone would pass every check.
    def mangling_solver(graph, inst, cfg, options=None):
        out = solve_wc_astar(graph, inst, cfg, options)
        if out.status == "optimal" and len(out.path) > 2:
            out.path = mangle(out.path)
        return out

    lines = []
    ok, checked = oracle_check(seed=3, graph_count=5, max_states=8, cost_lo=1, cost_hi=5,
                               solvers_map={"mangled": mangling_solver}, report=lines.append)
    assert not ok
    assert any(line.startswith("MISMATCH") and "path [" in line for line in lines), lines
    # the costs agree with the oracle; only the path is wrong
    assert not any("oracle" in line for line in lines)


def test_randomize_command(example_dimacs, tmp_path, capsys):
    prefix = str(tmp_path / "rand")
    code = main(["randomize", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--seed", "42", "--lo", "1", "--hi", "9", "-o", prefix])
    assert code == 0
    g = load_dimacs(f"{prefix}.cost1.gr", f"{prefix}.cost2.gr")
    original = load_dimacs(*example_dimacs)
    assert all(1 <= c2 <= 9 for _, _, _, c2 in g.edges())
    # cost1 side untouched
    assert [(u, v, c1) for u, v, c1, _ in g.edges()] == \
        [(u, v, c1) for u, v, c1, _ in original.edges()]
    # determinism: the same seed redraws the same weights
    code = main(["randomize", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--seed", "42", "--lo", "1", "--hi", "9", "-o", prefix + "b"])
    g2 = load_dimacs(f"{prefix}b.cost1.gr", f"{prefix}b.cost2.gr")
    assert list(g2.edges()) == list(g.edges())


@pytest.mark.parametrize("flags, named", [
    (["--graphs", "-3"], "--graphs"),  # printed "pass" for no graphs, with no warning
    (["--max-states", "3"], "--max-states"),
    (["--cost-min", "5", "--cost-max", "2"], "--cost-min"),
    (["--cost-min", "-1"], "--cost-min"),
    (["--cost-max", str(2**32)], "--cost-max"),
])
def test_oracle_check_usage_errors_exit_64(capsys, flags, named):
    # Each of these ended in a traceback from the graph generator, but for
    # --graphs -3.
    code = main(["oracle-check", "--graphs", "2"] + flags)
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0]


@pytest.mark.parametrize("lo, hi", [("0", "9"), ("5", "4"), ("-3", "9"), ("1", str(2**32))])
def test_randomize_bad_range_exits_64(example_dimacs, tmp_path, capsys, lo, hi):
    # These ended in a ValueError or GraphFormatError traceback.
    code = main(["randomize", "--cost1", example_dimacs[0], "--cost2", example_dimacs[1],
                 "--seed", "42", "--lo", lo, "--hi", hi, "-o", str(tmp_path / "rand")])
    assert code == EXIT_USAGE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert captured.out == ""
    assert len(err) == 1 and err[0].startswith("error:") and "--lo" in err[0]
    assert not list(tmp_path.glob("rand*"))
