import random
import re
import tracemalloc

import pytest

from wcspp.graph import (BACKWARD, COST_MAX, FORWARD, Graph, GraphFormatError, load_dimacs,
                         random_graph, randomize_cost2, write_gr)

from conftest import EXAMPLE_EDGES, G, S, road_grid_graph, write_dimacs_pair


def test_successors_forward_from_start(example_graph):
    assert list(example_graph.successors(S, FORWARD)) == [(1, 1, 4), (2, 3, 4), (3, 3, 1)]


def test_goal_has_no_outgoing(example_graph):
    assert list(example_graph.successors(G, FORWARD)) == []


def test_goal_backward_is_incoming_reversed(example_graph):
    assert list(example_graph.successors(G, BACKWARD)) == [(1, 2, 4), (2, 2, 1), (3, 3, 3)]


def test_load_dimacs_roundtrip(example_dimacs, example_graph):
    g = load_dimacs(*example_dimacs)
    assert g.state_count == 5
    assert list(g.edges()) == list(example_graph.edges())


def test_load_empty_graph(tmp_path):
    p1, p2 = write_dimacs_pair(tmp_path, [], 1)
    g = load_dimacs(p1, p2)
    assert g.state_count == 1
    assert g.edge_count == 0
    assert list(g.successors(0, FORWARD)) == []


def test_duplicate_arcs_keep_lexicographic_minimum(tmp_path):
    # Positional pairing gives attribute pairs (5,7) and (3,9); (3,9) < (5,7).
    edges = [(0, 1, 5, 7), (0, 1, 3, 9), (1, 2, 1, 1)]
    p1, p2 = write_dimacs_pair(tmp_path, edges, 3)
    g = load_dimacs(p1, p2)
    assert list(g.edges()) == [(0, 1, 3, 9), (1, 2, 1, 1)]


def test_dedup_is_idempotent_without_duplicates(example_graph):
    assert example_graph.edge_count == len(EXAMPLE_EDGES)


def test_mismatched_arc_sequences_rejected(tmp_path):
    p1, _ = write_dimacs_pair(tmp_path, [(0, 1, 2, 2)], 2, prefix="a")
    _, p2 = write_dimacs_pair(tmp_path, [(1, 0, 2, 2)], 2, prefix="b")
    with pytest.raises(GraphFormatError):
        load_dimacs(p1, p2)


def test_state_id_out_of_range_rejected(tmp_path):
    p = tmp_path / "bad.gr"
    p.write_text("p sp 2 1\na 1 3 5\n", encoding="utf-8")
    with pytest.raises(GraphFormatError):
        load_dimacs(str(p), str(p))


def test_malformed_line_rejected(tmp_path):
    p = tmp_path / "bad.gr"
    p.write_text("p sp 2 1\nz 1 2 5\n", encoding="utf-8")
    with pytest.raises(GraphFormatError):
        load_dimacs(str(p), str(p))


def test_negative_cost_rejected():
    with pytest.raises(GraphFormatError):
        Graph(2, [(0, 1, -1, 3)])


@pytest.mark.parametrize("count", [0, 4, 6])
def test_coordinate_count_must_match_state_count(count):
    # A short list used to fail only in the first geometric heuristic lookup.
    with pytest.raises(GraphFormatError, match=f"{count} coordinates for 5 states"):
        Graph(5, EXAMPLE_EDGES, [(40.0, -73.0)] * count)
    assert len(Graph(5, EXAMPLE_EDGES, [(40.0, -73.0)] * 5).coords) == 5


def test_reversal_involution_and_conservation():
    rng = random.Random(5)
    for seed in range(20):
        g = random_graph(seed, rng.randint(2, 40), 60)
        fwd = sorted(g.edges())
        rev = []
        for v in range(g.state_count):
            for u, c1, c2 in g.successors(v, BACKWARD):
                rev.append((u, v, c1, c2))
        assert sorted(rev) == fwd
        assert len(rev) == g.edge_count


def test_randomize_cost2_deterministic(example_graph):
    a = randomize_cost2(example_graph, 42, 1, 10000)
    b = randomize_cost2(example_graph, 42, 1, 10000)
    assert list(a.edges()) == list(b.edges())
    assert list(a.edges()) != list(example_graph.edges())


def test_randomize_cost2_degenerate_range(example_graph):
    g = randomize_cost2(example_graph, 1, 5, 5)
    assert all(c2 == 5 for _, _, _, c2 in g.edges())


def test_randomize_cost2_range_and_cost1_preserved(example_graph):
    g = randomize_cost2(example_graph, 1, 1, 10)
    originals = {(u, v): c1 for u, v, c1, _ in example_graph.edges()}
    for u, v, c1, c2 in g.edges():
        assert 1 <= c2 <= 10
        assert c1 == originals[(u, v)]
    # reversal carries the same draws
    forward = set(g.edges())
    for v in range(g.state_count):
        for u, c1, c2 in g.successors(v, BACKWARD):
            assert (u, v, c1, c2) in forward


def test_randomize_rejects_bad_range(example_graph):
    with pytest.raises(ValueError):
        randomize_cost2(example_graph, 1, 0, 5)
    with pytest.raises(ValueError):
        randomize_cost2(example_graph, 1, 5, 4)


def test_coordinates_parsed(tmp_path, example_dimacs):
    co = tmp_path / "g.co"
    lines = ["c coords", "p aux sp co 5"]
    for i in range(5):
        lines.append(f"v {i + 1} {-73000000 + i} {40000000 + i}")
    co.write_text("\n".join(lines) + "\n", encoding="utf-8")
    g = load_dimacs(example_dimacs[0], example_dimacs[1], str(co))
    assert g.coords is not None
    assert g.coords[0] == pytest.approx((40.0, -73.0))


def write_gr_text(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("short_first", [True, False])
def test_arc_count_mismatch_counts_both_files(tmp_path, short_first):
    short, _ = write_dimacs_pair(tmp_path, EXAMPLE_EDGES[:2], 5, prefix="short")
    _, long = write_dimacs_pair(tmp_path, EXAMPLE_EDGES[:5], 5, prefix="long")
    files = (short, long) if short_first else (long, short)
    counts = (2, 5) if short_first else (5, 2)
    with pytest.raises(GraphFormatError, match=re.escape(
            f"arc count mismatch: {files[0]} has {counts[0]}, {files[1]} has {counts[1]}")):
        load_dimacs(*files)


@pytest.mark.parametrize("bad_file", [0, 1])
def test_header_arc_count_must_match_the_arcs(tmp_path, bad_file):
    texts = ["p sp 3 2\na 1 2 4\na 2 3 5\n"] * 2
    texts[bad_file] = "p sp 3 3\na 1 2 4\na 2 3 5\n"
    files = [write_gr_text(tmp_path, f"{i}.gr", t) for i, t in enumerate(texts)]
    with pytest.raises(GraphFormatError, match=re.escape(
            f"{files[bad_file]}: header declares 3 arcs, found 2")):
        load_dimacs(*files)


def test_state_count_mismatch_rejected(tmp_path):
    p1 = write_gr_text(tmp_path, "a.gr", "p sp 3 1\na 1 2 4\n")
    p2 = write_gr_text(tmp_path, "b.gr", "c four states\np sp 4 1\na 1 2 4\n")
    with pytest.raises(GraphFormatError, match=re.escape(
            f"state count mismatch: {p1} has 3, {p2} has 4")):
        load_dimacs(p1, p2)


def test_arc_before_problem_line_rejected(tmp_path):
    good = write_gr_text(tmp_path, "good.gr", "p sp 2 1\na 1 2 4\n")
    bad = write_gr_text(tmp_path, "bad.gr", "c arcs first\na 1 2 4\np sp 2 1\n")
    with pytest.raises(GraphFormatError, match=re.escape(f"{bad}:2: arc before problem line")):
        load_dimacs(good, bad)


def test_missing_problem_line_rejected(tmp_path):
    good = write_gr_text(tmp_path, "good.gr", "p sp 2 0\n")
    bad = write_gr_text(tmp_path, "bad.gr", "c no problem line\n\n")
    with pytest.raises(GraphFormatError, match=re.escape(f"{bad}: missing 'p sp <n> <m>' line")):
        load_dimacs(bad, good)


@pytest.mark.parametrize("line, message", [
    ("a 2 3", "malformed arc line 'a 2 3'"),
    ("x 2 3 5", "unrecognized line 'x 2 3 5'"),
    ("a 2 4 5", "state id out of range 1..3"),
    ("p sp 3 2", "malformed problem line 'p sp 3 2'"),  # a second problem line
    ("a 2 3 x", "non-integer field in arc line 'a 2 3 x'"),
    ("a 2 3 -4", "arc (2,3) weight -4 outside [0, 2^32)"),
], ids=["short-arc", "unknown", "range", "second-p", "non-integer", "negative"])
def test_second_file_malformed_line_rejected(tmp_path, line, message):
    good = write_gr_text(tmp_path, "good.gr", "p sp 3 2\na 1 2 4\na 2 3 5\n")
    bad = write_gr_text(tmp_path, "bad.gr", f"p sp 3 2\na 1 2 4\n{line}\n")
    with pytest.raises(GraphFormatError, match=re.escape(f"{bad}:3: {message}")):
        load_dimacs(good, bad)


@pytest.mark.parametrize("name, text, message", [
    ("bad.gr", "c header\np sp 2 x\n", "2: non-integer field in problem line 'p sp 2 x'"),
    ("bad.gr", "p sp -3 0\n", "1: negative count in 'p sp -3 0'"),
    ("bad.co", "p aux sp co 3\nv 1 1 2\nv 2 1.5 2\n",
     "3: non-integer field in coordinate line 'v 2 1.5 2'"),
], ids=["problem", "negative-count", "coordinate"])
def test_bad_problem_and_coordinate_lines_name_their_file_and_line(tmp_path, name, text,
                                                                   message):
    good = write_gr_text(tmp_path, "good.gr", "p sp 3 2\na 1 2 4\na 2 3 5\n")
    bad = write_gr_text(tmp_path, name, text)
    files = (bad, good) if name.endswith(".gr") else (good, good, bad)
    with pytest.raises(GraphFormatError, match=re.escape(f"{bad}:{message}")):
        load_dimacs(*files)


def test_first_bad_line_in_reading_order_is_reported(tmp_path):
    # The files are read one arc line from each in turn: the second file's
    # bad second arc comes before the first file's bad third arc.
    p1 = write_gr_text(tmp_path, "a.gr", "p sp 3 3\na 1 2 4\na 2 3 5\nz\n")
    p2 = write_gr_text(tmp_path, "b.gr", "p sp 3 3\na 1 2 4\na 3 2 5\na 1 3 1\n")
    with pytest.raises(GraphFormatError, match=re.escape("(2,3) vs (3,2)")):
        load_dimacs(p1, p2)


def test_cost_above_cost_max_rejected(tmp_path):
    p1, p2 = write_dimacs_pair(tmp_path, [(0, 1, 4, 5), (1, 2, COST_MAX + 1, 5)], 3)
    with pytest.raises(GraphFormatError, match=re.escape(
            f"{p1}:4: arc (2,3) weight {COST_MAX + 1} outside [0, 2^32)")):
        load_dimacs(p1, p2)
    p1, p2 = write_dimacs_pair(tmp_path, [(1, 2, COST_MAX, COST_MAX)], 3, prefix="max")
    assert list(load_dimacs(p1, p2).edges()) == [(1, 2, COST_MAX, COST_MAX)]


def csr_arrays(g: Graph) -> list:
    return [*g.arcs[FORWARD], *g.arcs[BACKWARD]]


def reference_csr(n: int, edges) -> list:
    """Both directions' arrays from a plain dict of the smallest pair per arc."""
    best = {}
    for u, v, c1, c2 in edges:
        if (u, v) not in best or (c1, c2) < best[u, v]:
            best[u, v] = (c1, c2)
    arrays = []
    for arcs in (sorted((u, v, c) for (u, v), c in best.items()),
                 sorted((v, u, c) for (u, v), c in best.items())):
        arrays.append([sum(1 for a in arcs if a[0] < u) for u in range(n + 1)])
        arrays += [[a[1] for a in arcs], [a[2][0] for a in arcs], [a[2][1] for a in arcs]]
    return arrays


def test_csr_matches_a_reference_built_from_a_dict(tmp_path):
    rng = random.Random(16)
    costs = (0, 1, 2, 7, COST_MAX - 1, COST_MAX)
    for trial in range(80):
        n = (0, 1, 2)[trial] if trial < 3 else rng.randint(1, 12)
        # Few distinct pairs and costs, so duplicates and ties are common.
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, 8))] if n else []
        edges = [(*rng.choice(pairs), rng.choice(costs), rng.choice(costs))
                 for _ in range(rng.randint(0, 30) if pairs else 0)]
        expected = reference_csr(n, edges)
        assert csr_arrays(Graph(n, edges)) == expected, trial
        assert csr_arrays(Graph(n, iter(edges))) == expected, trial
        files = write_dimacs_pair(tmp_path, edges, n, prefix=f"t{trial}")
        loaded = load_dimacs(*files)
        assert loaded.state_count == n and csr_arrays(loaded) == expected, trial


def test_load_peak_stays_near_what_the_graph_keeps(tmp_path):
    # The loader streams the files into the graph's arrays: no per-arc list
    # exists beside them, so the load peaks under 2x the graph it returns
    # (the old loader peaked at 5x).
    g = road_grid_graph(5, 60, 60)
    files = [str(tmp_path / "g.d.gr"), str(tmp_path / "g.t.gr")]
    for attribute, path in enumerate(files, 1):
        write_gr(g, path, attribute)
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        before = tracemalloc.get_traced_memory()[0]
        loaded = load_dimacs(*files)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert csr_arrays(loaded) == csr_arrays(g)
    assert peak - before <= 2.0 * (kept - before)
