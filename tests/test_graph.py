import random

import pytest

from wcspp.graph import (BACKWARD, FORWARD, Graph, GraphFormatError, load_dimacs,
                         random_graph, randomize_cost2)

from conftest import EXAMPLE_EDGES, G, S, write_dimacs_pair


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
