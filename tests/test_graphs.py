"""Tests for graph construction, families, graph6 I/O and canonical forms."""

import math
import random
import warnings

import pytest

from graphce.graphs import (
    DuplicateEdgeWarning,
    Graph,
    Graph6Error,
    _eliminate,
    _mask,
    canonical_form,
    cut_rank,
    family,
    from_edges,
    is_connected,
    parse_edge_list,
    parse_graph6,
    random_connected_graph,
    write_edge_list,
    write_graph6,
)

NO13_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]


def no13():
    return from_edges(6, NO13_EDGES)


def neighbours(g, v):
    return [u for u in range(g.n) if g.adj[v] >> u & 1]


def permute(graph, order):
    """Relabelled copy: new vertex i is old vertex order[i]."""
    inv = {old: new for new, old in enumerate(order)}
    return from_edges(graph.n, [(inv[u], inv[v]) for u, v in graph.edges()])


def test_from_edges_k2():
    g = from_edges(2, [(0, 1)])
    assert g.edges() == [(0, 1)]


def test_from_edges_no13():
    g = no13()
    assert g.n == 6
    assert len(g.edges()) == 5
    assert g.adj[2] >> 5 & 1


def test_from_edges_k3():
    g = from_edges(3, [(0, 1), (0, 2), (1, 2)])
    assert len(g.edges()) == 3


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        from_edges(3, [(1, 1)])


def test_int_arguments_take_numpy_integers_and_refuse_floats():
    # numpy integers used to raise AttributeError on `bit_length`
    import numpy as np

    from graphce.metrics import ce_report, purity
    from graphce.stabilizer import count_distinct_sets

    g = no13()
    assert purity(g, np.array([0, 1, 4])) == purity(g, [0, 1, 4])
    assert ce_report(g, np.array([0, 2])) == ce_report(g, [0, 2])
    assert count_distinct_sets(g, np.array([0])) == count_distinct_sets(g, [0]) == 2
    rank = cut_rank(g, np.int64(3))
    assert (type(rank), rank) == (int, cut_rank(g, 3))
    ring = family("ring", np.int64(5))
    assert ring == family("ring", 5) and type(ring.n) is int
    edge = from_edges(np.int64(3), [(np.int64(0), np.int64(1))])
    assert edge == from_edges(3, [(0, 1)]) and type(edge.n) is int
    for call in (lambda: purity(g, [0, 1.0]), lambda: ce_report(g, [2.0]), lambda: count_distinct_sets(g, [0.0]),
                 lambda: cut_rank(g, 3.0), lambda: family("ring", 5.0), lambda: from_edges(3.0, []),
                 lambda: from_edges(3, [(0, 1.0)])):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            call()


def test_from_edges_warns_on_duplicates():
    with pytest.warns(DuplicateEdgeWarning):
        g = from_edges(3, [(0, 1), (1, 0)])
    assert len(g.edges()) == 1


def test_family_star():
    g = family("star", 4)
    assert neighbours(g, 0) == [1, 2, 3]
    assert g.adj[1].bit_count() == 1


def test_family_snowflake_shape():
    g = family("snowflake", 8)
    assert g.n == 16
    for i in range(8):
        assert g.adj[i] >> (i + 8) & 1  # each core vertex carries one pendant
        assert g.adj[i + 8].bit_count() == 1
    for u in range(8):
        for v in range(u + 1, 8):
            assert g.adj[u] >> v & 1


def test_family_ring3_is_triangle():
    assert family("ring", 3) == family("complete", 3)


def test_family_edge_counts_closed_forms():
    for n in range(3, 9):
        assert len(family("star", n).edges()) == n - 1
        assert len(family("ring", n).edges()) == n
        assert len(family("complete", n).edges()) == n * (n - 1) // 2
        assert len(family("snowflake", n).edges()) == n * (n - 1) // 2 + n


def test_family_validation():
    with pytest.raises(ValueError):
        family("ring", 2)
    with pytest.raises(ValueError):
        family("star", 0)
    with pytest.raises(ValueError):
        family("banana", 4)


def test_adjacency_row_no13():
    # vertex 2 is qubit 3 of the figure; S_3 = Z_2 X_3 Z_4 Z_6
    assert neighbours(no13(), 2) == [1, 3, 5]


def test_adjacency_row_simple_cases():
    assert neighbours(from_edges(2, [(0, 1)]), 0) == [1]
    assert neighbours(family("star", 5), 0) == [1, 2, 3, 4]


def test_biadjacency_no13():
    # cut rows adj[a] & ~A over A = {qubits 4, 6}: 0011 and 0010 on qubits 1, 2, 3, 5
    g = no13()
    a = _mask(6, [3, 5])
    assert [g.adj[v] & ~a for v in (3, 5)] == [0b010100, 0b000100]
    assert cut_rank(g, a) == 2


def test_biadjacency_edge_cases():
    g = from_edges(2, [(0, 1)])
    assert cut_rank(g, 0) == 0
    assert cut_rank(g, 0b11) == 0
    assert cut_rank(g, 0b01) == 1
    with pytest.raises(ValueError, match="out of range"):
        cut_rank(g, 0b100)


def test_biadjacency_transpose_symmetry():
    # rows A -> B and rows B -> A are transposes of each other
    rng = random.Random(3)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 9), rng)
        a = sum(1 << v for v in range(g.n) if rng.random() < 0.5)
        b = ((1 << g.n) - 1) ^ a
        a_rows = [g.adj[v] & b for v in range(g.n) if (a >> v) & 1]
        b_rows = [g.adj[v] & a for v in range(g.n) if (b >> v) & 1]
        assert len(_eliminate(a_rows)) == len(_eliminate(b_rows)) == cut_rank(g, a) == cut_rank(g, b)


# graph6 of random_connected_graph(n, rng) for n = 2..10 drawn in turn from one
# Random(seed), then the stream's next random()
RANDOM_GRAPH_GOLDENS = [
    (0, ["A_", "Bw", "Cm", "DyO", "E}io", "F|UVo", "GjJ`r_", "Hl\\JhuA", "Ikjv}V`|w"], 0.5691127395242802),
    (1, ["A_", "Bw", "C~", "Dlk", "Ep_o", "FylCG", "G|Tp][", "Hh]jg`X", "I~~dVzyIG"], 0.6485064180992564),
    (7, ["A_", "Bg", "Cr", "Dyo", "EmuG", "F||Zo", "Gp|^bS", "H~~ie|[", "I~vZ^^}{o"], 0.027042491422168524),
    (238, ["A_", "Bg", "Ct", "D~k", "EkSW", "F}|PW", "GhYzC{", "Hv~Tpwv", "I|tmQc{eG"], 0.6738344747822692),
    (12345, ["A_", "Bg", "C|", "D|W", "Ezfg", "FlEcg", "G}~nu?", "H~r}rsM", "IuNY|W}]g"], 0.2726232137466206),
]


@pytest.mark.parametrize("seed, graph6s, next_draw", RANDOM_GRAPH_GOLDENS)
def test_random_connected_graph_draw_sequence(seed, graph6s, next_draw):
    # a failing verify names its seed and graph6; both only reproduce the case while
    # random_connected_graph draws the same numbers in the same order
    rng = random.Random(seed)
    assert [write_graph6(random_connected_graph(n, rng)) for n in range(2, 11)] == graph6s
    assert rng.random() == next_draw


def test_is_connected():
    assert is_connected(from_edges(2, [(0, 1)]))
    assert not is_connected(from_edges(2, []))
    assert is_connected(family("snowflake", 4))


def test_graph6_known_encodings():
    assert write_graph6(from_edges(2, [(0, 1)])) == "A_"
    assert write_graph6(from_edges(3, [(0, 1), (0, 2), (1, 2)])) == "Bw"
    assert parse_graph6("A_") == from_edges(2, [(0, 1)])
    assert parse_graph6("Bw") == from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_graph6_path_roundtrip():
    assert write_graph6(parse_graph6("Bg")) == "Bg"
    assert parse_graph6("Bg") == from_edges(3, [(0, 1), (1, 2)])


def test_graph6_random_roundtrip():
    rng = random.Random(17)
    for _ in range(1000):
        n = rng.randint(1, 16)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        g = from_edges(n, edges)
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_header_stripped():
    assert parse_graph6(">>graph6<<A_") == from_edges(2, [(0, 1)])


def test_graph6_malformed():
    with pytest.raises(Graph6Error):
        parse_graph6("A\x1f")  # character below printable range
    with pytest.raises(Graph6Error):
        parse_graph6("A")  # missing body byte
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("A" + chr(63 + 1))  # padding bit set for K2 body
    assert exc.value.offset == 1
    with pytest.raises(Graph6Error):
        parse_graph6(chr(126))  # long-form length byte unsupported


def test_parsers_refuse_non_text_input():
    # these used to raise AttributeError from inside the parser
    with pytest.raises(TypeError, match="graph6 input must be str, not int"):
        parse_graph6(123)
    with pytest.raises(TypeError, match="edge-list input must be str, not NoneType"):
        parse_edge_list(None)
    with pytest.raises(TypeError, match="graph6 input must be str, not bytes"):
        parse_graph6(b"EhC_")


def test_edge_list_roundtrip():
    g = no13()
    assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_validation():
    with pytest.raises(ValueError):
        parse_edge_list("3\n0 1\n")  # labels are 1-indexed
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_canonical_form_relabelled_paths():
    p1 = from_edges(3, [(0, 1), (1, 2)])
    p2 = from_edges(3, [(1, 0), (0, 2)])  # path 1-0-2
    assert canonical_form(p1) == canonical_form(p2)


def test_canonical_form_distinguishes():
    path = from_edges(3, [(0, 1), (1, 2)])
    triangle = from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert canonical_form(path) != canonical_form(triangle)


def test_canonical_form_all_path_labelings():
    import itertools

    path = from_edges(3, [(0, 1), (1, 2)])
    keys = {canonical_form(permute(path, order)) for order in itertools.permutations(range(3))}
    assert len(keys) == 1


def test_canonical_form_permutation_invariance():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_connected_graph(n, rng)
        order = list(range(n))
        rng.shuffle(order)
        assert canonical_form(g) == canonical_form(permute(g, order))


def test_canonical_form_matches_brute_force_min():
    import itertools

    from graphce.graphs import graph_to_mask, mask_to_graph, pair_count

    for n in (4, 5):
        for mask in range(1 << pair_count(n)):
            g = mask_to_graph(mask, n)
            brute = min(graph_to_mask(permute(g, order)) for order in itertools.permutations(range(n)))
            assert canonical_form(g) == bytes([n]) + brute.to_bytes((pair_count(n) + 7) // 8, "big")


def test_canonical_form_bound():
    with pytest.raises(ValueError):
        canonical_form(family("complete", 9))


def test_canonical_form_symmetric_graphs_fast():
    # fully symmetric worst cases must not blow up the ordering search
    for n in (6, 7, 8):
        canonical_form(family("complete", n))
        canonical_form(family("ring", n))


def test_family_vertex_counts():
    assert family("linear", 1).n == 1
    assert family("snowflake", 1).n == 2
    assert math.comb(5, 2) == len(family("complete", 5).edges())


def test_edge_list_errors_name_the_line():
    with pytest.raises(ValueError, match=r"line 2: vertex labels must be integers, got '1 x'"):
        parse_edge_list("3\n1 x")
    # blank and comment lines still count towards the line number
    with pytest.raises(ValueError, match=r"line 4: vertex label out of range 1\.\.3, got '2 4'"):
        parse_edge_list("# header\n3\n\n2 4\n")
    with pytest.raises(ValueError, match=r"line 3: expected 'u v' pair, got '1 2 3'"):
        parse_edge_list("3\n1 2\n1 2 3\n")
    with pytest.raises(ValueError, match=r"line 2: self-loop, got '3 3'"):
        parse_edge_list("3\n3 3\n")
    with pytest.raises(ValueError, match=r"line 1: first line must be the vertex count, got 'x'"):
        parse_edge_list("x\n")


def test_edge_list_negative_vertex_count_names_the_line():
    with pytest.raises(ValueError, match=r"^line 1: vertex count must be non-negative, got '-3'$"):
        parse_edge_list("-3\n")
    with pytest.raises(ValueError, match=r"^line 2: vertex count must be non-negative, got '-1'$"):
        parse_edge_list("# comment\n-1\n1 2\n")


def test_graph_validation_messages():
    with pytest.raises(ValueError, match=r"^adjacency row 1 has bits beyond vertex range$"):
        Graph(3, (0b010, 0b1001, 0))
    with pytest.raises(ValueError, match=r"^self-loop at vertex 2$"):
        Graph(3, (0, 0, 0b100))
    # several asymmetries: (1, 3) and (1, 4) on vertex 1, (2, 4) beyond it, and (0, 2) is symmetric;
    # the message names the smallest vertex and then its smallest partner, whichever row holds the bit
    adj = (0b00100, 0b10000, 0b10001, 0b00010, 0b00000)
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(1, 3\)$"):
        Graph(5, adj)
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(0, 1\)$"):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(0, 1\)$"):
        Graph(2, (0b00, 0b01))


def test_graph_validation_past_one_tile():
    # 80 vertices: the symmetry check spans four 64 x 64 tiles
    g = family("snowflake", 40)
    adj = list(g.adj)
    adj[70] |= 1 << 3  # 70 and 3 are not joined in the snowflake
    with pytest.raises(ValueError, match=r"^adjacency not symmetric at \(3, 70\)$"):
        Graph(80, tuple(adj))


def test_graph6_bad_character_offset_mid_body():
    for bad in ("\x01", "\x7f", " ", "é"):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("Eh" + bad + "_")
        assert exc.value.offset == 2
        assert str(exc.value) == f"character {bad!r} outside printable graph6 range (byte offset 2)"
    with pytest.raises(Graph6Error) as exc:
        parse_graph6(">>graph6<<EhC\x00")  # offsets count from the end of the header
    assert exc.value.offset == 3


def test_duplicate_edge_warning_text():
    with pytest.warns(DuplicateEdgeWarning) as record:
        g = from_edges(4, [(0, 1), (3, 2), (1, 0), (2, 3)])
    assert [str(w.message) for w in record] == ["duplicate edge (0, 1) collapsed", "duplicate edge (2, 3) collapsed"]
    assert g == from_edges(4, [(0, 1), (2, 3)])
    with pytest.warns(DuplicateEdgeWarning) as record:
        g = parse_edge_list("4\n1 2\n4 3\n2 1\n")
    assert [str(w.message) for w in record] == ["duplicate edge (0, 1) collapsed"]
    assert g == from_edges(4, [(0, 1), (2, 3)])
    # an edge list rejected further down warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^line 4: vertex labels must be integers, got '1 x'$"):
            parse_edge_list("4\n1 2\n2 1\n1 x\n")


def test_vertex_cap_admits_its_limit():
    from graphce.graphs import MAX_VERTICES

    g = parse_edge_list(f"{MAX_VERTICES}\n1 {MAX_VERTICES}\n")
    assert g.adj[0] == 1 << (MAX_VERTICES - 1) and sum(map(int.bit_count, g.adj)) == 2
    assert family("snowflake", MAX_VERTICES // 2).n == MAX_VERTICES
