"""Property tests: cut-rank against the enumeration oracle, and DyadicRational against Fraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphce.graphs import QubitSet, _row_rank, cut_rank, mask_to_graph, pair_count
from graphce.metrics import DyadicRational
from graphce.stabilizer import count_distinct_sets

MAX_N = 10

graphs = st.integers(1, MAX_N).flatmap(
    lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(lambda mask: mask_to_graph(mask, n))
)


@st.composite
def graph_and_sets(draw, count):
    g = draw(graphs)
    return (g,) + tuple(draw(st.integers(0, (1 << g.n) - 1)) for _ in range(count))


@settings(max_examples=200, deadline=None)
@given(graph_and_sets(1))
def test_cut_rank_is_log2_of_enumerated_distinct_sets(case):
    g, a = case
    assert 1 << cut_rank(g, a) == count_distinct_sets(g, QubitSet(g.n, a))


@settings(max_examples=200, deadline=None)
@given(graph_and_sets(1))
def test_cut_rank_complement_symmetry(case):
    g, a = case
    b = ((1 << g.n) - 1) ^ a
    assert cut_rank(g, a) == cut_rank(g, b)
    # the same symmetry without the kernel's choice of the smaller side
    rows_a = [g.adj[v] & b for v in range(g.n) if (a >> v) & 1]
    rows_b = [g.adj[v] & a for v in range(g.n) if (b >> v) & 1]
    assert _row_rank(rows_a) == _row_rank(rows_b)


@settings(max_examples=200, deadline=None)
@given(graph_and_sets(2))
def test_cut_rank_is_submodular(case):
    g, x, y = case
    assert cut_rank(g, x) + cut_rank(g, y) >= cut_rank(g, x | y) + cut_rank(g, x & y)


dyadics = st.builds(DyadicRational, st.integers(0, 1 << 40), st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(dyadics, dyadics)
def test_dyadic_matches_fraction(x, y):
    fx, fy = x.as_fraction(), y.as_fraction()
    assert (x + y).as_fraction() == fx + fy
    assert (x * y).as_fraction() == fx * fy
    assert (x < y) == (fx < fy)
    if fx >= fy:
        assert (x - y).as_fraction() == fx - fy
    else:
        with pytest.raises(ValueError):
            x - y

