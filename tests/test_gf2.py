"""Tests for GF(2) elimination on int bit rows (``graphs._eliminate``)."""

import random

from graphce.graphs import _eliminate


def row(text):
    """Bit row from a string with element 0 leftmost."""
    return int(text[::-1], 2)


def transpose(rows, cols):
    return [sum(((r >> j) & 1) << i for i, r in enumerate(rows)) for j in range(cols)]


def test_rank_identity():
    assert len(_eliminate([1 << i for i in range(3)])) == 3


def test_rank_zero_matrix():
    assert len(_eliminate([0, 0])) == 0


def test_rank_no13_biadjacency_rows():
    # hand row-reduction of rows 0011, 0010
    assert len(_eliminate([row("0011"), row("0010")])) == 2


def test_rank_empty_shapes():
    assert len(_eliminate([])) == 0
    assert len(_eliminate([0, 0, 0])) == 0


def test_rank_equals_transpose_rank():
    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 64)
        cols = rng.randint(1, 64)
        m = [rng.getrandbits(cols) for _ in range(rows)]
        assert len(_eliminate(m)) == len(_eliminate(transpose(m, cols)))


def test_rank_matches_span_size():
    # 2^rank is the number of distinct XOR combinations of the rows
    rng = random.Random(13)
    for _ in range(40):
        m = [rng.getrandbits(rng.randint(0, 8)) for _ in range(rng.randint(0, 8))]
        span = {0}
        for r in m:
            span |= {s ^ r for s in span}
        assert 1 << len(_eliminate(m)) == len(span)

