"""Tests for tableau construction, Z trace-out updates and distinct-set counting."""

import random
from collections import Counter

import pytest

from graphce import stabilizer
from graphce.graphs import _eliminate, _members, cut_rank, family, from_edges, random_connected_graph
from graphce.stabilizer import (
    count_distinct_sets,
    count_distinct_sets_fast,
    graph_generators,
    measure_z,
    support_multiplicities,
    traced_generator_set,
    unitary_support,
)

NO13 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def render(gen):
    """A (sign, x, z) generator in the paper's 1-indexed style, e.g. "-Z_2 X_3"."""
    sign, x, z = gen
    factors = [f"{p}_{q + 1}" for q in range((x | z).bit_length()) for p, bits in (("X", x), ("Z", z)) if bits >> q & 1]
    return ("-" if sign < 0 else "") + (" ".join(factors) or "I")


def test_graph_generators_no13():
    t = graph_generators(NO13)
    assert list(t) == list(range(6))
    assert t[2] == (1, 1 << 2, 0b101010)
    assert render(t[2]) == "Z_2 X_3 Z_4 Z_6"


def test_graph_generators_k2_and_single_vertex():
    t = graph_generators(from_edges(2, [(0, 1)]))
    assert [render(g) for g in t.values()] == ["X_1 Z_2", "Z_1 X_2"]
    t1 = graph_generators(from_edges(1, []))
    assert [render(g) for g in t1.values()] == ["X_1"]


def test_measure_z_example2_sequence():
    # trace out qubits 4 and 6 with outcomes -1, +1: the set {-Z_4, Z_6}
    t = measure_z(measure_z(graph_generators(NO13), 3, -1), 5, +1)
    rendered = [render(g) for g in t.values()]
    assert rendered == ["X_1 Z_2", "Z_1 X_2 Z_3", "-Z_2 X_3", "-Z_4", "-X_5", "Z_6"]


def test_measure_z_isolated_qubit():
    g = from_edges(3, [(0, 1)])
    t = measure_z(graph_generators(g), 2, +1)
    assert render(t[2]) == "Z_3"
    assert render(t[0]) == "X_1 Z_2"
    assert render(t[1]) == "Z_1 X_2"


def test_measure_z_k2_negative_outcome():
    t = measure_z(graph_generators(from_edges(2, [(0, 1)])), 0, -1)
    assert [render(g) for g in t.values()] == ["-Z_1", "-X_2"]


def test_measure_z_twice_rejected():
    t = measure_z(graph_generators(NO13), 3, -1)
    with pytest.raises(ValueError, match="already measured"):
        measure_z(t, 3, +1)


def test_measure_z_rejects_bad_input():
    t = graph_generators(NO13)
    with pytest.raises(ValueError, match="outcome must be"):
        measure_z(t, 3, 0)
    with pytest.raises(ValueError, match="not present"):
        measure_z(t, 6, +1)
    with pytest.raises(ValueError, match="X support on 3"):
        measure_z({**t, 2: (1, 0b1100, 0b1000)}, 3, +1)


def test_unitary_support_zero_bitstring():
    assert unitary_support(NO13, [3, 5], 0) == 0


def test_unitary_support_no13():
    support = unitary_support(NO13, [5, 3], 0b01)  # z_4 = 1, z_6 = 0: bit i is the i-th member, ascending
    b_members = [0, 1, 2, 4]
    flipped = [b for i, b in enumerate(b_members) if support >> i & 1]
    assert flipped == [2, 4]  # qubits 3 and 5 of the figure


def test_unitary_support_k2():
    assert unitary_support(from_edges(2, [(0, 1)]), [0], 1) == 1


def test_unitary_support_mismatch():
    # an outcome wider than |A| used to lose its high bits and answer for another outcome
    from graphce.dense import outcome_state

    for call in (unitary_support, traced_generator_set, outcome_state):
        assert call(NO13, [3, 5], 3) is not None
        for z in (4, 7, -1):
            with pytest.raises(ValueError, match=rf"outcome {z} does not fit the \|A\| = 2 measured qubits"):
                call(NO13, [3, 5], z)
    with pytest.raises(ValueError, match=r"\|A\| = 0"):
        unitary_support(NO13, [], 1)


def test_traced_generator_set_sign_patterns():
    # Example 2's four displayed sets, in outcome order (z_4, z_6)
    a = [3, 5]
    patterns = []
    for z4 in (0, 1):
        for z6 in (0, 1):
            t = traced_generator_set(NO13, a, z4 | z6 << 1)
            patterns.append((t[2][0], t[4][0]))
    assert patterns == [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def test_traced_generator_set_empty_a():
    t = traced_generator_set(NO13, [], 0)
    assert t == graph_generators(NO13)


def test_traced_generator_set_snowflake_pair():
    g = family("snowflake", 3)
    pair = [0, 3]  # one core vertex and its pendant
    sets = set()
    for value in range(4):
        t = traced_generator_set(g, pair, value)
        sets.add(tuple(sign for sign, _, _ in t.values()))
    assert len(sets) == 2
    both = traced_generator_set(g, pair, 3)
    none = traced_generator_set(g, pair, 0)
    assert both != none


def test_traced_equals_measure_z_fold_any_order():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 9), rng)
        size = rng.randint(1, g.n - 1)
        members = sorted(rng.sample(range(g.n), size))
        value = rng.getrandbits(size)
        expected = traced_generator_set(g, members, value)
        order = members[:]
        rng.shuffle(order)
        t = graph_generators(g)
        for vertex in order:
            i = members.index(vertex)
            t = measure_z(t, vertex, -1 if (value >> i) & 1 else 1)
        assert {q: gen for q, gen in t.items() if q not in members} == expected


def test_measure_z_fold_order_independence():
    rng = random.Random(29)
    g = random_connected_graph(8, rng)
    members = [1, 3, 4, 6]
    outcomes = {1: -1, 3: 1, 4: -1, 6: -1}
    results = set()
    for _ in range(100):
        order = members[:]
        rng.shuffle(order)
        t = graph_generators(g)
        for v in order:
            t = measure_z(t, v, outcomes[v])
        results.add(tuple(t.items()))
    assert len(results) == 1


def commute(p, q):
    """Whether two Pauli strings commute: their symplectic inner product is zero."""
    anti = (p[1] & q[2]).bit_count() + (p[2] & q[1]).bit_count()
    return anti % 2 == 0


def test_generators_commute_and_are_independent():
    rng = random.Random(41)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 9), rng)
        t = graph_generators(g)
        size = rng.randint(0, g.n - 1)
        for v in rng.sample(range(g.n), size):
            t = measure_z(t, v, rng.choice((1, -1)))
        gens = list(t.values())
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert commute(gens[i], gens[j])
        stacked = [x | (z << g.n) for _, x, z in gens]
        assert len(_eliminate(stacked)) == len(gens)


def test_count_distinct_sets_no13():
    assert count_distinct_sets(NO13, [3, 5]) == 4
    assert count_distinct_sets(NO13, [2, 3, 5]) == 4


def test_count_distinct_sets_single_vertex():
    rng = random.Random(43)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 9), rng)
        a = [rng.randrange(g.n)]
        assert count_distinct_sets(g, a) == 2


def test_count_distinct_sets_threshold(monkeypatch):
    monkeypatch.setattr(stabilizer, "ENUMERATION_MAX_QUBITS", 2)
    g = family("complete", 4)
    with pytest.raises(ValueError, match="threshold"):
        count_distinct_sets(g, [0, 1, 2])


def test_count_distinct_sets_fast_cases():
    assert count_distinct_sets_fast(NO13, [3, 5]) == 4
    assert count_distinct_sets_fast(NO13, []) == 1
    star = family("star", 6)
    assert count_distinct_sets_fast(star, range(1, 6)) == 2
    assert cut_rank(star, 0b111110) == 1


def test_fast_path_matches_enumeration_exhaustively():
    from graphce.survey import enumerate_connected

    for n in range(2, 7):
        for g in enumerate_connected(n):
            for members in range(1 << n):
                a = _members(members)
                assert count_distinct_sets(g, a) == count_distinct_sets_fast(g, a)


def test_fast_path_matches_enumeration_random():
    rng = random.Random(47)
    for _ in range(1000):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng)
        a = _members(rng.getrandbits(n))
        assert count_distinct_sets(g, a) == count_distinct_sets_fast(g, a)


def test_multiplicity_is_uniform_power_of_two():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(2, 10)
        g = random_connected_graph(n, rng)
        a = _members(rng.getrandbits(n))
        counts = support_multiplicities(g, a)
        k = len(counts)
        assert k & (k - 1) == 0  # power of two
        assert (1 << len(a)) % k == 0
        assert set(Counter(counts.values())) == {(1 << len(a)) // k}


def test_support_map_linearity():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = random_connected_graph(n, rng)
        size = rng.randint(1, min(6, n))
        a = rng.sample(range(n), size)
        supports = [unitary_support(g, a, v) for v in range(1 << size)]
        for x in range(1 << size):
            for y in range(1 << size):
                assert supports[x ^ y] == supports[x] ^ supports[y]

