"""Tests for tableau construction, Z trace-out updates and distinct-set counting."""

import random
from collections import Counter

import pytest

from graphce import stabilizer
from graphce.graphs import QubitSet, _eliminate, cut_rank, family, from_edges, random_connected_graph
from graphce.stabilizer import (
    GF2Vector,
    OutcomeBitstring,
    PauliGenerator,
    count_distinct_sets,
    count_distinct_sets_fast,
    graph_generators,
    measure_z,
    pauli_str,
    support_multiplicities,
    traced_generator_set,
    unitary_support,
)

NO13 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def qs(n, members):
    return QubitSet.from_members(n, members)


def test_graph_generators_no13():
    t = graph_generators(NO13)
    g3 = t.generator_for(2)
    assert g3.sign == 1
    assert g3.x_bits == GF2Vector(6, 1 << 2)
    assert sorted(q for q in range(6) if g3.z_bits[q]) == [1, 3, 5]
    assert pauli_str(g3) == "Z_2 X_3 Z_4 Z_6"


def test_graph_generators_k2_and_single_vertex():
    t = graph_generators(from_edges(2, [(0, 1)]))
    assert [pauli_str(g) for g in t.generators] == ["X_1 Z_2", "Z_1 X_2"]
    t1 = graph_generators(from_edges(1, []))
    assert [pauli_str(g) for g in t1.generators] == ["X_1"]


def test_measure_z_example2_sequence():
    # trace out qubits 4 and 6 with outcomes -1, +1: the set {-Z_4, Z_6}
    t = measure_z(measure_z(graph_generators(NO13), 3, -1), 5, +1)
    rendered = [pauli_str(g) for g in t.generators]
    assert rendered == ["X_1 Z_2", "Z_1 X_2 Z_3", "-Z_2 X_3", "-Z_4", "-X_5", "Z_6"]


def test_measure_z_isolated_qubit():
    g = from_edges(3, [(0, 1)])
    t = measure_z(graph_generators(g), 2, +1)
    assert pauli_str(t.generator_for(2)) == "Z_3"
    assert pauli_str(t.generator_for(0)) == "X_1 Z_2"
    assert pauli_str(t.generator_for(1)) == "Z_1 X_2"


def test_measure_z_k2_negative_outcome():
    t = measure_z(graph_generators(from_edges(2, [(0, 1)])), 0, -1)
    assert [pauli_str(g) for g in t.generators] == ["-Z_1", "-X_2"]


def test_measure_z_twice_rejected():
    t = measure_z(graph_generators(NO13), 3, -1)
    with pytest.raises(ValueError, match="already measured"):
        measure_z(t, 3, +1)


def test_unitary_support_zero_bitstring():
    a = qs(6, [3, 5])
    z = OutcomeBitstring.from_int(a, 0)
    assert unitary_support(NO13, a, z) == GF2Vector(4)


def test_unitary_support_no13():
    a = qs(6, [3, 5])
    z = OutcomeBitstring(a, GF2Vector(2, 0b01))  # z_4 = 1, z_6 = 0
    support = unitary_support(NO13, a, z)
    b_members = list(a.complement())
    flipped = [b_members[i] for i in range(support.length) if support[i]]
    assert flipped == [2, 4]  # qubits 3 and 5 of the figure


def test_unitary_support_k2():
    g = from_edges(2, [(0, 1)])
    a = qs(2, [0])
    support = unitary_support(g, a, OutcomeBitstring.from_int(a, 1))
    assert support == GF2Vector(1, 1)


def test_unitary_support_mismatch():
    a = qs(6, [3, 5])
    z = OutcomeBitstring.from_int(qs(6, [2, 3]), 0)
    with pytest.raises(ValueError):
        unitary_support(NO13, a, z)


def test_traced_generator_set_sign_patterns():
    # Example 2's four displayed sets, in outcome order (z_4, z_6)
    a = qs(6, [3, 5])
    patterns = []
    for z4 in (0, 1):
        for z6 in (0, 1):
            t = traced_generator_set(NO13, a, OutcomeBitstring(a, GF2Vector(2, z4 | z6 << 1)))
            signs = {q: g.sign for q, g in zip(t.qubits, t.generators)}
            patterns.append((signs[2], signs[4]))
    assert patterns == [(1, 1), (-1, 1), (-1, -1), (1, -1)]


def test_traced_generator_set_empty_a():
    empty = QubitSet(6, 0)
    t = traced_generator_set(NO13, empty, OutcomeBitstring.from_int(empty, 0))
    assert t == graph_generators(NO13)


def test_traced_generator_set_snowflake_pair():
    g = family("snowflake", 3)
    pair = qs(g.n, [0, 3])  # one core vertex and its pendant
    sets = set()
    for value in range(4):
        t = traced_generator_set(g, pair, OutcomeBitstring.from_int(pair, value))
        sets.add(tuple(gen.sign for gen in t.generators))
    assert len(sets) == 2
    both = traced_generator_set(g, pair, OutcomeBitstring.from_int(pair, 3))
    none = traced_generator_set(g, pair, OutcomeBitstring.from_int(pair, 0))
    assert both != none


def test_traced_equals_measure_z_fold_any_order():
    rng = random.Random(5)
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 9), rng)
        size = rng.randint(1, g.n - 1)
        members = sorted(rng.sample(range(g.n), size))
        a = qs(g.n, members)
        value = rng.getrandbits(size)
        z = OutcomeBitstring.from_int(a, value)
        expected = traced_generator_set(g, a, z)
        order = members[:]
        rng.shuffle(order)
        t = graph_generators(g)
        for vertex in order:
            i = members.index(vertex)
            t = measure_z(t, vertex, -1 if (value >> i) & 1 else 1)
        survivors = tuple(gen for q, gen in zip(t.qubits, t.generators) if q not in a)
        assert survivors == expected.generators


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
        results.add(t)
    assert len(results) == 1


def commute(p, q):
    """Whether two Pauli strings commute: their symplectic inner product is zero."""
    anti = (p.x_bits.bits & q.z_bits.bits).bit_count() + (p.z_bits.bits & q.x_bits.bits).bit_count()
    return anti % 2 == 0


def test_generators_commute_and_are_independent():
    rng = random.Random(41)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 9), rng)
        t = graph_generators(g)
        size = rng.randint(0, g.n - 1)
        for v in rng.sample(range(g.n), size):
            t = measure_z(t, v, rng.choice((1, -1)))
        gens = t.generators
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert commute(gens[i], gens[j])
        stacked = [gen.x_bits.bits | (gen.z_bits.bits << g.n) for gen in gens]
        assert len(_eliminate(stacked)) == len(gens)


def test_count_distinct_sets_no13():
    assert count_distinct_sets(NO13, qs(6, [3, 5])) == 4
    assert count_distinct_sets(NO13, qs(6, [2, 3, 5])) == 4


def test_count_distinct_sets_single_vertex():
    rng = random.Random(43)
    for _ in range(20):
        g = random_connected_graph(rng.randint(2, 9), rng)
        a = qs(g.n, [rng.randrange(g.n)])
        assert count_distinct_sets(g, a) == 2


def test_count_distinct_sets_threshold(monkeypatch):
    monkeypatch.setattr(stabilizer, "ENUMERATION_MAX_QUBITS", 2)
    g = family("complete", 4)
    with pytest.raises(ValueError, match="threshold"):
        count_distinct_sets(g, qs(4, [0, 1, 2]))


def test_count_distinct_sets_fast_cases():
    assert count_distinct_sets_fast(NO13, qs(6, [3, 5])) == 4
    assert count_distinct_sets_fast(NO13, QubitSet(6, 0)) == 1
    star = family("star", 6)
    leaves = qs(6, range(1, 6))
    assert count_distinct_sets_fast(star, leaves) == 2
    assert cut_rank(star, leaves.members) == 1


def test_fast_path_matches_enumeration_exhaustively():
    from graphce.survey import enumerate_connected

    for n in range(2, 7):
        for g in enumerate_connected(n):
            for members in range(1 << n):
                a = QubitSet(n, members)
                assert count_distinct_sets(g, a) == count_distinct_sets_fast(g, a)


def test_fast_path_matches_enumeration_random():
    rng = random.Random(47)
    for _ in range(1000):
        n = rng.randint(2, 12)
        g = random_connected_graph(n, rng)
        a = QubitSet(n, rng.getrandbits(n))
        assert count_distinct_sets(g, a) == count_distinct_sets_fast(g, a)


def test_multiplicity_is_uniform_power_of_two():
    rng = random.Random(53)
    for _ in range(100):
        n = rng.randint(2, 10)
        g = random_connected_graph(n, rng)
        a = QubitSet(n, rng.getrandbits(n))
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
        a = qs(n, rng.sample(range(n), size))
        supports = [unitary_support(g, a, OutcomeBitstring.from_int(a, v)).bits for v in range(1 << size)]
        for x in range(1 << size):
            for y in range(1 << size):
                assert supports[x ^ y] == supports[x] ^ supports[y]


def test_pauli_str_rendering():
    n = 3
    gen = PauliGenerator(-1, GF2Vector(n, 0b010), GF2Vector(n, 0b101))
    assert pauli_str(gen) == "-Z_1 X_2 Z_3"
    identity = PauliGenerator(1, GF2Vector(n), GF2Vector(n))
    assert pauli_str(identity) == "I"
