"""Tests for the state-vector oracle and its agreement with the stabilizer engine."""

import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphce.dense import (
    DENSE_MAX_QUBITS,
    MATCH_TOL,
    _project_and_drop,
    apply_generator,
    build_state,
    check_lemma,
    check_measurement_rule,
    check_stabilizer,
    dense_purity,
    outcome_state,
    reduced_density_matrix,
    stabilizes,
)
from graphce.graphs import _members, family, from_edges, pair_count, random_connected_graph
from graphce.metrics import purity
from graphce.stabilizer import (
    graph_generators,
    measure_z,
    support_multiplicities,
    unitary_support,
)
from test_properties import reference_graph

NO13 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def graphs(max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(lambda mask: reference_graph(mask, n))
    )


def test_build_state_single_vertex():
    sv = build_state(from_edges(1, []))
    assert np.allclose(sv, np.array([1, 1]) / np.sqrt(2))


def test_build_state_k2():
    sv = build_state(from_edges(2, [(0, 1)]))
    assert np.allclose(sv, np.array([1, 1, 1, -1]) / 2)


def test_build_state_no13_amplitudes():
    sv = build_state(NO13)
    assert np.allclose(np.abs(sv), 2.0**-3)
    # sign of |111111> is the parity of the edge count (5 edges)
    assert np.isclose(sv[-1].real, -(2.0**-3))
    assert check_stabilizer(NO13)


def test_build_state_guard():
    with pytest.raises(ValueError):
        build_state(family("complete", 15))


def test_dense_purity_goldens():
    assert np.isclose(dense_purity(build_state(from_edges(2, [(0, 1)])), [0]), 0.5)
    sv = build_state(NO13)
    assert np.isclose(dense_purity(sv, [0, 1, 4]), 0.25)
    assert np.isclose(dense_purity(sv, range(6)), 1.0)
    assert np.isclose(dense_purity(sv, []), 1.0)


def test_check_stabilizer_families():
    assert check_stabilizer(from_edges(3, [(0, 1), (0, 2), (1, 2)]))
    assert check_stabilizer(family("snowflake", 3))


def test_sign_flipped_generator_fails():
    sv = build_state(NO13)
    sign, x, z = gen = graph_generators(NO13)[2]
    flipped = (-sign, x, z)
    assert stabilizes(sv, [gen])
    assert not stabilizes(sv, [flipped])
    assert not stabilizes(sv, list(graph_generators(NO13).values()) + [flipped])


def test_measurement_rule_k2():
    k2 = from_edges(2, [(0, 1)])
    assert check_measurement_rule(k2, 0, +1)
    assert check_measurement_rule(k2, 0, -1)
    # spell the -1 case out: remaining qubit ends in |-> = Z|+>
    sv = build_state(k2)
    kept = sv[2:]  # qubit 0 projected onto |1>
    kept = kept / np.linalg.norm(kept)
    minus = np.array([1, -1]) / np.sqrt(2)
    assert np.isclose(abs(np.vdot(minus, kept)), 1.0)


def test_measurement_rule_no13_qubit6():
    assert check_measurement_rule(NO13, 5, -1)
    # dense projection equals Z_3 |G - {6}> up to phase
    sv = build_state(NO13)
    amps = sv.reshape(32, 2)[:, 1]
    amps = amps / np.linalg.norm(amps)
    reduced = build_state(from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    expected = apply_generator(reduced, (1, 0, 1 << 2))
    assert np.isclose(abs(np.vdot(expected, amps)), 1.0)


def test_measurement_rule_random_cases():
    rng = random.Random(89)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 9), rng)
        assert check_measurement_rule(g, rng.randrange(g.n), rng.choice((1, -1)))


def test_lemma_no13_and_snowflake():
    assert check_lemma(NO13, [3, 5])
    sf = family("snowflake", 2)
    assert check_lemma(sf, [0, 2])


def test_lemma_explicit_orthogonality():
    s00 = outcome_state(NO13, [3, 5], 0)
    s10 = outcome_state(NO13, [3, 5], 1)
    assert np.isclose(np.vdot(s00, s00).real, 1.0)
    assert abs(np.vdot(s00, s10)) < 1e-10


def test_lemma_random_cases():
    rng = random.Random(97)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 9), rng)
        size = rng.randint(1, g.n - 1)
        assert check_lemma(g, rng.sample(range(g.n), size))


def test_oracle_purity_equivalence_sample():
    rng = random.Random(101)
    for _ in range(60):
        g = random_connected_graph(rng.randint(2, 10), rng)
        b = _members(rng.getrandbits(g.n))
        exact = float(purity(g, b))
        assert abs(dense_purity(build_state(g), b) - exact) <= 1e-10


def test_subset_ce_matches_dense_power_set():
    from graphce.metrics import concentratable_entanglement

    rng = random.Random(113)
    for _ in range(15):
        g = random_connected_graph(rng.randint(3, 8), rng)
        size = rng.randint(1, min(4, g.n - 1))
        members = sorted(rng.sample(range(g.n), size))
        state = build_state(g)
        total = 0.0
        for picked in range(1 << size):
            alpha = [members[i] for i in range(size) if (picked >> i) & 1]
            total += dense_purity(state, alpha)
        oracle_value = 1.0 - total / (1 << size)
        exact = concentratable_entanglement(g, members)
        assert abs(oracle_value - float(exact)) <= 1e-10


def test_distinct_dense_states_match_multiplicities():
    rng = random.Random(103)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 9), rng)
        size = rng.randint(1, min(6, g.n - 1))
        a = rng.sample(range(g.n), size)
        expected = support_multiplicities(g, a)
        states: dict[int, np.ndarray] = {}
        tally: dict[int, int] = {}
        for value in range(1 << size):
            vec = outcome_state(g, a, value)
            for key, ref in states.items():
                if abs(np.vdot(ref, vec)) > 0.5:
                    tally[key] += 1
                    break
            else:
                states[value] = vec
                tally[value] = 1
        assert len(states) == len(expected)
        assert sorted(tally.values()) == sorted(expected.values())


def test_reduced_state_reconstruction():
    # averaging the k distinct outcome projectors reproduces rho_B elementwise
    rng = random.Random(107)
    for _ in range(15):
        g = random_connected_graph(rng.randint(2, 8), rng)
        size = rng.randint(1, min(5, g.n - 1))
        a = rng.sample(range(g.n), size)
        b = [v for v in range(g.n) if v not in a]
        rho = reduced_density_matrix(build_state(g), b)
        dim = 1 << len(b)
        acc = np.zeros((dim, dim), dtype=np.complex128)
        for value in range(1 << size):
            vec = outcome_state(g, a, value)
            acc += np.outer(vec, vec.conj())
        acc /= 1 << size
        assert np.max(np.abs(acc - rho)) <= 1e-10


def test_statevector_shape_validation():
    # a state is 2^n amplitudes in one axis; anything else names its shape
    for bad in (np.ones(3, dtype=np.complex128), np.ones(0), np.ones((2, 2))):
        for call in (lambda: apply_generator(bad, (1, 0, 0)), lambda: stabilizes(bad, []),
                     lambda: dense_purity(bad, []), lambda: _project_and_drop(bad, 0, 1)):
            message = f"a state needs 2^n amplitudes in one axis, got shape {bad.shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call()


def test_dense_purity_refuses_a_member_beyond_the_state():
    # used to fail inside numpy with "axes don't match array"
    with pytest.raises(ValueError, match="vertex 3 out of range for n=3"):
        dense_purity(build_state(family("linear", 3)), [3, 1])
    with pytest.raises(ValueError, match="vertex -1 out of range for n=6"):
        reduced_density_matrix(build_state(NO13), [-1])


def test_apply_generator_width_check():
    sv = build_state(from_edges(2, [(0, 1)]))
    assert np.allclose(apply_generator(sv, (-1, 0b01, 0)), np.array([-1, 1, -1, -1]) / 2)  # -X_1
    with pytest.raises(ValueError, match="beyond the 2 qubits"):
        apply_generator(sv, (1, 0, 0b100))


def per_edge_state(graph):
    n = graph.n
    amps = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    idx = np.arange(1 << n, dtype=np.uint64)
    for u, v in graph.edges():
        both = ((idx >> np.uint64(n - 1 - u)) & (idx >> np.uint64(n - 1 - v))) & np.uint64(1)
        amps[both == 1] *= -1.0
    return amps


@settings(max_examples=150, deadline=None)
@given(graphs(10))
def test_build_state_equals_per_edge_reference(graph):
    assert np.array_equal(build_state(graph), per_edge_state(graph))


def test_build_state_equals_per_edge_reference_at_the_size_limit():
    graph = family("complete", DENSE_MAX_QUBITS)
    assert np.array_equal(build_state(graph), per_edge_state(graph))


@settings(max_examples=60, deadline=None)
@given(graphs(6), st.integers(0, 2**32 - 1))
def test_generator_products_match_per_subset_reference(graph, seed):
    # on a state no generator fixes, check_stabilizer passes exactly when tol reaches
    # the largest deviation among all 2^n products, so that maximum must match a
    # per-subset loop bit for bit
    rng = np.random.default_rng(seed)
    state = rng.normal(size=1 << graph.n) + 1j * rng.normal(size=1 << graph.n)
    gens = graph_generators(graph)
    worst = 0.0
    for subset in range(1 << graph.n):
        cur = state
        for a in range(graph.n):
            if (subset >> a) & 1:
                cur = apply_generator(cur, gens[a])
        worst = max(worst, np.max(np.abs(cur - state)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("graphce.dense.build_state", lambda g: state)
        assert check_stabilizer(graph, tol=worst)
        assert not check_stabilizer(graph, tol=np.nextafter(worst, 0.0))


def test_check_stabilizer_catches_a_flipped_sign(monkeypatch):
    gens = graph_generators(NO13)
    sign, x, z = gens[4]
    gens[4] = (-sign, x, z)
    monkeypatch.setattr("graphce.dense.graph_generators", lambda g: gens)
    assert not check_stabilizer(NO13)


def test_check_stabilizer_catches_a_flipped_sign_above_the_product_table(monkeypatch):
    # n = 8 skips the 2^n product table, so only the batched generator check can see it
    ring = family("ring", 8)
    gens = graph_generators(ring)
    sign, x, z = gens[4]
    gens[4] = (-sign, x, z)
    assert check_stabilizer(ring)
    monkeypatch.setattr("graphce.dense.graph_generators", lambda g: gens)
    assert not check_stabilizer(ring)


def test_measure_z_without_the_sign_flip_is_caught(monkeypatch):
    # the -1 outcome must flip every generator that carried Z on the measured qubit;
    # the overlap half of the check never reads the tableau, so only its stabilizer half can see this
    assert check_measurement_rule(NO13, 5, -1)
    monkeypatch.setattr("graphce.dense.measure_z", lambda tableau, a, outcome: measure_z(tableau, a, 1))
    assert check_measurement_rule(NO13, 5, +1)
    assert not check_measurement_rule(NO13, 5, -1)


def test_check_lemma_catches_a_wrong_base_state(monkeypatch):
    # the weight of amplitude 1 of |G - A> moved onto amplitude 0: still normalised, but
    # outcomes whose supports differ in the last surviving qubit stop being orthogonal
    real = build_state

    def broken(graph):
        amps = real(graph).copy()
        amps[0], amps[1] = amps[0] * np.sqrt(2.0), 0.0
        return amps

    a = [3, 5]
    assert check_lemma(NO13, a)
    monkeypatch.setattr("graphce.dense.build_state", broken)
    assert not check_lemma(NO13, a)


def projection_matches_outcome_state(graph, a_set):
    """|G> projected onto Z = -1 member by member, highest label first so that the lower
    labels keep their amplitude bits, equals the all-ones outcome state up to phase."""
    state = build_state(graph)
    for a in sorted(a_set, reverse=True):
        state = _project_and_drop(state, a, -1)
    expected = outcome_state(graph, a_set, (1 << len(a_set)) - 1)
    return abs(abs(np.vdot(expected, state)) - 1.0) <= MATCH_TOL


@settings(max_examples=100, deadline=None)
@given(graphs(8).filter(lambda g: g.n >= 2).flatmap(
    lambda g: st.tuples(st.just(g), st.lists(st.integers(0, g.n - 1), min_size=2, max_size=g.n, unique=True))))
def test_multi_qubit_support_matches_dense_projection(case):
    graph, members = case
    assert projection_matches_outcome_state(graph, members)


def test_flipped_support_is_caught_by_the_measurement_rule(monkeypatch):
    # check_lemma cannot see this defect: Z strings on any two different supports give
    # orthogonal states of a graph state, so states built from wrong supports still obey
    # the lemma.  The dense projections, in check_measurement_rule and member by member
    # over A, do not use the support.
    def flipped(graph, a_set, z):
        return unitary_support(graph, a_set, z) ^ 1

    a = [3, 5]
    monkeypatch.setattr("graphce.dense.unitary_support", flipped)
    assert check_lemma(NO13, a)
    assert not check_measurement_rule(NO13, 5, -1)
    assert not check_measurement_rule(NO13, 5, +1)
    assert not projection_matches_outcome_state(NO13, a)
