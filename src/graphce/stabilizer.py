"""Stabilizer tableaux for graph states and Z-basis trace-out bookkeeping.

A graph-state generator is X on its own vertex and Z on each neighbour;
measuring a qubit in the Z basis replaces its generator by +/-Z and folds
the sign into every generator that carried Z on that qubit.  Tracing out a
set A only ever changes the signs of the surviving generators, so counting
distinct post-measurement generator sets reduces to counting distinct sign
patterns over the 2^|A| outcomes.

A signed Pauli string sign * prod_q X_q^(bit q of x) Z_q^(bit q of z) is the
int triple (sign, x, z), with x and z vertex masks; a tableau is a dict from
each qubit to its generator.  Vertex sets are iterables of 0-indexed vertices,
held as int masks inside.  An outcome z on A is an int, bit i for the i-th
member of A in ascending order (0 for +1, 1 for -1), and the support of U(z)
on B = complement(A) is an int, bit i for the i-th member of B.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .graphs import Graph, _mask, _members, cut_rank

ENUMERATION_MAX_QUBITS = 20


def graph_generators(graph: Graph) -> dict[int, tuple[int, int, int]]:
    """The standard generators: X on each vertex, Z on its neighbourhood."""
    return {a: (1, 1 << a, row) for a, row in enumerate(graph.adj)}


def measure_z(tableau: dict[int, tuple[int, int, int]], a: int, outcome: int) -> dict[int, tuple[int, int, int]]:
    """Tableau after a Z measurement of qubit a with the given outcome (+1 or -1).

    The generator for a becomes +/-Z_a; every other generator carrying Z_a is
    multiplied by it, which clears that factor and, for outcome -1, flips the
    sign.  Generators keep their qubit keys and order.
    """
    if (outcome := operator.index(outcome)) not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if (a := operator.index(a)) not in tableau:
        raise ValueError(f"qubit {a} not present in tableau")
    a_bit = 1 << a
    if not tableau[a][1] & a_bit:
        raise ValueError(f"qubit {a} already measured")
    new = {}
    for q, (sign, x, z) in tableau.items():
        if q == a:
            sign, x, z = outcome, 0, a_bit
        elif z & a_bit:
            if x & a_bit:
                raise ValueError(f"generator for qubit {q} has X support on {a}; not a Z trace-out tableau")
            sign, z = sign * outcome, z ^ a_bit
        new[q] = (sign, x, z)
    return new


def unitary_support(graph: Graph, a_set: Iterable[int], z: int) -> int:
    """Z-support on B = complement(A) of the outcome unitary U(z).

    Bit i of the outcome z belongs to the i-th member of A in ascending order, and
    bit i of the result to the i-th member of B: the parity of z over the measured
    neighbours of that vertex.
    """
    a = _mask(graph.n, a_set)
    if (z := operator.index(z)) < 0 or z >> a.bit_count():
        raise ValueError(f"outcome {z} does not fit the |A| = {a.bit_count()} measured qubits")
    # walk A and then B by lowest set bit: outcome bit i goes to the i-th member of A
    z_mask, rest, value = 0, a, z
    while rest:
        low = rest & -rest
        z_mask |= low * (value & 1)
        rest, value = rest ^ low, value >> 1
    bits, rest, i = 0, ((1 << graph.n) - 1) ^ a, 0
    while rest:
        low = rest & -rest
        bits |= ((graph.adj[low.bit_length() - 1] & z_mask).bit_count() & 1) << i
        rest, i = rest ^ low, i + 1
    return bits


def traced_generator_set(graph: Graph, a_set: Iterable[int], z: int) -> dict[int, tuple[int, int, int]]:
    """Generators for the surviving qubits B after tracing out A with outcome z.

    Equal to folding measure_z over the members of A in any order and keeping
    the generators of the surviving qubits.
    """
    a = _mask(graph.n, a_set)
    support = unitary_support(graph, _members(a), z)
    b = ((1 << graph.n) - 1) ^ a
    return {v: (-1 if support >> i & 1 else 1, 1 << v, graph.adj[v] & b) for i, v in enumerate(_members(b))}


def count_distinct_sets(graph: Graph, a_set: Iterable[int]) -> int:
    """Number of distinct generator sets over all 2^|A| outcomes, by enumeration.

    Distinctness is decided by the sign patterns alone, i.e. by the distinct
    values of the outcome unitary's Z-support.  Raises when |A| exceeds the
    enumeration threshold; use count_distinct_sets_fast there instead.
    """
    return len(support_multiplicities(graph, a_set))


def support_multiplicities(graph: Graph, a_set: Iterable[int]) -> dict[int, int]:
    """Occurrence count of each distinct support value over all 2^|A| outcomes."""
    a = _mask(graph.n, a_set)
    k = a.bit_count()
    if k > ENUMERATION_MAX_QUBITS:
        raise ValueError(f"|A| = {k} exceeds enumeration threshold {ENUMERATION_MAX_QUBITS}; use count_distinct_sets_fast")
    # z -> U(z) is linear, so flipping outcome bit i XORs in the support of the unit outcome 1 << i
    members = _members(a)
    cols = [unitary_support(graph, members, 1 << i) for i in range(k)]
    counts: dict[int, int] = {0: 1}
    cur = 0
    for g in range(1, 1 << k):
        cur ^= cols[(g & -g).bit_length() - 1]  # Gray-code walk flips one outcome bit
        counts[cur] = counts.get(cur, 0) + 1
    return counts


def count_distinct_sets_fast(graph: Graph, a_set: Iterable[int]) -> int:
    """Distinct generator-set count as 2^cut_rank(A)."""
    return 1 << cut_rank(graph, _mask(graph.n, a_set))
