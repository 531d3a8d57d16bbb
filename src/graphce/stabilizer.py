"""Stabilizer tableaux for graph states and Z-basis trace-out bookkeeping.

A graph-state generator is X on its own vertex and Z on each neighbour;
measuring a qubit in the Z basis replaces its generator by +/-Z and folds
the sign into every generator that carried Z on that qubit.  Tracing out a
set A only ever changes the signs of the surviving generators, so counting
distinct post-measurement generator sets reduces to counting distinct sign
patterns over the 2^|A| outcomes.

A signed Pauli string sign * prod_q X_q^(bit q of x) Z_q^(bit q of z) is the
int triple (sign, x, z), with x and z vertex masks; a tableau is a dict from
each qubit to its generator.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, QubitSet, _as_qubitset, cut_rank

ENUMERATION_MAX_QUBITS = 20


@dataclass(frozen=True)
class GF2Vector:
    """A fixed-length vector over GF(2); element ``i`` is bit ``i`` of ``bits``."""

    length: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError(f"negative length {self.length}")
        # canonical padding: bits beyond `length` are zero
        object.__setattr__(self, "bits", self.bits & ((1 << self.length) - 1))

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"index {i} out of range for length {self.length}")
        return (self.bits >> i) & 1

    def __iter__(self):
        return ((self.bits >> i) & 1 for i in range(self.length))

    def __str__(self) -> str:
        return "".join(str(b) for b in self)


@dataclass(frozen=True)
class OutcomeBitstring:
    """Z-measurement outcomes over a support set; bit 0 means +1, bit 1 means -1.

    Bit i of `bits` belongs to the i-th member of `support` in ascending order.
    """

    support: QubitSet
    bits: GF2Vector

    def __post_init__(self) -> None:
        if self.bits.length != len(self.support):
            raise ValueError(f"expected {len(self.support)} outcome bits, got {self.bits.length}")

    @classmethod
    def from_int(cls, support: QubitSet, value: int) -> OutcomeBitstring:
        return cls(support, GF2Vector(len(support), value))


def graph_generators(graph: Graph) -> dict[int, tuple[int, int, int]]:
    """The standard generators: X on each vertex, Z on its neighbourhood."""
    return {a: (1, 1 << a, row) for a, row in enumerate(graph.adj)}


def measure_z(tableau: dict[int, tuple[int, int, int]], a: int, outcome: int) -> dict[int, tuple[int, int, int]]:
    """Tableau after a Z measurement of qubit a with the given outcome (+1 or -1).

    The generator for a becomes +/-Z_a; every other generator carrying Z_a is
    multiplied by it, which clears that factor and, for outcome -1, flips the
    sign.  Generators keep their qubit keys and order.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if a not in tableau:
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


def unitary_support(graph: Graph, a_set: QubitSet, z: OutcomeBitstring) -> GF2Vector:
    """Z-support on B = complement(A) of the outcome unitary U(z).

    Entry for the i-th member of B (ascending) is the parity of z over the
    measured neighbours of that vertex.
    """
    a_set = _as_qubitset(graph.n, a_set)
    if z.support != a_set:
        raise ValueError("outcome support does not match the traced-out set")
    # walk A and then B by lowest set bit: outcome bit i goes to the i-th member of A
    z_mask, rest, value = 0, a_set.members, z.bits.bits
    while rest:
        low = rest & -rest
        z_mask |= low * (value & 1)
        rest, value = rest ^ low, value >> 1
    bits, rest, i = 0, ((1 << graph.n) - 1) ^ a_set.members, 0
    while rest:
        low = rest & -rest
        bits |= ((graph.adj[low.bit_length() - 1] & z_mask).bit_count() & 1) << i
        rest, i = rest ^ low, i + 1
    return GF2Vector(graph.n - len(a_set), bits)


def traced_generator_set(graph: Graph, a_set: QubitSet, z: OutcomeBitstring) -> dict[int, tuple[int, int, int]]:
    """Generators for the surviving qubits B after tracing out A with outcome z.

    Equal to folding measure_z over the members of A in any order and keeping
    the generators of the surviving qubits.
    """
    support = unitary_support(graph, a_set, z)
    b_set = a_set.complement()
    return {b: (-1 if support[i] else 1, 1 << b, graph.adj[b] & b_set.members) for i, b in enumerate(b_set)}


def _support_columns(graph: Graph, a_set: QubitSet) -> list[int]:
    """For each member of A (ascending), its neighbour pattern over B as an int."""
    b_members = list(a_set.complement())
    cols = []
    for a in a_set:
        bits = 0
        for i, b in enumerate(b_members):
            bits |= ((graph.adj[a] >> b) & 1) << i
        cols.append(bits)
    return cols


def count_distinct_sets(graph: Graph, a_set: QubitSet) -> int:
    """Number of distinct generator sets over all 2^|A| outcomes, by enumeration.

    Distinctness is decided by the sign patterns alone, i.e. by the distinct
    values of the outcome unitary's Z-support.  Raises when |A| exceeds the
    enumeration threshold; use count_distinct_sets_fast there instead.
    """
    return len(support_multiplicities(graph, a_set))


def support_multiplicities(graph: Graph, a_set: QubitSet) -> dict[int, int]:
    """Occurrence count of each distinct support value over all 2^|A| outcomes."""
    a_set = _as_qubitset(graph.n, a_set)
    k = len(a_set)
    if k > ENUMERATION_MAX_QUBITS:
        raise ValueError(f"|A| = {k} exceeds enumeration threshold {ENUMERATION_MAX_QUBITS}; use count_distinct_sets_fast")
    cols = _support_columns(graph, a_set)
    counts: dict[int, int] = {0: 1}
    cur = 0
    for g in range(1, 1 << k):
        cur ^= cols[(g & -g).bit_length() - 1]  # Gray-code walk flips one outcome bit
        counts[cur] = counts.get(cur, 0) + 1
    return counts


def count_distinct_sets_fast(graph: Graph, a_set: QubitSet) -> int:
    """Distinct generator-set count as 2^cut_rank(A)."""
    return 1 << cut_rank(graph, _as_qubitset(graph.n, a_set).members)
