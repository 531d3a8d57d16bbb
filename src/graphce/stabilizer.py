"""Stabilizer tableaux for graph states and Z-basis trace-out bookkeeping.

A graph-state generator is X on its own vertex and Z on each neighbour;
measuring a qubit in the Z basis replaces its generator by +/-Z and folds
the sign into every generator that carried Z on that qubit.  Tracing out a
set A only ever changes the signs of the surviving generators, so counting
distinct post-measurement generator sets reduces to counting distinct sign
patterns over the 2^|A| outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, QubitSet, cut_rank

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
class PauliGenerator:
    """A signed Pauli string sign * prod_i X_i^{x} Z_i^{z} on n qubits."""

    sign: int
    x_bits: GF2Vector
    z_bits: GF2Vector

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")
        if self.x_bits.length != self.z_bits.length:
            raise ValueError("x_bits and z_bits must have equal length")

    @property
    def n(self) -> int:
        return self.x_bits.length

    def __str__(self) -> str:
        return pauli_str(self)


def pauli_str(gen: PauliGenerator) -> str:
    """Render in the 1-indexed textual style used for display, e.g. "-Z_2 X_3"."""
    factors = []
    for q in range(gen.n):
        if gen.x_bits[q]:
            factors.append(f"X_{q + 1}")
        if gen.z_bits[q]:
            factors.append(f"Z_{q + 1}")
    body = " ".join(factors) if factors else "I"
    return ("-" if gen.sign < 0 else "") + body


@dataclass(frozen=True)
class StabilizerTableau:
    """An ordered list of commuting generators; generator i stabilizes qubits[i]."""

    n: int
    qubits: tuple[int, ...]
    generators: tuple[PauliGenerator, ...]

    def __post_init__(self) -> None:
        if len(self.qubits) != len(self.generators):
            raise ValueError("one generator per listed qubit required")
        for g in self.generators:
            if g.n != self.n:
                raise ValueError(f"generator width {g.n} != tableau width {self.n}")

    def generator_for(self, qubit: int) -> PauliGenerator:
        return self.generators[self.qubits.index(qubit)]

    def __str__(self) -> str:
        return "\n".join(f"S_{q + 1} = {pauli_str(g)}" for q, g in zip(self.qubits, self.generators))


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


def graph_generators(graph: Graph) -> StabilizerTableau:
    """The standard generators: X on each vertex, Z on its neighbourhood."""
    n = graph.n
    gens = tuple(
        PauliGenerator(1, GF2Vector(n, 1 << a), GF2Vector(n, graph.adj[a]))
        for a in range(n)
    )
    return StabilizerTableau(n, tuple(range(n)), gens)


def measure_z(tableau: StabilizerTableau, a: int, outcome: int) -> StabilizerTableau:
    """Tableau after a Z measurement of qubit a with the given outcome (+1 or -1).

    The generator for a becomes +/-Z_a; every other generator carrying Z_a is
    multiplied by it, which clears that factor and, for outcome -1, flips the
    sign.  Generators stay in qubit-label order.
    """
    if outcome not in (1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    if a not in tableau.qubits:
        raise ValueError(f"qubit {a} not present in tableau")
    n = tableau.n
    a_bit = 1 << a
    own = tableau.generator_for(a)
    if not own.x_bits.bits & a_bit:
        raise ValueError(f"qubit {a} already measured")
    new_gens = []
    for q, g in zip(tableau.qubits, tableau.generators):
        if q == a:
            new_gens.append(PauliGenerator(outcome, GF2Vector(n), GF2Vector(n, a_bit)))
        elif g.z_bits.bits & a_bit:
            if g.x_bits.bits & a_bit:
                raise ValueError(f"generator for qubit {q} has X support on {a}; not a Z trace-out tableau")
            new_gens.append(PauliGenerator(g.sign * outcome, g.x_bits, GF2Vector(n, g.z_bits.bits ^ a_bit)))
        else:
            new_gens.append(g)
    return StabilizerTableau(n, tableau.qubits, tuple(new_gens))


def unitary_support(graph: Graph, a_set: QubitSet, z: OutcomeBitstring) -> GF2Vector:
    """Z-support on B = complement(A) of the outcome unitary U(z).

    Entry for the i-th member of B (ascending) is the parity of z over the
    measured neighbours of that vertex.
    """
    if z.support != a_set:
        raise ValueError("outcome support does not match the traced-out set")
    z_mask = 0
    for i, a in enumerate(a_set):
        z_mask |= z.bits[i] << a
    bits = 0
    for i, b in enumerate(a_set.complement()):
        bits |= ((graph.adj[b] & z_mask).bit_count() & 1) << i
    return GF2Vector(graph.n - len(a_set), bits)


def traced_generator_set(graph: Graph, a_set: QubitSet, z: OutcomeBitstring) -> StabilizerTableau:
    """Generators for the surviving qubits B after tracing out A with outcome z.

    Equal to folding measure_z over the members of A in any order and keeping
    the rows of the surviving qubits.
    """
    n = graph.n
    b_set = a_set.complement()
    support = unitary_support(graph, a_set, z)
    gens = []
    for i, b in enumerate(b_set):
        sign = -1 if support[i] else 1
        gens.append(PauliGenerator(sign, GF2Vector(n, 1 << b), GF2Vector(n, graph.adj[b] & b_set.members)))
    return StabilizerTableau(n, tuple(b_set), tuple(gens))


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
    return 1 << cut_rank(graph, a_set.members)
