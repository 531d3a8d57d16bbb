"""Brute-force state-vector reference for cross-checking the stabilizer engine.

Amplitude indices put qubit 0 at the most significant bit.  Everything here
is float/complex and deliberately independent of the exact rational code
paths it verifies.

Each check is a few batched numpy operations over cached, read-only index
and bit tables, one per width.  ``build_state`` reads every CZ phase off one
matrix product with the bit table; ``_apply`` gathers a whole batch of
generators at once, so each check applies all of its generators in one call.
``check_stabilizer`` builds all 2^n generator products by doubling for
n <= 6, and ``check_lemma`` forms every outcome state as a sign matrix times
one base state and compares the whole Gram matrix at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .graphs import Graph, QubitSet, induced_subgraph
from .stabilizer import OutcomeBitstring, graph_generators, measure_z, unitary_support

DENSE_MAX_QUBITS = 14
MEASURE_MAX_QUBITS = 12
LEMMA_MAX_TRACED = 8

STATE_TOL = 1e-12
MATCH_TOL = 1e-10


@dataclass(frozen=True)
class StateVector:
    """A pure state on n qubits; amplitudes indexed with qubit 0 as the MSB."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes, got shape {self.amplitudes.shape}")


def _index_mask(qubit_bits: int, n: int) -> int:
    """Convert a qubit bitset (bit q = qubit q) to an amplitude-index bitmask."""
    return int(format(qubit_bits, f"0{n}b")[::-1], 2)


def _parity(values: np.ndarray) -> np.ndarray:
    return np.bitwise_count(values.astype(np.uint64, copy=False)) & 1


@lru_cache(maxsize=None)
def _indices(n: int) -> np.ndarray:
    """The amplitude indices 0 .. 2^n - 1, shared and read-only."""
    idx = np.arange(1 << n, dtype=np.uint64)
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=None)
def _bits(n: int) -> np.ndarray:
    """The 2^n x n float table whose entry (i, q) is qubit q's bit of index i, shared and read-only."""
    shifts = np.arange(n - 1, -1, -1, dtype=np.uint64)
    bits = ((_indices(n)[:, np.newaxis] >> shifts) & np.uint64(1)).astype(np.float64)
    bits.flags.writeable = False
    return bits


def build_state(graph: Graph) -> StateVector:
    """|+>^n with a controlled-Z applied across every edge."""
    n = graph.n
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense oracle limited to n <= {DENSE_MAX_QUBITS}, got {n}")
    bits = _bits(n)
    adj = ((np.array(graph.adj, dtype=np.int64)[:, np.newaxis] >> np.arange(n)) & 1).astype(np.float64)
    # b^T A b counts every edge inside index i twice, so bit 1 of it is the CZ phase
    twice_edges = np.einsum("ij,ij->i", bits @ adj, bits).astype(np.int64)
    amps = (1.0 - (twice_edges & 2)) * 2.0 ** (-n / 2)
    return StateVector(n, amps.astype(np.complex128))


def _apply(amps: np.ndarray, gens: Sequence[tuple[int, int, int]], n: int) -> np.ndarray:
    """sign * prod X^x Z^z for each gen = (sign, x, z) on n qubits, along the last axis of amps; a row per gen."""
    if any((x | z) >> n for _, x, z in gens):
        raise ValueError(f"generator acts beyond the {n} qubits of the state")
    signs = np.array([sign for sign, _, _ in gens], dtype=np.float64)[:, np.newaxis]
    src = _indices(n) ^ np.array([_index_mask(x, n) for _, x, _ in gens], dtype=np.uint64)[:, np.newaxis]
    z_masks = np.array([_index_mask(z, n) for _, _, z in gens], dtype=np.uint64)[:, np.newaxis]
    return signs * (1.0 - 2.0 * _parity(src & z_masks)) * amps[..., src]


def apply_generator(state: StateVector, gen: tuple[int, int, int]) -> StateVector:
    """Apply a signed Pauli string (sign, x, z), sign * prod X^x Z^z, to the state."""
    return StateVector(state.n, _apply(state.amplitudes, [gen], state.n)[0])


def stabilizes(state: StateVector, gens: Sequence[tuple[int, int, int]], tol: float = STATE_TOL) -> bool:
    """True iff every generator fixes the state: S|psi> = |psi> within tol."""
    out = _apply(state.amplitudes, gens, state.n)
    return bool(np.max(np.abs(out - state.amplitudes), initial=0.0) <= tol)


def check_stabilizer(graph: Graph, tol: float = STATE_TOL) -> bool:
    """Every generator (and for n <= 6 every generator product) fixes |G>."""
    state = build_state(graph)
    gens = list(graph_generators(graph).values())
    if graph.n > 6:
        return stabilizes(state, gens, tol)
    # row S of products is prod_{a in S} g_a |G>, applied in ascending a; the rows
    # of the singletons S = {a} are the generators themselves
    products = state.amplitudes[np.newaxis]
    for gen in gens:
        products = np.concatenate((products, _apply(products, [gen], graph.n)[:, 0]))
    return bool(np.max(np.abs(products - state.amplitudes)) <= tol)


def reduced_density_matrix(state: StateVector, b: QubitSet) -> np.ndarray:
    """rho_B after tracing out the complement, ordered by ascending B members."""
    n = state.n
    b_list = list(b)
    a_list = list(b.complement())
    tensor = state.amplitudes.reshape((2,) * n) if n else state.amplitudes.reshape(())
    mat = np.transpose(tensor, axes=b_list + a_list).reshape(1 << len(b_list), 1 << len(a_list))
    return mat @ mat.conj().T


def dense_purity(state: StateVector, b: QubitSet) -> float:
    """Tr(rho_B^2) from the explicitly assembled reduced density matrix."""
    rho = reduced_density_matrix(state, b)
    return float(np.sum(np.abs(rho) ** 2))


def _project_and_drop(state: StateVector, a: int, outcome: int) -> StateVector:
    """Project qubit a onto the Z eigenstate for the outcome, renormalize, drop the qubit."""
    n = state.n
    keep_bit = 0 if outcome == 1 else 1
    p = n - 1 - a
    sub = _indices(n - 1)
    full = ((sub >> np.uint64(p)) << np.uint64(p + 1)) | np.uint64(keep_bit << p) | (sub & np.uint64((1 << p) - 1))
    amps = state.amplitudes[full]
    norm = np.linalg.norm(amps)
    if norm < 1e-15:
        raise ValueError(f"outcome {outcome} on qubit {a} has zero probability")
    return StateVector(n - 1, amps / norm)


def _drop_bit(bits: int, position: int) -> int:
    return ((bits >> (position + 1)) << position) | (bits & ((1 << position) - 1))


def outcome_state(graph: Graph, a_set: QubitSet, z: OutcomeBitstring) -> StateVector:
    """U(z)|G-A> on the surviving qubits, relabelled in ascending order."""
    b_set = a_set.complement()
    sub = build_state(induced_subgraph(graph, b_set))
    return apply_generator(sub, (1, 0, unitary_support(graph, a_set, z).bits))


def check_measurement_rule(graph: Graph, a: int, outcome: int, tol: float = MATCH_TOL) -> bool:
    """Dense projection agrees with the measurement unitary and the updated tableau.

    Projects |G> onto the Z eigenstate of qubit a, drops the qubit, and
    compares (up to global phase) with U_outcome |G - {a}>; then checks that
    the measure_z tableau, restricted to the surviving qubits, stabilizes the
    projected state.
    """
    n = graph.n
    if n > MEASURE_MAX_QUBITS:
        raise ValueError(f"measurement check limited to n <= {MEASURE_MAX_QUBITS}, got {n}")
    state = build_state(graph)
    projected = _project_and_drop(state, a, outcome)

    a_only = QubitSet.from_members(n, [a])
    z = OutcomeBitstring.from_int(a_only, 0 if outcome == 1 else 1)
    expected = outcome_state(graph, a_only, z)
    overlap = abs(np.vdot(expected.amplitudes, projected.amplitudes))
    if abs(overlap - 1.0) > tol:
        return False

    survivors = []
    for q, (sign, x, z) in measure_z(graph_generators(graph), a, outcome).items():
        if q == a:
            continue
        if ((x | z) >> a) & 1:
            return False  # surviving generators must not touch the measured qubit
        survivors.append((sign, _drop_bit(x, a), _drop_bit(z, a)))
    return stabilizes(projected, survivors, tol)


def check_lemma(graph: Graph, a_set: QubitSet, tol: float = MATCH_TOL) -> bool:
    """Equal unitary supports give identical states; different supports give orthogonal ones."""
    n = graph.n
    if n > MEASURE_MAX_QUBITS:
        raise ValueError(f"lemma check limited to n <= {MEASURE_MAX_QUBITS}, got {n}")
    if len(a_set) > LEMMA_MAX_TRACED:
        raise ValueError(f"lemma check limited to |A| <= {LEMMA_MAX_TRACED}, got {len(a_set)}")
    base = build_state(induced_subgraph(graph, a_set.complement()))
    supports = np.array([
        _index_mask(unitary_support(graph, a_set, OutcomeBitstring.from_int(a_set, value)).bits, base.n)
        for value in range(1 << len(a_set))
    ], dtype=np.uint64)
    # U(z) is the Z string on the support, so outcome state z is a sign row times the base
    states = (1.0 - 2.0 * _parity(supports[:, np.newaxis] & _indices(base.n))) * base.amplitudes
    gram = states @ states.conj().T
    return not np.any(np.abs(gram - (supports[:, np.newaxis] == supports)) > tol)
