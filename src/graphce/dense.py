"""Brute-force state-vector reference for cross-checking the stabilizer engine.

A state is a plain complex ndarray of 2^n amplitudes, indexed with qubit 0 at
the most significant bit; n comes from its length.  Vertex sets are iterables
of 0-indexed vertices and outcomes ints, as in `stabilizer`.  Everything here
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

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .graphs import Graph, _mask, _members, induced_subgraph
from .stabilizer import graph_generators, measure_z, unitary_support

DENSE_MAX_QUBITS = 14
MEASURE_MAX_QUBITS = 12
LEMMA_MAX_TRACED = 8

STATE_TOL = 1e-12
MATCH_TOL = 1e-10


def _qubit_count(state: np.ndarray) -> int:
    """n for a state of 2^n amplitudes."""
    if state.ndim != 1 or not state.size or state.size & (state.size - 1):
        raise ValueError(f"a state needs 2^n amplitudes in one axis, got shape {state.shape}")
    return state.size.bit_length() - 1


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


def build_state(graph: Graph) -> np.ndarray:
    """|+>^n with a controlled-Z applied across every edge."""
    n = graph.n
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense oracle limited to n <= {DENSE_MAX_QUBITS}, got {n}")
    bits = _bits(n)
    adj = ((np.array(graph.adj, dtype=np.int64)[:, np.newaxis] >> np.arange(n)) & 1).astype(np.float64)
    # b^T A b counts every edge inside index i twice, so bit 1 of it is the CZ phase
    twice_edges = np.einsum("ij,ij->i", bits @ adj, bits).astype(np.int64)
    amps = (1.0 - (twice_edges & 2)) * 2.0 ** (-n / 2)
    return amps.astype(np.complex128)


def _apply(amps: np.ndarray, gens: Sequence[tuple[int, int, int]], n: int) -> np.ndarray:
    """sign * prod X^x Z^z for each gen = (sign, x, z) on n qubits, along the last axis of amps; a row per gen."""
    if any((x | z) >> n for _, x, z in gens):
        raise ValueError(f"generator acts beyond the {n} qubits of the state")
    signs = np.array([sign for sign, _, _ in gens], dtype=np.float64)[:, np.newaxis]
    src = _indices(n) ^ np.array([_index_mask(x, n) for _, x, _ in gens], dtype=np.uint64)[:, np.newaxis]
    z_masks = np.array([_index_mask(z, n) for _, _, z in gens], dtype=np.uint64)[:, np.newaxis]
    return signs * (1.0 - 2.0 * _parity(src & z_masks)) * amps[..., src]


def apply_generator(state: np.ndarray, gen: tuple[int, int, int]) -> np.ndarray:
    """Apply a signed Pauli string (sign, x, z), sign * prod X^x Z^z, to the state."""
    return _apply(state, [gen], _qubit_count(state))[0]


def stabilizes(state: np.ndarray, gens: Sequence[tuple[int, int, int]], tol: float = STATE_TOL) -> bool:
    """True iff every generator fixes the state: S|psi> = |psi> within tol."""
    out = _apply(state, gens, _qubit_count(state))
    return bool(np.max(np.abs(out - state), initial=0.0) <= tol)


def check_stabilizer(graph: Graph, tol: float = STATE_TOL) -> bool:
    """Every generator (and for n <= 6 every generator product) fixes |G>."""
    state = build_state(graph)
    gens = list(graph_generators(graph).values())
    if graph.n > 6:
        return stabilizes(state, gens, tol)
    # row S of products is prod_{a in S} g_a |G>, applied in ascending a; the rows
    # of the singletons S = {a} are the generators themselves
    products = state[np.newaxis]
    for gen in gens:
        products = np.concatenate((products, _apply(products, [gen], graph.n)[:, 0]))
    return bool(np.max(np.abs(products - state)) <= tol)


def reduced_density_matrix(state: np.ndarray, b: Iterable[int]) -> np.ndarray:
    """rho_B after tracing out the complement, ordered by ascending B members."""
    n = _qubit_count(state)
    b_mask = _mask(n, b)
    b_list = _members(b_mask)
    a_list = _members(((1 << n) - 1) ^ b_mask)
    tensor = state.reshape((2,) * n) if n else state.reshape(())
    mat = np.transpose(tensor, axes=b_list + a_list).reshape(1 << len(b_list), 1 << len(a_list))
    return mat @ mat.conj().T


def dense_purity(state: np.ndarray, b: Iterable[int]) -> float:
    """Tr(rho_B^2) from the explicitly assembled reduced density matrix."""
    rho = reduced_density_matrix(state, b)
    return float(np.sum(np.abs(rho) ** 2))


def _project_and_drop(state: np.ndarray, a: int, outcome: int) -> np.ndarray:
    """Project qubit a onto the Z eigenstate for the outcome, renormalize, drop the qubit."""
    n = _qubit_count(state)
    keep_bit = 0 if outcome == 1 else 1
    p = n - 1 - a
    sub = _indices(n - 1)
    full = ((sub >> np.uint64(p)) << np.uint64(p + 1)) | np.uint64(keep_bit << p) | (sub & np.uint64((1 << p) - 1))
    amps = state[full]
    norm = np.linalg.norm(amps)
    if norm < 1e-15:
        raise ValueError(f"outcome {outcome} on qubit {a} has zero probability")
    return amps / norm


def _drop_bit(bits: int, position: int) -> int:
    return ((bits >> (position + 1)) << position) | (bits & ((1 << position) - 1))


def outcome_state(graph: Graph, a_set: Iterable[int], z: int) -> np.ndarray:
    """U(z)|G-A> on the surviving qubits, relabelled in ascending order."""
    a = _mask(graph.n, a_set)
    sub = build_state(induced_subgraph(graph, _members(((1 << graph.n) - 1) ^ a)))
    return apply_generator(sub, (1, 0, unitary_support(graph, _members(a), z)))


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

    expected = outcome_state(graph, [a], 0 if outcome == 1 else 1)
    overlap = abs(np.vdot(expected, projected))
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


def check_lemma(graph: Graph, a_set: Iterable[int], tol: float = MATCH_TOL) -> bool:
    """Equal unitary supports give identical states; different supports give orthogonal ones."""
    n = graph.n
    if n > MEASURE_MAX_QUBITS:
        raise ValueError(f"lemma check limited to n <= {MEASURE_MAX_QUBITS}, got {n}")
    a = _mask(n, a_set)
    k = a.bit_count()
    if k > LEMMA_MAX_TRACED:
        raise ValueError(f"lemma check limited to |A| <= {LEMMA_MAX_TRACED}, got {k}")
    members = _members(a)
    base = build_state(induced_subgraph(graph, _members(((1 << n) - 1) ^ a)))
    supports = np.array([_index_mask(unitary_support(graph, members, z), n - k) for z in range(1 << k)],
                        dtype=np.uint64)
    # U(z) is the Z string on the support, so outcome state z is a sign row times the base
    states = (1.0 - 2.0 * _parity(supports[:, np.newaxis] & _indices(n - k))) * base
    gram = states @ states.conj().T
    return not np.any(np.abs(gram - (supports[:, np.newaxis] == supports)) > tol)
