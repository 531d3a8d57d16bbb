"""Exact purities, Schmidt ranks and Concentratable Entanglement of graph states.

Every value here is a ``Fraction`` with a power-of-two denominator, computed
with integer arithmetic; no floating point enters this module.  The
reduced-state purity across a cut is 1/k with k the number of distinct
post-trace-out generator sets, which equals 2^r with r the GF(2) cut-rank of
the bipartition (``graphs.cut_rank``); CE comes from one count of the
stabilizer elements by weight (``_weights``).  Both run the one GF(2)
elimination, ``graphs._eliminate``.  The weight count is bit-sliced: one
Python int holds one bit per stabilizer element, for up to 2^20 elements at a
time, and a bit-sliced counter tallies their weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .graphs import MAX_VERTICES, Graph, _eliminate, _mask, _members, _reach, cut_rank, is_connected, write_graph6


class DisconnectedGraphWarning(UserWarning):
    """Metric evaluated on a disconnected graph; closed forms may not apply."""


def _check_connected(graph: Graph) -> bool:
    connected = is_connected(graph)
    if not connected:
        warnings.warn(
            "graph is disconnected; purities and CE are still exact but closed forms assume connectivity",
            DisconnectedGraphWarning,
            stacklevel=3,
        )
    return connected


def purity(graph: Graph, b: Iterable[int]) -> Fraction:
    """Tr rho_B^2 = 2^-r, with r the cut-rank of (B, complement)."""
    b_mask = _mask(graph.n, b)
    _check_connected(graph)
    return Fraction(1, 1 << cut_rank(graph, b_mask))


def schmidt_rank(graph: Graph, b: Iterable[int]) -> int:
    """-log2 of the reduced-state purity; an exact integer for graph states."""
    return cut_rank(graph, _mask(graph.n, b))


@dataclass(frozen=True)
class PuritySpectrum:
    """Purity tallies for every bipartition, grouped by the smaller side's size m.

    levels[m] lists (schmidt_rank, count) pairs, rank ascending, covering all
    C(n, m) size-m subsets except at m = n/2, where each unordered bipartition
    is counted once (the side containing vertex 0).
    """

    n: int
    levels: tuple[tuple[tuple[int, int], ...], ...]

    def counts_at(self, m: int) -> dict[int, int]:
        return dict(self.levels[m])

    def purity_tally(self, m: int) -> list[tuple[Fraction, int]]:
        """(purity, count) pairs at level m, smallest purity first."""
        return [(Fraction(1, 1 << r), c) for r, c in sorted(self.levels[m], reverse=True)]


def _level_cuts(n: int, m: int) -> Iterator[int]:
    """Vertex masks of the cuts with m of the n vertices on one side."""
    for combo in combinations(range(n), m):
        if 2 * m == n and combo[0] != 0:
            continue  # middle layer: keep the side containing vertex 0
        a = 0
        for v in combo:
            a |= 1 << v
        yield a


def _cut_count(n: int, m: int | None = None) -> int:
    """How many cuts `_level_cuts(n, m)` yields or, for m None, `_sweep` ranks: all 2^(n-1) - 1 bipartitions."""
    return ((1 << n) - 1) // 2 if m is None else math.comb(n, m) // (2 if 2 * m == n else 1)


def _level_rank_counts(graph: Graph, m: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for a in _level_cuts(graph.n, m):
        r = cut_rank(graph, a)
        counts[r] = counts.get(r, 0) + 1
    return counts


def _sweep(graph: Graph) -> PuritySpectrum:
    levels = [((0, 1),)]
    for m in range(1, graph.n // 2 + 1):
        levels.append(tuple(sorted(_level_rank_counts(graph, m).items())))
    return PuritySpectrum(graph.n, tuple(levels))


def purity_spectrum(graph: Graph) -> PuritySpectrum:
    """Tally reduced-state purities for all bipartitions with smaller side m <= n/2."""
    _check_connected(graph)
    return _sweep(graph)


@dataclass(frozen=True)
class RankIndex:
    """Occurrence counts of Schmidt ranks m, m-1, ..., 1 over size-m cuts."""

    m: int
    counts: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.counts) + ")"


def rank_index(graph: Graph, m: int) -> RankIndex:
    """Rank tallies over all bipartitions whose smaller set has m qubits.

    Rank-0 occurrences (possible only for disconnected graphs) are excluded,
    so for connected graphs the counts sum to the number of size-m cuts.
    """
    if not 1 <= m <= graph.n // 2:
        raise ValueError(f"m must satisfy 1 <= m <= n/2 = {graph.n // 2}, got {m}")
    _check_connected(graph)
    counts = _level_rank_counts(graph, m)
    return RankIndex(m, tuple(counts.get(r, 0) for r in range(m, 0, -1)))


_CHUNK_LOG2 = 20  # at most 2^20 lanes, a 128 KB int, per bit-sliced word


def _lane_patterns(c: int) -> list[int]:
    """P_b for b < c over 2^c lanes: bit j of P_b is bit b of j.

    P_(c-1) sets the upper half of the lanes.  Adding 2^b to j flips bit b + 1
    exactly when bit b is set, so P_b = P_(b+1) ^ (P_(b+1) >> 2^b); the zeros
    shifted in at the top are right too, since bits b..c-1 of those j are all
    set.  One shift and one XOR per pattern keeps the cost linear in the lane
    count, where big-int division would be quadratic.
    """
    if not c:
        return []
    half = 1 << (c - 1)
    p = ((1 << half) - 1) << half
    patterns = [p]
    while half > 1:
        half >>= 1
        p ^= p >> half
        patterns.append(p)
    return patterns[::-1]


def _add_columns(columns: Iterable[int]) -> list[int]:
    """Bit-sliced ripple-carry sum of 0/1 lane columns.

    Bit j of counter[t] is bit t of the number of columns that have bit j set.
    """
    counter: list[int] = []
    for carry in columns:
        t = 0
        while carry:
            if t == len(counter):
                counter.append(carry)
                break
            bit = counter[t]
            counter[t] = bit ^ carry
            carry &= bit
            t += 1
    return counter


def _split_counts(counter: list[int], lanes: int) -> list[int]:
    """For each value v < 2^len(counter), how many lanes of the mask `lanes` hold the count v.

    The lanes are split top down on the counter bits, so that the groups end in value order.
    """
    groups = [lanes]
    for bit in reversed(counter):
        split = []
        for group in groups:
            high = group & bit
            split += (group ^ high, high)
        groups = split
    return [group.bit_count() for group in groups]


def _flip(cols: dict[int, int], mask: int, pattern: int) -> None:
    """XOR `pattern` into the column of every vertex in `mask`."""
    while mask:
        low = mask & -mask
        cols[low.bit_length() - 1] ^= pattern
        mask ^= low


def _visit_log2(graph: Graph, s: int) -> int:
    """log2 of the stabilizer elements `_weights(graph, s)` visits: |s| - cut_rank(s), n for the full set."""
    return s.bit_count() - cut_rank(graph, s)


def _weights(graph: Graph, s: int) -> list[int]:
    """N_w: the number of stabilizer elements of weight w supported inside the vertex mask s.

    The generator product over x has support x | Γx (Γx: the XOR of x's rows), inside s
    exactly when x is in the kernel of the cut map from s to its complement.  Each unit
    vector x of s packs one row (Γx & ~s, x, Γx) of n-bit fields; after one elimination,
    the pivots whose cut field reduced to zero, the ones led by a bit below 2n, are the
    k = |s| - cut_rank(s) kernel basis vectors.

    The count is bit-sliced: one int holds 2^c lanes, c = min(k, _CHUNK_LOG2), and lane j
    is the XOR of the first c basis pairs chosen by the bits of j.  Qubit v's support
    column, the lanes whose element acts on v, is X_v | G_v, where X_v (G_v) is the XOR of
    the lane patterns P_b over the b whose x (Γx) has bit v set.  A ripple-carry counter
    adds the |s| columns, and splitting the lanes on its bits reads off every N_w.  The
    other k - c basis pairs are walked in Gray-code order, one chunk of 2^c lanes per
    step; a step XORs one pair into every lane, which complements X_v for each v in its x
    and G_v for each v in its Γx.
    """
    n, adj, full = graph.n, graph.adj, (1 << graph.n) - 1
    rows, xcols = [], {}  # xcols, gcols: X_v and G_v per vertex v of s
    rest = s
    while rest:
        x = rest & -rest
        rest ^= x
        v = x.bit_length() - 1
        xcols[v] = 0
        gx = adj[v]
        rows.append(((gx & ~s) << 2 * n) | (x << n) | gx)
    basis = [(p >> n & full, p & full) for top, p in _eliminate(rows).items() if top < 2 * n]
    c = min(len(basis), _CHUNK_LOG2)
    lanes = (1 << (1 << c)) - 1
    gcols = dict(xcols)
    for (x, gx), p in zip(basis, _lane_patterns(c)):
        _flip(xcols, x, p)
        _flip(gcols, gx, p)
    walked = basis[c:]
    counts = [0] * (len(xcols) + 1)
    for step in range(1 << len(walked)):
        if step:
            x, gx = walked[(step & -step).bit_length() - 1]
            _flip(xcols, x, lanes)
            _flip(gcols, gx, lanes)
        counter = _add_columns(map(int.__or__, xcols.values(), gcols.values()))
        for w, tally in enumerate(_split_counts(counter, lanes)[:len(counts)]):  # no lane counts above |s|
            counts[w] += tally
    return counts


def _ce(graph: Graph, s: int) -> Fraction:
    """CE of the vertex mask s from its stabilizer weight counts.

    Tr rho_A^2 = |S_A| / 2^|A| with S_A the stabilizer elements supported in A;
    summed over the subsets A of s, an element of weight w adds 3^(|s| - w)
    / 2^|s|, so CE(s) = 1 - 4^-|s| sum_w N_w 3^(|s| - w).
    """
    k = s.bit_count()
    if k == 0:
        raise ValueError("Concentratable Entanglement requires a non-empty qubit set")
    acc = sum(c * 3 ** (k - w) for w, c in enumerate(_weights(graph, s)))
    return Fraction((1 << (2 * k)) - acc, 1 << (2 * k))


def concentratable_entanglement(graph: Graph, s: Iterable[int]) -> Fraction:
    """1 - 2^-|s| times the sum of reduced purities over every subset of s."""
    ce = _ce(graph, _mask(graph.n, s))
    _check_connected(graph)
    return ce


def ce_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Theoretical (min, max) of full-set CE for connected graph states of n qubits.

    The minimum holds every reduced purity at 1/2; the maximum holds every
    bipartition purity at 2^-min(|A|,|B|).
    """
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES}, got {n}")
    return _bounds(n, n, 1)


def _bounds(n: int, k: int, inside: int) -> tuple[Fraction, Fraction]:
    """(min, max) of CE(s) for a k-qubit set s of an n-vertex graph with `inside` connected
    components lying wholly inside s.

    Every purity Tr rho_A^2 = 2^-r(A) is at least 2^-min(|A|, n - |A|), which gives
    the maximum 1 - 2^-k sum_j C(k, j) 2^-min(j, n - j).  A subset A of s has r(A) = 0
    only when it is a union of those components, 2^inside subsets in all; every other A
    has purity at most 1/2, which gives the minimum 1/2 - 2^(inside - k - 1).  A connected
    graph has inside = 1 at s = V (`ce_bounds`) and inside = 0 on a proper s.
    """
    acc, c = 0, 1  # c = C(k, j), one multiply and divide per j
    for j in range(k + 1):
        acc += c << (n - min(j, n - j))
        c = c * (k - j) // (j + 1)
    return Fraction((1 << k) - (1 << inside), 1 << (k + 1)), Fraction((1 << (n + k)) - acc, 1 << (n + k))


def _subset_bounds(graph: Graph, s: int) -> tuple[Fraction, Fraction]:
    """`_bounds` for the vertex mask s of `graph`, connected or not."""
    inside, rest = 0, (1 << graph.n) - 1
    while rest:
        component = _reach(graph.adj, rest & -rest)
        rest &= ~component
        inside += component & ~s == 0
    return _bounds(graph.n, s.bit_count(), inside)


def snowflake_subset_ce(n: int) -> Fraction:
    """Closed form 1 - (3/4)^n for pair-free n-qubit subsets of a 2n-qubit snowflake."""
    if not 1 <= n <= MAX_VERTICES // 2:  # the snowflake has 2n vertices
        raise ValueError(f"need 1 <= n <= {MAX_VERTICES // 2}, got {n}")
    return Fraction((1 << (2 * n)) - 3**n, 1 << (2 * n))


@dataclass(frozen=True)
class CEReport:
    """CE of one subset of one graph, with the bounds of `_subset_bounds` and their attainment."""

    graph6: str
    n: int
    subset: tuple[int, ...]
    ce: Fraction
    bound_min: Fraction
    bound_max: Fraction
    connected: bool
    achieves_min: bool
    achieves_max: bool


def ce_report(graph: Graph, s: Iterable[int] | None = None) -> CEReport:
    """Evaluate CE and bound attainment."""
    s_mask = (1 << graph.n) - 1 if s is None else _mask(graph.n, s)
    graph6 = write_graph6(graph)  # refuses n > 62 before the kernel runs
    ce = _ce(graph, s_mask)
    connected = _check_connected(graph)
    lo, hi = _subset_bounds(graph, s_mask)
    return CEReport(
        graph6=graph6,
        n=graph.n,
        subset=tuple(_members(s_mask)),
        ce=ce,
        bound_min=lo,
        bound_max=hi,
        connected=connected,
        achieves_min=ce == lo,
        achieves_max=ce == hi,
    )
