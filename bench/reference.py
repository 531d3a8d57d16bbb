"""The benchmark's own inputs and answers, independent of the graphce package.

Graphs are lists of int adjacency bitsets (bit v of adj[u] set iff u ~ v).
Nothing here imports graphce: the generator emits the graph6 and edge-list
text that graphce receives, and the cut-rank reference checks its answers.
"""

from __future__ import annotations

import random
from fractions import Fraction


def random_graph(n: int, p: float, rng: random.Random) -> list[int]:
    """A random spanning tree on shuffled labels plus each other edge with probability p."""
    labels = list(range(n))
    rng.shuffle(labels)
    adj = [0] * n
    for i in range(1, n):
        u, v = labels[rng.randrange(i)], labels[i]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for v in range(1, n):
        for u in range(v):
            if not (adj[u] >> v) & 1 and rng.random() < p:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def edges(adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for v in range(len(adj)) for u in range(v) if (adj[u] >> v) & 1]


def graph6(adj: list[int]) -> str:
    """graph6 short form: upper-triangle bits in column order, six per byte, zero-padded."""
    n = len(adj)
    bits = [(adj[u] >> v) & 1 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = [63 + int("".join(map(str, bits[i:i + 6])), 2) for i in range(0, len(bits), 6)]
    return chr(63 + n) + "".join(map(chr, body))


def parse_graph6(text: str) -> list[int]:
    n = ord(text[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in text[1:])
    adj = [0] * n
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if bits[pos] == "1":
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
    return adj


def edge_list(adj: list[int]) -> str:
    """The vertex count, then one 1-indexed 'u v' line per edge."""
    return "\n".join([str(len(adj))] + [f"{u + 1} {v + 1}" for u, v in edges(adj)]) + "\n"


def cut_rank(adj: list[int], a: int) -> int:
    """GF(2) rank of the rows adj[x] & ~A for x in A (A given as a bitset)."""
    pivots: dict[int, int] = {}
    rest = a
    while rest:
        x = (rest & -rest).bit_length() - 1
        rest &= rest - 1
        row = adj[x] & ~a
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def subset_ce(adj: list[int], s: int) -> Fraction:
    """CE of the qubit set s: 1 - 2^-|s| * sum over subsets T of s of 2^-rank(T)."""
    k = s.bit_count()
    total = Fraction(0)
    t = s
    while True:  # walks every submask of s, ending with the empty set
        total += Fraction(1, 1 << cut_rank(adj, t))
        if t == 0:
            break
        t = (t - 1) & s
    return 1 - total / (1 << k)


def full_ce(adj: list[int]) -> Fraction:
    """CE of all n qubits; each cut is ranked once, as A and its complement share a rank."""
    n = len(adj)
    total = sum(1 << (n - cut_rank(adj, a)) for a in range(1 << (n - 1)))
    return 1 - Fraction(2 * total, 1 << (2 * n))


def purity(adj: list[int], b: int) -> Fraction:
    return Fraction(1, 1 << cut_rank(adj, b))


def rank_index(adj: list[int], m: int) -> tuple[int, ...]:
    """Counts of Schmidt ranks m, m-1, ..., 1 over size-m cuts (each middle cut once)."""
    n = len(adj)
    counts = [0] * (m + 1)
    for a in range(1 << n):
        if a.bit_count() == m and not (2 * m == n and not a & 1):
            counts[cut_rank(adj, a)] += 1
    return tuple(counts[m:0:-1])
