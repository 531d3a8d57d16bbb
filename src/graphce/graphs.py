"""Simple undirected graphs on labelled vertices, stored as packed adjacency bit rows.

Vertices are 0-indexed internally; the CLI and file formats use 1-indexed qubit labels.
The upper-triangle edge-bit order used by graph6 and canonical forms is column-major:
(0,1), (0,2), (1,2), (0,3), ...  Column j starts at offset j(j-1)/2 and, reversed, is lower
row j: ``adj[j] & (2^j - 1)``.  Readers add the upper half by one bit-matrix transpose; `Graph` checks symmetry by it.
"""

from __future__ import annotations

import operator
import random
import sys
import warnings
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

MAX_VERTICES = 4096  # parsing and validating a graph this large takes about 0.1 s
CANONICAL_MAX_VERTICES = 8
GRAPH6_MAX_VERTICES = 62
_GRAPH6_BITS = {63 + k: format(k, "06b") for k in range(64)}


class DuplicateEdgeWarning(UserWarning):
    """Emitted when an edge list repeats an edge; duplicates are collapsed."""


class Graph6Error(ValueError):
    """Malformed graph6 input; `offset` is the byte position of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _mask(n: int, members: Iterable[int]) -> int:
    """The bitmask of `members`, 0-indexed vertices of an n-vertex graph, in any order and with repeats."""
    mask = 0
    for v in map(operator.index, members):
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range for n={n}")
        mask |= 1 << v
    return mask


def _members(mask: int) -> list[int]:
    """The vertices of a bitmask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbour bitmask of vertex v."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", operator.index(self.n))
        object.__setattr__(self, "adj", tuple(map(operator.index, self.adj)))
        if self.n < 0:
            raise ValueError(f"negative vertex count {self.n}")
        if self.n > MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} exceeds the limit of {MAX_VERTICES}")
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row {v} has bits beyond vertex range")
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
        if self.n > 1 and (cols := _transpose(self.adj, self.n)) != tuple(self.adj):
            u, diff = next((u, row ^ col) for u, (row, col) in enumerate(zip(self.adj, cols)) if row != col)
            raise ValueError(f"adjacency not symmetric at ({u}, {(diff & -diff).bit_length() - 1})")

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n) if (self.adj[u] >> v) & 1]


def _swap_steps(w: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) per swap step k = w/2, ..., 1 of a packed w x w transpose: the upper-right
    k x k block of each 2k x 2k block (mask) trades places with the lower-left one (shift)."""
    # top bit first: per 2k bits a mask row is k ones (j & k) then k zeros; rows with i & k are zero
    rows = {k: ("1" * k + "0" * k) * (w // (2 * k)) for k in (w >> s for s in range(1, w.bit_length()))}
    return tuple((k * (w - 1), int(("0" * w * k + row * k) * (w // (2 * k)), 2)) for k, row in rows.items())


# per tile width w: the packer of rows into (and out of) w-bit machine words, and the swap steps
_TILES = {8 * array(c).itemsize: (bytes if c == "B" else partial(array, c), _swap_steps(8 * array(c).itemsize))
          for c in "BHIQ"}


def _transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Columns of the bit matrix with n columns and int rows ``rows`` (at most n of them).

    Up to 64 vertices the rows are packed into one int, one w-bit machine word each, and
    transposed by log2(w) masked swaps; past that, 64 x 64 tiles keep each int at 4096 bits."""
    if n > 64:
        bands = range(0, n, 64)
        tiles = {(r0, c0): _transpose([(row >> c0) & (2**64 - 1) for row in rows[r0:r0 + 64]], 64)
                 for r0 in bands for c0 in bands}
        return tuple(sum(tiles[r0, c - c % 64][c % 64] << r0 for r0 in bands) for c in range(n))
    w = max(8, 1 << (n - 1).bit_length())
    pack, steps = _TILES[w]
    x = int.from_bytes(pack(rows), sys.byteorder)
    for shift, mask in steps:
        t = ((x >> shift) ^ x) & mask
        x ^= t ^ (t << shift)
    return tuple(pack(x.to_bytes(w * w // 8, sys.byteorder))[:n])


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from 0-indexed endpoint pairs; duplicate edges collapse with a warning."""
    if (n := operator.index(n)) < 0:  # these two before the rows are allocated
        raise ValueError(f"negative vertex count {n}")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    adj = [0] * n
    for u, v in (map(operator.index, edge) for edge in edges):
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        if (adj[u] >> v) & 1:
            warnings.warn(f"duplicate edge {(min(u, v), max(u, v))} collapsed", DuplicateEdgeWarning, stacklevel=2)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


FAMILY_KINDS = ("linear", "ring", "star", "complete", "snowflake")


def family(kind: str, n: int) -> Graph:
    """A named graph family member.

    linear/ring/star/complete are on n vertices (ring needs n >= 3).
    snowflake(n) has 2n vertices: a complete core 0..n-1 plus pendant
    vertex i+n attached to core vertex i.
    """
    if (n := operator.index(n)) < 1:
        raise ValueError(f"family size must be >= 1, got {n}")
    if (2 * n if kind == "snowflake" else n) > MAX_VERTICES:
        raise ValueError(f"{kind}({n}) exceeds the limit of {MAX_VERTICES} vertices")
    full = (1 << n) - 1
    if kind == "linear":
        return from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "ring":
        if n < 3:
            raise ValueError(f"ring requires n >= 3, got {n}")
        return from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if kind == "star":
        return from_edges(n, [(0, i) for i in range(1, n)])
    if kind == "complete":
        return Graph(n, tuple(full ^ (1 << v) for v in range(n)))
    if kind == "snowflake":
        core = tuple(full ^ (1 << v) | (1 << (v + n)) for v in range(n))
        return Graph(2 * n, core + tuple(1 << v for v in range(n)))
    raise ValueError(f"unknown family kind {kind!r}; expected one of {FAMILY_KINDS}")


def _eliminate(rows: Iterable[int]) -> dict[int, int]:
    """GF(2) elimination of int bit rows: the pivot row for each leading bit; the rank is its size."""
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            pivot = pivots.get(top)
            if pivot is None:
                pivots[top] = row
                break
            row ^= pivot
    return pivots


def cut_rank(graph: Graph, a: int) -> int:
    """GF(2) rank of the cut (A, complement) for a vertex bitmask A.

    This is the rank of the rows ``adj[v] & ~A`` for v in A; it is symmetric
    under complementing A, so the smaller side supplies the rows.
    """
    n = graph.n
    if (a := operator.index(a)) >> n:
        raise ValueError(f"vertex mask {a:#x} out of range for n={n}")
    if 2 * a.bit_count() > n:
        a ^= (1 << n) - 1
    adj = graph.adj
    rows = []
    rest = a
    while rest:
        low = rest & -rest
        rows.append(adj[low.bit_length() - 1] & ~a)
        rest ^= low
    return len(_eliminate(rows))


def _reach(adj: Sequence[int], start: int) -> int:
    """The vertex mask reachable from the vertex mask `start` over adjacency rows `adj`, breadth first."""
    seen = frontier = start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= frontier
    return seen


def is_connected(graph: Graph) -> bool:
    """Breadth-first reachability from vertex 0 covers all vertices."""
    if graph.n == 0:
        raise ValueError("connectivity undefined for the empty graph")
    return _reach(graph.adj, 1) == (1 << graph.n) - 1


def induced_subgraph(graph: Graph, keep: Iterable[int]) -> Graph:
    """The subgraph on the vertices `keep`, relabelled 0..|keep|-1 in ascending vertex order."""
    members = _members(_mask(graph.n, keep))
    # column v of the kept rows holds v's kept neighbours, already relabelled
    cols = _transpose([graph.adj[v] for v in members], graph.n)
    return Graph(len(members), tuple(cols[v] for v in members))


# --- graph6 -------------------------------------------------------------------


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _check_text(text: str, form: str) -> None:
    if not isinstance(text, str):
        raise TypeError(f"{form} input must be str, not {type(text).__name__}")


def write_graph6(graph: Graph) -> str:
    """Encode in graph6 short form (printable bytes, n <= 62)."""
    n = graph.n
    if n > GRAPH6_MAX_VERTICES:
        raise ValueError(f"graph6 short form supports n <= {GRAPH6_MAX_VERTICES}, got {n}")
    total = pair_count(n)
    packed = sum((row & ((1 << j) - 1)) << (j * (j - 1) // 2) for j, row in enumerate(graph.adj))  # pair p at bit p
    bits = format(packed, f"0{total}b")[::-1] + "00000"  # in pair order, padded with zeros to a 6-bit boundary
    return chr(63 + n) + "".join(chr(63 + int(bits[i:i + 6], 2)) for i in range(0, total, 6))


def parse_graph6(text: str) -> Graph:
    """Decode a graph6 short-form string; strict about length and padding."""
    _check_text(text, "graph6")
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    if min(s) < "?" or max(s) > "~":
        off = next(off for off, ch in enumerate(s) if not "?" <= ch <= "~")
        raise Graph6Error(f"character {s[off]!r} outside printable graph6 range", off)
    n = ord(s[0]) - 63
    if n > GRAPH6_MAX_VERTICES:
        raise Graph6Error("malformed length byte (long form not supported)", 0)
    total = pair_count(n)
    ngroups = (total + 5) // 6
    if len(s) - 1 != ngroups:
        raise Graph6Error(f"expected {ngroups} body bytes for n={n}, got {len(s) - 1}", min(len(s), 1 + ngroups))
    bits = s[1:].translate(_GRAPH6_BITS)
    if "1" in bits[total:]:
        raise Graph6Error("trailing padding bits nonzero", len(s) - 1)
    packed = int(bits[:total][::-1] or "0", 2)  # pair p at bit p: lower row j at bit j(j-1)/2
    lower = [(packed >> (j * (j - 1) // 2)) & ((1 << j) - 1) for j in range(n)]
    return Graph(n, tuple(lo | up for lo, up in zip(lower, _transpose(lower, n))))


# --- edge-list text format ------------------------------------------------------
#
# First line "n", then one "u v" pair per line, 1-indexed.


class _Labels(dict):
    """Labels "1".."n" -> vertices 0..n-1; any other spelling `int` accepts ("+3", "03", "1_0")
    is converted on lookup, and one out of range or not an integer raises ValueError."""

    def __missing__(self, label: str) -> int:
        v = int(label) - 1
        if not 0 <= v < len(self):
            raise ValueError(f"vertex label {label!r} out of range")
        return v


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; errors and duplicate-edge warnings name the 1-indexed input line.

    One OR per pair builds the rows and checks the pair on the way, and `Graph` refuses a self-loop.
    An input rejected there, or with fewer row bits than twice its pairs (a duplicate), goes to `_parse_lines`."""
    _check_text(text, "edge-list")
    lines = [line for line in map(str.strip, text.splitlines()) if line and line[0] != "#"]
    try:  # no count line, a count out of range, a line that is not one pair, a bad label or a self-loop
        count, *pairs = lines
        if not 0 <= (n := int(count)) <= MAX_VERTICES:
            raise ValueError(count)
        labels = _Labels(zip(map(str, range(1, n + 1)), range(n)))
        adj = [0] * n
        for a, b in map(str.split, pairs):  # one line's tokens at a time
            adj[labels[a]] |= 1 << labels[b]
        graph = Graph(n, tuple(row | col for row, col in zip(adj, _transpose(adj, n))))
        if sum(map(int.bit_count, graph.adj)) == 2 * len(pairs):
            return graph
    except ValueError:
        pass
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    """The edge list parsed line by line: raise at the first bad line, or once every line has
    parsed, warn of each duplicate edge in order, at `parse_edge_list`'s caller."""
    lines = [(i, ln) for i, ln in enumerate(map(str.strip, text.splitlines()), 1) if ln and ln[0] != "#"]
    if not lines:
        raise ValueError("empty edge-list input")
    first, count = lines[0]
    try:
        n = int(count)
    except ValueError:
        raise ValueError(f"line {first}: first line must be the vertex count, got {count!r}") from None
    if n < 0:
        raise ValueError(f"line {first}: vertex count must be non-negative, got {count!r}")
    if n > MAX_VERTICES:
        raise ValueError(f"line {first}: vertex count {n} exceeds the limit of {MAX_VERTICES}")
    adj = [0] * n
    duplicates = []
    for i, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"line {i}: expected 'u v' pair, got {ln!r}")
        try:
            u, v = int(parts[0]) - 1, int(parts[1]) - 1
        except ValueError:
            raise ValueError(f"line {i}: vertex labels must be integers, got {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"line {i}: vertex label out of range 1..{n}, got {ln!r}")
        if u == v:
            raise ValueError(f"line {i}: self-loop, got {ln!r}")
        if (adj[u] >> v) & 1:
            duplicates.append(f"line {i}: duplicate edge collapsed, got {ln!r}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for message in duplicates:
        warnings.warn(message, DuplicateEdgeWarning, stacklevel=3)
    return Graph(n, tuple(adj))


def write_edge_list(graph: Graph) -> str:
    lines = [str(graph.n)]
    lines += [f"{u + 1} {v + 1}" for u, v in graph.edges()]
    return "\n".join(lines) + "\n"


# --- canonical form -------------------------------------------------------------


def _least_code(adj: Sequence[int], best: list[int], stop: bool, depth: int = 0,
                cells: list[tuple[int, int]] | None = None) -> bool:
    """Lower ``best`` in place toward the least column sequence over all vertex orders.

    Column j is vertex j's adjacency to vertices 0..j-1, vertex 0 most significant,
    so the least sequence spells the least upper-triangle edge mask.  ``cells`` holds
    the unplaced vertices as (column on the first ``depth`` placed, vertex mask) pairs
    in increasing column order; placing v turns column c into (c << 1) | adj bit, which
    splits each cell by adjacency to v and keeps the order.  The least sequence always
    places a vertex of the first cell next, and of two vertices swapped by a
    transposition automorphism (equal adjacency apart from each other) only one is
    followed.  With ``stop``, return True at the first lowering instead of making it.

    Two unplaced vertices with columns c < c' never change order, as 2c + 1 < 2c', so
    they are placed in column order: the vertex placed t steps from now has a column of
    at least ``sorted_columns[t] << t``.  When that bound sequence is not below
    ``best[depth:]``, no order in the subtree lowers ``best`` and it is not searched.
    """
    if cells is None:
        cells = [(0, (1 << len(best)) - 1)]
    cmin, first = cells[0]
    if cmin < best[depth]:
        if stop:
            return True
        best[depth:] = [cmin] + [1 << len(best)] * (len(best) - depth - 1)  # deeper columns unset
    else:  # walk the bound sequence to its first difference from best[depth:]
        t = depth
        for c, m in cells:
            c <<= t - depth
            end = t + m.bit_count()
            while t < end and c == best[t]:
                c <<= 1
                t += 1
            if t < end:
                break
        else:
            return False  # equal throughout
        if c > best[t]:
            return False
    if depth == len(best) - 1:
        return False
    group: list[int] = []
    while first:
        low = first & -first
        first ^= low
        v = low.bit_length() - 1
        row = adj[v]
        for u in group:
            if (row ^ adj[u]) & ~(low | (1 << u)) == 0:
                break
        else:
            group.append(v)
            split = []
            for c, m in cells:
                m &= ~low
                if m & ~row:
                    split.append((c << 1, m & ~row))
                if m & row:
                    split.append(((c << 1) | 1, m & row))
            if _least_code(adj, best, stop, depth + 1, split):
                return True
    return False


def canonical_form(graph: Graph) -> bytes:
    """Canonical byte key: equal for two graphs iff they are isomorphic.

    The key encodes the least upper-triangle edge mask over all vertex
    orders, found by one `_least_code` search from an unset column sequence.
    """
    n = graph.n
    if n > CANONICAL_MAX_VERTICES:
        raise ValueError(f"canonical_form limited to n <= {CANONICAL_MAX_VERTICES}, got {n}")
    if n <= 1:
        return bytes([n])
    best = [1 << n] * n
    _least_code(graph.adj, best, False)
    mask = 0
    for depth, c in enumerate(best):
        mask = (mask << depth) | c
    return bytes([n]) + mask.to_bytes((pair_count(n) + 7) // 8, "big")


def random_connected_graph(n: int, rng: random.Random) -> Graph:
    """Uniformly-seeded random connected graph: random spanning tree plus coin-flip extras."""
    if (n := operator.index(n)) < 1:
        raise ValueError(f"need n >= 1, got {n}")
    adj = [0] * n
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    for u in range(n):
        for v in range(u + 1, n):
            if not (adj[u] >> v) & 1 and rng.random() < 0.5:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return Graph(n, tuple(adj))
