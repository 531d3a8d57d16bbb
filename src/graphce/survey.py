"""Isomorph-free enumeration of connected graphs and the CE landscape over them.

Each isomorphism class is represented by its least-code labelling: the one
whose upper-triangle edge mask is least (`graphs.canonical_form`'s key).
Deleting the last vertex of a least-code graph leaves a least-code graph, as
a lesser prefix would give a lesser code, so every class on k vertices arises
exactly once as a least-code graph on k - 1 vertices plus a last vertex, and
the search that `canonical_form` runs, seeded with a candidate's own columns,
tells whether it is least (Read 1978; McKay 1998).  No table of seen graphs
is kept.  `_children` tries only the candidates that pass two filters (the
parent's twins, and a least new column), and the search skips a subtree once
a lower bound on its columns is not below the best code found: unplaced
vertices with columns c < c' never swap order, as 2c + 1 < 2c', so they are
placed in column order (`graphs._least_code`).

A record's distinct purity count is the largest rank of a cut with n // 2
vertices on one side: moving one vertex across a cut moves its rank by at most 1,
and a smaller side can take one in without losing rank, so the proper cuts of a
connected graph have the ranks 1..max, and the middle level holds max (Oum 2005).

Surveys and family sweeps return `SurveyRecord` values; `cli` writes them out.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .graphs import Graph, _least_code, _reach, cut_rank, family, write_graph6
from .metrics import _ce, _level_cuts, ce_bounds

ENUMERATION_MAX_VERTICES = 8
STRETCH_MIN_VERTICES = 7


@dataclass(frozen=True)
class SurveyRecord:
    """Full-set CE of one isomorphism class (or one family member)."""

    graph6: str
    n: int
    ce: Fraction
    distinct_purities: int
    achieves_min: bool
    achieves_max: bool
    kind: str | None = None
    size: int | None = None
    core_subset_ce: Fraction | None = None


def _children(rows: tuple[int, ...], cols: list[int], connected: bool) -> Iterator[tuple[tuple[int, ...], list[int]]]:
    """The least-code graphs whose last vertex deletes to the least-code graph with adjacency
    rows `rows` and columns `cols`, as (rows, columns); with `connected`, only connected ones."""
    k = len(rows)
    full = (1 << (k + 1)) - 1
    # a parent's twins u < v: a neighbourhood with u but not v loses to its swap
    twins = [(1 << u, (1 << u) | (1 << v)) for v in range(k) for u in range(v)
             if (rows[u] ^ rows[v]) & ~((1 << u) | (1 << v)) == 0]
    # the new vertex moved to position j would put the top j bits of its column c there in
    # place of cols[j], a lesser code unless c >> (k - j) >= cols[j], or c >= cols[j] << (k - j)
    for c in range(max([cols[j] << (k - j) for j in range(1, k)], default=0), 1 << k):
        s = int(format(c, f"0{k}b")[::-1], 2)  # the new row: vertex 0 least significant
        if any(s & pair == low for low, pair in twins):
            continue
        child = tuple(row | (((s >> u) & 1) << k) for u, row in enumerate(rows)) + (s,)
        if connected and _reach(child, 1) != full:
            continue
        code = cols + [c]
        if not _least_code(child, code, True):
            yield child, code


def enumerate_connected(n: int, *, stretch: bool = False) -> list[Graph]:
    """One least-code representative per isomorphism class of connected graphs, by edge mask.

    Every graph on k - 1 vertices, connected or not, is extended by one vertex;
    a star's least code, for one, puts the centre last.  The codes have fixed
    widths, so their column lists sort as the edge masks do.  n <= 6 runs
    unconditionally; n = 7, 8 require stretch=True.
    """
    if not 1 <= (n := operator.index(n)) <= ENUMERATION_MAX_VERTICES:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_VERTICES}, got {n}")
    if n >= STRETCH_MIN_VERTICES and not stretch:
        raise ValueError(f"n = {n} enumeration needs stretch=True (it is deliberately flag-gated)")
    level = [((0,), [0])]  # rows and columns of the one graph on one vertex
    for k in range(2, n + 1):
        level = [child for rows, cols in level for child in _children(rows, cols, k == n)]
    return [Graph(n, rows) for rows, _ in sorted(level, key=lambda child: child[1])]


def _middle_rank(graph: Graph) -> int:
    """The largest rank of a cut with m = n // 2 vertices on one side; no such cut ranks
    above m, so the scan stops at the first one that reaches it."""
    m = graph.n // 2
    best = 0
    for a in _level_cuts(graph.n, m):
        best = max(best, cut_rank(graph, a))
        if best == m:
            break
    return best


def _record(graph: Graph, bounds: tuple[Fraction, Fraction], *, kind: str | None = None,
            size: int | None = None) -> SurveyRecord:
    """The record of `graph`, whose full-set CE bounds `ce_bounds(graph.n)` are `bounds`."""
    ce = _ce(graph, (1 << graph.n) - 1)
    lo, hi = bounds
    core_ce = _ce(graph, (1 << size) - 1) if kind == "snowflake" and size is not None else None
    return SurveyRecord(
        graph6=write_graph6(graph),
        n=graph.n,
        ce=ce,
        distinct_purities=_middle_rank(graph),
        achieves_min=ce == lo,
        achieves_max=ce == hi,
        kind=kind,
        size=size,
        core_subset_ce=core_ce,
    )


def ce_survey(n: int, *, stretch: bool = False) -> list[SurveyRecord]:
    """One record per connected isomorphism class, sorted by (CE, graph6)."""
    graphs = enumerate_connected(n := operator.index(n), stretch=stretch)  # checks n before the bounds take it
    bounds, scale = ce_bounds(n), 1 << (2 * n)  # every CE here is an integer over 4^n
    records = [_record(g, bounds) for g in graphs]
    records.sort(key=lambda r: (r.ce.numerator * (scale // r.ce.denominator), r.graph6))
    return records


def distinct_ce_values(records: Iterable[SurveyRecord]) -> list[Fraction]:
    values = {r.ce for r in records}
    return sorted(values)


def max_achievers(n: int, *, stretch: bool = False) -> list[Graph]:
    """Representatives whose every bipartition purity equals 2^-min(|A|,|B|).

    Each purity is at least that, and CE = 1 - 2^-n sum_A Tr rho_A^2, so these
    are the classes whose full-set CE meets the upper bound of `ce_bounds`.
    """
    graphs = enumerate_connected(n, stretch=stretch)  # checks n before the bounds take it
    hi = ce_bounds(n)[1]
    return [graph for graph in graphs if _ce(graph, (1 << graph.n) - 1) == hi]


def family_sweep(kind: str, sizes: Iterable[int]) -> list[SurveyRecord]:
    """CE(full set) per family member; snowflake records also carry the core-subset CE."""
    records = []
    for size in map(operator.index, sizes):
        graph = family(kind, size)
        records.append(_record(graph, ce_bounds(graph.n), kind=kind, size=size))
    return records
