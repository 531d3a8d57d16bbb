"""Isomorph-free enumeration of connected graphs and the CE landscape over them.

Enumeration sweeps all labelled upper-triangle edge masks in increasing
order; each newly reached mask is the minimum of its isomorphism orbit, and
the whole orbit is marked before moving on, so every representative comes
out in canonical (minimum-encoding) labelling.  Orbits are generated from a
per-size table of edge-bit permutations, vectorised with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterable

import numpy as np

from .graphs import (
    Graph,
    QubitSet,
    family,
    is_connected,
    mask_to_graph,
    pair_count,
    write_graph6,
)
from .metrics import (
    DyadicRational,
    ce_bounds,
    concentratable_entanglement,
    purity_spectrum,
)

ENUMERATION_MAX_VERTICES = 8
STRETCH_MIN_VERTICES = 7

_SCAN_CHUNK = 1 << 14


@dataclass(frozen=True)
class SurveyRecord:
    """Full-set CE of one isomorphism class (or one family member)."""

    graph6: str
    n: int
    ce: DyadicRational
    distinct_purities: int
    achieves_min: bool
    achieves_max: bool
    kind: str | None = None
    size: int | None = None
    core_subset_ce: DyadicRational | None = None


@lru_cache(maxsize=None)
def _edge_pow2_table(n: int) -> np.ndarray:
    """table[p, source_bit] = 2^target_bit for the p-th vertex permutation."""
    total = pair_count(n)
    perms = list(permutations(range(n)))
    table = np.zeros((len(perms), total), dtype=np.int64)
    for pi, perm in enumerate(perms):
        for j in range(1, n):
            for i in range(j):
                lo, hi = sorted((perm[i], perm[j]))
                src_bit = total - 1 - (j * (j - 1) // 2 + i)
                dst_bit = total - 1 - (hi * (hi - 1) // 2 + lo)
                table[pi, src_bit] = 1 << dst_bit
    return table


def _next_unseen(seen: np.ndarray, start: int) -> int:
    size = seen.shape[0]
    pos = start
    while pos < size:
        chunk = seen[pos:pos + _SCAN_CHUNK]
        first = int(np.argmin(chunk))
        if not chunk[first]:
            return pos + first
        pos += chunk.shape[0]
    return -1


def enumerate_connected(n: int, *, stretch: bool = False) -> list[Graph]:
    """One canonical representative per isomorphism class of connected graphs.

    n <= 6 runs unconditionally; n = 7, 8 require stretch=True (the n = 8
    sweep allocates a 2^28-entry visited table and takes on the order of a
    minute).
    """
    if not 1 <= n <= ENUMERATION_MAX_VERTICES:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_MAX_VERTICES}, got {n}")
    if n >= STRETCH_MIN_VERTICES and not stretch:
        raise ValueError(f"n = {n} enumeration needs stretch=True (it is deliberately flag-gated)")
    if n == 1:
        return [Graph(1, (0,))]
    total = pair_count(n)
    table = _edge_pow2_table(n)
    seen = np.zeros(1 << total, dtype=bool)
    bit_positions = np.arange(total, dtype=np.int64)
    reps: list[Graph] = []
    mask = 0
    while True:
        mask = _next_unseen(seen, mask)
        if mask < 0:
            break
        bits = ((mask >> bit_positions) & 1).astype(bool)
        orbit = table[:, bits].sum(axis=1) if bits.any() else np.zeros(table.shape[0], dtype=np.int64)
        seen[orbit] = True
        graph = mask_to_graph(mask, n)
        if is_connected(graph):
            reps.append(graph)
    return reps


def _record(graph: Graph, *, kind: str | None = None, size: int | None = None) -> SurveyRecord:
    spectrum = purity_spectrum(graph)
    ce = spectrum.ce_full()
    lo, hi = ce_bounds(graph.n)
    core_ce = None
    if kind == "snowflake" and size is not None:
        core_ce = concentratable_entanglement(graph, QubitSet.from_members(graph.n, range(size)))
    return SurveyRecord(
        graph6=write_graph6(graph),
        n=graph.n,
        ce=ce,
        distinct_purities=spectrum.distinct_purity_count(),
        achieves_min=ce == lo,
        achieves_max=ce == hi,
        kind=kind,
        size=size,
        core_subset_ce=core_ce,
    )


def ce_survey(n: int, *, stretch: bool = False) -> list[SurveyRecord]:
    """One record per connected isomorphism class, sorted by (CE, graph6)."""
    records = [_record(g) for g in enumerate_connected(n, stretch=stretch)]
    records.sort(key=lambda r: (r.ce, r.graph6))
    return records


def distinct_ce_values(records: Iterable[SurveyRecord]) -> list[DyadicRational]:
    values = {r.ce for r in records}
    return sorted(values)


def max_achievers(n: int, *, stretch: bool = False) -> list[Graph]:
    """Representatives whose every bipartition purity equals 2^-min(|A|,|B|)."""
    achievers = []
    for graph in enumerate_connected(n, stretch=stretch):
        if purity_spectrum(graph).is_minimal_everywhere():
            achievers.append(graph)
    return achievers


def family_sweep(kind: str, sizes: Iterable[int]) -> list[SurveyRecord]:
    """CE(full set) per family member; snowflake records also carry the core-subset CE."""
    records = []
    for size in sizes:
        records.append(_record(family(kind, size), kind=kind, size=size))
    return records


SURVEY_CSV_FIELDS = ("graph6", "n", "ce_num", "ce_log2_den", "achieves_min", "achieves_max", "distinct_purities")
FAMILY_CSV_FIELDS = ("family", "size") + SURVEY_CSV_FIELDS + ("core_ce_num", "core_ce_log2_den")


def _csv_cell(value: object) -> str:
    """One CSV cell: booleans as true/false, text quoted when it holds a comma or a quote."""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def csv_text(fields: Iterable[str], rows: Iterable[dict[str, object]]) -> str:
    """A header line, then one line per row of cells in the row's key order."""
    lines = [",".join(fields)]
    lines += [",".join(_csv_cell(v) for v in row.values()) for row in rows]
    return "\n".join(lines) + "\n"


def survey_row(record: SurveyRecord) -> dict[str, object]:
    return {
        "graph6": record.graph6,
        "n": record.n,
        "ce_num": record.ce.numerator,
        "ce_log2_den": record.ce.log2_denominator,
        "achieves_min": record.achieves_min,
        "achieves_max": record.achieves_max,
        "distinct_purities": record.distinct_purities,
    }


def family_row(record: SurveyRecord) -> dict[str, object]:
    row: dict[str, object] = {"family": record.kind, "size": record.size}
    row.update(survey_row(record))
    row["core_ce_num"] = record.core_subset_ce.numerator if record.core_subset_ce is not None else ""
    row["core_ce_log2_den"] = record.core_subset_ce.log2_denominator if record.core_subset_ce is not None else ""
    return row


def survey_csv(records: Iterable[SurveyRecord]) -> str:
    """Deterministic CSV, one row per class, sorted by (n, CE, graph6)."""
    ordered = sorted(records, key=lambda r: (r.n, r.ce, r.graph6))
    return csv_text(SURVEY_CSV_FIELDS, (survey_row(rec) for rec in ordered))


def family_csv(records: Iterable[SurveyRecord]) -> str:
    return csv_text(FAMILY_CSV_FIELDS, (family_row(rec) for rec in records))
