"""Tests for isomorph-free enumeration and the CE survey machinery."""

import io
import random
from fractions import Fraction
from itertools import permutations

import pytest

from graphce.cli import run
from graphce.graphs import (
    Graph,
    _least_code,
    canonical_form,
    family,
    from_edges,
    is_connected,
    pair_count,
    random_connected_graph,
    write_graph6,
)
from graphce.metrics import (
    ce_bounds,
    concentratable_entanglement,
    purity_spectrum,
    snowflake_subset_ce,
)
from graphce.survey import (
    _children,
    ce_survey,
    distinct_ce_values,
    enumerate_connected,
    family_sweep,
    max_achievers,
)
from test_properties import reference_graph, reference_mask

# one representative per class of connected graphs on 1..8 vertices (OEIS-style counts)
CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def permute(graph, order):
    """Relabelled copy: new vertex i is old vertex order[i]."""
    inv = {old: new for new, old in enumerate(order)}
    return from_edges(graph.n, [(inv[u], inv[v]) for u, v in graph.edges()])


def brute_force_classes(n):
    """Independent oracle: all labelled masks, connectivity filter, full-permutation dedup."""
    keys = set()
    for mask in range(1 << pair_count(n)):
        g = reference_graph(mask, n)
        if not is_connected(g):
            continue
        orbit_min = min(reference_mask(permute(g, order)) for order in permutations(range(n)))
        keys.add(orbit_min)
    return keys


def test_enumerate_counts_against_brute_force():
    for n in range(1, 6):
        reps = enumerate_connected(n)
        assert len(reps) == CLASS_COUNTS[n]
        if n >= 2:
            assert {reference_mask(g) for g in reps} == brute_force_classes(n)


def test_enumerate_n6_count():
    assert len(enumerate_connected(6)) == CLASS_COUNTS[6]


def test_enumerate_n7_stretch_count():
    assert len(enumerate_connected(7, stretch=True)) == CLASS_COUNTS[7]


def test_enumerate_n8_stretch_count_and_representatives():
    import hashlib

    reps = enumerate_connected(8, stretch=True)
    assert len(reps) == CLASS_COUNTS[8]  # OEIS A001349
    listing = "".join(write_graph6(g) + "\n" for g in reps)
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "370179f0d16fe7beee1c5b3baca8898cf6f0f9154058486f03031eec0611a145"
    )


def test_enumerate_flag_gate_and_bound():
    with pytest.raises(ValueError, match="stretch"):
        enumerate_connected(7)
    with pytest.raises(ValueError):
        enumerate_connected(9, stretch=True)
    with pytest.raises(ValueError):
        enumerate_connected(0)


def test_enumerate_representatives_are_canonical():
    for n in range(2, 7):
        for g in enumerate_connected(n):
            total = pair_count(n)
            key = bytes([n]) + reference_mask(g).to_bytes((total + 7) // 8, "big")
            assert canonical_form(g) == key


def order_mask(adj, order):
    """Upper-triangle edge mask of the relabelling whose vertex i is old vertex order[i]."""
    mask = 0
    for j in range(1, len(order)):
        for i in range(j):
            mask = (mask << 1) | ((adj[order[i]] >> order[j]) & 1)
    return mask


def own_columns(adj):
    """Column j of the graph as labelled: its adjacency to 0..j-1, vertex 0 most significant."""
    return [sum(((adj[i] >> j) & 1) << (j - 1 - i) for i in range(j)) for j in range(len(adj))]


def test_least_code_search_against_every_vertex_order():
    # brute force over all 720 or 5040 orders; the search's column-bound prune must not
    # lose the least mask (canonical_form), nor miss or invent a lower order (stop mode)
    rng = random.Random(251)
    for n, count in ((6, 30), (7, 12)):
        for _ in range(count):
            density = rng.choice((0.2, 0.5, 0.8))
            g = from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < density])
            least = min(order_mask(g.adj, order) for order in permutations(range(n)))
            assert canonical_form(g) == bytes([n]) + least.to_bytes((pair_count(n) + 7) // 8, "big")
            assert _least_code(g.adj, own_columns(g.adj), True) == (reference_mask(g) != least)
            h = reference_graph(least, n)
            assert not _least_code(h.adj, own_columns(h.adj), True)


def reference_children(rows, cols, connected):
    """`_children` by a filter per candidate: every neighbourhood s < 2^k, each tested by the column pre-check."""
    k = len(rows)
    twins = [(1 << u, (1 << u) | (1 << v)) for v in range(k) for u in range(v)
             if (rows[u] ^ rows[v]) & ~((1 << u) | (1 << v)) == 0]
    for s in range(1 << k):
        if any(s & pair == low for low, pair in twins):
            continue
        c = int(format(s, f"0{k}b")[::-1], 2)
        if any(c >> (k - j) < cols[j] for j in range(1, k)):
            continue
        child = tuple(row | (((s >> u) & 1) << k) for u, row in enumerate(rows)) + (s,)
        if connected and not is_connected(Graph(k + 1, child)):
            continue
        code = cols + [c]
        if not _least_code(child, code, True):
            yield child, code


def test_children_candidate_range_matches_the_per_candidate_filter():
    level = [((0,), [0])]
    for k in range(1, 7):
        for rows, cols in level:
            for connected in (False, True):
                got = sorted(_children(rows, cols, connected))
                assert got == sorted(reference_children(rows, cols, connected)), (rows, connected)
        level = [child for rows, cols in level for child in _children(rows, cols, False)]
    assert len(level) == 1044  # graphs on 7 vertices, connected or not (OEIS A000088)


def test_ce_survey_n3_single_value():
    records = ce_survey(3)
    assert [str(r.ce) for r in records] == ["3/8", "3/8"]
    assert all(r.achieves_min and r.achieves_max for r in records)


def test_ce_survey_n6_contains_21_32():
    records = ce_survey(6)
    assert len(records) == 112
    assert Fraction(21, 32) in {r.ce for r in records}


def test_ce_survey_n7_distinct_values():
    records = ce_survey(7, stretch=True)
    assert len(records) == 853
    assert len(distinct_ce_values(records)) == 16


def test_ce_survey_sorted_and_bounded():
    records = ce_survey(5)
    lo, hi = ce_bounds(5)
    assert all(lo <= r.ce <= hi for r in records)
    assert [r.ce for r in records] == sorted(r.ce for r in records)
    assert any(r.achieves_min for r in records)  # the star graph


def test_max_achievers_existence_pattern():
    sizes = {n: len(max_achievers(n)) for n in range(2, 7)}
    assert sizes[4] == 0
    assert all(sizes[n] > 0 for n in (2, 3, 5, 6))


def test_max_achievers_k2_and_ring5():
    reps = max_achievers(2)
    assert [g.edges() for g in reps] == [[(0, 1)]]
    ring5_key = canonical_form(family("ring", 5))
    assert ring5_key in {canonical_form(g) for g in max_achievers(5)}


def test_max_achievers_match_records():
    # the spectrum test, written out: every cut whose smaller side has m vertices has rank m
    for n in range(2, 8):
        stretch = n >= 7
        from_records = {r.graph6 for r in ce_survey(n, stretch=stretch) if r.achieves_max}
        from_achievers = {write_graph6(g) for g in max_achievers(n, stretch=stretch)}
        from_spectra = {write_graph6(g) for g in enumerate_connected(n, stretch=stretch)
                        if all(r == m for m, level in enumerate(purity_spectrum(g).levels) for r, _ in level)}
        assert from_records == from_achievers == from_spectra


def test_family_sweep_star_minimum():
    records = family_sweep("star", range(3, 10))
    for rec in records:
        assert rec.ce == Fraction(1, 2) - Fraction(1, 1 << rec.n)
        assert rec.achieves_min


def test_family_sweep_ring_equals_linear_at_4():
    ring4 = family_sweep("ring", [4])[0]
    linear4 = family_sweep("linear", [4])[0]
    assert ring4.ce == linear4.ce


def test_family_sweep_snowflake_core_ce():
    for rec in family_sweep("snowflake", range(2, 7)):
        assert rec.core_subset_ce == snowflake_subset_ce(rec.size)
        assert rec.n == 2 * rec.size


def test_ce_is_isomorphism_invariant():
    rng = random.Random(109)
    for _ in range(50):
        g = random_connected_graph(rng.randint(2, 8), rng)
        order = list(range(g.n))
        rng.shuffle(order)
        h = permute(g, order)
        assert concentratable_entanglement(g, range(g.n)) == concentratable_entanglement(h, range(h.n))


def cli_stdout(argv):
    out = io.StringIO()
    assert run(argv, out=out) == 0
    return out.getvalue()


def test_survey_csv_deterministic():
    a = cli_stdout(["survey", "--n", "5", "--format", "csv"])
    b = cli_stdout(["survey", "--n", "5", "--format", "csv"])
    assert a == b
    header = a.splitlines()[0]
    assert header == "graph6,n,ce_num,ce_log2_den,achieves_min,achieves_max,distinct_purities"
    assert len(a.splitlines()) == 22  # header + 21 classes


def test_family_csv_shape():
    text = cli_stdout(["family", "--kind", "star", "--from", "3", "--to", "9", "--format", "csv"])
    lines = text.splitlines()
    assert len(lines) == 8
    assert lines[0].startswith("family,size,graph6,")
    assert lines[1].split(",")[0] == "star"
