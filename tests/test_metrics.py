"""Tests for exact values, purities, CE, rank indices and bounds."""

import random
import warnings
from fractions import Fraction
from itertools import combinations

import pytest

from graphce import survey
from graphce.cli import _fmt
from graphce.graphs import MAX_VERTICES, Graph, _members, family, from_edges, random_connected_graph
from graphce.metrics import (
    ce_bounds,
    ce_report,
    concentratable_entanglement,
    purity,
    purity_spectrum,
    rank_index,
    schmidt_rank,
    snowflake_subset_ce,
)

NO13 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


# --- exact values --------------------------------------------------------------


def test_dyadic_arithmetic():
    half, quarter = purity(NO13, [0]), purity(NO13, [0, 1, 4])
    assert half - quarter == quarter
    assert 1 - quarter == Fraction(3, 4)
    assert quarter - half == Fraction(-1, 4)


def test_dyadic_comparisons():
    values = [concentratable_entanglement(NO13, range(6)), purity(NO13, [0, 1, 4]), purity(NO13, []), ce_bounds(1)[0]]
    assert sorted(values) == [values[3], values[1], values[0], values[2]]
    assert values[0] > purity(NO13, [0])
    # ordering against any int, negative ones too
    assert values[1] > -1 and values[1] >= -1 and not values[1] < -1 and values[1] != -1
    assert -1 < values[3] == 0 < values[2] == 1


def test_dyadic_strings():
    assert str(concentratable_entanglement(NO13, range(6))) == "21/32"
    assert str(purity(NO13, [])) == "1"
    assert str(ce_bounds(1)[0]) == "0"
    assert _fmt(Fraction(21, 32), True) == "0.65625"
    assert _fmt(Fraction(1, 2), True) == "0.5"
    assert _fmt(Fraction(3, 2), True) == "1.5"
    assert _fmt(Fraction(5), True) == "5"
    assert _fmt(Fraction(0), True) == "0"
    assert _fmt(Fraction(1, 1 << 10), True) == "0.0009765625"


def test_dyadic_fraction_and_float():
    assert type(concentratable_entanglement(NO13, range(6))) is Fraction
    assert float(purity(NO13, [0, 1, 4])) == 0.25


# --- purity / schmidt rank ---------------------------------------------------


def test_purity_no13_golden():
    assert purity(NO13, [0, 1, 2, 4]) == Fraction(1, 4)
    assert purity(NO13, [0, 1, 4]) == Fraction(1, 4)


def test_purity_trivial_cuts():
    assert purity(NO13, range(6)) == Fraction(1)
    assert purity(NO13, []) == Fraction(1)


def test_purity_single_qubit_is_half():
    rng = random.Random(61)
    for _ in range(40):
        g = random_connected_graph(rng.randint(2, 10), rng)
        assert purity(g, [rng.randrange(g.n)]) == Fraction(1, 2)


def test_purity_complement_symmetry_exhaustive():
    rng = random.Random(67)
    graphs = [NO13, family("ring", 7), family("snowflake", 4)]
    graphs += [random_connected_graph(8, rng) for _ in range(3)]
    for g in graphs:
        for members in range(1 << g.n):
            assert purity(g, _members(members)) == purity(g, _members(members ^ ((1 << g.n) - 1)))


def test_purity_bounds_for_connected_graphs():
    rng = random.Random(71)
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 9), rng)
        for _ in range(10):
            members = rng.getrandbits(g.n)
            if members in (0, (1 << g.n) - 1):
                continue
            b = _members(members)
            value = purity(g, b)
            assert Fraction(1, 1 << min(len(b), g.n - len(b))) <= value <= Fraction(1, 2)


def test_schmidt_rank():
    assert schmidt_rank(NO13, [0, 1, 2, 4]) == 2
    assert schmidt_rank(NO13, []) == 0
    assert schmidt_rank(from_edges(2, [(0, 1)]), [0]) == 1


# --- Concentratable Entanglement ---------------------------------------------


def test_ce_no13_full_set():
    assert concentratable_entanglement(NO13, range(6)) == Fraction(21, 32)


def test_ce_single_qubit_quarter():
    rng = random.Random(73)
    for _ in range(30):
        g = random_connected_graph(rng.randint(2, 10), rng)
        a = rng.randrange(g.n)
        assert concentratable_entanglement(g, [a]) == Fraction(1, 4)


def test_ce_star_and_complete_closed_form():
    for n in range(3, 10):
        expected = Fraction(1, 2) - Fraction(1, 1 << n)
        assert concentratable_entanglement(family("star", n), range(n)) == expected
        assert concentratable_entanglement(family("complete", n), range(n)) == expected


def test_ce_linear4_dense_derived():
    # independent dense oracle: brute-force power-set sum of state-vector purities
    from graphce.dense import build_state, dense_purity

    g = family("linear", 4)
    state = build_state(g)
    total = sum(dense_purity(state, _members(members)) for members in range(16))
    oracle_value = 1.0 - total / 16.0
    assert abs(oracle_value - 0.5) < 1e-12
    assert concentratable_entanglement(g, range(4)) == Fraction(1, 2)


def test_ce_empty_subset_rejected():
    with pytest.raises(ValueError):
        concentratable_entanglement(NO13, [])


def test_ce_spectrum_shortcut_matches_direct_sum():
    from graphce.survey import enumerate_connected

    for n in range(2, 8):
        for g in enumerate_connected(n, stretch=n >= 7):
            direct = sum(purity(g, _members(members)) for members in range(1 << n))
            expected = 1 - direct / 2**n
            assert concentratable_entanglement(g, range(n)) == expected


def test_metrics_on_a_disconnected_graph_are_exact_and_warn_of_nothing():
    g = from_edges(4, [(0, 1), (2, 3)])  # two independent Bell pairs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (purity(g, [0]), purity(g, [0, 1]), purity(g, [0, 2])) == (Fraction(1, 2), 1, Fraction(1, 4))
        assert (schmidt_rank(g, [0, 1]), schmidt_rank(g, [1, 3])) == (0, 2)
        # CE = 1 - (6/4)^2 / 4
        assert concentratable_entanglement(g, range(4)) == Fraction(7, 16)
        report = ce_report(g)
        assert (report.ce, report.bound_min, report.bound_max) == (Fraction(7, 16), Fraction(3, 8), Fraction(17, 32))
        assert not report.connected
        assert purity_spectrum(g).levels == (((0, 1),), ((1, 4),), ((0, 1), (2, 2)))
        assert rank_index(g, 2).counts == (2, 0)
        assert purity_spectrum(Graph(0, ())).levels == (((0, 1),),)


# --- rank index / spectrum ----------------------------------------------------


def test_rank_index_no13():
    assert rank_index(NO13, 2).counts == (12, 3)
    assert rank_index(NO13, 3).counts == (4, 4, 2)
    assert str(rank_index(NO13, 3)) == "(4,4,2)"


def test_rank_index_star4():
    assert rank_index(family("star", 4), 2).counts == (0, 3)


def test_rank_index_range_check():
    with pytest.raises(ValueError):
        rank_index(NO13, 4)
    with pytest.raises(ValueError):
        rank_index(NO13, 0)


def test_purity_spectrum_no13_tallies():
    spectrum = purity_spectrum(NO13)
    assert spectrum.purity_tally(1) == [(Fraction(1, 2), 6)]
    assert spectrum.purity_tally(2) == [(Fraction(1, 4), 12), (Fraction(1, 2), 3)]
    assert spectrum.purity_tally(3) == [
        (Fraction(1, 8), 4),
        (Fraction(1, 4), 4),
        (Fraction(1, 2), 2),
    ]
    assert survey._record(NO13, ce_bounds(6)).distinct_purities == 3


def test_purity_spectrum_counts_match_binomials():
    from math import comb

    rng = random.Random(79)
    for _ in range(10):
        g = random_connected_graph(rng.randint(2, 9), rng)
        spectrum = purity_spectrum(g)
        for m in range(1, g.n // 2 + 1):
            expected = comb(g.n, m) // (2 if 2 * m == g.n else 1)
            assert sum(spectrum.counts_at(m).values()) == expected


def test_work_estimates_equal_the_work(monkeypatch):
    from graphce import metrics
    from graphce.graphs import cut_rank

    ranked = []

    def counted(graph, a):
        ranked.append(a)
        return cut_rank(graph, a)

    monkeypatch.setattr(metrics, "cut_rank", counted)
    monkeypatch.setattr(survey, "cut_rank", counted)

    def cuts(call, *args):
        ranked.clear()
        call(*args)
        return len(ranked)

    rng = random.Random(31)
    for _ in range(60):
        n = rng.randint(1, 10)
        g = from_edges(n, [e for e in combinations(range(n), 2) if rng.random() < 0.4])
        assert cuts(purity_spectrum, g) == metrics._cut_count(n)
        for m in range(1, n // 2 + 1):
            assert cuts(rank_index, g, m) == metrics._cut_count(n, m)
        assert cuts(survey._middle_rank, g) <= metrics._cut_count(n, n // 2)  # it stops at rank n // 2
        for s in [(1 << n) - 1] + [rng.randrange(1, 1 << n) for _ in range(4)]:
            assert sum(metrics._weights(g, s)) == 2 ** metrics._visit_log2(g, s)
    assert metrics._visit_log2(NO13, (1 << 6) - 1) == 6


def test_purity_spectrum_k2():
    spectrum = purity_spectrum(from_edges(2, [(0, 1)]))
    assert spectrum.purity_tally(1) == [(Fraction(1, 2), 1)]


# --- bounds and closed forms ----------------------------------------------------


def test_ce_bounds_small_n():
    assert ce_bounds(2) == (Fraction(1, 4), Fraction(1, 4))
    assert ce_bounds(3) == (Fraction(3, 8), Fraction(3, 8))
    assert ce_bounds(4)[1] == Fraction(17, 32)
    assert ce_bounds(5)[1] == Fraction(5, 8)


def test_bounds_running_binomial_matches_math_comb():
    from math import comb

    from graphce.metrics import _bounds

    for n in (1, 2, 7, 62, 333, 1000):
        for k in sorted({1, n // 2 or 1, n - 1 or 1, n}):
            acc = sum(comb(k, j) << (n - min(j, n - j)) for j in range(k + 1))
            assert _bounds(n, k, 0)[1] == Fraction((1 << (n + k)) - acc, 1 << (n + k))


def test_ce_within_bounds_for_connected_graphs():
    rng = random.Random(83)
    for _ in range(25):
        g = random_connected_graph(rng.randint(2, 9), rng)
        lo, hi = ce_bounds(g.n)
        value = concentratable_entanglement(g, range(g.n))
        assert lo <= value <= hi


def test_closed_forms_refuse_sizes_beyond_the_vertex_limit():
    # these used to raise OverflowError at 10**20 and run for minutes at 20000
    assert ce_bounds(1) == (0, 0)
    assert snowflake_subset_ce(MAX_VERTICES // 2) < 1
    for n in (0, MAX_VERTICES + 1, 20000, 10**20):
        with pytest.raises(ValueError, match=f"need 1 <= n <= {MAX_VERTICES}, got {n}"):
            ce_bounds(n)
    for n in (0, MAX_VERTICES // 2 + 1, 10**20):  # the snowflake has 2n vertices, as in `family`
        with pytest.raises(ValueError, match=f"need 1 <= n <= {MAX_VERTICES // 2}, got {n}"):
            snowflake_subset_ce(n)


def test_snowflake_subset_ce_closed_form():
    assert snowflake_subset_ce(1) == Fraction(1, 4)
    assert snowflake_subset_ce(2) == Fraction(7, 16)
    assert snowflake_subset_ce(8) == Fraction(65536 - 6561, 1 << 16)


def test_snowflake_core_and_pendant_match_closed_form():
    for n in range(2, 5):
        g = family("snowflake", n)
        core = range(n)
        pendants = range(n, 2 * n)
        assert concentratable_entanglement(g, core) == snowflake_subset_ce(n)
        assert concentratable_entanglement(g, pendants) == snowflake_subset_ce(n)


def test_snowflake2_core_ce_dense_derived():
    # independent dense oracle on the 4-qubit snowflake: CE(core) = 7/16
    from graphce.dense import build_state, dense_purity

    g = family("snowflake", 2)
    state = build_state(g)
    core = [0, 1]
    total = 0.0
    for members in range(4):
        alpha = [core[i] for i in range(2) if (members >> i) & 1]
        total += dense_purity(state, alpha)
    oracle_value = 1.0 - total / 4.0
    assert abs(oracle_value - 7 / 16) < 1e-12
    assert snowflake_subset_ce(2) == Fraction(7, 16)


def test_ring_vs_linear_ordering():
    for n in (3, 4):
        assert concentratable_entanglement(family("ring", n), range(n)) == concentratable_entanglement(
            family("linear", n), range(n)
        )
    for n in range(5, 10):
        ring_ce = concentratable_entanglement(family("ring", n), range(n))
        linear_ce = concentratable_entanglement(family("linear", n), range(n))
        assert ring_ce > linear_ce


def test_ce_report_full_set():
    report = ce_report(NO13)
    assert report.ce == Fraction(21, 32)
    assert report.subset == (0, 1, 2, 3, 4, 5)
    assert report.connected
    assert not report.achieves_min and not report.achieves_max


def test_ce_report_subset():
    report = ce_report(NO13, [0])
    assert report.ce == Fraction(1, 4)
    # one qubit of a connected graph: 1/2 - 2^-2 <= CE <= 1 - (1 + 1/2)/2, both 1/4
    assert report.bound_min == Fraction(1, 4)
    assert report.bound_max == Fraction(1, 4)
    assert report.achieves_min and report.achieves_max
    ring = ce_report(family("ring", 5), [0, 1])
    assert ring.ce == Fraction(7, 16)
    # 1/2 - 2^-3, and 1 - (1 + 2/2 + 1/4)/4 with every purity at 2^-min(|A|, 5 - |A|)
    assert (ring.bound_min, ring.bound_max) == (Fraction(3, 8), Fraction(7, 16))
    assert ring.achieves_max and not ring.achieves_min


def test_ce_report_bounds_on_a_disconnected_graph():
    # an edge and an isolated vertex: A = {2} and A = {0, 1} are cuts of rank 0
    g = from_edges(3, [(0, 1)])
    full = ce_report(g)
    assert full.ce == Fraction(1, 4)
    # two components inside s: 1/2 - 2^(2 - 3 - 1); the connected ce_bounds(3) minimum 3/8 fails here
    assert (full.bound_min, full.bound_max) == (Fraction(1, 4), Fraction(3, 8))
    assert full.achieves_min
    isolated = ce_report(g, [2])
    assert (isolated.ce, isolated.bound_min, isolated.bound_max) == (0, 0, Fraction(1, 4))
