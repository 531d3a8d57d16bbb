"""Acceptance suite: every criterion prints one pass/fail line with its runtime.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All comparisons on rational values are exact; dense-oracle comparisons use
the stated 1e-10 tolerance.
"""

import io
import random
import time
from fractions import Fraction

import numpy as np

from graphce.cli import run
from graphce.dense import (
    build_state,
    check_lemma,
    check_measurement_rule,
    dense_purity,
    outcome_state,
)
from graphce.graphs import (
    _members,
    canonical_form,
    family,
    from_edges,
    random_connected_graph,
)
from graphce.metrics import (
    concentratable_entanglement,
    purity,
    purity_spectrum,
    rank_index,
    snowflake_subset_ce,
)
from graphce.stabilizer import (
    count_distinct_sets,
    count_distinct_sets_fast,
    support_multiplicities,
    unitary_support,
)
from graphce.survey import ce_survey, enumerate_connected, max_achievers

NO13 = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def _report(number: int, name: str, ok: bool, elapsed: float, limit: float) -> None:
    status = "PASS" if ok and elapsed <= limit else "FAIL"
    print(f"[acceptance] criterion {number} ({name}): {status} ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed <= limit, f"criterion {number} exceeded {limit}s: {elapsed:.2f}s"


def test_criterion_1_graph_no13_goldens():
    start = time.perf_counter()
    ok = concentratable_entanglement(NO13, range(6)) == Fraction(21, 32)
    ok &= purity(NO13, [0, 1, 2, 4]) == Fraction(1, 4)
    ok &= purity(NO13, [0, 1, 4]) == Fraction(1, 4)
    ok &= rank_index(NO13, 2).counts == (12, 3)
    ok &= rank_index(NO13, 3).counts == (4, 4, 2)
    spectrum = purity_spectrum(NO13)
    ok &= spectrum.counts_at(1) == {1: 6}
    ok &= spectrum.counts_at(2) == {2: 12, 1: 3}
    ok &= spectrum.counts_at(3) == {3: 4, 2: 4, 1: 2}
    _report(1, "graph No. 13 goldens", ok, time.perf_counter() - start, 1.0)


def test_criterion_2_single_qubit_ce():
    start = time.perf_counter()
    rng = random.Random(2024)
    quarter = Fraction(1, 4)
    ok = True
    for _ in range(500):
        g = random_connected_graph(rng.randint(2, 10), rng)
        for a in range(g.n):
            ok &= concentratable_entanglement(g, [a]) == quarter
    _report(2, "single-qubit CE = 1/4 on 500 random graphs", ok, time.perf_counter() - start, 10.0)


def test_criterion_3_minimum_families():
    start = time.perf_counter()
    ok = True
    for n in range(3, 10):
        expected = Fraction(1, 2) - Fraction(1, 1 << n)
        ok &= concentratable_entanglement(family("star", n), range(n)) == expected
        ok &= concentratable_entanglement(family("complete", n), range(n)) == expected
    _report(3, "star/complete CE = 1/2 - 2^-n for n = 3..9", ok, time.perf_counter() - start, 30.0)


def test_criterion_4_snowflake():
    start = time.perf_counter()
    ok = True
    for n in range(2, 7):
        g = family("snowflake", n)
        expected = snowflake_subset_ce(n)
        ok &= concentratable_entanglement(g, range(n)) == expected
        ok &= concentratable_entanglement(g, range(n, 2 * n)) == expected
        for i in range(n):
            pair = [i, i + n]
            ok &= count_distinct_sets(g, pair) == 2
            ok &= count_distinct_sets_fast(g, pair) == 2
    _report(4, "snowflake subset CE = 1 - (3/4)^n and pair trace-out k = 2", ok, time.perf_counter() - start, 10.0)


def test_criterion_5_max_achievers():
    start = time.perf_counter()
    achievers = {n: max_achievers(n) for n in range(2, 7)}
    ok = all(bool(achievers[n]) == (n in (2, 3, 5, 6)) for n in range(2, 7))
    ok &= achievers[4] == []
    ring5 = canonical_form(family("ring", 5))
    ok &= ring5 in {canonical_form(g) for g in achievers[5]}
    _report(5, "max-CE achievers exist exactly for n in {2,3,5,6}", ok, time.perf_counter() - start, 120.0)


def test_criterion_6_n7_value_collisions():
    start = time.perf_counter()
    out = io.StringIO()
    code = run(["survey", "--n", "7", "--stretch", "--format", "csv"], out=out)
    lines = out.getvalue().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = {(r[2], r[3]) for r in rows}
    ok = code == 0 and len(rows) == 853 and len(values) == 16
    _report(6, "n = 7 survey: 853 classes, 16 distinct CE values", ok, time.perf_counter() - start, 900.0)


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(777)
    ok = True
    for _ in range(500):
        g = random_connected_graph(rng.randint(2, 10), rng)
        b = _members(rng.getrandbits(g.n))
        exact = float(purity(g, b))
        ok &= abs(dense_purity(build_state(g), b) - exact) <= 1e-10
    for _ in range(200):
        g = random_connected_graph(rng.randint(2, 10), rng)
        ok &= check_measurement_rule(g, rng.randrange(g.n), rng.choice((1, -1)))
    _report(7, "dense purity vs 1/k and measurement-rule agreement", ok, time.perf_counter() - start, 120.0)


def test_criterion_8_theorem_internals():
    start = time.perf_counter()
    ok = True
    # exhaustive: every bipartition of every connected class, n <= 7
    for n in range(2, 8):
        for g in enumerate_connected(n, stretch=n >= 7):
            for members in range(1 << n):
                a = _members(members)
                k_fast = count_distinct_sets_fast(g, a)
                ok &= count_distinct_sets(g, a) == k_fast
    # dense multiplicity law on 100 random cases, |A| <= 6
    rng = random.Random(888)
    for _ in range(100):
        g = random_connected_graph(rng.randint(2, 9), rng)
        size = rng.randint(1, min(6, g.n - 1))
        a = rng.sample(range(g.n), size)
        k = count_distinct_sets_fast(g, a)
        states: list[np.ndarray] = []
        tally: list[int] = []
        for value in range(1 << size):
            vec = outcome_state(g, a, value)
            for i, ref in enumerate(states):
                if abs(np.vdot(ref, vec)) > 0.5:
                    tally[i] += 1
                    break
            else:
                states.append(vec)
                tally.append(1)
        ok &= len(states) == k
        ok &= all(t == (1 << size) // k for t in tally)
        ok &= sorted(support_multiplicities(g, a).values()) == sorted(tally)
    _report(8, "k = 2^rank on all bipartitions (n <= 7) and dense multiplicity law", ok, time.perf_counter() - start, 300.0)


def test_criterion_9_lemma_properties():
    start = time.perf_counter()
    rng = random.Random(999)
    ok = True
    for _ in range(100):
        g = random_connected_graph(rng.randint(2, 10), rng)
        size = rng.randint(1, min(6, g.n - 1))
        a = rng.sample(range(g.n), size)
        supports = [unitary_support(g, a, v) for v in range(1 << size)]
        for x in range(1 << size):
            for y in range(1 << size):
                ok &= supports[x ^ y] == (supports[x] ^ supports[y])
        ok &= check_lemma(g, a)  # dense: equal supports coincide, others orthogonal
    _report(9, "support-map linearity and dense orthogonality", ok, time.perf_counter() - start, 120.0)


def test_criterion_10_ring_vs_linear():
    start = time.perf_counter()
    ok = True
    for n in (3, 4):
        ok &= concentratable_entanglement(family("ring", n), range(n)) == concentratable_entanglement(
            family("linear", n), range(n)
        )
    for n in range(5, 10):
        ok &= concentratable_entanglement(family("ring", n), range(n)) > concentratable_entanglement(
            family("linear", n), range(n)
        )
    _report(10, "CE(ring) > CE(linear) for 5 <= n <= 9, equal for n = 3, 4", ok, time.perf_counter() - start, 60.0)
