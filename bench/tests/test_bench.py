"""Tests of the benchmark's own reference, input generator, tail rule and span recorder.

Run from the repository root:  python3 -m pytest bench/tests
"""

import random
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NO13 = [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]


def _adj(n, edges):
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def test_reference_reproduces_acceptance_goldens():
    adj = _adj(6, NO13)
    assert ref.full_ce(adj) == Fraction(21, 32)
    assert ref.rank_index(adj, 2) == (12, 3)
    assert ref.rank_index(adj, 3) == (4, 4, 2)
    assert ref.subset_ce(adj, (1 << 6) - 1) == Fraction(21, 32)
    assert ref.purity(adj, 0b010011) == Fraction(1, 4)


def test_graph6_and_edge_list_text():
    assert ref.graph6(_adj(3, [(0, 1), (1, 2)])) == "Bg"
    assert ref.edge_list(_adj(6, NO13)) == "6\n1 2\n2 3\n3 4\n4 5\n3 6\n"
    adj = ref.random_graph(30, 0.3, random.Random(5))
    assert ref.parse_graph6(ref.graph6(adj)) == adj


def test_generator_is_deterministic_and_connected():
    a = [ref.random_graph(n, p, random.Random(7)) for n, p in ((12, 0.1), (40, 0.5))]
    b = [ref.random_graph(n, p, random.Random(7)) for n, p in ((12, 0.1), (40, 0.5))]
    assert a == b
    assert a != [ref.random_graph(n, p, random.Random(8)) for n, p in ((12, 0.1), (40, 0.5))]
    for adj in a:
        seen, frontier = 1, 1
        while frontier:
            nxt = 0
            for v in range(len(adj)):
                if frontier >> v & 1:
                    nxt |= adj[v]
            frontier = nxt & ~seen
            seen |= frontier
        assert seen == (1 << len(adj)) - 1


def test_workload_inputs_depend_only_on_the_seed():
    def answers(seed):
        items = run.queries_items(None, random.Random(f"queries:{seed}"))
        return [item.expect() for item in items]

    assert answers(3) == answers(3)
    assert answers(3) != answers(4)


def test_tail_rule_on_fixed_samples():
    assert run.tail([float(x) for x in range(1, 101)]) == (90.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail([float(x) for x in range(10)]) == (9.0, 100.0, 10)
    value, pct, count = run.tail([float(x) for x in range(300)])
    assert (value, count) == (289.0, 300) and abs(pct - 96.6667) < 1e-3


def test_verify_output_check():
    good = "".join(f"{name}: {run.VERIFY_TRIALS}/{run.VERIFY_TRIALS} ok (0.10s)\n" for name in "abcd")
    assert run._verify_ok("verify seed: 1\n" + good + "verify: PASS\n", None)
    assert not run._verify_ok("verify seed: 1\n" + good.replace(" ok", " FAIL", 1) + "verify: PASS\n", None)


def test_recorder_patches_every_lookup_site_and_restores():
    import graphce

    graph = graphce.from_edges(6, NO13)
    recorder = spans.Recorder()
    with recorder.patched():
        assert str(graphce.purity(graph, [0, 1, 4])) == "1/4"
    assert graphce.metrics.rank is graphce.gf2.rank
    layers = recorder.layer_metrics()
    assert layers["metrics.purity.calls"] == 1
    assert layers["graphs.cut_matrix.calls"] == layers["gf2.rank.calls"] == 1
    assert layers["graphs.cut_matrix.cells"] == 9
    assert layers["graphs.connectivity.calls"] == 1
    assert all(layers[f"{layer.name}.self_s"] >= 0 for layer in spans.LAYERS)
    assert layers["dense.build_state.calls"] == 0


def test_gauge_scales_by_the_kernel_samples_next_to_the_interval():
    gauge = run.Gauge()
    gauge.mids = [0.0, 1.0, 1.6, 10.0]
    gauge.durs = [4 * run.CAL_NOMINAL_S, 2 * run.CAL_NOMINAL_S, 2 * run.CAL_NOMINAL_S, run.CAL_NOMINAL_S]
    assert gauge.factor(1.0, 1.5) == 0.5  # reaches 0.1667 s beyond the interval: the samples at 1.0 and 1.6
    assert gauge.factor(9.0, 9.95) == 1.0  # only the sample at 10.0 is within reach
    assert gauge.factor(0.0, 3.0) == 0.5  # reaches 1 s: the median of the first three samples
