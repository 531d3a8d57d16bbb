"""Property tests: cut-rank against the enumeration oracle, the CLI's decimal format and CE sums against Fraction,
stabilizer weight counts against brute-force enumeration, the bitset graph readers and writers
against pair-by-pair reference loops, the edge-list parser against a per-line one, every
public vertex-set function against each spelling of the same set, and every public int argument
against its bool and numpy spellings."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphce import dense

from graphce.graphs import (
    FAMILY_KINDS,
    MAX_VERTICES,
    DuplicateEdgeWarning,
    Graph,
    Graph6Error,
    _eliminate,
    _members,
    _transpose,
    cut_rank,
    family,
    from_edges,
    induced_subgraph,
    is_connected,
    pair_count,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from graphce import metrics
from graphce.cli import _fmt
from graphce.metrics import (
    _CHUNK_LOG2,
    _ce,
    _level_rank_counts,
    _weights,
    ce_bounds,
    ce_report,
    concentratable_entanglement,
    purity,
    purity_spectrum,
    rank_index,
    schmidt_rank,
    snowflake_subset_ce,
)
from graphce.stabilizer import (
    count_distinct_sets,
    count_distinct_sets_fast,
    graph_generators,
    measure_z,
    support_multiplicities,
    traced_generator_set,
    unitary_support,
)
from graphce.survey import _middle_rank, ce_survey, enumerate_connected, family_sweep, max_achievers

MAX_N = 10

graphs = st.integers(1, MAX_N).flatmap(
    lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(lambda mask: reference_graph(mask, n))
)


@st.composite
def graph_and_sets(draw, count):
    g = draw(graphs)
    return (g,) + tuple(draw(st.integers(0, (1 << g.n) - 1)) for _ in range(count))


@settings(max_examples=200, deadline=None)
@given(graph_and_sets(1))
def test_cut_rank_is_log2_of_enumerated_distinct_sets(case):
    g, a = case
    assert 1 << cut_rank(g, a) == count_distinct_sets(g, _members(a))


@settings(max_examples=200, deadline=None)
@given(graph_and_sets(1))
def test_cut_rank_complement_symmetry(case):
    g, a = case
    b = ((1 << g.n) - 1) ^ a
    assert cut_rank(g, a) == cut_rank(g, b)
    # the same symmetry without the kernel's choice of the smaller side
    rows_a = [g.adj[v] & b for v in range(g.n) if (a >> v) & 1]
    rows_b = [g.adj[v] & a for v in range(g.n) if (b >> v) & 1]
    assert len(_eliminate(rows_a)) == len(_eliminate(rows_b))


@settings(max_examples=200, deadline=None)
@given(graph_and_sets(2))
def test_cut_rank_is_submodular(case):
    g, x, y = case
    assert cut_rank(g, x) + cut_rank(g, y) >= cut_rank(g, x | y) + cut_rank(g, x & y)


dyadics = st.builds(lambda num, q: Fraction(num, 1 << q), st.integers(0, 1 << 40), st.integers(0, 40))


@settings(max_examples=300, deadline=None)
@given(dyadics)
def test_fmt_round_trips_dyadic_fractions(x):
    decimal = _fmt(x, True)
    assert Fraction(decimal) == x
    assert _fmt(x, False) == str(x)
    assert "." not in decimal or not decimal.endswith("0")
    assert decimal.count(".") == (x.denominator > 1)


walk_graphs = st.integers(1, 11).flatmap(
    lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(lambda mask: reference_graph(mask, n))
)


@settings(max_examples=150, deadline=None)
@given(walk_graphs.flatmap(lambda g: st.tuples(st.just(g), st.integers(1, (1 << g.n) - 1))))
def test_ce_walk_matches_fraction_sum_of_cut_rank_purities(case):
    g, s = case
    members = [v for v in range(g.n) if (s >> v) & 1]
    subsets = [sum(1 << v for i, v in enumerate(members) if (sub >> i) & 1) for sub in range(1 << len(members))]
    purity_sum = sum(Fraction(1, 1 << cut_rank(g, a)) for a in subsets)
    assert _ce(g, s) == 1 - purity_sum / (1 << len(members))
    assert sum(_weights(g, s)) == 1 << (len(members) - cut_rank(g, s))  # the kernel of the cut map


@settings(max_examples=150, deadline=None)
@given(walk_graphs)
def test_sweep_levels_match_weight_counts(g):
    # |S_A| = 2^(m - r(A)) summed over |A| = m counts each element of weight w <= m in C(n - w, m - w) sets
    n = g.n
    weights = _weights(g, (1 << n) - 1)
    for m, level in enumerate(purity_spectrum(g).levels):
        tally = sum(c << (m - r) for r, c in level) * (2 if 2 * m == n else 1)
        assert tally == sum(c * math.comb(n - w, m - w) for w, c in enumerate(weights[:m + 1]))


def brute_weights(g, s):
    """N_w by enumeration: every x inside s whose Γx stays inside s, tallied by |x | Γx|."""
    members = [v for v in range(g.n) if (s >> v) & 1]
    counts = [0] * (len(members) + 1)
    for sub in range(1 << len(members)):
        x = gx = 0
        for i, v in enumerate(members):
            if (sub >> i) & 1:
                x |= 1 << v
                gx ^= g.adj[v]
        if gx & ~s == 0:
            counts[(x | gx).bit_count()] += 1
    return counts


# chunks of 2^2 lanes make the Gray walk across chunks run for every kernel of dimension above 2
@pytest.mark.parametrize("chunk_log2", [_CHUNK_LOG2, 2])
@settings(max_examples=150, deadline=None)
@given(graph_and_sets(1))
def test_weights_match_brute_force_enumeration(chunk_log2, case):
    g, s = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(metrics, "_CHUNK_LOG2", chunk_log2)
        assert _weights(g, s) == brute_weights(g, s)


def test_brute_force_comparison_catches_a_shifted_lane_pattern(monkeypatch):
    g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])
    full = (1 << g.n) - 1
    assert _weights(g, full) == brute_weights(g, full)
    lane_patterns = metrics._lane_patterns

    def shifted(c):
        patterns = lane_patterns(c)
        patterns[1] <<= 1
        return patterns

    monkeypatch.setattr(metrics, "_lane_patterns", shifted)
    assert _weights(g, full) != brute_weights(g, full)


@settings(max_examples=150, deadline=None)
@given(walk_graphs)
def test_proper_cut_ranks_are_one_to_the_middle_level_max(g):
    # survey records print max(level n // 2) as the number of distinct purities
    assume(is_connected(g))
    ranks = {r for level in purity_spectrum(g).levels[1:] for r, _ in level}
    assert ranks == set(range(1, max(_level_rank_counts(g, g.n // 2)) + 1))


@settings(max_examples=300, deadline=None)
@given(graph_and_sets(1))
def test_ce_report_bounds_hold_for_every_subset(case):
    g, s = case
    assume(s)
    report = ce_report(g, _members(s))
    assert report.bound_min <= _ce(g, s) <= report.bound_max
    assert report.connected == is_connected(g)  # read off the bounds' component walk
    k = s.bit_count()
    upper = 1 - sum(Fraction(math.comb(k, j), 1 << min(j, g.n - j)) for j in range(k + 1)) / (1 << k)
    assert report.bound_max == upper
    if report.connected:
        lower = Fraction(1, 2) - Fraction(1, 1 << (k + 1)) if s != (1 << g.n) - 1 else ce_bounds(g.n)[0]
        assert report.bound_min == lower


def test_ce_bounds_match_fraction_sums():
    for n in range(1, 64):
        lo, hi = ce_bounds(n)
        assert lo == Fraction(1, 2) - Fraction(1, 1 << n)
        assert hi == 1 - sum(Fraction(math.comb(n, j), 1 << min(j, n - j)) for j in range(n + 1)) / (1 << n)


# --- graph construction against pair-by-pair references -------------------------


def reference_graph(mask, n):
    """Pair p = (i, j), i < j, in column-major order, is an edge iff mask bit P-1-p is set."""
    total = pair_count(n)
    adj = [0] * n
    for j in range(1, n):
        for i in range(j):
            if (mask >> (total - 1 - (j * (j - 1) // 2 + i))) & 1:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def reference_mask(g):
    """The edge mask `reference_graph` reads: pair p = (i, j), i < j, in column-major order, at bit P-1-p."""
    mask = 0
    for j in range(1, g.n):
        for i in range(j):
            mask = (mask << 1) | ((g.adj[i] >> j) & 1)
    return mask


def reference_graph6(g):
    """graph6 short form: the pair bits, column-major, in 6-bit groups offset by 63."""
    bits = [(g.adj[i] >> j) & 1 for j in range(g.n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    groups = [int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6)]
    return chr(63 + g.n) + "".join(chr(63 + b) for b in groups)


def reference_transpose(rows, n):
    return tuple(sum(((rows[j] >> i) & 1) << j for j in range(len(rows))) for i in range(n))


def masked_graphs(max_n):
    return st.integers(0, max_n).flatmap(
        lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(lambda mask: (mask, n))
    )


@settings(max_examples=150, deadline=None)
@given(masked_graphs(62))
def test_graph6_round_trip_up_to_62_vertices(case):
    mask, n = case
    g = reference_graph(mask, n)
    text = write_graph6(g)
    assert text == reference_graph6(g)
    assert parse_graph6(text) == g


@settings(max_examples=150, deadline=None)
@given(masked_graphs(80))
def test_edge_list_round_trip(case):
    mask, n = case
    g = reference_graph(mask, n)
    assert parse_edge_list(write_edge_list(g)) == g
    assert from_edges(n, g.edges()) == g


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 130).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=n))
))
def test_transpose_matches_reference(case):
    n, rows = case
    assert _transpose(rows, n) == reference_transpose(rows, n)


@settings(max_examples=50, deadline=None)
@given(st.integers(65, 130).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=300))
))
def test_from_edges_past_64_vertices(case):
    n, pairs = case
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v})
    g = from_edges(n, edges)
    assert g.edges() == edges
    mask = sum(1 << (pair_count(n) - 1 - (j * (j - 1) // 2 + i)) for i, j in edges)
    assert g == reference_graph(mask, n)


def test_snowflake_past_64_vertices():
    g = family("snowflake", 40)
    assert g.n == 80 and len(g.edges()) == 40 * 39 // 2 + 40
    assert all(g.adj[i] >> (i + 40) & 1 and g.adj[i + 40].bit_count() == 1 for i in range(40))
    assert all(g.adj[i].bit_count() == 40 for i in range(40))


def declared_vertex_count(text):
    """The vertex count an edge list declares, or None (building n rows validates (n/64)^2 tiles)."""
    lines = [ln.strip() for ln in text.splitlines()]
    first = next((ln for ln in lines if ln and not ln.startswith("#")), None)
    try:
        return int(first)
    except (TypeError, ValueError):
        return None


graph6_like = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(min_codepoint=60, max_codepoint=130), max_size=400),
    st.integers(0, 62).flatmap(
        lambda n: st.text(alphabet=st.characters(min_codepoint=62, max_codepoint=127),
                          min_size=(pair_count(n) + 5) // 6, max_size=(pair_count(n) + 5) // 6 + 1)
        .map(lambda body: chr(63 + n) + body)
    ),
)
edge_list_like = st.one_of(
    st.text(),
    st.lists(
        st.one_of(
            st.text(alphabet="0123456789 -#x\t", max_size=8),
            st.tuples(st.integers(-2, 12), st.integers(-2, 12)).map(lambda p: f"{p[0]} {p[1]}"),
        ),
        max_size=20,
    ).map("\n".join),
)


@settings(max_examples=400, deadline=None)
@given(graph6_like)
def test_arbitrary_graph6_text_gives_a_graph_or_graph6_error(text):
    try:
        g = parse_graph6(text)
    except Graph6Error:
        return
    assert write_graph6(g) == text.strip().removeprefix(">>graph6<<")


@settings(max_examples=400, deadline=None)
@given(edge_list_like)
def test_arbitrary_edge_list_text_gives_a_graph_or_value_error(text):
    count = declared_vertex_count(text)
    assume(count is None or count <= 1000)
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    assert g.n == count


# --- the edge-list parser against a per-line reference ----------------------------


def per_line_parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; errors name the 1-indexed input line."""
    lines = [(i, ln.strip()) for i, ln in enumerate(text.splitlines(), 1)]
    lines = [(i, ln) for i, ln in lines if ln and not ln.startswith("#")]
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
    for message in duplicates:  # only once every line has parsed: a rejected input warns of nothing
        warnings.warn(message, DuplicateEdgeWarning, stacklevel=2)
    return Graph(n, tuple(adj))


def parse_outcome(parse, text):
    """The adjacency or the error, and each warning's category, text and reported file."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text).adj
        except ValueError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message), w.filename) for w in caught]


# Mostly pairs of distinct labels 1..5, each in some spelling int() accepts, so that duplicates and
# reversed duplicates are common; a few noise lines go in among them: odd labels, self-loops,
# 3-token lines, single tokens, blank lines and comments.  Line ends are of every kind.
edge_list_pairs = st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda p: p[0] != p[1]).flatmap(
    lambda p: st.tuples(*(st.sampled_from([str(u), f"+{u}", f"0{u}", chr(0x660 + u)]) for u in p),
                        st.sampled_from([" ", "\t", "  "]))
    .map(lambda spelled: spelled[0] + spelled[2] + spelled[1])
)
edge_labels = st.sampled_from(["1", "2", "3", "+1", "01", "-1", "0", "x", "1_0", "\u0663", "7"])
edge_list_noise = st.one_of(
    st.tuples(edge_labels, st.sampled_from([" ", "\x0c", "\x1c"]), edge_labels).map("".join),
    st.tuples(edge_labels, edge_labels, edge_labels).map(" ".join),
    edge_labels,
    st.sampled_from(["3 3", "2 +2", "\u0663 3", "1 x", "x 2", "1 2 #"]),
    st.sampled_from(["", "  ", "\t", "# comment", " # 1 2", "#"]),
)


def edge_list_text(lead, header, pairs, noise, ends):
    lines = lead + [header] + pairs
    for position, line in noise:
        lines.insert(len(lead) + 1 + position % (len(pairs) + 1), line)
    return "".join(line + end for line, end in zip(lines, ends))


edge_list_texts = st.builds(
    edge_list_text,
    st.lists(st.sampled_from(["", "# header"]), max_size=2),
    st.sampled_from(["5", "5", "5", "+5", "05", "\u0665", " 5\t", "3", "0", "1", "-1", "x", "5 5"]),
    st.lists(edge_list_pairs, max_size=14),
    st.lists(st.tuples(st.integers(0, 14), edge_list_noise), max_size=3),
    st.lists(st.sampled_from(["\n", "\r\n", "\r", "\x1c"]), min_size=20, max_size=20),
)


@settings(max_examples=500, deadline=None)
@given(edge_list_texts)
def test_edge_list_parser_matches_the_per_line_reference(text):
    # the same graph or error, and the same warnings in order, reported at this file (stacklevel=2)
    assert parse_outcome(parse_edge_list, text) == parse_outcome(per_line_parse_edge_list, text)


def test_edge_list_reference_comparison_sees_reversed_duplicates():
    text = "# no13\r\n6\r\n\r\n1 2\r\n2 3\r\n3 4\r\n4 5\r\n3 6\r\n2 1\r\n"
    outcome = parse_outcome(parse_edge_list, text)
    assert outcome == parse_outcome(per_line_parse_edge_list, text)
    assert outcome[1] == [(DuplicateEdgeWarning, "line 9: duplicate edge collapsed, got '2 1'", __file__)]


def set_bfs_connected(g):
    seen, todo = {0}, [0]
    while todo:
        u = todo.pop()
        for v in range(g.n):
            if g.adj[u] >> v & 1 and v not in seen:
                seen.add(v)
                todo.append(v)
    return len(seen) == g.n


def sparse_graphs(max_n):
    """Graphs with at most 2n random edges, disconnected ones among them."""
    return st.integers(1, max_n).flatmap(
        lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n).map(
            lambda pairs: from_edges(n, sorted({(min(u, v), max(u, v)) for u, v in pairs if u != v}))
        )
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_graphs(70), graphs))
def test_is_connected_matches_a_set_based_bfs(g):
    assert is_connected(g) == set_bfs_connected(g)


@settings(max_examples=300, deadline=None)
@given(st.one_of(graphs, sparse_graphs(MAX_N)))
def test_middle_rank_stops_at_the_level_max(g):
    assert _middle_rank(g) == max(_level_rank_counts(g, g.n // 2))


# every public function that takes a vertex set, called with the set s and the outcome z on it
VERTEX_SET_CALLS = {
    "purity": lambda g, s, z: purity(g, s),
    "schmidt_rank": lambda g, s, z: schmidt_rank(g, s),
    "concentratable_entanglement": lambda g, s, z: concentratable_entanglement(g, s),
    "ce_report": lambda g, s, z: ce_report(g, s),
    "count_distinct_sets": lambda g, s, z: count_distinct_sets(g, s),
    "count_distinct_sets_fast": lambda g, s, z: count_distinct_sets_fast(g, s),
    "support_multiplicities": lambda g, s, z: support_multiplicities(g, s),
    "unitary_support": unitary_support,
    "traced_generator_set": traced_generator_set,
    "induced_subgraph": lambda g, s, z: induced_subgraph(g, s),
    "dense_purity": lambda g, s, z: dense.dense_purity(dense.build_state(g), s),
    "reduced_density_matrix": lambda g, s, z: dense.reduced_density_matrix(dense.build_state(g), s),
    "outcome_state": dense.outcome_state,
    "check_lemma": lambda g, s, z: dense.check_lemma(g, s),
}


def call_outcome(call, *args):
    """The value of the call, an ndarray as its bytes, or the type and message of the ValueError it raised."""
    try:
        value = call(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return value.tobytes() if isinstance(value, np.ndarray) else value


@st.composite
def vertex_set_spellings(draw):
    """A graph, a member list in any order with repeats (half the time a whole range), and an outcome on its set."""
    g = draw(st.integers(1, 8).flatmap(
        lambda n: st.integers(0, (1 << pair_count(n)) - 1).map(lambda mask: reference_graph(mask, n))))
    if draw(st.booleans()):
        lo = draw(st.integers(0, g.n))
        hi = draw(st.integers(lo, g.n))
        members = draw(st.permutations(list(range(lo, hi)) * draw(st.integers(1, 2))))
    else:
        members = draw(st.lists(st.integers(0, g.n - 1), max_size=2 * g.n))
    unique = sorted(set(members))
    return g, members, draw(st.integers(0, (1 << len(unique)) - 1))


@settings(max_examples=150, deadline=None)
@given(vertex_set_spellings())
def test_every_spelling_of_a_vertex_set_gives_the_same_answer(case):
    g, members, z = case
    unique = sorted(set(members))
    spellings = [lambda: members, lambda: tuple(reversed(members)), lambda: set(members), lambda: (v for v in members)]
    if unique and unique == list(range(unique[0], unique[-1] + 1)):
        spellings.append(lambda: range(unique[0], unique[-1] + 1))
    for name, call in VERTEX_SET_CALLS.items():
        expected = call_outcome(call, g, unique, z)
        for spell in spellings:
            assert call_outcome(call, g, spell(), z) == expected, (name, spell())


@settings(max_examples=60, deadline=None)
@given(graphs.flatmap(lambda g: st.tuples(
    st.just(g), st.lists(st.integers(0, g.n - 1), max_size=g.n),
    st.one_of(st.integers(-(2**70), -1), st.integers(g.n, 2**70)))))
def test_every_vertex_set_function_refuses_a_member_out_of_range(case):
    g, members, bad = case
    for name, call in VERTEX_SET_CALLS.items():
        with pytest.raises(ValueError, match=f"vertex {bad} out of range for n={g.n}"):
            call(g, members + [bad] + members, 0)


# past every numpy width, and past MAX_VERTICES, so that no call starts work on one
INT_EXTREMES = (-(2**70), -(2**63) - 1, -(2**63), -(2**31), -32769, -129, 2**15, 2**16 - 1, 2**31 - 1, 2**32,
                2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70)
INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def around(lo, hi):
    """Ints from a little below lo to a little above hi, or one of the extremes."""
    return st.one_of(st.integers(lo - 3, hi + 3), st.sampled_from(INT_EXTREMES))


def text_refusal(parse, text):
    """The TypeError parse gives for text that is not str, which must end with the type's name, less
    that name; a float's is let through, as the fuzz expects every call to refuse a float."""
    with pytest.raises(TypeError, match=f", not {type(text).__name__}$") as refusal:
        parse(text)
    if isinstance(text, float):
        raise refusal.value
    return str(refusal.value).removesuffix(type(text).__name__)


# every int argument of the public API, as (call of a graph g of up to 70 vertices, a graph `small`
# and the int x; the x to draw for g), so that members and masks pass bit 63 and the work stays small
INT_ARGUMENT_CALLS = {
    "Graph n": (lambda g, small, x: Graph(x, g.adj), lambda g: around(0, g.n)),
    "Graph row": (lambda g, small, x: Graph(2, (x, 1)), lambda g: around(0, 3)),
    "parse_graph6 text": (lambda g, small, x: text_refusal(parse_graph6, x), lambda g: around(0, 3)),
    "parse_edge_list text": (lambda g, small, x: text_refusal(parse_edge_list, x), lambda g: around(0, 3)),
    "family n": (lambda g, small, x: [call_outcome(family, kind, x) for kind in FAMILY_KINDS], lambda g: around(0, 80)),
    "from_edges n": (lambda g, small, x: from_edges(x, [(0, 1)]), lambda g: around(0, 80)),
    "from_edges endpoint": (lambda g, small, x: from_edges(g.n, [(x, g.n - 1)]), lambda g: around(0, g.n)),
    "cut_rank mask": (lambda g, small, x: cut_rank(g, x), lambda g: st.one_of(around(0, 0), st.integers(0, 1 << g.n))),
    "purity member": (lambda g, small, x: purity(g, [x]), lambda g: around(0, g.n)),
    "schmidt_rank member": (lambda g, small, x: schmidt_rank(g, [x]), lambda g: around(0, g.n)),
    "concentratable_entanglement member": (lambda g, small, x: concentratable_entanglement(g, [0, x]),
                                           lambda g: around(0, g.n)),
    "ce_report member": (lambda g, small, x: ce_report(g, [x]), lambda g: around(0, g.n)),
    "count_distinct_sets member": (lambda g, small, x: count_distinct_sets(g, [x]), lambda g: around(0, g.n)),
    "count_distinct_sets_fast member": (lambda g, small, x: count_distinct_sets_fast(g, [x]), lambda g: around(0, g.n)),
    "ce_bounds n": (lambda g, small, x: ce_bounds(x), lambda g: around(0, 80)),
    "snowflake_subset_ce n": (lambda g, small, x: snowflake_subset_ce(x), lambda g: around(0, 80)),
    "rank_index m": (lambda g, small, x: rank_index(small, x), lambda g: around(0, 5)),
    "measure_z qubit": (lambda g, small, x: measure_z(graph_generators(g), x, -1), lambda g: around(0, g.n)),
    "measure_z outcome": (lambda g, small, x: measure_z(graph_generators(g), g.n - 1, x), lambda g: around(-1, 1)),
    "unitary_support z": (lambda g, small, x: unitary_support(g, [0, g.n - 1], x), lambda g: around(0, 3)),
    "unitary_support member": (lambda g, small, x: unitary_support(g, [x], 1), lambda g: around(0, g.n)),
    "traced_generator_set z": (lambda g, small, x: traced_generator_set(g, [0, g.n - 1], x), lambda g: around(0, 3)),
    "traced_generator_set member": (lambda g, small, x: traced_generator_set(g, [x], 1), lambda g: around(0, g.n)),
    "enumerate_connected n": (lambda g, small, x: enumerate_connected(x), lambda g: around(1, 4)),
    "ce_survey n": (lambda g, small, x: ce_survey(x), lambda g: around(1, 4)),
    "max_achievers n": (lambda g, small, x: max_achievers(x), lambda g: around(1, 4)),
    "family_sweep size": (lambda g, small, x: family_sweep("snowflake", [x]), lambda g: around(1, 5)),
}


def int_call_outcome(call, *args):
    """The value of the call and its repr, which shows a numpy int that leaked into it, or its ValueError."""
    try:
        value = call(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return value, repr(value)


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_graphs(70), st.integers(64, 70).map(lambda n: family("ring", n))), graphs, st.data())
def test_int_arguments_take_bools_and_numpy_ints_and_refuse_floats(g, small, data):
    for name, (call, values) in INT_ARGUMENT_CALLS.items():
        x = data.draw(values(g), label=name)
        expected = int_call_outcome(call, g, small, x)
        spellings = [dtype(x) for dtype in INT_DTYPES if np.iinfo(dtype).min <= x <= np.iinfo(dtype).max]
        for spelled in spellings + ([bool(x)] if x in (0, 1) else []):
            assert int_call_outcome(call, g, small, spelled) == expected, (name, repr(spelled))
        for spelled in (float(x), np.float64(x)):
            with pytest.raises(TypeError):
                call(g, small, spelled)
