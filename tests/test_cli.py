"""End-to-end tests of the command-line interface, and of library limits in child processes."""

import io
import json
import sys
import warnings
from contextlib import redirect_stderr
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphce.cli import run
from graphce.graphs import FAMILY_KINDS, DuplicateEdgeWarning, family, parse_edge_list, parse_graph6
from graphce.metrics import concentratable_entanglement, purity

NO13_EDGE_FILE = "6\n1 2\n2 3\n3 4\n4 5\n3 6\n"


@pytest.fixture()
def no13_path(tmp_path):
    path = tmp_path / "no13.txt"
    path.write_text(NO13_EDGE_FILE)
    return str(path)


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_ce_full_set(no13_path):
    code, text = invoke(["ce", "--edges", no13_path])
    assert code == 0
    assert text == "21/32\n"


def test_ce_decimal(no13_path):
    code, text = invoke(["ce", "--edges", no13_path, "--decimal"])
    assert code == 0
    assert text == "0.65625\n"


def test_ce_subset_and_graph6(no13_path):
    code, text = invoke(["ce", "--edges", no13_path, "--subset", "1"])
    assert (code, text) == (0, "1/4\n")
    code, text = invoke(["ce", "--graph6", "EhC_"])
    assert (code, text) == (0, "21/32\n")


def test_plain_ce_needs_no_graph6(capsys):
    code, text = invoke(["ce", "--family", "ring", "--size", "63", "--subset", "1,2"])
    assert (code, text) == (0, "7/16\n")
    for fmt in ("table", "csv", "json-lines"):
        code, text = invoke(["ce", "--family", "ring", "--size", "63", "--subset", "1,2", "--format", fmt])
        assert (code, text) == (2, "")
        assert "graph6 short form supports n <= 62, got 63" in capsys.readouterr().err


def test_ce_table_format(no13_path):
    code, text = invoke(["ce", "--edges", no13_path, "--format", "table"])
    assert code == 0
    assert "ce: 21/32" in text
    assert "achieves_max: False" in text


def test_ce_json_lines(no13_path):
    code, text = invoke(["ce", "--edges", no13_path, "--format", "json-lines"])
    assert code == 0
    row = json.loads(text)
    assert row["ce"] == "21/32"
    assert row["subset"] == "1,2,3,4,5,6"


def test_ce_csv_quotes_subset(no13_path):
    import csv

    code, text = invoke(["ce", "--edges", no13_path, "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 1
    assert rows[0]["subset"] == "1,2,3,4,5,6"
    assert rows[0]["ce"] == "21/32"


def test_purity_subset(no13_path):
    code, text = invoke(["purity", "--edges", no13_path, "--subset", "1,2,5"])
    assert (code, text) == (0, "1/4\n")


def test_purity_cut(no13_path):
    code, text = invoke(["purity", "--edges", no13_path, "--cut", "4,6|1,2,3,5"])
    assert (code, text) == (0, "1/4\n")


def test_purity_requires_one_selector(no13_path):
    code, _ = invoke(["purity", "--edges", no13_path])
    assert code == 2


def test_rank_index_output(no13_path):
    code, text = invoke(["rank-index", "--edges", no13_path])
    assert code == 0
    assert "RI_2 = (12,3)" in text
    assert "RI_3 = (4,4,2)" in text


def test_rank_index_csv(no13_path):
    code, text = invoke(["rank-index", "--edges", no13_path, "--format", "csv"])
    assert (code, text) == (0, "m,schmidt_rank,count\n1,1,6\n2,2,12\n2,1,3\n3,3,4\n3,2,4\n3,1,2\n")


def test_purity_cut_sides_overlap(no13_path, capsys):
    assert invoke(["purity", "--edges", no13_path, "--cut", "1,2|2,3,4,5,6"]) == (2, "")
    assert capsys.readouterr().err == "error: cut sides overlap\n"


def test_spectrum_table(no13_path):
    code, text = invoke(["spectrum", "--edges", no13_path])
    assert code == 0
    assert "m=2: 1/4 x12, 1/2 x3" in text
    assert "m=3: 1/8 x4, 1/4 x4, 1/2 x2" in text


def test_family_star_csv():
    code, text = invoke(["family", "--kind", "star", "--from", "3", "--to", "9", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 8
    for line, n in zip(lines[1:], range(3, 10)):
        fields = line.split(",")
        assert fields[0] == "star"
        assert int(fields[3]) == n
        assert int(fields[4]) == (1 << (n - 1)) - 1  # numerator of 1/2 - 2^-n
        assert int(fields[5]) == n


def test_survey_csv_n4():
    code, text = invoke(["survey", "--n", "4", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 7  # header + 6 classes


def test_survey_table_footer():
    code, text = invoke(["survey", "--n", "3"])
    assert code == 0
    assert "classes: 2" in text
    assert "distinct CE values: 1" in text


@pytest.mark.parametrize("argv, digest", [
    (["survey", "--n", "6"], "11fee796a6c3a1b834a8d9f4abd707ab01d7a3e8c777be1f491cec5a02c8a02a"),
    (["survey", "--n", "7", "--stretch", "--format", "csv"],
     "baad7f31317b89b0351d90ab1a4bc4a694a982fdbb6a22609b2b838bea93c257"),
    (["survey", "--n", "6", "--format", "json-lines"],
     "b1428776f53bdb59fa3f7b1c71391a0f41a6d19ff16cf08ca796bdd68d47ccda"),
    (["family", "--kind", "snowflake", "--from", "1", "--to", "5", "--format", "json-lines"],
     "e1f0a918231a25387a56647aa9d629b3efb0d724676da406ececfddd871df908"),
    (["family", "--kind", "snowflake", "--from", "1", "--to", "5", "--format", "csv"],
     "0eab6cc0d7bdd4791bab13012bfaeccb2f58ff9054dd5c10590a62f39ecac35b"),
], ids=["n6-table", "n7-csv", "n6-json-lines", "snowflake-json-lines", "snowflake-csv"])
def test_survey_stdout_golden(argv, digest):
    import hashlib

    code, text = invoke(argv)
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_survey_stretch_gate():
    code, _ = invoke(["survey", "--n", "7"])
    assert code == 2


def test_byte_identical_reruns(no13_path):
    first = invoke(["survey", "--n", "5", "--format", "csv"])
    second = invoke(["survey", "--n", "5", "--format", "csv"])
    assert first == second
    assert invoke(["spectrum", "--edges", no13_path]) == invoke(["spectrum", "--edges", no13_path])


def test_bad_graph6_names_offset():
    code, _ = invoke(["ce", "--graph6", "E???x"])
    assert code == 2


def test_bad_graph6_message(capsys):
    out = io.StringIO()
    assert run(["ce", "--graph6", "A\x01"], out=out) == 2
    assert "byte offset" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ce", "purity"])
def test_empty_subset_is_a_usage_error(command, capsys):
    assert invoke([command, "--graph6", "Bw", "--subset", ""]) == (2, "")
    assert capsys.readouterr().err == "error: empty qubit subset\n"


def test_subset_out_of_range_names_label(no13_path, capsys):
    out = io.StringIO()
    assert run(["ce", "--edges", no13_path, "--subset", "7"], out=out) == 2
    assert "label 7 out of range" in capsys.readouterr().err


def test_exactly_one_graph_source(no13_path):
    code, _ = invoke(["ce", "--edges", no13_path, "--graph6", "EhC_"])
    assert code == 2
    code, _ = invoke(["ce"])
    assert code == 2


def test_family_requires_size():
    code, _ = invoke(["ce", "--family", "star"])
    assert code == 2


def test_family_graph_source():
    code, text = invoke(["ce", "--family", "star", "--size", "5"])
    assert (code, text) == (0, "15/32\n")


def test_unknown_command_usage_error(capsys):
    code, _ = invoke(["frobnicate"])
    assert code == 2
    assert "graphce: error: argument command: invalid choice: " in capsys.readouterr().err
    assert invoke([]) == (2, "")
    assert capsys.readouterr().err.endswith("graphce: error: the following arguments are required: command\n")


def test_verify_fixed_seed():
    code, text = invoke(["verify", "--seed", "7", "--trials", "4"])
    assert code == 0
    assert "verify seed: 7" in text
    assert "verify: PASS" in text
    assert text.count("ok") == 4


def test_verify_deterministic_apart_from_timing():
    import re

    def strip_times(s):
        return re.sub(r"\(\d+\.\d+s\)", "", s)

    a = invoke(["verify", "--seed", "11", "--trials", "3"])
    b = invoke(["verify", "--seed", "11", "--trials", "3"])
    assert a[0] == b[0] == 0
    assert strip_times(a[1]) == strip_times(b[1])


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_rejects_nonpositive_trials(trials, capsys):
    code, text = invoke(["verify", "--seed", "7", "--trials", trials])
    assert code == 2
    assert text == ""
    assert f"--trials must be at least 1, got {trials}" in capsys.readouterr().err


def hide_dense(monkeypatch):
    """Make verify's `from . import dense` import the module afresh: an earlier import leaves it on the package."""
    import graphce

    monkeypatch.delattr(graphce, "dense", raising=False)
    monkeypatch.delitem(sys.modules, "graphce.dense", raising=False)


def test_verify_without_numpy_is_a_one_line_usage_error(monkeypatch, capsys):
    monkeypatch.setitem(sys.modules, "numpy", None)
    hide_dense(monkeypatch)
    assert invoke(["verify", "--seed", "7", "--trials", "1"]) == (2, "")
    assert capsys.readouterr().err == "error: verify needs numpy\n"


def test_verify_lets_any_other_missing_module_through(monkeypatch):
    hide_dense(monkeypatch)
    monkeypatch.setitem(sys.modules, "graphce.dense", None)
    with pytest.raises(ModuleNotFoundError) as caught:
        invoke(["verify", "--seed", "7", "--trials", "1"])
    assert caught.value.name == "graphce.dense"


def test_edge_list_error_names_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3\n1 2\n1 x\n")
    code, _ = invoke(["ce", "--edges", str(path)])
    assert code == 2
    assert "line 3: vertex labels must be integers, got '1 x'" in capsys.readouterr().err


def test_edge_list_with_a_byte_order_mark(tmp_path, no13_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf" + NO13_EDGE_FILE.replace("\n", "\r\n").encode())
    assert invoke(["ce", "--edges", str(path), "--subset", "1"]) == (0, "1/4\n")
    assert invoke(["spectrum", "--edges", str(path)]) == invoke(["spectrum", "--edges", no13_path])


@pytest.mark.parametrize("graph6", ["@", "?"])
def test_rank_index_needs_two_qubits(graph6, capsys):
    code, text = invoke(["rank-index", "--graph6", graph6])
    assert (code, text) == (2, "")
    assert f"rank-index needs at least 2 qubits, got {ord(graph6) - 63}" in capsys.readouterr().err


def test_spectrum_of_the_empty_graph():
    # exited 2 when every metric asked whether the graph was connected
    assert invoke(["spectrum", "--graph6", "?"]) == (0, "m=0: 1 x1\n")


@pytest.mark.parametrize("command", ["ce", "spectrum"])
def test_work_budget_refuses_large_sweeps(command, capsys):
    code, text = invoke([command, "--family", "star", "--size", "40"])
    assert (code, text) == (2, "")
    err = capsys.readouterr().err
    work, budget = {"ce": ("visit 2^40 stabilizer elements", 26), "spectrum": ("rank 2^39 cuts", 22)}[command]
    assert f"{command} would {work}, over the budget of 2^{budget}" in err
    assert "--no-budget" in err


def test_work_budget_allows_small_sweeps():
    # the largest benchmark walk: 2^16 stabilizer elements at n = 16
    assert invoke(["ce", "--family", "star", "--size", "16"]) == (0, "32767/65536\n")
    assert invoke(["spectrum", "--family", "ring", "--size", "16", "--format", "csv"])[0] == 0
    # a subset of s qubits visits at most 2^|s| stabilizer elements however large the graph
    assert invoke(["ce", "--family", "star", "--size", "40", "--subset", "1,2"]) == (0, "3/8\n")


def test_no_budget_opts_in(monkeypatch, capsys):
    monkeypatch.setattr("graphce.cli.CE_BUDGET_LOG2", 4)
    monkeypatch.setattr("graphce.cli.CUT_BUDGET_LOG2", 4)
    assert invoke(["ce", "--family", "star", "--size", "6"])[0] == 2
    assert "ce would visit 2^6 stabilizer elements, over the budget of 2^4" in capsys.readouterr().err
    assert invoke(["ce", "--family", "star", "--size", "6", "--no-budget"]) == (0, "31/64\n")
    assert invoke(["ce", "--family", "star", "--size", "6", "--subset", "1,2,3,4"]) == (0, "15/32\n")
    # five qubits with one neighbour outside: the kernel visits 2^(5 - 1) elements, within the budget
    assert invoke(["ce", "--family", "star", "--size", "6", "--subset", "1,2,3,4,5"]) == (0, "31/64\n")
    assert invoke(["spectrum", "--family", "star", "--size", "6"])[0] == 2
    assert invoke(["spectrum", "--family", "star", "--size", "6", "--no-budget"])[0] == 0


def test_subset_budget_charges_the_elements_the_kernel_visits(capsys):
    # 2^(|s| - cut_rank(s)): the 30 odd qubits of a 100-ring have cut rank 30, so only the
    # identity is supported inside them and CE = 1 - (3/4)^30
    odd = ",".join(str(label) for label in range(1, 60, 2))
    assert invoke(["ce", "--family", "ring", "--size", "100", "--subset", odd]) == (
        0, "1152715613474752327/1152921504606846976\n")
    # 30 qubits of K_40 have cut rank 1
    first30 = ",".join(str(label) for label in range(1, 31))
    assert invoke(["ce", "--family", "complete", "--size", "40", "--subset", first30]) == (2, "")
    assert "ce would visit 2^29 stabilizer elements, over the budget of 2^26" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["plain", "csv"])
def test_repeated_subset_labels_count_once(fmt, monkeypatch):
    import csv

    # the subset is its set of qubits: the same bytes as without the repeats, and |s| = 2
    # charged against the budget, 2^(2 - 1) elements on K_40
    monkeypatch.setattr("graphce.cli.CE_BUDGET_LOG2", 1)
    for source in (["--graph6", "EhC_"], ["--family", "complete", "--size", "40"]):
        argv = ["ce", *source, "--format", fmt, "--subset"]
        code, text = invoke(argv + ["3,1,3"])
        assert (code, text) == invoke(argv + ["1,3"])
        assert code == 0
        if fmt == "csv":
            assert next(csv.DictReader(text.splitlines()))["subset"] == "1,3"
    assert invoke(["ce", "--family", "complete", "--size", "40", "--subset", "1,2,3"])[0] == 2


@pytest.mark.parametrize("family, size, ce", [
    ("ring", 21, "2072675/2097152"),
    ("ring", 24, "16673533/16777216"),
    ("linear", 24, "16655823/16777216"),
])
def test_ce_goldens_across_the_chunk_boundary(family, size, ce):
    # more than 2^20 stabilizer elements: the CE kernel walks 2^(n - 20) chunks, within the budget
    assert invoke(["ce", "--family", family, "--size", str(size)]) == (0, ce + "\n")


def test_family_budget_counts_the_largest_member(monkeypatch, capsys):
    monkeypatch.setattr("graphce.cli.CE_BUDGET_LOG2", 4)
    assert invoke(["family", "--kind", "star", "--from", "3", "--to", "4"])[0] == 0
    assert invoke(["family", "--kind", "star", "--from", "3", "--to", "5"]) == (2, "")
    assert invoke(["family", "--kind", "snowflake", "--from", "1", "--to", "2"])[0] == 0
    assert invoke(["family", "--kind", "snowflake", "--from", "1", "--to", "3"]) == (2, "")
    err = capsys.readouterr().err
    assert "family would visit 2^5 stabilizer elements for star(5), over the budget of 2^4" in err
    assert "family would visit 2^6 stabilizer elements for snowflake(3), over the budget of 2^4" in err
    assert "--no-budget" not in err


def run_python(args, memory_mb=None):
    """`python ARGS` against this graphce in a child process, killed after 60 s; with
    `memory_mb`, its address space is capped at that size."""
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import graphce

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (memory_mb << 20, memory_mb << 20))

    env = {**os.environ, "PYTHONPATH": str(Path(graphce.__file__).parents[1])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
                          preexec_fn=cap if memory_mb else None)


def run_module(argv, memory_mb=None):
    """`python -m graphce ARGV` in a child process, killed after 60 s."""
    return run_python(["-m", "graphce", *argv], memory_mb)


def test_console_warnings_are_one_line_and_run_leaves_them_alone(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("3\n1 2\n2 1\n")
    done = run_module(["ce", "--edges", str(path)])
    # no install path or source line, and no word on the isolated vertex
    assert (done.returncode, done.stdout, done.stderr) == (0, "1/4\n", "warning: line 3: duplicate edge collapsed, got '2 1'\n")
    formatwarning = warnings.formatwarning
    with pytest.warns(DuplicateEdgeWarning):
        assert invoke(["ce", "--edges", str(path)]) == (0, "1/4\n")
    assert warnings.formatwarning is formatwarning


def test_python_dash_m_runs_the_cli():
    done = run_module(["ce", "--graph6", "EhC_"])
    assert (done.returncode, done.stdout, done.stderr) == (0, "21/32\n", "")


def test_rank_index_work_budget_refuses_large_sweeps():
    # in a child process, so that a missing guard fails by timeout instead of hanging
    for extra, log2 in (([], 39), (["--m", "10"], 30)):
        done = run_module(["rank-index", "--family", "star", "--size", "40", *extra])
        assert (done.returncode, done.stdout) == (2, "")
        assert f"rank-index would rank 2^{log2} cuts, over the budget of 2^22" in done.stderr
        assert "--no-budget" in done.stderr


def test_rank_index_budget_charges_the_halved_middle_level(monkeypatch, no13_path):
    # m = n/2 ranks each unordered bipartition once: C(26, 13) / 2 = 5,200,300 cuts, and C(6, 3) / 2 = 10
    done = run_module(["rank-index", "--family", "star", "--size", "26", "--m", "13"])
    assert (done.returncode, done.stdout) == (2, "")
    assert "rank-index would rank 2^23 cuts, over the budget of 2^22" in done.stderr
    monkeypatch.setattr("graphce.cli.CUT_BUDGET_LOG2", 4)
    assert invoke(["rank-index", "--edges", no13_path, "--m", "3"]) == (0, "RI_3 = (4,4,2)\n")


@pytest.mark.parametrize("fmt", ["csv", "table", "json-lines"])
def test_ce_report_refuses_graph6_before_the_kernel_runs(fmt):
    # in a child process: the full set of ring 63 would visit 2^63 elements before the graph6 check
    done = run_module(["ce", "--family", "ring", "--size", "63", "--format", fmt, "--no-budget"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error: graph6 short form supports n <= 62, got 63\n"


def test_family_work_budget_refuses_large_members():
    # in a child process, so that a missing guard fails by timeout instead of hanging
    done = run_module(["family", "--kind", "star", "--from", "30", "--to", "30"])
    assert (done.returncode, done.stdout) == (2, "")
    assert "family would visit 2^30 stabilizer elements for star(30), over the budget of 2^26" in done.stderr
    assert "--no-budget" not in done.stderr


def test_family_budget_counts_the_middle_level_cuts(monkeypatch, capsys):
    # each record ranks its middle level: C(4, 2) / 2 = 3, C(5, 2) = 10 and C(6, 3) / 2 = 10 cuts
    monkeypatch.setattr("graphce.cli.CUT_BUDGET_LOG2", 3)
    assert invoke(["family", "--kind", "star", "--from", "3", "--to", "4"])[0] == 0
    assert invoke(["family", "--kind", "star", "--from", "3", "--to", "5"]) == (2, "")
    assert invoke(["family", "--kind", "snowflake", "--from", "1", "--to", "3"]) == (2, "")
    err = capsys.readouterr().err
    assert "family would rank 2^4 cuts for star(5), over the budget of 2^3" in err
    assert "family would rank 2^4 cuts for snowflake(3), over the budget of 2^3" in err


def test_vertex_count_cap_is_a_usage_error(tmp_path):
    # in a child process with capped memory, so that a missing cap fails instead of building a million rows
    done = run_module(["ce", "--family", "ring", "--size", "1000000"], memory_mb=512)
    assert (done.returncode, done.stdout) == (2, "")
    assert "ring(1000000) exceeds the limit of 4096 vertices" in done.stderr
    path = tmp_path / "big.txt"
    path.write_text("1000000\n")
    done = run_module(["spectrum", "--edges", str(path)], memory_mb=512)
    assert (done.returncode, done.stdout) == (2, "")
    assert "line 1: vertex count 1000000 exceeds the limit of 4096" in done.stderr


def test_library_vertex_count_cap_comes_before_any_work():
    # in a child process with capped memory, so that a missing cap fails instead of building a million rows
    done = run_python(["-c", (
        "from graphce.graphs import Graph, family, from_edges, parse_edge_list\n"
        "for build in (lambda: parse_edge_list('# big\\n1000000\\n'), lambda: family('ring', 10**6),\n"
        "              lambda: family('snowflake', 2049), lambda: Graph(4097, (0,) * 4097),\n"
        "              lambda: from_edges(10**8, [])):\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )], memory_mb=512)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "line 2: vertex count 1000000 exceeds the limit of 4096",
        "ring(1000000) exceeds the limit of 4096 vertices",
        "snowflake(2049) exceeds the limit of 4096 vertices",
        "vertex count 4097 exceeds the limit of 4096",
        "vertex count 100000000 exceeds the limit of 4096",
    ]


def test_all_lists_exactly_the_public_names():
    import types

    import graphce

    public = {name for name, value in vars(graphce).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(graphce.__all__)) == len(graphce.__all__)
    assert set(graphce.__all__) - {"__version__"} == public


def test_numpy_loads_only_for_the_dense_oracle():
    done = run_python(["-c", "import sys, graphce, graphce.cli; print('numpy' in sys.modules)"])
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_rank_index_work_budget_allows_no13(monkeypatch, no13_path, capsys):
    # C(6, 2) = 15 cuts fit a budget of 2^4, all m (2^5) do not
    assert invoke(["rank-index", "--family", "star", "--size", "40", "--m", "2"]) == (0, "RI_2 = (0,780)\n")
    monkeypatch.setattr("graphce.cli.CUT_BUDGET_LOG2", 4)
    assert invoke(["rank-index", "--edges", no13_path, "--m", "2"]) == (0, "RI_2 = (12,3)\n")
    assert invoke(["rank-index", "--edges", no13_path])[0] == 2
    assert "rank-index would rank 2^5 cuts, over the budget of 2^4" in capsys.readouterr().err
    code, text = invoke(["rank-index", "--edges", no13_path, "--no-budget"])
    assert (code, text) == (0, "RI_1 = (6)\nRI_2 = (12,3)\nRI_3 = (4,4,2)\n")


def test_failing_verify_names_its_case(monkeypatch, capsys):
    import re

    from graphce import dense

    real = dense.check_lemma
    seen = []

    def fails_third_case(graph, a_set):
        seen.append((graph, a_set))
        return real(graph, a_set) and len(seen) != 3

    monkeypatch.setattr(dense, "check_lemma", fails_third_case)
    code, text = invoke(["verify", "--seed", "5", "--trials", "4"])
    assert code == 1
    assert re.sub(r" \(\d+\.\d+s\)", "", text).splitlines()[3:] == ["lemma checks: 3/4 FAIL",
                                                                    "purity oracle equivalence: 4/4 ok", "verify: FAIL"]
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    match = re.fullmatch(r"lemma checks failed: seed 5, graph6 (\S+), A=\{([\d,]+)\}", err[0])
    graph, a_set = seen[2]
    assert parse_graph6(match[1]) == graph
    assert [int(q) - 1 for q in match[2].split(",")] == list(a_set)


VERIFY_GOLDENS = {
    ("5", "10"): "verify seed: 5\n"
                 "stabilizer eigenstate checks: 10/10 ok\n"
                 "measurement rule checks: 10/10 ok\n"
                 "lemma checks: 10/10 ok\n"
                 "purity oracle equivalence: 10/10 ok\n"
                 "verify: PASS\n",
    ("238", "25"): "verify seed: 238\n"
                   "stabilizer eigenstate checks: 25/25 ok\n"
                   "measurement rule checks: 25/25 ok\n"
                   "lemma checks: 25/25 ok\n"
                   "purity oracle equivalence: 25/25 ok\n"
                   "verify: PASS\n",
}


@pytest.mark.parametrize("seed,trials", sorted(VERIFY_GOLDENS))
def test_verify_stdout_golden(seed, trials):
    import re

    code, text = invoke(["verify", "--seed", seed, "--trials", trials])
    assert (code, re.sub(r" \(\d+\.\d+s\)", "", text)) == (0, VERIFY_GOLDENS[seed, trials])


# For each command: a valid call, -h, a bad choice (or, without choices, a bad
# handler value), a missing required option (or graph source), a non-integer
# int, and a trailing unrecognized argument.
PARSER_ARGVS = {
    "ce": [["--graph6", "EhC_"], ["-h"], ["--graph6", "EhC_", "--format", "xml"], [],
           ["--family", "ring", "--size", "x"], ["--graph6", "EhC_", "extra"]],
    "purity": [["--graph6", "EhC_", "--subset", "1"], ["-h"], ["--family", "blob", "--size", "3"], ["--graph6", "EhC_"],
               ["--family", "ring", "--size", "1.5", "--subset", "1"], ["--graph6", "EhC_", "--subset", "1", "extra"]],
    "rank-index": [["--graph6", "EhC_"], ["-h"], ["--graph6", "EhC_", "--format", "xml"], ["--m", "2"],
                   ["--graph6", "EhC_", "--m", "two"], ["--graph6", "EhC_", "extra"]],
    "spectrum": [["--graph6", "EhC_"], ["-h"], ["--graph6", "EhC_", "--format", "json-lines"], ["--format", "csv"],
                 ["--family", "ring", "--size", "six"], ["--graph6", "EhC_", "extra"]],
    "survey": [["--n", "4"], ["-h"], ["--n", "4", "--format", "xml"], ["--format", "csv"], ["--n", "four"],
               ["--n", "4", "extra"]],
    "family": [["--kind", "ring", "--from", "3", "--to", "5"], ["-h"], ["--kind", "blob", "--from", "3", "--to", "5"],
               ["--kind", "ring", "--from", "3"], ["--kind", "ring", "--from", "3", "--to", "x"],
               ["--kind", "ring", "--from", "3", "--to", "5", "extra"]],
    "verify": [["--seed", "3", "--trials", "2"], ["-h"], ["--trials", "0"], ["--seed"], ["--seed", "x"],
               ["--seed", "3", "--trials", "2", "extra"]],
}
TOP_LEVEL_ARGVS = [[], ["-h"], ["frobnicate"], ["--", "ce"]]


# Prefixes, "=" values, "--", a misplaced -h, a near-miss command name and an unknown option
EDGE_ARGVS = [["ce", "--h"], ["ce", "--gra", "EhC_"], ["ce", "--graph6=EhC_"], ["ce", "--", "--graph6"], ["-h", "ce"],
              ["ce", "-h", "extra"], ["cE"], ["c"], ["ce", "--graph6", "EhC_", "--bogus"]]
ALL_ARGVS = ([[command, *args] for command, argvs in PARSER_ARGVS.items() for args in argvs]
             + TOP_LEVEL_ARGVS + EDGE_ARGVS)


def full_tree_run(argv, out):
    """run(argv)'s exit code if it parsed with build_parser().parse_args(argv) and argparse's own formatter."""
    import argparse
    import sys

    from graphce import cli

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_help_formatter", lambda: argparse.HelpFormatter)
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
    try:
        return cli.COMMANDS[args.command][2](args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return cli.USAGE_ERROR


def without_times(text):
    import re

    return re.sub(r" \(\d+\.\d+s\)", "", text)


@pytest.mark.parametrize("argv", ALL_ARGVS, ids=" ".join)
def test_one_subparser_parses_like_the_full_tree(argv, monkeypatch, capsys):
    import sys

    for columns in ("30", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        code = run(argv)
        captured = capsys.readouterr()
        got = code, without_times(captured.out), captured.err
        code = full_tree_run(argv, sys.stdout)
        captured = capsys.readouterr()
        assert got == (code, without_times(captured.out), captured.err), columns


def test_run_builds_only_the_named_subparser(monkeypatch):
    import argparse
    import shutil

    from graphce import cli

    def choices(parser):
        return [*next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices]

    assert choices(cli.build_parser()) == list(cli.COMMANDS)
    assert len(cli.COMMANDS) == 7
    built, asked = [], []
    build, size = cli.build_parser, shutil.get_terminal_size
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: asked.append(1) or size(*a))
    assert invoke(["ce", "--graph6", "EhC_"]) == (0, "21/32\n")
    assert (len(built), len(asked)) == (0, 1)
    invoke(["ce", "--graph6", "EhC_", "extra"])  # the leftover goes to the full tree, which asks once more
    invoke(["--", "ce"])
    assert (len(built), len(asked)) == (2, 4)


# A small argv grammar: every command, every graph source, and label, cut and integer
# values that are empty, duplicated, out of range, non-ASCII or padded.
def fuzz_values(valid, *odd_kinds):
    """A valid value half the time, so that exit 0 is common; else a value of one odd kind."""
    odd = st.sampled_from(odd_kinds).flatmap(st.sampled_from)
    return st.booleans().flatmap(lambda ok: st.sampled_from(valid) if ok else odd)


FUZZ_LABELS = fuzz_values(("1", "2", "3", "1,3", "2,1", "1,2,3"), ("", ",", " "), ("1,1", "2,1,2"),
                          ("0", "4", "7", "-1", "99999999999999999999"), ("\u00b2", "\u0663", "\u00e9"),
                          (" 2 , 3 ", "1\u00a0", "\t1\n", "1 2"))
FUZZ_CUTS = fuzz_values(("1|2", "2|1", "1|2,3", "1,3|2", "4,6|1,2,3,5"), ("|", "1|", "1||2"), ("1,1|2,3", "1|1,2"),
                        ("1|2,7", "0|1,2"), ("\u00e9|1", "\u0661|2"), (" 1 | 2 ", "1|2\n"))
FUZZ_INTS = fuzz_values(("1", "2", "3", "4", "6"), ("",), ("0", "-1", "4097", "99999999999999999999"),
                        ("x", "1e3", "\u0663"), (" 3", "3\n"))
# verify always gets both options: a missing --seed draws a random one and a missing
# --trials runs the default 25, so every drawn verify stays deterministic and at most 10 trials
FUZZ_SEEDS = fuzz_values(("1", "7", "238"), ("",), ("-3", "123456789012345678901234567890"), ("\u0663",),
                         (" 7", "7\n", "x"))
FUZZ_TRIALS = fuzz_values(("1", "2"), ("",), ("-1", "0"), ("1_0",), ("x", "2.5"))
FUZZ_FORMATS = fuzz_values(("plain", "table", "csv", "json-lines"), ("",), ("xml", "CSV"))
FUZZ_KINDS = fuzz_values(FAMILY_KINDS, ("",), ("tree", "Ring"))
FUZZ_GRAPH6 = fuzz_values(("Bw", "EhC_", "A_", "@", "B?"), ("", "?"), ("E", "~", "C~"), ("\u00e9",), (" Bw", "Bw\n"))
FUZZ_EDGE_FILES = {  # written by the fuzz_dir fixture; the first five parse, missing.txt and "." are not files
    "no13.txt": NO13_EDGE_FILE,
    "bom.txt": "\ufeff3\r\n1 2\r\n2 3\r\n",
    "repeat.txt": "2\n1 2\n2 1\n",
    "split.txt": "4\n1 2\n",
    "\u00e9.txt": "2\n1 2\n",
    "empty.txt": "",
    "loop.txt": "2\n1 1\n",
    "range.txt": "3\n1 4\n",
    "word.txt": "x\n",
}
FUZZ_EDGES = fuzz_values([*FUZZ_EDGE_FILES][:5], [*FUZZ_EDGE_FILES][5:], ("latin1.txt", "missing.txt", "."))
FUZZ_SOURCES = st.one_of(
    st.tuples(st.just("--graph6"), FUZZ_GRAPH6),
    st.tuples(st.just("--edges"), FUZZ_EDGES),
    st.tuples(st.just("--family"), FUZZ_KINDS, st.just("--size"), FUZZ_INTS),
)
# each command's required options, always drawn, then up to three more of any of its options
FUZZ_REQUIRED = {"purity": (("--subset", "--cut"),), "survey": (("--n",),),
                 "family": (("--kind",), ("--from",), ("--to",)), "verify": (("--seed",), ("--trials",))}
FUZZ_OPTIONS = {
    "ce": {"--subset": FUZZ_LABELS, "--format": FUZZ_FORMATS, "--decimal": None},
    "purity": {"--subset": FUZZ_LABELS, "--cut": FUZZ_CUTS, "--decimal": None},
    "rank-index": {"--m": FUZZ_INTS, "--format": FUZZ_FORMATS},
    "spectrum": {"--format": FUZZ_FORMATS, "--decimal": None},
    "survey": {"--n": FUZZ_INTS, "--stretch": None, "--format": FUZZ_FORMATS, "--decimal": None},
    "family": {"--kind": FUZZ_KINDS, "--from": FUZZ_INTS, "--to": FUZZ_INTS, "--format": FUZZ_FORMATS,
               "--decimal": None},
    "verify": {"--seed": FUZZ_SEEDS, "--trials": FUZZ_TRIALS},
}


@st.composite
def fuzz_argvs(draw):
    command = draw(st.sampled_from(list(FUZZ_OPTIONS)))
    argv = [command]
    if command not in ("survey", "family", "verify"):
        for _ in range({8: 0, 9: 2}.get(draw(st.integers(0, 9)), 1)):  # mostly the one source required
            argv += draw(FUZZ_SOURCES)
    options = FUZZ_OPTIONS[command]
    flags = [draw(st.sampled_from(choice)) for choice in FUZZ_REQUIRED.get(command, ())]
    for flag in flags + draw(st.lists(st.sampled_from(list(options)), max_size=3)):
        argv += [flag] if options[flag] is None else [flag, draw(options[flag])]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_EDGE_FILES.items():
        (folder / name).write_text(text, encoding="utf-8")
    (folder / "latin1.txt").write_bytes(b"2\n1 2 \xe9\n")
    return folder


def fuzz_options(argv):
    """Each option's last value, as argparse keeps it; None for a flag."""
    opts = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            opts[token] = argv[i + 1] if i + 1 < len(argv) and not argv[i + 1].startswith("--") else None
    return opts


def fuzz_library_value(argv):
    """The value plain `ce`/`purity` should print, from the library."""
    opts = fuzz_options(argv)
    if "--graph6" in opts:
        graph = parse_graph6(opts["--graph6"])
    elif "--edges" in opts:
        with open(opts["--edges"], encoding="utf-8-sig") as fh:
            graph = parse_edge_list(fh.read())
    else:
        graph = family(opts["--family"], int(opts["--size"]))
    text = opts.get("--subset") if "--cut" not in opts else opts["--cut"].split("|")[1]
    members = None if text is None else {int(label) - 1 for label in text.split(",") if label.strip()}
    if argv[0] == "purity":
        return purity(graph, members)
    return concentratable_entanglement(graph, range(graph.n) if members is None else members)


@settings(max_examples=500, deadline=None)
@given(fuzz_argvs())
@example(["purity", "--graph6", "Bw", "--subset", ""])  # crashed with AttributeError before exit 2
@example(["ce", "--graph6", "Bw", "--subset", ""])  # printed the full-set CE before exit 2
def test_cli_fuzz_exits_0_or_2_and_prints_the_library_value(fuzz_dir, argv):
    argv = [str(fuzz_dir / a) if flag == "--edges" else a for flag, a in zip(["", *argv], argv)]
    plain = argv[0] == "purity" or (argv[0] == "ce" and fuzz_options(argv).get("--format", "plain") == "plain")
    out, err = io.StringIO(), io.StringIO()
    tree_out, tree_err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("ignore")
        code = run(argv, out=out)
        expected = fuzz_library_value(argv) if code == 0 and plain else None
        with redirect_stderr(tree_err):
            tree_code = full_tree_run(argv, tree_out)
    assert (code, without_times(out.getvalue()), err.getvalue()) == (
        tree_code, without_times(tree_out.getvalue()), tree_err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code == 0 or (code == 2 and err.getvalue().startswith(("error:", "usage:"))), (code, err.getvalue())
    if expected is not None:
        assert Fraction(out.getvalue()) == expected
    if argv[0] == "verify" and code == 0:
        assert out.getvalue().endswith("verify: PASS\n")
