"""Command-line interface: exact CE/purity queries, surveys, and oracle verification.

Qubit labels on the command line and in files are 1-indexed.  Rational
results print as reduced fractions like "21/32"; --decimal switches to the
exact terminating decimal expansion.  This is the only module that knows an
output format.  Every csv and json-lines row, and the survey's padded table,
come from `_emit_rows`; plain values and the ce, rank-index, spectrum and
family tables are written line by line by their commands.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
import warnings
from fractions import Fraction
from typing import Callable, Sequence

from . import survey
from .graphs import (
    FAMILY_KINDS,
    Graph,
    _members,
    family,
    parse_edge_list,
    parse_graph6,
    random_connected_graph,
    write_graph6,
)
from .metrics import (
    _ce,
    _cut_count,
    _visit_log2,
    ce_report,
    purity,
    purity_spectrum,
    rank_index,
)

USAGE_ERROR = 2
VERIFY_FAILURE = 1
CUT_BUDGET_LOG2 = 22  # cut-ranks: spectrum, rank-index and the middle level of family records
CE_BUDGET_LOG2 = 26  # stabilizer elements counted by the CE kernel: ce and family
_RANK = "rank 2^{} cuts"
_VISIT = "visit 2^{} stabilizer elements"


class UsageError(ValueError):
    pass


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph6", metavar="STR", help="graph6 string")
    parser.add_argument("--edges", metavar="PATH", help="edge-list file: first line n, then 1-indexed 'u v' lines")
    parser.add_argument("--family", choices=FAMILY_KINDS, help="named family (needs --size)")
    parser.add_argument("--size", type=int, metavar="N", help="family size parameter")


def _load_graph(args: argparse.Namespace) -> Graph:
    sources = [s for s in (args.graph6, args.edges, args.family) if s is not None]
    if len(sources) != 1:
        raise UsageError("exactly one graph source required: --graph6, --edges, or --family/--size")
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.edges is not None:
        with open(args.edges, encoding="utf-8-sig") as fh:
            return parse_edge_list(fh.read())
    if args.size is None:
        raise UsageError("--family requires --size")
    return family(args.family, args.size)


def _parse_labels(text: str, n: int) -> int:
    """The vertex mask of comma-separated 1-indexed labels; repeats collapse."""
    mask = 0
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            label = int(part)
        except ValueError:
            raise UsageError(f"bad qubit label {part!r}") from None
        if not 1 <= label <= n:
            raise UsageError(f"qubit label {label} out of range 1..{n}")
        mask |= 1 << (label - 1)
    if not mask:
        raise UsageError("empty qubit subset")
    return mask


def _parse_cut(text: str, n: int) -> int:
    if text.count("|") != 1:
        raise UsageError("--cut expects the form \"A|B\", e.g. \"4,6|1,2,3,5\"")
    left, right = text.split("|")
    a_mask = _parse_labels(left, n)
    b_mask = _parse_labels(right, n)
    if a_mask & b_mask:
        raise UsageError("cut sides overlap")
    if (a_mask | b_mask) != (1 << n) - 1:
        raise UsageError(f"cut sides must partition all {n} qubits")
    return b_mask


def _check_budget(args: argparse.Namespace, log2: int, budget_log2: int, work: str) -> None:
    """Exit 2, before any work, if `work`, with log2 put in its "{}", is over 2^budget_log2."""
    if log2 > budget_log2 and not getattr(args, "no_budget", False):
        hint = "; pass --no-budget to run it anyway" if "no_budget" in args else ""
        raise UsageError(f"{args.command} would {work.format(log2)}, over the budget of 2^{budget_log2}{hint}")


def _log2_den(value: Fraction) -> int:
    return value.denominator.bit_length() - 1


def _fmt(value: Fraction, decimal: bool) -> str:
    """The value as "21/32" or, with `decimal`, as its exact expansion "0.65625" (num/2^q = num*5^q/10^q)."""
    if not decimal:
        return str(value)
    q = _log2_den(value)
    digits = str(value.numerator * 5**q).rjust(q + 1, "0")
    return f"{digits[:-q]}.{digits[-q:]}" if q else digits


def _labels_1idx(members) -> str:
    return ",".join(str(q + 1) for q in members)


SURVEY_FIELDS = ("graph6", "n", "ce_num", "ce_log2_den", "achieves_min", "achieves_max", "distinct_purities")
FAMILY_FIELDS = ("family", "size") + SURVEY_FIELDS + ("core_ce_num", "core_ce_log2_den")
SURVEY_TABLE_FIELDS = ("graph6", "ce", "distinct_purities", "achieves_min", "achieves_max")


def _record_row(rec: survey.SurveyRecord, fields: Sequence[str], decimal: bool) -> dict[str, object]:
    """The named fields of a survey or family record, in the order given."""
    core = rec.core_subset_ce
    row = {
        "family": rec.kind,
        "size": rec.size,
        "graph6": rec.graph6,
        "n": rec.n,
        "ce": _fmt(rec.ce, decimal),
        "ce_num": rec.ce.numerator,
        "ce_log2_den": _log2_den(rec.ce),
        "achieves_min": rec.achieves_min,
        "achieves_max": rec.achieves_max,
        "distinct_purities": rec.distinct_purities,
        "core_ce_num": "" if core is None else core.numerator,
        "core_ce_log2_den": "" if core is None else _log2_den(core),
    }
    return {f: row[f] for f in fields}


def _csv_cell(value: object) -> str:
    """One CSV cell: booleans as true/false, text quoted when it holds a comma or a quote."""
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _emit_rows(fields: Sequence[str], rows: list[dict[str, object]], fmt: str, out) -> None:
    """Write rows, each keyed by `fields` in order, as csv (with a header), json-lines or a padded table."""
    if fmt == "csv":
        lines = [fields, *(row.values() for row in rows)]
        out.write("".join(",".join(map(_csv_cell, cells)) + "\n" for cells in lines))
    elif fmt == "json-lines":
        out.write("".join(json.dumps(row) + "\n" for row in rows))
    else:
        widths = [max(len(f), *(len(str(row[f])) for row in rows)) if rows else len(f) for f in fields]
        out.write("  ".join(f.ljust(w) for f, w in zip(fields, widths)) + "\n")
        for row in rows:
            out.write("  ".join(str(v).ljust(w) for v, w in zip(row.values(), widths)) + "\n")


def _cmd_ce(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    s = _parse_labels(args.subset, graph.n) if args.subset is not None else (1 << graph.n) - 1
    _check_budget(args, _visit_log2(graph, s), CE_BUDGET_LOG2, _VISIT)
    if args.format == "plain":  # the other formats carry graph6, which caps n at 62
        out.write(_fmt(_ce(graph, s), args.decimal) + "\n")
        return 0
    report = ce_report(graph, _members(s))
    row = {
        "graph6": report.graph6,
        "n": report.n,
        "subset": _labels_1idx(report.subset),
        "ce": _fmt(report.ce, args.decimal),
        "bound_min": _fmt(report.bound_min, args.decimal),
        "bound_max": _fmt(report.bound_max, args.decimal),
        "connected": report.connected,
        "achieves_min": report.achieves_min,
        "achieves_max": report.achieves_max,
    }
    if args.format == "table":
        for key, value in row.items():
            out.write(f"{key}: {value}\n")
    else:
        _emit_rows(list(row.keys()), [row], args.format, out)
    return 0


def _cmd_purity(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    if (args.subset is None) == (args.cut is None):
        raise UsageError("purity needs exactly one of --subset or --cut")
    b_mask = _parse_labels(args.subset, graph.n) if args.subset is not None else _parse_cut(args.cut, graph.n)
    out.write(_fmt(purity(graph, _members(b_mask)), args.decimal) + "\n")
    return 0


def _cmd_rank_index(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    if graph.n < 2:
        raise UsageError(f"rank-index needs at least 2 qubits, got {graph.n}")
    half = graph.n // 2
    if args.m is not None and not 1 <= args.m <= half:
        raise UsageError(f"--m must be in 1..{half} for this graph")
    _check_budget(args, (_cut_count(graph.n, args.m) - 1).bit_length(), CUT_BUDGET_LOG2, _RANK)
    ms = [args.m] if args.m is not None else list(range(1, half + 1))
    if args.format == "csv":
        rows = []
        for m in ms:
            ri = rank_index(graph, m)
            for i, count in enumerate(ri.counts):
                rows.append({"m": m, "schmidt_rank": m - i, "count": count})
        _emit_rows(["m", "schmidt_rank", "count"], rows, "csv", out)
    else:
        for m in ms:
            out.write(f"RI_{m} = {rank_index(graph, m)}\n")
    return 0


def _cmd_spectrum(args: argparse.Namespace, out) -> int:
    graph = _load_graph(args)
    _check_budget(args, (_cut_count(graph.n) - 1).bit_length(), CUT_BUDGET_LOG2, _RANK)
    spectrum = purity_spectrum(graph)
    if args.format == "csv":
        rows = []
        for m in range(len(spectrum.levels)):
            for p_value, count in spectrum.purity_tally(m):
                rows.append({
                    "m": m,
                    "schmidt_rank": _log2_den(p_value),
                    "purity": _fmt(p_value, args.decimal),
                    "count": count,
                })
        _emit_rows(["m", "schmidt_rank", "purity", "count"], rows, "csv", out)
    else:
        for m in range(len(spectrum.levels)):
            tally = ", ".join(f"{_fmt(p, args.decimal)} x{c}" for p, c in spectrum.purity_tally(m))
            out.write(f"m={m}: {tally}\n")
    return 0


def _cmd_survey(args: argparse.Namespace, out) -> int:
    records = survey.ce_survey(args.n, stretch=args.stretch)
    fields = SURVEY_TABLE_FIELDS if args.format == "table" else SURVEY_FIELDS
    _emit_rows(fields, [_record_row(rec, fields, args.decimal) for rec in records], args.format, out)
    if args.format == "table":
        values = survey.distinct_ce_values(records)
        out.write(f"classes: {len(records)}\n")
        out.write(f"distinct CE values: {len(values)}\n")
    return 0


def _cmd_family(args: argparse.Namespace, out) -> int:
    if args.start < 1 or args.end < args.start:
        raise UsageError("--from/--to must satisfy 1 <= from <= to")
    largest = 2 * args.end if args.kind == "snowflake" else args.end
    member = f" for {args.kind}({args.end})"
    # no graph yet: the largest member's vertex count is its full-set _visit_log2
    _check_budget(args, largest, CE_BUDGET_LOG2, _VISIT + member)
    # each record also ranks its middle level
    _check_budget(args, (_cut_count(largest, largest // 2) - 1).bit_length(), CUT_BUDGET_LOG2, _RANK + member)
    records = survey.family_sweep(args.kind, range(args.start, args.end + 1))
    if args.format != "table":
        _emit_rows(FAMILY_FIELDS, [_record_row(rec, FAMILY_FIELDS, args.decimal) for rec in records], args.format, out)
        return 0
    for rec in records:
        line = f"{rec.kind}({rec.size}): n={rec.n} CE={_fmt(rec.ce, args.decimal)}"
        if rec.core_subset_ce is not None:
            line += f" core-subset CE={_fmt(rec.core_subset_ce, args.decimal)}"
        out.write(line + "\n")
    return 0


def _verify_suite(seed: int, trials: int, out) -> bool:
    from . import dense  # numpy loads only for the dense oracle

    rng = random.Random(seed)
    out.write(f"verify seed: {seed}\n")
    all_ok = True

    def run_block(name: str, total: int, one: Callable[[], tuple[bool, Graph, str]]) -> None:
        nonlocal all_ok
        start = time.perf_counter()
        passed = 0
        for _ in range(total):
            ok, graph, case = one()
            passed += ok
            if not ok:
                print(f"{name} failed: seed {seed}, graph6 {write_graph6(graph)}{case}", file=sys.stderr)
        status = "ok" if passed == total else "FAIL"
        if passed != total:
            all_ok = False
        out.write(f"{name}: {passed}/{total} {status} ({time.perf_counter() - start:.2f}s)\n")

    def stab_case() -> tuple[bool, Graph, str]:
        g = random_connected_graph(rng.randint(2, 8), rng)
        return dense.check_stabilizer(g), g, ""

    def measure_case() -> tuple[bool, Graph, str]:
        g = random_connected_graph(rng.randint(2, 8), rng)
        a, outcome = rng.randrange(g.n), rng.choice((1, -1))
        return dense.check_measurement_rule(g, a, outcome), g, f", qubit {a + 1}, outcome {outcome:+d}"

    def lemma_case() -> tuple[bool, Graph, str]:
        g = random_connected_graph(rng.randint(2, 8), rng)
        size = rng.randint(1, g.n - 1) if g.n > 1 else 1
        a_set = sorted(rng.sample(range(g.n), size))
        return dense.check_lemma(g, a_set), g, f", A={{{_labels_1idx(a_set)}}}"

    def purity_case() -> tuple[bool, Graph, str]:
        g = random_connected_graph(rng.randint(2, 10), rng)
        b_set = [q for q in range(g.n) if rng.random() < 0.5]
        exact = float(purity(g, b_set))
        approx = dense.dense_purity(dense.build_state(g), b_set)
        return abs(exact - approx) <= 1e-10, g, f", B={{{_labels_1idx(b_set)}}}"

    run_block("stabilizer eigenstate checks", trials, stab_case)
    run_block("measurement rule checks", trials, measure_case)
    run_block("lemma checks", trials, lemma_case)
    run_block("purity oracle equivalence", trials, purity_case)
    return all_ok


def _cmd_verify(args: argparse.Namespace, out) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    seed = args.seed if args.seed is not None else random.SystemRandom().randrange(1 << 31)
    ok = _verify_suite(seed, args.trials, out)
    out.write("verify: PASS\n" if ok else "verify: FAIL\n")
    return 0 if ok else VERIFY_FAILURE


def _ce_args(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--subset", metavar="LABELS", help="1-indexed labels, e.g. \"1,3,5\"")
    p.add_argument("--format", choices=("plain", "table", "csv", "json-lines"), default="plain")
    p.add_argument("--decimal", action="store_true", help="print exact decimals instead of fractions")
    p.add_argument("--no-budget", action="store_true", help=f"run even above 2^{CE_BUDGET_LOG2} stabilizer elements")


def _purity_args(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--subset", metavar="LABELS")
    p.add_argument("--cut", metavar="A|B", help="full bipartition, e.g. \"4,6|1,2,3,5\"")
    p.add_argument("--decimal", action="store_true")


def _rank_index_args(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--m", type=int, help="cut size (default: all m up to n/2)")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--no-budget", action="store_true", help=f"run even above 2^{CUT_BUDGET_LOG2} cut-ranks")


def _spectrum_args(p: argparse.ArgumentParser) -> None:
    _add_graph_source(p)
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--decimal", action="store_true")
    p.add_argument("--no-budget", action="store_true", help=f"run even above 2^{CUT_BUDGET_LOG2} cut-ranks")


def _survey_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stretch", action="store_true", help="allow the slow n = 7, 8 sweeps")
    p.add_argument("--format", choices=("table", "csv", "json-lines"), default="table")
    p.add_argument("--decimal", action="store_true")


def _family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=FAMILY_KINDS, required=True)
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="end", type=int, required=True)
    p.add_argument("--format", choices=("table", "csv", "json-lines"), default="table")
    p.add_argument("--decimal", action="store_true")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, help="RNG seed (default: random, printed)")
    p.add_argument("--trials", type=int, default=25, help="cases per check")


COMMANDS: dict[str, tuple[str, Callable[[argparse.ArgumentParser], None], Callable[..., int]]] = {
    "ce": ("Concentratable Entanglement of a subset (default: all qubits)", _ce_args, _cmd_ce),
    "purity": ("reduced-state purity of a subset or across a cut", _purity_args, _cmd_purity),
    "rank-index": ("Schmidt-rank tallies per cut size", _rank_index_args, _cmd_rank_index),
    "spectrum": ("purity tallies per cut size", _spectrum_args, _cmd_spectrum),
    "survey": ("CE over all connected isomorphism classes of n qubits", _survey_args, _cmd_survey),
    "family": ("CE sweep over a graph family", _family_args, _cmd_family),
    "verify": ("randomized dense-oracle cross-checks", _verify_args, _cmd_verify),
}


def _help_formatter() -> Callable[..., argparse.HelpFormatter]:
    """HelpFormatter at its default width, columns - 2, with the terminal asked once rather than once per argument."""
    import functools  # argparse imports both: functools as it loads, shutil for its first formatter
    import shutil
    return functools.partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The seven-command tree: the CLI's top-level usage and help, and every argv one command's parser cannot take."""
    description = "Exact reduced-state purities and Concentratable Entanglement of graph states."
    parser = argparse.ArgumentParser(prog="graphce", description=description, formatter_class=_help_formatter())
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_text, formatter_class=parser.formatter_class))
    return parser


def run(argv: Sequence[str] | None = None, out=None) -> int:
    """Run one command line (default: sys.argv[1:]) and return its exit code; no parser is cached."""
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        args, rest = None, ()
        if argv and argv[0] in COMMANDS:  # the tree's subparser, built alone, prints the same usage and errors
            parser = argparse.ArgumentParser(prog=f"graphce {argv[0]}", formatter_class=_help_formatter())
            COMMANDS[argv[0]][1](parser)
            args, rest = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if args is None or rest:  # no command, or arguments left over: the top-level usage line and messages
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return COMMANDS[args.command][2](args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"  # no source path or line
    sys.exit(run(sys.argv[1:]))
